//! A bounded multi-producer queue with backpressure accounting.
//!
//! The queue sits between the producer lanes and the ingest workers
//! (consumers). Bounding it is the backpressure mechanism: when ingest
//! falls behind, a producer either blocks
//! ([`OverflowPolicy::Block`] — lossless, the transport's own flow
//! control pushes back) or sheds the newest item
//! ([`OverflowPolicy::DropNewest`] — lossy but non-blocking, with every
//! drop counted). [`QueueStats`] exposes the pushed/popped/dropped
//! counters and the high-water mark, the "how close to the cliff did we
//! get" signal an operator watches.
//!
//! Built on [`std::sync::Mutex`] + [`std::sync::Condvar`]; the vendored
//! `parking_lot` stand-in has no condvar, and none of this is on a
//! per-record hot path (items are batches).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// What a push does when its lane is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Wait until a consumer makes room (lossless backpressure).
    Block,
    /// Reject the incoming item, counting it dropped (lossy shedding).
    DropNewest,
}

/// What happened to one pushed item.
///
/// Every push resolves to exactly one variant, and each variant is
/// counted in [`QueueStats`] (`pushed` / `dropped` / `rejected_closed`),
/// so `pushed + dropped + rejected_closed` always equals the number of
/// push attempts — no outcome is invisible to the accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an unchecked push outcome hides shed or rejected items"]
pub enum PushOutcome {
    /// The item entered the queue.
    Accepted,
    /// The item was shed by [`OverflowPolicy::DropNewest`] on a full
    /// queue (counted in [`QueueStats::dropped`]).
    Shed,
    /// The queue was closed — either before the push, or while a
    /// [`OverflowPolicy::Block`] push was waiting for room (counted in
    /// [`QueueStats::rejected_closed`]).
    Closed,
}

impl PushOutcome {
    /// Whether the item entered the queue.
    pub fn is_accepted(self) -> bool {
        self == PushOutcome::Accepted
    }
}

/// Counter snapshot of a queue's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Items accepted into the queue.
    pub pushed: u64,
    /// Items handed to consumers.
    pub popped: u64,
    /// Items rejected because the queue was full (DropNewest only).
    pub dropped: u64,
    /// Items rejected because the queue was closed — including a
    /// `Block`-policy push whose wait for room ended in `close()`.
    /// Before this counter existed, that path returned `false` without
    /// touching any stat, so a shutdown could silently lose the items
    /// producers were still holding.
    pub rejected_closed: u64,
    /// Maximum queue depth ever reached.
    pub high_water_mark: usize,
}

impl QueueStats {
    /// Total push attempts: every push lands in exactly one of
    /// `pushed`, `dropped`, or `rejected_closed`.
    pub fn attempts(&self) -> u64 {
        self.pushed + self.dropped + self.rejected_closed
    }
}

struct Inner<T> {
    /// One FIFO for the consumers; each item remembers its lane so the
    /// pop side can release the right lane's quota.
    items: VecDeque<(usize, T)>,
    /// In-queue item count per producer lane, against `lane_capacity`.
    lane_depth: Vec<usize>,
    stats: QueueStats,
    closed: bool,
}

/// A bounded FIFO queue shared between producer and consumer threads.
///
/// # Producer lanes
///
/// One FIFO feeds the consumers, but each *producer lane* has its own
/// capacity quota, so under [`OverflowPolicy::Block`] a full lane
/// stalls only its own producer — the other lanes keep pushing. This
/// is what lets N event-loop producers share one worker pool without
/// one slow consumer stalling every loop at once. A single producer is
/// the one-lane case.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    lanes: usize,
    lane_capacity: usize,
    policy: OverflowPolicy,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue with `lanes` producer lanes, each with its own
    /// quota of `lane_capacity` items (total bound: `lanes *
    /// lane_capacity`).
    pub fn with_lanes(lane_capacity: usize, lanes: usize, policy: OverflowPolicy) -> Self {
        assert!(lane_capacity > 0, "a zero-capacity queue cannot move items");
        assert!(lanes > 0, "a queue needs at least one producer lane");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(lane_capacity * lanes),
                lane_depth: vec![0; lanes],
                stats: QueueStats::default(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            lanes,
            lane_capacity,
            policy,
        }
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Number of producer lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Enqueues one item on `lane`, reporting exactly what happened as
    /// a [`PushOutcome`]. Under [`OverflowPolicy::Block`] a lane at its
    /// quota makes this call wait for a consumer to drain *this lane's*
    /// items — other lanes' fullness never blocks it; if the queue
    /// closes during that wait the item is rejected as
    /// [`PushOutcome::Closed`] and counted in
    /// [`QueueStats::rejected_closed`].
    ///
    /// # Panics
    ///
    /// If `lane` is not below [`lanes`](Self::lanes). The check runs
    /// before the queue lock is taken: a caller's bad index must not
    /// poison the lock every worker's next `pop` needs.
    pub fn push_lane(&self, lane: usize, item: T) -> PushOutcome {
        assert!(
            lane < self.lanes,
            "lane {lane} out of range: the queue has {} producer lanes",
            self.lanes
        );
        let mut g = crate::sync::lock(&self.inner); // lock: stream.queue
        loop {
            if g.closed {
                g.stats.rejected_closed += 1;
                return PushOutcome::Closed;
            }
            if g.lane_depth[lane] < self.lane_capacity {
                break;
            }
            match self.policy {
                OverflowPolicy::Block => {
                    g = crate::sync::wait(&self.not_full, g);
                }
                OverflowPolicy::DropNewest => {
                    g.stats.dropped += 1;
                    return PushOutcome::Shed;
                }
            }
        }
        g.items.push_back((lane, item));
        g.lane_depth[lane] += 1;
        g.stats.pushed += 1;
        let depth = g.items.len();
        if depth > g.stats.high_water_mark {
            g.stats.high_water_mark = depth;
        }
        drop(g);
        self.not_empty.notify_one();
        PushOutcome::Accepted
    }

    /// Dequeues the next item, waiting while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained — the consumer's
    /// shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut g = crate::sync::lock(&self.inner); // lock: stream.queue
        loop {
            if let Some((lane, item)) = g.items.pop_front() {
                g.lane_depth[lane] -= 1;
                g.stats.popped += 1;
                drop(g);
                // Waiters are lane-specific and the condvar is shared,
                // so wake them all: the ones whose lane is still full
                // re-check and park again.
                self.not_full.notify_all();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = crate::sync::wait(&self.not_empty, g);
        }
    }

    /// Closes the queue: further pushes are rejected, and consumers
    /// drain what remains before seeing `None`.
    pub fn close(&self) {
        let mut g = crate::sync::lock(&self.inner); // lock: stream.queue
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        crate::sync::lock(&self.inner).items.len() // lock: stream.queue
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> QueueStats {
        crate::sync::lock(&self.inner).stats // lock: stream.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_counters() {
        let q = BoundedQueue::with_lanes(8, 1, OverflowPolicy::Block);
        for i in 0..5 {
            assert!(q.push_lane(0, i).is_accepted());
        }
        let drained: Vec<i32> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(drained, [0, 1, 2, 3, 4]);
        let s = q.stats();
        assert_eq!(s.pushed, 5);
        assert_eq!(s.popped, 5);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.rejected_closed, 0);
        assert_eq!(s.high_water_mark, 5);
        assert_eq!(s.attempts(), 5);
    }

    #[test]
    fn drop_newest_sheds_when_full() {
        let q = BoundedQueue::with_lanes(2, 1, OverflowPolicy::DropNewest);
        assert!(q.push_lane(0, 1).is_accepted());
        assert!(q.push_lane(0, 2).is_accepted());
        assert_eq!(q.push_lane(0, 3), PushOutcome::Shed, "third item is shed");
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push_lane(0, 4).is_accepted(), "room again after a pop");
        assert_eq!(q.stats().high_water_mark, 2);
        assert_eq!(q.stats().attempts(), 4);
    }

    #[test]
    fn close_rejects_pushes_and_drains_consumers() {
        let q = BoundedQueue::with_lanes(4, 1, OverflowPolicy::Block);
        assert!(q.push_lane(0, 1).is_accepted());
        q.close();
        assert_eq!(
            q.push_lane(0, 2),
            PushOutcome::Closed,
            "closed queue rejects pushes"
        );
        assert_eq!(q.stats().rejected_closed, 1, "rejection is counted");
        assert_eq!(q.pop(), Some(1), "items in flight still drain");
        assert_eq!(q.pop(), None, "then consumers see end of stream");
        assert_eq!(q.stats().attempts(), 2);
    }

    #[test]
    fn blocking_push_waits_for_consumer() {
        let q = Arc::new(BoundedQueue::with_lanes(1, 1, OverflowPolicy::Block));
        assert!(q.push_lane(0, 10).is_accepted());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_lane(0, 20))
        };
        // The producer is stuck until we pop; popping twice proves the
        // blocked item eventually lands.
        assert_eq!(q.pop(), Some(10));
        assert_eq!(q.pop(), Some(20));
        assert!(producer.join().unwrap().is_accepted());
        assert_eq!(q.stats().pushed, 2);
    }

    /// Regression test for the shutdown accounting gap: a `Block`-policy
    /// push that was waiting for room when `close()` arrived used to
    /// return `false` without incrementing any counter, so the item
    /// vanished from `QueueStats` entirely. It must surface as
    /// `rejected_closed`, keeping `pushed + dropped + rejected_closed`
    /// equal to the number of attempts.
    #[test]
    fn close_during_blocked_push_is_counted() {
        let q = Arc::new(BoundedQueue::with_lanes(1, 1, OverflowPolicy::Block));
        assert!(q.push_lane(0, 1).is_accepted());
        let blocked: Vec<_> = (0..3)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.push_lane(0, 10 + i))
            })
            .collect();
        // Give the producers time to park inside `push_lane` (the
        // outcome is `Closed` either way — parked or not-yet-started —
        // so this only steers the test toward the interesting
        // interleaving).
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let outcomes: Vec<PushOutcome> = blocked.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(
            outcomes.iter().all(|o| *o == PushOutcome::Closed),
            "mid-wait close rejects the parked producers: {outcomes:?}"
        );
        let s = q.stats();
        assert_eq!(s.pushed, 1);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.rejected_closed, 3, "each parked producer is counted");
        assert_eq!(s.attempts(), 4, "no push outcome is invisible");
    }

    /// The per-lane backpressure contract: lane 0 at its quota blocks
    /// only lane 0's producer; lane 1 keeps pushing through the same
    /// queue the whole time.
    #[test]
    fn full_lane_blocks_only_its_own_producer() {
        let q = Arc::new(BoundedQueue::with_lanes(1, 2, OverflowPolicy::Block));
        assert!(q.push_lane(0, 100).is_accepted());
        let blocked = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_lane(0, 101))
        };
        // Give the lane-0 producer time to park on its full lane.
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Lane 1 is unaffected: its quota is its own.
        assert!(q.push_lane(1, 200).is_accepted());
        assert_eq!(q.len(), 2, "lane 1 pushed past lane 0's stall");
        // Draining releases lane 0; FIFO order is global across lanes.
        assert_eq!(q.pop(), Some(100));
        assert!(blocked.join().unwrap().is_accepted());
        let mut rest = [q.pop().unwrap(), q.pop().unwrap()];
        rest.sort_unstable();
        assert_eq!(rest, [101, 200]);
        assert_eq!(q.stats().pushed, 3);
    }

    #[test]
    fn drop_newest_sheds_per_lane() {
        let q = BoundedQueue::with_lanes(1, 2, OverflowPolicy::DropNewest);
        assert!(q.push_lane(0, 1).is_accepted());
        assert_eq!(q.push_lane(0, 2), PushOutcome::Shed, "lane 0 at quota");
        assert!(q.push_lane(1, 3).is_accepted(), "lane 1 has its own quota");
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().attempts(), 3);
    }

    /// An out-of-range lane is the caller's bug, and must stay the
    /// caller's problem: the check has to precede the lock, because a
    /// panic inside the critical section poisons the queue lock and
    /// takes every other producer and worker down on their next touch.
    #[test]
    fn out_of_range_lane_panics_without_poisoning_the_queue() {
        let q = Arc::new(BoundedQueue::with_lanes(2, 2, OverflowPolicy::Block));
        let bad = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_lane(2, 1))
        };
        assert!(bad.join().is_err(), "lane 2 of 2 is rejected loudly");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_lane(1, 7))
        };
        assert!(producer.join().expect("queue still usable").is_accepted());
        assert_eq!(q.pop(), Some(7));
        assert_eq!(
            q.stats().attempts(),
            1,
            "the bad push never reached the queue"
        );
    }

    #[test]
    fn many_producers_one_consumer() {
        let q = Arc::new(BoundedQueue::with_lanes(4, 1, OverflowPolicy::Block));
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        assert!(q.push_lane(0, t * 100 + i).is_accepted());
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        for _ in 0..200 {
            got.push(q.pop().unwrap());
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        let expected: Vec<i32> = (0..4)
            .flat_map(|t| (0..50).map(move |i| t * 100 + i))
            .collect();
        assert_eq!(got, expected);
        assert!(q.stats().high_water_mark <= 4);
    }
}
