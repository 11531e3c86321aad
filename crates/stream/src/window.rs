//! Event-time windowing with a watermark and allowed lateness.
//!
//! Windows are keyed by simulated [`Day`] — the observation unit of the
//! paper's pipeline. The tracker maintains a *watermark* that trails the
//! maximum event time seen by the configured `allowed_lateness`; a day's
//! window is closable once the watermark reaches the day's end, i.e.
//! once the stream has advanced `allowed_lateness` past it. Records are
//! gated at arrival:
//!
//! - event time in a still-open window → **accepted**; additionally
//!   counted *late* if it trails the current watermark (out of order by
//!   more than the lateness bound would have dropped it — these are the
//!   stragglers the lateness budget exists for);
//! - event time in a closed window → **dropped** (counted; the window's
//!   result was already emitted and is never reopened).
//!
//! Gating is a pure function of `(event time, watermark)`, which is what
//! keeps the streaming path's window contents — and therefore its
//! pipeline results — exactly equal to a batch partition of the same
//! records by day.

use mt_types::{Day, SimDuration, SimTime};
use std::collections::BTreeSet;

/// The gate's decision for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The record belongs to the (open) window of `day`.
    Accept {
        /// The window's day.
        day: Day,
        /// Whether the record trails the current watermark.
        late: bool,
    },
    /// The record's window already closed; the record is dropped.
    TooLate {
        /// The closed window's day.
        day: Day,
    },
}

/// Watermark-based day-window bookkeeping.
#[derive(Debug)]
pub struct WindowTracker {
    allowed_lateness: SimDuration,
    max_event: Option<SimTime>,
    /// Days with accepted data whose windows are still open.
    open: BTreeSet<Day>,
    /// Records accepted with event time at or ahead of the watermark.
    pub on_time: u64,
    /// Records accepted behind the watermark (inside allowed lateness).
    pub late: u64,
    /// Records dropped because their window had closed.
    pub dropped: u64,
}

impl WindowTracker {
    /// Creates a tracker with the given allowed lateness.
    pub fn new(allowed_lateness: SimDuration) -> Self {
        WindowTracker {
            allowed_lateness,
            max_event: None,
            open: BTreeSet::new(),
            on_time: 0,
            late: 0,
            dropped: 0,
        }
    }

    /// The configured allowed lateness.
    pub fn allowed_lateness(&self) -> SimDuration {
        self.allowed_lateness
    }

    /// The current watermark: the maximum event time seen minus the
    /// allowed lateness. `None` until the first record arrives.
    pub fn watermark(&self) -> Option<SimTime> {
        self.max_event
            .map(|t| SimTime(t.0.saturating_sub(self.allowed_lateness.as_secs())))
    }

    /// The single close predicate, shared by the gate ([`is_closed`],
    /// which drops records) and the scheduler feed ([`take_closable`],
    /// which emits windows). Keeping both on one function makes the
    /// boundary case impossible to skew: `day.end()` is *exclusive*
    /// (the first instant of the next day), and a window closes exactly
    /// when the watermark reaches it — `wm == day.end()` closes, `wm ==
    /// day.end() - 1` does not. A record timestamped exactly at the
    /// watermark is therefore never droppable (its day cannot satisfy
    /// `day.end() <= wm` while `t == wm` lies inside the day), matching
    /// the lateness gate's strict `t < wm` below.
    ///
    /// [`is_closed`]: WindowTracker::is_closed
    /// [`take_closable`]: WindowTracker::take_closable
    fn closed_under(day: Day, wm: SimTime) -> bool {
        day.end() <= wm
    }

    /// Whether `day`'s window has closed under the current watermark.
    pub fn is_closed(&self, day: Day) -> bool {
        self.watermark()
            .is_some_and(|wm| Self::closed_under(day, wm))
    }

    /// Gates one record by event time, advancing the watermark.
    pub fn observe(&mut self, t: SimTime) -> Gate {
        let day = t.day();
        if self.is_closed(day) {
            self.dropped += 1;
            return Gate::TooLate { day };
        }
        let late = self.watermark().is_some_and(|wm| t < wm);
        if late {
            self.late += 1;
        } else {
            self.on_time += 1;
        }
        if self.max_event.is_none_or(|m| t > m) {
            self.max_event = Some(t);
        }
        self.open.insert(day);
        Gate::Accept { day, late }
    }

    /// Advances the watermark to the end of `day`, closing every window
    /// up to and including it: a record for a day an earlier run
    /// already closed is dropped, never reopened.
    pub fn resume_after(&mut self, day: Day) {
        let t = day.end() + self.allowed_lateness;
        if self.max_event.is_none_or(|m| t > m) {
            self.max_event = Some(t);
        }
    }

    /// Removes and returns the open days whose windows became closable
    /// under the current watermark, in ascending day order. The caller
    /// must emit them in that order so multi-day combination stays
    /// incremental.
    pub fn take_closable(&mut self) -> Vec<Day> {
        let Some(wm) = self.watermark() else {
            return Vec::new();
        };
        let closable: Vec<Day> = self
            .open
            .iter()
            .copied()
            .take_while(|d| Self::closed_under(*d, wm))
            .collect();
        for d in &closable {
            self.open.remove(d);
        }
        closable
    }

    /// Removes and returns every remaining open day in ascending order
    /// (end of stream: all windows flush regardless of the watermark).
    pub fn drain_open(&mut self) -> Vec<Day> {
        std::mem::take(&mut self.open).into_iter().collect()
    }

    /// Days currently open, ascending.
    pub fn open_days(&self) -> impl Iterator<Item = Day> + '_ {
        self.open.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(day: u32, secs: u64) -> SimTime {
        Day(day).start() + SimDuration::secs(secs)
    }

    #[test]
    fn in_order_records_are_on_time() {
        let mut w = WindowTracker::new(SimDuration::hours(2));
        assert_eq!(
            w.observe(t(0, 10)),
            Gate::Accept {
                day: Day(0),
                late: false
            }
        );
        assert_eq!(
            w.observe(t(0, 500)),
            Gate::Accept {
                day: Day(0),
                late: false
            }
        );
        assert_eq!(w.on_time, 2);
        assert_eq!(w.late, 0);
        assert!(w.take_closable().is_empty(), "watermark inside day 0");
    }

    #[test]
    fn window_closes_once_lateness_elapses() {
        let mut w = WindowTracker::new(SimDuration::hours(2));
        w.observe(t(0, 100));
        w.observe(t(1, 0));
        assert!(
            w.take_closable().is_empty(),
            "day 0 stays open through the lateness horizon"
        );
        w.observe(t(1, 2 * 3600)); // watermark reaches day 0's end exactly
        assert_eq!(w.take_closable(), [Day(0)]);
        assert!(!w.is_closed(Day(1)));
    }

    #[test]
    fn straggler_within_lateness_is_late_but_accepted() {
        let mut w = WindowTracker::new(SimDuration::hours(2));
        w.observe(t(1, 3600)); // watermark = day 1 minus 1 h → inside day 0
        match w.observe(t(0, 80_000)) {
            Gate::Accept { day, late } => {
                assert_eq!(day, Day(0));
                assert!(late, "behind the watermark");
            }
            g => panic!("unexpected gate {g:?}"),
        }
        assert_eq!(w.late, 1);
    }

    #[test]
    fn straggler_past_lateness_is_dropped() {
        let mut w = WindowTracker::new(SimDuration::hours(2));
        w.observe(t(0, 100));
        w.observe(t(1, 3 * 3600)); // watermark = day 1 + 1 h → day 0 closed
        assert_eq!(w.take_closable(), [Day(0)]);
        assert_eq!(w.observe(t(0, 200)), Gate::TooLate { day: Day(0) });
        assert_eq!(w.dropped, 1);
        // A day that never held data is also closed once passed.
        let mut w2 = WindowTracker::new(SimDuration::secs(0));
        w2.observe(t(5, 0));
        assert_eq!(w2.observe(t(2, 0)), Gate::TooLate { day: Day(2) });
    }

    #[test]
    fn multiple_days_close_in_order() {
        let mut w = WindowTracker::new(SimDuration::secs(0));
        w.observe(t(0, 5));
        w.observe(t(1, 5));
        w.observe(t(2, 5));
        w.observe(t(4, 0)); // jump: days 0–2 all closable at once
        assert_eq!(w.take_closable(), [Day(0), Day(1), Day(2)]);
        assert_eq!(w.drain_open(), [Day(4)]);
        assert!(w.take_closable().is_empty());
    }

    /// Boundary sweep at ±1 tick around the two equalities the gate and
    /// the scheduler share: a record exactly *at* the watermark, and a
    /// watermark exactly *at* a day's (exclusive) end.
    #[test]
    fn lateness_boundary_is_exclusive_at_both_equalities() {
        // Watermark lands exactly on t(0, 1000): lateness 1 h, max
        // event at day 0 + 1000 s + 1 h.
        let mut w = WindowTracker::new(SimDuration::hours(1));
        w.observe(t(0, 1000 + 3600));
        assert_eq!(w.watermark(), Some(t(0, 1000)));
        // Exactly at the watermark → on-time (late is strict `t < wm`).
        assert_eq!(
            w.observe(t(0, 1000)),
            Gate::Accept {
                day: Day(0),
                late: false
            },
            "t == watermark is on-time"
        );
        // One tick behind → late, still accepted.
        assert_eq!(
            w.observe(t(0, 999)),
            Gate::Accept {
                day: Day(0),
                late: true
            },
            "t == watermark - 1 is late"
        );
        assert_eq!((w.on_time, w.late, w.dropped), (2, 1, 0));

        // Close condition: day 0 ends (exclusively) at day 1's start.
        // One tick short of the end → open; exactly at the end → closed.
        let mut w = WindowTracker::new(SimDuration::secs(0));
        w.observe(t(0, 5));
        w.observe(t(0, 86_399)); // wm = day 0's last second = end - 1
        assert!(
            !w.is_closed(Day(0)) && w.take_closable().is_empty(),
            "wm == day end - 1: still open"
        );
        w.observe(Day(1).start());
        assert!(w.is_closed(Day(0)), "wm == day end: closed");
        assert_eq!(w.take_closable(), [Day(0)]);
        // And the gate agrees with the scheduler: the same watermark
        // that emitted the window also drops a record for it.
        assert_eq!(w.observe(t(0, 6)), Gate::TooLate { day: Day(0) });
    }

    #[test]
    fn zero_lateness_watermark_tracks_max_event() {
        let mut w = WindowTracker::new(SimDuration::secs(0));
        assert_eq!(w.watermark(), None);
        w.observe(t(3, 7));
        assert_eq!(w.watermark(), Some(t(3, 7)));
        w.observe(t(3, 2)); // out of order, same window: still accepted
        assert_eq!(w.watermark(), Some(t(3, 7)), "watermark never regresses");
        assert_eq!(w.late, 1);
    }
}
