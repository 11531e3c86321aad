//! The streaming service: IPFIX byte chunks in on N producer *lanes*,
//! per-window and combined pipeline results out.
//!
//! # Threading model
//!
//! N *lanes* ([`LaneProducer`], one per event loop; a single in-process
//! producer is the `lanes = 1` case) and M *ingest workers*. Workers do
//! only the order-*independent* part — folding records into the day's
//! per-/24 stats and each batch's port tally into the day's port
//! histogram — so which worker picks up which batch cannot affect
//! results. Each open day has exactly one accumulator, shared by every
//! worker: its [`DEFAULT_SHARDS`] stats shards each sit behind their own
//! lock. A worker buckets a batch's record indices per shard with
//! [`StatsLayout::shard_of`] (destination and source halves apart) and
//! then folds one touched shard at a time, so workers meet only where
//! two of them fold into the same shard at once. At window close the
//! closer takes the day's accumulator out of the open-day map and owns
//! it alone: its shards *are* the window's [`ShardedTrafficStats`], and
//! nothing is merged.
//!
//! Each lane owns what never needs cross-lane order: its collector
//! sessions (a peer's bytes arrive on one lane at a time —
//! kernel-hashed UDP, connection-pinned TCP), its decode and port-tally
//! scratch, and its [`BatchPool`]. Everything whose order matters is
//! shared behind four locks with a fixed acquisition order (**closer →
//! gate → days → shard**, the DESIGN.md catalogue order; each may also
//! be taken alone):
//!
//! - the **closer** ([`Mutex`]): the [`WindowScheduler`] and the
//!   accumulated reports — serializing closes keeps days ascending no
//!   matter which lane's watermark advance triggered them;
//! - the **gate** ([`Mutex`]): the [`WindowTracker`] (one global
//!   watermark), per-exporter gate counters, and the shed / rejected
//!   counts — gate decisions only; it nests the days lock to count the
//!   gated records into their days;
//! - the **days** ([`Mutex`] + [`Condvar`]): the open-day map, one
//!   record per open day — its port histogram, the handle to its shards,
//!   and the close barrier's `pushed` / `processed` counts. Taken under
//!   the gate to count gated records, by a worker twice per batch (fold
//!   the ports and clone the handle; count the batch processed), and by
//!   the closer, which waits on it for the barrier and takes the day out
//!   in the same hold;
//! - the **shards** (one [`Mutex`] per shard of each open day): a
//!   shard's stats, taken by a worker once per touched shard per batch
//!   and, uncontended, by the closer to move the stats out.
//!
//! No thread holds two shard locks, and none nests days and shard: a
//! worker takes each alone, in turn.
//!
//! # Why no accepted record can be lost or double-counted
//!
//! A day's `pushed` count is incremented *at gate time, under the gate
//! lock* — before the batch is enqueued. `take_closable` runs under the
//! same lock, and once it removes a day every later `observe` for that
//! day returns `TooLate` (the watermark only advances), so the count
//! taken at close is final: the barrier (`processed == pushed`, both in
//! the day's one record) provably waits for every batch that was gated
//! before the close decision, including ones a lane had gated but not
//! yet enqueued. A batch the queue sheds (`DropNewest`) or rejects
//! (closed) is backed out of `pushed` and wakes the barrier; it never
//! reaches a worker, so neither its stats nor its ports do.
//!
//! A worker finishes a batch — ports under the days lock, every record
//! half under its shard's lock — and drops its handle to the day's
//! shards *before* it adds the batch to `processed`. So once the
//! barrier passes, every gated record of the day is in the day's
//! shards, no worker holds their handle, and none will take it again
//! (no later batch for the day exists): the closer removes the day's
//! record in the hold in which the barrier passed, and that is the last
//! touch.
//!
//! The result is the keystone property at any lane and worker count:
//! the window stats equal a batch ingest of exactly the gated record
//! set, bit for bit — this module's tests pin it against the serial
//! batch pipeline at lanes ∈ {1, 2, 4}, `tests/streaming_equivalence.rs`
//! over seven days of netmodel traffic, and `tests/serve_equivalence.rs`
//! through real sockets at loops ∈ {1, 2, 4}.
//!
//! # When a thread fails
//!
//! A panic fails the run; it never hangs it. The rule is the crate's
//! poisoning policy (`sync.rs`): a panic re-raises on whoever touches
//! the poisoned lock next. A lane or closer that panics poisons the
//! locks it holds. A worker that panics would hold nothing the closer
//! waits on, so it is made to: it takes the days lock, closes the queue,
//! wakes the barrier and resumes its unwind holding the lock. From then
//! on the barrier, `finish` and each lane's next push re-raise, and
//! [`MultiStreamService::health`] reports `failed` even while no record
//! arrives to run into the dead worker. Windows
//! closed before the failure stay closed (and persisted, under a sink
//! that persists); the torn day, whose shards are half-folded, never
//! reaches the scheduler.

use crate::batch::BatchPool;
use crate::collector::StreamCollector;
use crate::queue::{BoundedQueue, PushOutcome};
use crate::scheduler::{
    CombinedReport, SchedulerConfig, WindowReport, WindowScheduler, WindowSink,
};
use crate::service::{
    republish_health, ExporterCounters, HealthSnapshot, StreamConfig, StreamOutput,
};
use crate::window::{Gate, WindowTracker};
use mt_flow::sharded::DEFAULT_SHARDS;
use mt_flow::{FlowRecord, ShardedTrafficStats, StatsLayout, StatsShard, TrafficStats};
use mt_obs::{Counter, Gauge, Histogram, MetricsRegistry, DEFAULT_TIME_BUCKETS};
use mt_types::{Asn, Block24, Day, FxHashMap, PrefixTrie};
use mt_wire::ipfix::IpfixFlow;
use std::collections::BTreeMap;
use std::panic;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// One unit of ingest work, tagged with the producer lane whose
/// [`BatchPool`] the record buffer returns to after folding.
struct LaneBatch {
    lane: usize,
    day: Day,
    records: Vec<FlowRecord>,
    /// The records' destination-port packet histogram, tallied by the
    /// lane so the worker folds one short list, not every record's port.
    ports: Vec<(u16, u64)>,
}

/// One open day: its accumulator, shared by every ingest worker, and
/// the close barrier's counts.
struct OpenDay {
    /// Destination-port packet histogram of the folded batches.
    ports: FxHashMap<u16, u64>,
    /// The day's map-layout stats shards, in shard order, each behind
    /// its own lock.
    shards: Arc<[Mutex<StatsShard>]>,
    /// Records gated into this day (counted before enqueue; shed and
    /// rejected pushes are backed out).
    pushed: u64,
    /// Records folded into this day's shards.
    processed: u64,
}

impl OpenDay {
    fn new() -> Self {
        OpenDay {
            ports: FxHashMap::default(),
            shards: (0..DEFAULT_SHARDS)
                .map(|_| Mutex::new(StatsShard::Map(TrafficStats::new())))
                .collect(),
            pushed: 0,
            processed: 0,
        }
    }
}

/// Per-exporter window-gate counters, kept under the gate lock so the
/// health identities (`decoded == on_time + late + dropped_late`, the
/// per-exporter sums) are exact even mid-stream: every quantity they
/// relate is updated under — and snapshotted under — one lock.
#[derive(Debug, Clone, Copy, Default)]
struct GateExporter {
    flows: u64,
    late: u64,
    dropped: u64,
}

/// Order-sensitive gate state shared by every lane.
struct GateState {
    tracker: WindowTracker,
    /// Per-exporter gate counters, keyed by session name.
    exporters: BTreeMap<String, GateExporter>,
    /// Records shed by queue backpressure (`DropNewest` only).
    dropped_backpressure: u64,
    /// Records lost to a queue closed mid-push: a shutdown race, or a
    /// dead worker, which closes the queue (module docs).
    rejected_closed: u64,
}

/// State shared between the lanes and the ingest workers.
struct LaneShared {
    queue: BoundedQueue<LaneBatch>,
    /// Per-lane buffer pools: each lane takes from its own, and workers
    /// return each buffer to the pool of the lane that filled it.
    pools: Vec<BatchPool>,
    /// The open-day map: each open day's one record.
    days: Mutex<FxHashMap<Day, OpenDay>>,
    /// Per-worker `mt_ingest_records_total` counters.
    ingest_counters: Vec<Counter>,
    /// Shard-lock acquisitions that found the lock held.
    shard_contended: Counter,
    gate: Mutex<GateState>,
    /// Wakes the close barrier, which waits on `days`: a batch counted
    /// processed, or a push backed out.
    drained: Condvar,
}

/// Close-path state: the scheduler, the run's accumulated reports and
/// the close's metric handles, behind the closer lock so windows close
/// strictly ascending.
struct CloserState<F> {
    scheduler: WindowScheduler<F>,
    windows: Vec<WindowReport>,
    combined: Vec<CombinedReport>,
    /// `mt_flow_shard_blocks`, one gauge per shard.
    shard_blocks: [Gauge; DEFAULT_SHARDS],
    windows_closed: Counter,
    /// `mt_stream_close_nanoseconds` for the barrier, assemble and
    /// schedule steps of a close.
    close_time: [Histogram; 3],
}

/// The coordinator handle of a streaming run: health
/// snapshots mid-run, [`finish`](Self::finish) at the end. Lanes are
/// handed out once at [`start`](Self::start) and returned at finish.
pub struct MultiStreamService<F> {
    cfg: StreamConfig,
    shared: Arc<LaneShared>,
    closer: Arc<Mutex<CloserState<F>>>,
    /// Per-lane collectors; each lane locks its own per chunk, health
    /// locks each briefly to aggregate session counters.
    collectors: Vec<Arc<Mutex<StreamCollector>>>,
    handles: Vec<JoinHandle<()>>,
    registry: Arc<MetricsRegistry>,
    windows_closed_counter: Counter,
}

/// One event loop's producer handle: decodes its peers' bytes, gates
/// the records, and feeds the shared worker pool through its own queue
/// lane. `Send` (it owns no thread affinity) but not `Sync` — exactly
/// one loop drives it.
pub struct LaneProducer<F> {
    lane: usize,
    collector: Arc<Mutex<StreamCollector>>,
    shared: Arc<LaneShared>,
    closer: Arc<Mutex<CloserState<F>>>,
    /// Reusable decode buffer: one allocation serves every chunk.
    decode_buf: Vec<IpfixFlow>,
    /// Reusable per-batch port-histogram scratch.
    port_scratch: FxHashMap<u16, u64>,
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> MultiStreamService<F> {
    /// Starts the service with `lanes` producer lanes: spawns the
    /// ingest workers and returns the coordinator handle plus one
    /// [`LaneProducer`] per lane.
    pub fn start(cfg: StreamConfig, lanes: usize, rib_of: F) -> (Self, Vec<LaneProducer<F>>) {
        Self::start_with_registry(cfg, lanes, rib_of, Arc::new(MetricsRegistry::new()))
    }

    /// Like [`start`](Self::start), but publishing into a
    /// caller-supplied registry.
    pub fn start_with_registry(
        cfg: StreamConfig,
        lanes: usize,
        rib_of: F,
        registry: Arc<MetricsRegistry>,
    ) -> (Self, Vec<LaneProducer<F>>) {
        assert!(cfg.ingest_threads >= 1);
        assert!(lanes >= 1, "a run needs at least one producer lane");
        let ingest_counters = (0..cfg.ingest_threads)
            .map(|i| {
                let worker = i.to_string();
                registry.counter_with(
                    "mt_ingest_records_total",
                    &[("worker", worker.as_str())],
                    "Records folded into window accumulators by this worker.",
                )
            })
            .collect();
        let shared = Arc::new(LaneShared {
            // Each lane gets the configured capacity as its own quota,
            // so one stalled lane never blocks the others.
            queue: BoundedQueue::with_lanes(cfg.queue_capacity, lanes, cfg.overflow),
            // Per lane: its quota's worth of batches may wait, one may
            // be in a worker's hands, one in the lane's.
            pools: (0..lanes)
                .map(|_| BatchPool::new(cfg.queue_capacity + 2))
                .collect(),
            days: Mutex::new(FxHashMap::default()),
            ingest_counters,
            shard_contended: registry.counter(
                "mt_stream_shard_lock_contended_total",
                "Shard-lock acquisitions by ingest workers that found the lock held.",
            ),
            gate: Mutex::new(GateState {
                tracker: WindowTracker::new(cfg.allowed_lateness),
                exporters: BTreeMap::new(),
                dropped_backpressure: 0,
                rejected_closed: 0,
            }),
            drained: Condvar::new(),
        });
        let handles = (0..cfg.ingest_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let Err(panic) = panic::catch_unwind(|| ingest_worker(&shared, i)) else {
                        return;
                    };
                    // A dead worker fails the run (module docs): it dies
                    // holding the days lock, taken past any earlier
                    // poisoning, so the lock re-raises its panic.
                    // lock: stream.days
                    let _days = shared.days.lock().unwrap_or_else(PoisonError::into_inner);
                    shared.queue.close();
                    shared.drained.notify_all();
                    panic::resume_unwind(panic)
                })
            })
            .collect();
        let scheduler = WindowScheduler::new(
            rib_of,
            SchedulerConfig {
                sampling_rate: cfg.sampling_rate,
                pipeline: cfg.pipeline.clone(),
                threads: cfg.pipeline_threads,
            },
        )
        .with_registry(&registry);
        let windows_closed_counter = registry.counter(
            "mt_window_closed_total",
            "Windows closed and run through the pipeline.",
        );
        let closer = Arc::new(Mutex::new(CloserState {
            scheduler,
            windows: Vec::new(),
            combined: Vec::new(),
            shard_blocks: std::array::from_fn(|i| {
                registry.gauge_with(
                    "mt_flow_shard_blocks",
                    &[("shard", i.to_string().as_str())],
                    "Destination /24s held by this shard at the last window close.",
                )
            }),
            windows_closed: windows_closed_counter.clone(),
            close_time: ["barrier", "assemble", "schedule"].map(|step| {
                registry.histogram_with(
                    "mt_stream_close_nanoseconds",
                    &[("step", step)],
                    &DEFAULT_TIME_BUCKETS,
                    "Wall-clock time of one step of a window close.",
                )
            }),
        }));
        let collectors: Vec<Arc<Mutex<StreamCollector>>> = (0..lanes)
            .map(|_| Arc::new(Mutex::new(StreamCollector::new())))
            .collect();
        let producers = (0..lanes)
            .map(|lane| LaneProducer {
                lane,
                collector: Arc::clone(&collectors[lane]),
                shared: Arc::clone(&shared),
                closer: Arc::clone(&closer),
                decode_buf: Vec::new(),
                port_scratch: FxHashMap::default(),
            })
            .collect();
        (
            MultiStreamService {
                cfg,
                shared,
                closer,
                collectors,
                handles,
                registry,
                windows_closed_counter,
            },
            producers,
        )
    }

    /// The run's metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The service configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Number of producer lanes.
    pub fn lanes(&self) -> usize {
        self.collectors.len()
    }

    /// Installs a window sink on the scheduler (see
    /// [`WindowSink`]); callable any time before the first close.
    pub fn set_window_sink(&self, sink: WindowSink) {
        crate::sync::lock(&self.closer).scheduler.set_sink(sink); // lock: stream.closer
    }

    /// Resumes from what an earlier run persisted: `stats` is the merged
    /// traffic of windows `first..=last`. The combination continues from
    /// it (split over the stream's map-layout shards), and the window
    /// gate starts past `last`, so a replayed record for an
    /// already-persisted day is counted as dropped late instead of
    /// reopening its window. Call it before any lane pushes.
    pub fn resume(&self, stats: &TrafficStats, first: Day, last: Day) {
        let cumulative =
            ShardedTrafficStats::from_unsharded(stats, DEFAULT_SHARDS, StatsLayout::Map);
        let mut closer = crate::sync::lock(&self.closer); // lock: stream.closer
        closer.scheduler.resume(cumulative, first, last);
        let mut gate = crate::sync::lock(&self.shared.gate); // lock: stream.gate
        gate.tracker.resume_after(last);
    }

    /// Windows closed so far, read from the `mt_window_closed_total`
    /// counter: it answers at once, even while a close runs.
    pub fn windows_closed(&self) -> usize {
        self.windows_closed_counter.get() as usize
    }

    /// Takes a [`HealthSnapshot`] of the whole stack and republishes
    /// the legacy counters into the registry — callable from any thread
    /// (the daemon's control loop) while the lanes ingest.
    ///
    /// Mid-run exactness: every quantity the gate identity relates
    /// (decoded, on-time, late, dropped, the per-exporter splits) is
    /// read under the one gate lock that writes it, so the identities
    /// hold at any instant, not just at quiescent points. The worker
    /// counters are read *before* the gate so the derived `in_flight`
    /// can never underflow.
    pub fn health(&self) -> HealthSnapshot {
        let ingested: u64 = self.shared.ingest_counters.iter().map(Counter::get).sum();
        let queue = self.shared.queue.stats();
        let queue_depth = self.shared.queue.len() as u64;
        let g = crate::sync::lock(&self.shared.gate); // lock: stream.gate
        let (on_time, late, dropped_late) = (g.tracker.on_time, g.tracker.late, g.tracker.dropped);
        let windows_open = g.tracker.open_days().count() as u64;
        let (dropped_backpressure, rejected_closed) = (g.dropped_backpressure, g.rejected_closed);
        let gate_exporters = g.exporters.clone();
        drop(g);

        // Session counters (bytes, messages, decode errors) come from
        // the per-lane collectors; a peer that reconnected onto a
        // different loop has sessions on several lanes, and they SUM —
        // the exporter's lifetime counters keep accumulating across
        // loops. Flows/late/dropped come from the gate side so the
        // identities stay exact (a decoded-but-not-yet-gated chunk is
        // invisible to both sides of every identity).
        #[derive(Default)]
        struct SessionSums {
            bytes: u64,
            messages: u64,
            decode_errors: u64,
        }
        let mut sessions: BTreeMap<String, SessionSums> = BTreeMap::new();
        for collector in &self.collectors {
            let c = crate::sync::lock(collector); // lock: stream.collector
            for (name, s) in c.sessions() {
                let e = sessions.entry(name.to_owned()).or_default();
                e.bytes += s.bytes;
                e.messages += s.messages;
                e.decode_errors += s.decode_errors();
            }
        }
        let mut names: Vec<&String> = sessions.keys().collect();
        let mut gate_only: Vec<&String> = gate_exporters
            .keys()
            .filter(|n| !sessions.contains_key(*n))
            .collect();
        names.append(&mut gate_only);
        names.sort_unstable();
        let exporters: Vec<ExporterCounters> = names
            .into_iter()
            .map(|name| {
                let s = sessions
                    .get(name)
                    .map_or((0, 0, 0), |s| (s.bytes, s.messages, s.decode_errors));
                let gx = gate_exporters.get(name).copied().unwrap_or_default();
                ExporterCounters {
                    name: name.clone(),
                    bytes: s.0,
                    messages: s.1,
                    flows: gx.flows,
                    decode_errors: s.2,
                    late: gx.late,
                    dropped: gx.dropped,
                }
            })
            .collect();

        let accepted = on_time + late;
        let snapshot = HealthSnapshot {
            decoded: exporters.iter().map(|e| e.flows).sum(),
            on_time,
            late,
            dropped_late,
            dropped_backpressure,
            rejected_closed,
            ingested,
            in_flight: accepted - ingested - dropped_backpressure - rejected_closed,
            queue,
            queue_depth,
            windows_open,
            windows_closed: self.windows_closed_counter.get(),
            exporters,
            // A worker dies holding `stream.days` (see "When a thread
            // fails"); asking whether it is poisoned takes no lock.
            failed: self.shared.days.is_poisoned(),
        };
        republish_health(&self.registry, &snapshot);
        snapshot
    }

    /// Ends the run: takes the lanes back (their loops are done), closes
    /// every remaining open window in day order (each close waits for
    /// its day's in-flight records, and its sink sees
    /// [`ClosedWindow::forced`](crate::ClosedWindow::forced) set), stops
    /// the workers, and returns the run's full output.
    ///
    /// Panics unless `lanes` is exactly this service's set: a lane left
    /// live could push after the final snapshot, into a closed queue.
    pub fn finish(self, lanes: Vec<LaneProducer<F>>) -> StreamOutput {
        // Lanes are not `Clone`, so the right count of lanes this
        // service owns is all of them.
        assert!(
            lanes.len() == self.collectors.len()
                && lanes.iter().all(|l| Arc::ptr_eq(&l.shared, &self.shared)),
            "every lane of this service must be returned before finish"
        );
        // Producers retired; nothing pushes from here on. Each close
        // waits out its own day's barrier, so every accepted record is
        // folded once the last open day is closed.
        drop(lanes);
        let (windows, combined) = {
            let mut closer = crate::sync::lock(&self.closer); // lock: stream.closer
                                                              // lock: stream.gate
            let open = crate::sync::lock(&self.shared.gate).tracker.drain_open();
            for day in open {
                close_window(&self.shared, &mut closer, day, true);
            }
            (
                std::mem::take(&mut closer.windows),
                std::mem::take(&mut closer.combined),
            )
        };
        // Every open day's accumulator was taken by its close.
        debug_assert!(crate::sync::lock(&self.shared.days).is_empty()); // lock: stream.days
        let health = self.health();
        debug_assert_eq!(health.in_flight, 0, "finish is a quiescent point");
        StreamOutput {
            windows,
            combined,
            health,
            registry: Arc::clone(&self.registry),
        }
        // Dropping `self` stops the workers, all idle past the barrier.
    }
}

impl<F> Drop for MultiStreamService<F> {
    /// Closes the queue and joins the ingest workers: at the end of
    /// [`finish`](Self::finish), and on every path that drops a service
    /// unfinished (a caller that fails or unwinds between `start` and
    /// `finish`), so no worker outlives its service parked on an open
    /// queue.
    fn drop(&mut self) {
        self.shared.queue.close();
        for h in self.handles.drain(..) {
            // A dead worker's panic already failed the run through the
            // poisoned days lock (module docs), and a drop, often on
            // that very unwind, must not raise it again. Live workers
            // exit on the closed queue or re-raise and exit, so every
            // join returns.
            let _ = h.join();
        }
    }
}

impl<F: Fn(Day) -> PrefixTrie<Asn>> LaneProducer<F> {
    /// This producer's lane index (also its metric label).
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Feeds one chunk of `exporter`'s IPFIX byte stream — this lane's
    /// half of the work (framing, decoding) runs without any shared
    /// lock; gating and closing take the shared locks briefly, and a
    /// chunk that decodes no record takes none.
    pub fn push_chunk(&mut self, exporter: &str, chunk: &[u8]) {
        let mut decoded = std::mem::take(&mut self.decode_buf);
        decoded.clear();
        // lock: stream.collector
        crate::sync::lock(&self.collector).feed_into(exporter, chunk, &mut decoded);
        self.ingest_decoded(exporter, decoded);
    }

    /// Feeds a run of UDP datagrams from `exporter`, in arrival order:
    /// each is decoded as its own unit, all under one collector hold,
    /// and the run's records are gated and queued as one batch — the
    /// gate sees the record sequence it would see datagram by datagram.
    /// Returns how many datagrams were rejected; each is counted on the
    /// exporter's session and contributes no records.
    pub fn push_datagrams<D: AsRef<[u8]>>(
        &mut self,
        exporter: &str,
        datagrams: impl IntoIterator<Item = D>,
    ) -> u64 {
        let mut decoded = std::mem::take(&mut self.decode_buf);
        decoded.clear();
        let mut rejected = 0;
        {
            let mut collector = crate::sync::lock(&self.collector); // lock: stream.collector
            for datagram in datagrams {
                if !collector.feed_datagram_into(exporter, datagram.as_ref(), &mut decoded) {
                    rejected += 1;
                }
            }
        }
        self.ingest_decoded(exporter, decoded);
        rejected
    }

    /// Gates decoded records, batches them per day onto this lane, and
    /// closes any windows the advancing watermark allows.
    fn ingest_decoded(&mut self, exporter: &str, decoded: Vec<IpfixFlow>) {
        if decoded.is_empty() {
            // No record moves the watermark: nothing to gate or close.
            self.decode_buf = decoded;
            return;
        }
        // Gate phase, under the gate lock: watermark decisions, the
        // per-exporter counters, the gated days' pushed counts (under
        // the nested days lock), and whether a window became closable.
        // The counts land before the batch is visible anywhere else,
        // which is what makes the close barrier exact (module docs).
        let mut by_day: BTreeMap<Day, Vec<FlowRecord>> = BTreeMap::new();
        let closable = {
            let mut g = crate::sync::lock(&self.shared.gate); // lock: stream.gate
            let gs = &mut *g;
            let ex = match gs.exporters.get_mut(exporter) {
                Some(ex) => ex,
                None => gs.exporters.entry(exporter.to_owned()).or_default(),
            };
            ex.flows += decoded.len() as u64;
            for f in &decoded {
                let r = FlowRecord::from_ipfix(f);
                match gs.tracker.observe(r.start) {
                    Gate::Accept { day, late } => {
                        if late {
                            ex.late += 1;
                        }
                        by_day
                            .entry(day)
                            .or_insert_with(|| self.shared.pools[self.lane].take())
                            .push(r);
                    }
                    Gate::TooLate { .. } => ex.dropped += 1,
                }
            }
            let mut days = crate::sync::lock(&self.shared.days); // lock: stream.days
            for (day, records) in &by_day {
                days.entry(*day).or_insert_with(OpenDay::new).pushed += records.len() as u64;
            }
            drop(days);
            let first_open = gs.tracker.open_days().next();
            first_open.is_some_and(|d| gs.tracker.is_closed(d))
        };
        self.decode_buf = decoded;
        for (day, records) in by_day {
            for r in &records {
                let tally = self.port_scratch.entry(r.dst_port).or_default();
                *tally = tally.saturating_add(r.packets);
            }
            let n = records.len() as u64;
            let outcome = self.shared.queue.push_lane(
                self.lane,
                LaneBatch {
                    lane: self.lane,
                    day,
                    records,
                    ports: self.port_scratch.drain().collect(),
                },
            );
            match outcome {
                PushOutcome::Accepted => {}
                PushOutcome::Shed => self.back_out(day, n, false),
                PushOutcome::Closed => self.back_out(day, n, true),
            }
        }
        if closable {
            // Racing lanes are harmless: the take under the closer
            // re-checks, and the loser finds nothing left to take.
            let mut closer = crate::sync::lock(&self.closer); // lock: stream.closer
                                                              // lock: stream.gate
            let days = crate::sync::lock(&self.shared.gate).tracker.take_closable();
            for day in days {
                close_window(&self.shared, &mut closer, day, false);
            }
        }
    }

    /// Backs a shed or rejected batch's records out of its day's pushed
    /// count and wakes the barrier, which would otherwise wait for
    /// records no worker will fold.
    fn back_out(&self, day: Day, n: u64, closed: bool) {
        {
            let mut g = crate::sync::lock(&self.shared.gate); // lock: stream.gate
            if closed {
                g.rejected_closed += n;
            } else {
                g.dropped_backpressure += n;
            }
        }
        // lock: stream.days
        if let Some(open) = crate::sync::lock(&self.shared.days).get_mut(&day) {
            open.pushed = open.pushed.saturating_sub(n);
        }
        self.shared.drained.notify_all();
    }
}

/// Closes one window: waits out the per-day barrier and takes the day's
/// record out of the open-day map in the same hold, then hands the
/// window to the scheduler. Callers hold the closer lock (so closes stay
/// serialized and ascending) and must have taken `day` from the tracker
/// already. `forced` marks a close that `finish` makes, not the
/// watermark.
fn close_window<F: Fn(Day) -> PrefixTrie<Asn>>(
    shared: &LaneShared,
    closer: &mut CloserState<F>,
    day: Day,
    forced: bool,
) {
    let [barrier, assemble, schedule] = &closer.close_time;
    // Per-day barrier: every record gated into `day` is in the day's
    // shards. `pushed` is final (the tracker already rejects the day),
    // and backed-out pushes wake this wait.
    let open = {
        let _span = barrier.start_span();
        let mut days = crate::sync::lock(&shared.days); // lock: stream.days
        while days.get(&day).is_some_and(|o| o.processed < o.pushed) {
            days = crate::sync::wait(&shared.drained, days);
        }
        days.remove(&day)
    };
    let span = assemble.start_span();
    let OpenDay {
        ports,
        shards,
        pushed: records,
        ..
    } = open.unwrap_or_else(OpenDay::new);
    debug_assert_eq!(Arc::strong_count(&shards), 1, "a worker holds a closed day");
    // A mutex yields its value only past the poisoning check, which
    // `sync::lock` owns; no worker holds the day, so none of these waits.
    let shards = shards.iter().map(|cell| {
        let mut shard = crate::sync::lock(cell); // lock: stream.shard
        std::mem::replace(&mut *shard, StatsShard::Map(TrafficStats::new()))
    });
    let stats = ShardedTrafficStats::from_shards(StatsLayout::Map, shards.collect());
    for (gauge, load) in closer.shard_blocks.iter().zip(stats.shard_loads()) {
        gauge.set(load as u64);
    }
    let mut ports: Vec<(u16, u64)> = ports.into_iter().collect();
    ports.sort_unstable();
    drop(span);
    let _span = schedule.start_span();
    let (window, combined) = closer.scheduler.close(day, records, stats, &ports, forced);
    closer.windows.push(window);
    closer.combined.push(combined);
    closer.windows_closed.inc();
}

/// Like [`crate::sync::lock`], but first tries the lock and counts a
/// miss on `misses` before blocking.
fn lock_contended<'a, T>(mutex: &'a Mutex<T>, misses: &Counter) -> MutexGuard<'a, T> {
    mutex.try_lock().unwrap_or_else(|_| {
        misses.inc();
        crate::sync::lock(mutex) // lock: generic
    })
}

/// Ingest worker loop: pop batches, fold each batch's port tally and
/// records into its day's one accumulator, return the buffer to the
/// owning lane's pool, and count the batch processed for the close
/// barrier.
fn ingest_worker(shared: &LaneShared, index: usize) {
    // Per shard, the indices of the batch's records whose destination
    // (`.0`) or source (`.1`) block it owns; reused batch to batch.
    let mut owned: Vec<(Vec<usize>, Vec<usize>)> = vec![Default::default(); DEFAULT_SHARDS];
    let shard_of = |ip| StatsLayout::Map.shard_of(DEFAULT_SHARDS, Block24::containing(ip));
    while let Some(batch) = shared.queue.pop() {
        let n = batch.records.len() as u64;
        let shards = {
            let mut days = crate::sync::lock(&shared.days); // lock: stream.days
            let open = days.entry(batch.day).or_insert_with(OpenDay::new);
            for &(port, packets) in &batch.ports {
                let tally = open.ports.entry(port).or_default();
                *tally = tally.saturating_add(packets);
            }
            Arc::clone(&open.shards)
        };
        for (i, r) in batch.records.iter().enumerate() {
            owned[shard_of(r.dst)].0.push(i);
            owned[shard_of(r.src)].1.push(i);
        }
        for (cell, (dst, src)) in shards.iter().zip(&mut owned) {
            if dst.is_empty() && src.is_empty() {
                continue;
            }
            let mut shard = lock_contended(cell, &shared.shard_contended); // lock: stream.shard
            for i in dst.drain(..) {
                shard.ingest_dst_half(&batch.records[i], None);
            }
            for i in src.drain(..) {
                shard.ingest_src_half(&batch.records[i]);
            }
        }
        #[cfg(test)]
        tests::fault(&batch.records);
        // Dropped before `processed` moves, so a passed barrier leaves
        // the closer the day's only handle (module docs).
        drop(shards);
        shared.pools[batch.lane].put(batch.records);
        // Counted before `processed` moves so the close barrier
        // (processed == pushed) also implies the ingest counters are
        // complete — health at quiescent points stays exact.
        shared.ingest_counters[index].add(n);
        // lock: stream.days
        if let Some(open) = crate::sync::lock(&shared.days).get_mut(&batch.day) {
            open.processed += n;
        }
        shared.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::OverflowPolicy;
    use mt_core::pipeline::PipelineResult;
    use mt_core::PipelineEngine;
    use mt_types::{Ipv4, Prefix, SimDuration};
    use mt_wire::ipfix;
    use std::panic::AssertUnwindSafe;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Every lane-agnostic case runs at each of these lane counts.
    const LANES: [usize; 3] = [1, 2, 4];

    fn rib() -> PrefixTrie<Asn> {
        [("20.0.0.0/8".parse::<Prefix>().unwrap(), Asn(65_000))]
            .into_iter()
            .collect()
    }

    fn record(day: Day, offset: u64, dst: u32, packets: u64) -> FlowRecord {
        FlowRecord {
            start: day.start() + SimDuration::secs(offset),
            src: Ipv4::new(9, 9, 9, 9),
            dst: Ipv4(dst),
            src_port: 40_000,
            dst_port: 23,
            protocol: 6,
            tcp_flags: 2,
            packets,
            octets: packets * 40,
        }
    }

    fn day_records(day: Day) -> Vec<FlowRecord> {
        (0..40u32)
            .map(|i| FlowRecord {
                dst_port: [23, 445, 80][i as usize % 3],
                ..record(
                    day,
                    u64::from(i) * 600,
                    0x1400_0100 + (i % 13) * 256 + day.0 * 7,
                    1 + u64::from(i % 4),
                )
            })
            .collect()
    }

    /// `day_records` for days `0..n`; index = day number.
    fn days(n: u32) -> Vec<Vec<FlowRecord>> {
        (0..n).map(|d| day_records(Day(d))).collect()
    }

    fn messages(records: &[FlowRecord], seq: &mut u32, per_message: usize) -> Vec<Vec<u8>> {
        let flows: Vec<ipfix::IpfixFlow> = records.iter().map(FlowRecord::to_ipfix).collect();
        ipfix::encode_messages(&flows, 0, 1, seq, per_message)
    }

    /// Splices the template set out of an encoded message, leaving a
    /// data-only message (the shape a long-lived TCP exporter sends
    /// after its initial template exchange).
    fn strip_templates(msg: &[u8]) -> Vec<u8> {
        let set_len = usize::from(u16::from_be_bytes([msg[18], msg[19]]));
        let mut out = Vec::with_capacity(msg.len() - set_len);
        out.extend_from_slice(&msg[..16]);
        out.extend_from_slice(&msg[16 + set_len..]);
        let total = out.len() as u16;
        out[2..4].copy_from_slice(&total.to_be_bytes());
        out
    }

    /// How [`feed_days`] hands a lane its bytes.
    #[derive(Clone, Copy)]
    enum Transport {
        /// The lane's share of a day as one byte stream of 7-record
        /// messages cut every N bytes, so pieces straddle message
        /// boundaries.
        Chunks(usize),
        /// One message of `.0` records per UDP datagram, pushed in runs
        /// of `.1` datagrams ([`WHOLE_SHARE`]: the lane's whole share of
        /// a day in one run).
        Datagrams(usize, usize),
    }

    /// A run length that takes a lane's whole share of a day at once.
    const WHOLE_SHARE: usize = usize::MAX;

    /// The single-threaded driver the lane-agnostic cases share. Each
    /// day's messages are dealt round-robin to the lanes — lane `l` is
    /// exporter `CE{l}`, a peer lands on one lane at a time — and the
    /// lanes take turns, one piece each, until the day is through. One
    /// thread drives every lane, so the gate sequence (and with it every
    /// late/dropped count) is deterministic. A turn is one stream chunk
    /// or one run of datagrams.
    fn feed_days<F: Fn(Day) -> PrefixTrie<Asn>>(
        producers: &mut [LaneProducer<F>],
        days: &[Vec<FlowRecord>],
        seq: &mut u32,
        transport: Transport,
    ) {
        let lanes = producers.len();
        let per_message = match transport {
            Transport::Chunks(_) => 7,
            Transport::Datagrams(n, _) => n,
        };
        for records in days {
            let mut shares: Vec<Vec<Vec<u8>>> = vec![Vec::new(); lanes];
            for (i, m) in messages(records, seq, per_message).into_iter().enumerate() {
                shares[i % lanes].push(m);
            }
            // Per lane, its turns; each turn is one or more pieces.
            let turns: Vec<Vec<Vec<Vec<u8>>>> = match transport {
                Transport::Datagrams(_, run) => shares
                    .into_iter()
                    .map(|msgs| msgs.chunks(run).map(<[Vec<u8>]>::to_vec).collect())
                    .collect(),
                Transport::Chunks(n) => shares
                    .into_iter()
                    .map(|msgs| msgs.concat().chunks(n).map(|c| vec![c.to_vec()]).collect())
                    .collect(),
            };
            let rounds = turns.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..rounds {
                for (lane, p) in producers.iter_mut().enumerate() {
                    let Some(pieces) = turns[lane].get(round) else {
                        continue;
                    };
                    let name = format!("CE{lane}");
                    match transport {
                        Transport::Chunks(_) => p.push_chunk(&name, &pieces[0]),
                        Transport::Datagrams(..) => assert_eq!(p.push_datagrams(&name, pieces), 0),
                    }
                }
            }
        }
    }

    /// A closed window's day and port histogram, as its sink saw them.
    type WindowPorts = (Day, Vec<(u16, u64)>);
    type SeenPorts = Arc<Mutex<Vec<WindowPorts>>>;

    /// Installs a sink that collects every closed window's ports.
    fn collect_ports<F: Fn(Day) -> PrefixTrie<Asn>>(svc: &MultiStreamService<F>) -> SeenPorts {
        let seen = SeenPorts::default();
        let sink = Arc::clone(&seen);
        svc.set_window_sink(Box::new(move |w| {
            sink.lock().unwrap().push((w.day, w.ports.to_vec()));
        }));
        seen
    }

    /// Starts a `lanes`-lane service, feeds `days` through
    /// [`feed_days`], and finishes, returning the windows' ports too.
    fn run(
        cfg: StreamConfig,
        lanes: usize,
        days: &[Vec<FlowRecord>],
        transport: Transport,
    ) -> (StreamOutput, Vec<WindowPorts>) {
        let (svc, mut producers) = MultiStreamService::start(cfg, lanes, |_| rib());
        let seen = collect_ports(&svc);
        feed_days(&mut producers, days, &mut 0, transport);
        let out = svc.finish(producers);
        let ports = std::mem::take(&mut *seen.lock().unwrap());
        (out, ports)
    }

    fn assert_results_equal(a: &PipelineResult, b: &PipelineResult, what: &str) {
        assert_eq!(a.dark, b.dark, "{what}: dark");
        assert_eq!(a.unclean, b.unclean, "{what}: unclean");
        assert_eq!(a.gray, b.gray, "{what}: gray");
        assert_eq!(a.funnel, b.funnel, "{what}: funnel");
    }

    /// The reference every run is held to: the serial batch pipeline
    /// (`from_records` + `run_sharded`, always on the map layout) over
    /// each day alone, and over days `0..=d` for the combination after
    /// each close; and each window's sink-side `ports` (from
    /// [`collect_ports`]) equal to the batch histogram of its day.
    fn assert_matches_batch(
        out: &StreamOutput,
        ports: &[WindowPorts],
        days: &[Vec<FlowRecord>],
        cfg: &StreamConfig,
        what: &str,
    ) {
        let engine = PipelineEngine::standard();
        let batch = |records: &[FlowRecord], span: u32| {
            let stats = ShardedTrafficStats::from_records(DEFAULT_SHARDS, records);
            engine.run_sharded(&stats, &rib(), cfg.sampling_rate, span, &cfg.pipeline, 2)
        };
        assert_eq!(out.windows.len(), days.len(), "{what}: windows");
        assert_eq!(out.combined.len(), days.len(), "{what}: combined refreshes");
        assert_eq!(ports.len(), days.len(), "{what}: sink calls");
        let mut so_far: Vec<FlowRecord> = Vec::new();
        for (d, records) in days.iter().enumerate() {
            let span = d as u32 + 1;
            let (w, c) = (&out.windows[d], &out.combined[d]);
            assert_eq!(w.day, Day(d as u32), "{what}: closes are ascending");
            assert_eq!(w.records, records.len() as u64, "{what}: day {d} records");
            let mut batch_ports: BTreeMap<u16, u64> = BTreeMap::new();
            for r in records {
                *batch_ports.entry(r.dst_port).or_default() += r.packets;
            }
            assert_eq!(
                ports[d],
                (w.day, batch_ports.into_iter().collect()),
                "{what}: day {d} ports"
            );
            assert_results_equal(&w.result, &batch(records, 1), &format!("{what}: day {d}"));
            so_far.extend_from_slice(records);
            assert_eq!((c.first, c.days), (Day(0), span), "{what}: combined span");
            assert_results_equal(
                &c.result,
                &batch(&so_far, span),
                &format!("{what}: combined over {span} days"),
            );
        }
        // The shard gauges hold the last close's per-shard block counts.
        let snap = out.registry.snapshot();
        let last = ShardedTrafficStats::from_records(DEFAULT_SHARDS, days.last().unwrap());
        for (i, load) in last.shard_loads().into_iter().enumerate() {
            let gauge = snap.scalar("mt_flow_shard_blocks", &[("shard", &i.to_string())]);
            assert_eq!(gauge, Some(load as u64), "{what}: shard {i} gauge");
        }
    }

    fn hour_late(ingest_threads: usize) -> StreamConfig {
        StreamConfig {
            ingest_threads,
            allowed_lateness: SimDuration::hours(1),
            ..StreamConfig::default()
        }
    }

    #[test]
    fn streamed_windows_match_batch_per_day() {
        let days = days(3);
        for lanes in LANES {
            for threads in [1, 3] {
                let what = format!("{lanes} lanes, {threads} ingest threads");
                let cfg = hour_late(threads);
                let (svc, mut producers) = MultiStreamService::start(cfg.clone(), lanes, |_| rib());
                let seen = collect_ports(&svc);
                assert_eq!(svc.lanes(), lanes);
                // Awkward chunk sizes exercise framing.
                feed_days(&mut producers, &days, &mut 0, Transport::Chunks(97));
                assert_eq!(
                    svc.windows_closed(),
                    2,
                    "days 0 and 1 closed mid-stream at {what}"
                );
                let out = svc.finish(producers);
                out.health.check_invariants().expect("final invariants");
                assert_eq!(out.health.dropped_late, 0);
                assert_eq!(out.health.dropped_backpressure, 0);
                assert_matches_batch(&out, &seen.lock().unwrap(), &days, &cfg, &what);
            }
        }
    }

    #[test]
    fn datagram_transport_matches_stream_transport() {
        // Both transports answer to the same oracle — the stream side
        // in `streamed_windows_match_batch_per_day` — so they agree
        // with each other, window for window.
        // Each run of datagrams is gated as one batch, so runs of every
        // length answer to it too.
        let days = days(3);
        let cfg = hour_late(2);
        for lanes in LANES {
            for run_len in [1, 3, WHOLE_SHARE] {
                let transport = Transport::Datagrams(7, run_len);
                let (out, ports) = run(cfg.clone(), lanes, &days, transport);
                out.health.check_invariants().unwrap();
                let what = format!("datagrams in runs of {run_len}, {lanes} lanes");
                assert_matches_batch(&out, &ports, &days, &cfg, &what);
            }
        }
    }

    #[test]
    fn rejected_datagram_is_counted_and_contributes_nothing() {
        for lanes in LANES {
            let (svc, mut p) = MultiStreamService::start(hour_late(1), lanes, |_| rib());
            let lane = &mut p[lanes - 1];
            let mut seq = 0;
            let good = messages(&day_records(Day(0)), &mut seq, 50).concat();
            let mut torn = messages(&day_records(Day(1)), &mut seq, 50).concat();
            torn.truncate(torn.len() - 9);
            // Mid-run, between two good datagrams of one run.
            let good_tail = messages(&day_records(Day(0))[..5], &mut seq, 50).concat();
            let run = [&good, &torn, &good_tail];
            assert_eq!(lane.push_datagrams("U", run), 1, "torn datagram rejected");
            let out = svc.finish(p);
            assert_eq!(out.windows.len(), 1, "only day 0 produced records");
            out.health.check_invariants().unwrap();
            let u = out
                .health
                .exporters
                .iter()
                .find(|e| e.name == "U")
                .expect("session exists");
            assert_eq!(u.flows, 45);
            assert_eq!(u.decode_errors, 1, "the torn datagram was counted");
        }
    }

    /// Days of 400 records whose destination and source /24s all fall
    /// in one map-layout shard (the source 9.9.9.9's); returns it too.
    fn one_shard_days(n: u32) -> (usize, Vec<Vec<FlowRecord>>) {
        let shard_of = |ip| StatsLayout::Map.shard_of(DEFAULT_SHARDS, Block24::containing(ip));
        let shard = shard_of(Ipv4::new(9, 9, 9, 9));
        let days = (0..n)
            .map(|d| {
                (0..400u32)
                    .map(|i| {
                        let block = 0x14_0000 + 16 * (i % 29 + d) + shard as u32;
                        let r = FlowRecord {
                            dst_port: [23, 445, 80][i as usize % 3],
                            ..record(
                                Day(d),
                                u64::from(i) * 200,
                                block << 8 | (i % 251),
                                1 + u64::from(i % 4),
                            )
                        };
                        assert_eq!((shard_of(r.dst), shard_of(r.src)), (shard, shard));
                        r
                    })
                    .collect()
            })
            .collect();
        (shard, days)
    }

    /// How long a test waits for a state before it fails instead of
    /// hanging.
    const DEADLINE: Duration = Duration::from_secs(60);

    /// Yields until `cond` holds: synchronises on state, and fails
    /// after [`DEADLINE`] instead of hanging if the state never comes.
    fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + DEADLINE;
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn workers_contending_for_one_shard_match_batch() {
        // Four workers fold 40-record datagram batches whose every record
        // half lands in one shard, so they queue on that shard's lock.
        // The test also holds the lock itself while a batch arrives, so
        // the contention counter moves under any scheduling.
        let (shard, days) = one_shard_days(3);
        let cfg = hour_late(4);
        for lanes in LANES {
            let what = format!("one hot shard, {lanes} lanes");
            let (svc, mut p) = MultiStreamService::start(cfg.clone(), lanes, |_| rib());
            let seen = collect_ports(&svc);
            let mut seq = 0;
            let day0 = messages(&days[0], &mut seq, 40);
            assert_eq!(p[0].push_datagrams("CE0", [&day0[0]]), 0);
            // Once the first batch is folded, day 0's accumulator is in
            // the open-day map.
            wait_for("the first batch folded", || svc.health().ingested == 40);
            let held = Arc::clone(&svc.shared.days.lock().unwrap()[&Day(0)].shards);
            let guard = held[shard].lock().unwrap();
            assert_eq!(p[lanes - 1].push_datagrams("CE0", [&day0[1]]), 0);
            wait_for("a worker to miss the held lock", || {
                svc.shared.shard_contended.get() > 0
            });
            drop(guard);
            drop(held);
            assert_eq!(p[0].push_datagrams("CE0", &day0[2..]), 0);
            feed_days(&mut p, &days[1..], &mut seq, Transport::Datagrams(40, 1));
            let out = svc.finish(p);
            out.health.check_invariants().expect("final invariants");
            let contended = out
                .registry
                .snapshot()
                .scalar("mt_stream_shard_lock_contended_total", &[]);
            assert!(contended > Some(0), "{what}: contention counted");
            let ports = seen.lock().unwrap();
            assert_matches_batch(&out, &ports, &days, &cfg, &what);
        }
    }

    #[test]
    fn resumed_run_continues_the_combination() {
        // A second service resumes from the merged stats of the first
        // run's days, as the daemon does from its store. Its reports,
        // appended to the first run's, answer to the oracle of one
        // uninterrupted run; a replayed record for a resumed day is
        // dropped late instead of reopening its window.
        let days = days(4);
        let (before, after) = days.split_at(2);
        let cfg = hour_late(2);
        for lanes in LANES {
            let what = format!("resumed, {lanes} lanes");
            let (first, mut ports) = run(cfg.clone(), lanes, before, Transport::Chunks(1460));
            let (svc, mut p) = MultiStreamService::start(cfg.clone(), lanes, |_| rib());
            let seen = collect_ports(&svc);
            let persisted = TrafficStats::from_records(&before.concat());
            svc.resume(&persisted, Day(0), Day(1));
            let mut seq = 0;
            for m in messages(&[record(Day(1), 3, 0x1400_0100, 1)], &mut seq, 1) {
                p[lanes - 1].push_chunk("replay", &m);
            }
            feed_days(&mut p, after, &mut seq, Transport::Chunks(1460));
            let mut out = svc.finish(p);
            out.health.check_invariants().expect("final invariants");
            assert_eq!(out.health.dropped_late, 1, "{what}: the replay");
            out.windows.splice(0..0, first.windows);
            out.combined.splice(0..0, first.combined);
            ports.append(&mut seen.lock().unwrap());
            assert_matches_batch(&out, &ports, &days, &cfg, &what);
        }
    }

    #[test]
    fn too_late_records_are_dropped_and_counted() {
        for lanes in LANES {
            let (svc, mut p) = MultiStreamService::start(hour_late(2), lanes, |_| rib());
            let mut seq = 0;
            for d in [0, 2] {
                for m in messages(&day_records(Day(d)), &mut seq, 50) {
                    p[0].push_chunk("X", &m);
                }
            }
            assert_eq!(svc.windows_closed(), 1, "day 0 closed");
            // A straggler for day 0 after its window closed, from a peer
            // on another lane: the gate is shared, so a lane that never
            // saw the close drops it all the same.
            for m in messages(&[record(Day(0), 3, 0x1400_0100, 1)], &mut seq, 1) {
                p[lanes - 1].push_chunk("Y", &m);
            }
            let out = svc.finish(p);
            assert_eq!(out.health.dropped_late, 1);
            let dropped: Vec<(&str, u64)> = out
                .health
                .exporters
                .iter()
                .map(|e| (e.name.as_str(), e.dropped))
                .collect();
            assert_eq!(dropped, [("X", 0), ("Y", 1)], "counted on its exporter");
            assert_eq!(
                out.windows[0].records, 40,
                "the dropped straggler is not in the window"
            );
        }
    }

    #[test]
    fn a_chunk_that_decodes_nothing_takes_no_shared_lock() {
        // Garbage and a message's first bytes decode no record, so they
        // cannot move the watermark: the lane answers them while the
        // test holds the gate, and the message's rest still decodes.
        for lanes in LANES {
            let (svc, mut p) = MultiStreamService::start(hour_late(1), lanes, |_| rib());
            let message = messages(&day_records(Day(0)), &mut 0, 50).concat();
            let (head, rest) = message.split_at(10);
            let lane = &mut p[lanes - 1];
            let returned = std::thread::scope(|s| {
                let gate = svc.shared.gate.lock().unwrap();
                let (done_tx, done_rx) = mpsc::channel();
                s.spawn(move || {
                    lane.push_chunk("A", &[0xff; 64]);
                    lane.push_chunk("A", head);
                    done_tx.send(()).unwrap();
                });
                // On timeout the gate is released all the same, so the
                // lane returns and the scope's join completes.
                let returned = done_rx.recv_timeout(DEADLINE).is_ok();
                drop(gate);
                returned
            });
            assert!(returned, "the lane waited on the gate at {lanes} lanes");
            p[lanes - 1].push_chunk("A", rest);
            let out = svc.finish(p);
            out.health.check_invariants().expect("final invariants");
            assert_eq!(
                out.health.decoded, 40,
                "the message decodes at {lanes} lanes"
            );
            assert_eq!(out.windows[0].records, 40);
        }
    }

    #[test]
    fn a_zero_packet_record_is_counted_not_folded() {
        // A record that claims zero packets is no traffic: the collector
        // counts it as a decode error and drops it, so the window is the
        // batch of the other records. `finish` runs on its own thread
        // under a deadline, so a worker that dies on the record fails
        // the test instead of hanging the suite.
        let cfg = StreamConfig::default();
        for lanes in LANES {
            let (svc, mut p) = MultiStreamService::start(cfg.clone(), lanes, |_| rib());
            let seen = collect_ports(&svc);
            let mut records = day_records(Day(0));
            records.insert(20, record(Day(0), 3, 0x1400_0100, 0));
            for m in messages(&records, &mut 0, 7) {
                p[lanes - 1].push_chunk("Z", &m);
            }
            let (out_tx, out_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let _ = out_tx.send(svc.finish(p));
            });
            let out = out_rx
                .recv_timeout(DEADLINE)
                .unwrap_or_else(|_| panic!("finish did not return at {lanes} lanes"));
            let what = format!("zero-packet record, {lanes} lanes");
            assert_eq!(out.health.decoded, 40, "{what}: decoded");
            assert_eq!(out.health.exporters[0].decode_errors, 1, "{what}: counted");
            let ports = std::mem::take(&mut *seen.lock().unwrap());
            assert_matches_batch(&out, &ports, &days(1), &cfg, &what);
        }
    }

    /// Records from this source port make the worker that folds them
    /// panic: the hook in [`ingest_worker`] fires after a batch's fold,
    /// before the batch counts as processed.
    const FAULT_PORT: u16 = 0xFA17;

    pub(super) fn fault(records: &[FlowRecord]) {
        if records.iter().any(|r| r.src_port == FAULT_PORT) {
            panic!("injected worker fault");
        }
    }

    /// What is waiting on the worker when it dies.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Waiter {
        /// A lane closing day 1, at the close barrier.
        Close,
        /// A lane pushing into its full one-batch quota.
        FullQueue,
    }

    /// Runs `f` on `keep` on its own thread; the receiver yields `keep`
    /// back with whether `f` panicked.
    fn spawn_catching<K: Send + 'static>(
        mut keep: K,
        f: impl FnOnce(&mut K) + Send + 'static,
    ) -> mpsc::Receiver<(K, bool)> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let raised = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut keep))).is_err();
            let _ = tx.send((keep, raised));
        });
        rx
    }

    /// Whether the thread behind `rx` panicked; fails instead of
    /// hanging if it has not returned within [`DEADLINE`].
    fn raised_in_time<K>(rx: &mpsc::Receiver<(K, bool)>, what: &str) -> (K, bool) {
        rx.recv_timeout(DEADLINE)
            .unwrap_or_else(|_| panic!("{what} did not return"))
    }

    #[test]
    fn a_panicking_worker_fails_the_close_instead_of_hanging() {
        // One worker, a one-batch quota per lane. Day 0 closes cleanly;
        // then a test-held shard lock stalls the worker on a day-1 batch
        // that carries the fault, while a lane waits on the worker: in
        // the close of day 1, or pushing into its full quota. Released,
        // the worker panics, and the waiter, `finish` and a drop of the
        // service each return within the deadline.
        let (shard, days) = one_shard_days(3);
        let cfg = StreamConfig {
            ingest_threads: 1,
            queue_capacity: 1,
            ..hour_late(1)
        };
        for lanes in LANES {
            for waiter in [Waiter::Close, Waiter::FullQueue] {
                let what = format!("{waiter:?} at {lanes} lanes");
                let (svc, mut p) = MultiStreamService::start(cfg.clone(), lanes, |_| rib());
                let seen = collect_ports(&svc);
                let mut seq = 0;
                feed_days(&mut p, &days[..2], &mut seq, Transport::Datagrams(40, 1));
                assert_eq!(svc.windows_closed(), 1, "{what}: day 0 closed");
                wait_for("day 1 folded", || svc.health().in_flight == 0);

                let held = Arc::clone(&svc.shared.days.lock().unwrap()[&Day(1)].shards);
                let guard = held[shard].lock().unwrap();
                let misses = svc.shared.shard_contended.get();
                let faulty = FlowRecord {
                    src_port: FAULT_PORT,
                    ..days[1][0]
                };
                assert_eq!(
                    p[0].push_datagrams("CE0", messages(&[faulty], &mut seq, 1)),
                    0
                );
                wait_for("the worker to stall on the held shard", || {
                    svc.shared.shard_contended.get() > misses
                });
                let decoded = svc.health().decoded;
                let waiting = match waiter {
                    // Day 2 moves the watermark past day 1's end.
                    Waiter::Close => {
                        let day2 = messages(&days[2][..40], &mut seq, 40).remove(0);
                        let waiting = spawn_catching(p, move |p| {
                            p.last_mut().unwrap().push_datagrams("CE9", [&day2]);
                        });
                        wait_for("the close to start", || svc.closer.try_lock().is_err());
                        waiting
                    }
                    Waiter::FullQueue => {
                        let more = messages(&days[1][..80], &mut seq, 40);
                        let waiting = spawn_catching(p, move |p| {
                            for m in &more {
                                p[0].push_datagrams("CE0", [m]);
                            }
                        });
                        wait_for("both batches gated", || {
                            svc.health().decoded == decoded + 80
                        });
                        waiting
                    }
                };
                drop(guard);
                drop(held);
                let (p, raised) = raised_in_time(&waiting, &format!("{what}: the waiter"));
                assert!(raised, "{what}: the waiter re-raises");

                let raised = if waiter == Waiter::Close {
                    let finishing = spawn_catching(Some((svc, p)), |k| {
                        let (svc, p) = k.take().unwrap();
                        svc.finish(p);
                    });
                    raised_in_time(&finishing, &format!("{what}: finish")).1
                } else {
                    drop(p);
                    let dropping = spawn_catching(Some(svc), |k| drop(k.take()));
                    !raised_in_time(&dropping, &format!("{what}: the drop")).1
                };
                assert!(raised, "{what}: finish re-raises, a drop returns quietly");
                let closed: Vec<Day> = seen.lock().unwrap().iter().map(|w| w.0).collect();
                assert_eq!(
                    closed,
                    [Day(0)],
                    "{what}: the torn day never reaches the sink"
                );
            }
        }
    }

    #[test]
    fn an_idle_service_reports_a_dead_worker() {
        // A worker dies on a record and nothing arrives after it: no
        // push, close or `finish` runs into the poisoned lock, yet the
        // snapshot says the service failed and its check fails.
        let days = days(1);
        for lanes in LANES {
            let what = format!("{lanes} lanes");
            let (svc, mut p) = MultiStreamService::start(hour_late(1), lanes, |_| rib());
            let mut seq = 0;
            feed_days(&mut p, &days, &mut seq, Transport::Datagrams(40, 1));
            wait_for("day 0 folded", || svc.health().in_flight == 0);
            let healthy = svc.health();
            assert!(!healthy.failed, "{what}: healthy before the fault");
            healthy.check_invariants().expect("healthy invariants");

            let faulty = FlowRecord {
                src_port: FAULT_PORT,
                ..days[0][0]
            };
            assert_eq!(
                p[0].push_datagrams("CE0", messages(&[faulty], &mut seq, 1)),
                0
            );
            wait_for("the worker to die", || svc.health().failed);
            assert!(
                svc.health().check_invariants().is_err(),
                "{what}: a dead worker fails the check"
            );
            drop(p);
            let dropping = spawn_catching(Some(svc), |k| drop(k.take()));
            let raised = raised_in_time(&dropping, &format!("{what}: the drop")).1;
            assert!(!raised, "{what}: a drop returns quietly");
        }
    }

    #[test]
    fn windows_closed_answers_during_a_close() {
        // A sink blocked on a channel holds day 0's close open under the
        // closer lock; the count answers all the same.
        let (svc, mut p) = MultiStreamService::start(hour_late(1), 1, |_| rib());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        svc.set_window_sink(Box::new(move |_| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
        }));
        let mut seq = 0;
        let chunks: Vec<Vec<u8>> = [0, 2]
            .into_iter()
            .flat_map(|d| messages(&day_records(Day(d)), &mut seq, 50))
            .collect();
        let lane = &mut p[0];
        let svc_ref = &svc;
        std::thread::scope(|s| {
            // Dropped on every way out of this closure, a failed check's
            // unwind included: the sink returns, and the joins complete.
            let release = release_tx;
            s.spawn(move || {
                for c in &chunks {
                    lane.push_chunk("A", c);
                }
            });
            entered_rx
                .recv_timeout(DEADLINE)
                .expect("day 0's close reached the sink");
            let (count_tx, count_rx) = mpsc::channel();
            s.spawn(move || count_tx.send(svc_ref.windows_closed()));
            assert_eq!(count_rx.recv_timeout(DEADLINE), Ok(0), "answered mid-close");
            release.send(()).unwrap();
        });
        assert_eq!(svc.windows_closed(), 1, "counted once the close is done");
        assert_eq!(svc.finish(p).windows.len(), 2);
    }

    #[test]
    fn reversed_arrival_within_lateness_is_equivalent() {
        // Reverse arrival order entirely — all inside one day, so every
        // record stays within the lateness bound.
        let in_order = days(1);
        let mut reversed = in_order.clone();
        reversed[0].reverse();
        let cfg = StreamConfig::default();
        for lanes in LANES {
            let (out, ports) = run(cfg.clone(), lanes, &reversed, Transport::Chunks(1460));
            let what = format!("reversed, {lanes} lanes");
            assert_matches_batch(&out, &ports, &in_order, &cfg, &what);
            assert!(out.health.late > 0, "reversal produced late records");
            assert_eq!(out.health.dropped_late, 0);
        }
    }

    #[test]
    fn garbage_chunks_surface_as_decode_errors() {
        for lanes in LANES {
            let (svc, mut p) = MultiStreamService::start(StreamConfig::default(), lanes, |_| rib());
            let lane = &mut p[lanes - 1];
            let mut seq = 0;
            lane.push_chunk("A", &messages(&day_records(Day(0)), &mut seq, 50).concat());
            lane.push_chunk("A", &[0xff; 64]);
            lane.push_chunk("A", &messages(&day_records(Day(1)), &mut seq, 50).concat());
            let out = svc.finish(p);
            let a = &out.health.exporters[0];
            assert!(a.decode_errors > 0);
            assert_eq!(a.flows, 80, "both clean chunks decoded fully");
        }
    }

    #[test]
    fn health_snapshot_holds_invariants_and_mirrors_registry() {
        for lanes in LANES {
            let (svc, mut p) = MultiStreamService::start(hour_late(3), lanes, |_| rib());
            let mut seq = 0;
            feed_days(&mut p, &days(3), &mut seq, Transport::Chunks(113));
            p[lanes - 1].push_chunk("garbage", &[0xde; 40]);
            // A straggler for a closed window.
            for m in messages(&[record(Day(0), 3, 0x1400_0100, 1)], &mut seq, 1) {
                p[0].push_chunk("CE0", &m);
            }

            // Mid-stream snapshot: identities hold (in_flight absorbs
            // any queued batches).
            let mid = svc.health();
            mid.check_invariants().expect("mid-stream invariants");

            let out = svc.finish(p);
            let h = &out.health;
            h.check_invariants().expect("final invariants");
            assert_eq!(h.in_flight, 0);
            assert_eq!(h.decoded, 121, "120 day records + 1 straggler");
            assert_eq!(h.dropped_late, 1);
            assert_eq!(h.windows_closed, 3);
            assert_eq!(h.windows_open, 0);
            assert_eq!(h.ingested, h.on_time + h.late);

            // The registry reports exactly the health document's values.
            let snap = out.registry.snapshot();
            let mirrored = [
                ("mt_queue_pushed_total", h.queue.pushed),
                ("mt_queue_high_water", h.queue.high_water_mark as u64),
                ("mt_window_on_time_total", h.on_time),
                ("mt_window_late_total", h.late),
                ("mt_window_dropped_total", h.dropped_late),
                ("mt_window_closed_total", 3),
                // The scheduler's engine publishes here too: two runs
                // (window + combined) per close.
                ("mt_pipeline_runs_total", 6),
            ];
            for (name, want) in mirrored {
                assert_eq!(
                    snap.scalar(name, &[]),
                    Some(want),
                    "{name} at {lanes} lanes"
                );
            }
            for e in &h.exporters {
                let labels = [("exporter", e.name.as_str())];
                assert_eq!(snap.scalar("mt_stream_flows_total", &labels), Some(e.flows));
                assert_eq!(
                    snap.scalar("mt_stream_decode_errors_total", &labels),
                    Some(e.decode_errors)
                );
                assert_eq!(
                    snap.scalar("mt_stream_dropped_total", &labels),
                    Some(e.dropped)
                );
            }
            let ingested: u64 = (0..3)
                .map(|w| {
                    snap.scalar(
                        "mt_ingest_records_total",
                        &[("worker", w.to_string().as_str())],
                    )
                    .unwrap_or(0)
                })
                .sum();
            assert_eq!(ingested, h.ingested, "per-worker counters sum to ingested");

            // And the health document round-trips through JSON.
            let json = serde_json::to_string(h).unwrap();
            let back: HealthSnapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, h);
        }
    }

    #[test]
    fn concurrent_lanes_match_batch() {
        // Four lanes pushing from four real threads; a generous
        // lateness bound keeps every record acceptable under any
        // interleaving, so the result must equal the batch oracle.
        let lanes = 4usize;
        let cfg = StreamConfig {
            ingest_threads: 2,
            allowed_lateness: SimDuration::hours(96),
            ..StreamConfig::default()
        };
        let (svc, producers) = MultiStreamService::start(cfg.clone(), lanes, |_| rib());
        let seen = collect_ports(&svc);
        let producers: Vec<LaneProducer<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = producers
                .into_iter()
                .enumerate()
                .map(|(lane, mut p)| {
                    s.spawn(move || {
                        // Lane `lane` is day `lane`'s exporter.
                        let mut seq = 0;
                        for m in messages(&day_records(Day(lane as u32)), &mut seq, 7) {
                            p.push_chunk(&format!("CE{lane}"), &m);
                        }
                        p
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mid = svc.health();
        mid.check_invariants().expect("mid-run invariants");
        let out = svc.finish(producers);
        out.health.check_invariants().expect("final invariants");
        let ports = seen.lock().unwrap();
        assert_matches_batch(&out, &ports, &days(4), &cfg, "four concurrent lanes");
    }

    #[test]
    fn reconnect_across_lanes_accumulates_counters_without_template_leak() {
        // The same exporter address disconnects from one event loop and
        // reconnects onto another: its lifetime counters keep
        // accumulating (health sums the per-lane sessions), but IPFIX
        // template state must not leak between the lanes' sessions.
        let cfg = StreamConfig {
            ingest_threads: 2,
            allowed_lateness: SimDuration::hours(48),
            ..StreamConfig::default()
        };
        let (svc, mut p) = MultiStreamService::start(cfg, 2, |_| rib());
        let name = "tcp:198.51.100.7:4739";
        let mut seq = 0;

        // Connection 1 lands on lane 0 and sends day 0 with templates.
        let mut bytes_sent = 0u64;
        for m in messages(&day_records(Day(0)), &mut seq, 50) {
            bytes_sent += m.len() as u64;
            p[0].push_chunk(name, &m);
        }
        let h1 = svc.health();
        h1.check_invariants().expect("after lane 0");
        let e1 = h1.exporters.iter().find(|e| e.name == name).unwrap();
        assert_eq!(e1.flows, 40);
        assert_eq!(e1.decode_errors, 0);

        // The peer reconnects onto lane 1 and resumes with a data-only
        // message (no template re-send). Lane 0's templates must not
        // leak: the records are skipped and counted, never decoded.
        let day1 = messages(&day_records(Day(1)), &mut seq, 50);
        let data_only = strip_templates(&day1[0]);
        bytes_sent += data_only.len() as u64;
        p[1].push_chunk(name, &data_only);
        let h2 = svc.health();
        h2.check_invariants().expect("after template-less data");
        let e2 = h2.exporters.iter().find(|e| e.name == name).unwrap();
        assert_eq!(e2.flows, 40, "no flow decoded without templates");
        assert!(e2.decode_errors > 0, "the skipped data set is counted");

        // A real reconnecting exporter re-sends templates; from there
        // the counters keep accumulating across the two lanes.
        for m in &day1 {
            bytes_sent += m.len() as u64;
            p[1].push_chunk(name, m);
        }
        let out = svc.finish(p);
        out.health.check_invariants().expect("final invariants");
        let e = out
            .health
            .exporters
            .iter()
            .find(|e| e.name == name)
            .unwrap();
        assert_eq!(e.flows, 80, "both connections' flows accumulate");
        assert_eq!(e.bytes, bytes_sent, "bytes accumulate across lanes");
        assert!(e.decode_errors > 0);
        assert_eq!(out.windows.len(), 2);
        assert_eq!(out.windows[0].records, 40);
        assert_eq!(
            out.windows[1].records, 40,
            "only the templated re-send decoded"
        );
    }

    #[test]
    fn drop_newest_sheds_are_compensated_per_lane() {
        // A tiny per-lane quota under DropNewest: every record is
        // either in the window or counted shed, and the identities
        // still balance — the gate-time counts were compensated.
        for lanes in LANES {
            let cfg = StreamConfig {
                queue_capacity: 1,
                ingest_threads: 1,
                overflow: OverflowPolicy::DropNewest,
                allowed_lateness: SimDuration::hours(48),
                ..StreamConfig::default()
            };
            let (svc, mut p) = MultiStreamService::start(cfg, lanes, |_| rib());
            let seen = collect_ports(&svc);
            let mut seq = 0;
            let mut pushed = 0u64;
            // Flood until the queue demonstrably shed: a loaded test
            // host can let the worker keep pace with a fixed-size
            // flood, so the flood adapts instead of assuming a race
            // outcome.
            let mut i = 0u32;
            while i < 200 || (svc.health().dropped_backpressure == 0 && i < 50_000) {
                let r = record(
                    Day(0),
                    u64::from(i % 86_400),
                    0x1400_0100 + (i % 200) * 256,
                    1,
                );
                let lane = i as usize % lanes;
                for m in messages(&[r], &mut seq, 1) {
                    p[lane].push_chunk(&format!("A{lane}"), &m);
                }
                pushed += 1;
                i += 1;
            }
            let out = svc.finish(p);
            let h = &out.health;
            h.check_invariants().expect("final invariants");
            let kept = out.windows[0].records;
            assert_eq!(
                kept + h.dropped_backpressure,
                pushed,
                "every record is either ingested or counted shed"
            );
            // One packet per record: the window's ports count exactly
            // the kept records, so shed batches contributed nothing.
            let ports = seen.lock().unwrap();
            let port_packets: u64 = ports[0].1.iter().map(|&(_, packets)| packets).sum();
            assert_eq!(port_packets, kept, "shed batches add no ports");
            // One record per batch here, so the queue's shed count
            // equals the record-level backpressure count the gate
            // compensated.
            assert_eq!(h.queue.dropped, h.dropped_backpressure);
            assert!(h.dropped_backpressure > 0, "the flood actually shed");
            assert!(
                h.queue.high_water_mark <= lanes,
                "each lane holds at most its one-batch quota"
            );
        }
    }

    #[test]
    #[should_panic(expected = "every lane of this service must be returned")]
    fn finish_rejects_another_services_lanes() {
        // The right number of lanes, but not this service's: its own
        // lanes would stay live and push into the closed queue after
        // the final health snapshot.
        let rib_of = |_: Day| rib();
        let (svc, _own) = MultiStreamService::start(StreamConfig::default(), 2, rib_of);
        let (_other, foreign) = MultiStreamService::start(StreamConfig::default(), 2, rib_of);
        svc.finish(foreign);
    }
}
