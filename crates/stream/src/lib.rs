//! Continuous streaming collection for the meta-telescope pipeline.
//!
//! The batch reproduction generates a day of traffic, aggregates it, and
//! runs the Section 4.2 pipeline once. The operational system the paper
//! describes works nothing like that: IPFIX messages from 14 IXPs arrive
//! continuously, and the pipeline re-runs per observation window. This
//! crate provides that continuous-operation layer on top of the parallel
//! substrate ([`mt_flow::ShardedTrafficStats`],
//! [`mt_core::PipelineEngine::run_sharded`]):
//!
//! - [`collector`] — per-exporter IPFIX *sessions*: each session frames
//!   RFC 7011 §10.4 self-delimiting messages out of an arbitrary byte
//!   stream (chunks may split messages anywhere), decodes them with its
//!   own template [`mt_wire::ipfix::Collector`], resynchronizes after
//!   garbage, and keeps per-exporter counters (bytes, messages, flows,
//!   decode errors).
//! - [`window`] — event-time windowing keyed by simulated day: a
//!   watermark trails the maximum event time by a configurable
//!   *allowed lateness*; a day's window closes once the watermark passes
//!   the day's end. Out-of-order records inside the lateness bound are
//!   accepted (and counted late); records for closed windows are dropped
//!   (and counted).
//! - [`queue`] — a bounded queue between the producer lanes and the
//!   ingest workers, each lane with its own quota, so a slow pipeline
//!   degrades gracefully (blocking or counted drops, high-water-mark
//!   stats) instead of buffering without bound.
//! - [`scheduler`] — on window close, runs the sharded pipeline for the
//!   window and incrementally maintains the multi-day combination
//!   (cumulative merged stats + union RIB, the `mt_core::combine`
//!   semantics) so the K-of-N combined result is refreshed after every
//!   window.
//! - [`multi`] — the assembled service, [`MultiStreamService`]: byte
//!   chunks in on N producer *lanes* ([`LaneProducer`]; an in-process
//!   caller takes one lane, the sharded daemon one per event loop), a
//!   shared window gate, ingest parallelised over worker threads into
//!   one record per open day (the day's map-layout shards, its port
//!   histogram and its close-barrier counts), and per-window and
//!   combined [`mt_core::pipeline::PipelineResult`]s out. Its module
//!   docs are the crate's threading model and ordering argument.
//! - [`service`] — the service's vocabulary: [`StreamConfig`],
//!   [`StreamOutput`], and [`HealthSnapshot`]. Every run carries an
//!   [`mt_obs::MetricsRegistry`]; the collector/queue/gate counters
//!   republish into it, and [`MultiStreamService::health`] returns one
//!   snapshot whose accounting identities (decoded = on-time + late +
//!   dropped, accepted = ingested + in-flight + shed + rejected) tie
//!   the whole stack together.
//!
//! # Equivalence with the batch path
//!
//! The keystone property is that streaming changes *when* work happens,
//! never *what* is computed: for the same underlying records, the
//! per-window and combined results are bit-identical to batch
//! [`mt_core::PipelineEngine::run_sharded`] over the same records. The
//! chain of reasons: window membership is a pure function of a record's
//! event time (its day); per-/24 accumulation is order-independent
//! (counters add, host sets union), so however the ingest workers'
//! folds into a window's one accumulator interleave, the result is the
//! exact batch accumulator;
//! and the sharded pipeline is itself bit-identical to the serial one.
//! The integration test `streaming_equivalence` asserts this end to end
//! at 1 and 3 lanes, including under shuffled arrival within the
//! allowed lateness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod collector;
pub mod multi;
pub mod queue;
pub mod scheduler;
pub mod service;
mod sync;
pub mod window;

pub use batch::BatchPool;
pub use collector::{ExporterSession, StreamCollector};
pub use multi::{LaneProducer, MultiStreamService};
pub use queue::{BoundedQueue, OverflowPolicy, PushOutcome, QueueStats};
pub use scheduler::{
    ClosedWindow, CombinedReport, SchedulerConfig, WindowReport, WindowScheduler, WindowSink,
};
pub use service::{ExporterCounters, HealthSnapshot, StreamConfig, StreamOutput};
pub use window::{Gate, WindowTracker};
