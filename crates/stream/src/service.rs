//! The streaming service's vocabulary: its [`StreamConfig`], the
//! [`HealthSnapshot`] accounting document with its identities, and the
//! [`StreamOutput`] a finished run returns. The service itself — the
//! lanes, the shared gate, the workers and the close barrier — is
//! [`crate::multi`].

use crate::queue::{OverflowPolicy, QueueStats};
use crate::scheduler::{CombinedReport, WindowReport};
use mt_core::pipeline::PipelineConfig;
use mt_obs::MetricsRegistry;
use mt_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the whole streaming stack. Its window accumulators
/// are always map-layout ([`mt_flow::StatsLayout::Map`]) shards.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Ingest worker threads.
    pub ingest_threads: usize,
    /// Worker threads for each window's `run_sharded`.
    pub pipeline_threads: usize,
    /// Capacity of the collector→ingest queue, in batches.
    pub queue_capacity: usize,
    /// What a full queue does to new batches.
    pub overflow: OverflowPolicy,
    /// How far event time may lag the stream maximum before a record's
    /// window closes without it.
    pub allowed_lateness: SimDuration,
    /// The exporters' packet sampling rate.
    pub sampling_rate: u32,
    /// Pipeline thresholds.
    pub pipeline: PipelineConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            ingest_threads: 2,
            pipeline_threads: 2,
            queue_capacity: 64,
            overflow: OverflowPolicy::Block,
            allowed_lateness: SimDuration::hours(2),
            sampling_rate: 1,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// Per-exporter lifetime counters, as reported by [`HealthSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExporterCounters {
    /// Exporter name.
    pub name: String,
    /// Bytes received.
    pub bytes: u64,
    /// IPFIX messages decoded.
    pub messages: u64,
    /// Flow records decoded.
    pub flows: u64,
    /// Decode trouble: framing errors plus skipped sets/records.
    pub decode_errors: u64,
    /// Records accepted behind the watermark.
    pub late: u64,
    /// Records dropped because their window had closed.
    pub dropped: u64,
}

/// One consistent view of the whole streaming stack's health: every
/// record the collector decoded is accounted for exactly once across
/// the gate, the queue, and the ingest workers.
///
/// The accounting identities ([`HealthSnapshot::check_invariants`]):
///
/// - `decoded == on_time + late + dropped_late` — the gate sees every
///   decoded record and sorts it into exactly one bucket;
/// - `on_time + late == ingested + in_flight + dropped_backpressure +
///   rejected_closed` — every accepted record is folded by a worker,
///   still queued, shed by backpressure, or rejected by a closed queue;
/// - the per-exporter vectors sum to the global gate counters.
///
/// Taken at a quiescent point ([`finish`]), `in_flight` is zero and
/// the identities are exact equalities over completed work.
///
/// [`finish`]: crate::multi::MultiStreamService::finish
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthSnapshot {
    /// Flow records decoded across all exporters.
    pub decoded: u64,
    /// Records accepted at or ahead of the watermark.
    pub on_time: u64,
    /// Records accepted behind the watermark (within allowed lateness).
    pub late: u64,
    /// Records dropped at the window gate (window already closed).
    pub dropped_late: u64,
    /// Records shed by queue backpressure (`DropNewest` only).
    pub dropped_backpressure: u64,
    /// Records rejected because the queue was closed: a push racing
    /// shutdown, or one after an ingest worker died (a dead worker
    /// closes the queue; see [`crate::multi`]).
    pub rejected_closed: u64,
    /// Records folded into window accumulators by the ingest workers.
    pub ingested: u64,
    /// Records accepted into the queue but not yet folded.
    pub in_flight: u64,
    /// Collector→ingest queue counters (batches, not records).
    pub queue: QueueStats,
    /// Current queue depth in batches.
    pub queue_depth: u64,
    /// Windows still open.
    pub windows_open: u64,
    /// Windows closed and run through the pipeline.
    pub windows_closed: u64,
    /// Per-exporter counters, ordered by exporter name.
    pub exporters: Vec<ExporterCounters>,
    /// An ingest worker died: the service can fold nothing more, and
    /// its next close, push or `finish` re-raises the panic. Set even
    /// while no record arrives to run into it.
    pub failed: bool,
}

impl HealthSnapshot {
    /// Verifies the accounting identities, returning the first
    /// violation as a message. Exact at quiescent points; mid-stream
    /// the only slack is `in_flight`, which this snapshot carries
    /// explicitly, so the identities still hold.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.failed {
            return Err("an ingest worker died; the service has failed".to_owned());
        }
        let gate_total = self.on_time + self.late + self.dropped_late;
        if self.decoded != gate_total {
            return Err(format!(
                "decoded ({}) != on_time + late + dropped_late ({gate_total})",
                self.decoded
            ));
        }
        let accepted = self.on_time + self.late;
        let accounted =
            self.ingested + self.in_flight + self.dropped_backpressure + self.rejected_closed;
        if accepted != accounted {
            return Err(format!(
                "accepted ({accepted}) != ingested + in_flight + backpressure + rejected_closed ({accounted})"
            ));
        }
        let attempts = self.queue.attempts();
        let outcomes = self.queue.pushed + self.queue.dropped + self.queue.rejected_closed;
        if attempts != outcomes {
            return Err(format!(
                "queue attempts ({attempts}) != pushed + dropped + rejected_closed ({outcomes})"
            ));
        }
        let (mut flows, mut late, mut dropped) = (0, 0, 0);
        for e in &self.exporters {
            flows += e.flows;
            late += e.late;
            dropped += e.dropped;
        }
        if flows != self.decoded {
            return Err(format!(
                "per-exporter flows ({flows}) != decoded ({})",
                self.decoded
            ));
        }
        if late != self.late || dropped != self.dropped_late {
            return Err(format!(
                "per-exporter late/dropped ({late}/{dropped}) != global ({}/{})",
                self.late, self.dropped_late
            ));
        }
        Ok(())
    }
}

/// Everything a finished streaming run produced.
#[derive(Debug)]
pub struct StreamOutput {
    /// Per-window reports, in close (day) order.
    pub windows: Vec<WindowReport>,
    /// The combined report after each window close (last = final).
    pub combined: Vec<CombinedReport>,
    /// The final health document (quiescent: `in_flight` is zero).
    pub health: HealthSnapshot,
    /// The run's metrics registry, still holding every counter for
    /// exposition after the service wound down.
    pub registry: Arc<MetricsRegistry>,
}

/// Mirrors a [`HealthSnapshot`]'s externally maintained totals into
/// `registry` (see [`mt_obs::Counter::set_total`] for the monotonicity
/// contract; every source here is a lifetime counter).
pub(crate) fn republish_health(r: &MetricsRegistry, h: &HealthSnapshot) {
    for e in &h.exporters {
        let labels = [("exporter", e.name.as_str())];
        let mirror = [
            ("mt_stream_bytes_total", e.bytes, "Bytes received."),
            (
                "mt_stream_messages_total",
                e.messages,
                "IPFIX messages decoded.",
            ),
            ("mt_stream_flows_total", e.flows, "Flow records decoded."),
            (
                "mt_stream_decode_errors_total",
                e.decode_errors,
                "Framing errors plus skipped sets/records.",
            ),
            (
                "mt_stream_late_total",
                e.late,
                "Records accepted behind the watermark.",
            ),
            (
                "mt_stream_dropped_total",
                e.dropped,
                "Records dropped at the window gate.",
            ),
        ];
        for (name, value, help) in mirror {
            r.counter_with(name, &labels, help).set_total(value);
        }
    }
    r.counter("mt_window_on_time_total", "Records accepted on time.")
        .set_total(h.on_time);
    r.counter("mt_window_late_total", "Records accepted late.")
        .set_total(h.late);
    r.counter("mt_window_dropped_total", "Records dropped at the gate.")
        .set_total(h.dropped_late);
    r.counter(
        "mt_queue_pushed_total",
        "Batches accepted into the collector→ingest queue.",
    )
    .set_total(h.queue.pushed);
    r.counter("mt_queue_popped_total", "Batches handed to ingest workers.")
        .set_total(h.queue.popped);
    r.counter(
        "mt_queue_shed_total",
        "Batches shed by DropNewest backpressure.",
    )
    .set_total(h.queue.dropped);
    r.counter(
        "mt_queue_rejected_closed_total",
        "Batches rejected because the queue was closed.",
    )
    .set_total(h.queue.rejected_closed);
    r.gauge("mt_queue_depth", "Current queue depth in batches.")
        .set(h.queue_depth);
    r.gauge("mt_queue_high_water", "Maximum queue depth ever reached.")
        .set(h.queue.high_water_mark as u64);
    r.counter(
        "mt_stream_backpressure_records_total",
        "Records shed by queue backpressure.",
    )
    .set_total(h.dropped_backpressure);
    r.counter(
        "mt_stream_rejected_closed_records_total",
        "Records lost to a queue closed mid-push.",
    )
    .set_total(h.rejected_closed);
    r.gauge("mt_window_open", "Windows currently open.")
        .set(h.windows_open);
}
