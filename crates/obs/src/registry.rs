//! The metrics registry: registration, handles, and snapshots.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What kind of metric a registered name is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A point-in-time value that may go up or down.
    Gauge,
    /// Fixed-bucket distribution with sum and count.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — hot-path increment of a single monotone cell;
        // no other memory is published with it. Cross-metric consistency
        // comes from snapshotting at quiescent points (under the registry
        // lock, after the flush barriers), not from per-op ordering.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Mirrors an externally maintained running total into the counter.
    ///
    /// This exists for *republishing*: several subsystems (queue stats,
    /// collector sessions, the window gate) already keep their own
    /// monotone totals, and the registry exposes them without making
    /// those structs depend on it. Callers own the monotonicity
    /// contract; the store saturates downward (a smaller value than the
    /// current one is ignored) so a stale republish cannot make a
    /// counter appear to regress. Republishing is a *publication*: a
    /// reader that observes the new total (via the `Acquire` load in
    /// [`Counter::get`]) also observes every write the publisher made
    /// before calling this.
    pub fn set_total(&self, total: u64) {
        // ordering: AcqRel — the Release half publishes the writes that
        // produced this total (pairs with the Acquire load in get());
        // the Acquire half orders chained republishes off the same cell.
        self.0.fetch_max(total, Ordering::AcqRel);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        // ordering: Acquire — pairs with the Release in set_total(), so a
        // reader seeing a republished total also sees the writes behind it.
        self.0.load(Ordering::Acquire)
    }
}

/// A gauge handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        // ordering: Release — gauges republish state owned elsewhere
        // (queue depth, window counts); pairing with the Acquire load in
        // get() makes the writes behind the published value visible too.
        self.0.store(v, Ordering::Release);
    }

    /// Sets the gauge to the maximum of its current value and `v`
    /// (high-water-mark upkeep).
    pub fn set_max(&self, v: u64) {
        // ordering: AcqRel — Release publishes like set(); Acquire orders
        // competing high-water-mark updates off the same cell.
        self.0.fetch_max(v, Ordering::AcqRel);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        // ordering: Acquire — pairs with the Release in set()/set_max().
        self.0.load(Ordering::Acquire)
    }
}

/// Default histogram bounds for wall-clock spans, in nanoseconds:
/// 1 µs … 10 s, one bucket per decade.
pub const DEFAULT_TIME_BUCKETS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

#[derive(Debug)]
struct HistogramCore {
    /// Ascending inclusive upper bounds; one implicit `+Inf` bucket
    /// follows.
    bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` cells,
    /// non-cumulative; the snapshot accumulates).
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let core = &self.0;
        let idx = core.bounds.partition_point(|&b| b < v);
        // ordering: Relaxed ×3 — hot-path increments of independent
        // monotone cells. bucket/sum/count agree with each other only at
        // quiescent points (see the registry docs); mid-run readers may
        // see a bucket ahead of the count, which exposition tolerates.
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed); // ordering: Relaxed — see above
        core.count.fetch_add(1, Ordering::Relaxed); // ordering: Relaxed — see above
    }

    /// Starts a span: the guard observes the elapsed wall-clock
    /// nanoseconds into this histogram when dropped.
    pub fn start_span(&self) -> SpanGuard {
        SpanGuard {
            histogram: self.clone(),
            started: Instant::now(),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — meaningful reads happen after a quiescent
        // point (thread join / flush barrier) whose own synchronization
        // makes all prior observes visible; a mid-run read is a monotone
        // lower bound, which progress reporting tolerates.
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — same quiescent-point argument as count().
        self.0.sum.load(Ordering::Relaxed)
    }
}

/// Times one span of work; observes elapsed nanoseconds on drop.
#[derive(Debug)]
pub struct SpanGuard {
    histogram: Histogram,
    started: Instant,
}

impl SpanGuard {
    /// Elapsed time so far, without ending the span.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.histogram.observe(self.elapsed_nanos());
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Slot {
    fn kind(&self) -> MetricKind {
        match self {
            Slot::Counter(_) => MetricKind::Counter,
            Slot::Gauge(_) => MetricKind::Gauge,
            Slot::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Debug)]
struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    help: String,
    slot: Slot,
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<Entry>,
    /// `(name, labels)` → index into `entries`, for idempotent
    /// registration.
    index: HashMap<(String, Vec<(String, String)>), usize>,
}

/// A registry of named metrics.
///
/// Registration (`counter`/`gauge`/`histogram` and their `_with`-labels
/// variants) takes a mutex briefly and is idempotent: asking for the
/// same `(name, labels)` again returns a handle to the same cell, so
/// independent subsystems can share series without coordination.
/// Updates through handles are single atomic operations and never touch
/// the registry lock. [`MetricsRegistry::snapshot`] reads every series
/// under the lock in one pass; because the system snapshots at its
/// quiescent points (window close barriers, end of run), the snapshot
/// is consistent across metrics there.
///
/// Memory ordering follows a two-tier discipline. Event-site updates
/// ([`Counter::add`], [`Histogram::observe`]) are `Relaxed`: each is a
/// single monotone cell, and cross-metric agreement is provided by the
/// quiescent-point synchronization (joins and flush barriers), not by
/// the atomics. Republishing ops ([`Counter::set_total`],
/// [`Gauge::set`], [`Gauge::set_max`]) are `Release` (or `AcqRel`) and
/// the scalar getters are `Acquire`, so a reader that observes a
/// republished value also observes every write the publisher made
/// before republishing — health snapshots taken off a live gauge can
/// trust what they see even between barriers.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = lock(&self.inner).entries.len(); // lock: obs.registry
        write!(f, "MetricsRegistry({n} series)")
    }
}

/// Takes the registry lock, re-raising any panic that poisoned it: a
/// registrant that panicked mid-registration may have left the tables
/// half-updated, and re-raising on the next toucher is the only honest
/// report. The one place this crate states (and pragmas) that policy.
fn lock(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    // check: allow(no_panic, "poisoning means a registrant panicked mid-registration; re-raising on the next toucher is the policy stated above")
    inner.lock().expect("registry lock poisoned") // lock: generic
}

fn assert_valid_name(name: &str) {
    assert!(
        !name.is_empty()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
            && !name.as_bytes()[0].is_ascii_digit(),
        "invalid metric name {name:?}: use [a-zA-Z_][a-zA-Z0-9_]*"
    );
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Slot,
    ) -> Slot {
        assert_valid_name(name);
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let mut inner = lock(&self.inner); // lock: obs.registry
        let key = (name.to_owned(), labels.clone());
        if let Some(&i) = inner.index.get(&key) {
            let entry = &inner.entries[i];
            let slot = make();
            assert_eq!(
                entry.slot.kind(),
                slot.kind(),
                "metric {name:?} re-registered as a different kind"
            );
            return match &entry.slot {
                Slot::Counter(c) => Slot::Counter(c.clone()),
                Slot::Gauge(g) => Slot::Gauge(g.clone()),
                Slot::Histogram(h) => Slot::Histogram(h.clone()),
            };
        }
        let slot = make();
        let handle = match &slot {
            Slot::Counter(c) => Slot::Counter(c.clone()),
            Slot::Gauge(g) => Slot::Gauge(g.clone()),
            Slot::Histogram(h) => Slot::Histogram(h.clone()),
        };
        let i = inner.entries.len();
        inner.entries.push(Entry {
            name: name.to_owned(),
            labels,
            help: help.to_owned(),
            slot,
        });
        inner.index.insert(key, i);
        handle
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Registers (or retrieves) a counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.register(name, labels, help, || {
            Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Slot::Counter(c) => c,
            // check: allow(no_panic, "register() returns the slot created by make (or an existing one it kind-checked against make's), so the variant always matches the constructor")
            _ => unreachable!("registered as counter"),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or retrieves) a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.register(name, labels, help, || {
            Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))
        }) {
            Slot::Gauge(g) => g,
            // check: allow(no_panic, "register() returns the slot created by make (or an existing one it kind-checked against make's), so the variant always matches the constructor")
            _ => unreachable!("registered as gauge"),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram over the given
    /// ascending upper bounds (a `+Inf` bucket is implicit).
    pub fn histogram(&self, name: &str, bounds: &[u64], help: &str) -> Histogram {
        self.histogram_with(name, &[], bounds, help)
    }

    /// Registers (or retrieves) a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        help: &str,
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        match self.register(name, labels, help, || {
            Slot::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })))
        }) {
            Slot::Histogram(h) => h,
            // check: allow(no_panic, "register() returns the slot created by make (or an existing one it kind-checked against make's), so the variant always matches the constructor")
            _ => unreachable!("registered as histogram"),
        }
    }

    /// Reads every registered series into a [`Snapshot`], sorted by
    /// `(name, labels)` so exposition output is deterministic.
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock(&self.inner); // lock: obs.registry
        let mut samples: Vec<Sample> = inner
            .entries
            .iter()
            .map(|e| Sample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                help: e.help.clone(),
                value: match &e.slot {
                    Slot::Counter(c) => SampleValue::Counter(c.get()),
                    Slot::Gauge(g) => SampleValue::Gauge(g.get()),
                    Slot::Histogram(h) => {
                        let core = &h.0;
                        SampleValue::Histogram(HistogramSample {
                            bounds: core.bounds.clone(),
                            // ordering: Relaxed ×3 — snapshots are taken at
                            // quiescent points; the barrier/join that made
                            // the system quiescent already ordered every
                            // observe before these loads.
                            buckets: core
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed)) // ordering: Relaxed — see above
                                .collect(),
                            sum: core.sum.load(Ordering::Relaxed), // ordering: Relaxed — see above
                            count: core.count.load(Ordering::Relaxed), // ordering: Relaxed — see above
                        })
                    }
                },
            })
            .collect();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { samples }
    }
}

/// One series' value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(u64),
    /// A histogram's buckets, sum, and count.
    Histogram(HistogramSample),
}

impl SampleValue {
    /// The metric kind this value belongs to.
    pub fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }

    /// The scalar value of a counter or gauge sample.
    pub fn as_scalar(&self) -> Option<u64> {
        match self {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => Some(*v),
            SampleValue::Histogram(_) => None,
        }
    }
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Ascending inclusive upper bounds (the `+Inf` bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts, non-cumulative, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSample {
    /// Merges `other` into this sample bucket-wise: per-bucket counts,
    /// sum, and count all add. Both samples must have identical bounds
    /// — merging histograms bucketed differently would silently smear
    /// observations across bucket edges — so mismatched bounds are an
    /// error, not a guess.
    ///
    /// This is how per-loop ingest-latency histograms (one series per
    /// event loop) aggregate into one daemon-wide distribution for
    /// p50/p99 reporting: the per-loop series share their bounds, so
    /// the merged quantile estimates are exactly what one shared
    /// histogram would have reported.
    pub fn merge(&mut self, other: &HistogramSample) -> Result<(), String> {
        if self.bounds != other.bounds {
            return Err(format!(
                "histogram bounds differ: {:?} vs {:?}",
                self.bounds, other.bounds
            ));
        }
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.sum += other.sum;
        self.count += other.count;
        Ok(())
    }

    /// The upper bound of the bucket containing quantile `q` (0..=1) —
    /// the standard bucketed-quantile estimate. Returns `None` for an
    /// empty histogram, and the largest finite bound when the quantile
    /// lands in the `+Inf` bucket.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // +Inf bucket: fall back to the largest finite bound,
                // as Prometheus's histogram_quantile does.
                return match self.bounds.get(i) {
                    Some(&b) => Some(b),
                    None => self.bounds.last().copied(),
                };
            }
        }
        self.bounds.last().copied()
    }
}

/// One registered series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The metric name.
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
    /// The help string.
    pub help: String,
    /// The value read at snapshot time.
    pub value: SampleValue,
}

/// A consistent, deterministically ordered read of a registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All series, sorted by `(name, labels)`.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// The scalar value of the series with this exact name and labels.
    pub fn scalar(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && s.labels
                        .iter()
                        .zip(labels)
                        .all(|((k, v), (lk, lv))| k == lk && v == lv)
            })
            .and_then(|s| s.value.as_scalar())
    }

    /// Merges every histogram series with this name (across all label
    /// sets) into one [`HistogramSample`], bucket-wise. `None` when the
    /// name has no histogram series; `Err` when two series disagree on
    /// bounds. The per-loop → daemon-wide aggregation path.
    pub fn merged_histogram(&self, name: &str) -> Result<Option<HistogramSample>, String> {
        let mut merged: Option<HistogramSample> = None;
        for s in &self.samples {
            let SampleValue::Histogram(h) = &s.value else {
                continue;
            };
            if s.name != name {
                continue;
            }
            match &mut merged {
                None => merged = Some(h.clone()),
                Some(m) => m.merge(h)?,
            }
        }
        Ok(merged)
    }

    /// Renders the snapshot in Prometheus text exposition format.
    pub fn render_prometheus_text(&self) -> String {
        crate::expose::render_prometheus_text(self)
    }

    /// Renders the snapshot as a JSON value tree.
    pub fn to_json(&self) -> serde::Value {
        crate::expose::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("mt_test_total", "a test counter");
        a.inc();
        a.add(4);
        let b = reg.counter("mt_test_total", "a test counter");
        b.inc();
        assert_eq!(a.get(), 6, "handles share one cell");
        assert_eq!(reg.snapshot().scalar("mt_test_total", &[]), Some(6));
    }

    #[test]
    fn set_total_never_regresses() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("mt_mirror_total", "republished");
        c.set_total(10);
        c.set_total(7);
        assert_eq!(c.get(), 10, "stale republish ignored");
        c.set_total(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn labels_separate_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("mt_flows_total", &[("exporter", "A")], "per-exporter");
        let b = reg.counter_with("mt_flows_total", &[("exporter", "B")], "per-exporter");
        a.add(3);
        b.add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.scalar("mt_flows_total", &[("exporter", "A")]), Some(3));
        assert_eq!(snap.scalar("mt_flows_total", &[("exporter", "B")]), Some(5));
    }

    #[test]
    fn histogram_buckets_and_span() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("mt_lat_nanoseconds", &[10, 100], "latency");
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(50);
        h.observe(1_000); // overflow bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
        let snap = reg.snapshot();
        let SampleValue::Histogram(hs) = &snap.samples[0].value else {
            panic!("expected histogram");
        };
        assert_eq!(hs.buckets, vec![2, 1, 1]);

        drop(h.start_span());
        assert_eq!(h.count(), 5, "span observed on drop");
    }

    #[test]
    fn gauge_set_and_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("mt_depth", "queue depth");
        g.set(4);
        g.set(2);
        assert_eq!(g.get(), 2);
        g.set_max(9);
        g.set_max(3);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("mt_b_total", "");
        reg.counter("mt_a_total", "");
        reg.counter_with("mt_a_total", &[("x", "2")], "");
        reg.counter_with("mt_a_total", &[("x", "1")], "");
        let names: Vec<(String, Vec<(String, String)>)> = reg
            .snapshot()
            .samples
            .into_iter()
            .map(|s| (s.name, s.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_is_rejected() {
        let reg = MetricsRegistry::new();
        reg.counter("mt_x", "");
        reg.gauge("mt_x", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_is_rejected() {
        MetricsRegistry::new().counter("1bad-name", "");
    }

    /// Pins the Release/Acquire publish contract: a reader that
    /// observes counter `b`'s republished total must also observe the
    /// `a` republish that happened before it on the publisher thread.
    /// Under the old all-Relaxed scheme nothing ordered the two cells
    /// and a snapshot between barriers could see `b` ahead of `a`.
    #[test]
    fn republish_order_is_visible() {
        let reg = Arc::new(MetricsRegistry::new());
        let a = reg.counter("mt_pub_a_total", "");
        let b = reg.counter("mt_pub_b_total", "");
        let stop = Arc::new(AtomicU64::new(0));

        let publisher = {
            let (a, b, stop) = (a.clone(), b.clone(), stop.clone());
            std::thread::spawn(move || {
                for i in 1..=20_000u64 {
                    a.set_total(i);
                    b.set_total(i);
                }
                stop.store(1, Ordering::Release);
            })
        };
        // b is republished after a, so any observed b-total must be
        // matched or exceeded by the a-total read *after* it.
        // ordering: Acquire — test observes the publisher's stop flag.
        while stop.load(Ordering::Acquire) == 0 {
            let tb = b.get();
            let ta = a.get();
            assert!(ta >= tb, "saw b={tb} published but a={ta} behind it");
        }
        publisher.join().unwrap();
        assert_eq!(a.get(), 20_000);
        assert_eq!(b.get(), 20_000);
    }

    #[test]
    fn concurrent_updates_survive() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("mt_conc_total", "");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn histogram_quantile_upper_bounds() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("mt_q_test", &[10, 100, 1000], "");
        assert_eq!(histo_sample(&reg).quantile_upper_bound(0.5), None);
        for v in [5, 5, 5, 50, 50, 50, 50, 500, 500, 5000] {
            h.observe(v);
        }
        let s = histo_sample(&reg);
        assert_eq!(s.quantile_upper_bound(0.0), Some(10));
        assert_eq!(s.quantile_upper_bound(0.3), Some(10));
        assert_eq!(s.quantile_upper_bound(0.5), Some(100));
        assert_eq!(s.quantile_upper_bound(0.9), Some(1000));
        // The 10th observation sits in +Inf: report the top finite bound.
        assert_eq!(s.quantile_upper_bound(0.99), Some(1000));
        assert_eq!(s.quantile_upper_bound(1.0), Some(1000));
    }

    /// Merging two per-loop samples must yield exactly the quantile
    /// upper bounds one shared histogram over all observations reports.
    #[test]
    fn histogram_merge_matches_one_shared_histogram() {
        let bounds = [10u64, 100, 1000];
        let reg = MetricsRegistry::new();
        let a = reg.histogram_with("mt_m_test", &[("loop", "0")], &bounds, "");
        let b = reg.histogram_with("mt_m_test", &[("loop", "1")], &bounds, "");
        let shared = reg.histogram("mt_m_all", &bounds, "");
        let (loop0, loop1) = ([5u64, 50, 50, 500], [5u64, 5, 50, 5000]);
        for v in loop0 {
            a.observe(v);
            shared.observe(v);
        }
        for v in loop1 {
            b.observe(v);
            shared.observe(v);
        }
        let snap = reg.snapshot();
        let merged = snap.merged_histogram("mt_m_test").unwrap().unwrap();
        assert_eq!(merged.count, 8);
        assert_eq!(
            merged.sum,
            loop0.iter().sum::<u64>() + loop1.iter().sum::<u64>()
        );
        assert_eq!(merged.buckets, vec![3, 3, 1, 1]);
        let one = snap.merged_histogram("mt_m_all").unwrap().unwrap();
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                merged.quantile_upper_bound(q),
                one.quantile_upper_bound(q),
                "quantile {q} diverges from the shared histogram"
            );
        }
        // Pin the absolute estimates too: p50 of {5,5,5,50,50,50,500,5000}.
        assert_eq!(merged.quantile_upper_bound(0.5), Some(100));
        assert_eq!(merged.quantile_upper_bound(0.99), Some(1000));
    }

    #[test]
    fn histogram_merge_rejects_mismatched_bounds() {
        let reg = MetricsRegistry::new();
        reg.histogram_with("mt_mm_test", &[("loop", "0")], &[10, 100], "");
        reg.histogram_with("mt_mm_test", &[("loop", "1")], &[10, 200], "");
        let snap = reg.snapshot();
        assert!(snap.merged_histogram("mt_mm_test").is_err());
        assert_eq!(snap.merged_histogram("mt_absent").unwrap(), None);
    }

    fn histo_sample(reg: &MetricsRegistry) -> HistogramSample {
        match &reg
            .snapshot()
            .samples
            .iter()
            .find(|s| s.name == "mt_q_test")
            .expect("registered")
            .value
        {
            SampleValue::Histogram(h) => h.clone(),
            other => panic!("not a histogram: {other:?}"),
        }
    }
}
