//! The inference funnel of Section 4.2 (Figure 2): the one place the
//! seven steps are defined and run.
//!
//! The funnel consumes only *observable* inputs: per-/24 aggregates of
//! sampled flows, a RIB, and the special-purpose registry. Ground truth
//! never enters here. [`PipelineEngine::run`] walks any [`TrafficView`]
//! serially; [`PipelineEngine::run_sharded`] runs the same steps over
//! each shard of a [`ShardedTrafficStats`] in parallel and folds the
//! per-shard funnels and sets. Because every step only reads its own
//! block's dst/src aggregates — and sharding co-locates both halves of a
//! block — per-shard runs partition the work exactly, and the folded
//! result is bit-identical to the serial run.
//!
//! Blocks go through the funnel a fixed-size chunk at a time: each step
//! runs over the chunk's survivors before the next step starts. A step
//! decides from its own block alone, so the counts and sets equal a
//! block-by-block walk's. With a registry attached, each step is timed
//! once per chunk, so timing costs a pair of clock reads per step per
//! chunk rather than per block.

use crate::pipeline::{PipelineConfig, PipelineResult};
use mt_flow::{DstRef, HostSet, ShardedTrafficStats, SrcRef, TrafficView};
use mt_obs::{Counter, Histogram, MetricsRegistry, DEFAULT_TIME_BUCKETS};
use mt_types::{Asn, Block24, Block24Set, PrefixTrie, RibIndex, SpecialRegistry};
use std::cell::OnceCell;
use std::time::Instant;

/// One filtering step of the funnel. Step semantics (see DESIGN.md for
/// the mapping to the paper's funnel):
///
/// 1. **TCP** (`tcp`) — a block with no sampled TCP cannot be
///    fingerprinted; dropped.
/// 2. **Average packet size** (`avg_size`) — blocks whose block-level
///    average TCP size exceeds the threshold are dropped (the
///    Section 4.1 fingerprint).
/// 3. **Source address unseen** (`clean_origin`) — hosts seen
///    originating traffic are disqualified; a block whose origination
///    exceeds the spoofing tolerance *and* retains no clean receiving
///    host is dropped. Blocks with both originators and clean receivers
///    stay and are later classified gray.
/// 4. **Private / multicast / reserved** (`special`) — RFC 6890 space
///    is dropped.
/// 5. **Globally routed** (`routed`) — blocks outside the window's RIB
///    are dropped.
/// 6. **Volume** (`volume`) — blocks whose estimated true packet rate
///    exceeds the per-day cap are dropped (asymmetric-routing decoys:
///    CDN ACK streams look like IBR but are orders of magnitude
///    heavier).
/// 7. **Classification** — surviving blocks become **dark** (every
///    TCP-receiving host is clean and nothing originated), **unclean**
///    (no originators, but some host received large TCP), or **gray**
///    (some host originated while another stayed clean).
#[derive(Debug, Clone, Copy)]
enum Step {
    Tcp,
    AvgSize,
    CleanOrigin,
    Special,
    Routed,
    Volume,
}

/// The six filter steps, in funnel order.
const STEPS: [Step; 6] = [
    Step::Tcp,
    Step::AvgSize,
    Step::CleanOrigin,
    Step::Special,
    Step::Routed,
    Step::Volume,
];

impl Step {
    /// Stable stage name: the funnel's [`StageCount::name`] and the
    /// `stage` label of every `mt_pipeline_*` series.
    fn name(self) -> &'static str {
        match self {
            Step::Tcp => "tcp",
            Step::AvgSize => "avg_size",
            Step::CleanOrigin => "clean_origin",
            Step::Special => "special",
            Step::Routed => "routed",
            Step::Volume => "volume",
        }
    }

    /// Whether `ctx.block` survives this step.
    fn keeps(self, ctx: &BlockCtx<'_>, env: &Env<'_>) -> bool {
        match self {
            Step::Tcp => ctx.dst.tcp_packets > 0,
            Step::AvgSize => ctx
                .dst
                .avg_tcp_size()
                .is_some_and(|avg| avg <= env.config.avg_size_threshold),
            Step::CleanOrigin => !ctx.clean_hosts(env).is_empty(),
            Step::Special => !env.special.is_special_block(ctx.block),
            Step::Routed => env.rib_index.contains_addr(ctx.block.base()),
            Step::Volume => ctx.dst.total_packets() as f64 <= env.volume_cap,
        }
    }
}

/// Candidate accounting for one stage of the funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCount {
    /// The stage's name (`tcp`, `avg_size`, `clean_origin`, `special`,
    /// `routed`, `volume`).
    pub name: &'static str,
    /// Blocks that reached this stage: the previous stage's `kept`
    /// (for the first stage, [`Funnel::seen`]).
    pub entered: u64,
    /// Blocks that survived it; `entered - kept` is the stage's drop
    /// count.
    pub kept: u64,
}

/// Per-stage candidate accounting (the funnel of Figure 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Funnel {
    seen: u64,
    stages: [StageCount; 6],
}

impl Default for Funnel {
    /// A zeroed funnel.
    fn default() -> Self {
        Funnel {
            seen: 0,
            stages: STEPS.map(|step| StageCount {
                name: step.name(),
                entered: 0,
                kept: 0,
            }),
        }
    }
}

impl Funnel {
    /// /24s with any sampled traffic toward them.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The per-stage counters, in funnel order.
    pub fn stages(&self) -> &[StageCount; 6] {
        &self.stages
    }

    /// Adds another funnel's counts into this one.
    pub fn absorb(&mut self, other: &Funnel) {
        self.seen += other.seen;
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            mine.entered += theirs.entered;
            mine.kept += theirs.kept;
        }
    }
}

/// Run-wide environment shared by all steps.
struct Env<'a> {
    /// Flat LPM index compiled from the window's RIB once per run.
    /// Plain arrays, so sharing `&Env` across shard workers stays
    /// `Sync`.
    rib_index: RibIndex<Asn>,
    special: &'a SpecialRegistry,
    config: &'a PipelineConfig,
    /// Step-6 cap on *sampled* packets, already scaled by window length
    /// and sampling rate.
    volume_cap: f64,
    /// The config's spoofing rule, resolved once on the whole run's
    /// stats: sampled source packets a block may emit before its
    /// originating hosts are disqualified.
    spoof_tolerance: u64,
}

/// One destination /24 under evaluation, with lazily derived host sets.
///
/// The source-side lookup and the originating host set are memoized so
/// they run at most once per block no matter how many steps (or the
/// final classification) consult them — and not at all for blocks
/// dropped before step 3.
struct BlockCtx<'a> {
    block: Block24,
    /// Receive-side aggregates for the block (a cheap by-value view —
    /// the columnar backend has no materialized struct to borrow).
    dst: DstRef<'a>,
    src_lookup: &'a dyn Fn(Block24) -> Option<SrcRef>,
    src: OnceCell<Option<SrcRef>>,
    originating: OnceCell<HostSet>,
}

impl<'a> BlockCtx<'a> {
    fn new(
        block: Block24,
        dst: DstRef<'a>,
        src_lookup: &'a dyn Fn(Block24) -> Option<SrcRef>,
    ) -> Self {
        BlockCtx {
            block,
            dst,
            src_lookup,
            src: OnceCell::new(),
            originating: OnceCell::new(),
        }
    }

    /// Send-side aggregates of this block, if it originated anything.
    fn src(&self) -> Option<SrcRef> {
        *self.src.get_or_init(|| (self.src_lookup)(self.block))
    }

    /// Hosts disqualified as originators: the block's originating hosts
    /// if its sampled origination exceeds the spoofing tolerance,
    /// otherwise none (light origination is forgiven as spoofed blame).
    fn originating(&self, env: &Env) -> &HostSet {
        self.originating.get_or_init(|| match self.src() {
            Some(s) if s.packets > env.spoof_tolerance => s.originating,
            _ => HostSet::EMPTY,
        })
    }

    /// Hosts that received only small TCP and are not disqualified as
    /// originators — the "clean receiving hosts" of step 3.
    fn clean_hosts(&self, env: &Env) -> HostSet {
        self.dst
            .received_tcp
            .difference(&self.dst.received_big_tcp)
            .difference(self.originating(env))
    }
}

/// Registry handles for one engine: per-stage funnel counters plus run
/// and per-stage timing histograms. Registered once in
/// [`PipelineEngine::with_registry`]; updates are single atomics.
struct EngineMetrics {
    runs: Counter,
    seen: Counter,
    stage_entered: [Counter; 6],
    stage_kept: [Counter; 6],
    run_time: Histogram,
    stage_time: [Histogram; 6],
}

impl EngineMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let labels = |step: Step| [("stage", step.name())];
        EngineMetrics {
            runs: registry.counter("mt_pipeline_runs_total", "Completed engine runs."),
            seen: registry.counter(
                "mt_pipeline_blocks_seen_total",
                "Destination /24s entering the funnel, summed over runs.",
            ),
            stage_entered: STEPS.map(|step| {
                registry.counter_with(
                    "mt_pipeline_stage_entered_total",
                    &labels(step),
                    "Candidate /24s that reached this funnel stage.",
                )
            }),
            stage_kept: STEPS.map(|step| {
                registry.counter_with(
                    "mt_pipeline_stage_kept_total",
                    &labels(step),
                    "Candidate /24s that survived this funnel stage.",
                )
            }),
            run_time: registry.histogram(
                "mt_pipeline_run_nanoseconds",
                &DEFAULT_TIME_BUCKETS,
                "Wall-clock time of one engine run, from building its RIB index to its folded result.",
            ),
            stage_time: STEPS.map(|step| {
                registry.histogram_with(
                    "mt_pipeline_stage_nanoseconds",
                    &labels(step),
                    &DEFAULT_TIME_BUCKETS,
                    "Time spent inside this stage per engine run, summed over shards: a sharded run's total can exceed its wall-clock time.",
                )
            }),
        }
    }

    fn publish(&self, funnel: &Funnel, run_nanos: u64, stage_nanos: &[u64; 6]) {
        self.runs.inc();
        self.seen.add(funnel.seen);
        for (i, stage) in funnel.stages.iter().enumerate() {
            self.stage_entered[i].add(stage.entered);
            self.stage_kept[i].add(stage.kept);
            self.stage_time[i].observe(stage_nanos[i]);
        }
        self.run_time.observe(run_nanos);
    }
}

/// Runs the funnel serially or shard-parallel, optionally publishing
/// every run into a metrics registry.
#[derive(Default)]
pub struct PipelineEngine {
    metrics: Option<EngineMetrics>,
}

impl PipelineEngine {
    /// The paper's funnel, with no registry attached.
    pub fn standard() -> Self {
        PipelineEngine { metrics: None }
    }

    /// Attaches a metrics registry: every subsequent run publishes its
    /// funnel into `mt_pipeline_*` counters and records two timing
    /// histograms: the run's wall-clock time, RIB index build included,
    /// and each stage's time, taken once per chunk of blocks and summed
    /// over the run's chunks and shards. The [`Funnel`] in the returned
    /// [`PipelineResult`] is unchanged — the registry is a derived view
    /// of the same counts. Without a registry attached, runs take no
    /// timestamps and touch no atomics.
    pub fn with_registry(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(EngineMetrics::register(registry));
        self
    }

    /// The run-wide environment. The spoofing rule is resolved here,
    /// on all of `stats`: a sharded run must judge every shard by the
    /// whole window's tolerance, as the serial run does.
    fn env<'a, V: TrafficView>(
        stats: &V,
        rib: &PrefixTrie<Asn>,
        special: &'a SpecialRegistry,
        sampling_rate: u32,
        days: u32,
        config: &'a PipelineConfig,
    ) -> Env<'a> {
        assert!(days > 0, "observation window must cover at least one day");
        Env {
            rib_index: RibIndex::build(rib),
            special,
            config,
            volume_cap: config.volume_threshold_per_day * f64::from(days)
                / f64::from(sampling_rate),
            spoof_tolerance: config.spoof_tolerance.resolve(stats),
        }
    }

    /// Runs the funnel over every destination block of `stats` on the
    /// calling thread.
    ///
    /// * `stats` — merged sampled traffic of the observation window
    ///   (one or more vantage points, one or more days), flat or
    ///   sharded;
    /// * `rib` — the routed-prefix table for the window;
    /// * `sampling_rate` — the vantage points' packet sampling rate,
    ///   used to scale sampled counts back to volume estimates;
    /// * `days` — window length in days (volume normalisation);
    /// * `config` — thresholds and the spoofing rule.
    pub fn run<V: TrafficView>(
        &self,
        stats: &V,
        rib: &PrefixTrie<Asn>,
        sampling_rate: u32,
        days: u32,
        config: &PipelineConfig,
    ) -> PipelineResult {
        let started = clock_if(self.metrics.is_some());
        let special = SpecialRegistry::new();
        let env = Self::env(stats, rib, &special, sampling_rate, days, config);
        let part = run_view_sparse(stats, &env, self.metrics.is_some());
        self.publish(started, &part.funnel, &part.stage_nanos);
        PipelineResult {
            dark: Block24Set::from_iter(part.dark),
            unclean: Block24Set::from_iter(part.unclean),
            gray: Block24Set::from_iter(part.gray),
            funnel: part.funnel,
            spoof_tolerance: env.spoof_tolerance,
        }
    }

    /// Runs the funnel over each shard of `stats` with `threads`
    /// workers, folding the per-shard funnels and block sets in shard
    /// order.
    ///
    /// Shards partition the destination blocks and carry the matching
    /// source blocks, so per-shard runs see exactly the serial run's
    /// per-block inputs; the folded funnel counts and dark/unclean/gray
    /// sets are identical to [`run`](Self::run) on the same data. The
    /// spoofing rule is resolved once, over all shards, before they fan
    /// out.
    pub fn run_sharded(
        &self,
        stats: &ShardedTrafficStats,
        rib: &PrefixTrie<Asn>,
        sampling_rate: u32,
        days: u32,
        config: &PipelineConfig,
        threads: usize,
    ) -> PipelineResult {
        assert!(threads >= 1);
        let started = clock_if(self.metrics.is_some());
        let special = SpecialRegistry::new();
        let env = &Self::env(stats, rib, &special, sampling_rate, days, config);
        let timed = self.metrics.is_some();
        let shards = stats.shards();
        let chunk = shards.len().div_ceil(threads).max(1);
        let parts: Vec<ShardRun> = std::thread::scope(|scope| {
            let workers: Vec<_> = shards
                .chunks(chunk)
                .map(|shard_chunk| {
                    scope.spawn(move || {
                        shard_chunk
                            .iter()
                            .map(|shard| run_view_sparse(shard, env, timed))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });

        // Fold into three dense sets allocated once; the per-shard
        // results stay sparse so fold cost scales with the population,
        // not with shards × the 2 MiB Block24Set footprint.
        let mut folded = PipelineResult {
            dark: Block24Set::new(),
            unclean: Block24Set::new(),
            gray: Block24Set::new(),
            funnel: Funnel::default(),
            spoof_tolerance: env.spoof_tolerance,
        };
        let mut stage_nanos = [0u64; 6];
        for part in parts {
            for b in part.dark {
                folded.dark.insert(b);
            }
            for b in part.unclean {
                folded.unclean.insert(b);
            }
            for b in part.gray {
                folded.gray.insert(b);
            }
            folded.funnel.absorb(&part.funnel);
            for (total, part) in stage_nanos.iter_mut().zip(part.stage_nanos) {
                *total += part;
            }
        }
        self.publish(started, &folded.funnel, &stage_nanos);
        folded
    }

    fn publish(&self, started: Option<Instant>, funnel: &Funnel, stage_nanos: &[u64; 6]) {
        if let (Some(metrics), Some(started)) = (&self.metrics, started) {
            metrics.publish(funnel, nanos_since(started), stage_nanos);
        }
    }
}

/// Destination blocks evaluated together, stage by stage. At 512 a
/// timed run's clock-read pair per step per chunk is noise beside the
/// chunk's work; smaller chunks made the untimed run no faster.
/// Survivors are `u16` indices into the chunk.
const CHUNK: usize = 512;
const _: () = assert!(CHUNK <= u16::MAX as usize);

/// The traversal core: classified blocks are collected as sparse lists
/// so per-shard workers avoid allocating (and the fold avoids scanning)
/// dense bitsets per shard. Blocks go through the funnel a chunk at a
/// time, each step over the chunk's survivors in block order. With
/// `timed` set (a registry is attached), each step's wall-clock
/// nanoseconds over each chunk accumulate into `stage_nanos`; otherwise
/// no timestamps are taken.
fn run_view_sparse<V: TrafficView>(stats: &V, env: &Env<'_>, timed: bool) -> ShardRun {
    let mut funnel = Funnel::default();
    let mut dark = Vec::new();
    let mut unclean = Vec::new();
    let mut gray = Vec::new();
    let mut stage_nanos = [0u64; 6];
    let src_lookup = |block: Block24| stats.src(block);
    let mut blocks = stats.iter_dst();
    let mut ctxs = Vec::with_capacity(CHUNK);
    let mut survivors: Vec<u16> = Vec::with_capacity(CHUNK);
    loop {
        ctxs.clear();
        ctxs.extend(
            blocks
                .by_ref()
                .take(CHUNK)
                .map(|(block, d)| BlockCtx::new(block, d, &src_lookup)),
        );
        if ctxs.is_empty() {
            break;
        }
        funnel.seen += ctxs.len() as u64;
        survivors.clear();
        survivors.extend(0..ctxs.len() as u16);
        for (i, step) in STEPS.into_iter().enumerate() {
            let started = clock_if(timed);
            funnel.stages[i].entered += survivors.len() as u64;
            survivors.retain(|&j| step.keeps(&ctxs[usize::from(j)], env));
            funnel.stages[i].kept += survivors.len() as u64;
            stage_nanos[i] += started.map_or(0, nanos_since);
        }
        // Step 7: classification of the surviving candidates.
        for &j in &survivors {
            let ctx = &ctxs[usize::from(j)];
            if !ctx.originating(env).is_empty() {
                gray.push(ctx.block);
            } else if !ctx.dst.received_big_tcp.is_empty() {
                unclean.push(ctx.block);
            } else {
                dark.push(ctx.block);
            }
        }
    }

    ShardRun {
        dark,
        unclean,
        gray,
        funnel,
        stage_nanos,
    }
}

/// The engine's one clock read: now, if `on` (a registry is attached).
fn clock_if(on: bool) -> Option<Instant> {
    // check: allow(determinism, "wall-clock only feeds the metrics histograms; no pipeline decision or output reads it")
    on.then(Instant::now)
}

/// Nanoseconds since `started`, saturating.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One shard's (or one serial traversal's) raw classification output.
struct ShardRun {
    dark: Vec<Block24>,
    unclean: Vec<Block24>,
    gray: Vec<Block24>,
    funnel: Funnel,
    /// Per-stage elapsed nanoseconds; zero when the run is untimed.
    stage_nanos: [u64; 6],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spoofing::SpoofRule;
    use mt_flow::{FlowRecord, TrafficStats};
    use mt_types::{Ipv4, Prefix, SimTime};
    use proptest::prelude::*;

    /// Builds a record; `size` is per-packet bytes.
    fn flow(src: &str, dst: &str, proto: u8, packets: u64, size: u64) -> FlowRecord {
        FlowRecord {
            start: SimTime(0),
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            src_port: 40_000,
            dst_port: 23,
            protocol: proto,
            tcp_flags: 2,
            packets,
            octets: packets * size,
        }
    }

    fn rib_with(prefixes: &[&str]) -> PrefixTrie<Asn> {
        prefixes
            .iter()
            .map(|p| (p.parse::<Prefix>().unwrap(), Asn(65_000)))
            .collect()
    }

    fn mixed_records() -> Vec<FlowRecord> {
        let mut records = Vec::new();
        for i in 0..60u32 {
            records.push(flow(
                "9.9.9.9",
                &format!("20.{}.{}.1", i % 6, i),
                if i % 5 == 0 { 17 } else { 6 },
                1 + u64::from(i % 9) * 400,
                if i % 3 == 0 { 1500 } else { 40 },
            ));
        }
        // Some blocks talk back (gray candidates).
        records.push(flow("20.0.0.50", "9.9.9.9", 6, 2, 40));
        records.push(flow("20.1.7.1", "9.9.9.9", 6, 2, 40));
        records
    }

    /// One funnel scenario: its inputs, the classified blocks, and the
    /// stage each remaining block leaves the funnel at.
    struct Row {
        name: &'static str,
        records: Vec<FlowRecord>,
        rib: &'static [&'static str],
        config: PipelineConfig,
        sampling_rate: u32,
        days: u32,
        dark: &'static [&'static str],
        unclean: &'static [&'static str],
        gray: &'static [&'static str],
        /// One entry per dropped block, in funnel order.
        dropped_at: &'static [&'static str],
    }

    impl Default for Row {
        fn default() -> Self {
            Row {
                name: "",
                records: Vec::new(),
                rib: &["20.0.0.0/8"],
                config: PipelineConfig::default(),
                sampling_rate: 1,
                days: 1,
                dark: &[],
                unclean: &[],
                gray: &[],
                dropped_at: &[],
            }
        }
    }

    #[test]
    fn each_step_keeps_and_drops_what_it_should() {
        let scan = |dst: &str, proto: u8, packets: u64, size: u64| {
            flow("9.9.9.9", dst, proto, packets, size)
        };
        let heavy = || vec![scan("20.1.1.1", 6, 2_000, 40)];
        let rows = [
            Row {
                name: "clean block is dark",
                records: vec![scan("20.1.1.1", 6, 10, 40), scan("20.1.1.77", 6, 5, 44)],
                dark: &["20.1.1.0/24"],
                ..Row::default()
            },
            Row {
                name: "UDP-only block fails step 1",
                records: vec![scan("20.1.1.1", 17, 10, 100)],
                dropped_at: &["tcp"],
                ..Row::default()
            },
            Row {
                name: "large average fails step 2",
                records: vec![scan("20.1.1.1", 6, 10, 1500)],
                dropped_at: &["avg_size"],
                ..Row::default()
            },
            Row {
                name: "an average of exactly 44 bytes survives step 2 (threshold is <=)",
                records: vec![scan("20.1.1.1", 6, 10, 44)],
                dark: &["20.1.1.0/24"],
                ..Row::default()
            },
            Row {
                // Host 50 talks back; the scanner's own block is fully
                // originating and leaves at step 3.
                name: "originating block with a clean host is gray",
                records: vec![
                    scan("20.1.1.1", 6, 10, 40),
                    flow("20.1.1.50", "9.9.9.9", 6, 3, 40),
                ],
                rib: &["20.0.0.0/8", "9.0.0.0/8"],
                gray: &["20.1.1.0/24"],
                dropped_at: &["clean_origin"],
                ..Row::default()
            },
            Row {
                // The only scanned host is also the one originating.
                name: "fully originating blocks fail step 3",
                records: vec![
                    scan("20.1.1.50", 6, 10, 40),
                    flow("20.1.1.50", "9.9.9.9", 6, 3, 40),
                ],
                rib: &["20.0.0.0/8", "9.0.0.0/8"],
                dropped_at: &["clean_origin", "clean_origin"],
                ..Row::default()
            },
            Row {
                name: "two spoofed packets make a strict run gray",
                records: vec![
                    scan("20.1.1.1", 6, 10, 40),
                    flow("20.1.1.50", "9.9.9.9", 6, 2, 40),
                ],
                rib: &["20.0.0.0/8", "9.0.0.0/8"],
                gray: &["20.1.1.0/24"],
                dropped_at: &["clean_origin"],
                ..Row::default()
            },
            Row {
                name: "a spoofing tolerance of 2 forgives them",
                records: vec![
                    scan("20.1.1.1", 6, 10, 40),
                    flow("20.1.1.50", "9.9.9.9", 6, 2, 40),
                ],
                rib: &["20.0.0.0/8", "9.0.0.0/8"],
                config: PipelineConfig {
                    spoof_tolerance: SpoofRule::Fixed(2),
                    ..PipelineConfig::default()
                },
                dark: &["20.1.1.0/24"],
                dropped_at: &["clean_origin"],
                ..Row::default()
            },
            Row {
                // Nothing is blamed on 37/8, so the estimate is 0.
                name: "the unrouted rule forgives one packet even when its estimate is 0",
                records: vec![
                    scan("20.1.1.1", 6, 10, 40),
                    flow("20.1.1.50", "9.9.9.9", 6, 1, 40),
                ],
                rib: &["20.0.0.0/8", "9.0.0.0/8"],
                config: PipelineConfig {
                    spoof_tolerance: SpoofRule::Unrouted(vec![37]),
                    ..PipelineConfig::default()
                },
                dark: &["20.1.1.0/24"],
                dropped_at: &["clean_origin"],
                ..Row::default()
            },
            Row {
                name: "special space fails step 4",
                records: vec![scan("10.1.1.1", 6, 10, 40)],
                rib: &["0.0.0.0/0"],
                dropped_at: &["special"],
                ..Row::default()
            },
            Row {
                name: "unrouted space fails step 5",
                records: vec![scan("21.1.1.1", 6, 10, 40)],
                dropped_at: &["routed"],
                ..Row::default()
            },
            Row {
                name: "heavy block fails step 6",
                records: heavy(),
                dropped_at: &["volume"],
                ..Row::default()
            },
            Row {
                // 2 000 sampled at rate 10 over 7 days ≈ 2 857 true/day > 1 700.
                name: "volume cap scaled by sampling rate and a week",
                records: heavy(),
                sampling_rate: 10,
                days: 7,
                dropped_at: &["volume"],
                ..Row::default()
            },
            Row {
                name: "the same count over a fortnight is within the cap",
                records: heavy(),
                sampling_rate: 10,
                days: 14,
                dark: &["20.1.1.0/24"],
                ..Row::default()
            },
            Row {
                // Host 1 gets clean SYNs; host 2 got one large TCP
                // packet, but the block average stays under 44.
                name: "mixed sizes become unclean",
                records: vec![scan("20.1.1.1", 6, 100, 40), scan("20.1.1.2", 6, 1, 200)],
                unclean: &["20.1.1.0/24"],
                ..Row::default()
            },
        ];
        let engine = PipelineEngine::standard();
        for row in rows {
            let stats = TrafficStats::from_records(&row.records);
            let r = engine.run(
                &stats,
                &rib_with(row.rib),
                row.sampling_rate,
                row.days,
                &row.config,
            );
            let blocks = |set: &Block24Set| set.iter().map(|b| b.to_string()).collect::<Vec<_>>();
            assert_eq!(blocks(&r.dark), row.dark, "{}: dark", row.name);
            assert_eq!(blocks(&r.unclean), row.unclean, "{}: unclean", row.name);
            assert_eq!(blocks(&r.gray), row.gray, "{}: gray", row.name);
            let dropped_at: Vec<&str> = r
                .funnel
                .stages()
                .iter()
                .flat_map(|s| std::iter::repeat_n(s.name, (s.entered - s.kept) as usize))
                .collect();
            assert_eq!(dropped_at, row.dropped_at, "{}: dropped at", row.name);
            assert_eq!(
                r.funnel.seen() as usize,
                r.classified() + row.dropped_at.len(),
                "{}: every seen block is classified or dropped once",
                row.name
            );
        }
    }

    #[test]
    fn funnel_is_monotone() {
        let rib = rib_with(&["20.0.0.0/8", "9.0.0.0/8"]);
        let mut records = Vec::new();
        for i in 0..50u32 {
            records.push(flow(
                "9.9.9.9",
                &format!("20.1.{i}.1"),
                if i % 5 == 0 { 17 } else { 6 },
                10 + u64::from(i) * 60,
                if i % 3 == 0 { 1500 } else { 40 },
            ));
        }
        let stats = TrafficStats::from_records(&records);
        let r = PipelineEngine::standard().run(&stats, &rib, 1, 1, &PipelineConfig::default());
        // Each stage only sees the previous stage's survivors.
        let mut expect_entered = r.funnel.seen();
        for stage in r.funnel.stages() {
            assert_eq!(stage.entered, expect_entered, "stage {}", stage.name);
            assert!(stage.kept <= stage.entered);
            expect_entered = stage.kept;
        }
        assert_eq!(r.classified() as u64, expect_entered);
    }

    #[test]
    fn absorb_folds_counts() {
        let mut a = Funnel {
            seen: 1,
            ..Funnel::default()
        };
        a.stages[0].entered = 1;
        a.stages[0].kept = 1;
        let mut b = Funnel {
            seen: 1,
            ..Funnel::default()
        };
        b.stages[0].entered = 1;
        a.absorb(&b);
        assert_eq!(a.seen(), 2);
        assert_eq!(a.stages()[0].entered, 2);
        assert_eq!(a.stages()[0].kept, 1);
    }

    #[test]
    fn sharded_run_is_bit_identical_to_serial() {
        let rib = rib_with(&["20.0.0.0/8", "9.0.0.0/8"]);
        let records = mixed_records();
        let flat = TrafficStats::from_records(&records);
        let config = PipelineConfig::default();
        let engine = PipelineEngine::standard();
        let serial = engine.run(&flat, &rib, 1, 1, &config);
        for shards in [1, 4, 16] {
            let sharded = ShardedTrafficStats::from_records(shards, &records);
            for threads in [1, 2, 4] {
                let par = engine.run_sharded(&sharded, &rib, 1, 1, &config, threads);
                assert_eq!(par.dark, serial.dark, "shards={shards} threads={threads}");
                assert_eq!(par.unclean, serial.unclean);
                assert_eq!(par.gray, serial.gray);
                assert_eq!(par.funnel, serial.funnel);
            }
        }
    }

    #[test]
    fn a_sharded_run_judges_every_shard_by_the_whole_window_tolerance() {
        // Sixteen /24s of unrouted 37/8 are each blamed for 5 packets.
        // Over the whole /8 the 99.99th percentile (rank 65 528 of
        // 65 536) is 5; a shard holding fewer than 8 of them estimates
        // 0, floored to 1. Each candidate 20.1.i.0/24 has a clean
        // receiving host and a host originating 3 packets: dark at a
        // tolerance of 5, gray at 1.
        let rib = rib_with(&["20.0.0.0/8", "9.0.0.0/8"]);
        let mut records = Vec::new();
        for i in 0..16 {
            records.push(flow(&format!("37.0.{i}.1"), "9.9.9.9", 6, 5, 40));
        }
        for i in 0..8 {
            records.push(flow("9.9.9.9", &format!("20.1.{i}.1"), 6, 10, 40));
            records.push(flow(&format!("20.1.{i}.50"), "9.9.9.9", 6, 3, 40));
        }
        let rule = SpoofRule::Unrouted(vec![37]);
        let config = PipelineConfig {
            spoof_tolerance: rule.clone(),
            ..PipelineConfig::default()
        };
        let engine = PipelineEngine::standard();
        let serial = engine.run(&TrafficStats::from_records(&records), &rib, 1, 1, &config);
        assert_eq!(serial.spoof_tolerance, 5);
        assert_eq!(
            serial.dark.len(),
            8,
            "every candidate's 3 packets are forgiven"
        );
        for shards in [4, 16] {
            let sharded = ShardedTrafficStats::from_records(shards, &records);
            assert!(
                sharded
                    .shards()
                    .iter()
                    .all(|shard| rule.resolve(shard) == 1),
                "shards={shards}: no shard alone reaches the window's estimate"
            );
            for threads in [1, 2, 4] {
                let par = engine.run_sharded(&sharded, &rib, 1, 1, &config, threads);
                let what = format!("shards={shards} threads={threads}");
                assert_eq!(par.spoof_tolerance, serial.spoof_tolerance, "{what}");
                assert_eq!(par.dark, serial.dark, "{what}");
                assert_eq!(par.gray, serial.gray, "{what}");
                assert_eq!(par.funnel, serial.funnel, "{what}");
            }
        }
    }

    #[test]
    fn registry_mirrors_funnel_across_serial_and_sharded_runs() {
        let rib = rib_with(&["20.0.0.0/8", "9.0.0.0/8"]);
        let records = mixed_records();
        let flat = TrafficStats::from_records(&records);
        let sharded = ShardedTrafficStats::from_records(8, &records);
        let config = PipelineConfig::default();

        let registry = MetricsRegistry::new();
        let engine = PipelineEngine::standard().with_registry(&registry);
        let serial = engine.run(&flat, &rib, 1, 1, &config);
        let par = engine.run_sharded(&sharded, &rib, 1, 1, &config, 4);

        let snap = registry.snapshot();
        assert_eq!(snap.scalar("mt_pipeline_runs_total", &[]), Some(2));
        assert_eq!(
            snap.scalar("mt_pipeline_blocks_seen_total", &[]),
            Some(serial.funnel.seen() + par.funnel.seen())
        );
        for (s, p) in serial.funnel.stages().iter().zip(par.funnel.stages()) {
            let labels = [("stage", s.name)];
            assert_eq!(
                snap.scalar("mt_pipeline_stage_entered_total", &labels),
                Some(s.entered + p.entered),
                "entered for stage {}",
                s.name
            );
            assert_eq!(
                snap.scalar("mt_pipeline_stage_kept_total", &labels),
                Some(s.kept + p.kept),
                "kept for stage {}",
                s.name
            );
        }
        // Two runs → two observations in the run-time histogram, and
        // per-stage timings were recorded for each run.
        let text = snap.render_prometheus_text();
        assert!(
            text.contains("mt_pipeline_run_nanoseconds_count 2\n"),
            "{text}"
        );
        assert!(text.contains("mt_pipeline_stage_nanoseconds_count{stage=\"tcp\"} 2\n"));

        // An instrumented engine still returns bit-identical results.
        let bare = PipelineEngine::standard().run(&flat, &rib, 1, 1, &config);
        assert_eq!(serial.dark, bare.dark);
        assert_eq!(serial.funnel, bare.funnel);
        assert_eq!(par.dark, bare.dark);
        assert_eq!(par.funnel, bare.funnel);
    }

    /// Block-major reference traversal: each block runs the whole
    /// funnel before the next block starts.
    fn block_major_oracle<V: TrafficView>(stats: &V, env: &Env<'_>) -> PipelineResult {
        let mut r = PipelineResult {
            dark: Block24Set::new(),
            unclean: Block24Set::new(),
            gray: Block24Set::new(),
            funnel: Funnel::default(),
            spoof_tolerance: env.spoof_tolerance,
        };
        let src_lookup = |block: Block24| stats.src(block);
        'blocks: for (block, d) in stats.iter_dst() {
            r.funnel.seen += 1;
            let ctx = BlockCtx::new(block, d, &src_lookup);
            for (stage, step) in r.funnel.stages.iter_mut().zip(STEPS) {
                stage.entered += 1;
                if !step.keeps(&ctx, env) {
                    continue 'blocks;
                }
                stage.kept += 1;
            }
            if !ctx.originating(env).is_empty() {
                r.gray.insert(block);
            } else if !d.received_big_tcp.is_empty() {
                r.unclean.insert(block);
            } else {
                r.dark.insert(block);
            }
        }
        r
    }

    /// Host `host` of destination block `i`: 20.0.0.0/8, except every
    /// eleventh block from 3 in special 10/8 and from 7 in unrouted 21/8.
    fn host_of(i: usize, host: u8) -> Ipv4 {
        let first: u32 = match i % 11 {
            3 => 10,
            7 => 21,
            _ => 20,
        };
        Ipv4(first << 24 | (i as u32) << 8 | u32::from(host))
    }

    fn record(src: Ipv4, dst: Ipv4, protocol: u8, packets: u64, size: u64) -> FlowRecord {
        FlowRecord {
            src,
            dst,
            protocol,
            packets,
            octets: packets * size,
            ..flow("9.9.9.9", "9.9.9.9", 6, 0, 0)
        }
    }

    /// Records toward exactly `n` destination /24s that reach every
    /// drop stage and every class. Originating hosts send into the next
    /// block, so no record adds a destination outside the `n`.
    fn records_over_blocks(n: usize) -> Vec<FlowRecord> {
        let scanner = Ipv4(0x0909_0909);
        let mut records = Vec::new();
        for i in 0..n {
            let next = host_of((i + 1) % n, 50);
            let (scanned, proto, packets, size) = match i % 8 {
                1 => (1, 17, 10, 40),
                2 => (1, 6, 10, 1500),
                3 => (1, 6, 2_000, 40),
                4 => (1, 6, 100, 40),
                6 => (50, 6, 10, 40),
                _ => (1, 6, 10, 40),
            };
            records.push(record(scanner, host_of(i, scanned), proto, packets, size));
            match i % 8 {
                4 => records.push(record(scanner, host_of(i, 2), 6, 1, 200)),
                5 | 6 => records.push(record(host_of(i, 50), next, 6, 3, 40)),
                _ => {}
            }
        }
        records
    }

    /// Runs `records` serially and sharded (1/4/16 shards × 1/2/4
    /// threads), bare and with a registry, against the oracle.
    fn assert_matches_oracle(records: &[FlowRecord], rib: &PrefixTrie<Asn>) -> PipelineResult {
        let config = PipelineConfig::default();
        let special = SpecialRegistry::new();
        let flat = TrafficStats::from_records(records);
        let env = PipelineEngine::env(&flat, rib, &special, 1, 1, &config);
        let oracle = block_major_oracle(&flat, &env);
        let same = |r: &PipelineResult, what: &str| {
            assert!(r.dark == oracle.dark, "{what}: dark");
            assert!(r.unclean == oracle.unclean, "{what}: unclean");
            assert!(r.gray == oracle.gray, "{what}: gray");
            assert_eq!(r.funnel, oracle.funnel, "{what}: funnel");
        };
        let registry = MetricsRegistry::new();
        for engine in [
            PipelineEngine::standard(),
            PipelineEngine::standard().with_registry(&registry),
        ] {
            let timed = engine.metrics.is_some();
            same(
                &engine.run(&flat, rib, 1, 1, &config),
                &format!("serial timed={timed}"),
            );
            for shards in [1, 4, 16] {
                let sharded = ShardedTrafficStats::from_records(shards, records);
                for threads in [1, 2, 4] {
                    let r = engine.run_sharded(&sharded, rib, 1, 1, &config, threads);
                    same(
                        &r,
                        &format!("shards={shards} threads={threads} timed={timed}"),
                    );
                }
            }
        }
        oracle
    }

    #[test]
    fn chunk_boundaries_match_the_block_major_oracle() {
        let rib = rib_with(&["20.0.0.0/8", "10.0.0.0/8"]);
        for n in [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3] {
            let records = records_over_blocks(n);
            let oracle = assert_matches_oracle(&records, &rib);
            assert_eq!(oracle.funnel.seen(), n as u64);
            for s in oracle.funnel.stages() {
                assert!(s.kept < s.entered, "n={n}: {} drops", s.name);
            }
            for class in [&oracle.dark, &oracle.unclean, &oracle.gray] {
                assert!(!class.is_empty(), "n={n}: every class is reached");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn chunked_runs_match_the_block_major_oracle(
            flows in proptest::collection::vec(
                (0..2 * CHUNK + 3, any::<u8>(), 0..3 * CHUNK, prop_oneof![Just(6u8), Just(17)],
                 1u64..3_000, prop_oneof![Just(40u64), Just(44), Just(200), Just(1_500)]),
                1..3_000,
            ),
        ) {
            // Sources past the destination range originate from outside it.
            let records: Vec<FlowRecord> = flows
                .into_iter()
                .map(|(dst, host, src, proto, packets, size)| {
                    record(host_of(src, host), host_of(dst, host), proto, packets, size)
                })
                .collect();
            assert_matches_oracle(&records, &rib_with(&["20.0.0.0/8", "10.0.0.0/8"]));
        }
    }

    #[test]
    fn stage_time_never_exceeds_run_time() {
        let rib = rib_with(&["20.0.0.0/8", "10.0.0.0/8"]);
        let stats = TrafficStats::from_records(&records_over_blocks(2 * CHUNK + 3));
        let registry = MetricsRegistry::new();
        let engine = PipelineEngine::standard().with_registry(&registry);
        engine.run(&stats, &rib, 1, 1, &PipelineConfig::default());
        let snap = registry.snapshot();
        let sum = |name| snap.merged_histogram(name).unwrap().unwrap().sum;
        let (run, stages) = (
            sum("mt_pipeline_run_nanoseconds"),
            sum("mt_pipeline_stage_nanoseconds"),
        );
        assert!(stages > 0, "the stages were timed");
        assert!(stages <= run, "stages {stages} ns > run {run} ns");
    }

    #[test]
    fn stage_context_memoizes_src_lookup() {
        let stats = TrafficStats::from_records(&[
            flow("20.1.1.9", "9.9.9.9", 6, 3, 40),
            flow("9.9.9.9", "20.1.1.1", 6, 3, 40),
        ]);
        let block = Block24::containing("20.1.1.1".parse().unwrap());
        let d = TrafficView::dst(&stats, block).unwrap();
        let calls = std::cell::Cell::new(0u32);
        let lookup = |b: Block24| {
            calls.set(calls.get() + 1);
            TrafficView::src(&stats, b)
        };
        let config = PipelineConfig::default();
        let special = SpecialRegistry::new();
        let env = PipelineEngine::env(&stats, &rib_with(&["20.0.0.0/8"]), &special, 1, 1, &config);
        let ctx = BlockCtx::new(block, d, &lookup);
        assert_eq!(calls.get(), 0, "lookup is lazy");
        let _ = ctx.originating(&env);
        let _ = ctx.clean_hosts(&env);
        let _ = ctx.src();
        assert_eq!(calls.get(), 1, "lookup runs at most once per block");
    }
}
