//! The four workloads and their set-up: world and traffic generation,
//! IPFIX encoding, the batch reference, store pre-population and the
//! daemon bind (which cold-loads the store).

use crate::gen::{self, DayStream};
use mt_core::pipeline::{PipelineConfig, PipelineResult};
use mt_core::PipelineEngine;
use mt_flow::stats::DEFAULT_SIZE_THRESHOLD;
use mt_flow::{FlowRecord, TrafficStats};
use mt_netmodel::{Internet, InternetConfig};
use mt_serve::{Daemon, ServeConfig};
use mt_store::{QueryIndex, ResultsStore, StoreConfig, Verdicts, WindowData};
use mt_stream::{OverflowPolicy, StreamConfig};
use mt_traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use mt_types::{Asn, Day, PrefixTrie, RibIndex, SimDuration, Slot24Index};
use mt_wire::ipfix::IpfixFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The RIB provider type the embedded daemon is instantiated with.
pub type RibFn = Box<dyn Fn(Day) -> PrefixTrie<Asn> + Send>;
/// The same provider, shareable with the reference and the layer walk.
pub type SharedRib = Arc<dyn Fn(Day) -> PrefixTrie<Asn> + Send + Sync>;

/// Which of the benchmark's workloads a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Two TCP exporters, dense uniform days over one /8.
    TcpDense,
    /// An `mt-netmodel` world's day of `mt-traffic` flows in two TCP
    /// streams.
    WorldDays,
    /// One credit-paced UDP exporter on the dense distribution.
    UdpPaced,
    /// One TCP exporter beside a closed-loop `/v1` client over a
    /// pre-populated store.
    QueryBesideIngest,
}

/// Name, kind and the one-line reason of every workload, in
/// `BENCHMARK.json` order.
pub const WORKLOADS: [(&str, Kind, &str); 4] = [
    (
        "tcp-dense",
        Kind::TcpDense,
        "tiny window state: syscall, decode, gate, queue and fold do most of the work; close, pipeline and store little",
    ),
    (
        "world-days",
        Kind::WorldDays,
        "few flows per block and large windows: close, merge, funnel, combine and store encode/write do most of the work",
    ),
    (
        "udp-paced",
        Kind::UdpPaced,
        "the same decode, gate and fold through the per-datagram path, where per-packet cost dominates",
    ),
    (
        "query-beside-ingest",
        Kind::QueryBesideIngest,
        "reads beside writes on the shared serve.index lock and the control loop",
    ),
];

/// Looks a workload up by name.
pub fn kind_of(name: &str) -> Option<Kind> {
    WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.1)
}

/// The name of a workload.
pub fn name_of(kind: Kind) -> &'static str {
    WORKLOADS.iter().find(|w| w.1 == kind).map_or("?", |w| w.0)
}

impl Kind {
    /// Exporter connections (and generator threads) the workload uses.
    pub fn exporters(self) -> usize {
        match self {
            Kind::TcpDense | Kind::WorldDays => 2,
            Kind::UdpPaced | Kind::QueryBesideIngest => 1,
        }
    }

    /// Whether the exporters speak UDP.
    pub fn is_udp(self) -> bool {
        self == Kind::UdpPaced
    }

    /// Whether the query client runs beside ingest (else after it).
    pub fn queries_beside(self) -> bool {
        self == Kind::QueryBesideIngest
    }
}

/// Input sizes; `FULL` is what `run` measures, `CHECK` what the smoke
/// test drives in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Flows per exporter-day on the dense TCP workloads.
    pub dense_flows: usize,
    /// Flows per day on `udp-paced`.
    pub udp_flows: usize,
    /// `InternetConfig::num_ases` of the `world-days` world.
    pub world_ases: u32,
    /// Flows of the world's generated day that are kept.
    pub world_flows: usize,
    /// Windows pre-populated into the store on `query-beside-ingest`.
    pub prepopulated: u32,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setups: usize,
    /// Days the layer walk covers.
    pub walk_days: u32,
    /// Longest each micro-loop of the layer walk may run, ms.
    pub micro_ms: u64,
}

/// Sizes of a measured run.
pub const FULL: Sizes = Sizes {
    dense_flows: 1_500_000,
    udp_flows: 400_000,
    world_ases: 250,
    world_flows: 700_000,
    prepopulated: 14,
    setups: 3,
    walk_days: 3,
    micro_ms: 250,
};

/// Sizes of `check` mode.
pub const CHECK: Sizes = Sizes {
    dense_flows: 8_000,
    udp_flows: 6_000,
    world_ases: 20,
    world_flows: 8_000,
    prepopulated: 3,
    setups: 1,
    walk_days: 2,
    micro_ms: 10,
};

/// Records per IPFIX message on TCP, and per MTU-sized UDP datagram.
pub const TCP_RECORDS_PER_MESSAGE: usize = 64;
/// 16 + 44 + 4 + 40 × 34 = 1424 bytes: fits a 1500-byte MTU.
pub const UDP_RECORDS_PER_DATAGRAM: usize = 40;

/// Where set-up spent its time, for the per-layer table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// World generation (or, on the dense workloads, RIB and slot-index
    /// construction).
    pub world_s: f64,
    /// Generating one day of flows.
    pub generate_s_per_day: f64,
    /// `ipfix::encode_messages`, per record.
    pub encode_ns_per_record: f64,
    /// Encoded bytes per record, headers and templates included.
    pub bytes_per_record: f64,
    /// `Daemon::bind`, which cold-loads the store.
    pub bind_s: f64,
}

/// Everything a run needs, built before the first timed byte.
pub struct Setup {
    /// What the run, its checks and the layer walk read.
    pub fixture: Fixture,
    /// One encoded day per exporter, stamped for `first_day`.
    pub streams: Vec<DayStream>,
    /// The bound, not yet running, daemon.
    pub daemon: Daemon<RibFn>,
}

/// The part of a [`Setup`] that outlives the socket run.
pub struct Fixture {
    /// The workload.
    pub kind: Kind,
    /// Per-day RIB provider, shared with the daemon.
    pub rib_of: SharedRib,
    /// The store's slot index.
    pub slots: Arc<Slot24Index>,
    /// Exporter packet sampling rate handed to the pipeline.
    pub sampling_rate: u32,
    /// Serial fold of one day's records: the reference for every day
    /// (days differ only in their timestamps and their RIB).
    pub reference: TrafficStats,
    /// Records in one day, over all exporters.
    pub records_per_day: u64,
    /// The store directory.
    pub store_dir: PathBuf,
    /// First day the run ingests (days below it are pre-populated).
    pub first_day: u32,
    /// The daemon's stream configuration.
    pub stream_cfg: StreamConfig,
    /// Where set-up spent its time.
    pub times: SetupTimes,
}

/// The daemon configuration, as the `mt-serve` binary builds it: Block
/// overflow, 2 h lateness, `min(cores, 4)` ingest threads; two event
/// loops and a store.
pub fn serve_config(store: StoreConfig, sampling_rate: u32) -> ServeConfig {
    ServeConfig {
        event_loops: 2,
        stream: StreamConfig {
            ingest_threads: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            overflow: OverflowPolicy::Block,
            allowed_lateness: SimDuration::secs(u64::from(gen::LATENESS_SECS)),
            sampling_rate,
            ..StreamConfig::default()
        },
        store: Some(store),
        ..ServeConfig::default()
    }
}

/// The serial reference result of one day: `PipelineEngine::run` over
/// the day's fold against that day's RIB.
pub fn reference_result(
    setup_ref: &TrafficStats,
    rib: &PrefixTrie<Asn>,
    sampling: u32,
) -> PipelineResult {
    PipelineEngine::standard().run(setup_ref, rib, sampling, 1, &PipelineConfig::default())
}

/// Sorted destination-port packet histogram of `records`, as the
/// stream gate keeps it per window.
pub fn port_histogram(records: &[FlowRecord]) -> Vec<(u16, u64)> {
    let mut ports = std::collections::BTreeMap::<u16, u64>::new();
    for r in records {
        *ports.entry(r.dst_port).or_default() += r.packets;
    }
    ports.into_iter().collect()
}

/// Day-0 flows per exporter, the RIB provider, the slot index and the
/// sampling rate of a workload, plus how long world and flows took.
struct World {
    flows: Vec<Vec<IpfixFlow>>,
    rib_of: SharedRib,
    slots: Slot24Index,
    sampling_rate: u32,
    world_s: f64,
    generate_s: f64,
}

fn dense_world(kind: Kind, sizes: &Sizes, seed: u64) -> World {
    let t = Instant::now();
    let rib_of: SharedRib = Arc::new(|_| mt_serve::replay::default_rib());
    let slots = Slot24Index::build(&RibIndex::build(&rib_of(Day(0))));
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let n = if kind.is_udp() {
        sizes.udp_flows
    } else {
        sizes.dense_flows
    };
    let flows = (0..kind.exporters())
        .map(|e| gen::dense_flows(seed, e, n))
        .collect();
    World {
        flows,
        rib_of,
        slots,
        sampling_rate: 1,
        world_s,
        generate_s: t.elapsed().as_secs_f64(),
    }
}

/// The `world-days` Internet and the Monday whose traffic is generated
/// are the same on every seed: worlds drawn from different seeds differ
/// threefold in announced space and flow count, and Mondays of one
/// world by 1.75× in flow count, which would make runs on different
/// seeds incomparable. The seed picks which `Sizes::world_flows` of the
/// day's flows are kept.
const WORLD_SEED: u64 = 12;
const WORLD_DAY: Day = Day(7);

fn netmodel_world(sizes: &Sizes, seed: u64) -> Result<World, String> {
    let t = Instant::now();
    let net = Arc::new(Internet::generate(
        InternetConfig {
            num_ases: sizes.world_ases,
            ..InternetConfig::paper()
        },
        WORLD_SEED,
    ));
    let slots = net.slot_index();
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cfg = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    let mut capture = CaptureSet::new(&net, WORLD_DAY, &spoof, DEFAULT_SIZE_THRESHOLD, false);
    capture.retain_all_records();
    generate_day(&net, &cfg, WORLD_DAY, &mut capture);
    // All vantages' records, thinned evenly to `world_flows` from a
    // seeded phase, merged by time into two streams and moved to day 0
    // (the run re-stamps them day by day).
    let generated: Vec<FlowRecord> = capture
        .vantages
        .iter_mut()
        .flat_map(|v| v.records.take().unwrap_or_default())
        .collect();
    let (total, keep) = (generated.len() as u64, sizes.world_flows as u64);
    if total < keep {
        return Err(format!(
            "the world's day has {total} flows, fewer than the {keep} to keep"
        ));
    }
    let mut credit = mt_types::mix::mix3(seed, 0x776f_726c_6464, total) % total;
    let mut all: Vec<FlowRecord> = generated
        .into_iter()
        .filter(|_| {
            credit += keep;
            let kept = credit >= total;
            if kept {
                credit -= total;
            }
            kept
        })
        .collect();
    all.sort_by_key(|r| r.start);
    let midnight = WORLD_DAY.start();
    let mut flows: Vec<Vec<IpfixFlow>> = (0..2)
        .map(|_| Vec::with_capacity(all.len() / 2 + 1))
        .collect();
    for (i, r) in all.iter_mut().enumerate() {
        r.start = mt_types::SimTime(r.start.0.saturating_sub(midnight.0));
        flows[i % 2].push(r.to_ipfix());
    }
    let generate_s = t.elapsed().as_secs_f64();
    let sampling_rate = net.vantage_points[0].sampling_rate;
    let rib_net = Arc::clone(&net);
    Ok(World {
        flows,
        rib_of: Arc::new(move |d| rib_net.rib(d)),
        slots,
        sampling_rate,
        world_s,
        generate_s,
    })
}

/// Builds everything a run of `kind` needs under `store_dir` (which is
/// wiped first) and binds the daemon.
pub fn set_up(kind: Kind, sizes: &Sizes, seed: u64, store_dir: &Path) -> Result<Setup, String> {
    let world = match kind {
        Kind::WorldDays => netmodel_world(sizes, seed)?,
        _ => dense_world(kind, sizes, seed),
    };
    let World {
        flows,
        rib_of,
        slots,
        sampling_rate,
        world_s,
        generate_s,
    } = world;
    let slots = Arc::new(slots);
    let per_message = if kind.is_udp() {
        UDP_RECORDS_PER_DATAGRAM
    } else {
        TCP_RECORDS_PER_MESSAGE
    };
    for f in flows.iter().flatten() {
        if f.start_secs >= gen::SECS_PER_DAY {
            return Err(format!(
                "generated flow at {} s lies outside day 0",
                f.start_secs
            ));
        }
    }

    let t = Instant::now();
    let mut streams: Vec<DayStream> = flows
        .iter()
        .enumerate()
        .map(|(e, f)| DayStream::encode(f, e as u32 + 1, per_message))
        .collect();
    let encode_s = t.elapsed().as_secs_f64();
    let records_per_day: u64 = streams.iter().map(|s| s.records).sum();
    let bytes: usize = streams.iter().map(|s| s.bytes.len()).sum();

    // The batch reference: one serial fold of the day's records.
    let records: Vec<FlowRecord> = flows.iter().flatten().map(FlowRecord::from_ipfix).collect();
    drop(flows);
    let reference = TrafficStats::from_records(&records);

    let _ = std::fs::remove_dir_all(store_dir);
    let store_cfg = StoreConfig {
        dir: store_dir.to_path_buf(),
        slots: Arc::clone(&slots),
    };
    let first_day = if kind.queries_beside() {
        sizes.prepopulated
    } else {
        0
    };
    if first_day > 0 {
        let err = |e: mt_store::StoreError| format!("pre-populating the store: {e}");
        let result = reference_result(&reference, &rib_of(Day(0)), sampling_rate);
        let mut wd = WindowData::build(
            Day(0),
            records_per_day,
            &reference,
            Verdicts::from_result(&result, &slots),
            &port_histogram(&records),
            &slots,
        );
        let store = ResultsStore::open(store_cfg.clone()).map_err(err)?;
        let mut index = QueryIndex::new(Arc::clone(&slots));
        for d in 0..first_day {
            wd.day = Day(d);
            store.write_window(&wd).map_err(err)?;
            index.apply_window(&wd, &result).map_err(err)?;
        }
        store.write_summary(index.summary()).map_err(err)?;
    }
    drop(records);
    for s in &mut streams {
        s.restamp(first_day);
    }

    let t = Instant::now();
    let daemon_rib = Arc::clone(&rib_of);
    let cfg = serve_config(store_cfg, sampling_rate);
    let stream_cfg = cfg.stream.clone();
    let daemon = Daemon::bind(cfg, Box::new(move |d| daemon_rib(d)) as RibFn)
        .map_err(|e| format!("daemon bind: {e}"))?;
    let bind_s = t.elapsed().as_secs_f64();

    Ok(Setup {
        fixture: Fixture {
            kind,
            rib_of,
            slots,
            sampling_rate,
            reference,
            records_per_day,
            store_dir: store_dir.to_path_buf(),
            first_day,
            stream_cfg,
            times: SetupTimes {
                world_s,
                generate_s_per_day: generate_s,
                encode_ns_per_record: encode_s * 1e9 / records_per_day.max(1) as f64,
                bytes_per_record: bytes as f64 / records_per_day.max(1) as f64,
                bind_s,
            },
        },
        streams,
        daemon,
    })
}

/// Stops a bound daemon that never ran: its ingest workers were
/// spawned at bind, so it is run with the shutdown already requested,
/// which drains and joins them.
pub fn discard(daemon: Daemon<RibFn>) -> Result<(), String> {
    daemon
        .shutdown_handle()
        .map_err(|e| format!("shutdown handle: {e}"))?
        .shutdown();
    daemon
        .run()
        .map(|_| ())
        .map_err(|e| format!("daemon run: {e}"))
}
