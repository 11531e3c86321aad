//! Shared machinery for the `repro` binary:
//! scenario setup, the multi-day orchestration that collects everything
//! the paper's tables and figures need, and auxiliary emission sinks.

use mt_core::analysis::PortMatrix;
use mt_core::{combine, pipeline, PipelineEngine, SpoofRule};
use mt_flow::stats::DEFAULT_SIZE_THRESHOLD;
use mt_flow::{FlowRecord, ShardedTrafficStats, TrafficStats};
use mt_netmodel::{AuxDatasets, Internet, InternetConfig};
use mt_telescope::TelescopeDayStats;
use mt_traffic::{
    generate_day, CaptureSet, EmissionSink, FlowEmission, SpoofFloodEmission, SpoofSpace,
    TrafficConfig,
};
use mt_types::{Block24, Block24Set, Day};
use std::collections::HashMap;

/// Scenario profile selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Test-sized world (seconds).
    Small,
    /// Paper-scale world (minutes; run in `--release`).
    Paper,
    /// Full-IPv4 world: ~14M announced /24s. Pair with the columnar
    /// stats layout (`--release` only; a day window needs a few GB).
    Full,
}

impl Profile {
    /// Parses `small` / `paper` / `full`.
    pub fn parse(s: &str) -> Option<Profile> {
        match s {
            "small" => Some(Profile::Small),
            "paper" => Some(Profile::Paper),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }

    /// The scenario config for this profile.
    pub fn config(self) -> InternetConfig {
        match self {
            Profile::Small => InternetConfig::small(),
            Profile::Paper => InternetConfig::paper(),
            Profile::Full => InternetConfig::full(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Small => "small",
            Profile::Paper => "paper",
            Profile::Full => "full",
        }
    }
}

/// The fully-set-up world every experiment runs against.
pub struct World {
    /// The synthetic Internet.
    pub net: Internet,
    /// Traffic volumes and campaign roster.
    pub traffic: TrafficConfig,
    /// Forged-source space for spoofed floods.
    pub spoof: SpoofSpace,
    /// Activity datasets (Censys/NDT/ISI stand-ins).
    pub aux: AuxDatasets,
    /// Profile name (for report headers).
    pub profile: Profile,
    /// Scenario seed.
    pub seed: u64,
}

impl World {
    /// Builds the world for `(profile, seed)`.
    pub fn new(profile: Profile, seed: u64) -> World {
        let net = Internet::generate(profile.config(), seed);
        let traffic = TrafficConfig::default_profile();
        let spoof = SpoofSpace::new(&net, traffic.spoof_routed_bias);
        let aux = AuxDatasets::generate(&net);
        World {
            net,
            traffic,
            spoof,
            aux,
            profile,
            seed,
        }
    }

    /// The shared sampling rate of the scenario's vantage points.
    pub fn sampling_rate(&self) -> u32 {
        self.net.vantage_points[0].sampling_rate
    }
}

/// What a repro invocation needs the orchestrator to produce.
#[derive(Debug, Clone, Copy, Default)]
pub struct Needs {
    /// Number of days to simulate (0 = none).
    pub days: u32,
    /// Keep per-vantage-point day-0 pipeline results.
    pub vp_day0: bool,
    /// Capture the calibration ISP border on day 0.
    pub isp_day0: bool,
    /// Keep telescope day statistics for every simulated day.
    pub telescopes: bool,
    /// Track cumulative CE1/NA1/All windows (strict + tolerant).
    pub cumulative: bool,
    /// Retain the raw sampled records of day 0 (Figure 10).
    pub records_day0: bool,
    /// Run the dark-port counting pass on day 0 (Figures 11/12/18–20).
    pub dark_ports_day0: bool,
}

impl Needs {
    /// Everything, for `repro all`.
    pub fn everything() -> Needs {
        Needs {
            days: 7,
            vp_day0: true,
            isp_day0: true,
            telescopes: true,
            cumulative: true,
            records_day0: true,
            dark_ports_day0: true,
        }
    }
}

/// One per-day data point of a labeled series.
#[derive(Debug, Clone)]
pub struct DailyPoint {
    /// The day.
    pub day: Day,
    /// Inferred dark blocks per label (`CE1`, `NA1`, `All`).
    pub dark: HashMap<String, usize>,
}

/// One cumulative-window data point.
#[derive(Debug, Clone)]
pub struct CumulativePoint {
    /// Window length in days (starting at day 0).
    pub days: u32,
    /// Strict inference per label.
    pub strict: HashMap<String, usize>,
    /// Tolerance-adjusted inference per label.
    pub tolerant: HashMap<String, usize>,
    /// The tolerance the tolerant run forgave per label (sampled
    /// packets): its `PipelineResult::spoof_tolerance`.
    pub tolerance: HashMap<String, u64>,
}

/// Everything the experiments consume.
pub struct SimData {
    /// Per-VP day-0 pipeline results, in vantage-point order, plus the
    /// merged `All` entry at the end.
    pub day0_results: Vec<(String, pipeline::PipelineResult)>,
    /// Day-0 merged (All) stats (sharded), kept for the
    /// tolerance/ablation runs.
    pub day0_all_stats: Option<ShardedTrafficStats>,
    /// Day-0 sampled-flow counts per vantage point.
    pub day0_flows: HashMap<String, u64>,
    /// Per-day inference counts (Figure 8).
    pub daily: Vec<DailyPoint>,
    /// Cumulative windows (Figure 9 / Table 4).
    pub cumulative: Vec<CumulativePoint>,
    /// Dark sets for selected windows: `(label, days, tolerant)`.
    pub window_darks: HashMap<(String, u32, bool), Block24Set>,
    /// Telescope day statistics.
    pub telescope_days: Vec<Vec<TelescopeDayStats>>,
    /// ISP border stats from day 0.
    pub isp_stats: Option<TrafficStats>,
    /// ISP host AS index.
    pub isp_as: Option<u32>,
    /// Raw day-0 records (all vantage points concatenated).
    pub records_day0: Option<Vec<FlowRecord>>,
    /// Port matrix of day-0 traffic toward the day-0 All dark set.
    pub port_matrix: Option<PortMatrix>,
}

/// Labels tracked by the daily/cumulative series.
pub const SERIES: [&str; 3] = ["CE1", "NA1", "All"];

/// Runs the orchestrated simulation.
pub fn simulate(world: &World, needs: Needs) -> SimData {
    let net = &world.net;
    let rate = world.sampling_rate();
    let pc = pipeline::PipelineConfig::default();
    let tolerant_pc = pipeline::PipelineConfig {
        spoof_tolerance: SpoofRule::Unrouted(net.unrouted_octets().to_vec()),
        ..pc.clone()
    };
    let engine = PipelineEngine::standard();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut data = SimData {
        day0_results: Vec::new(),
        day0_all_stats: None,
        day0_flows: HashMap::new(),
        daily: Vec::new(),
        cumulative: Vec::new(),
        window_darks: HashMap::new(),
        telescope_days: vec![Vec::new(); net.telescopes.len()],
        isp_stats: None,
        isp_as: None,
        records_day0: None,
        port_matrix: None,
    };
    let mut cumulative: HashMap<String, ShardedTrafficStats> = HashMap::new();

    for d in 0..needs.days {
        let day = Day(d);
        eprintln!("[repro] simulating {day} ...");
        let mut capture = CaptureSet::new(
            net,
            day,
            &world.spoof,
            DEFAULT_SIZE_THRESHOLD,
            needs.isp_day0 && d == 0,
        );
        if needs.records_day0 && d == 0 {
            for vo in &mut capture.vantages {
                vo.retain_records();
            }
        }
        generate_day(net, &world.traffic, day, &mut capture);

        if needs.telescopes {
            for (i, t) in capture.telescopes.iter().enumerate() {
                data.telescope_days[i].push(TelescopeDayStats::from_observer(t, day));
            }
        }
        if let Some(isp) = capture.isp.take() {
            data.isp_as = Some(isp.as_idx);
            data.isp_stats = Some(isp.stats);
        }

        // Per-VP handling: pipeline on day 0, then fold into All.
        let rib_day = net.rib(day);
        let mut all_day: Option<ShardedTrafficStats> = None;
        let mut daily_point = DailyPoint {
            day,
            dark: HashMap::new(),
        };
        let mut records: Vec<FlowRecord> = Vec::new();
        for mut vo in capture.vantages {
            let code = vo.vp.code.clone();
            if let Some(mut r) = vo.records.take() {
                records.append(&mut r);
            }
            if d == 0 && needs.vp_day0 {
                let result = PipelineEngine::standard().run(&vo.stats, &rib_day, rate, 1, &pc);
                data.day0_flows.insert(code.clone(), vo.sampled_flows);
                data.day0_results.push((code.clone(), result));
            }
            if SERIES.contains(&code.as_str()) {
                let result = PipelineEngine::standard().run(&vo.stats, &rib_day, rate, 1, &pc);
                daily_point.dark.insert(code.clone(), result.dark.len());
                if needs.cumulative {
                    cumulative
                        .entry(code.clone())
                        .and_modify(|m| m.merge(&vo.stats))
                        .or_insert_with(|| vo.stats.clone());
                }
            }
            let stats = vo.into_sharded();
            match &mut all_day {
                None => all_day = Some(stats),
                Some(m) => m.merge(&stats),
            }
        }
        if needs.records_day0 && d == 0 {
            data.records_day0 = Some(records);
        }
        let all_day = all_day.expect("scenario has vantage points");
        let all_result = engine.run_sharded(&all_day, &rib_day, rate, 1, &pc, threads);
        daily_point
            .dark
            .insert("All".to_owned(), all_result.dark.len());
        if d == 0 && needs.vp_day0 {
            data.day0_results.push(("All".to_owned(), all_result));
        }
        data.daily.push(daily_point);
        if needs.cumulative {
            cumulative
                .entry("All".to_owned())
                .and_modify(|m| m.merge(&all_day))
                .or_insert_with(|| all_day.clone());
        }
        if d == 0 {
            data.day0_all_stats = Some(all_day);
        }

        // Cumulative windows after each day.
        if needs.cumulative {
            let window_days = d + 1;
            let rib = combine::rib_union(net, Day(0), window_days);
            let mut point = CumulativePoint {
                days: window_days,
                strict: HashMap::new(),
                tolerant: HashMap::new(),
                tolerance: HashMap::new(),
            };
            for label in SERIES {
                let stats = &cumulative[label];
                let strict = engine.run_sharded(stats, &rib, rate, window_days, &pc, threads);
                let tolerant =
                    engine.run_sharded(stats, &rib, rate, window_days, &tolerant_pc, threads);
                point.strict.insert(label.to_owned(), strict.dark.len());
                point.tolerant.insert(label.to_owned(), tolerant.dark.len());
                point
                    .tolerance
                    .insert(label.to_owned(), tolerant.spoof_tolerance);
                // Keep the dark sets Table 4 / Figures 3, 5, 6 consume.
                if window_days == 1 || window_days == needs.days {
                    data.window_darks
                        .insert((label.to_owned(), window_days, false), strict.dark);
                    data.window_darks
                        .insert((label.to_owned(), window_days, true), tolerant.dark);
                }
            }
            data.cumulative.push(point);
        }
    }

    // Dark-port pass over day 0 (needs the day-0 All dark set).
    if needs.dark_ports_day0 {
        let dark = data
            .day0_results
            .iter()
            .find(|(code, _)| code == "All")
            .map(|(_, r)| r.dark.clone())
            .or_else(|| {
                data.window_darks
                    .get(&("All".to_owned(), 1, false))
                    .cloned()
            })
            .expect("day-0 All result required for the port pass");
        let mut sink = DarkPortSink {
            dark: &dark,
            net,
            matrix: PortMatrix::new(),
        };
        eprintln!("[repro] counting ports toward the day-0 meta-telescope ...");
        generate_day(net, &world.traffic, Day(0), &mut sink);
        data.port_matrix = Some(sink.matrix);
    }

    data
}

/// Counts TCP destination ports of traffic toward an inferred dark set,
/// bucketed by the destination's region and network type.
pub struct DarkPortSink<'a> {
    /// The inferred meta-telescope prefixes.
    pub dark: &'a Block24Set,
    /// The world (for block attribution).
    pub net: &'a Internet,
    /// The accumulating matrix.
    pub matrix: PortMatrix,
}

impl EmissionSink for DarkPortSink<'_> {
    fn flow(&mut self, e: &FlowEmission) {
        if e.intent.protocol != 6 {
            return;
        }
        let block = Block24::containing(e.intent.dst);
        if !self.dark.contains(block) {
            return;
        }
        if let Some(a) = self.net.as_of_block(block) {
            self.matrix.add(
                e.intent.dst_port,
                a.continent,
                a.network_type,
                e.intent.packets,
            );
        }
    }

    fn spoof_flood(&mut self, _: &SpoofFloodEmission) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_simulation_produces_day0_results() {
        let world = World::new(Profile::Small, 5);
        let needs = Needs {
            days: 1,
            vp_day0: true,
            telescopes: true,
            ..Needs::default()
        };
        let data = simulate(&world, needs);
        assert_eq!(data.day0_results.len(), world.net.vantage_points.len() + 1);
        assert_eq!(data.day0_results.last().unwrap().0, "All");
        assert_eq!(data.daily.len(), 1);
        assert!(data.telescope_days.iter().all(|d| d.len() == 1));
        assert!(data.cumulative.is_empty());
    }

    #[test]
    fn cumulative_simulation_tracks_series() {
        let world = World::new(Profile::Small, 5);
        let needs = Needs {
            days: 2,
            cumulative: true,
            ..Needs::default()
        };
        let data = simulate(&world, needs);
        assert_eq!(data.cumulative.len(), 2);
        for point in &data.cumulative {
            for label in SERIES {
                assert!(point.strict.contains_key(label));
                assert!(point.tolerant.contains_key(label));
            }
        }
        // Window dark sets stored for 1 day and the final window.
        assert!(data.window_darks.contains_key(&("All".to_owned(), 1, true)));
        assert!(data
            .window_darks
            .contains_key(&("All".to_owned(), 2, false)));
    }

    #[test]
    fn records_and_ports_are_optional_extras() {
        let world = World::new(Profile::Small, 5);
        let needs = Needs {
            days: 1,
            vp_day0: true,
            records_day0: true,
            dark_ports_day0: true,
            ..Needs::default()
        };
        let data = simulate(&world, needs);
        let records = data.records_day0.as_ref().unwrap();
        assert!(!records.is_empty());
        let matrix = data.port_matrix.as_ref().unwrap();
        assert!(matrix.total > 0);
    }
}
