//! Exploratory end-to-end run used while calibrating the scenario.
//! Run: `cargo run --release -p mt-bench --example explore [paper]`

use mt_core::{analysis, classifier, eval, pipeline, PipelineEngine, SpoofRule};
use mt_netmodel::{AuxDatasets, Internet, InternetConfig};
use mt_traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use mt_types::Day;

fn main() {
    let paper = std::env::args().any(|a| a == "paper");
    let config = if paper {
        InternetConfig::paper()
    } else {
        InternetConfig::small()
    };
    let t0 = std::time::Instant::now();
    let net = Internet::generate(config, 42);
    let cfg = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    println!(
        "internet: {} ases, {} announcements, {} announced /24s ({} dark / {} active) [{:?}]",
        net.ases.len(),
        net.announcements.len(),
        net.announced_blocks(),
        net.dark_truth.len(),
        net.active_truth.len(),
        t0.elapsed()
    );

    let day = Day(0);
    let t0 = std::time::Instant::now();
    let mut capture = CaptureSet::new(
        &net,
        day,
        &spoof,
        mt_flow::stats::DEFAULT_SIZE_THRESHOLD,
        true,
    );
    generate_day(&net, &cfg, day, &mut capture);
    println!("day simulated in {:?}", t0.elapsed());

    // Telescope stats (Table 2 shape).
    for t in &capture.telescopes {
        println!(
            "{}: pkts/blk/day={:.0} tcp_share={:.2}% avg_tcp={:?}",
            t.telescope.code,
            t.avg_packets_per_block(),
            t.tcp_share() * 100.0,
            t.avg_tcp_size()
        );
        println!("   top ports: {:?}", t.top_ports(10));
    }

    // Classifier calibration (Table 3 shape).
    if let Some(isp) = &capture.isp {
        let scope: mt_types::Block24Set = net
            .announcements
            .iter()
            .filter(|a| a.as_idx == isp.as_idx)
            .flat_map(|a| a.prefix.blocks24())
            .collect();
        let labels = classifier::CalibrationLabels::derive(&isp.stats, &scope, 2_000);
        println!(
            "calibration: scope={} receiving={} dark={} active={}",
            scope.len(),
            labels.receiving,
            labels.dark.len(),
            labels.active.len()
        );
        for row in classifier::sweep(&isp.stats, &labels, &[40, 42, 44, 46]) {
            println!(
                "  {:?}@{}: fpr={:.2}% fnr={:.2}% f1={:.2}%",
                row.feature,
                row.threshold,
                row.matrix.fpr() * 100.0,
                row.matrix.fnr() * 100.0,
                row.matrix.f1() * 100.0
            );
        }
    }

    // Pipeline per VP + all.
    let rib = net.rib(day);
    let pc = pipeline::PipelineConfig::default();
    let mut all_stats: Option<mt_flow::ShardedTrafficStats> = None;
    for vo in &capture.vantages {
        let r = PipelineEngine::standard().run(&vo.stats, &rib, vo.vp.sampling_rate, 1, &pc);
        let gt = eval::GroundTruthReport::evaluate(&r.dark, &net, day, 1);
        println!(
            "{}: flows={} funnel={:?} dark={} unclean={} gray={} precision={:.1}% recall={:.1}%",
            vo.vp.code,
            vo.sampled_flows,
            r.funnel,
            r.dark.len(),
            r.unclean.len(),
            r.gray.len(),
            gt.precision() * 100.0,
            gt.recall() * 100.0,
        );
        match &mut all_stats {
            None => all_stats = Some(vo.stats.clone()),
            Some(s) => s.merge(&vo.stats),
        }
    }
    let all = all_stats.unwrap();
    let rate = net.vantage_points[0].sampling_rate;
    let r = PipelineEngine::standard().run(&all, &rib, rate, 1, &pc);
    let gt = eval::GroundTruthReport::evaluate(&r.dark, &net, day, 1);
    println!(
        "ALL: funnel={:?} dark={} unclean={} gray={} precision={:.1}% recall={:.1}%",
        r.funnel,
        r.dark.len(),
        r.unclean.len(),
        r.gray.len(),
        gt.precision() * 100.0,
        gt.recall() * 100.0
    );
    let tolerant = PipelineEngine::standard().run(
        &all,
        &rib,
        rate,
        1,
        &pipeline::PipelineConfig {
            spoof_tolerance: SpoofRule::Unrouted(net.unrouted_octets().to_vec()),
            ..pc.clone()
        },
    );
    println!(
        "spoof tolerance: {} packets (ALL dark {} strict, {} tolerant)",
        tolerant.spoof_tolerance,
        r.dark.len(),
        tolerant.dark.len()
    );
    let aux = AuxDatasets::generate(&net);
    let check = eval::ActivityCheck::run(&r.dark, &aux);
    println!(
        "aux FP share: {:.1}% ({} of {})",
        check.fp_share() * 100.0,
        check.active_in_aux,
        check.inferred
    );
    let summary = analysis::summarize("All", &eval::scrub(&r.dark, &aux), &net);
    println!("scrubbed summary: {summary:?}");
}
