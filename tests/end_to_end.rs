//! End-to-end integration: synthetic Internet → traffic → vantage-point
//! capture → inference pipeline → evaluation. Asserts the qualitative
//! results the paper reports, on the small test scenario.

use metatelescope::core::{analysis, classifier, eval, pipeline, PipelineEngine, SpoofRule};
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::netmodel::{AuxDatasets, Internet, InternetConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Block24Set, Day};

struct World {
    net: Internet,
    cfg: TrafficConfig,
}

impl World {
    fn new() -> World {
        World {
            net: Internet::generate(InternetConfig::small(), 42),
            cfg: TrafficConfig::default_profile(),
        }
    }

    fn capture_day<'a>(&'a self, day: Day, spoof: &'a SpoofSpace) -> CaptureSet<'a> {
        // SAFETY of lifetime juggling: CaptureSet borrows net and spoof;
        // callers keep both alive.
        let mut set = CaptureSet::new(&self.net, day, spoof, DEFAULT_SIZE_THRESHOLD, true);
        generate_day(&self.net, &self.cfg, day, &mut set);
        set
    }
}

#[test]
fn pipeline_recovers_dark_space_with_high_precision() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let rib = w.net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();

    let ce1 = capture.vantage("CE1").unwrap();
    let r = PipelineEngine::standard().run(&ce1.stats, &rib, ce1.vp.sampling_rate, 1, &pc);
    let gt = eval::GroundTruthReport::evaluate(&r.dark, &w.net, Day(0), 1);
    assert!(
        r.dark.len() > 500,
        "CE1 should infer a substantial dark set, got {}",
        r.dark.len()
    );
    assert!(
        gt.precision() > 0.9,
        "precision should be high, got {:.3}",
        gt.precision()
    );
    assert!(
        gt.recall() > 0.3,
        "recall should be meaningful, got {:.3}",
        gt.recall()
    );
    // The funnel is monotone and ends where classification starts.
    let mut entered = r.funnel.seen();
    for s in r.funnel.stages() {
        assert_eq!(s.entered, entered, "stage {}", s.name);
        assert!(s.kept <= s.entered);
        entered = s.kept;
    }
    assert_eq!(r.classified() as u64, entered);
}

#[test]
fn larger_vantage_points_infer_more() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let rib = w.net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();
    let dark_of = |code: &str| {
        let vo = capture.vantage(code).unwrap();
        PipelineEngine::standard()
            .run(&vo.stats, &rib, vo.vp.sampling_rate, 1, &pc)
            .dark
    };
    let ce1 = dark_of("CE1");
    let se1 = dark_of("SE1");
    assert!(
        ce1.len() > 2 * se1.len(),
        "CE1 ({}) should dwarf SE1 ({})",
        ce1.len(),
        se1.len()
    );
}

#[test]
fn combining_vantage_points_is_conservative() {
    // Section 6.1: merging all vantage points yields FEWER inferred
    // prefixes than the largest individual contributor, because the
    // filters see more disqualifying information.
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let rib = w.net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();
    let rate = w.net.vantage_points[0].sampling_rate;

    let mut best_single = 0usize;
    let mut merged: Option<metatelescope::flow::ShardedTrafficStats> = None;
    for vo in &capture.vantages {
        let r = PipelineEngine::standard().run(&vo.stats, &rib, vo.vp.sampling_rate, 1, &pc);
        best_single = best_single.max(r.dark.len());
        match &mut merged {
            None => merged = Some(vo.stats.clone()),
            Some(m) => m.merge(&vo.stats),
        }
    }
    let all = PipelineEngine::standard().run(&merged.unwrap(), &rib, rate, 1, &pc);
    assert!(all.dark.len() > 100, "All still infers plenty");
    assert!(
        all.dark.len() < best_single,
        "All ({}) must be below the best single VP ({best_single})",
        all.dark.len()
    );
}

#[test]
fn telescope_statistics_match_table2_shape() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let [tus1, teu1, teu2] = &capture.telescopes[..] else {
        panic!("three telescopes expected")
    };
    // TCP dominates everywhere; TEU2 has the largest UDP share.
    assert!(
        tus1.tcp_share() > 0.88,
        "TUS1 TCP share {}",
        tus1.tcp_share()
    );
    assert!(teu2.tcp_share() < tus1.tcp_share());
    assert!(teu2.tcp_share() < teu1.tcp_share());
    // Average TCP packet sizes sit in the (40, 44) window.
    for t in [tus1, teu1, teu2] {
        let avg = t.avg_tcp_size().unwrap();
        assert!(avg > 40.0 && avg < 44.0, "{} avg {avg}", t.telescope.code);
    }
    // TEU2 receives the most packets per /24; every telescope exceeds
    // the 1.7 k volume cap on average (why Table 4 coverage is partial).
    assert!(teu2.avg_packets_per_block() > tus1.avg_packets_per_block());
    for t in [tus1, teu2] {
        assert!(t.avg_packets_per_block() > 1_700.0, "{}", t.telescope.code);
    }
    // Port 23 tops the unblocked telescopes, but TEU1 blocks it.
    assert_eq!(tus1.top_ports(1)[0].0, 23);
    assert_eq!(teu2.top_ports(1)[0].0, 23);
    assert!(teu1.top_ports(10).iter().all(|&(p, _)| p != 23 && p != 445));
}

#[test]
fn classifier_calibration_matches_table3_shape() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let isp = capture.isp.as_ref().unwrap();
    let scope: Block24Set = w
        .net
        .announcements
        .iter()
        .filter(|a| a.as_idx == isp.as_idx)
        .flat_map(|a| a.prefix.blocks24())
        .collect();
    let labels = classifier::CalibrationLabels::derive(&isp.stats, &scope, 2_000);
    assert!(labels.dark.len() > 100 && labels.active.len() > 100);

    let rows = classifier::sweep(&isp.stats, &labels, &[40, 42, 44, 46]);
    let cell = |f: classifier::ClassifierFeature, t: u16| {
        rows.iter()
            .find(|r| r.feature == f && r.threshold == t)
            .unwrap()
            .matrix
    };
    use classifier::ClassifierFeature::{Average, Median};
    // Average@40 is catastrophic (nearly all dark blocks average > 40).
    assert!(cell(Average, 40).fnr() > 0.9);
    // Average@42 misses a large share.
    let fnr42 = cell(Average, 42).fnr();
    assert!(fnr42 > 0.2 && fnr42 < 0.8, "avg@42 FNR {fnr42}");
    // Average@44 is near-perfect with very low FPR.
    assert!(cell(Average, 44).fnr() < 0.05);
    assert!(cell(Average, 44).fpr() < 0.05);
    // The median feature pays a visibly higher FPR at 44 than average
    // (ACK-heavy active blocks fool it).
    assert!(cell(Median, 44).fpr() > cell(Average, 44).fpr() + 0.05);
    // And the paper's pick wins the sweep.
    let best = classifier::pick_best(&rows).unwrap();
    assert_eq!(best.feature, Average);
    assert!(best.threshold >= 44);
}

#[test]
fn activity_datasets_bound_false_positives_and_scrub() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let rib = w.net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();
    let ce1 = capture.vantage("CE1").unwrap();
    let r = PipelineEngine::standard().run(&ce1.stats, &rib, ce1.vp.sampling_rate, 1, &pc);
    let aux = AuxDatasets::generate(&w.net);
    let check = eval::ActivityCheck::run(&r.dark, &aux);
    assert!(check.fp_share() < 0.2, "FP share {:.3}", check.fp_share());
    let scrubbed = eval::scrub(&r.dark, &aux);
    assert_eq!(scrubbed.intersection_len(&aux.union()), 0);
    let gt_before = eval::GroundTruthReport::evaluate(&r.dark, &w.net, Day(0), 1);
    let gt_after = eval::GroundTruthReport::evaluate(&scrubbed, &w.net, Day(0), 1);
    assert!(gt_after.precision() >= gt_before.precision());
}

#[test]
fn spoofing_tolerance_recovers_polluted_blocks() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    // Accumulate three days: pollution compounds (Figure 9).
    let mut merged: Option<metatelescope::flow::ShardedTrafficStats> = None;
    for day in Day(0).range(3) {
        let capture = w.capture_day(day, &spoof);
        let ce1 = capture.vantage("CE1").unwrap();
        match &mut merged {
            None => merged = Some(ce1.stats.clone()),
            Some(m) => m.merge(&ce1.stats),
        }
    }
    let stats = merged.unwrap();
    let rib = metatelescope::core::combine::rib_union(&w.net, Day(0), 3);
    let rate = w.net.vantage_points[0].sampling_rate;

    let strict =
        PipelineEngine::standard().run(&stats, &rib, rate, 3, &pipeline::PipelineConfig::default());
    let tolerant = PipelineEngine::standard().run(
        &stats,
        &rib,
        rate,
        3,
        &pipeline::PipelineConfig {
            spoof_tolerance: SpoofRule::Unrouted(w.net.unrouted_octets().to_vec()),
            ..pipeline::PipelineConfig::default()
        },
    );
    assert!(
        tolerant.dark.len() > strict.dark.len(),
        "tolerance ({}) must beat strict ({})",
        tolerant.dark.len(),
        strict.dark.len()
    );
    // Tolerance must not cost precision materially.
    let gt = eval::GroundTruthReport::evaluate(&tolerant.dark, &w.net, Day(0), 3);
    assert!(gt.precision() > 0.85, "precision {:.3}", gt.precision());
}

#[test]
fn inference_summary_spans_ases_and_countries() {
    let w = World::new();
    let spoof = SpoofSpace::new(&w.net, w.cfg.spoof_routed_bias);
    let capture = w.capture_day(Day(0), &spoof);
    let rib = w.net.rib(Day(0));
    let ce1 = capture.vantage("CE1").unwrap();
    let r = PipelineEngine::standard().run(
        &ce1.stats,
        &rib,
        ce1.vp.sampling_rate,
        1,
        &pipeline::PipelineConfig::default(),
    );
    let summary = analysis::summarize("CE1", &r.dark, &w.net);
    assert!(summary.ases > 10, "ASes {}", summary.ases);
    assert!(summary.countries > 5, "countries {}", summary.countries);
    let matrix = analysis::TypeContinentMatrix::build(&r.dark, &w.net);
    assert_eq!(matrix.total(), summary.blocks);
}
