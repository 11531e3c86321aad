//! Multi-day dynamics: weekend variability (Figure 8), cumulative
//! spoofing decay and its tolerance fix (Figure 9), sub-sampling
//! behaviour (Figure 10), and multi-day telescope coverage (Table 4).

use metatelescope::core::{combine, eval, pipeline, PipelineEngine, SpoofRule};
use metatelescope::flow::sampling::thin_records;
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::{FlowRecord, TrafficStats};
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Block24Set, Day};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world() -> (Internet, TrafficConfig) {
    (
        Internet::generate(InternetConfig::small(), 42),
        TrafficConfig::default_profile(),
    )
}

fn day_stats(net: &Internet, cfg: &TrafficConfig, day: Day, code: &str) -> TrafficStats {
    let spoof = SpoofSpace::new(net, cfg.spoof_routed_bias);
    let mut capture = CaptureSet::new(net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
    generate_day(net, cfg, day, &mut capture);
    let idx = capture
        .vantages
        .iter()
        .position(|v| v.vp.code == code)
        .expect("vantage point exists");
    capture.vantages.swap_remove(idx).into_stats()
}

fn dark_of(
    net: &Internet,
    stats: &TrafficStats,
    days_window: (Day, u32),
    spoof_tolerance: SpoofRule,
) -> Block24Set {
    let rib = combine::rib_union(net, days_window.0, days_window.1);
    PipelineEngine::standard()
        .run(
            stats,
            &rib,
            net.vantage_points[0].sampling_rate,
            days_window.1,
            &pipeline::PipelineConfig {
                spoof_tolerance,
                ..pipeline::PipelineConfig::default()
            },
        )
        .dark
}

#[test]
fn weekend_days_yield_more_meta_telescope_prefixes() {
    // Figure 8 / Section 7.1: quiet offices mean fewer observed
    // originations, so weekend inference finds more candidate prefixes.
    let (net, cfg) = world();
    let wednesday = day_stats(&net, &cfg, Day(2), "CE1");
    let saturday = day_stats(&net, &cfg, Day(5), "CE1");
    let mid = dark_of(&net, &wednesday, (Day(2), 1), SpoofRule::Fixed(0));
    let sat = dark_of(&net, &saturday, (Day(5), 1), SpoofRule::Fixed(0));
    assert!(
        sat.len() > mid.len(),
        "Saturday ({}) should beat Wednesday ({})",
        sat.len(),
        mid.len()
    );
}

#[test]
fn cumulative_windows_decay_without_tolerance_and_recover_with_it() {
    // Figure 9: adding days compounds spoofing pollution; the unrouted-
    // space tolerance wins most of it back.
    let (net, cfg) = world();
    let unrouted = SpoofRule::Unrouted(net.unrouted_octets().to_vec());
    let mut merged: Option<TrafficStats> = None;
    let mut strict_series = Vec::new();
    let mut tolerant_series = Vec::new();
    for d in 0..4u32 {
        let s = day_stats(&net, &cfg, Day(d), "CE1");
        match &mut merged {
            None => merged = Some(s),
            Some(m) => m.merge(&s),
        }
        let acc = merged.as_ref().unwrap();
        strict_series.push(dark_of(&net, acc, (Day(0), d + 1), SpoofRule::Fixed(0)).len());
        tolerant_series.push(dark_of(&net, acc, (Day(0), d + 1), unrouted.clone()).len());
    }
    assert!(
        strict_series[3] < strict_series[0],
        "strict inference must decay: {strict_series:?}"
    );
    assert!(
        tolerant_series[3] > strict_series[3],
        "tolerance recovers blocks: tolerant {tolerant_series:?} vs strict {strict_series:?}"
    );
    // Tolerance keeps the window usable: at least half of day-1 strict.
    assert!(tolerant_series[3] * 2 >= strict_series[0]);
}

#[test]
fn multi_day_telescope_coverage_grows() {
    // Table 4: a week of data recovers more telescope space than one day
    // (more blocks receive sampled TCP at all, and sampling noise on the
    // volume estimate gets more chances below the cap — here the effect
    // is visibility accumulation).
    let (net, cfg) = world();
    let tus1 = &net.telescopes[0];
    let mut merged: Option<TrafficStats> = None;
    let mut coverage = Vec::new();
    for d in 0..3u32 {
        let s = day_stats(&net, &cfg, Day(d), "NA1");
        match &mut merged {
            None => merged = Some(s),
            Some(m) => m.merge(&s),
        }
        let dark = dark_of(
            &net,
            merged.as_ref().unwrap(),
            (Day(0), d + 1),
            SpoofRule::Unrouted(net.unrouted_octets().to_vec()),
        );
        let cov = eval::TelescopeCoverage::measure(&dark, tus1, &net, Day(0), d + 1);
        coverage.push(cov.inferred);
    }
    assert!(
        coverage[2] >= coverage[0],
        "coverage should not shrink with more data: {coverage:?}"
    );
}

#[test]
fn subsampling_degrades_inference_gracefully() {
    // Figure 10: thinning the sampled records first loses little (or even
    // helps against spoofing), then collapses the inference entirely.
    let (net, cfg) = world();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    // Collect CE1's records by replaying the sampled aggregation through
    // a record-collecting sink — approximate by thinning synthetic
    // records derived from stats is not possible, so rebuild records
    // directly from the emissions at the VP's sampling rate.
    use metatelescope::flow::Sampler;
    use metatelescope::traffic::{EmissionSink, FlowEmission, SpoofFloodEmission};
    struct Recorder<'a> {
        vp: &'a metatelescope::netmodel::VantagePoint,
        sampler: Sampler<StdRng>,
        out: Vec<FlowRecord>,
    }
    impl EmissionSink for Recorder<'_> {
        fn flow(&mut self, e: &FlowEmission) {
            use metatelescope::traffic::NO_AS;
            if e.sender_as == NO_AS {
                return;
            }
            let visible = if e.dst_as == NO_AS {
                self.vp.sees_src_as(e.sender_as)
            } else {
                self.vp.observes(e.sender_as, e.dst_as)
            };
            if !visible {
                return;
            }
            if let Some(r) = self.sampler.sample(&e.intent) {
                self.out.push(r);
            }
        }
        fn spoof_flood(&mut self, _: &SpoofFloodEmission) {}
    }
    let vp = &net.vantage_points[0];
    let mut rec = Recorder {
        vp,
        sampler: Sampler::new(vp.sampling_rate, StdRng::seed_from_u64(net.seed)),
        out: Vec::new(),
    };
    generate_day(&net, &cfg, Day(0), &mut rec);
    let _ = &spoof;

    let rib = net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();
    let mut series = Vec::new();
    for factor in [1u32, 2, 8, 64, 4096] {
        let thinned = thin_records(&rec.out, factor, &mut StdRng::seed_from_u64(9));
        let stats = TrafficStats::from_records(&thinned);
        let effective_rate = vp.sampling_rate * factor;
        let r = PipelineEngine::standard().run(&stats, &rib, effective_rate, 1, &pc);
        series.push(r.dark.len());
    }
    assert!(series[0] > 100, "baseline inference works: {series:?}");
    assert!(
        series[4] < series[0] / 10,
        "extreme sub-sampling collapses inference: {series:?}"
    );
    // Moderate thinning must not collapse.
    assert!(series[1] > series[0] / 3, "{series:?}");
}
