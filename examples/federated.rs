//! Federated meta-telescopes (the paper's Section 9 proposal): three
//! independent operators run the inference on their own vantage points,
//! share their results, and agree on a quorum-based joint meta-telescope.
//! The joint set is then tracked for stability across days and compiled
//! into a compact CIDR monitor list an operator could actually deploy.
//!
//! ```sh
//! cargo run --release --example federated
//! ```

use metatelescope::core::federate::{federate, Contribution, FederationPolicy};
use metatelescope::core::stability::StabilityTracker;
use metatelescope::core::{eval, pipeline, PipelineEngine};
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::TrafficView;
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Block24Set, Day};

const DAYS: u32 = 3;

fn main() {
    let net = Internet::generate(InternetConfig::small(), 42);
    let traffic = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, traffic.spoof_routed_bias);
    let pc = pipeline::PipelineConfig::default();
    let rate = net.vantage_points[0].sampling_rate;

    let mut tracker = StabilityTracker::new();
    for day in Day(0).range(DAYS) {
        let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
        generate_day(&net, &traffic, day, &mut capture);
        let rib = net.rib(day);

        // Each vantage-point operator contributes independently. The
        // blocks an operator saw originating are its veto set.
        let contributions: Vec<Contribution> = capture
            .vantages
            .iter()
            .map(|vo| {
                let result = PipelineEngine::standard().run(&vo.stats, &rib, rate, 1, &pc);
                let mut vetoed = Block24Set::new();
                for (block, src) in vo.stats.iter_src() {
                    // A handful of sampled packets could be spoofed;
                    // veto only confidently-originating blocks.
                    if src.packets > 3 {
                        vetoed.insert(block);
                    }
                }
                Contribution {
                    operator: vo.vp.code.clone(),
                    // Trust scales (crudely) with vantage-point size.
                    weight: if vo.vp.members >= 100 { 1.0 } else { 0.5 },
                    inferred: result.dark,
                    vetoed,
                }
            })
            .collect();

        let joint = federate(
            &contributions,
            &FederationPolicy {
                quorum: 1.5,
                veto_enabled: true,
            },
        );
        let gt = eval::GroundTruthReport::evaluate(&joint.accepted, &net, day, 1);
        println!(
            "{day}: federated {} /24s (vetoed {}), precision {:.1}%",
            joint.accepted.len(),
            joint.vetoed.len(),
            gt.precision() * 100.0
        );
        for (op, support) in {
            let mut v: Vec<_> = joint.operator_support.iter().collect();
            v.sort();
            v
        } {
            println!("    {op}: contributed to {support} accepted blocks");
        }
        tracker.record(day, joint.accepted);
    }

    // Stability across the window (Section 7.1's recommendation).
    let stable = tracker.stable(2);
    let always = tracker.always_inferred();
    println!();
    println!(
        "stable meta-telescope: {} blocks on >=2 of {DAYS} days, {} on all days",
        stable.len(),
        always.len()
    );
    if let Some(churn) = tracker.latest_churn() {
        println!(
            "latest churn: +{} -{} (retained {})",
            churn.appeared, churn.disappeared, churn.retained
        );
    }

    // Compile the deployable monitor list.
    let cidrs = always.aggregate();
    println!(
        "monitor list: {} /24s aggregate into {} CIDR prefixes",
        always.len(),
        cidrs.len()
    );
    let mut by_len: std::collections::BTreeMap<u8, usize> = std::collections::BTreeMap::new();
    for p in &cidrs {
        *by_len.entry(p.len()).or_default() += 1;
    }
    let summary: Vec<String> = by_len
        .iter()
        .map(|(len, n)| format!("{n}x/{len}"))
        .collect();
    println!("  ({})", summary.join(", "));
    let gt = eval::GroundTruthReport::evaluate(&always, &net, Day(0), DAYS);
    println!(
        "final precision against ground truth: {:.1}%",
        gt.precision() * 100.0
    );
}
