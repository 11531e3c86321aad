//! The Section 7.2 spoofing study in miniature: extend the observation
//! window day by day, watch strict inference decay as forged sources
//! pollute candidate blocks, and watch the unrouted-space tolerance win
//! the blocks back (the paper's Figure 9).
//!
//! ```sh
//! cargo run --release --example spoofing_study
//! ```

use metatelescope::core::{combine, pipeline, PipelineEngine, SpoofRule};
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::TrafficStats;
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::Day;

const DAYS: u32 = 5;

fn main() {
    let net = Internet::generate(InternetConfig::small(), 42);
    let traffic = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, traffic.spoof_routed_bias);
    let rate = net.vantage_points[0].sampling_rate;
    let tolerant_config = pipeline::PipelineConfig {
        spoof_tolerance: SpoofRule::Unrouted(net.unrouted_octets().to_vec()),
        ..pipeline::PipelineConfig::default()
    };

    println!("window   strict   +tolerance   tolerance(pkts)");
    let mut merged: Option<TrafficStats> = None;
    for d in 0..DAYS {
        let day = Day(d);
        let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
        generate_day(&net, &traffic, day, &mut capture);
        // Union of all vantage points, accumulated over the window.
        for vo in capture.vantages {
            let stats = vo.into_stats();
            match &mut merged {
                None => merged = Some(stats),
                Some(m) => m.merge(&stats),
            }
        }
        let stats = merged.as_ref().unwrap();
        let rib = combine::rib_union(&net, Day(0), d + 1);

        let strict = PipelineEngine::standard().run(
            stats,
            &rib,
            rate,
            d + 1,
            &pipeline::PipelineConfig::default(),
        );
        let tolerant = PipelineEngine::standard().run(stats, &rib, rate, d + 1, &tolerant_config);
        println!(
            "0-{d}      {:>6}   {:>10}   {}",
            strict.dark.len(),
            tolerant.dark.len(),
            tolerant.spoof_tolerance
        );
    }
    println!();
    println!("Strict inference decays as spoofed packets disqualify more and more");
    println!(
        "candidate blocks; the tolerance derived from the {} unrouted /8s",
        net.unrouted_octets().len()
    );
    println!("keeps the multi-day meta-telescope usable (paper Fig. 9).");
}
