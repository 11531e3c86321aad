//! Quickstart: build a synthetic Internet, run one day of traffic
//! through an IXP vantage point, infer meta-telescope prefixes, and
//! check the result against ground truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use metatelescope::core::{analysis, eval, pipeline, PipelineEngine};
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::TrafficView;
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::Day;

fn main() {
    // 1. A deterministic world: ASes, prefixes, dark/active ground
    //    truth, telescopes, IXPs. Same (config, seed) → same Internet.
    let net = Internet::generate(InternetConfig::small(), 42);
    println!(
        "Internet: {} ASes, {} announced /24s ({} dark, {} active)",
        net.ases.len(),
        net.announced_blocks(),
        net.dark_truth.len(),
        net.active_truth.len()
    );

    // 2. One simulated day of traffic — scanners, botnets, backscatter,
    //    spoofed floods, production flows — captured at every vantage
    //    point with 1-in-N packet sampling.
    let traffic = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, traffic.spoof_routed_bias);
    let day = Day(0);
    let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
    generate_day(&net, &traffic, day, &mut capture);

    // 3. Run the seven-step inference pipeline on the largest IXP.
    let ce1 = capture.vantage("CE1").expect("CE1 exists in the scenario");
    println!(
        "CE1 sampled {} flow records across {} destination /24s",
        ce1.sampled_flows,
        ce1.stats.dst_block_count()
    );
    let rib = net.rib(day);
    let result = PipelineEngine::standard().run(
        &ce1.stats,
        &rib,
        ce1.vp.sampling_rate,
        1,
        &pipeline::PipelineConfig::default(),
    );
    println!("funnel: {:?}", result.funnel);
    println!(
        "classified: {} dark (meta-telescope prefixes), {} unclean, {} gray",
        result.dark.len(),
        result.unclean.len(),
        result.gray.len()
    );

    // 4. Evaluate: the simulator knows the truth the paper could not.
    let gt = eval::GroundTruthReport::evaluate(&result.dark, &net, day, 1);
    println!(
        "ground truth: precision {:.1}%, recall {:.1}% of all announced dark space",
        gt.precision() * 100.0,
        gt.recall() * 100.0
    );

    // 5. Where is the meta-telescope?
    let summary = analysis::summarize("CE1", &result.dark, &net);
    println!(
        "the meta-telescope spans {} /24s in {} ASes across {} countries",
        summary.blocks, summary.ases, summary.countries
    );
    let top = analysis::by_country(&result.dark, &net);
    print!("top countries:");
    for (country, blocks) in top.iter().take(5) {
        print!(" {country}={blocks}");
    }
    println!();
}
