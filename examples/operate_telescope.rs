//! Operating a meta-telescope "in your spare time": infer prefixes over a
//! multi-day window (with spoofing tolerance), then use them as a
//! telescope — compare the IBR they attract against a real operational
//! telescope, port by port, and round-trip a pcap export through the
//! wire-format parsers.
//!
//! ```sh
//! cargo run --release --example operate_telescope
//! ```

use metatelescope::core::{combine, eval, pipeline, PipelineEngine, SpoofRule};
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::TrafficStats;
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::telescope::{
    port_overlap, PcapSummary, PortRanking, TelescopeDayStats, TelescopeWeekStats,
};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Block24, Day};
use std::collections::HashMap;

const WINDOW_DAYS: u32 = 3;

fn main() {
    let net = Internet::generate(InternetConfig::small(), 42);
    let traffic = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, traffic.spoof_routed_bias);

    // ---- Phase 1: accumulate a window of vantage-point data and real
    //      telescope captures side by side.
    let mut merged: Option<TrafficStats> = None;
    let mut telescope_days: Vec<TelescopeDayStats> = Vec::new();
    let mut pcap_bytes = None;
    for day in Day(0).range(WINDOW_DAYS) {
        let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
        if day == Day(0) {
            capture.telescopes[0].enable_pcap(500);
        }
        generate_day(&net, &traffic, day, &mut capture);
        telescope_days.push(TelescopeDayStats::from_observer(
            &capture.telescopes[0],
            day,
        ));
        if day == Day(0) {
            pcap_bytes = capture.telescopes.swap_remove(0).pcap_bytes();
        }
        for vo in capture.vantages {
            let stats = vo.into_stats();
            match &mut merged {
                None => merged = Some(stats),
                Some(m) => m.merge(&stats),
            }
        }
    }
    let stats = merged.expect("at least one vantage point");

    // ---- Phase 2: infer the meta-telescope with the Section 7.2
    //      spoofing tolerance.
    let rib = combine::rib_union(&net, Day(0), WINDOW_DAYS);
    let rate = net.vantage_points[0].sampling_rate;
    let result = PipelineEngine::standard().run(
        &stats,
        &rib,
        rate,
        WINDOW_DAYS,
        &pipeline::PipelineConfig {
            spoof_tolerance: SpoofRule::Unrouted(net.unrouted_octets().to_vec()),
            ..pipeline::PipelineConfig::default()
        },
    );
    println!(
        "spoofing tolerance: {} packets (estimated over {} unrouted /8s)",
        result.spoof_tolerance,
        net.unrouted_octets().len()
    );
    println!(
        "inferred {} meta-telescope /24s over {WINDOW_DAYS} days",
        result.dark.len()
    );
    for t in &net.telescopes {
        let cov = eval::TelescopeCoverage::measure(&result.dark, t, &net, Day(0), WINDOW_DAYS);
        println!(
            "  re-discovered {}: {}/{} stably-dark blocks ({:.0}%)",
            cov.code,
            cov.inferred,
            cov.dark_in_window,
            cov.recall() * 100.0
        );
    }

    // ---- Phase 3: what does the meta-telescope see? Count sampled TCP
    //      toward inferred-dark blocks, port by port, and compare with
    //      the operational telescope (Table 5's exercise). The per-/24
    //      aggregates keep no per-port split, so the example re-observes
    //      one day with a port-counting sink over the inferred set.
    let mut meta_ports: HashMap<u16, u64> = HashMap::new();
    {
        use metatelescope::core::analysis::PortMatrix;
        use metatelescope::traffic::{EmissionSink, FlowEmission, SpoofFloodEmission};
        struct PortSink<'a> {
            dark: &'a metatelescope::types::Block24Set,
            net: &'a Internet,
            matrix: PortMatrix,
        }
        impl EmissionSink for PortSink<'_> {
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
        let mut sink = PortSink {
            dark: &result.dark,
            net: &net,
            matrix: PortMatrix::new(),
        };
        generate_day(&net, &traffic, Day(0), &mut sink);
        for (&(port, _), &pkts) in &sink.matrix.by_type {
            *meta_ports.entry(port).or_default() += pkts;
        }
    }
    let meta_ranking = PortRanking::top_n("meta-telescope", &meta_ports, 10);
    let week = TelescopeWeekStats::new("TUS1", net.telescopes[0].num_blocks, telescope_days);
    let tus1_ranking = PortRanking::top_n("TUS1", &week.port_counts(), 10);
    println!("TUS1 top-10 ports:           {:?}", tus1_ranking.ports());
    println!("meta-telescope top-10 ports: {:?}", meta_ranking.ports());
    println!(
        "overlap: {}/10 (the paper found a perfect overlap of the top 5)",
        port_overlap(&tus1_ranking, &meta_ranking)
    );

    // ---- Phase 4: the telescope's pcap export parses cleanly with the
    //      checked wire views (checksums verified per packet).
    let pcap = pcap_bytes.expect("pcap capture was enabled");
    let summary = PcapSummary::parse(&pcap).expect("valid capture file");
    println!(
        "pcap re-analysis: {} packets, {} malformed, {:.0}% TCP SYNs, avg TCP size {:.1} B",
        summary.packets,
        summary.malformed,
        summary.syn_share() * 100.0,
        summary.avg_tcp_size().unwrap_or(0.0)
    );
}
