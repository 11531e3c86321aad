//! Section 8 in miniature: which ports do scanners aim at which parts of
//! the world, as seen through the inferred meta-telescope? Prints the
//! per-region and per-network-type port activity behind the paper's bean
//! plots (Figures 11 and 12).
//!
//! ```sh
//! cargo run --release --example port_geography
//! ```

use metatelescope::core::analysis::PortMatrix;
use metatelescope::core::pipeline;
use metatelescope::core::PipelineEngine;
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::traffic::{
    generate_day, CaptureSet, EmissionSink, FlowEmission, SpoofFloodEmission, SpoofSpace,
    TrafficConfig,
};
use metatelescope::types::{Block24, Continent, Day, NetworkType};

fn main() {
    let net = Internet::generate(InternetConfig::small(), 42);
    let traffic = TrafficConfig::default_profile();
    let spoof = SpoofSpace::new(&net, traffic.spoof_routed_bias);
    let day = Day(0);

    // Infer the meta-telescope from the day's capture (union of VPs).
    let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
    generate_day(&net, &traffic, day, &mut capture);
    let mut merged: Option<metatelescope::flow::TrafficStats> = None;
    for vo in capture.vantages {
        let s = vo.into_stats();
        match &mut merged {
            None => merged = Some(s),
            Some(m) => m.merge(&s),
        }
    }
    let rib = net.rib(day);
    let dark = PipelineEngine::standard()
        .run(
            &merged.unwrap(),
            &rib,
            net.vantage_points[0].sampling_rate,
            1,
            &pipeline::PipelineConfig::default(),
        )
        .dark;
    println!("meta-telescope: {} /24s\n", dark.len());

    // Second pass: count TCP destination ports toward the inferred set,
    // bucketed by destination region and network type.
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
        dark: &dark,
        net: &net,
        matrix: PortMatrix::new(),
    };
    generate_day(&net, &traffic, day, &mut sink);

    // Figure 11: top ports per world region (shares within the region).
    let ports = sink.matrix.union_top_ports_by_region(8);
    print!("{:>8}", "port");
    for c in Continent::ALL {
        print!("{:>8}", c.abbrev());
    }
    println!();
    for &port in ports.iter().take(12) {
        print!("{port:>8}");
        for c in Continent::ALL {
            let share = sink.matrix.region_share(port, c);
            if share > 0.0 {
                print!("{:>7.1}%", share * 100.0);
            } else {
                print!("{:>8}", "-");
            }
        }
        println!();
    }

    // Figure 12: the same by network type.
    println!();
    print!("{:>8}", "port");
    for t in NetworkType::ALL {
        print!("{:>12}", t.label());
    }
    println!();
    for &port in ports.iter().take(12) {
        print!("{port:>8}");
        for t in NetworkType::ALL {
            print!("{:>11.1}%", sink.matrix.type_share(port, t) * 100.0);
        }
        println!();
    }

    println!();
    println!("Expected shapes (paper Section 8): telnet/23 dominates almost");
    println!("everywhere; 37215/52869 (Satori) concentrate on AF; 6001 on OC;");
    println!("7001 on NA; 80 and 5038 are over-represented toward data centers.");
}
