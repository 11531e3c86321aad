//! Operational-workflow integration: the pieces an operator running a
//! meta-telescope as a service would chain together — packet-level
//! metering, RIB snapshot persistence, daily stability tracking,
//! federation across operators, and monitor-list compilation.

use metatelescope::core::federate::{federate, Contribution, FederationPolicy};
use metatelescope::core::stability::StabilityTracker;
use metatelescope::core::{eval, pipeline, PipelineEngine};
use metatelescope::flow::stats::DEFAULT_SIZE_THRESHOLD;
use metatelescope::flow::{FlowKey, FlowMeter, MeteredPacket, TrafficStats};
use metatelescope::netmodel::rib_io;
use metatelescope::netmodel::{Internet, InternetConfig};
use metatelescope::traffic::{generate_day, CaptureSet, SpoofSpace, TrafficConfig};
use metatelescope::types::{Block24Set, Day, SimDuration, SimTime};

fn world() -> (Internet, TrafficConfig) {
    (
        Internet::generate(InternetConfig::small(), 42),
        TrafficConfig::default_profile(),
    )
}

#[test]
fn metered_packets_drive_the_pipeline_like_records_do() {
    // Reconstruct flow records through the RFC 7011 metering cache from
    // synthetic per-packet input and check the pipeline sees the same
    // world as direct record ingestion.
    let mut direct = TrafficStats::new();
    let mut meter = FlowMeter::new(SimDuration::secs(120), SimDuration::secs(30));
    let mut metered_records = Vec::new();
    // Two scanners probing two /24s, one responder talking back.
    let mut packets = Vec::new();
    for t in 0..40u64 {
        let key = FlowKey {
            src: "9.9.9.9".parse().unwrap(),
            dst: format!("20.0.{}.{}", t % 2, 1 + t % 200).parse().unwrap(),
            src_port: 40_000,
            dst_port: 23,
            protocol: 6,
        };
        packets.push(MeteredPacket {
            time: SimTime(t),
            key,
            tcp_flags: 2,
            length: 40,
        });
    }
    packets.push(MeteredPacket {
        time: SimTime(50),
        key: FlowKey {
            src: "20.0.0.50".parse().unwrap(),
            dst: "9.9.9.9".parse().unwrap(),
            src_port: 23,
            dst_port: 40_000,
            protocol: 6,
        },
        tcp_flags: 0x12,
        length: 44,
    });
    for p in &packets {
        metered_records.extend(meter.observe(p));
    }
    metered_records.extend(meter.drain());
    for r in &metered_records {
        direct.ingest(r);
    }
    // Totals must match the raw packet stream exactly.
    assert_eq!(direct.total_packets, packets.len() as u64);
    let rib = [
        ("20.0.0.0/8".parse().unwrap(), metatelescope::types::Asn(1)),
        ("9.0.0.0/8".parse().unwrap(), metatelescope::types::Asn(2)),
    ]
    .into_iter()
    .collect();
    let result =
        PipelineEngine::standard().run(&direct, &rib, 1, 1, &pipeline::PipelineConfig::default());
    // 20.0.1.0/24 is clean-dark; 20.0.0.0/24 has the responding host 50
    // → gray; 9.9.9.0/24 is fully originating → dropped.
    assert_eq!(result.dark.len(), 1);
    assert_eq!(result.gray.len(), 1);
}

#[test]
fn rib_snapshots_survive_disk_roundtrips_into_the_pipeline() {
    let (net, cfg) = world();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    let mut capture = CaptureSet::new(&net, Day(0), &spoof, DEFAULT_SIZE_THRESHOLD, false);
    generate_day(&net, &cfg, Day(0), &mut capture);
    let ce1 = capture.vantage("CE1").unwrap();

    // Persist the day's RIB as a pfx2as-style dump and reload it.
    let rib = net.rib(Day(0));
    let mut dump = Vec::new();
    rib_io::write_rib(&rib, &mut dump).unwrap();
    let reloaded = rib_io::read_rib(&dump[..]).unwrap();

    let pc = pipeline::PipelineConfig::default();
    let a = PipelineEngine::standard().run(&ce1.stats, &rib, ce1.vp.sampling_rate, 1, &pc);
    let b = PipelineEngine::standard().run(&ce1.stats, &reloaded, ce1.vp.sampling_rate, 1, &pc);
    assert_eq!(a.dark, b.dark);
    assert_eq!(a.funnel, b.funnel);
}

#[test]
fn federation_beats_the_weakest_contributor() {
    let (net, cfg) = world();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    let mut capture = CaptureSet::new(&net, Day(0), &spoof, DEFAULT_SIZE_THRESHOLD, false);
    generate_day(&net, &cfg, Day(0), &mut capture);
    let rib = net.rib(Day(0));
    let pc = pipeline::PipelineConfig::default();

    let mut contributions = Vec::new();
    let mut worst_precision = 1.0f64;
    for vo in &capture.vantages {
        let r = PipelineEngine::standard().run(&vo.stats, &rib, vo.vp.sampling_rate, 1, &pc);
        let gt = eval::GroundTruthReport::evaluate(&r.dark, &net, Day(0), 1);
        if r.dark.len() > 50 {
            worst_precision = worst_precision.min(gt.precision());
        }
        contributions.push(Contribution {
            operator: vo.vp.code.clone(),
            weight: 1.0,
            inferred: r.dark,
            vetoed: Block24Set::new(),
        });
    }
    let joint = federate(&contributions, &FederationPolicy::default());
    assert!(joint.accepted.len() > 100);
    let gt = eval::GroundTruthReport::evaluate(&joint.accepted, &net, Day(0), 1);
    assert!(
        gt.precision() >= worst_precision,
        "quorum {:.3} should not be worse than the weakest contributor {:.3}",
        gt.precision(),
        worst_precision
    );
}

#[test]
fn stability_tracking_and_monitor_list_compile() {
    let (net, cfg) = world();
    let spoof = SpoofSpace::new(&net, cfg.spoof_routed_bias);
    let pc = pipeline::PipelineConfig::default();
    let mut tracker = StabilityTracker::new();
    for day in Day(0).range(3) {
        let mut capture = CaptureSet::new(&net, day, &spoof, DEFAULT_SIZE_THRESHOLD, false);
        generate_day(&net, &cfg, day, &mut capture);
        let ce1 = capture.vantage("CE1").unwrap();
        let r =
            PipelineEngine::standard().run(&ce1.stats, &net.rib(day), ce1.vp.sampling_rate, 1, &pc);
        tracker.record(day, r.dark);
    }
    let stable = tracker.always_inferred();
    assert!(!stable.is_empty());
    assert!(stable.len() <= tracker.stable(2).len());
    assert!(tracker.stable(2).len() <= tracker.stable(1).len());
    // The stable set compiles into a strictly smaller CIDR list
    // (contiguous dark runs exist by construction).
    let cidrs = stable.aggregate();
    assert!(
        cidrs.len() < stable.len(),
        "{} vs {}",
        cidrs.len(),
        stable.len()
    );
    let covered: usize = cidrs.iter().map(|p| p.num_blocks24() as usize).sum();
    assert_eq!(covered, stable.len());
    // Stability costs little precision.
    let gt = eval::GroundTruthReport::evaluate(&stable, &net, Day(0), 3);
    assert!(gt.precision() > 0.9, "precision {:.3}", gt.precision());
}
