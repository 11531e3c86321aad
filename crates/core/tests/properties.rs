//! Property-based tests for the inference pipeline's invariants.

use mt_core::{baseline, pipeline, PipelineEngine, SpoofRule};
use mt_flow::{FlowRecord, ShardedTrafficStats, TrafficStats};
use mt_types::{Asn, Ipv4, Prefix, PrefixTrie, SimTime};
use proptest::prelude::*;

/// Records constrained to a handful of /16s so blocks actually collide
/// and every classification outcome is reachable.
fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        0u8..4,       // src /16 selector
        any::<u16>(), // src low bits
        0u8..4,       // dst /16 selector
        any::<u16>(), // dst low bits
        prop_oneof![Just(6u8), Just(17)],
        1u64..200,
        prop_oneof![Just(40u64), Just(48), Just(200), Just(1_400)],
    )
        .prop_map(|(s16, slow, d16, dlow, proto, packets, size)| FlowRecord {
            start: SimTime(0),
            src: Ipv4(0x1400_0000 | (u32::from(s16) << 16) | u32::from(slow)),
            dst: Ipv4(0x1400_0000 | (u32::from(d16) << 16) | u32::from(dlow)),
            src_port: 40_000,
            dst_port: 23,
            protocol: proto,
            tcp_flags: 2,
            packets,
            octets: packets * size,
        })
}

fn rib() -> PrefixTrie<Asn> {
    [("20.0.0.0/8".parse::<Prefix>().unwrap(), Asn(65_000))]
        .into_iter()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn classification_partitions_the_survivors(
        records in proptest::collection::vec(arb_record(), 1..150),
    ) {
        let stats = TrafficStats::from_records(&records);
        let r = PipelineEngine::standard().run(&stats, &rib(), 1, 1, &pipeline::PipelineConfig::default());
        // Disjoint classes.
        prop_assert_eq!(r.dark.intersection_len(&r.unclean), 0);
        prop_assert_eq!(r.dark.intersection_len(&r.gray), 0);
        prop_assert_eq!(r.unclean.intersection_len(&r.gray), 0);
        // Funnel is monotone: each stage enters exactly the previous
        // stage's survivors and keeps at most what entered.
        let mut entered = r.funnel.seen();
        for s in r.funnel.stages() {
            prop_assert_eq!(s.entered, entered, "stage {}", s.name);
            prop_assert!(s.kept <= s.entered);
            entered = s.kept;
        }
        // Classes cover exactly the post-volume survivors.
        prop_assert_eq!(r.classified() as u64, entered);
    }

    #[test]
    fn sharded_engine_is_equivalent_to_serial_run(
        records in proptest::collection::vec(arb_record(), 1..150),
    ) {
        // The tentpole equivalence: the staged engine over a sharded
        // accumulator — any shard count, any worker count — reproduces
        // the serial pipeline bit for bit: same dark/unclean/gray sets,
        // same funnel counts.
        let flat = TrafficStats::from_records(&records);
        let rib = rib();
        let pc = pipeline::PipelineConfig::default();
        let serial = PipelineEngine::standard().run(&flat, &rib, 1, 1, &pc);
        let engine = PipelineEngine::standard();
        for shards in [1usize, 4, 16] {
            let sharded = ShardedTrafficStats::from_records(shards, &records);
            for threads in [1usize, 4] {
                let par = engine.run_sharded(&sharded, &rib, 1, 1, &pc, threads);
                prop_assert_eq!(&par.dark, &serial.dark, "dark: shards={} threads={}", shards, threads);
                prop_assert_eq!(&par.unclean, &serial.unclean, "unclean: shards={} threads={}", shards, threads);
                prop_assert_eq!(&par.gray, &serial.gray, "gray: shards={} threads={}", shards, threads);
                prop_assert_eq!(&par.funnel, &serial.funnel, "funnel: shards={} threads={}", shards, threads);
            }
        }
    }

    #[test]
    fn strict_dark_is_a_subset_of_the_origin_only_baseline(
        records in proptest::collection::vec(arb_record(), 1..150),
    ) {
        let stats = TrafficStats::from_records(&records);
        let rib = rib();
        let full = PipelineEngine::standard().run(&stats, &rib, 1, 1, &pipeline::PipelineConfig {
            // A huge volume cap isolates the subset relation from the
            // volume filter (the baseline has none).
            volume_threshold_per_day: f64::MAX,
            ..pipeline::PipelineConfig::default()
        });
        let base = baseline::origin_only(&stats, &rib);
        prop_assert_eq!(
            full.dark.difference(&base).len(),
            0,
            "pipeline dark must be within the baseline's set"
        );
    }

    #[test]
    fn raising_the_tolerance_never_shrinks_dark(
        records in proptest::collection::vec(arb_record(), 1..120),
        tol_low in 0u64..3,
        extra in 1u64..5,
    ) {
        let stats = TrafficStats::from_records(&records);
        let rib = rib();
        let run_with = |tol| PipelineEngine::standard().run(&stats, &rib, 1, 1, &pipeline::PipelineConfig {
            spoof_tolerance: SpoofRule::Fixed(tol),
            ..pipeline::PipelineConfig::default()
        });
        let low = run_with(tol_low);
        let high = run_with(tol_low + extra);
        prop_assert!(high.dark.len() >= low.dark.len());
        prop_assert_eq!(low.dark.difference(&high.dark).len(), 0,
            "every strictly-dark block stays dark under a looser tolerance");
    }

    #[test]
    fn raising_the_size_threshold_never_shrinks_the_avg_survivors(
        records in proptest::collection::vec(arb_record(), 1..120),
        t1 in 40u16..100,
        extra in 1u16..100,
    ) {
        let stats = TrafficStats::from_records(&records);
        let rib = rib();
        let run_with = |t: u16| PipelineEngine::standard().run(&stats, &rib, 1, 1, &pipeline::PipelineConfig {
            avg_size_threshold: f64::from(t),
            ..pipeline::PipelineConfig::default()
        });
        let low = run_with(t1);
        let high = run_with(t1 + extra);
        // Stage 2 (`avg_size`) keeps more under a looser threshold.
        prop_assert!(high.funnel.stages()[1].kept >= low.funnel.stages()[1].kept);
    }

    #[test]
    fn sampling_rate_scales_the_volume_filter_only(
        records in proptest::collection::vec(arb_record(), 1..120),
    ) {
        // With an infinite cap the sampling rate is irrelevant.
        let stats = TrafficStats::from_records(&records);
        let rib = rib();
        let pc = pipeline::PipelineConfig {
            volume_threshold_per_day: f64::MAX,
            ..pipeline::PipelineConfig::default()
        };
        let a = PipelineEngine::standard().run(&stats, &rib, 1, 1, &pc);
        let b = PipelineEngine::standard().run(&stats, &rib, 10_000, 1, &pc);
        prop_assert_eq!(a.dark, b.dark);
        prop_assert_eq!(a.gray, b.gray);
    }
}
