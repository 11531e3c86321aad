//! Hot-path bench: the three optimizations of the ingest/lookup
//! overhaul, each measured against the code path it replaced.
//!
//! - `lpm` — [`RibIndex`] flat lookup vs [`PrefixTrie`] pointer walk
//!   over a realistic mixed-length RIB;
//! - `hash_ingest` — [`FxHashMap`] vs the std SipHash map on the
//!   entry-accumulate pattern `TrafficStats` uses per record;
//! - `queue` — per-record queue hand-off vs pooled record batches
//!   across a real producer/consumer thread pair.
//!
//! The harness is hand-rolled: it must emit machine-readable
//! `BENCH_hotpath.json` (path overridable via the `BENCH_HOTPATH_JSON`
//! env var) so CI can smoke-run it and validate all three comparison
//! groups. Run with no `--bench` flag
//! (as `cargo test` does) or with `--smoke`, it uses tiny sizes; under
//! `cargo bench` it uses full sizes.

use mt_flow::FlowRecord;
use mt_stream::{BatchPool, BoundedQueue, OverflowPolicy};
use mt_types::mix::mix3;
use mt_types::{Asn, FxHashMap, Ipv4, Prefix, PrefixTrie, RibIndex, SimTime};
use serde::Serialize;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Variant {
    name: &'static str,
    ns_per_op: f64,
}

#[derive(Serialize)]
struct Group {
    group: &'static str,
    variants: Vec<Variant>,
    /// First variant's ns_per_op over the last's: how much faster the
    /// new path is than the old.
    speedup: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    groups: Vec<Group>,
}

struct Sizes {
    prefixes: usize,
    probes: usize,
    hash_ops: usize,
    queue_records: usize,
    batch: usize,
    iters: u32,
}

const SMOKE: Sizes = Sizes {
    prefixes: 500,
    probes: 2_000,
    hash_ops: 5_000,
    queue_records: 5_000,
    batch: 64,
    iters: 2,
};

const FULL: Sizes = Sizes {
    prefixes: 20_000,
    probes: 200_000,
    hash_ops: 100_000,
    queue_records: 200_000,
    batch: 256,
    iters: 20,
};

/// Average ns per op over `iters` runs of `f`, each doing `ops` ops.
fn time_per_op<F: FnMut()>(iters: u32, ops: usize, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / (f64::from(iters) * ops as f64)
}

fn group(name: &'static str, old: Variant, new: Variant) -> Group {
    let speedup = old.ns_per_op / new.ns_per_op;
    println!(
        "{name}: {} {:.1} ns/op, {} {:.1} ns/op ({speedup:.2}x)",
        old.name, old.ns_per_op, new.name, new.ns_per_op
    );
    Group {
        group: name,
        variants: vec![old, new],
        speedup,
    }
}

/// A deterministic RIB of mixed-length prefixes (/8 through /24 plus a
/// sprinkle of host routes) and a probe set hitting and missing it.
fn lpm(sizes: &Sizes) -> Group {
    let mut trie = PrefixTrie::new();
    for i in 0..sizes.prefixes as u64 {
        let h = mix3(0xBEEF, i, 1);
        let len = if i % 50 == 0 { 32 } else { 8 + (h % 17) as u8 };
        let base = Ipv4((mix3(0xBEEF, i, 2) as u32) & !0xE000_0000);
        trie.insert(Prefix::containing(base, len), Asn(i as u32));
    }
    let probes: Vec<Ipv4> = (0..sizes.probes as u64)
        .map(|i| Ipv4(mix3(0xCAFE, i, 3) as u32))
        .collect();
    let index = RibIndex::build(&trie);
    for &p in probes.iter().take(64) {
        assert_eq!(index.lookup(p), trie.lookup(p), "index must match trie");
    }
    let trie_v = Variant {
        name: "trie_lookup",
        ns_per_op: time_per_op(sizes.iters, probes.len(), || {
            for &p in &probes {
                black_box(trie.lookup(black_box(p)));
            }
        }),
    };
    let index_v = Variant {
        name: "rib_index_lookup",
        ns_per_op: time_per_op(sizes.iters, probes.len(), || {
            for &p in &probes {
                black_box(index.lookup(black_box(p)));
            }
        }),
    };
    let build = time_per_op(sizes.iters, 1, || {
        black_box(RibIndex::build(black_box(&trie)));
    });
    println!(
        "lpm: index build {:.0} ns over {} intervals",
        build,
        index.num_intervals()
    );
    group("lpm", trie_v, index_v)
}

/// The per-record accumulate pattern: `map.entry(dst /24).or(0) += 1`.
fn hash_ingest(sizes: &Sizes) -> Group {
    let keys: Vec<u32> = (0..sizes.hash_ops as u64)
        .map(|i| (mix3(7, i, 11) as u32) % (sizes.hash_ops as u32 / 4 + 1))
        .collect();
    let std_v = Variant {
        name: "std_siphash_map",
        ns_per_op: time_per_op(sizes.iters, keys.len(), || {
            let mut m: HashMap<u32, u64> = HashMap::new();
            for &k in &keys {
                *m.entry(black_box(k)).or_insert(0) += 1;
            }
            black_box(m.len());
        }),
    };
    let fx_v = Variant {
        name: "fx_hash_map",
        ns_per_op: time_per_op(sizes.iters, keys.len(), || {
            let mut m: FxHashMap<u32, u64> = FxHashMap::default();
            for &k in &keys {
                *m.entry(black_box(k)).or_insert(0) += 1;
            }
            black_box(m.len());
        }),
    };
    group("hash_ingest", std_v, fx_v)
}

fn record(i: u64) -> FlowRecord {
    FlowRecord {
        start: SimTime(i),
        src: Ipv4(mix3(3, i, 1) as u32),
        dst: Ipv4(mix3(3, i, 2) as u32),
        src_port: 40_000,
        dst_port: 23,
        protocol: 6,
        tcp_flags: 2,
        packets: 1 + i % 4,
        octets: 40 * (1 + i % 4),
    }
}

/// Producer/consumer hand-off of `n` records, one queue item each.
fn queue_per_record(n: usize, capacity: usize) {
    let q = Arc::new(BoundedQueue::<FlowRecord>::with_lanes(
        capacity,
        1,
        OverflowPolicy::Block,
    ));
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(r) = q.pop() {
                sum += r.octets;
            }
            black_box(sum)
        })
    };
    for i in 0..n as u64 {
        assert!(q.push_lane(0, record(i)).is_accepted());
    }
    q.close();
    consumer.join().expect("consumer panicked");
}

/// The same hand-off in pooled batches, as a `LaneProducer` does it.
fn queue_batched(n: usize, capacity: usize, batch: usize) {
    let q = Arc::new(BoundedQueue::<Vec<FlowRecord>>::with_lanes(
        capacity,
        1,
        OverflowPolicy::Block,
    ));
    let pool = Arc::new(BatchPool::new(capacity + 2));
    let consumer = {
        let q = Arc::clone(&q);
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(records) = q.pop() {
                for r in &records {
                    sum += r.octets;
                }
                pool.put(records);
            }
            black_box(sum)
        })
    };
    let mut buf = pool.take();
    for i in 0..n as u64 {
        buf.push(record(i));
        if buf.len() == batch {
            let records = std::mem::replace(&mut buf, pool.take());
            assert!(q.push_lane(0, records).is_accepted());
        }
    }
    if !buf.is_empty() {
        assert!(q.push_lane(0, buf).is_accepted());
    }
    q.close();
    consumer.join().expect("consumer panicked");
}

fn queue(sizes: &Sizes) -> Group {
    let n = sizes.queue_records;
    let per_record = Variant {
        name: "queue_per_record",
        ns_per_op: time_per_op(sizes.iters, n, || queue_per_record(n, 1024)),
    };
    let batched = Variant {
        name: "queue_batched_pooled",
        ns_per_op: time_per_op(sizes.iters, n, || queue_batched(n, 16, sizes.batch)),
    };
    group("queue", per_record, batched)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = !args.iter().any(|a| a == "--bench")
        || args.iter().any(|a| a == "--smoke" || a == "--test");
    let (mode, sizes) = if smoke {
        ("smoke", SMOKE)
    } else {
        ("full", FULL)
    };
    println!("hotpath bench ({mode} mode)");

    let report = Report {
        bench: "hotpath",
        mode,
        groups: vec![lpm(&sizes), hash_ingest(&sizes), queue(&sizes)],
    };

    let path = std::env::var("BENCH_HOTPATH_JSON").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
