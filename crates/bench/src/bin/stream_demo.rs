//! `stream-demo`: continuous operation of the meta-telescope, end to
//! end. Three simulated days of vantage-point traffic are exported as
//! per-exporter RFC 7011 IPFIX byte streams, interleaved in
//! transport-sized chunks, and fed through the `mt-stream` stack
//! (collector sessions → watermark windows → backpressure-bounded ingest
//! → per-window pipeline). One chunk of garbage and one
//! past-the-lateness straggler are injected on purpose, so the decode
//! and drop counters have something to show.
//!
//! Run with `cargo run --release --bin stream-demo [seed]`. Optional
//! flags write the machine-readable health artifacts (see
//! `DESIGN.md` §"Observability"):
//!
//! - `--health-json PATH` — the final [`mt_stream::HealthSnapshot`] as
//!   JSON, then read back, re-parsed and re-validated from disk (the
//!   demo exits non-zero if the document fails its own invariants or
//!   disagrees with the metrics registry).
//! - `--metrics-text PATH` — the full registry in Prometheus text
//!   exposition format.

use mt_bench::harness::{Profile, World};
use mt_flow::stats::DEFAULT_SIZE_THRESHOLD;
use mt_flow::FlowRecord;
use mt_stream::{HealthSnapshot, MultiStreamService, OverflowPolicy, StreamConfig, StreamOutput};
use mt_traffic::{generate_day, CaptureSet};
use mt_types::{Day, SimDuration};
use std::collections::HashMap;

const DAYS: u32 = 3;
/// TCP-segment-sized chunks, the fragmentation a live collector sees.
const CHUNK: usize = 1460;

struct Args {
    seed: u64,
    health_json: Option<String>,
    metrics_text: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        health_json: None,
        metrics_text: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--health-json" => args.health_json = Some(it.next().expect("--health-json PATH")),
            "--metrics-text" => args.metrics_text = Some(it.next().expect("--metrics-text PATH")),
            s => args.seed = s.parse().expect("seed must be an integer"),
        }
    }
    args
}

/// Re-reads the health document from disk and checks that what a
/// downstream consumer would see is internally consistent and agrees
/// with the metrics registry. Returns an error string on any mismatch.
fn validate_health_file(path: &str, out: &StreamOutput) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let parsed: HealthSnapshot =
        serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    parsed.check_invariants()?;
    let original = serde_json::to_string(&out.health).map_err(|e| format!("{e:?}"))?;
    let reparsed = serde_json::to_string(&parsed).map_err(|e| format!("{e:?}"))?;
    if original != reparsed {
        return Err("health document did not round-trip through disk".into());
    }
    // The registry's exposition must tell the same story as the
    // document: spot-check the load-bearing totals.
    let snap = out.registry.snapshot();
    let checks: [(&str, u64); 5] = [
        ("mt_queue_pushed_total", parsed.queue.pushed),
        ("mt_window_on_time_total", parsed.on_time),
        ("mt_window_late_total", parsed.late),
        ("mt_window_dropped_total", parsed.dropped_late),
        ("mt_window_closed_total", parsed.windows_closed),
    ];
    for (name, want) in checks {
        match snap.scalar(name, &[]) {
            Some(got) if got == want => {}
            got => {
                return Err(format!(
                    "registry {name} = {got:?}, health document says {want}"
                ))
            }
        }
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    let seed = args.seed;
    let world = World::new(Profile::Small, seed);
    let rate = world.sampling_rate();
    let ingest_threads = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    println!(
        "stream-demo: {} world, seed {seed}, {DAYS} days, {ingest_threads} ingest threads",
        world.profile.name()
    );

    let net = &world.net;
    // One in-process producer: the service's single-lane case.
    let (svc, mut lanes) = MultiStreamService::start(
        StreamConfig {
            ingest_threads,
            sampling_rate: rate,
            overflow: OverflowPolicy::Block,
            allowed_lateness: SimDuration::hours(2),
            ..StreamConfig::default()
        },
        1,
        |day| net.rib(day),
    );
    let lane = &mut lanes[0];

    // Per-exporter running IPFIX sequence counters, as real exporters keep.
    let mut sequences: HashMap<String, u32> = HashMap::new();
    let mut straggler: Option<FlowRecord> = None;

    for d in 0..DAYS {
        let day = Day(d);
        eprintln!("[stream-demo] generating and streaming {day} ...");
        let mut capture = CaptureSet::new(net, day, &world.spoof, DEFAULT_SIZE_THRESHOLD, false);
        capture.retain_all_records();
        generate_day(net, &world.traffic, day, &mut capture);

        // Export each vantage point's day as IPFIX bytes.
        let streams: Vec<(String, Vec<u8>)> = capture
            .vantages
            .iter()
            .map(|vo| {
                if d == 0 && straggler.is_none() {
                    straggler = vo.records.as_ref().and_then(|r| r.first().copied());
                }
                let seq = sequences.entry(vo.vp.code.clone()).or_insert(0);
                let bytes = vo
                    .export_ipfix(d * 86_400, seq, 64)
                    .expect("records retained")
                    .into_iter()
                    .flatten()
                    .collect();
                (vo.vp.code.clone(), bytes)
            })
            .collect();

        // Interleave the exporters in transport-sized chunks.
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut progressed = false;
            for (i, (name, bytes)) in streams.iter().enumerate() {
                if cursors[i] < bytes.len() {
                    let end = (cursors[i] + CHUNK).min(bytes.len());
                    lane.push_chunk(name, &bytes[cursors[i]..end]);
                    cursors[i] = end;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        if d == 0 {
            // A link hiccup: 64 bytes of garbage mid-stream. The session
            // resynchronizes and counts the damage.
            lane.push_chunk("CE1", &[0xA5; 64]);
        }
    }

    // A straggler from day 0, long past the allowed lateness: its window
    // has closed, so the gate drops and counts it.
    if let Some(r) = straggler {
        let flows = [r.to_ipfix()];
        let seq = sequences.entry("CE1".to_owned()).or_insert(0);
        for msg in mt_wire::ipfix::encode_messages(&flows, DAYS * 86_400, 1, seq, 1) {
            lane.push_chunk("CE1", &msg);
        }
    }

    let out = svc.finish(lanes);

    println!("\nper-exporter sessions:");
    println!(
        "  {:<6} {:>10} {:>8} {:>9} {:>7} {:>6} {:>7}",
        "code", "bytes", "msgs", "flows", "errors", "late", "dropped"
    );
    for e in &out.health.exporters {
        println!(
            "  {:<6} {:>10} {:>8} {:>9} {:>7} {:>6} {:>7}",
            e.name, e.bytes, e.messages, e.flows, e.decode_errors, e.late, e.dropped
        );
    }

    println!("\nwindows (per-day pipeline runs):");
    for (w, c) in out.windows.iter().zip(&out.combined) {
        println!(
            "  {}: {} records -> dark {} unclean {} gray {} | combined over {} day(s): dark {}",
            w.day,
            w.records,
            w.result.dark.len(),
            w.result.unclean.len(),
            w.result.gray.len(),
            c.days,
            c.result.dark.len(),
        );
    }
    if let Some(c) = out.combined.last() {
        println!(
            "\nfinal combined meta-telescope: {} /24 blocks over {} day(s) from {}",
            c.result.dark.len(),
            c.days,
            c.first
        );
    }

    let h = &out.health;
    println!(
        "\ngate: {} on time, {} late (accepted), {} dropped late, {} shed by backpressure",
        h.on_time, h.late, h.dropped_late, h.dropped_backpressure
    );
    let q = h.queue;
    println!(
        "queue: {} pushed, {} popped, {} dropped, high-water mark {}",
        q.pushed, q.popped, q.dropped, q.high_water_mark
    );

    // The health document's identities hold by construction; failing
    // here means the accounting itself broke, not the demo.
    if let Err(e) = out.health.check_invariants() {
        eprintln!("stream-demo: health invariants violated: {e}");
        std::process::exit(1);
    }

    if let Some(path) = &args.metrics_text {
        let text = mt_obs::render_prometheus_text(&out.registry.snapshot());
        std::fs::write(path, &text).expect("write metrics text");
        println!(
            "wrote Prometheus exposition ({} lines) to {path}",
            text.lines().count()
        );
    }
    if let Some(path) = &args.health_json {
        let json = serde_json::to_string(&out.health).expect("health serializes");
        std::fs::write(path, &json).expect("write health json");
        match validate_health_file(path, &out) {
            Ok(()) => println!("wrote health document to {path} (re-validated from disk)"),
            Err(e) => {
                eprintln!("stream-demo: health document validation failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
