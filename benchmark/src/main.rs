//! The repo's performance ledger: one number for the whole path —
//! bytes on a socket to a persisted, queryable window — and a
//! per-layer breakdown under it. See `benchmark/README.md`.
//!
//! ```text
//! mt-benchmark run <workload|all> [--seed N] [--seconds S] [--trace]
//! mt-benchmark run --workload W --seed N --seconds S --trace 0|1   (driver form)
//! mt-benchmark check
//! mt-benchmark repeat N [workload|all] [--seed N] [--seconds S]
//! mt-benchmark compare a.json b.json
//! ```

mod alloc;
mod gen;
mod report;
mod socket;
mod stats;
mod trace;
mod walk;
mod workload;

use report::{Metric, END_TO_END, PER_LAYER};
use serde_json::{Map, Value};
use stats::{median, quantile_sorted};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Fixture, Kind, Sizes, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: mt-benchmark run <workload|all> [--seed N] [--seconds S] [--trace [0|1]]
       mt-benchmark check
       mt-benchmark repeat N [workload|all] [--seed N] [--seconds S]
       mt-benchmark compare a.json b.json
workloads: tcp-dense world-days udp-paced query-beside-ingest";

/// Set-up is repeated at least `Sizes::setups` times, then until this
/// many seconds have gone into it or `MAX_SETUPS_FACTOR` times as many
/// repetitions are done.
const SETUP_BUDGET_S: f64 = 4.5;
const MAX_SETUPS_FACTOR: usize = 8;

/// What one run of one workload reports.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// `(close step, ms per window)`, traced runs only.
    close_steps: Vec<(&'static str, f64)>,
    days: u32,
}

/// Removes the run's scratch directory when the run ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every check a run must pass before it may report: the ledger, the
/// delivery counts, and each persisted window against the serial
/// reference. Returns `(attempted, failed)` operations.
fn verify(fixture: &Fixture, run: &socket::SocketRun) -> Result<(u64, u64), String> {
    let (s, out) = (&run.samples, &run.output);
    let h = &out.stream.health;
    h.check_invariants()
        .map_err(|e| format!("health invariants: {e}"))?;
    let decode_errors: u64 = h.exporters.iter().map(|e| e.decode_errors).sum();
    let lost = s.flows_sent.saturating_sub(h.decoded);
    let failed = h.dropped_late
        + h.dropped_backpressure
        + h.rejected_closed
        + decode_errors
        + lost
        + s.queries_failed;
    let attempted = s.flows_sent + s.queries_ok + s.queries_failed;
    println!(
        "failed_share {} ratio n={attempted}",
        failed as f64 / attempted.max(1) as f64
    );
    if failed > 0 || h.decoded != s.flows_sent || out.datagrams_rejected > 0 {
        return Err(format!(
            "failed_share > 0: {} sent, {} decoded, {} dropped late, {} shed, {} rejected, {} decode errors, {} datagrams rejected, {} queries failed",
            s.flows_sent,
            h.decoded,
            h.dropped_late,
            h.dropped_backpressure,
            h.rejected_closed,
            decode_errors,
            out.datagrams_rejected,
            s.queries_failed
        ));
    }
    if s.queries_ok == 0 {
        return Err("the query client completed no request".into());
    }
    if out.stream.windows.len() != s.days as usize {
        return Err(format!(
            "{} day segments but {} windows",
            s.days,
            out.stream.windows.len()
        ));
    }
    let store = mt_store::ResultsStore::open(mt_store::StoreConfig {
        dir: fixture.store_dir.clone(),
        slots: fixture.slots.clone(),
    })
    .map_err(|e| format!("reopen store: {e}"))?;
    for report in &out.stream.windows {
        let day = report.day;
        let want = walk::digest_result(&workload::reference_result(
            &fixture.reference,
            &(fixture.rib_of)(day),
            fixture.sampling_rate,
        ));
        let persisted = store
            .read_window(day)
            .map_err(|e| format!("read window {}: {e}", day.0))?;
        if persisted.records != fixture.records_per_day || report.records != fixture.records_per_day
        {
            return Err(format!(
                "window {} holds {} records ({} persisted), {} were sent",
                day.0, report.records, persisted.records, fixture.records_per_day
            ));
        }
        for (what, got) in [
            (
                "persisted window",
                walk::digest_window(&persisted, &fixture.slots),
            ),
            ("daemon window result", walk::digest_result(&report.result)),
        ] {
            if got != want {
                return Err(format!(
                    "day {}: {what} digest {got:016x} != serial reference {want:016x}",
                    day.0
                ));
            }
        }
    }
    Ok((attempted, failed))
}

/// Sets up, drives, checks and (with `trace`) walks one workload.
fn run_workload(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let name = workload::name_of(kind);
    let results = report::benchmark_dir().join("results");
    let scratch = Scratch(results.join(format!("tmp-{}-{name}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;

    // Set-up, several times over (more often where it is short, for a
    // steadier median); the run uses the last.
    let (mut setup_times, mut clean_setup_times) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..sizes.setups * MAX_SETUPS_FACTOR {
        if i >= sizes.setups && setup_times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        if let Some(previous) = last.take() {
            let workload::Setup {
                daemon, fixture, ..
            } = previous;
            workload::discard(daemon)?;
            // Its files go now, not when the run ends: what they left
            // dirty in the page cache is then never written back, which
            // would otherwise start 30 s later, in the middle of a run.
            let _ = std::fs::remove_dir_all(&fixture.store_dir);
        }
        let (t, steal0) = (Instant::now(), stats::steal_seconds());
        last = Some(workload::set_up(
            kind,
            sizes,
            seed,
            &scratch.0.join(format!("store-{i}")),
        )?);
        let took = t.elapsed().as_secs_f64();
        setup_times.push(took);
        // Set-up runs on one thread: steal as a share of one CPU.
        if (stats::steal_seconds() - steal0) / took <= socket::STEAL_LIMIT {
            clean_setup_times.push(took);
        }
    }
    let workload::Setup {
        fixture,
        streams,
        daemon,
    } = last.ok_or("no set-up ran")?;
    // As with day segments: repetitions the hypervisor left alone,
    // unless that leaves too few for a median.
    if clean_setup_times.len() >= sizes.setups.min(3) {
        setup_times = clean_setup_times;
    }

    let tracer = trace.then(trace::Tracer::new);
    let run = socket::run(daemon, streams, &fixture, seconds, seed, tracer.as_ref())?;
    let (attempted, failed) = verify(&fixture, &run)?;
    let socket::SocketRun {
        samples: s,
        output,
        streams,
    } = run;

    // Every metric over day segments is taken over the kept ones.
    let kept = s.kept();
    let of = |f: fn(&socket::Segment) -> f64, keep: fn(&socket::Segment) -> bool| -> Vec<f64> {
        kept.iter().filter(|x| keep(x)).map(|x| f(x)).collect()
    };
    let all_rates = of(|x| x.flows_per_s, |_| true);
    let window_ready_ms = of(|x| x.window_ms.1, |_| true);
    let whole = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# {} of {} sampled day segments kept (steal <= {} %, or the {} least stolen)",
        kept.len(),
        s.segments.len(),
        100.0 * socket::STEAL_LIMIT,
        socket::MIN_CLEAN_SEGMENTS
    );
    println!(
        "# setup_s per kept repetition: {}",
        setup_times
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!("# flows_per_s per kept segment: {}", whole(&all_rates));
    println!(
        "# window_ready_ms per kept segment: {}",
        whole(&window_ready_ms)
    );
    let daemon_cpu = kept
        .iter()
        .fold(stats::Cpu::default(), |sum, x| sum.plus(x.daemon_cpu));
    let mflows = (kept.len() as u64 * s.flows_per_day) as f64 / 1e6;
    let Some(tracer) = tracer else {
        let e2e: Vec<(&str, f64, usize)> = vec![
            ("flows_per_s", median(&all_rates), all_rates.len()),
            (
                "window_ready_ms",
                median(&window_ready_ms),
                window_ready_ms.len(),
            ),
            (
                "query_p50_us",
                quantile_sorted(&s.query_ns, 0.50) / 1e3,
                s.query_ns.len(),
            ),
            ("setup_s", median(&setup_times), setup_times.len()),
            ("peak_rss_mb", s.peak_rss_mib, 1),
        ];
        return Ok(Outcome {
            metrics: report::assemble(&END_TO_END, &e2e)?,
            attempted,
            failed,
            close_steps: Vec::new(),
            days: s.days,
        });
    };

    // The traced run: the walk, then the daemon's own instruments.
    let walked = walk::walk(
        walk::WalkInput {
            streams,
            rib_of: fixture.rib_of.clone(),
            slots: fixture.slots.clone(),
            sampling_rate: fixture.sampling_rate,
            reference: &fixture.reference,
            first_day: 0,
            days: sizes.walk_days,
            dir: &scratch.0.join("walk"),
            stream_cfg: fixture.stream_cfg.clone(),
            daemon_registry: &output.stream.registry,
            micro_budget: std::time::Duration::from_millis(sizes.micro_ms),
        },
        &tracer,
    )?;
    let snap = output.stream.registry.snapshot();
    let push = snap
        .merged_histogram("mt_serve_ingest_nanoseconds")
        .ok()
        .flatten()
        .ok_or("no mt_serve_ingest_nanoseconds histogram")?;
    let loop_events: u64 = (0..output.event_loops)
        .filter_map(|i| snap.scalar("mt_serve_loop_events_total", &[("loop", &i.to_string())]))
        .sum();
    let windows = output.stream.health.windows_closed.max(1) as f64;
    let stage_ms = |stage: &str| -> f64 {
        snap.samples
            .iter()
            .find(|x| {
                x.name == "mt_pipeline_stage_nanoseconds"
                    && x.labels.iter().any(|(k, v)| k == "stage" && v == stage)
            })
            .and_then(|x| match &x.value {
                mt_obs::SampleValue::Histogram(h) => Some(h.sum as f64 / 1e6 / windows),
                _ => None,
            })
            .unwrap_or(0.0)
    };
    let h = &output.stream.health;
    let point_ns = walked
        .values
        .iter()
        .find(|v| v.0 == "store.point_ns")
        .map_or(0.0, |v| v.1);
    let p50_us = quantile_sorted(&s.query_ns, 0.50) / 1e3;
    let untraced_rates = of(|x| x.flows_per_s, |x| !x.traced);
    let traced_rates = of(|x| x.flows_per_s, |x| x.traced);
    let untraced = median(&untraced_rates);
    let traced_kflows = (traced_rates.len() as u64 * s.flows_per_day) as f64 / 1e3;
    let traced_allocs = kept
        .iter()
        .filter(|x| x.traced)
        .fold((0, 0), |sum, x| (sum.0 + x.allocs.0, sum.1 + x.allocs.1));
    let window_persisted_ms = of(|x| x.window_ms.0, |_| true);
    let mut layer: Vec<(&str, f64, usize)> = vec![
        (
            "serve.ingest_push_p50_ns",
            push.quantile_upper_bound(0.5).unwrap_or(0) as f64,
            push.count as usize,
        ),
        (
            "serve.ingest_push_p99_ns",
            push.quantile_upper_bound(0.99).unwrap_or(0) as f64,
            push.count as usize,
        ),
        (
            "serve.loop_events_per_kflow",
            loop_events as f64 / (s.flows_sent as f64 / 1e3),
            1,
        ),
        (
            "serve.sys_cpu_share",
            daemon_cpu.sys / daemon_cpu.total(),
            1,
        ),
        (
            "serve.http_overhead_us",
            p50_us - point_ns / 1e3,
            s.query_ns.len(),
        ),
        (
            "serve.window_persisted_ms",
            median(&window_persisted_ms),
            window_persisted_ms.len(),
        ),
        (
            "serve.query_p99_us",
            quantile_sorted(&s.query_ns, 0.99) / 1e3,
            s.query_ns.len(),
        ),
        (
            "serve.queries_per_s",
            s.queries_ok as f64 / s.query_seconds,
            s.queries_ok as usize,
        ),
        ("serve.drain_s", s.drain_s, 1),
        ("serve.bind_ms", fixture.times.bind_s * 1e3, 1),
        (
            "wire.encode_ns_per_record",
            fixture.times.encode_ns_per_record,
            1,
        ),
        ("wire.bytes_per_record", fixture.times.bytes_per_record, 1),
        ("stream.queue_high_water", h.queue.high_water_mark as f64, 1),
        (
            "stream.backpressure_records",
            h.dropped_backpressure as f64,
            1,
        ),
        (
            "stream.late_share",
            h.late as f64 / h.decoded.max(1) as f64,
            1,
        ),
        ("core.stage_ms.tcp", stage_ms("tcp"), windows as usize),
        (
            "core.stage_ms.avg_size",
            stage_ms("avg_size"),
            windows as usize,
        ),
        (
            "core.stage_ms.clean_origin",
            stage_ms("clean_origin"),
            windows as usize,
        ),
        (
            "core.stage_ms.special",
            stage_ms("special"),
            windows as usize,
        ),
        ("core.stage_ms.routed", stage_ms("routed"), windows as usize),
        ("core.stage_ms.volume", stage_ms("volume"), windows as usize),
        (
            "traffic.generate_s_per_day",
            fixture.times.generate_s_per_day,
            1,
        ),
        ("netmodel.generate_s", fixture.times.world_s, 1),
        (
            "alloc.count_per_kflow",
            traced_allocs.0 as f64 / traced_kflows,
            traced_rates.len(),
        ),
        (
            "alloc.bytes_per_kflow",
            traced_allocs.1 as f64 / traced_kflows,
            traced_rates.len(),
        ),
        (
            "trace.overhead_share",
            1.0 - median(&traced_rates) / untraced,
            traced_rates.len(),
        ),
        ("trace.flows_per_s", untraced, untraced_rates.len()),
        (
            "trace.cpu_s_per_mflow",
            daemon_cpu.total() / mflows,
            kept.len(),
        ),
        (
            "trace.window_ready_ms",
            median(&window_ready_ms),
            window_ready_ms.len(),
        ),
        ("trace.query_p50_us", p50_us, s.query_ns.len()),
    ];
    layer.extend(
        walked
            .values
            .iter()
            .map(|&(n, v)| (n, v, sizes.walk_days as usize)),
    );
    let metrics = report::assemble(&PER_LAYER, &layer)?;

    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let path = results.join(format!("trace-{name}.json"));
    let mut doc = Map::new();
    doc.insert("workload".into(), Value::String(name.into()));
    doc.insert("seed".into(), Value::U64(seed));
    doc.insert(
        "span_schema".into(),
        Value::String(
            "id, parent (0 = root), name, start_ns, end_ns; ns since the run's epoch".into(),
        ),
    );
    doc.insert(
        "spans".into(),
        serde_json::to_value(&tracer.spans()).map_err(|e| e.to_string())?,
    );
    std::fs::write(
        &path,
        serde_json::to_string(&Value::Object(doc)).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        close_steps: walked.close_steps,
        days: s.days,
    })
}

/// Runs one workload and prints its lines, its JSON document and the
/// driver's result line.
fn report_workload(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let name = workload::name_of(kind);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {name} seed {seed} seconds {seconds} trace {} cores {cores}",
        u8::from(trace)
    );
    let (started, steal0) = (Instant::now(), stats::steal_seconds());
    let out = run_workload(kind, sizes, seed, seconds, trace)?;
    let took = started.elapsed().as_secs_f64();
    // How much of the machine other guests took meanwhile: above a few
    // percent, distrust the run.
    let steal = (stats::steal_seconds() - steal0) / (took * cores as f64);
    println!(
        "# {} day segments, {took:.1} s in all, steal {:.1} % of {cores} cores",
        out.days,
        100.0 * steal
    );
    report::print_metrics(&out.metrics);
    if !out.close_steps.is_empty() {
        println!(
            "# close steps of the layer walk, ms per window, beside stream.close_ms_per_window:"
        );
        for (step, ms) in &out.close_steps {
            println!("#   {step:<24} {ms:>10.3}");
        }
    }
    let mut doc = Map::new();
    doc.insert("workload".into(), Value::String(name.into()));
    doc.insert("seed".into(), Value::U64(seed));
    doc.insert("seconds".into(), Value::F64(seconds));
    doc.insert("trace".into(), Value::Bool(trace));
    doc.insert("cores".into(), Value::U64(cores as u64));
    doc.insert("day_segments".into(), Value::U64(u64::from(out.days)));
    doc.insert(
        "samples".into(),
        Value::Object(
            out.metrics
                .iter()
                .map(|m| (m.name.to_owned(), Value::U64(m.samples as u64)))
                .collect(),
        ),
    );
    println!(
        "{}",
        serde_json::to_string(&Value::Object(doc)).map_err(|e| e.to_string())?
    );
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(true));
    line.insert("attempted".into(), Value::U64(out.attempted));
    line.insert("failed".into(), Value::U64(out.failed));
    line.insert("metrics".into(), report::metrics_json(&out.metrics));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).map_err(|e| e.to_string())?
    );
    Ok(out)
}

/// Parsed command-line options shared by `run` and `repeat`.
struct Options {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut name = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{what} needs a value"));
        match a.as_str() {
            "--workload" => name = Some(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // Bare `--trace`, or the driver's `--trace 0|1`.
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other if !other.starts_with('-') && name.is_none() => name = Some(other.to_owned()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    o.workloads = match name.as_deref() {
        None | Some("all") => WORKLOADS.iter().map(|w| w.1).collect(),
        Some(n) => vec![workload::kind_of(n).ok_or(format!("unknown workload {n}"))?],
    };
    Ok(o)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    report::check_contract(&report::load_contract()?)?;
    if let [kind] = o.workloads[..] {
        report_workload(kind, &workload::FULL, o.seed, o.seconds, o.trace)?;
    } else {
        for kind in o.workloads {
            run_in_child(kind, o.seed, o.seconds, o.trace)?;
        }
    }
    Ok(())
}

/// Tiny sizes, every workload, untraced then traced: every metric the
/// contract names must be reported exactly once, finite, with its unit
/// (`assemble` enforces it), and every output check must pass.
fn cmd_check() -> Result<(), String> {
    report::check_contract(&report::load_contract()?)?;
    for (_, kind, _) in WORKLOADS {
        for trace in [false, true] {
            report_workload(kind, &workload::CHECK, 7, 0.05, trace)?;
        }
    }
    println!("# check passed");
    Ok(())
}

/// One run in a process of its own, as the driver makes them (a fresh
/// heap, and a `VmHWM` that starts over): passes its output through and
/// returns its result line.
fn run_in_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["run", "--workload", workload::name_of(kind)])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("the run on seed {seed} failed"));
    }
    serde_json::from_str(stdout.lines().last().unwrap_or(""))
        .map_err(|e| format!("result line: {e}"))
}

fn cmd_repeat(args: &[String]) -> Result<(), String> {
    let n: usize = args
        .first()
        .and_then(|a| a.parse().ok())
        .filter(|&n| n >= 1)
        .ok_or("repeat needs a run count")?;
    let o = parse_options(&args[1..])?;
    report::check_contract(&report::load_contract()?)?;
    let mut repeats: report::Repeats = Vec::new();
    for kind in o.workloads {
        let mut columns: Vec<(String, Vec<f64>)> = END_TO_END
            .iter()
            .map(|m| (m.0.to_owned(), Vec::new()))
            .collect();
        for i in 0..n {
            let line = run_in_child(kind, o.seed + i as u64, o.seconds, false)?;
            for column in &mut columns {
                let value = report::result_value(&line, &column.0)
                    .ok_or(format!("result line lacks {}", column.0))?;
                column.1.push(value);
            }
        }
        repeats.push((workload::name_of(kind).to_owned(), columns));
    }
    report::print_repeats(&repeats);
    let dir = report::benchmark_dir().join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("repeat-{}.json", std::process::id()));
    std::fs::write(
        &path,
        serde_json::to_string(&report::repeats_json(&repeats)).map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# repeat written to {}", path.display());
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("compare needs two repeat files".into());
    };
    if report::compare(Path::new(a), Path::new(b))? {
        println!("# compare passed");
        Ok(())
    } else {
        Err("compare: a metric got worse by more than its bound".into())
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("check") => cmd_check(),
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    if let Err(e) = result {
        eprintln!("mt-benchmark: {e}");
        std::process::exit(1);
    }
}
