//! Metric lists, printing, the `BENCHMARK.json` contract, and the
//! `repeat` / `compare` modes.

use crate::stats::{median, quartiles, spread};
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value (a median where `samples > 1`).
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// The end-to-end metrics: `(name, unit, better)`. `setup_s` is part
/// of the driver's contract; the rest are what a user of the daemon
/// sees.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("flows_per_s", "flows/s", "higher"),
    ("window_ready_ms", "ms", "lower"),
    ("query_p50_us", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The per-layer metrics of the traced run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 68] = [
    ("serve.ingest_push_p50_ns", "ns", "lower"),
    ("serve.ingest_push_p99_ns", "ns", "lower"),
    ("serve.loop_events_per_kflow", "count", "lower"),
    ("serve.sys_cpu_share", "ratio", "lower"),
    ("serve.http_overhead_us", "us", "lower"),
    ("serve.window_persisted_ms", "ms", "lower"),
    ("serve.query_p99_us", "us", "lower"),
    ("serve.queries_per_s", "1/s", "higher"),
    ("serve.drain_s", "s", "lower"),
    ("serve.bind_ms", "ms", "lower"),
    ("wire.decode_ns_per_record", "ns", "lower"),
    ("wire.encode_ns_per_record", "ns", "lower"),
    ("wire.bytes_per_record", "B", "lower"),
    ("stream.collector_feed_ns_per_record", "ns", "lower"),
    ("stream.gate_ns_per_record", "ns", "lower"),
    ("stream.queue_handoff_ns_per_batch", "ns", "lower"),
    ("stream.pool_cycle_ns", "ns", "lower"),
    ("stream.push_chunk_ns_per_record", "ns", "lower"),
    ("stream.inproc_flows_per_s", "flows/s", "higher"),
    ("stream.close_ms_per_window", "ms", "lower"),
    ("stream.queue_high_water", "count", "lower"),
    ("stream.backpressure_records", "count", "lower"),
    ("stream.late_share", "ratio", "lower"),
    ("flow.from_ipfix_ns_per_record", "ns", "lower"),
    ("flow.fold_map_ns_per_record", "ns", "lower"),
    ("flow.fold_columnar_ns_per_record", "ns", "lower"),
    ("flow.merge_ms_per_window", "ms", "lower"),
    ("flow.bytes_per_block", "B", "lower"),
    ("core.pipeline_ms_per_window", "ms", "lower"),
    ("core.pipeline_serial_ms_per_window", "ms", "lower"),
    ("core.stage_ms.tcp", "ms", "lower"),
    ("core.stage_ms.avg_size", "ms", "lower"),
    ("core.stage_ms.clean_origin", "ms", "lower"),
    ("core.stage_ms.special", "ms", "lower"),
    ("core.stage_ms.routed", "ms", "lower"),
    ("core.stage_ms.volume", "ms", "lower"),
    ("core.combine_ms_per_window", "ms", "lower"),
    ("store.build_ms_per_window", "ms", "lower"),
    ("store.encode_ms_per_window", "ms", "lower"),
    ("store.write_window_ms", "ms", "lower"),
    ("store.summary_merge_ms", "ms", "lower"),
    ("store.write_summary_ms", "ms", "lower"),
    ("store.apply_window_ms", "ms", "lower"),
    ("store.decode_ms_per_window", "ms", "lower"),
    ("store.cold_load_ms", "ms", "lower"),
    ("store.point_ns", "ns", "lower"),
    ("store.range_us", "us", "lower"),
    ("store.window_bytes", "B", "lower"),
    ("store.summary_bytes", "B", "lower"),
    ("store.bytes_per_record", "B", "lower"),
    ("obs.snapshot_us", "us", "lower"),
    ("obs.render_us", "us", "lower"),
    ("obs.counter_inc_ns", "ns", "lower"),
    ("types.rib_lookup_ns", "ns", "lower"),
    ("types.slot_of_ns", "ns", "lower"),
    ("traffic.generate_s_per_day", "s", "lower"),
    ("netmodel.generate_s", "s", "lower"),
    ("alloc.count_per_kflow", "count", "lower"),
    ("alloc.bytes_per_kflow", "B", "lower"),
    ("alloc.count_per_window_close", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.close_steps_ms_per_window", "ms", "lower"),
    ("trace.producer_share", "ratio", "higher"),
    ("trace.close_share", "ratio", "lower"),
    ("trace.flows_per_s", "flows/s", "higher"),
    ("trace.cpu_s_per_mflow", "s", "lower"),
    ("trace.window_ready_ms", "ms", "lower"),
    ("trace.query_p50_us", "us", "lower"),
];

/// Builds the metric vector for `list` from `(name, value, samples)`
/// triples, in the list's order; a name missing from `values` or one
/// not in the list is an error.
pub fn assemble(
    list: &[(&'static str, &'static str, &str)],
    values: &[(&str, f64, usize)],
) -> Result<Vec<Metric>, String> {
    for v in values {
        if !list.iter().any(|m| m.0 == v.0) {
            return Err(format!("metric {} is measured but not declared", v.0));
        }
    }
    list.iter()
        .map(|&(name, unit, _)| {
            let mut hits = values.iter().filter(|v| v.0 == name);
            match (hits.next(), hits.next()) {
                (Some(&(_, value, samples)), None) if value.is_finite() => Ok(Metric {
                    name,
                    value,
                    unit,
                    samples,
                }),
                (Some(&(_, value, _)), None) => {
                    Err(format!("metric {name} is not finite: {value}"))
                }
                (None, _) => Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => Err(format!("metric {name} was measured twice")),
            }
        })
        .collect()
}

/// Prints metrics as `name value unit n=samples` lines.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {} n={}", m.name, m.value, m.unit, m.samples);
    }
}

/// The `metrics` object of the driver's result line.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut o = Map::new();
                o.insert("value".into(), Value::F64(m.value));
                o.insert("unit".into(), Value::String(m.unit.into()));
                (m.name.to_owned(), Value::Object(o))
            })
            .collect(),
    )
}

/// The value of metric `name` in a result line.
pub fn result_value(line: &Value, name: &str) -> Option<f64> {
    object(object(object(line)?.get("metrics")?)?.get(name)?)?
        .get("value")?
        .as_f64()
}

/// The benchmark package's own directory.
pub fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, at the root of the checkout, parsed.
pub fn load_contract() -> Result<Value, String> {
    let path = benchmark_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn object(v: &Value) -> Option<&Map> {
    match v {
        Value::Object(m) => Some(m),
        _ => None,
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match object(v).and_then(|m| m.get(key)) {
        Some(Value::Array(a)) => a,
        _ => &[],
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    object(v)
        .and_then(|m| m.get(key))
        .and_then(Value::as_str)
        .unwrap_or("")
}

/// Checks that the contract names exactly the workloads and metrics
/// this binary measures, with the same units and directions.
pub fn check_contract(contract: &Value) -> Result<(), String> {
    let names: Vec<&str> = array(contract, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.0).collect();
    if names != ours {
        return Err(format!("BENCHMARK.json workloads {names:?} != {ours:?}"));
    }
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<(&str, &str, &str)> = array(contract, key)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        if declared != list {
            let first = declared
                .iter()
                .zip(list)
                .find(|(a, b)| a != b)
                .map(|(a, b)| format!("{a:?} vs {b:?}"))
                .unwrap_or_else(|| format!("{} vs {} entries", declared.len(), list.len()));
            return Err(format!(
                "BENCHMARK.json {key} differs from the binary: {first}"
            ));
        }
    }
    Ok(())
}

/// `(better, bound)` of an end-to-end metric in the contract.
fn bound_of(contract: &Value, name: &str) -> Option<(bool, f64)> {
    array(contract, "end_to_end")
        .iter()
        .find(|m| text(m, "name") == name)
        .and_then(|m| {
            let bound = object(m)?.get("bound")?.as_f64()?;
            Some((text(m, "better") == "higher", bound))
        })
}

/// Values of one `repeat`: workload → metric → one value per run.
pub type Repeats = Vec<(String, Vec<(String, Vec<f64>)>)>;

/// Prints median, quartiles and spread per metric and workload.
pub fn print_repeats(repeats: &Repeats) {
    for (workload, metrics) in repeats {
        println!("== {workload}");
        println!(
            "{:<18} {:>14} {:>14} {:>14} {:>8}  n",
            "metric", "q1", "median", "q3", "spread"
        );
        for (name, values) in metrics {
            if values.len() < 2 {
                println!(
                    "{name:<18} {:>14} {:>14.6} {:>14} {:>8}  {}",
                    "-",
                    median(values),
                    "-",
                    "-",
                    values.len()
                );
                continue;
            }
            let [q1, q2, q3] = quartiles(values);
            println!(
                "{name:<18} {q1:>14.6} {q2:>14.6} {q3:>14.6} {:>7.2}%  {}",
                100.0 * spread(values),
                values.len()
            );
        }
    }
}

/// Serialises a `repeat` for `compare`.
pub fn repeats_json(repeats: &Repeats) -> Value {
    Value::Object(
        repeats
            .iter()
            .map(|(w, metrics)| {
                let m = metrics
                    .iter()
                    .map(|(n, vs)| {
                        (
                            n.clone(),
                            Value::Array(vs.iter().map(|&v| Value::F64(v)).collect()),
                        )
                    })
                    .collect();
                (w.clone(), Value::Object(m))
            })
            .collect(),
    )
}

fn load_repeats(path: &Path) -> Result<Repeats, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let top = object(&v).ok_or_else(|| format!("{}: not an object", path.display()))?;
    Ok(top
        .iter()
        .map(|(w, metrics)| {
            let metrics = object(metrics)
                .map(|m| {
                    m.iter()
                        .map(|(n, vs)| {
                            let vs = match vs {
                                Value::Array(a) => a.iter().filter_map(Value::as_f64).collect(),
                                _ => Vec::new(),
                            };
                            (n.clone(), vs)
                        })
                        .collect()
                })
                .unwrap_or_default();
            (w.clone(), metrics)
        })
        .collect())
}

/// Applies the contract's bounds to two `repeat` files: `b`'s median
/// may be worse than `a`'s by at most the bound, for every pairing of
/// metric and workload. Returns whether every pairing passed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let contract = load_contract()?;
    let (ra, rb) = (load_repeats(a)?, load_repeats(b)?);
    let mut pass = true;
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "median a", "median b", "worse", "bound"
    );
    for (workload, metrics) in &ra {
        let other = rb.iter().find(|w| &w.0 == workload).map(|w| &w.1);
        for (name, va) in metrics {
            let Some((higher_better, bound)) = bound_of(&contract, name) else {
                continue;
            };
            let Some(vb) = other
                .and_then(|m| m.iter().find(|x| &x.0 == name))
                .map(|x| &x.1)
            else {
                println!("{workload:<20} {name:<18} missing from {}", b.display());
                pass = false;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = if higher_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let ok = worse <= bound;
            pass &= ok;
            println!(
                "{workload:<20} {name:<18} {ma:>14.6} {mb:>14.6} {:>7.2}% {:>6.1}% {}",
                100.0 * worse,
                100.0 * bound,
                if ok { "ok" } else { "REGRESSED" }
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_wants_each_declared_metric_once() {
        let list = [("a", "s", "lower"), ("b", "ms", "lower")];
        let ok = assemble(&list, &[("b", 2.0, 3), ("a", 1.0, 1)]).unwrap();
        assert_eq!((ok[0].name, ok[1].unit, ok[1].samples), ("a", "ms", 3));
        assert!(assemble(&list, &[("a", 1.0, 1)]).is_err());
        assert!(assemble(&list, &[("a", 1.0, 1), ("a", 1.0, 1), ("b", 1.0, 1)]).is_err());
        assert!(assemble(&list, &[("a", 1.0, 1), ("b", 1.0, 1), ("c", 1.0, 1)]).is_err());
        assert!(assemble(&list, &[("a", f64::NAN, 1), ("b", 1.0, 1)]).is_err());
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_limits() {
        let fits = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                fits(name, 64, "_.-") && name.as_bytes()[0].is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(fits(unit, 16, "_/%.-"), "{unit}");
            assert!(["higher", "lower"].contains(better));
            assert!(seen.insert(name), "{name} twice");
        }
    }
}
