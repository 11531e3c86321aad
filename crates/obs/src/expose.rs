//! Snapshot exposition: Prometheus text format and a JSON value tree.

use crate::registry::{Sample, SampleValue, Snapshot};
use serde::{Map, Value};
use std::fmt::Write as _;

/// Appends a label value escaped per the text exposition format:
/// backslash, double quote and newline.
fn push_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// HELP text escaping per the text exposition format: only backslash
/// and newline are escaped (quotes are legal in HELP, unlike labels).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Appends `k1="v1",k2="v2"` (values escaped, no braces) to `out`.
fn push_labels(out: &mut String, labels: &[(String, String)]) {
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push('"');
    }
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` / `# TYPE` headers once per metric name,
/// one line per series, histograms expanded to cumulative
/// `_bucket{le=...}` lines plus `_sum` and `_count`.
///
/// Each series' label list is escaped once into a reused buffer; every
/// line of the series, each `_bucket` line included, appends it and
/// its own value in place.
pub fn render_prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut labels = String::new();
    let mut last_name: Option<&str> = None;
    for s in &snapshot.samples {
        if last_name != Some(s.name.as_str()) {
            if !s.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
            }
            let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind().as_str());
            last_name = Some(s.name.as_str());
        }
        labels.clear();
        push_labels(&mut labels, &s.labels);
        let (open, close) = if labels.is_empty() {
            ("", "")
        } else {
            ("{", "}")
        };
        let name = &s.name;
        match &s.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{open}{labels}{close} {v}");
            }
            SampleValue::Histogram(h) => {
                let sep = if labels.is_empty() { "" } else { "," };
                let mut cumulative = 0u64;
                for (i, count) in h.buckets.iter().enumerate() {
                    cumulative += count;
                    let _ = match h.bounds.get(i) {
                        Some(b) => {
                            writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{b}\"}} {cumulative}")
                        }
                        None => writeln!(
                            out,
                            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
                        ),
                    };
                }
                let _ = writeln!(out, "{name}_sum{open}{labels}{close} {}", h.sum);
                let _ = writeln!(out, "{name}_count{open}{labels}{close} {}", h.count);
            }
        }
    }
    out
}

fn sample_json(s: &Sample) -> Value {
    let mut obj = Map::new();
    obj.insert("name".into(), Value::String(s.name.clone()));
    obj.insert("kind".into(), Value::String(s.value.kind().as_str().into()));
    let mut labels = Map::new();
    for (k, v) in &s.labels {
        labels.insert(k.clone(), Value::String(v.clone()));
    }
    obj.insert("labels".into(), Value::Object(labels));
    match &s.value {
        SampleValue::Counter(v) | SampleValue::Gauge(v) => {
            obj.insert("value".into(), Value::U64(*v));
        }
        SampleValue::Histogram(h) => {
            let mut cumulative = 0u64;
            let buckets: Vec<Value> = h
                .buckets
                .iter()
                .enumerate()
                .map(|(i, count)| {
                    cumulative += count;
                    let mut b = Map::new();
                    let le = match h.bounds.get(i) {
                        Some(bound) => bound.to_string(),
                        None => "+Inf".to_owned(),
                    };
                    b.insert("le".into(), Value::String(le));
                    b.insert("count".into(), Value::U64(cumulative));
                    Value::Object(b)
                })
                .collect();
            obj.insert("buckets".into(), Value::Array(buckets));
            obj.insert("sum".into(), Value::U64(h.sum));
            obj.insert("count".into(), Value::U64(h.count));
        }
    }
    if !s.help.is_empty() {
        obj.insert("help".into(), Value::String(s.help.clone()));
    }
    Value::Object(obj)
}

/// Renders a snapshot as a JSON value tree:
/// `{"metrics": [{name, kind, labels, value|buckets+sum+count, help}]}`,
/// in the snapshot's deterministic `(name, labels)` order.
pub fn to_json(snapshot: &Snapshot) -> Value {
    let mut root = Map::new();
    root.insert(
        "metrics".into(),
        Value::Array(snapshot.samples.iter().map(sample_json).collect()),
    );
    Value::Object(root)
}

#[cfg(test)]
mod tests {
    use super::escape_help;
    use crate::registry::{HistogramSample, Sample, SampleValue, Snapshot};
    use crate::MetricsRegistry;
    use std::fmt::Write as _;

    fn escape_label_value(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out
    }

    fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{}\"", escape_label_value(v)));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    }

    /// The renderer that rebuilt and re-escaped a series' whole label
    /// block for every line it wrote: the oracle for the byte output.
    fn oracle_render(snapshot: &Snapshot) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &snapshot.samples {
            if last_name != Some(s.name.as_str()) {
                if !s.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", s.name, escape_help(&s.help));
                }
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.value.kind().as_str());
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", s.name, label_block(&s.labels, None), v);
                }
                SampleValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, count) in h.buckets.iter().enumerate() {
                        cumulative += count;
                        let le = match h.bounds.get(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_owned(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            label_block(&s.labels, Some(("le", &le))),
                            cumulative
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        s.name,
                        label_block(&s.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        s.name,
                        label_block(&s.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }

    #[test]
    fn rendering_is_byte_identical_to_the_per_line_oracle() {
        let labels = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_owned(), v.to_owned()))
                .collect()
        };
        let histogram = |bounds: Vec<u64>| {
            let buckets: Vec<u64> = (0..=bounds.len() as u64).map(|i| i * 3 + 1).collect();
            HistogramSample {
                sum: 12_345,
                count: buckets.iter().sum(),
                bounds,
                buckets,
            }
        };
        let sample = |name: &str, l: &[(&str, &str)], help: &str, value: SampleValue| Sample {
            name: name.to_owned(),
            labels: labels(l),
            help: help.to_owned(),
            value,
        };
        let tricky = "a\"b\\c\nd,e=}{";
        let snapshot = Snapshot {
            samples: vec![
                sample(
                    "mt_a_total",
                    &[],
                    "plain \\ help\nwith \"quotes\"",
                    SampleValue::Counter(7),
                ),
                sample(
                    "mt_b_total",
                    &[("exporter", "udp:1.2.3.4")],
                    "",
                    SampleValue::Counter(0),
                ),
                sample(
                    "mt_b_total",
                    &[("exporter", tricky)],
                    "",
                    SampleValue::Counter(u64::MAX),
                ),
                sample(
                    "mt_c",
                    &[("loop", "0"), ("kind", tricky)],
                    "g",
                    SampleValue::Gauge(3),
                ),
                sample(
                    "mt_d_nanoseconds",
                    &[],
                    "no labels",
                    SampleValue::Histogram(histogram(vec![10, 100, 1_000])),
                ),
                sample(
                    "mt_e_nanoseconds",
                    &[("step", "build")],
                    "one label",
                    SampleValue::Histogram(histogram((0..23).map(|i| 1u64 << (i + 8)).collect())),
                ),
                sample(
                    "mt_e_nanoseconds",
                    &[("step", tricky), ("shard", "\n")],
                    "one label",
                    SampleValue::Histogram(histogram(vec![])),
                ),
            ],
        };
        assert_eq!(snapshot.render_prometheus_text(), oracle_render(&snapshot));

        let reg = MetricsRegistry::new();
        reg.counter_with("mt_x_total", &[("name", tricky)], "x")
            .add(2);
        reg.histogram_with("mt_y_nanoseconds", &[("step", tricky)], &[5, 50], "y")
            .observe(7);
        reg.histogram("mt_z_nanoseconds", &[5], "").observe(1);
        let snapshot = reg.snapshot();
        assert_eq!(snapshot.render_prometheus_text(), oracle_render(&snapshot));
    }

    #[test]
    fn text_format_shape() {
        let reg = MetricsRegistry::new();
        reg.counter_with("mt_flows_total", &[("exporter", "A")], "flows decoded")
            .add(7);
        reg.gauge("mt_queue_depth", "current depth").set(3);
        let h = reg.histogram("mt_run_nanoseconds", &[10, 100], "run time");
        h.observe(5);
        h.observe(500);
        let text = reg.snapshot().render_prometheus_text();
        assert!(text.contains("# HELP mt_flows_total flows decoded\n"));
        assert!(text.contains("# TYPE mt_flows_total counter\n"));
        assert!(text.contains("mt_flows_total{exporter=\"A\"} 7\n"));
        assert!(text.contains("# TYPE mt_queue_depth gauge\n"));
        assert!(text.contains("mt_queue_depth 3\n"));
        assert!(text.contains("mt_run_nanoseconds_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("mt_run_nanoseconds_bucket{le=\"100\"} 1\n"));
        assert!(text.contains("mt_run_nanoseconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("mt_run_nanoseconds_sum 505\n"));
        assert!(text.contains("mt_run_nanoseconds_count 2\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter_with("mt_x_total", &[("name", "a\"b\\c\nd")], "")
            .inc();
        let text = reg.snapshot().render_prometheus_text();
        assert!(text.contains("mt_x_total{name=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn json_round_trips_through_serde_json() {
        let reg = MetricsRegistry::new();
        reg.counter_with("mt_flows_total", &[("exporter", "B")], "flows")
            .add(2);
        reg.histogram("mt_t_nanoseconds", &[10], "t").observe(4);
        let json = reg.snapshot().to_json();
        let text = serde_json::to_string(&json).expect("serializes");
        let back = serde_json::from_str::<serde::Value>(&text).expect("parses back");
        assert_eq!(json, back);
        let serde::Value::Object(root) = &json else {
            panic!("expected object");
        };
        let serde::Value::Array(metrics) = root.get("metrics").unwrap() else {
            panic!("expected array");
        };
        assert_eq!(metrics.len(), 2);
    }
}
