//! Drives `mt-benchmark check` (tiny sizes, every workload, untraced
//! then traced) and asserts that every metric `BENCHMARK.json` names is
//! printed exactly once per workload, finite and with its unit.

use serde_json::Value;
use std::process::Command;

fn names_and_units(contract: &Value, key: &str) -> Vec<(String, String)> {
    let Value::Object(top) = contract else {
        panic!("BENCHMARK.json is not an object");
    };
    let Some(Value::Array(list)) = top.get(key) else {
        panic!("BENCHMARK.json has no {key}");
    };
    list.iter()
        .map(|m| {
            let Value::Object(m) = m else {
                panic!("{key} entry is not an object");
            };
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn check_mode_prints_every_contract_metric_once() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let contract: Value = serde_json::from_str(
        &std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("parse BENCHMARK.json");
    let mut expected = names_and_units(&contract, "end_to_end");
    expected.extend(names_and_units(&contract, "per_layer"));
    let workloads = names_and_units(&contract, "workloads");

    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_mt-benchmark"))
        .arg("check")
        .output()
        .expect("run mt-benchmark check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "check failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "check took {:?}",
        started.elapsed()
    );

    // Split the output per workload at its `# workload <name>` headers.
    for (workload, _) in &workloads {
        let lines: Vec<&str> = stdout
            .lines()
            .scan(false, |inside, l| {
                if let Some(rest) = l.strip_prefix("# workload ") {
                    *inside = rest.split(' ').next() == Some(workload.as_str());
                }
                Some((*inside, l))
            })
            .filter_map(|(inside, l)| inside.then_some(l))
            .collect();
        for (name, unit) in &expected {
            let hits: Vec<&&str> = lines
                .iter()
                .filter(|l| l.split(' ').next() == Some(name.as_str()))
                .collect();
            assert_eq!(
                hits.len(),
                1,
                "{workload}: {name} printed {} times",
                hits.len()
            );
            let mut fields = hits[0].split(' ').skip(1);
            let value: f64 = fields
                .next()
                .and_then(|v| v.parse().ok())
                .expect("a number");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert_eq!(
                fields.next(),
                Some(unit.as_str()),
                "{workload}: unit of {name}"
            );
        }
        let failed: Vec<&&str> = lines
            .iter()
            .filter(|l| l.starts_with("failed_share "))
            .collect();
        assert_eq!(failed.len(), 2, "{workload}: failed_share once per mode");
        assert!(
            failed.iter().all(|l| l.starts_with("failed_share 0 ratio")),
            "{workload}: {failed:?}"
        );
    }
    assert!(stdout.contains("# check passed"));
}
