//! Every workload, reduced to a 2 000-row table (`--smoke`), runs through
//! the same code path and output checks as the benchmark, and reports
//! exactly the metrics BENCHMARK.json declares.

use std::path::Path;
use std::process::Command;

use codecs::json::{self, Value};

const WORKLOADS: &[&str] = &["scenario_a_tcp", "refetch_tcp", "ingest_embedded"];

fn declared(key: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let doc = json::parse(&text).unwrap();
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one smoke workload from the repository root; returns the parsed
/// last line of its standard output.
fn run(workload: &str, trace: &str) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&root)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().unwrap()).unwrap()
}

fn check(workload: &str, trace: &str, key: &str) {
    let result = run(workload, trace);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() > 0);
    // The reopen after `COPY INTO` cannot replay the WAL: once per plan,
    // and a traced run runs the plan twice.
    let failed = result.get("failed").and_then(Value::as_u64).unwrap();
    let expected = match (workload, trace) {
        ("ingest_embedded", "0") => 1,
        ("ingest_embedded", _) => 2,
        _ => 0,
    };
    assert_eq!(failed, expected, "{workload}");
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    let mut got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let mut want = declared(key);
    got.sort();
    want.sort();
    assert_eq!(got, want, "{workload} --trace {trace}");
}

#[test]
fn every_workload_reports_the_end_to_end_metrics() {
    for w in WORKLOADS {
        check(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_reports_the_per_layer_metrics() {
    for w in WORKLOADS {
        check(w, "1", "per_layer");
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
