//! Self-test of the benchmark command at tiny size: every workload, in
//! both the untraced and the traced run, must check its outputs, pass,
//! and print every metric `BENCHMARK.json` names with its unit.

use serde::Value;
use std::process::Command;

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .as_object()
        .and_then(|fields| fields.iter().find(|(key, _)| key == name))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("field `{name}` missing"))
}

fn text(value: &Value) -> &str {
    value.as_str().expect("a string")
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(x) => *x,
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// (name, unit) of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    field(&spec, list)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_owned(),
                text(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_apx_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
    for workload in ["characterize", "repro_cold", "serve_warm"] {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(
                field(&result, "correct"),
                &Value::Bool(true),
                "{workload} trace={trace}"
            );
            assert!(number(field(&result, "attempted")) >= 1.0);
            assert_eq!(number(field(&result, "failed")), 0.0);
            let metrics = field(&result, "metrics");
            let declared = declared(list);
            assert_eq!(
                metrics.as_object().unwrap().len(),
                declared.len(),
                "{workload}"
            );
            for (name, unit) in declared {
                let metric = field(metrics, &name);
                assert_eq!(text(field(metric, "unit")), unit, "{workload}: {name}");
                let value = number(field(metric, "value"));
                assert!(value.is_finite(), "{workload}: {name}");
                if !trace {
                    assert!(value > 0.0, "{workload}: end-to-end {name} is 0");
                }
            }
            if trace {
                let coverage = number(field(field(metrics, "trace.coverage"), "value"));
                assert!(coverage >= 0.9, "{workload}: layer spans cover {coverage}");
            }
        }
    }
}

#[test]
fn malformed_arguments_are_rejected_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "characterize",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "characterize",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_apx_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
