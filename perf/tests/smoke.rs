//! Every workload, traced and untraced, at `--smoke` size: each run must emit
//! exactly the metrics `BENCHMARK.json` names for its mode — each once,
//! finite, with its unit — and nothing else, and report no failed operation.
//!
//! Run with `cargo test --release` (`./check.sh` does): the binary refuses to
//! measure a debug build.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(row: &'a Value, key: &str) -> &'a str {
    row.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("row without `{key}`: {row:?}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// Runs one workload at smoke size and holds its result line to `expected`.
fn check_run(workload: &str, trace: &str, expected: &[Value]) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload, "--seed", "3", "--trace", trace, "--smoke"])
        .output()
        .expect("perf binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("last line is JSON");
    let Value::Object(keys) = &result else { panic!("result is not an object: {last}") };
    let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["correct", "attempted", "failed", "metrics"], "{workload}: result keys");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{workload}: correct");
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0), "{workload}: failed");
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1), "{workload}: attempted");

    let Some(Value::Object(metrics)) = result.get("metrics") else { panic!("no metrics object") };
    for row in expected {
        let name = str_field(row, "name");
        let found: Vec<&Value> =
            metrics.iter().filter(|(k, _)| k == name).map(|(_, v)| v).collect();
        assert_eq!(found.len(), 1, "{workload} --trace {trace}: metric {name} emitted once");
        let value = found[0].get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload}: {name} = {value:?}");
        assert_eq!(found[0].get("unit").and_then(Value::as_str), Some(str_field(row, "unit")));
    }
    for (name, _) in metrics {
        assert!(valid_name(name), "{workload}: metric name `{name}`");
        assert!(
            expected.iter().any(|row| str_field(row, "name") == name),
            "{workload} --trace {trace}: metric {name} is not in BENCHMARK.json"
        );
    }
}

#[test]
fn every_run_emits_exactly_the_named_metrics() {
    let spec = benchmark_json();
    let rows = |key: &str| spec.get(key).and_then(Value::as_array).expect(key).clone();
    let (end_to_end, per_layer) = (rows("end_to_end"), rows("per_layer"));
    assert!(
        end_to_end.iter().any(|r| str_field(r, "name") == "setup_s"),
        "setup_s is an end-to-end metric"
    );
    // One after another: the workloads size their load for the whole box.
    for workload in rows("workloads") {
        let workload = str_field(&workload, "name");
        check_run(workload, "0", &end_to_end);
        check_run(workload, "1", &per_layer);
    }
}
