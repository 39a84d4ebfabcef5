//! The benchmark's own tests, at smoke length: every workload prints
//! every metric `BENCHMARK.json` declares, with its unit, and passes its
//! correctness checks; a corrupted recorded digest makes them fail.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object where {key} was expected"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `name → unit` of one metric section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    items(field(&benchmark_json(), section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_owned(),
                text(field(m, "unit")).to_owned(),
            )
        })
        .collect()
}

/// Run the benchmark; return (exit success, stdout, parsed last line).
fn run(args: &[&str]) -> (bool, String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_cellfi-perfbench"))
        .args(args)
        .args([
            "--smoke",
            "--seconds",
            "0",
            "--out",
            env!("CARGO_TARGET_TMPDIR"),
        ])
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    let result = serde_json::from_str(&last)
        .unwrap_or_else(|e| panic!("last line is not JSON ({e:?}):\n{stdout}"));
    (out.status.success(), stdout, result)
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let bench = benchmark_json();
    for w in items(field(&bench, "workloads")) {
        let name = text(field(w, "name"));
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout, result) = run(&["--workload", name, "--trace", trace]);
            assert!(ok, "{name} --trace {trace} failed:\n{stdout}");
            let Value::Object(top) = &result else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{stdout}");
            assert_eq!(field(&result, "failed"), &Value::Number(0.0));
            let Value::Number(attempted) = field(&result, "attempted") else {
                panic!("attempted is not a number")
            };
            assert!(*attempted >= 1.0);

            let Value::Object(metrics) = field(&result, "metrics") else {
                panic!("metrics is not an object")
            };
            let want = declared(section);
            assert_eq!(
                metrics.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{name} --trace {trace}"
            );
            for (metric, unit) in &want {
                let m = &metrics[metric];
                assert_eq!(text(field(m, "unit")), unit, "{name}: unit of {metric}");
                let Value::Number(v) = field(m, "value") else {
                    panic!("{name}: {metric} has no numeric value")
                };
                assert!(v.is_finite(), "{name}: {metric} = {v}");
                if section == "end_to_end" {
                    assert!(*v > 0.0, "{name}: end-to-end {metric} = {v}");
                }
                assert!(
                    stdout.contains(&format!("# metric {metric} = ")),
                    "{name}: {metric} missing from the # lines"
                );
            }
            assert!(stdout.contains("# metric check_fail_ratio = 0 ratio"));
            for key in [
                "seed",
                "nproc",
                "threads",
                "git_revision",
                "reps",
                "op_samples",
            ] {
                assert!(
                    stdout.contains(&format!("# {key} = ")),
                    "{name}: provenance {key} missing"
                );
            }
        }
    }
}

#[test]
fn corrupted_digest_fails_the_checks() {
    let recorded = include_str!("../digests.txt");
    let line = recorded
        .lines()
        .find(|l| l.starts_with("paper_8x6 smoke "))
        .expect("a recorded paper_8x6 smoke digest");
    let (prefix, digest) = line.rsplit_once(' ').expect("four fields");
    let flipped: String = digest
        .chars()
        .map(|c| if c == '0' { '1' } else { '0' })
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupted_digests.txt");
    std::fs::write(&path, format!("{prefix} {flipped}\n")).expect("write the corrupted digests");

    let path = path.to_str().expect("utf-8 path");
    let (ok, stdout, result) = run(&["--workload", "paper_8x6", "--digests", path]);
    assert!(!ok, "a corrupted digest must fail the run:\n{stdout}");
    assert_eq!(field(&result, "correct"), &Value::Bool(false));
    assert_eq!(field(&result, "failed"), &Value::Number(1.0));
    assert!(stdout.contains(&format!(
        "# CHECK FAILED: digest {digest} != recorded {flipped}"
    )));

    let (ok, stdout, _) = run(&["--workload", "paper_8x6"]);
    assert!(ok, "the recorded digest must pass:\n{stdout}");
}
