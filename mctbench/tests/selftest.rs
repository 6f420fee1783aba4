//! Short-mode self-test: each workload prints every metric that
//! `BENCHMARK.json` names, with its unit, and passes its output checks.
//!
//! Run with `cargo test --release --manifest-path mctbench/Cargo.toml`.

use mct_serve::json::Json;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark and returns its stdout lines and parsed result line.
fn run(args: &[&str]) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_mctbench"))
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let last = lines.last().expect("a result line");
    (
        lines.clone(),
        Json::parse(last).expect("result line is JSON"),
    )
}

fn check(workload: &str, trace: &str, list: &str) {
    let args = [
        "--workload",
        workload,
        "--short",
        "--seconds",
        "0",
        "--trace",
        trace,
    ];
    let (lines, result) = run(&args);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{lines:#?}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_i64),
        Some(0),
        "{lines:#?}"
    );
    assert!(result.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let declared = manifest();
    let declared = declared
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list");
    assert_eq!(metrics.len(), declared.len(), "metric count for {list}");
    for m in declared {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        let got = metrics
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            got.1.get("unit").and_then(Json::as_str),
            Some(unit),
            "{name}"
        );
        let value = got
            .1
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        if list == "end_to_end" {
            assert!(value > 0.0, "{workload}: {name} = {value}");
            assert!(lines
                .iter()
                .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(unit)));
        }
    }
    let compared = lines
        .iter()
        .find(|l| l.contains("compared with the stored outputs"))
        .expect("golden check line");
    assert!(!compared.starts_with("checks: 0 "), "{compared}");
    assert!(
        lines.iter().any(|l| l.ends_with(" 0 mismatches")),
        "{lines:#?}"
    );
}

#[test]
fn ladder_short() {
    check("ladder", "0", "end_to_end");
    check("ladder", "1", "per_layer");
}

#[test]
fn sigma_short() {
    check("sigma", "0", "end_to_end");
    check("sigma", "1", "per_layer");
}

#[test]
fn serve_short() {
    check("serve", "0", "end_to_end");
    check("serve", "1", "per_layer");
}

/// A row that outlives the pass limit is killed and counted as failed,
/// and the run still ends with a result line.
#[test]
fn watchdog_kills_a_slow_row() {
    let args = [
        "--workload",
        "ladder",
        "--seconds",
        "0",
        "--pass-limit",
        "1",
    ];
    let (_, result) = run(&args);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(result.get("failed").and_then(Json::as_i64).unwrap_or(0) >= 1);
}
