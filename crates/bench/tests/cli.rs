//! Black-box tests of the `mct` binary: exit codes and stderr on failure,
//! `--json` output, and the full serve → query → query loop over a real
//! socket with a cache hit on the second query.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

use mct_serve::json::Json;

fn mct() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mct"))
}

fn fig2_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/fig2.bench")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn no_arguments_fails_with_usage() {
    let output = mct().output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("usage"));
}

#[test]
fn missing_netlist_path_fails_with_error_on_stderr() {
    let output = mct()
        .args(["analyze", "/no/such/dir/missing.bench"])
        .output()
        .unwrap();
    assert!(!output.status.success(), "missing file must exit non-zero");
    let err = stderr_of(&output);
    assert!(err.contains("error:"), "stderr was: {err}");
    assert!(err.contains("missing.bench"), "stderr was: {err}");
}

#[test]
fn malformed_bench_fails_with_error_on_stderr() {
    let path = std::env::temp_dir().join(format!("mct-cli-bad-{}.bench", std::process::id()));
    std::fs::write(&path, "INPUT(a)\nb = FROB(a)\n").unwrap();
    let output = mct().arg("analyze").arg(&path).output().unwrap();
    std::fs::remove_file(&path).ok();
    assert!(!output.status.success(), "parse error must exit non-zero");
    assert!(stderr_of(&output).contains("error:"));
}

#[test]
fn unknown_command_and_flag_fail() {
    let output = mct().arg("frobnicate").output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("unknown command"));

    let output = mct().args(["analyze", "--frobnicate"]).output().unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("unknown flag"));
}

#[test]
fn removed_reordering_knobs_are_usage_errors() {
    let output = mct()
        .args(["analyze", "--order", "sift"])
        .arg(fig2_path())
        .output()
        .unwrap();
    assert!(!output.status.success(), "--order sift must exit non-zero");
    let err = stderr_of(&output);
    assert!(
        err.contains("--order needs alloc|static"),
        "stderr was: {err}"
    );

    let output = mct()
        .args(["analyze", "--reorder-schedule", "adaptive"])
        .arg(fig2_path())
        .output()
        .unwrap();
    assert!(
        !output.status.success(),
        "--reorder-schedule must exit non-zero"
    );
    let err = stderr_of(&output);
    assert!(
        err.contains("unknown flag `--reorder-schedule`"),
        "stderr was: {err}"
    );
}

#[test]
fn query_against_no_server_fails_cleanly() {
    let output = mct()
        .args(["query", "--ping", "--connect", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(stderr_of(&output).contains("error:"));
}

#[test]
fn analyze_json_emits_a_parsable_report() {
    let output = mct()
        .args(["analyze", "--fixed", "--json"])
        .arg(fig2_path())
        .output()
        .unwrap();
    assert!(output.status.success(), "stderr: {}", stderr_of(&output));
    let report = Json::parse(stdout_of(&output).trim()).expect("stdout is JSON");
    assert!(
        report
            .get("mct_upper_bound")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert_eq!(
        report
            .get("bound_exact")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(2)
    );
    assert_eq!(report.get("timed_out").and_then(Json::as_bool), Some(false));
    let kernel = report.get("kernel").expect("kernel diagnostics");
    assert!(kernel.get("peak_nodes").is_some());
    assert!(kernel.get("reorder_swaps").is_none());
}

/// Kills the serve child if a test assertion unwinds first.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_then_query_twice_hits_the_cache_and_shuts_down() {
    let mut child = mct()
        .args(["serve", "--listen", "127.0.0.1:0", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mct serve");
    let stdout = child.stdout.take().expect("serve stdout");
    let mut guard = ServeGuard(child);

    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read serve banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_owned();

    let query = |extra: &[&str]| {
        let mut cmd = mct();
        cmd.args(["query", "--connect", &addr, "--fixed", "--json"]);
        cmd.args(extra);
        cmd.arg(fig2_path());
        let output = cmd.output().unwrap();
        assert!(output.status.success(), "stderr: {}", stderr_of(&output));
        Json::parse(stdout_of(&output).trim()).expect("query output is JSON")
    };

    let first = query(&[]);
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let second = query(&[]);
    assert_eq!(
        second.get("cache").and_then(Json::as_str),
        Some("hit"),
        "second identical query must be served from the cache"
    );
    assert_eq!(
        first.get("report").unwrap().to_compact(),
        second.get("report").unwrap().to_compact(),
        "cached report must be byte-identical to the cold one"
    );

    let shutdown = mct()
        .args(["query", "--shutdown", "--connect", &addr])
        .output()
        .unwrap();
    assert!(
        shutdown.status.success(),
        "stderr: {}",
        stderr_of(&shutdown)
    );
    let status = guard.0.wait().expect("wait for serve to exit");
    assert!(status.success(), "serve must exit cleanly after shutdown");
}
