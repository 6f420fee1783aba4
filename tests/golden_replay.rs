//! Golden replay: the analysis reports produced by the suite must stay
//! byte-identical across kernel rewrites. The golden file was captured on
//! the pre-complement-edge BDD kernel; any change to report *content*
//! (as opposed to internal handle values) is a regression.
//!
//! Regenerate with `MCT_BLESS=1 cargo test --test golden_replay` — but only
//! when a report change is intentional and called out in CHANGES.md.

use mct_serve::report::report_to_json;
use mct_suite::core::{MctAnalyzer, MctOptions, SigmaStrategy, VarOrder};
use mct_suite::gen::families;
use mct_suite::netlist::{parse_bench, Circuit, DelayModel};
use std::fmt::Write as _;

const GOLDEN_PATH: &str = "tests/data/golden_reports.tsv";
const SKEW_GOLDEN_PATH: &str = "tests/data/golden_skew_reports.tsv";

fn golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

fn skew_golden_file() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SKEW_GOLDEN_PATH)
}

/// Every circuit in the golden corpus: each `examples/*.bench` netlist plus
/// twenty seeded machines from the random family.
fn corpus() -> Vec<(String, Circuit, MctOptions)> {
    let mut out = Vec::new();
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut benches: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "bench"))
        .collect();
    benches.sort();
    for path in benches {
        let text = std::fs::read_to_string(&path).expect("read bench file");
        let circuit = parse_bench(&text, &DelayModel::Mapped).expect("parse bench file");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, circuit, MctOptions::paper()));
    }
    // Exact delays keep the σ enumeration small enough that every seed
    // completes (mirrors `parallel_determinism.rs`).
    for seed in 0..20u64 {
        let c = families::random_fsm(seed, 3 + (seed as usize % 3), seed as usize % 2, 10);
        out.push((format!("random_fsm/{seed}"), c, MctOptions::fixed_delays()));
    }
    out
}

/// A run that errors (budget caps) must error identically on every kernel,
/// so error text participates in the golden capture too.
fn report_line(circuit: &Circuit, threads: usize, ordering: VarOrder, base: &MctOptions) -> String {
    let opts = MctOptions {
        num_threads: threads,
        ordering,
        ..base.clone()
    };
    let outcome = MctAnalyzer::new(circuit)
        .expect("analyzable circuit")
        .run(&opts);
    match outcome {
        Ok(report) => report_to_json(&report).to_compact(),
        Err(e) => format!("error: {e}"),
    }
}

/// Reports must be identical at 1, 2, and 4 worker threads and under every
/// variable-ordering policy (ordering only changes node counts, never
/// results), and must match the golden capture from the previous kernel
/// byte for byte.
#[test]
fn reports_replay_byte_identical() {
    let mut rendered = String::new();
    for (name, circuit, opts) in corpus() {
        let base = report_line(&circuit, 1, VarOrder::Alloc, &opts);
        for ordering in [VarOrder::Alloc, VarOrder::Static] {
            for threads in [1usize, 2, 4] {
                if (ordering, threads) == (VarOrder::Alloc, 1) {
                    continue;
                }
                let got = report_line(&circuit, threads, ordering, &opts);
                assert_eq!(
                    base, got,
                    "{name}: report at {threads} threads / {ordering:?} ordering \
                     differs from the single-threaded alloc-order run"
                );
            }
        }
        writeln!(rendered, "{name}\t{base}").unwrap();
    }

    let path = golden_file();
    if std::env::var_os("MCT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing; run with MCT_BLESS=1 to capture");
    for (want, got) in golden.lines().zip(rendered.lines()) {
        let name = want.split('\t').next().unwrap_or("?");
        assert_eq!(want, got, "golden replay mismatch for {name}");
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "golden corpus size changed"
    );
}

/// Both σ-enumeration strategies must replay the *existing* golden
/// capture byte for byte, under every ordering policy and thread count.
/// Deliberately never re-blessed: a strategy-only divergence can never be
/// blessed away.
#[test]
fn sigma_strategy_reports_replay_byte_identical() {
    let golden = std::fs::read_to_string(golden_file())
        .expect("golden file missing; run reports_replay_byte_identical with MCT_BLESS=1 first");
    let golden: std::collections::HashMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once('\t')).collect();
    for (name, circuit, opts) in corpus() {
        let want = *golden
            .get(name.as_str())
            .expect("circuit missing from golden file");
        for ordering in [VarOrder::Alloc, VarOrder::Static] {
            for threads in [1usize, 2, 4] {
                for sigma in [SigmaStrategy::Flat, SigmaStrategy::Pruned] {
                    let run = MctOptions {
                        sigma,
                        ..opts.clone()
                    };
                    let got = report_line(&circuit, threads, ordering, &run);
                    assert_eq!(
                        want, got,
                        "{name}: report under {ordering:?} ordering at {threads} threads \
                         with {sigma:?} σ differs from the golden capture"
                    );
                }
            }
        }
    }
}

/// Skew mode (`MctOptions::skew`) has its own golden capture — the skew
/// tier is a *semantic* extension (the report gains a `skew` section and
/// the cache fingerprint changes), so it gets its own file rather than a
/// re-bless of the base goldens, which must stay byte-identical to their
/// pre-skew capture. The skew-mode report must itself be byte-identical
/// across every ordering policy and thread count.
///
/// Regenerate with `MCT_BLESS=1 cargo test --test golden_replay`.
#[test]
fn skew_mode_reports_replay_byte_identical() {
    let mut rendered = String::new();
    for (name, circuit, opts) in corpus() {
        let skew_opts = MctOptions { skew: true, ..opts };
        let base = report_line(&circuit, 1, VarOrder::Alloc, &skew_opts);
        for ordering in [VarOrder::Alloc, VarOrder::Static] {
            for threads in [1usize, 2, 4] {
                if (ordering, threads) == (VarOrder::Alloc, 1) {
                    continue;
                }
                let got = report_line(&circuit, threads, ordering, &skew_opts);
                assert_eq!(
                    base, got,
                    "{name}: skew-mode report at {threads} threads / {ordering:?} \
                     ordering differs from the single-threaded alloc-order run"
                );
            }
        }
        writeln!(rendered, "{name}\t{base}").unwrap();
    }

    let path = skew_golden_file();
    if std::env::var_os("MCT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).expect("write skew golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("skew golden file missing; run with MCT_BLESS=1 to capture");
    for (want, got) in golden.lines().zip(rendered.lines()) {
        let name = want.split('\t').next().unwrap_or("?");
        assert_eq!(want, got, "skew golden replay mismatch for {name}");
    }
    assert_eq!(
        golden.lines().count(),
        rendered.lines().count(),
        "skew golden corpus size changed"
    );
}

/// The cone-decomposed path must reproduce the same golden capture byte
/// for byte — decomposition is an execution strategy, not a semantic
/// change — under every ordering policy and thread count. Deliberately
/// replays against the *existing* golden file: a decomposed-only
/// divergence can never be blessed away.
#[test]
fn decomposed_reports_replay_byte_identical() {
    let golden = std::fs::read_to_string(golden_file())
        .expect("golden file missing; run reports_replay_byte_identical with MCT_BLESS=1 first");
    let golden: std::collections::HashMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once('\t')).collect();
    for (name, circuit, opts) in corpus() {
        let want = *golden
            .get(name.as_str())
            .expect("circuit missing from golden file");
        let base = MctOptions {
            decompose: true,
            ..opts
        };
        for ordering in [VarOrder::Alloc, VarOrder::Static] {
            for threads in [1usize, 2, 4] {
                let got = report_line(&circuit, threads, ordering, &base);
                assert_eq!(
                    want, got,
                    "{name}: decomposed report at {threads} threads / {ordering:?} \
                     ordering differs from the golden monolithic capture"
                );
            }
        }
    }
}
