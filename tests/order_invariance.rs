//! Order invariance: the serialized analysis report is byte-identical
//! under every variable-ordering policy — allocation order and the
//! structural static order — and survives *forced* mid-analysis node
//! relocation (`MCT_BDD_GC_STRESS=1 MCT_BDD_COMPACT_STRESS=1`, which
//! collects and compacts the arena at every boundary).
//!
//! This is the hard correctness bar of the ordering subsystem: variable
//! order may change node counts and wall time, never results. The analyses
//! earn this by comparing canonical function handles only; these tests
//! guard that property end to end, through the parallel sweep and the
//! warm-start path.

use mct_serve::report::report_to_json;
use mct_suite::core::{MctAnalyzer, MctOptions, SigmaStrategy, VarOrder};
use mct_suite::gen::{families, paper_figure2, s27};
use mct_suite::netlist::{Circuit, DelayModel, Time};

const POLICIES: [VarOrder; 2] = [VarOrder::Alloc, VarOrder::Static];

/// The invariance corpus: the paper's Figure 2, the ISCAS'89 s27, and
/// twenty seeded random FSMs (same family parameters as the golden-replay
/// corpus).
fn corpus() -> Vec<(String, Circuit, MctOptions)> {
    let mut out = vec![
        ("fig2".into(), paper_figure2(), MctOptions::paper()),
        ("s27".into(), s27(&DelayModel::Mapped), MctOptions::paper()),
    ];
    for seed in 0..20u64 {
        let c = families::random_fsm(seed, 3 + (seed as usize % 3), seed as usize % 2, 10);
        out.push((format!("random_fsm/{seed}"), c, MctOptions::fixed_delays()));
    }
    out
}

fn serialized(circuit: &Circuit, ordering: VarOrder, threads: usize, base: &MctOptions) -> String {
    let opts = MctOptions {
        ordering,
        num_threads: threads,
        ..base.clone()
    };
    match MctAnalyzer::new(circuit).expect("analyzable").run(&opts) {
        Ok(report) => report_to_json(&report).to_compact(),
        Err(e) => format!("error: {e}"),
    }
}

fn check_corpus(circuits: &[(String, Circuit, MctOptions)], threads: &[usize]) {
    for (name, circuit, opts) in circuits {
        let reference = serialized(circuit, VarOrder::Alloc, 1, opts);
        for &ordering in &POLICIES {
            for &t in threads {
                if (ordering, t) == (VarOrder::Alloc, 1) {
                    continue;
                }
                let got = serialized(circuit, ordering, t, opts);
                assert_eq!(
                    reference, got,
                    "{name}: report under {ordering:?} ordering at {t} threads \
                     differs from the alloc-order sequential run"
                );
            }
        }
    }
}

#[test]
fn reports_identical_across_ordering_policies() {
    check_corpus(&corpus(), &[1, 2, 4]);
}

/// Skew mode runs the optimization tier — the LP binary search, the exact
/// Bellman–Ford certification, and up to two exact sub-sweeps (the zeroed
/// baseline and the witness machine) — and all of it must be just as
/// order- and thread-invariant as the base sweep: byte-identical reports
/// across {alloc, static} × {1, 2, 4}. The corpus includes the
/// `skew/*` families, where the tier genuinely improves the bound and a
/// non-trivial witness participates in the serialized report.
#[test]
fn skew_mode_reports_identical_across_ordering_policies() {
    let mut circuits: Vec<_> = corpus().into_iter().take(10).collect();
    circuits.push((
        "skew_ring".into(),
        families::skew_ring(Time::from_f64(5.0), Time::from_f64(1.0)),
        MctOptions::fixed_delays(),
    ));
    circuits.push((
        "skew_pipeline".into(),
        families::skew_pipeline(&[
            Time::from_f64(6.0),
            Time::from_f64(2.0),
            Time::from_f64(1.0),
        ]),
        MctOptions::fixed_delays(),
    ));
    let skewed: Vec<_> = circuits
        .into_iter()
        .map(|(name, c, opts)| (name, c, MctOptions { skew: true, ..opts }))
        .collect();
    check_corpus(&skewed, &[1, 2, 4]);
}

/// The cone-decomposed path must agree byte for byte with the monolithic
/// alloc-order sequential reference under every ordering policy and
/// thread count — including on a genuinely multi-cone machine (the
/// three-component composite), where decomposition actually splits the
/// analysis instead of degenerating to the single-cone fallback.
#[test]
fn decomposed_reports_match_monolithic_reference() {
    let mut circuits = corpus();
    circuits.push((
        "composite".into(),
        families::composite(4, 3, 3, Time::from_f64(6.0), Time::from_f64(8.0)),
        MctOptions::paper(),
    ));
    for (name, circuit, base) in &circuits {
        let reference = serialized(circuit, VarOrder::Alloc, 1, base);
        for &ordering in &POLICIES {
            for &t in &[1usize, 2, 4] {
                let opts = MctOptions {
                    decompose: true,
                    ordering,
                    num_threads: t,
                    ..base.clone()
                };
                let got = match MctAnalyzer::new(circuit).expect("analyzable").run(&opts) {
                    Ok(report) => report_to_json(&report).to_compact(),
                    Err(e) => format!("error: {e}"),
                };
                assert_eq!(
                    reference, got,
                    "{name}: decomposed report under {ordering:?} ordering at {t} \
                     threads differs from the monolithic alloc-order sequential run"
                );
            }
        }
    }
}

/// Every ordering policy — crossed with thread counts and both
/// σ-enumeration strategies — must reproduce the alloc-order sequential
/// report byte for byte. Order, worker split and Φ walk change only node
/// counts and work, never *what* comes out; this is the matrix the serve
/// tier's cache-fingerprint exclusion of `ordering`, `num_threads` and
/// `sigma` relies on.
#[test]
fn reports_identical_across_sigma_strategies() {
    let circuits: Vec<_> = corpus().into_iter().take(10).collect();
    for (name, circuit, base) in &circuits {
        let reference = serialized(circuit, VarOrder::Alloc, 1, base);
        for &ordering in &POLICIES {
            for &threads in &[1usize, 2, 4] {
                for &sigma in &[SigmaStrategy::Flat, SigmaStrategy::Pruned] {
                    let opts = MctOptions {
                        ordering,
                        num_threads: threads,
                        sigma,
                        ..base.clone()
                    };
                    let got = match MctAnalyzer::new(circuit).expect("analyzable").run(&opts) {
                        Ok(report) => report_to_json(&report).to_compact(),
                        Err(e) => format!("error: {e}"),
                    };
                    assert_eq!(
                        reference, got,
                        "{name}: report under {ordering:?} ordering at {threads} threads \
                         with {sigma:?} σ differs from the alloc-order sequential run"
                    );
                }
            }
        }
    }
}

/// Warm starts must reproduce the cold report under every policy — the
/// snapshot carries the main manager's variable order, and importing it
/// must not perturb any answer.
#[test]
fn warm_start_is_order_invariant() {
    let c = paper_figure2();
    for &ordering in &POLICIES {
        let opts = MctOptions {
            ordering,
            ..MctOptions::paper()
        };
        let (cold, snap) = MctAnalyzer::new(&c).unwrap().run_warm(&opts, None).unwrap();
        let snap = snap.expect("reachability on ⇒ snapshot");
        let (warm, _) = MctAnalyzer::new(&c)
            .unwrap()
            .run_warm(&opts, Some(&snap))
            .unwrap();
        assert_eq!(
            report_to_json(&cold).to_compact(),
            report_to_json(&warm).to_compact(),
            "{ordering:?}: warm-started report differs from cold"
        );
    }
}

/// Re-runs the invariance check in a child process with
/// `MCT_BDD_GC_STRESS=1 MCT_BDD_COMPACT_STRESS=1`, so the kernel collects
/// garbage and relocates every live node (DFS-preorder compaction, the
/// one operation that moves handles) at *every* boundary mid-analysis.
/// The env vars are latched once per process, which is why this needs a
/// child rather than `set_var` in-process.
#[test]
fn reports_survive_forced_mid_analysis_relocation() {
    if std::env::var_os("MCT_ORDER_STRESS_CHILD").is_some() {
        // We are the child: stress collection and compaction are active.
        // A smaller corpus keeps the run affordable (every boundary now
        // pays a full collection and relocation).
        let circuits: Vec<_> = corpus().into_iter().take(8).collect();
        check_corpus(&circuits, &[1, 4]);
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args([
            "--exact",
            "reports_survive_forced_mid_analysis_relocation",
            "--nocapture",
        ])
        .env("MCT_BDD_GC_STRESS", "1")
        .env("MCT_BDD_COMPACT_STRESS", "1")
        .env("MCT_ORDER_STRESS_CHILD", "1")
        .status()
        .expect("spawn stress child");
    assert!(
        status.success(),
        "order invariance violated under MCT_BDD_GC_STRESS=1 MCT_BDD_COMPACT_STRESS=1"
    );
}
