//! The oracle stack: differential, metamorphic, and robustness checks.
//!
//! Every candidate circuit runs through up to three independent oracles:
//!
//! * **differential** — the event-driven simulator is the dynamic golden
//!   model. If the engine certifies minimum cycle time `D_s`, then at any
//!   period `τ ≥ D_s` the timed machine must match the zero-delay
//!   functional machine, under worst-case *and* randomly varied bounded
//!   delays. A mismatch is an unsound bound — the worst bug class.
//!   Sharpness (divergence *below* the bound) is probed but recorded as a
//!   statistic only: the paper's `C_x` is a sufficient condition, so a
//!   period it rejects need not produce an observable divergence.
//! * **metamorphic** — transformations with known effect on the answer:
//!   renaming signals and permuting leaf declarations preserve the
//!   content-canonical digest (and renames preserve the report
//!   byte-for-byte); scaling every delay by `k` scales the exact bound by
//!   exactly `k`; the answer is bit-identical across variable orders and
//!   thread counts; a canonical-identity cache replay returns the original
//!   bytes.
//! * **robustness** — serialization round-trips: the timed `.bench` corpus
//!   format reproduces the circuit exactly (both canonical digests), the
//!   BLIF round-trip preserves sequential behaviour, and the
//!   reachable-state snapshot survives the persistent store's binary
//!   encoding (export → encode → decode → import into a fresh manager)
//!   with a byte-identical warm-start report. Panics anywhere in the stack
//!   are caught by the runner and reported as robustness failures.
//! * **decompose** — cone-of-influence decomposition is a pure performance
//!   lever: the recombined per-cone report must be byte-identical to the
//!   monolithic one, at one worker and with the cone pool parallelized.
//! * **sigma** — the pruned variable-delay Φ walk is a pure performance
//!   lever too: it must visit exactly the feasible subsequence the flat
//!   odometer examines, so the report is byte-identical across
//!   {flat, pruned} × thread counts (the CLI pairs this oracle with a
//!   wide-delay generator bias and path-coupled LPs so the pruning bound
//!   actually engages).
//! * **skew** — the clock-skew optimization tier can never worsen the
//!   bound; its witness machine, re-annotated and re-certified, must run
//!   correctly through the event simulator strictly above the bound it
//!   claims; and explicitly-zero `# .skew` annotations are an arithmetic
//!   identity — the report is byte-identical to the unannotated baseline.

use mct_core::{MctAnalyzer, MctOptions, MctReport, ReachSnapshot, SigmaStrategy, VarOrder};
use mct_lp::Rat;
use mct_netlist::{circuit_digests, parse_blif, write_blif, Circuit, DelayModel, Time};
use mct_serve::report::{options_fingerprint, report_to_json};
use mct_serve::{CacheKey, ResultCache};
use mct_sim::{functional_trace, DelayMode, SimConfig, Simulator};

use crate::corpus::{parse_timed_bench, write_timed_bench};
use crate::edit::{permute_registers, rename_signals, scale_delays};

/// Which oracles to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OracleSelect {
    /// The full stack (the default).
    #[default]
    All,
    /// Only the simulator-differential oracle.
    Differential,
    /// Only the metamorphic checks.
    Metamorphic,
    /// Only the serialization/robustness checks.
    Robustness,
    /// Only the mono-vs-decomposed identity check.
    Decompose,
    /// Only the flat-vs-pruned Φ-enumeration identity check.
    Sigma,
    /// Only the clock-skew optimization soundness checks.
    Skew,
}

impl OracleSelect {
    /// Parses a CLI oracle name.
    pub fn parse(s: &str) -> Option<OracleSelect> {
        match s {
            "all" => Some(OracleSelect::All),
            "differential" => Some(OracleSelect::Differential),
            "metamorphic" => Some(OracleSelect::Metamorphic),
            "robustness" => Some(OracleSelect::Robustness),
            "decompose" => Some(OracleSelect::Decompose),
            "sigma" => Some(OracleSelect::Sigma),
            "skew" => Some(OracleSelect::Skew),
            _ => None,
        }
    }

    fn differential(self) -> bool {
        matches!(self, OracleSelect::All | OracleSelect::Differential)
    }

    fn metamorphic(self) -> bool {
        matches!(self, OracleSelect::All | OracleSelect::Metamorphic)
    }

    fn robustness(self) -> bool {
        matches!(self, OracleSelect::All | OracleSelect::Robustness)
    }

    fn decompose(self) -> bool {
        matches!(self, OracleSelect::All | OracleSelect::Decompose)
    }

    fn sigma(self) -> bool {
        matches!(self, OracleSelect::All | OracleSelect::Sigma)
    }

    fn skew(self) -> bool {
        matches!(self, OracleSelect::All | OracleSelect::Skew)
    }
}

/// One oracle rejection.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The oracle that rejected the circuit.
    pub oracle: &'static str,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Tuning knobs for the oracle stack.
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// Base analysis options. Differential certification requires the delay
    /// variation here to cover the simulated corners (the default paper
    /// setting's 90–100% interval does).
    pub analysis: MctOptions,
    /// Clock cycles per simulation.
    pub sim_cycles: usize,
    /// Number of independently seeded random-variation simulations.
    pub sim_seeds: usize,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            // The paper setting, except for a small deterministic sweep
            // budget. Random circuits routinely have a tiny floor relative
            // to `L`, which makes the breakpoint grid dense: a 3-gate
            // machine can legitimately have hundreds of candidate periods,
            // and the full oracle stack re-runs each sweep ~6 times. A
            // *wall-clock* budget would make the stats machine-dependent;
            // capping the candidate count keeps every run bit-identical
            // while bounding the work. Healthy generator output sweeps
            // well under 64 candidates; capped sweeps still yield a sound
            // (partial) certificate and are counted in
            // [`OracleStats::sweeps_capped`], never silently dropped.
            analysis: MctOptions {
                max_candidates: 64,
                ..MctOptions::paper()
            },
            sim_cycles: 24,
            sim_seeds: 2,
        }
    }
}

/// Deterministic oracle-side counters (no wall-clock anywhere).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Analyzer invocations.
    pub analyses: u64,
    /// Timing simulations run.
    pub sims: u64,
    /// Analyses that returned a structured error and were skipped.
    pub analysis_errors: u64,
    /// Analyses that hit the per-circuit time budget and were skipped.
    pub analysis_timeouts: u64,
    /// Base sweeps truncated by the deterministic candidate budget
    /// ([`MctOptions::max_candidates`]). The partial bound is still sound
    /// and the oracles still run; this only records that the sweep did not
    /// reach its floor.
    pub sweeps_capped: u64,
    /// Circuits probed below the certified bound.
    pub sharp_probes: u64,
    /// Probes that observed real divergence below the bound.
    pub sharp_confirmed: u64,
    /// Canonical cache replays exercised.
    pub cache_replays: u64,
    /// Reach-snapshot store round-trips completed (export → encode →
    /// decode → import → warm start, byte-identical report).
    pub snapshot_roundtrips: u64,
    /// Mono-vs-decomposed identity comparisons completed.
    pub decompose_checks: u64,
    /// Flat-vs-pruned Φ-enumeration identity comparisons completed.
    pub sigma_checks: u64,
    /// Skew-tier soundness checks completed.
    pub skew_checks: u64,
}

/// Shared oracle state across one fuzzing run.
pub struct OracleCtx {
    /// Which oracles run.
    pub select: OracleSelect,
    /// Tuning knobs.
    pub opts: OracleOptions,
    /// In-process result cache used by the metamorphic replay check.
    pub cache: ResultCache,
    /// Counters.
    pub stats: OracleStats,
}

impl OracleCtx {
    /// Creates a context with an in-memory cache.
    pub fn new(select: OracleSelect, opts: OracleOptions) -> Self {
        OracleCtx {
            select,
            opts,
            cache: ResultCache::new(256, None, None),
            stats: OracleStats::default(),
        }
    }
}

/// A deterministic per-(seed, cycle, pin) input bit — a pure function, so
/// the functional reference and every simulation see the same stimulus.
fn input_bit(seed: u64, cycle: usize, pin: usize) -> bool {
    let mut x = seed
        ^ (cycle as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (pin as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x & 1 == 1
}

fn analyze(c: &Circuit, opts: &MctOptions) -> Result<MctReport, String> {
    let mut an = MctAnalyzer::new(c).map_err(|e| format!("analyzer construction: {e:?}"))?;
    an.run(opts).map_err(|e| format!("analysis: {e:?}"))
}

/// Ceil of a non-negative rational in milli-ticks.
fn ceil_millis(r: Rat) -> i64 {
    let (n, d) = (r.num(), r.den());
    if n <= 0 {
        0
    } else {
        (n + d - 1).div_euclid(d)
    }
}

/// Runs the selected oracles on one candidate. `stim_seed` drives the
/// simulated input sequences and the random delay draws (derive it from the
/// iteration seed for reproducibility).
///
/// Returns the first failure found, or `None` if the circuit passes.
pub fn check_circuit(ctx: &mut OracleCtx, c: &Circuit, stim_seed: u64) -> Option<Failure> {
    // One base analysis feeds every oracle.
    ctx.stats.analyses += 1;
    let base = match analyze(c, &ctx.opts.analysis) {
        Ok(r) => r,
        Err(_) => {
            // Structured engine errors (σ explosion, cone limits) are
            // legitimate refusals, not bugs; count and move on.
            ctx.stats.analysis_errors += 1;
            return None;
        }
    };
    if base.timed_out {
        ctx.stats.analysis_timeouts += 1;
        return None;
    }
    // A capped sweep counted the (max_candidates + 1)-th breakpoint before
    // stopping; the partial certificate is still sound, so the oracles
    // proceed — but the truncation is recorded, never silent.
    if base.candidates_checked > ctx.opts.analysis.max_candidates {
        ctx.stats.sweeps_capped += 1;
    }
    let base_json = report_to_json(&base).to_compact();

    if ctx.select.differential() {
        if let Some(f) = differential(ctx, c, &base, stim_seed) {
            return Some(f);
        }
    }
    if ctx.select.metamorphic() {
        if let Some(f) = metamorphic(ctx, c, &base, &base_json, stim_seed) {
            return Some(f);
        }
    }
    if ctx.select.robustness() {
        if let Some(f) = robustness(ctx, c, stim_seed) {
            return Some(f);
        }
    }
    if ctx.select.decompose() {
        if let Some(f) = decompose_identity(ctx, c, &base_json) {
            return Some(f);
        }
    }
    if ctx.select.sigma() {
        if let Some(f) = sigma_identity(ctx, c, &base_json) {
            return Some(f);
        }
    }
    if ctx.select.skew() {
        if let Some(f) = skew_soundness(ctx, c, &base, &base_json, stim_seed) {
            return Some(f);
        }
    }
    None
}

/// The skew oracle. Three properties, in order:
///
/// 1. optimizing the skews can never worsen the bound (and for an
///    annotation-free circuit the reported zero-skew baseline *is* the
///    base sweep);
/// 2. the witness is real — applying `witness_millis` to the circuit and
///    re-certifying yields the bound the tier reported (when it claimed
///    an improvement), and the witness machine replayed through the event
///    simulator strictly above that bound matches the functional machine
///    (the engine samples strictly before the capture instant, so the `+1`
///    milli keeps the saturated setup arrivals on the safe side — the same
///    convention as the differential oracle);
/// 3. explicitly-zero `# .skew` annotations are an arithmetic identity:
///    spelling them out in the corpus format and re-analyzing reproduces
///    the baseline report byte for byte.
fn skew_soundness(
    ctx: &mut OracleCtx,
    c: &Circuit,
    base: &MctReport,
    base_json: &str,
    stim_seed: u64,
) -> Option<Failure> {
    let opts = MctOptions {
        skew: true,
        ..ctx.opts.analysis.clone()
    };
    ctx.stats.analyses += 1;
    let report = match analyze(c, &opts) {
        Ok(r) => r,
        Err(_) => {
            ctx.stats.analysis_errors += 1;
            return None;
        }
    };
    if report.timed_out {
        ctx.stats.analysis_timeouts += 1;
        return None;
    }
    let Some(sk) = report.skew.clone() else {
        return Some(Failure {
            oracle: "skew",
            detail: "skew mode returned a report without a skew section".into(),
        });
    };

    // 1. Monotonicity and baseline consistency.
    if sk.optimal_bound > sk.zero_skew_bound {
        return Some(Failure {
            oracle: "skew",
            detail: format!(
                "skew optimization worsened the bound: zero-skew {}/{}ms, optimal {}/{}ms",
                sk.zero_skew_bound.num(),
                sk.zero_skew_bound.den(),
                sk.optimal_bound.num(),
                sk.optimal_bound.den()
            ),
        });
    }
    if sk.improved != (sk.optimal_bound < sk.zero_skew_bound) {
        return Some(Failure {
            oracle: "skew",
            detail: format!("inconsistent `improved` flag in the skew report: {sk:?}"),
        });
    }
    if !c.has_skew() && sk.zero_skew_bound != base.bound_exact {
        return Some(Failure {
            oracle: "skew",
            detail: format!(
                "zero-skew baseline {}/{}ms disagrees with the base sweep {}/{}ms \
                 on an annotation-free circuit",
                sk.zero_skew_bound.num(),
                sk.zero_skew_bound.den(),
                base.bound_exact.num(),
                base.bound_exact.den()
            ),
        });
    }
    if sk.witness_millis.len() != c.num_dffs() {
        return Some(Failure {
            oracle: "skew",
            detail: format!(
                "witness has {} entries for {} registers",
                sk.witness_millis.len(),
                c.num_dffs()
            ),
        });
    }

    // 2. The witness machine is real. When the witness coincides with the
    // circuit's own (absent) annotations, the base report already certifies
    // it; otherwise annotate and re-certify.
    let trivial_witness = !c.has_skew() && sk.witness_millis.iter().all(|&s| s == 0);
    let mut witness = c.clone();
    for (q, &s) in witness.dffs().into_iter().zip(&sk.witness_millis) {
        witness
            .set_dff_skew(q, Time::from_millis(s))
            .expect("dff id");
    }
    let wbound = if trivial_witness {
        Some(base.bound_exact)
    } else {
        ctx.stats.analyses += 1;
        match analyze(&witness, &ctx.opts.analysis) {
            Ok(wr) if !wr.timed_out => Some(wr.bound_exact),
            Ok(_) => {
                ctx.stats.analysis_timeouts += 1;
                None
            }
            Err(_) => {
                // Legitimate structured refusal (the annotated machine can
                // have a different σ profile); counted, not a failure.
                ctx.stats.analysis_errors += 1;
                None
            }
        }
    };
    if let Some(wbound) = wbound {
        if sk.improved && wbound != sk.optimal_bound {
            return Some(Failure {
                oracle: "skew",
                detail: format!(
                    "witness machine certifies {}/{}ms but the tier reported optimal {}/{}ms",
                    wbound.num(),
                    wbound.den(),
                    sk.optimal_bound.num(),
                    sk.optimal_bound.den()
                ),
            });
        }
        let sim = match Simulator::new(&witness) {
            Ok(s) => s,
            Err(e) => {
                return Some(Failure {
                    oracle: "skew",
                    detail: format!("simulator rejected the witness machine: {e:?}"),
                })
            }
        };
        let reference = functional_trace(&witness, ctx.opts.sim_cycles, |n, i| {
            input_bit(stim_seed, n, i)
        });
        let tau = Time::from_millis(ceil_millis(wbound).max(0) + 1);
        let mut modes = vec![DelayMode::Max];
        if let Some((num, den)) = ctx.opts.analysis.delay_variation {
            modes.push(DelayMode::Scaled { num, den });
        }
        for mode in modes {
            if !run_sim(ctx, &sim, tau, mode, stim_seed, &reference) {
                return Some(Failure {
                    oracle: "skew",
                    detail: format!(
                        "witness machine diverges from its functional trace at \
                         certified-safe period {}ms under {mode:?} (witness bound {}/{}ms)",
                        tau.millis(),
                        wbound.num(),
                        wbound.den()
                    ),
                });
            }
        }
    }

    // 3. Explicit zeros are an identity (zero-skew registers only —
    // nonzero annotations are semantics and stay untouched).
    let mut text = write_timed_bench(c);
    let mut annotated = false;
    for q in c.dffs() {
        if c.dff_skew(q).expect("dff id").is_zero() {
            text.push_str(&format!("# .skew {} 0\n", c.net_name(q)));
            annotated = true;
        }
    }
    if annotated {
        match parse_timed_bench(&text) {
            Ok(zeroed) => {
                if circuit_digests(&zeroed).content != circuit_digests(c).content {
                    return Some(Failure {
                        oracle: "skew",
                        detail: "explicit zero skew annotations changed the content digest".into(),
                    });
                }
                ctx.stats.analyses += 1;
                match analyze(&zeroed, &ctx.opts.analysis) {
                    Ok(r) => {
                        let j = report_to_json(&r).to_compact();
                        if j != base_json {
                            return Some(Failure {
                                oracle: "skew",
                                detail: format!(
                                    "explicit zero skew annotations changed the report:\n  \
                                     base: {base_json}\n  got:  {j}"
                                ),
                            });
                        }
                    }
                    Err(_) => ctx.stats.analysis_errors += 1,
                }
            }
            Err(e) => {
                return Some(Failure {
                    oracle: "skew",
                    detail: format!("zero-skew-annotated corpus text failed to parse: {e}"),
                })
            }
        }
    }
    ctx.stats.skew_checks += 1;
    None
}

/// The decompose oracle: slicing into cones of influence and recombining
/// must reproduce the monolithic report byte for byte — sequentially and
/// with the cone pool parallelized. An engine error on the decomposed path
/// is also a failure: the monolithic analysis already succeeded, and the
/// two paths must refuse identically.
fn decompose_identity(ctx: &mut OracleCtx, c: &Circuit, base_json: &str) -> Option<Failure> {
    for threads in [1, 3] {
        let opts = MctOptions {
            decompose: true,
            num_threads: threads,
            ..ctx.opts.analysis.clone()
        };
        ctx.stats.analyses += 1;
        match analyze(c, &opts) {
            Ok(r) => {
                let j = report_to_json(&r).to_compact();
                if j != base_json {
                    return Some(Failure {
                        oracle: "decompose",
                        detail: format!(
                            "decomposed report differs from monolithic (threads={threads}):\n  \
                             mono: {base_json}\n  cone: {j}"
                        ),
                    });
                }
            }
            Err(e) => {
                return Some(Failure {
                    oracle: "decompose",
                    detail: format!(
                        "decomposed analysis errored where monolithic succeeded \
                         (threads={threads}): {e}"
                    ),
                })
            }
        }
    }
    ctx.stats.decompose_checks += 1;
    None
}

/// The sigma oracle: the pruned Φ walk visits exactly the LP-feasible
/// subsequence of the flat odometer, so the report must be byte-identical
/// across {flat, pruned} × thread counts. The base report is the default
/// pruned single-thread run; an engine error on any variant is also a
/// failure — both strategies gate the σ explosion on the *unpruned*
/// combination count, so they must refuse identically.
fn sigma_identity(ctx: &mut OracleCtx, c: &Circuit, base_json: &str) -> Option<Failure> {
    for (sigma, threads) in [
        (SigmaStrategy::Flat, 1),
        (SigmaStrategy::Flat, 4),
        (SigmaStrategy::Pruned, 4),
    ] {
        let opts = MctOptions {
            sigma,
            num_threads: threads,
            ..ctx.opts.analysis.clone()
        };
        ctx.stats.analyses += 1;
        match analyze(c, &opts) {
            Ok(r) => {
                let j = report_to_json(&r).to_compact();
                if j != base_json {
                    return Some(Failure {
                        oracle: "sigma",
                        detail: format!(
                            "report differs under sigma={sigma:?} threads={threads}:\n  \
                             base: {base_json}\n  got:  {j}"
                        ),
                    });
                }
            }
            Err(e) => {
                return Some(Failure {
                    oracle: "sigma",
                    detail: format!(
                        "sigma={sigma:?} analysis errored where the base run succeeded \
                         (threads={threads}): {e}"
                    ),
                })
            }
        }
    }
    ctx.stats.sigma_checks += 1;
    None
}

fn run_sim(
    ctx: &mut OracleCtx,
    sim: &Simulator<'_>,
    period: Time,
    mode: DelayMode,
    stim_seed: u64,
    reference: &(Vec<Vec<bool>>, Vec<Vec<bool>>),
) -> bool {
    ctx.stats.sims += 1;
    let cfg = SimConfig::at_period(period)
        .with_cycles(ctx.opts.sim_cycles)
        .with_delay_mode(mode);
    let trace = sim.run(&cfg, |n, i| input_bit(stim_seed, n, i));
    trace.matches(&reference.0, &reference.1)
}

fn differential(
    ctx: &mut OracleCtx,
    c: &Circuit,
    report: &MctReport,
    stim_seed: u64,
) -> Option<Failure> {
    let sim = match Simulator::new(c) {
        Ok(s) => s,
        Err(e) => {
            return Some(Failure {
                oracle: "differential",
                detail: format!("simulator rejected a validated circuit: {e:?}"),
            })
        }
    };
    let reference = functional_trace(c, ctx.opts.sim_cycles, |n, i| input_bit(stim_seed, n, i));
    // One milli-tick above the certified bound: safely inside the valid
    // region, immune to boundary ties.
    let tau_safe = Time::from_millis(ceil_millis(report.bound_exact).max(0) + 1);

    let mut modes = vec![DelayMode::Max];
    if let Some((num, den)) = ctx.opts.analysis.delay_variation {
        // The certificate covers the whole variation interval; exercise its
        // lower corner and random interior points.
        modes.push(DelayMode::Scaled { num, den });
        let min_pct = (num * 100 / den).clamp(1, 100) as u8;
        for k in 0..ctx.opts.sim_seeds {
            modes.push(DelayMode::RandomUniform {
                min_factor_percent: min_pct,
                seed: stim_seed.wrapping_add(k as u64 + 1),
            });
        }
    }
    for mode in modes {
        if !run_sim(ctx, &sim, tau_safe, mode, stim_seed, &reference) {
            return Some(Failure {
                oracle: "differential",
                detail: format!(
                    "divergence from functional trace at certified-safe period \
                     {}ms under {mode:?} (bound_exact = {}/{}ms)",
                    tau_safe.millis(),
                    report.bound_exact.num(),
                    report.bound_exact.den()
                ),
            });
        }
    }
    // Sharpness probe (statistic only; C_x is sufficient, not necessary).
    if report.first_failing_tau.is_some() {
        let below = ceil_millis(report.bound_exact) - 1;
        if below > 0 {
            ctx.stats.sharp_probes += 1;
            if !run_sim(
                ctx,
                &sim,
                Time::from_millis(below),
                DelayMode::Max,
                stim_seed,
                &reference,
            ) {
                ctx.stats.sharp_confirmed += 1;
            }
        }
    }
    None
}

fn metamorphic(
    ctx: &mut OracleCtx,
    c: &Circuit,
    base: &MctReport,
    base_json: &str,
    stim_seed: u64,
) -> Option<Failure> {
    let digests = circuit_digests(c);

    // 1. Rename: content digest and the full report are invariant.
    let renamed = rename_signals(c, |_, i| format!("n{i}"))?; // cannot fail: fresh names
    let rd = circuit_digests(&renamed);
    if rd.content != digests.content {
        return Some(Failure {
            oracle: "metamorphic",
            detail: "content digest changed under signal rename".into(),
        });
    }
    ctx.stats.analyses += 1;
    match analyze(&renamed, &ctx.opts.analysis) {
        Ok(r) => {
            let j = report_to_json(&r).to_compact();
            if j != base_json {
                return Some(Failure {
                    oracle: "metamorphic",
                    detail: format!(
                        "report changed under signal rename:\n  base: {base_json}\n  renamed: {j}"
                    ),
                });
            }
        }
        Err(_) => ctx.stats.analysis_errors += 1,
    }

    // 2. Register-declaration permutation: content digest invariant, and
    //    the canonical-identity cache replays the original bytes.
    let ndffs = c.num_dffs();
    if ndffs > 1 {
        let mut perm: Vec<usize> = (0..ndffs).collect();
        // Deterministic rotation + a seed-driven swap.
        perm.rotate_left(1);
        let a = (stim_seed as usize) % ndffs;
        let b = (stim_seed >> 16) as usize % ndffs;
        perm.swap(a, b);
        if let Some(permuted) = permute_registers(c, &perm) {
            let pd = circuit_digests(&permuted);
            if pd.content != digests.content {
                return Some(Failure {
                    oracle: "metamorphic",
                    detail: "content digest changed under register permutation".into(),
                });
            }
            let fp = options_fingerprint(&ctx.opts.analysis);
            let key = CacheKey {
                circuit: digests.content,
                options: fp,
            };
            ctx.cache.insert(key, digests.layout, base_json.to_string());
            let replay_key = CacheKey {
                circuit: pd.content,
                options: fp,
            };
            ctx.stats.cache_replays += 1;
            match ctx.cache.get(replay_key) {
                Some(hit) if hit.report_json == base_json => {}
                Some(_) => {
                    return Some(Failure {
                        oracle: "metamorphic",
                        detail: "cache replay returned different bytes for a permuted copy".into(),
                    })
                }
                None => {
                    return Some(Failure {
                        oracle: "metamorphic",
                        detail: "cache miss for a content-identical permuted copy".into(),
                    })
                }
            }
        }
    }

    // 3. Uniform delay scaling by k scales the exact bound by exactly k —
    //    for *completed* sweeps. A candidate-capped sweep truncates at a
    //    grid index, and the grid itself is not exactly scale-invariant:
    //    minimum delays are d·9/10 truncated to integer milli-units, so
    //    ⌊3d·9/10⌋ ≠ 3⌊d·9/10⌋ in general. Only the failing-interval sup
    //    (built from exact path delays) scales exactly, and a capped
    //    partial bound is a grid point, not a sup.
    const K: i64 = 3;
    let capped = |r: &MctReport| r.candidates_checked > ctx.opts.analysis.max_candidates;
    let scaled = scale_delays(c, K, 1);
    ctx.stats.analyses += 1;
    match analyze(&scaled, &ctx.opts.analysis) {
        Ok(r) => {
            if !r.timed_out
                && !capped(base)
                && !capped(&r)
                && r.bound_exact != base.bound_exact * Rat::from_int(K)
            {
                return Some(Failure {
                    oracle: "metamorphic",
                    detail: format!(
                        "delay scaling ×{K}: bound {}/{} → {}/{} (expected exact ×{K})",
                        base.bound_exact.num(),
                        base.bound_exact.den(),
                        r.bound_exact.num(),
                        r.bound_exact.den()
                    ),
                });
            }
        }
        Err(_) => ctx.stats.analysis_errors += 1,
    }

    // 4. Variable order × thread count: bit-identical reports.
    for (ordering, threads) in [
        (VarOrder::Alloc, 1),
        (VarOrder::Static, 2),
        (VarOrder::Static, 4),
    ] {
        let opts = MctOptions {
            ordering,
            num_threads: threads,
            ..ctx.opts.analysis.clone()
        };
        ctx.stats.analyses += 1;
        match analyze(c, &opts) {
            Ok(r) => {
                let j = report_to_json(&r).to_compact();
                if j != base_json {
                    return Some(Failure {
                        oracle: "metamorphic",
                        detail: format!(
                            "report differs under ordering={ordering:?} threads={threads}:\n  \
                             base: {base_json}\n  got:  {j}"
                        ),
                    });
                }
            }
            Err(_) => ctx.stats.analysis_errors += 1,
        }
    }

    // 5. Variable order × sigma strategy × thread count: the Φ walk and
    //    the worker split change only work, never what the sweep reports.
    for (ordering, sigma, threads) in [
        (VarOrder::Alloc, SigmaStrategy::Flat, 1),
        (VarOrder::Static, SigmaStrategy::Flat, 2),
        (VarOrder::Alloc, SigmaStrategy::Flat, 4),
        (VarOrder::Alloc, SigmaStrategy::Pruned, 2),
    ] {
        let opts = MctOptions {
            ordering,
            sigma,
            num_threads: threads,
            ..ctx.opts.analysis.clone()
        };
        ctx.stats.analyses += 1;
        match analyze(c, &opts) {
            Ok(r) => {
                let j = report_to_json(&r).to_compact();
                if j != base_json {
                    return Some(Failure {
                        oracle: "metamorphic",
                        detail: format!(
                            "report differs under ordering={ordering:?} sigma={sigma:?} \
                             threads={threads}:\n  base: {base_json}\n  got:  {j}"
                        ),
                    });
                }
            }
            Err(_) => ctx.stats.analysis_errors += 1,
        }
    }
    None
}

fn robustness(ctx: &mut OracleCtx, c: &Circuit, stim_seed: u64) -> Option<Failure> {
    // Timed-bench round trip is exact: both canonical digests and the name.
    let text = write_timed_bench(c);
    match parse_timed_bench(&text) {
        Ok(back) => {
            let (a, b) = (circuit_digests(c), circuit_digests(&back));
            if a.content != b.content || a.layout != b.layout || back.name() != c.name() {
                return Some(Failure {
                    oracle: "robustness",
                    detail: "timed .bench round-trip changed the circuit".into(),
                });
            }
        }
        Err(e) => {
            return Some(Failure {
                oracle: "robustness",
                detail: format!("timed .bench round-trip failed to parse: {e}"),
            })
        }
    }
    // BLIF drops delays but must preserve sequential behaviour exactly.
    let blif = write_blif(c);
    match parse_blif(&blif, &DelayModel::Unit) {
        Ok(back) => {
            if back.num_dffs() != c.num_dffs() || back.num_inputs() != c.num_inputs() {
                return Some(Failure {
                    oracle: "robustness",
                    detail: "BLIF round-trip changed the interface".into(),
                });
            }
            let cycles = 8;
            let f0 = functional_trace(c, cycles, |n, i| input_bit(stim_seed, n, i));
            let f1 = functional_trace(&back, cycles, |n, i| input_bit(stim_seed, n, i));
            if f0 != f1 {
                return Some(Failure {
                    oracle: "robustness",
                    detail: "BLIF round-trip changed sequential behaviour".into(),
                });
            }
        }
        Err(e) => {
            return Some(Failure {
                oracle: "robustness",
                detail: format!("BLIF round-trip failed to parse: {e}"),
            })
        }
    }
    // Reach-snapshot persistence round trip: the snapshot the analysis
    // produces must survive the store's binary encoding, import into a
    // *fresh* manager (identity variable order), and warm-start a repeat
    // analysis to the byte-identical report.
    if ctx.opts.analysis.use_reachability {
        ctx.stats.analyses += 1;
        let cold = MctAnalyzer::new(c)
            .map_err(|e| format!("analyzer construction: {e:?}"))
            .and_then(|mut an| {
                an.run_warm(&ctx.opts.analysis, None)
                    .map_err(|e| format!("analysis: {e:?}"))
            });
        match cold {
            Ok((cold_report, Some(snap))) if !cold_report.timed_out => {
                let bytes = mct_store::encode_reach(&snap.export_data());
                let decoded = match mct_store::decode_reach(&bytes) {
                    Ok(d) => d,
                    Err(e) => {
                        return Some(Failure {
                            oracle: "robustness",
                            detail: format!(
                                "reach snapshot failed to decode its own encoding: {e}"
                            ),
                        })
                    }
                };
                let imported = match ReachSnapshot::import_data(&decoded) {
                    Ok(s) => s,
                    Err(e) => {
                        return Some(Failure {
                            oracle: "robustness",
                            detail: format!("round-tripped reach snapshot failed to import: {e:?}"),
                        })
                    }
                };
                ctx.stats.analyses += 1;
                let warm = MctAnalyzer::new(c)
                    .map_err(|e| format!("analyzer construction: {e:?}"))
                    .and_then(|mut an| {
                        an.run_warm(&ctx.opts.analysis, Some(&imported))
                            .map_err(|e| format!("analysis: {e:?}"))
                    });
                match warm {
                    Ok((warm_report, _)) => {
                        let cold_j = report_to_json(&cold_report).to_compact();
                        let warm_j = report_to_json(&warm_report).to_compact();
                        if warm_j != cold_j {
                            return Some(Failure {
                                oracle: "robustness",
                                detail: format!(
                                    "warm start from a round-tripped snapshot changed the \
                                     report:\n  cold: {cold_j}\n  warm: {warm_j}"
                                ),
                            });
                        }
                        ctx.stats.snapshot_roundtrips += 1;
                    }
                    Err(e) => {
                        return Some(Failure {
                            oracle: "robustness",
                            detail: format!(
                                "warm start from a round-tripped snapshot errored where the \
                                 cold run succeeded: {e}"
                            ),
                        })
                    }
                }
            }
            // No snapshot (early exit before reachability) or a partial
            // report — nothing to round-trip.
            Ok(_) => {}
            Err(_) => ctx.stats.analysis_errors += 1,
        }
    }
    None
}
