//! The minimum-cycle-time sweep: breakpoints, Φ enumeration, feasibility,
//! and the final bound `D̄_s = max_{σ ∈ Ω} τ(σ)`.
//!
//! The sweep itself (candidate planning, per-candidate evaluation, and the
//! τ-order reconciliation that both the 1-thread path and the worker pool
//! share) lives in [`crate::parallel`]; this module owns the option/report
//! types and the circuit-level setup.

use crate::decision::{DecisionContext, DecisionOutcome};
use crate::error::MctError;
use crate::parallel::{self, EvalEnv, SigmaMemo, SweepShared};
use mct_bdd::{Bdd, BddManager, BddStats};
use mct_lp::{LpOutcome, Rat, Simplex};
use mct_netlist::{Circuit, FsmView, NetId};
use mct_tbf::{
    count_states, export_order, reachable_states, transfer_bdd, ConeExtractor, DelayClass,
    StaticOrder, TimedVarTable,
};
use std::collections::HashMap;

/// Variable-ordering policy for the symbolic kernel.
///
/// Ordering is a performance lever only: the analyses compare canonical
/// function handles, so every policy yields a bit-identical [`MctReport`] —
/// only node counts and wall time change. For the same reason the policy is
/// excluded from result-cache fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VarOrder {
    /// First-use allocation order (the historical behaviour).
    Alloc,
    /// Structural static order computed from the netlist before any BDD is
    /// built (see [`StaticOrder`]): leaves clustered by a sink-DFS over the
    /// gate DAG, timed copies of each leaf interleaved at adjacent levels.
    #[default]
    Static,
}

/// Φ-enumeration strategy for the variable-delay sweep (§7).
///
/// Like [`VarOrder`], a performance lever only: both strategies visit the
/// surviving (feasible) shift combinations in exactly the flat enumeration
/// order, so every [`MctReport`] field outside the kernel diagnostics is
/// bit-identical between them, and the strategy is excluded from
/// result-cache fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SigmaStrategy {
    /// Materialize every combination of `Φ = Π_i [lo_i, hi_i]` through the
    /// flat odometer and test feasibility afterwards (the historical
    /// behaviour) — exponential in delay-class count even when almost all
    /// of Φ is infeasible.
    Flat,
    /// Backtracking prefix-tree walk: partial shift assignments carry the
    /// running closed-form τ bound (plus, under
    /// [`MctOptions::path_coupled_lp`], a suffix LP relaxation), and
    /// subtrees whose bound is already empty are cut before their
    /// combinations are generated. Cut work is counted in the
    /// `sigma_pruned` kernel diagnostics, never silently dropped.
    #[default]
    Pruned,
}

/// Configuration of a cycle-time analysis.
#[derive(Clone, Debug)]
pub struct MctOptions {
    /// Gate delays vary in `[num/den · d, d]`; `None` means fixed (exact)
    /// delays. The paper's evaluation uses `(9, 10)` — delays between 90%
    /// and 100% of their maxima.
    pub delay_variation: Option<(i64, i64)>,
    /// Restrict the decision algorithm's induction frontier to the
    /// reachable state space (the paper's sequential don't-cares).
    pub use_reachability: bool,
    /// Prune infeasible shift combinations with the per-path linear
    /// programs of Section 7 (representative path per delay class) instead
    /// of only the independent-interval closed form.
    pub path_coupled_lp: bool,
    /// When set, sweep past the first failure down to this period (in time
    /// units), recording the validity of every interval in
    /// [`MctReport::regions`].
    pub exhaustive_floor: Option<f64>,
    /// Abort with [`MctError::SigmaExplosion`] if one τ interval yields
    /// more shift combinations than this.
    pub max_sigma_combos: usize,
    /// Stop sweeping (reporting exhaustion) after this many candidate
    /// periods.
    pub max_candidates: usize,
    /// Give up below `L / floor_divisor` when no failure has been found
    /// (`L` = the steady-state delay).
    pub floor_divisor: i64,
    /// State cap for cone extraction (see
    /// [`ConeExtractor::with_node_limit`]).
    pub cone_node_limit: usize,
    /// Use the exact product-machine equivalence check instead of the
    /// sufficient condition `C_x` (Section 6's "decide whether two finite
    /// state machines are equivalent", made affordable symbolically).
    /// Accepts strictly more periods (e.g. unobservable lagging state) but
    /// costs a reachability fixpoint over an expanded state per shift
    /// combination.
    pub exact_check: bool,
    /// Bit budget for the exact check's expanded product state.
    pub max_product_bits: usize,
    /// Wall-clock budget for the sweep, in milliseconds. When exceeded the
    /// report carries the best *partial* result with
    /// [`MctReport::timed_out`] set — the same convention as the paper's
    /// table, which reports the last value with a `†` for runs that
    /// exhausted memory.
    pub time_budget_ms: Option<u64>,
    /// Number of sweep worker threads. `1` (the default) evaluates
    /// candidates on the calling thread; `0` means one worker per available
    /// CPU. Each worker owns a private BDD manager and timed-variable
    /// table (the managers are deliberately single-threaded); workers share
    /// only the Φ-signature memo. The report is bit-identical at every
    /// thread count.
    pub num_threads: usize,
    /// Variable-ordering policy for every BDD manager the analysis builds.
    /// Never changes the report — see [`VarOrder`].
    pub ordering: VarOrder,
    /// Slice the circuit into independent cones of influence
    /// ([`mct_netlist::decompose`]) and analyze each cone with its own
    /// symbolic stack, recombining per-cone verdicts into the whole-circuit
    /// report. Like `num_threads` and `ordering` this is a performance
    /// lever only: the recombined report is bit-identical to the monolithic
    /// one, so the flag is excluded from result-cache fingerprints. With
    /// `num_threads > 1` the decomposed sweep parallelizes across cones
    /// (one worker per cone) instead of across candidates.
    pub decompose: bool,
    /// Φ-enumeration strategy for variable delays. Never changes the
    /// report — see [`SigmaStrategy`].
    pub sigma: SigmaStrategy,
    /// Run the clock-skew optimization tier after the sweep: solve the
    /// Fishburn-style feasibility programs over per-register skews,
    /// binary-search the minimum structurally feasible period, certify it
    /// exactly, and report both the zero-skew and skew-optimal bounds (with
    /// an integer-milli witness) in [`MctReport::skew`].
    ///
    /// Unlike `ordering`/`sigma`/`num_threads` this **changes the report**,
    /// so it is **included** in result-cache fingerprints. Note that skew
    /// *annotations* on the circuit always take effect in the sweep itself
    /// (they are circuit semantics); this flag only adds the optimizer
    /// tier.
    pub skew: bool,
    /// Per-register skew magnitude bound `|s_i| ≤ B` for the optimizer, in
    /// time units. `None` uses the steady-state delay `L`. Included in
    /// result-cache fingerprints (it changes [`MctReport::skew`]).
    pub skew_bound: Option<f64>,
}

impl Default for MctOptions {
    /// The paper's evaluation setting: 90–100% delay variation, no LP
    /// path coupling (independent intervals), reachability on.
    fn default() -> Self {
        MctOptions {
            delay_variation: Some((9, 10)),
            use_reachability: true,
            path_coupled_lp: false,
            exhaustive_floor: None,
            max_sigma_combos: 1 << 14,
            max_candidates: 20_000,
            floor_divisor: 64,
            cone_node_limit: 4_000_000,
            exact_check: false,
            max_product_bits: 48,
            time_budget_ms: None,
            num_threads: 1,
            ordering: VarOrder::default(),
            decompose: false,
            sigma: SigmaStrategy::default(),
            skew: false,
            skew_bound: None,
        }
    }
}

impl MctOptions {
    /// Exact (fixed) gate delays — the setting of the paper's worked
    /// Example 2.
    pub fn fixed_delays() -> Self {
        MctOptions {
            delay_variation: None,
            ..MctOptions::default()
        }
    }

    /// The paper's Section-8 evaluation setting (alias of `default`).
    pub fn paper() -> Self {
        MctOptions::default()
    }
}

/// One τ interval of the sweep and whether it was certified valid.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ValidityRegion {
    /// Left (inclusive) end of the interval, in time units.
    pub tau_lo: f64,
    /// Right (exclusive) end, in time units (`f64::INFINITY` for the first
    /// interval).
    pub tau_hi: f64,
    /// Whether every feasible shift combination passed the decision
    /// algorithm.
    pub valid: bool,
}

/// Result of a cycle-time analysis.
#[derive(Clone, Debug)]
pub struct MctReport {
    /// Circuit name.
    pub circuit: String,
    /// The steady-state delay `L` (the largest register-to-register path),
    /// in time units.
    pub steady_delay: f64,
    /// The computed upper bound `D̄_s` on the minimum cycle time, in time
    /// units: the machine is certified to behave identically to steady
    /// state at every period greater than this.
    pub mct_upper_bound: f64,
    /// `D̄_s` as an exact rational in milli-units.
    pub bound_exact: Rat,
    /// The left end of the first failing interval, if any (time units).
    pub first_failing_tau: Option<f64>,
    /// Diagnostics of the first failing shift combination.
    pub failure: Option<DecisionOutcome>,
    /// Number of candidate periods examined.
    pub candidates_checked: usize,
    /// Number of (feasible) shift combinations submitted to the decision
    /// algorithm, including cache hits.
    pub sigma_checked: usize,
    /// How many of those were answered from the Φ-signature cache (the
    /// paper's suggested speed-up).
    pub sigma_cache_hits: usize,
    /// Whether the induction frontier was restricted to reachable states.
    pub used_reachability: bool,
    /// Number of reachable states, when computed.
    pub reachable_states: Option<f64>,
    /// The sweep ended by budget/floor rather than by failure: every
    /// examined period was valid and `mct_upper_bound` is the smallest
    /// period examined.
    pub exhausted: bool,
    /// The wall-clock budget expired mid-sweep; the bound is partial (the
    /// smallest period certified before the deadline), like the paper's
    /// `†` rows.
    pub timed_out: bool,
    /// Interval-by-interval validity (populated when
    /// [`MctOptions::exhaustive_floor`] is set; otherwise only the
    /// intervals up to the first failure).
    pub regions: Vec<ValidityRegion>,
    /// Clock-skew optimization results, present iff [`MctOptions::skew`]
    /// was set. Part of the deterministic report contract (unlike
    /// [`kernel`](Self::kernel)).
    pub skew: Option<crate::skew::SkewReport>,
    /// Symbolic-kernel diagnostics, aggregated across every BDD manager the
    /// analysis used (the main manager plus one per pool worker): live/peak
    /// node counts, garbage-collection runs, and operation-cache hit rates.
    ///
    /// Unlike every other field, this is **not** part of the deterministic
    /// report contract — the counters depend on thread count, GC thresholds,
    /// and worker scheduling. It is excluded from the serialized report and
    /// must be ignored by bit-identity comparisons.
    pub kernel: BddStats,
}

/// A reachable-state set exported into its own private manager and
/// timed-variable table, so it can outlive the analyzer that computed it
/// and seed future analyses of the same circuit.
///
/// Produced by [`MctAnalyzer::run_warm`]; feed it back to a later
/// `run_warm` (of an analyzer over the *same* circuit, e.g. one looked up
/// by canonical hash) to replace the image fixpoint with a linear
/// [`transfer_bdd`] walk. The warm-started report is identical to the cold
/// one: the transferred set denotes the same function, and the decision
/// algorithm only ever compares functions.
pub struct ReachSnapshot {
    pub(crate) manager: BddManager,
    pub(crate) table: TimedVarTable,
    pub(crate) set: Bdd,
    pub(crate) states: f64,
}

impl ReachSnapshot {
    /// Number of reachable states the snapshot denotes (as counted when it
    /// was first computed).
    pub fn num_states(&self) -> f64 {
        self.states
    }
}

/// Orchestrates the full analysis of one circuit. Owns the BDD manager and
/// the timed-variable table so repeated runs share symbolic work.
pub struct MctAnalyzer<'c> {
    view: FsmView<'c>,
    manager: BddManager,
    table: TimedVarTable,
}

impl<'c> MctAnalyzer<'c> {
    /// Builds an analyzer for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns structural netlist errors (unconnected flip-flops,
    /// combinational cycles).
    pub fn new(circuit: &'c Circuit) -> Result<Self, MctError> {
        Ok(MctAnalyzer {
            view: FsmView::new(circuit)?,
            manager: BddManager::new(),
            table: TimedVarTable::new(),
        })
    }

    /// The FSM view under analysis.
    pub fn view(&self) -> &FsmView<'c> {
        &self.view
    }

    /// Runs the sweep and returns the report.
    ///
    /// # Errors
    ///
    /// [`MctError::Tbf`] on extraction blow-up,
    /// [`MctError::SigmaExplosion`] when one interval has too many shift
    /// combinations.
    pub fn run(&mut self, opts: &MctOptions) -> Result<MctReport, MctError> {
        self.run_warm(opts, None).map(|(report, _)| report)
    }

    /// Like [`run`](Self::run), but can warm-start from a reachable-state
    /// set computed by an earlier analysis of the same circuit, and exports
    /// the set it used as a [`ReachSnapshot`] for the next caller.
    ///
    /// When `warm` is provided (and reachability is enabled), the image
    /// fixpoint is replaced by a [`transfer_bdd`] import — a single linear
    /// walk of the cached set. The report is identical either way.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); additionally propagates transfer failures
    /// when `warm` does not belong to this circuit's variable universe.
    pub fn run_warm(
        &mut self,
        opts: &MctOptions,
        warm: Option<&ReachSnapshot>,
    ) -> Result<(MctReport, Option<ReachSnapshot>), MctError> {
        if opts.decompose {
            let cones = mct_netlist::decompose(self.view.circuit());
            if cones.len() > 1 {
                // Decomposed analyses build per-cone managers and never
                // touch the analyzer's own symbolic state; warm snapshots
                // (whole-circuit reach sets) are neither consumed nor
                // produced — the per-cone cache tier replaces them.
                let (report, _) = crate::decompose::run(&self.view, cones, opts, &[], false)?;
                return Ok((report, None));
            }
            // A single cone is the monolithic machine: fall through so the
            // report (and the warm-start path) is trivially identical.
        }
        let view = &self.view;
        let manager = &mut self.manager;
        let table = &mut self.table;
        let extractor = ConeExtractor::new(view).with_node_limit(opts.cone_node_limit);
        let classes = extractor.delay_classes_at(&view.sink_starts())?;
        validate_skew_holds(view, &classes, opts.delay_variation)?;
        let l_millis = classes.iter().map(|c| c.delay).max().unwrap_or(0);
        let circuit_name = view.circuit().name().to_owned();

        let mut report = MctReport {
            circuit: circuit_name,
            steady_delay: l_millis as f64 / 1000.0,
            mct_upper_bound: 0.0,
            bound_exact: Rat::ZERO,
            first_failing_tau: None,
            failure: None,
            candidates_checked: 0,
            sigma_checked: 0,
            sigma_cache_hits: 0,
            used_reachability: false,
            reachable_states: None,
            exhausted: false,
            timed_out: false,
            regions: Vec::new(),
            skew: None,
            kernel: BddStats::default(),
        };
        if l_millis == 0 {
            // No combinational paths at all: any positive period works.
            if opts.skew {
                crate::skew::run_tier(view, opts, &mut report)?;
            }
            return Ok((report, None));
        }

        // Delay intervals per class (kmin rounded down: conservative).
        let intervals: Vec<(i64, i64)> = classes
            .iter()
            .map(|c| (skewed_k_min(c, opts.delay_variation), c.delay))
            .collect();
        let class_ix: HashMap<(usize, i64), usize> = classes
            .iter()
            .enumerate()
            .map(|(i, c)| ((c.leaf, c.delay), i))
            .collect();

        let floor = match opts.exhaustive_floor {
            Some(tau) => Rat::new((tau * 1000.0).round() as i64, 1),
            None => Rat::new(l_millis, opts.floor_divisor.max(1)),
        };
        if opts.ordering != VarOrder::Alloc {
            // Pin the structural order before any BDD is built. The largest
            // shift a sweep can reference appears at the floor period:
            // ⌈L/floor⌉ (+1 slack); shifts past the clamp fall back to
            // allocation order at the bottom of the table.
            let floor_millis = floor.as_f64();
            let max_shift = if floor_millis > 0.0 {
                (l_millis as f64 / floor_millis).ceil() as i64 + 1
            } else {
                64
            }
            .clamp(1, 128);
            if let Some(snap) = warm {
                // Inherit the snapshot's order for the variables it knows;
                // the structural order fills the rest.
                table.preregister(snap.table.iter().map(|(tv, _)| tv));
            }
            StaticOrder::compute(view, max_shift).apply(table);
        }

        let mut ctx = DecisionContext::new(&extractor, manager, table)?;
        let mut restriction = None;
        let mut snapshot = None;
        if opts.use_reachability && view.num_state_bits() > 0 {
            let (r, states) = match warm {
                // Import the cached set instead of re-running the fixpoint.
                Some(snap) => {
                    let local = transfer_bdd(&snap.manager, &snap.table, snap.set, manager, table)?;
                    (local, snap.states)
                }
                None => {
                    let r = reachable_states(&extractor, manager, table)?;
                    (r, count_states(manager, r, view.num_state_bits()))
                }
            };
            report.reachable_states = Some(states);
            report.used_reachability = true;
            ctx = ctx.with_restriction(r);
            restriction = Some(r);
            // Export the set to a private manager so the caller can cache it
            // past this analyzer's lifetime.
            let mut snap_manager = BddManager::new();
            let mut snap_table = TimedVarTable::new();
            // The snapshot carries the main manager's order so warm starts
            // inherit it.
            snap_table.preregister(export_order(manager, table));
            let snap_set = transfer_bdd(manager, table, r, &mut snap_manager, &mut snap_table)?;
            snapshot = Some(ReachSnapshot {
                manager: snap_manager,
                table: snap_table,
                set: snap_set,
                states,
            });
        }

        let bp_delays: Vec<i64> = intervals.iter().flat_map(|&(lo, hi)| [lo, hi]).collect();

        let shared = SweepShared {
            classes,
            intervals,
            class_ix,
            l_millis,
            // Workers pre-register the main manager's order instead of
            // re-deriving it.
            order: if opts.ordering == VarOrder::Alloc {
                Vec::new()
            } else {
                export_order(manager, table)
            },
            opts: opts.clone(),
        };
        let sweep = parallel::plan(&bp_delays, floor, &shared);
        let deadline = opts
            .time_budget_ms
            .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let threads = match opts.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let memo = SigmaMemo::new(if threads <= 1 { 1 } else { 4 * threads });
        let states = if threads <= 1 {
            let mut env = EvalEnv {
                view,
                extractor: &extractor,
                ctx: &mut ctx,
                manager,
                table,
            };
            parallel::run_single(&shared, &sweep, &mut env, &memo, deadline)
        } else {
            let reach = restriction.map(|set| parallel::SharedReach {
                manager: &*manager,
                table: &*table,
                set,
            });
            let (states, worker_kernel) = parallel::run_pool(
                &shared,
                &sweep,
                view,
                reach.as_ref(),
                threads,
                &memo,
                deadline,
            )?;
            report.kernel.absorb(&worker_kernel);
            states
        };
        parallel::reconcile(&shared, &sweep, states, &mut report)?;
        // Kernel-level diagnostics the reconciler cannot reconstruct: how
        // many decisions were answered by the cross-thread σ memo, how much
        // of Φ the pruned walk cut, and how many sink cones the σ-neighbor
        // cache reused.
        report.kernel.mvec_memo_hits = memo.hits();
        report.kernel.sigma_pruned_subtrees = memo.pruned_subtrees();
        report.kernel.sigma_pruned = memo.pruned_combos();
        report.kernel.sigma_reused = memo.reused();
        // The main manager contributed the steady machine and (when enabled)
        // the reachability fixpoint; on the 1-thread path it also ran the
        // whole sweep.
        report.kernel.absorb(&manager.stats());
        if opts.skew {
            crate::skew::run_tier(view, opts, &mut report)?;
        }
        Ok((report, snapshot))
    }

    /// Runs the cone-decomposed analysis, optionally replaying per-cone
    /// results from `seeds`, and harvests fresh [`ConeCacheEntry`] values
    /// for the cones that had to be (re)analyzed.
    ///
    /// `seeds` is either empty or one entry per cone in
    /// [`mct_netlist::decompose`] order; a seed must come from an earlier
    /// `run_decomposed` of a cone with the **same layout digest** under the
    /// same semantic options (every cached artifact — outcomes, layer sets,
    /// reach sets — is positional on the cone's local leaf indices). The
    /// report is bit-identical to [`run`](Self::run) with or without seeds.
    ///
    /// On a single-cone circuit this falls back to the monolithic path and
    /// returns no cache entries.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_decomposed(
        &mut self,
        opts: &MctOptions,
        seeds: &[Option<&crate::decompose::ConeCacheEntry>],
    ) -> Result<(MctReport, crate::decompose::DecomposeArtifacts), MctError> {
        let cones = mct_netlist::decompose(self.view.circuit());
        if cones.len() > 1 {
            return crate::decompose::run(&self.view, cones, opts, seeds, true);
        }
        let total = cones.len();
        let mono = MctOptions {
            decompose: false,
            ..opts.clone()
        };
        let (report, _) = self.run_warm(&mono, None)?;
        Ok((
            report,
            crate::decompose::DecomposeArtifacts {
                cones_total: total,
                cones_replayed: 0,
                entries: (0..total).map(|_| None).collect(),
            },
        ))
    }
}

/// The variation minimum of one delay class. Variation models *gate* delay
/// uncertainty, so only the physical portion `delay − skew_offset` scales;
/// the skew constant rides along unscaled (a clock-tree design parameter,
/// not a device delay). With a zero offset this is exactly the historical
/// `(k_max·num).div_euclid(den)` floor.
pub(crate) fn skewed_k_min(class: &DelayClass, variation: Option<(i64, i64)>) -> i64 {
    match variation {
        Some((num, den)) => {
            ((class.delay - class.skew_offset) * num).div_euclid(den) + class.skew_offset
        }
        None => class.delay,
    }
}

/// Rejects skew annotations that drive some effective path delay below
/// zero at its variation minimum — the skewed register model would have a
/// capture edge preceding the launch (a hold violation no period can fix).
/// An effective delay of exactly zero is allowed: it is the `k → 0⁺` limit
/// the shift clamp already handles.
pub(crate) fn validate_skew_holds(
    view: &FsmView<'_>,
    classes: &[DelayClass],
    variation: Option<(i64, i64)>,
) -> Result<(), MctError> {
    if !view.has_skew() {
        return Ok(());
    }
    for c in classes {
        let k_min = skewed_k_min(c, variation);
        if k_min < 0 {
            return Err(MctError::SkewHoldViolation {
                leaf: view.circuit().net_name(view.leaves()[c.leaf]).to_owned(),
                effective: k_min as f64 / 1000.0,
            });
        }
    }
    Ok(())
}

/// The Section-7 linear program for one shift combination: maximize τ
/// subject to `(σ_i − 1)τ < k_i ≤ σ_i τ`, `k_i = c2q_i + Σ d_e` over the
/// class's representative path, and `d_e ∈ [α·d_e^max, d_e^max]`. Returns
/// the maximal τ in milli-units, or `None` when infeasible.
pub(crate) fn lp_max_tau(
    classes: &[DelayClass],
    sigma: &[i64],
    variation: Option<(i64, i64)>,
    l_millis: i64,
    interval_lo: Rat,
    interval_hi: Option<Rat>,
) -> Option<f64> {
    const EPS: f64 = 1e-3;
    // Collect the distinct gate-pin delay variables.
    let mut edge_ix: HashMap<(NetId, usize, i64), usize> = HashMap::new();
    for class in classes {
        for e in &class.path {
            let next = edge_ix.len();
            edge_ix.entry((e.node, e.pin, e.delay)).or_insert(next);
        }
    }
    let num_vars = 1 + edge_ix.len(); // τ is variable 0
    let mut lp = Simplex::new(num_vars);
    let mut obj = vec![0.0; num_vars];
    obj[0] = 1.0;
    lp.set_objective(&obj);
    // Edge bounds.
    let (num, den) = variation.unwrap_or((1, 1));
    for (&(_, _, d), &ix) in &edge_ix {
        let hi = d as f64;
        let lo = (d * num) as f64 / den as f64;
        lp.add_bounds(1 + ix, lo, hi);
    }
    // Class shift constraints. Zero-delay classes are degenerate: their
    // shift is clamped to 1 by convention (the limit k → 0⁺), so they
    // impose no constraint.
    for (class, &s) in classes.iter().zip(sigma) {
        if class.delay == 0 {
            continue;
        }
        let path_sum: i64 = class.path.iter().map(|e| e.delay).sum();
        let c2q = (class.delay - path_sum) as f64;
        let mut upper = vec![0.0; num_vars]; // Σd_e − στ ≤ −c2q
        upper[0] = -(s as f64);
        for e in &class.path {
            upper[1 + edge_ix[&(e.node, e.pin, e.delay)]] += 1.0;
        }
        lp.add_le(&upper, -c2q);
        let mut lower = vec![0.0; num_vars]; // (σ−1)τ − Σd_e ≤ c2q − ε
        lower[0] = (s - 1) as f64;
        for e in &class.path {
            lower[1 + edge_ix[&(e.node, e.pin, e.delay)]] -= 1.0;
        }
        lp.add_le(&lower, c2q - EPS);
    }
    // The examined interval and the global ceiling τ ≤ L.
    let mut tau_row = vec![0.0; num_vars];
    tau_row[0] = 1.0;
    lp.add_ge(&tau_row, interval_lo.as_f64());
    let ceiling = interval_hi.map_or(l_millis as f64, |h| h.as_f64() - EPS);
    lp.add_le(&tau_row, ceiling);
    match lp.solve() {
        LpOutcome::Optimal { value, .. } => Some(value),
        LpOutcome::Infeasible => None,
        _ => Some(ceiling),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mct_netlist::{GateKind, Time};

    fn t(v: f64) -> Time {
        Time::from_f64(v)
    }

    fn figure2() -> Circuit {
        let mut c = Circuit::new("fig2");
        let f = c.add_dff("f", true, Time::ZERO);
        let cb = c.add_gate("c", GateKind::Buf, &[f], t(1.5));
        let d = c.add_gate("d", GateKind::Not, &[f], t(4.0));
        let e = c.add_gate("e", GateKind::Buf, &[f], t(5.0));
        let a = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
        let b = c.add_gate("b", GateKind::Not, &[f], t(2.0));
        let g = c.add_gate("g", GateKind::Or, &[a, b], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        c
    }

    #[test]
    fn figure2_fixed_delays_bound_is_2_5() {
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9, "{report:?}");
        assert_eq!(report.steady_delay, 5.0);
        assert_eq!(report.first_failing_tau, Some(2.0));
        assert!(!report.exhausted);
        assert!(report.failure.is_some());
    }

    #[test]
    fn figure2_with_variation_still_2_5() {
        // With 90–100% variation the first failing combination appears at
        // τ = 2.25 (shift set of the 5-delay class widens to {2, 3}), and
        // the sup of its feasible range is 5/2 — the bound stays 2.5.
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9, "{report:?}");
        assert!(report.first_failing_tau.unwrap() < 2.5);
    }

    #[test]
    fn figure2_lp_mode_agrees() {
        let c = figure2();
        let opts = MctOptions {
            path_coupled_lp: true,
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        // The LP bound sits one strict-inequality ε below the closed form.
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-4, "{report:?}");
    }

    #[test]
    fn toggler_bound_equals_its_only_path() {
        // Single inverter loop of delay 1: at τ < 1 the shift becomes 2 and
        // the startup behaviour differs — bound = 1.
        let mut c = Circuit::new("toggler");
        let q = c.add_dff("q", false, Time::ZERO);
        let nq = c.add_gate("nq", GateKind::Not, &[q], t(1.0));
        c.connect_dff_data("q", nq).unwrap();
        c.set_output(q);
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        assert!((report.mct_upper_bound - 1.0).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn constant_register_valid_at_every_period() {
        // q' = q: the machine never transitions, so every period is valid
        // and the sweep exhausts its floor.
        let mut c = Circuit::new("hold");
        let q = c.add_dff("q", true, Time::ZERO);
        let b = c.add_gate("b", GateKind::Buf, &[q], t(1.0));
        c.connect_dff_data("q", b).unwrap();
        c.set_output(q);
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::fixed_delays())
            .unwrap();
        assert!(report.exhausted, "{report:?}");
        assert!(report.mct_upper_bound < 0.1);
        assert!(report.first_failing_tau.is_none());
    }

    #[test]
    fn exhaustive_mode_records_regions() {
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::fixed_delays()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9);
        assert!(report.regions.len() >= 5);
        // The region starting at 2.5 is valid; the region at 2.0 is not.
        let at = |lo: f64| {
            report
                .regions
                .iter()
                .find(|r| (r.tau_lo - lo).abs() < 1e-9)
                .copied()
                .unwrap_or_else(|| panic!("no region at {lo}"))
        };
        assert!(at(2.5).valid);
        assert!(!at(2.0).valid);
    }

    #[test]
    fn sigma_cache_is_exercised() {
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.sigma_cache_hits > 0, "{report:?}");
    }

    #[test]
    fn no_state_no_paths_is_trivial() {
        let mut c = Circuit::new("wire");
        let a = c.add_input("a");
        c.set_output(a);
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert_eq!(report.mct_upper_bound, 0.0);
        assert_eq!(report.steady_delay, 0.0);
    }

    #[test]
    fn zero_time_budget_reports_partial() {
        let c = figure2();
        let opts = MctOptions {
            time_budget_ms: Some(0),
            ..MctOptions::fixed_delays()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.timed_out, "{report:?}");
        // The partial bound is whatever was certified (possibly nothing);
        // it must never exceed the steady-state delay.
        assert!(report.mct_upper_bound <= report.steady_delay);
    }

    #[test]
    fn generous_budget_unchanged() {
        let c = figure2();
        let opts = MctOptions {
            time_budget_ms: Some(60_000),
            ..MctOptions::fixed_delays()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(!report.timed_out);
        assert!((report.mct_upper_bound - 2.5).abs() < 1e-9);
    }

    /// Kernel diagnostics are explicitly outside the deterministic report
    /// contract (a warm start skips the fixpoint, so its node counters
    /// differ): zero them before comparing.
    fn strip_kernel(mut r: MctReport) -> MctReport {
        r.kernel = Default::default();
        r
    }

    #[test]
    fn warm_start_report_identical_to_cold() {
        let c = figure2();
        let opts = MctOptions::default();
        let (cold, snapshot) = MctAnalyzer::new(&c).unwrap().run_warm(&opts, None).unwrap();
        let snapshot = snapshot.expect("reachability on ⇒ snapshot exported");
        assert_eq!(snapshot.num_states(), 2.0);

        // A fresh analyzer warm-started from the snapshot: same report.
        let (warm, again) = MctAnalyzer::new(&c)
            .unwrap()
            .run_warm(&opts, Some(&snapshot))
            .unwrap();
        let (cold, warm) = (strip_kernel(cold), strip_kernel(warm));
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert_eq!(again.expect("snapshot re-exported").num_states(), 2.0);

        // Warm-starting a *different-options* run of the same circuit also
        // reproduces its cold report.
        let fixed = MctOptions::fixed_delays();
        let cold_fixed = strip_kernel(MctAnalyzer::new(&c).unwrap().run(&fixed).unwrap());
        let (warm_fixed, _) = MctAnalyzer::new(&c)
            .unwrap()
            .run_warm(&fixed, Some(&snapshot))
            .unwrap();
        let warm_fixed = strip_kernel(warm_fixed);
        assert_eq!(format!("{cold_fixed:?}"), format!("{warm_fixed:?}"));
    }

    #[test]
    fn mvec_memo_hits_surface_in_kernel() {
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        // Single-threaded the sweep runs in τ order, so every repeated σ is
        // answered by the memo and every memo answer is a repeat: the
        // kernel counter equals the reconciled cache-hit count exactly.
        assert!(report.sigma_cache_hits > 0, "{report:?}");
        assert_eq!(
            report.kernel.mvec_memo_hits, report.sigma_cache_hits as u64,
            "{:?}",
            report.kernel
        );
        // Multi-threaded the counter depends on scheduling, but with this
        // many repeats some decisions must short-circuit.
        let par = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                num_threads: 4,
                ..opts
            })
            .unwrap();
        assert!(par.kernel.mvec_memo_hits > 0, "{:?}", par.kernel);
    }

    /// A circuit whose delay classes *share* gate-pin delay variables: a
    /// common trunk `x` feeds a fast and a slow branch, so shift choices
    /// for the two branch classes can demand contradictory trunk delays —
    /// joint infeasibility visible to the path-coupled LP but never to the
    /// independent-interval closed form (which is exact only for disjoint
    /// paths).
    fn coupled_star() -> Circuit {
        let mut c = Circuit::new("coupled");
        let f = c.add_dff("f", true, Time::ZERO);
        let u = c.add_gate("u", GateKind::Buf, &[f], t(0.4));
        let v = c.add_gate("v", GateKind::Not, &[f], t(0.7));
        let x = c.add_gate("x", GateKind::Buf, &[f], t(2.0));
        let y = c.add_gate("y", GateKind::Buf, &[x], t(0.5));
        let z = c.add_gate("z", GateKind::Not, &[x], t(3.0));
        let g = c.add_gate("g", GateKind::And, &[u, v, y, z], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        c
    }

    /// Wide variation + LP path coupling on the shared-trunk circuit: the
    /// setting where Φ-subtree pruning actually engages.
    fn coupled_opts() -> MctOptions {
        MctOptions {
            delay_variation: Some((1, 2)),
            path_coupled_lp: true,
            exhaustive_floor: Some(0.5),
            ..MctOptions::default()
        }
    }

    #[test]
    fn reports_identical_across_sigma_strategies_and_threads() {
        // The tentpole invariant: {flat, pruned} × threads {1, 2, 4} all
        // produce byte-identical reports outside the kernel diagnostics —
        // both on a plain circuit and on one where pruning actually cuts.
        let cases = [
            (
                figure2(),
                MctOptions {
                    exhaustive_floor: Some(1.0),
                    ..MctOptions::default()
                },
            ),
            (coupled_star(), coupled_opts()),
        ];
        for (c, base) in &cases {
            let run = |sigma, num_threads| {
                strip_kernel(
                    MctAnalyzer::new(c)
                        .unwrap()
                        .run(&MctOptions {
                            sigma,
                            num_threads,
                            ..base.clone()
                        })
                        .unwrap(),
                )
            };
            let reference = run(SigmaStrategy::Flat, 1);
            for sigma in [SigmaStrategy::Flat, SigmaStrategy::Pruned] {
                for threads in [1, 2, 4] {
                    let r = run(sigma, threads);
                    assert_eq!(
                        format!("{reference:?}"),
                        format!("{r:?}"),
                        "{} / {sigma:?} at {threads} threads",
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn sigma_prune_counters_populated() {
        // Wide variable delays, a shared trunk edge, LP path coupling, and
        // an exhaustive sweep: part of the Cartesian product is jointly
        // infeasible, so the pruned walk must cut something — and must
        // report it (never silently zero).
        let c = coupled_star();
        let opts = coupled_opts();
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.kernel.sigma_pruned > 0, "{:?}", report.kernel);
        assert!(
            report.kernel.sigma_pruned_subtrees > 0,
            "{:?}",
            report.kernel
        );
        // The flat strategy never prunes, by definition.
        let flat = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                sigma: SigmaStrategy::Flat,
                ..opts.clone()
            })
            .unwrap();
        assert_eq!(flat.kernel.sigma_pruned, 0, "{:?}", flat.kernel);
        assert_eq!(flat.kernel.sigma_pruned_subtrees, 0, "{:?}", flat.kernel);
    }

    #[test]
    fn sigma_reuse_counter_populated() {
        // Plenty of distinct σ per candidate ⇒ the σ-neighbor cone cache
        // must answer some sinks from cache.
        let c = figure2();
        let opts = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let report = MctAnalyzer::new(&c).unwrap().run(&opts).unwrap();
        assert!(report.kernel.sigma_reused > 0, "{:?}", report.kernel);
    }

    #[test]
    fn reports_identical_across_ordering_policies() {
        let c = figure2();
        let base = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::default()
        };
        let run = |ordering| {
            strip_kernel(
                MctAnalyzer::new(&c)
                    .unwrap()
                    .run(&MctOptions {
                        ordering,
                        ..base.clone()
                    })
                    .unwrap(),
            )
        };
        let alloc = run(VarOrder::Alloc);
        let fixed = run(VarOrder::Static);
        assert_eq!(format!("{alloc:?}"), format!("{fixed:?}"));
    }

    #[test]
    fn kernel_diagnostics_populated() {
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert!(report.kernel.nodes > 0, "{:?}", report.kernel);
        assert!(report.kernel.peak_nodes >= report.kernel.nodes);
        assert!(report.kernel.ops_cache_lookups > 0);
    }

    #[test]
    fn reachability_reported() {
        let c = figure2();
        let report = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions::default())
            .unwrap();
        assert!(report.used_reachability);
        assert_eq!(report.reachable_states, Some(2.0));
    }
}
