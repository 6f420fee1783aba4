//! The candidate-sweep engine behind [`crate::MctAnalyzer`]: planning,
//! per-candidate evaluation, and τ-order reconciliation — shared by the
//! sequential path and the multi-threaded worker pool.
//!
//! # Architecture
//!
//! The sweep over candidate periods factors into three phases:
//!
//! 1. **Plan** ([`plan`]): drain the [`BreakpointIter`] into an explicit
//!    descending-τ candidate list. Each candidate's shift-combination count
//!    is pure interval arithmetic, so σ-explosion is detected here without
//!    any symbolic work.
//! 2. **Evaluate** ([`run_single`] / [`run_pool`]): run the decision
//!    algorithm over every feasible shift combination of each candidate.
//!    The BDD manager is single-threaded by design (shared unique/compute
//!    tables want no locks), so each pool worker owns a full private
//!    symbolic stack — manager, timed-variable table, cone extractor,
//!    decision context, and its own reachability fixpoint. What *is* shared
//!    is the Φ-signature memo: a sharded map keyed by the shift vector σ,
//!    storing the (manager-independent) [`DecisionOutcome`], so no two
//!    workers ever decide the same σ twice.
//! 3. **Reconcile** ([`reconcile`]): replay the per-candidate outcomes in
//!    strict descending-τ order, reconstructing the exact report a
//!    sequential sweep would produce — same bound, same regions, same
//!    first-failure diagnostics, and the same `sigma_checked` /
//!    `sigma_cache_hits` counters (a cache hit is, by definition, a feasible
//!    occurrence of a σ already seen at a larger τ; that count is a pure
//!    function of the τ-ordered occurrence sequence, not of worker
//!    scheduling).
//!
//! Because both the 1-thread and the N-thread path go through the same
//! evaluator and the same reconciler, parallel reports are bit-identical to
//! sequential ones; speculative work past the first failing candidate is
//! simply discarded by the reconciler (and mostly avoided by the shared
//! stop-index the workers publish).

use crate::analyzer::{lp_max_tau, MctOptions, MctReport, SigmaStrategy, ValidityRegion};
use crate::breakpoints::BreakpointIter;
use crate::decision::{DecisionContext, DecisionOutcome};
use crate::error::MctError;
use crate::sigma::{feasible_tau_range, ShiftRange, SigmaIter, SigmaPruneStats, SigmaWalk};
use mct_bdd::Bdd;
use mct_bdd::BddManager;
use mct_bdd::BddStats;
use mct_lp::Rat;
use mct_netlist::FsmView;
use mct_tbf::{
    transfer_bdd, ConeExtractor, DelayClass, DiscreteMachine, SigmaConeCache, TimedVar,
    TimedVarTable,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Immutable inputs of one sweep, shared by every worker.
pub(crate) struct SweepShared {
    /// Delay classes of the machine (one per `(leaf, delay)` pair).
    pub classes: Vec<DelayClass>,
    /// Per-class delay interval `[k_min, k_max]` in milli-units.
    pub intervals: Vec<(i64, i64)>,
    /// Class index by `(leaf, delay)`.
    pub class_ix: HashMap<(usize, i64), usize>,
    /// The steady-state delay `L` in milli-units.
    pub l_millis: i64,
    /// Level order of the main manager at sweep start, for workers to
    /// pre-register into their private tables (empty under
    /// [`crate::VarOrder::Alloc`]).
    pub order: Vec<TimedVar>,
    /// The analysis options.
    pub opts: MctOptions,
}

impl SweepShared {
    pub(crate) fn early_exit(&self) -> bool {
        self.opts.exhaustive_floor.is_none()
    }
}

/// One candidate period of the plan.
pub(crate) struct PlannedCandidate {
    /// The breakpoint τ (left end of the examined interval), milli-units.
    pub tau: Rat,
    /// The previous (larger) breakpoint — right end of the interval.
    pub prev: Option<Rat>,
    /// `|Φ(τ)|` before feasibility filtering (pure interval arithmetic),
    /// saturating at `u128::MAX`.
    pub combos: u128,
}

/// The full candidate list of one sweep, in descending τ order.
pub(crate) struct SweepPlan {
    pub candidates: Vec<PlannedCandidate>,
    /// A `(max_candidates + 1)`-th breakpoint exists: the sweep ends by
    /// budget, and that candidate counts as examined-but-unprocessed.
    pub overflowed: bool,
}

/// Drains the breakpoint iterator into an explicit plan.
pub(crate) fn plan(bp_delays: &[i64], floor: Rat, shared: &SweepShared) -> SweepPlan {
    let mut candidates = Vec::new();
    let mut prev: Option<Rat> = None;
    let mut overflowed = false;
    for b in BreakpointIter::new(bp_delays, floor) {
        if candidates.len() == shared.opts.max_candidates {
            overflowed = true;
            break;
        }
        let ranges: Vec<ShiftRange> = shared
            .intervals
            .iter()
            .map(|&(lo, hi)| ShiftRange::at(lo, hi, b))
            .collect();
        candidates.push(PlannedCandidate {
            tau: b,
            prev,
            combos: SigmaIter::combination_count(&ranges),
        });
        prev = Some(b);
    }
    SweepPlan {
        candidates,
        overflowed,
    }
}

/// What happened to one planned candidate.
pub(crate) enum CandState {
    /// Never evaluated (beyond the stop index); the reconciler must not
    /// reach it.
    Pending,
    /// Fully evaluated.
    Done(CandidateEval),
    /// Evaluation failed (σ explosion or an extraction error).
    Failed(MctError),
    /// The wall-clock deadline expired before this candidate ran.
    DeadlineHit,
}

/// The result of evaluating every feasible shift combination of one
/// candidate period.
pub(crate) struct CandidateEval {
    /// Feasible shift vectors in enumeration order (the reconciler
    /// reconstructs the τ-ordered cache-hit count from these).
    pub sigmas: Vec<Vec<i64>>,
    /// Outcome of the first invalid σ in enumeration order, if any.
    pub first_invalid: Option<DecisionOutcome>,
    /// The sup of the feasible τ range of each failing σ.
    pub failing_sups: Vec<Rat>,
}

/// The sharded Φ-signature memo: shift vector → decision outcome. The
/// outcome of a σ is independent of the candidate period it was first seen
/// at (the discretized machine is a function of σ alone) and of the worker
/// that decided it (a [`DecisionOutcome`] carries only cycle/bit indices),
/// so the memo is safely shared across threads.
pub(crate) struct SigmaMemo {
    shards: Vec<Mutex<HashMap<Vec<i64>, DecisionOutcome>>>,
    /// Number of lookups answered by the memo, across all threads. Unlike
    /// the reconciled `sigma_cache_hits` (a pure function of the τ-ordered
    /// occurrence sequence), this counts *actual* short-circuited decisions
    /// and so depends on worker scheduling; it is surfaced as the
    /// [`mct_bdd::BddStats::mvec_memo_hits`] kernel diagnostic.
    hits: AtomicU64,
    /// Φ subtrees cut by the pruned walk, across all threads (see
    /// [`SigmaPruneStats`]). Like `hits`, a scheduling-dependent kernel
    /// diagnostic, surfaced as `sigma_pruned_subtrees`.
    pruned_subtrees: AtomicU64,
    /// Combinations contained in the cut subtrees (`sigma_pruned`).
    pruned_combos: AtomicU64,
    /// Sink cones answered by the σ-neighbor cone cache instead of being
    /// re-extracted (`sigma_reused`).
    reused: AtomicU64,
}

impl SigmaMemo {
    pub fn new(num_shards: usize) -> Self {
        SigmaMemo {
            shards: (0..num_shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            pruned_subtrees: AtomicU64::new(0),
            pruned_combos: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Lookups answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Φ subtrees cut so far.
    pub fn pruned_subtrees(&self) -> u64 {
        self.pruned_subtrees.load(Ordering::Relaxed)
    }

    /// Combinations never generated thanks to subtree cuts.
    pub fn pruned_combos(&self) -> u64 {
        self.pruned_combos.load(Ordering::Relaxed)
    }

    /// Sink cones reused from the σ-neighbor cache.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Folds one walk's prune counters into the shared totals.
    pub fn add_prune(&self, stats: &SigmaPruneStats) {
        if stats.subtrees > 0 {
            self.pruned_subtrees
                .fetch_add(stats.subtrees, Ordering::Relaxed);
            self.pruned_combos
                .fetch_add(stats.combos, Ordering::Relaxed);
        }
    }

    /// Folds one candidate's cone-cache hits into the shared total.
    pub fn add_reused(&self, n: u64) {
        if n > 0 {
            self.reused.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn shard(&self, sigma: &[i64]) -> &Mutex<HashMap<Vec<i64>, DecisionOutcome>> {
        let mut h = DefaultHasher::new();
        sigma.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn get(&self, sigma: &[i64]) -> Option<DecisionOutcome> {
        let outcome = self
            .shard(sigma)
            .lock()
            .expect("memo shard")
            .get(sigma)
            .copied();
        if outcome.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    fn insert(&self, sigma: &[i64], outcome: DecisionOutcome) {
        self.shard(sigma)
            .lock()
            .expect("memo shard")
            .insert(sigma.to_vec(), outcome);
    }
}

/// The per-worker (or main-thread) symbolic state needed to evaluate
/// candidates.
pub(crate) struct EvalEnv<'e, 'c> {
    pub view: &'e FsmView<'c>,
    pub extractor: &'e ConeExtractor<'c>,
    pub ctx: &'e mut DecisionContext<'c>,
    pub manager: &'e mut BddManager,
    pub table: &'e mut TimedVarTable,
}

/// The shift ranges `Φ(τ)` of one candidate — pure interval arithmetic,
/// identical wherever it is recomputed.
pub(crate) fn sigma_ranges(shared: &SweepShared, cand: &PlannedCandidate) -> Vec<ShiftRange> {
    shared
        .intervals
        .iter()
        .map(|&(lo, hi)| ShiftRange::at(lo, hi, cand.tau))
        .collect()
}

/// A shift combination that survived feasibility gating: the closed-form
/// range sup and (when LP path coupling is on) the LP sup.
pub(crate) struct SigmaGate {
    /// Upper end of the closed-form feasible τ range, when bounded.
    pub hi: Option<Rat>,
    /// The LP maximum τ (milli-units as `f64`), when path coupling ran.
    pub lp_sup: Option<f64>,
}

/// Applies the feasibility gates to one σ of one candidate: the
/// independent-interval closed form, then (optionally) the path-coupled LP.
/// Returns `None` when the combination is infeasible. Every evaluation path
/// (sequential, pooled, decomposed) goes through this function, so they gate
/// identically by construction.
pub(crate) fn gate_sigma(
    shared: &SweepShared,
    cand: &PlannedCandidate,
    sigma: &[i64],
) -> Option<SigmaGate> {
    let (_, hi) = feasible_tau_range(sigma, &shared.intervals, cand.tau, cand.prev)?;
    let lp_sup = if shared.opts.path_coupled_lp {
        // Path coupling proving infeasibility gates the σ out entirely.
        Some(lp_max_tau(
            &shared.classes,
            sigma,
            shared.opts.delay_variation,
            shared.l_millis,
            cand.tau,
            cand.prev,
        )?)
    } else {
        None
    };
    Some(SigmaGate { hi, lp_sup })
}

/// The sup of the feasible τ range of a failing σ: the closed form,
/// tightened by the LP sup when available.
pub(crate) fn failing_sup(shared: &SweepShared, cand: &PlannedCandidate, gate: &SigmaGate) -> Rat {
    let closed_form_sup = gate
        .hi
        .or(cand.prev)
        .unwrap_or(Rat::new(shared.l_millis, 1));
    match gate.lp_sup {
        Some(v) => Rat::new((v * 1000.0).round() as i64, 1000).min(closed_form_sup),
        None => closed_form_sup,
    }
}

/// The full-Φ window: every ordinal of the candidate's enumeration.
pub(crate) const FULL_WINDOW: (u128, u128) = (0, u128::MAX);

/// Callback of [`for_each_gated`]: one surviving combination and its gate.
pub(crate) type GatedVisitor<'a, E> = &'a mut dyn FnMut(&[i64], &SigmaGate) -> Result<bool, E>;

/// Enumerates the *gated* (feasible) shift combinations of one candidate in
/// flat-odometer order, through the strategy selected by
/// [`MctOptions::sigma`]:
///
/// * [`SigmaStrategy::Flat`] walks every combination and filters each
///   through [`gate_sigma`] after the fact — the classic odometer;
/// * [`SigmaStrategy::Pruned`] walks the prefix tree of [`SigmaWalk`],
///   cutting subtrees whose partial-assignment τ bound is already empty and
///   (when LP path coupling is on) subtrees whose assigned-suffix LP
///   relaxation is infeasible. Dropping the unassigned prefix drops
///   constraints *and* variables from the LP, so an infeasible suffix
///   relaxation soundly certifies every completion infeasible.
///
/// Both strategies visit exactly the surviving σ, in exactly the flat
/// enumeration order (a pruned walk emits a subsequence, never a
/// reordering), so everything downstream — decisions, cache-hit replay,
/// failure diagnostics — is byte-identical between them. What pruning
/// changes is only *work*, witnessed by `stats`.
///
/// `visit` returns `Ok(false)` to stop the enumeration early.
pub(crate) fn for_each_gated<E>(
    shared: &SweepShared,
    cand: &PlannedCandidate,
    window: (u128, u128),
    stats: &mut SigmaPruneStats,
    visit: GatedVisitor<'_, E>,
) -> Result<(), E> {
    let ranges = sigma_ranges(shared, cand);
    let prune = shared.opts.sigma == SigmaStrategy::Pruned;
    let walk = SigmaWalk::new(&ranges, &shared.intervals, cand.tau, cand.prev, prune)
        .window(window.0, window.1);
    let lp = shared.opts.path_coupled_lp;
    let mut subtree_infeasible = |partial: &[i64], j: usize| {
        lp && lp_max_tau(
            &shared.classes[j..],
            partial,
            shared.opts.delay_variation,
            shared.l_millis,
            cand.tau,
            cand.prev,
        )
        .is_none()
    };
    let mut gated = |sigma: &[i64]| match gate_sigma(shared, cand, sigma) {
        None => Ok(true),
        Some(gate) => visit(sigma, &gate),
    };
    walk.run(stats, &mut subtree_infeasible, &mut gated)?;
    Ok(())
}

/// Evaluates one candidate (or one ordinal window of it): enumerate Φ(τ),
/// filter to the feasible σ, and decide each against the steady machine
/// (through the shared memo). When a σ-neighbor cone cache is supplied,
/// machines are assembled through it so sinks whose projected shifts are
/// unchanged from a previous σ reuse their composed BDD; the caller owns
/// the cache lifecycle (release at candidate boundaries).
pub(crate) fn eval_candidate(
    shared: &SweepShared,
    env: &mut EvalEnv<'_, '_>,
    cand: &PlannedCandidate,
    memo: &SigmaMemo,
    window: (u128, u128),
    mut cones: Option<&mut SigmaConeCache>,
) -> Result<CandidateEval, MctError> {
    let mut eval = CandidateEval {
        sigmas: Vec::new(),
        first_invalid: None,
        failing_sups: Vec::new(),
    };
    let mut stats = SigmaPruneStats::default();
    {
        let env = &mut *env;
        let eval = &mut eval;
        let cones = &mut cones;
        let mut visit = |sigma: &[i64], gate: &SigmaGate| -> Result<bool, MctError> {
            let outcome = match memo.get(sigma) {
                Some(o) => o,
                None => {
                    let machine = match cones.as_deref_mut() {
                        Some(cache) => {
                            cache.machine(env.extractor, env.manager, env.table, |leaf, k| {
                                sigma[shared.class_ix[&(leaf, k)]]
                            })?
                        }
                        None => DiscreteMachine::with_shift_fn(
                            env.extractor,
                            env.manager,
                            env.table,
                            |leaf, k| sigma[shared.class_ix[&(leaf, k)]],
                        )?,
                    };
                    let outcome = if shared.opts.exact_check {
                        crate::exact::decide_exact(
                            env.view,
                            env.manager,
                            env.table,
                            &machine,
                            env.ctx.steady(),
                            shared.opts.max_product_bits,
                        )?
                    } else {
                        env.ctx.decide(env.manager, env.table, &machine)
                    };
                    memo.insert(sigma, outcome);
                    outcome
                }
            };
            if !outcome.is_valid() {
                if eval.first_invalid.is_none() {
                    eval.first_invalid = Some(outcome);
                }
                eval.failing_sups.push(failing_sup(shared, cand, gate));
            }
            eval.sigmas.push(sigma.to_vec());
            Ok(true)
        };
        for_each_gated(shared, cand, window, &mut stats, &mut visit)?;
    }
    memo.add_prune(&stats);
    if let Some(cache) = cones.as_mut() {
        memo.add_reused(cache.take_hits());
    }
    Ok(eval)
}

/// Evaluates the plan on the calling thread (the 1-thread path), stopping
/// exactly where the classic sequential sweep would: at the deadline, at a
/// σ explosion, or (without an exhaustive floor) after the first failing
/// candidate.
pub(crate) fn run_single(
    shared: &SweepShared,
    sweep: &SweepPlan,
    env: &mut EvalEnv<'_, '_>,
    memo: &SigmaMemo,
    deadline: Option<Instant>,
) -> Vec<CandState> {
    let mut states: Vec<CandState> = sweep
        .candidates
        .iter()
        .map(|_| CandState::Pending)
        .collect();
    // Everything that must outlive one candidate evaluation: the per-σ
    // discretized machines are rebuilt from the netlist each time, so the
    // collector may reclaim their nodes between candidates.
    let mut gc_roots = env.ctx.gc_roots();
    // The σ-neighbor cone cache lives for one candidate at a time: released
    // (unpinned) at every candidate boundary so the collector sees the same
    // reclaimable set it would without the cache.
    let mut cones = SigmaConeCache::new(env.extractor).ok();
    for (index, cand) in sweep.candidates.iter().enumerate() {
        if deadline.is_some_and(|d| Instant::now() > d) {
            states[index] = CandState::DeadlineHit;
            break;
        }
        if cand.combos > shared.opts.max_sigma_combos as u128 {
            states[index] = CandState::Failed(MctError::SigmaExplosion {
                tau: cand.tau.as_f64() / 1000.0,
                cap: shared.opts.max_sigma_combos,
            });
            break;
        }
        let outcome = eval_candidate(shared, env, cand, memo, FULL_WINDOW, cones.as_mut());
        if let Some(cache) = cones.as_mut() {
            cache.release(env.manager);
        }
        env.manager.maybe_collect_garbage(&gc_roots);
        // Candidate boundaries are the one place every outstanding handle
        // is enumerable (context + roots; the cone cache was just
        // released), so fragmentation-triggered compaction happens here.
        if env.manager.compact_pending() {
            let map = env.manager.compact(&gc_roots);
            env.ctx.rebind(&map);
            for root in &mut gc_roots {
                *root = map.rewrite(*root);
            }
        }
        match outcome {
            Ok(eval) => {
                let failing = !eval.failing_sups.is_empty();
                states[index] = CandState::Done(eval);
                if failing && shared.early_exit() {
                    break;
                }
            }
            Err(e) => {
                states[index] = CandState::Failed(e);
                break;
            }
        }
    }
    states
}

/// The reachable-state restriction as computed on the main manager, for
/// workers to import (see [`transfer_bdd`]) instead of re-running the
/// image fixpoint.
pub(crate) struct SharedReach<'m> {
    pub manager: &'m BddManager,
    pub table: &'m TimedVarTable,
    pub set: Bdd,
}

/// One unit of pool work: an ordinal window of one candidate's Φ tree.
/// Small candidates are a single full-window item; large ones are split
/// into contiguous windows so several workers advance one candidate
/// together (intra-Φ parallelism).
struct WorkItem {
    /// Candidate index in the plan.
    cand: usize,
    /// Ordinal window `[start, end)` of the candidate's enumeration.
    window: (u128, u128),
}

/// Don't split a candidate below this many combinations — windows smaller
/// than this are dominated by per-chunk overhead (cache warm-up, dispatch).
const SPLIT_MIN: u128 = 256;

/// Builds the dispatch list: items ordered by (candidate, window start), so
/// chunk results concatenate back into flat enumeration order.
fn plan_items(shared: &SweepShared, sweep: &SweepPlan, threads: usize) -> Vec<WorkItem> {
    let mut items = Vec::new();
    for (cand, planned) in sweep.candidates.iter().enumerate() {
        let combos = planned.combos;
        let splittable = threads > 1
            && combos >= SPLIT_MIN
            // An exploding candidate must surface as ONE SigmaExplosion,
            // exactly like the sequential path.
            && combos <= shared.opts.max_sigma_combos as u128;
        let chunks = if splittable {
            combos.min(4 * threads as u128)
        } else {
            1
        };
        for k in 0..chunks {
            let start = combos * k / chunks;
            let end = combos * (k + 1) / chunks;
            items.push(WorkItem {
                cand,
                window: if chunks == 1 {
                    FULL_WINDOW
                } else {
                    (start, end)
                },
            });
        }
    }
    items
}

/// The cross-worker coordination state of one pool run: the item dispatch
/// counter, the (shrink-only, candidate-granular) stop index, and the
/// shared deadline.
struct PoolControl {
    next: AtomicUsize,
    stop_at: AtomicUsize,
    deadline: Option<Instant>,
}

/// Evaluates the plan on `threads` workers, each owning a private symbolic
/// stack. Work items (candidate windows) are claimed from a shared counter
/// in enumeration order; a shared candidate-granular stop index prunes work
/// past the first terminal event (failing candidate in early-exit mode,
/// error, or deadline). Chunk results are merged back per candidate in
/// window order, reconstructing exactly the evaluation a single worker
/// would have produced.
pub(crate) fn run_pool(
    shared: &SweepShared,
    sweep: &SweepPlan,
    view: &FsmView<'_>,
    reach: Option<&SharedReach<'_>>,
    threads: usize,
    memo: &SigmaMemo,
    deadline: Option<Instant>,
) -> Result<(Vec<CandState>, BddStats), MctError> {
    let items = plan_items(shared, sweep, threads);
    let control = PoolControl {
        next: AtomicUsize::new(0),
        stop_at: AtomicUsize::new(usize::MAX),
        deadline,
    };
    type WorkerOut = (Vec<(usize, CandState)>, BddStats);
    let results: Result<Vec<WorkerOut>, MctError> = std::thread::scope(|scope| {
        let items = &items;
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| worker_loop(shared, sweep, items, view, reach, &control, memo)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<CandState>> = items.iter().map(|_| None).collect();
    let mut kernel = BddStats::default();
    for (worker_slots, worker_stats) in results? {
        kernel.absorb(&worker_stats);
        for (index, state) in worker_slots {
            slots[index] = Some(state);
        }
    }
    // Regroup the chunk results per candidate, in window order.
    let mut states: Vec<CandState> = Vec::with_capacity(sweep.candidates.len());
    let mut slots = slots.into_iter().zip(&items).peekable();
    for cand in 0..sweep.candidates.len() {
        let mut chunks = Vec::new();
        while slots.peek().is_some_and(|(_, item)| item.cand == cand) {
            chunks.push(slots.next().expect("peeked").0);
        }
        states.push(merge_chunks(chunks));
    }
    Ok((states, kernel))
}

/// Reassembles one candidate from its chunk outcomes (in window order).
///
/// A terminal chunk (error or deadline) publishes the candidate-granular
/// stop index *at* its own candidate, and workers only skip items strictly
/// past the stop index — so every chunk of a candidate at or before the
/// stop is claimed and recorded, and an unrecorded chunk can only belong to
/// a candidate past the effective sweep (merged to `Pending`, which the
/// reconciler never reaches).
fn merge_chunks(chunks: Vec<Option<CandState>>) -> CandState {
    if chunks
        .iter()
        .any(|c| matches!(c, Some(CandState::Failed(_))))
    {
        for c in chunks {
            if let Some(CandState::Failed(e)) = c {
                return CandState::Failed(e);
            }
        }
        unreachable!("a Failed chunk was found above");
    }
    if chunks
        .iter()
        .any(|c| matches!(c, Some(CandState::DeadlineHit)))
    {
        return CandState::DeadlineHit;
    }
    if chunks.iter().any(|c| c.is_none()) {
        return CandState::Pending;
    }
    let mut merged = CandidateEval {
        sigmas: Vec::new(),
        first_invalid: None,
        failing_sups: Vec::new(),
    };
    for c in chunks {
        let Some(CandState::Done(eval)) = c else {
            unreachable!("non-Done chunks handled above");
        };
        // Windows are disjoint and ordered, so concatenation *is* the flat
        // enumeration order; the first invalid outcome across chunks is the
        // first in enumeration order.
        if merged.first_invalid.is_none() {
            merged.first_invalid = eval.first_invalid;
        }
        merged.sigmas.extend(eval.sigmas);
        merged.failing_sups.extend(eval.failing_sups);
    }
    CandState::Done(merged)
}

/// One worker: build a private symbolic stack, then claim and evaluate
/// work items until the list (or the stop index) is exhausted.
fn worker_loop(
    shared: &SweepShared,
    sweep: &SweepPlan,
    items: &[WorkItem],
    view: &FsmView<'_>,
    reach: Option<&SharedReach<'_>>,
    control: &PoolControl,
    memo: &SigmaMemo,
) -> Result<(Vec<(usize, CandState)>, BddStats), MctError> {
    let extractor = ConeExtractor::new(view).with_node_limit(shared.opts.cone_node_limit);
    let mut manager = BddManager::new();
    let mut table = TimedVarTable::new();
    // Inherit the main manager's order before building anything.
    table.preregister(shared.order.iter().copied());
    let mut ctx = DecisionContext::new(&extractor, &mut manager, &mut table)?;
    if let Some(r) = reach {
        // Import the restriction computed once on the main manager — a
        // linear walk, not a repeat of the image fixpoint.
        let local = transfer_bdd(r.manager, r.table, r.set, &mut manager, &mut table)?;
        ctx = ctx.with_restriction(local);
    }
    let mut gc_roots = ctx.gc_roots();
    let mut env = EvalEnv {
        view,
        extractor: &extractor,
        ctx: &mut ctx,
        manager: &mut manager,
        table: &mut table,
    };
    let mut cones = SigmaConeCache::new(&extractor).ok();
    let mut out = Vec::new();
    loop {
        let index = control.next.fetch_add(1, Ordering::Relaxed);
        if index >= items.len() {
            break;
        }
        let item = &items[index];
        // The stop index only shrinks and items are candidate-ordered, so
        // every later claim is also past it: this worker is done. Items
        // *at* the stop candidate still run — its remaining chunks must
        // complete for the merge.
        if item.cand > control.stop_at.load(Ordering::Acquire) {
            break;
        }
        let cand = &sweep.candidates[item.cand];
        let state = if control.deadline.is_some_and(|d| Instant::now() > d) {
            control.stop_at.fetch_min(item.cand, Ordering::AcqRel);
            CandState::DeadlineHit
        } else if cand.combos > shared.opts.max_sigma_combos as u128 {
            control.stop_at.fetch_min(item.cand, Ordering::AcqRel);
            CandState::Failed(MctError::SigmaExplosion {
                tau: cand.tau.as_f64() / 1000.0,
                cap: shared.opts.max_sigma_combos,
            })
        } else {
            let outcome = eval_candidate(shared, &mut env, cand, memo, item.window, cones.as_mut());
            if let Some(cache) = cones.as_mut() {
                cache.release(env.manager);
            }
            env.manager.maybe_collect_garbage(&gc_roots);
            // Same candidate-boundary compaction as `run_single`: the cone
            // cache was just released, so the context + roots enumerate
            // every live handle this worker holds.
            if env.manager.compact_pending() {
                let map = env.manager.compact(&gc_roots);
                env.ctx.rebind(&map);
                for root in &mut gc_roots {
                    *root = map.rewrite(*root);
                }
            }
            match outcome {
                Ok(eval) => {
                    if !eval.failing_sups.is_empty() && shared.early_exit() {
                        control.stop_at.fetch_min(item.cand, Ordering::AcqRel);
                    }
                    CandState::Done(eval)
                }
                Err(e) => {
                    control.stop_at.fetch_min(item.cand, Ordering::AcqRel);
                    CandState::Failed(e)
                }
            }
        };
        out.push((index, state));
    }
    let stats = env.manager.stats();
    Ok((out, stats))
}

/// Replays per-candidate outcomes in descending-τ order, producing the
/// exact report of a sequential sweep. Stops at the first terminal state
/// (deadline, error, or — without an exhaustive floor — the candidate after
/// the first failure), so speculative parallel work past that point is
/// discarded.
pub(crate) fn reconcile(
    shared: &SweepShared,
    sweep: &SweepPlan,
    states: Vec<CandState>,
    report: &mut MctReport,
) -> Result<(), MctError> {
    let mut seen: HashSet<Vec<i64>> = HashSet::new();
    let mut prev_tau: Option<Rat> = None;
    let mut smallest_examined: Option<Rat> = None;
    let mut found_failure = false;
    let mut completed = true;
    for (cand, state) in sweep.candidates.iter().zip(states) {
        match state {
            CandState::Pending => {
                // Beyond the stop index: nothing here (or later) was part
                // of the effective sweep.
                completed = false;
                break;
            }
            CandState::DeadlineHit => {
                report.candidates_checked += 1;
                report.timed_out = true;
                completed = false;
                break;
            }
            CandState::Failed(e) => return Err(e),
            CandState::Done(eval) => {
                report.candidates_checked += 1;
                for sigma in eval.sigmas {
                    report.sigma_checked += 1;
                    if !seen.insert(sigma) {
                        report.sigma_cache_hits += 1;
                    }
                }
                let region_valid = eval.failing_sups.is_empty();
                report.regions.push(ValidityRegion {
                    tau_lo: cand.tau.as_f64() / 1000.0,
                    tau_hi: prev_tau.map_or(f64::INFINITY, |p| p.as_f64() / 1000.0),
                    valid: region_valid,
                });
                if !region_valid && !found_failure {
                    found_failure = true;
                    let bound = eval
                        .failing_sups
                        .iter()
                        .copied()
                        .fold(eval.failing_sups[0], Rat::max);
                    report.bound_exact = bound;
                    report.mct_upper_bound = bound.as_f64() / 1000.0;
                    report.first_failing_tau = Some(cand.tau.as_f64() / 1000.0);
                    report.failure = eval.first_invalid;
                    if shared.early_exit() {
                        return Ok(());
                    }
                }
                prev_tau = Some(cand.tau);
                smallest_examined = Some(cand.tau);
            }
        }
    }
    if completed && sweep.overflowed {
        // The sequential loop counts the (max_candidates + 1)-th breakpoint
        // before noticing the budget is spent.
        report.candidates_checked += 1;
    }
    if !found_failure {
        // Every examined period was valid: the certified bound is the
        // smallest period we checked.
        report.exhausted = true;
        let bound = smallest_examined.unwrap_or(Rat::ZERO);
        report.bound_exact = bound;
        report.mct_upper_bound = bound.as_f64() / 1000.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::analyzer::{MctAnalyzer, MctOptions, MctReport};
    use mct_netlist::{Circuit, GateKind, Time};

    fn figure2() -> Circuit {
        let mut c = Circuit::new("fig2");
        let f = c.add_dff("f", true, Time::ZERO);
        let cb = c.add_gate("c", GateKind::Buf, &[f], Time::from_f64(1.5));
        let d = c.add_gate("d", GateKind::Not, &[f], Time::from_f64(4.0));
        let e = c.add_gate("e", GateKind::Buf, &[f], Time::from_f64(5.0));
        let a = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
        let b = c.add_gate("b", GateKind::Not, &[f], Time::from_f64(2.0));
        let g = c.add_gate("g", GateKind::Or, &[a, b], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        c
    }

    fn assert_reports_identical(a: &MctReport, b: &MctReport) {
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.steady_delay, b.steady_delay);
        assert_eq!(a.bound_exact, b.bound_exact);
        assert_eq!(a.mct_upper_bound, b.mct_upper_bound);
        assert_eq!(a.first_failing_tau, b.first_failing_tau);
        assert_eq!(a.failure, b.failure);
        assert_eq!(a.candidates_checked, b.candidates_checked);
        assert_eq!(a.sigma_checked, b.sigma_checked);
        assert_eq!(a.sigma_cache_hits, b.sigma_cache_hits);
        assert_eq!(a.exhausted, b.exhausted);
        assert_eq!(a.timed_out, b.timed_out);
        assert_eq!(a.used_reachability, b.used_reachability);
        assert_eq!(a.reachable_states, b.reachable_states);
        assert_eq!(a.regions, b.regions);
    }

    fn run_at(c: &Circuit, threads: usize, base: &MctOptions) -> MctReport {
        let opts = MctOptions {
            num_threads: threads,
            ..base.clone()
        };
        MctAnalyzer::new(c).unwrap().run(&opts).unwrap()
    }

    #[test]
    fn figure2_parallel_matches_sequential() {
        let c = figure2();
        for base in [MctOptions::fixed_delays(), MctOptions::paper()] {
            let seq = run_at(&c, 1, &base);
            for threads in [2, 4] {
                let par = run_at(&c, threads, &base);
                assert_reports_identical(&seq, &par);
            }
        }
    }

    #[test]
    fn figure2_parallel_matches_sequential_exhaustive() {
        let c = figure2();
        let base = MctOptions {
            exhaustive_floor: Some(1.0),
            ..MctOptions::paper()
        };
        let seq = run_at(&c, 1, &base);
        assert!(seq.sigma_cache_hits > 0);
        for threads in [2, 4, 8] {
            let par = run_at(&c, threads, &base);
            assert_reports_identical(&seq, &par);
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let c = figure2();
        let seq = run_at(&c, 1, &MctOptions::fixed_delays());
        let par = run_at(&c, 0, &MctOptions::fixed_delays());
        assert_reports_identical(&seq, &par);
    }

    /// With an aggressive collection threshold the arena stays bounded
    /// across the sweep: every candidate's discretized machines are
    /// reclaimed at the candidate boundary, leaving only the pinned steady
    /// machine (plus variable nodes) live — instead of accumulating every
    /// candidate's garbage for the whole run.
    #[test]
    fn gc_bounds_arena_between_candidates() {
        use crate::decision::DecisionContext;
        use crate::parallel::{plan, run_single, CandState, EvalEnv, SigmaMemo, SweepShared};
        use mct_lp::Rat;
        use mct_netlist::FsmView;
        use mct_tbf::{ConeExtractor, TimedVarTable};
        use std::collections::HashMap;

        let c = figure2();
        let view = FsmView::new(&c).unwrap();
        let opts = MctOptions {
            // Exhaustive: evaluate every candidate instead of stopping at
            // the first failure, so many machines are built and reclaimed.
            exhaustive_floor: Some(0.5),
            ..MctOptions::paper()
        };
        let extractor = ConeExtractor::new(&view);
        let sinks: Vec<_> = view.sinks().iter().map(|s| s.net).collect();
        let classes = extractor.delay_classes(&sinks).unwrap();
        let l_millis = classes.iter().map(|k| k.delay).max().unwrap();
        let (num, den) = opts.delay_variation.unwrap();
        let intervals: Vec<(i64, i64)> = classes
            .iter()
            .map(|k| ((k.delay * num).div_euclid(den), k.delay))
            .collect();
        let class_ix: HashMap<(usize, i64), usize> = classes
            .iter()
            .enumerate()
            .map(|(i, k)| ((k.leaf, k.delay), i))
            .collect();

        let mut manager = mct_bdd::BddManager::new();
        let mut table = TimedVarTable::new();
        let mut ctx = DecisionContext::new(&extractor, &mut manager, &mut table).unwrap();
        let baseline = manager.stats().nodes;
        // Collect at every candidate boundary.
        manager.set_gc_threshold(1);

        let shared = SweepShared {
            classes,
            intervals,
            class_ix,
            l_millis,
            order: Vec::new(),
            opts,
        };
        let bp: Vec<i64> = shared
            .intervals
            .iter()
            .flat_map(|&(lo, hi)| [lo, hi])
            .collect();
        let sweep = plan(&bp, Rat::new(500, 1), &shared);
        assert!(sweep.candidates.len() >= 4, "{}", sweep.candidates.len());
        let memo = SigmaMemo::new(1);
        let mut env = EvalEnv {
            view: &view,
            extractor: &extractor,
            ctx: &mut ctx,
            manager: &mut manager,
            table: &mut table,
        };
        let states = run_single(&shared, &sweep, &mut env, &memo, None);
        assert!(states.iter().all(|s| matches!(s, CandState::Done(_))));

        let stats = manager.stats();
        assert!(stats.gc_runs >= 1, "{stats:?}");
        assert!(stats.nodes_freed > 0, "{stats:?}");
        // Bounded: after the final candidate-boundary collection the live
        // count is back to the same order as the pinned steady machine,
        // not the accumulated total (which `nodes_freed` witnesses).
        assert!(
            stats.nodes <= baseline + stats.nodes_freed as usize,
            "{stats:?} (baseline {baseline})"
        );
        assert!(
            stats.nodes < stats.peak_nodes || stats.nodes_freed == 0,
            "{stats:?}"
        );
        assert!(stats.nodes <= 4 * baseline.max(64), "{stats:?}");
    }

    #[test]
    fn parallel_explosion_error_matches_sequential() {
        let c = figure2();
        let base = MctOptions {
            max_sigma_combos: 0,
            ..MctOptions::fixed_delays()
        };
        let seq = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                num_threads: 1,
                ..base.clone()
            })
            .unwrap_err();
        let par = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                num_threads: 4,
                ..base
            })
            .unwrap_err();
        assert_eq!(seq, par);
    }
}
