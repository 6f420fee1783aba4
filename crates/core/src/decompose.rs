//! Cone-decomposed analysis: run the sweep per independent cone of
//! influence and recombine per-cone verdicts into the whole-circuit report.
//!
//! # Bit-identity
//!
//! [`run`] reproduces the monolithic [`crate::MctAnalyzer::run`] report
//! exactly. The load-bearing facts:
//!
//! * **Gating is global.** Candidate planning, σ enumeration, and
//!   feasibility ([`parallel::sigma_ranges`] / [`parallel::gate_sigma`])
//!   all use the *parent* delay classes, so every cone walks the same
//!   `(candidate, σ)` sequence the monolithic sweep walks.
//! * **`C_x` factors over cones.** A machine function only references its
//!   own cone's leaves, so each basis/induction comparison of the
//!   monolithic decision is exactly one cone's comparison — provided the
//!   cone is decided at the *global* depth `m(σ) = max σ`
//!   ([`DecisionContext::decide_with_depth`]) and its frontier restriction
//!   is the projection of the global reachable set (which equals the cone's
//!   own reachable set). The monolithic first-mismatch is the minimum over
//!   cones of the mapped key `(basis/induction, cycle, state/output,
//!   parent index)`.
//! * **Reach recombines by layers, not by product.** Cones advance in
//!   lockstep, so the global reachable set is `⋃_k ∧_c I_c^k` where
//!   `I_c^k` is cone `c`'s exactly-`k`-step layer — generally a strict
//!   subset of `∏_c R_c` (two in-phase togglers reach 2 states, not 4).
//!   The layer sequence of each cone is eventually periodic (ρ-shaped), so
//!   a cone cache entry stores `layers[0 .. tail + period)` and replays any
//!   depth.
//! * **The exact check merges by budget and iteration.** The product
//!   machine of the whole circuit factors per cone; the monolithic bit
//!   budget is checked against `product_bits(parent_ns, parent_np,
//!   max_c m_state, max_c m_input)`, and a monolithic divergence diagnostic
//!   is the minimum over cones of `(bad_iteration, parent output index)`.
//!
//! # Incremental re-analysis
//!
//! [`MctAnalyzer::run_decomposed`](crate::MctAnalyzer::run_decomposed)
//! accepts per-cone seeds ([`ConeCacheEntry`]) and only builds a cone's
//! symbolic environment when a needed result is missing from its seed. A
//! cone whose every layer and outcome replays from the seed never builds a
//! BDD manager at all — [`DecomposeArtifacts::cones_replayed`] counts those
//! cones, so a one-cone edit re-analyzes one cone and replays the rest.
//! Seeds are positional per [`mct_netlist::decompose`] order and are only
//! valid for a cone with the same content under the same semantic options;
//! callers (the analysis service) key them accordingly.

use crate::analyzer::{MctOptions, MctReport, VarOrder};
use crate::decision::{DecisionContext, DecisionOutcome};
use crate::error::MctError;
use crate::exact::{decide_exact_detail, history_depths, product_bits, ExactRun};
use crate::parallel::{self, CandState, CandidateEval, SweepPlan, SweepShared};
use mct_bdd::{Bdd, BddManager, BddStats, Var, VarSet};
use mct_lp::Rat;
use mct_netlist::{Cone, FsmView};
use mct_tbf::{
    count_states, reachable_states, transfer_bdd, ConeExtractor, DiscreteMachine, StaticOrder,
    TimedVar, TimedVarTable,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cached per-cone analysis results, replayable into a later decomposed run
/// of a cone with identical content under the same semantic options.
///
/// Everything is stored in the cone's *local* coordinate system (leaf
/// indices of the sliced circuit, σ projected to the cone's delay-class
/// positions), so an entry stays valid when *other* cones of the parent
/// change — only the owning cone's content and the option fingerprint key
/// it.
pub struct ConeCacheEntry {
    /// Private manager holding the layer and reach BDDs.
    pub(crate) manager: BddManager,
    pub(crate) table: TimedVarTable,
    /// Exactly-`k`-step reachable layers over local
    /// `TimedVar::Shifted { leaf, shift: 0 }` state variables, for
    /// `k < tail + period`; deeper layers repeat with period `period` from
    /// `tail` (the ρ shape of a deterministic set recurrence).
    pub(crate) layers: Vec<Bdd>,
    pub(crate) tail: usize,
    pub(crate) period: usize,
    /// Union of all layers — the cone's full reachable set.
    pub(crate) reach: Option<Bdd>,
    /// `C_x` verdicts keyed by (local σ projection, global induction depth).
    pub(crate) outcomes_cx: HashMap<(Vec<i64>, i64), DecisionOutcome>,
    /// Exact-check parts keyed by local σ projection.
    pub(crate) outcomes_exact: HashMap<Vec<i64>, ExactPart>,
}

impl ConeCacheEntry {
    pub(crate) fn empty() -> Self {
        ConeCacheEntry {
            manager: BddManager::new(),
            table: TimedVarTable::new(),
            layers: Vec::new(),
            tail: 0,
            period: 0,
            reach: None,
            outcomes_cx: HashMap::new(),
            outcomes_exact: HashMap::new(),
        }
    }

    /// Whether the entry carries a replayable layer sequence.
    fn has_layers(&self) -> bool {
        self.period > 0 && !self.layers.is_empty()
    }

    /// The exactly-`k`-step layer, unfolding the ρ tail/period for depths
    /// past the stored prefix.
    fn layer(&self, k: usize) -> Bdd {
        if k < self.layers.len() {
            self.layers[k]
        } else {
            self.layers[self.tail + (k - self.tail) % self.period]
        }
    }
}

/// What a decomposed run produced beyond the report: replay accounting and
/// fresh cache entries for the cones that were (re)analyzed.
pub struct DecomposeArtifacts {
    /// Number of cones the circuit decomposed into.
    pub cones_total: usize,
    /// Cones answered entirely from their seed — no BDD environment was
    /// built for them.
    pub cones_replayed: usize,
    /// One slot per cone in [`mct_netlist::decompose`] order: `Some` holds
    /// a fresh entry for a cone that produced new results (merged with its
    /// seed's, when it had one); `None` means the caller's existing entry —
    /// if any — is still current.
    pub entries: Vec<Option<ConeCacheEntry>>,
}

/// One cone's contribution to the exact check at one σ: the history depths
/// that enter the global bit budget, and the local verdict when the *local*
/// product fit the budget.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExactPart {
    pub(crate) m_state: i64,
    pub(crate) m_input: i64,
    /// `None` iff the cone's own product already exceeded the budget (then
    /// the global product certainly does, and the merge reports the
    /// monolithic error without any cone running a fixpoint).
    pub(crate) fix: Option<ExactRun>,
}

/// Provenance of one cone back into the parent machine.
struct ConeMeta {
    /// Parent state-bit index of each local state bit.
    dffs: Vec<usize>,
    /// Parent output position of each local output.
    outputs: Vec<usize>,
    /// Parent leaf index of each local *state* leaf (= `dffs`), used to
    /// name the cone's variables inside the layer-product counting manager.
    leaf_map: Vec<usize>,
    /// Parent delay-class position of each local delay class: the local σ
    /// projection is `sub[i] = sigma[class_global[i]]`.
    class_global: Vec<usize>,
    /// Local class position by `(local leaf, delay)` — the shift function
    /// of the cone's discretized machine.
    sub_class_ix: HashMap<(usize, i64), usize>,
}

/// A cone's lazily-built symbolic environment: private manager/table, the
/// steady machine, and the (projected) reachability restriction.
struct ConeEnv<'v> {
    manager: BddManager,
    table: TimedVarTable,
    ctx: DecisionContext<'v>,
    gc_roots: Vec<Bdd>,
}

/// Everything [`eval_cone`] needs, shared read-only across cone workers.
struct SweepCtx<'a, 'v> {
    shared: &'a SweepShared,
    sweep: &'a SweepPlan,
    metas: &'a [ConeMeta],
    extractors: &'a [ConeExtractor<'v>],
    seeds: &'a [Option<&'a ConeCacheEntry>],
    envs: &'a [Mutex<Option<ConeEnv<'v>>>],
    use_reach: bool,
    max_shift_hint: i64,
    parent_ns: usize,
    parent_np: usize,
}

/// Cross-worker coordination: the shrink-only stop index (same protocol as
/// the candidate pool) and the shared deadline.
struct ConeControl {
    next: AtomicUsize,
    stop_at: AtomicUsize,
    deadline: Option<Instant>,
}

/// One gated σ occurrence as seen by one cone.
#[derive(Clone, Copy)]
enum ConeSigmaPart {
    Cx(DecisionOutcome),
    Exact(ExactPart),
}

/// One cone's verdict on one candidate.
enum ConeCandState {
    Deadline,
    /// The cone errored at gated σ position `parts.len()`; the parts before
    /// it are kept so the merge can still reach any earlier global error.
    Failed(Vec<ConeSigmaPart>, MctError),
    /// Parts for every gated σ of the candidate, in enumeration order
    /// (possibly truncated at an over-budget exact part).
    Done(Vec<ConeSigmaPart>),
}

/// Everything one cone worker brings back.
struct ConeOut {
    cone: usize,
    states: Vec<(usize, ConeCandState)>,
    fresh_cx: HashMap<(Vec<i64>, i64), DecisionOutcome>,
    fresh_exact: HashMap<Vec<i64>, ExactPart>,
    memo_hits: u64,
}

/// Per-cone layer BFS over the functional machine, with ρ (tail/period)
/// detection. Runs inside what becomes the cone's [`ConeEnv`] manager.
struct FreshCone {
    manager: BddManager,
    table: TimedVarTable,
    trans: Bdd,
    quantified: VarSet,
    rename: Vec<(Var, Var)>,
    /// `layers[k]` = exactly-`k`-step state set over local
    /// `Shifted { leaf, shift: 0 }` variables.
    layers: Vec<Bdd>,
    /// `(tail, period)` once the sequence has closed its cycle.
    rho: Option<(usize, usize)>,
}

impl FreshCone {
    fn new(
        view: &FsmView<'_>,
        extractor: &ConeExtractor<'_>,
        opts: &MctOptions,
        max_shift_hint: i64,
    ) -> Result<Self, MctError> {
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        if opts.ordering != VarOrder::Alloc {
            StaticOrder::compute(view, max_shift_hint).apply(&mut table);
        }
        let ns = view.num_state_bits();
        let machine = DiscreteMachine::functional(extractor, &mut manager, &mut table)?;
        let cur_vars: Vec<Var> = (0..ns)
            .map(|leaf| table.var(TimedVar::Shifted { leaf, shift: 0 }))
            .collect();
        let next_vars: Vec<Var> = (0..ns)
            .map(|leaf| table.var(TimedVar::Next { leaf }))
            .collect();
        let input_vars: Vec<Var> = (ns..view.leaves().len())
            .map(|leaf| table.var(TimedVar::Shifted { leaf, shift: 0 }))
            .collect();
        let mut trans = manager.one();
        for (j, &f) in machine.next_state.iter().enumerate() {
            let nv = manager.var(next_vars[j]);
            let bit = manager.xnor(nv, f);
            trans = manager.and(trans, bit);
        }
        let quantified: VarSet = cur_vars.iter().chain(input_vars.iter()).copied().collect();
        let rename: Vec<(Var, Var)> = next_vars
            .iter()
            .zip(&cur_vars)
            .map(|(&n, &c)| (n, c))
            .collect();
        let mut init = manager.one();
        for (j, &v) in view.circuit().initial_state().iter().enumerate() {
            let lit = manager.literal(cur_vars[j], v);
            init = manager.and(init, lit);
        }
        Ok(FreshCone {
            manager,
            table,
            trans,
            quantified,
            rename,
            layers: vec![init],
            rho: None,
        })
    }

    /// Advances the sequence one layer (no-op once ρ is known).
    fn step(&mut self) {
        if self.rho.is_some() {
            return;
        }
        let last = *self.layers.last().expect("layer 0 always present");
        let img_next = self
            .manager
            .and_exists_set(last, self.trans, &self.quantified);
        let img = self.manager.rename_vars(img_next, &self.rename);
        if let Some(j) = self.layers.iter().position(|&l| l == img) {
            self.rho = Some((j, self.layers.len() - j));
        } else {
            self.layers.push(img);
        }
    }

    /// Makes `layer(k)` answerable: extend the prefix until `k` is stored
    /// or the cycle has closed.
    fn ensure_layer(&mut self, k: usize) {
        while self.rho.is_none() && self.layers.len() <= k {
            self.step();
        }
    }

    /// Runs the sequence to ρ-closure so any future depth replays.
    fn complete(&mut self) {
        while self.rho.is_none() {
            self.step();
        }
    }

    fn layer(&self, k: usize) -> Bdd {
        if k < self.layers.len() {
            self.layers[k]
        } else {
            let (tail, period) = self.rho.expect("ensure_layer ran");
            self.layers[tail + (k - tail) % period]
        }
    }

    /// Union of every stored layer — the cone's full reachable set once the
    /// global loop has stopped (local saturation) or ρ has closed.
    fn union(&mut self) -> Bdd {
        let mut u = self.manager.zero();
        for i in 0..self.layers.len() {
            let l = self.layers[i];
            u = self.manager.or(u, l);
        }
        u
    }
}

/// Runs the decomposed analysis of `view` over `cones`, replaying from
/// `seeds` where possible, and (when `harvest` is set) assembling fresh
/// cache entries for the cones that produced new results.
///
/// The report is bit-identical to the monolithic sweep's; see the module
/// docs for why.
pub(crate) fn run(
    view: &FsmView<'_>,
    cones: Vec<Cone>,
    opts: &MctOptions,
    seeds: &[Option<&ConeCacheEntry>],
    harvest: bool,
) -> Result<(MctReport, DecomposeArtifacts), MctError> {
    let total = cones.len();
    let seed_at = |c: usize| -> Option<&ConeCacheEntry> { seeds.get(c).copied().flatten() };

    // ---- Global setup, mirroring the monolithic analyzer exactly. -------
    let extractor = ConeExtractor::new(view).with_node_limit(opts.cone_node_limit);
    let classes = extractor.delay_classes_at(&view.sink_starts())?;
    crate::analyzer::validate_skew_holds(view, &classes, opts.delay_variation)?;
    let l_millis = classes.iter().map(|c| c.delay).max().unwrap_or(0);

    let mut report = MctReport {
        circuit: view.circuit().name().to_owned(),
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
        if opts.skew {
            crate::skew::run_tier(view, opts, &mut report)?;
        }
        let replayed = (0..total).filter(|&c| seed_at(c).is_some()).count();
        return Ok((
            report,
            DecomposeArtifacts {
                cones_total: total,
                cones_replayed: replayed,
                entries: (0..total).map(|_| None).collect(),
            },
        ));
    }

    let intervals: Vec<(i64, i64)> = classes
        .iter()
        .map(|c| {
            (
                crate::analyzer::skewed_k_min(c, opts.delay_variation),
                c.delay,
            )
        })
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
    let floor_millis = floor.as_f64();
    let max_shift_hint = if floor_millis > 0.0 {
        (l_millis as f64 / floor_millis).ceil() as i64 + 1
    } else {
        64
    }
    .clamp(1, 128);

    let parent_ns = view.num_state_bits();
    let parent_np = view.num_input_bits();

    // ---- Per-cone views, extractors, and provenance. --------------------
    let views: Vec<FsmView<'_>> = cones
        .iter()
        .map(|c| FsmView::new(&c.circuit))
        .collect::<Result<_, _>>()?;
    let extractors: Vec<ConeExtractor<'_>> = views
        .iter()
        .map(|v| ConeExtractor::new(v).with_node_limit(opts.cone_node_limit))
        .collect();
    let mut metas = Vec::with_capacity(total);
    for (cone, (view_c, extractor_c)) in cones.iter().zip(views.iter().zip(&extractors)) {
        // Cone slices copy the skew annotations, so the per-cone classes
        // carry the same adjusted delays as their global counterparts and
        // the `class_global` mapping below lines up unchanged.
        let classes_c = extractor_c.delay_classes_at(&view_c.sink_starts())?;
        let class_global: Vec<usize> = classes_c
            .iter()
            .map(|k| class_ix[&(cone.parent_leaf(k.leaf, parent_ns), k.delay)])
            .collect();
        let sub_class_ix: HashMap<(usize, i64), usize> = classes_c
            .iter()
            .enumerate()
            .map(|(i, k)| ((k.leaf, k.delay), i))
            .collect();
        metas.push(ConeMeta {
            dffs: cone.dffs.clone(),
            outputs: cone.outputs.clone(),
            leaf_map: cone.dffs.clone(),
            class_global,
            sub_class_ix,
        });
    }

    // ---- Phase A: synchronized layer-product reachability. --------------
    // Cones step in lockstep from their initial states: the global
    // exactly-k-step set is the product of per-cone layers, so the global
    // reachable set is the union over k of those products — computed in a
    // dedicated counting manager over renamed per-cone variables. Per-cone
    // reach (the union of a cone's own layers) is the projection of the
    // global set, which is exactly the frontier restriction the cone's
    // decisions need.
    let envs: Vec<Mutex<Option<ConeEnv<'_>>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let mut pending_entries: Vec<Option<ConeCacheEntry>> = (0..total).map(|_| None).collect();
    let use_reach = opts.use_reachability && parent_ns > 0;
    let mut counting_stats = None;
    if use_reach {
        enum LayerSource<'s> {
            Seed(&'s ConeCacheEntry),
            Fresh(Box<FreshCone>),
        }
        // (cone index, source) for every stateful cone.
        let mut sources: Vec<(usize, LayerSource<'_>)> = Vec::new();
        for c in 0..total {
            if views[c].num_state_bits() == 0 {
                continue;
            }
            match seed_at(c) {
                Some(seed) if seed.has_layers() => sources.push((c, LayerSource::Seed(seed))),
                _ => sources.push((
                    c,
                    LayerSource::Fresh(Box::new(FreshCone::new(
                        &views[c],
                        &extractors[c],
                        opts,
                        max_shift_hint,
                    )?)),
                )),
            }
        }

        let mut counting = BddManager::new();
        let mut counting_table = TimedVarTable::new();
        // Stable per-cone variables, ascending by parent leaf so related
        // bits sit together regardless of cone iteration order.
        counting_table
            .preregister((0..parent_ns).map(|leaf| TimedVar::Arbitrary { leaf, delay: 1 }));
        let mut reached = counting.zero();
        let mut k = 0usize;
        loop {
            let mut a_k = counting.one();
            for (c, source) in sources.iter_mut() {
                let (local, src_mgr, src_tbl) = match source {
                    LayerSource::Seed(seed) => (seed.layer(k), &seed.manager, &seed.table),
                    LayerSource::Fresh(fc) => {
                        fc.ensure_layer(k);
                        (fc.layer(k), &fc.manager, &fc.table)
                    }
                };
                // Import in local coordinates, then immediately rebase onto
                // this cone's parent-leaf variables; the transient local
                // Shifted{_, 0} variables are reused by the next transfer.
                let imported =
                    transfer_bdd(src_mgr, src_tbl, local, &mut counting, &mut counting_table)?;
                let map: Vec<(Var, Var)> = metas[*c]
                    .leaf_map
                    .iter()
                    .enumerate()
                    .map(|(l, &parent)| {
                        (
                            counting_table.var(TimedVar::Shifted { leaf: l, shift: 0 }),
                            counting_table.var(TimedVar::Arbitrary {
                                leaf: parent,
                                delay: 1,
                            }),
                        )
                    })
                    .collect();
                let renamed = counting.rename_vars(imported, &map);
                a_k = counting.and(a_k, renamed);
            }
            let new_reached = counting.or(reached, a_k);
            if new_reached == reached {
                // No k-step product adds a state: the monolithic fixpoint
                // has converged (its frontier is inside the union), and by
                // totality every cone is locally saturated too.
                break;
            }
            reached = new_reached;
            counting.maybe_collect_garbage(&[reached]);
            k += 1;
        }
        report.reachable_states = Some(count_states(&counting, reached, parent_ns));
        report.used_reachability = true;
        counting_stats = Some(counting.stats());

        // Promote fresh cones to sweep environments; harvest their layers
        // first (into private entry managers) so sweep-time collections
        // cannot reclaim them.
        for (c, source) in sources {
            if let LayerSource::Fresh(mut fc) = source {
                if harvest {
                    fc.complete();
                    let (tail, period) = fc.rho.expect("completed");
                    let mut entry = ConeCacheEntry::empty();
                    for &l in &fc.layers {
                        let t = transfer_bdd(
                            &fc.manager,
                            &fc.table,
                            l,
                            &mut entry.manager,
                            &mut entry.table,
                        )?;
                        entry.layers.push(t);
                    }
                    entry.tail = tail;
                    entry.period = period;
                    let u = fc.union();
                    entry.reach = Some(transfer_bdd(
                        &fc.manager,
                        &fc.table,
                        u,
                        &mut entry.manager,
                        &mut entry.table,
                    )?);
                    pending_entries[c] = Some(entry);
                }
                let restriction = fc.union();
                let FreshCone {
                    mut manager,
                    mut table,
                    ..
                } = *fc;
                let ctx = DecisionContext::new(&extractors[c], &mut manager, &mut table)?
                    .with_restriction(restriction);
                let gc_roots = ctx.gc_roots();
                *envs[c].lock().expect("env slot") = Some(ConeEnv {
                    manager,
                    table,
                    ctx,
                    gc_roots,
                });
            }
        }
    }

    // ---- Phase B: plan the global sweep. ---------------------------------
    let shared = SweepShared {
        classes,
        intervals,
        class_ix,
        l_millis,
        order: Vec::new(),
        opts: opts.clone(),
    };
    let bp_delays: Vec<i64> = shared
        .intervals
        .iter()
        .flat_map(|&(lo, hi)| [lo, hi])
        .collect();
    let sweep = parallel::plan(&bp_delays, floor, &shared);
    let deadline = opts
        .time_budget_ms
        .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
    let threads = match opts.num_threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };

    // ---- Phase C: per-cone candidate sweeps. -----------------------------
    let cx = SweepCtx {
        shared: &shared,
        sweep: &sweep,
        metas: &metas,
        extractors: &extractors,
        seeds,
        envs: &envs,
        use_reach,
        max_shift_hint,
        parent_ns,
        parent_np,
    };
    let control = ConeControl {
        next: AtomicUsize::new(0),
        stop_at: AtomicUsize::new(usize::MAX),
        deadline,
    };
    let workers = threads.min(total).max(1);
    let mut outs: Vec<ConeOut> = if workers <= 1 {
        (0..total).map(|c| eval_cone(c, &cx, &control)).collect()
    } else {
        // One worker per cone, claimed from a shared counter. Results are
        // deterministic at every worker count: the stop index only shrinks,
        // and the merge below reads nothing past its final value (which is
        // the minimum over cones of each cone's own terminal event).
        let collected: Vec<Vec<ConeOut>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let c = control.next.fetch_add(1, Ordering::Relaxed);
                            if c >= total {
                                break;
                            }
                            mine.push(eval_cone(c, &cx, &control));
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cone worker panicked"))
                .collect()
        });
        collected.into_iter().flatten().collect()
    };
    outs.sort_by_key(|o| o.cone);

    // ---- Phase D: merge per-cone verdicts into candidate states. --------
    let memo_hits: u64 = outs.iter().map(|o| o.memo_hits).sum();
    let mut prune_stats = crate::sigma::SigmaPruneStats::default();
    let states = merge_states(&cx, &mut outs, &mut prune_stats);
    parallel::reconcile(&shared, &sweep, states, &mut report)?;
    report.kernel.mvec_memo_hits = memo_hits;
    // The merge pass walks each candidate's (pruned) tree exactly once, so
    // its counters are the canonical per-sweep totals. The decomposed path
    // builds per-cone machines from scratch (sub-σ memos make neighbor
    // reuse moot), so `sigma_reused` stays 0 here.
    report.kernel.sigma_pruned_subtrees = prune_stats.subtrees;
    report.kernel.sigma_pruned = prune_stats.combos;
    if let Some(s) = counting_stats {
        report.kernel.absorb(&s);
    }
    for slot in &envs {
        if let Some(env) = slot.lock().expect("env slot").as_ref() {
            report.kernel.absorb(&env.manager.stats());
        }
    }

    // ---- Phase E: replay accounting and entry assembly. ------------------
    let env_built: Vec<bool> = envs
        .iter()
        .map(|slot| slot.lock().expect("env slot").is_some())
        .collect();
    let cones_replayed = (0..total)
        .filter(|&c| seed_at(c).is_some() && !env_built[c])
        .count();
    let mut entries: Vec<Option<ConeCacheEntry>> = (0..total).map(|_| None).collect();
    if harvest {
        for (out, entry_slot) in outs.into_iter().zip(entries.iter_mut()) {
            let c = out.cone;
            let seed = seed_at(c);
            if seed.is_some() && !env_built[c] {
                // Fully replayed: the caller's entry is still current.
                continue;
            }
            let mut entry = match pending_entries[c].take() {
                Some(e) => e,
                None => match seed {
                    // Partial replay: carry the seed's layers forward so the
                    // new entry supersedes the old one completely.
                    Some(s) => copy_layers(s)?,
                    None => ConeCacheEntry::empty(),
                },
            };
            if let Some(s) = seed {
                entry
                    .outcomes_cx
                    .extend(s.outcomes_cx.iter().map(|(k, &v)| (k.clone(), v)));
                entry
                    .outcomes_exact
                    .extend(s.outcomes_exact.iter().map(|(k, &v)| (k.clone(), v)));
            }
            entry.outcomes_cx.extend(out.fresh_cx);
            entry.outcomes_exact.extend(out.fresh_exact);
            *entry_slot = Some(entry);
        }
    }
    if opts.skew {
        crate::skew::run_tier(view, opts, &mut report)?;
    }
    Ok((
        report,
        DecomposeArtifacts {
            cones_total: total,
            cones_replayed,
            entries,
        },
    ))
}

/// Clones a seed's layer structure (and reach set) into a fresh entry.
fn copy_layers(seed: &ConeCacheEntry) -> Result<ConeCacheEntry, MctError> {
    let mut entry = ConeCacheEntry::empty();
    for &l in &seed.layers {
        let t = transfer_bdd(
            &seed.manager,
            &seed.table,
            l,
            &mut entry.manager,
            &mut entry.table,
        )?;
        entry.layers.push(t);
    }
    entry.tail = seed.tail;
    entry.period = seed.period;
    entry.reach = match seed.reach {
        Some(r) => Some(transfer_bdd(
            &seed.manager,
            &seed.table,
            r,
            &mut entry.manager,
            &mut entry.table,
        )?),
        None => None,
    };
    Ok(entry)
}

/// Lazily builds cone `c`'s symbolic environment — manager, steady machine,
/// and (projected) reachability restriction — the first time a result is
/// not answerable from its seed.
fn ensure_env<'v>(
    c: usize,
    cx: &SweepCtx<'_, 'v>,
    slot: &mut Option<ConeEnv<'v>>,
) -> Result<(), MctError> {
    if slot.is_some() {
        return Ok(());
    }
    let extractor = &cx.extractors[c];
    let view = extractor.view();
    let mut manager = BddManager::new();
    let mut table = TimedVarTable::new();
    if cx.shared.opts.ordering != VarOrder::Alloc {
        StaticOrder::compute(view, cx.max_shift_hint).apply(&mut table);
    }
    let mut ctx = DecisionContext::new(extractor, &mut manager, &mut table)?;
    if cx.use_reach && view.num_state_bits() > 0 {
        // The projection of the global reachable set onto this cone is the
        // cone's own reachable set: replay it from the seed, or recompute it
        // locally (identical by the projection argument in the module docs).
        let restriction = match cx.seeds.get(c).copied().flatten().and_then(|s| {
            s.reach
                .map(|r| transfer_bdd(&s.manager, &s.table, r, &mut manager, &mut table))
        }) {
            Some(r) => r?,
            None => reachable_states(extractor, &mut manager, &mut table)?,
        };
        ctx = ctx.with_restriction(restriction);
    }
    let gc_roots = ctx.gc_roots();
    *slot = Some(ConeEnv {
        manager,
        table,
        ctx,
        gc_roots,
    });
    Ok(())
}

/// Answers one `C_x` decision for cone `c` at the projected shift vector
/// `sub` and global induction depth `m_global`, from the seed, the
/// fresh-result memo, or a live decision.
fn cx_outcome<'v>(
    c: usize,
    cx: &SweepCtx<'_, 'v>,
    slot: &mut Option<ConeEnv<'v>>,
    sub: &[i64],
    m_global: i64,
    out: &mut ConeOut,
) -> Result<DecisionOutcome, MctError> {
    let key = (sub.to_vec(), m_global);
    let seed = cx.seeds.get(c).copied().flatten();
    if let Some(&o) = seed
        .and_then(|s| s.outcomes_cx.get(&key))
        .or_else(|| out.fresh_cx.get(&key))
    {
        out.memo_hits += 1;
        return Ok(o);
    }
    ensure_env(c, cx, slot)?;
    let env = slot.as_mut().expect("just built");
    let meta = &cx.metas[c];
    let machine = DiscreteMachine::with_shift_fn(
        &cx.extractors[c],
        &mut env.manager,
        &mut env.table,
        |leaf, k| sub[meta.sub_class_ix[&(leaf, k)]],
    )?;
    let o = env
        .ctx
        .decide_with_depth(&mut env.manager, &mut env.table, &machine, m_global);
    out.fresh_cx.insert(key, o);
    Ok(o)
}

/// Answers one exact-check part for cone `c` at `sub`: the local history
/// depths always, plus the local product-machine verdict when the local
/// product fits the bit budget.
fn exact_part<'v>(
    c: usize,
    cx: &SweepCtx<'_, 'v>,
    slot: &mut Option<ConeEnv<'v>>,
    sub: &[i64],
    out: &mut ConeOut,
) -> Result<ExactPart, MctError> {
    let seed = cx.seeds.get(c).copied().flatten();
    if let Some(&p) = seed
        .and_then(|s| s.outcomes_exact.get(sub))
        .or_else(|| out.fresh_exact.get(sub))
    {
        out.memo_hits += 1;
        return Ok(p);
    }
    ensure_env(c, cx, slot)?;
    let env = slot.as_mut().expect("just built");
    let meta = &cx.metas[c];
    let view = cx.extractors[c].view();
    let machine = DiscreteMachine::with_shift_fn(
        &cx.extractors[c],
        &mut env.manager,
        &mut env.table,
        |leaf, k| sub[meta.sub_class_ix[&(leaf, k)]],
    )?;
    let (m_state, m_input) = history_depths(
        view.num_state_bits(),
        &mut env.manager,
        &env.table,
        &machine,
    )?;
    let bits = product_bits(
        view.num_state_bits(),
        view.num_input_bits(),
        m_state,
        m_input,
    );
    let fix = if bits > cx.shared.opts.max_product_bits {
        // The local product already exceeds the budget, so the global one
        // certainly does: the merge will report the monolithic
        // ProductTooLarge without anyone running a fixpoint.
        None
    } else {
        Some(decide_exact_detail(
            view,
            &mut env.manager,
            &mut env.table,
            &machine,
            env.ctx.steady(),
            cx.shared.opts.max_product_bits,
        )?)
    };
    let p = ExactPart {
        m_state,
        m_input,
        fix,
    };
    out.fresh_exact.insert(sub.to_vec(), p);
    Ok(p)
}

/// One cone's sweep: walk the global candidate list, project each gated σ
/// onto the cone, and answer from the seed/memo or the lazily-built
/// environment. Stop events mirror the monolithic worker loop; the shared
/// stop index only shrinks, so the merged prefix is deterministic at every
/// worker count.
fn eval_cone(c: usize, cx: &SweepCtx<'_, '_>, control: &ConeControl) -> ConeOut {
    let mut guard = cx.envs[c].lock().expect("env slot");
    let slot = &mut *guard;
    let meta = &cx.metas[c];
    let exact = cx.shared.opts.exact_check;
    let mut out = ConeOut {
        cone: c,
        states: Vec::new(),
        fresh_cx: HashMap::new(),
        fresh_exact: HashMap::new(),
        memo_hits: 0,
    };
    'cands: for (index, cand) in cx.sweep.candidates.iter().enumerate() {
        if index > control.stop_at.load(Ordering::Acquire) {
            break;
        }
        if control.deadline.is_some_and(|d| Instant::now() > d) {
            control.stop_at.fetch_min(index, Ordering::AcqRel);
            out.states.push((index, ConeCandState::Deadline));
            break;
        }
        if cand.combos > cx.shared.opts.max_sigma_combos as u128 {
            control.stop_at.fetch_min(index, Ordering::AcqRel);
            out.states.push((
                index,
                ConeCandState::Failed(
                    Vec::new(),
                    MctError::SigmaExplosion {
                        tau: cand.tau.as_f64() / 1000.0,
                        cap: cx.shared.opts.max_sigma_combos,
                    },
                ),
            ));
            break;
        }
        let mut parts: Vec<ConeSigmaPart> = Vec::new();
        let mut any_invalid = false;
        let mut over_budget = false;
        let mut failure: Option<MctError> = None;
        // Gating is global: every cone walks the exact gated σ sequence the
        // merge re-enumerates, through the same (possibly pruned) walk. The
        // prune counters are scratch here — the merge's single canonical
        // pass is the one reported, so cone count never multiplies them.
        let mut scratch = crate::sigma::SigmaPruneStats::default();
        let walked = parallel::for_each_gated::<MctError>(
            cx.shared,
            cand,
            parallel::FULL_WINDOW,
            &mut scratch,
            &mut |sigma, _gate| {
                let sub: Vec<i64> = meta.class_global.iter().map(|&g| sigma[g]).collect();
                let part = if exact {
                    let p = exact_part(c, cx, slot, &sub, &mut out)?;
                    over_budget = p.fix.is_none();
                    if let Some(f) = p.fix {
                        any_invalid |= !f.outcome.is_valid();
                    }
                    ConeSigmaPart::Exact(p)
                } else {
                    let m_global = sigma.iter().copied().max().unwrap_or(1).max(1);
                    let o = cx_outcome(c, cx, slot, &sub, m_global, &mut out)?;
                    any_invalid |= !o.is_valid();
                    ConeSigmaPart::Cx(o)
                };
                parts.push(part);
                Ok(!over_budget)
            },
        );
        if let Err(e) = walked {
            failure = Some(e);
        }
        if let Some(env) = slot.as_mut() {
            env.manager.maybe_collect_garbage(&env.gc_roots);
            // Candidate boundary: the per-σ machines are dropped and the
            // memoized verdicts hold no handles, so the env's context +
            // roots enumerate everything live in this cone's manager.
            if env.manager.compact_pending() {
                let map = env.manager.compact(&env.gc_roots);
                env.ctx.rebind(&map);
                for root in &mut env.gc_roots {
                    *root = map.rewrite(*root);
                }
            }
        }
        match failure {
            Some(e) => {
                control.stop_at.fetch_min(index, Ordering::AcqRel);
                out.states.push((index, ConeCandState::Failed(parts, e)));
                break 'cands;
            }
            None => {
                out.states.push((index, ConeCandState::Done(parts)));
                if over_budget || (any_invalid && cx.shared.early_exit()) {
                    control.stop_at.fetch_min(index, Ordering::AcqRel);
                    break 'cands;
                }
            }
        }
    }
    out
}

/// Recombines per-cone candidate verdicts into the monolithic
/// [`CandState`] sequence, re-enumerating each candidate's gated σs to
/// re-establish positions and the τ-ordered memoization the reconciler
/// expects.
fn merge_states(
    cx: &SweepCtx<'_, '_>,
    outs: &mut [ConeOut],
    prune_stats: &mut crate::sigma::SigmaPruneStats,
) -> Vec<CandState> {
    let n = cx.sweep.candidates.len();
    let mut per_cone: Vec<HashMap<usize, ConeCandState>> = outs
        .iter_mut()
        .map(|o| o.states.drain(..).collect())
        .collect();
    let mut states: Vec<CandState> = (0..n).map(|_| CandState::Pending).collect();
    // Merged outcome per global σ, shared across candidates exactly like
    // the monolithic σ memo (the merged outcome is σ-deterministic).
    let mut merged_memo: HashMap<Vec<i64>, DecisionOutcome> = HashMap::new();
    'cands: for (index, state) in states.iter_mut().enumerate() {
        let mut parts_per_cone: Vec<Vec<ConeSigmaPart>> = Vec::with_capacity(per_cone.len());
        let mut deadline = false;
        let mut fail_pos = usize::MAX;
        let mut fail_err: Option<MctError> = None;
        for m in per_cone.iter_mut() {
            // A missing entry means some cone's own terminal event stopped
            // the sweep at an earlier index — which the merge already
            // turned into a terminal state there, so this is unreachable in
            // practice; leave the candidate Pending either way.
            let Some(s) = m.remove(&index) else {
                break 'cands;
            };
            match s {
                ConeCandState::Deadline => {
                    deadline = true;
                    parts_per_cone.push(Vec::new());
                }
                ConeCandState::Failed(p, e) => {
                    if p.len() < fail_pos {
                        fail_pos = p.len();
                        fail_err = Some(e);
                    }
                    parts_per_cone.push(p);
                }
                ConeCandState::Done(p) => parts_per_cone.push(p),
            }
        }
        if deadline {
            *state = CandState::DeadlineHit;
            break;
        }
        let cand = &cx.sweep.candidates[index];
        let mut eval = CandidateEval {
            sigmas: Vec::new(),
            first_invalid: None,
            failing_sups: Vec::new(),
        };
        let mut pos = 0usize;
        let mut failed: Option<MctError> = None;
        // The one canonical enumeration pass of the decomposed sweep: its
        // prune counters are the ones the report carries.
        let walked = parallel::for_each_gated::<MctError>(
            cx.shared,
            cand,
            parallel::FULL_WINDOW,
            prune_stats,
            &mut |sigma, gate| {
                if pos == fail_pos {
                    failed = fail_err.take();
                    return Ok(false);
                }
                let outcome = match merged_memo.get(sigma) {
                    Some(&o) => o,
                    None => {
                        let o = merge_sigma(cx, &parts_per_cone, pos)?;
                        merged_memo.insert(sigma.to_vec(), o);
                        o
                    }
                };
                if !outcome.is_valid() {
                    if eval.first_invalid.is_none() {
                        eval.first_invalid = Some(outcome);
                    }
                    eval.failing_sups
                        .push(parallel::failing_sup(cx.shared, cand, gate));
                }
                eval.sigmas.push(sigma.to_vec());
                pos += 1;
                Ok(true)
            },
        );
        if let Err(e) = walked {
            failed = Some(e);
        }
        match failed {
            Some(e) => {
                *state = CandState::Failed(e);
                break 'cands;
            }
            None => {
                let failing = !eval.failing_sups.is_empty();
                *state = CandState::Done(eval);
                if failing && cx.shared.early_exit() {
                    break 'cands;
                }
            }
        }
    }
    states
}

/// Recombines one gated σ's per-cone parts into the monolithic outcome.
///
/// `C_x` mode: the monolithic decision checks, in order, basis cycles
/// (state bits then outputs, ascending), then induction (state bits then
/// outputs); each check belongs to exactly one cone, so the first
/// monolithic mismatch is the minimum over cones of the mapped key
/// `(phase, cycle, state/output, parent index)`.
///
/// Exact mode: the global product machine factors per cone, so the global
/// bit budget is checked against the maxed history depths, and a divergence
/// is the minimum over cones of `(bad_iteration, parent output index)`.
fn merge_sigma(
    cx: &SweepCtx<'_, '_>,
    parts_per_cone: &[Vec<ConeSigmaPart>],
    pos: usize,
) -> Result<DecisionOutcome, MctError> {
    let part = |c: usize| -> ConeSigmaPart {
        parts_per_cone[c]
            .get(pos)
            .copied()
            .expect("cone parts cover every merged position")
    };
    if cx.shared.opts.exact_check {
        let mut gm_state = 1i64;
        let mut gm_input = 1i64;
        for c in 0..parts_per_cone.len() {
            let ConeSigmaPart::Exact(p) = part(c) else {
                unreachable!("exact sweeps produce exact parts");
            };
            gm_state = gm_state.max(p.m_state);
            gm_input = gm_input.max(p.m_input);
        }
        let bits = product_bits(cx.parent_ns, cx.parent_np, gm_state, gm_input);
        if bits > cx.shared.opts.max_product_bits {
            return Err(MctError::ProductTooLarge {
                bits,
                cap: cx.shared.opts.max_product_bits,
            });
        }
        let mut best: Option<(u64, usize)> = None;
        for c in 0..parts_per_cone.len() {
            let ConeSigmaPart::Exact(p) = part(c) else {
                unreachable!("exact sweeps produce exact parts");
            };
            let run = p
                .fix
                .expect("within the global budget, every local product fits");
            if let DecisionOutcome::InductionOutputMismatch { output } = run.outcome {
                let key = (
                    run.bad_iteration.expect("diverging run has an iteration"),
                    cx.metas[c].outputs[output],
                );
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        Ok(match best {
            Some((_, output)) => DecisionOutcome::InductionOutputMismatch { output },
            None => DecisionOutcome::Valid,
        })
    } else {
        let mut best: Option<((u8, i64, u8, usize), DecisionOutcome)> = None;
        for c in 0..parts_per_cone.len() {
            let ConeSigmaPart::Cx(o) = part(c) else {
                unreachable!("C_x sweeps produce C_x parts");
            };
            let meta = &cx.metas[c];
            let mapped = match o {
                DecisionOutcome::Valid => continue,
                DecisionOutcome::BasisStateMismatch { cycle, bit } => (
                    (0, cycle, 0, meta.dffs[bit]),
                    DecisionOutcome::BasisStateMismatch {
                        cycle,
                        bit: meta.dffs[bit],
                    },
                ),
                DecisionOutcome::BasisOutputMismatch { cycle, output } => (
                    (0, cycle, 1, meta.outputs[output]),
                    DecisionOutcome::BasisOutputMismatch {
                        cycle,
                        output: meta.outputs[output],
                    },
                ),
                DecisionOutcome::InductionStateMismatch { bit } => (
                    (1, 0, 0, meta.dffs[bit]),
                    DecisionOutcome::InductionStateMismatch {
                        bit: meta.dffs[bit],
                    },
                ),
                DecisionOutcome::InductionOutputMismatch { output } => (
                    (1, 0, 1, meta.outputs[output]),
                    DecisionOutcome::InductionOutputMismatch {
                        output: meta.outputs[output],
                    },
                ),
            };
            if best.as_ref().is_none_or(|(k, _)| mapped.0 < *k) {
                best = Some(mapped);
            }
        }
        Ok(best.map_or(DecisionOutcome::Valid, |(_, o)| o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::MctAnalyzer;
    use mct_netlist::{Circuit, GateKind, Time};

    fn t(v: f64) -> Time {
        Time::from_f64(v)
    }

    /// Three independent cones: a fast toggler, a slow toggler, and a
    /// stateless input buffer — the same shape as the netlist slicing
    /// fixture.
    fn tri() -> Circuit {
        let mut c = Circuit::new("tri");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", true, Time::UNIT);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        let a = c.add_input("a");
        let ab = c.add_gate("ab", GateKind::Buf, &[a], t(3.0));
        c.set_output(q0);
        c.set_output(q1);
        c.set_output(ab);
        c
    }

    /// `tri` with the stateless cone's buffer replaced by an inverter —
    /// a delay-preserving one-cone edit (the ECO shape).
    fn tri_edited() -> Circuit {
        let mut c = Circuit::new("tri");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", true, Time::UNIT);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        let a = c.add_input("a");
        let ab = c.add_gate("ab", GateKind::Not, &[a], t(3.0));
        c.set_output(q0);
        c.set_output(q1);
        c.set_output(ab);
        c
    }

    /// Everything except the (scheduling-dependent) kernel diagnostics.
    fn strip(mut r: MctReport) -> String {
        r.kernel = BddStats::default();
        format!("{r:?}")
    }

    fn run_with(c: &Circuit, opts: &MctOptions) -> MctReport {
        MctAnalyzer::new(c).unwrap().run(opts).unwrap()
    }

    fn assert_identity(c: &Circuit, opts: &MctOptions) {
        let mono = run_with(
            c,
            &MctOptions {
                decompose: false,
                ..opts.clone()
            },
        );
        for threads in [1usize, 2, 4] {
            let dec = run_with(
                c,
                &MctOptions {
                    decompose: true,
                    num_threads: threads,
                    ..opts.clone()
                },
            );
            assert_eq!(strip(mono.clone()), strip(dec), "threads={threads}");
        }
    }

    #[test]
    fn identity_fixed_delays() {
        assert_identity(&tri(), &MctOptions::fixed_delays());
    }

    #[test]
    fn identity_paper_variation() {
        assert_identity(&tri(), &MctOptions::paper());
    }

    #[test]
    fn identity_exhaustive_floor() {
        assert_identity(
            &tri(),
            &MctOptions {
                exhaustive_floor: Some(0.5),
                ..MctOptions::fixed_delays()
            },
        );
        assert_identity(
            &tri(),
            &MctOptions {
                exhaustive_floor: Some(0.5),
                ..MctOptions::paper()
            },
        );
    }

    #[test]
    fn identity_exact_check() {
        assert_identity(
            &tri(),
            &MctOptions {
                exact_check: true,
                ..MctOptions::fixed_delays()
            },
        );
        assert_identity(
            &tri(),
            &MctOptions {
                exact_check: true,
                ..MctOptions::paper()
            },
        );
    }

    #[test]
    fn identity_path_coupled_lp() {
        assert_identity(
            &tri(),
            &MctOptions {
                path_coupled_lp: true,
                ..MctOptions::paper()
            },
        );
    }

    #[test]
    fn identity_no_reachability() {
        assert_identity(
            &tri(),
            &MctOptions {
                use_reachability: false,
                ..MctOptions::fixed_delays()
            },
        );
    }

    #[test]
    fn identity_alloc_ordering() {
        assert_identity(
            &tri(),
            &MctOptions {
                ordering: VarOrder::Alloc,
                ..MctOptions::fixed_delays()
            },
        );
    }

    #[test]
    fn single_cone_falls_back_to_monolithic() {
        // Figure-2 circuit: one cone, so `decompose: true` must take the
        // monolithic path and match exactly.
        let mut c = Circuit::new("fig2");
        let f = c.add_dff("f", true, Time::ZERO);
        let cb = c.add_gate("c", GateKind::Buf, &[f], t(1.5));
        let d = c.add_gate("d", GateKind::Not, &[f], t(4.0));
        let e = c.add_gate("e", GateKind::Buf, &[f], t(5.0));
        let and = c.add_gate("a", GateKind::And, &[cb, d, e], Time::ZERO);
        let b = c.add_gate("b", GateKind::Not, &[f], t(2.0));
        let g = c.add_gate("g", GateKind::Or, &[and, b], Time::ZERO);
        c.connect_dff_data("f", g).unwrap();
        c.set_output(f);
        assert_identity(&c, &MctOptions::fixed_delays());
    }

    #[test]
    fn phase_locked_togglers_reach_two_states() {
        // Both togglers flip every cycle from 0, so the global machine
        // visits exactly {00, 11} — NOT the 4-state product of the per-cone
        // reach sets. The layer-product recombination must see that.
        let mut c = Circuit::new("lock");
        let q0 = c.add_dff("q0", false, Time::ZERO);
        let n0 = c.add_gate("n0", GateKind::Not, &[q0], t(1.0));
        c.connect_dff_data("q0", n0).unwrap();
        let q1 = c.add_dff("q1", false, Time::ZERO);
        let n1 = c.add_gate("n1", GateKind::Not, &[q1], t(2.0));
        c.connect_dff_data("q1", n1).unwrap();
        c.set_output(q0);
        c.set_output(q1);
        let mono = run_with(
            &c,
            &MctOptions {
                decompose: false,
                ..MctOptions::fixed_delays()
            },
        );
        let dec = run_with(
            &c,
            &MctOptions {
                decompose: true,
                ..MctOptions::fixed_delays()
            },
        );
        assert_eq!(mono.reachable_states, Some(2.0));
        assert_eq!(dec.reachable_states, Some(2.0));
        assert_eq!(strip(mono), strip(dec));
    }

    #[test]
    fn exact_over_budget_error_is_identical() {
        let c = tri();
        let base = MctOptions {
            exact_check: true,
            max_product_bits: 2,
            ..MctOptions::fixed_delays()
        };
        let e_mono = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                decompose: false,
                ..base.clone()
            })
            .unwrap_err();
        let e_dec = MctAnalyzer::new(&c)
            .unwrap()
            .run(&MctOptions {
                decompose: true,
                ..base
            })
            .unwrap_err();
        assert!(
            matches!(e_mono, MctError::ProductTooLarge { .. }),
            "{e_mono:?}"
        );
        assert_eq!(format!("{e_mono:?}"), format!("{e_dec:?}"));
    }

    #[test]
    fn full_seeds_replay_every_cone() {
        let c = tri();
        let opts = MctOptions {
            exhaustive_floor: Some(0.5),
            ..MctOptions::fixed_delays()
        };
        let (r1, a1) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &[])
            .unwrap();
        assert_eq!(a1.cones_total, 3);
        assert_eq!(a1.cones_replayed, 0);
        assert!(a1.entries.iter().all(Option::is_some));
        let seeds: Vec<Option<&ConeCacheEntry>> = a1.entries.iter().map(Option::as_ref).collect();
        let (r2, a2) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &seeds)
            .unwrap();
        assert_eq!(a2.cones_replayed, 3);
        // Replayed cones produce no superseding entries.
        assert!(a2.entries.iter().all(Option::is_none));
        assert_eq!(strip(r1), strip(r2));
    }

    #[test]
    fn one_cone_edit_replays_the_rest() {
        let opts = MctOptions {
            exhaustive_floor: Some(0.5),
            ..MctOptions::fixed_delays()
        };
        let (_, a1) = MctAnalyzer::new(&tri())
            .unwrap()
            .run_decomposed(&opts, &[])
            .unwrap();
        // The stateless `ab` cone (index 2, after the two flip-flop cones)
        // is edited, so its stale seed must be withheld.
        let edited = tri_edited();
        let seeds: Vec<Option<&ConeCacheEntry>> = a1
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| if i == 2 { None } else { e.as_ref() })
            .collect();
        let (r, a) = MctAnalyzer::new(&edited)
            .unwrap()
            .run_decomposed(&opts, &seeds)
            .unwrap();
        assert_eq!(a.cones_total, 3);
        assert_eq!(a.cones_replayed, 2);
        // Only the re-analyzed cone gets a fresh entry.
        assert!(a.entries[0].is_none() && a.entries[1].is_none());
        assert!(a.entries[2].is_some());
        // The mixed-seed report matches a cold monolithic run of the edited
        // circuit.
        let mono = run_with(
            &edited,
            &MctOptions {
                decompose: false,
                ..opts
            },
        );
        assert_eq!(strip(mono), strip(r));
    }

    #[test]
    fn seeded_rerun_matches_across_exact_check() {
        // Seeds are memoized per option fingerprint by callers; within one
        // option set a seeded exact run must replay and match.
        let c = tri();
        let opts = MctOptions {
            exact_check: true,
            exhaustive_floor: Some(0.5),
            ..MctOptions::fixed_delays()
        };
        let (r1, a1) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &[])
            .unwrap();
        let seeds: Vec<Option<&ConeCacheEntry>> = a1.entries.iter().map(Option::as_ref).collect();
        let (r2, a2) = MctAnalyzer::new(&c)
            .unwrap()
            .run_decomposed(&opts, &seeds)
            .unwrap();
        assert_eq!(a2.cones_replayed, a2.cones_total);
        assert_eq!(strip(r1), strip(r2));
    }
}
