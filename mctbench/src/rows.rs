//! In-process analysis rows: the `ladder` and `sigma` workloads.

use crate::harness::{Ledger, Timing};
use crate::inputs::{permute, FSM_SEED};
use crate::trace::Tracer;
use crate::Layers;
use mct_bdd::BddManager;
use mct_core::{DecisionContext, MctAnalyzer, MctOptions, MctReport};
use mct_gen::families;
use mct_netlist::{Circuit, FsmView, Time};
use mct_serve::json::Json;
use mct_serve::report::report_to_json;
use mct_tbf::{
    count_states, reachable_states, ConeExtractor, DiscreteMachine, StaticOrder, TimedVarTable,
};
use std::time::Instant;

/// One analysis of one machine.
pub struct Row {
    pub id: String,
    pub circuit: Circuit,
    pub opts: MctOptions,
    /// Also compute the topological, floating and transition columns.
    pub columns: bool,
    /// The row whose report this one must reproduce (decomposed and
    /// budgeted runs of a monolithic row).
    pub same_as: Option<String>,
    /// The traced run also times reach under allocation order. Off for the
    /// composites, whose allocation-order reach runs for minutes.
    pub alloc_probe: bool,
}

fn row(id: &str, circuit: Circuit, opts: MctOptions, columns: bool) -> Row {
    Row {
        id: id.to_owned(),
        circuit,
        opts,
        columns,
        same_as: None,
        alloc_probe: false,
    }
}

fn t(v: f64) -> Time {
    Time::from_f64(v)
}

/// Timed ladder rows, plus the budgeted composite run that feeds only
/// `budget_overrun_ms`.
pub fn ladder(seed: u64, short: bool) -> (Vec<Row>, Row) {
    let paper = MctOptions::paper();
    let (sizes, comp_id, comp): (&[(usize, usize, usize)], _, _) = if short {
        (
            &[(8, 3, 80)],
            "composite-small",
            families::composite(4, 4, 4, t(6.0), t(8.0)),
        )
    } else {
        (
            &[(16, 5, 300), (20, 6, 400), (24, 8, 600)],
            "composite",
            families::composite(10, 10, 6, t(6.0), t(8.0)),
        )
    };
    let comp = permute(&comp, seed);
    let mut rows = Vec::new();
    for &(ff, inputs, gates) in sizes {
        let c = permute(&families::random_fsm(FSM_SEED, ff, inputs, gates), seed);
        let mut fsm = row(&format!("fsm{ff}x{gates}"), c, paper.clone(), true);
        fsm.alloc_probe = true;
        rows.push(fsm);
    }
    rows.push(row(comp_id, comp.clone(), paper.clone(), true));
    let decomposed = MctOptions {
        decompose: true,
        ..paper.clone()
    };
    let mut dec = row(
        &format!("{comp_id}-decomposed"),
        comp.clone(),
        decomposed,
        false,
    );
    dec.same_as = Some(comp_id.to_owned());
    rows.push(dec);
    let budgeted = MctOptions {
        time_budget_ms: Some(250),
        ..paper
    };
    let mut budget = row(&format!("{comp_id}-budget"), comp, budgeted, false);
    budget.same_as = Some(comp_id.to_owned());
    (rows, budget)
}

/// The options of the `sigma/*` rows of the workspace's paper benches.
pub fn star_options() -> MctOptions {
    MctOptions {
        delay_variation: Some((1, 2)),
        path_coupled_lp: true,
        exhaustive_floor: Some(0.5),
        max_sigma_combos: 1 << 22,
        ..MctOptions::default()
    }
}

/// The three suite machines whose σ walk the LP dominates.
pub const LP_ROWS: [&str; 3] = ["syn-s382", "syn-s298", "syn-s420"];

/// Suite circuits by name.
pub fn suite_circuit(name: &str) -> Circuit {
    mct_gen::standard_suite()
        .into_iter()
        .map(|e| e.circuit)
        .find(|c| c.name() == name)
        .expect("suite circuit")
}

pub fn sigma(seed: u64, short: bool) -> Vec<Row> {
    let paper = MctOptions::paper();
    let lp = MctOptions {
        path_coupled_lp: true,
        ..paper.clone()
    };
    let mut rows = Vec::new();
    if short {
        rows.push(row(
            "star2",
            permute(&families::sigma_star(2), seed),
            paper,
            false,
        ));
    } else {
        rows.push(row(
            "star3",
            permute(&families::sigma_star(3), seed),
            paper,
            false,
        ));
        let star4 = permute(&families::sigma_star(4), seed);
        rows.push(row("star4", star4, star_options(), false));
    }
    let lp_rows = if short { &LP_ROWS[..1] } else { &LP_ROWS[..] };
    for name in lp_rows {
        let c = permute(&suite_circuit(name), seed);
        rows.push(row(&format!("{name}-lp"), c, lp.clone(), false));
    }
    rows
}

/// Runs one row: its delay columns (when asked) and the analysis. The
/// output is the serialized report (kernel excluded) plus the columns.
pub fn run_row(tr: &mut Tracer, row: &Row) -> Result<(String, MctReport), String> {
    let id = row.id.as_str();
    let view = FsmView::new(&row.circuit).map_err(|e| e.to_string())?;
    let mut fields = Vec::new();
    if row.columns {
        let mut manager = BddManager::new();
        let mut table = TimedVarTable::new();
        let top = tr.span("delay.topological", id, |_| {
            mct_delay::topological_delay(&view)
        });
        let float = tr.span("delay.floating", id, |_| {
            mct_delay::floating_delay(&view, &mut manager, &mut table)
        });
        let trans = tr.span("delay.transition", id, |_| {
            mct_delay::transition_delay(&view, &mut manager, &mut table)
        });
        fields.push((
            "topological".into(),
            Json::Float(top.map_err(|e| e.to_string())?.as_f64()),
        ));
        fields.push((
            "floating".into(),
            Json::Float(float.map_err(|e| e.to_string())?.as_f64()),
        ));
        fields.push((
            "transition".into(),
            Json::Float(trans.map_err(|e| e.to_string())?.as_f64()),
        ));
    }
    let report = tr
        .span("core.run", id, |_| {
            MctAnalyzer::new(&row.circuit).and_then(|mut a| a.run(&row.opts))
        })
        .map_err(|e| e.to_string())?;
    fields.insert(0, ("report".into(), report_to_json(&report)));
    Ok((Json::Obj(fields).to_compact(), report))
}

/// Size record of a row, for seed safety: a machine that takes seconds on
/// one generator seed can take minutes on the next.
pub fn size_record(row: &Row, report: Option<&MctReport>) -> String {
    let stats = row.circuit.stats();
    let cones = mct_netlist::decompose(&row.circuit).len();
    let timed_vars = FsmView::new(&row.circuit)
        .ok()
        .and_then(|view| {
            let extractor = ConeExtractor::new(&view).with_node_limit(row.opts.cone_node_limit);
            let classes = extractor.delay_classes_at(&view.sink_starts()).ok()?;
            let mut table = TimedVarTable::new();
            StaticOrder::compute(&view, max_shift(&classes, &row.opts)).apply(&mut table);
            Some(table.len())
        })
        .unwrap_or(0);
    format!(
        "row {}: gates={} ffs={} timed_vars={} cones={} peak_nodes={}",
        row.id,
        stats.gates,
        stats.dffs,
        timed_vars,
        cones,
        report.map_or(0, |r| r.kernel.peak_nodes)
    )
}

/// The static order's shift horizon, derived as the analyzer derives it
/// (`mct_core` does not expose it). `probe_row` checks the inputs of this
/// rule, and the reach it leads to, against the analyzer's report.
fn max_shift(classes: &[mct_tbf::DelayClass], opts: &MctOptions) -> i64 {
    let l_millis = classes.iter().map(|c| c.delay).max().unwrap_or(0);
    let floor = match opts.exhaustive_floor {
        Some(tau) => (tau * 1000.0).round(),
        None => l_millis as f64 / opts.floor_divisor.max(1) as f64,
    };
    if floor > 0.0 {
        ((l_millis as f64 / floor).ceil() as i64 + 1).clamp(1, 128)
    } else {
        64
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Traced-run probes: re-runs the analyzer's phases on their own through
/// each crate's public functions, so their cost can be read apart from the
/// sweep. Adds to `layers`. Fails when the probes disagree with the
/// analyzer's report, so they would be timing another order or another
/// reach than the analyzer's.
pub fn probe_row(
    tr: &mut Tracer,
    row: &Row,
    report: &MctReport,
    layers: &mut Layers,
) -> Result<(), String> {
    let id = row.id.as_str();
    let opts = &row.opts;
    let Ok(view) = FsmView::new(&row.circuit) else {
        return Ok(());
    };
    let (cones, ms) = timed(tr, "netlist.decompose", id, || {
        mct_netlist::decompose(&row.circuit).len()
    });
    layers.add("netlist.decompose_ms", ms);
    layers.add("netlist.cones", cones as f64);

    layers.add("core.candidates", report.candidates_checked as f64);
    layers.add("core.sigma_checked", report.sigma_checked as f64);
    layers.add("core.sigma_hits", report.sigma_cache_hits as f64);
    layers.add("core.sigma_pruned", report.kernel.sigma_pruned as f64);
    let k = &report.kernel;
    layers.max("bdd.peak_nodes", k.peak_nodes as f64);
    layers.add("bdd.gc_runs", k.gc_runs as f64);
    layers.add("bdd.cache_hits", k.ops_cache_hits as f64);
    layers.add("bdd.cache_lookups", k.ops_cache_lookups as f64);
    layers.add("bdd.reorder_passes", k.reorder_passes as f64);
    for name in ["delay.floating", "delay.transition"] {
        if let Some(s) = tr
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == name && s.row == id)
        {
            layers.add(&format!("{name}_ms"), s.dur_ms());
        }
    }
    let run_ms = tr
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == "core.run" && s.row == id)
        .map_or(0.0, |s| s.dur_ms());
    if opts.decompose {
        // The phases below would repeat the monolithic row's.
        layers.add("core.decomposed_ms", run_ms);
        return Ok(());
    }

    let extractor = ConeExtractor::new(&view).with_node_limit(opts.cone_node_limit);
    let (classes, extract_ms) = timed(tr, "tbf.extract", id, || {
        extractor.delay_classes_at(&view.sink_starts())
    });
    layers.add("tbf.extract_ms", extract_ms);
    let Ok(classes) = classes else { return Ok(()) };
    layers.add("tbf.classes", classes.len() as f64);
    let l_millis = classes.iter().map(|c| c.delay).max().unwrap_or(0);
    if l_millis as f64 != (report.steady_delay * 1000.0).round() {
        return Err(format!(
            "probe's steady delay {l_millis} ms differs from the report's {}",
            report.steady_delay
        ));
    }

    let mut manager = BddManager::new();
    let mut table = TimedVarTable::new();
    let (_, order_ms) = timed(tr, "tbf.order", id, || {
        StaticOrder::compute(&view, max_shift(&classes, opts)).apply(&mut table)
    });
    layers.add("tbf.order_ms", order_ms);
    layers.add("tbf.timed_vars", table.len() as f64);

    // `DecisionContext::new` is `DiscreteMachine::steady_state` plus pinning.
    let (ctx, steady_ms) = timed(tr, "tbf.steady", id, || {
        DecisionContext::new(&extractor, &mut manager, &mut table)
    });
    layers.add("tbf.steady_ms", steady_ms);
    let Ok(mut ctx) = ctx else { return Ok(()) };

    let mut reach_ms = 0.0;
    if opts.use_reachability && view.num_state_bits() > 0 {
        let (reach, ms) = timed(tr, "tbf.reach", id, || {
            reachable_states(&extractor, &mut manager, &mut table)
        });
        reach_ms = ms;
        layers.add("tbf.reach_ms", ms);
        layers.max("tbf.reach_peak_nodes", manager.stats().peak_nodes as f64);
        if let Ok(reach) = reach {
            let states = count_states(&manager, reach, view.num_state_bits());
            if Some(states) != report.reachable_states {
                return Err(format!(
                    "probe reaches {states} states, the report {:?}",
                    report.reachable_states
                ));
            }
            layers.add("tbf.reach_states", states);
            ctx = ctx.with_restriction(reach);
        }
    }
    if row.alloc_probe {
        let (_, ms) = timed(tr, "tbf.reach_alloc", id, || {
            let mut m = BddManager::new();
            let mut t = TimedVarTable::new();
            reachable_states(&extractor, &mut m, &mut t).map(|_| ())
        });
        layers.add("tbf.reach_alloc_ms", ms);
    }

    let phases = extract_ms + order_ms + steady_ms + reach_ms;
    layers.add("core.run_ms", run_ms);
    layers.add("core.sweep_ms", (run_ms - phases).max(0.0));

    // One decision at the report's first failing period.
    if let Some(tau) = report.first_failing_tau {
        let tau_ms = tau * 1000.0;
        let (_, ms) = timed(tr, "core.decide", id, || {
            DiscreteMachine::with_shift_fn(&extractor, &mut manager, &mut table, |_, k| {
                (k as f64 / tau_ms).ceil() as i64
            })
            .map(|machine| ctx.decide(&mut manager, &mut table, &machine))
        });
        layers.add("core.decide_ms", ms);
    }
    Ok(())
}

fn timed<T>(tr: &mut Tracer, name: &str, row: &str, f: impl FnOnce() -> T) -> (T, f64) {
    tr.span(name, row, |_| {
        let t0 = Instant::now();
        let out = f();
        (out, ms_since(t0))
    })
}

/// Records the row's op outcome in the ledger.
pub fn record(
    ledger: &mut Ledger,
    row: &Row,
    pass: usize,
    time: Timing,
    out: &Result<(String, MctReport), String>,
) {
    let result = out.as_ref().map(|(s, _)| s.clone()).map_err(Clone::clone);
    ledger.record("row", row.id.clone(), pass, time, result);
}
