//! The workspace benchmark: `ladder`, `sigma` and `serve` workloads.
//!
//! ```text
//! cargo run --release --manifest-path mctbench/Cargo.toml -- \
//!     --workload ladder --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every run sets up, then repeats passes over the workload until
//! `--seconds` have elapsed, checks every output, and prints the metrics:
//! human-readable lines first, then one JSON result line. `--trace 1`
//! makes one untraced pass and then traced ones, and prints the per-layer
//! metrics instead; the spans go to `.bench_out/` as Chrome trace-event
//! JSON. See `README.md` for the workloads, metrics and bounds.

mod calib;
mod harness;
mod inputs;
mod rows;
mod serve;
mod trace;

use harness::{median, peak_rss_mb, quantile, result_line, Ledger, Metric, Watchdog};
use mct_serve::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_geomean_ms", "ms"),
];

/// Per-layer metrics, from the traced run. Every workload prints all of
/// them; a layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("netlist.parse_ms", "ms"),
    ("netlist.canon_ms", "ms"),
    ("netlist.decompose_ms", "ms"),
    ("netlist.cones", "count"),
    ("tbf.extract_ms", "ms"),
    ("tbf.classes", "count"),
    ("tbf.order_ms", "ms"),
    ("tbf.timed_vars", "count"),
    ("tbf.steady_ms", "ms"),
    ("tbf.reach_ms", "ms"),
    ("tbf.reach_peak_nodes", "count"),
    ("tbf.reach_states", "count"),
    ("tbf.reach_alloc_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.sweep_ms", "ms"),
    ("core.decide_ms", "ms"),
    ("core.candidates", "count"),
    ("core.sigma_checked", "count"),
    ("core.sigma_memo_ratio", "ratio"),
    ("core.sigma_pruned", "count"),
    ("core.decomposed_ms", "ms"),
    ("core.budget_wall_ms", "ms"),
    ("core.budget_timed_out", "count"),
    ("lp.coupled_ms", "ms"),
    ("bdd.peak_nodes", "count"),
    ("bdd.gc_runs", "count"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("bdd.reorder_passes", "count"),
    ("delay.floating_ms", "ms"),
    ("delay.transition_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.artifact_bytes", "bytes"),
    ("serve.parse_us", "us"),
    ("serve.analyze_us", "us"),
    ("serve.request_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.warm", "count"),
    ("serve.disk_hits", "count"),
    ("bench.self_ms", "ms"),
    ("netlist.self_ms", "ms"),
    ("tbf.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("delay.self_ms", "ms"),
    ("store.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// The seed whose outputs `golden/` stores.
const DEFAULT_SEED: u64 = 1;

/// Set-up repeats at least `SETUP_REPS` times and for `SETUP_SECONDS`
/// before the first pass, and again for `SETUP_SECONDS / 2` after each
/// untraced pass; `setup_s` is the fastest repetition. The `ladder` and
/// `sigma` set-ups are a few ms of allocation; their repetitions fall into
/// modes up to 3x apart by allocator state and host load, and which mode
/// the median or a low percentile lands in changes from run to run (10th
/// percentile 2.2-3.0 ms over three `ladder` runs), while the fastest
/// repetition stays within 6% (2.08-2.20 ms). Extra set-up work still
/// raises it.
const SETUP_REPS: usize = 9;
const SETUP_SECONDS: f64 = 0.5;

/// Repeats the set-up at least `reps` times and for at least `seconds`,
/// recording each repetition's time; returns the last set-up.
fn timed_setups(
    args: &Args,
    scratch: &Path,
    times: &mut Vec<f64>,
    reps: usize,
    seconds: f64,
) -> Result<Work, String> {
    let started = Instant::now();
    let mut done = 0;
    loop {
        let t0 = Instant::now();
        let work = setup(args, scratch)?;
        times.push(t0.elapsed().as_secs_f64());
        done += 1;
        if done >= reps && started.elapsed().as_secs_f64() >= seconds {
            return Ok(work);
        }
    }
}

/// Per-pass values of the per-layer metrics; sums unless set by `max`.
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.0.entry(name.to_owned()).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    bless: bool,
    pass_limit: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        short: false,
        bless: false,
        pass_limit: Duration::from_secs(90),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<f64>().map_err(|e| format!("{v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = num(value()?)?,
            "--trace" => args.trace = value()? == "1",
            "--pass-limit" => args.pass_limit = Duration::from_secs_f64(num(value()?)?),
            "--short" => args.short = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !["ladder", "sigma", "serve", "all"].contains(&args.workload.as_str()) {
        return Err("--workload must be ladder, sigma, serve or all".into());
    }
    Ok(args)
}

/// What one workload sets up and then runs pass after pass.
enum Work {
    Rows {
        rows: Vec<rows::Row>,
        budget: Option<Box<rows::Row>>,
    },
    Serve(serve::Script),
}

fn setup(args: &Args, scratch: &Path) -> Result<Work, String> {
    // A tiny analysis faults in code and allocator pages before timing.
    let warm_up = || {
        let c = mct_gen::s27(&mct_netlist::DelayModel::Mapped);
        mct_core::MctAnalyzer::new(&c)
            .and_then(|mut a| a.run(&mct_core::MctOptions::paper()))
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    match args.workload.as_str() {
        "ladder" | "sigma" => {
            let (rows, budget) = if args.workload == "ladder" {
                let (rows, budget) = rows::ladder(args.seed, args.short);
                (rows, Some(Box::new(budget)))
            } else {
                (rows::sigma(args.seed, args.short), None)
            };
            for row in &rows {
                mct_netlist::FsmView::new(&row.circuit).map_err(|e| e.to_string())?;
            }
            warm_up()?;
            Ok(Work::Rows { rows, budget })
        }
        _ => {
            let script = serve::script(args.seed, args.short);
            serve::warm_up(scratch)?;
            Ok(Work::Serve(script))
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mctbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all());
    }
    let names: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let scratch =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    // One CPU for every thread of the run, the sampler's included: see
    // `calib`.
    if !calib::pin_to_current_cpu() {
        eprintln!("mctbench: could not pin the run to one CPU");
    }
    let watchdog = Watchdog::start(args.pass_limit, names, scratch.clone());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("mctbench: {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let outcome = bench(&args, &scratch, &watchdog);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("mctbench: {e}");
            std::process::exit(1);
        }
    }
}

fn bench(args: &Args, scratch: &Path, watchdog: &Watchdog) -> Result<String, String> {
    let mut setup_times = Vec::new();
    let work = timed_setups(args, scratch, &mut setup_times, SETUP_REPS, SETUP_SECONDS)?;

    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new(args.trace);
    let mut per_pass: Vec<Layers> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut reports: BTreeMap<String, mct_core::MctReport> = BTreeMap::new();
    if !args.trace {
        ledger.sampler = Some(calib::Sampler::start());
    }
    let started = Instant::now();
    // A traced run alternates untraced and traced passes after an
    // untraced warm-up pass; the tracing overhead is the difference of
    // their median walls.
    let min_passes = if args.trace { 3 } else { 1 };
    let mut pass = 0;
    let mut last_wall = 0.0;
    // Stop before a pass that would end past `--seconds`, so a run lasts
    // about `--seconds` whatever its pass length.
    while pass < min_passes || started.elapsed().as_secs_f64() + last_wall <= args.seconds {
        let traced = args.trace && pass % 2 == 1;
        let mut off = Tracer::new(false);
        let tr = if traced { &mut tracer } else { &mut off };
        let pass_deadline = Instant::now() + args.pass_limit;
        let watch = |op: &str, ledger: &Ledger| {
            watchdog.arm(op, pass_deadline, ledger.attempted(), ledger.failed())
        };
        let mut layers = Layers::default();
        let mark = tr.len();
        let t0 = Instant::now();
        match &work {
            Work::Rows { rows, .. } => {
                for row in rows {
                    watch(&row.id, &ledger);
                    let clock = ledger.stopwatch();
                    let out = tr.span("bench.row", &row.id, |tr| rows::run_row(tr, row));
                    let time = ledger.read(&clock);
                    rows::record(&mut ledger, row, pass, time, &out);
                    if let Ok((_, report)) = out {
                        reports.insert(row.id.clone(), report);
                    }
                }
            }
            Work::Serve(script) => {
                serve::pass(script, scratch, tr, &mut ledger, pass, &mut layers, &watch)?;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        last_wall = wall;
        if !traced {
            if !args.trace {
                ledger.pass_walls.push(wall);
                timed_setups(args, scratch, &mut setup_times, 1, SETUP_SECONDS / 2.0)?;
            } else if pass > 0 {
                untraced_walls.push(wall);
            }
        } else {
            traced_walls.push(wall);
            match &work {
                Work::Rows { rows, .. } => {
                    for row in rows {
                        if let Some(report) = reports.get(&row.id) {
                            watch(&row.id, &ledger);
                            if let Err(why) = rows::probe_row(tr, row, report, &mut layers) {
                                ledger.fail_id(&row.id, &why);
                            }
                        }
                    }
                    if args.workload == "sigma" {
                        lp_counterparts(tr, rows, &reports, &mut ledger, &mut layers);
                    }
                }
                Work::Serve(script) => {
                    watch("serve probes", &ledger);
                    serve::probe(script, tr, &mut layers);
                }
            }
            for (layer, ms) in tr.self_ms_by_layer(mark) {
                layers.add(&format!("{layer}.self_ms"), ms);
            }
            layers.add("trace.spans", (tr.len() - mark) as f64);
            per_pass.push(layers);
        }
        watchdog.disarm();
        pass += 1;
    }
    ledger.stop_sampling();
    // Each op's times across passes, at reference host speed and as
    // measured. Geometric mean over ops of each op's median: every machine
    // or query counts the same, whatever its size, unlike `pass_s`, and
    // one slow pass moves no op's median.
    let mut scaled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut measured: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, op) in ledger.ops.iter().enumerate() {
        if !args.trace || op.pass % 2 == 0 {
            scaled.entry(&op.id).or_default().push(ledger.scaled_ms(i));
            measured.entry(&op.id).or_default().push(op.ms);
        }
    }
    let geomean = |by_id: &BTreeMap<&str, Vec<f64>>| {
        let logs: Vec<f64> = by_id.values().map(|v| median(v).ln()).collect();
        (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
    };
    let (pass_s, op_geomean_ms) = (one_pass_s(&ledger, &scaled), geomean(&scaled));
    let as_measured = (one_pass_s(&ledger, &measured), geomean(&measured));
    drop((scaled, measured)); // ends their borrows of `ledger`

    // The workload's memory high-water mark, read before the budgeted run
    // and the output checks add the benchmark's own work to it.
    let peak_rss = peak_rss_mb();

    // The budgeted run, once per run: it feeds only `budget_overrun_ms`.
    let mut budget_line = None;
    if let Work::Rows {
        budget: Some(row), ..
    } = &work
    {
        let deadline = Instant::now() + args.pass_limit;
        watchdog.arm(&row.id, deadline, ledger.attempted(), ledger.failed());
        let clock = ledger.stopwatch();
        let out = rows::run_row(&mut Tracer::new(false), row);
        let time = ledger.read(&clock);
        let ms = time.ms();
        watchdog.disarm();
        rows::record(&mut ledger, row, pass, time, &out);
        let budget = row.opts.time_budget_ms.unwrap_or(0) as f64;
        let timed_out = out.as_ref().is_ok_and(|(_, r)| r.timed_out);
        for l in &mut per_pass {
            l.add("core.budget_wall_ms", ms);
            l.add("core.budget_timed_out", f64::from(u8::from(timed_out)));
        }
        budget_line = Some(format!(
            "budget_overrun_ms {:.3} ms (wall {ms:.3} ms at a {budget:.0} ms budget, \
             timed_out={timed_out}; overrun = max(0, wall - budget - 50))",
            (ms - budget - 50.0).max(0.0)
        ));
        if let Ok((_, report)) = out {
            reports.insert(row.id.clone(), report);
        }
    }

    let mut out = vec![format!(
        "workload {} seed {} passes {pass} (available parallelism {})",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];
    out.push(format!(
        "set-up: {} repetitions, min {:.3} ms, median {:.3} ms, max {:.3} ms",
        setup_times.len(),
        quantile(&setup_times, 0.0) * 1e3,
        median(&setup_times) * 1e3,
        quantile(&setup_times, 1.0) * 1e3
    ));
    out.extend(verify(args, &work, &mut ledger)?);
    if let Work::Rows { rows, budget } = &work {
        for row in rows.iter().chain(budget.as_deref()) {
            let lat: Vec<f64> = ledger
                .ops
                .iter()
                .filter(|o| o.id == row.id)
                .map(|o| o.ms)
                .collect();
            out.push(format!(
                "{} latency_ms median={:.3} min={:.3} max={:.3} n={}",
                rows::size_record(row, reports.get(&row.id)),
                median(&lat),
                quantile(&lat, 0.0),
                quantile(&lat, 1.0),
                lat.len()
            ));
        }
    }
    let attempted = ledger.attempted();
    let failed = ledger.failed();
    for op in ledger.ops.iter().filter(|o| o.failure.is_some()).take(10) {
        out.push(format!(
            "failed: {} ({})",
            op.id,
            op.failure.as_deref().unwrap_or("")
        ));
    }
    out.push(format!(
        "fail_rate {} ratio ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    ));
    let metrics: Vec<Metric> = if args.trace {
        let trace = Trace {
            tracer: &tracer,
            per_pass,
            untraced_wall: median(&untraced_walls),
            traced_wall: median(&traced_walls),
        };
        trace_metrics(args, trace, &mut out)?
    } else {
        out.extend(budget_line);
        if matches!(work, Work::Serve(_)) {
            for class in ["hit", "miss", "renamed", "warm", "eco", "restart"] {
                let lat = ledger.latencies(class);
                out.push(format!(
                    "{class}_p50_ms {:.4} ms (n={})",
                    median(&lat),
                    lat.len()
                ));
                if class == "hit" {
                    for (name, q) in [("hit_p90_ms", 0.9), ("hit_p99_ms", 0.99)] {
                        let v = quantile(&lat, q);
                        let beyond = (lat.len() as f64 * (1.0 - q)).floor();
                        out.push(format!(
                            "{name} {v:.4} ms (n={}, {beyond} beyond)",
                            lat.len()
                        ));
                    }
                }
            }
        }
        let walls: Vec<String> = ledger
            .pass_walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect();
        out.push(format!(
            "{} passes of {} ops; pass walls as measured: {} s",
            walls.len(),
            ledger.ops.iter().filter(|o| o.pass == 0).count(),
            walls.join(" ")
        ));
        let kernel: Vec<f64> = ledger.samples.iter().map(|s| s.cpu_ms).collect();
        out.push(format!(
            "host speed: {} reference runs, median {:.3} ms CPU (quartiles {:.3} {:.3}; \
             op times are scaled to {:.1} ms)",
            kernel.len(),
            median(&kernel),
            quantile(&kernel, 0.25),
            quantile(&kernel, 0.75),
            calib::NOMINAL_MS
        ));
        out.push(format!(
            "wall_s {:.4} s (one pass as measured, from per-op median walls; \
             op_geomean as measured {:.4} ms)",
            as_measured.0, as_measured.1
        ));
        vec![
            ("setup_s", quantile(&setup_times, 0.0), "s"),
            ("pass_s", pass_s, "s"),
            ("peak_rss_mb", peak_rss, "MB"),
            ("op_geomean_ms", op_geomean_ms, "ms"),
        ]
    };
    for (name, value, unit) in &metrics {
        out.push(format!("{name} {value} {unit}"));
    }
    for line in &out {
        println!("{line}");
    }
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

/// One pass over the workload, s: each op's median time across passes
/// (`by_id`), times the op's runs per pass (serve repeats some queries),
/// summed, plus the median time a pass spends outside its ops (serve's
/// daemon starts and stops). Per-op medians read the workload more
/// steadily than the median pass: a slow spell of the host moves every
/// pass it falls in, but only the ops it hits in each.
fn one_pass_s(ledger: &Ledger, by_id: &BTreeMap<&str, Vec<f64>>) -> f64 {
    let passes = ledger.pass_walls.len().max(1) as f64;
    let in_ops_ms: f64 = by_id
        .values()
        .map(|v| median(v) * v.len() as f64 / passes)
        .sum();
    let outside: Vec<f64> = ledger
        .pass_walls
        .iter()
        .enumerate()
        .map(|(p, wall)| {
            let in_ops: f64 = ledger
                .ops
                .iter()
                .filter(|o| o.pass == p)
                .map(|o| o.ms)
                .sum();
            wall - in_ops / 1e3
        })
        .collect();
    in_ops_ms / 1e3 + median(&outside)
}

/// Sigma's traced passes also run each LP row without the LP: the
/// difference is the LP's cost, and the LP bound may never be looser.
fn lp_counterparts(
    tr: &mut Tracer,
    rows: &[rows::Row],
    reports: &BTreeMap<String, mct_core::MctReport>,
    ledger: &mut Ledger,
    layers: &mut Layers,
) {
    for row in rows
        .iter()
        .filter(|r| r.opts.path_coupled_lp && r.id.ends_with("-lp"))
    {
        let Some(report) = reports.get(&row.id) else {
            continue;
        };
        let closed = rows::Row {
            id: format!("{}-closed", row.id),
            circuit: row.circuit.clone(),
            opts: mct_core::MctOptions {
                path_coupled_lp: false,
                ..row.opts.clone()
            },
            columns: false,
            same_as: None,
            alloc_probe: false,
        };
        let t = Instant::now();
        let out = tr.span("bench.lp_counterpart", &closed.id, |tr| {
            rows::run_row(tr, &closed)
        });
        let closed_ms = t.elapsed().as_secs_f64() * 1e3;
        let lp_ms = tr
            .spans()
            .iter()
            .rev()
            .find(|s| s.name == "core.run" && s.row == row.id)
            .map_or(0.0, |s| s.dur_ms());
        layers.add("lp.coupled_ms", lp_ms - closed_ms);
        if let Ok((_, closed)) = out {
            if report.mct_upper_bound > closed.mct_upper_bound + 1e-4 {
                ledger.fail_id(&row.id, "LP bound looser than the closed-form bound");
            }
        }
    }
}

/// What a traced run hands to [`trace_metrics`].
struct Trace<'a> {
    tracer: &'a Tracer,
    per_pass: Vec<Layers>,
    untraced_wall: f64,
    traced_wall: f64,
}

fn trace_metrics(args: &Args, mut t: Trace, out: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, t.tracer.to_chrome_json().to_compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.push(format!("trace written to {}", path.display()));
    let overhead = t.traced_wall - t.untraced_wall;
    out.push(format!(
        "tracing overhead {overhead:.4} s (traced wall {:.4} s - untraced wall {:.4} s)",
        t.traced_wall, t.untraced_wall
    ));
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    for l in &mut t.per_pass {
        let memo = ratio(l.get("core.sigma_hits"), l.get("core.sigma_checked"));
        let cache = ratio(l.get("bdd.cache_hits"), l.get("bdd.cache_lookups"));
        l.add("core.sigma_memo_ratio", memo);
        l.add("bdd.cache_hit_ratio", cache);
        l.add("trace.wall_s", t.traced_wall);
        l.add("trace.overhead_s", overhead);
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = t.per_pass.iter().map(|l| l.get(name)).collect();
            (name, median(&values), unit)
        })
        .collect())
}

/// Output checks: determinism across passes, the stored outputs of the
/// default seed, and the workload's cross-checks. A mismatch fails the op.
fn verify(args: &Args, work: &Work, ledger: &mut Ledger) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut mismatches: Vec<(String, String)> = Vec::new();

    // Every pass must reproduce the first pass's output.
    let mut first: BTreeMap<&str, &str> = BTreeMap::new();
    for op in &ledger.ops {
        if let Some(o) = op.output.as_deref() {
            match first.get(op.id.as_str()) {
                Some(&f) if f != o => {
                    mismatches.push((op.id.clone(), "output differs between passes".into()))
                }
                Some(_) => {}
                None => {
                    first.insert(&op.id, o);
                }
            }
        }
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.json", args.workload));
    let mut golden: BTreeMap<String, String> = match std::fs::read_to_string(&golden_path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", golden_path.display()))?
            .as_obj()
            .ok_or("golden file is not an object")?
            .iter()
            .map(|(k, v)| (k.clone(), v.to_compact()))
            .collect(),
        Err(_) if args.bless => BTreeMap::new(),
        Err(e) => return Err(format!("{}: {e}", golden_path.display())),
    };
    // Outputs checked only against another output, never stored: replies
    // that must equal a miss's reply, and the budgeted row, whose
    // `timed_out` depends on host speed (the cross-checks below accept it
    // when it equals the unbudgeted report or is a sound partial bound).
    let budget_id = match work {
        Work::Rows {
            budget: Some(row), ..
        } => Some(row.id.as_str()),
        _ => None,
    };
    let stored = |id: &str| {
        Some(id) != budget_id
            && !["hit/", "renamed/", "restart/"]
                .iter()
                .any(|p| id.starts_with(p))
    };
    if args.bless {
        if args.seed != DEFAULT_SEED {
            return Err(format!(
                "--bless stores the outputs of seed {DEFAULT_SEED} only"
            ));
        }
        for (id, o) in &first {
            if stored(id) {
                golden.insert((*id).to_owned(), (*o).to_owned());
            }
        }
        // One output per line, so a changed output shows as one changed line.
        let body: Vec<String> = golden
            .iter()
            .map(|(k, v)| format!("{}: {v}", Json::Str(k.clone()).to_compact()))
            .collect();
        std::fs::write(&golden_path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .map_err(|e| e.to_string())?;
        lines.push(format!(
            "blessed {} outputs into {}",
            first.len(),
            golden_path.display()
        ));
    }
    let mut compared = 0;
    for (id, o) in first.iter().filter(|(id, _)| stored(id)) {
        if let Some(g) = golden.get(*id) {
            compared += 1;
            if g != o {
                mismatches.push((
                    (*id).to_owned(),
                    "output differs from the stored output".into(),
                ));
            }
        }
    }
    lines.push(format!(
        "checks: {compared} of {} outputs compared with the stored outputs",
        first.len()
    ));

    // Cross-checks that hold for any seed.
    let report_of = |s: &str| {
        Json::parse(s)
            .ok()
            .and_then(|j| j.get("report").map(Json::to_compact))
    };
    let mut cross = 0;
    match work {
        Work::Rows { rows, budget } => {
            for row in rows.iter().chain(budget.as_deref()) {
                let Some(base) = &row.same_as else { continue };
                cross += 1;
                let (Some(got), Some(want)) =
                    (first.get(row.id.as_str()), first.get(base.as_str()))
                else {
                    continue;
                };
                let bound = |s: &str| {
                    Json::parse(s).ok().and_then(|j| {
                        let r = j.get("report")?;
                        Some((
                            r.get("mct_upper_bound")?.as_f64()?,
                            r.get("timed_out")?.as_bool()?,
                        ))
                    })
                };
                let ok = match (bound(got), bound(want)) {
                    // A partial (timed-out) bound must stay sound.
                    (Some((b, true)), Some((m, _))) => b >= m - 1e-9,
                    _ => report_of(got) == report_of(want),
                };
                if !ok {
                    mismatches.push((row.id.clone(), format!("report differs from {base}")));
                }
            }
        }
        Work::Serve(script) => {
            let mut refs: BTreeMap<&str, String> = BTreeMap::new();
            for q in script
                .session
                .iter()
                .filter(|q| matches!(q.class, "miss" | "warm" | "eco"))
            {
                cross += 1;
                let want = serve::reference(q)?;
                if first.get(q.id.as_str()).is_some_and(|&got| got != want) {
                    mismatches.push((
                        q.id.clone(),
                        "daemon reply differs from the in-process report".into(),
                    ));
                }
                refs.insert(&q.id, want);
            }
            for q in script.session.iter().chain(&script.restart) {
                let Some(base) = q.id.split_once('/').map(|(_, n)| format!("miss/{n}")) else {
                    continue;
                };
                if !matches!(q.class, "hit" | "renamed" | "restart") {
                    continue;
                }
                cross += 1;
                if first
                    .get(q.id.as_str())
                    .zip(refs.get(base.as_str()))
                    .is_some_and(|(g, w)| g != w)
                {
                    mismatches.push((q.id.clone(), format!("reply differs from {base}")));
                }
            }
        }
    }
    lines.push(format!(
        "checks: {cross} cross-checks, {} mismatches",
        mismatches.len()
    ));
    for (id, why) in &mismatches {
        lines.push(format!("mismatch: {id}: {why}"));
        ledger.fail_id(id, why);
    }
    Ok(lines)
}

/// `--workload all`: each workload in its own process (so peak memory is
/// attributable), with the same arguments.
fn run_all() -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("mctbench: {e}");
            return 1;
        }
    };
    let rest: Vec<String> = {
        let mut v = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                v.push(a);
            }
        }
        v
    };
    let mut code = 0;
    for w in ["ladder", "sigma", "serve"] {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&rest)
            .status();
        match status {
            Ok(s) if s.success() => {}
            _ => code = 1,
        }
    }
    code
}
