//! Operation ledger, watchdog, statistics and the result line.

use crate::calib::{self, Sample, Sampler};
use mct_serve::json::Json;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One timed operation: a ladder/sigma row or a serve query.
#[derive(Clone, Debug)]
pub struct Op {
    /// Op class (`row`, `miss`, `hit`, …).
    pub class: &'static str,
    /// Stable identity across passes and seeds, used by the output checks.
    pub id: String,
    pub pass: usize,
    pub ms: f64,
    /// The op's own CPU time: the process's, less the sampler's.
    pub cpu_ms: f64,
    /// The sampler's CPU time during the op.
    pub sampler_ms: f64,
    pub start: Instant,
    pub end: Instant,
    /// Serialized output (report JSON, kernel excluded); `None` on error.
    pub output: Option<String>,
    /// Why the op failed: an error, a refusal or an output mismatch.
    pub failure: Option<String>,
}

/// The clocks at the start of an op, from [`Ledger::stopwatch`].
pub struct Stopwatch {
    start: Instant,
    process_ms: f64,
    sampler_ms: f64,
}

/// One op's wall interval, its process CPU time and the sampler's CPU
/// time within it, from [`Ledger::read`].
pub struct Timing {
    start: Instant,
    end: Instant,
    process_ms: f64,
    sampler_ms: f64,
}

impl Timing {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Every op of a run, the pass walls, and the host speed sampler with
/// its samples.
#[derive(Default)]
pub struct Ledger {
    pub ops: Vec<Op>,
    pub pass_walls: Vec<f64>,
    pub sampler: Option<Sampler>,
    pub samples: Vec<Sample>,
}

impl Ledger {
    pub fn record(
        &mut self,
        class: &'static str,
        id: impl Into<String>,
        pass: usize,
        time: Timing,
        result: Result<String, String>,
    ) {
        let (output, failure) = match result {
            Ok(out) => (Some(out), None),
            Err(e) => {
                eprintln!("op failed: {e}");
                (None, Some(e))
            }
        };
        self.ops.push(Op {
            class,
            id: id.into(),
            pass,
            ms: time.ms(),
            cpu_ms: time.process_ms - time.sampler_ms,
            sampler_ms: time.sampler_ms,
            start: time.start,
            end: time.end,
            output,
            failure,
        });
    }

    /// Marks every op with `id` (in every pass) failed, once.
    pub fn fail_id(&mut self, id: &str, why: &str) {
        for op in self.ops.iter_mut().filter(|o| o.id == id) {
            op.failure.get_or_insert_with(|| why.to_owned());
        }
    }

    /// Starts timing an op.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            process_ms: calib::process_cpu_ms(),
            sampler_ms: self.sampler.as_ref().map_or(0.0, Sampler::cpu_ms),
        }
    }

    /// The timing of an op started at `watch` that has just ended.
    pub fn read(&self, watch: &Stopwatch) -> Timing {
        Timing {
            start: watch.start,
            end: Instant::now(),
            process_ms: calib::process_cpu_ms() - watch.process_ms,
            sampler_ms: self
                .sampler
                .as_ref()
                .map_or(0.0, |s| s.cpu_ms() - watch.sampler_ms),
        }
    }

    /// Stops the sampler, if one runs, and keeps its samples.
    pub fn stop_sampling(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            self.samples = sampler.stop();
        }
    }

    /// Op `i`'s time at reference host speed, ms: its wall time less the
    /// sampler runs that delayed it, with the op's own CPU time scaled by
    /// [`calib::NOMINAL_MS`] over the kernel time during the op, and the
    /// rest (socket and disk waits) kept as measured. Sampler runs fall
    /// evenly over the op; only those that land while the op computes
    /// delay it, so their share is the op's CPU time over its wall time
    /// without the sampler. NaN without samples.
    pub fn scaled_ms(&self, i: usize) -> f64 {
        let op = &self.ops[i];
        let unsampled = (op.ms - op.sampler_ms).max(0.0);
        let busy = op.cpu_ms.clamp(0.0, unsampled);
        let delayed = if unsampled > 0.0 {
            op.sampler_ms * busy / unsampled
        } else {
            0.0
        };
        let kernel = calib::kernel_ms(&self.samples, op.start, op.end);
        op.ms - delayed - busy + busy * calib::NOMINAL_MS / kernel
    }

    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|o| o.failure.is_some()).count()
    }

    /// Latencies of the ops of `class`.
    pub fn latencies(&self, class: &str) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| o.class == class)
            .map(|o| o.ms)
            .collect()
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `values`; NaN when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host memory high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One metric of the result line.
pub type Metric = (&'static str, f64, &'static str);

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_compact()
}

struct WatchState {
    deadline: Option<Instant>,
    op: String,
    attempted: usize,
    failed: usize,
}

/// Kills the run when one op outlives the pass limit. The in-program time
/// budget cannot do this: it does not cover the reach fixpoint.
///
/// On expiry the stuck op counts as attempted and failed, every metric of
/// `names` reads the limit (the op never finished), `scratch` is removed,
/// and the process exits after printing the result line, which ends every
/// thread it started.
#[derive(Clone)]
pub struct Watchdog {
    state: Arc<(Mutex<WatchState>, Condvar)>,
}

impl Watchdog {
    pub fn start(
        limit: Duration,
        names: Vec<(&'static str, &'static str)>,
        scratch: PathBuf,
    ) -> Watchdog {
        let state = Arc::new((
            Mutex::new(WatchState {
                deadline: None,
                op: String::new(),
                attempted: 0,
                failed: 0,
            }),
            Condvar::new(),
        ));
        let shared = Arc::clone(&state);
        std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let mut st = lock.lock().expect("watchdog lock");
            loop {
                match st.deadline {
                    Some(d) if Instant::now() >= d => break,
                    Some(d) => {
                        st = cv
                            .wait_timeout(st, d - Instant::now())
                            .expect("watchdog lock")
                            .0
                    }
                    None => st = cv.wait(st).expect("watchdog lock"),
                }
            }
            eprintln!(
                "watchdog: `{}` exceeded the {:.0} s pass limit; killed and counted as failed",
                st.op,
                limit.as_secs_f64()
            );
            let metrics: Vec<Metric> = names
                .iter()
                .map(|&(n, u)| {
                    let v = match u {
                        "s" => limit.as_secs_f64(),
                        "ms" => limit.as_secs_f64() * 1e3,
                        "MB" => peak_rss_mb(),
                        _ => 0.0,
                    };
                    (n, v, u)
                })
                .collect();
            let _ = std::fs::remove_dir_all(&scratch);
            println!(
                "{}",
                result_line(false, st.attempted + 1, st.failed + 1, &metrics)
            );
            std::process::exit(0);
        });
        Watchdog { state }
    }

    /// Arms the watchdog for one op that must end by `deadline` (its
    /// pass's limit); `attempted`/`failed` are the ledger's counts before
    /// it.
    pub fn arm(&self, op: &str, deadline: Instant, attempted: usize, failed: usize) {
        let (lock, cv) = &*self.state;
        let mut st = lock.lock().expect("watchdog lock");
        st.deadline = Some(deadline);
        st.op = op.to_owned();
        st.attempted = attempted;
        st.failed = failed;
        cv.notify_all();
    }

    pub fn disarm(&self) {
        let (lock, cv) = &*self.state;
        lock.lock().expect("watchdog lock").deadline = None;
        cv.notify_all();
    }
}
