//! Host speed, read while the workload runs from a fixed reference
//! computation on the same CPU.
//!
//! The host's CPUs are shared with other tenants. The speed of each drifts
//! by up to 2x over seconds to minutes, and the two drift apart (their
//! speeds over 0.1 s windows correlate at 0.07, over 2 s at 0.34), so raw
//! op times of one commit spread by 25-35% between quartiles over ten
//! runs. The benchmark therefore runs on one CPU, and a sampler thread on
//! that CPU wakes every [`PERIOD`] to time a reference kernel by its own
//! CPU clock: the kernel's time over an op's interval reads how fast the
//! CPU ran during that op (1 s windows of a busy thread and the sampler
//! beside it correlate at 0.90).
//!
//! The kernel builds the BDD of the middle output bit of a [`BITS`]-bit
//! multiplier, [`REPS`] times, in a small hash-consed BDD package of its
//! own (unique table, computed cache, recursive apply): the same pointer
//! chasing and hashing the analyzer spends its time in. Its tables, 1 MB
//! in all, fit in the core's L2 cache like the tables of most analyses
//! here. A 7 MB variant tracked both `sigma` and `ladder` worse: quartile
//! spreads of the scaled times 19% against 12% over the same six `sigma`
//! runs, and 8% against 1% on the `ladder` geomean over three. The kernel
//! shares no code with the workspace: a change to the program under test
//! leaves its time unchanged.

use std::os::unix::thread::JoinHandleExt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Multiplier width; sets the size of one build (31,283 nodes).
const BITS: usize = 9;

/// Builds per sample: about 16 ms of CPU on a quiet 2.1 GHz Xeon core.
const REPS: usize = 12;

/// Sleep between two kernel runs.
const PERIOD: Duration = Duration::from_millis(150);

/// The kernel CPU time that scaled op times are expressed at, ms.
pub const NOMINAL_MS: f64 = 16.0;

const FALSE: u32 = 0;
const TRUE: u32 = 1;
const EMPTY: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    And,
    Or,
    Xor,
}

/// The kernel's BDD package. Its tables are allocated once, at the size
/// the kernel needs, so every run does the same work and the process
/// memory high-water mark carries them as a constant.
struct Kernel {
    /// `(var, lo, hi)`; ids 0 and 1 are the constants.
    nodes: Vec<(u32, u32, u32)>,
    unique: Vec<u32>,
    cache: Vec<(u32, u32, u32, u32)>,
}

fn mix(a: u32, b: u32, c: u32) -> usize {
    let h = u64::from(a).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(b).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ u64::from(c).wrapping_mul(0x1656_67B1_9E37_79F9);
    (h ^ (h >> 29)) as usize
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            nodes: Vec::with_capacity(1 << 15),
            unique: vec![EMPTY; 1 << 17],
            cache: vec![(EMPTY, 0, 0, 0); 1 << 14],
        }
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.nodes.extend([(EMPTY, 0, 0), (EMPTY, 1, 1)]);
        self.unique.fill(EMPTY);
        self.cache.fill((EMPTY, 0, 0, 0));
    }

    fn mk(&mut self, v: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        assert!(
            self.nodes.len() * 2 < self.unique.len(),
            "reference kernel outgrew its unique table"
        );
        let mask = self.unique.len() - 1;
        let mut slot = mix(v, lo, hi) & mask;
        loop {
            let id = self.unique[slot];
            if id == EMPTY {
                break;
            }
            if self.nodes[id as usize] == (v, lo, hi) {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push((v, lo, hi));
        self.unique[slot] = id;
        id
    }

    fn cofactors(&self, f: u32, v: u32) -> (u32, u32) {
        match self.nodes[f as usize] {
            (var, lo, hi) if var == v => (lo, hi),
            _ => (f, f),
        }
    }

    fn apply(&mut self, op: Op, f: u32, g: u32) -> u32 {
        match (op, f, g) {
            (Op::And, FALSE, _) | (Op::And, _, FALSE) => return FALSE,
            (Op::And, TRUE, x) | (Op::And, x, TRUE) => return x,
            (Op::Or, TRUE, _) | (Op::Or, _, TRUE) => return TRUE,
            (Op::Or, FALSE, x) | (Op::Or, x, FALSE) => return x,
            (Op::Xor, FALSE, x) | (Op::Xor, x, FALSE) => return x,
            _ if f == g => return if op == Op::Xor { FALSE } else { f },
            _ => {}
        }
        let (f, g) = (f.min(g), f.max(g));
        let slot = mix(op as u32, f, g) & (self.cache.len() - 1);
        let hit = self.cache[slot];
        if hit.0 == op as u32 && hit.1 == f && hit.2 == g {
            return hit.3;
        }
        // The constants carry var EMPTY, below every variable.
        let v = self.nodes[f as usize].0.min(self.nodes[g as usize].0);
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let lo = self.apply(op, f0, g0);
        let hi = self.apply(op, f1, g1);
        let r = self.mk(v, lo, hi);
        self.cache[slot] = (op as u32, f, g, r);
        r
    }

    /// Middle output bit of `a * b` by shift-and-add, inputs interleaved
    /// `a0 b0 a1 b1 …`; returns the node count.
    fn run(&mut self) -> usize {
        self.reset();
        let a: Vec<u32> = (0..BITS as u32)
            .map(|i| self.mk(2 * i, FALSE, TRUE))
            .collect();
        let b: Vec<u32> = (0..BITS as u32)
            .map(|i| self.mk(2 * i + 1, FALSE, TRUE))
            .collect();
        let mut sum = vec![FALSE; BITS];
        for (j, &bj) in b.iter().enumerate() {
            let mut carry = FALSE;
            for i in 0..BITS - j {
                let pp = self.apply(Op::And, a[i], bj);
                let s = sum[i + j];
                let x = self.apply(Op::Xor, s, pp);
                let both = self.apply(Op::And, s, pp);
                let through = self.apply(Op::And, x, carry);
                sum[i + j] = self.apply(Op::Xor, x, carry);
                carry = self.apply(Op::Or, both, through);
            }
        }
        std::hint::black_box(sum[BITS - 1]);
        self.nodes.len()
    }
}

/// One kernel run: its wall interval and the CPU time it took.
pub struct Sample {
    start: Instant,
    end: Instant,
    pub cpu_ms: f64,
}

/// The sampler thread; see the module docs.
pub struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: JoinHandle<Vec<Sample>>,
    clock: i32,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            let mut samples = Vec::new();
            let (lock, cv) = &*shared;
            let mut stopped = lock.lock().expect("sampler lock");
            // Samples first, so even the shortest run has one.
            loop {
                let (start, cpu) = (Instant::now(), cpu_ms(CLOCK_THREAD_CPUTIME_ID));
                for _ in 0..REPS {
                    let nodes = kernel.run();
                    assert_eq!(nodes, 31_283, "reference kernel built a different BDD");
                }
                let used = cpu_ms(CLOCK_THREAD_CPUTIME_ID) - cpu;
                samples.push(Sample {
                    start,
                    end: Instant::now(),
                    cpu_ms: used,
                });
                stopped = cv.wait_timeout(stopped, PERIOD).expect("sampler lock").0;
                if *stopped {
                    return samples;
                }
            }
        });
        let mut clock = 0;
        // SAFETY: the thread handle is live (joined only in `stop`) and
        // `clock` is a valid out-pointer for the call.
        let rc = unsafe { pthread_getcpuclockid(thread.as_pthread_t(), &mut clock) };
        assert_eq!(rc, 0, "no CPU clock for the sampler thread");
        Sampler {
            stop,
            thread,
            clock,
        }
    }

    /// CPU time the sampler thread has used so far, ms.
    pub fn cpu_ms(&self) -> f64 {
        cpu_ms(self.clock)
    }

    /// Stops the thread, waits for it to end and returns its samples.
    pub fn stop(self) -> Vec<Sample> {
        let (lock, cv) = &*self.stop;
        *lock.lock().expect("sampler lock") = true;
        cv.notify_all();
        self.thread.join().expect("sampler thread")
    }
}

/// Mean kernel CPU time over the samples that overlap `from..to`, each
/// weighted by its overlap; for an op shorter than the gap between
/// samples, the mean of the samples on either side. NaN without samples.
pub fn kernel_ms(samples: &[Sample], from: Instant, to: Instant) -> f64 {
    let (mut weighted, mut weight) = (0.0, 0.0);
    for s in samples {
        let overlap = s.end.min(to).saturating_duration_since(s.start.max(from));
        let w = overlap.as_secs_f64() / (s.end - s.start).as_secs_f64().max(1e-9);
        weighted += w * s.cpu_ms;
        weight += w;
    }
    if weight > 0.0 {
        return weighted / weight;
    }
    let before = samples.iter().rev().find(|s| s.end <= from);
    let after = samples.iter().find(|s| s.start >= to);
    match (before, after) {
        (Some(b), Some(a)) => (b.cpu_ms + a.cpu_ms) / 2.0,
        (Some(s), None) | (None, Some(s)) => s.cpu_ms,
        (None, None) => f64::NAN,
    }
}

/// Keeps this thread, and every thread it starts from now on, on the CPU
/// it runs on now; false when the kernel refuses.
pub fn pin_to_current_cpu() -> bool {
    // SAFETY: plain libc calls; `mask` is a fully initialised 128-byte
    // `cpu_set_t` that outlives the call, and its exact size is passed.
    unsafe {
        let Ok(cpu) = usize::try_from(sched_getcpu()) else {
            return false;
        };
        let mut mask = [0u64; 16];
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Time of `clock` in ms; NaN when it cannot be read.
fn cpu_ms(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call, and
    // the kernel writes only into it.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// CPU time of this process (all threads), ms.
pub fn process_cpu_ms() -> f64 {
    cpu_ms(CLOCK_PROCESS_CPUTIME_ID)
}
