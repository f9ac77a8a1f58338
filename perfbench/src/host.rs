//! The timed phase and what the host did during it: process CPU time,
//! peak memory, hypervisor steal and run-queue wait. Everything is read
//! from `/proc` or the C library the standard library already links, so
//! a noisy run is explained in its own output instead of being dropped.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU time of every thread of this process, dead ones included, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate `/proc/stat` CPU counters: (steal ticks, all ticks).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so sum the first eight.
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Share of all CPU ticks between two [`cpu_ticks`] readings that the
/// hypervisor stole.
fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// `/proc/self/task/*/schedstat`: tid → (on-CPU ns, run-queue wait ns).
fn task_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        let mut f = text
            .split_whitespace()
            .filter_map(|v| v.parse::<u64>().ok());
        if let (Some(run), Some(wait)) = (f.next(), f.next()) {
            out.insert(tid, (run, wait));
        }
    }
    out
}

/// Samples every thread's run-queue wait while a phase runs, so threads
/// that start and exit inside the phase (the serve pool) are counted
/// up to their last sample.
struct RunQueueSampler {
    stop: Arc<AtomicBool>,
    seen: Arc<Mutex<BTreeMap<u64, (u64, u64)>>>,
    baseline: BTreeMap<u64, (u64, u64)>,
    handle: JoinHandle<()>,
}

impl RunQueueSampler {
    /// Takes the baseline and starts sampling every 10 ms.
    fn start() -> Self {
        let baseline = task_schedstats();
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::new(Mutex::new(baseline.clone()));
        let handle = {
            let (stop, seen) = (Arc::clone(&stop), Arc::clone(&seen));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let now = task_schedstats();
                    seen.lock()
                        .expect("sampler map is never poisoned")
                        .extend(now);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        RunQueueSampler {
            stop,
            seen,
            baseline,
            handle,
        }
    }

    /// Stops sampling; returns run-queue wait ÷ (on-CPU + wait) over the
    /// phase, summed over every thread seen.
    fn finish(self) -> f64 {
        // A plain stop signal: the samples travel under the mutex.
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread does not panic");
        let mut seen = self
            .seen
            .lock()
            .expect("sampler map is never poisoned")
            .clone();
        seen.extend(task_schedstats());
        let (mut run, mut wait) = (0u64, 0u64);
        for (tid, (r, w)) in seen {
            let (r0, w0) = self.baseline.get(&tid).copied().unwrap_or((0, 0));
            run += r.saturating_sub(r0);
            wait += w.saturating_sub(w0);
        }
        if run + wait == 0 {
            0.0
        } else {
            wait as f64 / (run + wait) as f64
        }
    }
}

/// The timed phase of a workload: its untraced and traced units of work
/// (passes or calls) and the host's behaviour meanwhile.
pub struct Timed<T> {
    /// Untraced units.
    pub plain: Vec<T>,
    /// Traced units (trace mode only).
    pub traced: Vec<T>,
    /// Share of host CPU ticks stolen by the hypervisor.
    pub steal_share: f64,
    /// Share of runnable time this process waited for a CPU (trace
    /// mode only).
    pub rq_wait_share: f64,
}

impl<T> Timed<T> {
    /// Every unit, untraced first.
    pub fn all(&self) -> impl Iterator<Item = &T> {
        self.plain.iter().chain(&self.traced)
    }
}

/// Runs `unit` until `seconds` have elapsed: at least three untraced
/// units, or in trace mode alternating untraced and traced ones, at
/// least two of each.
pub fn timed_loop<T>(seconds: f64, trace: bool, mut unit: impl FnMut(bool) -> T) -> Timed<T> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let sampler = trace.then(RunQueueSampler::start);
    let ticks = cpu_ticks();
    let start = Instant::now();
    loop {
        let enough = if trace {
            plain.len() >= 2 && traced.len() >= 2
        } else {
            plain.len() >= 3
        };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if trace && plain.len() > traced.len() {
            traced.push(unit(true));
        } else {
            plain.push(unit(false));
        }
    }
    Timed {
        plain,
        traced,
        steal_share: steal_share(ticks, cpu_ticks()),
        rq_wait_share: sampler.map_or(0.0, RunQueueSampler::finish),
    }
}
