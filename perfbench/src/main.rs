//! The repository benchmark: three workloads that stress different
//! layers of the PBPAIR workspace, driven only through public entry
//! points. See `perfbench/README.md` for the metrics and why each
//! workload exists.
//!
//! ```text
//! perfbench --workload <fleet|stream|receiver|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <fleet|stream|receiver> --seed <n> --digest
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod fleet;
mod host;
mod ledger;
mod pipeline;
mod receiver;
mod report;
mod stream;

use pbpair_codec::Kernels;
use report::Golden;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 3] = ["fleet", "stream", "receiver"];

/// Fails the run loudly when a phase never ends — in particular a
/// `serve::run` that a panicking session has deadlocked at its round
/// barrier.
pub mod watchdog {
    use std::sync::Mutex;
    use std::time::Duration;

    static PHASE: Mutex<&str> = Mutex::new("start-up");

    /// Names the phase now running.
    pub fn phase(name: &'static str) {
        *PHASE.lock().expect("phase lock is never poisoned") = name;
    }

    /// Exits the process with code 3 if it is still running after
    /// `limit`. The thread is detached on purpose: it must outlive a
    /// hung main thread, and it ends with the process.
    pub fn arm(limit: Duration) {
        std::thread::spawn(move || {
            std::thread::sleep(limit);
            let phase = *PHASE.lock().expect("phase lock is never poisoned");
            eprintln!(
                "watchdog: `{phase}` still running after {} s; a panicking serve session \
                 deadlocks the round barrier (wait_idle), so the run fails here",
                limit.as_secs()
            );
            std::process::exit(3);
        });
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--digest" => args.digest = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of fleet, stream, receiver, all (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs every workload, each in its own process (peak RSS is a process
/// high-water mark), relaying their output. Fails if any run fails or
/// reports incorrect output.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let last = stdout.lines().last().unwrap_or("");
        ok &= out.status.success() && last.contains("\"correct\": true");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("# at least one workload failed or produced incorrect output");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    ledger::install_quiet_panic_hook();
    watchdog::arm(std::time::Duration::from_secs(165));
    if args.digest {
        let d = match args.workload.as_str() {
            "fleet" => fleet::digest(args.seed),
            "stream" => stream::digest(args.seed),
            _ => receiver::digest(args.seed),
        };
        println!("{} {} {d}", args.workload, args.seed);
        return ExitCode::SUCCESS;
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# host: nproc={parallelism} arch={} kernel_tier={} active_tier={} workload={} seed={} \
         seconds={} trace={}",
        std::env::consts::ARCH,
        Kernels::detect_best().label(),
        Kernels::active().tier().label(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let golden = Golden::recorded();
    let outcome = match args.workload.as_str() {
        "fleet" => fleet::run(args.seed, args.seconds, args.trace, &golden),
        "stream" => stream::run(args.seed, args.seconds, args.trace, &golden),
        _ => receiver::run(args.seed, args.seconds, args.trace, &golden),
    };
    outcome.print(args.trace);
    ExitCode::SUCCESS
}
