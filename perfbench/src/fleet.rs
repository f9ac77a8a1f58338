//! `fleet`: the serving path operators run. `pbpair_serve::run` with 8
//! sessions rotating through the foreman, akiyo and garden classes on 2
//! workers, at the default PBPAIR operating point (10% uniform loss, 0.2
//! corruption, no FEC) and `pacing_us = 0`: a closed loop that waits at
//! the round barrier after every round.
//!
//! The fleet carries no FEC on purpose: with RS protection and
//! corruption a session can panic inside `FecProtector::recover`, and a
//! panicking session deadlocks the round barrier today. The watchdog in
//! `main.rs` turns such a hang into a loud failure.

use crate::host;
use crate::ledger::{fnv, median, quantile, Layer, Ledger, FNV_BASIS};
use crate::report::{Golden, Outcome};
use crate::watchdog;
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_serve::{run_instrumented, ServeConfig, ServeReport, Session, SessionConfig};
use pbpair_telemetry::Telemetry;
use std::time::Instant;

/// Concurrent sessions.
const SESSIONS: usize = 8;
/// Rounds per timed call: 8 × 128 = 1024 frame latencies, 10 beyond p99.
/// Short calls give a run enough of them to see the host's slow spells.
const ROUNDS: usize = 128;
/// Rounds of the discarded warm-up call.
const WARMUP_ROUNDS: usize = 16;
/// Worker threads (the host's 2 vCPUs).
const WORKERS: usize = 2;
/// Set-ups taken before the warm-up and again before every timed call;
/// `setup_s` is the slow quartile of all of them, sampled over the whole
/// run for the reason `pipeline::run_passes` gives.
const SETUPS_PER_CALL: usize = 8;

fn config(seed: u64, rounds: usize) -> ServeConfig {
    ServeConfig {
        sessions: SESSIONS,
        frames: rounds,
        workers: WORKERS,
        seed,
        pacing_us: 0,
        ..ServeConfig::default()
    }
}

/// Set-up: validate the fleet config and build its sessions exactly as
/// the serve manager does before the first round. Returns seconds.
fn setup(seed: u64) -> f64 {
    let t = Instant::now();
    let cfg = config(seed, ROUNDS);
    cfg.validate().expect("the fleet config is valid");
    let sessions: Vec<Session> = (0..SESSIONS as u64)
        .map(|id| {
            let mut sc = SessionConfig::standard(
                id as u32,
                seed.wrapping_add((id + 1).wrapping_mul(0x2545_f491_4f6c_dd1d)),
            );
            sc.pacing_us = cfg.pacing_us;
            Session::new(sc).expect("the standard session config is valid")
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(sessions));
    secs
}

/// One `serve::run` call, timed around the call.
struct Call {
    report: ServeReport,
    wall_s: f64,
    cpu_ns: u64,
    /// Stage wall time (ns) of encode, decode and channel, when traced.
    stages: Option<[u64; 3]>,
}

impl Call {
    fn fps(&self) -> f64 {
        self.report.total_frames as f64 / self.wall_s
    }

    fn digest(&self) -> String {
        let d = fnv(FNV_BASIS, self.report.deterministic_digest().as_bytes());
        format!("report={d:016x}")
    }
}

fn call(seed: u64, rounds: usize, traced: bool) -> Call {
    let cfg = config(seed, rounds);
    let tel = if traced {
        Telemetry::with_config(SESSIONS, true)
    } else {
        Telemetry::disabled()
    };
    watchdog::phase("fleet: pbpair_serve::run");
    let cpu = host::process_cpu_ns();
    let t = Instant::now();
    let report = if traced {
        run_instrumented(&cfg, &tel)
    } else {
        pbpair_serve::run(&cfg)
    }
    .expect("the fleet config is valid");
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_ns = host::process_cpu_ns() - cpu;
    watchdog::phase("fleet: between calls");
    let stages = traced.then(|| {
        let r = tel.report();
        ["encode", "decode", "channel"].map(|s| r.stages.get(s).map_or(0, |st| st.wall_ns))
    });
    Call {
        report,
        wall_s,
        cpu_ns,
        stages,
    }
}

/// The digest to record for `seed`.
pub fn digest(seed: u64) -> String {
    call(seed, ROUNDS, false).digest()
}

/// Rendering and quality cost per frame of the fleet's own sessions'
/// content, measured beside the fleet: serve renders and scores inside
/// each session, where the benchmark cannot place a span. Returns
/// (synth µs, metrics µs) per frame.
fn side_media_cost(seed: u64) -> (f64, f64) {
    const FRAMES: usize = 8;
    let mut ledger = Ledger::new(true);
    for id in 0..SESSIONS {
        let mut seq = SyntheticSequence::for_class(MotionClass::all()[id % 3], seed ^ id as u64);
        let mut quality = QualityStats::new();
        let first = seq.next_frame();
        for _ in 0..FRAMES {
            let next = ledger.span(Layer::Synth, || seq.next_frame());
            ledger.span(Layer::Metrics, || quality.record(&first, &next));
        }
    }
    let n = (SESSIONS * FRAMES) as f64;
    (
        ledger.ns(Layer::Synth) as f64 / 1e3 / n,
        ledger.ns(Layer::Metrics) as f64 / 1e3 / n,
    )
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, golden: &Golden) -> Outcome {
    let mut setups: Vec<f64> = (0..SETUPS_PER_CALL).map(|_| setup(seed)).collect();
    drop(call(seed, WARMUP_ROUNDS, false)); // warm-up, discarded
    let timed = host::timed_loop(seconds, trace, |traced| {
        setups.extend((0..SETUPS_PER_CALL).map(|_| setup(seed)));
        call(seed, ROUNDS, traced)
    });
    let (plain, traced) = (&timed.plain, &timed.traced);

    let mut out = Outcome::default();
    let calls: Vec<&Call> = timed.all().collect();
    let digests: Vec<String> = calls.iter().map(|c| c.digest()).collect();
    out.check_digests("fleet", seed, golden, &digests);
    let slots = (SESSIONS * ROUNDS) as u64;
    let r = &plain[0].report;
    // Every call serves the same seed-determined fleet, so the counts
    // are one call's, as in `pipeline::end_to_end`.
    out.check(
        calls
            .iter()
            .all(|c| c.report.total_frames == r.total_frames),
        "fleet: frame count differs between calls of one seed".into(),
    );
    out.attempted = slots;
    out.failed = slots - r.total_frames;

    let frames = r.total_frames as f64;
    // The slow 5% over calls and the median p99, for the reasons
    // `pipeline::end_to_end` gives for sessions and passes.
    let slow = |f: fn(&Call) -> f64, q| quantile(&plain.iter().map(f).collect::<Vec<_>>(), q);
    out.note(format!(
        "fleet: {} calls of {SESSIONS} sessions x {ROUNDS} rounds on {WORKERS} workers; \
         fps, p50 and cpu are the slow 5% over calls, p99 the median; p50/p99 per \
         call over {slots} frame latencies ({} beyond p99)",
        plain.len(),
        slots / 100
    ));
    let per_call = |f: fn(&Call) -> f64| {
        let v: Vec<String> = plain.iter().map(|c| format!("{:.2}", f(c))).collect();
        v.join(" ")
    };
    out.note(format!(
        "fleet per call: fps {} | p50 ms {} | p99 ms {}",
        per_call(Call::fps),
        per_call(|c| c.report.timing.p50_frame_ms),
        per_call(|c| c.report.timing.p99_frame_ms)
    ));
    out.set("fps", slow(Call::fps, 0.05));
    out.set("frame_p50_ms", slow(|c| c.report.timing.p50_frame_ms, 0.95));
    out.set("frame_p99_ms", slow(|c| c.report.timing.p99_frame_ms, 0.50));
    out.set("setup_s", quantile(&setups, 0.75));
    out.set(
        "cpu_ms_per_frame",
        slow(
            |c| c.cpu_ns as f64 / 1e6 / c.report.total_frames as f64,
            0.95,
        ),
    );
    out.set("psnr_db", r.mean_psnr_db);
    out.set("encode_mj_per_frame", r.total_encode_joules * 1e3 / frames);
    out.set("wire_bytes_per_frame", r.total_sent_bytes as f64 / frames);
    out.set("ok_share", frames / slots as f64);
    out.set("peak_rss_mb", host::peak_rss_mb());

    if trace {
        let (synth_us, metrics_us) = side_media_cost(seed);
        let (mut stage_ns, mut frames, mut wall_s, mut cpu_ns, mut rounds, mut migrations) =
            ([0u64; 3], 0u64, 0.0, 0u64, 0u64, 0u64);
        for c in traced {
            for (acc, ns) in stage_ns.iter_mut().zip(c.stages.expect("traced call")) {
                *acc += ns;
            }
            frames += c.report.total_frames;
            wall_s += c.wall_s;
            cpu_ns += c.cpu_ns;
            rounds += c.report.rounds as u64;
            migrations += c.report.timing.migrations;
        }
        let per_frame_us = |ns: u64| ns as f64 / 1e3 / frames as f64;
        let thread_ns = wall_s * 1e9 * WORKERS as f64;
        let media_ns = (synth_us + metrics_us) * 1e3 * frames as f64;
        let wall = |v: &[Call]| median(&v.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        out.set("media.synth.us_per_frame", synth_us);
        out.set("media.metrics.us_per_frame", metrics_us);
        out.set("serve.stage.encode_us_per_frame", per_frame_us(stage_ns[0]));
        out.set("serve.stage.decode_us_per_frame", per_frame_us(stage_ns[1]));
        out.set(
            "serve.stage.channel_us_per_frame",
            per_frame_us(stage_ns[2]),
        );
        out.set(
            "sched.migrations_per_round",
            migrations as f64 / rounds as f64,
        );
        out.set("sched.busy_share", cpu_ns as f64 / thread_ns);
        out.set("host.steal_share", timed.steal_share);
        out.set("host.rq_wait_share", timed.rq_wait_share);
        out.set(
            "explained_share",
            (stage_ns.iter().sum::<u64>() as f64 + media_ns) / thread_ns,
        );
        out.set("trace_overhead_share", wall(traced) / wall(plain) - 1.0);
    }
    out
}
