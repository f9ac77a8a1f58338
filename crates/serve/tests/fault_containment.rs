//! A panicking session must end the fleet run, not hang it.
//!
//! RS(8,2) parity over 36-byte fragments with payload corruption makes
//! the Reed-Solomon decoder panic on a truncated parity shard inside a
//! session's frame step. The pool catches that panic at the job boundary
//! and re-raises it from the round barrier, so [`run`] either returns or
//! panics, and does so within a bounded time. Before the pool caught job
//! panics, the dead worker never decremented its in-flight count and
//! this configuration blocked at the barrier forever.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use pbpair_netsim::FecSpec;
use pbpair_serve::{run, ServeConfig};

/// Far above the few seconds these runs take, far below "forever".
const BOUND: Duration = Duration::from_secs(120);

#[test]
fn rs_fec_fleet_under_corruption_terminates() {
    let mut panicked = 0;
    for seed in 0..4 {
        let cfg = ServeConfig {
            sessions: 8,
            frames: 48,
            workers: 2,
            seed,
            plr: 0.10,
            corruption: 0.2,
            mtu: 36,
            fec: Some(FecSpec::Rs { k: 8, r: 2 }),
            pacing_us: 0,
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let report = run(&cfg).map(|r| r.deterministic_digest());
            let _ = tx.send(report);
        });
        match rx.recv_timeout(BOUND) {
            Ok(report) => {
                report.expect("valid config");
                runner.join().expect("a run that returned did not panic");
            }
            Err(RecvTimeoutError::Disconnected) => {
                // The run panicked: the sender dropped without sending.
                assert!(
                    runner.join().is_err(),
                    "seed {seed}: run must have panicked"
                );
                panicked += 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("seed {seed}: serve::run still running after {BOUND:?} (hung barrier)")
            }
        }
    }
    eprintln!("{panicked} of 4 runs ended in a session panic");
}
