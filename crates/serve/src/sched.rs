//! Work-stealing scheduler — re-exported from [`pbpair_sched`].
//!
//! The pool started life here as a serve-internal detail and now lives
//! in the `pbpair-sched` crate; this module re-exports it to keep the
//! historical `pbpair_serve::sched` paths (and the `serve.queue_depth` /
//! `serve.steals` telemetry names) working unchanged.

pub use pbpair_sched::*;
