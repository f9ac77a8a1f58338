//! Metric names and units, the recorded digests, and the outcome of one
//! workload run: a table for people and, as the last line of standard
//! output, one JSON object for tools.

use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off: (name, unit).
pub const END_TO_END: [(&str, &str); 10] = [
    ("fps", "1/s"),
    ("frame_p50_ms", "ms"),
    ("frame_p99_ms", "ms"),
    ("setup_s", "s"),
    ("cpu_ms_per_frame", "ms"),
    ("psnr_db", "dB"),
    ("encode_mj_per_frame", "mJ"),
    ("wire_bytes_per_frame", "B"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: (name, unit). A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("media.synth.us_per_frame", "us"),
    ("media.metrics.us_per_frame", "us"),
    ("core.policy.us_per_frame", "us"),
    ("core.policy.me_bias_calls_per_frame", "count"),
    ("codec.encode.us_per_frame", "us"),
    ("codec.encode.sad_ops_per_frame", "count"),
    ("codec.encode.intra_mb_share", "ratio"),
    ("codec.encode.bits_per_frame", "bit"),
    ("codec.encode.modeled_uj_per_frame", "uJ"),
    ("codec.encode.modeled_me_share", "ratio"),
    ("codec.encode.me_time_share_est", "ratio"),
    ("codec.decode.us_per_frame", "us"),
    ("codec.conceal.us_per_frame", "us"),
    ("codec.decode.mbs_concealed_per_frame", "count"),
    ("codec.decode.resyncs_per_frame", "count"),
    ("netsim.packetize.us_per_frame", "us"),
    ("netsim.channel.us_per_frame", "us"),
    ("netsim.reassemble.us_per_frame", "us"),
    ("netsim.packets_per_frame", "count"),
    ("netsim.erased_share", "ratio"),
    ("fec.recover.us_per_frame", "us"),
    ("fec.blocks_repaired_per_frame", "count"),
    ("fec.gf_mul_bytes_per_frame", "B"),
    ("fec.recover_panics", "count"),
    ("energy.model.us_per_frame", "us"),
    ("serve.stage.encode_us_per_frame", "us"),
    ("serve.stage.decode_us_per_frame", "us"),
    ("serve.stage.channel_us_per_frame", "us"),
    ("sched.migrations_per_round", "count"),
    ("sched.busy_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.rq_wait_share", "ratio"),
    ("explained_share", "ratio"),
    ("trace_overhead_share", "ratio"),
];

/// Digests recorded per workload and seed (`goldens.txt`).
pub struct Golden(BTreeMap<(String, u64), String>);

impl Golden {
    /// Parses the recorded digests: `<workload> <seed> <digest...>`.
    pub fn recorded() -> Self {
        let mut map = BTreeMap::new();
        for line in include_str!("../goldens.txt").lines() {
            let mut f = line.splitn(3, ' ');
            if let (Some(w), Some(Ok(seed)), Some(d)) =
                (f.next(), f.next().map(str::parse), f.next())
            {
                map.insert((w.to_string(), seed), d.to_string());
            }
        }
        Golden(map)
    }

    /// The recorded digest of `workload` at `seed`, if any.
    pub fn get(&self, workload: &str, seed: u64) -> Option<&str> {
        self.0
            .get(&(workload.to_string(), seed))
            .map(String::as_str)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness failures; the run is correct when this is empty.
    pub errors: Vec<String>,
    /// Frames attempted in the timed phase.
    pub attempted: u64,
    /// Frames that failed or were refused.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Context lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric; the name must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.check(value.is_finite(), format!("metric {name} is {value}"));
        self.values.insert(name, value);
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.errors.push(what);
        }
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every pass must produce the same digest, and it must equal the
    /// recorded one for the seed when one is recorded.
    pub fn check_digests(
        &mut self,
        workload: &str,
        seed: u64,
        golden: &Golden,
        digests: &[String],
    ) {
        let first = digests.first().expect("at least one pass ran");
        self.check(
            digests.iter().all(|d| d == first),
            format!("{workload}: digest differs between passes of one seed"),
        );
        match golden.get(workload, seed) {
            Some(want) => self.check(
                want == first,
                format!("{workload} seed {seed}: digest {first} != recorded {want}"),
            ),
            None => self.note(format!(
                "{workload} seed {seed}: no recorded digest; checked pass-to-pass agreement only"
            )),
        }
    }

    /// Prints the notes, a metric table and the JSON result line.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("# {n}");
        }
        for e in &self.errors {
            println!("# INCORRECT: {e}");
        }
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut json = Vec::new();
        for (name, unit) in list {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            println!("{name:<40} {v:>16.6} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
    }
}

/// A JSON number with every digit `f64` carries (non-finite values
/// were already reported as errors by [`Outcome::set`]).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
