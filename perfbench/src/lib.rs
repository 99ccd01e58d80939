//! The thermorl benchmark: three end-to-end workloads and a per-layer
//! ledger. See `README.md` in this directory for the workloads, the
//! metric table and how to run it.
//!
//! The end-to-end binary (`perfbench`) drives the workspace only through
//! the entry points a user runs: `thermorl_runner::Campaign::run` over
//! the paper's job set or the policy tournament, and an in-process
//! `thermorl_serve::Supervisor` over TCP. The ledger (`ledger` binary,
//! `ledger` feature) replays the same work through each layer's public
//! functions with timers around the calls.

use std::path::PathBuf;
use std::time::Instant;

pub mod campaign;
pub mod serve;
pub mod stats;

#[cfg(feature = "ledger")]
pub mod ledger;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_campaign", "policy_tournament", "serve_saturated"];

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Scratch directory for checkpoints, snapshot stores and rendered
    /// tables; the caller creates it and removes it afterwards.
    pub tmp: PathBuf,
}

impl Args {
    /// Parses `--workload NAME --seed N --seconds S --tmp DIR`.
    ///
    /// # Errors
    ///
    /// Fails on a missing, unknown or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut tmp = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                    }
                    workload = Some(value);
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("invalid --seed {value:?}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("invalid --seconds {value:?}"))?;
                    seconds = Some(s);
                }
                "--tmp" => tmp = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tmp: tmp.ok_or("--tmp is required")?,
        })
    }
}

/// End-to-end metrics `(name, unit)`, as `BENCHMARK.json` lists them.
/// Every workload reports all of them; see `README.md` for what each
/// means on each workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("obs_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, as `BENCHMARK.json` lists them. A
/// traced run reports all of them; those of layers its workload does
/// not use read 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("platform.tick_ns", "ns"),
    ("thermal.tick_ns", "ns"),
    ("thermal.refreshes_per_tick", "ratio"),
    ("thermal.step_accept_ratio", "ratio"),
    ("workload.tick_ns", "ns"),
    ("sim.glue_ns_per_tick", "ns"),
    ("sensor.read_ns", "ns"),
    ("policy.sample_ns", "ns"),
    ("policy.actuation_ratio", "ratio"),
    ("reliability.run_ns", "ns"),
    ("report.render_s", "s"),
    ("runner.job_busy_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.checkpoint_ns", "ns"),
    ("runner.checkpoint_bytes", "bytes"),
    ("dispatch.encode_ns", "ns"),
    ("dispatch.decode_ns", "ns"),
    ("dispatch.ingest_ns", "ns"),
    ("serve.step_ns", "ns"),
    ("serve.snapshot_ns", "ns"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.restore_ns", "ns"),
    ("serve.batch_width", "ratio"),
    ("serve.wait_us", "us"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.timer_ns", "ns"),
    ("sim.unaccounted_pct", "%"),
    ("sim.ticks", "count"),
    ("sim.samples", "count"),
    ("sim.decisions", "count"),
    ("platform.migrations", "count"),
    ("runner.jobs", "count"),
    ("runner.failed", "count"),
    ("runner.retries", "count"),
    ("serve.observes", "count"),
    ("serve.decisions", "count"),
    ("serve.snapshot_writes", "count"),
    ("serve.errors", "count"),
    ("serve.restores", "count"),
];

/// The metrics of `table` in table order, valued from `values`; a name
/// `values` leaves out reads 0.
///
/// # Panics
///
/// Panics if `values` names a metric the table does not list.
pub fn metrics_of(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name:?} is not listed"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports: operations, output checks and metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (jobs or observes).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks: a name and whether it held.
    pub checks: Vec<(String, bool)>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Digest of the simulated outputs (same seed, same digest).
    pub digest: u64,
    /// Free-form context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints the human-readable report, then the one-line JSON result
    /// as the last line of standard output.
    pub fn print(&self, workload: &str, host_speed_ms: f64) {
        println!("workload: {workload}");
        for note in &self.notes {
            println!("  {note}");
        }
        for m in &self.metrics {
            println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for (name, ok) in &self.checks {
            println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        println!("  output digest: {:016x}", self.digest);
        println!("  host speed (fixed FP/memory loop, context only): {host_speed_ms:.3} ms");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with all its digits; a non-finite value, which no
/// metric produces, prints as 0 because JSON cannot hold it.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// 64-bit FNV-1a, the digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string and a separator into the digest.
    pub fn add_str(&mut self, s: &str) {
        self.add(s.as_bytes());
        self.add(&[0xff]);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// splitmix64: derives independent streams from the workload seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A host-speed reading: the median time (ms) of a fixed FP/memory loop
/// over a 4 MB buffer. It is printed for context when two sets of runs
/// disagree, and never used to adjust a metric.
pub fn host_speed_ms() -> f64 {
    let mut buf = vec![1.0f64; 1 << 19];
    let n = buf.len();
    let mut times = Vec::with_capacity(5);
    for rep in 0..5 {
        let t = Instant::now();
        let mut acc = 0.0;
        let mut i = rep * 7;
        for _ in 0..2 * n {
            i = (i + 4099) % n;
            buf[i] = buf[i] * 0.999_999 + 1.0e-3;
            acc += buf[i];
        }
        std::hint::black_box(acc);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&mut times)
}

/// Times `reps` batches of `batch` calls to `setup` and returns the
/// median per-call time in seconds, so a sub-millisecond set-up is never
/// timed single-shot.
pub fn median_setup_s(reps: usize, batch: usize, mut setup: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                setup();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    stats::median(&mut times)
}
