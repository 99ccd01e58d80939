//! Campaigns: named grids of independent jobs with deterministic seeds,
//! parallel execution, incremental checkpointing and resume.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use thermorl_json::Value;
use thermorl_sim::{run_scenario, RunOutcome, SimConfig, ThermalController};
use thermorl_telemetry as tel;
use thermorl_workload::Scenario;

use crate::checkpoint::{self, CheckpointWriter, Codec};
use crate::job::{Job, JobRecord};
use crate::pool::{default_workers, run_jobs, PoolConfig};
use crate::progress::{CampaignStats, ProgressTracker};
use crate::seed::job_seed;

/// How a campaign executes: worker count, failure policy, checkpointing.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (default: the machine's available parallelism).
    pub workers: usize,
    /// Per-attempt wall-clock timeout (default: none).
    pub timeout: Option<Duration>,
    /// Attempts per job before recording a failure (default 2: retry once).
    pub max_attempts: u32,
    /// Print progress lines to stderr.
    pub progress: bool,
    /// Append completed jobs to this JSONL file as they finish.
    pub checkpoint: Option<PathBuf>,
    /// Skip jobs whose keys already have records in the checkpoint.
    pub resume: bool,
    /// Run only the jobs hashed to shard `.0` of `.1` total shards
    /// (zero-based; see [`crate::shard_of`]). `None` runs everything.
    pub shard: Option<(usize, usize)>,
    /// Enable telemetry recording for the campaign and write the merged
    /// registry snapshot (as JSON) to this path when the run finishes;
    /// structured events additionally stream to the sibling
    /// `*.events.jsonl` file. `None` leaves recording off.
    pub telemetry: Option<PathBuf>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: default_workers(),
            timeout: None,
            max_attempts: 2,
            progress: true,
            checkpoint: None,
            resume: false,
            shard: None,
            telemetry: None,
        }
    }
}

impl RunnerConfig {
    /// A quiet single-worker configuration (useful in tests and for
    /// reference runs the determinism tests compare against).
    pub fn serial() -> Self {
        RunnerConfig {
            workers: 1,
            progress: false,
            ..RunnerConfig::default()
        }
    }

    /// Applies campaign CLI flags shared by all bench binaries:
    /// `--workers N`, `--serial`, `--checkpoint PATH`, `--resume`
    /// (implies a default checkpoint path if none was set),
    /// `--timeout-s N`, `--quiet`, `--shard I/N` (1-based: `--shard 1/4`
    /// through `--shard 4/4` partition the campaign across machines), and
    /// `--telemetry [PATH]` (records registry metrics during the run and
    /// writes the snapshot to PATH, default `telemetry.json`; the next
    /// argument is taken as the path only when it is not itself a flag).
    /// Unknown flags are an error so typos surface instead of silently
    /// running the full campaign.
    pub fn apply_cli_args<I: IntoIterator<Item = String>>(
        &mut self,
        args: I,
        default_checkpoint: &str,
    ) -> Result<(), String> {
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--workers" => {
                    let v = args.next().ok_or("--workers needs a value")?;
                    self.workers = v
                        .parse::<usize>()
                        .map_err(|_| format!("invalid --workers value {v:?}"))?
                        .max(1);
                }
                "--serial" => self.workers = 1,
                "--checkpoint" => {
                    let v = args.next().ok_or("--checkpoint needs a path")?;
                    self.checkpoint = Some(PathBuf::from(v));
                }
                "--resume" => self.resume = true,
                "--timeout-s" => {
                    let v = args.next().ok_or("--timeout-s needs a value")?;
                    let secs = v
                        .parse::<u64>()
                        .map_err(|_| format!("invalid --timeout-s value {v:?}"))?;
                    self.timeout = Some(Duration::from_secs(secs));
                }
                "--quiet" => self.progress = false,
                "--shard" => {
                    let v = args.next().ok_or("--shard needs a value like 2/4")?;
                    let (i, n) = v
                        .split_once('/')
                        .ok_or_else(|| format!("invalid --shard value {v:?} (expected I/N)"))?;
                    let i: usize = i
                        .parse()
                        .map_err(|_| format!("invalid shard index in {v:?}"))?;
                    let n: usize = n
                        .parse()
                        .map_err(|_| format!("invalid shard count in {v:?}"))?;
                    if n == 0 || i == 0 || i > n {
                        return Err(format!(
                            "--shard {v} out of range (expected 1/N through N/N)"
                        ));
                    }
                    self.shard = Some((i - 1, n));
                }
                "--telemetry" => {
                    let path = match args.peek() {
                        Some(next) if !next.starts_with("--") => args.next().expect("peeked value"),
                        _ => "telemetry.json".to_string(),
                    };
                    self.telemetry = Some(PathBuf::from(path));
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if self.resume && self.checkpoint.is_none() {
            self.checkpoint = Some(PathBuf::from(default_checkpoint));
        }
        Ok(())
    }
}

/// A named set of keyed jobs sharing one campaign seed.
pub struct Campaign<T> {
    /// Campaign name (used in progress lines and telemetry).
    pub name: String,
    /// The campaign seed all per-job seeds derive from.
    pub seed: u64,
    jobs: Vec<Job<T>>,
    keys: HashSet<String>,
    codec: Option<Codec<T>>,
}

impl<T: Send + 'static> Campaign<T> {
    /// Creates an empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign {
            name: name.into(),
            seed,
            jobs: Vec::new(),
            keys: HashSet::new(),
            codec: None,
        }
    }

    /// Attaches the payload codec enabling checkpoint/resume.
    pub fn with_codec(mut self, codec: Codec<T>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Adds a job.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key — keys address checkpoint records, so a
    /// collision would silently merge two different jobs.
    pub fn push(
        &mut self,
        key: impl Into<String>,
        work: impl Fn(u64) -> T + Send + Sync + 'static,
    ) {
        let job = Job::new(key, work);
        assert!(
            self.keys.insert(job.key.clone()),
            "duplicate job key {:?} in campaign {:?}",
            job.key,
            self.name
        );
        self.jobs.push(job);
    }

    /// Adds a job tagged with the policy id it runs under. The tag is
    /// written into the job's checkpoint record, and on resume a record
    /// carrying a *different* tag for this key is discarded and the job
    /// re-run — a stale checkpoint can never smuggle one policy's
    /// results under another's key.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key, like [`Campaign::push`].
    pub fn push_tagged(
        &mut self,
        key: impl Into<String>,
        policy: impl Into<String>,
        work: impl Fn(u64) -> T + Send + Sync + 'static,
    ) {
        let job = Job::new(key, work).with_policy(policy);
        assert!(
            self.keys.insert(job.key.clone()),
            "duplicate job key {:?} in campaign {:?}",
            job.key,
            self.name
        );
        self.jobs.push(job);
    }

    /// Number of jobs in the campaign.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the campaign holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The seed a given key would receive (for reproducing one job by hand).
    pub fn seed_for(&self, key: &str) -> u64 {
        job_seed(self.seed, key)
    }

    /// The job registered under `key`, if any (jobs are `Clone`, so a
    /// remote worker can pull individual leased jobs out of a locally
    /// rebuilt campaign).
    pub fn job(&self, key: &str) -> Option<&Job<T>> {
        self.jobs.iter().find(|j| j.key == key)
    }

    /// The keys of all registered jobs, in registration order.
    pub fn job_keys(&self) -> Vec<String> {
        self.jobs.iter().map(|j| j.key.clone()).collect()
    }

    /// The attached payload codec, if any.
    pub fn codec(&self) -> Option<&Codec<T>> {
        self.codec.as_ref()
    }

    /// Runs the campaign and returns its report. Records are sorted by key,
    /// so a report is directly comparable across worker counts and resumes.
    ///
    /// # Panics
    ///
    /// Panics if checkpointing is requested without a codec, or the
    /// checkpoint file cannot be opened.
    pub fn run(self, config: &RunnerConfig) -> CampaignReport<T> {
        let Campaign {
            name,
            seed,
            mut jobs,
            keys: _,
            codec,
        } = self;

        // Sharding: keep only this shard's slice of the key space. Records
        // from other shards are dropped from resume too, so a shard's
        // report (and checkpoint) stays self-consistent.
        if let Some((shard, num_shards)) = config.shard {
            assert!(
                shard < num_shards,
                "shard {shard} out of range for {num_shards} shards"
            );
            jobs.retain(|j| crate::shard_of(&j.key, num_shards) == shard);
        }

        // Resume: restore completed records and drop their jobs.
        let mut restored: Vec<JobRecord<T>> = Vec::new();
        if config.resume {
            let path = config
                .checkpoint
                .as_ref()
                .expect("--resume requires a checkpoint path");
            let codec = codec.as_ref().expect("resume requires a payload codec");
            let loaded = checkpoint::load(path, codec)
                .unwrap_or_else(|e| panic!("cannot read checkpoint {}: {e}", path.display()));
            let known: std::collections::HashMap<&str, Option<&str>> = jobs
                .iter()
                .map(|j| (j.key.as_str(), j.policy.as_deref()))
                .collect();
            restored = loaded
                .into_iter()
                .filter(|r| {
                    if !r.outcome.is_completed() {
                        return false;
                    }
                    match known.get(r.key.as_str()) {
                        None => false,
                        // A policy-tagged job only accepts records that
                        // carry the same tag; untagged jobs accept any
                        // record (pre-tag checkpoints stay resumable).
                        Some(Some(policy)) => {
                            if r.policy.as_deref() == Some(*policy) {
                                true
                            } else {
                                eprintln!(
                                    "[runner] dropping checkpoint record {:?}: policy {:?} \
                                     does not match this campaign's {:?}",
                                    r.key,
                                    r.policy.as_deref().unwrap_or("<none>"),
                                    policy
                                );
                                false
                            }
                        }
                        Some(None) => true,
                    }
                })
                .collect();
        }
        let done: HashSet<String> = restored.iter().map(|r| r.key.clone()).collect();
        let jobs: Vec<Job<T>> = jobs
            .into_iter()
            .filter(|j| !done.contains(&j.key))
            .collect();
        let seeds: Vec<u64> = jobs.iter().map(|j| job_seed(seed, &j.key)).collect();

        let mut writer = config.checkpoint.as_ref().map(|path| {
            let codec = codec
                .as_ref()
                .expect("checkpointing requires a payload codec");
            CheckpointWriter::append(path, *codec)
                .unwrap_or_else(|e| panic!("cannot open checkpoint {}: {e}", path.display()))
        });

        // Telemetry: flip recording on for the whole campaign and carve
        // this run's activity out of the process-wide totals with a
        // baseline snapshot (earlier campaigns in the same process stay
        // out of this run's export).
        if config.telemetry.is_some() {
            tel::set_enabled(true);
        }
        let tel_baseline = tel::snapshot();

        let mut progress = ProgressTracker::new(&name, jobs.len(), config.progress);
        progress.note_resumed(&restored);

        let pool = PoolConfig {
            workers: config.workers,
            timeout: config.timeout,
            max_attempts: config.max_attempts,
        };
        let executed = run_jobs(jobs, seeds, &pool, |record| {
            if let Some(w) = writer.as_mut() {
                w.write(record).unwrap_or_else(|e| {
                    panic!("cannot append to checkpoint: {e}");
                });
            }
            progress.record(record);
        });

        let stats = progress.finish();

        if let Some(path) = &config.telemetry {
            let snap = tel::snapshot().since(&tel_baseline);
            snap.write_files(path)
                .unwrap_or_else(|e| panic!("cannot write telemetry: {e}"));
            if config.progress {
                let table = snap.render_span_table(10);
                if !table.is_empty() {
                    eprintln!("[{name}] top spans:\n{table}");
                }
                eprintln!("[{name}] telemetry written to {}", path.display());
            }
        }

        let mut records = restored;
        records.extend(executed);
        records.sort_by(|a, b| a.key.cmp(&b.key));
        CampaignReport {
            name,
            seed,
            records,
            stats,
        }
    }
}

/// The schedule-independent identity of a campaign's jobs — everything a
/// remote dispatcher needs to hand out work without holding the work
/// functions themselves. A coordinator sees a campaign only through this
/// trait: names, keys, and derived seeds; the closures stay on the
/// workers, which rebuild the same campaign locally.
pub trait JobSource {
    /// Campaign name (shown in progress lines and handshakes).
    fn source_name(&self) -> &str;
    /// The campaign seed all per-job seeds derive from.
    fn source_seed(&self) -> u64;
    /// Every job key, in registration order.
    fn source_keys(&self) -> Vec<String>;
    /// The derived seed for one key (defaults to [`job_seed`]).
    fn source_seed_for(&self, key: &str) -> u64 {
        job_seed(self.source_seed(), key)
    }
}

impl<T: Send + 'static> JobSource for Campaign<T> {
    fn source_name(&self) -> &str {
        &self.name
    }

    fn source_seed(&self) -> u64 {
        self.seed
    }

    fn source_keys(&self) -> Vec<String> {
        self.job_keys()
    }
}

impl<T> std::fmt::Debug for Campaign<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

/// The result of a campaign run: records sorted by key, plus aggregate
/// statistics and telemetry.
#[derive(Debug)]
pub struct CampaignReport<T> {
    /// Campaign name.
    pub name: String,
    /// Campaign seed.
    pub seed: u64,
    /// All job records (restored and executed), sorted by key.
    pub records: Vec<JobRecord<T>>,
    /// Aggregate statistics.
    pub stats: CampaignStats,
}

impl<T> CampaignReport<T> {
    /// The record for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JobRecord<T>> {
        self.records
            .binary_search_by(|r| r.key.as_str().cmp(key))
            .ok()
            .map(|i| &self.records[i])
    }

    /// The payload for `key`.
    ///
    /// # Panics
    ///
    /// Panics (with the failure message) if the job is missing or failed —
    /// renderers call this for jobs the campaign definition guarantees.
    pub fn payload(&self, key: &str) -> &T {
        let record = self
            .get(key)
            .unwrap_or_else(|| panic!("no record for job key {key:?}"));
        record
            .outcome
            .payload()
            .unwrap_or_else(|| panic!("job {key:?} failed: {}", record.outcome.describe()))
    }

    /// Keys of jobs that did not complete, with a short reason each.
    pub fn failures(&self) -> Vec<(String, String)> {
        self.records
            .iter()
            .filter(|r| !r.outcome.is_completed())
            .map(|r| (r.key.clone(), r.outcome.describe()))
            .collect()
    }

    /// Telemetry JSON: stats plus per-record timing (exported alongside
    /// campaign results; not part of the checkpoint).
    pub fn telemetry_json(&self) -> String {
        let mut obj = Value::object();
        obj.set("campaign", Value::Str(self.name.clone()));
        obj.set("seed", Value::UInt(self.seed));
        obj.set("stats", self.stats.to_json());
        let mut timings = Vec::new();
        for r in &self.records {
            if r.resumed {
                continue;
            }
            let mut t = Value::object();
            t.set("key", Value::Str(r.key.clone()));
            t.set("attempts", Value::UInt(u64::from(r.attempts)));
            t.set("duration_ms", Value::UInt(r.duration_ms));
            if let Some(metrics) = &r.metrics {
                if !metrics.counters.is_empty() {
                    let mut counters = Value::object();
                    for (name, value) in &metrics.counters {
                        counters.set(name, Value::UInt(*value));
                    }
                    t.set("counters", counters);
                }
            }
            timings.push(t);
        }
        obj.set("timings", Value::Arr(timings));
        obj.to_json()
    }
}

/// A named controller factory for grid campaigns. The factory receives the
/// job's derived seed so stochastic policies stay schedule-independent.
#[derive(Clone)]
pub struct PolicySpec {
    /// Policy label, e.g. `"proposed"` or `"linux-dvfs"`.
    pub name: String,
    /// Builds a fresh controller for one run.
    pub build: Arc<dyn Fn(u64) -> Box<dyn ThermalController> + Send + Sync>,
}

impl PolicySpec {
    /// Creates a policy spec.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(u64) -> Box<dyn ThermalController> + Send + Sync + 'static,
    ) -> Self {
        PolicySpec {
            name: name.into(),
            build: Arc::new(build),
        }
    }
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySpec")
            .field("name", &self.name)
            .finish()
    }
}

/// The payload codec for plain simulation outcomes.
pub fn run_outcome_codec() -> Codec<RunOutcome> {
    Codec {
        encode: RunOutcome::to_json,
        decode: RunOutcome::from_json,
    }
}

/// Builds the standard (scenario × policy × repetition) grid campaign with
/// keys `"{scenario}/{policy}/{rep}"`, each job running [`run_scenario`]
/// under its derived seed. The checkpoint codec is attached.
pub fn scenario_grid(
    name: impl Into<String>,
    campaign_seed: u64,
    scenarios: &[Scenario],
    policies: &[PolicySpec],
    reps: usize,
    sim: &SimConfig,
) -> Campaign<RunOutcome> {
    assert!(reps > 0, "grid needs at least one repetition");
    let mut campaign = Campaign::new(name, campaign_seed).with_codec(run_outcome_codec());
    for scenario in scenarios {
        for policy in policies {
            for rep in 0..reps {
                let key = format!("{}/{}/{}", scenario.name, policy.name, rep);
                let scenario = scenario.clone();
                let build = Arc::clone(&policy.build);
                let sim = sim.clone();
                campaign.push_tagged(key, policy.name.clone(), move |seed| {
                    run_scenario(&scenario, build(seed), &sim, seed)
                });
            }
        }
    }
    campaign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutcome;
    use thermorl_json::JsonError;

    fn u64_codec() -> Codec<u64> {
        Codec {
            encode: |v| Value::UInt(*v),
            decode: |v| v.as_u64().ok_or_else(|| JsonError::new("expected u64")),
        }
    }

    fn quiet(workers: usize) -> RunnerConfig {
        RunnerConfig {
            workers,
            progress: false,
            ..RunnerConfig::default()
        }
    }

    fn demo_campaign(n: usize) -> Campaign<u64> {
        let mut c = Campaign::new("demo", 42).with_codec(u64_codec());
        for i in 0..n {
            c.push(format!("grid/{i}"), |seed| seed.rotate_left(7));
        }
        c
    }

    #[test]
    fn report_is_sorted_and_indexable() {
        let report = demo_campaign(12).run(&quiet(3));
        assert_eq!(report.records.len(), 12);
        assert!(report.records.windows(2).all(|w| w[0].key < w[1].key));
        let key = "grid/7";
        let expected = job_seed(42, key).rotate_left(7);
        assert_eq!(*report.payload(key), expected);
        assert!(report.get("grid/99").is_none());
        assert!(report.failures().is_empty());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let one = demo_campaign(16).run(&quiet(1));
        let four = demo_campaign(16).run(&quiet(4));
        let strip = |r: CampaignReport<u64>| {
            r.records
                .into_iter()
                .map(|rec| (rec.key, rec.seed, rec.outcome))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(one), strip(four));
    }

    #[test]
    #[should_panic(expected = "duplicate job key")]
    fn duplicate_keys_rejected() {
        let mut c: Campaign<u64> = Campaign::new("dup", 1);
        c.push("a", |s| s);
        c.push("a", |s| s);
    }

    #[test]
    fn cli_args_parse() {
        let mut cfg = RunnerConfig::default();
        cfg.apply_cli_args(
            ["--workers", "3", "--resume", "--quiet"]
                .iter()
                .map(|s| s.to_string()),
            "results/ckpt.jsonl",
        )
        .expect("parse");
        assert_eq!(cfg.workers, 3);
        assert!(cfg.resume);
        assert!(!cfg.progress);
        assert_eq!(
            cfg.checkpoint.as_deref(),
            Some(std::path::Path::new("results/ckpt.jsonl")),
            "--resume implies the default checkpoint"
        );

        let mut bad = RunnerConfig::default();
        assert!(bad.apply_cli_args(["--wrokers".to_string()], "x").is_err());
    }

    #[test]
    fn cli_telemetry_flag_takes_an_optional_path() {
        let mut cfg = RunnerConfig::default();
        cfg.apply_cli_args(
            ["--telemetry", "out/tel.json"]
                .iter()
                .map(|s| s.to_string()),
            "x",
        )
        .expect("parse");
        assert_eq!(
            cfg.telemetry.as_deref(),
            Some(std::path::Path::new("out/tel.json"))
        );

        // Without a value — even when another flag follows — the default
        // path is used and the flag is not swallowed.
        let mut cfg = RunnerConfig::default();
        cfg.apply_cli_args(
            ["--telemetry", "--quiet"].iter().map(|s| s.to_string()),
            "x",
        )
        .expect("parse");
        assert_eq!(
            cfg.telemetry.as_deref(),
            Some(std::path::Path::new("telemetry.json"))
        );
        assert!(!cfg.progress, "--quiet after --telemetry still applies");

        let mut cfg = RunnerConfig::default();
        cfg.apply_cli_args(["--telemetry".to_string()], "x")
            .expect("parse");
        assert_eq!(
            cfg.telemetry.as_deref(),
            Some(std::path::Path::new("telemetry.json"))
        );
    }

    #[test]
    fn cli_shard_flag_parses_and_validates() {
        let mut cfg = RunnerConfig::default();
        cfg.apply_cli_args(["--shard".to_string(), "2/4".to_string()], "x")
            .expect("parse");
        assert_eq!(cfg.shard, Some((1, 4)), "CLI is 1-based, stored 0-based");

        for bad in ["0/4", "5/4", "2-4", "x/y", "3/0"] {
            let mut cfg = RunnerConfig::default();
            assert!(
                cfg.apply_cli_args(["--shard".to_string(), bad.to_string()], "x")
                    .is_err(),
                "--shard {bad} should be rejected"
            );
        }
    }

    #[test]
    fn shards_partition_the_campaign_exactly() {
        let full = demo_campaign(24).run(&quiet(2));
        let n = 3;
        let mut sharded: Vec<(String, u64, JobOutcome<u64>)> = Vec::new();
        for shard in 0..n {
            let cfg = RunnerConfig {
                shard: Some((shard, n)),
                ..quiet(2)
            };
            let report = demo_campaign(24).run(&cfg);
            assert!(
                !report.records.is_empty(),
                "24 jobs over 3 shards should populate every shard"
            );
            for r in report.records {
                sharded.push((r.key, r.seed, r.outcome));
            }
        }
        sharded.sort_by(|a, b| a.0.cmp(&b.0));
        let full: Vec<_> = full
            .records
            .into_iter()
            .map(|r| (r.key, r.seed, r.outcome))
            .collect();
        assert_eq!(sharded, full, "shards must partition without overlap");
    }

    #[test]
    fn telemetry_reports_stats_and_timings() {
        let report = demo_campaign(3).run(&quiet(2));
        let parsed = Value::parse(&report.telemetry_json()).expect("valid json");
        assert_eq!(parsed.get("campaign").and_then(Value::as_str), Some("demo"));
        let stats = parsed.get("stats").expect("stats");
        assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(3));
        assert_eq!(
            parsed
                .get("timings")
                .and_then(Value::as_array)
                .map(|a| a.len()),
            Some(3)
        );
    }
}
