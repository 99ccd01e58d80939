//! The two campaign workloads.
//!
//! * `paper_campaign` — a fixed slice of the `run_all` job set: Figure 1
//!   and Figures 4 & 5 (the trace-recording engine path), Figure 7 (the
//!   plain path for its Linux baselines, the instrumented path for the
//!   proposed controller at six epoch lengths) and the ablations
//!   (instrumented). 31 jobs on the paper's quad die, built by the
//!   bench crate's own `*_jobs` functions and rendered by its
//!   `*_render` functions.
//! * `policy_tournament` — the full `scenario_matrix(seed, false)`: five
//!   stress scenarios × the six zoo policies, one repetition, keyed and
//!   tagged exactly like the `tournament` binary, with the leaderboard
//!   built at the end.
//!
//! Both run through `Campaign::run` on one worker with a checkpoint in
//! the run's scratch directory. A *round* is one whole campaign plus
//! its rendering; a run repeats rounds for the requested time and
//! reports each job at its median over the rounds, so a burst of host
//! contention moves only the rounds it overlaps.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use thermorl_bench::campaign::{cell_codec, CellOutcome};
use thermorl_bench::experiments as exp;
use thermorl_bench::Policy;
use thermorl_policy::{cell_metrics, leaderboard, scenario_matrix, PolicyId, TournamentScenario};
use thermorl_runner::checkpoint::CheckpointWriter;
use thermorl_runner::{run_outcome_codec, Campaign, CampaignReport, RunnerConfig};
use thermorl_sim::{run_scenario, RunOutcome};

use crate::stats::{median, weighted_quantile};
use crate::{median_setup_s, metrics_of, peak_rss_mb, Args, Digest, Outcome, END_TO_END};

/// A campaign payload: the run outcome plus its checkpoint encoding.
pub trait Cell: Send + 'static {
    /// The simulation outcome.
    fn outcome(&self) -> &RunOutcome;
    /// The payload as the checkpoint stores it (the digest input).
    fn encoded(&self) -> String;
}

impl Cell for CellOutcome {
    fn outcome(&self) -> &RunOutcome {
        &self.outcome
    }
    fn encoded(&self) -> String {
        (cell_codec().encode)(self).to_json()
    }
}

impl Cell for RunOutcome {
    fn outcome(&self) -> &RunOutcome {
        self
    }
    fn encoded(&self) -> String {
        self.to_json().to_json()
    }
}

/// A campaign workload: how to build its job set from the seed and how
/// to render its results into a directory.
pub struct Spec<T> {
    /// Builds the job set for a seed.
    pub build: fn(u64) -> Campaign<T>,
    /// Renders the finished report (tables or leaderboard) into the
    /// directory and returns the rendered text.
    pub render: fn(&CampaignReport<T>, u64, &Path) -> String,
    /// Each job's standard simulated seconds (its cap), when the seed
    /// changes how long the drawn workloads run; see [`campaign_metrics`].
    pub standard: Option<fn(u64) -> HashMap<String, f64>>,
}

/// The `paper_campaign` workload.
pub fn paper() -> Spec<CellOutcome> {
    Spec {
        build: paper_jobs,
        render: paper_render,
        standard: None,
    }
}

/// The `policy_tournament` workload.
pub fn tournament() -> Spec<RunOutcome> {
    Spec {
        build: tournament_jobs,
        render: tournament_render,
        standard: Some(tournament_caps),
    }
}

/// The paper slice: `run_all`'s Figure 1, Figures 4 & 5, Figure 7 and
/// ablation jobs, under the workload seed as the campaign master seed.
pub fn paper_jobs(seed: u64) -> Campaign<CellOutcome> {
    let mut campaign = Campaign::new("run_all", seed).with_codec(cell_codec());
    exp::figure1_jobs(&mut campaign);
    exp::figure4_5_jobs(&mut campaign);
    exp::figure7_jobs(&mut campaign);
    exp::ablations_jobs(&mut campaign);
    campaign
}

fn save(dir: &Path, name: &str, content: &str, all: &mut String) {
    std::fs::write(dir.join(name), content).expect("scratch directory is writable");
    all.push_str(content);
}

fn paper_render(report: &CampaignReport<CellOutcome>, _seed: u64, dir: &Path) -> String {
    let mut all = String::new();
    let (fig1, traces) = exp::figure1_render(report);
    save(dir, "fig1.md", &fig1.to_markdown(), &mut all);
    for (name, csv) in traces {
        save(dir, &name, &csv, &mut all);
    }
    let (fig45, traces) = exp::figure4_5_render(report);
    save(dir, "fig4_5.md", &fig45.to_markdown(), &mut all);
    for (name, csv) in traces {
        save(dir, &name, &csv, &mut all);
    }
    save(
        dir,
        "fig7.md",
        &exp::figure7_render(report).to_markdown(),
        &mut all,
    );
    save(
        dir,
        "ablations.md",
        &exp::ablations_render(report).to_markdown(),
        &mut all,
    );
    all
}

/// One tournament cell: its key, scenario and policy.
pub struct TournamentCell {
    /// Campaign key `{scenario}/{policy}/0`.
    pub key: String,
    /// The stress scenario.
    pub scenario: TournamentScenario,
    /// The contender.
    pub policy: Policy,
}

/// The full tournament matrix for a seed, scenario-major, in the order
/// the leaderboard groups cells.
pub fn tournament_cells(seed: u64) -> Vec<TournamentCell> {
    let mut cells = Vec::new();
    for ts in scenario_matrix(seed, false) {
        for id in PolicyId::ALL {
            let policy = Policy::Zoo(id);
            cells.push(TournamentCell {
                key: format!("{}/{}/0", ts.name, policy.slug()),
                scenario: ts.clone(),
                policy,
            });
        }
    }
    cells
}

/// Each tournament cell's simulated-time cap.
fn tournament_caps(seed: u64) -> HashMap<String, f64> {
    tournament_cells(seed)
        .into_iter()
        .map(|c| (c.key, c.scenario.sim.max_sim_time))
        .collect()
}

/// The tournament campaign, keyed and policy-tagged like the
/// `tournament` binary's.
pub fn tournament_jobs(seed: u64) -> Campaign<RunOutcome> {
    let mut campaign = Campaign::new("tournament", seed).with_codec(run_outcome_codec());
    for cell in tournament_cells(seed) {
        let TournamentScenario { scenario, sim, .. } = cell.scenario;
        let policy = cell.policy;
        campaign.push_tagged(cell.key, policy.slug(), move |s| {
            run_scenario(&scenario, policy.build(s), &sim, s)
        });
    }
    campaign
}

fn tournament_render(report: &CampaignReport<RunOutcome>, seed: u64, dir: &Path) -> String {
    let cells: Vec<_> = tournament_cells(seed)
        .iter()
        .map(|c| cell_metrics(&c.scenario.name, c.policy.slug(), report.payload(&c.key)))
        .collect();
    let text = format!("{}\n", leaderboard(&cells).to_json());
    std::fs::write(dir.join("tournament.json"), &text).expect("scratch directory is writable");
    text
}

/// Host time and simulated work of one job.
#[derive(Debug, Clone)]
pub struct JobTime {
    /// Campaign key.
    pub key: String,
    /// Host time of the job's work function (ns).
    pub host_ns: u64,
    /// Simulated seconds (`RunOutcome::total_time`).
    pub sim_s: f64,
    /// Controller observations (samples).
    pub samples: u64,
}

/// What one round measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Host time of `Campaign::run` plus rendering (s).
    pub wall_s: f64,
    /// Host time of rendering alone (s).
    pub render_s: f64,
    /// Per-job host time and simulated work, in key order.
    pub jobs: Vec<JobTime>,
    /// Jobs attempted (counted once, after retries).
    pub attempted: u64,
    /// Jobs that failed after retries.
    pub failed: u64,
    /// Retries the runner made.
    pub retries: u64,
    /// Digest of every payload (key order) and the rendered output.
    pub digest: u64,
    /// Cells whose combined, cycling or aging MTTF is not finite and
    /// positive.
    pub bad_mttf: Vec<String>,
}

/// Calls a job's work function for `(key, seed)`. The ledger uses it to
/// replay each cell right next to the job that produced it.
pub type Around<T> = Arc<dyn Fn(&str, u64, &(dyn Fn(u64) -> T + Send + Sync)) -> T + Send + Sync>;

/// Rebuilds `campaign` from every `every`-th job (all of them for 1),
/// each work function timed (through `around` when given); the times
/// land in `times` as `(key, ns)`.
pub fn timed<T: Send + 'static>(
    campaign: Campaign<T>,
    every: usize,
    times: &Arc<Mutex<Vec<(String, u64)>>>,
    around: Option<&Around<T>>,
) -> Campaign<T> {
    let mut out = Campaign::new(campaign.name.clone(), campaign.seed);
    if let Some(codec) = campaign.codec() {
        out = out.with_codec(*codec);
    }
    for key in campaign.job_keys().into_iter().step_by(every) {
        let job = campaign
            .job(&key)
            .expect("key listed by the campaign")
            .clone();
        let times = Arc::clone(times);
        let label = key.clone();
        let policy = job.policy.clone();
        let around = around.cloned();
        let work = move |seed| {
            let t = Instant::now();
            let payload = match &around {
                Some(around) => around(&label, seed, &*job.work),
                None => (job.work)(seed),
            };
            let ns = t.elapsed().as_nanos() as u64;
            times
                .lock()
                .expect("job timer lock")
                .push((label.clone(), ns));
            payload
        };
        match policy {
            Some(policy) => out.push_tagged(key, policy, work),
            None => out.push(key, work),
        }
    }
    out
}

fn runner_config(checkpoint: &Path) -> RunnerConfig {
    RunnerConfig {
        workers: 1,
        progress: false,
        checkpoint: Some(checkpoint.to_path_buf()),
        ..RunnerConfig::default()
    }
}

/// The set-up a round needs before its timed phase: building the job set
/// and opening the checkpoint.
pub fn setup<T: Send + 'static>(spec: &Spec<T>, seed: u64, checkpoint: &Path) -> Campaign<T> {
    let campaign = (spec.build)(seed);
    let codec = *campaign.codec().expect("campaign workloads carry a codec");
    drop(CheckpointWriter::append(checkpoint, codec).expect("scratch checkpoint opens"));
    campaign
}

/// Runs one round in the fresh directory `dir`: the timed campaign on
/// one worker, rendering, then the output checks.
pub fn run_round<T: Cell>(
    spec: &Spec<T>,
    seed: u64,
    dir: &Path,
    around: Option<&Around<T>>,
) -> (Round, CampaignReport<T>) {
    std::fs::create_dir_all(dir).expect("scratch directory is writable");
    let checkpoint = dir.join("checkpoint.jsonl");
    let times = Arc::new(Mutex::new(Vec::new()));
    let campaign = timed(setup(spec, seed, &checkpoint), 1, &times, around);
    let config = runner_config(&checkpoint);

    let t0 = Instant::now();
    let report = campaign.run(&config);
    let t1 = Instant::now();
    let failures = report.failures();
    let rendered = if failures.is_empty() {
        (spec.render)(&report, seed, dir)
    } else {
        String::new()
    };
    let t2 = Instant::now();

    let times: HashMap<String, u64> = std::mem::take(&mut *times.lock().expect("job timer lock"))
        .into_iter()
        .collect();
    let mut round = Round {
        wall_s: (t2 - t0).as_secs_f64(),
        render_s: (t2 - t1).as_secs_f64(),
        attempted: report.records.len() as u64,
        failed: failures.len() as u64,
        retries: report.stats.attempts - report.records.len() as u64,
        ..Round::default()
    };
    let mut digest = Digest::default();
    for record in &report.records {
        digest.add_str(&record.key);
        digest.add(&record.seed.to_le_bytes());
        let Some(cell) = record.outcome.payload() else {
            continue;
        };
        digest.add_str(&cell.encoded());
        let out = cell.outcome();
        let s = out.reliability_summary();
        let ok = |v: f64| v.is_finite() && v > 0.0;
        if !(ok(s.mttf_combined_years) && ok(s.mttf_cycling_years) && ok(s.mttf_aging_years)) {
            round.bad_mttf.push(record.key.clone());
        }
        round.jobs.push(JobTime {
            key: record.key.clone(),
            host_ns: times.get(&record.key).copied().unwrap_or(0),
            sim_s: out.total_time,
            samples: out.samples,
        });
    }
    digest.add_str(&rendered);
    round.digest = digest.value();
    let _ = std::fs::remove_dir_all(dir);
    (round, report)
}

/// The end-to-end metrics of a campaign run from its rounds.
///
/// Each job's host time is its median over the rounds, so a burst of
/// contention during one round stays out of every metric. A round's time
/// is the sum of those medians plus the median runner and rendering
/// overhead. With `standard` (the tournament), each scenario's jobs are
/// rescaled to the scenario's standard simulated time — every cell at
/// its cap — so the metrics describe a fixed amount of work although the
/// seed changes how long each drawn workload runs. Latencies are
/// quantiles of per-job host µs per simulated second, weighted by
/// (rescaled) simulated seconds.
fn campaign_metrics(
    rounds: &[Round],
    standard: Option<&HashMap<String, f64>>,
) -> [(&'static str, f64); 5] {
    let jobs = &rounds[0].jobs;
    let host_s: Vec<f64> = (0..jobs.len())
        .map(|i| {
            let mut v: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.jobs.get(i))
                .map(|j| j.host_ns as f64 / 1e9)
                .collect();
            median(&mut v)
        })
        .collect();
    let scale: Vec<f64> = match standard {
        None => vec![1.0; jobs.len()],
        Some(caps) => {
            let group = |key: &str| key.split('/').next().unwrap_or("").to_string();
            let mut sim: HashMap<String, f64> = HashMap::new();
            let mut cap: HashMap<String, f64> = HashMap::new();
            for j in jobs {
                *sim.entry(group(&j.key)).or_default() += j.sim_s;
                *cap.entry(group(&j.key)).or_default() += caps.get(&j.key).copied().unwrap_or(0.0);
            }
            jobs.iter()
                .map(|j| cap[&group(&j.key)] / sim[&group(&j.key)])
                .collect()
        }
    };
    let mut overhead: Vec<f64> = rounds
        .iter()
        .map(|r| r.wall_s - r.jobs.iter().map(|j| j.host_ns as f64 / 1e9).sum::<f64>())
        .collect();
    let wall = jobs
        .iter()
        .zip(&host_s)
        .zip(&scale)
        .map(|((_, h), f)| f * h)
        .sum::<f64>()
        + median(&mut overhead);
    let total =
        |x: &dyn Fn(&JobTime) -> f64| jobs.iter().zip(&scale).map(|(j, f)| f * x(j)).sum::<f64>();
    let mut costs: Vec<(f64, f64)> = jobs
        .iter()
        .zip(&host_s)
        .zip(&scale)
        .map(|((j, h), f)| (h * 1e6 / j.sim_s, f * j.sim_s))
        .collect();
    [
        ("wall_s", wall),
        ("sim_s_per_s", total(&|j| j.sim_s) / wall),
        ("obs_per_s", total(&|j| j.samples as f64) / wall),
        ("p50_us", weighted_quantile(&mut costs, 0.5)),
        ("p99_us", weighted_quantile(&mut costs, 0.99)),
    ]
}

/// The end-to-end run of a campaign workload: warm-up, repeated set-up,
/// then rounds until `args.seconds` have passed (at least three).
pub fn run_e2e<T: Cell>(spec: &Spec<T>, args: &Args) -> Outcome {
    let scratch = args.tmp.join("campaign");
    std::fs::create_dir_all(&scratch).expect("scratch directory is writable");

    // Warm-up: an untimed eighth of the job set.
    let warm = timed((spec.build)(args.seed), 8, &Arc::default(), None);
    let _ = warm.run(&runner_config(&scratch.join("warmup.jsonl")));

    let setup_path = scratch.join("setup.jsonl");
    let setup_s = median_setup_s(15, 40, || {
        std::hint::black_box(setup(spec, args.seed, &setup_path));
    });

    // Rounds while the next one would end less than half a round past
    // the requested time.
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < 3
        || start.elapsed().as_secs_f64() + rounds[rounds.len() - 1].wall_s / 2.0 <= args.seconds
    {
        let dir = scratch.join(format!("round-{}", rounds.len()));
        rounds.push(run_round(spec, args.seed, &dir, None).0);
    }

    let mut out = Outcome::default();
    for r in &rounds {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    let first = &rounds[0];
    out.digest = first.digest;
    out.check(
        "digest repeats across rounds",
        rounds.iter().all(|r| r.digest == first.digest),
    );
    let bad: Vec<&String> = rounds.iter().flat_map(|r| &r.bad_mttf).collect();
    out.check("every cell's MTTF is finite and positive", bad.is_empty());
    if !bad.is_empty() {
        out.notes.push(format!("cells with a bad MTTF: {bad:?}"));
    }
    let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    out.notes.push(format!(
        "{} rounds of {} jobs, seed {}; host s per round: {}",
        rounds.len(),
        first.attempted,
        args.seed,
        walls.join(" ")
    ));
    let standard = spec.standard.map(|caps| caps(args.seed));
    let mut values = campaign_metrics(&rounds, standard.as_ref()).to_vec();
    values.push(("peak_rss_mb", peak_rss_mb()));
    values.push(("setup_s", setup_s));
    out.metrics = metrics_of(&END_TO_END, &values);
    out
}
