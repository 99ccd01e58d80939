//! Implementations of every table and figure of the paper's evaluation.
//!
//! Each experiment is split into two pure halves wired through the
//! campaign engine ([`crate::campaign`]):
//!
//! * `*_jobs(&mut Campaign)` pushes the experiment's keyed simulation
//!   jobs (keys like `table2/tachyon-1/proposed/0`); the runner derives
//!   each job's seed from its key, so results are independent of worker
//!   count and execution order.
//! * `*_render(&CampaignReport)` turns the finished report back into the
//!   paper's tables/traces by addressing payloads with the same keys.
//!
//! The classic one-shot entry points (`table2()`, `figure3(..)`, …) are
//! kept as wrappers that build, run and render a single-experiment
//! campaign; `run_all` pushes every experiment into one big campaign so
//! the whole evaluation shares a worker pool, a checkpoint file and one
//! `--resume` boundary.

use std::sync::Mutex;

use thermorl_control::{ActionSpace, ControlConfig, DasDac14Controller, StateSpace};
use thermorl_platform::{assignment_presets, GovernorKind, OppTable};
use thermorl_reliability::ReliabilityAnalyzer;
use thermorl_runner::{Campaign, CampaignReport};
use thermorl_sim::{run_scenario, RunOutcome, SimConfig, Simulation, ThermalController};
use thermorl_workload::{alpbench, AppModel, DataSet, Scenario};

use crate::campaign::{run_experiment, CellOutcome};
use crate::policy::Policy;
use crate::table::{num, Table};

/// Deterministic parallel map over experiment descriptors (re-exported
/// from the runner's worker pool; same shared-queue discipline as the
/// campaign engine).
pub use thermorl_runner::par_map;

/// Telemetry extracted from an instrumented proposed-controller run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgentTelemetry {
    /// Decision epochs executed.
    pub epochs: u64,
    /// Epoch at which the greedy policy stabilised (Figure 8 metric).
    pub convergence_epoch: Option<u64>,
    /// Intra-application adaptations.
    pub intra_events: u64,
    /// Inter-application relearning resets.
    pub inter_events: u64,
}

/// A controller wrapper that exports [`AgentTelemetry`] after the run.
struct Instrumented {
    inner: DasDac14Controller,
    out: std::sync::Arc<Mutex<AgentTelemetry>>,
}

impl ThermalController for Instrumented {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn sampling_interval(&self) -> f64 {
        self.inner.sampling_interval()
    }
    fn on_start(&mut self, t: usize, c: usize) {
        self.inner.on_start(t, c);
    }
    fn on_sample(
        &mut self,
        obs: &thermorl_sim::Observation<'_>,
    ) -> Option<thermorl_sim::Actuation> {
        let act = self.inner.on_sample(obs);
        let mut t = self.out.lock().expect("telemetry lock");
        t.epochs = self.inner.epochs();
        t.convergence_epoch = self.inner.convergence_epoch();
        t.intra_events = self.inner.intra_events();
        t.inter_events = self.inner.inter_events();
        act
    }
}

/// Runs the proposed controller with custom config, returning outcome and
/// telemetry.
pub fn run_instrumented(
    scenario: &Scenario,
    cfg: ControlConfig,
    sim: &SimConfig,
    seed: u64,
) -> (RunOutcome, AgentTelemetry) {
    let out = std::sync::Arc::new(Mutex::new(AgentTelemetry::default()));
    let controller = Instrumented {
        inner: DasDac14Controller::new(cfg, seed),
        out: out.clone(),
    };
    let outcome = run_scenario(scenario, Box::new(controller), sim, seed);
    let t = *out.lock().expect("telemetry lock");
    (outcome, t)
}

fn default_sim() -> SimConfig {
    SimConfig::default()
}

// ---------------------------------------------------------------------
// Job builders shared by the experiments.
// ---------------------------------------------------------------------

/// Work function: run `scenario` under `policy`.
fn policy_job(scenario: Scenario, policy: Policy) -> impl Fn(u64) -> CellOutcome {
    move |seed| {
        CellOutcome::plain(run_scenario(
            &scenario,
            policy.build(seed),
            &default_sim(),
            seed,
        ))
    }
}

/// Work function: run the instrumented proposed controller with `cfg`.
fn instrumented_job(scenario: Scenario, cfg: ControlConfig) -> impl Fn(u64) -> CellOutcome {
    move |seed| {
        let (outcome, telemetry) = run_instrumented(&scenario, cfg.clone(), &default_sim(), seed);
        CellOutcome {
            outcome,
            telemetry: Some(telemetry),
            trace_csv: None,
        }
    }
}

/// Work function: run `scenario` under `policy` with trace recording on.
fn traced_job(scenario: Scenario, policy: Policy) -> impl Fn(u64) -> CellOutcome {
    move |seed| {
        let mut sim = default_sim();
        sim.record_trace = true;
        let mut simulation = Simulation::new(scenario.clone(), policy.build(seed), &sim, seed);
        let outcome = simulation.run();
        let mut csv = Vec::new();
        simulation
            .trace()
            .to_csv(&mut csv)
            .expect("writing to memory cannot fail");
        CellOutcome {
            outcome,
            telemetry: None,
            trace_csv: Some(String::from_utf8(csv).expect("csv is utf-8")),
        }
    }
}

/// The hottest-core series of a recorded trace CSV (`time,temp0..,..`).
fn max_temp_series_from_csv(csv: &str) -> Vec<f64> {
    let mut lines = csv.lines();
    let temp_cols = lines
        .next()
        .map(|h| h.split(',').filter(|c| c.starts_with("temp")).count())
        .unwrap_or(0);
    lines
        .map(|l| {
            l.split(',')
                .skip(1)
                .take(temp_cols)
                .filter_map(|v| v.parse::<f64>().ok())
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 2 — intra-application MTTF.
// ---------------------------------------------------------------------

/// The Table 2 application grid: `(key_label, table_label, app)`.
fn table2_apps() -> Vec<(String, String, AppModel)> {
    ["tachyon", "mpeg_dec", "mpeg_enc"]
        .iter()
        .flat_map(|name| {
            DataSet::all().into_iter().map(move |ds| {
                let app = alpbench::by_name(name, ds).expect("known benchmark");
                (
                    format!("{}-{}", name, ds.index()),
                    format!("{} {}", name, app.dataset),
                    app,
                )
            })
        })
        .collect()
}

/// Pushes the policy-zoo grid selected with `--policy`: the Table-2
/// applications under each selected policy, checkpoint-tagged with the
/// policy slug so a resumed run never adopts another policy's cells.
pub fn zoo_jobs(campaign: &mut Campaign<CellOutcome>, policies: &[Policy]) {
    for (key_label, _, app) in table2_apps() {
        for &p in policies {
            campaign.push_tagged(
                format!("zoo/{key_label}/{}/0", p.slug()),
                p.slug(),
                policy_job(Scenario::single(app.clone()), p),
            );
        }
    }
}

/// Renders the zoo comparison: one row per application × policy with
/// temperatures, combined MTTF, and energy.
pub fn zoo_render(report: &CampaignReport<CellOutcome>, policies: &[Policy]) -> Table {
    let mut table = Table::with_columns(&[
        "Application",
        "Data",
        "Policy",
        "Avg T",
        "Peak T",
        "Combined MTTF (y)",
        "Energy (J)",
    ]);
    for (key_label, table_label, _) in table2_apps() {
        for &p in policies {
            let out = &report
                .payload(&format!("zoo/{key_label}/{}/0", p.slug()))
                .outcome;
            let s = out.reliability_summary();
            let (name, data) = table_label
                .split_once(' ')
                .unwrap_or((table_label.as_str(), ""));
            table.row(vec![
                name.to_string(),
                data.to_string(),
                p.label().to_string(),
                num(out.avg_temperature(), 1),
                num(out.peak_temperature(), 1),
                num(s.mttf_combined_years, 2),
                num(out.dynamic_energy_j + out.static_energy_j, 0),
            ]);
        }
    }
    table
}

/// Pushes the Table 2 grid: three applications × three datasets ×
/// {Linux, Ge \[7\], Proposed}.
pub fn table2_jobs(campaign: &mut Campaign<CellOutcome>) {
    for (key_label, _, app) in table2_apps() {
        for p in Policy::table2() {
            campaign.push(
                format!("table2/{key_label}/{}/0", p.slug()),
                policy_job(Scenario::single(app.clone()), p),
            );
        }
    }
}

/// Renders Table 2 from a finished campaign: average temperature, peak
/// temperature, cycling MTTF and aging MTTF per cell.
pub fn table2_render(report: &CampaignReport<CellOutcome>) -> Table {
    let mut table = Table::with_columns(&[
        "Application",
        "Data",
        "AvgT Linux",
        "AvgT Ge",
        "AvgT Prop",
        "PeakT Linux",
        "PeakT Ge",
        "PeakT Prop",
        "TC-MTTF Linux",
        "TC-MTTF Ge",
        "TC-MTTF Prop",
        "Age-MTTF Linux",
        "Age-MTTF Ge",
        "Age-MTTF Prop",
    ]);
    for (key_label, table_label, _) in table2_apps() {
        let mut avg = vec![String::new(); 3];
        let mut peak = vec![String::new(); 3];
        let mut tc = vec![String::new(); 3];
        let mut age = vec![String::new(); 3];
        for (j, p) in Policy::table2().into_iter().enumerate() {
            let out = &report
                .payload(&format!("table2/{key_label}/{}/0", p.slug()))
                .outcome;
            let s = out.reliability_summary();
            avg[j] = num(out.avg_temperature(), 1);
            peak[j] = num(out.peak_temperature(), 1);
            tc[j] = num(s.mttf_cycling_years, 1);
            age[j] = num(s.mttf_aging_years, 1);
        }
        let (name, data) = table_label
            .split_once(' ')
            .unwrap_or((table_label.as_str(), ""));
        let mut row = vec![name.to_string(), data.to_string()];
        row.extend(avg);
        row.extend(peak);
        row.extend(tc);
        row.extend(age);
        table.row(row);
    }
    table
}

/// Regenerates Table 2 as a standalone campaign.
pub fn table2() -> Table {
    table2_render(&run_experiment("table2", table2_jobs))
}

// ---------------------------------------------------------------------
// Figure 3 — inter-application normalised cycling MTTF.
// ---------------------------------------------------------------------

fn figure3_prefix(single_table: bool) -> &'static str {
    if single_table {
        "fig3-single"
    } else {
        "fig3"
    }
}

/// Pushes the Figure 3 grid: six inter-application scenarios ×
/// {Linux, Ge modified, Proposed}. With `single_table` the proposed
/// controller's dual-Q-table mechanism is ablated (distinct job keys, so
/// both variants can coexist in one campaign).
pub fn figure3_jobs(campaign: &mut Campaign<CellOutcome>, single_table: bool) {
    let prefix = figure3_prefix(single_table);
    for scenario in Scenario::paper_figure3(DataSet::One) {
        for p in Policy::figure3() {
            let key = format!("{prefix}/{}/{}/0", scenario.name, p.slug());
            if p == Policy::Proposed {
                let cfg = ControlConfig {
                    dual_q_tables: !single_table,
                    ..ControlConfig::default()
                };
                campaign.push(key, instrumented_job(scenario.clone(), cfg));
            } else {
                campaign.push(key, policy_job(scenario.clone(), p));
            }
        }
    }
}

/// Renders Figure 3 from a finished campaign: thermal-cycling MTTF per
/// scenario, normalised to Linux ondemand.
pub fn figure3_render(report: &CampaignReport<CellOutcome>, single_table: bool) -> Table {
    let prefix = figure3_prefix(single_table);
    let mut table = Table::with_columns(&[
        "Scenario",
        "TC-MTTF Linux (y)",
        "Ge mod norm",
        "Proposed norm",
        "Proposed switches detected",
    ]);
    for s in Scenario::paper_figure3(DataSet::One) {
        let cell = |p: Policy| report.payload(&format!("{prefix}/{}/{}/0", s.name, p.slug()));
        let linux = cell(Policy::LinuxOndemand).outcome.reliability_summary();
        let ge = cell(Policy::Ge2011Modified).outcome.reliability_summary();
        let prop_cell = cell(Policy::Proposed);
        let prop = prop_cell.outcome.reliability_summary();
        let base = linux.mttf_cycling_years;
        table.row(vec![
            s.name.clone(),
            num(base, 2),
            num(ge.mttf_cycling_years / base, 2),
            num(prop.mttf_cycling_years / base, 2),
            format!("{} (apps: {})", prop_cell.telemetry().inter_events, s.len()),
        ]);
    }
    table
}

/// Regenerates Figure 3 as a standalone campaign.
pub fn figure3(single_table: bool) -> Table {
    let report = run_experiment(figure3_prefix(single_table), |c| {
        figure3_jobs(c, single_table)
    });
    figure3_render(&report, single_table)
}

// ---------------------------------------------------------------------
// Figure 1 — motivational thread-assignment experiment.
// ---------------------------------------------------------------------

fn figure1_scenario() -> Scenario {
    Scenario::new(vec![
        alpbench::face_rec(DataSet::One),
        alpbench::mpeg_enc(DataSet::One),
    ])
}

const FIGURE1_POLICIES: [Policy; 2] = [Policy::LinuxOndemand, Policy::UserAssignment];

/// Pushes the §3 motivational experiment: face_rec and mpeg_enc
/// back-to-back under Linux's default allocation vs. the fixed user
/// assignment, with trace recording.
pub fn figure1_jobs(campaign: &mut Campaign<CellOutcome>) {
    for p in FIGURE1_POLICIES {
        campaign.push(
            format!("fig1/{}/0", p.slug()),
            traced_job(figure1_scenario(), p),
        );
    }
}

/// Renders Figure 1: the summary table and the two thermal traces
/// (hottest-core series) as CSV strings.
pub fn figure1_render(report: &CampaignReport<CellOutcome>) -> (Table, Vec<(String, String)>) {
    let scenario = figure1_scenario();
    let analyzer = ReliabilityAnalyzer::default();
    let mut table = Table::with_columns(&[
        "Policy",
        "App",
        "Avg T",
        "Peak T",
        "Cycles",
        "Stress (rel)",
        "TC-MTTF (y)",
    ]);
    let mut traces = Vec::new();
    let mut stress_base = None;
    for p in FIGURE1_POLICIES {
        let cell = report.payload(&format!("fig1/{}/0", p.slug()));
        let out = &cell.outcome;
        // Split the per-core profiles at the app boundary.
        let boundary = out.app_results[0]
            .finish_time
            .unwrap_or(out.total_time)
            .round() as usize;
        for (app_idx, app) in scenario.apps.iter().enumerate() {
            let reports: Vec<_> = out
                .sensor_profiles
                .iter()
                .map(|prof| {
                    let window = if app_idx == 0 {
                        prof.window(0, boundary)
                    } else {
                        prof.window(boundary, prof.len())
                    };
                    analyzer.analyze(&window)
                })
                .collect();
            let worst = reports
                .iter()
                .min_by(|a, b| {
                    a.mttf_cycling_years
                        .partial_cmp(&b.mttf_cycling_years)
                        .expect("finite")
                })
                .expect("four cores");
            let avg = reports.iter().map(|r| r.avg_temp_c).sum::<f64>() / reports.len() as f64;
            let peak = reports
                .iter()
                .map(|r| r.peak_temp_c)
                .fold(f64::NEG_INFINITY, f64::max);
            let base = *stress_base.get_or_insert(worst.stress.max(1e-12));
            table.row(vec![
                p.label().to_string(),
                app.name.clone(),
                num(avg, 1),
                num(peak, 1),
                num(worst.num_cycles, 0),
                num(worst.stress / base, 2),
                num(worst.mttf_cycling_years, 1),
            ]);
        }
        traces.push((
            format!("fig1_{}.csv", p.label().replace(' ', "_")),
            cell.trace_csv().to_string(),
        ));
    }
    (table, traces)
}

/// Regenerates Figure 1 as a standalone campaign.
pub fn figure1() -> (Table, Vec<(String, String)>) {
    figure1_render(&run_experiment("fig1", figure1_jobs))
}

// ---------------------------------------------------------------------
// Figures 4 & 5 — exploration vs exploitation phases.
// ---------------------------------------------------------------------

const FIGURE4_5_POLICIES: [Policy; 2] = [Policy::LinuxOndemand, Policy::Proposed];

/// Pushes Figures 4 & 5: face_rec under the proposed algorithm vs Linux
/// ondemand, with trace recording for the phase windows.
pub fn figure4_5_jobs(campaign: &mut Campaign<CellOutcome>) {
    let scenario = Scenario::single(alpbench::face_rec(DataSet::One));
    for p in FIGURE4_5_POLICIES {
        campaign.push(
            format!("fig4_5/{}/0", p.slug()),
            traced_job(scenario.clone(), p),
        );
    }
}

/// Renders Figures 4 & 5: window statistics during exploration and
/// exploitation, plus the two traces as CSV.
pub fn figure4_5_render(report: &CampaignReport<CellOutcome>) -> (Table, Vec<(String, String)>) {
    let cells: Vec<(Policy, &CellOutcome)> = FIGURE4_5_POLICIES
        .iter()
        .map(|&p| (p, report.payload(&format!("fig4_5/{}/0", p.slug()))))
        .collect();
    let series: Vec<Vec<f64>> = cells
        .iter()
        .map(|(_, c)| max_temp_series_from_csv(c.trace_csv()))
        .collect();

    // Exploration = the first round-robin sweep (9 actions × 30 s epochs).
    let explore_end = 270usize;
    let mut table = Table::with_columns(&[
        "Window",
        "Ondemand avg T",
        "Proposed avg T",
        "Ondemand peak",
        "Proposed peak",
    ]);
    let window_stats = |s: &[f64], from: usize, to: usize| {
        let to = to.min(s.len());
        let from = from.min(to);
        let w = &s[from..to];
        if w.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (
                w.iter().sum::<f64>() / w.len() as f64,
                w.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        }
    };
    let shortest = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let (od_exp, od_exp_peak) = window_stats(&series[0], 0, explore_end);
    let (pr_exp, pr_exp_peak) = window_stats(&series[1], 0, explore_end);
    // Exploitation: the last 40% of the shorter run.
    let tail_from = shortest * 6 / 10;
    let (od_expl, od_expl_peak) = window_stats(&series[0], tail_from, shortest);
    let (pr_expl, pr_expl_peak) = window_stats(&series[1], tail_from, shortest);
    table.row(vec![
        "Exploration (Fig 4)".into(),
        num(od_exp, 1),
        num(pr_exp, 1),
        num(od_exp_peak, 1),
        num(pr_exp_peak, 1),
    ]);
    table.row(vec![
        "Exploitation (Fig 5)".into(),
        num(od_expl, 1),
        num(pr_expl, 1),
        num(od_expl_peak, 1),
        num(pr_expl_peak, 1),
    ]);
    let traces = cells
        .iter()
        .map(|(p, c)| {
            (
                format!("fig4_5_{}.csv", p.label()),
                c.trace_csv().to_string(),
            )
        })
        .collect();
    (table, traces)
}

/// Regenerates Figures 4 & 5 as a standalone campaign.
pub fn figure4_5() -> (Table, Vec<(String, String)>) {
    figure4_5_render(&run_experiment("fig4_5", figure4_5_jobs))
}

// ---------------------------------------------------------------------
// Figure 6 — temperature sampling interval.
// ---------------------------------------------------------------------

const FIGURE6_INTERVALS: std::ops::RangeInclusive<usize> = 1..=10;

/// Pushes Figure 6: the proposed controller at temperature sampling
/// intervals of 1–10 s on tachyon.
pub fn figure6_jobs(campaign: &mut Campaign<CellOutcome>) {
    let app = alpbench::tachyon(DataSet::Two);
    for interval in FIGURE6_INTERVALS {
        // Keep the decision epoch near 30 s regardless of the interval —
        // that's the whole point of decoupling the two.
        let cfg = ControlConfig {
            sampling_interval: interval as f64,
            epoch_samples: (30 / interval).max(2),
            ..ControlConfig::default()
        };
        campaign.push(
            format!("fig6/interval-{interval}/0"),
            instrumented_job(Scenario::single(app.clone()), cfg),
        );
    }
}

/// Renders Figure 6: computed MTTF, sample autocorrelation, cache misses
/// and page faults versus the sampling interval.
pub fn figure6_render(report: &CampaignReport<CellOutcome>) -> Table {
    let mut table = Table::with_columns(&[
        "Interval (s)",
        "Computed TC-MTTF (y)",
        "Autocorrelation",
        "Cache misses (M)",
        "Page faults (k)",
        "Exec time (s)",
    ]);
    let analyzer = ReliabilityAnalyzer::default();
    for interval in FIGURE6_INTERVALS {
        let out = &report
            .payload(&format!("fig6/interval-{interval}/0"))
            .outcome;
        // "Computed MTTF": what the controller *believes* from samples at
        // this interval — the fixed-rate profile decimated to the interval.
        let computed: f64 = out
            .sensor_profiles
            .iter()
            .map(|p| analyzer.analyze(&p.decimate(interval)).mttf_cycling_years)
            .fold(f64::INFINITY, f64::min);
        let autocorr: f64 = out
            .sensor_profiles
            .iter()
            .map(|p| p.autocorrelation(interval))
            .sum::<f64>()
            / out.sensor_profiles.len() as f64;
        table.row(vec![
            interval.to_string(),
            num(computed, 2),
            num(autocorr, 3),
            num(out.counters.cache_misses / 1e6, 1),
            num(out.counters.page_faults / 1e3, 2),
            num(out.total_time, 0),
        ]);
    }
    table
}

/// Regenerates Figure 6 as a standalone campaign.
pub fn figure6() -> Table {
    figure6_render(&run_experiment("fig6", figure6_jobs))
}

// ---------------------------------------------------------------------
// Figure 7 — decision epoch length.
// ---------------------------------------------------------------------

fn figure7_apps() -> [(&'static str, AppModel); 3] {
    [
        ("tachyon", alpbench::tachyon(DataSet::Two)),
        ("mpeg_dec", alpbench::mpeg_dec(DataSet::One)),
        ("mpeg_enc", alpbench::mpeg_enc(DataSet::One)),
    ]
}

const FIGURE7_EPOCHS_S: [usize; 6] = [6, 15, 30, 45, 60, 81];

/// Pushes Figure 7: per-app Linux baselines plus the proposed controller
/// at six decision-epoch lengths.
pub fn figure7_jobs(campaign: &mut Campaign<CellOutcome>) {
    for (name, app) in figure7_apps() {
        campaign.push(
            format!("fig7/baseline/{name}/0"),
            policy_job(Scenario::single(app.clone()), Policy::LinuxOndemand),
        );
        for epoch_s in FIGURE7_EPOCHS_S {
            let mut cfg = ControlConfig::default();
            cfg.epoch_samples = (epoch_s as f64 / cfg.sampling_interval).round() as usize;
            campaign.push(
                format!("fig7/{name}/epoch-{epoch_s}/0"),
                instrumented_job(Scenario::single(app.clone()), cfg),
            );
        }
    }
}

/// Renders Figure 7: normalised execution time, normalised dynamic energy
/// and learning time versus the decision epoch.
pub fn figure7_render(report: &CampaignReport<CellOutcome>) -> Table {
    let mut table = Table::with_columns(&[
        "App",
        "Epoch (s)",
        "Norm exec time",
        "Norm dyn energy",
        "Learning time (epochs)",
        "Learning time (s)",
    ]);
    for (name, _) in figure7_apps() {
        let base = &report.payload(&format!("fig7/baseline/{name}/0")).outcome;
        for epoch_s in FIGURE7_EPOCHS_S {
            let cell = report.payload(&format!("fig7/{name}/epoch-{epoch_s}/0"));
            let tel = cell.telemetry();
            let learn_epochs = tel.convergence_epoch.unwrap_or(tel.epochs);
            table.row(vec![
                name.to_string(),
                epoch_s.to_string(),
                num(cell.outcome.total_time / base.total_time, 3),
                num(cell.outcome.dynamic_energy_j / base.dynamic_energy_j, 3),
                learn_epochs.to_string(),
                num(learn_epochs as f64 * epoch_s as f64, 0),
            ]);
        }
    }
    table
}

/// Regenerates Figure 7 as a standalone campaign.
pub fn figure7() -> Table {
    figure7_render(&run_experiment("fig7", figure7_jobs))
}

// ---------------------------------------------------------------------
// Figure 8 — state/action space sizing.
// ---------------------------------------------------------------------

const FIGURE8_SIZES: [usize; 3] = [4, 8, 12];
const FIGURE8_REPS: usize = 4; // average out single-run learning noise

fn figure8_config(n_states: usize, n_actions: usize) -> ControlConfig {
    let mut cfg = ControlConfig::default();
    // Factor the state count into (stress × aging) bins.
    let (s_bins, a_bins) = match n_states {
        4 => (2, 2),
        8 => (2, 4),
        _ => (3, 4),
    };
    cfg.state_space = StateSpace::new(s_bins, a_bins, 8.0, 8.0);
    // Governor axis ordered coarse-to-fine: small action spaces only
    // reach the high-frequency presets; the finer low-frequency and
    // mapping actions (where the MTTF gains live) appear as the space
    // grows — the paper's "finer control on the temperature".
    let mappings = assignment_presets(6, 4);
    let governors = [
        GovernorKind::Ondemand,
        GovernorKind::Performance,
        GovernorKind::Conservative,
        GovernorKind::Userspace(4),
        GovernorKind::Userspace(3),
        GovernorKind::Userspace(2),
    ];
    cfg.action_space = Some(ActionSpace::cartesian(&mappings, &governors).truncated(n_actions));
    cfg.opp_table = OppTable::intel_quad();
    cfg
}

/// Pushes Figure 8: convergence and MTTF versus state/action space sizes
/// on mpeg_dec, with `FIGURE8_REPS` differently-seeded repetitions per
/// size pair (the runner derives a distinct seed per repetition key).
pub fn figure8_jobs(campaign: &mut Campaign<CellOutcome>) {
    let app = alpbench::mpeg_dec(DataSet::One);
    for ns in FIGURE8_SIZES {
        for na in FIGURE8_SIZES {
            for rep in 0..FIGURE8_REPS {
                campaign.push(
                    format!("fig8/s{ns}-a{na}/{rep}"),
                    instrumented_job(Scenario::single(app.clone()), figure8_config(ns, na)),
                );
            }
        }
    }
}

/// Renders Figure 8: mean convergence iterations and mean MTTF per
/// (states, actions) pair.
pub fn figure8_render(report: &CampaignReport<CellOutcome>) -> Table {
    let mut table = Table::with_columns(&[
        "States",
        "Actions",
        "Iterations to converge (mean)",
        "TC-MTTF (y, mean)",
        "Age-MTTF (y, mean)",
    ]);
    for ns in FIGURE8_SIZES {
        for na in FIGURE8_SIZES {
            let group: Vec<&CellOutcome> = (0..FIGURE8_REPS)
                .map(|rep| report.payload(&format!("fig8/s{ns}-a{na}/{rep}")))
                .collect();
            let n = group.len() as f64;
            let iters = group
                .iter()
                .map(|c| {
                    let t = c.telemetry();
                    t.convergence_epoch.unwrap_or(t.epochs) as f64
                })
                .sum::<f64>()
                / n;
            let tc = group
                .iter()
                .map(|c| c.outcome.reliability_summary().mttf_cycling_years)
                .sum::<f64>()
                / n;
            let age = group
                .iter()
                .map(|c| c.outcome.reliability_summary().mttf_aging_years)
                .sum::<f64>()
                / n;
            table.row(vec![
                ns.to_string(),
                na.to_string(),
                num(iters, 1),
                num(tc, 2),
                num(age, 2),
            ]);
        }
    }
    table
}

/// Regenerates Figure 8 as a standalone campaign.
pub fn figure8() -> Table {
    figure8_render(&run_experiment("fig8", figure8_jobs))
}

// ---------------------------------------------------------------------
// Table 3 & Figure 9 — execution time, power and energy.
// ---------------------------------------------------------------------

fn table3_apps() -> [(&'static str, AppModel); 3] {
    [
        ("tachyon", alpbench::tachyon(DataSet::One)),
        ("mpeg_dec", alpbench::mpeg_dec(DataSet::One)),
        ("mpeg_enc", alpbench::mpeg_enc(DataSet::One)),
    ]
}

/// Pushes Table 3 / Figure 9: three applications × six policies.
pub fn table3_figure9_jobs(campaign: &mut Campaign<CellOutcome>) {
    for (name, app) in table3_apps() {
        for p in Policy::table3() {
            campaign.push(
                format!("table3/{name}/{}/0", p.slug()),
                policy_job(Scenario::single(app.clone()), p),
            );
        }
    }
}

/// Renders Table 3 (execution times) and Figure 9 (average dynamic power
/// & energy) from the same cells.
pub fn table3_figure9_render(report: &CampaignReport<CellOutcome>) -> (Table, Table) {
    let mut t3 = Table::with_columns(&[
        "App",
        "ondemand",
        "powersave",
        "2.4GHz",
        "3.4GHz",
        "Ge [7]",
        "Proposed",
    ]);
    let mut f9 = Table::with_columns(&[
        "App",
        "Policy",
        "Avg dyn power (W)",
        "Dyn energy (kJ)",
        "Static energy (kJ)",
    ]);
    for (name, _) in table3_apps() {
        let mut row = vec![name.to_string()];
        for p in Policy::table3() {
            let out = &report
                .payload(&format!("table3/{name}/{}/0", p.slug()))
                .outcome;
            row.push(num(out.total_time, 0));
            f9.row(vec![
                name.to_string(),
                p.label().to_string(),
                num(out.avg_dynamic_power_w, 1),
                num(out.dynamic_energy_j / 1e3, 1),
                num(out.static_energy_j / 1e3, 1),
            ]);
        }
        t3.row(row);
    }
    (t3, f9)
}

/// Regenerates Table 3 and Figure 9 as a standalone campaign.
pub fn table3_figure9() -> (Table, Table) {
    table3_figure9_render(&run_experiment("table3", table3_figure9_jobs))
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5).
// ---------------------------------------------------------------------

const ABLATION_VARIANTS: [(&str, &str); 3] = [
    ("full", "Full"),
    ("no-decoupling", "NoDecoupling"),
    ("no-thermal-reward", "NoThermalReward"),
];

fn ablation_apps() -> [(&'static str, AppModel); 2] {
    [
        ("tachyon-2", alpbench::tachyon(DataSet::Two)),
        ("mpeg_dec-1", alpbench::mpeg_dec(DataSet::One)),
    ]
}

fn ablation_config(variant: &str) -> ControlConfig {
    let mut cfg = ControlConfig::default();
    match variant {
        "full" => {}
        "no-decoupling" => {
            // Decide on every 3 s sample, like prior RL managers: the
            // window degenerates to one instantaneous reading (no
            // cycling visibility) and actions churn 10x more often.
            cfg.epoch_samples = 1;
        }
        "no-thermal-reward" => {
            // Ablate the thermal term of Eq. 8 entirely: the agent
            // optimises the performance constraint alone.
            cfg.reward.importance_hi = 0.0;
            cfg.reward.importance_lo = 0.0;
        }
        other => panic!("unknown ablation variant {other:?}"),
    }
    cfg
}

/// Pushes the ablation study: two applications × three controller
/// variants (full, no sampling/epoch decoupling, no thermal reward).
pub fn ablations_jobs(campaign: &mut Campaign<CellOutcome>) {
    for (name, app) in ablation_apps() {
        for (slug, _) in ABLATION_VARIANTS {
            campaign.push(
                format!("ablations/{name}/{slug}/0"),
                instrumented_job(Scenario::single(app.clone()), ablation_config(slug)),
            );
        }
    }
}

/// Renders the ablation table.
pub fn ablations_render(report: &CampaignReport<CellOutcome>) -> Table {
    let mut table = Table::with_columns(&[
        "App",
        "Variant",
        "TC-MTTF (y)",
        "Age-MTTF (y)",
        "Exec time (s)",
    ]);
    for (name, _) in ablation_apps() {
        for (slug, label) in ABLATION_VARIANTS {
            let out = &report
                .payload(&format!("ablations/{name}/{slug}/0"))
                .outcome;
            let s = out.reliability_summary();
            table.row(vec![
                name.to_string(),
                label.to_string(),
                num(s.mttf_cycling_years, 2),
                num(s.mttf_aging_years, 2),
                num(out.total_time, 0),
            ]);
        }
    }
    table
}

/// Regenerates the ablation study as a standalone campaign.
pub fn ablations() -> Table {
    ablations_render(&run_experiment("ablations", ablations_jobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..64).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn par_map_runs_closures_in_parallel_threads() {
        // Not a strict parallelism proof, just exercises the worker path
        // with more items than workers.
        let out = par_map((0..100).collect::<Vec<u64>>(), |x| x % 7);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn instrumented_run_reports_epochs() {
        let cfg = ControlConfig {
            epoch_samples: 2,
            ..ControlConfig::default()
        };
        let app = AppModel::builder("tiny")
            .threads(6)
            .frames(200)
            .parallel_gcycles(0.5)
            .serial_gcycles(0.1)
            .build()
            .expect("valid");
        let scenario = Scenario::single(app);
        let sim = SimConfig {
            max_sim_time: 60.0,
            ..SimConfig::default()
        };
        let (_out, tel) = run_instrumented(&scenario, cfg, &sim, 1);
        assert!(tel.epochs > 0);
    }

    #[test]
    fn every_experiment_contributes_distinct_keys() {
        // Pushing every experiment into one campaign must not collide —
        // this is exactly what run_all does.
        let mut campaign = crate::campaign::new_campaign("all");
        figure1_jobs(&mut campaign);
        table2_jobs(&mut campaign);
        figure3_jobs(&mut campaign, false);
        figure4_5_jobs(&mut campaign);
        figure6_jobs(&mut campaign);
        figure7_jobs(&mut campaign);
        figure8_jobs(&mut campaign);
        table3_figure9_jobs(&mut campaign);
        ablations_jobs(&mut campaign);
        assert!(
            campaign.len() > 120,
            "full evaluation is {} jobs",
            campaign.len()
        );
    }

    #[test]
    fn max_temp_series_parses_trace_csv() {
        let csv = "time,temp0,temp1,freq0,freq1,fps\n\
                   0.000,40.0,45.5,3.40,3.40,30.0\n\
                   1.000,50.25,42.0,2.40,3.40,30.0\n";
        assert_eq!(max_temp_series_from_csv(csv), vec![45.5, 50.25]);
    }
}
