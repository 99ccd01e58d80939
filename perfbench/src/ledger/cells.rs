//! The campaign cells the ledger replays, rebuilt from public API.
//!
//! A campaign job is an opaque closure, so the ledger rebuilds each
//! cell's scenario, controller and simulator configuration the way the
//! bench crate's `*_jobs` functions (and the `tournament` binary) do.
//! Every replay is compared bit-for-bit with the payload the campaign
//! produced under the same key, which checks this reconstruction and the
//! replay together.

use thermorl_bench::campaign::CellOutcome;
use thermorl_bench::experiments::AgentTelemetry;
use thermorl_bench::Policy;
use thermorl_control::{ControlConfig, DasDac14Controller};
use thermorl_sim::{SimConfig, ThermalController};
use thermorl_workload::{alpbench, DataSet, Scenario};

use std::time::Instant;

use super::sim::{replay, LayerTimes, Replayed};
use crate::campaign::Cell;

/// How a cell's controller is built.
#[derive(Debug, Clone)]
pub enum Control {
    /// `Policy::build(seed)`: the plain and trace-recording paths.
    Plain(Policy),
    /// The proposed controller with a custom configuration, whose agent
    /// telemetry the payload carries: the instrumented path.
    Instrumented(Box<ControlConfig>),
}

/// One replayable campaign cell.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Campaign key.
    pub key: String,
    /// The workload sequence.
    pub scenario: Scenario,
    /// The controller.
    pub control: Control,
    /// Simulator configuration (`record_trace` marks the trace path).
    pub sim: SimConfig,
}

impl SimCell {
    /// Which engine path the cell takes.
    pub fn path(&self) -> &'static str {
        match (&self.control, self.sim.record_trace) {
            (_, true) => "trace-recording",
            (Control::Instrumented(_), false) => "instrumented",
            (Control::Plain(_), false) => "plain",
        }
    }
}

fn plain(key: String, scenario: Scenario, policy: Policy, record_trace: bool) -> SimCell {
    SimCell {
        key,
        scenario,
        control: Control::Plain(policy),
        sim: SimConfig {
            record_trace,
            ..SimConfig::default()
        },
    }
}

fn instrumented(key: String, scenario: Scenario, cfg: ControlConfig) -> SimCell {
    SimCell {
        key,
        scenario,
        control: Control::Instrumented(Box::new(cfg)),
        sim: SimConfig::default(),
    }
}

/// The cells of the `paper_campaign` slice, keyed like `run_all`.
pub fn paper_cells() -> Vec<SimCell> {
    let mut cells = Vec::new();
    let fig1 = Scenario::new(vec![
        alpbench::face_rec(DataSet::One),
        alpbench::mpeg_enc(DataSet::One),
    ]);
    for p in [Policy::LinuxOndemand, Policy::UserAssignment] {
        cells.push(plain(format!("fig1/{}/0", p.slug()), fig1.clone(), p, true));
    }
    let fig45 = Scenario::single(alpbench::face_rec(DataSet::One));
    for p in [Policy::LinuxOndemand, Policy::Proposed] {
        cells.push(plain(
            format!("fig4_5/{}/0", p.slug()),
            fig45.clone(),
            p,
            true,
        ));
    }
    let fig7 = [
        ("tachyon", alpbench::tachyon(DataSet::Two)),
        ("mpeg_dec", alpbench::mpeg_dec(DataSet::One)),
        ("mpeg_enc", alpbench::mpeg_enc(DataSet::One)),
    ];
    for (name, app) in fig7 {
        let scenario = Scenario::single(app);
        cells.push(plain(
            format!("fig7/baseline/{name}/0"),
            scenario.clone(),
            Policy::LinuxOndemand,
            false,
        ));
        for epoch_s in [6usize, 15, 30, 45, 60, 81] {
            let mut cfg = ControlConfig::default();
            cfg.epoch_samples = (epoch_s as f64 / cfg.sampling_interval).round() as usize;
            cells.push(instrumented(
                format!("fig7/{name}/epoch-{epoch_s}/0"),
                scenario.clone(),
                cfg,
            ));
        }
    }
    let ablation_apps = [
        ("tachyon-2", alpbench::tachyon(DataSet::Two)),
        ("mpeg_dec-1", alpbench::mpeg_dec(DataSet::One)),
    ];
    for (name, app) in ablation_apps {
        for variant in ["full", "no-decoupling", "no-thermal-reward"] {
            let mut cfg = ControlConfig::default();
            match variant {
                "no-decoupling" => cfg.epoch_samples = 1,
                "no-thermal-reward" => {
                    cfg.reward.importance_hi = 0.0;
                    cfg.reward.importance_lo = 0.0;
                }
                _ => {}
            }
            cells.push(instrumented(
                format!("ablations/{name}/{variant}/0"),
                Scenario::single(app.clone()),
                cfg,
            ));
        }
    }
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    cells
}

/// The cells of the `policy_tournament` matrix.
pub fn tournament_cells(seed: u64) -> Vec<SimCell> {
    crate::campaign::tournament_cells(seed)
        .into_iter()
        .map(|c| SimCell {
            key: c.key,
            scenario: c.scenario.scenario,
            control: Control::Plain(c.policy),
            sim: c.scenario.sim,
        })
        .collect()
}

/// A replayed cell.
pub struct CellReplay {
    /// The replayed payload, encoded like the campaign's checkpoint.
    pub encoded: String,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Host time of the cell as a campaign job does it — controller
    /// construction, the run, and the payload (timers included) — ns.
    pub host_ns: u64,
    /// Layer times of the replay.
    pub times: LayerTimes,
}

/// Replays `cell` under `seed`. With `paper_payload` the result is
/// encoded as a bench `CellOutcome` (agent telemetry, trace CSV),
/// otherwise as a bare `RunOutcome` like the tournament's.
pub fn replay_cell(cell: &SimCell, seed: u64, paper_payload: bool) -> CellReplay {
    let start = Instant::now();
    let mut proposed = None;
    let mut boxed = None;
    let controller: &mut dyn ThermalController = match &cell.control {
        Control::Plain(p) => &mut **boxed.insert(p.build(seed)),
        Control::Instrumented(cfg) => {
            proposed.insert(DasDac14Controller::new(ControlConfig::clone(cfg), seed))
        }
    };
    let Replayed {
        outcome,
        trace,
        times,
    } = replay(&cell.scenario, controller, &cell.sim, seed);
    let sim_s = outcome.total_time;
    let payload: Box<dyn Cell> = if paper_payload {
        let telemetry = proposed.as_ref().map(|c| AgentTelemetry {
            epochs: c.epochs(),
            convergence_epoch: c.convergence_epoch(),
            intra_events: c.intra_events(),
            inter_events: c.inter_events(),
        });
        let trace_csv = cell.sim.record_trace.then(|| {
            let mut csv = Vec::new();
            trace
                .to_csv(&mut csv)
                .expect("writing to memory cannot fail");
            String::from_utf8(csv).expect("csv is utf-8")
        });
        Box::new(CellOutcome {
            outcome,
            telemetry,
            trace_csv,
        })
    } else {
        Box::new(outcome)
    };
    let host_ns = start.elapsed().as_nanos() as u64;
    CellReplay {
        encoded: payload.encoded(),
        sim_s,
        host_ns,
        times,
    }
}
