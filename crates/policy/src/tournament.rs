//! The scenario tournament: a policy × scenario stress matrix.
//!
//! Convergence on one friendly trace says little about a policy; the
//! tournament pits every zoo member against five stress scenarios —
//! bursty arrivals, phase-changing workloads, ambient swings, degraded
//! sensors, and a 16-core 4×4 grid die on the large-floorplan fast
//! path — and folds per-cell MTTF/energy/IPS into a
//! normalised leaderboard. The module is pure data + scoring: the
//! campaign driver (keys, checkpoints, shards) lives in the bench
//! `tournament` binary on top of `thermorl-runner`.

use thermorl_json::Value;
use thermorl_sim::{AmbientProfile, RunOutcome, SimConfig};
use thermorl_thermal::{Floorplan, SensorParams, Stepper};
use thermorl_workload::{Scenario, SyntheticGenerator, SyntheticSpace};

/// MTTF values are clamped here (years) so leaderboard JSON stays
/// finite and parseable everywhere (`Value::num` would render `inf`).
pub const MTTF_CAP_YEARS: f64 = 1.0e6;
/// Leaderboard JSON schema tag, bumped on breaking layout changes.
pub const TOURNAMENT_SCHEMA: &str = "thermorl-tournament-v1";

/// Simulated seconds per cell in a full tournament.
const FULL_SIM_S: f64 = 900.0;
/// Simulated seconds per cell in `--quick` (CI smoke) mode.
const QUICK_SIM_S: f64 = 120.0;
/// All scenarios pin this thread count so every policy sees the same
/// paper-default action space.
const THREADS: usize = 6;

/// One named stress scenario with its simulator configuration.
#[derive(Debug, Clone)]
pub struct TournamentScenario {
    /// Key-safe scenario label (no `/`), e.g. `"ambient_swing"`.
    pub name: String,
    /// The workload sequence.
    pub scenario: Scenario,
    /// Simulator configuration for this cell (ambient, sensors, cap).
    pub sim: SimConfig,
}

fn named(name: &str, mut scenario: Scenario, sim: SimConfig) -> TournamentScenario {
    scenario.name = name.to_string();
    TournamentScenario {
        name: name.to_string(),
        scenario,
        sim,
    }
}

fn apps(space: SyntheticSpace, seed: u64, n: usize) -> Scenario {
    Scenario::new(SyntheticGenerator::with_space(space, seed).apps(n))
}

/// The standard five-scenario stress matrix, derived deterministically
/// from `seed`. `quick` shortens each cell's simulated-time cap for CI
/// smoke runs; the workloads themselves are identical.
pub fn scenario_matrix(seed: u64, quick: bool) -> Vec<TournamentScenario> {
    let base = SimConfig {
        max_sim_time: if quick { QUICK_SIM_S } else { FULL_SIM_S },
        ..SimConfig::default()
    };

    // Bursty arrivals: many short applications churning through the
    // controller's inter-application detector.
    let bursty_space = SyntheticSpace {
        threads: (THREADS, THREADS),
        frames: (20, 60),
        parallel_gcycles: (0.3, 1.2),
        serial_gcycles: (0.0, 0.3),
        activity: (0.5, 1.0),
        max_modulation: 0.2,
        allow_work_queue: true,
    };
    let bursty = named("bursty", apps(bursty_space, seed ^ 0xB0B5, 6), base.clone());

    // Phase changes: few long applications with heavy work modulation,
    // exercising intra-application change detection.
    let phase_space = SyntheticSpace {
        threads: (THREADS, THREADS),
        frames: (150, 300),
        parallel_gcycles: (1.0, 3.0),
        serial_gcycles: (0.0, 0.8),
        activity: (0.3, 1.0),
        max_modulation: 0.9,
        allow_work_queue: false,
    };
    let phase = named(
        "phase_shift",
        apps(phase_space, seed ^ 0xFA5E, 2),
        base.clone(),
    );

    // Ambient swing: a moderate workload under sinusoidal ambient
    // (diurnal/HVAC cycling) — state drift no fixed table anticipates.
    let steady_space = SyntheticSpace {
        threads: (THREADS, THREADS),
        ..SyntheticSpace::default()
    };
    let ambient = named(
        "ambient_swing",
        apps(steady_space, seed ^ 0xA3B1, 3),
        SimConfig {
            ambient: Some(AmbientProfile::Sinusoid {
                mean_c: 30.0,
                amplitude_c: 10.0,
                period_s: 600.0,
            }),
            ..base.clone()
        },
    );

    // Sensor dropout: coarse quantisation, heavy noise, a calibration
    // offset, and early saturation — the observation channel degrades
    // while the die underneath does not.
    let dropout = named(
        "sensor_dropout",
        apps(steady_space, seed ^ 0xD207, 3),
        SimConfig {
            sensor: SensorParams {
                quantisation: 4.0,
                noise_amplitude: 3.0,
                offset: 1.5,
                min_reading: 0.0,
                max_reading: 75.0,
            },
            ..base.clone()
        },
    );

    // Large floorplan: the steady workload on a 16-core 4×4 grid die
    // under the `Auto` stepper, so the tournament runs `Auto`'s
    // node-count rule end-to-end, not just in microbenches. At 18 nodes
    // the rule picks the exact zero-order-hold step.
    let mut grid_sim = SimConfig {
        floorplan: Some(Floorplan::grid(4, 4)),
        ..base
    };
    grid_sim.machine.scheduler.num_cores = 16;
    grid_sim.die.stepper = Stepper::Auto;
    let grid = named("grid_4x4", apps(steady_space, seed ^ 0x6D44, 3), grid_sim);

    vec![bursty, phase, ambient, dropout, grid]
}

/// One tournament cell: a (scenario, policy) pair's summary metrics,
/// averaged-ready (one value per repetition).
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Scenario label.
    pub scenario: String,
    /// Policy id string.
    pub policy: String,
    /// Combined MTTF (years), clamped to [`MTTF_CAP_YEARS`].
    pub mttf_years: f64,
    /// Total energy (dynamic + leakage, J).
    pub energy_j: f64,
    /// Instructions per simulated second.
    pub ips: f64,
    /// Mean of per-core average temperatures (°C).
    pub avg_temp_c: f64,
    /// Hottest observed temperature (°C).
    pub peak_temp_c: f64,
    /// Whether the workload finished inside the simulated-time cap.
    pub completed: bool,
}

/// Folds a finished run into its tournament cell.
pub fn cell_metrics(scenario: &str, policy: &str, out: &RunOutcome) -> CellMetrics {
    let summary = out.reliability_summary();
    let mttf = if summary.mttf_combined_years.is_finite() {
        summary.mttf_combined_years.min(MTTF_CAP_YEARS)
    } else {
        MTTF_CAP_YEARS
    };
    CellMetrics {
        scenario: scenario.to_string(),
        policy: policy.to_string(),
        mttf_years: mttf,
        energy_j: out.dynamic_energy_j + out.static_energy_j,
        ips: out.counters.instructions / out.total_time.max(1e-9),
        avg_temp_c: summary.avg_temp_c,
        peak_temp_c: summary.peak_temp_c,
        completed: out.completed,
    }
}

/// A policy's repetition-averaged metrics within one scenario.
#[derive(Debug, Clone)]
struct PolicyRow {
    policy: String,
    mttf_years: f64,
    energy_j: f64,
    ips: f64,
    avg_temp_c: f64,
    peak_temp_c: f64,
    completed: bool,
    reps: usize,
    score: f64,
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Averages repetitions, scores each scenario's rows (higher is
/// better), and keeps insertion order of first appearance.
fn scenario_rows(cells: &[CellMetrics], scenario: &str) -> Vec<PolicyRow> {
    let mut rows: Vec<PolicyRow> = Vec::new();
    for cell in cells.iter().filter(|c| c.scenario == scenario) {
        if !rows.iter().any(|r| r.policy == cell.policy) {
            let reps: Vec<&CellMetrics> = cells
                .iter()
                .filter(|c| c.scenario == scenario && c.policy == cell.policy)
                .collect();
            rows.push(PolicyRow {
                policy: cell.policy.clone(),
                mttf_years: mean(&reps.iter().map(|c| c.mttf_years).collect::<Vec<_>>()),
                energy_j: mean(&reps.iter().map(|c| c.energy_j).collect::<Vec<_>>()),
                ips: mean(&reps.iter().map(|c| c.ips).collect::<Vec<_>>()),
                avg_temp_c: mean(&reps.iter().map(|c| c.avg_temp_c).collect::<Vec<_>>()),
                peak_temp_c: mean(&reps.iter().map(|c| c.peak_temp_c).collect::<Vec<_>>()),
                completed: reps.iter().all(|c| c.completed),
                reps: reps.len(),
                score: 0.0,
            });
        }
    }
    // Normalised within the scenario: best MTTF, lowest energy, best
    // IPS each contribute a third.
    let max_mttf = rows.iter().map(|r| r.mttf_years).fold(0.0f64, f64::max);
    let min_energy = rows
        .iter()
        .map(|r| r.energy_j)
        .fold(f64::INFINITY, f64::min);
    let max_ips = rows.iter().map(|r| r.ips).fold(0.0f64, f64::max);
    for row in &mut rows {
        let m = if max_mttf > 0.0 {
            row.mttf_years / max_mttf
        } else {
            0.0
        };
        let e = if row.energy_j > 0.0 && min_energy.is_finite() {
            min_energy / row.energy_j
        } else {
            0.0
        };
        let i = if max_ips > 0.0 {
            row.ips / max_ips
        } else {
            0.0
        };
        row.score = (m + e + i) / 3.0;
    }
    rows
}

fn row_to_value(row: &PolicyRow) -> Value {
    let mut v = Value::object();
    v.set("policy", Value::Str(row.policy.clone()));
    v.set("mttf_years", Value::num(row.mttf_years));
    v.set("energy_j", Value::num(row.energy_j));
    v.set("ips", Value::num(row.ips));
    v.set("avg_temp_c", Value::num(row.avg_temp_c));
    v.set("peak_temp_c", Value::num(row.peak_temp_c));
    v.set("completed", Value::Bool(row.completed));
    v.set("reps", Value::UInt(row.reps as u64));
    v.set("score", Value::num(row.score));
    v
}

/// Builds the `BENCH_tournament.json` document: per-scenario tables
/// plus an overall leaderboard (mean score across scenarios, win
/// counts, winner first).
pub fn leaderboard(cells: &[CellMetrics]) -> Value {
    let mut scenario_names: Vec<&str> = Vec::new();
    for c in cells {
        if !scenario_names.contains(&c.scenario.as_str()) {
            scenario_names.push(&c.scenario);
        }
    }

    let mut doc = Value::object();
    doc.set("schema", Value::Str(TOURNAMENT_SCHEMA.to_string()));

    // Per-scenario tables + per-policy accumulators.
    let mut totals: Vec<(String, Vec<f64>, usize)> = Vec::new(); // (policy, scores, wins)
    let mut scenarios = Vec::new();
    for name in &scenario_names {
        let rows = scenario_rows(cells, name);
        let best = rows.iter().map(|r| r.score).fold(0.0f64, f64::max);
        for row in &rows {
            let entry = match totals.iter_mut().find(|(p, _, _)| p == &row.policy) {
                Some(e) => e,
                None => {
                    totals.push((row.policy.clone(), Vec::new(), 0));
                    totals.last_mut().expect("just pushed")
                }
            };
            entry.1.push(row.score);
            if row.score == best && best > 0.0 {
                entry.2 += 1;
            }
        }
        let mut sv = Value::object();
        sv.set("name", Value::Str(name.to_string()));
        sv.set("cells", Value::Arr(rows.iter().map(row_to_value).collect()));
        scenarios.push(sv);
    }
    doc.set("scenarios", Value::Arr(scenarios));

    // Overall leaderboard: mean score across scenarios, descending;
    // ties break toward more wins, then first appearance.
    let mut board: Vec<(String, f64, usize)> = totals
        .into_iter()
        .map(|(p, scores, wins)| (p, mean(&scores), wins))
        .collect();
    board.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.2.cmp(&a.2))
    });
    let entries: Vec<Value> = board
        .iter()
        .map(|(policy, score, wins)| {
            let mut v = Value::object();
            v.set("policy", Value::Str(policy.clone()));
            v.set("score", Value::num(*score));
            v.set("wins", Value::UInt(*wins as u64));
            v
        })
        .collect();
    doc.set("leaderboard", Value::Arr(entries));
    if let Some((winner, _, _)) = board.first() {
        doc.set("winner", Value::Str(winner.clone()));
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_five_key_safe_scenarios() {
        let matrix = scenario_matrix(7, false);
        assert_eq!(matrix.len(), 5);
        let names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!n.contains('/'), "scenario name {n:?} breaks job keys");
            assert!(!names[..i].contains(n), "duplicate scenario {n:?}");
        }
        // Every scenario pins the shared thread count.
        for s in &matrix {
            assert_eq!(s.scenario.num_threads(), THREADS);
        }
    }

    #[test]
    fn quick_mode_only_shortens_the_cap() {
        let quick = scenario_matrix(7, true);
        let full = scenario_matrix(7, false);
        for (q, f) in quick.iter().zip(&full) {
            assert_eq!(q.name, f.name);
            assert!(q.sim.max_sim_time < f.sim.max_sim_time);
            assert_eq!(
                q.scenario.apps.len(),
                f.scenario.apps.len(),
                "workloads must match between quick and full"
            );
        }
    }

    #[test]
    fn matrix_is_deterministic_in_the_seed() {
        let a = scenario_matrix(11, false);
        let b = scenario_matrix(11, false);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scenario.apps.len(), y.scenario.apps.len());
            for (ax, ay) in x.scenario.apps.iter().zip(&y.scenario.apps) {
                assert_eq!(ax.name, ay.name);
                assert_eq!(ax.num_threads, ay.num_threads);
            }
        }
    }

    fn cell(scenario: &str, policy: &str, mttf: f64, energy: f64, ips: f64) -> CellMetrics {
        CellMetrics {
            scenario: scenario.into(),
            policy: policy.into(),
            mttf_years: mttf,
            energy_j: energy,
            ips,
            avg_temp_c: 50.0,
            peak_temp_c: 70.0,
            completed: true,
        }
    }

    #[test]
    fn leaderboard_ranks_the_dominant_policy_first() {
        let cells = vec![
            cell("s1", "good", 20.0, 100.0, 1e9),
            cell("s1", "bad", 10.0, 200.0, 5e8),
            cell("s2", "good", 30.0, 90.0, 1.1e9),
            cell("s2", "bad", 15.0, 180.0, 6e8),
        ];
        let doc = leaderboard(&cells);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(TOURNAMENT_SCHEMA)
        );
        assert_eq!(doc.get("winner").and_then(Value::as_str), Some("good"));
        let board = doc.get("leaderboard").and_then(Value::as_array).unwrap();
        assert_eq!(board.len(), 2);
        assert_eq!(board[0].get("policy").and_then(Value::as_str), Some("good"));
        assert_eq!(board[0].get("wins").and_then(Value::as_u64), Some(2));
        let scen = doc.get("scenarios").and_then(Value::as_array).unwrap();
        assert_eq!(scen.len(), 2);
        // Dominant policy scores a perfect 1.0 in both scenarios.
        let score = board[0].get("score").and_then(Value::as_f64).unwrap();
        assert!((score - 1.0).abs() < 1e-12);
        // The document must round-trip through the JSON text layer.
        let parsed = Value::parse(&doc.to_json()).expect("valid JSON");
        assert_eq!(parsed.get("winner").and_then(Value::as_str), Some("good"));
    }

    #[test]
    fn repetitions_average_into_one_row() {
        let cells = vec![
            cell("s1", "p", 10.0, 100.0, 1e9),
            cell("s1", "p", 30.0, 300.0, 3e9),
        ];
        let doc = leaderboard(&cells);
        let scen = doc.get("scenarios").and_then(Value::as_array).unwrap();
        let rows = scen[0].get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("reps").and_then(Value::as_u64), Some(2));
        let mttf = rows[0].get("mttf_years").and_then(Value::as_f64).unwrap();
        assert!((mttf - 20.0).abs() < 1e-12);
    }

    #[test]
    fn quick_cell_run_produces_finite_metrics() {
        use crate::{PolicyController, PolicyId};
        use thermorl_control::ControlConfig;
        use thermorl_sim::run_scenario;

        let mut matrix = scenario_matrix(3, true);
        let cell = &mut matrix[0];
        cell.sim.max_sim_time = 30.0; // keep the unit test cheap
        let controller = Box::new(PolicyController::new(
            PolicyId::Ucb1.build(ControlConfig::default(), 9),
        ));
        let out = run_scenario(&cell.scenario, controller, &cell.sim, 9);
        let m = cell_metrics(&cell.name, "ucb1", &out);
        assert!(m.mttf_years.is_finite() && m.mttf_years <= MTTF_CAP_YEARS);
        assert!(m.energy_j > 0.0);
        assert!(m.ips > 0.0);
        assert!(!m.completed, "30 s cap cannot finish the workload");
    }
}
