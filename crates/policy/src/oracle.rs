//! A greedy thermal oracle that reads the RC model directly.
//!
//! Learning policies estimate action values from observed rewards; this
//! baseline cheats. At `on_start` it builds the same RC die model the
//! simulator integrates, predicts each action's steady-state peak
//! temperature (thread packing → per-core utilisation, governor → the
//! cubic `(f/f_max)³` dynamic-power scaling) and a normalised throughput
//! estimate, and caches the table. Each decision epoch it then trades
//! predicted heat against predicted throughput with a weight that
//! collapses to *pure coolest action* as the measured window peak
//! approaches [`HOT_C`]. No RNG, no learning — an upper bound on what
//! model knowledge alone buys, and the sanity floor every learner
//! should beat on energy-vs-MTTF after convergence.

use thermorl_control::{ActionSpace, ControlConfig};
use thermorl_json::Value;
use thermorl_platform::GovernorKind;
use thermorl_sim::{Actuation, Observation};
use thermorl_telemetry as tel;
use thermorl_thermal::{DieModel, DieParams, Floorplan};

use crate::codec::{check_id, decision_to_value, last_decision_field};
use crate::window::HazardWindow;
use crate::{DecisionRecord, Policy, PolicyId};

/// Below this measured window peak (°C) the oracle weighs throughput at
/// full strength.
pub const COOL_C: f64 = 55.0;
/// At or above this measured window peak (°C) the oracle picks the
/// predicted-coolest action outright.
pub const HOT_C: f64 = 75.0;
/// Full-strength throughput weight, in predicted-°C per unit of
/// normalised throughput.
const PERF_WEIGHT_C: f64 = 30.0;
/// Per-core idle power (W) of the prediction model.
const IDLE_W: f64 = 2.0;
/// Per-core active power (W) at full utilisation and top frequency.
const ACTIVE_W: f64 = 8.0;

/// Per-action prediction: steady-state peak and normalised throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Prediction {
    peak_c: f64,
    throughput: f64,
}

/// The greedy RC-model oracle.
pub struct OraclePolicy {
    cfg: ControlConfig,
    name: String,
    actions: Option<ActionSpace>,
    window: HazardWindow,
    plan: Vec<Prediction>,
    epochs: u64,
    last: Option<DecisionRecord>,
    started: Option<(usize, usize)>,
}

impl OraclePolicy {
    /// Creates the oracle. Deterministic; `_seed` is accepted for
    /// registry uniformity and ignored.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, _seed: u64) -> Self {
        cfg.validate().expect("invalid policy configuration");
        let window = HazardWindow::new(cfg.epoch_samples, cfg.sampling_interval, cfg.analyzer);
        OraclePolicy {
            actions: cfg.action_space.clone(),
            name: PolicyId::Oracle.as_str().to_string(),
            window,
            plan: Vec::new(),
            epochs: 0,
            last: None,
            started: None,
            cfg,
        }
    }

    /// The frequency (GHz) a governor effectively runs at, for the
    /// prediction model (dynamic governors are approximated by their
    /// characteristic operating point).
    fn governor_freq(&self, kind: GovernorKind) -> f64 {
        let opps = &self.cfg.opp_table;
        let max = opps.get(opps.max_index()).freq_ghz;
        match kind {
            GovernorKind::Ondemand | GovernorKind::Performance => max,
            GovernorKind::Conservative => opps.get(opps.len() / 2).freq_ghz,
            GovernorKind::Powersave => opps.get(opps.min_index()).freq_ghz,
            GovernorKind::Userspace(i) => opps.get(i.min(opps.max_index())).freq_ghz,
            GovernorKind::Schedutil => 0.75 * max,
        }
    }

    /// Predicts every action's steady-state peak and throughput on a
    /// fresh RC model of `num_cores` cores.
    fn predict(&self, num_cores: usize) -> Vec<Prediction> {
        let actions = self.actions.as_ref().expect("on_start builds actions");
        let opps = &self.cfg.opp_table;
        let f_max = opps.get(opps.max_index()).freq_ghz;
        let mut model = DieModel::new(Floorplan::grid(num_cores, 1), DieParams::default());
        let mut plan = Vec::with_capacity(actions.len());
        for action in actions.iter() {
            // Thread packing → expected per-core load: each thread
            // spreads evenly over its affinity mask.
            let mut load = vec![0.0f64; num_cores];
            for mask in &action.assignment.masks {
                let cores = mask.cores();
                if cores.is_empty() {
                    continue;
                }
                let share = 1.0 / cores.len() as f64;
                for c in cores {
                    if c < num_cores {
                        load[c] += share;
                    }
                }
            }
            let mut throughput = 0.0;
            for (core, &l) in load.iter().enumerate() {
                let kind = action
                    .per_core_governors
                    .as_ref()
                    .and_then(|g| g.get(core).copied())
                    .unwrap_or(action.governor);
                let f = self.governor_freq(kind);
                let util = l.min(1.0);
                let scale = (f / f_max).powi(3);
                model.set_core_power(core, IDLE_W + ACTIVE_W * util * scale);
                throughput += util * f;
            }
            model.settle();
            plan.push(Prediction {
                peak_c: model.max_core_temperature(),
                throughput,
            });
        }
        // Normalise throughput against the fastest action.
        let best = plan
            .iter()
            .map(|p| p.throughput)
            .fold(f64::NEG_INFINITY, f64::max)
            .max(1e-12);
        for p in &mut plan {
            p.throughput /= best;
        }
        plan
    }

    /// The action chosen for a window that peaked at `peak_now` °C.
    fn choose(&self, peak_now: f64) -> usize {
        // Hot window → heat dominates; cool window → throughput matters.
        let urgency = ((HOT_C - peak_now) / (HOT_C - COOL_C)).clamp(0.0, 1.0);
        let weight = PERF_WEIGHT_C * urgency;
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (i, p) in self.plan.iter().enumerate() {
            let score = p.peak_c - weight * p.throughput;
            if score < best_score {
                best = i;
                best_score = score;
            }
        }
        best
    }
}

impl Policy for OraclePolicy {
    fn id(&self) -> PolicyId {
        PolicyId::Oracle
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn set_name(&mut self, name: String) {
        self.name = name;
    }

    fn sampling_interval(&self) -> f64 {
        self.cfg.sampling_interval
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.started = Some((num_threads, num_cores));
        if self.actions.is_none() {
            self.actions = Some(ActionSpace::paper_default(
                num_threads,
                num_cores,
                &self.cfg.opp_table,
            ));
        }
        self.plan = self.predict(num_cores);
    }

    fn observe(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let stats = self.window.push(obs.sensor_temps)?;
        let action = self.choose(stats.peak_c);
        self.last = Some(DecisionRecord {
            action,
            stress: stats.stress,
            aging: stats.aging,
            reward: 0.0,
            alpha: 0.0,
        });
        self.epochs += 1;
        tel::counter!(PolicyId::Oracle.counter_name());
        let act = self
            .actions
            .as_ref()
            .expect("on_start must run before sampling")
            .get(action);
        Some(Actuation {
            assignment: Some(act.assignment.clone()),
            governor: Some(act.governor),
            per_core_governors: act.per_core_governors.clone(),
        })
    }

    fn epochs(&self) -> u64 {
        self.epochs
    }

    fn last_decision(&self) -> Option<DecisionRecord> {
        self.last
    }

    fn snapshot(&self) -> Option<Value> {
        let (num_threads, num_cores) = self.started?;
        let mut obj = Value::object();
        obj.set("id", PolicyId::Oracle.as_str())
            .set("name", self.name.as_str())
            .set("num_threads", num_threads)
            .set("num_cores", num_cores)
            .set("epochs", self.epochs)
            .set("window", self.window.to_value());
        if let Some(d) = &self.last {
            obj.set("last_decision", decision_to_value(d));
        }
        Some(obj)
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        check_id(v, PolicyId::Oracle.as_str())?;
        self.on_start(v.field("num_threads")?, v.field("num_cores")?);
        self.epochs = v.field("epochs")?;
        self.window.restore(v.field("window")?)?;
        self.last = last_decision_field(v)?;
        self.name = v.field("name")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_platform::CounterSnapshot;

    fn obs<'a>(temps: &'a [f64], freqs: &'a [f64], time: f64) -> Observation<'a> {
        Observation {
            time,
            sensor_temps: temps,
            fps: 1.0,
            perf_constraint: 0.8,
            app_name: "test",
            app_index: 0,
            app_switched: false,
            counters: CounterSnapshot::default(),
            core_freq_ghz: freqs,
        }
    }

    fn cfg() -> ControlConfig {
        ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        }
    }

    #[test]
    fn predictions_order_sensibly() {
        let mut p = OraclePolicy::new(cfg(), 0);
        p.on_start(6, 4);
        // Hotter predicted peaks should come with higher throughput in
        // general; at minimum the plan must be finite and non-trivial.
        assert!(p.plan.len() >= 2);
        for pred in &p.plan {
            assert!(pred.peak_c.is_finite());
            assert!((0.0..=1.0).contains(&pred.throughput));
        }
        assert!(p.plan.iter().any(|x| x.throughput == 1.0));
    }

    #[test]
    fn hot_window_picks_cooler_action_than_cool_window() {
        let mut p = OraclePolicy::new(cfg(), 0);
        p.on_start(6, 4);
        let cool = p.choose(45.0);
        let hot = p.choose(90.0);
        assert!(
            p.plan[hot].peak_c <= p.plan[cool].peak_c,
            "hot window must not pick a hotter plan: {:?} vs {:?}",
            p.plan[hot],
            p.plan[cool]
        );
        // The hot choice is the predicted-coolest action outright.
        let coolest = p
            .plan
            .iter()
            .map(|x| x.peak_c)
            .fold(f64::INFINITY, f64::min);
        assert!((p.plan[hot].peak_c - coolest).abs() < 1e-12);
    }

    #[test]
    fn deterministic_and_snapshot_exact() {
        let drive = |p: &mut OraclePolicy, from: u64, to: u64| {
            let freqs = [3.4; 4];
            let mut actions = Vec::new();
            for k in from..to {
                let t = 50.0 + 20.0 * ((k / 8) % 2) as f64;
                let temps = [t, t + 1.0, t - 1.0, t];
                if p.observe(&obs(&temps, &freqs, k as f64 * 3.0)).is_some() {
                    actions.push(p.last_decision().unwrap().action);
                }
            }
            actions
        };
        let mut donor = OraclePolicy::new(cfg(), 0);
        donor.on_start(6, 4);
        drive(&mut donor, 0, 30);
        let line = donor.snapshot().expect("started").to_json();
        let mut twin = OraclePolicy::new(cfg(), 99);
        twin.restore(&Value::parse(&line).expect("parse"))
            .expect("restore");
        assert_eq!(drive(&mut donor, 30, 90), drive(&mut twin, 30, 90));
        assert_eq!(donor.epochs(), twin.epochs());
    }
}
