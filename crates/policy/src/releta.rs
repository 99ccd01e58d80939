//! A ReLeTA-style alternative state/reward formulation.
//!
//! ReLeTA (PAPERS.md) reformulates RL thermal management around the
//! *temperature signal itself*: states come from the current average
//! temperature rather than derived reliability hazards, and the reward
//! is the temperature **drop** achieved by the previous action. This
//! member keeps everything else identical to the paper agent — same
//! action set, same Q-table machinery ([`thermorl_control::QTable`]),
//! same decision-epoch cadence — so the tournament isolates exactly one
//! variable: the state/reward design.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermorl_control::{ActionSpace, ControlConfig, QTable, StateId};
use thermorl_json::Value;
use thermorl_sim::{Actuation, Observation};
use thermorl_telemetry as tel;

use crate::codec::{check_id, decision_to_value, last_decision_field};
use crate::window::HazardWindow;
use crate::{DecisionRecord, Policy, PolicyId};

/// Number of average-temperature state bins.
const TEMP_BINS: usize = 8;
/// Temperature range mapped across the bins (°C); readings clamp.
const TEMP_LO: f64 = 25.0;
const TEMP_HI: f64 = 95.0;
/// Fixed learning rate (ReLeTA uses a constant α).
const ALPHA: f64 = 0.3;
/// Fixed exploration probability.
const EPSILON: f64 = 0.1;
/// Reward normalisation: °C of drop worth one unit of reward.
const DROP_SCALE_C: f64 = 10.0;

/// The ReLeTA-style temperature-state Q-learner.
pub struct ReletaPolicy {
    cfg: ControlConfig,
    name: String,
    actions: Option<ActionSpace>,
    window: HazardWindow,
    qtable: Option<QTable>,
    rng: StdRng,
    prev: Option<(usize, usize)>,
    prev_avg: Option<f64>,
    epochs: u64,
    last: Option<DecisionRecord>,
    started: Option<(usize, usize)>,
}

impl ReletaPolicy {
    /// Creates the policy; the RNG stream is derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid policy configuration");
        let window = HazardWindow::new(cfg.epoch_samples, cfg.sampling_interval, cfg.analyzer);
        ReletaPolicy {
            actions: cfg.action_space.clone(),
            name: PolicyId::Releta.as_str().to_string(),
            window,
            qtable: None,
            rng: StdRng::seed_from_u64(seed ^ 0x2E1E_7A2E_1E7A_2E1E),
            prev: None,
            prev_avg: None,
            epochs: 0,
            last: None,
            started: None,
            cfg,
        }
    }

    /// The temperature-bin state of an epoch's average temperature.
    fn temp_state(avg_c: f64) -> usize {
        let frac = ((avg_c - TEMP_LO) / (TEMP_HI - TEMP_LO)).clamp(0.0, 1.0);
        ((frac * TEMP_BINS as f64) as usize).min(TEMP_BINS - 1)
    }
}

impl Policy for ReletaPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::Releta
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
        let n = self.actions.as_ref().expect("just set").len();
        self.qtable = Some(QTable::new(TEMP_BINS, n));
    }

    fn observe(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let stats = self.window.push(obs.sensor_temps)?;
        let n = self
            .actions
            .as_ref()
            .expect("on_start must run before sampling")
            .len();
        let state = Self::temp_state(stats.avg_c);

        // Reward of the previous action: the temperature drop it bought.
        let mut granted = 0.0;
        if let (Some((ps, pa)), Some(prev_avg)) = (self.prev, self.prev_avg) {
            let r = (prev_avg - stats.avg_c) / DROP_SCALE_C;
            granted = r;
            if let Some(q) = &mut self.qtable {
                q.update(StateId(ps), pa, r, ALPHA, self.cfg.gamma, StateId(state));
            }
        }

        let action = if (self.epochs as usize) < n {
            // Initial sweep seeds every action's Q entry.
            self.epochs as usize % n
        } else if self.rng.gen::<f64>() < EPSILON {
            self.rng.gen_range(0..n)
        } else {
            self.qtable
                .as_ref()
                .expect("table exists after on_start")
                .best_action(StateId(state))
                .0
        };

        self.last = Some(DecisionRecord {
            action,
            stress: stats.stress,
            aging: stats.aging,
            reward: granted,
            alpha: ALPHA,
        });
        self.prev = Some((state, action));
        self.prev_avg = Some(stats.avg_c);
        self.epochs += 1;
        tel::counter!(PolicyId::Releta.counter_name());

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
        let qtable = self.qtable.as_ref()?;
        let mut obj = Value::object();
        obj.set("id", PolicyId::Releta.as_str())
            .set("name", self.name.as_str())
            .set("num_threads", num_threads)
            .set("num_cores", num_cores)
            .set("qtable", qtable.snapshot().as_slice());
        if let Some((s, a)) = self.prev {
            obj.set("prev", &[s, a][..]);
        }
        if let Some(avg) = self.prev_avg {
            obj.set("prev_avg", avg);
        }
        obj.set("epochs", self.epochs)
            .set("rng_state", self.rng.state())
            .set("window", self.window.to_value());
        if let Some(d) = &self.last {
            obj.set("last_decision", decision_to_value(d));
        }
        Some(obj)
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        check_id(v, PolicyId::Releta.as_str())?;
        self.on_start(v.field("num_threads")?, v.field("num_cores")?);
        let table: Vec<f64> = v.field("qtable")?;
        let q = self.qtable.as_mut().expect("on_start builds the table");
        if table.len() != q.snapshot().len() {
            return Err(format!(
                "snapshot table size {} does not match {}",
                table.len(),
                q.snapshot().len()
            ));
        }
        q.restore(&table);
        self.prev = match v.opt_field::<Vec<usize>>("prev")?.as_deref() {
            None => None,
            Some(&[s, a]) => Some((s, a)),
            Some(_) => return Err("\"prev\" must have two entries".into()),
        };
        self.prev_avg = v.opt_field("prev_avg")?;
        self.epochs = v.field("epochs")?;
        self.rng = StdRng::from_state(v.field("rng_state")?);
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

    #[test]
    fn temp_states_cover_the_range() {
        assert_eq!(ReletaPolicy::temp_state(0.0), 0);
        assert_eq!(ReletaPolicy::temp_state(200.0), TEMP_BINS - 1);
        let mid = ReletaPolicy::temp_state((TEMP_LO + TEMP_HI) / 2.0);
        assert!(mid > 0 && mid < TEMP_BINS - 1);
    }

    #[test]
    fn rewards_temperature_drops() {
        let cfg = ControlConfig {
            epoch_samples: 2,
            ..ControlConfig::default()
        };
        let mut p = ReletaPolicy::new(cfg, 3);
        p.on_start(6, 4);
        let freqs = [3.4; 4];
        // Hot epoch, then a cooler one: the second decision's reward is
        // positive (temperature fell).
        for &t in &[70.0, 70.0, 50.0, 50.0] {
            let temps = [t; 4];
            p.observe(&obs(&temps, &freqs, 0.0));
        }
        let d = p.last_decision().expect("two epochs decided");
        assert!(d.reward > 0.0, "drop must be rewarded, got {}", d.reward);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let cfg = ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        };
        let mut donor = ReletaPolicy::new(cfg.clone(), 5);
        donor.on_start(6, 4);
        let freqs = [3.4; 4];
        let step = |p: &mut ReletaPolicy, k: u64| {
            let t = 45.0 + (k % 9) as f64;
            let temps = [t, t + 2.0, t - 2.0, t];
            p.observe(&obs(&temps, &freqs, k as f64 * 3.0))
        };
        for k in 0..50 {
            step(&mut donor, k);
        }
        let line = donor.snapshot().expect("started").to_json();
        let mut twin = ReletaPolicy::new(cfg, 0);
        twin.restore(&Value::parse(&line).expect("parse"))
            .expect("restore");
        for k in 50..150 {
            let a = step(&mut donor, k);
            let b = step(&mut twin, k);
            assert_eq!(a, b, "diverged at sample {k}");
        }
        assert_eq!(donor.epochs(), twin.epochs());
        assert_eq!(
            donor.qtable.as_ref().unwrap().snapshot(),
            twin.qtable.as_ref().unwrap().snapshot()
        );
    }
}
