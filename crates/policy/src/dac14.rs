//! The paper agent re-homed behind the [`Policy`] trait.
//!
//! [`Dac14Policy`] is a pure delegation shell around
//! [`DasDac14Controller`]: every observation goes straight to the
//! controller's `on_sample`, snapshots are the controller's own
//! [`thermorl_control::AgentSnapshot`] JSON, and restore rebuilds the
//! controller through its own `restore` path. Nothing touches the
//! controller's RNG, Q-tables, or detector — the golden-decision test in
//! `tests/golden.rs` pins the decision stream, epoch counters, and
//! Q-table bits identical to driving the raw controller.

use thermorl_control::{AgentSnapshot, ControlConfig, DasDac14Controller};
use thermorl_json::Value;
use thermorl_sim::{Actuation, Observation, ThermalController};
use thermorl_telemetry as tel;

use crate::{DecisionRecord, Policy, PolicyId};

/// The DAC'14 tabular Q-learning agent as a zoo member.
pub struct Dac14Policy {
    cfg: ControlConfig,
    agent: DasDac14Controller,
}

impl Dac14Policy {
    /// Creates the paper agent under `cfg` (seed handling identical to
    /// constructing [`DasDac14Controller`] directly).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, seed: u64) -> Self {
        let agent = DasDac14Controller::new(cfg.clone(), seed);
        Dac14Policy { cfg, agent }
    }

    /// The wrapped controller (tests compare its state against a raw
    /// twin).
    pub fn agent(&self) -> &DasDac14Controller {
        &self.agent
    }
}

impl Policy for Dac14Policy {
    fn id(&self) -> PolicyId {
        PolicyId::DasDac14
    }

    fn name(&self) -> &str {
        self.agent.name()
    }

    fn set_name(&mut self, name: String) {
        self.agent.rename(name);
    }

    fn sampling_interval(&self) -> f64 {
        ThermalController::sampling_interval(&self.agent)
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.agent.on_start(num_threads, num_cores);
    }

    fn observe(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let before = self.agent.epochs();
        let act = self.agent.on_sample(obs);
        if self.agent.epochs() > before {
            tel::counter!(PolicyId::DasDac14.counter_name());
        }
        act
    }

    fn epochs(&self) -> u64 {
        self.agent.epochs()
    }

    fn last_decision(&self) -> Option<DecisionRecord> {
        self.agent.last_decision().map(|d| DecisionRecord {
            action: d.action,
            stress: d.stress,
            aging: d.aging,
            reward: d.reward,
            alpha: d.alpha,
        })
    }

    fn snapshot(&self) -> Option<Value> {
        self.agent.snapshot().map(|s| s.to_value())
    }

    fn restore(&mut self, v: &Value) -> Result<(), String> {
        let snap = AgentSnapshot::from_value(v)?;
        self.agent = DasDac14Controller::restore(self.cfg.clone(), &snap);
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
    fn snapshot_restore_resumes_bit_identically() {
        let cfg = ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        };
        let mut donor = Dac14Policy::new(cfg.clone(), 11);
        donor.on_start(6, 4);
        let freqs = [3.4; 4];
        for k in 0..70u64 {
            let t = 44.0 + (k % 6) as f64;
            let temps = [t, t + 1.0, t - 1.0, t];
            donor.observe(&obs(&temps, &freqs, k as f64 * 3.0));
        }
        let line = donor.snapshot().expect("started").to_json();
        let mut twin = Dac14Policy::new(cfg, 0);
        twin.restore(&Value::parse(&line).expect("parse"))
            .expect("restore");
        for k in 70..140u64 {
            let t = if k < 100 { 46.0 } else { 71.0 };
            let temps = [t, t + 1.0, t - 1.0, t];
            let a = donor.observe(&obs(&temps, &freqs, k as f64 * 3.0));
            let b = twin.observe(&obs(&temps, &freqs, k as f64 * 3.0));
            assert_eq!(a, b, "diverged at sample {k}");
        }
        assert_eq!(donor.epochs(), twin.epochs());
        assert_eq!(donor.last_decision(), twin.last_decision());
    }

    #[test]
    fn rename_is_metadata_only() {
        let mut p = Dac14Policy::new(ControlConfig::default(), 1);
        p.set_name("serve:die-0".into());
        assert_eq!(p.name(), "serve:die-0");
    }
}
