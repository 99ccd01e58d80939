//! The Ge & Qiu DAC'11 comparator (\[7\] in the paper).
//!
//! "A reinforcement learning algorithm is proposed in \[7\] to manage
//! performance-thermal trade-offs by sampling temperature data from the
//! on-board thermal sensors." Reconstructed from the DAC'14 paper's
//! description and critique of it:
//!
//! * state = the **instantaneous** hottest-core sensor temperature
//!   (discretised) — "actions are selected based on the instantaneous
//!   temperature from the sensor, which is not a true indication of the
//!   average temperature or thermal cycling";
//! * action = a **frequency level only** (userspace DVFS); no affinity
//!   control;
//! * the decision epoch *is* the sampling interval (no decoupling);
//! * reward = thermal headroom + performance term; no cycling model.
//!
//! The `modified` variant ("the technique of \[7\] is modified to consider
//! application switching using explicit indication from the application
//! layer", §6.2) resets its Q-table when the engine's explicit
//! `app_switched` flag fires.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermorl_platform::GovernorKind;
use thermorl_sim::{Actuation, Observation, ThermalController};

/// Tunables of the Ge & Qiu controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeConfig {
    /// Seconds between samples (= decisions; the technique has no epoch).
    pub sampling_interval: f64,
    /// Number of temperature bins.
    pub temp_bins: usize,
    /// Lower edge of the temperature range (°C).
    pub temp_min: f64,
    /// Upper edge of the temperature range (°C).
    pub temp_max: f64,
    /// Temperature the controller tries to stay below (°C).
    pub temp_target: f64,
    /// Weight of the thermal-headroom reward term.
    pub thermal_weight: f64,
    /// Weight of the performance reward term.
    pub perf_weight: f64,
    /// Learning rate decay per decision.
    pub alpha_decay: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Initial exploration rate (decays with α).
    pub epsilon0: f64,
    /// Number of frequency levels (OPP indices 0..n).
    pub num_freqs: usize,
}

impl Default for GeConfig {
    fn default() -> Self {
        GeConfig {
            sampling_interval: 3.0,
            temp_bins: 8,
            temp_min: 30.0,
            temp_max: 90.0,
            temp_target: 58.0,
            thermal_weight: 1.0,
            perf_weight: 1.0,
            alpha_decay: 0.99,
            gamma: 0.9,
            epsilon0: 0.5,
            num_freqs: 6,
        }
    }
}

/// The reconstructed Ge & Qiu DAC'11 controller.
#[derive(Debug, Clone)]
pub struct GeQiu2011Controller {
    cfg: GeConfig,
    q: Vec<f64>, // temp_bins × num_freqs
    alpha: f64,
    rng: StdRng,
    prev: Option<(usize, usize)>,
    modified: bool,
    name: &'static str,
    decisions: u64,
    resets: u64,
}

impl GeQiu2011Controller {
    /// Creates the standard variant (no application-switch signal).
    pub fn new(cfg: GeConfig, seed: u64) -> Self {
        Self::build(cfg, seed, false)
    }

    /// Creates the §6.2 "modified" variant that resets on the explicit
    /// application-switch signal.
    pub fn modified(cfg: GeConfig, seed: u64) -> Self {
        Self::build(cfg, seed, true)
    }

    fn build(cfg: GeConfig, seed: u64, modified: bool) -> Self {
        assert!(cfg.temp_bins >= 2, "need at least two temperature bins");
        assert!(cfg.num_freqs >= 2, "need at least two frequency levels");
        assert!(cfg.temp_max > cfg.temp_min, "bad temperature range");
        GeQiu2011Controller {
            q: vec![0.0; cfg.temp_bins * cfg.num_freqs],
            alpha: 1.0,
            rng: StdRng::seed_from_u64(seed ^ 0x6E20_1100_0000_0001),
            prev: None,
            modified,
            name: if modified {
                "ge2011-modified"
            } else {
                "ge2011"
            },
            decisions: 0,
            resets: 0,
            cfg,
        }
    }

    /// Decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Q-table resets performed (modified variant only).
    pub fn resets(&self) -> u64 {
        self.resets
    }

    fn temp_bin(&self, t: f64) -> usize {
        let span = self.cfg.temp_max - self.cfg.temp_min;
        let x = ((t - self.cfg.temp_min) / span * self.cfg.temp_bins as f64) as isize;
        x.clamp(0, self.cfg.temp_bins as isize - 1) as usize
    }

    fn qv(&self, s: usize, a: usize) -> f64 {
        self.q[s * self.cfg.num_freqs + a]
    }

    fn best(&self, s: usize) -> usize {
        let row = &self.q[s * self.cfg.num_freqs..(s + 1) * self.cfg.num_freqs];
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn reward(&self, temp: f64, freq_idx: usize, fps: f64, pc: f64) -> f64 {
        // Thermal headroom below the target, normalised; over-target is
        // increasingly negative. A small frequency bonus expresses the
        // performance-thermal trade-off when fps feedback is flat.
        let headroom = (self.cfg.temp_target - temp) / (self.cfg.temp_max - self.cfg.temp_min);
        let perf = if pc > 0.0 {
            ((fps - pc) / pc).clamp(-1.0, 1.0)
        } else {
            0.0
        };
        // [7] is a performance-thermal trade-off: below the thermal target
        // it prefers the highest frequency, which is what makes it blind to
        // thermal cycling on the cool codec workloads (Table 2's critique).
        let freq_frac = freq_idx as f64 / (self.cfg.num_freqs - 1) as f64;
        self.cfg.thermal_weight * headroom + self.cfg.perf_weight * perf + 0.3 * freq_frac
    }
}

impl ThermalController for GeQiu2011Controller {
    fn name(&self) -> &str {
        self.name
    }

    fn sampling_interval(&self) -> f64 {
        self.cfg.sampling_interval
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        if self.modified && obs.app_switched {
            self.q.fill(0.0);
            self.alpha = 1.0;
            self.prev = None;
            self.resets += 1;
        }
        let t_max = obs
            .sensor_temps
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let state = self.temp_bin(t_max);

        // Update the previous state-action pair with what it led to.
        if let Some((ps, pa)) = self.prev {
            let r = self.reward(t_max, pa, obs.fps, obs.perf_constraint);
            let max_next = (0..self.cfg.num_freqs)
                .map(|a| self.qv(state, a))
                .fold(f64::NEG_INFINITY, f64::max);
            let idx = ps * self.cfg.num_freqs + pa;
            self.q[idx] += self.alpha * (r + self.cfg.gamma * max_next - self.q[idx]);
        }

        // ε-greedy selection over frequency levels.
        let eps = self.cfg.epsilon0 * self.alpha;
        let action = if self.rng.gen::<f64>() < eps {
            self.rng.gen_range(0..self.cfg.num_freqs)
        } else {
            self.best(state)
        };
        self.alpha *= self.cfg.alpha_decay;
        self.prev = Some((state, action));
        self.decisions += 1;

        Some(Actuation {
            assignment: None, // [7] does not control thread placement
            governor: Some(GovernorKind::Userspace(action)),
            per_core_governors: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_platform::CounterSnapshot;

    fn obs(temps: &[f64; 4], fps: f64, switched: bool) -> Observation<'_> {
        Observation {
            time: 0.0,
            sensor_temps: temps,
            fps,
            perf_constraint: 1.0,
            app_name: "x",
            app_index: 0,
            app_switched: switched,
            counters: CounterSnapshot::default(),
            core_freq_ghz: &[3.4, 3.4, 3.4, 3.4],
        }
    }

    #[test]
    fn decides_every_sample() {
        let mut c = GeQiu2011Controller::new(GeConfig::default(), 1);
        let temps = [50.0; 4];
        for _ in 0..10 {
            let act = c.on_sample(&obs(&temps, 1.0, false)).unwrap();
            assert!(act.assignment.is_none(), "[7] never touches affinity");
            assert!(matches!(act.governor, Some(GovernorKind::Userspace(_))));
        }
        assert_eq!(c.decisions(), 10);
    }

    #[test]
    fn learns_to_slow_down_when_hot() {
        // Simple closed loop: higher frequency ⇒ hotter next sample.
        let mut c = GeQiu2011Controller::new(GeConfig::default(), 7);
        let mut freq = 5usize;
        let mut hist = Vec::new();
        for _ in 0..3000 {
            let t = 40.0 + 8.0 * freq as f64; // 3.4 GHz ⇒ 80 degC
            let temps = [t; 4];
            let act = c.on_sample(&obs(&temps, 1.2, false)).unwrap();
            if let Some(GovernorKind::Userspace(f)) = act.governor {
                freq = f;
            }
            hist.push(freq);
        }
        let late: f64 = hist[2500..].iter().map(|&f| f as f64).sum::<f64>() / 500.0;
        // The target of 55 degC corresponds to freq <= 2.
        assert!(late <= 3.0, "should settle on cool frequencies, got {late}");
    }

    #[test]
    fn modified_variant_resets_on_switch_signal() {
        let mut c = GeQiu2011Controller::modified(GeConfig::default(), 1);
        let temps = [50.0; 4];
        for _ in 0..50 {
            c.on_sample(&obs(&temps, 1.0, false));
        }
        let q_before: f64 = c.q.iter().map(|v| v.abs()).sum();
        assert!(q_before > 0.0);
        c.on_sample(&obs(&temps, 1.0, true));
        assert_eq!(c.resets(), 1);
        // α restarted.
        assert!(c.alpha > 0.9);
    }

    #[test]
    fn standard_variant_ignores_switch_signal() {
        let mut c = GeQiu2011Controller::new(GeConfig::default(), 1);
        let temps = [50.0; 4];
        for _ in 0..10 {
            c.on_sample(&obs(&temps, 1.0, true));
        }
        assert_eq!(c.resets(), 0);
    }

    #[test]
    fn temp_bins_clamp() {
        let c = GeQiu2011Controller::new(GeConfig::default(), 1);
        assert_eq!(c.temp_bin(-100.0), 0);
        assert_eq!(c.temp_bin(500.0), 7);
        assert!(c.temp_bin(55.0) < 8);
    }

    #[test]
    #[should_panic(expected = "temperature bins")]
    fn bad_config_rejected() {
        let cfg = GeConfig {
            temp_bins: 1,
            ..GeConfig::default()
        };
        let _ = GeQiu2011Controller::new(cfg, 1);
    }
}
