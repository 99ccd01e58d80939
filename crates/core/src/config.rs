//! Configuration of the proposed controller.

use thermorl_platform::OppTable;
use thermorl_reliability::ReliabilityAnalyzer;

use crate::action::ActionSpace;
use crate::alpha::AlphaSchedule;
use crate::ma::MovingAverageDetector;
use crate::reward::RewardFunction;
use crate::state::StateSpace;

/// All knobs of [`crate::DasDac14Controller`], with paper-informed
/// defaults: a 3-second temperature sampling interval (the Figure 6
/// trade-off point), a 10-sample (30 s) decision epoch (the Figure 7
/// trade-off region), a 4×4 state space and the restricted ~13-action
/// space of §5.1.
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Temperature sampling interval in seconds (decoupled from the
    /// decision epoch — the paper's second contribution).
    pub sampling_interval: f64,
    /// Number of sensor samples per decision epoch (`|TRec|`).
    pub epoch_samples: usize,
    /// The (stress, aging) discretisation.
    pub state_space: StateSpace,
    /// Explicit action space; `None` builds
    /// [`ActionSpace::paper_default`] once thread/core counts are known.
    pub action_space: Option<ActionSpace>,
    /// OPP table used when building the default action space.
    pub opp_table: OppTable,
    /// Reward function parameters (Eq. 8).
    pub reward: RewardFunction,
    /// Learning-rate schedule (§5.3).
    pub alpha: AlphaSchedule,
    /// Discount rate γ of Eq. 7.
    pub gamma: f64,
    /// ε-greedy exploration scale in the mixed phase: ε = scale × α.
    pub epsilon_scale: f64,
    /// Moving-average change detector template (§5.4).
    pub detector: MovingAverageDetector,
    /// Enables autonomous intra/inter detection. Disable to ablate (the
    /// agent then behaves like a single-application learner).
    pub detect_changes: bool,
    /// Keeps the second (snapshot) Q-table and restores it on intra
    /// changes. Disable to ablate the dual-table mechanism.
    pub dual_q_tables: bool,
    /// Reliability models used to turn the epoch's sensor window into
    /// (stress, aging) hazards.
    pub analyzer: ReliabilityAnalyzer,
    /// Consecutive epochs with an unchanged greedy policy required to
    /// declare convergence (Figure 8's iteration metric).
    pub stability_epochs: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            sampling_interval: 3.0,
            epoch_samples: 10,
            state_space: StateSpace::default(),
            action_space: None,
            opp_table: OppTable::intel_quad(),
            reward: RewardFunction::default(),
            alpha: AlphaSchedule::default(),
            gamma: 0.6,
            epsilon_scale: 0.4,
            detector: MovingAverageDetector::default(),
            detect_changes: true,
            dual_q_tables: true,
            analyzer: ReliabilityAnalyzer::default(),
            stability_epochs: 5,
        }
    }
}

impl ControlConfig {
    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.sampling_interval <= 0.0 {
            return Err("sampling interval must be positive".into());
        }
        if self.epoch_samples == 0 {
            return Err("decision epoch needs at least one sample".into());
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must lie in [0, 1]".into());
        }
        if self.epsilon_scale < 0.0 || self.epsilon_scale > 1.0 {
            return Err("epsilon scale must lie in [0, 1]".into());
        }
        if self.stability_epochs == 0 {
            return Err("stability window must be at least one epoch".into());
        }
        Ok(())
    }

    /// The decision-epoch length in seconds.
    pub fn decision_epoch(&self) -> f64 {
        self.sampling_interval * self.epoch_samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let c = ControlConfig::default();
        assert!(c.validate().is_ok());
        assert!((c.decision_epoch() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_are_caught() {
        let bad = |patch: fn(&mut ControlConfig)| {
            let mut c = ControlConfig::default();
            patch(&mut c);
            c
        };
        assert!(bad(|c| c.sampling_interval = 0.0).validate().is_err());
        assert!(bad(|c| c.epoch_samples = 0).validate().is_err());
        assert!(bad(|c| c.gamma = 1.5).validate().is_err());
        assert!(bad(|c| c.epsilon_scale = -0.1).validate().is_err());
        assert!(bad(|c| c.stability_epochs = 0).validate().is_err());
    }
}
