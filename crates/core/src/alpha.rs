//! The learning-rate schedule and the three learning phases (§5.3).
//!
//! "To facilitate transition between the three phases of the algorithm, an
//! exponentially decreasing function is selected for the α value":
//! exploration (α close to 1, arbitrary actions), exploration-exploitation
//! (greedy actions, partial updates), exploitation (greedy actions,
//! negligible updates).

/// Which phase the agent is in, derived from the current α.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LearningPhase {
    /// α above the exploration threshold: pick actions arbitrarily.
    Exploration,
    /// Intermediate α: greedy with ε-greedy exploration, partial updates.
    ExplorationExploitation,
    /// α below the exploitation threshold: greedy, (almost) frozen table.
    Exploitation,
}

/// Exponentially decaying learning rate with phase thresholds.
///
/// # Example
///
/// ```
/// use thermorl_control::{AlphaSchedule, LearningPhase};
///
/// let mut a = AlphaSchedule::default();
/// assert_eq!(a.phase(), LearningPhase::Exploration);
/// for _ in 0..200 {
///     a.step();
/// }
/// assert_eq!(a.phase(), LearningPhase::Exploitation);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaSchedule {
    alpha: f64,
    /// Multiplicative decay applied by `UpdateLearningRate` each epoch.
    pub decay: f64,
    /// α above this ⇒ exploration phase.
    pub explore_threshold: f64,
    /// α below this ⇒ exploitation phase.
    pub exploit_threshold: f64,
    /// The α restored on *intra*-application variation (`α_exp`, the value
    /// from the end of the exploration phase).
    pub alpha_exp: f64,
}

impl Default for AlphaSchedule {
    fn default() -> Self {
        AlphaSchedule {
            alpha: 1.0,
            decay: 0.94,
            explore_threshold: 0.6,
            exploit_threshold: 0.1,
            alpha_exp: 0.45,
        }
    }
}

impl AlphaSchedule {
    /// Creates a schedule with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are not ordered `0 < exploit < explore < 1` or
    /// decay is outside `(0, 1)`.
    pub fn new(decay: f64, explore_threshold: f64, exploit_threshold: f64, alpha_exp: f64) -> Self {
        assert!(decay > 0.0 && decay < 1.0, "decay must be in (0,1)");
        assert!(
            0.0 < exploit_threshold
                && exploit_threshold < explore_threshold
                && explore_threshold < 1.0,
            "thresholds must satisfy 0 < exploit < explore < 1"
        );
        AlphaSchedule {
            alpha: 1.0,
            decay,
            explore_threshold,
            exploit_threshold,
            alpha_exp,
        }
    }

    /// Current α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current phase.
    pub fn phase(&self) -> LearningPhase {
        if self.alpha > self.explore_threshold {
            LearningPhase::Exploration
        } else if self.alpha < self.exploit_threshold {
            LearningPhase::Exploitation
        } else {
            LearningPhase::ExplorationExploitation
        }
    }

    /// One `UpdateLearningRate` step: decays α and reports whether this
    /// step *left* the exploration phase (the moment the `Q_exp` snapshot
    /// is taken, §5.4).
    pub fn step(&mut self) -> bool {
        let was_exploring = self.phase() == LearningPhase::Exploration;
        self.alpha *= self.decay;
        was_exploring && self.phase() != LearningPhase::Exploration
    }

    /// Inter-application reset: α back to 1, learning restarts (§5.4).
    pub fn reset(&mut self) {
        self.alpha = 1.0;
    }

    /// Intra-application adaptation: α back to `α_exp` (§5.4).
    pub fn restore_exp(&mut self) {
        self.alpha = self.alpha_exp;
    }

    /// Sets α directly, clamped to `[0, 1]` — the snapshot-restore path
    /// (a serialized agent resumes mid-decay without replaying steps).
    pub fn restore_alpha(&mut self, alpha: f64) {
        self.alpha = alpha.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_in_order() {
        let mut a = AlphaSchedule::default();
        let mut seen = vec![a.phase()];
        for _ in 0..100 {
            a.step();
            if *seen.last().unwrap() != a.phase() {
                seen.push(a.phase());
            }
        }
        assert_eq!(
            seen,
            vec![
                LearningPhase::Exploration,
                LearningPhase::ExplorationExploitation,
                LearningPhase::Exploitation
            ]
        );
    }

    #[test]
    fn step_signals_end_of_exploration_once() {
        let mut a = AlphaSchedule::default();
        let mut signals = 0;
        for _ in 0..100 {
            if a.step() {
                signals += 1;
            }
        }
        assert_eq!(signals, 1);
    }

    #[test]
    fn reset_and_restore() {
        let mut a = AlphaSchedule::default();
        for _ in 0..50 {
            a.step();
        }
        assert_eq!(a.phase(), LearningPhase::Exploitation);
        a.restore_exp();
        assert_eq!(a.alpha(), 0.45);
        assert_eq!(a.phase(), LearningPhase::ExplorationExploitation);
        a.reset();
        assert_eq!(a.alpha(), 1.0);
        assert_eq!(a.phase(), LearningPhase::Exploration);
        // After a reset the end-of-exploration signal can fire again.
        let mut signals = 0;
        for _ in 0..100 {
            if a.step() {
                signals += 1;
            }
        }
        assert_eq!(signals, 1);
    }

    #[test]
    fn alpha_decays_exponentially() {
        let mut a = AlphaSchedule::default();
        a.step();
        assert!((a.alpha() - a.decay).abs() < 1e-12);
        a.step();
        assert!((a.alpha() - a.decay * a.decay).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn bad_thresholds_rejected() {
        let _ = AlphaSchedule::new(0.9, 0.1, 0.6, 0.5);
    }
}
