//! Moving-average workload-change detection (§5.4).
//!
//! At the start of every decision epoch the agent updates moving averages
//! of the stress and aging hazards. The *relative* change
//! `ΔMA = |MA_i − MA_{i−1}| / min(MA_i, MA_{i−1})` between consecutive
//! epochs is classified against two thresholds (`L` and `U`) per quantity
//! (relative changes make one threshold pair work across the hot and cool
//! ends of the hazard scale):
//!
//! * `L ≤ ΔMA < U` on either quantity ⇒ **intra**-application variation
//!   (restore `Q_exp`, set `α ← α_exp`),
//! * `ΔMA ≥ U` on either quantity ⇒ **inter**-application variation
//!   (reset the Q-table, `α ← 1`, relearn).
//!
//! This is the mechanism that lets the proposed controller detect
//! application switches *autonomously*, without the explicit signal the
//! modified Ge et al. baseline needs.

use std::collections::VecDeque;

/// Classification of a workload change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadChange {
    /// Below both lower thresholds: steady workload.
    None,
    /// Between thresholds: intra-application variation.
    Intra,
    /// Beyond an upper threshold: inter-application switch.
    Inter,
}

/// Detector configuration and state.
///
/// # Example
///
/// ```
/// use thermorl_control::{MovingAverageDetector, WorkloadChange};
///
/// let mut d = MovingAverageDetector::new(3, 0.5, 2.5, 0.4, 2.0);
/// // Steady stream: no change.
/// for _ in 0..5 {
///     assert_eq!(d.observe(1.0, 1.0), WorkloadChange::None);
/// }
/// // A big jump in stress: inter-application switch.
/// assert_eq!(d.observe(15.0, 1.0), WorkloadChange::Inter);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MovingAverageDetector {
    window: usize,
    stress_lower: f64,
    stress_upper: f64,
    aging_lower: f64,
    aging_upper: f64,
    stress_hist: VecDeque<f64>,
    aging_hist: VecDeque<f64>,
    prev_ma: Option<(f64, f64)>,
}

impl Default for MovingAverageDetector {
    /// Thresholds sized for the benchmark suite with a 3-epoch window.
    /// The aging axis carries the detection (applications differ strongly
    /// in average temperature, and the within-application aging signal is
    /// quiet at ≤ 15 % relative noise, while a switch moves the moving
    /// average by ≥ 70 % within a couple of epochs); the stress axis is
    /// kept loose because window-level cycling hazards are noisy even
    /// within one application.
    fn default() -> Self {
        MovingAverageDetector::new(3, 0.5, 1.5, 0.25, 0.7)
    }
}

impl MovingAverageDetector {
    /// Creates a detector with moving-average `window` (epochs) and the
    /// `(L, U)` thresholds for stress and aging.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or a lower threshold is not below its upper.
    pub fn new(
        window: usize,
        stress_lower: f64,
        stress_upper: f64,
        aging_lower: f64,
        aging_upper: f64,
    ) -> Self {
        assert!(window > 0, "window must be at least one epoch");
        assert!(
            stress_lower < stress_upper && aging_lower < aging_upper,
            "lower thresholds must be below upper thresholds"
        );
        MovingAverageDetector {
            window,
            stress_lower,
            stress_upper,
            aging_lower,
            aging_upper,
            stress_hist: VecDeque::with_capacity(window + 1),
            aging_hist: VecDeque::with_capacity(window + 1),
            prev_ma: None,
        }
    }

    /// Current moving averages `(MA_s, MA_a)`, if any sample arrived.
    pub fn current(&self) -> Option<(f64, f64)> {
        if self.stress_hist.is_empty() {
            None
        } else {
            Some((
                self.stress_hist.iter().sum::<f64>() / self.stress_hist.len() as f64,
                self.aging_hist.iter().sum::<f64>() / self.aging_hist.len() as f64,
            ))
        }
    }

    /// Feeds one epoch's hazards; returns the classification of
    /// `ΔMA = |MA_i − MA_{i−1}|` against the thresholds.
    pub fn observe(&mut self, stress: f64, aging: f64) -> WorkloadChange {
        self.stress_hist.push_back(stress);
        self.aging_hist.push_back(aging);
        if self.stress_hist.len() > self.window {
            self.stress_hist.pop_front();
            self.aging_hist.pop_front();
        }
        let ma = self.current().expect("history is non-empty after a push");
        let change = match self.prev_ma {
            None => WorkloadChange::None,
            Some((ps, pa)) => {
                // Relative changes: normalise by the smaller of the two
                // levels (floored so near-zero hazards don't explode).
                let floor = 0.2;
                let ds = (ma.0 - ps).abs() / ma.0.min(ps).max(floor);
                let da = (ma.1 - pa).abs() / ma.1.min(pa).max(floor);
                if ds >= self.stress_upper || da >= self.aging_upper {
                    WorkloadChange::Inter
                } else if (self.stress_lower..self.stress_upper).contains(&ds)
                    || (self.aging_lower..self.aging_upper).contains(&da)
                {
                    WorkloadChange::Intra
                } else {
                    WorkloadChange::None
                }
            }
        };
        self.prev_ma = Some(ma);
        change
    }

    /// Clears history (called after an inter-application reset so the jump
    /// is not re-detected on the next epoch).
    pub fn reset(&mut self) {
        self.stress_hist.clear();
        self.aging_hist.clear();
        self.prev_ma = None;
    }

    /// The mutable detector state `(stress history, aging history,
    /// previous moving average)` — the snapshot side of serialization;
    /// thresholds and window come from configuration.
    pub fn history(&self) -> (Vec<f64>, Vec<f64>, Option<(f64, f64)>) {
        (
            self.stress_hist.iter().copied().collect(),
            self.aging_hist.iter().copied().collect(),
            self.prev_ma,
        )
    }

    /// Restores state captured by [`MovingAverageDetector::history`].
    /// Histories longer than the configured window are truncated to their
    /// most recent entries.
    pub fn restore_history(&mut self, stress: &[f64], aging: &[f64], prev_ma: Option<(f64, f64)>) {
        self.stress_hist = stress
            .iter()
            .skip(stress.len().saturating_sub(self.window))
            .copied()
            .collect();
        self.aging_hist = aging
            .iter()
            .skip(aging.len().saturating_sub(self.window))
            .copied()
            .collect();
        self.prev_ma = prev_ma;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> MovingAverageDetector {
        MovingAverageDetector::new(3, 0.5, 2.5, 0.4, 2.0)
    }

    #[test]
    fn steady_stream_reports_none() {
        let mut d = detector();
        for _ in 0..10 {
            assert_eq!(d.observe(2.0, 1.5), WorkloadChange::None);
        }
    }

    #[test]
    fn first_sample_is_never_a_change() {
        let mut d = detector();
        assert_eq!(d.observe(100.0, 100.0), WorkloadChange::None);
    }

    #[test]
    fn small_drift_is_intra() {
        let mut d = detector();
        for _ in 0..5 {
            d.observe(1.0, 1.0);
        }
        // MA over 3: jump of +2.4 moves the MA by 0.8 ⇒ within [0.5, 2.5).
        assert_eq!(d.observe(3.4, 1.0), WorkloadChange::Intra);
    }

    #[test]
    fn big_jump_is_inter_on_stress_or_aging() {
        let mut d = detector();
        for _ in 0..5 {
            d.observe(1.0, 1.0);
        }
        assert_eq!(d.observe(12.0, 1.0), WorkloadChange::Inter);
        let mut d = detector();
        for _ in 0..5 {
            d.observe(1.0, 1.0);
        }
        assert_eq!(d.observe(1.0, 9.0), WorkloadChange::Inter);
    }

    #[test]
    fn moving_average_smooths_single_spikes() {
        // A one-epoch spike changes the MA by spike/window, so widening
        // the window raises the effective threshold.
        let mut wide = MovingAverageDetector::new(6, 0.5, 2.5, 0.4, 2.0);
        for _ in 0..10 {
            wide.observe(1.0, 1.0);
        }
        // +6 spike moves a 6-window MA by 1.0 ⇒ intra, not inter.
        assert_eq!(wide.observe(7.0, 1.0), WorkloadChange::Intra);
    }

    #[test]
    fn reset_forgets_history() {
        let mut d = detector();
        for _ in 0..5 {
            d.observe(10.0, 10.0);
        }
        d.reset();
        assert_eq!(d.current(), None);
        assert_eq!(d.observe(1.0, 1.0), WorkloadChange::None);
    }

    #[test]
    fn current_reports_means() {
        let mut d = detector();
        d.observe(1.0, 2.0);
        d.observe(3.0, 4.0);
        let (s, a) = d.current().unwrap();
        assert!((s - 2.0).abs() < 1e-12);
        assert!((a - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = MovingAverageDetector::new(0, 0.1, 1.0, 0.1, 1.0);
    }
}
