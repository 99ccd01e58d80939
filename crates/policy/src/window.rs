//! The shared decision-epoch sample window.
//!
//! Every zoo member that is *not* the paper agent still plays the paper
//! agent's game: accumulate one decision epoch of per-core sensor
//! samples, then score the window with the same reliability analyzer the
//! agent uses — worst-core stress hazard (`10 / MTTF_tc` years) and
//! aging hazard (`10 / MTTF_em` years) — so rewards are comparable
//! across the zoo. [`HazardWindow`] packages that accumulation exactly
//! as `DasDac14Controller` does internally (including the clear-on-core-
//! count-change behaviour), plus the window-level temperature statistics
//! the ReLeTA variant and the oracle consume.

use thermorl_json::{FromJson, Value};
use thermorl_reliability::{ReliabilityAnalyzer, ThermalProfile};

/// What one completed decision epoch looked like.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Worst-core stress hazard, `10 / MTTF_tc` years.
    pub stress: f64,
    /// Worst-core aging hazard, `10 / MTTF_em` years.
    pub aging: f64,
    /// Mean temperature over every sample of every core (°C).
    pub avg_c: f64,
    /// Hottest sample in the window (°C).
    pub peak_c: f64,
}

/// Per-core sample accumulation for one decision epoch.
#[derive(Debug, Clone)]
pub struct HazardWindow {
    epoch_samples: usize,
    dt: f64,
    analyzer: ReliabilityAnalyzer,
    trec: Vec<Vec<f64>>,
}

impl HazardWindow {
    /// Creates an empty window: `epoch_samples` samples per epoch, `dt`
    /// seconds between samples, hazards scored by `analyzer`.
    pub fn new(epoch_samples: usize, dt: f64, analyzer: ReliabilityAnalyzer) -> Self {
        assert!(epoch_samples > 0, "epoch must hold at least one sample");
        HazardWindow {
            epoch_samples,
            dt,
            analyzer,
            trec: Vec::new(),
        }
    }

    /// Records one per-core sample. Returns the epoch's statistics (and
    /// clears the window) once `epoch_samples` samples have accumulated.
    pub fn push(&mut self, temps: &[f64]) -> Option<EpochStats> {
        if self.trec.len() != temps.len() {
            self.trec = vec![Vec::with_capacity(self.epoch_samples); temps.len()];
        }
        for (buf, &t) in self.trec.iter_mut().zip(temps) {
            buf.push(t);
        }
        if self.trec.is_empty() || self.trec[0].len() < self.epoch_samples {
            return None;
        }

        let mut stress: f64 = 0.0;
        let mut aging: f64 = 0.0;
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut peak = f64::NEG_INFINITY;
        for core_samples in &self.trec {
            let profile = ThermalProfile::from_samples(self.dt, core_samples.clone());
            let report = self.analyzer.analyze(&profile);
            let s = if report.mttf_cycling_years.is_finite() {
                10.0 / report.mttf_cycling_years
            } else {
                0.0
            };
            let a = if report.mttf_aging_years.is_finite() {
                10.0 / report.mttf_aging_years
            } else {
                0.0
            };
            stress = stress.max(s);
            aging = aging.max(a);
            for &t in core_samples {
                sum += t;
                count += 1;
                peak = peak.max(t);
            }
        }
        for buf in &mut self.trec {
            buf.clear();
        }
        Some(EpochStats {
            stress,
            aging,
            avg_c: sum / count as f64,
            peak_c: peak,
        })
    }

    /// The partial window contents (for snapshots).
    pub fn to_value(&self) -> Value {
        Value::Arr(
            self.trec
                .iter()
                .map(|core| core.as_slice().into())
                .collect(),
        )
    }

    /// Restores the partial window captured by [`HazardWindow::to_value`].
    ///
    /// # Errors
    ///
    /// Fails on a non-array value or non-float samples.
    pub fn restore(&mut self, v: &Value) -> Result<(), String> {
        self.trec = Vec::from_json(v).ok_or("window snapshot must be an array of float arrays")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> HazardWindow {
        HazardWindow::new(4, 3.0, ReliabilityAnalyzer::default())
    }

    #[test]
    fn completes_after_epoch_samples() {
        let mut w = window();
        for _ in 0..3 {
            assert!(w.push(&[50.0, 52.0]).is_none());
        }
        let stats = w.push(&[50.0, 58.0]).expect("4th sample closes epoch");
        assert!((stats.peak_c - 58.0).abs() < 1e-12);
        assert!(stats.avg_c > 49.0 && stats.avg_c < 58.0);
        assert!(stats.stress >= 0.0 && stats.aging >= 0.0);
        // Window cleared: next epoch takes another 4 samples.
        for _ in 0..3 {
            assert!(w.push(&[50.0, 52.0]).is_none());
        }
        assert!(w.push(&[50.0, 52.0]).is_some());
    }

    #[test]
    fn core_count_change_resets() {
        let mut w = window();
        for _ in 0..3 {
            assert!(w.push(&[50.0, 52.0]).is_none());
        }
        // Core count changes mid-window: accumulation restarts.
        for _ in 0..3 {
            assert!(w.push(&[50.0, 52.0, 54.0]).is_none());
        }
        assert!(w.push(&[50.0, 52.0, 54.0]).is_some());
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let mut w = window();
        w.push(&[50.25, 52.5]);
        w.push(&[51.0, 53.125]);
        let v = w.to_value();
        let mut fresh = window();
        fresh.restore(&v).expect("restore");
        assert_eq!(fresh.trec, w.trec);
        // Both complete on the same future sample.
        assert!(fresh.push(&[50.0, 50.0]).is_none());
        assert!(fresh.push(&[50.0, 50.0]).is_some());
    }
}
