//! Thermal profiles: uniformly sampled temperature traces.

/// A uniformly sampled temperature trace of one core, the input to every
/// reliability computation.
///
/// # Example
///
/// ```
/// use thermorl_reliability::ThermalProfile;
///
/// let p = ThermalProfile::from_samples(2.0, vec![40.0, 42.0, 45.0]);
/// assert_eq!(p.duration(), 6.0);
/// assert!((p.average() - 42.333).abs() < 1e-2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ThermalProfile {
    dt: f64,
    samples: Vec<f64>,
}

impl ThermalProfile {
    /// Creates a profile from samples taken every `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn from_samples(dt: f64, samples: Vec<f64>) -> Self {
        assert!(dt > 0.0, "sample interval must be positive");
        ThermalProfile { dt, samples }
    }

    /// Sample interval in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The raw samples (°C).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the profile holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered wall-clock time: `len * dt` seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 * self.dt
    }

    /// Appends one sample.
    pub fn push(&mut self, temp_c: f64) {
        self.samples.push(temp_c);
    }

    /// Arithmetic mean temperature, or ambient-agnostic 0.0 when empty.
    pub fn average(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Peak (maximum) temperature; `NEG_INFINITY` when empty.
    pub fn peak(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum temperature; `INFINITY` when empty.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// A sub-profile covering samples `[start, end)` (indices clamped).
    pub fn window(&self, start: usize, end: usize) -> ThermalProfile {
        let end = end.min(self.samples.len());
        let start = start.min(end);
        ThermalProfile {
            dt: self.dt,
            samples: self.samples[start..end].to_vec(),
        }
    }

    /// Lag-`k` autocorrelation of the trace (used by the paper's Figure 6
    /// to choose the sensor sampling interval).
    ///
    /// Returns 1.0 for lag 0 and 0.0 when the trace is constant or shorter
    /// than `k + 2` samples.
    pub fn autocorrelation(&self, k: usize) -> f64 {
        let n = self.samples.len();
        if k == 0 {
            return 1.0;
        }
        if n < k + 2 {
            return 0.0;
        }
        let mean = self.average();
        let var: f64 = self.samples.iter().map(|s| (s - mean).powi(2)).sum();
        if var < 1e-12 {
            return 0.0;
        }
        let cov: f64 = (0..n - k)
            .map(|i| (self.samples[i] - mean) * (self.samples[i + k] - mean))
            .sum();
        cov / var
    }

    /// Re-samples the profile at `factor × dt` by keeping every
    /// `factor`-th sample (models a slower sensor sampling interval).
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn decimate(&self, factor: usize) -> ThermalProfile {
        assert!(factor > 0, "decimation factor must be nonzero");
        ThermalProfile {
            dt: self.dt * factor as f64,
            samples: self.samples.iter().copied().step_by(factor).collect(),
        }
    }
}

impl FromIterator<f64> for ThermalProfile {
    /// Collects samples at an implied 1-second interval.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        ThermalProfile {
            dt: 1.0,
            samples: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for ThermalProfile {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.samples.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statistics() {
        let p = ThermalProfile::from_samples(1.0, vec![40.0, 50.0, 60.0]);
        assert_eq!(p.average(), 50.0);
        assert_eq!(p.peak(), 60.0);
        assert_eq!(p.min(), 40.0);
        assert_eq!(p.duration(), 3.0);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_profile_statistics() {
        let p = ThermalProfile::from_samples(1.0, vec![]);
        assert_eq!(p.average(), 0.0);
        assert!(p.is_empty());
        assert_eq!(p.peak(), f64::NEG_INFINITY);
    }

    #[test]
    fn window_clamps_bounds() {
        let p = ThermalProfile::from_samples(1.0, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.window(1, 3).samples(), &[2.0, 3.0]);
        assert_eq!(p.window(2, 100).samples(), &[3.0, 4.0]);
        assert!(p.window(5, 2).is_empty());
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        let p = ThermalProfile::from_samples(1.0, vec![50.0; 100]);
        assert_eq!(p.autocorrelation(1), 0.0);
    }

    #[test]
    fn autocorrelation_of_slow_signal_is_high() {
        let p: ThermalProfile = (0..1000)
            .map(|i| 50.0 + 10.0 * (i as f64 * 0.01).sin())
            .collect();
        assert!(p.autocorrelation(1) > 0.99);
        // Longer lags decorrelate.
        assert!(p.autocorrelation(100) < p.autocorrelation(1));
    }

    #[test]
    fn autocorrelation_lag_zero_is_one() {
        let p = ThermalProfile::from_samples(1.0, vec![1.0, 5.0, 2.0]);
        assert_eq!(p.autocorrelation(0), 1.0);
    }

    #[test]
    fn decimate_halves_sample_count() {
        let p = ThermalProfile::from_samples(1.0, (0..10).map(|i| i as f64).collect());
        let d = p.decimate(2);
        assert_eq!(d.len(), 5);
        assert_eq!(d.dt(), 2.0);
        assert_eq!(d.samples()[1], 2.0);
        // Duration is preserved (within one sample).
        assert!((d.duration() - p.duration()).abs() <= p.dt() * 2.0);
    }

    #[test]
    fn extend_and_push() {
        let mut p = ThermalProfile::from_samples(0.5, vec![1.0]);
        p.push(2.0);
        p.extend([3.0, 4.0]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.duration(), 2.0);
    }
}
