//! Rainflow cycle counting (Downing & Socie, "Simple rainflow counting
//! algorithms", Int. J. Fatigue 1982; ASTM E1049-85 formulation).
//!
//! The thermal-cycling MTTF of the paper (§4.2, step 1) starts by reducing a
//! thermal profile to a set of cycles `(δT, T_max, t)`; this module performs
//! that reduction. Two variants are provided:
//!
//! * [`RainflowCounter::count`] — the one-pass ASTM method for
//!   *non-repeating* histories (a single application run). The unclosed
//!   residue is counted as half cycles.
//! * [`RainflowCounter::count_repeating`] — Downing's Algorithm I for
//!   *repeating* histories: the trace is rotated to begin at its absolute
//!   maximum, after which (almost) every extracted cycle is a full cycle.

use crate::profile::ThermalProfile;

/// One counted thermal cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cycle {
    /// Temperature swing δT of the cycle (°C), always ≥ 0.
    pub range: f64,
    /// Mean temperature of the cycle (°C).
    pub mean: f64,
    /// Maximum temperature reached in the cycle, `T_max(i)` in Eq. 3 (°C).
    pub max_temp: f64,
    /// 1.0 for a full cycle, 0.5 for a residual half cycle.
    pub count: f64,
    /// Wall-clock duration attributed to the cycle (s): twice the
    /// reversal-to-reversal time for full cycles, once for half cycles.
    pub duration: f64,
}

/// A local extremum of the filtered profile.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reversal {
    value: f64,
    time: f64,
}

/// Configurable rainflow counter.
///
/// # Example
///
/// ```
/// use thermorl_reliability::{RainflowCounter, ThermalProfile};
///
/// let profile = ThermalProfile::from_samples(
///     1.0,
///     vec![40.0, 60.0, 40.0, 60.0, 40.0, 60.0, 40.0],
/// );
/// let cycles = RainflowCounter::default().count(&profile);
/// let total: f64 = cycles.iter().map(|c| c.count).sum();
/// assert!((total - 3.0).abs() < 1e-9); // three 20-degree swings
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RainflowCounter {
    /// Reversals smaller than this range are treated as noise and merged
    /// away (hysteresis filtering). With 1 °C-quantised sensors the default
    /// of 1.0 removes pure quantisation chatter.
    pub min_range: f64,
}

impl Default for RainflowCounter {
    fn default() -> Self {
        RainflowCounter { min_range: 1.0 }
    }
}

impl RainflowCounter {
    /// Creates a counter with an explicit hysteresis threshold (°C).
    ///
    /// # Panics
    ///
    /// Panics if `min_range` is negative.
    pub fn new(min_range: f64) -> Self {
        assert!(min_range >= 0.0, "hysteresis threshold must be >= 0");
        RainflowCounter { min_range }
    }

    /// Extracts the hysteresis-filtered peak/valley sequence.
    fn reversals(&self, profile: &ThermalProfile) -> Vec<Reversal> {
        let s = profile.samples();
        let dt = profile.dt();
        if s.len() < 2 {
            return s
                .iter()
                .enumerate()
                .map(|(i, &v)| Reversal {
                    value: v,
                    time: i as f64 * dt,
                })
                .collect();
        }
        // First pass: strict local extrema (including endpoints).
        let mut ext: Vec<Reversal> = Vec::new();
        ext.push(Reversal {
            value: s[0],
            time: 0.0,
        });
        for i in 1..s.len() - 1 {
            let prev = s[i - 1];
            let cur = s[i];
            let next = s[i + 1];
            let rising_peak = cur > prev && cur >= next;
            let falling_valley = cur < prev && cur <= next;
            if rising_peak || falling_valley {
                ext.push(Reversal {
                    value: cur,
                    time: i as f64 * dt,
                });
            }
        }
        ext.push(Reversal {
            value: s[s.len() - 1],
            time: (s.len() - 1) as f64 * dt,
        });
        // Second pass: hysteresis merge — drop reversals whose excursion is
        // below the threshold, then re-collapse monotone runs.
        if self.min_range > 0.0 {
            let mut filtered: Vec<Reversal> = Vec::with_capacity(ext.len());
            for r in ext {
                match filtered.len() {
                    0 => filtered.push(r),
                    1 => {
                        // Leave the dead band of the starting point before
                        // committing a direction.
                        if (r.value - filtered[0].value).abs() >= self.min_range {
                            filtered.push(r);
                        }
                    }
                    _ => {
                        let last = filtered[filtered.len() - 1];
                        let prev = filtered[filtered.len() - 2];
                        let dir_up = last.value > prev.value;
                        if (dir_up && r.value >= last.value) || (!dir_up && r.value <= last.value) {
                            // Monotone continuation: extend the current run.
                            *filtered.last_mut().unwrap() = r;
                        } else if (r.value - last.value).abs() >= self.min_range {
                            filtered.push(r);
                        }
                        // else: sub-threshold wiggle, ignore.
                    }
                }
            }
            filtered
        } else {
            ext
        }
    }

    /// Counts cycles in a non-repeating history (ASTM E1049 rainflow).
    /// Unclosed residue ranges become half cycles (`count = 0.5`).
    pub fn count(&self, profile: &ThermalProfile) -> Vec<Cycle> {
        let reversals = self.reversals(profile);
        Self::count_reversals(&reversals, false)
    }

    /// Counts cycles treating the profile as one period of a repeating
    /// history (Downing Algorithm I): the sequence is rotated to start at
    /// the absolute maximum so that all cycles close.
    pub fn count_repeating(&self, profile: &ThermalProfile) -> Vec<Cycle> {
        let mut reversals = self.reversals(profile);
        if reversals.len() < 3 {
            return Vec::new();
        }
        // Rotate to start at the absolute maximum.
        let max_idx = reversals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.value.partial_cmp(&b.1.value).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let period = profile.duration();
        let mut rotated: Vec<Reversal> = Vec::with_capacity(reversals.len() + 1);
        rotated.extend_from_slice(&reversals[max_idx..]);
        for r in &reversals[..max_idx] {
            rotated.push(Reversal {
                value: r.value,
                time: r.time + period,
            });
        }
        // Close the loop back at the maximum.
        let first = rotated[0];
        rotated.push(Reversal {
            value: first.value,
            time: first.time + period,
        });
        reversals = rotated;
        Self::count_reversals(&reversals, true)
    }

    /// Core three-point counting over a reversal sequence.
    fn count_reversals(reversals: &[Reversal], repeating: bool) -> Vec<Cycle> {
        let mut cycles = Vec::new();
        let mut stack: Vec<Reversal> = Vec::with_capacity(reversals.len());
        let mut emit = |a: Reversal, b: Reversal, count: f64| {
            let range = (a.value - b.value).abs();
            if range == 0.0 {
                return;
            }
            let dt_pair = (b.time - a.time).abs();
            cycles.push(Cycle {
                range,
                mean: 0.5 * (a.value + b.value),
                max_temp: a.value.max(b.value),
                count,
                duration: if count == 1.0 { 2.0 * dt_pair } else { dt_pair },
            });
        };
        for &r in reversals {
            stack.push(r);
            while stack.len() >= 3 {
                let n = stack.len();
                let x = (stack[n - 1].value - stack[n - 2].value).abs();
                let y = (stack[n - 2].value - stack[n - 3].value).abs();
                if x < y {
                    break;
                }
                if stack.len() == 3 && !repeating {
                    // Range Y contains the starting point: half cycle.
                    emit(stack[0], stack[1], 0.5);
                    stack.remove(0);
                } else {
                    // Full cycle formed by the middle pair.
                    emit(stack[n - 3], stack[n - 2], 1.0);
                    stack.remove(n - 2);
                    stack.remove(n - 3);
                }
            }
        }
        // Residue: count remaining ranges as half cycles.
        let residue_count = if repeating { 1.0 } else { 0.5 };
        for w in stack.windows(2) {
            emit(w[0], w[1], residue_count);
        }
        cycles
    }
}

/// Total (fractional) number of cycles in a counted set.
pub fn total_cycles(cycles: &[Cycle]) -> f64 {
    cycles.iter().map(|c| c.count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(vals: &[f64]) -> ThermalProfile {
        ThermalProfile::from_samples(1.0, vals.to_vec())
    }

    /// The worked example of ASTM E1049-85 §X1 (also used by every rainflow
    /// implementation as a cross-check).
    #[test]
    fn astm_reference_history() {
        let p = profile(&[-2.0, 1.0, -3.0, 5.0, -1.0, 3.0, -4.0, 4.0, -2.0]);
        let counter = RainflowCounter::new(0.0);
        let cycles = counter.count(&p);
        // Expect one full cycle of range 4 (from -1 to 3) and half cycles of
        // ranges 3, 4, 8, 9, 8, 6.
        let mut full: Vec<f64> = cycles
            .iter()
            .filter(|c| c.count == 1.0)
            .map(|c| c.range)
            .collect();
        full.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(full, vec![4.0]);
        let mut half: Vec<f64> = cycles
            .iter()
            .filter(|c| c.count == 0.5)
            .map(|c| c.range)
            .collect();
        half.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(half, vec![3.0, 4.0, 6.0, 8.0, 8.0, 9.0]);
    }

    #[test]
    fn square_wave_counts_one_cycle_per_period() {
        let mut vals = Vec::new();
        for _ in 0..10 {
            vals.extend_from_slice(&[40.0, 40.0, 60.0, 60.0]);
        }
        let cycles = RainflowCounter::default().count(&profile(&vals));
        let total = total_cycles(&cycles);
        assert!((total - 9.5).abs() <= 1.0, "total {total}");
        for c in &cycles {
            assert_eq!(c.range, 20.0);
            assert_eq!(c.max_temp, 60.0);
            assert_eq!(c.mean, 50.0);
        }
    }

    #[test]
    fn constant_profile_has_no_cycles() {
        let cycles = RainflowCounter::default().count(&profile(&[50.0; 100]));
        assert!(cycles.is_empty());
    }

    #[test]
    fn monotone_ramp_is_a_single_half_cycle() {
        let vals: Vec<f64> = (0..50).map(|i| 30.0 + i as f64).collect();
        let cycles = RainflowCounter::default().count(&profile(&vals));
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].count, 0.5);
        assert_eq!(cycles[0].range, 49.0);
    }

    #[test]
    fn hysteresis_filters_sensor_noise() {
        // 0.4-degree chatter around a flat 50: no real cycles.
        let vals: Vec<f64> = (0..200)
            .map(|i| 50.0 + if i % 2 == 0 { 0.2 } else { -0.2 })
            .collect();
        let cycles = RainflowCounter::default().count(&profile(&vals));
        assert!(total_cycles(&cycles) < 1.0, "{cycles:?}");
        // With the filter disabled the chatter is counted.
        let noisy = RainflowCounter::new(0.0).count(&profile(&vals));
        assert!(total_cycles(&noisy) > 50.0);
    }

    #[test]
    fn repeating_count_closes_all_cycles() {
        let mut vals = Vec::new();
        for _ in 0..5 {
            vals.extend_from_slice(&[40.0, 60.0, 45.0, 55.0]);
        }
        let cycles = RainflowCounter::new(0.0).count_repeating(&profile(&vals));
        assert!(!cycles.is_empty());
        for c in &cycles {
            assert_eq!(c.count, 1.0, "repeating histories close all cycles");
        }
        // 5 large + 5 small cycles.
        assert!((total_cycles(&cycles) - 10.0).abs() <= 1.0);
    }

    #[test]
    fn nested_cycle_is_extracted() {
        // Big swing 30..70 with a small 50..55 dip nested inside.
        let p = profile(&[30.0, 70.0, 50.0, 55.0, 30.0]);
        let cycles = RainflowCounter::new(0.0).count(&p);
        let full: Vec<&Cycle> = cycles.iter().filter(|c| c.count == 1.0).collect();
        assert_eq!(full.len(), 1);
        assert_eq!(full[0].range, 5.0);
        assert_eq!(full[0].max_temp, 55.0);
    }

    #[test]
    fn durations_are_positive_and_bounded() {
        let vals: Vec<f64> = (0..500)
            .map(|i| 50.0 + 15.0 * (i as f64 * 0.1).sin())
            .collect();
        let p = profile(&vals);
        let cycles = RainflowCounter::default().count(&p);
        for c in &cycles {
            assert!(c.duration > 0.0);
            assert!(c.duration <= 2.0 * p.duration());
        }
    }

    #[test]
    fn empty_and_tiny_profiles() {
        let counter = RainflowCounter::default();
        assert!(counter.count(&profile(&[])).is_empty());
        assert!(counter.count(&profile(&[50.0])).is_empty());
        assert!(counter.count_repeating(&profile(&[50.0, 51.0])).is_empty());
    }

    #[test]
    fn max_temp_tracks_the_hot_end() {
        let p = profile(&[20.0, 80.0, 20.0, 80.0, 20.0]);
        let cycles = RainflowCounter::default().count(&p);
        for c in &cycles {
            assert_eq!(c.max_temp, 80.0);
        }
    }
}
