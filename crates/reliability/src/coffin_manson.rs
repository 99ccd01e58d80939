//! Coffin–Manson cycles-to-failure (Eq. 3 of the paper):
//!
//! ```text
//! N_TC(i) = A_TC · (δT_i − T_th)^(−b) · e^{E_a / (K · T_max(i))}
//! ```
//!
//! Larger swings and hotter cycle peaks both reduce the number of cycles a
//! core survives.

use crate::rainflow::Cycle;
use crate::{kelvin, BOLTZMANN_EV, SECONDS_PER_YEAR};

/// Parameters of the Coffin–Manson / thermal-stress model (Eq. 3 & 6).
///
/// `a_tc` is an empirically determined proportionality constant; the paper
/// scales it so an unstressed core reaches a 10-year MTTF. Use
/// [`CyclingParams::calibrated`] to reproduce that scaling against a
/// reference cycling regime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclingParams {
    /// Empirical proportionality constant `A_TC`.
    pub a_tc: f64,
    /// Coffin–Manson exponent `b` (metal/package fatigue: ≈ 2–2.5).
    pub b: f64,
    /// Temperature swing at which elastic deformation begins, `T_th` (°C).
    /// Swings at or below this threshold cause no plastic damage.
    pub t_th: f64,
    /// Activation energy `E_a` (eV) of the cycling wear-out mechanism.
    pub ea_ev: f64,
}

impl Default for CyclingParams {
    /// Defaults calibrated per `DESIGN.md` §6: a reference regime of one
    /// 10 °C swing per minute peaking at 50 °C yields a 12-year MTTF. The
    /// activation energy is an *empirical fatigue fit* (0.1 eV): it weights
    /// hot cycles mildly, which is what reproduces Table 2's ordering —
    /// the hot-but-flat tachyon set 1 keeps a high cycling MTTF (≈ 7 y)
    /// while the cool-but-churning mpeg decoder drops to ≈ 2 y.
    fn default() -> Self {
        CyclingParams::calibrated(2.35, 2.0, 0.1, ReferenceRegime::default())
    }
}

/// The reference cycling regime used to pin down `A_TC`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceRegime {
    /// Swing of the reference cycle (°C).
    pub range: f64,
    /// Peak temperature of the reference cycle (°C).
    pub max_temp: f64,
    /// Period of the reference cycle (s).
    pub period: f64,
    /// Target MTTF (years) under the reference regime.
    pub mttf_years: f64,
}

impl Default for ReferenceRegime {
    fn default() -> Self {
        ReferenceRegime {
            range: 10.0,
            max_temp: 50.0,
            period: 60.0,
            mttf_years: 12.0,
        }
    }
}

impl CyclingParams {
    /// Builds parameters with `A_TC` chosen so that `regime` produces
    /// exactly `regime.mttf_years`.
    ///
    /// # Panics
    ///
    /// Panics if the regime swing does not exceed `t_th` or any parameter
    /// is non-positive.
    pub fn calibrated(b: f64, t_th: f64, ea_ev: f64, regime: ReferenceRegime) -> Self {
        assert!(
            b > 0.0 && ea_ev > 0.0 && t_th >= 0.0,
            "non-physical parameters"
        );
        assert!(
            regime.range > t_th,
            "reference swing must exceed the elastic threshold"
        );
        let mut params = CyclingParams {
            a_tc: 1.0,
            b,
            t_th,
            ea_ev,
        };
        // One reference cycle per `period` seconds: stress accrues at
        // stress_per_cycle / period per second, and
        // MTTF = a_tc * t / stress(t) = a_tc * period / stress_per_cycle.
        let stress_per_cycle = params.cycle_stress(regime.range, regime.max_temp);
        params.a_tc = regime.mttf_years * SECONDS_PER_YEAR * stress_per_cycle / regime.period;
        params
    }

    /// The per-cycle stress contribution of Eq. 6:
    /// `(δT − T_th)^b · e^{−E_a / (K·T_max)}`, or 0 for sub-threshold swings.
    pub fn cycle_stress(&self, range: f64, max_temp_c: f64) -> f64 {
        if range <= self.t_th {
            return 0.0;
        }
        (range - self.t_th).powf(self.b) * (-self.ea_ev / (BOLTZMANN_EV * kelvin(max_temp_c))).exp()
    }

    /// Cycles-to-failure under repeated application of one cycle (Eq. 3).
    /// Returns `INFINITY` for swings at or below the elastic threshold.
    pub fn cycles_to_failure(&self, cycle: &Cycle) -> f64 {
        let stress = self.cycle_stress(cycle.range, cycle.max_temp);
        if stress == 0.0 {
            f64::INFINITY
        } else {
            self.a_tc / stress
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(range: f64, max_temp: f64) -> Cycle {
        Cycle {
            range,
            mean: max_temp - range / 2.0,
            max_temp,
            count: 1.0,
            duration: 10.0,
        }
    }

    #[test]
    fn subthreshold_swings_are_harmless() {
        let p = CyclingParams::default();
        assert_eq!(p.cycles_to_failure(&cycle(1.0, 80.0)), f64::INFINITY);
        assert_eq!(p.cycle_stress(p.t_th, 80.0), 0.0);
    }

    #[test]
    fn larger_swings_fail_sooner() {
        let p = CyclingParams::default();
        let n_small = p.cycles_to_failure(&cycle(5.0, 60.0));
        let n_big = p.cycles_to_failure(&cycle(20.0, 60.0));
        assert!(n_big < n_small);
    }

    #[test]
    fn hotter_peaks_fail_sooner() {
        let p = CyclingParams::default();
        let n_cool = p.cycles_to_failure(&cycle(10.0, 40.0));
        let n_hot = p.cycles_to_failure(&cycle(10.0, 80.0));
        assert!(n_hot < n_cool);
    }

    #[test]
    fn calibration_reproduces_reference_mttf() {
        let regime = ReferenceRegime::default();
        let p = CyclingParams::default();
        let n = p.cycles_to_failure(&cycle(regime.range, regime.max_temp));
        // n cycles at one per `period` seconds last exactly mttf_years.
        let years = n * regime.period / SECONDS_PER_YEAR;
        assert!((years - regime.mttf_years).abs() / regime.mttf_years < 1e-9);
        assert_eq!(regime.mttf_years, 12.0);
    }

    #[test]
    fn calibration_with_custom_target() {
        let regime = ReferenceRegime {
            mttf_years: 20.0,
            ..ReferenceRegime::default()
        };
        let p = CyclingParams::calibrated(2.35, 2.0, 0.1, regime);
        let n = p.cycles_to_failure(&cycle(regime.range, regime.max_temp));
        let years = n * regime.period / SECONDS_PER_YEAR;
        assert!((years - 20.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "elastic threshold")]
    fn calibration_rejects_subthreshold_reference() {
        let regime = ReferenceRegime {
            range: 1.0,
            ..ReferenceRegime::default()
        };
        let _ = CyclingParams::calibrated(2.35, 2.0, 0.7, regime);
    }

    #[test]
    fn stress_grows_with_exponent_b() {
        let lo = CyclingParams::calibrated(1.5, 2.0, 0.7, ReferenceRegime::default());
        let hi = CyclingParams::calibrated(3.0, 2.0, 0.7, ReferenceRegime::default());
        // Relative to the 10-degree reference, a 30-degree swing is punished
        // much harder by the higher exponent.
        let ratio_lo = lo.cycle_stress(30.0, 50.0) / lo.cycle_stress(10.0, 50.0);
        let ratio_hi = hi.cycle_stress(30.0, 50.0) / hi.cycle_stress(10.0, 50.0);
        assert!(ratio_hi > ratio_lo);
    }
}
