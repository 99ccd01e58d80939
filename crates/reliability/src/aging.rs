//! Temperature-driven aging (Eq. 1–2 of the paper).
//!
//! The *Thermal Aging* of a core over an execution of length `t_p` is
//!
//! ```text
//! A = Σ_i Δt_i / (t_p · α(T_i))            (Eq. 1)
//! ```
//!
//! where `α(T)` is the characteristic lifetime (Weibull scale) at
//! temperature `T`, set by a wear-out fault-density model. The lifetime
//! reliability `R(t) = e^{-(t·A)^β}` then yields
//!
//! ```text
//! MTTF = ∫₀^∞ R(t) dt = Γ(1 + 1/β) / A     (Eq. 2)
//! ```
//!
//! so maximising MTTF is equivalent to minimising `A`. The fault-density
//! models follow the RAMP framework (Srinivasan et al., ISCA'04, the
//! paper's \[15\]): electromigration and NBTI as Arrhenius laws with
//! mechanism-specific activation energies, TDDB with its
//! temperature-dependent exponent, plus a sum-of-failure-rates combinator.

use crate::gamma::weibull_mean;
use crate::profile::ThermalProfile;
use crate::{kelvin, BOLTZMANN_EV};

/// A wear-out mechanism's fault-density model: characteristic lifetime
/// `α(T)` in years as a function of steady temperature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMechanism {
    /// Electromigration: `α ∝ e^{E_a/(kT)}` (Black's equation with the
    /// current-density factor folded into the calibration constant).
    Electromigration {
        /// Activation energy (eV); RAMP uses ≈ 0.9, we default to 0.5 so
        /// the 30→70 °C lifetime ratio matches the paper's Table 2 spread.
        ea_ev: f64,
    },
    /// Negative-bias temperature instability, also Arrhenius but with a
    /// lower activation energy (weaker temperature dependence).
    Nbti {
        /// Activation energy (eV), typically ≈ 0.2.
        ea_ev: f64,
    },
    /// Time-dependent dielectric breakdown per RAMP:
    /// `α ∝ (1/V)^{a−bT} · e^{(X + Y/T + Z·T)/(kT)}` with T in Kelvin.
    Tddb {
        /// Gate voltage (V).
        voltage: f64,
        /// Voltage-exponent intercept `a`.
        a: f64,
        /// Voltage-exponent temperature slope `b` (1/K).
        b: f64,
        /// Numerator constant `X` (eV).
        x: f64,
        /// Numerator `1/T` coefficient `Y` (eV·K).
        y: f64,
        /// Numerator `T` coefficient `Z` (eV/K).
        z: f64,
    },
}

impl FaultMechanism {
    /// Default electromigration model (the mechanism the paper's evaluation
    /// tracks through "aging").
    pub fn electromigration() -> Self {
        FaultMechanism::Electromigration { ea_ev: 0.5 }
    }

    /// Default NBTI model.
    pub fn nbti() -> Self {
        FaultMechanism::Nbti { ea_ev: 0.2 }
    }

    /// Default TDDB model with RAMP's published fitting constants.
    pub fn tddb() -> Self {
        FaultMechanism::Tddb {
            voltage: 1.2,
            a: 78.0,
            b: 0.081,
            x: 0.759,
            y: -66.8,
            z: -8.37e-4,
        }
    }

    /// Relative lifetime at `temp_c`, normalised to 1.0 at `ref_c`.
    fn relative_life(&self, temp_c: f64, ref_c: f64) -> f64 {
        let t = kelvin(temp_c);
        let r = kelvin(ref_c);
        match *self {
            FaultMechanism::Electromigration { ea_ev } | FaultMechanism::Nbti { ea_ev } => {
                (ea_ev / BOLTZMANN_EV * (1.0 / t - 1.0 / r)).exp()
            }
            FaultMechanism::Tddb {
                voltage,
                a,
                b,
                x,
                y,
                z,
            } => {
                let life = |tk: f64| {
                    (1.0 / voltage).powf(a - b * tk)
                        * ((x + y / tk + z * tk) / (BOLTZMANN_EV * tk)).exp()
                };
                life(t) / life(r)
            }
        }
    }
}

/// Aging model: a fault mechanism calibrated so that an idle core lasts a
/// prescribed number of years, plus the Weibull slope β of Eq. 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    mechanism: FaultMechanism,
    /// Weibull slope β of the lifetime distribution.
    pub beta: f64,
    /// Calibration temperature (°C) — the idle-core temperature.
    pub ref_temp_c: f64,
    /// Characteristic life α(ref_temp) in years implied by the calibration.
    pub alpha_at_ref_years: f64,
}

impl Default for AgingModel {
    /// Electromigration, β = 2, calibrated to a 10-year MTTF for a core
    /// idling at 30 °C — the paper's Table 2 scaling rule.
    fn default() -> Self {
        AgingModel::calibrated(FaultMechanism::electromigration(), 2.0, 30.0, 10.0)
    }
}

impl AgingModel {
    /// Builds a model whose MTTF at constant `ref_temp_c` equals
    /// `mttf_at_ref_years` (Table 2's "unstressed core" rule).
    ///
    /// # Panics
    ///
    /// Panics if `beta` or `mttf_at_ref_years` are not positive.
    pub fn calibrated(
        mechanism: FaultMechanism,
        beta: f64,
        ref_temp_c: f64,
        mttf_at_ref_years: f64,
    ) -> Self {
        assert!(beta > 0.0, "Weibull slope must be positive");
        assert!(mttf_at_ref_years > 0.0, "target MTTF must be positive");
        // At constant T_ref: A = 1/α(T_ref) so MTTF = Γ(1+1/β)·α(T_ref).
        let alpha_at_ref_years = mttf_at_ref_years / crate::gamma::gamma(1.0 + 1.0 / beta);
        AgingModel {
            mechanism,
            beta,
            ref_temp_c,
            alpha_at_ref_years,
        }
    }

    /// The underlying fault mechanism.
    pub fn mechanism(&self) -> FaultMechanism {
        self.mechanism
    }

    /// Characteristic lifetime α(T) in years (the fault density's scale).
    pub fn alpha_years(&self, temp_c: f64) -> f64 {
        self.alpha_at_ref_years * self.mechanism.relative_life(temp_c, self.ref_temp_c)
    }

    /// Aging rate `A` (1/years) of a thermal profile per Eq. 1.
    ///
    /// Returns 0 for empty profiles.
    pub fn aging_rate(&self, profile: &ThermalProfile) -> f64 {
        if profile.is_empty() {
            return 0.0;
        }
        // Equal Δt per sample: A = mean of 1/α(T_i).
        let inv_alpha_sum: f64 = profile
            .samples()
            .iter()
            .map(|&t| 1.0 / self.alpha_years(t))
            .sum();
        inv_alpha_sum / profile.len() as f64
    }

    /// MTTF in years for a profile (Eq. 2). `INFINITY` for empty profiles.
    pub fn mttf_years(&self, profile: &ThermalProfile) -> f64 {
        let a = self.aging_rate(profile);
        if a == 0.0 {
            f64::INFINITY
        } else {
            weibull_mean(a, self.beta)
        }
    }

    /// MTTF in years at a constant temperature.
    pub fn mttf_at_constant(&self, temp_c: f64) -> f64 {
        weibull_mean(1.0 / self.alpha_years(temp_c), self.beta)
    }
}

/// Sum-of-failure-rates (SOFR) combination of mechanisms, as Eq. 1's
/// commentary allows: the combined failure rate is the sum of the
/// mechanisms' rates, so the combined MTTF satisfies
/// `1/MTTF = Σ 1/MTTF_i`.
pub fn sofr_mttf_years(mttfs: &[f64]) -> f64 {
    let rate: f64 = mttfs
        .iter()
        .filter(|m| m.is_finite())
        .map(|m| 1.0 / m)
        .sum();
    if rate == 0.0 {
        f64::INFINITY
    } else {
        1.0 / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_ten_years_at_idle() {
        let m = AgingModel::default();
        assert!((m.mttf_at_constant(30.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn hotter_constant_temperature_ages_faster() {
        let m = AgingModel::default();
        let cool = m.mttf_at_constant(35.0);
        let hot = m.mttf_at_constant(70.0);
        assert!(hot < cool);
        // Spread matches Table 2's decade: ~70degC cores live about a year.
        assert!(hot > 0.3 && hot < 2.5, "hot MTTF {hot}");
        assert!(cool > 5.0 && cool < 10.0, "cool MTTF {cool}");
    }

    #[test]
    fn aging_rate_of_constant_profile() {
        let m = AgingModel::default();
        let p = ThermalProfile::from_samples(1.0, vec![30.0; 100]);
        let a = m.aging_rate(&p);
        assert!((a - 1.0 / m.alpha_at_ref_years).abs() < 1e-12);
    }

    #[test]
    fn mixed_profile_is_dominated_by_hot_intervals() {
        let m = AgingModel::default();
        let half_hot: ThermalProfile = (0..200)
            .map(|i| if i % 2 == 0 { 30.0 } else { 70.0 })
            .collect();
        let all_cool = ThermalProfile::from_samples(1.0, vec![30.0; 200]);
        let all_hot = ThermalProfile::from_samples(1.0, vec![70.0; 200]);
        let mid = m.mttf_years(&half_hot);
        assert!(mid < m.mttf_years(&all_cool));
        assert!(mid > m.mttf_years(&all_hot));
        // Failure rates (not lifetimes) average, so the mix sits below the
        // arithmetic midpoint of the two lifetimes.
        let arith = 0.5 * (m.mttf_years(&all_cool) + m.mttf_years(&all_hot));
        assert!(mid < arith);
    }

    #[test]
    fn empty_profile_is_immortal() {
        let m = AgingModel::default();
        let p = ThermalProfile::from_samples(1.0, vec![]);
        assert_eq!(m.mttf_years(&p), f64::INFINITY);
    }

    #[test]
    fn nbti_is_less_temperature_sensitive_than_em() {
        let em = AgingModel::calibrated(FaultMechanism::electromigration(), 2.0, 30.0, 10.0);
        let nbti = AgingModel::calibrated(FaultMechanism::nbti(), 2.0, 30.0, 10.0);
        assert!(nbti.mttf_at_constant(70.0) > em.mttf_at_constant(70.0));
    }

    #[test]
    fn tddb_lifetime_decreases_with_temperature() {
        let tddb = AgingModel::calibrated(FaultMechanism::tddb(), 2.0, 30.0, 10.0);
        let l40 = tddb.mttf_at_constant(40.0);
        let l60 = tddb.mttf_at_constant(60.0);
        let l80 = tddb.mttf_at_constant(80.0);
        assert!(l40 > l60 && l60 > l80, "{l40} {l60} {l80}");
    }

    #[test]
    fn sofr_combines_rates() {
        assert!((sofr_mttf_years(&[10.0, 10.0]) - 5.0).abs() < 1e-12);
        assert!((sofr_mttf_years(&[4.0, 12.0]) - 3.0).abs() < 1e-12);
        assert_eq!(sofr_mttf_years(&[]), f64::INFINITY);
        assert_eq!(sofr_mttf_years(&[f64::INFINITY]), f64::INFINITY);
        // An immortal mechanism does not drag down the others.
        assert!((sofr_mttf_years(&[f64::INFINITY, 7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn weibull_slope_affects_mttf_scale() {
        let b1 = AgingModel::calibrated(FaultMechanism::electromigration(), 1.0, 30.0, 10.0);
        let b3 = AgingModel::calibrated(FaultMechanism::electromigration(), 3.0, 30.0, 10.0);
        // Both calibrated to 10 years at reference despite different slopes.
        assert!((b1.mttf_at_constant(30.0) - 10.0).abs() < 1e-9);
        assert!((b3.mttf_at_constant(30.0) - 10.0).abs() < 1e-9);
    }
}
