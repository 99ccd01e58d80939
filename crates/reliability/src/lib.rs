//! Lifetime-reliability models for thermally stressed multicore systems.
//!
//! Implements Section 4 of the DAC'14 paper end to end:
//!
//! * **Temperature-related MTTF** (§4.1): per-interval aging
//!   `A = Σ Δt_i / (t_p · α(T_i))` (Eq. 1) with Arrhenius-style fault
//!   densities (electromigration, NBTI, TDDB, or their sum-of-failure-rates
//!   combination), and `MTTF = ∫ e^{-(tA)^β} dt = Γ(1 + 1/β) / A` (Eq. 2).
//! * **Thermal-cycling MTTF** (§4.2): rainflow cycle counting in the style
//!   of Downing & Socie ([`rainflow`]), Coffin–Manson cycles-to-failure per
//!   cycle (Eq. 3, [`coffin_manson`]), and Miner's-rule accumulation
//!   (Eq. 4–5, [`miner`]). The aggregate *thermal stress*
//!   `Σ (δT_i − T_th)^b · e^{−E_a / (K·T_max(i))}` of Eq. 6 is exposed by
//!   [`stress`], so that `MTTF = A_TC · Σ t_i / Stress`.
//!
//! All models are calibrated, as in the paper's Table 2 note, "such that the
//! MTTF of an unstressed core (i.e. an idle core) is 10 years" — see
//! [`aging::AgingModel::calibrated`] and
//! [`coffin_manson::CyclingParams::calibrated`].
//!
//! # Example
//!
//! ```
//! use thermorl_reliability::{ReliabilityAnalyzer, ThermalProfile};
//!
//! // A core oscillating between 40 and 60 degC every 10 seconds.
//! let samples: Vec<f64> = (0..600)
//!     .map(|i| 50.0 + 10.0 * (i as f64 * 0.628).sin())
//!     .collect();
//! let profile = ThermalProfile::from_samples(1.0, samples);
//! let report = ReliabilityAnalyzer::default().analyze(&profile);
//! assert!(report.mttf_aging_years > 0.0);
//! assert!(report.mttf_cycling_years.is_finite());
//! ```

#![deny(missing_docs)]

pub mod aging;
pub mod coffin_manson;
pub mod gamma;
pub mod miner;
pub mod profile;
pub mod rainflow;
pub mod report;
pub mod stress;

pub use aging::{AgingModel, FaultMechanism};
pub use coffin_manson::CyclingParams;
pub use profile::ThermalProfile;
pub use rainflow::{Cycle, RainflowCounter};
pub use report::{ReliabilityAnalyzer, ReliabilityReport};

/// Boltzmann constant in eV/K, used by every Arrhenius term.
pub const BOLTZMANN_EV: f64 = 8.617_333_262e-5;

/// Seconds in a (Julian) year; MTTF figures are quoted in years.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Converts degrees Celsius to Kelvin.
#[inline]
pub fn kelvin(temp_c: f64) -> f64 {
    temp_c + 273.15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_sane() {
        assert!((kelvin(26.85) - 300.0).abs() < 1e-9);
        const { assert!(SECONDS_PER_YEAR > 3.15e7 && SECONDS_PER_YEAR < 3.17e7) };
    }
}
