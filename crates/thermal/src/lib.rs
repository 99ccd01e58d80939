//! Compact RC thermal simulation for multicore dies.
//!
//! This crate provides the *hardware thermal substrate* used by the
//! DAC'14 reproduction: a lumped resistance–capacitance (RC) network in the
//! style of HotSpot's compact models, plus the pieces a run-time thermal
//! manager observes and manipulates:
//!
//! * [`RcNetwork`] — an arbitrary thermal RC network stepped exactly
//!   under piecewise-constant power or adaptively on large dies
//!   ([`Stepper`]), with an analytic steady state obtained by LU
//!   decomposition ([`linalg`]) on small networks or matrix-free
//!   conjugate gradient on large ones.
//! * [`rk`] — embedded adaptive Runge–Kutta tableaus ([`rk::RkTable`])
//!   behind [`Stepper::Adaptive`], the large-floorplan fast path.
//! * [`Floorplan`] / [`DieModel`] — a grid-of-cores die description and the
//!   standard core + spreader + heatsink network built from it, with
//!   optional per-core big.LITTLE classes ([`HeteroMix`]).
//! * [`ThermalSensor`] / [`SensorBank`] — quantised, noisy on-die sensors,
//!   the only view of temperature available to controllers.
//!
//! # Example
//!
//! ```
//! use thermorl_thermal::DieModel;
//!
//! // A quad-core die with default (calibrated) package parameters.
//! let mut die = DieModel::quad_core();
//! // 15 W on core 0, idle elsewhere; simulate one second.
//! die.set_core_power(0, 15.0);
//! die.advance(1.0);
//! assert!(die.core_temperature(0) > die.core_temperature(3));
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod floorplan;
pub mod linalg;
pub mod network;
pub mod rk;
pub mod sensor;
mod sparse;
pub mod stepper;

pub use batch::{DieBatch, NetworkBatch};
pub use floorplan::{DieModel, DieParams, Floorplan, HeteroMix};
pub use network::{NodeId, RcNetwork, RcNetworkBuilder, DENSE_STEADY_LIMIT};
pub use sensor::{SensorBank, SensorParams, ThermalSensor};
pub use stepper::Stepper;

/// Default ambient temperature in degrees Celsius used by the presets.
///
/// The DAC'14 platform is a desktop-class Intel quad-core; 25 °C is a typical
/// lab ambient and yields idle die temperatures in the low thirties, matching
/// the paper's Table 2 mpeg rows.
pub const AMBIENT_C: f64 = 25.0;

/// Converts degrees Celsius to Kelvin.
///
/// Reliability models (Arrhenius terms) need absolute temperature; the rest
/// of the crate works in Celsius, like the paper's figures.
#[inline]
pub fn celsius_to_kelvin(c: f64) -> f64 {
    c + 273.15
}

/// Converts Kelvin to degrees Celsius.
#[inline]
pub fn kelvin_to_celsius(k: f64) -> f64 {
    k - 273.15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kelvin_roundtrip() {
        let c = 54.3;
        assert!((kelvin_to_celsius(celsius_to_kelvin(c)) - c).abs() < 1e-12);
    }

    #[test]
    fn kelvin_of_zero_c() {
        assert!((celsius_to_kelvin(0.0) - 273.15).abs() < 1e-12);
    }
}
