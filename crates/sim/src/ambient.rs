//! Time-varying ambient temperature profiles.
//!
//! The paper's §6.4 notes that temperature variation "depend\[s\] on the
//! thermal property of silicon, ambient temperature and cooling technology
//! used"; a run-time manager deployed outside the lab also faces ambient
//! *drift* (HVAC cycles, day/night, enclosure warm-up). [`AmbientProfile`]
//! lets the engine drive the die's ambient over time, exercising the
//! controller's intra-application adaptation path with an environmental
//! (rather than workload) disturbance.

/// How the ambient temperature evolves during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AmbientProfile {
    /// Fixed ambient (°C) — the default lab condition.
    Constant(f64),
    /// Linear drift from `start_c`, clamped to `limit_c` (an enclosure
    /// warming up, or HVAC failure).
    Drift {
        /// Starting ambient (°C).
        start_c: f64,
        /// Drift rate in °C per hour (may be negative).
        rate_c_per_hour: f64,
        /// Clamp the excursion at this value (°C).
        limit_c: f64,
    },
    /// Sinusoidal oscillation around `mean_c` (diurnal or HVAC cycling).
    Sinusoid {
        /// Mean ambient (°C).
        mean_c: f64,
        /// Oscillation amplitude (°C).
        amplitude_c: f64,
        /// Oscillation period (s).
        period_s: f64,
    },
}

impl Default for AmbientProfile {
    fn default() -> Self {
        AmbientProfile::Constant(thermorl_thermal::AMBIENT_C)
    }
}

impl AmbientProfile {
    /// The ambient temperature (°C) at simulation time `t` seconds.
    ///
    /// # Example
    ///
    /// ```
    /// use thermorl_sim::AmbientProfile;
    ///
    /// let drift = AmbientProfile::Drift {
    ///     start_c: 25.0,
    ///     rate_c_per_hour: 6.0,
    ///     limit_c: 40.0,
    /// };
    /// assert!((drift.at(0.0) - 25.0).abs() < 1e-12);
    /// assert!((drift.at(3600.0) - 31.0).abs() < 1e-12);
    /// assert!((drift.at(36_000.0) - 40.0).abs() < 1e-12); // clamped
    /// ```
    pub fn at(&self, t: f64) -> f64 {
        match *self {
            AmbientProfile::Constant(c) => c,
            AmbientProfile::Drift {
                start_c,
                rate_c_per_hour,
                limit_c,
            } => {
                let raw = start_c + rate_c_per_hour * t / 3600.0;
                if rate_c_per_hour >= 0.0 {
                    raw.min(limit_c)
                } else {
                    raw.max(limit_c)
                }
            }
            AmbientProfile::Sinusoid {
                mean_c,
                amplitude_c,
                period_s,
            } => mean_c + amplitude_c * (2.0 * std::f64::consts::PI * t / period_s).sin(),
        }
    }

    /// Whether the profile ever changes (lets the engine skip updates).
    pub fn is_constant(&self) -> bool {
        match *self {
            AmbientProfile::Constant(_) => true,
            AmbientProfile::Drift {
                rate_c_per_hour, ..
            } => rate_c_per_hour == 0.0,
            AmbientProfile::Sinusoid { amplitude_c, .. } => amplitude_c == 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile() {
        let p = AmbientProfile::Constant(22.0);
        assert_eq!(p.at(0.0), 22.0);
        assert_eq!(p.at(1e6), 22.0);
        assert!(p.is_constant());
    }

    #[test]
    fn drift_clamps_in_both_directions() {
        let up = AmbientProfile::Drift {
            start_c: 20.0,
            rate_c_per_hour: 10.0,
            limit_c: 30.0,
        };
        assert_eq!(up.at(7200.0), 30.0);
        let down = AmbientProfile::Drift {
            start_c: 30.0,
            rate_c_per_hour: -10.0,
            limit_c: 20.0,
        };
        assert_eq!(down.at(7200.0), 20.0);
        assert!(!up.is_constant());
    }

    #[test]
    fn sinusoid_oscillates_around_mean() {
        let p = AmbientProfile::Sinusoid {
            mean_c: 25.0,
            amplitude_c: 5.0,
            period_s: 100.0,
        };
        assert!((p.at(0.0) - 25.0).abs() < 1e-12);
        assert!((p.at(25.0) - 30.0).abs() < 1e-9);
        assert!((p.at(75.0) - 20.0).abs() < 1e-9);
        assert!(!p.is_constant());
    }

    #[test]
    fn default_matches_lab_ambient() {
        assert_eq!(
            AmbientProfile::default().at(123.0),
            thermorl_thermal::AMBIENT_C
        );
    }
}
