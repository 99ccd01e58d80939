//! Heterogeneous core support (the paper's §7 future-work extension).
//!
//! A [`CoreClass`] scales one core's effective frequency and power draw
//! relative to the baseline OPP table, which is enough to model
//! big.LITTLE-style asymmetric multicores: "little" cores execute fewer
//! cycles per second at the same OPP index and burn proportionally less
//! power, so thread placement gains a new lifetime lever (hot threads can
//! be parked on slow-cool cores).

/// Per-core performance/power scaling relative to the OPP table.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreClass {
    /// Class label, e.g. `"big"` / `"little"`.
    pub name: String,
    /// Multiplier on the core's effective clock (work per second).
    pub freq_scale: f64,
    /// Multiplier on the core's dynamic and leakage power.
    pub power_scale: f64,
}

impl CoreClass {
    /// A full-performance core (the homogeneous default).
    pub fn big() -> Self {
        CoreClass {
            name: "big".to_string(),
            freq_scale: 1.0,
            power_scale: 1.0,
        }
    }

    /// An efficiency core: 60 % of the speed for 35 % of the power
    /// (representative of Arm big.LITTLE pairings).
    pub fn little() -> Self {
        CoreClass {
            name: "little".to_string(),
            freq_scale: 0.6,
            power_scale: 0.35,
        }
    }

    /// Validates physical sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.freq_scale <= 0.0 || self.freq_scale > 2.0 {
            return Err("freq_scale must be in (0, 2]".into());
        }
        if self.power_scale <= 0.0 || self.power_scale > 2.0 {
            return Err("power_scale must be in (0, 2]".into());
        }
        Ok(())
    }
}

impl Default for CoreClass {
    fn default() -> Self {
        CoreClass::big()
    }
}

/// A 2-big + 2-little quad-core layout (cores 0,1 big; 2,3 little).
pub fn big_little_quad() -> Vec<CoreClass> {
    vec![
        CoreClass::big(),
        CoreClass::big(),
        CoreClass::little(),
        CoreClass::little(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(CoreClass::big().validate().is_ok());
        assert!(CoreClass::little().validate().is_ok());
        assert_eq!(CoreClass::default(), CoreClass::big());
    }

    #[test]
    fn little_is_slower_and_cooler() {
        let little = CoreClass::little();
        assert!(little.freq_scale < 1.0);
        assert!(little.power_scale < little.freq_scale, "perf/W advantage");
    }

    #[test]
    fn big_little_layout() {
        let layout = big_little_quad();
        assert_eq!(layout.len(), 4);
        assert_eq!(layout[0].name, "big");
        assert_eq!(layout[3].name, "little");
    }

    #[test]
    fn validation_rejects_nonphysical() {
        let bad = CoreClass {
            name: "x".into(),
            freq_scale: 0.0,
            power_scale: 1.0,
        };
        assert!(bad.validate().is_err());
        let bad = CoreClass {
            name: "x".into(),
            freq_scale: 1.0,
            power_scale: 3.0,
        };
        assert!(bad.validate().is_err());
    }
}
