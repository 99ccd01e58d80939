//! DVFS operating performance points (frequency/voltage pairs).

/// One DVFS operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts.
    pub voltage: f64,
}

impl std::fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1} GHz @ {:.2} V", self.freq_ghz, self.voltage)
    }
}

/// An ordered table of operating points (lowest to highest frequency),
/// modelling the cpufreq frequency table of the paper's Intel quad-core
/// (1.6–3.4 GHz; the paper's Table 3 exercises 2.4 GHz and 3.4 GHz
/// userspace points explicitly).
///
/// # Example
///
/// ```
/// use thermorl_platform::OppTable;
///
/// let t = OppTable::intel_quad();
/// assert_eq!(t.max_index(), t.len() - 1);
/// assert!(t.get(t.max_index()).freq_ghz > t.get(0).freq_ghz);
/// assert_eq!(t.index_of_freq(2.4), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    points: Vec<OperatingPoint>,
}

impl Default for OppTable {
    fn default() -> Self {
        OppTable::intel_quad()
    }
}

impl OppTable {
    /// Builds a table from points sorted by ascending frequency.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty, unsorted, or contains non-positive
    /// frequencies/voltages.
    pub fn new(points: Vec<OperatingPoint>) -> Self {
        assert!(!points.is_empty(), "OPP table cannot be empty");
        for p in &points {
            assert!(
                p.freq_ghz > 0.0 && p.voltage > 0.0,
                "non-physical operating point {p:?}"
            );
        }
        assert!(
            points.windows(2).all(|w| w[0].freq_ghz < w[1].freq_ghz),
            "OPP table must be sorted by ascending frequency"
        );
        OppTable { points }
    }

    /// The 6-point table of the paper's platform: 1.6–3.4 GHz.
    pub fn intel_quad() -> Self {
        OppTable::new(vec![
            OperatingPoint {
                freq_ghz: 1.6,
                voltage: 0.85,
            },
            OperatingPoint {
                freq_ghz: 2.0,
                voltage: 0.95,
            },
            OperatingPoint {
                freq_ghz: 2.4,
                voltage: 1.05,
            },
            OperatingPoint {
                freq_ghz: 2.8,
                voltage: 1.15,
            },
            OperatingPoint {
                freq_ghz: 3.2,
                voltage: 1.25,
            },
            OperatingPoint {
                freq_ghz: 3.4,
                voltage: 1.30,
            },
        ])
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The operating point at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> OperatingPoint {
        self.points[index]
    }

    /// Index of the lowest-frequency point (powersave).
    pub fn min_index(&self) -> usize {
        0
    }

    /// Index of the highest-frequency point (performance).
    pub fn max_index(&self) -> usize {
        self.points.len() - 1
    }

    /// Index of the exact frequency `freq_ghz` if present.
    pub fn index_of_freq(&self, freq_ghz: f64) -> Option<usize> {
        self.points
            .iter()
            .position(|p| (p.freq_ghz - freq_ghz).abs() < 1e-9)
    }

    /// Lowest index whose frequency is ≥ `freq_ghz` (clamped to max).
    pub fn ceil_index(&self, freq_ghz: f64) -> usize {
        self.points
            .iter()
            .position(|p| p.freq_ghz >= freq_ghz - 1e-12)
            .unwrap_or(self.max_index())
    }

    /// Iterates over the points in ascending frequency order.
    pub fn iter(&self) -> std::slice::Iter<'_, OperatingPoint> {
        self.points.iter()
    }
}

impl<'a> IntoIterator for &'a OppTable {
    type Item = &'a OperatingPoint;
    type IntoIter = std::slice::Iter<'a, OperatingPoint>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_table_shape() {
        let t = OppTable::intel_quad();
        assert_eq!(t.len(), 6);
        assert_eq!(t.get(0).freq_ghz, 1.6);
        assert_eq!(t.get(t.max_index()).freq_ghz, 3.4);
        assert!(t.iter().all(|p| p.voltage >= 0.85 && p.voltage <= 1.30));
    }

    #[test]
    fn voltage_increases_with_frequency() {
        let t = OppTable::intel_quad();
        for w in t.points.windows(2) {
            assert!(w[0].voltage <= w[1].voltage);
        }
    }

    #[test]
    fn index_lookups() {
        let t = OppTable::intel_quad();
        assert_eq!(t.index_of_freq(3.4), Some(5));
        assert_eq!(t.index_of_freq(2.5), None);
        assert_eq!(t.ceil_index(2.5), 3); // 2.8 GHz
        assert_eq!(t.ceil_index(0.5), 0);
        assert_eq!(t.ceil_index(9.9), t.max_index());
        assert_eq!(t.ceil_index(2.4), 2); // exact hit
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_table_rejected() {
        let _ = OppTable::new(vec![
            OperatingPoint {
                freq_ghz: 2.0,
                voltage: 1.0,
            },
            OperatingPoint {
                freq_ghz: 1.0,
                voltage: 0.9,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_table_rejected() {
        let _ = OppTable::new(vec![]);
    }

    #[test]
    fn display_format() {
        let p = OperatingPoint {
            freq_ghz: 2.4,
            voltage: 1.05,
        };
        assert_eq!(p.to_string(), "2.4 GHz @ 1.05 V");
    }
}
