//! The (stress, aging) state space of the learning agent (§5.1).
//!
//! Both quantities are expressed as *normalised hazards* so that one scale
//! works across applications:
//!
//! * `stress_norm = 10 / MTTF_cycling_years` of the decision-epoch window
//!   (1.0 ≙ a cycling regime that would wear the core out in ten years),
//! * `aging_norm = 10 / MTTF_aging_years` of the window (1.0 ≙ the
//!   ten-year idle calibration point of Table 2).
//!
//! The working range of each hazard is divided into `Ns` (resp. `Na`)
//! disjoint intervals; the *last* interval is the paper's "unsafe zone"
//! that triggers the penalty branch of the reward function.

/// Dense identifier of one (stress-bin, aging-bin) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub usize);

impl StateId {
    /// Dense index of the state.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Discretisation of the (stress, aging) environment.
///
/// # Example
///
/// ```
/// use thermorl_control::StateSpace;
///
/// let space = StateSpace::new(4, 4, 20.0, 12.0);
/// assert_eq!(space.len(), 16);
/// let calm = space.identify(0.5, 1.0);
/// let burning = space.identify(50.0, 50.0);
/// assert_ne!(calm, burning);
/// assert!(space.is_unsafe(burning));
/// assert!(!space.is_unsafe(calm));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateSpace {
    ns: usize,
    na: usize,
    stress_max: f64,
    aging_max: f64,
}

impl Default for StateSpace {
    /// 4×4 bins over hazards up to 8 — the working range observed on the
    /// benchmark suite (hazard 8 ≙ a 1.25-year MTTF, deep in the unsafe
    /// zone) and the mid-size design point of the paper's Figure 8.
    fn default() -> Self {
        StateSpace::new(4, 4, 8.0, 8.0)
    }
}

impl StateSpace {
    /// Creates an `ns × na` state space over hazards in
    /// `[0, stress_max] × [0, aging_max]`.
    ///
    /// # Panics
    ///
    /// Panics if either bin count is < 2 or a range is non-positive
    /// (the unsafe zone needs a bin of its own).
    pub fn new(ns: usize, na: usize, stress_max: f64, aging_max: f64) -> Self {
        assert!(ns >= 2 && na >= 2, "need at least a safe and an unsafe bin");
        assert!(
            stress_max > 0.0 && aging_max > 0.0,
            "hazard ranges must be positive"
        );
        StateSpace {
            ns,
            na,
            stress_max,
            aging_max,
        }
    }

    /// Number of stress intervals `Ns`.
    pub fn num_stress_bins(&self) -> usize {
        self.ns
    }

    /// Number of aging intervals `Na`.
    pub fn num_aging_bins(&self) -> usize {
        self.na
    }

    /// Total number of states `Ns × Na`.
    pub fn len(&self) -> usize {
        self.ns * self.na
    }

    /// Whether the space is empty (never true: construction enforces ≥ 4).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper edge of the stress working range.
    pub fn stress_max(&self) -> f64 {
        self.stress_max
    }

    /// Upper edge of the aging working range.
    pub fn aging_max(&self) -> f64 {
        self.aging_max
    }

    fn stress_bin(&self, stress_norm: f64) -> usize {
        let step = self.stress_max / self.ns as f64;
        ((stress_norm / step) as usize).min(self.ns - 1)
    }

    fn aging_bin(&self, aging_norm: f64) -> usize {
        let step = self.aging_max / self.na as f64;
        ((aging_norm / step) as usize).min(self.na - 1)
    }

    /// Identifies the state for a (stress, aging) hazard pair — the
    /// `IdentifyState` subroutine of Algorithm 1. Negative inputs clamp
    /// to zero, values beyond the range clamp into the unsafe bins.
    pub fn identify(&self, stress_norm: f64, aging_norm: f64) -> StateId {
        let s = self.stress_bin(stress_norm.max(0.0));
        let a = self.aging_bin(aging_norm.max(0.0));
        StateId(s * self.na + a)
    }

    /// Splits a state back into its (stress-bin, aging-bin) pair.
    pub fn bins(&self, id: StateId) -> (usize, usize) {
        (id.0 / self.na, id.0 % self.na)
    }

    /// Representative hazard values (interval midpoints) of a state —
    /// the `ŝ` and `â` symbols of the paper.
    pub fn representative(&self, id: StateId) -> (f64, f64) {
        let (s, a) = self.bins(id);
        let s_step = self.stress_max / self.ns as f64;
        let a_step = self.aging_max / self.na as f64;
        ((s as f64 + 0.5) * s_step, (a as f64 + 0.5) * a_step)
    }

    /// Whether the state lies in the unsafe zone (last stress or last
    /// aging interval, `ŝ = ŝ_Ns` or `â = â_Na` in Eq. 8).
    pub fn is_unsafe(&self, id: StateId) -> bool {
        let (s, a) = self.bins(id);
        s == self.ns - 1 || a == self.na - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identify_and_bins_roundtrip() {
        let sp = StateSpace::new(4, 3, 8.0, 6.0);
        for s in 0..4 {
            for a in 0..3 {
                let stress = (s as f64 + 0.5) * 2.0;
                let aging = (a as f64 + 0.5) * 2.0;
                let id = sp.identify(stress, aging);
                assert_eq!(sp.bins(id), (s, a));
            }
        }
    }

    #[test]
    fn out_of_range_clamps_to_unsafe() {
        let sp = StateSpace::default();
        let id = sp.identify(1e9, 0.0);
        let (s, a) = sp.bins(id);
        assert_eq!(s, sp.num_stress_bins() - 1);
        assert_eq!(a, 0);
        assert!(sp.is_unsafe(id));
        // Negative values clamp to the first bins.
        assert_eq!(sp.bins(sp.identify(-5.0, -5.0)), (0, 0));
    }

    #[test]
    fn unsafe_zone_is_last_interval_of_either_axis() {
        let sp = StateSpace::new(3, 3, 9.0, 9.0);
        assert!(sp.is_unsafe(sp.identify(8.0, 1.0)));
        assert!(sp.is_unsafe(sp.identify(1.0, 8.0)));
        assert!(!sp.is_unsafe(sp.identify(1.0, 1.0)));
        assert!(!sp.is_unsafe(sp.identify(4.0, 4.0)));
    }

    #[test]
    fn representative_values_are_midpoints() {
        let sp = StateSpace::new(2, 2, 10.0, 4.0);
        let (s, a) = sp.representative(sp.identify(0.0, 0.0));
        assert!((s - 2.5).abs() < 1e-12);
        assert!((a - 1.0).abs() < 1e-12);
        let (s, a) = sp.representative(sp.identify(9.0, 3.9));
        assert!((s - 7.5).abs() < 1e-12);
        assert!((a - 3.0).abs() < 1e-12);
    }

    #[test]
    fn len_counts_all_states() {
        assert_eq!(StateSpace::new(5, 7, 1.0, 1.0).len(), 35);
        assert!(!StateSpace::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least a safe and an unsafe bin")]
    fn tiny_spaces_rejected() {
        let _ = StateSpace::new(1, 4, 1.0, 1.0);
    }
}
