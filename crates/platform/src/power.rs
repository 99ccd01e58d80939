//! CPU power and energy models.
//!
//! Dynamic power follows the classic `P = a · C_eff · V² · f` switching
//! model; leakage follows the exponential temperature dependence the paper
//! leans on in §6.5 ("by reducing the average temperature the proposed
//! technique improves the leakage power", citing Ukhov et al. \[17\]):
//! `P_leak = V · I₀ · e^{k·T}`. The [`EnergyMeter`] integrates both
//! components per core, playing the role of `likwid-powermeter` in the
//! paper's measurement setup.

use crate::opp::OperatingPoint;

/// Calibrated power model of one core.
///
/// Defaults are tuned so a fully active core at 3.4 GHz/1.30 V draws ≈ 18 W
/// dynamic (≈ 72 W die total, in line with desktop quad-cores of the
/// paper's era and the ≈ 30 W *average* dynamic powers of Figure 9) and a
/// hot core leaks ≈ 3 W.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Effective switched capacitance coefficient (W / (GHz · V²)).
    pub c_eff: f64,
    /// Leakage scale current `I₀` (A) at 0 °C.
    pub leak_i0: f64,
    /// Leakage temperature exponent `k` (1/°C).
    pub leak_k: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            c_eff: 3.1,
            leak_i0: 0.57,
            leak_k: 0.02,
        }
    }
}

impl PowerModel {
    /// Dynamic power (W) of a core running with the given activity factor
    /// (0–1, switching intensity of the workload) and busy fraction at the
    /// operating point.
    pub fn dynamic(&self, opp: OperatingPoint, activity: f64, busy_frac: f64) -> f64 {
        self.c_eff
            * activity.clamp(0.0, 1.0)
            * busy_frac.clamp(0.0, 1.0)
            * opp.voltage
            * opp.voltage
            * opp.freq_ghz
    }

    /// Leakage (static) power (W) at supply `voltage` and die temperature
    /// `temp_c`. Leakage flows regardless of activity.
    pub fn leakage(&self, voltage: f64, temp_c: f64) -> f64 {
        voltage * self.leak_i0 * (self.leak_k * temp_c).exp()
    }

    /// Total power of a core.
    pub fn total(&self, opp: OperatingPoint, activity: f64, busy_frac: f64, temp_c: f64) -> f64 {
        self.dynamic(opp, activity, busy_frac) + self.leakage(opp.voltage, temp_c)
    }
}

/// Integrates per-core dynamic and static energy over a run, exposing the
/// same dynamic-power / dynamic-energy numbers the paper's Figure 9 plots
/// and the leakage-energy estimate of §6.5.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    dynamic_j: Vec<f64>,
    static_j: Vec<f64>,
    elapsed_s: f64,
}

impl EnergyMeter {
    /// Creates a meter for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        EnergyMeter {
            dynamic_j: vec![0.0; num_cores],
            static_j: vec![0.0; num_cores],
            elapsed_s: 0.0,
        }
    }

    /// Records `dt` seconds of the given per-core dynamic/static powers.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ from the core count.
    pub fn record(&mut self, dt: f64, dynamic_w: &[f64], static_w: &[f64]) {
        assert_eq!(dynamic_w.len(), self.dynamic_j.len());
        assert_eq!(static_w.len(), self.static_j.len());
        for (acc, &p) in self.dynamic_j.iter_mut().zip(dynamic_w) {
            *acc += p * dt;
        }
        for (acc, &p) in self.static_j.iter_mut().zip(static_w) {
            *acc += p * dt;
        }
        self.elapsed_s += dt;
    }

    /// Total dynamic energy so far (J).
    pub fn dynamic_energy(&self) -> f64 {
        self.dynamic_j.iter().sum()
    }

    /// Total static (leakage) energy so far (J).
    pub fn static_energy(&self) -> f64 {
        self.static_j.iter().sum()
    }

    /// Total energy so far (J).
    pub fn total_energy(&self) -> f64 {
        self.dynamic_energy() + self.static_energy()
    }

    /// Per-core dynamic energies (J).
    pub fn dynamic_energy_per_core(&self) -> &[f64] {
        &self.dynamic_j
    }

    /// Average total dynamic power since start (W), 0 if no time elapsed.
    pub fn average_dynamic_power(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.dynamic_energy() / self.elapsed_s
        }
    }

    /// Average total static power since start (W).
    pub fn average_static_power(&self) -> f64 {
        if self.elapsed_s == 0.0 {
            0.0
        } else {
            self.static_energy() / self.elapsed_s
        }
    }

    /// Elapsed (recorded) time in seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opp::OppTable;

    #[test]
    fn full_tilt_core_draws_around_18w_dynamic() {
        let m = PowerModel::default();
        let top = OppTable::intel_quad().get(5);
        let p = m.dynamic(top, 1.0, 1.0);
        assert!(p > 15.0 && p < 21.0, "dynamic power {p}");
    }

    #[test]
    fn idle_core_draws_no_dynamic_power() {
        let m = PowerModel::default();
        let top = OppTable::intel_quad().get(5);
        assert_eq!(m.dynamic(top, 1.0, 0.0), 0.0);
        assert_eq!(m.dynamic(top, 0.0, 1.0), 0.0);
    }

    #[test]
    fn dynamic_power_scales_with_v_squared_f() {
        let m = PowerModel::default();
        let t = OppTable::intel_quad();
        let lo = m.dynamic(t.get(0), 0.8, 1.0);
        let hi = m.dynamic(t.get(5), 0.8, 1.0);
        let expected_ratio = (1.30f64 / 0.85).powi(2) * (3.4 / 1.6);
        assert!((hi / lo - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn leakage_grows_exponentially_with_temperature() {
        let m = PowerModel::default();
        let l30 = m.leakage(1.3, 30.0);
        let l80 = m.leakage(1.3, 80.0);
        assert!((l80 / l30 - (0.02f64 * 50.0).exp()).abs() < 1e-9);
        assert!(l80 > 2.0 && l80 < 5.0, "hot leakage {l80}");
    }

    #[test]
    fn activity_clamps() {
        let m = PowerModel::default();
        let top = OppTable::intel_quad().get(5);
        assert_eq!(m.dynamic(top, 2.0, 1.0), m.dynamic(top, 1.0, 1.0));
        assert_eq!(m.dynamic(top, -1.0, 1.0), 0.0);
    }

    #[test]
    fn meter_integrates_power() {
        let mut e = EnergyMeter::new(2);
        e.record(2.0, &[5.0, 3.0], &[1.0, 1.0]);
        e.record(1.0, &[4.0, 0.0], &[1.0, 1.0]);
        assert!((e.dynamic_energy() - 20.0).abs() < 1e-12);
        assert!((e.static_energy() - 6.0).abs() < 1e-12);
        assert!((e.total_energy() - 26.0).abs() < 1e-12);
        assert!((e.average_dynamic_power() - 20.0 / 3.0).abs() < 1e-12);
        assert!((e.average_static_power() - 2.0).abs() < 1e-12);
        assert_eq!(e.elapsed(), 3.0);
        assert_eq!(e.dynamic_energy_per_core(), &[14.0, 6.0]);
    }

    #[test]
    fn fresh_meter_reports_zero_power() {
        let e = EnergyMeter::new(4);
        assert_eq!(e.average_dynamic_power(), 0.0);
        assert_eq!(e.total_energy(), 0.0);
    }

    #[test]
    #[should_panic]
    fn meter_rejects_wrong_core_count() {
        let mut e = EnergyMeter::new(2);
        e.record(1.0, &[1.0], &[1.0, 1.0]);
    }
}
