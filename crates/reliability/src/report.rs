//! One-stop reliability analysis of a thermal profile.

use crate::aging::{sofr_mttf_years, AgingModel};
use crate::coffin_manson::CyclingParams;
use crate::miner;
use crate::profile::ThermalProfile;
use crate::rainflow::{total_cycles, Cycle, RainflowCounter};
use crate::stress::stress_of_cycles;

/// Combines the aging and cycling models and analyses whole profiles,
/// producing the quantities reported across the paper's Table 2/3 and
/// Figures 3–8.
///
/// # Example
///
/// ```
/// use thermorl_reliability::{ReliabilityAnalyzer, ThermalProfile};
///
/// let profile: ThermalProfile = (0..600)
///     .map(|i| 45.0 + 8.0 * (i as f64 * 0.3).sin())
///     .collect();
/// let report = ReliabilityAnalyzer::default().analyze(&profile);
/// assert!(report.avg_temp_c > 40.0 && report.avg_temp_c < 50.0);
/// assert!(report.mttf_aging_years < 10.0); // hotter than the idle reference
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReliabilityAnalyzer {
    /// The aging (average-temperature) model, Eq. 1–2.
    pub aging: AgingModel,
    /// The thermal-cycling model, Eq. 3–6.
    pub cycling: CyclingParams,
    /// Rainflow counter (hysteresis threshold).
    pub counter: RainflowCounter,
}

/// Everything the paper reports about one core's thermal profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// Average temperature (°C) — Table 2 columns 3–5.
    pub avg_temp_c: f64,
    /// Peak temperature (°C) — Table 2 columns 6–8.
    pub peak_temp_c: f64,
    /// Minimum temperature (°C).
    pub min_temp_c: f64,
    /// Aging rate `A` (1/years), Eq. 1.
    pub aging_rate: f64,
    /// Average-temperature MTTF (years), Eq. 2 — Table 2 columns 12–14.
    pub mttf_aging_years: f64,
    /// Aggregate thermal stress, Eq. 6.
    pub stress: f64,
    /// Thermal-cycling MTTF (years), Eq. 4–5 — Table 2 columns 9–11.
    pub mttf_cycling_years: f64,
    /// Combined MTTF by sum-of-failure-rates over both mechanisms.
    pub mttf_combined_years: f64,
    /// Number of (fractional) rainflow cycles counted.
    pub num_cycles: f64,
    /// The counted cycles themselves, for downstream inspection.
    pub cycles: Vec<Cycle>,
    /// Profile duration in seconds.
    pub duration_s: f64,
}

impl ReliabilityAnalyzer {
    /// Analyses one core's profile.
    pub fn analyze(&self, profile: &ThermalProfile) -> ReliabilityReport {
        let cycles = self.counter.count(profile);
        let stress = stress_of_cycles(&self.cycling, &cycles);
        let mttf_cycling = if profile.is_empty() {
            f64::INFINITY
        } else {
            miner::mttf_years(&self.cycling, &cycles, profile.duration())
        };
        let aging_rate = self.aging.aging_rate(profile);
        let mttf_aging = self.aging.mttf_years(profile);
        ReliabilityReport {
            avg_temp_c: profile.average(),
            peak_temp_c: profile.peak(),
            min_temp_c: profile.min(),
            aging_rate,
            mttf_aging_years: mttf_aging,
            stress,
            mttf_cycling_years: mttf_cycling,
            mttf_combined_years: sofr_mttf_years(&[mttf_aging, mttf_cycling]),
            num_cycles: total_cycles(&cycles),
            cycles,
            duration_s: profile.duration(),
        }
    }

    /// Analyses several cores and returns per-core reports.
    pub fn analyze_cores(&self, profiles: &[ThermalProfile]) -> Vec<ReliabilityReport> {
        profiles.iter().map(|p| self.analyze(p)).collect()
    }

    /// System-level view over per-core reports: the paper quotes the
    /// *limiting* (worst) core for MTTF and the hottest core for peak.
    pub fn system_summary(reports: &[ReliabilityReport]) -> Option<SystemSummary> {
        if reports.is_empty() {
            return None;
        }
        let avg = reports.iter().map(|r| r.avg_temp_c).sum::<f64>() / reports.len() as f64;
        let peak = reports
            .iter()
            .map(|r| r.peak_temp_c)
            .fold(f64::NEG_INFINITY, f64::max);
        let worst_aging = reports
            .iter()
            .map(|r| r.mttf_aging_years)
            .fold(f64::INFINITY, f64::min);
        let worst_cycling = reports
            .iter()
            .map(|r| r.mttf_cycling_years)
            .fold(f64::INFINITY, f64::min);
        Some(SystemSummary {
            avg_temp_c: avg,
            peak_temp_c: peak,
            mttf_aging_years: worst_aging,
            mttf_cycling_years: worst_cycling,
            mttf_combined_years: sofr_mttf_years(&[worst_aging, worst_cycling]),
        })
    }
}

/// System-level reliability: the limiting core determines lifetime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemSummary {
    /// Mean of per-core average temperatures (°C).
    pub avg_temp_c: f64,
    /// Hottest temperature observed on any core (°C).
    pub peak_temp_c: f64,
    /// Lowest per-core aging MTTF (years).
    pub mttf_aging_years: f64,
    /// Lowest per-core cycling MTTF (years).
    pub mttf_cycling_years: f64,
    /// SOFR combination of the two limiting MTTFs (years).
    pub mttf_combined_years: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(mean: f64, amp: f64, n: usize) -> ThermalProfile {
        (0..n)
            .map(|i| mean + amp * (i as f64 * 0.25).sin())
            .collect()
    }

    #[test]
    fn report_fields_are_consistent() {
        let r = ReliabilityAnalyzer::default().analyze(&sine(50.0, 10.0, 600));
        assert!(r.peak_temp_c <= 60.0 + 1e-9 && r.peak_temp_c > 55.0);
        assert!(r.min_temp_c >= 40.0 - 1e-9);
        assert!((r.avg_temp_c - 50.0).abs() < 1.0);
        assert!(r.num_cycles > 10.0);
        assert!(r.stress > 0.0);
        assert!(r.mttf_cycling_years.is_finite());
        assert!(r.mttf_combined_years <= r.mttf_aging_years);
        assert!(r.mttf_combined_years <= r.mttf_cycling_years);
        assert_eq!(r.duration_s, 600.0);
    }

    #[test]
    fn flat_profile_has_infinite_cycling_mttf() {
        let p = ThermalProfile::from_samples(1.0, vec![40.0; 300]);
        let r = ReliabilityAnalyzer::default().analyze(&p);
        assert_eq!(r.mttf_cycling_years, f64::INFINITY);
        assert_eq!(r.num_cycles, 0.0);
        // Combined then equals the aging MTTF.
        assert!((r.mttf_combined_years - r.mttf_aging_years).abs() < 1e-9);
    }

    #[test]
    fn hotter_profile_reports_shorter_aging_life() {
        let a = ReliabilityAnalyzer::default();
        let cool = a.analyze(&sine(40.0, 5.0, 400));
        let hot = a.analyze(&sine(65.0, 5.0, 400));
        assert!(hot.mttf_aging_years < cool.mttf_aging_years);
    }

    #[test]
    fn cycling_profile_reports_shorter_cycling_life() {
        let a = ReliabilityAnalyzer::default();
        let calm = a.analyze(&sine(50.0, 3.0, 400));
        let churning = a.analyze(&sine(50.0, 18.0, 400));
        assert!(churning.mttf_cycling_years < calm.mttf_cycling_years);
    }

    #[test]
    fn system_summary_takes_the_worst_core() {
        let a = ReliabilityAnalyzer::default();
        let reports = a.analyze_cores(&[sine(40.0, 4.0, 400), sine(65.0, 15.0, 400)]);
        let s = ReliabilityAnalyzer::system_summary(&reports).unwrap();
        assert_eq!(s.mttf_aging_years, reports[1].mttf_aging_years);
        assert_eq!(s.mttf_cycling_years, reports[1].mttf_cycling_years);
        assert!(s.peak_temp_c >= reports[1].peak_temp_c);
        assert!(ReliabilityAnalyzer::system_summary(&[]).is_none());
    }

    #[test]
    fn empty_profile_report() {
        let r = ReliabilityAnalyzer::default().analyze(&ThermalProfile::default());
        assert_eq!(r.mttf_cycling_years, f64::INFINITY);
        assert_eq!(r.mttf_aging_years, f64::INFINITY);
        assert_eq!(r.duration_s, 0.0);
    }
}
