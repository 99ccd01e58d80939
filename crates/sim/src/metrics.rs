//! Run outcomes and derived metrics.

use thermorl_platform::CounterSnapshot;
use thermorl_reliability::{ReliabilityAnalyzer, ReliabilityReport, ThermalProfile};

/// Per-application results within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    /// Benchmark name.
    pub name: String,
    /// Dataset label.
    pub dataset: String,
    /// Simulation time the app started (s).
    pub start_time: f64,
    /// Simulation time it finished (s), if it did.
    pub finish_time: Option<f64>,
    /// Frames completed.
    pub frames_completed: usize,
    /// Total frames requested.
    pub total_frames: usize,
}

impl AppResult {
    /// Execution time (s), if the application completed.
    pub fn execution_time(&self) -> Option<f64> {
        self.finish_time.map(|f| f - self.start_time)
    }

    /// Mean frames per second over the app's own execution window.
    pub fn fps(&self) -> Option<f64> {
        self.execution_time()
            .map(|t| self.frames_completed as f64 / t)
    }
}

/// Everything measured during one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Scenario label (e.g. `"mpegdec-tachyon"`).
    pub scenario_name: String,
    /// Controller/policy label.
    pub controller_name: String,
    /// Per-core sensor temperature traces at the metrics interval.
    pub sensor_profiles: Vec<ThermalProfile>,
    /// Per-application results, in execution order.
    pub app_results: Vec<AppResult>,
    /// Total simulated time (s).
    pub total_time: f64,
    /// Whether every application completed before the safety cap.
    pub completed: bool,
    /// Total dynamic energy (J).
    pub dynamic_energy_j: f64,
    /// Total leakage energy (J).
    pub static_energy_j: f64,
    /// Mean dynamic power over the run (W).
    pub avg_dynamic_power_w: f64,
    /// Mean static power over the run (W).
    pub avg_static_power_w: f64,
    /// Final perf-counter totals.
    pub counters: CounterSnapshot,
    /// Total thread migrations.
    pub migrations: u64,
    /// Sensor samples delivered to the controller.
    pub samples: u64,
    /// Decisions (actuations) the controller issued.
    pub decisions: u64,
}

impl RunOutcome {
    /// Per-core reliability reports using a custom analyzer.
    pub fn reliability_reports_with(
        &self,
        analyzer: &ReliabilityAnalyzer,
    ) -> Vec<ReliabilityReport> {
        analyzer.analyze_cores(&self.sensor_profiles)
    }

    /// Per-core reliability reports with the default (paper-calibrated)
    /// analyzer.
    pub fn reliability_reports(&self) -> Vec<ReliabilityReport> {
        self.reliability_reports_with(&ReliabilityAnalyzer::default())
    }

    /// System-level reliability summary (worst core limits lifetime) with
    /// the default analyzer.
    ///
    /// # Panics
    ///
    /// Panics if the run recorded no cores (cannot happen for engine runs).
    pub fn reliability_summary(&self) -> thermorl_reliability::report::SystemSummary {
        ReliabilityAnalyzer::system_summary(&self.reliability_reports())
            .expect("engine always records at least one core")
    }

    /// Mean of per-core average temperatures (the paper's "average
    /// temperature" columns).
    pub fn avg_temperature(&self) -> f64 {
        if self.sensor_profiles.is_empty() {
            return 0.0;
        }
        self.sensor_profiles
            .iter()
            .map(|p| p.average())
            .sum::<f64>()
            / self.sensor_profiles.len() as f64
    }

    /// Hottest temperature seen on any core.
    pub fn peak_temperature(&self) -> f64 {
        self.sensor_profiles
            .iter()
            .map(|p| p.peak())
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Execution time of the `i`-th application, if it completed.
    pub fn execution_time(&self, i: usize) -> Option<f64> {
        self.app_results.get(i).and_then(|a| a.execution_time())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        RunOutcome {
            scenario_name: "x".into(),
            controller_name: "y".into(),
            sensor_profiles: vec![
                ThermalProfile::from_samples(1.0, vec![40.0, 42.0, 44.0]),
                ThermalProfile::from_samples(1.0, vec![30.0, 30.0, 30.0]),
            ],
            app_results: vec![AppResult {
                name: "a".into(),
                dataset: "d".into(),
                start_time: 0.0,
                finish_time: Some(10.0),
                frames_completed: 20,
                total_frames: 20,
            }],
            total_time: 10.0,
            completed: true,
            dynamic_energy_j: 100.0,
            static_energy_j: 50.0,
            avg_dynamic_power_w: 10.0,
            avg_static_power_w: 5.0,
            counters: CounterSnapshot::default(),
            migrations: 3,
            samples: 10,
            decisions: 2,
        }
    }

    #[test]
    fn app_result_derived_metrics() {
        let o = outcome();
        assert_eq!(o.execution_time(0), Some(10.0));
        assert_eq!(o.app_results[0].fps(), Some(2.0));
        assert_eq!(o.execution_time(5), None);
    }

    #[test]
    fn temperature_aggregates() {
        let o = outcome();
        assert!((o.avg_temperature() - 36.0).abs() < 1e-9);
        assert_eq!(o.peak_temperature(), 44.0);
    }

    #[test]
    fn reliability_summary_uses_worst_core() {
        let o = outcome();
        let s = o.reliability_summary();
        let reports = o.reliability_reports();
        assert_eq!(
            s.mttf_aging_years,
            reports
                .iter()
                .map(|r| r.mttf_aging_years)
                .fold(f64::INFINITY, f64::min)
        );
    }

    #[test]
    fn incomplete_app_has_no_execution_time() {
        let mut o = outcome();
        o.app_results[0].finish_time = None;
        assert_eq!(o.execution_time(0), None);
        assert_eq!(o.app_results[0].fps(), None);
    }
}
