//! The controller interface: what a dynamic thermal manager sees and does.

use thermorl_platform::{CounterSnapshot, GovernorKind, ThreadAssignment};

/// Everything a controller observes at one sensor sample.
///
/// Matches the paper's run-time system inputs: on-board sensor readings,
/// performance (fps) versus the application's constraint, and perf
/// counters. `app_switched` is an *explicit* application-layer signal that
/// only the "modified Ge et al." baseline consumes (§6.2); the proposed
/// controller must detect switches autonomously.
#[derive(Debug, Clone)]
pub struct Observation<'a> {
    /// Simulation time (s) of this sample.
    pub time: f64,
    /// Per-core sensor readings (quantised, noisy) in °C.
    pub sensor_temps: &'a [f64],
    /// Windowed frames-per-second of the running application; for a
    /// concurrent mix, its worst relative performance `min_i P_i / P_c,i`.
    pub fps: f64,
    /// The running application's performance constraint `P_c` (fps); 1.0
    /// for a concurrent mix.
    pub perf_constraint: f64,
    /// Name of the running application (a mix's `+`-joined names).
    pub app_name: &'a str,
    /// Index of the running application within the scenario (0 for a mix).
    pub app_index: usize,
    /// True on the first sample after an application switch (explicit
    /// signal from the application layer; see struct docs).
    pub app_switched: bool,
    /// Cumulative perf-counter totals.
    pub counters: CounterSnapshot,
    /// Current per-core frequencies (GHz), as `cpufreq` would report.
    pub core_freq_ghz: &'a [f64],
}

/// An action decided by a controller: new affinity masks and/or governor
/// settings. `None` fields leave the current setting untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Actuation {
    /// New thread-to-core assignment.
    pub assignment: Option<ThreadAssignment>,
    /// New governor for every core.
    pub governor: Option<GovernorKind>,
    /// Per-core governor overrides, applied after `governor` (the paper
    /// lets each core carry its own voltage/frequency; useful on
    /// heterogeneous machines). Entries beyond the core count are ignored.
    pub per_core_governors: Option<Vec<GovernorKind>>,
}

impl Actuation {
    /// An actuation that changes nothing (still counted as a decision).
    pub fn unchanged() -> Self {
        Actuation::default()
    }

    /// Whether the actuation changes nothing.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_none() && self.governor.is_none() && self.per_core_governors.is_none()
    }
}

/// A dynamic thermal management policy plugged into the simulation loop.
///
/// The engine calls [`ThermalController::on_sample`] every
/// [`ThermalController::sampling_interval`] seconds with fresh sensor
/// readings. Returning `Some` actuates the platform (and is charged the
/// decision overhead); returning `None` costs only the sampling overhead.
pub trait ThermalController {
    /// Human-readable policy name (used in experiment tables).
    fn name(&self) -> &str;

    /// Seconds between sensor samples delivered to this controller.
    /// The paper's systematic study (Figure 6) selects 3 s.
    fn sampling_interval(&self) -> f64 {
        1.0
    }

    /// Handles one sensor sample; optionally actuates.
    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation>;

    /// Called once when the simulation starts, with the thread and core
    /// counts, so policies can size their action spaces.
    fn on_start(&mut self, _num_threads: usize, _num_cores: usize) {}
}

/// A controller that never acts: pure Linux default behaviour (ondemand
/// governor + load-balanced scheduling). This is the paper's "Linux"
/// baseline and the reference for normalisation.
#[derive(Debug, Clone, Default)]
pub struct NullController {
    _private: (),
}

impl ThermalController for NullController {
    fn name(&self) -> &str {
        "linux-ondemand"
    }

    fn on_sample(&mut self, _obs: &Observation<'_>) -> Option<Actuation> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_controller_never_acts() {
        let mut c = NullController::default();
        let obs = Observation {
            time: 0.0,
            sensor_temps: &[40.0; 4],
            fps: 1.0,
            perf_constraint: 1.0,
            app_name: "x",
            app_index: 0,
            app_switched: false,
            counters: CounterSnapshot::default(),
            core_freq_ghz: &[3.4; 4],
        };
        assert!(c.on_sample(&obs).is_none());
        assert_eq!(c.name(), "linux-ondemand");
        assert_eq!(c.sampling_interval(), 1.0);
    }

    #[test]
    fn actuation_emptiness() {
        assert!(Actuation::unchanged().is_empty());
        let a = Actuation {
            governor: Some(GovernorKind::Powersave),
            ..Actuation::default()
        };
        assert!(!a.is_empty());
    }
}
