//! The simulation loop.

use thermorl_platform::{AffinityMask, Machine, MachineConfig, ThreadDemand};
use thermorl_reliability::ThermalProfile;
use thermorl_telemetry as tel;
use thermorl_thermal::{DieModel, DieParams, Floorplan, SensorBank, SensorParams};
use thermorl_workload::{AppExecution, AppModel, Scenario};

use crate::ambient::AmbientProfile;
use crate::controller::{Observation, ThermalController};
use crate::metrics::{AppResult, RunOutcome};
use crate::trace::TraceRecorder;

/// Configuration of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Platform (cores, governors, power, scheduler, counters).
    pub machine: MachineConfig,
    /// Thermal package parameters.
    pub die: DieParams,
    /// Sensor characteristics (shared by the metrics tap and the
    /// controller's sensor bank, with independent noise streams).
    pub sensor: SensorParams,
    /// Simulation step (s).
    pub tick: f64,
    /// Interval of the fixed-rate measurement tap used for reliability
    /// metrics (s) — independent of the controller's sampling interval.
    pub metrics_interval: f64,
    /// Window over which fps is reported to controllers (s).
    pub fps_window: f64,
    /// Hard cap on simulated time (s); runs exceeding it are marked
    /// incomplete.
    pub max_sim_time: f64,
    /// Whether to keep a full [`TraceRecorder`] (temperature/frequency
    /// rows at the metrics interval).
    pub record_trace: bool,
    /// Ambient-temperature evolution; `None` keeps the die's configured
    /// constant ambient.
    pub ambient: Option<AmbientProfile>,
    /// Die floorplan override; `None` derives one from the core count
    /// (the paper's 2×2 quad for four cores, a 1×N strip otherwise).
    /// Must have exactly `machine.scheduler.num_cores` cores when set —
    /// the hook large-floorplan scenarios (N×N grids) use to replace the
    /// default strip.
    pub floorplan: Option<Floorplan>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            machine: MachineConfig::default(),
            die: DieParams::default(),
            sensor: SensorParams::default(),
            tick: 0.01,
            metrics_interval: 1.0,
            fps_window: 40.0,
            max_sim_time: 7200.0,
            record_trace: false,
            ambient: None,
            floorplan: None,
        }
    }
}

impl SimConfig {
    /// Returns the config with the thermal integrator replaced — e.g. to
    /// pin a run to forward Euler or RK4 for cross-validation against the
    /// default [`thermorl_thermal::Stepper::Exact`].
    pub fn with_stepper(mut self, stepper: thermorl_thermal::Stepper) -> Self {
        self.die.stepper = stepper;
        self
    }

    /// The floorplan this config simulates: the explicit override when
    /// set, otherwise the default shape for the scheduler's core count.
    /// Shared by [`Simulation::new`] and [`crate::run_concurrent`] so
    /// both engines simulate the same silicon.
    ///
    /// # Panics
    ///
    /// Panics if an override's core count disagrees with
    /// `machine.scheduler.num_cores`.
    pub fn resolved_floorplan(&self) -> Floorplan {
        let num_cores = self.machine.scheduler.num_cores;
        match self.floorplan {
            Some(fp) => {
                assert_eq!(
                    fp.num_cores(),
                    num_cores,
                    "floorplan override has {} cores but the scheduler expects {num_cores}",
                    fp.num_cores()
                );
                fp
            }
            None => floorplan_for(num_cores),
        }
    }
}

/// The die floorplan used for `num_cores` cores: the paper's 2×2 quad for
/// four cores, a 1×N strip otherwise. Shared by [`Simulation::new`] and
/// [`crate::run_concurrent`] so both engines simulate the same silicon.
///
/// # Panics
///
/// Panics if `num_cores` is zero.
pub(crate) fn floorplan_for(num_cores: usize) -> Floorplan {
    assert!(num_cores > 0, "need at least one core");
    if num_cores == 4 {
        Floorplan::quad()
    } else {
        Floorplan::grid(num_cores, 1)
    }
}

/// A fully assembled simulation, stepped to completion by
/// [`Simulation::run`].
pub struct Simulation {
    config: SimConfig,
    scenario: Scenario,
    controller: Box<dyn ThermalController>,
    machine: Machine,
    die: DieModel,
    metrics_sensors: SensorBank,
    controller_sensors: SensorBank,
    trace: TraceRecorder,
    seed: u64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scenario", &self.scenario.name)
            .field("controller", &self.controller.name())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Assembles a simulation of `scenario` under `controller`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero tick, no cores, …).
    pub fn new(
        scenario: Scenario,
        controller: Box<dyn ThermalController>,
        config: &SimConfig,
        seed: u64,
    ) -> Self {
        assert!(config.tick > 0.0, "tick must be positive");
        assert!(
            config.metrics_interval >= config.tick,
            "metrics interval must be at least one tick"
        );
        let num_cores = config.machine.scheduler.num_cores;
        let mut die = DieModel::new(config.resolved_floorplan(), config.die);
        if let Some(profile) = &config.ambient {
            die.set_ambient(profile.at(0.0));
        }
        let machine = Machine::new(config.machine.clone(), seed);
        Simulation {
            scenario,
            controller,
            machine,
            die,
            metrics_sensors: SensorBank::new(num_cores, config.sensor, seed ^ 0x11AA),
            controller_sensors: SensorBank::new(num_cores, config.sensor, seed ^ 0x22BB),
            trace: TraceRecorder::new(),
            config: config.clone(),
            seed,
        }
    }

    /// The recorded trace (populated when `record_trace` is set).
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Runs the scenario to completion (or the time cap) and returns the
    /// outcome.
    pub fn run(&mut self) -> RunOutcome {
        let num_cores = self.machine.num_cores();
        let num_threads = self.scenario.num_threads();
        let thread_ids: Vec<_> = (0..num_threads)
            .map(|_| self.machine.add_thread(AffinityMask::all(num_cores)))
            .collect();
        self.controller.on_start(num_threads, num_cores);

        let mut profiles =
            vec![ThermalProfile::from_samples(self.config.metrics_interval, vec![]); num_cores];
        let mut app_results: Vec<AppResult> = Vec::new();
        let mut time = 0.0f64;
        let mut sample_timer = 0.0f64;
        let mut metrics_timer = 0.0f64;
        let mut samples = 0u64;
        let mut decisions = 0u64;
        let mut completed = true;
        let sampling_interval = self.controller.sampling_interval().max(self.config.tick);
        // Bridge cursor: telemetry events recorded on this thread from
        // here on (by the controller, the thermal stepper, …) are
        // mirrored into the trace as labelled events.
        let mut event_cursor = tel::next_event_seq();
        // Per-tick buffers, refilled in place so the tick loop does not
        // allocate (the machine's result is a borrow of its own buffers).
        let mut needs = Vec::with_capacity(num_threads);
        let mut demands: Vec<ThreadDemand> = Vec::with_capacity(num_threads);
        let mut temps = vec![0.0; num_cores];

        let apps: Vec<AppModel> = self.scenario.apps.clone();
        'apps: for (app_idx, app) in apps.iter().enumerate() {
            for (i, &id) in thread_ids.iter().enumerate() {
                let _ = i;
                self.machine.set_memory_intensity(id, app.mem_intensity);
            }
            let mut exec = AppExecution::new(app.clone(), self.seed.wrapping_add(app_idx as u64));
            exec.restart_at(time);
            let mut pending_switch = app_idx > 0;
            if self.config.record_trace {
                self.trace.event(time, format!("app-switch:{}", app.name));
            }

            while !exec.is_complete() {
                if time >= self.config.max_sim_time {
                    completed = false;
                    app_results.push(AppResult {
                        name: app.name.clone(),
                        dataset: app.dataset.clone(),
                        start_time: exec.start_time(),
                        finish_time: None,
                        frames_completed: exec.frames_completed(),
                        total_frames: app.total_frames,
                    });
                    break 'apps;
                }
                exec.thread_needs_into(&mut needs);
                demands.clear();
                demands.extend(needs.iter().map(|n| ThreadDemand {
                    runnable: n.runnable,
                    activity: n.activity,
                }));
                for (c, t) in temps.iter_mut().enumerate() {
                    *t = self.die.core_temperature(c);
                }
                let mt = self.machine.tick(self.config.tick, &demands, &temps);
                for c in 0..num_cores {
                    self.die
                        .set_core_power(c, mt.core_dynamic_w[c] + mt.core_static_w[c]);
                }
                {
                    // The span lives here rather than inside
                    // `DieModel::advance` so the solver hot path, one
                    // `[E | F]` product per tick (bench:
                    // `die_tick_churn_ns`), stays uninstrumented.
                    let _g = tel::span!("thermal.step");
                    self.die.advance(self.config.tick);
                }
                time += self.config.tick;
                exec.advance(&mt.exec_giga_cycles, time);

                metrics_timer += self.config.tick;
                if metrics_timer + 1e-12 >= self.config.metrics_interval {
                    metrics_timer -= self.config.metrics_interval;
                    if let Some(profile) = &self.config.ambient {
                        if !profile.is_constant() {
                            self.die.set_ambient(profile.at(time));
                        }
                    }
                    let readings = self.metrics_sensors.read_all(&self.die.core_temperatures());
                    for (p, &r) in profiles.iter_mut().zip(&readings) {
                        p.push(r);
                    }
                    if self.config.record_trace {
                        let freqs: Vec<f64> =
                            (0..num_cores).map(|c| self.machine.frequency(c)).collect();
                        self.trace.push(
                            time,
                            &readings,
                            &freqs,
                            exec.windowed_fps(time, self.config.fps_window),
                        );
                    }
                }

                sample_timer += self.config.tick;
                if sample_timer + 1e-12 >= sampling_interval {
                    sample_timer -= sampling_interval;
                    samples += 1;
                    self.machine.charge_sample_overhead();
                    let readings = self
                        .controller_sensors
                        .read_all(&self.die.core_temperatures());
                    let freqs: Vec<f64> =
                        (0..num_cores).map(|c| self.machine.frequency(c)).collect();
                    let obs = Observation {
                        time,
                        sensor_temps: &readings,
                        fps: exec.windowed_fps(time, self.config.fps_window),
                        perf_constraint: app.perf_constraint_fps,
                        app_name: &app.name,
                        app_index: app_idx,
                        app_switched: std::mem::take(&mut pending_switch),
                        counters: self.machine.counters(),
                        core_freq_ghz: &freqs,
                    };
                    tel::counter!("engine.samples");
                    tel::gauge!(
                        "engine.max_temp_c",
                        readings.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                    );
                    let act = {
                        let _g = tel::span!("engine.decide");
                        self.controller.on_sample(&obs)
                    };
                    if let Some(act) = act {
                        decisions += 1;
                        tel::counter!("engine.actuations");
                        self.machine.charge_decision_overhead();
                        if let Some(assignment) = &act.assignment {
                            self.machine.apply_assignment(assignment);
                        }
                        if let Some(gov) = act.governor {
                            self.machine.set_governor_all(gov);
                        }
                        if let Some(per_core) = &act.per_core_governors {
                            for (core, &g) in per_core.iter().enumerate().take(num_cores) {
                                self.machine.set_governor(core, g);
                            }
                        }
                        if self.config.record_trace {
                            self.trace.event(time, "decision");
                        }
                    }
                    // Events → trace bridge: mode switches, Q-table
                    // resets/restores, propagator rebuilds and anything
                    // else this thread recorded since the last sample
                    // become trace labels (e.g. `"detect:inter"`), so the
                    // Fig. 4/5 profile plots can mark them on the
                    // timeline.
                    if self.config.record_trace {
                        for ev in tel::thread_events_since(event_cursor) {
                            event_cursor = ev.seq + 1;
                            self.trace.event(time, ev.label());
                        }
                    }
                }
            }

            if exec.is_complete() {
                app_results.push(AppResult {
                    name: app.name.clone(),
                    dataset: app.dataset.clone(),
                    start_time: exec.start_time(),
                    finish_time: exec.finish_time(),
                    frames_completed: exec.frames_completed(),
                    total_frames: app.total_frames,
                });
            }
        }

        RunOutcome {
            scenario_name: self.scenario.name.clone(),
            controller_name: self.controller.name().to_string(),
            sensor_profiles: profiles,
            app_results,
            total_time: time,
            completed,
            dynamic_energy_j: self.machine.energy().dynamic_energy(),
            static_energy_j: self.machine.energy().static_energy(),
            avg_dynamic_power_w: self.machine.energy().average_dynamic_power(),
            avg_static_power_w: self.machine.energy().average_static_power(),
            counters: self.machine.counters(),
            migrations: self.machine.scheduler().total_migrations(),
            samples,
            decisions,
        }
    }
}

/// Runs a whole scenario under a controller. Convenience wrapper around
/// [`Simulation`].
pub fn run_scenario(
    scenario: &Scenario,
    controller: Box<dyn ThermalController>,
    config: &SimConfig,
    seed: u64,
) -> RunOutcome {
    Simulation::new(scenario.clone(), controller, config, seed).run()
}

/// Runs a single application under a controller.
pub fn run_app(
    app: &AppModel,
    controller: Box<dyn ThermalController>,
    config: &SimConfig,
    seed: u64,
) -> RunOutcome {
    run_scenario(&Scenario::single(app.clone()), controller, config, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Actuation, NullController};
    use thermorl_platform::GovernorKind;
    use thermorl_workload::{alpbench, DataSet};

    fn quick_config(cap: f64) -> SimConfig {
        SimConfig {
            max_sim_time: cap,
            ..SimConfig::default()
        }
    }

    fn tiny_app() -> AppModel {
        AppModel::builder("tiny")
            .threads(6)
            .frames(20)
            .parallel_gcycles(0.5)
            .serial_gcycles(0.2)
            .build()
            .unwrap()
    }

    #[test]
    fn tiny_app_completes() {
        let out = run_app(
            &tiny_app(),
            Box::new(NullController::default()),
            &quick_config(300.0),
            1,
        );
        assert!(out.completed, "app should finish: {out:?}");
        assert_eq!(out.app_results.len(), 1);
        assert_eq!(out.app_results[0].frames_completed, 20);
        assert!(out.total_time > 0.0);
        assert!(out.dynamic_energy_j > 0.0);
        assert!(out.avg_dynamic_power_w > 0.0);
    }

    #[test]
    fn profiles_are_recorded_at_metrics_interval() {
        let out = run_app(
            &tiny_app(),
            Box::new(NullController::default()),
            &quick_config(300.0),
            1,
        );
        assert_eq!(out.sensor_profiles.len(), 4);
        let expected = (out.total_time / 1.0) as usize;
        let got = out.sensor_profiles[0].len();
        assert!(
            (got as i64 - expected as i64).abs() <= 1,
            "{got} samples for {expected} seconds"
        );
    }

    #[test]
    fn time_cap_marks_incomplete() {
        let out = run_app(
            &tiny_app(),
            Box::new(NullController::default()),
            &quick_config(1.0),
            1,
        );
        assert!(!out.completed);
        assert_eq!(out.app_results[0].finish_time, None);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let out = run_app(
                &tiny_app(),
                Box::new(NullController::default()),
                &quick_config(300.0),
                seed,
            );
            (
                out.total_time,
                out.dynamic_energy_j,
                out.sensor_profiles[0].samples().to_vec(),
            )
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn controller_actions_are_applied_and_counted() {
        /// Forces powersave at the first sample.
        struct ForcePowersave {
            acted: bool,
        }
        impl ThermalController for ForcePowersave {
            fn name(&self) -> &str {
                "force-powersave"
            }
            fn on_sample(&mut self, _obs: &Observation<'_>) -> Option<Actuation> {
                if self.acted {
                    None
                } else {
                    self.acted = true;
                    Some(Actuation {
                        governor: Some(GovernorKind::Powersave),
                        ..Actuation::default()
                    })
                }
            }
        }
        let slow = run_app(
            &tiny_app(),
            Box::new(ForcePowersave { acted: false }),
            &quick_config(600.0),
            1,
        );
        let fast = run_app(
            &tiny_app(),
            Box::new(NullController::default()),
            &quick_config(600.0),
            1,
        );
        assert_eq!(slow.decisions, 1);
        assert!(slow.samples >= 1);
        // The exact slowdown depends on the jitter RNG stream (the vendored
        // offline `rand` differs from crates.io StdRng); 1.4x still proves
        // the governor actuation took effect without being brittle.
        assert!(
            slow.execution_time(0).unwrap() > fast.execution_time(0).unwrap() * 1.4,
            "powersave must slow the run: {:?} vs {:?}",
            slow.execution_time(0),
            fast.execution_time(0)
        );
    }

    #[test]
    fn per_core_governors_are_applied() {
        /// Pins thread 0 to core 0 and drives core 0 with a chosen governor.
        struct PerCore {
            gov: GovernorKind,
            acted: bool,
        }
        impl ThermalController for PerCore {
            fn name(&self) -> &str {
                "per-core"
            }
            fn on_sample(&mut self, _obs: &Observation<'_>) -> Option<Actuation> {
                if self.acted {
                    return None;
                }
                self.acted = true;
                Some(Actuation {
                    assignment: Some(thermorl_platform::ThreadAssignment::packed(&[6])),
                    per_core_governors: Some(vec![self.gov; 4]),
                    ..Actuation::default()
                })
            }
        }
        let run = |gov| {
            let out = run_app(
                &tiny_app(),
                Box::new(PerCore { gov, acted: false }),
                &quick_config(900.0),
                1,
            );
            assert!(out.completed);
            out.total_time
        };
        let slow = run(GovernorKind::Powersave);
        let fast = run(GovernorKind::Performance);
        assert!(
            slow > fast * 1.5,
            "per-core powersave must slow the run: {slow} vs {fast}"
        );
    }

    #[test]
    fn scenario_runs_apps_in_order() {
        let a = tiny_app();
        let mut b = tiny_app();
        b.name = "tiny2".into();
        let scenario = Scenario::new(vec![a, b]);
        let out = run_scenario(
            &scenario,
            Box::new(NullController::default()),
            &quick_config(600.0),
            3,
        );
        assert!(out.completed);
        assert_eq!(out.app_results.len(), 2);
        assert_eq!(out.app_results[0].name, "tiny");
        assert_eq!(out.app_results[1].name, "tiny2");
        assert!(out.app_results[1].start_time >= out.app_results[0].finish_time.unwrap() - 1e-6);
    }

    #[test]
    fn app_switch_signal_reaches_controller() {
        struct SwitchSpy {
            switches: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl ThermalController for SwitchSpy {
            fn name(&self) -> &str {
                "spy"
            }
            fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
                if obs.app_switched {
                    self.switches.set(self.switches.get() + 1);
                }
                None
            }
        }
        let counter = std::rc::Rc::new(std::cell::Cell::new(0));
        let scenario = Scenario::new(vec![tiny_app(), tiny_app(), tiny_app()]);
        let _ = run_scenario(
            &scenario,
            Box::new(SwitchSpy {
                switches: counter.clone(),
            }),
            &quick_config(900.0),
            3,
        );
        assert_eq!(counter.get(), 2, "two switches for three apps");
    }

    #[test]
    fn trace_recording_can_be_enabled() {
        let mut config = quick_config(120.0);
        config.record_trace = true;
        let mut sim = Simulation::new(
            Scenario::single(tiny_app()),
            Box::new(NullController::default()),
            &config,
            1,
        );
        let out = sim.run();
        assert!(!sim.trace().is_empty());
        assert_eq!(sim.trace().len(), out.sensor_profiles[0].len());
    }

    /// Satellite: a scripted controller that flags workload switches as
    /// telemetry events must see them bridged into the trace as labelled
    /// `TraceEvent`s, in timeline order (the `"detect:..."` labels the
    /// Fig. 4/5 plots mark). Thread-local event ring ⇒ concurrent tests
    /// cannot pollute the sequence.
    #[test]
    #[cfg(feature = "telemetry")]
    fn telemetry_events_bridge_into_trace() {
        struct ScriptedDetector;
        impl ThermalController for ScriptedDetector {
            fn name(&self) -> &str {
                "scripted-detector"
            }
            fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
                if obs.app_switched {
                    // First switch reads as inter, the second as intra.
                    if obs.app_index == 1 {
                        thermorl_telemetry::event!("detect", "inter");
                    } else {
                        thermorl_telemetry::event!("detect", "intra");
                    }
                }
                None
            }
        }
        thermorl_telemetry::set_enabled(true);
        let mut config = quick_config(900.0);
        config.record_trace = true;
        let scenario = Scenario::new(vec![tiny_app(), tiny_app(), tiny_app()]);
        let mut sim = Simulation::new(scenario, Box::new(ScriptedDetector), &config, 3);
        let out = sim.run();
        assert!(out.completed);
        let labels: Vec<&str> = sim
            .trace()
            .events
            .iter()
            .map(|e| e.label.as_str())
            .filter(|l| l.starts_with("detect:"))
            .collect();
        assert_eq!(
            labels,
            vec!["detect:inter", "detect:intra"],
            "scripted switches must bridge in order"
        );
        // Bridged events carry sample-time stamps inside the run.
        for e in sim
            .trace()
            .events
            .iter()
            .filter(|e| e.label.starts_with("detect:"))
        {
            assert!(e.time > 0.0 && e.time <= out.total_time);
        }
    }

    /// A longer tiny app (~200 s) so ambient dynamics have time to act.
    fn slow_app() -> AppModel {
        AppModel::builder("slow")
            .threads(6)
            .frames(200)
            .parallel_gcycles(0.7)
            .serial_gcycles(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn ambient_drift_raises_die_temperature() {
        use crate::ambient::AmbientProfile;
        let app = slow_app();
        let steady = run_app(
            &app,
            Box::new(NullController::default()),
            &quick_config(600.0),
            1,
        );
        let mut hot_room = quick_config(600.0);
        hot_room.ambient = Some(AmbientProfile::Drift {
            start_c: 25.0,
            rate_c_per_hour: 600.0, // fast drift so a short run sees it
            limit_c: 45.0,
        });
        let drifted = run_app(&app, Box::new(NullController::default()), &hot_room, 1);
        assert!(
            drifted.avg_temperature() > steady.avg_temperature() + 2.0,
            "drift {} vs steady {}",
            drifted.avg_temperature(),
            steady.avg_temperature()
        );
    }

    #[test]
    fn sinusoidal_ambient_creates_thermal_cycles() {
        use crate::ambient::AmbientProfile;
        let app = slow_app();
        let mut hvac = quick_config(600.0);
        hvac.ambient = Some(AmbientProfile::Sinusoid {
            mean_c: 25.0,
            amplitude_c: 8.0,
            period_s: 60.0,
        });
        let cycled = run_app(&app, Box::new(NullController::default()), &hvac, 1);
        let calm = run_app(
            &app,
            Box::new(NullController::default()),
            &quick_config(600.0),
            1,
        );
        let s_cycled = cycled.reliability_summary();
        let s_calm = calm.reliability_summary();
        assert!(
            s_cycled.mttf_cycling_years < s_calm.mttf_cycling_years,
            "HVAC cycling must add stress: {} vs {}",
            s_cycled.mttf_cycling_years,
            s_calm.mttf_cycling_years
        );
    }

    #[test]
    fn ondemand_baseline_heats_the_die_on_tachyon() {
        let mut config = quick_config(60.0); // just a slice of the app
        config.machine.scheduler.jitter_prob = 0.0;
        let out = run_app(
            &alpbench::tachyon(DataSet::One),
            Box::new(NullController::default()),
            &config,
            1,
        );
        // Within 60 s the die is far above ambient and clearly hot.
        assert!(
            out.peak_temperature() > 55.0,
            "tachyon peak {}",
            out.peak_temperature()
        );
    }
}
