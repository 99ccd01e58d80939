//! `Simulation::run` replayed through the layers' public calls, with a
//! timer around each layer call.
//!
//! The loop below follows `thermorl_sim::engine` statement for
//! statement — the same calls in the same order, so the same random
//! streams are consumed — and the self-tests and every traced run
//! assert that its outcome is bit-identical to `run_scenario`. Six clock
//! reads per tick bound the workload (`thread_needs`, `advance`),
//! platform (`Machine::tick`) and thermal (`set_core_power` plus
//! `DieModel::advance`) calls; two more bound each sensor read and each
//! policy sample. Everything between timed calls is glue.

use std::time::Instant;

use thermorl_platform::{AffinityMask, Machine, ThreadDemand};
use thermorl_reliability::ThermalProfile;
use thermorl_sim::{
    AppResult, Observation, RunOutcome, SimConfig, ThermalController, TraceRecorder,
};
use thermorl_telemetry as tel;
use thermorl_thermal::{DieModel, SensorBank};
use thermorl_workload::{AppExecution, AppModel, Scenario};

/// Host time spent in each layer during one or more replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `AppExecution::thread_needs` plus `AppExecution::advance` (ns).
    pub workload_ns: u64,
    /// `Machine::tick` (ns).
    pub platform_ns: u64,
    /// `DieModel::set_core_power` for every core plus `DieModel::advance` (ns).
    pub thermal_ns: u64,
    /// `SensorBank::read_all`, metrics tap and controller bank (ns).
    pub sensor_ns: u64,
    /// `ThermalController::on_sample` (ns).
    pub policy_ns: u64,
    /// Clock reads taken.
    pub reads: u64,
    /// Simulation ticks.
    pub ticks: u64,
    /// Sensor bank reads.
    pub sensor_reads: u64,
    /// Steady-state refreshes the die's RC network made.
    pub refreshes: u64,
    /// Accepted adaptive RK steps.
    pub adaptive_steps: u64,
    /// Rejected adaptive RK steps.
    pub rejections: u64,
}

impl LayerTimes {
    /// Adds another replay's times.
    pub fn add(&mut self, o: &LayerTimes) {
        self.workload_ns += o.workload_ns;
        self.platform_ns += o.platform_ns;
        self.thermal_ns += o.thermal_ns;
        self.sensor_ns += o.sensor_ns;
        self.policy_ns += o.policy_ns;
        self.reads += o.reads;
        self.ticks += o.ticks;
        self.sensor_reads += o.sensor_reads;
        self.refreshes += o.refreshes;
        self.adaptive_steps += o.adaptive_steps;
        self.rejections += o.rejections;
    }
}

/// A replayed run: the outcome, the recorded trace and the layer times.
pub struct Replayed {
    /// The run outcome (compare with `run_scenario`'s).
    pub outcome: RunOutcome,
    /// The trace (rows only when `record_trace` is set).
    pub trace: TraceRecorder,
    /// Layer times and counters of this replay.
    pub times: LayerTimes,
}

fn ns(a: Instant, b: Instant) -> u64 {
    (b - a).as_nanos() as u64
}

/// Replays `Simulation::new(scenario, controller, config, seed).run()`.
pub fn replay(
    scenario: &Scenario,
    controller: &mut dyn ThermalController,
    config: &SimConfig,
    seed: u64,
) -> Replayed {
    let mut lt = LayerTimes::default();

    // Simulation::new
    assert!(config.tick > 0.0, "tick must be positive");
    assert!(
        config.metrics_interval >= config.tick,
        "metrics interval must be at least one tick"
    );
    let scenario = scenario.clone();
    let config = config.clone();
    let num_cores = config.machine.scheduler.num_cores;
    let mut die = DieModel::new(config.resolved_floorplan(), config.die);
    if let Some(profile) = &config.ambient {
        die.set_ambient(profile.at(0.0));
    }
    let mut machine = Machine::new(config.machine.clone(), seed);
    let mut metrics_sensors = SensorBank::new(num_cores, config.sensor, seed ^ 0x11AA);
    let mut controller_sensors = SensorBank::new(num_cores, config.sensor, seed ^ 0x22BB);
    let mut trace = TraceRecorder::new();

    // Simulation::run
    let num_cores = machine.num_cores();
    let num_threads = scenario.num_threads();
    let thread_ids: Vec<_> = (0..num_threads)
        .map(|_| machine.add_thread(AffinityMask::all(num_cores)))
        .collect();
    controller.on_start(num_threads, num_cores);

    let mut profiles =
        vec![ThermalProfile::from_samples(config.metrics_interval, vec![]); num_cores];
    let mut app_results: Vec<AppResult> = Vec::new();
    let mut time = 0.0f64;
    let mut sample_timer = 0.0f64;
    let mut metrics_timer = 0.0f64;
    let mut samples = 0u64;
    let mut decisions = 0u64;
    let mut completed = true;
    let sampling_interval = controller.sampling_interval().max(config.tick);
    let mut event_cursor = tel::next_event_seq();

    let apps: Vec<AppModel> = scenario.apps.clone();
    'apps: for (app_idx, app) in apps.iter().enumerate() {
        for &id in &thread_ids {
            machine.set_memory_intensity(id, app.mem_intensity);
        }
        let mut exec = AppExecution::new(app.clone(), seed.wrapping_add(app_idx as u64));
        exec.restart_at(time);
        let mut pending_switch = app_idx > 0;
        if config.record_trace {
            trace.event(time, format!("app-switch:{}", app.name));
        }

        while !exec.is_complete() {
            if time >= config.max_sim_time {
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
            let r0 = Instant::now();
            let needs = exec.thread_needs();
            let r1 = Instant::now();
            let demands: Vec<ThreadDemand> = needs
                .iter()
                .map(|n| ThreadDemand {
                    runnable: n.runnable,
                    activity: n.activity,
                })
                .collect();
            let temps = die.core_temperatures();
            let r2 = Instant::now();
            let mt = machine.tick(config.tick, &demands, &temps);
            let r3 = Instant::now();
            for c in 0..num_cores {
                die.set_core_power(c, mt.core_dynamic_w[c] + mt.core_static_w[c]);
            }
            {
                let _g = tel::span!("thermal.step");
                die.advance(config.tick);
            }
            let r4 = Instant::now();
            time += config.tick;
            exec.advance(&mt.exec_giga_cycles, time);
            let r5 = Instant::now();
            lt.workload_ns += ns(r0, r1) + ns(r4, r5);
            lt.platform_ns += ns(r2, r3);
            lt.thermal_ns += ns(r3, r4);
            lt.reads += 6;
            lt.ticks += 1;

            metrics_timer += config.tick;
            if metrics_timer + 1e-12 >= config.metrics_interval {
                metrics_timer -= config.metrics_interval;
                if let Some(profile) = &config.ambient {
                    if !profile.is_constant() {
                        die.set_ambient(profile.at(time));
                    }
                }
                let temps = die.core_temperatures();
                let s0 = Instant::now();
                let readings = metrics_sensors.read_all(&temps);
                let s1 = Instant::now();
                lt.sensor_ns += ns(s0, s1);
                lt.sensor_reads += 1;
                lt.reads += 2;
                for (p, &r) in profiles.iter_mut().zip(&readings) {
                    p.push(r);
                }
                if config.record_trace {
                    let freqs: Vec<f64> = (0..num_cores).map(|c| machine.frequency(c)).collect();
                    trace.push(
                        time,
                        &readings,
                        &freqs,
                        exec.windowed_fps(time, config.fps_window),
                    );
                }
            }

            sample_timer += config.tick;
            if sample_timer + 1e-12 >= sampling_interval {
                sample_timer -= sampling_interval;
                samples += 1;
                machine.charge_sample_overhead();
                let temps = die.core_temperatures();
                let s0 = Instant::now();
                let readings = controller_sensors.read_all(&temps);
                let s1 = Instant::now();
                let freqs: Vec<f64> = (0..num_cores).map(|c| machine.frequency(c)).collect();
                let obs = Observation {
                    time,
                    sensor_temps: &readings,
                    fps: exec.windowed_fps(time, config.fps_window),
                    perf_constraint: app.perf_constraint_fps,
                    app_name: &app.name,
                    app_index: app_idx,
                    app_switched: std::mem::take(&mut pending_switch),
                    counters: machine.counters(),
                    core_freq_ghz: &freqs,
                };
                tel::counter!("engine.samples");
                tel::gauge!(
                    "engine.max_temp_c",
                    readings.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                );
                let p0 = Instant::now();
                let act = {
                    let _g = tel::span!("engine.decide");
                    controller.on_sample(&obs)
                };
                let p1 = Instant::now();
                lt.sensor_ns += ns(s0, s1);
                lt.policy_ns += ns(p0, p1);
                lt.sensor_reads += 1;
                lt.reads += 4;
                if let Some(act) = act {
                    decisions += 1;
                    tel::counter!("engine.actuations");
                    machine.charge_decision_overhead();
                    if let Some(assignment) = &act.assignment {
                        machine.apply_assignment(assignment);
                    }
                    if let Some(gov) = act.governor {
                        machine.set_governor_all(gov);
                    }
                    if let Some(per_core) = &act.per_core_governors {
                        for (core, &g) in per_core.iter().enumerate().take(num_cores) {
                            machine.set_governor(core, g);
                        }
                    }
                    if config.record_trace {
                        trace.event(time, "decision");
                    }
                }
                if config.record_trace {
                    for ev in tel::thread_events_since(event_cursor) {
                        event_cursor = ev.seq + 1;
                        trace.event(time, ev.label());
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

    let outcome = RunOutcome {
        scenario_name: scenario.name.clone(),
        controller_name: controller.name().to_string(),
        sensor_profiles: profiles,
        app_results,
        total_time: time,
        completed,
        dynamic_energy_j: machine.energy().dynamic_energy(),
        static_energy_j: machine.energy().static_energy(),
        avg_dynamic_power_w: machine.energy().average_dynamic_power(),
        avg_static_power_w: machine.energy().average_static_power(),
        counters: machine.counters(),
        migrations: machine.scheduler().total_migrations(),
        samples,
        decisions,
    };
    let network = die.network();
    lt.refreshes = network.steady_refreshes();
    lt.adaptive_steps = network.adaptive_steps();
    lt.rejections = network.step_rejections();
    Replayed {
        outcome,
        trace,
        times: lt,
    }
}

/// The cost of one `Instant::now()` in ns: the median of several batches
/// of back-to-back reads (the best batch understates the cost of a read
/// taken between real work).
pub fn clock_read_ns() -> f64 {
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let n = 100_000;
            let t = Instant::now();
            let mut last = t;
            for _ in 0..n {
                last = std::hint::black_box(Instant::now());
            }
            (last - t).as_nanos() as f64 / f64::from(n)
        })
        .collect();
    crate::stats::median(&mut batches)
}
