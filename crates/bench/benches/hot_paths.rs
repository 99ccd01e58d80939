//! Criterion micro-benchmarks of the simulation and controller hot paths.
//!
//! These are the per-tick / per-epoch costs that determine how fast the
//! experiment harness regenerates the paper's tables, and — for the
//! controller paths — a proxy for the run-time overhead the paper's §6.4
//! trades off against thermal accuracy.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use thermorl_control::{
    ControlConfig, DasDac14Controller, QTable, RewardFunction, StateId, StateSpace,
};
use thermorl_platform::{AffinityMask, CounterSnapshot, Machine, MachineConfig, ThreadDemand};
use thermorl_reliability::{RainflowCounter, ReliabilityAnalyzer, ThermalProfile};
use thermorl_sim::{Observation, ThermalController};
use thermorl_thermal::{DieModel, DieParams, Floorplan, Stepper};

fn thermal_profile(n: usize) -> ThermalProfile {
    (0..n)
        .map(|i| 50.0 + 12.0 * (i as f64 * 0.21).sin() + 4.0 * (i as f64 * 0.03).cos())
        .collect()
}

fn bench_thermal(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal");
    // The default stepper (Exact since the propagator cache landed).
    group.bench_function("die_advance_1s", |b| {
        let mut die = DieModel::quad_core();
        for core in 0..4 {
            die.set_core_power(core, 12.0);
        }
        b.iter(|| {
            die.advance(1.0);
            black_box(die.core_temperature(0))
        });
    });
    // Each stepper explicitly, for before/after comparisons.
    for stepper in [Stepper::ForwardEuler, Stepper::Rk4, Stepper::Exact] {
        group.bench_function(format!("die_advance_1s_{stepper}"), |b| {
            let mut die = DieModel::new(
                Floorplan::quad(),
                DieParams {
                    stepper,
                    ..DieParams::default()
                },
            );
            for core in 0..4 {
                die.set_core_power(core, 12.0);
            }
            b.iter(|| {
                die.advance(1.0);
                black_box(die.core_temperature(0))
            });
        });
    }
    group.bench_function("steady_state_lu", |b| {
        let mut die = DieModel::quad_core();
        for core in 0..4 {
            die.set_core_power(core, 12.0);
        }
        b.iter(|| black_box(die.network().steady_state().unwrap()));
    });
    group.finish();
}

fn bench_reliability(c: &mut Criterion) {
    let mut group = c.benchmark_group("reliability");
    let profile = thermal_profile(1000);
    let counter = RainflowCounter::default();
    group.bench_function("rainflow_1000", |b| {
        b.iter(|| black_box(counter.count(&profile)));
    });
    let analyzer = ReliabilityAnalyzer::default();
    group.bench_function("analyze_600", |b| {
        let p = thermal_profile(600);
        b.iter(|| black_box(analyzer.analyze(&p)));
    });
    group.bench_function("analyze_epoch_window_10", |b| {
        let p = thermal_profile(10);
        b.iter(|| black_box(analyzer.analyze(&p)));
    });
    group.finish();
}

fn bench_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("learning");
    group.bench_function("qtable_update", |b| {
        let mut q = QTable::new(16, 9);
        b.iter(|| {
            q.update(StateId(3), 4, 0.7, 0.5, 0.6, StateId(5));
            black_box(q.best_action(StateId(3)))
        });
    });
    group.bench_function("reward_eq8", |b| {
        let space = StateSpace::default();
        let r = RewardFunction::default();
        let state = space.identify(2.0, 1.5);
        b.iter(|| black_box(r.reward(&space, state, 2.0, 1.5, 2.2, 1.4, 0.9, 1.0)));
    });
    group.bench_function("agent_full_epoch", |b| {
        // One complete decision epoch: 10 samples, the last of which runs
        // hazard extraction + Q update + action selection.
        b.iter_batched(
            || {
                let mut a = DasDac14Controller::new(ControlConfig::default(), 7);
                a.on_start(6, 4);
                a
            },
            |mut a| {
                let freqs = [3.4; 4];
                for k in 0..10 {
                    let t = 50.0 + (k % 3) as f64;
                    let temps = [t, t + 1.0, t - 1.0, t];
                    let obs = Observation {
                        time: k as f64 * 3.0,
                        sensor_temps: &temps,
                        fps: 1.0,
                        perf_constraint: 0.9,
                        app_name: "bench",
                        app_index: 0,
                        app_switched: false,
                        counters: CounterSnapshot::default(),
                        core_freq_ghz: &freqs,
                    };
                    black_box(a.on_sample(&obs));
                }
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_platform(c: &mut Criterion) {
    let mut group = c.benchmark_group("platform");
    group.bench_function("machine_tick_6_threads", |b| {
        let mut m = Machine::new(MachineConfig::default(), 3);
        for _ in 0..6 {
            m.add_thread(AffinityMask::all(4));
        }
        let demands = vec![ThreadDemand::running(0.8); 6];
        let temps = [45.0; 4];
        b.iter(|| {
            black_box(m.tick(0.01, &demands, &temps));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_thermal,
    bench_reliability,
    bench_learning,
    bench_platform
);
criterion_main!(benches);
