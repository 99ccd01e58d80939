//! Simulated multicore platform: the "hardware + Linux" substrate of the
//! DAC'14 reproduction.
//!
//! The paper's run-time system acts on a real Intel quad-core through two
//! OS interfaces — `sched_setaffinity` (thread-to-core affinity masks) and
//! `cpufreq` governors — and observes it through perf counters and an
//! energy meter. This crate rebuilds those mechanisms:
//!
//! * [`OppTable`] / [`OperatingPoint`] — DVFS frequency/voltage pairs,
//! * [`PowerModel`] — dynamic `a·C·V²·f` power plus temperature-dependent
//!   leakage, with a likwid-style [`EnergyMeter`],
//! * [`GovernorKind`] — the five cpufreq governors the paper's action space
//!   uses (ondemand, conservative, performance, powersave, userspace),
//! * [`AffinityMask`] / [`ThreadAssignment`] — affinity control,
//! * [`Scheduler`] — per-core runqueues with Linux-style periodic load
//!   balancing that respects affinity masks,
//! * [`CounterModel`] — synthetic cache-miss/page-fault counters,
//! * [`Machine`] — everything wired together behind one `tick` call.
//!
//! # Example
//!
//! ```
//! use thermorl_platform::{AffinityMask, Machine, MachineConfig, ThreadDemand};
//!
//! let mut m = Machine::new(MachineConfig::default(), 7);
//! let t = m.add_thread(AffinityMask::all(4));
//! let demands = vec![ThreadDemand { runnable: true, activity: 0.9 }];
//! let tick = m.tick(0.01, &demands, &[40.0, 40.0, 40.0, 40.0]);
//! assert!(tick.exec_giga_cycles[t.index()] > 0.0);
//! ```

#![deny(missing_docs)]

pub mod affinity;
pub mod counters;
pub mod governor;
pub mod hetero;
pub mod machine;
pub mod opp;
pub mod power;
pub mod scheduler;

pub use affinity::{assignment_presets, AffinityMask, ThreadAssignment};
pub use counters::{CounterModel, CounterSnapshot};
pub use governor::{GovernorKind, GovernorState};
pub use hetero::{big_little_quad, CoreClass};
pub use machine::{Machine, MachineConfig, MachineTick};
pub use opp::{OperatingPoint, OppTable};
pub use power::{EnergyMeter, PowerModel};
pub use scheduler::{Scheduler, SchedulerConfig, ThreadDemand, ThreadId, TickResult};
