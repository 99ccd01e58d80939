//! Co-simulation engine: thermal model × platform × workload × controller.
//!
//! This crate wires the substrates together exactly like the paper's
//! Figure 2 system stack: the *hardware layer* ([`thermorl_thermal`]) feeds
//! temperature to on-die sensors; the *OS layer* ([`thermorl_platform`])
//! schedules the application threads, runs cpufreq governors and meters
//! energy; the *application layer* ([`thermorl_workload`]) produces thread
//! demands and performance (fps); and the *proposed approach / system
//! software layer* is any [`ThermalController`] plugged into the loop —
//! sampling sensors at its own interval and issuing affinity + governor
//! actions at decision epochs.
//!
//! One loop, [`Simulation::run`], drives every run. It runs a list of
//! *phases*, each a set of applications that run at once on slices of
//! one thread pool: [`run_scenario`] runs one application per phase, and
//! [`run_concurrent`] runs a mix as a single phase (the paper's §7
//! future work).
//!
//! # Example
//!
//! ```
//! use thermorl_sim::{run_app, NullController, SimConfig};
//! use thermorl_workload::{alpbench, DataSet};
//!
//! let app = alpbench::tachyon(DataSet::One);
//! let mut config = SimConfig::default();
//! config.max_sim_time = 30.0; // truncate for the doc test
//! let outcome = run_app(&app, Box::new(NullController::default()), &config, 1);
//! assert_eq!(outcome.sensor_profiles.len(), 4); // one per core
//! assert!(outcome.total_time > 0.0);
//! ```

#![deny(missing_docs)]

pub mod ambient;
pub mod controller;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod trace;

pub use ambient::AmbientProfile;
pub use controller::{Actuation, NullController, Observation, ThermalController};
pub use engine::{run_app, run_concurrent, run_scenario, SimConfig, Simulation};
pub use metrics::{AppResult, RunOutcome};
pub use trace::TraceRecorder;
