//! thermorl-runner: a parallel, resumable experiment-campaign engine.
//!
//! The bench suite reproduces every figure and table of the paper by
//! running hundreds of independent `(scenario × policy × seed)`
//! simulations. This crate turns that grid into a **campaign**:
//!
//! * [`Campaign`] — a named set of keyed jobs. Each job's seed is a pure
//!   function of `(campaign_seed, job_key)` (see [`seed::job_seed`]), so
//!   results are identical no matter how many workers run them or in what
//!   order.
//! * [`pool`] — a work-stealing `std::thread` pool with per-job panic
//!   isolation, optional wall-clock timeouts, and a retry-once policy.
//! * [`checkpoint`] — incremental JSONL checkpointing of completed jobs;
//!   [`RunnerConfig::resume`] skips keys that already have records, so an
//!   interrupted campaign finishes without re-running completed work.
//! * [`jsonl`] — the one last-wins JSONL store format behind campaign
//!   checkpoints, the dispatch store and serve's snapshots: the fold, the
//!   torn-tail appender and the temp-file-and-rename rewrite.
//! * [`progress`] — throttled stderr progress (done/failed/ETA) and a
//!   per-job duration histogram exported with the results.
//! * sharding — [`RunnerConfig::shard`] (CLI: `--shard I/N`) hashes job
//!   keys to shards (see [`seed::shard_of`]) so a campaign can be split
//!   across machines; [`checkpoint::merge`] then folds the per-shard
//!   JSONL checkpoints last-wins into one.
//!
//! ```
//! use thermorl_runner::{Campaign, RunnerConfig};
//!
//! let mut campaign = Campaign::new("demo", 42);
//! for i in 0..8u64 {
//!     campaign.push(format!("square/{i}"), move |_seed| i * i);
//! }
//! let report = campaign.run(&RunnerConfig::serial());
//! assert_eq!(*report.payload("square/3"), 9);
//! ```

pub mod campaign;
pub mod checkpoint;
pub mod job;
pub mod jsonl;
pub mod pool;
pub mod progress;
pub mod seed;

pub use campaign::{
    run_outcome_codec, scenario_grid, Campaign, CampaignReport, JobSource, PolicySpec, RunnerConfig,
};
pub use checkpoint::{merge as merge_checkpoints, parse_line, record_line, Codec};
pub use job::{Job, JobOutcome, JobRecord};
pub use pool::{default_workers, par_map, run_jobs, PoolConfig};
pub use progress::CampaignStats;
pub use seed::{job_seed, shard_of};
