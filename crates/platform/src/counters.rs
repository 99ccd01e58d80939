//! Synthetic performance counters (`perf`-style).
//!
//! The paper monitors performance with perf \[1\] and uses cache-misses and
//! page-faults to quantify the run-time system's overhead when sweeping the
//! temperature sampling interval (Figure 6). This model reproduces the
//! relevant causal structure:
//!
//! * executing instructions costs cache misses proportional to the
//!   workload's memory intensity, inflated by co-located threads fighting
//!   over the shared cache,
//! * every migration costs a burst of misses and faults (cold caches,
//!   page-table churn),
//! * every controller *sensor sample* and *decision* costs a fixed burst —
//!   which is why both counters fall as the sampling interval grows.

/// Counter cost coefficients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterParams {
    /// Instructions per cycle of the modelled cores.
    pub ipc: f64,
    /// Cache misses per instruction at unit memory intensity.
    pub base_miss_rate: f64,
    /// Extra miss fraction per co-located runnable thread.
    pub colocation_miss_factor: f64,
    /// Cache misses charged per thread migration.
    pub migration_miss_burst: f64,
    /// Page faults charged per thread migration.
    pub migration_fault_burst: f64,
    /// Cache misses charged per controller sensor sample.
    pub sample_miss_cost: f64,
    /// Page faults charged per controller sensor sample.
    pub sample_fault_cost: f64,
    /// Cache misses charged per controller decision (Q-table access,
    /// affinity/governor syscalls).
    pub decision_miss_cost: f64,
    /// Page faults charged per controller decision.
    pub decision_fault_cost: f64,
}

impl Default for CounterParams {
    fn default() -> Self {
        CounterParams {
            ipc: 1.5,
            base_miss_rate: 2.0e-3,
            colocation_miss_factor: 0.35,
            migration_miss_burst: 150_000.0,
            migration_fault_burst: 40.0,
            sample_miss_cost: 60_000.0,
            sample_fault_cost: 12.0,
            decision_miss_cost: 250_000.0,
            decision_fault_cost: 80.0,
        }
    }
}

/// Monotonically increasing counter values, like reading `perf stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSnapshot {
    /// Retired instructions.
    pub instructions: f64,
    /// Last-level cache misses.
    pub cache_misses: f64,
    /// Page faults.
    pub page_faults: f64,
    /// Thread migrations.
    pub migrations: u64,
}

impl CounterSnapshot {
    /// Element-wise difference `self - earlier`, for windowed rates.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            instructions: self.instructions - earlier.instructions,
            cache_misses: self.cache_misses - earlier.cache_misses,
            page_faults: self.page_faults - earlier.page_faults,
            migrations: self.migrations - earlier.migrations,
        }
    }
}

/// The counter model: feed it execution and overhead events.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterModel {
    params: CounterParams,
    totals: CounterSnapshot,
}

impl CounterModel {
    /// Creates a model with the given coefficients.
    pub fn new(params: CounterParams) -> Self {
        CounterModel {
            params,
            totals: CounterSnapshot::default(),
        }
    }

    /// The coefficients in use.
    pub fn params(&self) -> &CounterParams {
        &self.params
    }

    /// Records `giga_cycles` executed by a thread of `mem_intensity`
    /// (0–1) that shared its core with `co_runners` other runnable threads.
    pub fn record_execution(&mut self, giga_cycles: f64, mem_intensity: f64, co_runners: usize) {
        let instructions = giga_cycles * 1e9 * self.params.ipc;
        self.totals.instructions += instructions;
        let miss_rate = self.params.base_miss_rate
            * mem_intensity
            * (1.0 + self.params.colocation_miss_factor * co_runners as f64);
        self.totals.cache_misses += instructions * miss_rate;
    }

    /// Records `n` thread migrations.
    pub fn record_migrations(&mut self, n: u64) {
        self.totals.migrations += n;
        self.totals.cache_misses += n as f64 * self.params.migration_miss_burst;
        self.totals.page_faults += n as f64 * self.params.migration_fault_burst;
    }

    /// Records one controller sensor-sampling pass.
    pub fn record_sample_overhead(&mut self) {
        self.totals.cache_misses += self.params.sample_miss_cost;
        self.totals.page_faults += self.params.sample_fault_cost;
    }

    /// Records one controller decision (action selection + enforcement).
    pub fn record_decision_overhead(&mut self) {
        self.totals.cache_misses += self.params.decision_miss_cost;
        self.totals.page_faults += self.params.decision_fault_cost;
    }

    /// Current counter totals.
    pub fn snapshot(&self) -> CounterSnapshot {
        self.totals
    }
}

impl Default for CounterModel {
    fn default() -> Self {
        CounterModel::new(CounterParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_generates_instructions_and_misses() {
        let mut c = CounterModel::default();
        c.record_execution(1.0, 0.5, 0);
        let s = c.snapshot();
        assert!((s.instructions - 1.5e9).abs() < 1.0);
        assert!(s.cache_misses > 0.0);
        assert_eq!(s.page_faults, 0.0);
    }

    #[test]
    fn colocation_inflates_misses() {
        let mut solo = CounterModel::default();
        let mut shared = CounterModel::default();
        solo.record_execution(1.0, 0.5, 0);
        shared.record_execution(1.0, 0.5, 3);
        assert!(shared.snapshot().cache_misses > solo.snapshot().cache_misses);
    }

    #[test]
    fn memory_intensity_scales_misses_linearly() {
        let mut lo = CounterModel::default();
        let mut hi = CounterModel::default();
        lo.record_execution(1.0, 0.25, 0);
        hi.record_execution(1.0, 0.75, 0);
        let ratio = hi.snapshot().cache_misses / lo.snapshot().cache_misses;
        assert!((ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn migrations_burst_both_counters() {
        let mut c = CounterModel::default();
        c.record_migrations(4);
        let s = c.snapshot();
        assert_eq!(s.migrations, 4);
        assert!((s.cache_misses - 600_000.0).abs() < 1e-6);
        assert!((s.page_faults - 160.0).abs() < 1e-9);
    }

    #[test]
    fn controller_overheads_accumulate() {
        let mut c = CounterModel::default();
        for _ in 0..10 {
            c.record_sample_overhead();
        }
        c.record_decision_overhead();
        let s = c.snapshot();
        assert!((s.cache_misses - (600_000.0 + 250_000.0)).abs() < 1e-6);
        assert!((s.page_faults - 200.0).abs() < 1e-9);
    }

    #[test]
    fn delta_subtracts() {
        let mut c = CounterModel::default();
        c.record_execution(1.0, 1.0, 0);
        let early = c.snapshot();
        c.record_execution(2.0, 1.0, 0);
        c.record_migrations(1);
        let d = c.snapshot().delta(&early);
        assert!((d.instructions - 3.0e9).abs() < 1.0);
        assert_eq!(d.migrations, 1);
    }
}
