//! An affinity-aware multicore scheduler with Linux-style periodic load
//! balancing.
//!
//! The paper's motivational example (§3) hinges on *where the OS places
//! threads*: Linux "often migrate\[s\] \[threads\] to balance load on the
//! architecture", and the proposed technique overrides that with affinity
//! masks. This scheduler reproduces the mechanism: per-core runqueues,
//! equal time-sharing within a core, periodic load balancing that respects
//! each thread's [`AffinityMask`], and a cold-cache migration penalty.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::affinity::AffinityMask;

/// Identifier of a thread registered with the [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Dense index of the thread (order of registration).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Scheduler tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Number of cores.
    pub num_cores: usize,
    /// Period of the load balancer (s); Linux rebalances every few ticks.
    pub balance_period: f64,
    /// After a migration the thread runs at reduced efficiency for this many
    /// CPU-seconds (cold caches/TLB).
    pub migration_cold_time: f64,
    /// Execution efficiency while cold (0–1).
    pub cold_efficiency: f64,
    /// Probability per balancing pass of an extra "wakeup" migration among
    /// equally loaded cores, mimicking Linux's placement jitter.
    pub jitter_prob: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            num_cores: 4,
            balance_period: 0.1,
            migration_cold_time: 0.02,
            cold_efficiency: 0.5,
            jitter_prob: 0.05,
        }
    }
}

/// Per-tick execution demand of one thread, provided by the workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadDemand {
    /// Whether the thread wants CPU this tick (false = blocked on a
    /// barrier/serial section).
    pub runnable: bool,
    /// Switching activity factor of its current phase (0–1), drives
    /// dynamic power.
    pub activity: f64,
}

impl ThreadDemand {
    /// A blocked thread.
    pub fn blocked() -> Self {
        ThreadDemand {
            runnable: false,
            activity: 0.0,
        }
    }

    /// A runnable thread with the given activity factor.
    pub fn running(activity: f64) -> Self {
        ThreadDemand {
            runnable: true,
            activity,
        }
    }
}

#[derive(Debug, Clone)]
struct ThreadEntry {
    affinity: AffinityMask,
    core: usize,
    cold_remaining: f64,
    alive: bool,
}

/// What happened during one scheduler tick.
///
/// The scheduler owns one of these and refills it in place on every
/// [`Scheduler::tick`], so steady-state ticking does not allocate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickResult {
    /// Effective CPU seconds granted to each thread (cold penalty applied).
    pub exec_seconds: Vec<f64>,
    /// The core each thread is currently assigned to.
    pub thread_core: Vec<usize>,
    /// Fraction of the tick each core spent busy (0 or 1 in this model).
    pub core_busy: Vec<f64>,
    /// Mean activity factor of the threads a core executed (0 when idle).
    pub core_activity: Vec<f64>,
    /// Number of runnable threads each core time-shared.
    pub core_nthreads: Vec<usize>,
    /// Migrations performed during this tick (balancing + affinity moves).
    pub migrations: u64,
}

/// The scheduler itself.
///
/// # Example
///
/// ```
/// use thermorl_platform::{AffinityMask, Scheduler, SchedulerConfig, ThreadDemand};
///
/// let mut s = Scheduler::new(SchedulerConfig::default(), 1);
/// let a = s.add_thread(AffinityMask::single(0));
/// let b = s.add_thread(AffinityMask::single(0));
/// let r = s.tick(0.01, &[ThreadDemand::running(1.0), ThreadDemand::running(1.0)]);
/// // Two threads share core 0 equally.
/// assert!((r.exec_seconds[a.index()] - 0.005).abs() < 1e-12);
/// assert!((r.exec_seconds[b.index()] - 0.005).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    config: SchedulerConfig,
    threads: Vec<ThreadEntry>,
    rng: StdRng,
    since_balance: f64,
    total_migrations: u64,
    /// The last tick's result, refilled in place by [`Scheduler::tick`].
    result: TickResult,
    /// Per-core thread counts: scratch of the balancer and of placement.
    loads: Vec<usize>,
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no cores or non-positive periods.
    pub fn new(config: SchedulerConfig, seed: u64) -> Self {
        assert!(config.num_cores > 0, "scheduler needs at least one core");
        assert!(
            config.balance_period > 0.0,
            "balance period must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&config.cold_efficiency),
            "cold efficiency must be a fraction"
        );
        Scheduler {
            config,
            threads: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_5C4E_D01E_0001),
            since_balance: 0.0,
            total_migrations: 0,
            result: TickResult::default(),
            loads: Vec::with_capacity(config.num_cores),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.num_cores
    }

    /// Number of registered (alive or retired) threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Registers a new thread; it is placed on the least-loaded core its
    /// affinity allows.
    ///
    /// # Panics
    ///
    /// Panics if the mask allows no core of this machine.
    pub fn add_thread(&mut self, affinity: AffinityMask) -> ThreadId {
        let core = self
            .least_loaded_allowed(affinity)
            .expect("affinity mask allows no core on this machine");
        self.threads.push(ThreadEntry {
            affinity,
            core,
            cold_remaining: 0.0,
            alive: true,
        });
        ThreadId(self.threads.len() - 1)
    }

    /// Marks a thread as finished; it stops receiving CPU but keeps its id.
    pub fn retire_thread(&mut self, id: ThreadId) {
        self.threads[id.0].alive = false;
    }

    /// Revives a retired thread (application switch re-using thread slots);
    /// it is re-placed like a fresh thread.
    pub fn revive_thread(&mut self, id: ThreadId) {
        let affinity = self.threads[id.0].affinity;
        let core = self
            .least_loaded_allowed(affinity)
            .expect("affinity mask allows no core on this machine");
        let entry = &mut self.threads[id.0];
        entry.alive = true;
        entry.core = core;
        entry.cold_remaining = 0.0;
    }

    /// Current core of a thread.
    pub fn thread_core(&self, id: ThreadId) -> usize {
        self.threads[id.0].core
    }

    /// Current affinity mask of a thread.
    pub fn affinity(&self, id: ThreadId) -> AffinityMask {
        self.threads[id.0].affinity
    }

    /// Total migrations since construction.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Updates a thread's affinity. If its current core is no longer
    /// allowed the thread migrates immediately (the kernel's
    /// `sched_setaffinity` semantics). Returns whether a migration happened.
    pub fn set_affinity(&mut self, id: ThreadId, mask: AffinityMask) -> bool {
        self.threads[id.0].affinity = mask;
        if !mask.contains(self.threads[id.0].core) {
            let target = self
                .least_loaded_allowed(mask)
                .expect("affinity mask allows no core on this machine");
            self.migrate(id.0, target);
            true
        } else {
            false
        }
    }

    fn least_loaded_allowed(&mut self, mask: AffinityMask) -> Option<usize> {
        self.count_loads(|_, t| t.alive);
        let loads = &self.loads;
        (0..self.config.num_cores)
            .filter(|&c| mask.contains(c))
            .min_by_key(|&c| loads[c])
    }

    /// Fills `loads` with the number of threads on each core that pass
    /// `counted(index, entry)`.
    fn count_loads(&mut self, counted: impl Fn(usize, &ThreadEntry) -> bool) {
        self.loads.clear();
        self.loads.resize(self.config.num_cores, 0);
        for (i, t) in self.threads.iter().enumerate() {
            if counted(i, t) {
                self.loads[t.core] += 1;
            }
        }
    }

    fn migrate(&mut self, idx: usize, target: usize) {
        if self.threads[idx].core != target {
            self.threads[idx].core = target;
            self.threads[idx].cold_remaining = self.config.migration_cold_time;
            self.total_migrations += 1;
        }
    }

    /// Periodic load balancing over *runnable* threads, respecting
    /// affinity. Returns migrations performed.
    fn balance(&mut self, demands: &[ThreadDemand]) -> u64 {
        let runnable = |i: usize| demands.get(i).map(|d| d.runnable).unwrap_or(false);
        let mut moved = 0u64;
        for _ in 0..self.config.num_cores * 4 {
            self.count_loads(|i, t| t.alive && runnable(i));
            let (max_core, &max_load) = self
                .loads
                .iter()
                .enumerate()
                .max_by_key(|&(_, l)| *l)
                .expect("at least one core");
            let (min_core, &min_load) = self
                .loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, l)| *l)
                .expect("at least one core");
            if max_load <= min_load + 1 {
                break;
            }
            // Pick a movable runnable thread from the busiest core.
            let candidate = self.threads.iter().enumerate().position(|(i, t)| {
                t.alive && t.core == max_core && t.affinity.contains(min_core) && runnable(i)
            });
            match candidate {
                Some(idx) => {
                    self.migrate(idx, min_core);
                    moved += 1;
                }
                None => break,
            }
        }
        // Occasional wakeup-style jitter migration between equal-load cores,
        // mimicking the non-determinism of real Linux placement (§3: Linux's
        // default allocation "often migrate[s]" threads). The k-th eligible
        // thread and target core are found by counting, so the draws are
        // the same as indexing a collected list.
        if self.config.jitter_prob > 0.0 && self.rng.gen_bool(self.config.jitter_prob) {
            let movable =
                |&(i, t): &(usize, &ThreadEntry)| t.alive && t.affinity.count() > 1 && runnable(i);
            let n_movable = self.threads.iter().enumerate().filter(movable).count();
            if n_movable > 0 {
                let k = self.rng.gen_range(0..n_movable);
                let (idx, entry) = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(movable)
                    .nth(k)
                    .expect("k is below the eligible count");
                let (mask, cur) = (entry.affinity, entry.core);
                let target_ok = |&c: &usize| c != cur && mask.contains(c);
                let n_options = (0..self.config.num_cores).filter(target_ok).count();
                if n_options > 0 {
                    let k = self.rng.gen_range(0..n_options);
                    let target = (0..self.config.num_cores)
                        .filter(target_ok)
                        .nth(k)
                        .expect("k is below the option count");
                    self.migrate(idx, target);
                    moved += 1;
                }
            }
        }
        moved
    }

    /// Runs the machine for `dt` seconds given each thread's demand.
    ///
    /// The result borrows the scheduler's own buffers and is valid until
    /// the next call; steady-state ticking does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `demands.len() != self.num_threads()` or `dt <= 0`.
    pub fn tick(&mut self, dt: f64, demands: &[ThreadDemand]) -> &TickResult {
        assert_eq!(
            demands.len(),
            self.threads.len(),
            "demand per thread required"
        );
        assert!(dt > 0.0, "tick duration must be positive");
        let n_cores = self.config.num_cores;

        let mut migrations = 0u64;
        self.since_balance += dt;
        if self.since_balance + 1e-12 >= self.config.balance_period {
            self.since_balance = 0.0;
            migrations = self.balance(demands);
        }

        let r = &mut self.result;
        reset(&mut r.exec_seconds, self.threads.len(), 0.0);
        reset(&mut r.core_busy, n_cores, 0.0);
        reset(&mut r.core_activity, n_cores, 0.0);
        reset(&mut r.core_nthreads, n_cores, 0);
        r.thread_core.clear();
        r.thread_core.extend(self.threads.iter().map(|t| t.core));
        r.migrations = migrations;

        // Runqueue lengths first: a thread's share depends on them.
        for (t, d) in self.threads.iter().zip(demands) {
            if t.alive && d.runnable {
                r.core_nthreads[t.core] += 1;
            }
        }
        // Then one pass in thread-index order, the order each core's
        // runqueue holds its threads, so activity sums add up in the
        // same order.
        for (i, (t, d)) in self.threads.iter_mut().zip(demands).enumerate() {
            if !(t.alive && d.runnable) {
                continue;
            }
            let share = dt / r.core_nthreads[t.core] as f64;
            // Split the share into a cold and a warm portion.
            let cold = t.cold_remaining.min(share);
            t.cold_remaining -= cold;
            r.exec_seconds[i] = cold * self.config.cold_efficiency + (share - cold);
            r.core_activity[t.core] += d.activity;
        }
        for core in 0..n_cores {
            let n = r.core_nthreads[core];
            if n > 0 {
                r.core_busy[core] = 1.0;
                r.core_activity[core] /= n as f64;
            }
        }
        &self.result
    }
}

/// Clears `v` and refills it with `len` copies of `value`, keeping its
/// allocation.
pub(crate) fn reset<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(jitter: f64) -> Scheduler {
        Scheduler::new(
            SchedulerConfig {
                jitter_prob: jitter,
                ..SchedulerConfig::default()
            },
            42,
        )
    }

    fn all_running(n: usize) -> Vec<ThreadDemand> {
        vec![ThreadDemand::running(0.9); n]
    }

    #[test]
    fn new_threads_spread_across_cores() {
        let mut s = sched(0.0);
        let ids: Vec<ThreadId> = (0..4).map(|_| s.add_thread(AffinityMask::all(4))).collect();
        let cores: std::collections::HashSet<usize> =
            ids.iter().map(|&i| s.thread_core(i)).collect();
        assert_eq!(cores.len(), 4, "initial placement should spread threads");
    }

    #[test]
    fn six_threads_on_four_cores_share_fairly() {
        let mut s = sched(0.0);
        for _ in 0..6 {
            s.add_thread(AffinityMask::all(4));
        }
        let r = s.tick(0.01, &all_running(6));
        // All cores busy; loads are 2,2,1,1 in some order.
        assert!(r.core_busy.iter().all(|&b| b == 1.0));
        let mut loads = r.core_nthreads.clone();
        loads.sort_unstable();
        assert_eq!(loads, vec![1, 1, 2, 2]);
        // Threads on the 2-thread cores get half the CPU.
        let total: f64 = r.exec_seconds.iter().sum();
        assert!((total - 0.04).abs() < 1e-9, "4 cores x 10ms = 40ms of CPU");
    }

    #[test]
    fn blocked_threads_leave_cores_idle() {
        let mut s = sched(0.0);
        for _ in 0..4 {
            s.add_thread(AffinityMask::all(4));
        }
        let mut demands = all_running(4);
        demands[1] = ThreadDemand::blocked();
        demands[2] = ThreadDemand::blocked();
        demands[3] = ThreadDemand::blocked();
        let r = s.tick(0.01, &demands);
        assert_eq!(r.core_busy.iter().filter(|&&b| b == 1.0).count(), 1);
        assert_eq!(r.exec_seconds[1], 0.0);
    }

    #[test]
    fn affinity_pins_threads() {
        let mut s = sched(0.0);
        let a = s.add_thread(AffinityMask::single(3));
        assert_eq!(s.thread_core(a), 3);
        // Balancing cannot move it (run many ticks).
        for _ in 0..100 {
            s.tick(0.01, &all_running(1));
        }
        assert_eq!(s.thread_core(a), 3);
    }

    #[test]
    fn set_affinity_forces_migration() {
        let mut s = sched(0.0);
        let a = s.add_thread(AffinityMask::single(0));
        assert_eq!(s.thread_core(a), 0);
        let migrated = s.set_affinity(a, AffinityMask::single(2));
        assert!(migrated);
        assert_eq!(s.thread_core(a), 2);
        assert_eq!(s.total_migrations(), 1);
        // Mask that still contains the current core: no move.
        let migrated = s.set_affinity(a, AffinityMask::from_cores(&[1, 2]));
        assert!(!migrated);
    }

    #[test]
    fn balancer_fixes_skewed_load() {
        let mut s = sched(0.0);
        // Pin four threads to core 0, then free them.
        let ids: Vec<ThreadId> = (0..4)
            .map(|_| s.add_thread(AffinityMask::single(0)))
            .collect();
        for &id in &ids {
            s.set_affinity(id, AffinityMask::all(4));
        }
        // All still on core 0 (mask contains it). After a balancing period
        // they spread out.
        s.tick(0.1, &all_running(4));
        let loads = s.tick(0.01, &all_running(4)).core_nthreads.clone();
        assert_eq!(loads, vec![1, 1, 1, 1], "balancer should spread threads");
    }

    #[test]
    fn balancer_respects_affinity() {
        let mut s = sched(0.0);
        for _ in 0..4 {
            s.add_thread(AffinityMask::from_cores(&[0, 1]));
        }
        for _ in 0..20 {
            s.tick(0.05, &all_running(4));
        }
        let r = s.tick(0.01, &all_running(4));
        assert_eq!(r.core_nthreads[2] + r.core_nthreads[3], 0);
        assert_eq!(r.core_nthreads[0], 2);
        assert_eq!(r.core_nthreads[1], 2);
    }

    #[test]
    fn migration_applies_cold_penalty() {
        let mut s = Scheduler::new(
            SchedulerConfig {
                migration_cold_time: 0.05,
                cold_efficiency: 0.5,
                jitter_prob: 0.0,
                ..SchedulerConfig::default()
            },
            1,
        );
        let a = s.add_thread(AffinityMask::single(0));
        s.set_affinity(a, AffinityMask::single(1)); // forced migration
        let r = s.tick(0.01, &all_running(1));
        // Entire 10ms tick is cold: effective time halved.
        assert!((r.exec_seconds[a.index()] - 0.005).abs() < 1e-12);
        // After 50ms of cold time the thread warms back up.
        for _ in 0..5 {
            s.tick(0.01, &all_running(1));
        }
        let r = s.tick(0.01, &all_running(1));
        assert!((r.exec_seconds[a.index()] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn retired_threads_get_no_cpu() {
        let mut s = sched(0.0);
        let a = s.add_thread(AffinityMask::all(4));
        let b = s.add_thread(AffinityMask::all(4));
        s.retire_thread(a);
        let r = s.tick(0.01, &all_running(2));
        assert_eq!(r.exec_seconds[a.index()], 0.0);
        assert!(r.exec_seconds[b.index()] > 0.0);
    }

    #[test]
    fn revive_replaces_thread_on_least_loaded_core() {
        let mut s = sched(0.0);
        let a = s.add_thread(AffinityMask::all(4));
        s.retire_thread(a);
        s.revive_thread(a);
        let r = s.tick(0.01, &all_running(1));
        assert!(r.exec_seconds[a.index()] > 0.0);
    }

    #[test]
    fn jitter_migrations_occur_with_probability() {
        let mut s = sched(0.5);
        for _ in 0..4 {
            s.add_thread(AffinityMask::all(4));
        }
        for _ in 0..200 {
            s.tick(0.1, &all_running(4));
        }
        assert!(
            s.total_migrations() > 10,
            "jitter should cause migrations, got {}",
            s.total_migrations()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = Scheduler::new(SchedulerConfig::default(), 77);
            for _ in 0..6 {
                s.add_thread(AffinityMask::all(4));
            }
            let mut cores = Vec::new();
            for _ in 0..50 {
                cores.push(s.tick(0.05, &all_running(6)).thread_core.clone());
            }
            (cores, s.total_migrations())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "demand per thread")]
    fn mismatched_demands_rejected() {
        let mut s = sched(0.0);
        s.add_thread(AffinityMask::all(4));
        let _ = s.tick(0.01, &[]);
    }

    #[test]
    #[should_panic(expected = "allows no core")]
    fn impossible_affinity_rejected() {
        let mut s = sched(0.0);
        // Mask for core 7 on a 4-core machine.
        let _ = s.add_thread(AffinityMask::single(7));
    }

    /// The allocating scheduler this module shipped before `tick` and
    /// the balancer reused their buffers, kept over the same private
    /// state as the reference the rewrite must match bit for bit.
    impl Scheduler {
        fn reference_least_loaded_allowed(&self, mask: AffinityMask) -> Option<usize> {
            let mut loads = vec![0usize; self.config.num_cores];
            for t in &self.threads {
                if t.alive {
                    loads[t.core] += 1;
                }
            }
            (0..self.config.num_cores)
                .filter(|&c| mask.contains(c))
                .min_by_key(|&c| loads[c])
        }

        fn reference_revive_thread(&mut self, id: ThreadId) {
            let affinity = self.threads[id.0].affinity;
            let core = self
                .reference_least_loaded_allowed(affinity)
                .expect("affinity mask allows no core on this machine");
            let entry = &mut self.threads[id.0];
            entry.alive = true;
            entry.core = core;
            entry.cold_remaining = 0.0;
        }

        fn reference_set_affinity(&mut self, id: ThreadId, mask: AffinityMask) -> bool {
            self.threads[id.0].affinity = mask;
            if !mask.contains(self.threads[id.0].core) {
                let target = self
                    .reference_least_loaded_allowed(mask)
                    .expect("affinity mask allows no core on this machine");
                self.migrate(id.0, target);
                true
            } else {
                false
            }
        }

        fn reference_balance(&mut self, demands: &[ThreadDemand]) -> u64 {
            let mut moved = 0u64;
            for _ in 0..self.config.num_cores * 4 {
                let mut loads = vec![0usize; self.config.num_cores];
                for (i, t) in self.threads.iter().enumerate() {
                    if t.alive && demands.get(i).map(|d| d.runnable).unwrap_or(false) {
                        loads[t.core] += 1;
                    }
                }
                let (max_core, &max_load) = loads
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, l)| *l)
                    .expect("at least one core");
                let (min_core, &min_load) = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, l)| *l)
                    .expect("at least one core");
                if max_load <= min_load + 1 {
                    break;
                }
                let candidate = self.threads.iter().enumerate().position(|(i, t)| {
                    t.alive
                        && t.core == max_core
                        && t.affinity.contains(min_core)
                        && demands.get(i).map(|d| d.runnable).unwrap_or(false)
                });
                match candidate {
                    Some(idx) => {
                        self.migrate(idx, min_core);
                        moved += 1;
                    }
                    None => break,
                }
            }
            if self.config.jitter_prob > 0.0 && self.rng.gen_bool(self.config.jitter_prob) {
                let movable: Vec<usize> = self
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| {
                        t.alive
                            && t.affinity.count() > 1
                            && demands.get(*i).map(|d| d.runnable).unwrap_or(false)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if !movable.is_empty() {
                    let idx = movable[self.rng.gen_range(0..movable.len())];
                    let mask = self.threads[idx].affinity;
                    let cur = self.threads[idx].core;
                    let options: Vec<usize> = (0..self.config.num_cores)
                        .filter(|&c| c != cur && mask.contains(c))
                        .collect();
                    if !options.is_empty() {
                        let target = options[self.rng.gen_range(0..options.len())];
                        self.migrate(idx, target);
                        moved += 1;
                    }
                }
            }
            moved
        }

        fn reference_tick(&mut self, dt: f64, demands: &[ThreadDemand]) -> TickResult {
            assert_eq!(demands.len(), self.threads.len());
            let n_cores = self.config.num_cores;
            let mut migrations = 0u64;
            self.since_balance += dt;
            if self.since_balance + 1e-12 >= self.config.balance_period {
                self.since_balance = 0.0;
                migrations = self.reference_balance(demands);
            }
            let mut core_threads: Vec<Vec<usize>> = vec![Vec::new(); n_cores];
            for (i, t) in self.threads.iter().enumerate() {
                if t.alive && demands[i].runnable {
                    core_threads[t.core].push(i);
                }
            }
            let mut exec_seconds = vec![0.0; self.threads.len()];
            let mut core_busy = vec![0.0; n_cores];
            let mut core_activity = vec![0.0; n_cores];
            let mut core_nthreads = vec![0usize; n_cores];
            for (core, threads) in core_threads.iter().enumerate() {
                if threads.is_empty() {
                    continue;
                }
                core_busy[core] = 1.0;
                core_nthreads[core] = threads.len();
                let share = dt / threads.len() as f64;
                let mut activity_sum = 0.0;
                for &i in threads {
                    let entry = &mut self.threads[i];
                    let cold = entry.cold_remaining.min(share);
                    entry.cold_remaining -= cold;
                    exec_seconds[i] = cold * self.config.cold_efficiency + (share - cold);
                    activity_sum += demands[i].activity;
                }
                core_activity[core] = activity_sum / threads.len() as f64;
            }
            TickResult {
                exec_seconds,
                thread_core: self.threads.iter().map(|t| t.core).collect(),
                core_busy,
                core_activity,
                core_nthreads,
                migrations,
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Everything a tick reads or writes, with floats as raw bits.
    fn state_bits(s: &Scheduler) -> impl PartialEq + std::fmt::Debug {
        let threads: Vec<_> = s
            .threads
            .iter()
            .map(|t| (t.affinity, t.core, t.alive, t.cold_remaining.to_bits()))
            .collect();
        (
            threads,
            s.rng.clone(),
            s.since_balance.to_bits(),
            s.total_migrations,
        )
    }

    fn result_bits(r: &TickResult) -> impl PartialEq + std::fmt::Debug {
        (
            bits(&r.exec_seconds),
            r.thread_core.clone(),
            bits(&r.core_busy),
            bits(&r.core_activity),
            r.core_nthreads.clone(),
            r.migrations,
        )
    }

    /// splitmix64: derives per-step inputs from one random word.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn mask_from_bits(bits: u64, n_cores: usize) -> AffinityMask {
        let cores: Vec<usize> = (0..n_cores).filter(|c| bits >> c & 1 == 1).collect();
        if cores.is_empty() {
            AffinityMask::all(n_cores)
        } else {
            AffinityMask::from_cores(&cores)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The buffer-reusing `tick`/`balance`/placement match the
        /// allocating reference bit for bit: results, placements, cold
        /// time, RNG state, over retire/revive and affinity changes.
        #[test]
        fn buffered_tick_matches_allocating_reference(
            n_cores in 1usize..7,
            n_threads in 1usize..11,
            seed in proptest::prelude::any::<u64>(),
            jitter_kind in 0u8..4,
            jitter_frac in 0.0f64..1.0,
            masks in proptest::collection::vec(proptest::prelude::any::<u64>(), 10),
            steps in proptest::collection::vec(proptest::prelude::any::<u64>(), 200..260),
        ) {
            let jitter_prob = match jitter_kind {
                0 => 0.0,
                1 => 1.0,
                _ => jitter_frac,
            };
            let config = SchedulerConfig {
                num_cores: n_cores,
                jitter_prob,
                ..SchedulerConfig::default()
            };
            let mut new = Scheduler::new(config, seed);
            let mut reference = Scheduler::new(config, seed);
            for &m in &masks[..n_threads] {
                let mask = mask_from_bits(m, n_cores);
                new.add_thread(mask);
                let core = reference
                    .reference_least_loaded_allowed(mask)
                    .expect("mask allows a core");
                reference.threads.push(ThreadEntry {
                    affinity: mask,
                    core,
                    cold_remaining: 0.0,
                    alive: true,
                });
            }
            proptest::prop_assert_eq!(state_bits(&new), state_bits(&reference));

            for &step in &steps {
                let word = mix(step);
                let id = ThreadId((word >> 8) as usize % n_threads);
                match (word >> 3) & 7 {
                    0 => {
                        new.retire_thread(id);
                        reference.retire_thread(id);
                    }
                    1 => {
                        new.revive_thread(id);
                        reference.reference_revive_thread(id);
                    }
                    2 | 3 => {
                        let mask = mask_from_bits(word >> 16, n_cores);
                        proptest::prop_assert_eq!(
                            new.set_affinity(id, mask),
                            reference.reference_set_affinity(id, mask)
                        );
                    }
                    _ => {}
                }
                let demands: Vec<ThreadDemand> = (0..n_threads)
                    .map(|i| {
                        let r = mix(step ^ (i as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
                        ThreadDemand {
                            runnable: r & 3 != 0,
                            activity: (r >> 11) as f64 / (1u64 << 53) as f64,
                        }
                    })
                    .collect();
                let dt = [0.01, 0.01, 0.03, 0.1][(word & 3) as usize];
                let expected = reference.reference_tick(dt, &demands);
                let got = new.tick(dt, &demands);
                proptest::prop_assert_eq!(result_bits(got), result_bits(&expected));
                proptest::prop_assert_eq!(state_bits(&new), state_bits(&reference));
            }
        }
    }
}
