//! The assembled machine: cores + governors + scheduler + power + counters.

use serde::{Deserialize, Serialize};

use crate::affinity::{AffinityMask, ThreadAssignment};
use crate::counters::{CounterModel, CounterParams, CounterSnapshot};
use crate::governor::{GovernorKind, GovernorState, GovernorTunables};
use crate::hetero::CoreClass;
use crate::opp::OppTable;
use crate::power::{EnergyMeter, PowerModel};
use crate::scheduler::{reset, Scheduler, SchedulerConfig, ThreadDemand, ThreadId};

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// DVFS table shared by all cores.
    pub opp_table: OppTable,
    /// Power model of each core.
    pub power: PowerModel,
    /// Scheduler tunables (including core count).
    pub scheduler: SchedulerConfig,
    /// Governor tunables.
    pub governor_tunables: GovernorTunables,
    /// Governor every core boots with (the kernel default is ondemand).
    pub initial_governor: GovernorKind,
    /// Performance-counter coefficients.
    pub counters: CounterParams,
    /// Per-core performance/power classes; `None` means a homogeneous
    /// machine (every core a [`CoreClass::big`]). The paper's §7 names
    /// heterogeneous cores as the natural extension of the approach.
    pub core_classes: Option<Vec<CoreClass>>,
}

impl MachineConfig {
    fn freq_scale(&self, core: usize) -> f64 {
        self.core_classes
            .as_ref()
            .map(|c| c[core].freq_scale)
            .unwrap_or(1.0)
    }

    fn power_scale(&self, core: usize) -> f64 {
        self.core_classes
            .as_ref()
            .map(|c| c[core].power_scale)
            .unwrap_or(1.0)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            opp_table: OppTable::intel_quad(),
            power: PowerModel::default(),
            scheduler: SchedulerConfig::default(),
            governor_tunables: GovernorTunables::default(),
            initial_governor: GovernorKind::Ondemand,
            counters: CounterParams::default(),
            core_classes: None,
        }
    }
}

/// Per-tick outputs of the machine, consumed by the thermal model and the
/// workload bookkeeping.
///
/// The machine owns one of these and refills it in place on every
/// [`Machine::tick`]. Per-thread CPU time, core utilisation and
/// migrations are in the [`Scheduler`]'s [`crate::TickResult`]; tick
/// frequencies come from [`Machine::frequency`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineTick {
    /// Giga-cycles of useful work executed by each thread this tick.
    pub exec_giga_cycles: Vec<f64>,
    /// Dynamic power of each core during the tick (W).
    pub core_dynamic_w: Vec<f64>,
    /// Leakage power of each core during the tick (W).
    pub core_static_w: Vec<f64>,
}

/// A simulated multicore machine.
///
/// # Example
///
/// ```
/// use thermorl_platform::{AffinityMask, GovernorKind, Machine, MachineConfig, ThreadDemand};
///
/// let mut m = Machine::new(MachineConfig::default(), 1);
/// let _t = m.add_thread(AffinityMask::all(4));
/// m.set_governor_all(GovernorKind::Performance);
/// let tick = m.tick(0.01, &[ThreadDemand::running(1.0)], &[40.0; 4]);
/// assert_eq!(tick.core_dynamic_w.len(), 4);
/// assert!(tick.core_dynamic_w.iter().sum::<f64>() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    scheduler: Scheduler,
    governors: Vec<GovernorState>,
    opp_index: Vec<usize>,
    energy: EnergyMeter,
    counters: CounterModel,
    threads: Vec<ThreadId>,
    mem_intensity: Vec<f64>,
    time: f64,
    /// The last tick's outputs, refilled in place by [`Machine::tick`].
    tick_out: MachineTick,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Panics
    ///
    /// Panics if `core_classes` is given with the wrong length or an
    /// invalid class.
    pub fn new(config: MachineConfig, seed: u64) -> Self {
        let n = config.scheduler.num_cores;
        if let Some(classes) = &config.core_classes {
            assert_eq!(classes.len(), n, "one core class per core required");
            for c in classes {
                c.validate().expect("invalid core class");
            }
        }
        let governors: Vec<GovernorState> = (0..n)
            .map(|_| {
                GovernorState::with_tunables(
                    config.initial_governor,
                    &config.opp_table,
                    config.governor_tunables,
                )
            })
            .collect();
        let opp_index = governors.iter().map(|g| g.current_index()).collect();
        Machine {
            scheduler: Scheduler::new(config.scheduler, seed),
            governors,
            opp_index,
            energy: EnergyMeter::new(n),
            counters: CounterModel::new(config.counters),
            threads: Vec::new(),
            mem_intensity: Vec::new(),
            time: 0.0,
            tick_out: MachineTick::default(),
            config,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.scheduler.num_cores
    }

    /// Number of registered threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Simulated time elapsed (s).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Registers a thread with default (0.5) memory intensity.
    pub fn add_thread(&mut self, affinity: AffinityMask) -> ThreadId {
        let id = self.scheduler.add_thread(affinity);
        self.threads.push(id);
        self.mem_intensity.push(0.5);
        id
    }

    /// Sets a thread's memory intensity (0–1), used by the cache-miss model.
    pub fn set_memory_intensity(&mut self, id: ThreadId, intensity: f64) {
        self.mem_intensity[id.index()] = intensity.clamp(0.0, 1.0);
    }

    /// Retires a thread (application finished).
    pub fn retire_thread(&mut self, id: ThreadId) {
        self.scheduler.retire_thread(id);
    }

    /// Revives a retired thread for the next application of a scenario.
    pub fn revive_thread(&mut self, id: ThreadId) {
        self.scheduler.revive_thread(id);
    }

    /// Changes one thread's affinity (returns whether it migrated).
    pub fn set_affinity(&mut self, id: ThreadId, mask: AffinityMask) -> bool {
        let migrated = self.scheduler.set_affinity(id, mask);
        if migrated {
            self.counters.record_migrations(1);
        }
        migrated
    }

    /// Applies a whole [`ThreadAssignment`] to threads `0..masks.len()`.
    /// Extra registered threads keep their masks. Returns the number of
    /// forced migrations.
    pub fn apply_assignment(&mut self, assignment: &ThreadAssignment) -> u64 {
        let mut moved = 0;
        for (i, &mask) in assignment.masks.iter().enumerate() {
            if i >= self.threads.len() {
                break;
            }
            if self.set_affinity(self.threads[i], mask) {
                moved += 1;
            }
        }
        moved
    }

    /// Sets one core's governor; frequency takes effect immediately for
    /// static governors.
    pub fn set_governor(&mut self, core: usize, kind: GovernorKind) {
        let idx = self.governors[core].switch(kind, &self.config.opp_table);
        self.opp_index[core] = idx;
    }

    /// Sets every core's governor (the paper's actions drive all cores).
    pub fn set_governor_all(&mut self, kind: GovernorKind) {
        for core in 0..self.num_cores() {
            self.set_governor(core, kind);
        }
    }

    /// The governor currently driving a core.
    pub fn governor(&self, core: usize) -> GovernorKind {
        self.governors[core].kind()
    }

    /// A core's current OPP index.
    pub fn opp_index(&self, core: usize) -> usize {
        self.opp_index[core]
    }

    /// A core's current *effective* frequency (GHz), including its class's
    /// frequency scaling on heterogeneous machines.
    pub fn frequency(&self, core: usize) -> f64 {
        self.config.opp_table.get(self.opp_index[core]).freq_ghz * self.config.freq_scale(core)
    }

    /// The scheduler (read access, e.g. thread placement queries).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// The energy meter.
    pub fn energy(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Current perf-counter totals.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Charges the cost of one controller sensor-sampling pass.
    pub fn charge_sample_overhead(&mut self) {
        self.counters.record_sample_overhead();
    }

    /// Charges the cost of one controller decision.
    pub fn charge_decision_overhead(&mut self) {
        self.counters.record_decision_overhead();
    }

    /// Advances the machine by `dt` seconds.
    ///
    /// `demands` must contain one entry per registered thread;
    /// `core_temps` one temperature per core (drives leakage). The result
    /// borrows the machine's own buffers and is valid until the next
    /// call; steady-state ticking does not allocate.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match.
    pub fn tick(&mut self, dt: f64, demands: &[ThreadDemand], core_temps: &[f64]) -> &MachineTick {
        assert_eq!(core_temps.len(), self.num_cores(), "temperature per core");
        let n_cores = self.num_cores();
        let sched = self.scheduler.tick(dt, demands);
        if sched.migrations > 0 {
            self.counters.record_migrations(sched.migrations);
        }
        // The OPP in force during this tick: governors react only after
        // work and power are accounted.
        let opp = |core: usize| self.config.opp_table.get(self.opp_index[core]);

        // Work executed, in giga-cycles, at the core's tick frequency.
        let out = &mut self.tick_out;
        reset(&mut out.exec_giga_cycles, demands.len(), 0.0);
        for (i, &secs) in sched.exec_seconds.iter().enumerate() {
            if secs > 0.0 {
                let core = sched.thread_core[i];
                let gc = secs * opp(core).freq_ghz * self.config.freq_scale(core);
                out.exec_giga_cycles[i] = gc;
                let co = sched.core_nthreads[core].saturating_sub(1);
                self.counters
                    .record_execution(gc, self.mem_intensity[i], co);
            }
        }

        // Power draw during the tick.
        reset(&mut out.core_dynamic_w, n_cores, 0.0);
        reset(&mut out.core_static_w, n_cores, 0.0);
        for (core, &temp) in core_temps.iter().enumerate() {
            let opp = opp(core);
            let scale = self.config.power_scale(core);
            out.core_dynamic_w[core] = scale
                * self
                    .config
                    .power
                    .dynamic(opp, sched.core_activity[core], sched.core_busy[core]);
            out.core_static_w[core] = scale * self.config.power.leakage(opp.voltage, temp);
        }
        self.energy
            .record(dt, &out.core_dynamic_w, &out.core_static_w);

        // Governors react to this tick's utilisation.
        for core in 0..n_cores {
            if let Some(new_idx) =
                self.governors[core].observe(dt, sched.core_busy[core], &self.config.opp_table)
            {
                self.opp_index[core] = new_idx;
            }
        }
        self.time += dt;
        &self.tick_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default(), 9)
    }

    #[test]
    fn single_busy_thread_executes_at_core_frequency() {
        let mut m = machine();
        let t = m.add_thread(AffinityMask::single(0));
        m.set_governor_all(GovernorKind::Performance);
        let tick = m.tick(0.01, &[ThreadDemand::running(1.0)], &[40.0; 4]);
        assert!((tick.exec_giga_cycles[t.index()] - 0.01 * 3.4).abs() < 1e-12);
    }

    #[test]
    fn powersave_executes_slower_than_performance() {
        let run = |gov| {
            let mut m = machine();
            let t = m.add_thread(AffinityMask::single(0));
            m.set_governor_all(gov);
            let tick = m.tick(0.01, &[ThreadDemand::running(1.0)], &[40.0; 4]);
            tick.exec_giga_cycles[t.index()]
        };
        assert!(run(GovernorKind::Powersave) < run(GovernorKind::Performance));
    }

    #[test]
    fn ondemand_ramps_up_under_sustained_load() {
        let mut m = machine();
        m.add_thread(AffinityMask::single(0));
        assert_eq!(m.frequency(0), 1.6);
        for _ in 0..20 {
            m.tick(0.01, &[ThreadDemand::running(1.0)], &[40.0; 4]);
        }
        assert_eq!(m.frequency(0), 3.4, "ondemand should hit fmax");
        // And back down when the thread blocks.
        for _ in 0..30 {
            m.tick(0.01, &[ThreadDemand::blocked()], &[40.0; 4]);
        }
        assert_eq!(m.frequency(0), 1.6);
    }

    #[test]
    fn idle_cores_draw_only_leakage() {
        let mut m = machine();
        m.add_thread(AffinityMask::single(0));
        let tick = m.tick(0.01, &[ThreadDemand::blocked()], &[50.0; 4]);
        assert!(tick.core_dynamic_w.iter().all(|&p| p == 0.0));
        assert!(tick.core_static_w.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn hotter_die_leaks_more() {
        let mut m = machine();
        m.add_thread(AffinityMask::single(0));
        let cold = m
            .tick(0.01, &[ThreadDemand::blocked()], &[30.0; 4])
            .core_static_w[0];
        let hot = m
            .tick(0.01, &[ThreadDemand::blocked()], &[80.0; 4])
            .core_static_w[0];
        assert!(hot > cold * 2.0);
    }

    #[test]
    fn energy_meter_accumulates() {
        let mut m = machine();
        m.add_thread(AffinityMask::single(0));
        m.set_governor_all(GovernorKind::Performance);
        for _ in 0..100 {
            m.tick(0.01, &[ThreadDemand::running(1.0)], &[50.0; 4]);
        }
        assert!(m.energy().dynamic_energy() > 10.0);
        assert!(m.energy().static_energy() > 0.0);
        assert!((m.energy().elapsed() - 1.0).abs() < 1e-9);
        assert!((m.time() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn apply_assignment_moves_threads() {
        let mut m = machine();
        let ids: Vec<ThreadId> = (0..6).map(|_| m.add_thread(AffinityMask::all(4))).collect();
        let a = ThreadAssignment::packed(&[2, 2, 1, 1]);
        m.apply_assignment(&a);
        let cores: Vec<usize> = ids
            .iter()
            .map(|&id| m.scheduler().thread_core(id))
            .collect();
        assert_eq!(cores, vec![0, 0, 1, 1, 2, 3]);
    }

    #[test]
    fn counters_track_work_and_overheads() {
        let mut m = machine();
        m.add_thread(AffinityMask::single(0));
        m.tick(0.01, &[ThreadDemand::running(1.0)], &[40.0; 4]);
        let before = m.counters();
        assert!(before.instructions > 0.0);
        m.charge_sample_overhead();
        m.charge_decision_overhead();
        let after = m.counters();
        assert!(after.cache_misses > before.cache_misses);
        assert!(after.page_faults > before.page_faults);
    }

    #[test]
    fn heterogeneous_little_cores_run_slower_and_cooler() {
        use crate::hetero::big_little_quad;
        let config = MachineConfig {
            core_classes: Some(big_little_quad()),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(config, 1);
        let big = m.add_thread(AffinityMask::single(0));
        let little = m.add_thread(AffinityMask::single(2));
        m.set_governor_all(GovernorKind::Performance);
        let tick = m.tick(
            0.01,
            &[ThreadDemand::running(1.0), ThreadDemand::running(1.0)],
            &[40.0; 4],
        );
        assert!(
            tick.exec_giga_cycles[big.index()] > tick.exec_giga_cycles[little.index()] * 1.5,
            "big {} vs little {}",
            tick.exec_giga_cycles[big.index()],
            tick.exec_giga_cycles[little.index()]
        );
        assert!(tick.core_dynamic_w[0] > tick.core_dynamic_w[2] * 2.0);
        assert!(tick.core_static_w[0] > tick.core_static_w[2]);
        assert!((m.frequency(0) - 3.4).abs() < 1e-9);
        assert!((m.frequency(2) - 3.4 * 0.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one core class per core")]
    fn wrong_class_count_rejected() {
        use crate::hetero::CoreClass;
        let config = MachineConfig {
            core_classes: Some(vec![CoreClass::big()]),
            ..MachineConfig::default()
        };
        let _ = Machine::new(config, 1);
    }

    #[test]
    fn memory_intensity_changes_miss_rate() {
        let run = |mem: f64| {
            let mut m = machine();
            let t = m.add_thread(AffinityMask::single(0));
            m.set_memory_intensity(t, mem);
            for _ in 0..10 {
                m.tick(0.01, &[ThreadDemand::running(1.0)], &[40.0; 4]);
            }
            m.counters().cache_misses
        };
        assert!(run(0.9) > run(0.1));
    }
}
