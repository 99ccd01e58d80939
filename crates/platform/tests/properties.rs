//! Property-based tests of the platform substrate.

use proptest::prelude::*;

use thermorl_platform::{
    AffinityMask, GovernorKind, GovernorState, Machine, MachineConfig, OppTable, Scheduler,
    SchedulerConfig, ThreadDemand,
};

fn arb_demands(n: usize) -> impl Strategy<Value = Vec<ThreadDemand>> {
    proptest::collection::vec(
        (any::<bool>(), 0.0f64..1.0)
            .prop_map(|(runnable, activity)| ThreadDemand { runnable, activity }),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CPU time is conserved: the sum of granted thread-seconds never
    /// exceeds cores × dt, and a busy core grants exactly dt in total.
    #[test]
    fn scheduler_conserves_cpu_time(
        n_threads in 1usize..10,
        seed in 0u64..100,
        demands_seq in proptest::collection::vec(any::<u64>(), 1..30),
    ) {
        let mut s = Scheduler::new(SchedulerConfig::default(), seed);
        for _ in 0..n_threads {
            s.add_thread(AffinityMask::all(4));
        }
        for pattern in demands_seq {
            let demands: Vec<ThreadDemand> = (0..n_threads)
                .map(|i| ThreadDemand {
                    runnable: (pattern >> (i % 64)) & 1 == 1,
                    activity: 0.5,
                })
                .collect();
            let r = s.tick(0.01, &demands);
            let total: f64 = r.exec_seconds.iter().sum();
            prop_assert!(total <= 4.0 * 0.01 + 1e-12);
            // Effective time never exceeds the fair share bound per thread.
            for (i, &secs) in r.exec_seconds.iter().enumerate() {
                prop_assert!(secs <= 0.01 + 1e-12);
                if !demands[i].runnable {
                    prop_assert_eq!(secs, 0.0);
                }
            }
        }
    }

    /// Threads never run on cores outside their affinity mask.
    #[test]
    fn affinity_is_always_respected(
        seed in 0u64..100,
        masks in proptest::collection::vec(1u8..16, 1..8),
        ticks in 1usize..50,
    ) {
        let mut s = Scheduler::new(SchedulerConfig::default(), seed);
        let masks: Vec<AffinityMask> = masks
            .into_iter()
            .map(|bits| {
                let cores: Vec<usize> = (0..4).filter(|c| bits >> c & 1 == 1).collect();
                AffinityMask::from_cores(&cores)
            })
            .collect();
        let ids: Vec<_> = masks.iter().map(|&m| s.add_thread(m)).collect();
        let demands = vec![ThreadDemand::running(0.7); ids.len()];
        for _ in 0..ticks {
            let r = s.tick(0.05, &demands);
            for (i, &core) in r.thread_core.iter().enumerate() {
                prop_assert!(
                    masks[i].contains(core),
                    "thread {} on core {} outside {:?}",
                    i, core, masks[i]
                );
            }
        }
    }

    /// Governors always return a valid OPP index and respect their
    /// semantic bounds (powersave = min, performance = max).
    #[test]
    fn governors_stay_in_range(
        util_seq in proptest::collection::vec(0.0f64..1.0, 1..100),
        kind in 0usize..5,
    ) {
        let table = OppTable::intel_quad();
        let kind = match kind {
            0 => GovernorKind::Ondemand,
            1 => GovernorKind::Conservative,
            2 => GovernorKind::Performance,
            3 => GovernorKind::Powersave,
            _ => GovernorKind::Userspace(3),
        };
        let mut g = GovernorState::new(kind, &table);
        for util in util_seq {
            if let Some(idx) = g.observe(0.1, util, &table) {
                prop_assert!(idx < table.len());
            }
            prop_assert!(g.current_index() < table.len());
            match kind {
                GovernorKind::Performance => prop_assert_eq!(g.current_index(), table.max_index()),
                GovernorKind::Powersave => prop_assert_eq!(g.current_index(), 0),
                GovernorKind::Userspace(i) => prop_assert_eq!(g.current_index(), i),
                _ => {}
            }
        }
    }

    /// Machine power is bounded by physics: dynamic ≤ full-tilt draw per
    /// core, leakage positive and monotone in temperature.
    #[test]
    fn machine_power_is_bounded(
        demands in arb_demands(6),
        temp in 25.0f64..95.0,
        seed in 0u64..50,
    ) {
        let mut m = Machine::new(MachineConfig::default(), seed);
        for _ in 0..6 {
            m.add_thread(AffinityMask::all(4));
        }
        m.set_governor_all(GovernorKind::Performance);
        let temps = [temp; 4];
        let p_max = m.config().power.dynamic(
            m.config().opp_table.get(m.config().opp_table.max_index()),
            1.0,
            1.0,
        );
        let tick = m.tick(0.01, &demands, &temps);
        for c in 0..4 {
            prop_assert!(tick.core_dynamic_w[c] <= p_max + 1e-9);
            prop_assert!(tick.core_dynamic_w[c] >= 0.0);
            prop_assert!(tick.core_static_w[c] > 0.0);
        }
    }

    /// Scheduler determinism: identical seeds and demand streams produce
    /// identical placements.
    #[test]
    fn scheduler_is_deterministic(seed in 0u64..200, n in 1usize..8) {
        let run = || {
            let mut s = Scheduler::new(SchedulerConfig::default(), seed);
            for _ in 0..n {
                s.add_thread(AffinityMask::all(4));
            }
            let demands = vec![ThreadDemand::running(0.9); n];
            let mut trace = Vec::new();
            for _ in 0..30 {
                trace.push(s.tick(0.05, &demands).thread_core.clone());
            }
            (trace, s.total_migrations())
        };
        prop_assert_eq!(run(), run());
    }
}
