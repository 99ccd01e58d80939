//! Property-based tests of the thermal substrate.

use proptest::prelude::*;
use thermorl_thermal::{DieBatch, DieModel, DieParams, Floorplan, HeteroMix, Stepper};

fn die_with_powers(powers: &[f64]) -> DieModel {
    let mut die = DieModel::quad_core();
    for (c, &p) in powers.iter().enumerate() {
        die.set_core_power(c, p);
    }
    die
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Steady-state temperatures always sit at or above ambient when power
    /// injection is non-negative.
    #[test]
    fn steady_state_above_ambient(p in proptest::collection::vec(0.0f64..25.0, 4)) {
        let mut die = die_with_powers(&p);
        die.settle();
        for t in die.core_temperatures() {
            prop_assert!(t >= die.params().ambient - 1e-9);
        }
    }

    /// Monotonicity: raising the power of one core cannot cool any node.
    #[test]
    fn power_monotonicity(
        p in proptest::collection::vec(0.0f64..20.0, 4),
        core in 0usize..4,
        extra in 0.1f64..10.0,
    ) {
        let mut lo = die_with_powers(&p);
        let mut hi = die_with_powers(&p);
        hi.set_core_power(core, p[core] + extra);
        lo.settle();
        hi.settle();
        for (a, b) in lo.core_temperatures().iter().zip(hi.core_temperatures()) {
            prop_assert!(b >= *a - 1e-9);
        }
    }

    /// The loaded core is the hottest core in steady state.
    #[test]
    fn loaded_core_is_hottest(core in 0usize..4, load in 5.0f64..25.0) {
        let mut p = vec![1.0; 4];
        p[core] = load;
        let mut die = die_with_powers(&p);
        die.settle();
        let temps = die.core_temperatures();
        let hottest = temps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assert_eq!(hottest, core);
    }

    /// Transient integration never overshoots the band spanned by the
    /// initial state and the steady state (the RC system is non-oscillatory).
    #[test]
    fn transient_stays_bracketed(p in proptest::collection::vec(0.0f64..25.0, 4)) {
        let mut die = die_with_powers(&p);
        let start = die.core_temperatures();
        let mut settled = die.clone();
        settled.settle();
        let end = settled.core_temperatures();
        for _ in 0..200 {
            die.advance(0.5);
            for (c, t) in die.core_temperatures().into_iter().enumerate() {
                let lo = start[c].min(end[c]) - 0.05;
                let hi = start[c].max(end[c]) + 0.05;
                prop_assert!(t >= lo && t <= hi, "core {} at {} outside [{}, {}]", c, t, lo, hi);
            }
        }
    }

    /// Both steppers agree on slow transients under random powers. The
    /// exact die is also held to a fine fixed-step RK4 reference, in
    /// `network.rs`'s unit tests where that test-only reference lives.
    #[test]
    fn steppers_agree(p in proptest::collection::vec(0.0f64..20.0, 4)) {
        let die_with = |stepper: Stepper, sim_dt: f64| {
            let mut die = DieModel::new(
                Floorplan::quad(),
                DieParams { stepper, sim_dt, ..DieParams::default() },
            );
            for (c, &w) in p.iter().enumerate() {
                die.set_core_power(c, w);
            }
            die
        };
        let mut exact = die_with(Stepper::Exact, 0.01);
        let mut adaptive = die_with(Stepper::adaptive(), 0.05);
        exact.advance(20.0);
        adaptive.advance(20.0);
        // The adaptive controller holds per-step error at its tolerances,
        // so it must sit on the exact propagator.
        for (a, b) in adaptive.core_temperatures().iter().zip(exact.core_temperatures()) {
            prop_assert!((a - b).abs() < 1e-3, "adaptive {} vs exact {}", a, b);
        }
    }

    /// The adaptive stepper agrees with the exact propagator on random
    /// floorplan shapes, random power vectors, heterogeneous big.LITTLE
    /// mixes, and a mid-run ambient swing — the error controller holds
    /// across every die geometry, not just the calibrated quad.
    #[test]
    fn adaptive_agrees_with_exact_on_random_floorplans(
        w in 1usize..5,
        h in 1usize..5,
        big_pick in 0usize..32,
        powers in proptest::collection::vec(0.0f64..15.0, 16),
        ambient_shift in -10.0f64..15.0,
    ) {
        let cores = w * h;
        // big_pick folds to 0..=cores; 0 big cores means a homogeneous die.
        let big = big_pick % (cores + 1);
        let hetero = if big == 0 { None } else { Some(HeteroMix::big_little(big)) };
        let build = |stepper: Stepper| {
            let mut die = DieModel::new(
                Floorplan::grid(w, h),
                DieParams { stepper, hetero, ..DieParams::default() },
            );
            for (c, &w) in powers.iter().enumerate().take(cores) {
                die.set_core_power(c, w);
            }
            die
        };
        let mut exact = build(Stepper::Exact);
        let mut adaptive = build(Stepper::adaptive());
        exact.advance(5.0);
        adaptive.advance(5.0);
        // Ambient swing mid-run: both steppers must track the new target.
        exact.set_ambient(25.0 + ambient_shift);
        adaptive.set_ambient(25.0 + ambient_shift);
        exact.advance(5.0);
        adaptive.advance(5.0);
        for (a, b) in adaptive.core_temperatures().iter().zip(exact.core_temperatures()) {
            prop_assert!(
                (a - b).abs() < 1e-3,
                "{}x{} big={} adaptive {} vs exact {}", w, h, big, a, b
            );
        }
    }

    /// A die advanced inside a [`DieBatch`] is bit-identical to the same
    /// die advanced alone, for every stepper, under per-die power and
    /// ambient schedules whose varying epoch lengths force propagator
    /// rebuilds (Exact re-derives `[E | F]` per distinct dt). This is the
    /// contract that keeps serve snapshots
    /// and campaign checkpoints byte-identical when dies route through
    /// the batched path.
    #[test]
    fn batch_agrees_with_scalar(
        width in 1usize..6,
        stepper_idx in 0usize..3,
        schedule in proptest::collection::vec(
            (1u8..30, proptest::collection::vec(0.0f64..20.0, 24)),
            1..5,
        ),
    ) {
        let stepper = [Stepper::Exact, Stepper::adaptive(), Stepper::Auto][stepper_idx];
        let proto = DieModel::new(
            Floorplan::quad(),
            DieParams { stepper, ..DieParams::default() },
        );
        let mut batch = DieBatch::new(&proto, width);
        let mut scalars: Vec<DieModel> = (0..width).map(|_| proto.clone()).collect();
        let mut out = vec![0.0; batch.nodes()];
        for (ticks, powers) in &schedule {
            // Distinct durations are distinct dts for Exact.
            let duration = f64::from(*ticks) * 0.07;
            for (d, scalar) in scalars.iter_mut().enumerate() {
                for c in 0..4 {
                    let w = powers[(d * 4 + c) % powers.len()];
                    batch.set_core_power(d, c, w);
                    scalar.set_core_power(c, w);
                }
                let ambient = 25.0 + powers[d % powers.len()] * 0.2;
                batch.set_ambient(d, ambient);
                scalar.set_ambient(ambient);
            }
            batch.advance(duration);
            for s in &mut scalars {
                s.advance(duration);
            }
            for (d, scalar) in scalars.iter().enumerate() {
                batch.store_die(d, &mut out);
                for (i, (a, b)) in out.iter().zip(scalar.network().temperatures()).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "{} die {} node {}: {} vs {}", stepper, d, i, a, b
                    );
                }
            }
        }
    }

    /// Total steady-state heat flow to ambient equals injected power
    /// (energy conservation): T_sink - T_amb = P_total * R_sink.
    #[test]
    fn steady_state_energy_balance(p in proptest::collection::vec(0.0f64..25.0, 4)) {
        let mut die = die_with_powers(&p);
        die.settle();
        let total: f64 = p.iter().sum();
        let expected_sink = die.params().ambient + total * die.params().sink_to_ambient;
        prop_assert!((die.sink_temperature() - expected_sink).abs() < 1e-6);
    }
}
