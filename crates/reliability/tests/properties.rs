//! Property-based tests of the reliability models.

use proptest::prelude::*;
use thermorl_reliability::rainflow::total_cycles;
use thermorl_reliability::{
    AgingModel, CyclingParams, RainflowCounter, ReliabilityAnalyzer, ThermalProfile,
};

fn arb_profile() -> impl Strategy<Value = ThermalProfile> {
    proptest::collection::vec(25.0f64..90.0, 2..300)
        .prop_map(|v| ThermalProfile::from_samples(1.0, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Total rainflow cycle count is bounded by the number of reversals:
    /// n samples can never produce more than n/2 full cycles.
    #[test]
    fn cycle_count_is_bounded(p in arb_profile()) {
        let cycles = RainflowCounter::new(0.0).count(&p);
        prop_assert!(total_cycles(&cycles) <= p.len() as f64 / 2.0 + 1.0);
    }

    /// Every counted cycle's range fits inside the profile's total span and
    /// its max temperature is within the observed extremes.
    #[test]
    fn cycles_stay_within_profile_bounds(p in arb_profile()) {
        let span = p.peak() - p.min();
        for c in RainflowCounter::new(0.0).count(&p) {
            prop_assert!(c.range <= span + 1e-9);
            prop_assert!(c.max_temp <= p.peak() + 1e-9);
            prop_assert!(c.max_temp >= p.min() - 1e-9);
            prop_assert!(c.count == 0.5 || c.count == 1.0);
        }
    }

    /// Hysteresis filtering never increases total stress.
    #[test]
    fn hysteresis_only_removes_damage(p in arb_profile()) {
        let params = CyclingParams::default();
        let raw = thermorl_reliability::stress::stress_of_profile(
            &params, &RainflowCounter::new(0.0), &p);
        let filtered = thermorl_reliability::stress::stress_of_profile(
            &params, &RainflowCounter::new(3.0), &p);
        prop_assert!(filtered <= raw + 1e-9);
    }

    /// Aging MTTF lies between the MTTFs at the profile's min and max
    /// temperatures (rates average, so lifetime is bracketed).
    #[test]
    fn aging_mttf_is_bracketed(p in arb_profile()) {
        let m = AgingModel::default();
        let mttf = m.mttf_years(&p);
        let best = m.mttf_at_constant(p.min());
        let worst = m.mttf_at_constant(p.peak());
        prop_assert!(mttf <= best + 1e-9, "{} > {}", mttf, best);
        prop_assert!(mttf >= worst - 1e-9, "{} < {}", mttf, worst);
    }

    /// Uniformly shifting a profile hotter never extends either lifetime.
    #[test]
    fn uniform_heating_never_helps(p in arb_profile(), delta in 0.0f64..15.0) {
        let a = ReliabilityAnalyzer::default();
        let hotter = ThermalProfile::from_samples(
            p.dt(),
            p.samples().iter().map(|t| t + delta).collect(),
        );
        let r0 = a.analyze(&p);
        let r1 = a.analyze(&hotter);
        prop_assert!(r1.mttf_aging_years <= r0.mttf_aging_years + 1e-9);
        prop_assert!(r1.mttf_cycling_years <= r0.mttf_cycling_years * (1.0 + 1e-9));
    }

    /// The combined (SOFR) MTTF is never better than either mechanism.
    #[test]
    fn combined_mttf_is_conservative(p in arb_profile()) {
        let r = ReliabilityAnalyzer::default().analyze(&p);
        prop_assert!(r.mttf_combined_years <= r.mttf_aging_years + 1e-9);
        prop_assert!(r.mttf_combined_years <= r.mttf_cycling_years + 1e-9);
    }

    /// Repeating a profile twice roughly doubles damage and time, leaving
    /// the cycling MTTF within a factor accounting for the junction cycle.
    #[test]
    fn cycling_mttf_is_roughly_rate_stationary(p in arb_profile()) {
        let analyzer = ReliabilityAnalyzer::default();
        let once = analyzer.analyze(&p);
        let mut doubled = p.samples().to_vec();
        doubled.extend_from_slice(p.samples());
        let twice = analyzer.analyze(&ThermalProfile::from_samples(p.dt(), doubled));
        if once.mttf_cycling_years.is_finite() && once.stress > 1e-18 {
            let ratio = twice.mttf_cycling_years / once.mttf_cycling_years;
            prop_assert!(ratio > 0.2 && ratio < 5.0, "ratio {}", ratio);
        }
    }
}
