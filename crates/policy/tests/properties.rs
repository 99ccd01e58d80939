//! Property tests over the whole zoo: every policy's snapshot → restore
//! → decide path is deterministic — the restored twin re-serializes to
//! the same bytes and produces the same actuation stream as the donor
//! that was never snapshotted — across seeds, warmup lengths, epoch
//! lengths, and thermal regimes.

use proptest::prelude::*;
use thermorl_control::ControlConfig;
use thermorl_platform::CounterSnapshot;
use thermorl_policy::{Policy, PolicyId};
use thermorl_sim::{Actuation, Observation};

const CORES: usize = 4;
const THREADS: usize = 6;

fn obs<'a>(temps: &'a [f64], freqs: &'a [f64], k: u64) -> Observation<'a> {
    Observation {
        time: k as f64 * 3.0,
        sensor_temps: temps,
        fps: 1.0,
        perf_constraint: 0.8,
        app_name: "prop",
        app_index: 0,
        app_switched: false,
        counters: CounterSnapshot::default(),
        core_freq_ghz: freqs,
    }
}

fn drive(policy: &mut dyn Policy, from: u64, n: u64, base: f64) -> Vec<Option<Actuation>> {
    let freqs = [3.4; CORES];
    (0..n)
        .map(|i| {
            let k = from + i;
            let t = base + (k % 11) as f64 * 1.3;
            let temps = [t, t + 1.0, t - 1.0, t + 0.5];
            policy.observe(&obs(&temps, &freqs, k))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_zoo_policy_snapshot_restore_decide_is_deterministic(
        policy_sel in 0usize..PolicyId::ALL.len(),
        seed in 0u64..1_000_000,
        warm in 1u64..60,
        extra in 1u64..30,
        epoch_samples in 2usize..8,
        base in 40.0f64..70.0,
    ) {
        let id = PolicyId::ALL[policy_sel];
        let cfg = ControlConfig { epoch_samples, ..ControlConfig::default() };

        let mut donor = id.build(cfg.clone(), seed);
        donor.on_start(THREADS, CORES);
        drive(donor.as_mut(), 0, warm, base);

        let snap = donor.snapshot().expect("started policies snapshot");
        let line = snap.to_json();
        let mut twin = id.build(cfg, seed.wrapping_add(1) ^ 0xBAD_5EED);
        twin.on_start(THREADS, CORES);
        twin.restore(&thermorl_json::Value::parse(&line).expect("parse"))
            .expect("restore");

        // Restored state re-serializes byte-identically…
        prop_assert_eq!(
            twin.snapshot().expect("twin snapshot").to_json(),
            line
        );
        prop_assert_eq!(twin.epochs(), donor.epochs());

        // …and decides identically from here on.
        let a = drive(donor.as_mut(), warm, extra, base);
        let b = drive(twin.as_mut(), warm, extra, base);
        prop_assert_eq!(a, b);
        prop_assert_eq!(
            donor.snapshot().expect("donor snapshot").to_json(),
            twin.snapshot().expect("twin snapshot").to_json()
        );
    }
}
