//! Property tests: a session serialized through its JSON snapshot and
//! restored is bit-identical to one that was never snapshotted — same
//! Q-table bits, same sensor noise stream, same thermal state, same
//! decision stream — across seeds, warmup lengths, epoch lengths, both
//! observation modes, and every policy in the zoo (the policy id itself
//! round-trips, so kill -9 recovery resumes the same brain).

use proptest::prelude::*;
use thermorl_control::ControlConfig;
use thermorl_json::Value;
use thermorl_policy::PolicyId;
use thermorl_serve::{Session, SessionMode, StepOutcome};

const CORES: usize = 4;

fn drive(session: &mut Session, from: u64, n: u64, scale: f64) -> Vec<StepOutcome> {
    (0..n)
        .map(|k| {
            let seq = from + k;
            let values: Vec<f64> = (0..CORES as u64)
                .map(|c| scale + ((seq * 37 + c * 11) % 17) as f64 * 0.4)
                .collect();
            session.step(seq, &values).expect("step")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_restore_is_bit_identical(
        seed in 0u64..1_000_000,
        warm in 1u64..40,
        extra in 1u64..25,
        epoch_samples in 2usize..8,
        mode_sel in 0u64..2,
        policy_sel in 0usize..PolicyId::ALL.len(),
        scale in 2.0f64..9.0,
    ) {
        let mode = if mode_sel == 0 { SessionMode::Power } else { SessionMode::Temps };
        let policy_id = PolicyId::ALL[policy_sel];
        let cfg = ControlConfig { epoch_samples, ..ControlConfig::default() };
        let mut donor = Session::new("prop-die", CORES, CORES, mode, policy_id, seed, cfg);
        drive(&mut donor, 1, warm, scale);

        // Encode through the wire/store JSON format and restore.
        let line = donor.snapshot_line();
        let parsed = Value::parse(&line).expect("snapshot line parses");
        let mut twin =
            Session::restore(parsed.get("session").expect("session field")).expect("restore");
        prop_assert_eq!(twin.policy_id(), policy_id);

        // The restored state re-serializes byte-identically: Q-table
        // floats, agent and sensor RNG streams, detector windows,
        // thermal node temperatures — everything.
        prop_assert_eq!(
            donor.snapshot_value().to_json(),
            twin.snapshot_value().to_json()
        );

        // And it *steps* identically, decision for decision.
        let a = drive(&mut donor, warm + 1, extra, scale);
        let b = drive(&mut twin, warm + 1, extra, scale);
        prop_assert_eq!(a, b);
        prop_assert_eq!(
            donor.snapshot_value().to_json(),
            twin.snapshot_value().to_json()
        );
    }
}

/// A crash mid-append leaves a prefix of a snapshot line as the store's
/// final line. Every prefix of a real one is a parse error, never a panic.
#[test]
fn torn_snapshot_line_is_an_error_at_every_length() {
    let mut session = Session::new(
        "torn-die",
        CORES,
        CORES,
        SessionMode::Power,
        PolicyId::DasDac14,
        7,
        ControlConfig::default(),
    );
    drive(&mut session, 1, 60, 5.0);
    let line = session.snapshot_line();
    assert!(Value::parse(&line).is_ok());
    for cut in (0..line.len()).filter(|&k| line.is_char_boundary(k)) {
        assert!(
            Value::parse(&line[..cut]).is_err(),
            "prefix of {cut} bytes parsed"
        );
    }
}
