//! The [`RunOutcome`] checkpoint codec, over the workspace JSON codec.
//!
//! The campaign runner (`thermorl-runner`) checkpoints completed
//! [`RunOutcome`]s as JSON lines so interrupted campaigns can resume
//! without re-running finished jobs. [`Value`] and [`JsonError`] live in
//! `thermorl-json` and are re-exported here, so code that names them
//! through `thermorl_sim::json` keeps building.
//!
//! # Example
//!
//! ```
//! use thermorl_sim::json::Value;
//!
//! let v = Value::parse("{\"a\": [1, 2.5, \"x\"]}").unwrap();
//! let a = v.get("a").unwrap().as_array().unwrap();
//! assert_eq!(a[0].as_u64(), Some(1));
//! assert_eq!(v.to_json(), "{\"a\":[1,2.5,\"x\"]}");
//! ```

pub use thermorl_json::{JsonError, Value};

use thermorl_platform::CounterSnapshot;
use thermorl_reliability::ThermalProfile;

use crate::metrics::{AppResult, RunOutcome};

fn profile_to_json(p: &ThermalProfile) -> Value {
    let mut v = Value::object();
    v.set("dt", p.dt()).set("samples", p.samples());
    v
}

fn profile_from_json(v: &Value) -> Result<ThermalProfile, JsonError> {
    let dt: f64 = v.field("dt")?;
    if dt <= 0.0 {
        return Err(JsonError::new("profile dt must be positive"));
    }
    Ok(ThermalProfile::from_samples(dt, v.field("samples")?))
}

fn app_result_to_json(a: &AppResult) -> Value {
    let mut v = Value::object();
    v.set("name", a.name.as_str())
        .set("dataset", a.dataset.as_str())
        .set("start_time", a.start_time)
        .set("finish_time", a.finish_time.map_or(Value::Null, Value::num))
        .set("frames_completed", a.frames_completed)
        .set("total_frames", a.total_frames);
    v
}

fn app_result_from_json(v: &Value) -> Result<AppResult, JsonError> {
    Ok(AppResult {
        name: v.field("name")?,
        dataset: v.field("dataset")?,
        start_time: v.field("start_time")?,
        finish_time: v.opt_field("finish_time")?,
        frames_completed: v.field("frames_completed")?,
        total_frames: v.field("total_frames")?,
    })
}

fn counters_to_json(c: &CounterSnapshot) -> Value {
    let mut v = Value::object();
    v.set("instructions", c.instructions)
        .set("cache_misses", c.cache_misses)
        .set("page_faults", c.page_faults)
        .set("migrations", c.migrations);
    v
}

fn counters_from_json(v: &Value) -> Result<CounterSnapshot, JsonError> {
    Ok(CounterSnapshot {
        instructions: v.field("instructions")?,
        cache_misses: v.field("cache_misses")?,
        page_faults: v.field("page_faults")?,
        migrations: v.field("migrations")?,
    })
}

impl RunOutcome {
    /// Encodes the outcome as a JSON [`Value`] (used by campaign
    /// checkpoints; see `thermorl-runner`).
    pub fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.set("scenario_name", self.scenario_name.as_str())
            .set("controller_name", self.controller_name.as_str())
            .set(
                "sensor_profiles",
                Value::Arr(self.sensor_profiles.iter().map(profile_to_json).collect()),
            )
            .set(
                "app_results",
                Value::Arr(self.app_results.iter().map(app_result_to_json).collect()),
            )
            .set("total_time", self.total_time)
            .set("completed", self.completed)
            .set("dynamic_energy_j", self.dynamic_energy_j)
            .set("static_energy_j", self.static_energy_j)
            .set("avg_dynamic_power_w", self.avg_dynamic_power_w)
            .set("avg_static_power_w", self.avg_static_power_w)
            .set("counters", counters_to_json(&self.counters))
            .set("migrations", self.migrations)
            .set("samples", self.samples)
            .set("decisions", self.decisions);
        v
    }

    /// Decodes an outcome previously produced by [`RunOutcome::to_json`].
    pub fn from_json(v: &Value) -> Result<RunOutcome, JsonError> {
        Ok(RunOutcome {
            scenario_name: v.field("scenario_name")?,
            controller_name: v.field("controller_name")?,
            sensor_profiles: v
                .field::<&[Value]>("sensor_profiles")?
                .iter()
                .map(profile_from_json)
                .collect::<Result<_, _>>()?,
            app_results: v
                .field::<&[Value]>("app_results")?
                .iter()
                .map(app_result_from_json)
                .collect::<Result<_, _>>()?,
            total_time: v.field("total_time")?,
            completed: v.field("completed")?,
            dynamic_energy_j: v.field("dynamic_energy_j")?,
            static_energy_j: v.field("static_energy_j")?,
            avg_dynamic_power_w: v.field("avg_dynamic_power_w")?,
            avg_static_power_w: v.field("avg_static_power_w")?,
            counters: counters_from_json(v.field("counters")?)?,
            migrations: v.field("migrations")?,
            samples: v.field("samples")?,
            decisions: v.field("decisions")?,
        })
    }
}

#[cfg(test)]
mod tests {
    //! The codec's round-trip, escaping, depth-cap and never-panic tests
    //! run against `Value` as re-exported here, the path perfbench builds
    //! against, next to the `RunOutcome` codec tests.

    use super::*;
    use thermorl_json::MAX_DEPTH;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "-3.5", "1e3", "\"hi\""] {
            let v = Value::parse(text).expect(text);
            let again = Value::parse(&v.to_json()).expect("re-parse");
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0xDEAD_BEEF_CAFE_F00Du64; // > 2^53
        let v = Value::parse(&Value::UInt(seed).to_json()).expect("parse");
        assert_eq!(v.as_u64(), Some(seed));
    }

    #[test]
    fn nonfinite_floats_round_trip_as_strings() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::num(x);
            let parsed = Value::parse(&v.to_json()).expect("parse");
            assert_eq!(parsed.as_f64(), Some(x));
        }
        let nan = Value::parse(&Value::num(f64::NAN).to_json()).expect("parse");
        assert!(nan.as_f64().expect("nan decodes").is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        for s in [
            "line\n\"quoted\"\tunicode: \u{1F600} \\ done",
            "é\"ü\\\u{1}ß\n€",
            "\u{1F600}\u{1f}\u{1F600}\\\"\u{7f}",
            "\t\u{0}\u{2028}ÿ\r",
        ] {
            let parsed = Value::parse(&Value::Str(s.into()).to_json()).expect("parse");
            assert_eq!(parsed.as_str(), Some(s));
        }
        // Hand-written `\u00XX` escapes butting against multi-byte chars.
        let text = "\"é\\u00e9é\\u0041\u{1F600}\\u00FF\\\"\u{1F600}\\u000a\"";
        let parsed = Value::parse(text).expect("parse");
        assert_eq!(parsed.as_str(), Some("éééA\u{1F600}ÿ\"\u{1F600}\n"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        for bad in [
            "\"\\u00\"",
            "\"\\u+041\"",
            "\"\\u00é\"",
            "\"\\ud800\"",
            "\"\\x\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A spawned thread gets the default 2 MiB stack, which one level of
        // recursion per bracket would overflow, aborting the process.
        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let parsed = std::thread::spawn(move || Value::parse(&bomb))
                .join()
                .expect("parser thread must not panic");
            assert!(parsed.is_err());
        }
    }

    #[test]
    fn nesting_exactly_at_the_limit_parses() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Objects count toward the same limit: `k` wrappers around `{}`.
        let objects = |k: usize| format!("{}{{}}{}", "{\"a\":".repeat(k), "}".repeat(k));
        assert!(Value::parse(&objects(MAX_DEPTH - 1)).is_ok());
        assert!(Value::parse(&objects(MAX_DEPTH)).is_err());
    }

    #[test]
    fn bracket_bombs_are_errors() {
        for unit in [
            "[", "{", "]", "}", "[{", "{\"\":[", "[1,", "{\"a\":{", "\"\\", "[\"",
        ] {
            for n in [1, 2, MAX_DEPTH, MAX_DEPTH + 1, 10_000] {
                let text = unit.repeat(n);
                assert!(Value::parse(&text).is_err(), "{unit:?} x {n}");
            }
        }
    }

    /// The characters JSON's grammar turns on, the letters of its
    /// literals, one multi-byte character, and a few whole tokens so that
    /// random draws reach past the first byte more often.
    const JSONISH: [&str; 30] = [
        "[", "]", "{", "}", "\"", "\\", ":", ",", " ", "u", "0", "1", "7", "9", "e", "E", ".", "-",
        "t", "r", "f", "a", "l", "s", "n", "é", "true", "null", "\"k\":", "\\u00",
    ];

    /// Characters a string value may hold that its encoding must escape
    /// or carry through as multi-byte UTF-8.
    const STRINGISH: [char; 10] = [
        'a',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        'é',
        '€',
        '\u{1F600}',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Arbitrary JSON-like text parses to `Ok` or `Err`, never a
        /// panic, and whatever parses re-encodes to JSON that parses.
        #[test]
        fn parse_never_panics_on_json_like_text(
            picks in proptest::collection::vec(0usize..JSONISH.len(), 0..48),
        ) {
            let text: String = picks.iter().map(|&i| JSONISH[i]).collect();
            if let Ok(v) = Value::parse(&text) {
                proptest::prop_assert!(Value::parse(&v.to_json()).is_ok(), "{:?}", text);
            }
        }

        /// Real documents with random edits spliced in (JSON-ish tokens
        /// inserted, a char deleted, the tail torn off): `Ok` or `Err`,
        /// never a panic.
        #[test]
        fn parse_never_panics_on_edited_documents(
            doc in 0usize..3,
            edits in proptest::collection::vec((0usize..4096, 0usize..JSONISH.len(), 0u8..4), 1..6),
        ) {
            let mut text = [
                outcome().to_json().to_json(),
                checkpoint_line(),
                "{\"a\":[1,-2.5e3,true,null,{\"b\":\"é\\u0041\\n\"}],\"c\":{}}".to_string(),
            ][doc]
                .clone();
            for (at, token, op) in edits {
                let mut at = at % (text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                match op {
                    0 => text.truncate(at),
                    1 if at < text.len() => {
                        text.remove(at);
                    }
                    _ => text.insert_str(at, JSONISH[token]),
                }
            }
            let _ = Value::parse(&text);
        }

        /// Any string survives encode → parse unchanged, however its
        /// escapes and multi-byte characters are interleaved.
        #[test]
        fn any_string_round_trips(
            picks in proptest::collection::vec(0usize..STRINGISH.len(), 0..32),
        ) {
            let s: String = picks.iter().map(|&i| STRINGISH[i]).collect();
            let parsed = Value::parse(&Value::Str(s.clone()).to_json());
            proptest::prop_assert_eq!(parsed, Ok(Value::Str(s)));
        }
    }

    /// A campaign checkpoint line: a full-width seed next to an outcome.
    fn checkpoint_line() -> String {
        let mut v = Value::object();
        v.set("key", "table2/tachyon-1/proposed/0")
            .set("seed", u64::MAX)
            .set("status", "ok")
            .set("payload", outcome().to_json());
        v.to_json()
    }

    fn outcome() -> RunOutcome {
        RunOutcome {
            scenario_name: "scenario/with \"quotes\"".into(),
            controller_name: "ctrl".into(),
            sensor_profiles: vec![
                ThermalProfile::from_samples(1.0, vec![40.0, 42.25, 44.125]),
                ThermalProfile::from_samples(1.0, vec![30.0; 3]),
            ],
            app_results: vec![
                AppResult {
                    name: "a".into(),
                    dataset: "d1".into(),
                    start_time: 0.0,
                    finish_time: Some(10.5),
                    frames_completed: 20,
                    total_frames: 20,
                },
                AppResult {
                    name: "b".into(),
                    dataset: "d2".into(),
                    start_time: 10.5,
                    finish_time: None,
                    frames_completed: 3,
                    total_frames: 9,
                },
            ],
            total_time: 99.125,
            completed: false,
            dynamic_energy_j: 1234.5,
            static_energy_j: 67.875,
            avg_dynamic_power_w: 12.5,
            avg_static_power_w: 0.7,
            counters: CounterSnapshot {
                instructions: 1e12,
                cache_misses: 5e7,
                page_faults: 1e4,
                migrations: 17,
            },
            migrations: 17,
            samples: 101,
            decisions: 33,
        }
    }

    #[test]
    fn run_outcome_round_trips_exactly() {
        let o = outcome();
        let line = o.to_json().to_json();
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let back = RunOutcome::from_json(&Value::parse(&line).expect("parse")).expect("decode");
        assert_eq!(o, back);
    }

    #[test]
    fn run_outcome_decode_rejects_missing_fields() {
        let mut v = outcome().to_json();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "total_time");
        }
        assert!(RunOutcome::from_json(&v).is_err());
    }
}
