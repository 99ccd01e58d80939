//! Integration tests for the campaign engine: determinism across worker
//! counts (byte-identical sorted checkpoints), resume semantics, and
//! panic isolation — the acceptance criteria of the runner subsystem.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use thermorl_runner::{Campaign, Codec, JobOutcome, RunnerConfig};
use thermorl_sim::json::{JsonError, Value};

fn u64_codec() -> Codec<u64> {
    Codec {
        encode: |v| Value::UInt(*v),
        decode: |v| v.as_u64().ok_or_else(|| JsonError::new("expected u64")),
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("thermorl-runner-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(format!("{tag}.jsonl"))
}

/// A campaign of `n` pure jobs whose payloads depend only on the derived
/// seed; `counter` observes how many jobs actually execute.
fn counted_campaign(n: usize, counter: &Arc<AtomicU32>) -> Campaign<u64> {
    let mut c = Campaign::new("it", 2024).with_codec(u64_codec());
    for i in 0..n {
        let counter = Arc::clone(counter);
        c.push(format!("grid/{i:02}"), move |seed| {
            counter.fetch_add(1, Ordering::Relaxed);
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
    }
    c
}

fn sorted_lines(path: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("read checkpoint");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

#[test]
fn checkpoints_are_byte_identical_across_worker_counts() {
    let run = |workers: usize, tag: &str| {
        let path = temp_path(tag);
        std::fs::remove_file(&path).ok();
        let counter = Arc::new(AtomicU32::new(0));
        let report = counted_campaign(24, &counter).run(&RunnerConfig {
            workers,
            progress: false,
            checkpoint: Some(path.clone()),
            ..RunnerConfig::default()
        });
        assert_eq!(counter.load(Ordering::Relaxed), 24);
        assert!(report.failures().is_empty());
        let lines = sorted_lines(&path);
        std::fs::remove_file(&path).ok();
        lines
    };
    let serial = run(1, "det-serial");
    let parallel = run(4, "det-parallel");
    assert_eq!(serial.len(), 24);
    assert_eq!(
        serial, parallel,
        "sorted checkpoint JSONL must be byte-identical for 1 vs 4 workers"
    );
}

#[test]
fn resume_skips_completed_jobs_and_matches_uninterrupted_run() {
    let path = temp_path("resume");
    std::fs::remove_file(&path).ok();

    // "Interrupted" run: only the first 10 of 24 jobs existed.
    let first = Arc::new(AtomicU32::new(0));
    let partial = counted_campaign(10, &first).run(&RunnerConfig {
        workers: 3,
        progress: false,
        checkpoint: Some(path.clone()),
        ..RunnerConfig::default()
    });
    assert_eq!(first.load(Ordering::Relaxed), 10);
    assert_eq!(partial.stats.resumed, 0);

    // Resumed run of the full campaign: the 10 finished jobs must load
    // from the checkpoint, only the remaining 14 execute.
    let second = Arc::new(AtomicU32::new(0));
    let resumed = counted_campaign(24, &second).run(&RunnerConfig {
        workers: 3,
        progress: false,
        checkpoint: Some(path.clone()),
        resume: true,
        ..RunnerConfig::default()
    });
    assert_eq!(
        second.load(Ordering::Relaxed),
        14,
        "resume must not re-run checkpointed jobs"
    );
    assert_eq!(resumed.stats.resumed, 10);
    assert_eq!(resumed.records.len(), 24);

    // And the merged results equal an uninterrupted single-worker run.
    let reference = counted_campaign(24, &Arc::new(AtomicU32::new(0))).run(&RunnerConfig {
        workers: 1,
        progress: false,
        ..RunnerConfig::default()
    });
    let strip = |records: &[thermorl_runner::JobRecord<u64>]| {
        records
            .iter()
            .map(|r| (r.key.clone(), r.seed, r.outcome.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&resumed.records), strip(&reference.records));
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_rejects_records_from_a_different_policy() {
    let path = temp_path("resume-policy");
    std::fs::remove_file(&path).ok();

    let tagged = |policy: &'static str, counter: &Arc<AtomicU32>| {
        let mut c = Campaign::new("it-policy", 2024).with_codec(u64_codec());
        for i in 0..6 {
            let counter = Arc::clone(counter);
            c.push_tagged(format!("cell/{i}"), policy, move |seed| {
                counter.fetch_add(1, Ordering::Relaxed);
                seed
            });
        }
        c
    };

    // First run checkpoints six records tagged "egreedy".
    let first = Arc::new(AtomicU32::new(0));
    tagged("egreedy", &first).run(&RunnerConfig {
        workers: 2,
        progress: false,
        checkpoint: Some(path.clone()),
        ..RunnerConfig::default()
    });
    assert_eq!(first.load(Ordering::Relaxed), 6);

    // Same keys resumed under the same policy: nothing re-runs.
    let same = Arc::new(AtomicU32::new(0));
    let report = tagged("egreedy", &same).run(&RunnerConfig {
        workers: 2,
        progress: false,
        checkpoint: Some(path.clone()),
        resume: true,
        ..RunnerConfig::default()
    });
    assert_eq!(same.load(Ordering::Relaxed), 0);
    assert_eq!(report.stats.resumed, 6);

    // Same keys under a DIFFERENT policy: every record is rejected and
    // every job re-runs — a stale checkpoint cannot cross-contaminate.
    let other = Arc::new(AtomicU32::new(0));
    let report = tagged("ucb1", &other).run(&RunnerConfig {
        workers: 2,
        progress: false,
        checkpoint: Some(path.clone()),
        resume: true,
        ..RunnerConfig::default()
    });
    assert_eq!(other.load(Ordering::Relaxed), 6);
    assert_eq!(report.stats.resumed, 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_reruns_previously_failed_jobs() {
    let path = temp_path("resume-failed");
    std::fs::remove_file(&path).ok();

    // First pass: job "flaky" panics and is checkpointed as failed.
    let mut c = Campaign::new("it", 7).with_codec(u64_codec());
    c.push("flaky", |_| -> u64 { panic!("transient failure") });
    let report = c.run(&RunnerConfig {
        workers: 1,
        progress: false,
        checkpoint: Some(path.clone()),
        ..RunnerConfig::default()
    });
    assert_eq!(report.failures().len(), 1);

    // Second pass resumes: failed records are NOT treated as done.
    let executed = Arc::new(AtomicU32::new(0));
    let mut c = Campaign::new("it", 7).with_codec(u64_codec());
    {
        let executed = Arc::clone(&executed);
        c.push("flaky", move |seed| {
            executed.fetch_add(1, Ordering::Relaxed);
            seed
        });
    }
    let report = c.run(&RunnerConfig {
        workers: 1,
        progress: false,
        checkpoint: Some(path.clone()),
        resume: true,
        ..RunnerConfig::default()
    });
    assert_eq!(executed.load(Ordering::Relaxed), 1);
    assert!(report.failures().is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn panicking_job_does_not_poison_the_campaign() {
    let mut c = Campaign::new("it", 99).with_codec(u64_codec());
    c.push("good/a", |s| s);
    c.push("bad", |_| -> u64 { panic!("job exploded") });
    c.push("good/b", |s| s + 1);
    let report = c.run(&RunnerConfig {
        workers: 2,
        progress: false,
        ..RunnerConfig::default()
    });
    assert_eq!(report.records.len(), 3);
    let bad = report.get("bad").expect("record present");
    assert_eq!(bad.attempts, 2, "failed job retried once");
    assert!(matches!(bad.outcome, JobOutcome::Panicked(ref m) if m == "job exploded"));
    assert!(report.get("good/a").expect("a").outcome.is_completed());
    assert!(report.get("good/b").expect("b").outcome.is_completed());
    assert_eq!(report.stats.panicked, 1);
    assert_eq!(report.stats.completed, 2);
}

#[test]
fn scenario_grid_runs_real_simulations_deterministically() {
    use thermorl_runner::{scenario_grid, PolicySpec};
    use thermorl_sim::{NullController, SimConfig};
    use thermorl_workload::{alpbench, DataSet, Scenario};

    let scenarios = vec![Scenario::single(alpbench::tachyon(DataSet::One))];
    let policies = vec![PolicySpec::new("null", |_| {
        Box::new(NullController::default())
    })];
    let sim = SimConfig {
        max_sim_time: 15.0, // keep the smoke test fast
        ..SimConfig::default()
    };
    let run = |workers| {
        scenario_grid("grid-it", 5, &scenarios, &policies, 2, &sim)
            .run(&RunnerConfig {
                workers,
                progress: false,
                ..RunnerConfig::default()
            })
            .records
            .into_iter()
            .map(|r| (r.key, r.seed, r.outcome))
            .collect::<Vec<_>>()
    };
    let serial = run(1);
    assert_eq!(serial.len(), 2);
    assert!(serial.iter().all(|(_, _, o)| o.is_completed()));
    assert_eq!(serial, run(2), "real-sim grid identical across workers");
}

#[test]
fn torn_checkpoint_record_is_an_error_at_every_length() {
    use thermorl_runner::{parse_line, record_line, run_outcome_codec, scenario_grid, PolicySpec};
    use thermorl_sim::{NullController, SimConfig};
    use thermorl_workload::{alpbench, DataSet, Scenario};

    // A real campaign record: one short simulated run, encoded as the
    // checkpoint line a resume reads back.
    let scenarios = vec![Scenario::single(alpbench::tachyon(DataSet::One))];
    let policies = vec![PolicySpec::new("null", |_| {
        Box::new(NullController::default())
    })];
    let sim = SimConfig {
        max_sim_time: 15.0,
        ..SimConfig::default()
    };
    let report = scenario_grid("torn", 5, &scenarios, &policies, 1, &sim).run(&RunnerConfig {
        workers: 1,
        progress: false,
        ..RunnerConfig::default()
    });
    let codec = run_outcome_codec();
    let line = record_line(&report.records[0], &codec);
    assert!(parse_line(&line, &codec).is_ok());
    // A crash mid-write leaves any prefix as the final line: each one is
    // an error for both the JSON parser and the checkpoint reader.
    for cut in (0..line.len()).filter(|&k| line.is_char_boundary(k)) {
        let torn = &line[..cut];
        assert!(Value::parse(torn).is_err(), "prefix of {cut} bytes parsed");
        assert!(parse_line(torn, &codec).is_err());
    }
}
