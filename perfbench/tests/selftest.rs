//! Self-tests of the benchmark: the ledger's replays reproduce the
//! program's outputs, and the metric tables match `BENCHMARK.json`.
//!
//! Run with `cargo test --features ledger` from this directory.

use perfbench::campaign::{paper_jobs, tournament_cells, Cell};
use perfbench::ledger::cells::{self, replay_cell};
use perfbench::{Args, END_TO_END, PER_LAYER, WORKLOADS};
use thermorl_runner::job_seed;
use thermorl_sim::json::Value;
use thermorl_sim::run_scenario;

const SEED: u64 = 20_260_417;

#[test]
fn sim_replay_matches_run_scenario_on_every_tournament_scenario() {
    let cells = cells::tournament_cells(SEED);
    let mut scenarios = Vec::new();
    for cell in tournament_cells(SEED) {
        if scenarios.contains(&cell.scenario.name) {
            continue;
        }
        scenarios.push(cell.scenario.name.clone());
        let seed = job_seed(SEED, &cell.key);
        let expected = run_scenario(
            &cell.scenario.scenario,
            cell.policy.build(seed),
            &cell.scenario.sim,
            seed,
        );
        let replica = cells
            .iter()
            .find(|c| c.key == cell.key)
            .expect("ledger rebuilds every tournament cell");
        let replayed = replay_cell(replica, seed, false);
        assert_eq!(replayed.encoded, expected.encoded(), "cell {}", cell.key);
        assert!(replayed.times.ticks > 0);
    }
    assert_eq!(scenarios.len(), 5, "one cell per scenario: {scenarios:?}");
}

#[test]
fn sim_replay_matches_each_paper_engine_path() {
    let campaign = paper_jobs(SEED);
    let cells = cells::paper_cells();
    assert_eq!(
        cells.len(),
        campaign.len(),
        "ledger rebuilds the whole slice"
    );
    for (key, path) in [
        ("fig7/baseline/mpeg_dec/0", "plain"),
        ("ablations/mpeg_dec-1/full/0", "instrumented"),
        ("fig4_5/linux/0", "trace-recording"),
    ] {
        let cell = cells
            .iter()
            .find(|c| c.key == key)
            .expect("cell is in the slice");
        assert_eq!(cell.path(), path, "{key}");
        let seed = campaign.seed_for(key);
        let job = campaign.job(key).expect("campaign has the key");
        let expected = (job.work)(seed);
        let replayed = replay_cell(cell, seed, true);
        assert_eq!(replayed.encoded, expected.encoded(), "{path} cell {key}");
    }
}

#[test]
fn serve_replay_reproduces_the_acknowledged_decisions() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest-serve");
    let _ = std::fs::remove_dir_all(&tmp);
    let args = Args {
        workload: "serve_saturated".into(),
        seed: SEED,
        seconds: 0.5,
        tmp: tmp.clone(),
    };
    let outcome = perfbench::ledger::serve::run(&args);
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(outcome.correct(), "{:?}", outcome.checks);
    let observes = outcome
        .metrics
        .iter()
        .find(|m| m.name == "serve.observes")
        .expect("observes reported");
    assert!(observes.value > 0.0);
}

fn names_and_units(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
