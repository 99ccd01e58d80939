//! Policy × scenario tournament: every zoo contender (and, optionally,
//! any paper baseline) against the stress-scenario matrix from
//! `thermorl-policy` — bursty arrivals, phase changes, ambient swings,
//! sensor dropouts, and a 16-core 4×4 grid die — run as one resumable
//! `thermorl-runner` campaign.
//!
//! Writes the machine-readable leaderboard (schema
//! `thermorl-tournament-v1`) to `BENCH_tournament.json` and prints the
//! per-scenario table plus the overall ranking.
//!
//! Flags: `--quick` (2 policies × 3 scenarios, shortened sims — the CI
//! smoke gate), `--policy a,b,c` (contender list; zoo ids or paper
//! slugs; default: the whole zoo), `--reps N` (repetitions per cell,
//! default 1), `--out PATH` (leaderboard path, default
//! `BENCH_tournament.json`), plus the shared campaign flags
//! (`--workers`, `--serial`, `--checkpoint`, `--resume`, `--timeout-s`,
//! `--quiet`, `--shard I/N`, `--telemetry [PATH]`).
//!
//! Every job is checkpoint-tagged with its policy slug, so a resumed or
//! merged tournament can never attribute one policy's cells to another;
//! `tournament merge-checkpoints OUT IN...` folds shard checkpoints and
//! `tournament dispatch serve|work|status|drain ...` runs the matrix as
//! a distributed fleet, exactly like `run_all`.

use thermorl_bench::campaign::{check_failures, merge_checkpoints_command};
use thermorl_bench::table::{num, Table};
use thermorl_bench::{policy_flag, Policy, SEED};
use thermorl_json::Value;
use thermorl_policy::tournament::TOURNAMENT_SCHEMA;
use thermorl_policy::{
    cell_metrics, leaderboard, scenario_matrix, CellMetrics, PolicyId, TournamentScenario,
};
use thermorl_runner::{run_outcome_codec, Campaign, RunnerConfig};
use thermorl_sim::{run_scenario, RunOutcome};

const DEFAULT_CHECKPOINT: &str = "results/tournament.jsonl";
const DEFAULT_OUT: &str = "BENCH_tournament.json";

/// What a tournament invocation runs: contenders, matrix depth, reps.
struct Setup {
    policies: Vec<Policy>,
    quick: bool,
    reps: usize,
    out: String,
}

/// The scenario matrix this invocation runs: the full five-way stress
/// matrix, or — under `--quick` — its first two scenarios plus the
/// `grid_4x4` cell (with shortened sims), so CI smoke always runs the
/// `Auto` stepper's node-count rule end-to-end. At 18 nodes that rule
/// picks the exact step with a dense LU, not the adaptive/matrix-free
/// path (DESIGN §15).
fn matrix(setup: &Setup) -> Vec<TournamentScenario> {
    let mut m = scenario_matrix(SEED, setup.quick);
    if setup.quick {
        let grid = m.pop().expect("matrix is non-empty");
        debug_assert_eq!(grid.name, "grid_4x4");
        m.truncate(2);
        m.push(grid);
    }
    m
}

/// The tournament campaign: every scenario of the matrix × every
/// contender × `reps`, each cell keyed `{scenario}/{policy}/{rep}` and
/// tagged with the policy slug.
fn build_campaign(setup: &Setup) -> Campaign<RunOutcome> {
    let mut campaign = Campaign::new("tournament", SEED).with_codec(run_outcome_codec());
    for ts in matrix(setup) {
        for &p in &setup.policies {
            for rep in 0..setup.reps {
                let key = format!("{}/{}/{rep}", ts.name, p.slug());
                let scenario = ts.scenario.clone();
                let sim = ts.sim.clone();
                campaign.push_tagged(key, p.slug(), move |seed| {
                    run_scenario(&scenario, p.build(seed), &sim, seed)
                });
            }
        }
    }
    campaign
}

/// Parses the tournament-specific flags out of `args`, leaving the
/// shared campaign flags in place.
fn parse_setup(args: &mut Vec<String>) -> Result<Setup, String> {
    let mut take = |flag: &str| -> Option<()> {
        let i = args.iter().position(|a| a == flag)?;
        args.remove(i);
        Some(())
    };
    let quick = take("--quick").is_some();
    let mut take_value = |flag: &str| -> Result<Option<String>, String> {
        let Some(i) = args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    };
    let reps = match take_value("--reps")? {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--reps needs a positive integer, got {v:?}"))?,
        None => 1,
    };
    let out = take_value("--out")?.unwrap_or_else(|| DEFAULT_OUT.into());
    let policies = match policy_flag(args)? {
        Some(p) => p,
        None if quick => vec![Policy::Zoo(PolicyId::DasDac14), Policy::Zoo(PolicyId::Ucb1)],
        None => PolicyId::ALL.into_iter().map(Policy::Zoo).collect(),
    };
    let policies = if quick && policies.len() > 2 {
        policies.into_iter().take(2).collect()
    } else {
        policies
    };
    Ok(Setup {
        policies,
        quick,
        reps,
        out,
    })
}

/// Collects every cell of the finished matrix into metrics rows, in
/// scenario-major order (the leaderboard groups by first appearance).
fn collect_cells(
    setup: &Setup,
    report: &thermorl_runner::CampaignReport<RunOutcome>,
) -> Vec<CellMetrics> {
    let mut cells = Vec::new();
    for ts in matrix(setup) {
        for &p in &setup.policies {
            for rep in 0..setup.reps {
                let out = report.payload(&format!("{}/{}/{rep}", ts.name, p.slug()));
                cells.push(cell_metrics(&ts.name, p.slug(), out));
            }
        }
    }
    cells
}

/// Renders the per-scenario table from the leaderboard document.
fn scenario_table(doc: &Value) -> Table {
    let mut table = Table::with_columns(&[
        "Scenario",
        "Policy",
        "MTTF (y)",
        "Energy (J)",
        "IPS",
        "Score",
    ]);
    let Some(Value::Arr(scenarios)) = doc.get("scenarios") else {
        return table;
    };
    let text = |v: Option<&Value>| v.map(Value::to_json).unwrap_or_default();
    let f = |v: Option<&Value>, d| num(v.and_then(Value::as_f64).unwrap_or(f64::NAN), d);
    for s in scenarios {
        let name = text(s.get("name")).trim_matches('"').to_string();
        let Some(Value::Arr(rows)) = s.get("cells") else {
            continue;
        };
        for c in rows {
            table.row(vec![
                name.clone(),
                text(c.get("policy")).trim_matches('"').to_string(),
                f(c.get("mttf_years"), 2),
                f(c.get("energy_j"), 0),
                f(c.get("ips"), 0),
                f(c.get("score"), 3),
            ]);
        }
    }
    table
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let setup = match parse_setup(&mut args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tournament: {e}");
            std::process::exit(2);
        }
    };
    if args.first().map(String::as_str) == Some("merge-checkpoints") {
        match merge_checkpoints_command(&args[1..]) {
            Ok(n) => {
                println!("merged {n} record(s) into {}", args[1]);
                return;
            }
            Err(e) => {
                eprintln!("tournament merge-checkpoints: {e}");
                eprintln!("usage: tournament merge-checkpoints OUT IN...");
                std::process::exit(2);
            }
        }
    }
    if args.first().map(String::as_str) == Some("dispatch") {
        match thermorl_dispatch::dispatch_command(
            &args[1..],
            build_campaign(&setup),
            DEFAULT_CHECKPOINT,
        ) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("tournament dispatch: {e}");
                eprintln!(
                    "usage: tournament dispatch serve|work|status|drain ... (see run_all dispatch)"
                );
                std::process::exit(2);
            }
        }
    }
    let mut config = RunnerConfig {
        progress: false,
        ..RunnerConfig::default()
    };
    if let Err(e) = config.apply_cli_args(args, DEFAULT_CHECKPOINT) {
        eprintln!("tournament: {e}");
        eprintln!(
            "usage: tournament [--quick] [--policy a,b,c] [--reps N] [--out PATH] \
             [--workers N] [--serial] [--checkpoint PATH] [--resume] [--timeout-s N] \
             [--quiet] [--shard I/N] [--telemetry [PATH]]\n\
             \x20      tournament merge-checkpoints OUT IN...\n\
             \x20      tournament dispatch serve|work|status|drain ..."
        );
        std::process::exit(2);
    }

    let scenarios = matrix(&setup);
    println!(
        "# Policy tournament — {} contender(s) × {} scenario(s) × {} rep(s){}\n",
        setup.policies.len(),
        scenarios.len(),
        setup.reps,
        if setup.quick { " (quick)" } else { "" },
    );

    let report = build_campaign(&setup).run(&config);
    if let Err(failures) = check_failures(&report) {
        eprintln!("tournament: {failures}");
        eprintln!("re-run with --resume to retry only the failed jobs");
        std::process::exit(1);
    }
    if let Some((i, n)) = config.shard {
        println!(
            "shard {}/{} done: {} job(s) checkpointed. When all shards have run:\n  \
             tournament merge-checkpoints {DEFAULT_CHECKPOINT} <shard checkpoints...>\n  \
             tournament --resume",
            i + 1,
            n,
            report.stats.total(),
        );
        return;
    }

    let cells = collect_cells(&setup, &report);
    let doc = leaderboard(&cells);
    debug_assert_eq!(
        doc.get("schema").map(Value::to_json).as_deref(),
        Some(&*format!("{:?}", TOURNAMENT_SCHEMA))
    );
    if let Some(dir) = std::path::Path::new(&setup.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&setup.out, format!("{}\n", doc.to_json())).expect("write leaderboard");

    println!("{}", scenario_table(&doc));
    if let Some(Value::Arr(rows)) = doc.get("leaderboard") {
        println!("overall (mean per-scenario score, wins):");
        for r in rows {
            println!(
                "  {:<12} {}  ({} win(s))",
                r.get("policy")
                    .map(Value::to_json)
                    .unwrap_or_default()
                    .trim_matches('"'),
                num(
                    r.get("score").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    3
                ),
                r.get("wins").and_then(Value::as_u64).unwrap_or(0),
            );
        }
    }
    if let Some(winner) = doc.get("winner") {
        println!("winner: {}", winner.to_json().trim_matches('"'));
    }
    println!("-> {}", setup.out);
}
