//! The per-layer ledger: a traced run that replays a workload's work
//! through each layer's public functions with timers around the calls,
//! and checks that the replay reproduces the program's outputs exactly.
//!
//! Campaigns: each pass runs one round through `Campaign::run` as the
//! end-to-end run does, and replays every cell with [`sim::replay`] right
//! next to the job that produced it — before it on odd cells, after it on
//! even ones, so drift in host speed and cache warmth hits both sides
//! alike — then compares the payloads bit-for-bit. Serve: see [`serve`].

pub mod cells;
pub mod serve;
pub mod sim;

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use thermorl_runner::checkpoint::CheckpointWriter;
use thermorl_runner::{record_line, Codec};

use crate::campaign::{run_round, Around, Cell, Spec};
use crate::stats::median;
use crate::{metrics_of, Args, Outcome, PER_LAYER};
use cells::{replay_cell, CellReplay, SimCell};
use sim::{clock_read_ns, LayerTimes};

/// Which cells a campaign workload's rounds contain.
pub struct CampaignLedger<T> {
    /// The end-to-end workload.
    pub spec: Spec<T>,
    /// Its cells, rebuilt for replay.
    pub cells: fn(u64) -> Vec<SimCell>,
    /// Whether payloads are bench `CellOutcome`s (the paper campaign).
    pub paper_payload: bool,
}

/// Per-pass totals of the campaign ledger.
#[derive(Default)]
struct Pass {
    engine_ns: u64,
    replay_ns: u64,
    overhead_s: f64,
    render_s: f64,
    cells: u64,
    mismatched: Vec<String>,
}

/// One cell's engine job and replay, timed side by side.
struct CellPair {
    key: String,
    engine_ns: u64,
    replay: CellReplay,
    matches: bool,
}

/// The hook that replays each cell next to its campaign job.
fn replay_next_to_job<T: Cell>(
    cells: &[SimCell],
    paper_payload: bool,
    pairs: &Arc<Mutex<Vec<CellPair>>>,
) -> Around<T> {
    let cells: HashMap<String, (usize, SimCell)> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.key.clone(), (i, c.clone())))
        .collect();
    let pairs = Arc::clone(pairs);
    Arc::new(move |key, seed, work| {
        let Some((i, cell)) = cells.get(key) else {
            return work(seed);
        };
        let before = (i % 2 == 1).then(|| replay_cell(cell, seed, paper_payload));
        let t = Instant::now();
        let payload = work(seed);
        let engine_ns = t.elapsed().as_nanos() as u64;
        let replay = before.unwrap_or_else(|| replay_cell(cell, seed, paper_payload));
        let matches = replay.encoded == payload.encoded();
        pairs.lock().expect("ledger lock").push(CellPair {
            key: key.to_string(),
            engine_ns,
            replay,
            matches,
        });
        payload
    })
}

/// Runs the campaign ledger: passes of one round with every cell replayed
/// next to its job, while the next pass fits in `args.seconds`, at least
/// two.
pub fn run_campaign<T: Cell>(ledger: &CampaignLedger<T>, args: &Args) -> Outcome {
    let scratch = args.tmp.join("ledger");
    std::fs::create_dir_all(&scratch).expect("scratch directory is writable");
    let cells = (ledger.cells)(args.seed);
    let codec = *(ledger.spec.build)(args.seed)
        .codec()
        .expect("campaign workloads carry a codec");
    let timer_ns = clock_read_ns();

    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut layers = LayerTimes::default();
    let mut digests = Vec::new();
    let mut reliability_ns = 0u64;
    let mut checkpoint = Checkpoints::default();
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut last_pass_s = 0.0;
    while passes.len() < 2 || start.elapsed().as_secs_f64() + last_pass_s <= args.seconds {
        let pass_start = Instant::now();
        let dir = scratch.join(format!("pass-{}", passes.len()));
        let pairs = Arc::new(Mutex::new(Vec::new()));
        let around = replay_next_to_job(&cells, ledger.paper_payload, &pairs);
        let (round, report) = run_round(&ledger.spec, args.seed, &dir, Some(&around));
        let pairs = std::mem::take(&mut *pairs.lock().expect("ledger lock"));
        out.attempted += round.attempted;
        out.failed += round.failed;
        counts.failed += round.failed;
        digests.push(round.digest);
        if !round.bad_mttf.is_empty() {
            out.check(
                format!("MTTF finite and positive ({:?})", round.bad_mttf),
                false,
            );
        }
        let mut pass = Pass {
            engine_ns: pairs.iter().map(|p| p.engine_ns).sum(),
            replay_ns: pairs.iter().map(|p| p.replay.host_ns).sum(),
            // Runner overhead: the round less every job (and its replay)
            // and the rendering.
            overhead_s: round.wall_s
                - round
                    .jobs
                    .iter()
                    .map(|j| j.host_ns as f64 / 1e9)
                    .sum::<f64>()
                - round.render_s,
            render_s: round.render_s,
            cells: pairs.len() as u64,
            mismatched: pairs
                .iter()
                .filter(|p| !p.matches)
                .map(|p| p.key.clone())
                .collect(),
        };
        for cell in &cells {
            if !pairs.iter().any(|p| p.key == cell.key) {
                pass.mismatched.push(format!("{} (not replayed)", cell.key));
            }
        }
        time_checkpoints(&report, codec, &scratch, &mut checkpoint);
        let mut pass_layers = LayerTimes::default();
        for p in &pairs {
            pass_layers.add(&p.replay.times);
        }
        for record in &report.records {
            if let Some(payload) = record.outcome.payload() {
                let t = Instant::now();
                std::hint::black_box(payload.outcome().reliability_summary());
                reliability_ns += t.elapsed().as_nanos() as u64;
            }
        }
        if passes.is_empty() {
            let outcomes = report.records.iter().filter_map(|r| r.outcome.payload());
            for o in outcomes.map(Cell::outcome) {
                counts.samples += o.samples;
                counts.decisions += o.decisions;
                counts.migrations += o.migrations;
            }
            counts.ticks = pass_layers.ticks;
            counts.jobs = round.attempted;
            counts.retries = round.retries;
        }
        layers.add(&pass_layers);
        out.attempted += pass.cells;
        out.failed += pass.mismatched.len() as u64;
        passes.push(pass);
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }

    let mismatched: Vec<&String> = passes.iter().flat_map(|p| &p.mismatched).collect();
    out.check(
        "replay is bit-identical to run_scenario on every cell",
        mismatched.is_empty() && layers.ticks > 0,
    );
    if !mismatched.is_empty() {
        out.notes.push(format!("cells that differ: {mismatched:?}"));
    }
    out.check(
        "digest repeats across passes",
        digests.iter().all(|d| *d == digests[0]),
    );
    out.digest = digests[0];

    let engine_ns: u64 = passes.iter().map(|p| p.engine_ns).sum();
    let replay_ns: u64 = passes.iter().map(|p| p.replay_ns).sum();
    let replayed_cells: u64 = passes.iter().map(|p| p.cells).sum();
    let c = timer_ns;
    let ticks = layers.ticks.max(1) as f64;
    let samples_total = counts.samples as f64 * passes.len() as f64;
    let corrected = |ns: u64, intervals: f64| ns as f64 - intervals * c;
    let workload = corrected(layers.workload_ns, 2.0 * ticks);
    let platform = corrected(layers.platform_ns, ticks);
    let thermal = corrected(layers.thermal_ns, ticks);
    let sensor = corrected(layers.sensor_ns, layers.sensor_reads as f64);
    let policy = corrected(layers.policy_ns, samples_total);
    // Untraced-equivalent replay time: every clock read taken inside the
    // timed cells is subtracted.
    let replay_true = replay_ns as f64 - (layers.reads + replayed_cells) as f64 * c;
    let glue = replay_true - workload - platform - thermal - sensor - policy;
    let unaccounted_pct = (replay_true - engine_ns as f64) / engine_ns as f64 * 100.0;
    out.notes.push(format!(
        "{} passes of {} cells; engine {:.3} s, replay {:.3} s ({:.3} s less timer cost {:.1} ns/read)",
        passes.len(),
        cells.len(),
        engine_ns as f64 / 1e9,
        replay_ns as f64 / 1e9,
        replay_true / 1e9,
        c
    ));
    out.notes.push(format!(
        "layers + glue less timer cost vs untraced engine: {unaccounted_pct:+.2}%"
    ));
    let per_pass = |f: &dyn Fn(&Pass) -> f64| {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        median(&mut v)
    };
    let accept = if layers.adaptive_steps + layers.rejections == 0 {
        1.0
    } else {
        layers.adaptive_steps as f64 / (layers.adaptive_steps + layers.rejections) as f64
    };
    let records = checkpoint.records.max(1) as f64;
    out.metrics = metrics_of(
        &PER_LAYER,
        &[
            ("platform.tick_ns", platform / ticks),
            ("thermal.tick_ns", thermal / ticks),
            (
                "thermal.refreshes_per_tick",
                layers.refreshes as f64 / ticks,
            ),
            ("thermal.step_accept_ratio", accept),
            ("workload.tick_ns", workload / ticks),
            ("sim.glue_ns_per_tick", glue / ticks),
            ("sensor.read_ns", sensor / layers.sensor_reads.max(1) as f64),
            ("policy.sample_ns", policy / samples_total.max(1.0)),
            (
                "policy.actuation_ratio",
                counts.decisions as f64 / counts.samples.max(1) as f64,
            ),
            (
                "reliability.run_ns",
                reliability_ns as f64 / replayed_cells.max(1) as f64,
            ),
            ("report.render_s", per_pass(&|p| p.render_s)),
            ("runner.job_busy_s", per_pass(&|p| p.engine_ns as f64 / 1e9)),
            ("runner.overhead_s", per_pass(&|p| p.overhead_s)),
            ("runner.checkpoint_ns", checkpoint.ns as f64 / records - c),
            ("runner.checkpoint_bytes", checkpoint.bytes as f64 / records),
            (
                "telemetry.trace_overhead_pct",
                (replay_ns as f64 - engine_ns as f64) / engine_ns as f64 * 100.0,
            ),
            ("telemetry.timer_ns", c),
            ("sim.unaccounted_pct", unaccounted_pct),
            ("sim.ticks", counts.ticks as f64),
            ("sim.samples", counts.samples as f64),
            ("sim.decisions", counts.decisions as f64),
            ("platform.migrations", counts.migrations as f64),
            ("runner.jobs", counts.jobs as f64),
            ("runner.failed", counts.failed as f64),
            ("runner.retries", counts.retries as f64),
        ],
    );
    let _ = std::fs::remove_dir_all(&scratch);
    out
}

/// Time and bytes of checkpoint writes.
#[derive(Default)]
struct Checkpoints {
    ns: u64,
    bytes: u64,
    records: u64,
}

/// Per-round counts, from the first pass (failures from every pass).
#[derive(Default)]
struct Counts {
    ticks: u64,
    samples: u64,
    decisions: u64,
    migrations: u64,
    jobs: u64,
    failed: u64,
    retries: u64,
}

/// Writes every record of `report` to a fresh checkpoint the way the
/// runner does, adding the time and bytes to `totals`.
fn time_checkpoints<T: Send + 'static>(
    report: &thermorl_runner::CampaignReport<T>,
    codec: Codec<T>,
    scratch: &Path,
    totals: &mut Checkpoints,
) {
    let path = scratch.join("checkpoint-ledger.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut writer = CheckpointWriter::append(&path, codec).expect("scratch checkpoint opens");
    for record in &report.records {
        let t = Instant::now();
        writer
            .write(record)
            .expect("scratch checkpoint is writable");
        totals.ns += t.elapsed().as_nanos() as u64;
        totals.bytes += record_line(record, &codec).len() as u64 + 1;
        totals.records += 1;
    }
    let _ = std::fs::remove_file(&path);
}
