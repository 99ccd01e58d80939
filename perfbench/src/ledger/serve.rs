//! The serve ledger.
//!
//! After the same warm-up and restart as the end-to-end run, two equal
//! wire phases drive every die: the first with telemetry off (its p50
//! round trip feeds `serve.wait_us`), the second with telemetry on, only
//! to read the existing `thermal.batch_advances` counter. The observe
//! stream of both phases is then replayed die by die from the snapshots
//! the supervisor restored: the dispatch codec encodes and decodes each
//! observe and ack in memory, `Session::step` applies it, and every
//! epoch snapshot goes through `Session::snapshot_line` and
//! `CheckpointStore::ingest`. The replayed decisions must equal the ones
//! the wire acknowledged.

use std::collections::HashMap;
use std::io;
use std::time::Instant;

use thermorl_dispatch::proto::{read_message, write_message};
use thermorl_dispatch::CheckpointStore;
use thermorl_serve::{Decision, Message, Session};
use thermorl_sim::json::Value;
use thermorl_telemetry as tel;

use super::sim::clock_read_ns;
use crate::serve::{
    die_name, drive_all, power, restart, serve_config, store_path, warm_up, ConnRun, Drive, Limit,
    RoundLog, CONNECTIONS, DIES, DIGEST_PER_DIE,
};
use crate::stats::quantile;
use crate::{metrics_of, Args, Digest, Outcome, PER_LAYER};

/// Observes per die in each wire phase, per requested second.
const PER_DIE_PER_SECOND: f64 = 150.0;

/// The newest snapshot line per die in the store.
fn latest_snapshots(store: &std::path::Path) -> io::Result<HashMap<String, String>> {
    let mut latest = HashMap::new();
    for line in std::fs::read_to_string(store)?.lines() {
        let Ok(v) = Value::parse(line) else { continue };
        if v.get("status").and_then(Value::as_str) == Some("snapshot") {
            if let Some(key) = v.get("key").and_then(Value::as_str) {
                latest.insert(key.to_string(), line.to_string());
            }
        }
    }
    Ok(latest)
}

/// Runs the serve ledger.
pub fn run(args: &Args) -> Outcome {
    match run_inner(args) {
        Ok(out) => out,
        Err(e) => {
            let mut out = Outcome::default();
            out.check(format!("serve ledger completes ({e})"), false);
            out
        }
    }
}

/// Per-observe layer timers of the replay (ns).
#[derive(Default)]
struct Timers {
    encode: u64,
    decode: u64,
    step: u64,
    snapshot: u64,
    snapshot_bytes: u64,
    ingest: u64,
    restore: u64,
    observes: u64,
    decisions: u64,
    writes: u64,
    mismatched: u64,
}

fn run_inner(args: &Args) -> io::Result<Outcome> {
    let store = store_path(&args.tmp);
    warm_up(args.seed, &store)?;
    let (mut server, start_seq, _) = restart(args.seed, &store)?;
    let snapshots = latest_snapshots(&store)?;
    let per_die = (args.seconds * PER_DIE_PER_SECOND)
        .ceil()
        .max(DIGEST_PER_DIE as f64) as u64;
    let digest_until: Vec<u64> = start_seq.iter().map(|s| s + DIGEST_PER_DIE).collect();

    let phase = |server: &mut crate::serve::Server, from: &[u64]| {
        let log = RoundLog::new(Instant::now());
        let t = Instant::now();
        let runs = drive_all(server, |conn| Drive {
            seed: args.seed,
            conn,
            start_seq: from,
            limit: Limit::PerDie(per_die),
            log: &log,
            digest_until: &digest_until,
            record: true,
        });
        (runs, t.elapsed().as_secs_f64())
    };
    let (untraced, untraced_s) = phase(&mut server, &start_seq);
    let mid_seq: Vec<u64> = (0..DIES)
        .map(|d| untraced[d % CONNECTIONS].last_seq[d])
        .collect();
    tel::set_enabled(true);
    let before = tel::snapshot();
    let (traced, traced_s) = phase(&mut server, &mid_seq);
    let counters = tel::snapshot().since(&before).counters;
    tel::set_enabled(false);
    let batch_advances = counters.get("thermal.batch_advances").copied().unwrap_or(0);
    let stats = server.stats()?;
    server.stop()?;

    let runs: Vec<&ConnRun> = untraced.iter().chain(&traced).collect();
    let mut out = Outcome::default();
    for r in &runs {
        out.attempted += r.sent;
        out.failed += r.failed;
    }
    let errors = out.failed;
    let wire: HashMap<(usize, u64), &Decision> = runs
        .iter()
        .flat_map(|r| r.record.iter().map(|(d, s, dec)| ((*d, *s), dec)))
        .collect();
    let end_seq: Vec<u64> = (0..DIES)
        .map(|d| traced[d % CONNECTIONS].last_seq[d])
        .collect();

    let c = clock_read_ns();
    let snapshot_every = serve_config(args.seed, &store, true).snapshot_every;
    let replay_store = args.tmp.join("serve").join("replay.jsonl");
    let mut replay_store = CheckpointStore::open(&replay_store, false)?;
    let mut t = Timers::default();
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    for d in 0..DIES {
        let name = die_name(d);
        let line = snapshots
            .get(&name)
            .ok_or_else(|| io::Error::other(format!("no snapshot for {name}")))?;
        let r0 = Instant::now();
        let v = Value::parse(line).map_err(|e| io::Error::other(e.0))?;
        let mut session = v
            .get("session")
            .ok_or_else(|| io::Error::other("snapshot without a session"))
            .and_then(|s| Session::restore(s).map_err(io::Error::other))?;
        t.restore += (Instant::now() - r0).as_nanos() as u64;
        for seq in start_seq[d] + 1..=end_seq[d] {
            let observe = Message::Observe {
                die: name.clone(),
                seq,
                values: power(args.seed, d, seq),
                trace: None,
            };
            buf.clear();
            let e0 = Instant::now();
            write_message(&mut buf, &observe)?;
            let e1 = Instant::now();
            let decoded: Option<Message> = read_message(&mut buf.as_slice())?;
            let e2 = Instant::now();
            let Some(Message::Observe { values, .. }) = decoded else {
                return Err(io::Error::other("observe did not round-trip"));
            };
            let s0 = Instant::now();
            let step = session.step(seq, &values).map_err(io::Error::other)?;
            let s1 = Instant::now();
            t.encode += (e1 - e0).as_nanos() as u64;
            t.decode += (e2 - e1).as_nanos() as u64;
            t.step += (s1 - s0).as_nanos() as u64;
            t.observes += 1;
            if wire.get(&(d, seq)).copied() != step.decision.as_ref() {
                t.mismatched += 1;
            }
            if step.decision.is_some() {
                t.decisions += 1;
                if snapshot_every > 0 && session.epochs() % snapshot_every == 0 {
                    let p0 = Instant::now();
                    let line = session.snapshot_line();
                    let p1 = Instant::now();
                    replay_store.ingest(&line)?;
                    let p2 = Instant::now();
                    t.snapshot += (p1 - p0).as_nanos() as u64;
                    t.ingest += (p2 - p1).as_nanos() as u64;
                    t.snapshot_bytes += line.len() as u64;
                    t.writes += 1;
                }
            }
            let ack = Message::Ack {
                die: name.clone(),
                seq,
                duplicate: false,
                decision: step.decision,
            };
            buf.clear();
            let a0 = Instant::now();
            write_message(&mut buf, &ack)?;
            let a1 = Instant::now();
            let decoded: Option<Message> = read_message(&mut buf.as_slice())?;
            let a2 = Instant::now();
            std::hint::black_box(decoded);
            t.encode += (a1 - a0).as_nanos() as u64;
            t.decode += (a2 - a1).as_nanos() as u64;
        }
    }

    out.attempted += t.observes;
    out.failed += t.mismatched;
    out.check(
        "replayed decisions equal the acknowledged ones",
        t.mismatched == 0 && t.decisions == wire.len() as u64 && t.observes > 0,
    );
    out.check(
        "replayed snapshot writes equal the supervisor's",
        t.writes == stats.snapshot_writes,
    );
    let mut digest = Digest::default();
    for d in 0..DIES {
        digest.add(&untraced[d % CONNECTIONS].digests[d].value().to_le_bytes());
    }
    out.digest = digest.value();

    let mut latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.latencies.iter().copied())
        .collect();
    let p50_ns = quantile(&mut latencies, 0.5);
    let observes = t.observes.max(1) as f64;
    let writes = t.writes.max(1) as f64;
    let per = |ns: u64, n: f64| ns as f64 / n - c;
    let encode = per(t.encode, 2.0 * observes);
    let decode = per(t.decode, 2.0 * observes);
    let step = per(t.step, observes);
    let snapshot = per(t.snapshot, writes);
    let ingest = per(t.ingest, writes);
    let amortised = (snapshot + ingest) * t.writes as f64 / observes;
    let traced_observes: u64 = traced.iter().map(|r| r.acked).sum();
    out.notes.push(format!(
        "{} observes per phase; untraced {untraced_s:.3} s, traced {traced_s:.3} s; p50 {:.1} us",
        traced_observes,
        p50_ns / 1e3
    ));
    out.metrics = metrics_of(
        &PER_LAYER,
        &[
            ("dispatch.encode_ns", encode),
            ("dispatch.decode_ns", decode),
            ("dispatch.ingest_ns", ingest),
            ("serve.step_ns", step),
            ("serve.snapshot_ns", snapshot),
            ("serve.snapshot_bytes", t.snapshot_bytes as f64 / writes),
            ("serve.restore_ns", per(t.restore, DIES as f64)),
            (
                "serve.batch_width",
                if batch_advances == 0 {
                    0.0
                } else {
                    traced_observes as f64 / batch_advances as f64
                },
            ),
            (
                "serve.wait_us",
                (p50_ns - 2.0 * encode - 2.0 * decode - step - amortised) / 1e3,
            ),
            (
                "telemetry.trace_overhead_pct",
                (traced_s - untraced_s) / untraced_s * 100.0,
            ),
            ("telemetry.timer_ns", c),
            ("serve.observes", t.observes as f64),
            ("serve.decisions", t.decisions as f64),
            ("serve.snapshot_writes", t.writes as f64),
            ("serve.errors", errors as f64),
            ("serve.restores", DIES as f64),
        ],
    );
    Ok(out)
}
