//! The serving supervisor: a TCP front door over lock-striped sessions.
//!
//! One supervisor owns every [`Session`] in the process. Sessions are
//! spread over [`ServeConfig::shards`] mutex-guarded stripes by die-id
//! hash ([`thermorl_runner::shard_of`]). Each connection thread parses
//! one NDJSON request, locks the stripe that owns the die, handles the
//! request there, and writes the reply, so all samples for one die
//! serialize under one lock while dies on other stripes proceed in
//! parallel. Any client can speak for any die, and several clients can
//! share a die without corrupting its stream.
//!
//! # Crash safety
//!
//! A session's snapshot line is appended to the store, a
//! [`thermorl_runner::jsonl`] file, every [`ServeConfig::snapshot_every`]
//! decision epochs, on `detach`, and on orderly shutdown (a `shutdown`
//! with `hard: true` skips the final pass, simulating a crash). On
//! startup the supervisor folds the store once into the newest
//! [`SNAPSHOT_STATUS`] line per die, in first-seen die order, and
//! compacts it to exactly those lines with one temp-file-and-rename
//! rewrite, so a crash during startup leaves the old store whole.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use thermorl_control::ControlConfig;
use thermorl_dispatch::proto::{read_message, write_message};
use thermorl_json::{JsonError, Value};
use thermorl_policy::PolicyId;
use thermorl_runner::jsonl::{self, Appender};
use thermorl_runner::{job_seed, shard_of};
use thermorl_telemetry as tel;

use crate::proto::{Message, StatsReport, SERVE_PROTOCOL_VERSION};
use crate::session::{Session, SessionMode, MAX_CORES, SNAPSHOT_STATUS};

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// When set, the bound address is written here once the store is
    /// restored (for scripts that need the ephemeral port).
    pub addr_file: Option<PathBuf>,
    /// Path of the snapshot store (JSONL).
    pub store: PathBuf,
    /// Restore sessions from an existing store; `false` starts fresh.
    pub resume: bool,
    /// Lock stripes: each die's session lives in stripe
    /// `shard_of(die, shards)`, and requests for dies on different
    /// stripes run in parallel.
    pub shards: usize,
    /// Server seed; each die's session seed is `job_seed(seed, die)`.
    pub seed: u64,
    /// Snapshot a session every this many decision epochs (0 disables
    /// periodic snapshots; detach/shutdown snapshots still happen).
    pub snapshot_every: u64,
    /// Decision epoch length (sensor samples per epoch) for new sessions.
    pub epoch_samples: usize,
    /// SLO objective for the `serve.request` span, in microseconds
    /// (`stats` and `trace` replies report p50/p99 and error-budget burn
    /// against it).
    pub slo_objective_us: u64,
    /// Suppress progress output.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            addr_file: None,
            store: PathBuf::from("serve-snapshots.jsonl"),
            resume: true,
            shards: 2,
            seed: 0xDAC14,
            snapshot_every: 2,
            epoch_samples: ControlConfig::default().epoch_samples,
            slo_objective_us: 1000,
            quiet: false,
        }
    }
}

/// What the supervisor reports after it stops.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// The address the supervisor was bound to.
    pub addr: SocketAddr,
    /// Final counters.
    pub stats: StatsReport,
}

#[derive(Default)]
struct Stats {
    sessions_active: AtomicU64,
    sessions_total: AtomicU64,
    observes_total: AtomicU64,
    decisions_total: AtomicU64,
    snapshot_writes: AtomicU64,
}

impl Stats {
    fn report(&self, slo: &tel::SloConfig) -> StatsReport {
        StatsReport {
            sessions_active: self.sessions_active.load(Ordering::Relaxed),
            sessions_total: self.sessions_total.load(Ordering::Relaxed),
            observes_total: self.observes_total.load(Ordering::Relaxed),
            decisions_total: self.decisions_total.load(Ordering::Relaxed),
            snapshot_writes: self.snapshot_writes.load(Ordering::Relaxed),
            slo: request_slo(slo),
        }
    }
}

/// The current SLO state of the `serve.request` span histogram.
fn request_slo(cfg: &tel::SloConfig) -> tel::SloSummary {
    tel::snapshot()
        .spans
        .get("serve.request")
        .map(|s| tel::slo_summary(&s.hist, cfg))
        .unwrap_or_else(|| tel::SloSummary {
            objective_ns: cfg.objective_ns,
            target: cfg.target,
            ..tel::SloSummary::default()
        })
}

/// One lock stripe: the sessions of every die that hashes to it.
#[derive(Default)]
struct Shard {
    sessions: HashMap<String, Session>,
    /// Restored snapshots no attach has claimed yet.
    pending: HashMap<String, Value>,
}

/// Everything a connection thread needs.
struct Shared {
    shards: Vec<Mutex<Shard>>,
    store: Mutex<Appender>,
    stats: Stats,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    slo: tel::SloConfig,
    config: ServeConfig,
}

/// A running supervisor: inspect the bound address, stop it, join it.
pub struct SupervisorHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    hard: Arc<AtomicBool>,
    thread: JoinHandle<io::Result<ServeReport>>,
}

impl SupervisorHandle {
    /// The address the supervisor listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a stop. `hard` skips the final snapshot pass — every
    /// session state not already snapshotted is lost, as in a crash.
    pub fn shutdown(&self, hard: bool) {
        if hard {
            self.hard.store(true, Ordering::SeqCst);
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Waits for the supervisor to stop and returns its report.
    ///
    /// # Errors
    ///
    /// Propagates listener I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if the supervisor thread itself panicked.
    pub fn join(self) -> io::Result<ServeReport> {
        self.thread.join().expect("supervisor thread panicked")
    }
}

/// The serving supervisor entry points.
pub struct Supervisor;

impl Supervisor {
    /// Binds, restores snapshots, and starts serving in the background.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound or the store cannot be
    /// read or rewritten.
    pub fn spawn(config: ServeConfig) -> io::Result<SupervisorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // Restore-and-compact: fold the newest snapshot per die from the
        // previous run, then replace the store with exactly those lines
        // so it never grows across restarts.
        let restored = if config.resume && config.store.exists() {
            load_snapshots(&config.store)?
        } else {
            Vec::new()
        };
        let store = Appender::rewrite(&config.store, restored.iter().map(|(_, (_, line))| line))?;
        // Only a supervisor that will serve announces its address.
        if let Some(path) = &config.addr_file {
            std::fs::write(path, format!("{addr}\n"))?;
        }
        if !config.quiet {
            eprintln!(
                "[serve] listening on {addr}, {} session(s) restorable from {}",
                restored.len(),
                config.store.display()
            );
        }

        // Park each restored snapshot in its die's stripe until an attach
        // claims it.
        let stripes = config.shards.max(1);
        let mut shards: Vec<Shard> = (0..stripes).map(|_| Shard::default()).collect();
        for (die, (snap, _)) in restored {
            shards[shard_of(&die, stripes)].pending.insert(die, snap);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let hard = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            shards: shards.into_iter().map(Mutex::new).collect(),
            store: Mutex::new(store),
            stats: Stats::default(),
            stop: Arc::clone(&stop),
            hard: Arc::clone(&hard),
            slo: slo_config(&config),
            config,
        });
        let thread = thread::spawn(move || accept_loop(listener, addr, &shared));
        Ok(SupervisorHandle {
            addr,
            stop,
            hard,
            thread,
        })
    }

    /// Runs a supervisor to completion (blocks until a client sends
    /// `shutdown`).
    ///
    /// # Errors
    ///
    /// See [`Supervisor::spawn`].
    pub fn run(config: ServeConfig) -> io::Result<ServeReport> {
        Supervisor::spawn(config)?.join()
    }
}

/// The SLO the supervisor evaluates `serve.request` against.
fn slo_config(config: &ServeConfig) -> tel::SloConfig {
    tel::SloConfig {
        objective_ns: config.slo_objective_us.saturating_mul(1000),
        ..tel::SloConfig::default()
    }
}

/// The newest [`SNAPSHOT_STATUS`] line of each die in the store, in
/// first-seen die order, parsed and as written. Any other line, a
/// crashed run's torn tail included, is skipped.
fn load_snapshots(path: &Path) -> io::Result<Vec<(String, (Value, String))>> {
    jsonl::fold(&[path], |line| {
        let v = Value::parse(&line)?;
        if v.field::<&str>("status")? != SNAPSHOT_STATUS {
            return Err(JsonError::new("not a snapshot line"));
        }
        Ok((v.field("key")?, (v, line)))
    })
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    shared: &Arc<Shared>,
) -> io::Result<ServeReport> {
    let mut conn_handles = Vec::new();
    let mut open_streams: Vec<TcpStream> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                open_streams.push(stream.try_clone()?);
                let shared = Arc::clone(shared);
                conn_handles.push(thread::spawn(move || {
                    let _ = handle_connection(stream, &shared);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    // Unblock connection threads stuck in a read, then wait for them.
    for stream in &open_streams {
        let _ = stream.shutdown(SocketShutdown::Both);
    }
    for handle in conn_handles {
        let _ = handle.join();
    }
    // No request is in flight now. A soft stop snapshots every live
    // session; a stripe poisoned by a panicking request is skipped, since
    // its sessions may be half-stepped.
    if !shared.hard.load(Ordering::SeqCst) {
        for shard in shared.shards.iter().filter_map(|s| s.lock().ok()) {
            for session in shard.sessions.values() {
                write_snapshot(session, shared);
            }
        }
    }
    let report = ServeReport {
        addr,
        stats: shared.stats.report(&shared.slo),
    };
    if !shared.config.quiet {
        eprintln!(
            "[serve] stopped: {} session(s), {} decision(s), {} snapshot write(s)",
            report.stats.sessions_total, report.stats.decisions_total, report.stats.snapshot_writes
        );
    }
    Ok(report)
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(msg) = read_message::<_, Message>(&mut reader)? {
        // An observe carrying a traceparent joins the client's trace;
        // everything else roots a fresh one. Either way the span feeds
        // the aggregate `serve.request` stats (and so the SLO).
        let parent = match &msg {
            Message::Observe {
                trace: Some(trace), ..
            } => tel::SpanContext::parse_traceparent(trace),
            _ => None,
        };
        let _span = tel::TraceSpan::with_parent("serve.request", parent);
        let reply = match msg {
            Message::Stats => Message::Report(shared.stats.report(&shared.slo)),
            Message::Trace { max } => {
                Message::Traces(thermorl_dispatch::proto::build_trace_report(
                    &tel::snapshot(),
                    "serve.request",
                    &shared.slo,
                    max.min(256) as usize,
                ))
            }
            Message::Shutdown { hard } => {
                if hard {
                    shared.hard.store(true, Ordering::SeqCst);
                }
                shared.stop.store(true, Ordering::SeqCst);
                Message::ShuttingDown
            }
            Message::Attach { ref die, .. }
            | Message::Observe { ref die, .. }
            | Message::Detach { ref die } => {
                let stripe = &shared.shards[shard_of(die, shared.shards.len())];
                match stripe.lock() {
                    Ok(mut shard) => {
                        let name = match msg {
                            Message::Observe { .. } => "shard.observe",
                            _ => "shard.handle",
                        };
                        let _span = tel::TraceSpan::child(name);
                        handle_shard_message(msg, &mut shard, shared)
                    }
                    Err(_) => Message::Error {
                        message: format!(
                            "die {die:?} is unavailable: an earlier request on its shard panicked"
                        ),
                    },
                }
            }
            other => Message::Error {
                message: format!("unexpected client message: {other:?}"),
            },
        };
        let done = matches!(reply, Message::ShuttingDown);
        write_message(&mut writer, &reply)?;
        if done {
            break;
        }
    }
    Ok(())
}

/// Handles one die-routed request on the die's locked stripe. The
/// caller holds the stripe lock, so requests for one die apply one at a
/// time, and a die's decisions depend on its own samples only.
fn handle_shard_message(msg: Message, shard: &mut Shard, shared: &Shared) -> Message {
    let Shard { sessions, pending } = shard;
    let (stats, cfg) = (&shared.stats, &shared.config);
    match msg {
        Message::Attach {
            protocol,
            die,
            cores,
            threads,
            mode,
            policy,
        } => {
            if protocol != SERVE_PROTOCOL_VERSION {
                return Message::Error {
                    message: format!(
                        "protocol mismatch: client speaks v{protocol}, server v{SERVE_PROTOCOL_VERSION}"
                    ),
                };
            }
            if !(1..=MAX_CORES).contains(&cores) || threads == 0 {
                return Message::Error {
                    message: format!(
                        "attach needs 1..={MAX_CORES} cores and at least one thread, \
                         got {cores} cores and {threads} threads"
                    ),
                };
            }
            let mode = match SessionMode::parse(&mode) {
                Ok(m) => m,
                Err(e) => return Message::Error { message: e },
            };
            let policy_id = match policy.as_deref().map(PolicyId::parse) {
                None => PolicyId::DasDac14,
                Some(Ok(id)) => id,
                Some(Err(e)) => return Message::Error { message: e },
            };
            // Re-attach to a live session is idempotent (a reconnecting
            // client learns how far it had got).
            if let Some(session) = sessions.get(&die) {
                if session.cores() != cores
                    || session.mode() != mode
                    || session.policy_id() != policy_id
                {
                    return Message::Error {
                        message: format!("die {die:?} is attached with a different shape"),
                    };
                }
                return Message::Attached {
                    die,
                    resumed: true,
                    acked_seq: session.seq(),
                    epochs: session.epochs(),
                };
            }
            // A rejected attach must not consume the snapshot: validate
            // against the pending entry in place and remove it only once
            // the restored session is accepted.
            let (session, resumed) = if let Some(snap) = pending.get(&die) {
                let restored = snap
                    .field("session")
                    .map_err(String::from)
                    .and_then(Session::restore)
                    .map_err(|e| format!("snapshot for die {die:?}: {e}"));
                match restored {
                    Ok(s) => {
                        if s.cores() != cores || s.mode() != mode || s.policy_id() != policy_id {
                            return Message::Error {
                                message: format!(
                                    "die {die:?} snapshot has a different shape; \
                                     attach with the original cores/mode/policy or start a fresh store"
                                ),
                            };
                        }
                        pending.remove(&die);
                        (s, true)
                    }
                    Err(e) => return Message::Error { message: e },
                }
            } else {
                let session_cfg = ControlConfig {
                    epoch_samples: cfg.epoch_samples,
                    ..ControlConfig::default()
                };
                (
                    Session::new(
                        die.clone(),
                        cores,
                        threads,
                        mode,
                        policy_id,
                        job_seed(cfg.seed, &die),
                        session_cfg,
                    ),
                    false,
                )
            };
            stats.sessions_total.fetch_add(1, Ordering::Relaxed);
            let active = stats.sessions_active.fetch_add(1, Ordering::Relaxed) + 1;
            tel::gauge!("serve.sessions_active", active as f64);
            tel::event!("serve.attach", "{die} resumed={resumed}");
            let reply = Message::Attached {
                die: die.clone(),
                resumed,
                acked_seq: session.seq(),
                epochs: session.epochs(),
            };
            sessions.insert(die, session);
            reply
        }
        Message::Observe {
            die, seq, values, ..
        } => {
            let Some(session) = sessions.get_mut(&die) else {
                return Message::Error {
                    message: format!("die {die:?} is not attached"),
                };
            };
            match session.step(seq, &values) {
                Ok(outcome) => {
                    if !outcome.duplicate {
                        stats.observes_total.fetch_add(1, Ordering::Relaxed);
                    }
                    if outcome.decision.is_some() {
                        stats.decisions_total.fetch_add(1, Ordering::Relaxed);
                        tel::counter!("serve.decisions_total");
                        if cfg.snapshot_every > 0 && session.epochs() % cfg.snapshot_every == 0 {
                            write_snapshot(session, shared);
                        }
                    }
                    Message::Ack {
                        die,
                        seq,
                        duplicate: outcome.duplicate,
                        decision: outcome.decision,
                    }
                }
                Err(message) => Message::Error { message },
            }
        }
        Message::Detach { die } => {
            let Some(session) = sessions.remove(&die) else {
                return Message::Error {
                    message: format!("die {die:?} is not attached"),
                };
            };
            write_snapshot(&session, shared);
            let active = stats
                .sessions_active
                .fetch_sub(1, Ordering::Relaxed)
                .saturating_sub(1);
            tel::gauge!("serve.sessions_active", active as f64);
            tel::event!("serve.detach", "{die}");
            Message::Detached {
                die,
                epochs: session.epochs(),
            }
        }
        other => Message::Error {
            message: format!("shard cannot handle message: {other:?}"),
        },
    }
}

fn write_snapshot(session: &Session, shared: &Shared) {
    let line = session.snapshot_line();
    let mut store = shared.store.lock().expect("store lock poisoned");
    if let Err(e) = store.append(&line) {
        eprintln!(
            "[serve] warning: snapshot of {:?} failed: {e}",
            session.die()
        );
        return;
    }
    shared.stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
    tel::counter!("serve.snapshot_writes");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every strict prefix of a real snapshot line whose die id is not
    /// ASCII, as the torn final line of the store, is skipped: the intact
    /// snapshots before it all load.
    #[test]
    fn load_snapshots_survives_a_non_ascii_snapshot_torn_at_every_byte() {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-serve-torn-snapshot-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("store.jsonl");
        let line = |die: &str| {
            let cfg = ControlConfig::default();
            Session::new(die, 4, 4, SessionMode::Power, PolicyId::DasDac14, 7, cfg).snapshot_line()
        };
        let intact = format!("{}\n{}\n", line("die-a"), line("die-Ω"));
        let tail = line("die-µ°");
        for cut in 0..tail.len() {
            let mut bytes = intact.clone().into_bytes();
            bytes.extend_from_slice(&tail.as_bytes()[..cut]);
            std::fs::write(&path, &bytes).expect("write store");
            let loaded = load_snapshots(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            let mut dies: Vec<&str> = loaded.iter().map(|(die, _)| die.as_str()).collect();
            dies.sort_unstable();
            assert_eq!(dies, ["die-a", "die-Ω"], "cut {cut} of {}", tail.len());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
