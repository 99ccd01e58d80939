//! The campaign coordinator: owns the job queue, grants leases, ingests
//! results into the shared [`CheckpointStore`], and re-queues work whose
//! worker went silent.
//!
//! The coordinator never holds a work function or a payload codec — it
//! sees the campaign only through [`JobSource`] (name, seed, keys) and
//! files the verbatim checkpoint lines workers send back. All scheduling
//! state lives in one `Mutex<State>`; connection handler threads lock it
//! per message, and the serve loop's sweeper locks it to reap expired
//! leases, so the protocol needs no cross-thread channels.
//!
//! **Lease lifecycle.** A queued key granted to a worker becomes a lease
//! with a deadline `now + lease_ms`. Heartbeats push the deadline out;
//! a missed deadline (worker crashed, network gone) re-queues the key and
//! charges one retry. A failed result (`panicked`/`timeout` line) also
//! charges a retry and re-queues — the failure line is only written to the
//! store once the retry budget is exhausted, so the final store holds
//! exactly one line per key, like a serial run's checkpoint. Successful
//! results are written immediately and de-duplicated by key, so a stale
//! worker finishing an already-re-run job cannot duplicate or corrupt
//! anything (results are deterministic per key, making either copy
//! byte-identical anyway).

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use thermorl_json::Value;
use thermorl_runner::JobSource;
use thermorl_telemetry as tel;

use crate::proto::{read_message, write_message, Lease, Message, StatusReport, PROTOCOL_VERSION};
use crate::store::{CheckpointStore, Ingest, LineMeta};

/// How a coordinator serves one campaign.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Listen address, e.g. `"127.0.0.1:4077"`; port `0` binds an
    /// ephemeral port (pair with `addr_file` so workers can find it).
    pub addr: String,
    /// When set, the bound address is written here once listening (the
    /// ephemeral-port handshake for scripts and tests).
    pub addr_file: Option<PathBuf>,
    /// Path of the shared checkpoint store (authoritative JSONL).
    pub store: PathBuf,
    /// Keep existing store records and skip their completed keys.
    pub resume: bool,
    /// Lease lifetime without a heartbeat, in milliseconds.
    pub lease_ms: u64,
    /// Interval workers are told to heartbeat at, in milliseconds.
    pub heartbeat_ms: u64,
    /// Times a key may be re-queued (after lease expiry or a failed
    /// result) before it is recorded as permanently failed.
    pub max_retries: u32,
    /// Backoff suggested to workers when nothing is grantable, in ms.
    pub wait_backoff_ms: u64,
    /// After the campaign resolves, keep serving up to this long while
    /// connections drain so every worker's final `lease_request` gets a
    /// clean `done` instead of a dropped socket. Must exceed
    /// `wait_backoff_ms` or a waiting worker can miss the window and
    /// mistake resolution for an outage.
    pub linger_ms: u64,
    /// Print progress lines to stderr.
    pub progress: bool,
    /// Shared-secret auth token. When set, every worker's `hello` must
    /// carry the same token or the handshake is rejected with an error
    /// reply; control clients (status/drain) are unaffected — they bind
    /// to the same trusted network position as the coordinator itself.
    pub auth_token: Option<String>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            addr: "127.0.0.1:4077".into(),
            addr_file: None,
            store: PathBuf::from("results/dispatch.jsonl"),
            resume: false,
            lease_ms: 30_000,
            heartbeat_ms: 5_000,
            max_retries: 2,
            wait_backoff_ms: 500,
            linger_ms: 2_000,
            progress: true,
            auth_token: None,
        }
    }
}

/// Scheduling state of one job key.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KeyState {
    /// Waiting in the queue.
    Queued,
    /// Held by the lease with this id.
    Leased(u64),
    /// A successful record is in the store.
    Completed,
    /// Retry budget exhausted; a failure record is in the store.
    Failed,
}

#[derive(Debug)]
struct JobState {
    seed: u64,
    state: KeyState,
    retries: u32,
    /// The most recent failure line a worker reported, written to the
    /// store verbatim if the retry budget runs out.
    last_failure: Option<String>,
}

#[derive(Debug)]
struct LeaseInfo {
    key: String,
    worker: String,
    deadline: Instant,
    granted: Instant,
}

/// All mutable coordinator state, behind one mutex.
pub(crate) struct State {
    campaign: String,
    seed: u64,
    queue: VecDeque<String>,
    jobs: HashMap<String, JobState>,
    leases: HashMap<u64, LeaseInfo>,
    next_lease_id: u64,
    draining: bool,
    store: CheckpointStore,
    lease_ms: u64,
    max_retries: u32,
    completed: u64,
    failed: u64,
}

impl State {
    fn new(source: &dyn JobSource, store: CheckpointStore, config: &CoordinatorConfig) -> State {
        let mut queue = VecDeque::new();
        let mut jobs = HashMap::new();
        let mut completed = 0u64;
        for key in source.source_keys() {
            let seed = source.source_seed_for(&key);
            let state = if store.is_completed(&key) {
                completed += 1;
                KeyState::Completed
            } else {
                queue.push_back(key.clone());
                KeyState::Queued
            };
            jobs.insert(
                key,
                JobState {
                    seed,
                    state,
                    retries: 0,
                    last_failure: None,
                },
            );
        }
        State {
            campaign: source.source_name().to_string(),
            seed: source.source_seed(),
            queue,
            jobs,
            leases: HashMap::new(),
            next_lease_id: 1,
            draining: false,
            store,
            lease_ms: config.lease_ms,
            max_retries: config.max_retries,
            completed,
            failed: 0,
        }
    }

    fn status(&self) -> StatusReport {
        StatusReport {
            campaign: self.campaign.clone(),
            total: self.jobs.len() as u64,
            completed: self.completed,
            failed: self.failed,
            queued: self.queue.len() as u64,
            leased: self.leases.len() as u64,
            draining: self.draining,
        }
    }

    /// No lease outstanding and nothing left to grant: every key is
    /// resolved, or the coordinator is draining and the in-flight work
    /// has run dry.
    fn resolved(&self) -> bool {
        self.leases.is_empty() && (self.queue.is_empty() || self.draining)
    }

    /// Grants up to `max_jobs` leases to `worker`.
    fn grant(&mut self, worker: &str, max_jobs: u64, now: Instant) -> Vec<Lease> {
        let mut leases = Vec::new();
        if self.draining {
            return leases;
        }
        while (leases.len() as u64) < max_jobs {
            let Some(key) = self.queue.pop_front() else {
                break;
            };
            let job = self.jobs.get_mut(&key).expect("queued key is registered");
            if job.state != KeyState::Queued {
                continue; // resolved while waiting (e.g. a stale result landed)
            }
            let lease_id = self.next_lease_id;
            self.next_lease_id += 1;
            job.state = KeyState::Leased(lease_id);
            self.leases.insert(
                lease_id,
                LeaseInfo {
                    key: key.clone(),
                    worker: worker.to_string(),
                    deadline: now + Duration::from_millis(self.lease_ms),
                    granted: now,
                },
            );
            leases.push(Lease {
                lease_id,
                key,
                seed: job.seed,
                deadline_ms: self.lease_ms,
            });
        }
        if !leases.is_empty() {
            tel::counter!("dispatch.leases_granted", leases.len() as u64);
            tel::gauge!("dispatch.in_flight", self.leases.len() as f64);
            tel::event!("dispatch.grant", "{} lease(s) to {worker}", leases.len());
        }
        leases
    }

    /// Extends the deadlines of the given leases.
    fn heartbeat(&mut self, lease_ids: &[u64], now: Instant) {
        for id in lease_ids {
            if let Some(lease) = self.leases.get_mut(id) {
                lease.deadline = now + Duration::from_millis(self.lease_ms);
            }
        }
        tel::counter!("dispatch.heartbeats");
    }

    /// Re-queues `key` (charging one retry) or, with the budget
    /// exhausted, files `failure_line` (a non-`ok` record of `key`) and
    /// marks the key failed.
    fn requeue_or_fail(&mut self, key: String, failure_line: String) -> io::Result<()> {
        let job = self.jobs.get_mut(&key).expect("key is registered");
        if job.retries < self.max_retries {
            job.retries += 1;
            job.state = KeyState::Queued;
            tel::counter!("dispatch.retries");
            tel::event!("dispatch.retry", "{key} retry={}", job.retries);
            self.queue.push_back(key);
        } else {
            job.state = KeyState::Failed;
            self.failed += 1;
            tel::counter!("dispatch.failures");
            tel::event!("dispatch.failed", "{key} retries exhausted");
            self.store
                .ingest_with(LineMeta { key, ok: false }, &failure_line)?;
        }
        Ok(())
    }

    /// Re-queues every lease whose deadline has passed. Returns how many
    /// expired.
    fn reap_expired(&mut self, now: Instant) -> io::Result<usize> {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in &expired {
            let lease = self.leases.remove(id).expect("collected above");
            tel::counter!("dispatch.lease_expiries");
            tel::event!(
                "dispatch.lease_expired",
                "{} held by {}",
                lease.key,
                lease.worker
            );
            let line = self
                .jobs
                .get(&lease.key)
                .and_then(|j| j.last_failure.clone())
                .unwrap_or_else(|| timeout_line(&lease.key, self.jobs[&lease.key].seed));
            self.requeue_or_fail(lease.key, line)?;
        }
        if !expired.is_empty() {
            tel::gauge!("dispatch.in_flight", self.leases.len() as f64);
        }
        Ok(expired.len())
    }

    /// Files one result line. Resolution is by the line's `"key"` field,
    /// so a result from an expired (and even re-granted) lease still
    /// lands: results are deterministic per key, making every copy
    /// equivalent.
    fn ingest_result(&mut self, lease_id: u64, line: &str, now: Instant) -> io::Result<()> {
        let meta = crate::store::line_meta(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparsable result line: {line:?}"),
            )
        })?;
        let Some(job) = self.jobs.get_mut(&meta.key) else {
            tel::counter!("dispatch.unknown_results");
            return Ok(()); // not this campaign's key; drop it
        };

        // Release whichever lease currently holds the key — the reporting
        // one if it is still live, or a stale re-grant to another worker
        // (whose eventual duplicate report will be dropped below).
        let held_by = match job.state {
            KeyState::Leased(id) => Some(id),
            _ => None,
        };
        for id in [Some(lease_id), held_by].into_iter().flatten() {
            if let Some(lease) = self.leases.remove(&id) {
                if lease.key == meta.key {
                    tel::observe!(
                        "dispatch.job_ms",
                        now.duration_since(lease.granted).as_millis() as u64
                    );
                } else {
                    // `lease_id` belongs to a different key (a worker bug);
                    // keep that lease alive.
                    self.leases.insert(id, lease);
                }
            }
        }
        tel::gauge!("dispatch.in_flight", self.leases.len() as f64);

        match job.state {
            KeyState::Completed | KeyState::Failed => {
                tel::counter!("dispatch.duplicates");
                return Ok(());
            }
            _ => {}
        }
        let was_queued = self.jobs[&meta.key].state == KeyState::Queued;
        if meta.ok {
            match self.store.ingest_with(meta.clone(), line)? {
                Ingest::Duplicate => {
                    tel::counter!("dispatch.duplicates");
                }
                _ => {
                    tel::counter!("dispatch.results_ingested");
                    tel::event!("dispatch.result", "{} ok", meta.key);
                }
            }
            if was_queued {
                // A stale report resolved a re-queued key; drop the queue
                // entry so it is never re-granted.
                self.queue.retain(|k| k != &meta.key);
            }
            let job = self.jobs.get_mut(&meta.key).expect("checked above");
            job.state = KeyState::Completed;
            self.completed += 1;
        } else {
            tel::event!("dispatch.result", "{} failed", meta.key);
            let job = self.jobs.get_mut(&meta.key).expect("checked above");
            job.last_failure = Some(line.to_string());
            // If the key was already re-queued (its lease expired first),
            // the stale failure only refreshes `last_failure`; charging
            // another retry would double-count one attempt.
            if !was_queued {
                self.requeue_or_fail(meta.key, line.to_string())?;
            }
        }
        Ok(())
    }
}

/// A synthesized `"timeout"` checkpoint line for a job whose worker
/// vanished without reporting anything (same shape a local timed-out job
/// would checkpoint as).
fn timeout_line(key: &str, seed: u64) -> String {
    let mut obj = Value::object();
    obj.set("key", key)
        .set("seed", seed)
        .set("status", "timeout");
    obj.to_json()
}

/// A bound coordinator, ready to serve one campaign.
pub struct Coordinator {
    listener: TcpListener,
    state: Arc<Mutex<State>>,
    config: CoordinatorConfig,
}

fn lock_state(state: &Mutex<State>) -> MutexGuard<'_, State> {
    // A handler thread can only panic on store I/O failure, which `serve`
    // surfaces anyway; the scheduling state itself stays consistent.
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Coordinator {
    /// Opens the store, loads the campaign's keys, and binds the listen
    /// socket (writing `addr_file` if configured).
    ///
    /// # Errors
    ///
    /// Fails if the store cannot be opened or the address cannot be bound.
    pub fn bind(source: &dyn JobSource, config: CoordinatorConfig) -> io::Result<Coordinator> {
        let store = CheckpointStore::open(&config.store, config.resume)?;
        let state = State::new(source, store, &config);
        let listener = TcpListener::bind(&config.addr)?;
        if let Some(path) = &config.addr_file {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            std::fs::write(path, listener.local_addr()?.to_string())?;
        }
        Ok(Coordinator {
            listener,
            state: Arc::new(Mutex::new(state)),
            config,
        })
    }

    /// The bound listen address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until the campaign resolves: accepts worker and control
    /// connections, sweeps expired leases, and returns the final status
    /// once no lease is outstanding and the queue is empty (or draining).
    /// After resolution it lingers until every open connection drains (or
    /// `linger_ms` elapses) so workers receive their final `done` instead
    /// of a dropped socket when the coordinator process exits.
    ///
    /// # Errors
    ///
    /// Fails if the listener breaks or the store rejects a write during
    /// expiry handling.
    pub fn serve(self) -> io::Result<StatusReport> {
        self.listener.set_nonblocking(true)?;
        let connections = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut last_progress = (u64::MAX, u64::MAX);
        let mut resolved_since: Option<Instant> = None;
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let state = Arc::clone(&self.state);
                    let config = self.config.clone();
                    let connections = Arc::clone(&connections);
                    connections.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    std::thread::Builder::new()
                        .name(format!("dispatch:{peer}"))
                        .spawn(move || {
                            if let Err(e) = handle_connection(stream, &state, &config) {
                                // Disconnects are routine (a killed worker's
                                // socket just vanishes); the lease deadline
                                // is the recovery mechanism.
                                tel::event!("dispatch.disconnect", "{peer}: {e}");
                                let _ = e;
                            }
                            connections.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                        })?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
            let mut state = lock_state(&self.state);
            state.reap_expired(Instant::now())?;
            let status = state.status();
            if self.config.progress {
                let snapshot = (status.completed, status.failed);
                if snapshot != last_progress {
                    eprintln!(
                        "[dispatch:{}] {}/{} completed, {} failed, {} queued, {} leased",
                        status.campaign,
                        status.completed,
                        status.total,
                        status.failed,
                        status.queued,
                        status.leased
                    );
                    last_progress = snapshot;
                }
            }
            if state.resolved() {
                drop(state);
                let since = *resolved_since.get_or_insert_with(Instant::now);
                if connections.load(std::sync::atomic::Ordering::SeqCst) == 0
                    || since.elapsed() >= Duration::from_millis(self.config.linger_ms)
                {
                    return Ok(status);
                }
            } else {
                resolved_since = None;
            }
        }
    }
}

/// Handles one peer connection (worker or control client) until it
/// disconnects or the protocol errors out.
fn handle_connection(
    stream: TcpStream,
    state: &Mutex<State>,
    config: &CoordinatorConfig,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        let Some(message) = read_message(&mut reader)? else {
            return Ok(()); // clean EOF
        };
        match message {
            Message::Hello {
                worker,
                protocol,
                token,
            } => {
                if protocol != PROTOCOL_VERSION {
                    let error = Message::Error {
                        message: format!(
                            "protocol mismatch: worker {worker} speaks v{protocol}, \
                             coordinator v{PROTOCOL_VERSION}"
                        ),
                    };
                    write_message(&mut writer, &error)?;
                    return Ok(());
                }
                if let Some(expected) = &config.auth_token {
                    if token.as_deref() != Some(expected.as_str()) {
                        let error = Message::Error {
                            message: format!(
                                "authentication failed: worker {worker} presented \
                                 {} token",
                                if token.is_some() {
                                    "a mismatched"
                                } else {
                                    "no"
                                }
                            ),
                        };
                        tel::counter!("dispatch.auth_rejected");
                        tel::event!("dispatch.auth_rejected", "{worker}");
                        write_message(&mut writer, &error)?;
                        return Ok(());
                    }
                }
                let welcome = {
                    let state = lock_state(state);
                    Message::Welcome {
                        campaign: state.campaign.clone(),
                        seed: state.seed,
                        total: state.jobs.len() as u64,
                        heartbeat_ms: config.heartbeat_ms,
                    }
                };
                tel::counter!("dispatch.workers_connected");
                tel::event!("dispatch.hello", "{worker}");
                write_message(&mut writer, &welcome)?;
            }
            Message::LeaseRequest {
                worker,
                max_jobs,
                trace,
            } => {
                let parent = trace
                    .as_deref()
                    .and_then(tel::SpanContext::parse_traceparent);
                let _req = tel::TraceSpan::with_parent("dispatch.request", parent);
                let _g = tel::trace_span!("dispatch.lease_request");
                let reply = {
                    let mut state = lock_state(state);
                    let now = Instant::now();
                    state.reap_expired(now)?;
                    let leases = state.grant(&worker, max_jobs, now);
                    if !leases.is_empty() {
                        Message::Grant { leases }
                    } else if state.resolved() {
                        Message::Done
                    } else {
                        Message::Wait {
                            backoff_ms: config.wait_backoff_ms,
                        }
                    }
                };
                write_message(&mut writer, &reply)?;
            }
            Message::Heartbeat { worker, lease_ids } => {
                let mut state = lock_state(state);
                state.heartbeat(&lease_ids, Instant::now());
                let _ = worker;
            }
            Message::Result {
                worker,
                lease_id,
                line,
                trace,
            } => {
                let parent = trace
                    .as_deref()
                    .and_then(tel::SpanContext::parse_traceparent);
                let _req = tel::TraceSpan::with_parent("dispatch.request", parent);
                let _g = tel::trace_span!("dispatch.ingest");
                let mut state = lock_state(state);
                state.ingest_result(lease_id, &line, Instant::now())?;
                let _ = worker;
            }
            Message::Status => {
                let report = lock_state(state).status();
                write_message(&mut writer, &Message::StatusReport(report))?;
            }
            Message::Trace { max } => {
                let report = crate::proto::build_trace_report(
                    &tel::snapshot(),
                    "dispatch.request",
                    &tel::SloConfig::default(),
                    max.min(256) as usize,
                );
                write_message(&mut writer, &Message::TraceReport(report))?;
            }
            Message::Drain => {
                let report = {
                    let mut state = lock_state(state);
                    state.draining = true;
                    tel::event!("dispatch.drain");
                    state.status()
                };
                write_message(&mut writer, &Message::StatusReport(report))?;
            }
            Message::Goodbye { worker } => {
                tel::event!("dispatch.goodbye", "{worker}");
                return Ok(());
            }
            other => {
                let error = Message::Error {
                    message: format!("unexpected message {other:?}"),
                };
                write_message(&mut writer, &error)?;
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeSource {
        name: String,
        seed: u64,
        keys: Vec<String>,
    }

    impl JobSource for FakeSource {
        fn source_name(&self) -> &str {
            &self.name
        }
        fn source_seed(&self) -> u64 {
            self.seed
        }
        fn source_keys(&self) -> Vec<String> {
            self.keys.clone()
        }
    }

    fn fake_source(n: usize) -> FakeSource {
        FakeSource {
            name: "unit".into(),
            seed: 7,
            keys: (0..n).map(|i| format!("job/{i}")).collect(),
        }
    }

    fn temp_store(tag: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "thermorl-dispatch-coord-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = dir.join("store.jsonl");
        (dir, store)
    }

    fn test_state(tag: &str, n: usize, max_retries: u32) -> (State, PathBuf) {
        let (dir, store_path) = temp_store(tag);
        let store = CheckpointStore::open(&store_path, false).expect("open store");
        let config = CoordinatorConfig {
            store: store_path,
            lease_ms: 1_000,
            max_retries,
            ..CoordinatorConfig::default()
        };
        (State::new(&fake_source(n), store, &config), dir)
    }

    fn ok_line(key: &str, seed: u64) -> String {
        format!("{{\"key\":\"{key}\",\"seed\":{seed},\"status\":\"ok\",\"payload\":1}}")
    }

    fn panic_line(key: &str, seed: u64) -> String {
        format!("{{\"key\":\"{key}\",\"seed\":{seed},\"status\":\"panicked\",\"error\":\"boom\"}}")
    }

    #[test]
    fn grant_heartbeat_result_lifecycle() {
        let (mut state, dir) = test_state("lifecycle", 3, 2);
        let t0 = Instant::now();
        let leases = state.grant("w1", 2, t0);
        assert_eq!(leases.len(), 2);
        assert_eq!(state.status().queued, 1);
        assert_eq!(state.status().leased, 2);

        // A heartbeat at t0+900ms pushes the deadline past t0+1s.
        state.heartbeat(&[leases[0].lease_id], t0 + Duration::from_millis(900));
        state
            .reap_expired(t0 + Duration::from_millis(1_500))
            .expect("reap");
        assert_eq!(
            state.status().leased,
            1,
            "unbeaten lease expired, beaten one survives"
        );

        let seed = leases[0].seed;
        state
            .ingest_result(
                leases[0].lease_id,
                &ok_line(&leases[0].key, seed),
                t0 + Duration::from_millis(1_600),
            )
            .expect("ingest");
        let status = state.status();
        assert_eq!(status.completed, 1);
        assert_eq!(status.leased, 0);
        assert_eq!(status.queued, 2, "expired key is back in the queue");
        assert!(!state.resolved());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expiry_requeues_until_retry_cap_then_fails_with_timeout_line() {
        let (mut state, dir) = test_state("expiry-cap", 1, 2);
        let t0 = Instant::now();
        // First grant + 2 retries = 3 expiries to exhaust the budget.
        for round in 0..3 {
            let leases = state.grant("w1", 1, t0);
            assert_eq!(leases.len(), 1, "round {round} should re-grant");
            let n = state
                .reap_expired(t0 + Duration::from_secs(10))
                .expect("reap");
            assert_eq!(n, 1);
        }
        let status = state.status();
        assert_eq!(status.failed, 1);
        assert_eq!(status.queued, 0);
        assert!(state.resolved());
        let text = std::fs::read_to_string(state.store.path()).expect("read store");
        assert_eq!(text.lines().count(), 1, "one final failure line");
        assert!(
            text.contains("\"status\":\"timeout\""),
            "synthesized timeout line: {text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_results_requeue_and_only_the_final_failure_is_stored() {
        let (mut state, dir) = test_state("fail-cap", 1, 1);
        let t0 = Instant::now();
        let lease = state.grant("w1", 1, t0).remove(0);
        state
            .ingest_result(lease.lease_id, &panic_line(&lease.key, lease.seed), t0)
            .expect("ingest");
        assert_eq!(state.status().queued, 1, "first failure re-queues");
        let text = std::fs::read_to_string(state.store.path()).expect("read");
        assert!(text.is_empty(), "no failure stored while retries remain");

        let lease = state.grant("w1", 1, t0).remove(0);
        state
            .ingest_result(lease.lease_id, &panic_line(&lease.key, lease.seed), t0)
            .expect("ingest");
        let status = state.status();
        assert_eq!(status.failed, 1);
        assert!(state.resolved());
        let text = std::fs::read_to_string(state.store.path()).expect("read");
        assert_eq!(text.lines().count(), 1, "exactly one final line: {text}");
        assert!(text.contains("\"status\":\"panicked\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_result_after_regrant_completes_key_and_dedupes_duplicate() {
        let (mut state, dir) = test_state("stale", 1, 5);
        let t0 = Instant::now();
        let first = state.grant("w1", 1, t0).remove(0);
        // The lease expires and the key is re-granted to another worker.
        state
            .reap_expired(t0 + Duration::from_secs(10))
            .expect("reap");
        let second = state.grant("w2", 1, t0 + Duration::from_secs(10)).remove(0);
        assert_ne!(first.lease_id, second.lease_id);

        // The presumed-dead first worker reports anyway: the key completes
        // and the re-granted lease is released.
        let line = ok_line(&first.key, first.seed);
        state
            .ingest_result(first.lease_id, &line, t0 + Duration::from_secs(11))
            .expect("ingest");
        assert_eq!(state.status().completed, 1);
        assert_eq!(state.status().leased, 0);
        assert!(state.resolved());

        // The second worker's duplicate report changes nothing.
        state
            .ingest_result(second.lease_id, &line, t0 + Duration::from_secs(12))
            .expect("ingest duplicate");
        assert_eq!(state.status().completed, 1);
        let text = std::fs::read_to_string(state.store.path()).expect("read");
        assert_eq!(text.lines().count(), 1, "no duplicate lines: {text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_stops_grants_and_resolves_without_queue_empty() {
        let (mut state, dir) = test_state("drain", 4, 2);
        let t0 = Instant::now();
        let lease = state.grant("w1", 1, t0).remove(0);
        state.draining = true;
        assert!(
            state.grant("w1", 4, t0).is_empty(),
            "draining grants nothing"
        );
        assert!(!state.resolved(), "in-flight lease still pending");
        state
            .ingest_result(lease.lease_id, &ok_line(&lease.key, lease.seed), t0)
            .expect("ingest");
        assert!(state.resolved(), "drained + no leases = resolved");
        assert_eq!(state.status().queued, 3, "unfinished keys stay queued");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_completed_store_keys() {
        let (dir, store_path) = temp_store("resume");
        std::fs::write(&store_path, ok_line("job/1", 9) + "\n").expect("seed store");
        let store = CheckpointStore::open(&store_path, true).expect("open");
        let config = CoordinatorConfig {
            store: store_path,
            ..CoordinatorConfig::default()
        };
        let state = State::new(&fake_source(3), store, &config);
        let status = state.status();
        assert_eq!(status.total, 3);
        assert_eq!(status.completed, 1);
        assert_eq!(status.queued, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
