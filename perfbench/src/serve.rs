//! The `serve_saturated` workload: an in-process supervisor driven by a
//! closed loop at saturation.
//!
//! 16 dies in power mode are spread over 2 connections (die `d` on
//! connection `d % 2`); each connection keeps [`WINDOW`] observes in
//! flight and sends the next one as soon as an ack arrives. Open-loop
//! pacing measured the VM's wake-ups more than the server, and one
//! request in flight swung with the host; a fixed window keeps the
//! server busy and the generator to two threads on two cores.
//!
//! A round is [`ROUND_OBSERVES`] acknowledged observes across both
//! connections; the run reports the median round.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use thermorl_control::ControlConfig;
use thermorl_dispatch::proto::{read_message, write_message};
use thermorl_serve::{
    Decision, Message, ServeConfig, StatsReport, Supervisor, SupervisorHandle,
    SERVE_PROTOCOL_VERSION,
};

use crate::stats::{median, quantile};
use crate::{metrics_of, peak_rss_mb, splitmix64, Args, Digest, Outcome, END_TO_END};

/// Dies served.
pub const DIES: usize = 16;
/// Cores per die.
pub const CORES: usize = 4;
/// Application threads each session places.
pub const THREADS: usize = 6;
/// Client connections (and load-generator threads).
pub const CONNECTIONS: usize = 2;
/// Observes each connection keeps in flight.
pub const WINDOW: usize = 16;
/// Supervisor shard threads.
pub const SHARDS: usize = 2;
/// Acknowledged observes per round.
pub const ROUND_OBSERVES: u64 = 16_000;
/// Observes per die in the untimed warm-up.
pub const WARMUP_PER_DIE: u64 = 100;
/// Timed observes per die whose decisions enter the output digest (a
/// fixed prefix, so the digest does not depend on host speed).
pub const DIGEST_PER_DIE: u64 = 200;
/// Restart-and-reattach repetitions behind `setup_s`.
const SETUP_REPS: usize = 21;

/// The wire name of die `d`.
pub fn die_name(d: usize) -> String {
    format!("die-{d:02}")
}

/// Per-core watts of die `die`'s observe `seq`: a seed-dependent wiggle
/// over 4–10 W that walks each die through several thermal states.
pub fn power(seed: u64, die: usize, seq: u64) -> Vec<f64> {
    (0..CORES)
        .map(|core| {
            let h = splitmix64(seed ^ ((die as u64) << 32) ^ ((core as u64) << 48));
            let stride = 1 + h % 12; // coprime with 13: every phase is visited
            let offset = (h >> 8) % 13;
            4.0 + 0.5 * ((seq.wrapping_mul(stride) + offset) % 13) as f64
        })
        .collect()
}

/// The supervisor configuration for a workload seed.
pub fn serve_config(seed: u64, store: &Path, resume: bool) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        store: store.to_path_buf(),
        resume,
        shards: SHARDS,
        seed: splitmix64(seed),
        quiet: true,
        ..ServeConfig::default()
    }
}

/// Observes per decision epoch in every session.
pub fn epoch_samples() -> u64 {
    ServeConfig::default().epoch_samples as u64
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connects to the supervisor.
    ///
    /// # Errors
    ///
    /// Fails when the connection cannot be opened.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, message: &Message) -> io::Result<()> {
        write_message(&mut self.writer, message)
    }

    fn recv(&mut self) -> io::Result<Message> {
        read_message(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "supervisor hung up"))
    }

    /// Sends one request and reads its reply.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an `error` reply.
    pub fn call(&mut self, message: &Message) -> io::Result<Message> {
        self.send(message)?;
        match self.recv()? {
            Message::Error { message } => Err(io::Error::other(message)),
            reply => Ok(reply),
        }
    }
}

/// A running supervisor with one connection per client thread.
pub struct Server {
    handle: SupervisorHandle,
    /// Connection `c` carries dies `c, c + 2, …`.
    pub conns: Vec<Conn>,
}

impl Server {
    /// Starts (or restarts, restoring from the store) a supervisor and
    /// attaches every die. Returns the server, each die's acked seq, and
    /// the set-up time: `Supervisor::spawn` (restore and compaction) plus
    /// the 16 attaches. The wait for the accept loop to pick up the new
    /// connections is left out — the loop polls every 10 ms, so the wait
    /// is a uniform 0–10 ms draw rather than recovery work.
    ///
    /// # Errors
    ///
    /// Fails when the supervisor cannot start or an attach is refused.
    pub fn start(config: ServeConfig) -> io::Result<(Server, Vec<u64>, f64)> {
        let t = Instant::now();
        let handle = Supervisor::spawn(config)?;
        let spawn_s = t.elapsed().as_secs_f64();
        let mut conns = (0..CONNECTIONS)
            .map(|_| Conn::connect(handle.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        for conn in &mut conns {
            conn.call(&Message::Stats)?;
        }
        let t = Instant::now();
        let mut acked = vec![0; DIES];
        for (d, acked) in acked.iter_mut().enumerate() {
            let reply = conns[d % CONNECTIONS].call(&Message::Attach {
                protocol: SERVE_PROTOCOL_VERSION,
                die: die_name(d),
                cores: CORES,
                threads: THREADS,
                mode: "power".into(),
                policy: None,
            })?;
            match reply {
                Message::Attached { acked_seq, .. } => *acked = acked_seq,
                other => return Err(io::Error::other(format!("attach reply {other:?}"))),
            }
        }
        let setup_s = spawn_s + t.elapsed().as_secs_f64();
        Ok((Server { handle, conns }, acked, setup_s))
    }

    /// The supervisor's counters.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn stats(&mut self) -> io::Result<StatsReport> {
        match self.conns[0].call(&Message::Stats)? {
            Message::Report(report) => Ok(report),
            other => Err(io::Error::other(format!("stats reply {other:?}"))),
        }
    }

    /// Detaches every die (each detach writes a snapshot), stops the
    /// supervisor and waits for it. Returns its final counters.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a refused detach.
    pub fn stop(mut self) -> io::Result<StatsReport> {
        for d in 0..DIES {
            self.conns[d % CONNECTIONS].call(&Message::Detach { die: die_name(d) })?;
        }
        drop(self.conns);
        self.handle.shutdown(false);
        Ok(self.handle.join()?.stats)
    }
}

/// When a connection stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Stop sending at this instant, then drain the window.
    Until(Instant),
    /// Send this many observes per die, then drain.
    PerDie(u64),
}

/// What one connection's closed loop saw.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Observes sent.
    pub sent: u64,
    /// Observes acknowledged in order.
    pub acked: u64,
    /// Error replies, missing or out-of-order acks, and observes still
    /// in flight when the connection failed.
    pub failed: u64,
    /// Round-trip latency (ns) of every acknowledged observe, when
    /// recording.
    pub latencies: Vec<f64>,
    /// Decisions received per die.
    pub decisions: Vec<u64>,
    /// Last acknowledged seq per die.
    pub last_seq: Vec<u64>,
    /// Digest of each die's decisions within the digest prefix.
    pub digests: Vec<Digest>,
    /// Every decision, when recording.
    pub record: Vec<(usize, u64, Decision)>,
}

fn digest_decision(d: &mut Digest, seq: u64, dec: &Decision) {
    d.add(&seq.to_le_bytes());
    d.add(&dec.epoch.to_le_bytes());
    d.add(&dec.action.to_le_bytes());
    d.add_str(&dec.assignment);
    d.add_str(&dec.governor);
    for v in [dec.stress, dec.aging, dec.reward, dec.alpha] {
        d.add(&v.to_bits().to_le_bytes());
    }
}

/// Parameters of one connection's closed loop.
pub struct Drive<'a> {
    /// Workload seed (feeds the power stream).
    pub seed: u64,
    /// Connection index: dies `conn, conn + 2, …` ride on it.
    pub conn: usize,
    /// Each die's acked seq when the loop starts.
    pub start_seq: &'a [u64],
    /// When to stop sending.
    pub limit: Limit,
    /// Acks counted across all connections (defines rounds).
    pub log: &'a RoundLog,
    /// Decisions with seq at or below this per die enter the digest.
    pub digest_until: &'a [u64],
    /// Keep every decision.
    pub record: bool,
}

impl Drive<'_> {
    /// Runs the closed loop on `conn` until the limit, then drains.
    pub fn run(&self, conn: &mut Conn) -> ConnRun {
        let dies: Vec<usize> = (self.conn..DIES).step_by(CONNECTIONS).collect();
        let names: Vec<String> = (0..DIES).map(die_name).collect();
        let mut seq = self.start_seq.to_vec();
        let mut out = ConnRun {
            decisions: vec![0; DIES],
            last_seq: self.start_seq.to_vec(),
            digests: vec![Digest::default(); DIES],
            ..ConnRun::default()
        };
        let mut in_flight: VecDeque<(usize, u64, Instant)> = VecDeque::with_capacity(WINDOW);
        let mut next = 0usize;
        let sending = |seq: &[u64], next: usize| match self.limit {
            Limit::Until(t) => Instant::now() < t,
            Limit::PerDie(n) => {
                let d = dies[next % dies.len()];
                seq[d] - self.start_seq[d] < n
            }
        };
        loop {
            while in_flight.len() < WINDOW && sending(&seq, next) {
                let d = dies[next % dies.len()];
                next += 1;
                seq[d] += 1;
                let message = Message::Observe {
                    die: names[d].clone(),
                    seq: seq[d],
                    values: power(self.seed, d, seq[d]),
                    trace: None,
                };
                let t = Instant::now();
                if conn.send(&message).is_err() {
                    out.failed += 1 + in_flight.len() as u64;
                    return out;
                }
                out.sent += 1;
                in_flight.push_back((d, seq[d], t));
            }
            let Some(&(d, s, t)) = in_flight.front() else {
                return out;
            };
            let reply = conn.recv();
            let now = Instant::now();
            let decision = match reply {
                Ok(Message::Ack {
                    die,
                    seq: acked,
                    duplicate: false,
                    decision,
                }) if die == names[d] && acked == s => decision,
                _ => {
                    // An error reply, a wrong or missing ack: the stream
                    // is out of step, so everything in flight is lost.
                    out.failed += in_flight.len() as u64;
                    return out;
                }
            };
            in_flight.pop_front();
            out.acked += 1;
            out.last_seq[d] = s;
            let ns = (now - t).as_nanos() as f64;
            self.log.ack(ns, now);
            if self.record {
                out.latencies.push(ns);
            }
            if let Some(dec) = decision {
                out.decisions[d] += 1;
                if s <= self.digest_until[d] {
                    digest_decision(&mut out.digests[d], s, &dec);
                }
                if self.record {
                    out.record.push((d, s, dec));
                }
            }
        }
    }
}

/// Drives every connection of `server` in parallel (connection 0 on the
/// calling thread, the rest on scoped threads).
pub fn drive_all<'a>(
    server: &mut Server,
    make: impl Fn(usize) -> Drive<'a> + Sync,
) -> Vec<ConnRun> {
    let (first, rest) = server.conns.split_at_mut(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let drive = make(i + 1);
                scope.spawn(move || drive.run(conn))
            })
            .collect();
        let mut runs = vec![make(0).run(&mut first[0])];
        for h in handles {
            runs.push(h.join().expect("client thread panicked"));
        }
        runs
    })
}

/// The warm-up: a fresh supervisor, every die driven
/// [`WARMUP_PER_DIE`] observes, then detached. Leaves each die's
/// snapshot in the store.
///
/// # Errors
///
/// Fails when the supervisor cannot start or a request fails.
pub fn warm_up(seed: u64, store: &Path) -> io::Result<()> {
    let (mut server, acked, _) = Server::start(serve_config(seed, store, false))?;
    let log = RoundLog::new(Instant::now());
    let none = vec![0; DIES];
    let runs = drive_all(&mut server, |conn| Drive {
        seed,
        conn,
        start_seq: &acked,
        limit: Limit::PerDie(WARMUP_PER_DIE),
        log: &log,
        digest_until: &none,
        record: false,
    });
    if runs.iter().any(|r| r.failed > 0) {
        return Err(io::Error::other("warm-up observes failed"));
    }
    server.stop()?;
    Ok(())
}

/// Restarts the supervisor on `store` and re-attaches every die,
/// `SETUP_REPS` times (stopping all but the last). Returns the running
/// server, each die's acked seq, and the median restart time.
///
/// # Errors
///
/// Fails when a restart or attach fails.
pub fn restart(seed: u64, store: &Path) -> io::Result<(Server, Vec<u64>, f64)> {
    let mut times = Vec::new();
    loop {
        let (server, acked, setup_s) = Server::start(serve_config(seed, store, true))?;
        times.push(setup_s);
        if times.len() == SETUP_REPS {
            return Ok((server, acked, median(&mut times)));
        }
        server.stop()?;
    }
}

/// One completed round.
#[derive(Debug, Clone, Copy)]
pub struct RoundStat {
    /// When the round's last observe was acknowledged.
    pub end: Instant,
    /// Host time of the round (s).
    pub secs: f64,
    /// Median round trip (ns).
    pub p50_ns: f64,
    /// 99th-percentile round trip (ns).
    pub p99_ns: f64,
}

struct RoundState {
    acked: u64,
    prev_end: Instant,
    latencies: Vec<f64>,
    rounds: Vec<RoundStat>,
}

/// The rounds of a closed loop, shared by every connection thread. Each
/// round's latencies are reduced to its quantiles as it completes, so
/// memory does not grow with throughput.
pub struct RoundLog {
    state: Mutex<RoundState>,
}

impl RoundLog {
    /// A log whose first round starts at `start`.
    pub fn new(start: Instant) -> RoundLog {
        RoundLog {
            state: Mutex::new(RoundState {
                acked: 0,
                prev_end: start,
                latencies: Vec::with_capacity(ROUND_OBSERVES as usize),
                rounds: Vec::new(),
            }),
        }
    }

    fn ack(&self, latency_ns: f64, now: Instant) {
        let mut s = self.state.lock().expect("round log lock");
        s.acked += 1;
        s.latencies.push(latency_ns);
        if s.acked.is_multiple_of(ROUND_OBSERVES) {
            let p50_ns = quantile(&mut s.latencies, 0.5);
            let p99_ns = quantile(&mut s.latencies, 0.99);
            let secs = (now - s.prev_end).as_secs_f64();
            s.rounds.push(RoundStat {
                end: now,
                secs,
                p50_ns,
                p99_ns,
            });
            s.prev_end = now;
            s.latencies.clear();
        }
    }

    /// Rounds completed by `stop` (while the load was saturated).
    pub fn rounds(&self, stop: Instant) -> Vec<RoundStat> {
        let s = self.state.lock().expect("round log lock");
        s.rounds.iter().copied().filter(|r| r.end <= stop).collect()
    }
}

/// Scratch paths of a serve run.
pub fn store_path(tmp: &Path) -> PathBuf {
    tmp.join("serve").join("snapshots.jsonl")
}

/// The end-to-end serve run.
pub fn run_e2e(args: &Args) -> Outcome {
    match run_e2e_inner(args) {
        Ok(out) => out,
        Err(e) => {
            let mut out = Outcome::default();
            out.check(format!("serve run completes ({e})"), false);
            out
        }
    }
}

fn run_e2e_inner(args: &Args) -> io::Result<Outcome> {
    let store = store_path(&args.tmp);
    warm_up(args.seed, &store)?;
    let (mut server, start_seq, setup_s) = restart(args.seed, &store)?;
    let digest_until: Vec<u64> = start_seq.iter().map(|s| s + DIGEST_PER_DIE).collect();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(args.seconds);
    let log = RoundLog::new(start);
    let runs = drive_all(&mut server, |conn| Drive {
        seed: args.seed,
        conn,
        start_seq: &start_seq,
        limit: Limit::Until(stop),
        log: &log,
        digest_until: &digest_until,
        record: false,
    });
    let final_stats = server.stop()?;

    let mut out = Outcome::default();
    for r in &runs {
        out.attempted += r.sent;
        out.failed += r.failed;
    }
    let acked: u64 = runs.iter().map(|r| r.acked).sum();
    let decisions: Vec<u64> = (0..DIES)
        .map(|d| runs[d % CONNECTIONS].decisions[d])
        .collect();
    let epoch = epoch_samples();
    let expected: Vec<u64> = (0..DIES)
        .map(|d| runs[d % CONNECTIONS].last_seq[d] / epoch - start_seq[d] / epoch)
        .collect();
    out.check(
        "decisions equal the epoch boundaries crossed on each die",
        decisions == expected,
    );
    out.check(
        "supervisor counted every acked observe and decision",
        final_stats.observes_total == acked
            && final_stats.decisions_total == decisions.iter().sum::<u64>(),
    );
    out.check(
        "every die got its digest prefix",
        (0..DIES).all(|d| runs[d % CONNECTIONS].last_seq[d] >= digest_until[d]),
    );
    let mut digest = Digest::default();
    for d in 0..DIES {
        digest.add(&runs[d % CONNECTIONS].digests[d].value().to_le_bytes());
    }
    out.digest = digest.value();

    let rounds = log.rounds(stop);
    out.check("at least one full round", !rounds.is_empty());
    out.notes.push(format!(
        "{} rounds of {ROUND_OBSERVES} observes, {acked} acked, {} decisions, seed {}",
        rounds.len(),
        decisions.iter().sum::<u64>(),
        args.seed
    ));
    // Simulated seconds one observe advances its die.
    let interval = ControlConfig::default().sampling_interval;
    let per_round_rate: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0}", ROUND_OBSERVES as f64 / r.secs))
        .collect();
    out.notes.push(format!(
        "observes/s per round: {}",
        per_round_rate.join(" ")
    ));
    let per_round = |f: &dyn Fn(&RoundStat) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(f).collect();
        median(&mut v)
    };
    let n = ROUND_OBSERVES as f64;
    out.metrics = metrics_of(
        &END_TO_END,
        &[
            ("wall_s", per_round(&|r| r.secs)),
            ("sim_s_per_s", per_round(&|r| n * interval / r.secs)),
            ("obs_per_s", per_round(&|r| n / r.secs)),
            ("p50_us", per_round(&|r| r.p50_ns / 1e3)),
            ("p99_us", per_round(&|r| r.p99_ns / 1e3)),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", setup_s),
        ],
    );
    Ok(out)
}
