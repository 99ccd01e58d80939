//! Loopback tests of the serving supervisor: full TCP round trips, the
//! kill-and-restart recovery contract, the soft-shutdown snapshot pass,
//! concurrent clients on one shard, stats, telemetry, and the wire error
//! paths.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::TcpStream;
use std::ops::{Range, RangeInclusive};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread;

use thermorl_dispatch::proto::{read_message, write_message};
use thermorl_runner::shard_of;
use thermorl_serve::bench::power_values;
use thermorl_serve::{
    Decision, Message, ServeConfig, Supervisor, SupervisorHandle, SERVE_PROTOCOL_VERSION,
};
use thermorl_telemetry as tel;

const CORES: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "thermorl-serve-loopback-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn config(store: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        addr_file: None,
        store: store.to_path_buf(),
        resume: true,
        shards: 2,
        seed: 99,
        snapshot_every: 1,
        epoch_samples: 3,
        slo_objective_us: 1000,
        quiet: true,
    }
}

fn die_name(i: usize) -> String {
    format!("die-{i}")
}

/// A synchronous request/reply client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &SupervisorHandle) -> Client {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, msg: &Message) -> Message {
        write_message(&mut self.writer, msg).expect("write");
        read_message::<_, Message>(&mut self.reader)
            .expect("read")
            .expect("reply")
    }

    /// Attaches `die` in power mode; returns `(resumed, acked_seq)`.
    fn attach(&mut self, die: &str) -> (bool, u64) {
        match self.roundtrip(&Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: die.into(),
            cores: CORES,
            threads: CORES,
            mode: "power".into(),
            policy: None,
        }) {
            Message::Attached {
                resumed, acked_seq, ..
            } => (resumed, acked_seq),
            other => panic!("attach got {other:?}"),
        }
    }

    /// Attaches `die` in power mode under a named zoo policy.
    fn attach_policy(&mut self, die: &str, policy: &str) -> Message {
        self.roundtrip(&Message::Attach {
            protocol: SERVE_PROTOCOL_VERSION,
            die: die.into(),
            cores: CORES,
            threads: CORES,
            mode: "power".into(),
            policy: Some(policy.into()),
        })
    }

    /// Sends one observe; returns the epoch decision if one closed.
    fn observe(&mut self, die_idx: usize, seq: u64) -> Option<Decision> {
        let die = die_name(die_idx);
        match self.roundtrip(&Message::Observe {
            die: die.clone(),
            seq,
            values: power_values(die_idx, seq, CORES),
            trace: None,
        }) {
            Message::Ack {
                seq: got,
                duplicate,
                decision,
                ..
            } => {
                assert_eq!(got, seq);
                assert!(!duplicate, "seq {seq} of {die} unexpectedly duplicate");
                decision
            }
            other => panic!("observe got {other:?}"),
        }
    }
}

/// Drives `seqs` for every die in `dies` in lockstep, collecting each
/// die's decision stream as `(seq, decision)` pairs.
fn drive(
    client: &mut Client,
    dies: Range<usize>,
    seqs: RangeInclusive<u64>,
) -> HashMap<usize, Vec<(u64, Decision)>> {
    let mut streams: HashMap<usize, Vec<(u64, Decision)>> = HashMap::new();
    for seq in seqs {
        for d in dies.clone() {
            if let Some(decision) = client.observe(d, seq) {
                streams.entry(d).or_default().push((seq, decision));
            }
        }
    }
    streams
}

/// The tentpole contract: a supervisor that is hard-killed mid-run and
/// restarted from its snapshot store produces — after the client replays
/// from `acked_seq + 1` — decision streams identical to a supervisor
/// that never went down.
#[test]
fn kill_and_restart_reproduces_the_decision_stream() {
    const DIES: usize = 3;
    const TOTAL: u64 = 30;
    const CUT: u64 = 17;
    let dir = temp_dir("kill-restart");

    // Reference: one uninterrupted run over the full observe stream.
    let reference = {
        let handle = Supervisor::spawn(config(&dir.join("ref.jsonl"))).expect("spawn");
        let mut client = Client::connect(&handle);
        for d in 0..DIES {
            assert_eq!(client.attach(&die_name(d)), (false, 0));
        }
        let streams = drive(&mut client, 0..DIES, 1..=TOTAL);
        assert_eq!(
            client.roundtrip(&Message::Shutdown { hard: false }),
            Message::ShuttingDown
        );
        handle.join().expect("join");
        streams
    };
    assert!(
        reference.values().all(|s| s.len() as u64 == TOTAL / 3),
        "every die decides once per epoch_samples"
    );

    // Interrupted: same seed, same store dir, killed hard at CUT.
    let store = dir.join("victim.jsonl");
    let before_kill = {
        let handle = Supervisor::spawn(config(&store)).expect("spawn");
        let mut client = Client::connect(&handle);
        for d in 0..DIES {
            assert_eq!(client.attach(&die_name(d)), (false, 0));
        }
        let streams = drive(&mut client, 0..DIES, 1..=CUT);
        // Hard shutdown: no final snapshot pass — states newer than the
        // last periodic snapshot are lost, exactly as in a crash.
        handle.shutdown(true);
        handle.join().expect("join");
        streams
    };

    // Restart from the store, replay from acked_seq + 1, run to TOTAL.
    let handle = Supervisor::spawn(config(&store)).expect("respawn");
    let mut client = Client::connect(&handle);
    let mut acked = None;
    for d in 0..DIES {
        let (resumed, acked_seq) = client.attach(&die_name(d));
        assert!(resumed, "die {d} must resume from its snapshot");
        assert!(
            acked_seq > 0 && acked_seq < CUT,
            "snapshot covers part of the interrupted run (got {acked_seq})"
        );
        // Lockstep drive + per-epoch snapshots put every die at the same
        // boundary.
        assert_eq!(*acked.get_or_insert(acked_seq), acked_seq);
    }
    let acked = acked.expect("at least one die");
    let after_restart = drive(&mut client, 0..DIES, acked + 1..=TOTAL);
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: false }),
        Message::ShuttingDown
    );
    handle.join().expect("join");

    for d in 0..DIES {
        let reference = &reference[&d];
        let replayed = after_restart.get(&d).map(Vec::as_slice).unwrap_or(&[]);
        // The stitched stream: decisions the victim produced up to the
        // snapshot, then everything the restarted supervisor produced.
        let mut stitched: Vec<(u64, Decision)> = before_kill
            .get(&d)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .filter(|(seq, _)| *seq <= acked)
            .cloned()
            .collect();
        stitched.extend(replayed.iter().cloned());
        assert_eq!(
            &stitched, reference,
            "die {d}: stitched decision stream must equal the uninterrupted one"
        );
        // And the replayed overlap (acked+1 ..= CUT) reproduces what the
        // victim had already decided, bit for bit.
        let victim_tail: Vec<(u64, Decision)> = before_kill[&d]
            .iter()
            .filter(|(seq, _)| *seq > acked)
            .cloned()
            .collect();
        let replay_overlap: Vec<(u64, Decision)> = replayed
            .iter()
            .filter(|(seq, _)| *seq <= CUT)
            .cloned()
            .collect();
        assert_eq!(replay_overlap, victim_tail, "die {d}: replay overlap");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Die `d`'s decision stream over `seqs`, driven alone on a fresh
/// one-shard supervisor with the test seed.
fn alone(store: &Path, d: usize, seqs: RangeInclusive<u64>) -> Vec<(u64, Decision)> {
    let handle = Supervisor::spawn(ServeConfig {
        shards: 1,
        ..config(store)
    })
    .expect("spawn");
    let mut client = Client::connect(&handle);
    assert_eq!(client.attach(&die_name(d)), (false, 0));
    let stream = drive(&mut client, d..d + 1, seqs)
        .remove(&d)
        .unwrap_or_default();
    handle.shutdown(true);
    handle.join().expect("join");
    stream
}

/// Four clients released together on a one-shard supervisor, two dies
/// each: every die's decision stream equals the same die driven alone,
/// so requests for different dies that share a shard never touch each
/// other's sessions.
#[test]
fn concurrent_clients_on_one_shard_match_each_die_driven_alone() {
    const CONNS: usize = 4;
    const PER_CONN: usize = 2;
    const TOTAL: u64 = 30;
    let dir = temp_dir("one-shard");
    let handle = Supervisor::spawn(ServeConfig {
        shards: 1,
        ..config(&dir.join("shared.jsonl"))
    })
    .expect("spawn");
    let gate = Barrier::new(CONNS);
    let streams: HashMap<usize, Vec<(u64, Decision)>> = thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|c| {
                let (handle, gate) = (&handle, &gate);
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    let dies = c * PER_CONN..(c + 1) * PER_CONN;
                    gate.wait();
                    for d in dies.clone() {
                        assert_eq!(client.attach(&die_name(d)), (false, 0));
                    }
                    drive(&mut client, dies, 1..=TOTAL)
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    handle.shutdown(true);
    handle.join().expect("join");

    for d in 0..CONNS * PER_CONN {
        let alone = alone(&dir.join(format!("alone-{d}.jsonl")), d, 1..=TOTAL);
        assert_eq!(alone.len() as u64, TOTAL / 3, "one decision per epoch");
        assert_eq!(streams[&d], alone, "die {d}: concurrent stream");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Two clients released together send the same `(die, seq)` stream, one
/// observe in flight each. Every seq is applied exactly once (the other
/// copy is acked as a duplicate), and the decisions of the applied copies
/// equal the die driven alone: several clients can share a die without
/// corrupting its stream.
#[test]
fn two_clients_sharing_a_die_apply_each_seq_once() {
    const TOTAL: u64 = 60;
    let dir = temp_dir("shared-die");
    let handle = Supervisor::spawn(config(&dir.join("shared.jsonl"))).expect("spawn");
    assert_eq!(Client::connect(&handle).attach(&die_name(0)), (false, 0));
    let gate = Barrier::new(2);
    let acks: Vec<(u64, bool, Option<Decision>)> = thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                let (handle, gate) = (&handle, &gate);
                scope.spawn(move || {
                    let mut client = Client::connect(handle);
                    gate.wait();
                    (1..=TOTAL)
                        .map(|seq| {
                            match client.roundtrip(&Message::Observe {
                                die: die_name(0),
                                seq,
                                values: power_values(0, seq, CORES),
                                trace: None,
                            }) {
                                Message::Ack {
                                    seq: got,
                                    duplicate,
                                    decision,
                                    ..
                                } if got == seq => (seq, duplicate, decision),
                                other => panic!("observe {seq} got {other:?}"),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    handle.shutdown(true);
    handle.join().expect("join");

    let mut applied: Vec<(u64, Option<Decision>)> = acks
        .into_iter()
        .filter(|(_, duplicate, _)| !duplicate)
        .map(|(seq, _, decision)| (seq, decision))
        .collect();
    applied.sort_by_key(|(seq, _)| *seq);
    let seqs: Vec<u64> = applied.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(
        seqs,
        (1..=TOTAL).collect::<Vec<_>>(),
        "each seq applied once"
    );
    let decisions: Vec<(u64, Decision)> = applied
        .into_iter()
        .filter_map(|(seq, decision)| Some((seq, decision?)))
        .collect();
    assert_eq!(decisions, alone(&dir.join("alone.jsonl"), 0, 1..=TOTAL));
    std::fs::remove_dir_all(&dir).ok();
}

/// A soft shutdown snapshots every live session, so a die that was never
/// detached resumes at its last acked seq. A hard shutdown skips that
/// pass: the die resumes from its last periodic snapshot, strictly below.
#[test]
fn soft_shutdown_snapshots_live_sessions_and_hard_does_not() {
    const DIES: usize = 4;
    // Epochs of 3 samples, a snapshot every epoch: 17 falls after the
    // periodic snapshot at 15.
    const LAST: u64 = 17;
    let shards = config(Path::new("store.jsonl")).shards;
    let used: HashSet<usize> = (0..DIES).map(|d| shard_of(&die_name(d), shards)).collect();
    assert_eq!(used.len(), shards, "the dies cover every shard");
    for hard in [false, true] {
        let dir = temp_dir(if hard { "hard-stop" } else { "soft-stop" });
        let store = dir.join("store.jsonl");
        let handle = Supervisor::spawn(config(&store)).expect("spawn");
        let mut client = Client::connect(&handle);
        for d in 0..DIES {
            assert_eq!(client.attach(&die_name(d)), (false, 0));
        }
        drive(&mut client, 0..DIES, 1..=LAST);
        handle.shutdown(hard);
        handle.join().expect("join");

        let handle = Supervisor::spawn(config(&store)).expect("respawn");
        let mut client = Client::connect(&handle);
        for d in 0..DIES {
            let (resumed, acked_seq) = client.attach(&die_name(d));
            assert!(resumed, "die {d} resumes (hard: {hard})");
            if hard {
                assert!(
                    acked_seq > 0 && acked_seq < LAST,
                    "die {d} after a hard stop resumes at {acked_seq}"
                );
            } else {
                assert_eq!(acked_seq, LAST, "die {d} after a soft stop");
            }
        }
        handle.shutdown(true);
        handle.join().expect("join");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A kill -9 in the middle of a snapshot of a die with a non-ASCII id
/// leaves a tail torn inside a multi-byte character. The supervisor
/// still starts on that store, and every intact die resumes.
#[test]
fn restart_on_a_tail_torn_inside_a_character_resumes_the_intact_dies() {
    const DIES: usize = 3;
    let dir = temp_dir("torn-utf8");
    let store = dir.join("store.jsonl");
    let handle = Supervisor::spawn(config(&store)).expect("spawn");
    let mut client = Client::connect(&handle);
    for d in 0..DIES {
        assert_eq!(client.attach(&die_name(d)), (false, 0));
    }
    drive(&mut client, 0..DIES, 1..=6);
    handle.shutdown(true);
    handle.join().expect("join");
    // `die-Ω`'s snapshot, cut after the first byte of `Ω` (0xCE 0xA9).
    let mut bytes = std::fs::read(&store).expect("read store");
    bytes.extend_from_slice(b"{\"key\":\"die-\xCE");
    std::fs::write(&store, bytes).expect("tear store");

    let handle = Supervisor::spawn(config(&store)).expect("respawn on the torn store");
    let mut client = Client::connect(&handle);
    for d in 0..DIES {
        let (resumed, acked_seq) = client.attach(&die_name(d));
        assert!(resumed && acked_seq > 0, "die {d} resumes at {acked_seq}");
    }
    assert_eq!(
        client.attach("die-Ω"),
        (false, 0),
        "the torn die starts fresh"
    );
    handle.shutdown(true);
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// Serve metrics reach both telemetry export formats (JSON keeps dotted
/// names, Prometheus sanitizes them), and the stats message agrees.
#[test]
fn metrics_flow_to_stats_json_and_prometheus() {
    let dir = temp_dir("metrics");
    tel::set_enabled(true);
    let baseline = tel::snapshot();

    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);
    assert_eq!(client.attach("m-die"), (false, 0));
    let mut decisions = 0;
    for seq in 1..=6u64 {
        match client.roundtrip(&Message::Observe {
            die: "m-die".into(),
            seq,
            values: power_values(0, seq, CORES),
            trace: None,
        }) {
            Message::Ack { decision, .. } => decisions += u64::from(decision.is_some()),
            other => panic!("observe got {other:?}"),
        }
    }
    assert_eq!(decisions, 2, "6 samples at epoch_samples=3");

    // Counters via the stats message...
    match client.roundtrip(&Message::Stats) {
        Message::Report(report) => {
            assert_eq!(report.sessions_active, 1);
            assert!(report.observes_total >= 6);
            assert!(report.decisions_total >= 2);
            assert!(report.snapshot_writes >= 2, "snapshot_every=1 epoch");
        }
        other => panic!("stats got {other:?}"),
    }

    // ...and via the telemetry registry, in both export formats.
    let delta = tel::snapshot().since(&baseline);
    let json = delta.to_json();
    assert!(json.contains("\"serve.decisions_total\""), "json: {json}");
    assert!(json.contains("\"serve.snapshot_writes\""), "json: {json}");
    assert!(json.contains("serve.request"), "request span in {json}");
    let full = tel::snapshot();
    assert!(full.to_json().contains("\"serve.sessions_active\""));
    let prom = full.to_prometheus();
    assert!(prom.contains("serve_decisions_total"), "prom: {prom}");
    assert!(prom.contains("serve_sessions_active"), "prom: {prom}");
    assert!(prom.contains("serve_snapshot_writes"), "prom: {prom}");

    match client.roundtrip(&Message::Detach {
        die: "m-die".into(),
    }) {
        Message::Detached { epochs, .. } => assert_eq!(epochs, 2),
        other => panic!("detach got {other:?}"),
    }
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: false }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// A die attached under a zoo policy keeps that brain across a hard
/// kill: the snapshot store records the policy id, the restarted
/// supervisor restores the same contender, and re-attaching under a
/// different policy (or an unknown one) is rejected instead of silently
/// swapping brains mid-run.
#[test]
fn zoo_policy_attach_survives_restart_and_rejects_mismatch() {
    let dir = temp_dir("zoo-policy");
    let store = dir.join("store.jsonl");

    {
        let handle = Supervisor::spawn(config(&store)).expect("spawn");
        let mut client = Client::connect(&handle);
        match client.attach_policy("z", "ucb1") {
            Message::Attached { resumed: false, .. } => {}
            other => panic!("fresh zoo attach got {other:?}"),
        }
        match client.attach_policy("z", "thompson") {
            Message::Error { message } => {
                assert!(message.contains("different shape"), "{message}")
            }
            other => panic!("mismatched re-attach got {other:?}"),
        }
        match client.attach_policy("z2", "not-a-policy") {
            Message::Error { message } => {
                assert!(message.contains("unknown policy"), "{message}")
            }
            other => panic!("unknown policy attach got {other:?}"),
        }
        for seq in 1..=7u64 {
            client.roundtrip(&Message::Observe {
                die: "z".into(),
                seq,
                values: power_values(0, seq, CORES),
                trace: None,
            });
        }
        handle.shutdown(true);
        handle.join().expect("join");
    }

    let handle = Supervisor::spawn(config(&store)).expect("respawn");
    let mut client = Client::connect(&handle);
    // The snapshot pins the policy: the wrong id cannot adopt the state…
    match client.attach_policy("z", "egreedy") {
        Message::Error { message } => assert!(message.contains("shape"), "{message}"),
        other => panic!("wrong-policy resume got {other:?}"),
    }
    // …while the original id resumes from the last epoch snapshot.
    match client.attach_policy("z", "ucb1") {
        Message::Attached {
            resumed: true,
            acked_seq,
            ..
        } => assert!(acked_seq > 0, "snapshot covers the interrupted run"),
        other => panic!("zoo resume got {other:?}"),
    }
    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: false }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire error paths: bad protocol, unattached dies, sequence gaps,
/// retransmits, and shape mismatches all answer cleanly.
#[test]
fn protocol_errors_answer_cleanly() {
    let dir = temp_dir("errors");
    let handle = Supervisor::spawn(config(&dir.join("store.jsonl"))).expect("spawn");
    let mut client = Client::connect(&handle);

    let err = |m: Message| match m {
        Message::Error { message } => message,
        other => panic!("expected error, got {other:?}"),
    };

    let msg = err(client.roundtrip(&Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION + 1,
        die: "e".into(),
        cores: CORES,
        threads: CORES,
        mode: "power".into(),
        policy: None,
    }));
    assert!(msg.contains("protocol mismatch"), "{msg}");

    let msg = err(client.roundtrip(&Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION,
        die: "e".into(),
        cores: CORES,
        threads: CORES,
        mode: "psychic".into(),
        policy: None,
    }));
    assert!(msg.contains("unknown session mode"), "{msg}");

    let msg = err(client.roundtrip(&Message::Observe {
        die: "ghost".into(),
        seq: 1,
        values: vec![1.0; CORES],
        trace: None,
    }));
    assert!(msg.contains("not attached"), "{msg}");

    assert_eq!(client.attach("e"), (false, 0));
    // Re-attach with a different shape is rejected; same shape is
    // idempotent.
    let msg = err(client.roundtrip(&Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION,
        die: "e".into(),
        cores: CORES + 1,
        threads: CORES,
        mode: "power".into(),
        policy: None,
    }));
    assert!(msg.contains("different shape"), "{msg}");
    assert_eq!(client.attach("e"), (true, 0));

    let msg = err(client.roundtrip(&Message::Observe {
        die: "e".into(),
        seq: 5,
        values: vec![1.0; CORES],
        trace: None,
    }));
    assert!(msg.contains("sequence gap"), "{msg}");

    let first = client.roundtrip(&Message::Observe {
        die: "e".into(),
        seq: 1,
        values: vec![1.0; CORES],
        trace: None,
    });
    assert!(matches!(
        first,
        Message::Ack {
            duplicate: false,
            ..
        }
    ));
    let retransmit = client.roundtrip(&Message::Observe {
        die: "e".into(),
        seq: 1,
        values: vec![1.0; CORES],
        trace: None,
    });
    assert!(matches!(
        retransmit,
        Message::Ack {
            duplicate: true,
            ..
        }
    ));

    let msg = err(client.roundtrip(&Message::Detach {
        die: "ghost".into(),
    }));
    assert!(msg.contains("not attached"), "{msg}");

    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

/// Attach shapes the platform cannot build (0 or more than 64 cores, no
/// threads) and observes carrying non-finite values, in power and temps
/// mode, are answered with an error. None of them takes down the shard:
/// a die attached earlier on the same (only) shard keeps getting acks
/// and decisions.
#[test]
fn bad_shapes_and_non_finite_values_get_errors_not_a_dead_shard() {
    let dir = temp_dir("bad-input");
    let handle = Supervisor::spawn(ServeConfig {
        shards: 1,
        ..config(&dir.join("store.jsonl"))
    })
    .expect("spawn");
    let mut client = Client::connect(&handle);
    let attach = |die: &str, cores, threads, mode: &str| Message::Attach {
        protocol: SERVE_PROTOCOL_VERSION,
        die: die.into(),
        cores,
        threads,
        mode: mode.into(),
        policy: None,
    };
    let observe = |die: &str, seq, values: Vec<f64>| Message::Observe {
        die: die.into(),
        seq,
        values,
        trace: None,
    };
    let is_error =
        |m: &Message| matches!(m, Message::Error { message } if !message.contains("shutting down"));

    assert_eq!(client.attach(&die_name(0)), (false, 0));
    assert!(client.observe(0, 1).is_none());

    for (cores, threads) in [(0, 1), (65, 4), (CORES, 0)] {
        let reply = client.roundtrip(&attach("bad", cores, threads, "power"));
        assert!(
            is_error(&reply),
            "{cores} cores, {threads} threads: {reply:?}"
        );
    }

    // A rejected observe leaves the session where it was: the same seq
    // with finite values is applied next.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut values = power_values(0, 2, CORES);
        values[1] = bad;
        let reply = client.roundtrip(&observe(&die_name(0), 2, values));
        assert!(is_error(&reply), "power {bad}: {reply:?}");
    }
    let temps = attach("temps-die", CORES, CORES, "temps");
    assert!(matches!(client.roundtrip(&temps), Message::Attached { .. }));
    for seq in 1..=3 {
        let reply = client.roundtrip(&observe("temps-die", seq, vec![f64::NAN; CORES]));
        assert!(is_error(&reply), "temps seq {seq}: {reply:?}");
    }

    // The shard is alive: the first die runs on through several epochs.
    let decisions = (2..=9).filter_map(|seq| client.observe(0, seq)).count();
    assert!(decisions >= 2, "{decisions} decisions after the bad input");
    let reply = client.roundtrip(&observe("temps-die", 1, vec![50.0; CORES]));
    assert!(matches!(reply, Message::Ack { .. }), "{reply:?}");

    assert_eq!(
        client.roundtrip(&Message::Shutdown { hard: true }),
        Message::ShuttingDown
    );
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}
