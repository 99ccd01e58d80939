//! The serving wire protocol: newline-delimited JSON over TCP.
//!
//! One JSON object per line, tagged with a `"type"` field — the same
//! framing the dispatch protocol uses, reused here through
//! [`thermorl_dispatch::proto::WireMessage`] so both protocols share
//! `write_message` / `read_message` and their torn-line semantics.
//!
//! Clients speak first. A session begins with `attach` (answered by
//! `attached`, which reports how far a resumed session had already
//! advanced), then streams `observe` samples with strictly increasing
//! per-die sequence numbers. Every observe is answered by an `ack`; when
//! the sample closed a decision epoch, the ack carries the [`Decision`].
//! Because the supervisor snapshots sessions at decision-epoch
//! boundaries, a client that replays observes from `acked_seq + 1` after
//! a server restart receives a decision stream identical to an
//! uninterrupted run (see `session` module docs).

use thermorl_dispatch::proto::{slo_from_value, slo_to_value, TraceReport, WireMessage};
use thermorl_json::Value;
use thermorl_telemetry::SloSummary;

/// Protocol version sent in `attach`; the supervisor rejects mismatches.
pub const SERVE_PROTOCOL_VERSION: u64 = 1;

/// One epoch decision, as carried on the wire inside an `ack`.
///
/// `stress`/`aging`/`reward`/`alpha` round-trip bit-exactly (the JSON
/// layer prints shortest-round-trip floats), so two decision streams can
/// be compared for equality straight off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Decision epoch count after this decision (1-based).
    pub epoch: u64,
    /// Chosen action index in the session's action space.
    pub action: u64,
    /// Thread-assignment name of the chosen action (e.g. `packed`).
    pub assignment: String,
    /// Governor of the chosen action (e.g. `userspace[2]`).
    pub governor: String,
    /// Window stress hazard observed this epoch.
    pub stress: f64,
    /// Window aging hazard observed this epoch.
    pub aging: f64,
    /// Reward granted to the previous action.
    pub reward: f64,
    /// Learning rate at decision time.
    pub alpha: f64,
}

impl Decision {
    fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("epoch", self.epoch)
            .set("action", self.action)
            .set("assignment", self.assignment.as_str())
            .set("governor", self.governor.as_str())
            .set("stress", self.stress)
            .set("aging", self.aging)
            .set("reward", self.reward)
            .set("alpha", self.alpha);
        v
    }

    fn from_value(v: &Value) -> Result<Decision, String> {
        Ok(Decision {
            epoch: v.field("epoch")?,
            action: v.field("action")?,
            assignment: v.field("assignment")?,
            governor: v.field("governor")?,
            stress: v.field("stress")?,
            aging: v.field("aging")?,
            reward: v.field("reward")?,
            alpha: v.field("alpha")?,
        })
    }
}

/// Aggregate supervisor counters returned by `stats`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Sessions currently attached.
    pub sessions_active: u64,
    /// Sessions ever attached (including resumed ones).
    pub sessions_total: u64,
    /// Observe samples applied.
    pub observes_total: u64,
    /// Epoch decisions produced.
    pub decisions_total: u64,
    /// Session snapshots written to the store.
    pub snapshot_writes: u64,
    /// SLO state of the supervisor's `serve.request` span (all-zero when
    /// telemetry is off).
    pub slo: SloSummary,
}

/// A serve protocol message (both directions).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: open (or resume) the session for one die.
    Attach {
        /// Protocol version ([`SERVE_PROTOCOL_VERSION`]).
        protocol: u64,
        /// Die identifier; also the snapshot key in the store.
        die: String,
        /// Number of cores on the die.
        cores: usize,
        /// Number of application threads to place.
        threads: usize,
        /// Observation mode: `"power"` or `"temps"`.
        mode: String,
        /// Policy id from the zoo (`"das_dac14"` when absent — older
        /// clients keep getting the paper agent).
        policy: Option<String>,
    },
    /// Server → client: the session is live.
    Attached {
        /// Die identifier.
        die: String,
        /// Whether the session was restored from a snapshot.
        resumed: bool,
        /// Highest sequence number covered by the restored state; replay
        /// observes from `acked_seq + 1`. Zero for a fresh session.
        acked_seq: u64,
        /// Decision epochs already completed by the restored agent.
        epochs: u64,
    },
    /// Client → server: one sensor sample for an attached die.
    Observe {
        /// Die identifier.
        die: String,
        /// Per-die sequence number, starting at 1, gap-free.
        seq: u64,
        /// Per-core payload: watts in `power` mode, °C in `temps` mode.
        values: Vec<f64>,
        /// Optional W3C-style `traceparent` — the server's handling spans
        /// join the client's trace when present (and tracing is on).
        trace: Option<String>,
    },
    /// Server → client: the observe was processed.
    Ack {
        /// Die identifier.
        die: String,
        /// Echoed sequence number.
        seq: u64,
        /// True when `seq` was at or below the session's high-water mark
        /// (a retransmit); the sample was not re-applied.
        duplicate: bool,
        /// Present when this sample closed a decision epoch.
        decision: Option<Decision>,
    },
    /// Client → server: close the session (snapshots it first).
    Detach {
        /// Die identifier.
        die: String,
    },
    /// Server → client: the session is closed.
    Detached {
        /// Die identifier.
        die: String,
        /// Decision epochs the session had completed.
        epochs: u64,
    },
    /// Client → server: report supervisor counters.
    Stats,
    /// Server → client: the counters.
    Report(StatsReport),
    /// Client → server: report sampled traces and the request-span SLO.
    Trace {
        /// Upper bound on slowest/recent rows returned.
        max: u64,
    },
    /// Server → client: sampled traces and request SLO.
    Traces(TraceReport),
    /// Client → server: stop the supervisor. `hard` skips the final
    /// snapshot pass, simulating a crash.
    Shutdown {
        /// Skip final snapshots when true.
        hard: bool,
    },
    /// Server → client: shutdown acknowledged.
    ShuttingDown,
    /// Server → client: the request failed.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl WireMessage for Message {
    fn to_line(&self) -> String {
        let mut v = Value::object();
        match self {
            Message::Attach {
                protocol,
                die,
                cores,
                threads,
                mode,
                policy,
            } => {
                v.set("type", "attach")
                    .set("protocol", *protocol)
                    .set("die", die.as_str())
                    .set("cores", *cores)
                    .set("threads", *threads)
                    .set("mode", mode.as_str());
                if let Some(policy) = policy {
                    v.set("policy", policy.as_str());
                }
            }
            Message::Attached {
                die,
                resumed,
                acked_seq,
                epochs,
            } => {
                v.set("type", "attached")
                    .set("die", die.as_str())
                    .set("resumed", *resumed)
                    .set("acked_seq", *acked_seq)
                    .set("epochs", *epochs);
            }
            Message::Observe {
                die,
                seq,
                values,
                trace,
            } => {
                v.set("type", "observe")
                    .set("die", die.as_str())
                    .set("seq", *seq)
                    .set("values", values.as_slice());
                if let Some(trace) = trace {
                    v.set("trace", trace.as_str());
                }
            }
            Message::Ack {
                die,
                seq,
                duplicate,
                decision,
            } => {
                v.set("type", "ack")
                    .set("die", die.as_str())
                    .set("seq", *seq)
                    .set("duplicate", *duplicate);
                if let Some(decision) = decision {
                    v.set("decision", decision.to_value());
                }
            }
            Message::Detach { die } => {
                v.set("type", "detach").set("die", die.as_str());
            }
            Message::Detached { die, epochs } => {
                v.set("type", "detached")
                    .set("die", die.as_str())
                    .set("epochs", *epochs);
            }
            Message::Stats => {
                v.set("type", "stats");
            }
            Message::Report(report) => {
                v.set("type", "stats_report")
                    .set("sessions_active", report.sessions_active)
                    .set("sessions_total", report.sessions_total)
                    .set("observes_total", report.observes_total)
                    .set("decisions_total", report.decisions_total)
                    .set("snapshot_writes", report.snapshot_writes)
                    .set("slo", slo_to_value(&report.slo));
            }
            Message::Trace { max } => {
                v.set("type", "trace").set("max", *max);
            }
            Message::Traces(report) => {
                v = report.to_value();
                v.set("type", "trace_report");
            }
            Message::Shutdown { hard } => {
                v.set("type", "shutdown").set("hard", *hard);
            }
            Message::ShuttingDown => {
                v.set("type", "shutting_down");
            }
            Message::Error { message } => {
                v.set("type", "error").set("message", message.as_str());
            }
        }
        v.to_json()
    }

    fn parse(line: &str) -> Result<Message, String> {
        let v = Value::parse(line).map_err(|e| format!("invalid message JSON: {}", e.0))?;
        match v.field::<&str>("type")? {
            "attach" => Ok(Message::Attach {
                protocol: v.field("protocol")?,
                die: v.field("die")?,
                cores: v.field("cores")?,
                threads: v.field("threads")?,
                mode: v.field("mode")?,
                policy: v.opt_field("policy")?,
            }),
            "attached" => Ok(Message::Attached {
                die: v.field("die")?,
                resumed: v.field("resumed")?,
                acked_seq: v.field("acked_seq")?,
                epochs: v.field("epochs")?,
            }),
            "observe" => Ok(Message::Observe {
                die: v.field("die")?,
                seq: v.field("seq")?,
                values: v.field("values")?,
                trace: v.opt_field("trace")?,
            }),
            "ack" => Ok(Message::Ack {
                die: v.field("die")?,
                seq: v.field("seq")?,
                duplicate: v.field("duplicate")?,
                decision: v
                    .opt_field::<&Value>("decision")?
                    .map(Decision::from_value)
                    .transpose()?,
            }),
            "detach" => Ok(Message::Detach {
                die: v.field("die")?,
            }),
            "detached" => Ok(Message::Detached {
                die: v.field("die")?,
                epochs: v.field("epochs")?,
            }),
            "stats" => Ok(Message::Stats),
            "stats_report" => Ok(Message::Report(StatsReport {
                sessions_active: v.field("sessions_active")?,
                sessions_total: v.field("sessions_total")?,
                observes_total: v.field("observes_total")?,
                decisions_total: v.field("decisions_total")?,
                snapshot_writes: v.field("snapshot_writes")?,
                slo: slo_from_value(v.field("slo")?)?,
            })),
            "trace" => Ok(Message::Trace {
                max: v.field("max")?,
            }),
            "trace_report" => Ok(Message::Traces(TraceReport::from_value(&v)?)),
            "shutdown" => Ok(Message::Shutdown {
                hard: v.field("hard")?,
            }),
            "shutting_down" => Ok(Message::ShuttingDown),
            "error" => Ok(Message::Error {
                message: v.field("message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_dispatch::proto::read_message;

    fn round_trip(msg: Message) {
        let line = msg.to_line();
        assert!(!line.contains('\n'), "one line: {line:?}");
        let back = Message::parse(&line).expect("parse");
        assert_eq!(back, msg, "round trip of {line}");
    }

    /// One message of every kind, some in more than one shape.
    fn every_kind() -> Vec<Message> {
        vec![
            Message::Attach {
                protocol: SERVE_PROTOCOL_VERSION,
                die: "die-3".into(),
                cores: 4,
                threads: 4,
                mode: "power".into(),
                policy: None,
            },
            Message::Attach {
                protocol: SERVE_PROTOCOL_VERSION,
                die: "die-3".into(),
                cores: 4,
                threads: 4,
                mode: "power".into(),
                policy: Some("ucb1".into()),
            },
            Message::Attached {
                die: "die-3".into(),
                resumed: true,
                acked_seq: 40,
                epochs: 4,
            },
            Message::Observe {
                die: "die-3".into(),
                seq: 41,
                values: vec![3.5, 0.25, 1.0e-9, 12.125],
                trace: None,
            },
            Message::Observe {
                die: "die-3".into(),
                seq: 42,
                values: vec![3.5],
                trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
            },
            Message::Ack {
                die: "die-3".into(),
                seq: 41,
                duplicate: false,
                decision: None,
            },
            Message::Ack {
                die: "die-3".into(),
                seq: 50,
                duplicate: false,
                decision: Some(Decision {
                    epoch: 5,
                    action: 7,
                    assignment: "packed".into(),
                    governor: "userspace[2]".into(),
                    stress: 0.123456789,
                    aging: 1.0 / 3.0,
                    reward: -0.875,
                    alpha: 0.2,
                }),
            },
            Message::Detach {
                die: "die-3".into(),
            },
            Message::Detached {
                die: "die-3".into(),
                epochs: 5,
            },
            Message::Stats,
            Message::Report(StatsReport {
                sessions_active: 2,
                sessions_total: 9,
                observes_total: 1000,
                decisions_total: 100,
                snapshot_writes: 25,
                slo: SloSummary {
                    count: 1000,
                    p50_ns: 8192,
                    p99_ns: 131_072,
                    objective_ns: 1_000_000,
                    target: 0.99,
                    over_objective: 3,
                    error_rate: 0.003,
                    budget_burn: 0.3,
                },
            }),
            Message::Trace { max: 8 },
            Message::Traces(TraceReport {
                slo: SloSummary {
                    objective_ns: 1_000_000,
                    target: 0.99,
                    ..SloSummary::default()
                },
                slowest: vec![thermorl_telemetry::TraceSummary {
                    trace_id: 0xAB,
                    root_name: "client.observe".into(),
                    start_us: 4,
                    dur_us: 900,
                    spans: 4,
                    orphans: 0,
                }],
                recent: vec![],
            }),
            Message::Shutdown { hard: true },
            Message::ShuttingDown,
            Message::Error {
                message: "no such die".into(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for message in every_kind() {
            round_trip(message);
        }
    }

    /// Every prefix of a real line of each kind parses to `Ok` or `Err`,
    /// never a panic.
    #[test]
    fn parse_never_panics_on_line_prefixes() {
        for message in every_kind() {
            let line = message.to_line();
            for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
                let _ = Message::parse(&line[..end]);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Real lines with random byte edits (a byte overwritten,
        /// inserted or deleted; invalid UTF-8 included): the framed
        /// reader and, for text that is still UTF-8, `Message::parse`
        /// return `Ok` or `Err`, never a panic.
        #[test]
        fn parse_never_panics_on_byte_edits(
            kind in 0usize..64,
            edits in proptest::collection::vec((0usize..4096, 0u8..=255, 0u8..3), 1..8),
        ) {
            let kinds = every_kind();
            let mut bytes = kinds[kind % kinds.len()].to_line().into_bytes();
            for (at, byte, op) in edits {
                let at = at % (bytes.len() + 1);
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            if let Ok(text) = std::str::from_utf8(&bytes) {
                let _ = Message::parse(text);
            }
            let _ = read_message::<_, Message>(&mut std::io::Cursor::new(bytes));
        }
    }

    #[test]
    fn decision_floats_round_trip_bit_exactly() {
        let d = Decision {
            epoch: 1,
            action: 0,
            assignment: "os-default".into(),
            governor: "ondemand".into(),
            stress: 0.1 + 0.2, // not representable exactly; bits must survive
            aging: f64::MIN_POSITIVE,
            reward: -1.0e300,
            alpha: 0.3333333333333333,
        };
        let msg = Message::Ack {
            die: "d".into(),
            seq: 10,
            duplicate: false,
            decision: Some(d.clone()),
        };
        let back = Message::parse(&msg.to_line()).expect("parse");
        match back {
            Message::Ack {
                decision: Some(got),
                ..
            } => {
                assert_eq!(got.stress.to_bits(), d.stress.to_bits());
                assert_eq!(got.aging.to_bits(), d.aging.to_bits());
                assert_eq!(got.reward.to_bits(), d.reward.to_bits());
                assert_eq!(got.alpha.to_bits(), d.alpha.to_bits());
            }
            other => panic!("unexpected message: {other:?}"),
        }
    }

    #[test]
    fn unknown_and_missing_fields_error() {
        assert!(Message::parse("{\"type\":\"warp\"}").is_err());
        assert!(Message::parse("{\"die\":\"d\"}").is_err());
        assert!(Message::parse("{\"type\":\"observe\",\"die\":\"d\"}").is_err());
        assert!(Message::parse("not json").is_err());
    }
}
