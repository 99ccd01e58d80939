//! The wire protocol: newline-delimited JSON messages over TCP.
//!
//! Every message is one JSON object on one line, tagged with a `"type"`
//! field. Workers speak first (`hello`), then loop on `lease_request` →
//! `grant`/`wait`/`done`; `heartbeat` and `result` are fire-and-forget
//! (no response), which keeps the worker's writer shareable between its
//! main loop and its heartbeat thread without any read multiplexing.
//! Control clients send `status` or `drain` and read one `status_report`
//! back.
//!
//! Result lines travel **verbatim**: a worker serialises the finished
//! [`thermorl_runner::JobRecord`] with the campaign codec into exactly
//! the line a local checkpoint would contain, and the coordinator appends
//! that string to the shared store without decoding the payload. The
//! store therefore stays codec-free (like `checkpoint::merge`) and the
//! final checkpoint is byte-identical to a serial run's, sorted by key.

use std::io::{self, BufRead, Read, Write};

use thermorl_json::Value;
use thermorl_telemetry::{slo_summary, summarize_traces, SloConfig, SloSummary, TraceSummary};

/// Protocol version sent in `hello`; the coordinator rejects mismatches
/// so a stale worker binary fails loudly instead of mis-running jobs.
pub const PROTOCOL_VERSION: u64 = 1;

/// A message type that frames as one JSON line — the contract
/// [`write_message`] / [`read_message`] work against, so other NDJSON
/// protocols in the workspace (e.g. `thermorl-serve`) reuse this module's
/// framing instead of reimplementing it.
pub trait WireMessage: Sized {
    /// Encodes the message as its single-line JSON form (no newline).
    fn to_line(&self) -> String;

    /// Decodes one line back into a message.
    ///
    /// # Errors
    ///
    /// Fails on invalid JSON, a missing/unknown `type` tag, or missing
    /// required fields.
    fn parse(line: &str) -> Result<Self, String>;
}

/// Required 16-hex-digit id field of a parsed message object. Trace and
/// span ids travel as hex strings (not JSON numbers) so they survive
/// readers that coerce every number through an `f64`.
///
/// # Errors
///
/// Fails when the field is missing, not a string, or not valid hex.
pub fn hex_id_field(v: &Value, name: &str) -> Result<u64, String> {
    let s: &str = v.field(name)?;
    u64::from_str_radix(s, 16).map_err(|_| format!("bad hex id in field {name:?}"))
}

/// Renders an SLO summary as a JSON object — the shared shape of the
/// serve and dispatch `stats`/`trace` replies.
pub fn slo_to_value(slo: &SloSummary) -> Value {
    let mut v = Value::object();
    v.set("count", slo.count)
        .set("p50_ns", slo.p50_ns)
        .set("p99_ns", slo.p99_ns)
        .set("objective_ns", slo.objective_ns)
        .set("target", slo.target)
        .set("over_objective", slo.over_objective)
        .set("error_rate", slo.error_rate)
        .set("budget_burn", slo.budget_burn);
    v
}

/// Parses an SLO summary object back ([`slo_to_value`]'s inverse).
///
/// # Errors
///
/// Fails when any field is missing or mistyped.
pub fn slo_from_value(v: &Value) -> Result<SloSummary, String> {
    Ok(SloSummary {
        count: v.field("count")?,
        p50_ns: v.field("p50_ns")?,
        p99_ns: v.field("p99_ns")?,
        objective_ns: v.field("objective_ns")?,
        target: v.field("target")?,
        over_objective: v.field("over_objective")?,
        error_rate: v.field("error_rate")?,
        budget_burn: v.field("budget_burn")?,
    })
}

/// Renders one trace-summary table row as a JSON object (trace id as a
/// 16-hex string).
pub fn trace_summary_to_value(t: &TraceSummary) -> Value {
    let mut v = Value::object();
    v.set("trace_id", format!("{:016x}", t.trace_id))
        .set("root", t.root_name.as_str())
        .set("start_us", t.start_us)
        .set("dur_us", t.dur_us)
        .set("spans", t.spans)
        .set("orphans", t.orphans);
    v
}

/// Parses a trace-summary row back ([`trace_summary_to_value`]'s
/// inverse).
///
/// # Errors
///
/// Fails when any field is missing or mistyped.
pub fn trace_summary_from_value(v: &Value) -> Result<TraceSummary, String> {
    Ok(TraceSummary {
        trace_id: hex_id_field(v, "trace_id")?,
        root_name: v.field("root")?,
        start_us: v.field("start_us")?,
        dur_us: v.field("dur_us")?,
        spans: v.field("spans")?,
        orphans: v.field("orphans")?,
    })
}

/// The live tracing surface a `trace` request returns: the SLO state of
/// the server's request span plus summaries of the slowest and the most
/// recent captured traces. One shape shared by the dispatch coordinator
/// and the serve supervisor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// SLO state of the server's request-handling span histogram.
    pub slo: SloSummary,
    /// Slowest captured traces, longest first.
    pub slowest: Vec<TraceSummary>,
    /// Most recent captured traces, oldest first.
    pub recent: Vec<TraceSummary>,
}

impl TraceReport {
    /// Renders the report body (no `"type"` tag) as a JSON object.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("slo", slo_to_value(&self.slo))
            .set(
                "slowest",
                Value::Arr(self.slowest.iter().map(trace_summary_to_value).collect()),
            )
            .set(
                "recent",
                Value::Arr(self.recent.iter().map(trace_summary_to_value).collect()),
            );
        v
    }

    /// Parses a report body back ([`TraceReport::to_value`]'s inverse).
    ///
    /// # Errors
    ///
    /// Fails when any field is missing or mistyped.
    pub fn from_value(v: &Value) -> Result<TraceReport, String> {
        let rows = |name: &str| -> Result<Vec<TraceSummary>, String> {
            v.field::<&[Value]>(name)?
                .iter()
                .map(trace_summary_from_value)
                .collect()
        };
        Ok(TraceReport {
            slo: slo_from_value(v.field("slo")?)?,
            slowest: rows("slowest")?,
            recent: rows("recent")?,
        })
    }

    /// The report as one JSON line for the `trace` subcommands.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }
}

/// Builds the `trace` reply from a telemetry snapshot: SLO over the
/// named request span's histogram, plus the `max` slowest and `max` most
/// recent captured traces.
pub fn build_trace_report(
    snap: &thermorl_telemetry::Snapshot,
    span_name: &str,
    cfg: &SloConfig,
    max: usize,
) -> TraceReport {
    let slo = snap
        .spans
        .get(span_name)
        .map(|s| slo_summary(&s.hist, cfg))
        .unwrap_or_else(|| SloSummary {
            objective_ns: cfg.objective_ns,
            target: cfg.target,
            ..SloSummary::default()
        });
    let rows = summarize_traces(&snap.trace_spans);
    let mut slowest = rows.clone();
    slowest.sort_by_key(|t| (std::cmp::Reverse(t.dur_us), std::cmp::Reverse(t.trace_id)));
    slowest.truncate(max);
    let recent = rows[rows.len().saturating_sub(max)..].to_vec();
    TraceReport {
        slo,
        slowest,
        recent,
    }
}

/// One leased job: the coordinator's promise that `key` is this worker's
/// to run until `deadline_ms` elapses without a heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Coordinator-unique lease id (never reused within one campaign).
    pub lease_id: u64,
    /// The job key (addresses the checkpoint record and the seed).
    pub key: String,
    /// The derived job seed (`job_seed(campaign_seed, key)`), computed by
    /// the coordinator so every worker sees the authoritative value.
    pub seed: u64,
    /// How long the lease lives without a heartbeat, in milliseconds.
    pub deadline_ms: u64,
}

/// Aggregate campaign state returned for `status` / `drain`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatusReport {
    /// Campaign name.
    pub campaign: String,
    /// Total jobs in the campaign.
    pub total: u64,
    /// Jobs completed (including resumed ones).
    pub completed: u64,
    /// Jobs permanently failed (retry cap exhausted).
    pub failed: u64,
    /// Jobs waiting in the queue.
    pub queued: u64,
    /// Jobs currently leased to workers.
    pub leased: u64,
    /// Whether the coordinator is draining (no new leases granted).
    pub draining: bool,
}

/// A protocol message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → coordinator: handshake.
    Hello {
        /// Worker identity (for logs and lease bookkeeping).
        worker: String,
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u64,
        /// Shared-secret auth token; must match the coordinator's
        /// configured secret when it has one. `None` when the deployment
        /// runs without authentication.
        token: Option<String>,
    },
    /// Worker → coordinator: request up to `max_jobs` leases.
    LeaseRequest {
        /// Worker identity.
        worker: String,
        /// Upper bound on leases to grant (the worker's free slots).
        max_jobs: u64,
        /// Optional W3C-style `traceparent` — the coordinator's handling
        /// span joins the sender's trace when present.
        trace: Option<String>,
    },
    /// Worker → coordinator: extend the deadlines of in-flight leases.
    /// Fire-and-forget.
    Heartbeat {
        /// Worker identity.
        worker: String,
        /// The leases still being worked on.
        lease_ids: Vec<u64>,
    },
    /// Worker → coordinator: one finished job. Fire-and-forget.
    Result {
        /// Worker identity.
        worker: String,
        /// The lease this result fulfils (stale ids are resolved by key).
        lease_id: u64,
        /// The verbatim checkpoint line for the finished job.
        line: String,
        /// Optional W3C-style `traceparent` of the job's (deterministic,
        /// seed-derived) trace — ingest joins the job's trace.
        trace: Option<String>,
    },
    /// Control client → coordinator: report campaign state.
    Status,
    /// Control client → coordinator: report sampled traces and the
    /// request-span SLO.
    Trace {
        /// Upper bound on slowest/recent rows returned.
        max: u64,
    },
    /// Control client → coordinator: stop granting leases; exit once
    /// in-flight leases resolve or expire.
    Drain,
    /// Worker → coordinator: clean disconnect.
    Goodbye {
        /// Worker identity.
        worker: String,
    },
    /// Coordinator → worker: handshake reply.
    Welcome {
        /// Campaign name.
        campaign: String,
        /// Campaign seed (workers cross-check their local rebuild).
        seed: u64,
        /// Total jobs in the campaign.
        total: u64,
        /// Interval at which the worker should heartbeat, in ms.
        heartbeat_ms: u64,
    },
    /// Coordinator → worker: granted leases (non-empty).
    Grant {
        /// The granted leases.
        leases: Vec<Lease>,
    },
    /// Coordinator → worker: nothing grantable right now, retry after
    /// `backoff_ms`.
    Wait {
        /// Suggested sleep before the next `lease_request`.
        backoff_ms: u64,
    },
    /// Coordinator → worker: the campaign is resolved (or draining);
    /// disconnect.
    Done,
    /// Coordinator → control client: campaign state.
    StatusReport(StatusReport),
    /// Coordinator → control client: sampled traces and request SLO.
    TraceReport(TraceReport),
    /// Coordinator → peer: protocol error (connection closes after).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Message {
    /// Encodes the message as its single-line JSON form (no newline).
    pub fn to_line(&self) -> String {
        let mut obj = Value::object();
        match self {
            Message::Hello {
                worker,
                protocol,
                token,
            } => {
                obj.set("type", "hello");
                obj.set("worker", worker.as_str());
                obj.set("protocol", *protocol);
                if let Some(token) = token {
                    obj.set("token", token.as_str());
                }
            }
            Message::LeaseRequest {
                worker,
                max_jobs,
                trace,
            } => {
                obj.set("type", "lease_request");
                obj.set("worker", worker.as_str());
                obj.set("max_jobs", *max_jobs);
                if let Some(trace) = trace {
                    obj.set("trace", trace.as_str());
                }
            }
            Message::Heartbeat { worker, lease_ids } => {
                obj.set("type", "heartbeat");
                obj.set("worker", worker.as_str());
                obj.set("lease_ids", lease_ids.as_slice());
            }
            Message::Result {
                worker,
                lease_id,
                line,
                trace,
            } => {
                obj.set("type", "result");
                obj.set("worker", worker.as_str());
                obj.set("lease_id", *lease_id);
                obj.set("line", line.as_str());
                if let Some(trace) = trace {
                    obj.set("trace", trace.as_str());
                }
            }
            Message::Status => {
                obj.set("type", "status");
            }
            Message::Trace { max } => {
                obj.set("type", "trace");
                obj.set("max", *max);
            }
            Message::Drain => {
                obj.set("type", "drain");
            }
            Message::Goodbye { worker } => {
                obj.set("type", "goodbye");
                obj.set("worker", worker.as_str());
            }
            Message::Welcome {
                campaign,
                seed,
                total,
                heartbeat_ms,
            } => {
                obj.set("type", "welcome");
                obj.set("campaign", campaign.as_str());
                obj.set("seed", *seed);
                obj.set("total", *total);
                obj.set("heartbeat_ms", *heartbeat_ms);
            }
            Message::Grant { leases } => {
                obj.set("type", "grant");
                let leases = leases
                    .iter()
                    .map(|l| {
                        let mut v = Value::object();
                        v.set("lease_id", l.lease_id);
                        v.set("key", l.key.as_str());
                        v.set("seed", l.seed);
                        v.set("deadline_ms", l.deadline_ms);
                        v
                    })
                    .collect();
                obj.set("leases", Value::Arr(leases));
            }
            Message::Wait { backoff_ms } => {
                obj.set("type", "wait");
                obj.set("backoff_ms", *backoff_ms);
            }
            Message::Done => {
                obj.set("type", "done");
            }
            Message::StatusReport(report) => {
                obj.set("type", "status_report");
                obj.set("campaign", report.campaign.as_str());
                obj.set("total", report.total);
                obj.set("completed", report.completed);
                obj.set("failed", report.failed);
                obj.set("queued", report.queued);
                obj.set("leased", report.leased);
                obj.set("draining", report.draining);
            }
            Message::TraceReport(report) => {
                obj = report.to_value();
                obj.set("type", "trace_report");
            }
            Message::Error { message } => {
                obj.set("type", "error");
                obj.set("message", message.as_str());
            }
        }
        obj.to_json()
    }

    /// Decodes one line back into a message.
    ///
    /// # Errors
    ///
    /// Fails on invalid JSON, a missing/unknown `type` tag, or missing
    /// required fields.
    pub fn parse(line: &str) -> Result<Message, String> {
        let v = Value::parse(line).map_err(|e| e.to_string())?;
        let tag: &str = v.field("type")?;
        match tag {
            "hello" => Ok(Message::Hello {
                worker: v.field("worker")?,
                protocol: v.field("protocol")?,
                token: v.opt_field("token")?,
            }),
            "lease_request" => Ok(Message::LeaseRequest {
                worker: v.field("worker")?,
                max_jobs: v.field("max_jobs")?,
                trace: v.opt_field("trace")?,
            }),
            "heartbeat" => Ok(Message::Heartbeat {
                worker: v.field("worker")?,
                lease_ids: v.field("lease_ids")?,
            }),
            "result" => Ok(Message::Result {
                worker: v.field("worker")?,
                lease_id: v.field("lease_id")?,
                line: v.field("line")?,
                trace: v.opt_field("trace")?,
            }),
            "status" => Ok(Message::Status),
            "trace" => Ok(Message::Trace {
                max: v.field("max")?,
            }),
            "drain" => Ok(Message::Drain),
            "goodbye" => Ok(Message::Goodbye {
                worker: v.field("worker")?,
            }),
            "welcome" => Ok(Message::Welcome {
                campaign: v.field("campaign")?,
                seed: v.field("seed")?,
                total: v.field("total")?,
                heartbeat_ms: v.field("heartbeat_ms")?,
            }),
            "grant" => {
                let leases = v
                    .field::<&[Value]>("leases")?
                    .iter()
                    .map(|l| -> Result<Lease, String> {
                        Ok(Lease {
                            lease_id: l.field("lease_id")?,
                            key: l.field("key")?,
                            seed: l.field("seed")?,
                            deadline_ms: l.field("deadline_ms")?,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Message::Grant { leases })
            }
            "wait" => Ok(Message::Wait {
                backoff_ms: v.field("backoff_ms")?,
            }),
            "done" => Ok(Message::Done),
            "status_report" => Ok(Message::StatusReport(StatusReport {
                campaign: v.field("campaign")?,
                total: v.field("total")?,
                completed: v.field("completed")?,
                failed: v.field("failed")?,
                queued: v.field("queued")?,
                leased: v.field("leased")?,
                draining: v.field("draining")?,
            })),
            "trace_report" => Ok(Message::TraceReport(TraceReport::from_value(&v)?)),
            "error" => Ok(Message::Error {
                message: v.field("message")?,
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }
}

impl WireMessage for Message {
    fn to_line(&self) -> String {
        Message::to_line(self)
    }

    fn parse(line: &str) -> Result<Message, String> {
        Message::parse(line)
    }
}

impl StatusReport {
    /// The report as pretty-enough JSON for the `status` subcommand.
    pub fn to_json(&self) -> String {
        Message::StatusReport(self.clone()).to_line()
    }
}

/// Writes one message as a line and flushes it (one message = one
/// `write_all` under the caller's lock, so concurrent writers — the
/// worker's main loop and its heartbeat thread — never interleave bytes).
pub fn write_message<W: Write, M: WireMessage>(writer: &mut W, message: &M) -> io::Result<()> {
    let mut line = message.to_line();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Longest line [`read_message`] accepts, in bytes before the `\n`. The
/// longest lines the workspace writes are `result` messages carrying a
/// campaign checkpoint record (about 235 KB for `run_all`); the cap
/// bounds what one peer can make a connection thread buffer.
pub const MAX_LINE: usize = 8 << 20;

/// Reads the next message. `Ok(None)` means the peer closed the
/// connection cleanly; a malformed line is an error (the protocol has no
/// resync point), and so is a line longer than [`MAX_LINE`], after at
/// most `MAX_LINE + 1` bytes were read. Blank lines are skipped.
pub fn read_message<R: BufRead, M: WireMessage>(reader: &mut R) -> io::Result<Option<M>> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    let mut line = Vec::new();
    loop {
        line.clear();
        let n = reader
            .by_ref()
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut line)?;
        if n == 0 {
            return Ok(None);
        }
        if n > MAX_LINE && line.last() != Some(&b'\n') {
            return Err(invalid(format!("line longer than {MAX_LINE} bytes")));
        }
        let text = std::str::from_utf8(&line).map_err(|e| invalid(e.to_string()))?;
        let trimmed = text.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        return M::parse(trimmed).map(Some).map_err(invalid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One message of every kind, some in more than one shape.
    fn every_kind() -> Vec<Message> {
        vec![
            Message::Hello {
                worker: "w1".into(),
                protocol: PROTOCOL_VERSION,
                token: None,
            },
            Message::Hello {
                worker: "w2".into(),
                protocol: PROTOCOL_VERSION,
                token: Some("sesame".into()),
            },
            Message::LeaseRequest {
                worker: "w1".into(),
                max_jobs: 4,
                trace: None,
            },
            Message::LeaseRequest {
                worker: "w1".into(),
                max_jobs: 4,
                trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
            },
            Message::Heartbeat {
                worker: "w1".into(),
                lease_ids: vec![1, 2, 3],
            },
            Message::Result {
                worker: "w1".into(),
                lease_id: 9,
                line: "{\"key\":\"a/b\",\"seed\":1,\"status\":\"ok\",\"payload\":7}".into(),
                trace: Some("00-0000000000000000deadbeefcafef00d-0123456789abcdef-01".into()),
            },
            Message::Status,
            Message::Trace { max: 16 },
            Message::TraceReport(TraceReport {
                slo: SloSummary {
                    count: 100,
                    p50_ns: 4096,
                    p99_ns: 65_536,
                    objective_ns: 1_000_000,
                    target: 0.99,
                    over_objective: 1,
                    error_rate: 0.01,
                    budget_burn: 1.0,
                },
                slowest: vec![TraceSummary {
                    trace_id: 0xDEAD_BEEF_CAFE_F00D,
                    root_name: "dispatch.request".into(),
                    start_us: 17,
                    dur_us: 912,
                    spans: 3,
                    orphans: 0,
                }],
                recent: vec![],
            }),
            Message::Drain,
            Message::Goodbye {
                worker: "w1".into(),
            },
            Message::Welcome {
                campaign: "run_all".into(),
                seed: u64::MAX - 1,
                total: 140,
                heartbeat_ms: 2000,
            },
            Message::Grant {
                leases: vec![Lease {
                    lease_id: 1,
                    key: "table2/tachyon-1/proposed/0".into(),
                    seed: 0xDEAD_BEEF_CAFE_F00D,
                    deadline_ms: 30_000,
                }],
            },
            Message::Wait { backoff_ms: 500 },
            Message::Done,
            Message::StatusReport(StatusReport {
                campaign: "suite".into(),
                total: 45,
                completed: 40,
                failed: 1,
                queued: 2,
                leased: 2,
                draining: true,
            }),
            Message::Error {
                message: "protocol mismatch".into(),
            },
        ]
    }

    #[test]
    fn all_messages_round_trip() {
        for message in every_kind() {
            let line = message.to_line();
            assert!(!line.contains('\n'), "single line: {line}");
            let back = Message::parse(&line).expect("parse");
            assert_eq!(back, message, "round trip of {line}");
        }
    }

    #[test]
    fn result_lines_with_quotes_survive_embedding() {
        let inner =
            "{\"key\":\"x\",\"seed\":2,\"status\":\"panicked\",\"error\":\"said \\\"no\\\"\"}";
        let message = Message::Result {
            worker: "w".into(),
            lease_id: 1,
            line: inner.into(),
            trace: None,
        };
        let back = Message::parse(&message.to_line()).expect("parse");
        assert_eq!(back, message);
    }

    #[test]
    fn stream_reader_handles_eof_and_blank_lines() {
        let text = "\n{\"type\":\"done\"}\n";
        let mut reader = std::io::BufReader::new(text.as_bytes());
        assert_eq!(
            read_message(&mut reader).expect("read"),
            Some(Message::Done)
        );
        assert_eq!(read_message::<_, Message>(&mut reader).expect("read"), None);
    }

    #[test]
    fn unterminated_line_past_the_cap_is_an_error() {
        let mut reader = std::io::Cursor::new(vec![b'a'; 32 << 20]);
        let err = read_message::<_, Message>(&mut reader).expect_err("line over MAX_LINE");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            reader.position() <= MAX_LINE as u64 + 1,
            "read {} bytes before giving up",
            reader.position()
        );
    }

    #[test]
    fn result_line_of_exactly_max_line_bytes_parses() {
        let result = |line: String| Message::Result {
            worker: "w".into(),
            lease_id: 1,
            line,
            trace: None,
        };
        let overhead = result(String::new()).to_line().len();
        let message = result("a".repeat(MAX_LINE - overhead));
        let mut wire = Vec::new();
        write_message(&mut wire, &message).expect("write");
        assert_eq!(wire.len(), MAX_LINE + 1, "MAX_LINE bytes plus the newline");
        let mut reader = std::io::Cursor::new(wire);
        let back = read_message::<_, Message>(&mut reader).expect("read");
        assert_eq!(back, Some(message));

        // One byte more is over the cap.
        let mut wire = Vec::new();
        write_message(&mut wire, &result("a".repeat(MAX_LINE - overhead + 1))).expect("write");
        let mut reader = std::io::Cursor::new(wire);
        assert!(read_message::<_, Message>(&mut reader).is_err());
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
    fn malformed_lines_are_errors() {
        let mut reader = std::io::BufReader::new("not json\n".as_bytes());
        assert!(read_message::<_, Message>(&mut reader).is_err());
        assert!(Message::parse("{\"type\":\"warp\"}").is_err());
        assert!(Message::parse("{\"no_type\":1}").is_err());
    }
}
