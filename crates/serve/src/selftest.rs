//! End-to-end trace selftest (`serve selftest-trace`).
//!
//! Boots an in-process [`Supervisor`], drives it with the load generator
//! over real loopback TCP, and then — because client and server share
//! one telemetry registry — checks that at least one request produced a
//! complete distributed trace: a `client.observe` root, a
//! `serve.request` on the connection thread parented to it, a
//! `shard.observe` parented to that (the same thread's work under the
//! die's stripe lock), and a `thermal.step` parented to the
//! `shard.observe` (the die advance the observe made). The verified
//! trace is exported as Chrome trace-event JSON so CI can validate the
//! schema and anyone can load it into Perfetto.

use std::collections::HashMap;
use std::path::Path;

use thermorl_json::Value;
use thermorl_telemetry as tel;
use thermorl_telemetry::SpanRecord;

use crate::bench::{run_bench, BenchConfig};
use crate::supervisor::{ServeConfig, Supervisor};

/// What the selftest verified.
#[derive(Debug, Clone)]
pub struct TraceSelftest {
    /// Trace spans recorded across the run.
    pub spans: usize,
    /// Distinct trace ids seen.
    pub traces: usize,
    /// Trace ids whose span tree contains the full
    /// client → serve → shard → thermal-step chain.
    pub full_chains: usize,
    /// One such trace id (the evidence; zero only on failure).
    pub chain_trace: u64,
    /// Requests whose `serve.request` latency the server's SLO tracker
    /// counted.
    pub slo_count: u64,
    /// The Chrome trace-event JSON for the whole run.
    pub chrome_json: String,
}

impl TraceSelftest {
    /// The one-line JSON summary the CLI prints.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.set("name", Value::Str("serve_trace_selftest".into()))
            .set("spans", Value::UInt(self.spans as u64))
            .set("traces", Value::UInt(self.traces as u64))
            .set("full_chains", Value::UInt(self.full_chains as u64))
            .set(
                "chain_trace",
                Value::Str(format!("{:016x}", self.chain_trace)),
            )
            .set("slo_count", Value::UInt(self.slo_count));
        v
    }
}

/// Walks one recorded span up through its parents within the same trace.
fn parent_of<'a>(
    by_span: &'a HashMap<u64, &'a SpanRecord>,
    rec: &SpanRecord,
) -> Option<&'a SpanRecord> {
    if rec.parent_id == 0 {
        return None;
    }
    by_span
        .get(&rec.parent_id)
        .copied()
        .filter(|p| p.trace_id == rec.trace_id)
}

/// Counts traces whose span tree contains the full distributed chain
/// `client.observe ← serve.request ← shard.observe ← thermal.step`,
/// returning `(count, one trace id)`.
fn full_chains(spans: &[SpanRecord]) -> (usize, u64) {
    let by_span: HashMap<u64, &SpanRecord> = spans.iter().map(|r| (r.span_id, r)).collect();
    let mut chains = 0;
    let mut witness = 0;
    for step in spans.iter().filter(|r| r.name == "thermal.step") {
        let Some(observe) = parent_of(&by_span, step).filter(|p| p.name == "shard.observe") else {
            continue;
        };
        let Some(request) = parent_of(&by_span, observe).filter(|p| p.name == "serve.request")
        else {
            continue;
        };
        let Some(client) = parent_of(&by_span, request).filter(|p| p.name == "client.observe")
        else {
            continue;
        };
        if client.parent_id == 0 && client.span_id == client.trace_id {
            chains += 1;
            witness = client.trace_id;
        }
    }
    (chains, witness)
}

/// Runs the selftest: supervisor + load generator in this process with
/// tracing on, chain verification, Chrome export to `out` when given.
///
/// # Errors
///
/// Fails when the supervisor cannot start, the bench fails, no complete
/// distributed trace was recorded, or the export cannot be written —
/// each a CI-visible nonzero exit.
pub fn run_trace_selftest(out: Option<&Path>) -> Result<TraceSelftest, String> {
    tel::set_enabled(true);
    tel::set_trace_enabled(true);

    let store =
        std::env::temp_dir().join(format!("thermorl-selftest-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store: store.clone(),
        resume: false,
        quiet: true,
        ..ServeConfig::default()
    };
    let handle = Supervisor::spawn(config).map_err(|e| format!("selftest supervisor: {e}"))?;
    let addr = handle.addr().to_string();

    let bench = BenchConfig {
        addr,
        dies: 4,
        cores: 4,
        rate: 20_000.0,
        requests: 400,
        connections: 2,
        quick: true,
        out: None,
    };
    let bench_result = run_bench(&bench);
    handle.shutdown(false);
    let report = handle.join().map_err(|e| format!("selftest join: {e}"))?;
    let _ = std::fs::remove_file(&store);
    bench_result?;

    let snap = tel::snapshot();
    let (chains, witness) = full_chains(&snap.trace_spans);
    let traces = {
        let mut ids: Vec<u64> = snap.trace_spans.iter().map(|r| r.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    let selftest = TraceSelftest {
        spans: snap.trace_spans.len(),
        traces,
        full_chains: chains,
        chain_trace: witness,
        slo_count: report.stats.slo.count,
        chrome_json: snap.to_chrome_trace(),
    };
    if selftest.spans == 0 {
        return Err("selftest recorded no trace spans (tracing not wired?)".into());
    }
    if chains == 0 {
        return Err(format!(
            "no complete client→serve→shard→thermal trace among {} spans in {} traces",
            selftest.spans, selftest.traces
        ));
    }
    if selftest.slo_count == 0 {
        return Err("server SLO tracker counted no serve.request latencies".into());
    }
    if let Some(path) = out {
        std::fs::write(path, &selftest.chrome_json)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(selftest)
}
