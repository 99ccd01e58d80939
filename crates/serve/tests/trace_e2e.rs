//! End-to-end distributed tracing over loopback TCP: the acceptance
//! check that one trace spans the client's `client.observe`, the
//! connection thread's `serve.request`, its `shard.observe` under the
//! die's stripe lock and the `thermal.step`, with correct parent/child
//! nesting, and that the exported Chrome trace is well-formed.

use thermorl_json::Value;
use thermorl_serve::run_trace_selftest;

#[test]
fn one_trace_spans_client_to_batch_step() {
    let out = std::env::temp_dir().join(format!("thermorl-trace-e2e-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let selftest = run_trace_selftest(Some(&out)).expect("trace selftest");

    assert!(selftest.spans > 0, "spans were recorded");
    assert!(selftest.traces > 1, "distinct requests got distinct traces");
    assert!(
        selftest.full_chains > 0,
        "at least one complete client→serve→shard→thermal chain"
    );
    assert_ne!(selftest.chain_trace, 0, "the witness trace id is real");
    assert!(selftest.slo_count > 0, "the SLO tracker saw requests");

    // The exported Chrome trace parses and has the fields Perfetto and
    // chrome://tracing require on every event.
    let raw = std::fs::read_to_string(&out).expect("chrome trace written");
    let v = Value::parse(&raw).expect("chrome trace is valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace events present");
    let mut complete = 0;
    for e in events {
        for key in ["name", "ph", "pid", "tid", "ts"] {
            assert!(e.get(key).is_some(), "event missing {key}: {}", e.to_json());
        }
        let ph = e.get("ph").and_then(Value::as_str).expect("ph is a string");
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete event missing dur");
            complete += 1;
        }
    }
    assert!(complete > 0, "complete (X) span events present");
    let _ = std::fs::remove_file(&out);
}
