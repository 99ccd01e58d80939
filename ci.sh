#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== non-test Rust lines (printed, not gated) =="
# Every *.rs under crates/, src/, examples/ and vendor/, outside tests/
# and benches/ directories, each file cut at its first #[cfg(test)].
python3 - <<'PY'
import os
from collections import Counter
counts = Counter()
for top in ("crates", "src", "examples", "vendor"):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in ("tests", "benches")]
        parts = dirpath.split(os.sep)
        unit = parts[1] if top in ("crates", "vendor") and len(parts) > 1 else top
        for name in filenames:
            if name.endswith(".rs"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    for line in f:
                        if "#[cfg(test)]" in line:
                            break
                        counts[unit] += 1
print("  ".join(f"{unit} {n}" for unit, n in sorted(counts.items())))
print(f"total {sum(counts.values())}")
PY

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, -D warnings: no broken or private doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build (telemetry compiled out) =="
cargo build -q -p thermorl-bench --no-default-features
cargo build -q -p thermorl-dispatch --no-default-features
cargo build -q -p thermorl-serve --no-default-features

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== perfbench self-tests (ledger build + bit-identical replay of run_scenario) =="
# The ledger calls each layer's public functions directly, so a change to
# a layer's signature breaks it here rather than only in a traced run.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q --features ledger \
    --manifest-path perfbench/Cargo.toml

echo "== telemetry smoke test =="
cargo test -q -p thermorl-bench --test telemetry_smoke

echo "== cargo bench --no-run (benches must compile) =="
cargo bench --workspace --no-run

echo "== bench_thermal --quick --gate (regenerate perf snapshot, 3x regression gates) =="
# --gate bounds die_advance_1s_ns, die_tick_churn_ns, the large-floorplan
# 16x16 adaptive_advance_1s_ns and the tracing-disabled trace_span_ns at
# 3x their committed numbers, each fresh number a median of 5 rounds.
cargo run --release -q -p thermorl-bench --bin bench_thermal -- --quick --gate
grep -q '"large"' BENCH_thermal.json \
    || { echo "BENCH_thermal.json missing the large-floorplan sweep"; exit 1; }
grep -q '"32x32"' BENCH_thermal.json \
    || { echo "BENCH_thermal.json large sweep missing the 32x32 cell"; exit 1; }

echo "== validate (DESIGN §6 calibration invariants) =="
cargo run --release -q -p thermorl-bench --bin validate

echo "== golden results (run_all tables and CSV traces byte-identical to results/) =="
# run_all writes results/ relative to its cwd, so it runs in a temp dir.
# campaign_telemetry.json holds wall-clock timings and campaign.jsonl is
# not committed; every other file run_all writes must match byte for byte.
GOLDEN_DIR=$(mktemp -d)
(cd "$GOLDEN_DIR" && timeout 300 cargo run --release -q \
    --manifest-path "$OLDPWD/Cargo.toml" -p thermorl-bench --bin run_all -- --quiet > /dev/null)
for f in ablations.md fig1.md fig3.md fig4_5.md fig6.md fig7.md fig8.md fig9.md \
    table2.md table3.md fig1_Linux.csv fig1_user-assign.csv \
    fig4_5_Linux.csv fig4_5_Proposed.csv; do
    cmp "results/$f" "$GOLDEN_DIR/results/$f" \
        || { echo "results/$f differs from run_all output in $GOLDEN_DIR"; exit 1; }
done
rm -rf "$GOLDEN_DIR"

echo "== policy tournament --quick (2 policies x 3 scenarios incl. grid_4x4, leaderboard schema gate) =="
rm -f BENCH_tournament.json
timeout 300 cargo run --release -q -p thermorl-bench --bin tournament -- \
    --quick --quiet --checkpoint "$(mktemp -d)/tournament.jsonl"
python3 - BENCH_tournament.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "thermorl-tournament-v1", doc.get("schema")
scenarios = doc["scenarios"]
assert len(scenarios) == 3, f"quick gate expects 3 scenarios, got {len(scenarios)}"
names = [s["name"] for s in scenarios]
assert "grid_4x4" in names, f"quick gate expects the grid_4x4 cell, got {names}"
for s in scenarios:
    assert s["name"], "scenario without a name"
    cells = s["cells"]
    assert len(cells) == 2, f"quick gate expects 2 policies, got {len(cells)}"
    for c in cells:
        for key in ("policy", "mttf_years", "energy_j", "ips",
                    "avg_temp_c", "peak_temp_c", "completed", "reps", "score"):
            assert key in c, f"cell missing {key}: {sorted(c)}"
        assert c["mttf_years"] > 0 and c["energy_j"] > 0 and c["ips"] > 0, c
board = doc["leaderboard"]
assert board, "empty leaderboard"
winner = doc["winner"]
assert winner == board[0]["policy"], f"winner {winner!r} != top row {board[0]}"
print(f"tournament OK: winner={winner}, "
      f"{len(scenarios)} scenarios x {len(board)} policies")
EOF

echo "== dispatch loopback smoke (serve + status + work) =="
# A real coordinator/worker round trip over 127.0.0.1 on an ephemeral
# port, dispatching just the fig1/ slice of the campaign. Every step is
# wall-clock bounded; `wait` propagates serve's exit code (nonzero if
# any dispatched job failed).
SMOKE_DIR=$(mktemp -d)
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR" "$SERVE_DIR"' EXIT
timeout 300 cargo run --release -q -p thermorl-bench --bin run_all -- \
    dispatch serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/addr" \
    --store "$SMOKE_DIR/store.jsonl" --filter fig1/ \
    --telemetry "$SMOKE_DIR/telemetry.json" --quiet &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SMOKE_DIR/addr" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/addr" ] || { echo "coordinator never bound"; exit 1; }
timeout 60 cargo run --release -q -p thermorl-bench --bin run_all -- \
    dispatch status --coordinator-file "$SMOKE_DIR/addr"
timeout 300 cargo run --release -q -p thermorl-bench --bin run_all -- \
    dispatch work --coordinator-file "$SMOKE_DIR/addr" --quiet
wait "$SERVE_PID"
python3 - "$SMOKE_DIR/telemetry.json" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    snap = json.load(f)
keys = ["counters", "gauges", "histograms", "spans", "events", "events_dropped",
        "trace_spans", "trace_spans_dropped", "shards"]
assert list(snap) == keys, f"telemetry keys {list(snap)}"
assert snap["counters"].get("dispatch.leases_granted", 0) > 0, "no dispatch.leases_granted"
events = path[:-len(".json")] + ".events.jsonl"
with open(events) as f:
    lines = [json.loads(line) for line in f]
assert len(lines) == len(snap["events"]), f"{len(lines)} event lines, {len(snap['events'])} events"
print(f"dispatch telemetry: {len(snap['counters'])} counters, {len(lines)} event lines")
EOF

echo "== serve loopback smoke (run + bench + kill -9 + restart + recovery) =="
# A real supervisor on an ephemeral port: drive 8 dies for 500 observes,
# SIGKILL the supervisor (no final snapshot pass), restart it on the same
# store, and assert the second load run resumes all 8 sessions from their
# periodic snapshots instead of starting fresh.
timeout 300 cargo run --release -q -p thermorl-bench --bin serve -- \
    run --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/addr" \
    --store "$SERVE_DIR/snapshots.jsonl" --quiet &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SERVE_DIR/addr" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/addr" ] || { echo "supervisor never bound"; exit 1; }
timeout 120 cargo run --release -q -p thermorl-bench --bin serve -- \
    bench --addr-file "$SERVE_DIR/addr" --dies 8 --requests 500 --rate 4000 \
    --out "$SERVE_DIR/bench_before_kill.json" > /dev/null
# SIGKILL the supervisor *binary*, not the timeout/cargo wrapper —
# killing the wrapper would orphan the server and skip the crash.
pkill -9 -f "serve run --addr 127.0.0.1:0 --addr-file $SERVE_DIR/addr " \
    || kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
timeout 300 cargo run --release -q -p thermorl-bench --bin serve -- \
    run --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/addr2" \
    --store "$SERVE_DIR/snapshots.jsonl" --trace --quiet &
SERVE_PID=$!
for _ in $(seq 100); do [ -s "$SERVE_DIR/addr2" ] && break; sleep 0.1; done
[ -s "$SERVE_DIR/addr2" ] || { echo "restarted supervisor never bound"; exit 1; }
timeout 120 cargo run --release -q -p thermorl-bench --bin serve -- \
    bench --addr-file "$SERVE_DIR/addr2" --dies 8 --requests 500 --rate 4000 \
    --out "$SERVE_DIR/bench_after_restart.json" > /dev/null
grep -q '"resumed_dies":8' "$SERVE_DIR/bench_after_restart.json" \
    || { echo "restarted supervisor did not resume the 8 die sessions"; exit 1; }

echo "== serve bench --quick (regenerate BENCH_serve.json) =="
timeout 120 cargo run --release -q -p thermorl-bench --bin serve -- \
    bench --addr-file "$SERVE_DIR/addr2" --quick --out BENCH_serve.json > /dev/null
grep -q '"slowest_trace":"' BENCH_serve.json \
    || { echo "BENCH_serve.json missing the slowest-request trace id"; exit 1; }
python3 - BENCH_serve.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
cores = doc.get("host_cores")
assert isinstance(cores, int) and cores >= 1, f"BENCH_serve.json host_cores: {cores!r}"
print(f"BENCH_serve.json OK: host_cores={cores}")
EOF

echo "== serve trace verb (live SLO + slowest-trace table) =="
# The restarted supervisor runs with --trace, so its trace report must
# carry a populated SLO summary and per-trace rows for the load above.
timeout 60 cargo run --release -q -p thermorl-bench --bin serve -- \
    trace --addr-file "$SERVE_DIR/addr2" --max 8 > "$SERVE_DIR/trace_report.json"
python3 - "$SERVE_DIR/trace_report.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("slo", "slowest", "recent"):
    assert key in doc, f"trace report missing {key}: {sorted(doc)}"
slo = doc["slo"]
for key in ("count", "p50_ns", "p99_ns", "objective_ns", "target",
            "over_objective", "error_rate", "budget_burn"):
    assert key in slo, f"slo summary missing {key}: {sorted(slo)}"
assert slo["count"] > 0, "SLO tracker counted no serve.request latencies"
assert doc["slowest"], "no slowest-trace rows"
for row in doc["slowest"]:
    for key in ("trace_id", "root", "start_us", "dur_us", "spans"):
        assert key in row, f"trace row missing {key}: {sorted(row)}"
    int(row["trace_id"], 16)
print(f"trace report OK: slo.count={slo['count']}, "
      f"{len(doc['slowest'])} slowest rows")
EOF
timeout 60 cargo run --release -q -p thermorl-bench --bin serve -- \
    shutdown --addr-file "$SERVE_DIR/addr2"
wait "$SERVE_PID"
# The restart compacted the store to one snapshot line per die before
# any new snapshot was appended: no torn or duplicate line survives it.
python3 - "$SERVE_DIR/snapshots.jsonl" <<'EOF'
import json, sys
with open(sys.argv[1], encoding="utf-8") as f:
    lines = [json.loads(line) for line in f]
assert all(line["status"] == "snapshot" for line in lines), "a non-snapshot line"
dies = [line["key"] for line in lines[:8]]
assert len(set(dies)) == 8, f"compaction wrote {dies}, not the 8 dies once each"
print(f"snapshot store OK: {len(lines)} lines, compacted head {sorted(dies)}")
EOF

echo "== trace selftest (client -> serve -> shard -> thermal chain + Chrome schema) =="
# In-process supervisor + loopback load with tracing on: exits nonzero
# unless at least one trace spans the whole distributed chain, then the
# exported Chrome trace must satisfy the trace-event schema Perfetto and
# chrome://tracing expect.
timeout 300 cargo run --release -q -p thermorl-bench --bin serve -- \
    selftest-trace --out "$SERVE_DIR/chrome_trace.json"
python3 - "$SERVE_DIR/chrome_trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents missing or empty"
assert doc.get("displayTimeUnit") == "ms", doc.get("displayTimeUnit")
complete = 0
for e in events:
    for key in ("name", "ph", "ts", "pid", "tid"):
        assert key in e, f"event missing {key}: {e}"
    if e["ph"] == "X":
        assert e.get("dur", 0) >= 1, f"complete event without dur: {e}"
        complete += 1
assert complete > 0, "no complete (ph=X) span events"
names = {e["name"] for e in events}
for span in ("client.observe", "serve.request", "shard.observe",
             "thermal.step"):
    assert span in names, f"chrome trace missing {span} spans"
print(f"chrome trace OK: {len(events)} events, {complete} complete spans")
EOF

echo "CI OK"
