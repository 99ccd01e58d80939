//! End-to-end smoke test for `--telemetry`: a small campaign run with
//! `RunnerConfig::telemetry` set must produce a `telemetry.json` whose
//! snapshot satisfies the observability acceptance criteria —
//! (a) span timings for `engine.decide` and `thermal.step`,
//! (b) the migrated `thermal.propagator_builds` counter, and
//! (c) at least one `detect:inter` and one `detect:intra` event —
//! plus the adaptive stepper's counters and gauge, which must land in
//! both the JSON snapshot and the Prometheus rendering.
//!
//! One test only: the registry is process-global, and a second campaign
//! running concurrently in this binary would bleed into the snapshot.

#![cfg(feature = "telemetry")]

use thermorl_bench::Policy;
use thermorl_control::{ControlConfig, DasDac14Controller, MovingAverageDetector};
use thermorl_json::Value;
use thermorl_platform::CounterSnapshot;
use thermorl_policy::PolicyId;
use thermorl_runner::{Campaign, RunnerConfig};
use thermorl_sim::{run_scenario, Observation, SimConfig, ThermalController};
use thermorl_thermal::{RcNetworkBuilder, Stepper};
use thermorl_workload::{alpbench, DataSet, Scenario};

/// Drives the embedded adaptive stepper so its counters and gauge have
/// something to report: a 500 s first trial step on a ~50 s time
/// constant is guaranteed to reject at least once before the PI
/// controller shrinks into the accepted range.
fn adaptive_job(_seed: u64) -> u64 {
    let mut b = RcNetworkBuilder::new(25.0);
    let hot = b.add_node("hot", 50.0);
    let sink = b.add_node("sink", 200.0);
    b.connect(hot, sink, 2.0);
    b.connect_ambient(sink, 4.0);
    let mut net = b.build().expect("valid network");
    net.set_power(hot, 15.0);
    net.advance(500.0, 500.0, Stepper::adaptive());
    assert!(net.adaptive_steps() >= 1, "adaptive step must accept");
    assert!(net.step_rejections() >= 1, "oversized step must reject");
    net.adaptive_steps() + net.step_rejections()
}

/// A real two-application scenario under the proposed RL policy: exercises
/// the instrumented sim engine (spans) and thermal network (counters).
fn sim_job(seed: u64) -> u64 {
    let mut scenario = Scenario::new(vec![
        alpbench::mpeg_dec(DataSet::One),
        alpbench::tachyon(DataSet::One),
    ]);
    scenario.name = "smoke-multi".into();
    let sim = SimConfig {
        max_sim_time: 40.0,
        ..SimConfig::default()
    };
    let out = run_scenario(&scenario, Policy::Proposed.build(seed), &sim, seed);
    out.total_time as u64
}

/// A short run under two zoo contenders, so the per-policy
/// `policy.decisions.*` counters have decisions to count.
fn zoo_job(seed: u64) -> u64 {
    let scenario = Scenario::single(alpbench::tachyon(DataSet::One));
    let sim = SimConfig {
        max_sim_time: 40.0,
        ..SimConfig::default()
    };
    let mut epochs = 0;
    for id in [PolicyId::Ucb1, PolicyId::Oracle] {
        let out = run_scenario(&scenario, Policy::Zoo(id).build(seed), &sim, seed);
        epochs += out.total_time as u64;
    }
    epochs
}

fn obs<'a>(temps: &'a [f64], freqs: &'a [f64], time: f64) -> Observation<'a> {
    Observation {
        time,
        sensor_temps: temps,
        fps: 1.0,
        perf_constraint: 0.8,
        app_name: "smoke",
        app_index: 0,
        app_switched: false,
        counters: CounterSnapshot::default(),
        core_freq_ghz: freqs,
    }
}

fn feed<F: FnMut(u64) -> f64>(a: &mut DasDac14Controller, epochs: usize, mut temp: F) {
    let freqs = [3.4; 4];
    for k in 0..(epochs * 4) as u64 {
        let t = temp(k);
        let temps = [t, t + 1.0, t - 1.0, t];
        let _ = a.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
    }
}

/// Drives agents through scripted workload switches so both detector
/// verdicts fire deterministically: the square wave that trips the default
/// thresholds as *inter* lands between the thresholds (*intra*) once the
/// upper bounds are pushed out of reach.
fn detect_job(_seed: u64) -> u64 {
    let base = ControlConfig {
        epoch_samples: 4,
        ..ControlConfig::default()
    };
    let mut inter_agent = DasDac14Controller::new(base.clone(), 3);
    inter_agent.on_start(6, 4);
    feed(&mut inter_agent, 20, |_| 40.0);
    feed(
        &mut inter_agent,
        10,
        |k| if k % 2 == 0 { 45.0 } else { 75.0 },
    );

    let cfg = ControlConfig {
        detector: MovingAverageDetector::new(3, 0.5, 1e9, 0.25, 1e9),
        ..base
    };
    let mut intra_agent = DasDac14Controller::new(cfg, 3);
    intra_agent.on_start(6, 4);
    feed(&mut intra_agent, 20, |_| 40.0);
    feed(
        &mut intra_agent,
        10,
        |k| if k % 2 == 0 { 45.0 } else { 75.0 },
    );

    assert!(inter_agent.inter_events() >= 1, "inter verdict must fire");
    assert!(intra_agent.intra_events() >= 1, "intra verdict must fire");
    inter_agent.inter_events() + intra_agent.intra_events()
}

#[test]
fn telemetry_export_meets_acceptance_criteria() {
    let dir = std::env::temp_dir().join(format!("thermorl-telemetry-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let tel_path = dir.join("telemetry.json");

    let mut campaign: Campaign<u64> = Campaign::new("telemetry-smoke", 7);
    campaign.push("smoke/sim/0", sim_job);
    campaign.push("smoke/detect/0", detect_job);
    campaign.push("smoke/adaptive/0", adaptive_job);
    campaign.push("smoke/zoo/0", zoo_job);
    let config = RunnerConfig {
        workers: 2,
        progress: false,
        telemetry: Some(tel_path.clone()),
        ..RunnerConfig::default()
    };
    let report = campaign.run(&config);
    assert!(
        report.failures().is_empty(),
        "smoke jobs failed: {:?}",
        report.failures()
    );

    let text = std::fs::read_to_string(&tel_path).expect("telemetry.json written");
    let doc = Value::parse(&text).expect("telemetry.json is valid JSON");

    // (a) span timings from the instrumented sim engine.
    let spans = doc.get("spans").expect("spans object");
    for name in ["engine.decide", "thermal.step"] {
        let span = spans
            .get(name)
            .unwrap_or_else(|| panic!("span {name:?} missing"));
        assert!(
            span.get("count").and_then(Value::as_u64).unwrap_or(0) >= 1,
            "span {name:?} recorded no completions"
        );
    }

    // (b) the migrated thermal counter.
    let builds = doc
        .get("counters")
        .and_then(|c| c.get("thermal.propagator_builds"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(builds >= 1, "thermal.propagator_builds missing or zero");

    // Adaptive stepping: the embedded-RK controller's accepted/rejected
    // step counters and its live step-size gauge, in the JSON snapshot...
    let adaptive_steps = doc
        .get("counters")
        .and_then(|c| c.get("thermal.adaptive_steps"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(
        adaptive_steps >= 1,
        "thermal.adaptive_steps missing or zero"
    );
    let rejections = doc
        .get("counters")
        .and_then(|c| c.get("thermal.step_rejections"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    assert!(rejections >= 1, "thermal.step_rejections missing or zero");
    let dt_current = doc
        .get("gauges")
        .and_then(|g| g.get("thermal.dt_current"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    assert!(
        dt_current > 0.0,
        "thermal.dt_current gauge should be positive, got {dt_current}"
    );

    // ...and in the Prometheus rendering of the live registry (names
    // sanitized `.` -> `_`).
    let prom = thermorl_telemetry::snapshot().to_prometheus();
    assert!(
        prom.contains("# TYPE thermal_adaptive_steps counter"),
        "prometheus export missing thermal_adaptive_steps counter"
    );
    assert!(
        prom.contains("thermal_dt_current "),
        "prometheus export missing thermal_dt_current gauge:\n{prom}"
    );

    // Per-policy decision counters: each zoo contender that decided an
    // epoch reports under its own id, in the JSON snapshot...
    for id in [PolicyId::Ucb1, PolicyId::Oracle] {
        let decisions = doc
            .get("counters")
            .and_then(|c| c.get(id.counter_name()))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert!(
            decisions >= 1,
            "{} missing or zero in telemetry JSON",
            id.counter_name()
        );
    }
    // ...and in the Prometheus rendering (`.` sanitized to `_`).
    assert!(
        prom.contains("# TYPE policy_decisions_ucb1 counter"),
        "prometheus export missing policy_decisions_ucb1:\n{prom}"
    );
    assert!(
        prom.contains("policy_decisions_oracle "),
        "prometheus export missing policy_decisions_oracle"
    );

    // Ring health: the export always carries the dropped-event counter
    // and per-shard ring occupancy, in JSON...
    let dropped = doc.get("events_dropped").and_then(Value::as_u64);
    assert!(
        dropped.is_some(),
        "snapshot JSON missing events_dropped counter"
    );
    let shards = doc
        .get("shards")
        .and_then(Value::as_array)
        .expect("per-shard ring occupancy array");
    assert!(!shards.is_empty(), "no telemetry shards reported");
    for shard in shards {
        let cap = shard
            .get("events_capacity")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        assert!(cap > 0, "shard reports zero event-ring capacity");
        let occupancy = shard.get("events").and_then(Value::as_u64).unwrap_or(0);
        assert!(
            occupancy <= cap,
            "shard ring occupancy {occupancy} exceeds capacity {cap}"
        );
        assert!(
            shard
                .get("trace_capacity")
                .and_then(Value::as_u64)
                .is_some(),
            "shard missing trace-ring capacity"
        );
    }

    // ...and in the Prometheus rendering.
    assert!(
        prom.contains("# TYPE telemetry_events_dropped counter"),
        "prometheus export missing telemetry_events_dropped"
    );
    assert!(
        prom.contains("telemetry_ring_events{shard=\"0\"}"),
        "prometheus export missing per-shard ring occupancy:\n{prom}"
    );
    assert!(
        prom.contains("telemetry_ring_events_capacity{shard=\"0\"}"),
        "prometheus export missing per-shard ring capacity"
    );

    // (c) both detector verdicts as structured events.
    let events = doc.get("events").and_then(Value::as_array).expect("events");
    let detect = |detail: &str| {
        events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("detect")
                && e.get("detail").and_then(Value::as_str) == Some(detail)
        })
    };
    assert!(detect("inter"), "no detect:inter event in export");
    assert!(detect("intra"), "no detect:intra event in export");

    // The events side-file carries the same events as JSONL.
    let jsonl = std::fs::read_to_string(tel_path.with_extension("events.jsonl"))
        .expect("events jsonl written");
    assert!(
        jsonl.lines().count() >= events.len(),
        "events file shorter than snapshot event list"
    );

    // Per-job metrics deltas were captured on the worker threads.
    let rec = report.get("smoke/sim/0").expect("sim record");
    let metrics = rec.metrics.as_ref().expect("per-job metrics captured");
    assert!(
        metrics.counters.contains_key("engine.samples"),
        "sim job delta missing engine.samples: {:?}",
        metrics.counters
    );

    std::fs::remove_dir_all(&dir).ok();
}
