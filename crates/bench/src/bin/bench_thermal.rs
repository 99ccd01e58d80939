//! Thermal-solver performance snapshot: measures the `die_advance_1s` hot
//! path of the default stepper (with allocation counts) and end-to-end
//! scenario throughput, and writes the numbers to `BENCH_thermal.json`.
//!
//! Flags:
//! * `--quick` — fewer iterations (CI mode; same JSON shape).
//! * `--out PATH` — output path (default `BENCH_thermal.json`).
//! * `--gate` — regression gate: before overwriting the output file,
//!   parse its committed `die_advance_1s_ns`, `die_tick_churn_ns`, 16×16
//!   `adaptive_advance_1s_ns` and tracing-disabled `trace_span_ns`, and
//!   exit non-zero, leaving the file untouched, if any fresh number is
//!   more than 3x the committed one. A missing committed number is a
//!   warning, not a failure (first run).
//! * `--telemetry [PATH]` — record registry metrics during the scenario
//!   measurement and write the snapshot to PATH (default
//!   `telemetry.json`), plus events to the sibling `*.events.jsonl`.
//!   Stepper timings and the disabled-overhead
//!   entries are always measured before recording is enabled, so the
//!   headline `die_advance_1s` number stays telemetry-free.
//!
//! The output also carries a `telemetry_disabled_overhead` object: the
//! per-call cost of `counter!`/`span!`/`event!`/`trace_span!` while
//! recording is off — one relaxed atomic load and a branch, expected
//! well under 1 ns/op — plus a `tracing_overhead` object with the
//! enabled-path cost of a traced span.
//!
//! Timing is manual `Instant`-based sampling (criterion is a
//! dev-dependency and unavailable to bins): each measurement takes the
//! median of several repetitions of a timed loop, and each gated number
//! is the median of [`GATE_ROUNDS`] independent measurements, so one
//! host hiccup cannot fail the gate on its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use thermorl_json::Value;
use thermorl_sim::{run_scenario, NullController, SimConfig};
use thermorl_telemetry as tel;
use thermorl_thermal::{DieModel, DieParams, Floorplan, Stepper, DENSE_STEADY_LIMIT};
use thermorl_workload::{alpbench, DataSet, Scenario};

/// `thermal/die_advance_1s` on the growth seed's dense forward-Euler
/// solver (fresh `Vec`s per sub-step, O(n²) derivative), measured with the
/// same workload on the machine that produced the "after" numbers in the
/// checked-in `BENCH_thermal.json`. The acceptance bar for the CSR +
/// exact-propagator rework is ≥ 3× against this.
const SEED_BASELINE_DIE_ADVANCE_1S_NS: f64 = 11660.0;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Independent measurements behind each gated number.
const GATE_ROUNDS: usize = 5;

/// A gated number fails when it exceeds this multiple of the committed one.
const GATE_LIMIT: f64 = 3.0;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Median of `reps` timed loops of `iters` calls each, in ns per call.
fn median_ns_per_iter(mut f: impl FnMut(), iters: u32, reps: u32) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / f64::from(iters)
            })
            .collect(),
    )
}

/// A gated number: the median of [`GATE_ROUNDS`] calls of `measure`,
/// each of which builds, warms and times its own state.
fn gated(measure: impl FnMut() -> f64) -> f64 {
    median(std::iter::repeat_with(measure).take(GATE_ROUNDS).collect())
}

/// The committed number at `path` in the previous output document.
fn committed_at(doc: Option<&Value>, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(doc?, |v, key| v.get(key))
        .and_then(Value::as_f64)
}

/// Compares each `(label, fresh, committed)` against [`GATE_LIMIT`]
/// times the committed number and reports every comparison; returns
/// whether all passed. A missing committed number skips its gate.
fn gates_pass(gates: &[(&str, f64, Option<f64>)], out_path: &str) -> bool {
    let mut pass = true;
    for &(label, fresh, committed) in gates {
        let Some(committed) = committed else {
            eprintln!(
                "bench_thermal: no committed {label} in {out_path}; gate skipped (first run?)"
            );
            continue;
        };
        let ratio = fresh / committed;
        if ratio > GATE_LIMIT {
            pass = false;
            eprintln!(
                "bench_thermal: GATE FAILED: {label} {fresh:.2} ns is {ratio:.2}x the committed \
                 {committed:.2} ns (limit {GATE_LIMIT}x)"
            );
        } else {
            println!(
                "gate: {label} {fresh:.2} ns vs committed {committed:.2} ns \
                 ({ratio:.2}x, limit {GATE_LIMIT}x)"
            );
        }
    }
    pass
}

fn quad_die() -> DieModel {
    let mut die = DieModel::quad_core();
    for core in 0..4 {
        die.set_core_power(core, 12.0);
    }
    die
}

/// Measures the default stepper's `advance(1.0)` cost and its
/// per-advance heap allocation count in steady state (after a
/// cache-warming advance).
fn measure_die_advance(iters: u32, reps: u32) -> (f64, u64) {
    let mut die = quad_die();
    die.advance(1.0); // warm caches; Exact builds its propagator here

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        die.advance(1.0);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let ns = median_ns_per_iter(
        || {
            die.advance(1.0);
            std::hint::black_box(die.core_temperature(0));
        },
        iters,
        reps,
    );
    (ns, allocs / 100)
}

/// The tick the simulation engine actually runs: every core's power
/// changes, then the die advances one 10 ms tick. `die_advance_1s` holds
/// power constant; this entry prices the per-tick power churn the
/// campaigns pay. Returns (ns per tick, allocs per tick, node count).
fn measure_tick_churn(floorplan: Floorplan, iters: u32, reps: u32) -> (f64, u64, usize) {
    let mut die = DieModel::new(floorplan, DieParams::default());
    let cores = die.num_cores();
    let mut round = 0u64;
    let mut tick = |die: &mut DieModel| {
        for c in 0..cores {
            die.set_core_power(c, 8.0 + ((round * 7 + c as u64 * 3) % 11) as f64);
        }
        round += 1;
        die.advance(0.01);
    };
    tick(&mut die); // warm caches; Exact builds its propagator here

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        tick(&mut die);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let ns = median_ns_per_iter(
        || {
            tick(&mut die);
            std::hint::black_box(die.core_temperature(0));
        },
        iters,
        reps,
    );
    (ns, allocs / 100, die.network().len())
}

/// An N×N grid die under `stepper`.
fn grid_die(n: usize, stepper: Stepper) -> DieModel {
    DieModel::new(
        Floorplan::grid(n, n),
        DieParams {
            stepper,
            ..DieParams::default()
        },
    )
}

/// The `large` sweep's per-advance power churn: every core's power
/// changes before each `advance(1.0)`, as the engine does every tick.
fn churn(die: &mut DieModel, round: u64) {
    for c in 0..die.num_cores() {
        die.set_core_power(c, 0.5 + ((round + c as u64) % 5) as f64);
    }
}

/// Inner-loop length for an N×N cell: bigger grids cost proportionally
/// more per advance, so every cell's wall time stays in the same
/// ballpark.
fn grid_iters(n: usize, iters: u32) -> u32 {
    (iters / (n * n) as u32).max(20)
}

/// Median ns per churned `advance(1.0)` of a fresh N×N grid die under
/// the adaptive embedded-RK controller, after one warm-up advance that
/// seeds the warm-start dt.
fn measure_adaptive_grid(n: usize, iters: u32, reps: u32) -> f64 {
    let mut die = grid_die(n, Stepper::adaptive());
    churn(&mut die, 0);
    die.advance(1.0);
    let mut round = 0u64;
    median_ns_per_iter(
        || {
            churn(&mut die, round);
            round += 1;
            die.advance(1.0);
            std::hint::black_box(die.core_temperature(0));
        },
        grid_iters(n, iters),
        reps,
    )
}

/// One `large` sweep cell around its timed adaptive advance: the
/// adaptive path's allocations and accepted/rejected steps per churned
/// advance, and the exact propagator for comparison. Past
/// [`DENSE_STEADY_LIMIT`] nodes the die runs matrix-free — CSR matvecs
/// for the RK stages, Jacobi-CG for the steady solve — so the sweep
/// shows the crossover from the dense exact propagator to the sparse
/// path. Returns the JSON cell for `large.grids`.
fn large_grid_cell(n: usize, adaptive_ns: f64, iters: u32, reps: u32) -> Value {
    let mut die = grid_die(n, Stepper::adaptive());
    let nodes = die.network().len();
    churn(&mut die, 0);
    die.advance(1.0); // warm-up seeds the warm-start dt

    let (steps0, rej0) = (
        die.network().adaptive_steps(),
        die.network().step_rejections(),
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..50u64 {
        churn(&mut die, i);
        die.advance(1.0);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let accepted = (die.network().adaptive_steps() - steps0) as f64 / 50.0;
    let rejected = (die.network().step_rejections() - rej0) as f64 / 50.0;

    let mut cell = Value::object();
    cell.set("nodes", Value::UInt(nodes as u64));
    cell.set(
        "steady_solver",
        Value::Str(
            if nodes > DENSE_STEADY_LIMIT {
                "matrix-free"
            } else {
                "dense"
            }
            .into(),
        ),
    );
    cell.set("adaptive_advance_1s_ns", Value::num(adaptive_ns));
    cell.set("allocs_per_advance", Value::UInt(allocs / 50));
    cell.set("accepted_steps_per_advance", Value::num(accepted));
    cell.set("rejected_steps_per_advance", Value::num(rejected));

    // The exact propagator for comparison where its O(n³) setup and
    // O(n²) step are still tolerable; past 16×16 the build alone would
    // dwarf the whole sweep, so the largest cell is adaptive-only.
    if n <= 16 {
        let mut exact = grid_die(n, Stepper::Exact);
        churn(&mut exact, 0);
        let t0 = Instant::now();
        exact.advance(1.0); // builds [E | F]: expm(-C⁻¹A·dt) and (I − E)·A⁻¹
        let first_ns = t0.elapsed().as_nanos() as f64;
        let mut round = 0u64;
        let exact_ns = median_ns_per_iter(
            || {
                churn(&mut exact, round);
                round += 1;
                exact.advance(1.0);
                std::hint::black_box(exact.core_temperature(0));
            },
            grid_iters(n, iters),
            reps.min(3),
        );
        cell.set("exact_first_advance_ns", Value::num(first_ns));
        cell.set("exact_advance_1s_ns", Value::num(exact_ns));
    } else {
        cell.set(
            "exact_note",
            Value::Str(format!(
                "skipped: exact propagator build is O(n^3) at {nodes} nodes"
            )),
        );
    }
    cell
}

/// Per-call cost of the telemetry macros while recording is off, in
/// ns/op. Must run before anything enables recording: the whole point is
/// the price every instrumented call site pays when telemetry is idle.
fn measure_disabled_overhead() -> (f64, f64, f64, f64) {
    assert!(
        !tel::enabled(),
        "disabled-overhead must be measured before telemetry is enabled"
    );
    let (iters, reps) = (1_000_000, 5);
    let counter_ns = median_ns_per_iter(
        || {
            tel::counter!("bench.disabled.counter");
        },
        iters,
        reps,
    );
    let span_ns = median_ns_per_iter(
        || {
            let _g = tel::span!("bench.disabled.span");
        },
        iters,
        reps,
    );
    let event_ns = median_ns_per_iter(
        || {
            tel::event!("bench.disabled.event", "unevaluated {}", 1);
        },
        iters,
        reps,
    );
    // The one gated number here.
    let trace_span_ns = gated(|| {
        median_ns_per_iter(
            || {
                let _g = tel::trace_span!("bench.disabled.trace");
            },
            iters,
            reps,
        )
    });
    (counter_ns, span_ns, event_ns, trace_span_ns)
}

/// Per-call cost of a traced span while telemetry *and* tracing are both
/// on: allocate ids, time the scope, and push the record into the
/// per-thread trace ring. Recording is switched off again before
/// returning so later measurements stay clean.
fn measure_tracing_overhead() -> f64 {
    tel::set_enabled(true);
    tel::set_trace_enabled(true);
    let ns = median_ns_per_iter(
        || {
            let _g = tel::trace_span!("bench.tracing.span");
        },
        200_000,
        5,
    );
    tel::set_trace_enabled(false);
    tel::set_enabled(false);
    ns
}

/// End-to-end scenario throughput with the default config: simulated
/// seconds per wall-clock second on a single-app mpeg_dec run.
fn measure_scenario(max_sim_time: f64) -> (f64, f64) {
    let sim = SimConfig {
        max_sim_time,
        ..SimConfig::default()
    };
    let scenario = Scenario::single(alpbench::mpeg_dec(DataSet::One));
    let t0 = Instant::now();
    let outcome = run_scenario(&scenario, Box::new(NullController::default()), &sim, 7);
    let wall_s = t0.elapsed().as_secs_f64();
    (outcome.total_time, wall_s)
}

fn main() {
    let mut quick = false;
    let mut gate = false;
    let mut out_path = String::from("BENCH_thermal.json");
    let mut telemetry: Option<String> = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--telemetry" => {
                telemetry = Some(match args.peek() {
                    Some(next) if !next.starts_with("--") => args.next().expect("peeked value"),
                    _ => "telemetry.json".to_string(),
                });
            }
            other => {
                eprintln!("bench_thermal: unknown flag {other:?}");
                eprintln!(
                    "usage: bench_thermal [--quick] [--gate] [--out PATH] [--telemetry [PATH]]"
                );
                std::process::exit(2);
            }
        }
    }
    let (iters, reps) = if quick { (2_000, 3) } else { (20_000, 7) };

    // Read the committed numbers before we overwrite the file: the gate
    // compares fresh measurements against what the repo last recorded.
    let committed_doc: Option<Value> = if gate {
        std::fs::read_to_string(&out_path)
            .ok()
            .and_then(|text| Value::parse(&text).ok())
    } else {
        None
    };

    let mut doc = Value::object();
    doc.set("bench", Value::Str("bench_thermal".into()));
    doc.set("quick", Value::Bool(quick));
    doc.set(
        "workload",
        Value::Str("quad-core die, 12 W/core, advance(1.0 s)".into()),
    );

    let mut baseline = Value::object();
    baseline.set(
        "die_advance_1s_ns",
        Value::num(SEED_BASELINE_DIE_ADVANCE_1S_NS),
    );
    baseline.set(
        "note",
        Value::Str("growth seed: dense O(n^2) forward Euler with per-step Vec allocations".into()),
    );
    doc.set("baseline", baseline);

    let stepper = Stepper::default();
    let mut allocs = 0;
    let default_ns = gated(|| {
        let (ns, a) = measure_die_advance(iters, reps);
        allocs = allocs.max(a);
        ns
    });
    println!("die_advance_1s [{stepper}]: {default_ns:.0} ns/iter, {allocs} allocs/advance");
    let mut entry = Value::object();
    entry.set("die_advance_1s_ns", Value::num(default_ns));
    entry.set("allocs_per_advance", Value::UInt(allocs));
    let mut steppers = Value::object();
    steppers.set(&stepper.to_string(), entry);
    doc.set("steppers", steppers);
    doc.set("default_stepper", Value::Str(stepper.to_string()));
    doc.set("die_advance_1s_ns", Value::num(default_ns));
    let speedup = SEED_BASELINE_DIE_ADVANCE_1S_NS / default_ns;
    doc.set("speedup_vs_baseline", Value::num(speedup));
    println!("speedup vs seed baseline: {speedup:.1}x");

    // Power churn every tick, as in the campaigns; the quad entry is gated.
    let mut churn_doc = Value::object();
    churn_doc.set(
        "workload",
        Value::Str("set_core_power on every core (new value each tick), advance(0.01 s)".into()),
    );
    let mut quad_tick_ns = f64::NAN;
    for (name, floorplan) in [
        ("quad", Floorplan::quad()),
        ("grid_4x4", Floorplan::grid(4, 4)),
    ] {
        let (mut allocs, mut nodes) = (0, 0);
        let mut timed = || {
            let (ns, a, n) = measure_tick_churn(floorplan, iters * 25, reps);
            (allocs, nodes) = (allocs.max(a), n);
            ns
        };
        let ns = if name == "quad" {
            gated(timed)
        } else {
            timed()
        };
        println!("die_tick_churn [{name}, {nodes} nodes]: {ns:.0} ns/tick, {allocs} allocs/tick");
        let mut entry = Value::object();
        entry.set("nodes", Value::UInt(nodes as u64));
        entry.set("die_tick_churn_ns", Value::num(ns));
        entry.set("allocs_per_tick", Value::UInt(allocs));
        churn_doc.set(name, entry);
        if name == "quad" {
            quad_tick_ns = ns;
        }
    }
    doc.set("tick_churn", churn_doc);
    doc.set("die_tick_churn_ns", Value::num(quad_tick_ns));

    // Large-floorplan fast path: N×N grids under the adaptive stepper,
    // crossing from the dense exact regime into sparse matrix-free at
    // DENSE_STEADY_LIMIT nodes; the 16×16 cell is gated. Telemetry is
    // still off.
    let mut large_doc = Value::object();
    large_doc.set(
        "workload",
        Value::Str(
            "NxN grid die, per-advance power churn, adaptive(1e-6,1e-9) advance(1.0 s)".into(),
        ),
    );
    large_doc.set(
        "dense_steady_limit_nodes",
        Value::UInt(DENSE_STEADY_LIMIT as u64),
    );
    let mut grids = Value::object();
    let mut adaptive_16_ns = f64::NAN;
    for n in [2usize, 4, 8, 16, 32] {
        let timed = || measure_adaptive_grid(n, iters, reps);
        let adaptive_ns = if n == 16 { gated(timed) } else { timed() };
        let cell = large_grid_cell(n, adaptive_ns, iters, reps);
        println!(
            "large_grid [{n}x{n}, {} nodes, {}]: adaptive {adaptive_ns:.0} ns/advance, \
             {} allocs, {} accepted / {} rejected steps per advance",
            cell.get("nodes").and_then(Value::as_f64).unwrap_or(0.0),
            cell.get("steady_solver")
                .and_then(Value::as_str)
                .unwrap_or("?"),
            cell.get("allocs_per_advance")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            cell.get("accepted_steps_per_advance")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            cell.get("rejected_steps_per_advance")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
        );
        if n == 16 {
            adaptive_16_ns = adaptive_ns;
        }
        grids.set(&format!("{n}x{n}"), cell);
    }
    large_doc.set("grids", grids);
    doc.set("large", large_doc);

    let (counter_ns, span_ns, event_ns, trace_span_ns) = measure_disabled_overhead();
    println!(
        "telemetry disabled overhead: counter {counter_ns:.2} ns/op, \
         span {span_ns:.2} ns/op, event {event_ns:.2} ns/op, \
         trace_span {trace_span_ns:.2} ns/op"
    );
    let mut overhead = Value::object();
    overhead.set("counter_ns", Value::num(counter_ns));
    overhead.set("span_ns", Value::num(span_ns));
    overhead.set("event_ns", Value::num(event_ns));
    overhead.set("trace_span_ns", Value::num(trace_span_ns));
    doc.set("telemetry_disabled_overhead", overhead);

    if gate {
        let committed = |path: &[&str]| committed_at(committed_doc.as_ref(), path);
        let gates = [
            (
                "die_advance_1s",
                default_ns,
                committed(&["die_advance_1s_ns"]),
            ),
            (
                "die_tick_churn",
                quad_tick_ns,
                committed(&["die_tick_churn_ns"]),
            ),
            (
                "16x16 adaptive_advance_1s",
                adaptive_16_ns,
                committed(&["large", "grids", "16x16", "adaptive_advance_1s_ns"]),
            ),
            (
                "tracing-disabled trace_span",
                trace_span_ns,
                committed(&["telemetry_disabled_overhead", "trace_span_ns"]),
            ),
        ];
        if !gates_pass(&gates, &out_path) {
            eprintln!("bench_thermal: {out_path} left untouched");
            std::process::exit(1);
        }
    }

    // The enabled-path cost: what each span actually pays when a trace is
    // being recorded (ids + clock reads + ring push).
    let trace_enabled_ns = measure_tracing_overhead();
    println!("tracing enabled overhead: trace_span {trace_enabled_ns:.2} ns/op");
    let mut tracing = Value::object();
    tracing.set("trace_span_enabled_ns", Value::num(trace_enabled_ns));
    doc.set("tracing_overhead", tracing);

    // Recording (when requested) starts only now: every timing above is
    // measured with telemetry off.
    if telemetry.is_some() {
        tel::set_enabled(true);
    }
    let tel_baseline = tel::snapshot();
    let (sim_s, wall_s) = measure_scenario(if quick { 60.0 } else { 600.0 });
    let throughput = sim_s / wall_s;
    println!(
        "scenario throughput: {throughput:.0} simulated s / wall s ({sim_s:.0} s in {wall_s:.2} s)"
    );
    let mut scenario = Value::object();
    scenario.set("simulated_s", Value::num(sim_s));
    scenario.set("wall_s", Value::num(wall_s));
    scenario.set("sim_seconds_per_wall_second", Value::num(throughput));
    doc.set("scenario", scenario);

    if let Some(path) = &telemetry {
        tel::snapshot()
            .since(&tel_baseline)
            .write_files(path.as_ref())
            .expect("write telemetry output");
        println!("-> {path}");
    }

    std::fs::write(&out_path, format!("{}\n", doc.to_json())).expect("write bench output");
    println!("-> {out_path}");
}
