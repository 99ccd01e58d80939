//! Thermal-solver performance snapshot: measures the `die_advance_1s` hot
//! path per stepper (with allocation counts) and end-to-end scenario
//! throughput, and writes the numbers to `BENCH_thermal.json`.
//!
//! Flags:
//! * `--quick` — fewer iterations (CI mode; same JSON shape).
//! * `--out PATH` — output path (default `BENCH_thermal.json`).
//! * `--gate` — regression gate: before overwriting the output file,
//!   parse its committed `die_advance_1s_ns` and `die_tick_churn_ns` and
//!   exit non-zero if either fresh number is more than 3x slower. A
//!   missing or unparsable committed file is a warning, not a failure
//!   (first run).
//! * `--telemetry [PATH]` — record registry metrics during the scenario
//!   measurement and write the snapshot to PATH (default
//!   `telemetry.json`). Stepper timings and the disabled-overhead
//!   entries are always measured before recording is enabled, so the
//!   headline `die_advance_1s` number stays telemetry-free.
//!
//! The output also carries a `telemetry_disabled_overhead` object: the
//! per-call cost of `counter!`/`span!`/`event!`/`trace_span!` while
//! recording is off — one relaxed atomic load and a branch, expected
//! well under 1 ns/op — plus a `tracing_overhead` object with the
//! enabled-path cost of a traced span (`--gate` also bounds the
//! tracing-disabled `trace_span_ns` at 3x the committed number).
//!
//! Timing is manual `Instant`-based sampling (criterion is a
//! dev-dependency and unavailable to bins): each measurement takes the
//! median of several repetitions of a timed loop, which is robust to the
//! occasional scheduler hiccup without criterion's machinery.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use thermorl_runner::{default_workers, par_for_each_mut};
use thermorl_sim::json::Value;
use thermorl_sim::{run_scenario, NullController, SimConfig};
use thermorl_telemetry as tel;
use thermorl_thermal::{DieBatch, DieModel, DieParams, Floorplan, Stepper, DENSE_STEADY_LIMIT};
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

/// Median of `reps` timed loops of `iters` calls each, in ns per call.
fn median_ns_per_iter(mut f: impl FnMut(), iters: u32, reps: u32) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn quad_die(stepper: Stepper) -> DieModel {
    let mut die = DieModel::new(
        Floorplan::quad(),
        DieParams {
            stepper,
            ..DieParams::default()
        },
    );
    for core in 0..4 {
        die.set_core_power(core, 12.0);
    }
    die
}

/// Measures one stepper's `advance(1.0)` cost and its per-advance heap
/// allocation count in steady state (after a cache-warming advance).
fn measure_stepper(stepper: Stepper, iters: u32, reps: u32) -> (f64, u64) {
    let mut die = quad_die(stepper);
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

/// A warmed-up [`DieBatch`] of `width` quad-core dies with per-die power
/// profiles, ready for steady-state advance timing.
fn quad_fleet(width: usize) -> DieBatch {
    let proto = quad_die(Stepper::default());
    let mut batch = DieBatch::new(&proto, width);
    for die in 0..width {
        for core in 0..4 {
            batch.set_core_power(die, core, 8.0 + ((die * 4 + core) % 9) as f64);
        }
    }
    batch.advance(1.0); // builds the shared [E | F] block
    batch
}

/// Measures one fleet-wide `advance(1.0)` for a batch of `width` dies and
/// its per-advance heap allocation count in steady state. Returns
/// (ns per fleet advance, allocs per fleet advance).
fn measure_batch(width: usize, iters: u32, reps: u32) -> (f64, u64) {
    let mut batch = quad_fleet(width);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        batch.advance(1.0);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    // Larger fleets do proportionally more work per advance; shrink the
    // inner loop to keep each measurement's wall time roughly constant.
    let iters = (iters / width as u32).max(200);
    let ns = median_ns_per_iter(
        || {
            batch.advance(1.0);
            std::hint::black_box(batch.core_temperature(0, 0));
        },
        iters,
        reps,
    );
    (ns, allocs / 100)
}

/// Aggregate die-advances/sec across `batches` independent [`DieBatch`]es
/// of `width` dies advanced concurrently via the runner pool's
/// `par_for_each_mut` (one chunk of batches per worker thread).
fn measure_parallel_fleet(batches: usize, width: usize, iters: u32, reps: u32) -> f64 {
    // Each parallel call spawns a scoped thread per worker; stack several
    // fleet advances inside one call so the spawn cost is amortized the
    // way a real campaign (many epochs per dispatch) amortizes it.
    const ADVANCES_PER_CALL: u32 = 32;
    let mut fleet: Vec<DieBatch> = (0..batches).map(|_| quad_fleet(width)).collect();
    let ns = median_ns_per_iter(
        || {
            par_for_each_mut(&mut fleet, |batch| {
                for _ in 0..ADVANCES_PER_CALL {
                    batch.advance(1.0);
                }
            });
        },
        iters,
        reps,
    );
    (batches * width) as f64 * f64::from(ADVANCES_PER_CALL) / ns * 1e9
}

/// One `large` sweep cell: an N×N grid die stepped by the adaptive
/// embedded-RK controller under per-advance power churn (every core's
/// power changes before each `advance(1.0)`, as the engine does every
/// tick). Past [`DENSE_STEADY_LIMIT`] nodes the die runs matrix-free —
/// CSR matvecs for the RK stages, Jacobi-CG for the steady solve —
/// so the sweep shows the crossover from the dense exact propagator to
/// the sparse path. Returns the JSON cell for `large.grids`.
fn measure_large_grid(n: usize, iters: u32, reps: u32) -> (Value, f64) {
    let cores = n * n;
    let churn = |die: &mut DieModel, round: u64| {
        for c in 0..cores {
            die.set_core_power(c, 0.5 + ((round + c as u64) % 5) as f64);
        }
    };
    let mut die = DieModel::new(
        Floorplan::grid(n, n),
        DieParams {
            stepper: Stepper::adaptive(),
            ..DieParams::default()
        },
    );
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

    // Bigger grids cost proportionally more per advance; shrink the inner
    // loop so every cell's wall time stays in the same ballpark.
    let g_iters = (iters / cores as u32).max(20);
    let mut round = 0u64;
    let adaptive_ns = median_ns_per_iter(
        || {
            churn(&mut die, round);
            round += 1;
            die.advance(1.0);
            std::hint::black_box(die.core_temperature(0));
        },
        g_iters,
        reps,
    );

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
        let mut exact = DieModel::new(
            Floorplan::grid(n, n),
            DieParams {
                stepper: Stepper::Exact,
                ..DieParams::default()
            },
        );
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
            g_iters,
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
    (cell, adaptive_ns)
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
    let trace_span_ns = median_ns_per_iter(
        || {
            let _g = tel::trace_span!("bench.disabled.trace");
        },
        iters,
        reps,
    );
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
    let gate_baseline: Option<f64> = committed_doc
        .as_ref()
        .and_then(|doc| doc.get("die_advance_1s_ns").and_then(Value::as_f64));
    let gate_trace_baseline: Option<f64> = committed_doc.as_ref().and_then(|doc| {
        doc.get("telemetry_disabled_overhead")
            .and_then(|o| o.get("trace_span_ns"))
            .and_then(Value::as_f64)
    });
    if gate && gate_baseline.is_none() {
        eprintln!(
            "bench_thermal: --gate requested but no committed die_advance_1s_ns \
             in {out_path}; gate skipped (first run?)"
        );
    }

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

    let mut steppers = Value::object();
    let mut default_ns = f64::NAN;
    for stepper in [Stepper::ForwardEuler, Stepper::Rk4, Stepper::Exact] {
        let (ns, allocs) = measure_stepper(stepper, iters, reps);
        println!("die_advance_1s [{stepper}]: {ns:.0} ns/iter, {allocs} allocs/advance");
        let mut entry = Value::object();
        entry.set("die_advance_1s_ns", Value::num(ns));
        entry.set("allocs_per_advance", Value::UInt(allocs));
        steppers.set(&stepper.to_string(), entry);
        if stepper == Stepper::default() {
            default_ns = ns;
        }
    }
    doc.set("steppers", steppers);
    doc.set(
        "default_stepper",
        Value::Str(Stepper::default().to_string()),
    );
    doc.set("die_advance_1s_ns", Value::num(default_ns));
    let speedup = SEED_BASELINE_DIE_ADVANCE_1S_NS / default_ns;
    doc.set("speedup_vs_baseline", Value::num(speedup));
    println!("speedup vs seed baseline: {speedup:.1}x");

    if let Some(committed) = gate_baseline {
        let ratio = default_ns / committed;
        if ratio > 3.0 {
            eprintln!(
                "bench_thermal: GATE FAILED: die_advance_1s {default_ns:.0} ns is {ratio:.2}x \
                 the committed {committed:.0} ns (limit 3x); {out_path} left untouched"
            );
            std::process::exit(1);
        }
        println!(
            "gate: die_advance_1s {default_ns:.0} ns vs committed {committed:.0} ns \
             ({ratio:.2}x, limit 3x)"
        );
    }

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
        let (ns, allocs, nodes) = measure_tick_churn(floorplan, iters * 25, reps);
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
    let gate_churn_baseline: Option<f64> = committed_doc
        .as_ref()
        .and_then(|doc| doc.get("die_tick_churn_ns").and_then(Value::as_f64));
    if let Some(committed) = gate_churn_baseline {
        let ratio = quad_tick_ns / committed;
        if ratio > 3.0 {
            eprintln!(
                "bench_thermal: GATE FAILED: die_tick_churn {quad_tick_ns:.0} ns is {ratio:.2}x \
                 the committed {committed:.0} ns (limit 3x); {out_path} left untouched"
            );
            std::process::exit(1);
        }
        println!(
            "gate: die_tick_churn {quad_tick_ns:.0} ns vs committed {committed:.0} ns \
             ({ratio:.2}x, limit 3x)"
        );
    } else if gate {
        eprintln!(
            "bench_thermal: no committed die_tick_churn_ns in {out_path}; \
             tick-churn gate skipped (first run?)"
        );
    }

    // Batched stepping: fleets of quad-core dies sharing one propagator
    // GEMM per advance. Telemetry is still off here, so the batch path's
    // counter!/gauge! sites cost one relaxed load each and the
    // allocs_per_advance numbers stay clean.
    let mut batch_doc = Value::object();
    batch_doc.set(
        "workload",
        Value::Str("N quad-core dies, per-die power profiles, advance(1.0 s)".into()),
    );
    let mut widths = Value::object();
    let mut n512_rate = f64::NAN;
    for width in [1usize, 8, 64, 512] {
        let (fleet_ns, allocs) = measure_batch(width, iters, reps);
        let rate = width as f64 / fleet_ns * 1e9;
        println!(
            "batch_advance_1s [N={width}]: {fleet_ns:.0} ns/fleet-advance, \
             {rate:.3e} die-advances/s, {allocs} allocs/advance"
        );
        let mut entry = Value::object();
        entry.set("fleet_advance_1s_ns", Value::num(fleet_ns));
        entry.set("die_advances_per_sec", Value::num(rate));
        entry.set("allocs_per_advance", Value::UInt(allocs));
        widths.set(&width.to_string(), entry);
        if width == 512 {
            n512_rate = rate;
        }
    }
    batch_doc.set("widths", widths);
    batch_doc.set("die_advances_per_sec_n512", Value::num(n512_rate));

    let workers = default_workers();
    let par_rate = measure_parallel_fleet(
        workers,
        512,
        if quick { 20 } else { 60 },
        if quick { 3 } else { 5 },
    );
    println!(
        "parallel fleet [{workers} batches x 512 dies via par_for_each_mut]: \
         {par_rate:.3e} die-advances/s"
    );
    let mut par = Value::object();
    par.set("batches", Value::UInt(workers as u64));
    par.set("width", Value::UInt(512));
    par.set("die_advances_per_sec", Value::num(par_rate));
    batch_doc.set("parallel_fleet", par);
    doc.set("batch", batch_doc);

    // Large-floorplan fast path: N×N grids under the adaptive stepper,
    // crossing from the dense exact regime into sparse matrix-free at
    // DENSE_STEADY_LIMIT nodes. Telemetry is still off.
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
        let (cell, adaptive_ns) = measure_large_grid(n, iters, reps);
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

    let gate_large_baseline: Option<f64> = committed_doc.as_ref().and_then(|doc| {
        doc.get("large")
            .and_then(|l| l.get("grids"))
            .and_then(|g| g.get("16x16"))
            .and_then(|c| c.get("adaptive_advance_1s_ns"))
            .and_then(Value::as_f64)
    });
    if let Some(committed) = gate_large_baseline {
        let ratio = adaptive_16_ns / committed;
        if ratio > 3.0 {
            eprintln!(
                "bench_thermal: GATE FAILED: 16x16 adaptive_advance_1s {adaptive_16_ns:.0} ns \
                 is {ratio:.2}x the committed {committed:.0} ns (limit 3x); \
                 {out_path} left untouched"
            );
            std::process::exit(1);
        }
        println!(
            "gate: 16x16 adaptive_advance_1s {adaptive_16_ns:.0} ns vs committed \
             {committed:.0} ns ({ratio:.2}x, limit 3x)"
        );
    } else if gate {
        eprintln!(
            "bench_thermal: no committed large.grids.16x16.adaptive_advance_1s_ns in \
             {out_path}; large gate skipped (first run?)"
        );
    }

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

    if let Some(committed) = gate_trace_baseline {
        let ratio = trace_span_ns / committed;
        if ratio > 3.0 {
            eprintln!(
                "bench_thermal: GATE FAILED: tracing-disabled trace_span \
                 {trace_span_ns:.2} ns/op is {ratio:.2}x the committed {committed:.2} ns/op \
                 (limit 3x); {out_path} left untouched"
            );
            std::process::exit(1);
        }
        println!(
            "gate: disabled trace_span {trace_span_ns:.2} ns/op vs committed \
             {committed:.2} ns/op ({ratio:.2}x, limit 3x)"
        );
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
        let snap = tel::snapshot().since(&tel_baseline);
        std::fs::write(path, snap.to_json() + "\n").expect("write telemetry output");
        println!("-> {path}");
    }

    std::fs::write(&out_path, format!("{}\n", doc.to_json())).expect("write bench output");
    println!("-> {out_path}");
}
