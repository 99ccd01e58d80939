//! Proves the simulation tick path performs (almost) no heap allocations.
//!
//! A counting global allocator wraps the system allocator. After one
//! warm-up tick has sized the reusable buffers, `Machine::tick` (with
//! balancing, jitter and forced migrations) and
//! `AppExecution::thread_needs_into` must not allocate at all, and a whole
//! `run_app` or two-app `run_concurrent` — set-up, sampling and frame
//! bookkeeping included — must average well under one allocation per
//! simulated tick.
//!
//! This lives in its own integration-test binary with a single `#[test]`
//! so no concurrently running test can pollute the allocation counter,
//! and the counter is per thread: the test harness's main thread may
//! still be allocating while the test runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use thermorl_platform::{
    big_little_quad, AffinityMask, Machine, MachineConfig, ThreadAssignment, ThreadDemand,
};
use thermorl_sim::{run_app, run_concurrent, NullController, RunOutcome, SimConfig};
use thermorl_workload::{alpbench, AppExecution, AppModel, DataSet, SyncModel};

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

/// 2,000 machine ticks with every-tick demand churn, a balancing pass
/// every tenth tick that always jitters, and affinity reassignments that
/// force migrations between ticks.
fn machine_ticks_allocate_nothing(name: &str, config: MachineConfig) {
    const THREADS: usize = 6;
    let mut m = Machine::new(config, 7);
    for _ in 0..THREADS {
        m.add_thread(AffinityMask::all(4));
    }
    // Inputs are built up front: only the machine is measured.
    let demands: Vec<Vec<ThreadDemand>> = (0..16)
        .map(|k| {
            (0..THREADS)
                .map(|i| {
                    if (k + i) % 5 == 0 {
                        ThreadDemand::blocked()
                    } else {
                        ThreadDemand::running(0.3 + 0.1 * ((k * i) % 7) as f64)
                    }
                })
                .collect()
        })
        .collect();
    let assignments = [
        ThreadAssignment::packed(&[3, 3, 0, 0]),
        ThreadAssignment::packed(&[0, 0, 3, 3]),
        ThreadAssignment::os_default(THREADS, 4),
    ];
    let temps = [55.0; 4];
    m.tick(0.01, &demands[0], &temps);

    let migrations_before = m.scheduler().total_migrations();
    let (n, ()) = allocs_during(|| {
        for k in 0..2_000usize {
            if k % 50 == 0 {
                m.apply_assignment(&assignments[(k / 50) % assignments.len()]);
            }
            let tick = m.tick(0.01, &demands[k % demands.len()], &temps);
            assert_eq!(tick.exec_giga_cycles.len(), THREADS);
        }
    });
    assert!(
        m.scheduler().total_migrations() > migrations_before + 100,
        "{name}: the run must exercise migrations"
    );
    assert_eq!(n, 0, "{name}: Machine::tick must not allocate");
}

/// `thread_needs_into` across a whole run of `app`, measured call by
/// call (progress bookkeeping in between is not measured).
fn thread_needs_into_allocates_nothing(app: AppModel) {
    let name = app.name.clone();
    let threads = app.num_threads;
    let mut exec = AppExecution::new(app, 3);
    let mut needs = Vec::new();
    exec.thread_needs_into(&mut needs);
    let mut progress = vec![0.0; threads];
    let mut total = 0;
    let mut now = 0.0;
    while !exec.is_complete() {
        let (n, ()) = allocs_during(|| exec.thread_needs_into(&mut needs));
        total += n;
        assert_eq!(needs.len(), threads);
        for (p, need) in progress.iter_mut().zip(&needs) {
            *p = if need.runnable { 0.05 } else { 0.0 };
        }
        now += 0.01;
        exec.advance(&progress, now);
    }
    // A finished app still answers, with every thread blocked.
    let (n, ()) = allocs_during(|| exec.thread_needs_into(&mut needs));
    total += n;
    assert!(needs.iter().all(|need| !need.runnable));
    assert_eq!(total, 0, "{name}: thread_needs_into must not allocate");
}

#[test]
fn simulation_tick_does_not_allocate() {
    let mut homogeneous = MachineConfig::default();
    homogeneous.scheduler.jitter_prob = 1.0;
    let big_little = MachineConfig {
        core_classes: Some(big_little_quad()),
        ..homogeneous.clone()
    };
    machine_ticks_allocate_nothing("homogeneous", homogeneous);
    machine_ticks_allocate_nothing("big.LITTLE", big_little);

    let barrier = AppModel::builder("barrier")
        .threads(6)
        .frames(20)
        .parallel_gcycles(0.5)
        .serial_gcycles(0.2)
        .build()
        .unwrap();
    let queue = AppModel::builder("queue")
        .threads(6)
        .frames(20)
        .parallel_gcycles(0.5)
        .serial_gcycles(0.2)
        .sync(SyncModel::WorkQueue)
        .build()
        .unwrap();
    thread_needs_into_allocates_nothing(barrier);
    thread_needs_into_allocates_nothing(queue);

    // The whole engine: what is left is set-up, the 1 s metrics tap, the
    // controller's sampling and one buffer per new frame. A concurrent
    // mix runs through the same loop, so it keeps the same budget.
    let config = SimConfig {
        max_sim_time: 200.0,
        ..SimConfig::default()
    };
    let app = alpbench::tachyon(DataSet::One);
    let (n, out) = allocs_during(|| run_app(&app, Box::new(NullController::default()), &config, 1));
    engine_stays_under_budget("run_app", n, &out, &config);
    let mix = [app, alpbench::mpeg_dec(DataSet::One)];
    let (n, out) =
        allocs_during(|| run_concurrent(&mix, Box::new(NullController::default()), &config, 1));
    engine_stays_under_budget("run_concurrent", n, &out, &config);
}

/// A whole run of at least 10,000 ticks averages under 0.1 allocations
/// per tick.
fn engine_stays_under_budget(name: &str, allocs: u64, out: &RunOutcome, config: &SimConfig) {
    let ticks = (out.total_time / config.tick).round();
    assert!(ticks >= 10_000.0, "{name}: run too short: {ticks} ticks");
    let per_tick = allocs as f64 / ticks;
    assert!(
        per_tick < 0.1,
        "{name} made {allocs} allocations over {ticks} ticks ({per_tick:.3} per tick)"
    );
}
