//! Proves the steady-state stepping path performs zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! advance (which is allowed to build caches), further stepping with any
//! [`Stepper`] — including with powers changing between ticks, as the
//! simulation engine does — must not allocate at all.
//!
//! This lives in its own integration-test binary with a single `#[test]`
//! so no concurrently running test can pollute the allocation counter,
//! and the counter is per thread: the test harness's main thread may
//! still be allocating while the test runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use thermorl_thermal::{DieBatch, DieModel, DieParams, Floorplan, Stepper};

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

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_stepping_does_not_allocate() {
    for stepper in [Stepper::Exact, Stepper::adaptive()] {
        let mut die = DieModel::new(
            Floorplan::quad(),
            DieParams {
                stepper,
                ..DieParams::default()
            },
        );
        for c in 0..4 {
            die.set_core_power(c, 10.0);
        }
        // Warm-up: the exact stepper may build its [E | F] cache here; the
        // adaptive stepper is already fully preallocated.
        die.advance(1.0);

        let n = allocs_during(|| {
            for _ in 0..100 {
                die.advance(1.0);
            }
        });
        assert_eq!(n, 0, "{stepper}: steady stepping must not allocate");

        // The engine's real usage: powers change every tick. For Exact the
        // new powers enter through u and the cached [E | F] block, which
        // must also be allocation-free.
        let n = allocs_during(|| {
            for i in 0..100u64 {
                for c in 0..4 {
                    die.set_core_power(c, 5.0 + (i % 7) as f64 + c as f64);
                }
                die.advance(1.0);
            }
        });
        assert_eq!(
            n, 0,
            "{stepper}: stepping with changing powers must not allocate"
        );
    }

    // The batched path must uphold the same guarantee (this stays inside
    // the single #[test] so no concurrent test pollutes the counter).
    for stepper in [Stepper::Exact, Stepper::adaptive()] {
        let proto = DieModel::new(
            Floorplan::quad(),
            DieParams {
                stepper,
                ..DieParams::default()
            },
        );
        let mut batch = DieBatch::new(&proto, 64);
        for die in 0..batch.width() {
            for c in 0..4 {
                batch.set_core_power(die, c, 10.0);
            }
        }
        // Warm-up builds the shared [E | F] block; after that the batch
        // path owns all its scratch.
        batch.advance(1.0);

        let n = allocs_during(|| {
            for _ in 0..100 {
                batch.advance(1.0);
            }
        });
        assert_eq!(n, 0, "{stepper}: steady batch stepping must not allocate");

        // Per-die power churn between ticks: each touched die's u column
        // is rewritten in place, still allocation-free.
        let n = allocs_during(|| {
            for i in 0..100u64 {
                for die in 0..batch.width() {
                    batch.set_core_power(die, (i % 4) as usize, 5.0 + (i % 7) as f64);
                }
                batch.advance(1.0);
            }
        });
        assert_eq!(
            n, 0,
            "{stepper}: batch stepping with changing powers must not allocate"
        );
    }

    // Large-floorplan fast path: a 16×16 grid (258 nodes) is past the
    // dense-steady limit, so the die is matrix-free and `Auto` resolves
    // to the adaptive stepper. Under power churn every advance refreshes
    // the inject buffer and re-runs the embedded RK controller — all of
    // it out of the preallocated workspace.
    for stepper in [Stepper::adaptive(), Stepper::Auto] {
        let mut die = DieModel::new(
            Floorplan::grid(16, 16),
            DieParams {
                stepper,
                ..DieParams::default()
            },
        );
        for c in 0..256 {
            die.set_core_power(c, 0.5 + (c % 5) as f64);
        }
        // Warm-up: the first adaptive advance seeds the warm-start dt.
        die.advance(1.0);

        let n = allocs_during(|| {
            for i in 0..20u64 {
                for c in 0..256 {
                    die.set_core_power(c, 0.5 + ((i + c as u64) % 5) as f64);
                }
                die.advance(1.0);
            }
        });
        assert_eq!(
            n, 0,
            "{stepper}: 16x16 adaptive stepping with churn must not allocate"
        );
    }
}
