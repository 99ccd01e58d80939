//! Embedded adaptive Runge–Kutta integration behind a Butcher-table trait.
//!
//! The zero-alloc integrator is generic over an [`RkTable`] — a
//! compile-time first-same-as-last (FSAL) Butcher tableau with an
//! embedded lower-order error row; [`DormandPrince54`] is the one
//! provided. Step size is driven by a per-node error estimate
//! `sc_i = abs_tol + rel_tol·max(|y_i|, |y'_i|)` (RMS over nodes) and a
//! PI controller (accept factor `0.9·err^(−0.7/p)·err_prev^(0.4/p)`,
//! clamped to `[0.2, 10]`), and the final stage of each accepted step
//! seeds the first stage of the next.
//!
//! The thermal ODE is autonomous within one advance (power and ambient
//! are held piecewise constant), so the tableau's `c` nodes never enter
//! the right-hand side and are omitted.

use crate::sparse::OdeView;

/// Maximum stage count across the provided tables; sizes the stage
/// buffers in the network workspace.
pub const MAX_RK_STAGES: usize = 7;

/// A Butcher tableau for an embedded explicit Runge–Kutta pair.
///
/// `A[s]` holds the `s` coupling coefficients feeding stage `s` (row 0 is
/// empty). `B` is the higher-order solution row; `E = B − B̂` is the
/// difference against the embedded lower-order row, so `h·Σ E_s·k_s` is
/// the local error estimate directly. The table must be first-same-as-last:
/// `A`'s last row equals `B`, so the final stage state *is* the solution
/// and its derivative seeds stage 0 of the next step for free.
pub trait RkTable {
    /// Human-readable name, for diagnostics.
    const NAME: &'static str;
    /// Number of stages.
    const STAGES: usize;
    /// Order used for step-size control (the propagated solution's order).
    const ORDER: usize;
    /// Lower-triangular coupling coefficients; `A[s].len() == s`.
    const A: &'static [&'static [f64]];
    /// Solution weights (length `STAGES`), equal to `A`'s last row.
    const B: &'static [f64];
    /// Error weights `B − B̂` (length `STAGES`).
    const E: &'static [f64];
}

/// Dormand–Prince 5(4): 7 stages, FSAL, the `ode45` workhorse. Propagates
/// the 5th-order solution; the embedded 4th-order row drives step control.
pub struct DormandPrince54;

impl RkTable for DormandPrince54 {
    const NAME: &'static str = "dormand-prince-5(4)";
    const STAGES: usize = 7;
    const ORDER: usize = 5;
    const A: &'static [&'static [f64]] = &[
        &[],
        &[1.0 / 5.0],
        &[3.0 / 40.0, 9.0 / 40.0],
        &[44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0],
        &[
            19372.0 / 6561.0,
            -25360.0 / 2187.0,
            64448.0 / 6561.0,
            -212.0 / 729.0,
        ],
        &[
            9017.0 / 3168.0,
            -355.0 / 33.0,
            46732.0 / 5247.0,
            49.0 / 176.0,
            -5103.0 / 18656.0,
        ],
        &[
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
        ],
    ];
    const B: &'static [f64] = &[
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
        0.0,
    ];
    const E: &'static [f64] = &[
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ];
}

/// Outcome of one adaptive advance (one call of the crate-internal
/// `integrate` kernel).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveStats {
    /// Accepted steps taken over the advance.
    pub accepted: u64,
    /// Rejected (retried) step attempts.
    pub rejected: u64,
    /// Step size the controller would take next — the warm-start `dt`
    /// for the following advance.
    pub dt_next: f64,
}

const SAFETY: f64 = 0.9;
const MIN_ACCEPT_FACTOR: f64 = 0.2;
const MAX_ACCEPT_FACTOR: f64 = 10.0;

/// Integrates `y' = C⁻¹(inject − A·y)` over `duration`, adapting the step
/// from `dt_init`. All state lives in caller-provided buffers (`stages`
/// must hold at least `T::STAGES` slices of `y.len()` each); the kernel
/// allocates nothing. Panics if the controller underflows the step — for
/// this class of diagonally-dominant RC systems that indicates a broken
/// network (NaN power/conductance), not stiffness.
#[allow(clippy::too_many_arguments)]
pub(crate) fn integrate<T: RkTable>(
    ode: &OdeView<'_>,
    inject: &[f64],
    y: &mut [f64],
    duration: f64,
    dt_init: f64,
    rel_tol: f64,
    abs_tol: f64,
    stages: &mut [&mut [f64]],
    y_stage: &mut [f64],
    y_new: &mut [f64],
) -> AdaptiveStats {
    debug_assert!(stages.len() >= T::STAGES);
    let n = y.len();
    let order = T::ORDER as f64;
    let alpha = 0.7 / order;
    let beta = 0.4 / order;
    let mut dt = if dt_init.is_finite() && dt_init > 0.0 {
        dt_init.min(duration)
    } else {
        duration
    };
    let mut remaining = duration;
    // stages[0] holds f(y) from here on: computed once, then carried over
    // from the final stage of each accepted step.
    ode.derivative(inject, y, stages[0]);
    let mut err_prev = 1.0f64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    while remaining > 0.0 {
        let clipped = dt >= remaining;
        let h = if clipped { remaining } else { dt };
        assert!(
            h.is_finite() && h > duration * 1e-14,
            "adaptive step underflow (h = {h:e} over duration {duration:e}): \
             non-finite network state?"
        );
        for s in 1..T::STAGES {
            let row = T::A[s];
            let (prev, rest) = stages.split_at_mut(s);
            for i in 0..n {
                let mut acc = y[i];
                for (j, &aj) in row.iter().enumerate() {
                    if aj != 0.0 {
                        acc += h * aj * prev[j][i];
                    }
                }
                y_stage[i] = acc;
            }
            ode.derivative(inject, y_stage, rest[0]);
        }
        // Last A row == B: the final stage state is the higher-order
        // solution, already in y_stage.
        y_new.copy_from_slice(y_stage);
        let mut err_sq = 0.0;
        for i in 0..n {
            let mut de = 0.0;
            for (s, &es) in T::E.iter().enumerate() {
                if es != 0.0 {
                    de += es * stages[s][i];
                }
            }
            let sc = abs_tol + rel_tol * y[i].abs().max(y_new[i].abs());
            let ratio = h * de / sc;
            err_sq += ratio * ratio;
        }
        let err = (err_sq / n as f64).sqrt();
        if err.is_finite() && err <= 1.0 {
            accepted += 1;
            remaining = if clipped {
                0.0
            } else {
                // Absorb float-cancellation tails: a leftover below
                // 1e-12·duration is under the error floor and would
                // otherwise spawn a degenerate final step.
                let left = remaining - h;
                if left <= duration * 1e-12 {
                    0.0
                } else {
                    left
                }
            };
            y.copy_from_slice(y_new);
            // stages[STAGES-1] holds f(y_new): recycle it as stage 0.
            stages.swap(0, T::STAGES - 1);
            let e = err.max(1e-10);
            let factor = (SAFETY * e.powf(-alpha) * err_prev.powf(beta))
                .clamp(MIN_ACCEPT_FACTOR, MAX_ACCEPT_FACTOR);
            err_prev = e;
            if !clipped {
                dt = h * factor;
            }
            // On the clipped final step, keep the unclipped dt as the
            // next advance's warm start.
        } else {
            rejected += 1;
            let factor = if err.is_finite() {
                (SAFETY * err.powf(-1.0 / order)).clamp(0.1, 0.9)
            } else {
                0.1
            };
            dt = h * factor;
            // stages[0] still holds f(y): reuse it on the retry.
        }
    }
    AdaptiveStats {
        accepted,
        rejected,
        dt_next: dt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sum of each A row must equal the c node of classic tableaus;
    /// for DP54 the nodes are [0, 1/5, 3/10, 4/5, 8/9, 1, 1].
    #[test]
    fn dp54_row_sums_match_nodes() {
        let c = [0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0];
        for (s, row) in DormandPrince54::A.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!((sum - c[s]).abs() < 1e-12, "row {s}: {sum} vs {}", c[s]);
        }
        let b: f64 = DormandPrince54::B.iter().sum();
        assert!((b - 1.0).abs() < 1e-12, "B must sum to 1");
        let e: f64 = DormandPrince54::E.iter().sum();
        assert!(e.abs() < 1e-12, "E must sum to 0");
        // FSAL: last A row equals B.
        for (a, b) in DormandPrince54::A[6].iter().zip(DormandPrince54::B) {
            assert_eq!(a, b);
        }
    }

    /// Scalar exponential decay y' = −y: the table must track the exact
    /// solution to well within tolerance over many adapted steps.
    #[allow(clippy::type_complexity)]
    fn decay_ode() -> (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>, Vec<f64>) {
        // One node, no edges, diag_g = 1, C = 1, inject = 0 → y' = −y.
        (vec![0, 0], vec![], vec![], vec![1.0], vec![1.0])
    }

    fn run_decay<T: RkTable>() -> (f64, AdaptiveStats) {
        let (row_ptr, col_idx, edge_g, diag_g, inv_cap) = decay_ode();
        let ode = OdeView {
            row_ptr: &row_ptr,
            col_idx: &col_idx,
            edge_g: &edge_g,
            diag_g: &diag_g,
            inv_cap: &inv_cap,
        };
        let mut y = [1.0f64];
        let mut bufs = [[0.0f64]; MAX_RK_STAGES];
        let mut it = bufs.iter_mut();
        let mut stages: Vec<&mut [f64]> = (0..MAX_RK_STAGES)
            .map(|_| &mut it.next().unwrap()[..])
            .collect();
        let mut y_stage = [0.0];
        let mut y_new = [0.0];
        let stats = integrate::<T>(
            &ode,
            &[0.0],
            &mut y,
            5.0,
            0.01,
            1e-8,
            1e-12,
            &mut stages,
            &mut y_stage,
            &mut y_new,
        );
        (y[0], stats)
    }

    #[test]
    fn dp54_tracks_exponential_decay() {
        let (y, stats) = run_decay::<DormandPrince54>();
        let exact = (-5.0f64).exp();
        assert!((y - exact).abs() < 1e-7, "y = {y}, exact = {exact}");
        assert!(stats.accepted >= 5, "too few steps: {:?}", stats);
        assert!(stats.dt_next > 0.0);
    }

    /// A deliberately huge initial step must be rejected, then recovered
    /// from — the controller shrinks dt instead of accepting garbage.
    #[test]
    fn oversized_initial_step_is_rejected_and_recovered() {
        let (row_ptr, col_idx, edge_g, diag_g, inv_cap) = decay_ode();
        let ode = OdeView {
            row_ptr: &row_ptr,
            col_idx: &col_idx,
            edge_g: &edge_g,
            diag_g: &diag_g,
            inv_cap: &inv_cap,
        };
        let mut y = [1.0f64];
        let mut bufs = [[0.0f64]; MAX_RK_STAGES];
        let mut it = bufs.iter_mut();
        let mut stages: Vec<&mut [f64]> = (0..MAX_RK_STAGES)
            .map(|_| &mut it.next().unwrap()[..])
            .collect();
        let stats = integrate::<DormandPrince54>(
            &ode,
            &[0.0],
            &mut y,
            1000.0,
            1000.0,
            1e-10,
            1e-12,
            &mut stages,
            &mut [0.0],
            &mut [0.0],
        );
        assert!(stats.rejected >= 1, "1000 s first step should reject");
        let exact = (-1000.0f64).exp(); // ~0
        assert!((y[0] - exact).abs() < 1e-8, "y = {}", y[0]);
    }
}
