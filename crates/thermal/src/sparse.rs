//! Matrix-free kernels over the CSR conductance graph.
//!
//! Everything a large floorplan needs to step and settle without ever
//! densifying the system matrix: a borrowed [`OdeView`] exposing the
//! thermal ODE derivative and the steady-state operator as O(nnz)
//! matvecs, and a Jacobi-preconditioned conjugate-gradient solve for
//! `A·T_ss = b` where `A = diag(g) − G_offdiag` is the symmetric
//! positive-definite conductance matrix (ambient links make it strictly
//! diagonally dominant, hence SPD).

/// Relative residual tolerance for the steady-state CG solve. Tight
/// enough that the matrix-free steady state matches the dense LU one to
/// round-off at the temperatures this model produces.
pub(crate) const CG_REL_TOL: f64 = 1e-12;

/// Borrowed view of an [`crate::RcNetwork`]'s CSR structure plus the
/// precomputed `1/C` vector: what the adaptive stepper and the
/// steady-state CG solve run on.
pub(crate) struct OdeView<'a> {
    pub row_ptr: &'a [usize],
    pub col_idx: &'a [usize],
    pub edge_g: &'a [f64],
    pub diag_g: &'a [f64],
    pub inv_cap: &'a [f64],
}

impl OdeView<'_> {
    /// Node count.
    pub fn len(&self) -> usize {
        self.diag_g.len()
    }

    /// `out = C⁻¹(inject − A·t)` where `inject[i] = P_i + g_amb_i·T_amb`
    /// is refreshed only when power or ambient change, not per stage.
    pub fn derivative(&self, inject: &[f64], t: &[f64], out: &mut [f64]) {
        for i in 0..self.len() {
            let mut q = inject[i] - self.diag_g[i] * t[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                q += self.edge_g[k] * t[self.col_idx[k]];
            }
            out[i] = q * self.inv_cap[i];
        }
    }

    /// `out = A·x` for the steady-state system `A·T_ss = b`.
    pub fn steady_matvec(&self, x: &[f64], out: &mut [f64]) {
        for i in 0..self.len() {
            let mut q = self.diag_g[i] * x[i];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                q -= self.edge_g[k] * x[self.col_idx[k]];
            }
            out[i] = q;
        }
    }
}

/// Preallocated scratch for [`cg_solve`]; lives in the network
/// [`crate::RcNetwork`] workspace so steady solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct CgScratch {
    pub r: Vec<f64>,
    pub z: Vec<f64>,
    pub p: Vec<f64>,
    pub ap: Vec<f64>,
}

impl CgScratch {
    pub fn with_len(n: usize) -> Self {
        CgScratch {
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Jacobi-preconditioned conjugate gradient on `A·x = b`, starting from
/// `x = 0`. Converges on the infinity-norm residual relative to `b`;
/// returns the iteration count (for the `thermal.cg_iterations` counter).
pub(crate) fn cg_solve(
    ode: &OdeView<'_>,
    b: &[f64],
    x: &mut [f64],
    s: &mut CgScratch,
    rel_tol: f64,
) -> u64 {
    let n = ode.len();
    x.fill(0.0);
    let bnorm = b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if bnorm == 0.0 {
        return 0;
    }
    let tol = rel_tol * bnorm;
    s.r.copy_from_slice(b);
    for i in 0..n {
        s.z[i] = s.r[i] / ode.diag_g[i];
    }
    s.p.copy_from_slice(&s.z);
    let mut rz = dot(&s.r, &s.z);
    let max_iter = 20 * n as u64 + 100;
    for iter in 1..=max_iter {
        ode.steady_matvec(&s.p, &mut s.ap);
        let pap = dot(&s.p, &s.ap);
        if pap <= 0.0 || !pap.is_finite() {
            // Numerical breakdown: A is SPD by construction, so this only
            // happens at round-off level — x already holds the best iterate.
            return iter;
        }
        let alpha = rz / pap;
        let mut rmax = 0.0f64;
        for (((xi, ri), &pi), &api) in x.iter_mut().zip(s.r.iter_mut()).zip(&s.p).zip(&s.ap) {
            *xi += alpha * pi;
            *ri -= alpha * api;
            rmax = rmax.max(ri.abs());
        }
        if rmax <= tol {
            return iter;
        }
        for i in 0..n {
            s.z[i] = s.r[i] / ode.diag_g[i];
        }
        let rz_new = dot(&s.r, &s.z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            s.p[i] = s.z[i] + beta * s.p[i];
        }
    }
    max_iter
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Owned CSR pieces: (row_ptr, col_idx, edge_g, diag_g, inv_cap).
    type OwnedCsr = (Vec<usize>, Vec<usize>, Vec<f64>, Vec<f64>, Vec<f64>);

    /// A 3-node chain with ambient links on every node.
    fn chain() -> OwnedCsr {
        // edges: 0-1 (g=2), 1-2 (g=3); ambient g = [1, 0.5, 0.25]
        let row_ptr = vec![0, 1, 3, 4];
        let col_idx = vec![1, 0, 2, 1];
        let edge_g = vec![2.0, 2.0, 3.0, 3.0];
        let diag_g = vec![1.0 + 2.0, 0.5 + 2.0 + 3.0, 0.25 + 3.0];
        let inv_cap = vec![1.0, 1.0, 1.0];
        (row_ptr, col_idx, edge_g, diag_g, inv_cap)
    }

    #[test]
    fn cg_solves_the_chain_to_high_accuracy() {
        let (row_ptr, col_idx, edge_g, diag_g, inv_cap) = chain();
        let ode = OdeView {
            row_ptr: &row_ptr,
            col_idx: &col_idx,
            edge_g: &edge_g,
            diag_g: &diag_g,
            inv_cap: &inv_cap,
        };
        let b = vec![7.0, -2.0, 4.5];
        let mut x = vec![0.0; 3];
        let mut s = CgScratch::with_len(3);
        let iters = cg_solve(&ode, &b, &mut x, &mut s, 1e-13);
        assert!((1..=60).contains(&iters), "iters = {iters}");
        let mut ax = vec![0.0; 3];
        ode.steady_matvec(&x, &mut ax);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-10, "residual too large");
        }
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let (row_ptr, col_idx, edge_g, diag_g, inv_cap) = chain();
        let ode = OdeView {
            row_ptr: &row_ptr,
            col_idx: &col_idx,
            edge_g: &edge_g,
            diag_g: &diag_g,
            inv_cap: &inv_cap,
        };
        let mut x = vec![9.0; 3];
        let mut s = CgScratch::with_len(3);
        assert_eq!(cg_solve(&ode, &[0.0; 3], &mut x, &mut s, 1e-12), 0);
        assert_eq!(x, vec![0.0; 3]);
    }
}
