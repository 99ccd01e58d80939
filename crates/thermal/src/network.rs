//! General lumped RC thermal networks.
//!
//! A network is a set of thermal nodes, each with a heat capacitance, linked
//! by thermal conductances to each other and (optionally) to the ambient.
//! Temperatures evolve as
//!
//! ```text
//! C_i dT_i/dt = P_i - g_amb_i (T_i - T_amb) - Σ_j g_ij (T_i - T_j)
//! ```
//!
//! which is exactly the HotSpot-style compact model the DAC'14 paper's
//! related work builds on.
//!
//! The network is the innermost loop of every simulation, so it is built
//! for throughput:
//!
//! * the conductance graph is stored in CSR form (neighbour lists), so a
//!   derivative sweep is O(nnz) instead of O(n²);
//! * every integrator works out of preallocated scratch buffers owned by
//!   the network — steady-state stepping performs **zero** heap
//!   allocations (see `tests/zero_alloc.rs`);
//! * [`Stepper::Exact`] advances a whole step in zero-order-hold form,
//!   `T' = E·T + F·u`, with one product of the cached `n × 2n` block
//!   `[E | F]` (`E = exp(-C⁻¹A·dt)`, `F = (I − E)·A⁻¹`, built once per
//!   step size) against the state block `[T; u]`, where
//!   `u = P + g_amb·T_amb` is kept current by the setters — no solve and
//!   no cache invalidation when powers or ambient move;
//! * [`Stepper::Adaptive`] integrates with an embedded Dormand–Prince
//!   5(4) pair over the sparse CSR graph only — O(nnz) per stage, no
//!   dense `expm`/LU — so floorplans with thousands of nodes still step;
//!   above [`DENSE_STEADY_LIMIT`] nodes the steady-state solve switches
//!   from dense LU to Jacobi-preconditioned conjugate gradient;
//! * [`Stepper::Auto`] picks between the two from the node count.

use crate::linalg::{mul_cols_into, Lu, Matrix, SolveError};
use crate::rk::{self, DormandPrince54, MAX_RK_STAGES};
use crate::sparse::{cg_solve, CgScratch, OdeView, CG_REL_TOL};
use crate::stepper::Stepper;

/// Node count above which [`RcNetworkBuilder::build`] stops materialising
/// and LU-factorising the dense steady-state operator and solves steady
/// states matrix-free (Jacobi-preconditioned CG) instead. At 256 nodes the
/// dense factorisation is ~0.4 MiB and a few ms; past it the O(n³) build
/// and O(n²) storage stop paying for themselves.
pub const DENSE_STEADY_LIMIT: usize = 256;

/// Identifier of a node inside an [`RcNetwork`].
///
/// Node ids are dense indices handed out by [`RcNetworkBuilder::add_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Builder for [`RcNetwork`].
///
/// # Example
///
/// ```
/// use thermorl_thermal::{RcNetworkBuilder, Stepper};
///
/// let mut b = RcNetworkBuilder::new(25.0);
/// let a = b.add_node("core", 10.0);
/// let s = b.add_node("sink", 100.0);
/// b.connect(a, s, 2.0); // 2 W/K between core and sink
/// b.connect_ambient(s, 1.0); // sink leaks to ambient
/// let mut net = b.build().unwrap();
/// net.set_power(a, 10.0);
/// net.advance(1200.0, 0.05, Stepper::Exact);
/// // Steady state: sink = 25 + 10/1 = 35, core = 35 + 10/2 = 40.
/// assert!((net.temperature(a) - 40.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RcNetworkBuilder {
    names: Vec<String>,
    capacitance: Vec<f64>,
    edges: Vec<(usize, usize, f64)>,
    ambient_conductance: Vec<f64>,
    ambient: f64,
    dense_steady_limit: Option<usize>,
}

impl RcNetworkBuilder {
    /// Creates a builder with the given ambient temperature (°C).
    pub fn new(ambient_c: f64) -> Self {
        RcNetworkBuilder {
            ambient: ambient_c,
            ..Default::default()
        }
    }

    /// Adds a node with heat capacitance `capacitance_j_per_k` (J/K) and
    /// returns its id. Initial temperature is ambient.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is not strictly positive.
    pub fn add_node(&mut self, name: impl Into<String>, capacitance_j_per_k: f64) -> NodeId {
        assert!(
            capacitance_j_per_k > 0.0,
            "node capacitance must be positive"
        );
        self.names.push(name.into());
        self.capacitance.push(capacitance_j_per_k);
        self.ambient_conductance.push(0.0);
        NodeId(self.names.len() - 1)
    }

    /// Connects two nodes with a thermal conductance (W/K). Conductances
    /// accumulate if called repeatedly for the same pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or the conductance is negative.
    pub fn connect(&mut self, a: NodeId, b: NodeId, conductance_w_per_k: f64) {
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(conductance_w_per_k >= 0.0, "conductance must be >= 0");
        self.edges.push((a.0, b.0, conductance_w_per_k));
    }

    /// Connects a node to the ambient with the given conductance (W/K).
    pub fn connect_ambient(&mut self, n: NodeId, conductance_w_per_k: f64) {
        assert!(conductance_w_per_k >= 0.0, "conductance must be >= 0");
        self.ambient_conductance[n.0] += conductance_w_per_k;
    }

    /// Overrides the node count at which the steady-state solver switches
    /// from dense LU to matrix-free CG (default [`DENSE_STEADY_LIMIT`]).
    /// A test/bench hook: `0` forces CG on any network, `usize::MAX`
    /// forces the dense factorisation.
    pub fn set_dense_steady_limit(&mut self, limit: usize) {
        self.dense_steady_limit = Some(limit);
    }

    /// Finalises the network: accumulates duplicate edges, compiles the
    /// conductance graph to its CSR neighbour representation, factorises
    /// the steady-state operator once, and preallocates all stepper
    /// scratch space.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::NoNodes`] for an empty network and
    /// [`BuildError::Floating`] when some node has no path (direct or
    /// indirect) to the ambient — such a node would heat without bound.
    pub fn build(self) -> Result<RcNetwork, BuildError> {
        let n = self.names.len();
        if n == 0 {
            return Err(BuildError::NoNodes);
        }
        // Directed edge list, stable-sorted by (row, col): duplicates of a
        // pair stay in insertion order, so the per-pair accumulation below
        // is bit-identical to the dense-matrix accumulation it replaces —
        // without ever materialising an O(n²) matrix.
        let mut directed: Vec<(usize, usize, f64)> = Vec::with_capacity(self.edges.len() * 2);
        for &(a, b, c) in &self.edges {
            directed.push((a, b, c));
            directed.push((b, a, c));
        }
        directed.sort_by_key(|&(row, col, _)| (row, col));
        // CSR neighbour lists (zero-conductance edges are dropped) and the
        // total conductance seen by each node (diagonal of the Laplacian).
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut edge_g = Vec::new();
        let mut diag_g = vec![0.0; n];
        row_ptr.push(0);
        let mut cursor = 0;
        for (i, diag) in diag_g.iter_mut().enumerate() {
            let mut total = self.ambient_conductance[i];
            while cursor < directed.len() && directed[cursor].0 == i {
                let j = directed[cursor].1;
                let mut g = 0.0;
                while cursor < directed.len() && directed[cursor].0 == i && directed[cursor].1 == j
                {
                    g += directed[cursor].2;
                    cursor += 1;
                }
                if g > 0.0 {
                    col_idx.push(j);
                    edge_g.push(g);
                    total += g;
                }
            }
            *diag = total;
            row_ptr.push(col_idx.len());
        }
        // Reachability from ambient-connected nodes through positive edges
        // (zero-sum pairs were dropped above, so the CSR adjacency is
        // exactly the positive-conductance graph).
        let mut reached = vec![false; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&i| self.ambient_conductance[i] > 0.0)
            .collect();
        for &s in &stack {
            reached[s] = true;
        }
        while let Some(i) = stack.pop() {
            for &j in &col_idx[row_ptr[i]..row_ptr[i + 1]] {
                if !reached[j] {
                    reached[j] = true;
                    stack.push(j);
                }
            }
        }
        if let Some(idx) = reached.iter().position(|&r| !r) {
            return Err(BuildError::Floating {
                node: self.names[idx].clone(),
            });
        }
        // Steady-state operator A = diag(g_amb + Σg) - G. The floating-node
        // check above guarantees A is an irreducibly diagonally dominant
        // M-matrix, hence SPD and non-singular. Small networks densify and
        // LU-factorise it once; large ones stay matrix-free and solve
        // steady states by preconditioned CG on demand.
        let limit = self.dense_steady_limit.unwrap_or(DENSE_STEADY_LIMIT);
        let steady = if n <= limit {
            let mut a = Matrix::zeros(n);
            for i in 0..n {
                a[(i, i)] = diag_g[i];
                for k in row_ptr[i]..row_ptr[i + 1] {
                    a[(i, col_idx[k])] = -edge_g[k];
                }
            }
            let lu = a
                .lu()
                .expect("grounded RC networks have a non-singular steady-state operator");
            SteadySolver::Dense(lu)
        } else {
            SteadySolver::MatrixFree
        };
        let inv_capacitance: Vec<f64> = self.capacitance.iter().map(|&c| 1.0 / c).collect();
        let mut net = RcNetwork {
            names: self.names,
            capacitance: self.capacitance,
            inv_capacitance,
            row_ptr,
            col_idx,
            edge_g,
            diag_g,
            steady,
            ambient_conductance: self.ambient_conductance,
            ambient: self.ambient,
            state: vec![self.ambient; 2 * n],
            power: vec![0.0; n],
            scratch: Workspace::with_len(n),
            exact: None,
            adaptive_dt: None,
            propagator_builds: 0,
            adaptive_steps: 0,
            step_rejections: 0,
        };
        net.set_ambient(self.ambient); // fills the injection half of `state`
        Ok(net)
    }
}

/// Error building an [`RcNetwork`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The builder contained no nodes.
    NoNodes,
    /// A node has no conductive path to ambient.
    Floating {
        /// Name of the offending node.
        node: String,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoNodes => write!(f, "network has no nodes"),
            BuildError::Floating { node } => {
                write!(f, "node `{node}` has no path to ambient")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Preallocated stepper scratch, so stepping never touches the heap:
/// the adaptive DP54 pair's stage slopes (`stages[0]` doubles as the
/// exact step's output), its intermediate stage state `tmp` and its trial
/// solution `t0`.
#[derive(Debug, Clone)]
struct Workspace {
    stages: [Vec<f64>; MAX_RK_STAGES],
    tmp: Vec<f64>,
    t0: Vec<f64>,
}

impl Workspace {
    fn with_len(n: usize) -> Self {
        Workspace {
            stages: std::array::from_fn(|_| vec![0.0; n]),
            tmp: vec![0.0; n],
            t0: vec![0.0; n],
        }
    }
}

/// How steady states `A·T_ss = b` are solved: dense LU factorised once at
/// build for small networks, Jacobi-preconditioned CG over the CSR graph
/// for large ones (crossover at the builder's dense-steady limit).
#[derive(Debug, Clone)]
pub(crate) enum SteadySolver {
    Dense(Lu),
    MatrixFree,
}

/// The zero-order-hold step for one step size, shared by the scalar and
/// batched exact steppers: `block` is the `n × 2n` matrix `[E | F]`,
/// stored column by column as [`mul_cols_into`] takes it, with
/// `E = exp(-C⁻¹A·dt)` and `F = (I − E)·A⁻¹`, so one product against the
/// state block `[T; u]` gives `T' = E·T + F·u`. Keyed on `dt` alone:
/// powers and ambient enter only through `u`.
#[derive(Debug, Clone)]
pub(crate) struct Zoh {
    pub dt: f64,
    pub block: Vec<f64>,
}

/// A lumped RC thermal network with per-node power injection.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    names: Vec<String>,
    /// Per-node heat capacitance (J/K); shared with [`crate::NetworkBatch`].
    pub(crate) capacitance: Vec<f64>,
    /// Precomputed `1/C_i`: derivative sweeps multiply instead of divide.
    pub(crate) inv_capacitance: Vec<f64>,
    /// CSR row pointers into `col_idx`/`edge_g` (length `n + 1`).
    pub(crate) row_ptr: Vec<usize>,
    /// CSR neighbour indices.
    pub(crate) col_idx: Vec<usize>,
    /// CSR edge conductances (W/K), parallel to `col_idx`.
    pub(crate) edge_g: Vec<f64>,
    /// Per-node total conductance `g_amb_i + Σ_j g_ij` (the Laplacian
    /// diagonal).
    pub(crate) diag_g: Vec<f64>,
    /// Steady-state solver: dense LU (small) or matrix-free CG (large).
    pub(crate) steady: SteadySolver,
    pub(crate) ambient_conductance: Vec<f64>,
    ambient: f64,
    /// The state block `[T; u]`: node temperatures, then the per-node
    /// injection `u_i = P_i + g_amb_i·T_amb` every stepper reads. The
    /// setters keep `u` current, so no stepper refreshes it.
    state: Vec<f64>,
    power: Vec<f64>,
    scratch: Workspace,
    exact: Option<Zoh>,
    /// Warm-start step size carried between adaptive advances. Not part
    /// of the thermal snapshot state: a restored network restarts the
    /// controller from the `dt` hint (one extra controller transient,
    /// same accuracy).
    adaptive_dt: Option<f64>,
    propagator_builds: u64,
    adaptive_steps: u64,
    step_rejections: u64,
}

impl RcNetwork {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the network has no nodes (never true for built networks).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Number of stored directed edges in the CSR conductance graph
    /// (each undirected conductance is stored twice).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Name of a node.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.0]
    }

    /// Ambient temperature (°C).
    pub fn ambient(&self) -> f64 {
        self.ambient
    }

    /// Sets the ambient temperature (°C); takes effect on the next step.
    pub fn set_ambient(&mut self, ambient_c: f64) {
        self.ambient = ambient_c;
        let n = self.len();
        for ((u, &p), &g) in self.state[n..]
            .iter_mut()
            .zip(&self.power)
            .zip(&self.ambient_conductance)
        {
            *u = p + g * ambient_c;
        }
    }

    /// Current temperature of a node (°C).
    pub fn temperature(&self, n: NodeId) -> f64 {
        self.state[n.0]
    }

    /// All node temperatures, indexed by [`NodeId::index`].
    pub fn temperatures(&self) -> &[f64] {
        &self.state[..self.len()]
    }

    /// Overrides all node temperatures (e.g. to start from a steady state).
    ///
    /// # Panics
    ///
    /// Panics if `temps.len() != self.len()`.
    pub fn set_temperatures(&mut self, temps: &[f64]) {
        let n = self.len();
        assert_eq!(temps.len(), n);
        self.state[..n].copy_from_slice(temps);
    }

    /// Sets the power (W) injected into a node.
    pub fn set_power(&mut self, n: NodeId, watts: f64) {
        let i = n.0;
        let len = self.len();
        self.power[i] = watts;
        self.state[len + i] = watts + self.ambient_conductance[i] * self.ambient;
    }

    /// Power currently injected into a node (W).
    pub fn power(&self, n: NodeId) -> f64 {
        self.power[n.0]
    }

    /// The state block `[T; u]` (temperatures, then injections), which a
    /// [`crate::NetworkBatch`] broadcasts into its columns.
    pub(crate) fn state(&self) -> &[f64] {
        &self.state
    }

    /// All node powers (W), indexed by [`NodeId::index`] — the batch
    /// loaders copy whole power vectors between dies with this.
    pub fn powers(&self) -> &[f64] {
        &self.power
    }

    /// How many times the exact propagator has been (re)built — once per
    /// distinct step size seen by [`Stepper::Exact`]. Diagnostic for cache
    /// behaviour (tests, benches); mirrored onto the telemetry registry as
    /// the `thermal.propagator_builds` counter when recording is enabled.
    pub fn propagator_builds(&self) -> u64 {
        self.propagator_builds
    }

    /// Steady-state solves made while stepping. Always 0: the exact
    /// stepper folds the steady state into its cached `F = (I − E)·A⁻¹`
    /// once per step size. Kept for diagnostics that still read it.
    pub fn steady_refreshes(&self) -> u64 {
        0
    }

    /// Accepted steps taken by [`Stepper::Adaptive`] advances so far.
    /// Mirrored onto the telemetry registry as `thermal.adaptive_steps`.
    pub fn adaptive_steps(&self) -> u64 {
        self.adaptive_steps
    }

    /// Step attempts the adaptive error controller rejected and retried.
    /// Mirrored onto the telemetry registry as `thermal.step_rejections`.
    pub fn step_rejections(&self) -> u64 {
        self.step_rejections
    }

    /// Step size the adaptive controller would take next, if any adaptive
    /// advance has run — the warm start for the next advance (also the
    /// `thermal.dt_current` gauge).
    pub fn adaptive_dt(&self) -> Option<f64> {
        self.adaptive_dt
    }

    /// Borrowed matrix-free view of the CSR graph for the sparse kernels.
    pub(crate) fn ode_view(&self) -> OdeView<'_> {
        OdeView {
            row_ptr: &self.row_ptr,
            col_idx: &self.col_idx,
            edge_g: &self.edge_g,
            diag_g: &self.diag_g,
            inv_cap: &self.inv_capacitance,
        }
    }

    /// Solves the steady-state system `A·x = rhs` into `out` through
    /// whichever solver the build chose.
    fn solve_steady_into(&self, rhs: &[f64], out: &mut [f64], cg: &mut CgScratch) {
        match &self.steady {
            SteadySolver::Dense(lu) => lu.solve_into(rhs, out),
            SteadySolver::MatrixFree => {
                let iters = cg_solve(&self.ode_view(), rhs, out, cg, CG_REL_TOL);
                thermorl_telemetry::counter!("thermal.cg_iterations", iters);
            }
        }
    }

    /// Builds the propagator `E = exp(-C⁻¹A·dt)` for a step of `dt`
    /// seconds.
    fn propagator_matrix(&self, dt: f64) -> Matrix {
        let n = self.len();
        // M = -dt·C⁻¹A from the CSR graph: row i is scaled by dt/C_i.
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            let scale = dt / self.capacitance[i];
            m[(i, i)] = -self.diag_g[i] * scale;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                m[(i, self.col_idx[k])] = self.edge_g[k] * scale;
            }
        }
        m.expm()
    }

    /// Builds the zero-order-hold block `[E | F]` for a step of `dt`
    /// seconds. `F = (I − E)·A⁻¹` takes `A⁻¹` one column at a time from
    /// the steady solver. This is the single construction path shared by
    /// the scalar exact stepper and [`crate::NetworkBatch`], so a batched
    /// die and an independently stepped die apply bit-identical blocks.
    pub(crate) fn zoh(&self, dt: f64) -> Zoh {
        let n = self.len();
        let e = self.propagator_matrix(dt);
        let mut a_inv = Matrix::zeros(n);
        let mut unit = vec![0.0; n];
        let mut col = vec![0.0; n];
        let mut cg = CgScratch::with_len(n);
        for j in 0..n {
            unit[j] = 1.0;
            self.solve_steady_into(&unit, &mut col, &mut cg);
            unit[j] = 0.0;
            for (i, &v) in col.iter().enumerate() {
                a_inv[(i, j)] = v;
            }
        }
        let mut i_minus_e = e.scaled(-1.0);
        for i in 0..n {
            i_minus_e[(i, i)] += 1.0;
        }
        let f = i_minus_e.mul(&a_inv);
        let mut block = Vec::with_capacity(2 * n * n);
        for m in [&e, &f] {
            for j in 0..n {
                block.extend((0..n).map(|i| m[(i, j)]));
            }
        }
        Zoh { dt, block }
    }

    /// One zero-order-hold step `T' = E·T + F·u`, rebuilding `[E | F]`
    /// first if the cached block was built for a different step size.
    fn step_exact(&mut self, dt: f64) {
        if self.exact.as_ref().is_none_or(|z| z.dt != dt) {
            self.exact = Some(self.zoh(dt));
            self.propagator_builds += 1;
            thermorl_telemetry::counter!("thermal.propagator_builds");
            thermorl_telemetry::event!("thermal.rebuild", "propagator dt={dt}");
        }
        let zoh = self.exact.as_ref().expect("cache ensured above");
        let n = self.len();
        let out = &mut self.scratch.stages[0];
        mul_cols_into(&zoh.block, n, &self.state, out, 1);
        self.state[..n].copy_from_slice(out);
    }

    /// Advances `duration` seconds under the embedded Dormand–Prince 5(4)
    /// pair: sparse CSR stages only, per-node error control at the given
    /// tolerances, PI step-size adaptation warm-started from the previous
    /// adaptive advance (or `dt_hint` on the first one).
    fn advance_adaptive(&mut self, duration: f64, dt_hint: f64, rel_tol: f64, abs_tol: f64) {
        let ws = &mut self.scratch;
        let dt0 = self.adaptive_dt.unwrap_or(dt_hint);
        let stats = {
            let ode = OdeView {
                row_ptr: &self.row_ptr,
                col_idx: &self.col_idx,
                edge_g: &self.edge_g,
                diag_g: &self.diag_g,
                inv_cap: &self.inv_capacitance,
            };
            let (t, inject) = self.state.split_at_mut(self.names.len());
            let mut stages = ws.stages.each_mut().map(Vec::as_mut_slice);
            rk::integrate::<DormandPrince54>(
                &ode,
                inject,
                t,
                duration,
                dt0,
                rel_tol,
                abs_tol,
                &mut stages,
                &mut ws.tmp,
                &mut ws.t0,
            )
        };
        self.adaptive_dt = Some(stats.dt_next);
        self.adaptive_steps += stats.accepted;
        self.step_rejections += stats.rejected;
        thermorl_telemetry::counter!("thermal.adaptive_steps", stats.accepted);
        thermorl_telemetry::counter!("thermal.step_rejections", stats.rejected);
        thermorl_telemetry::gauge!("thermal.dt_current", stats.dt_next);
    }

    /// Node count at or below which [`Stepper::Auto`] picks the exact
    /// propagator on a dense network: the `[E | F]` build is trivial
    /// there and each step is a single O(n²) product that adaptive
    /// stepping cannot beat.
    const AUTO_EXACT_MAX_NODES: usize = 64;

    /// What [`Stepper::Auto`] resolves to for this network: `Exact` when
    /// it is dense (LU steady solver) and has at most 64 nodes, the
    /// adaptive stepper otherwise. A function of the structure alone, so
    /// a network and a batch of its clones always resolve alike.
    pub fn resolve_auto(&self) -> Stepper {
        if matches!(self.steady, SteadySolver::Dense(_)) && self.len() <= Self::AUTO_EXACT_MAX_NODES
        {
            Stepper::Exact
        } else {
            Stepper::adaptive()
        }
    }

    /// Advances by `duration` seconds.
    ///
    /// [`Stepper::Exact`] covers the whole duration in a single step (it
    /// is exact at any step size under piecewise-constant power).
    /// [`Stepper::Adaptive`] also consumes the duration in one call,
    /// subdividing it under error control with `dt` as the cold-start
    /// hint; [`Stepper::Auto`] resolves to one of the two first. No
    /// advance allocates once the `[E | F]` block for `duration` is
    /// cached.
    pub fn advance(&mut self, duration: f64, dt: f64, stepper: Stepper) {
        if duration <= 0.0 {
            return;
        }
        match stepper {
            Stepper::Exact => self.step_exact(duration),
            Stepper::Adaptive { rel_tol, abs_tol } => {
                self.advance_adaptive(duration, dt, rel_tol, abs_tol);
            }
            Stepper::Auto => self.advance(duration, dt, self.resolve_auto()),
        }
    }

    /// Analytic steady-state temperatures for the current power vector,
    /// solving `A T = P + g_amb T_amb` — against the LU factorisation
    /// computed at build time on small networks, or by matrix-free
    /// preconditioned CG on large ones.
    ///
    /// # Errors
    ///
    /// Kept for API stability; networks built through [`RcNetworkBuilder`]
    /// always factorise successfully (every node is grounded to ambient),
    /// so this never fails.
    pub fn steady_state(&self) -> Result<Vec<f64>, SolveError> {
        let n = self.len();
        let mut x = vec![0.0; n];
        self.solve_steady_into(&self.state[n..], &mut x, &mut CgScratch::with_len(n));
        Ok(x)
    }

    /// Jumps the network straight to its steady state for the current powers.
    ///
    /// # Panics
    ///
    /// Panics if the steady-state solve fails (impossible for built
    /// networks; see [`RcNetwork::steady_state`]).
    pub fn settle(&mut self) {
        let t = self
            .steady_state()
            .expect("built networks always have a grounded, non-singular G");
        self.set_temperatures(&t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> RcNetwork {
        let mut b = RcNetworkBuilder::new(20.0);
        let core = b.add_node("core", 5.0);
        let sink = b.add_node("sink", 50.0);
        b.connect(core, sink, 2.0);
        b.connect_ambient(sink, 1.0);
        let mut net = b.build().unwrap();
        net.set_power(core, 10.0);
        net
    }

    #[test]
    fn build_rejects_empty() {
        assert_eq!(
            RcNetworkBuilder::new(20.0).build().unwrap_err(),
            BuildError::NoNodes
        );
    }

    #[test]
    fn build_rejects_floating_node() {
        let mut b = RcNetworkBuilder::new(20.0);
        let a = b.add_node("a", 1.0);
        b.add_node("orphan", 1.0);
        b.connect_ambient(a, 1.0);
        match b.build() {
            Err(BuildError::Floating { node }) => assert_eq!(node, "orphan"),
            other => panic!("expected floating error, got {other:?}"),
        }
    }

    #[test]
    fn csr_stores_each_edge_twice_and_drops_zeros() {
        let mut b = RcNetworkBuilder::new(20.0);
        let x = b.add_node("x", 1.0);
        let y = b.add_node("y", 1.0);
        let z = b.add_node("z", 1.0);
        b.connect(x, y, 1.5);
        b.connect(x, y, 0.5); // accumulates onto the same pair
        b.connect(y, z, 0.0); // dropped
        b.connect(x, z, 3.0);
        b.connect_ambient(x, 1.0);
        let net = b.build().unwrap();
        assert_eq!(net.nnz(), 4, "two positive undirected edges, stored twice");
    }

    #[test]
    fn steady_state_matches_hand_computation() {
        let net = two_node();
        let t = net.steady_state().unwrap();
        // Sink: 20 + 10/1 = 30; core: 30 + 10/2 = 35.
        assert!((t[1] - 30.0).abs() < 1e-9, "{t:?}");
        assert!((t[0] - 35.0).abs() < 1e-9, "{t:?}");
    }

    /// `out = y + a·x`, elementwise.
    fn axpy(out: &mut [f64], y: &[f64], a: f64, x: &[f64]) {
        for ((o, &y), &x) in out.iter_mut().zip(y).zip(x) {
            *o = y + a * x;
        }
    }

    /// Classic fixed-step fourth-order Runge–Kutta over the CSR graph:
    /// the fine-step reference the exact and adaptive steppers are held
    /// to on transients. Takes `round(duration / dt)` equal steps.
    fn rk4_reference(net: &mut RcNetwork, duration: f64, dt: f64) {
        let n = net.len();
        let steps = (duration / dt).round() as usize;
        let h = duration / steps as f64;
        let mut t = net.temperatures().to_vec();
        let inject = net.state[n..].to_vec();
        let ode = net.ode_view();
        let [mut k1, mut k2, mut k3, mut k4, mut tmp] = std::array::from_fn(|_| vec![0.0; n]);
        for _ in 0..steps {
            ode.derivative(&inject, &t, &mut k1);
            axpy(&mut tmp, &t, 0.5 * h, &k1);
            ode.derivative(&inject, &tmp, &mut k2);
            axpy(&mut tmp, &t, 0.5 * h, &k2);
            ode.derivative(&inject, &tmp, &mut k3);
            axpy(&mut tmp, &t, h, &k3);
            ode.derivative(&inject, &tmp, &mut k4);
            for (i, t) in t.iter_mut().enumerate() {
                *t += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
        }
        net.set_temperatures(&t);
    }

    #[test]
    fn rk4_converges_to_steady_state() {
        let mut net = two_node();
        rk4_reference(&mut net, 500.0, 0.25);
        let ss = net.steady_state().unwrap();
        for (a, b) in net.temperatures().iter().zip(&ss) {
            assert!((a - b).abs() < 0.05);
        }
    }

    #[test]
    fn exact_converges_to_steady_state() {
        // Slowest time constant is ~55 s; after 4000 s the transient has
        // decayed below f64 resolution, so Exact must sit on the LU answer.
        let mut net = two_node();
        net.advance(4000.0, 0.05, Stepper::Exact);
        let ss = net.steady_state().unwrap();
        for (a, b) in net.temperatures().iter().zip(&ss) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_matches_fine_rk4_on_transient() {
        let mut exact = two_node();
        let mut rk = two_node();
        exact.advance(3.0, 3.0, Stepper::Exact); // one propagator application
        rk4_reference(&mut rk, 3.0, 1e-3); // reference at tiny dt
        for (a, b) in exact.temperatures().iter().zip(rk.temperatures()) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn exact_step_is_a_semigroup() {
        // E(a+b)·x == E(b)·E(a)·x: one 2 s step equals two 1 s steps.
        let mut once = two_node();
        let mut twice = two_node();
        once.advance(2.0, 2.0, Stepper::Exact);
        twice.advance(1.0, 1.0, Stepper::Exact);
        twice.advance(1.0, 1.0, Stepper::Exact);
        for (a, b) in once.temperatures().iter().zip(twice.temperatures()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn exact_propagator_cache_invalidates_on_dt_and_ambient() {
        let mut net = two_node();
        net.advance(0.1, 0.1, Stepper::Exact);
        assert_eq!(net.propagator_builds(), 1);

        // Same dt: the cache hits.
        net.advance(0.1, 0.1, Stepper::Exact);
        assert_eq!(net.propagator_builds(), 1);

        // New dt: propagator rebuilt.
        net.advance(0.2, 0.2, Stepper::Exact);
        assert_eq!(net.propagator_builds(), 2);

        // Ambient and power changes enter through `u`: no rebuild.
        net.set_ambient(30.0);
        net.advance(0.2, 0.2, Stepper::Exact);
        net.set_power(NodeId(0), 5.0);
        net.advance(0.2, 0.2, Stepper::Exact);
        assert_eq!(net.propagator_builds(), 2);
        assert_eq!(net.steady_refreshes(), 0, "stepping never solves");
    }

    #[test]
    fn exact_cache_results_match_cold_network() {
        // A network whose cache was built under different (dt, ambient,
        // power) must agree with a fresh one after invalidation.
        let mut warm = two_node();
        warm.advance(0.5, 0.5, Stepper::Exact);
        warm.set_ambient(28.0);
        warm.set_power(NodeId(0), 4.0);
        let mut cold = two_node();
        cold.set_ambient(28.0);
        cold.set_power(NodeId(0), 4.0);
        cold.set_temperatures(warm.temperatures());
        warm.advance(1.0, 1.0, Stepper::Exact);
        cold.advance(1.0, 1.0, Stepper::Exact);
        for (a, b) in warm.temperatures().iter().zip(cold.temperatures()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    /// The steady-state form of the exact step, kept as the reference the
    /// zero-order-hold step is pinned against: every step re-solves
    /// `A·T_ss = P + g_amb·T_amb` from the network's powers and ambient,
    /// then applies `T' = T_ss + E·(T − T_ss)` with `E` cached per `dt`.
    struct SteadyReference {
        dt: f64,
        propagator: Matrix,
        rhs: Vec<f64>,
        t_ss: Vec<f64>,
        dev: Vec<f64>,
        out: Vec<f64>,
        cg: CgScratch,
    }

    impl SteadyReference {
        fn new(n: usize) -> Self {
            SteadyReference {
                dt: f64::NAN,
                propagator: Matrix::zeros(n),
                rhs: vec![0.0; n],
                t_ss: vec![0.0; n],
                dev: vec![0.0; n],
                out: vec![0.0; n],
                cg: CgScratch::with_len(n),
            }
        }

        fn step(&mut self, net: &mut RcNetwork, dt: f64) {
            if self.dt != dt {
                self.dt = dt;
                self.propagator = net.propagator_matrix(dt);
            }
            let n = net.len();
            for i in 0..n {
                self.rhs[i] = net.power[i] + net.ambient_conductance[i] * net.ambient;
            }
            net.solve_steady_into(&self.rhs, &mut self.t_ss, &mut self.cg);
            for i in 0..n {
                self.dev[i] = net.state[i] - self.t_ss[i];
            }
            self.propagator.mul_vec_into(&self.dev, &mut self.out);
            for i in 0..n {
                net.state[i] = self.t_ss[i] + self.out[i];
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The zero-order-hold step `T' = E·T + F·u` tracks the
        /// steady-state reference on every node of every step to 1e-11
        /// relative, over random die shapes (quad, detailed, strips, grids
        /// up to 64 nodes, big.LITTLE mixes), per-step power churn,
        /// ambient moves and step-size changes up to the 3 s serve
        /// sampling interval.
        #[test]
        fn zoh_step_matches_steady_state_reference(
            shape in 0usize..4,
            w in 1usize..9,
            h in 1usize..9,
            big_pick in 0usize..65,
            seed in proptest::prelude::any::<u64>(),
            segments in proptest::collection::vec((0usize..5, 1usize..40), 1..5),
        ) {
            use crate::floorplan::{DieModel, DieParams, Floorplan, HeteroMix};
            // Keep every die at or below 64 nodes: grids hold w·h cores
            // plus spreader and sink, detailed dies two nodes per core.
            let cap = if shape == 1 { 31 } else { 62 };
            let h = h.min(cap / w).max(1);
            let floorplan = match shape {
                0 => Floorplan::quad(),
                2 => Floorplan::grid(w, 1),
                _ => Floorplan::grid(w, h),
            };
            let cores = floorplan.num_cores();
            let big = big_pick % (cores + 1);
            let params = DieParams {
                hetero: (big > 0).then(|| HeteroMix::big_little(big)),
                ..DieParams::default()
            };
            let die = if shape == 1 {
                DieModel::detailed(floorplan, params)
            } else {
                DieModel::new(floorplan, params)
            };
            let core_nodes = die.core_nodes().to_vec();
            let mut zoh = die.network().clone();
            let mut reference = zoh.clone();
            let mut steady = SteadyReference::new(zoh.len());
            let mut rng = seed;
            let mut draw = move || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 11) as f64 / (1u64 << 53) as f64
            };
            for (dt_idx, steps) in segments {
                let dt = [0.01, 0.07, 0.25, 1.0, 3.0][dt_idx];
                for step in 0..steps {
                    for &node in &core_nodes {
                        let watts = 20.0 * draw();
                        zoh.set_power(node, watts);
                        reference.set_power(node, watts);
                    }
                    if draw() < 0.1 {
                        let ambient = 15.0 + 20.0 * draw();
                        zoh.set_ambient(ambient);
                        reference.set_ambient(ambient);
                    }
                    zoh.advance(dt, dt, Stepper::Exact);
                    steady.step(&mut reference, dt);
                    for (i, (a, b)) in zoh
                        .temperatures()
                        .iter()
                        .zip(reference.temperatures())
                        .enumerate()
                    {
                        proptest::prop_assert!(
                            (a - b).abs() <= 1e-11 * b.abs(),
                            "shape {} {}x{} big {} dt {} step {} node {}: zoh {} vs reference {}",
                            shape, w, h, big, dt, step, i, a, b
                        );
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Exact carries no discretisation error, so under random powers
        /// the default quad die lands on a fixed-step RK4 reference at
        /// `dt = 0.05` s over a 20 s transient. (The rest of
        /// `steppers_agree` lives in `tests/properties.rs`, which cannot
        /// reach this test-only reference.)
        #[test]
        fn exact_die_matches_rk4_reference(
            p in proptest::collection::vec(0.0f64..20.0, 4),
        ) {
            let mut die = crate::DieModel::quad_core();
            for (c, &w) in p.iter().enumerate() {
                die.set_core_power(c, w);
            }
            let mut rk = die.network().clone();
            die.advance(20.0);
            rk4_reference(&mut rk, 20.0, 0.05);
            for &node in die.core_nodes() {
                let (a, b) = (die.network().temperature(node), rk.temperature(node));
                proptest::prop_assert!((a - b).abs() < 1e-2, "exact {} vs rk4 {}", a, b);
            }
        }
    }

    #[test]
    fn settle_jumps_to_steady_state() {
        let mut net = two_node();
        net.settle();
        assert!((net.temperature(NodeId(0)) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_is_monotone_without_power() {
        let mut net = two_node();
        net.set_power(NodeId(0), 0.0);
        net.set_temperatures(&[80.0, 60.0]);
        let mut prev = net.temperature(NodeId(0));
        for _ in 0..100 {
            net.advance(0.05, 0.05, Stepper::Exact);
            let now = net.temperature(NodeId(0));
            assert!(now <= prev + 1e-12);
            prev = now;
        }
        assert!(prev > net.ambient() - 1e-9);
    }

    #[test]
    fn more_power_means_hotter_everywhere() {
        let mut lo = two_node();
        let mut hi = two_node();
        hi.set_power(NodeId(0), 20.0);
        lo.advance(50.0, 0.05, Stepper::Exact);
        hi.advance(50.0, 0.05, Stepper::Exact);
        for i in 0..lo.len() {
            assert!(hi.temperatures()[i] > lo.temperatures()[i]);
        }
    }

    #[test]
    fn ambient_change_shifts_steady_state() {
        let mut net = two_node();
        net.set_ambient(30.0);
        let t = net.steady_state().unwrap();
        assert!((t[0] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_converges_to_steady_state() {
        let mut net = two_node();
        net.advance(500.0, 0.05, Stepper::adaptive());
        let ss = net.steady_state().unwrap();
        for (a, b) in net.temperatures().iter().zip(&ss) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        assert!(net.adaptive_steps() >= 1);
        assert!(net.adaptive_dt().unwrap() > 0.0);
    }

    #[test]
    fn adaptive_matches_fine_rk4_on_transient() {
        let mut adaptive = two_node();
        let mut rk = two_node();
        adaptive.advance(3.0, 0.05, Stepper::adaptive());
        rk4_reference(&mut rk, 3.0, 1e-3);
        for (a, b) in adaptive.temperatures().iter().zip(rk.temperatures()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn adaptive_oversized_hint_rejects_then_recovers() {
        let mut net = two_node();
        // A 500 s first trial step on a ~55 s time constant must reject.
        net.advance(500.0, 500.0, Stepper::adaptive());
        assert!(net.step_rejections() >= 1, "oversized step must reject");
        let ss = net.steady_state().unwrap();
        for (a, b) in net.temperatures().iter().zip(&ss) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn adaptive_warm_start_matches_split_tolerance() {
        // Two half-advances continue from the warm dt; the result agrees
        // with one full advance within tolerance (not bitwise — the step
        // sequence differs at the split).
        let mut whole = two_node();
        let mut split = two_node();
        whole.advance(10.0, 0.05, Stepper::adaptive());
        split.advance(5.0, 0.05, Stepper::adaptive());
        split.advance(5.0, 0.05, Stepper::adaptive());
        for (a, b) in whole.temperatures().iter().zip(split.temperatures()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// Forces the matrix-free steady solver onto a tiny network and checks
    /// CG agrees with dense LU to round-off, for the steady state and for
    /// the exact stepper that pivots around it.
    #[test]
    fn matrix_free_steady_matches_dense() {
        let build = |limit: Option<usize>| {
            let mut b = RcNetworkBuilder::new(20.0);
            let core = b.add_node("core", 5.0);
            let sink = b.add_node("sink", 50.0);
            b.connect(core, sink, 2.0);
            b.connect_ambient(sink, 1.0);
            if let Some(l) = limit {
                b.set_dense_steady_limit(l);
            }
            let mut net = b.build().unwrap();
            net.set_power(core, 10.0);
            net
        };
        let dense = build(None);
        let mut free = build(Some(0));
        assert!(matches!(free.steady, SteadySolver::MatrixFree));
        let td = dense.steady_state().unwrap();
        let tf = free.steady_state().unwrap();
        for (a, b) in td.iter().zip(&tf) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        let mut dense = build(None);
        dense.advance(1.0, 1.0, Stepper::Exact);
        free.advance(1.0, 1.0, Stepper::Exact);
        for (a, b) in dense.temperatures().iter().zip(free.temperatures()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    /// A 100-node chain, all grounded: every node reachable, and the
    /// sort-based CSR build handles long rows and duplicate edges.
    #[test]
    fn chain_with_duplicates_builds_and_settles() {
        let mut b = RcNetworkBuilder::new(20.0);
        let nodes: Vec<NodeId> = (0..100).map(|i| b.add_node(format!("n{i}"), 1.0)).collect();
        for w in nodes.windows(2) {
            b.connect(w[0], w[1], 1.0);
            b.connect(w[0], w[1], 0.5); // duplicate accumulates to 1.5
        }
        b.connect_ambient(nodes[0], 2.0);
        let mut net = b.build().unwrap();
        assert_eq!(net.nnz(), 99 * 2);
        net.set_power(nodes[99], 3.0);
        net.settle();
        // All 3 W flow through the single ambient link: node 0 sits at
        // 20 + 3/2; each chain hop adds 3/1.5.
        assert!((net.temperature(nodes[0]) - 21.5).abs() < 1e-6);
        assert!((net.temperature(nodes[1]) - 23.5).abs() < 1e-6);
    }

    #[test]
    fn auto_resolves_by_size_and_solver() {
        // Small dense network: Exact.
        let net = two_node();
        assert_eq!(net.resolve_auto(), Stepper::Exact);
        // Matrix-free network: always adaptive.
        let mut b = RcNetworkBuilder::new(20.0);
        let x = b.add_node("x", 1.0);
        b.connect_ambient(x, 1.0);
        b.set_dense_steady_limit(0);
        let net = b.build().unwrap();
        assert_eq!(net.resolve_auto(), Stepper::adaptive());
    }

    #[test]
    fn auto_is_a_node_count_rule() {
        let chain = |len: usize| {
            let mut b = RcNetworkBuilder::new(20.0);
            let nodes: Vec<NodeId> = (0..len).map(|i| b.add_node(format!("n{i}"), 1.0)).collect();
            for w in nodes.windows(2) {
                b.connect(w[0], w[1], 1.0);
            }
            b.connect_ambient(nodes[0], 2.0);
            (b.build().unwrap(), nodes)
        };
        let (mut small, nodes) = chain(RcNetwork::AUTO_EXACT_MAX_NODES);
        assert_eq!(small.resolve_auto(), Stepper::Exact);
        // 65 and 100 nodes: dense, but past the Exact cutoff.
        assert_eq!(
            chain(RcNetwork::AUTO_EXACT_MAX_NODES + 1).0.resolve_auto(),
            Stepper::adaptive()
        );
        let (mut mid, mid_nodes) = chain(100);
        assert!(matches!(mid.steady, SteadySolver::Dense(_)));
        assert_eq!(mid.resolve_auto(), Stepper::adaptive());
        // Neither quiet nor churning advances move the choice, and an
        // Auto advance is bit-for-bit the resolved stepper's advance.
        for k in 0..8 {
            let mut exact = small.clone();
            small.set_power(nodes[10], 2.0 + (k % 2) as f64);
            exact.set_power(nodes[10], 2.0 + (k % 2) as f64);
            small.advance(0.5, 0.01, Stepper::Auto);
            exact.advance(0.5, 0.01, Stepper::Exact);
            assert_eq!(small.temperatures(), exact.temperatures());
            mid.set_power(mid_nodes[50], 2.0 + k as f64);
            mid.advance(0.5, 0.01, Stepper::Auto);
        }
        assert_eq!(small.resolve_auto(), Stepper::Exact);
        assert_eq!(mid.resolve_auto(), Stepper::adaptive());
        assert_eq!(mid.propagator_builds(), 0, "adaptive never builds [E | F]");
    }
}
