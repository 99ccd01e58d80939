//! Batched stepping: advance whole fleets of identical-structure dies
//! with one propagator GEMM.
//!
//! A [`NetworkBatch`] holds N dies that share one network *structure*
//! (capacitances, conductance graph, steady-state solver) but carry
//! independent *state* (temperatures, powers, ambient). State lives in
//! contiguous node-major buffers — entry `(node, die)` at
//! `buf[node * width + die]` — so the exact stepper advances every die at
//! once with a single zero-order-hold product
//!
//! ```text
//! [T₁' … T_N'] = [E | F] · [T₁ … T_N; u₁ … u_N]
//! ```
//!
//! via [`mul_cols_into`], where `u_d = P_d + g_amb·T_amb,d` is die `d`'s
//! injection column, kept current by the setters. The cached block
//! (`E = exp(-C⁻¹A·dt)`, `F = (I − E)·A⁻¹`) is keyed on `dt` alone and
//! shared by the whole batch, so a power or ambient change costs nothing
//! at step time: no steady solve, no per-die dirty state.
//!
//! [`Stepper::Adaptive`] runs the same embedded Dormand–Prince 5(4)
//! kernel as the scalar path, one die at a time against gathered
//! per-die columns, each die carrying its own warm-start step size.
//! [`Stepper::Auto`] resolves for the whole fleet by the prototype's
//! node-count rule, so a batch never splits steppers.
//!
//! **Bit-exactness is a hard contract**: a die advanced inside a batch
//! produces bit-for-bit the temperatures of the same die advanced alone
//! through [`RcNetwork::advance`] (pinned by the `batch_agrees_with_scalar`
//! proptest). Every batch operation is either elementwise or accumulates
//! in the same order as its scalar counterpart, and the `[E | F]` block,
//! its product kernel (the scalar network is the width-1 case) and the
//! adaptive kernel are the same code paths. This is what lets the serve
//! layer route sessions through a shard-wide batch while keeping
//! snapshots, and the campaign runner keep checkpoints, byte-identical.

use crate::floorplan::DieModel;
use crate::linalg::mul_cols_into;
use crate::network::{NodeId, RcNetwork, Zoh};
use crate::rk::{self, DormandPrince54, MAX_RK_STAGES};
use crate::stepper::Stepper;

/// Preallocated batch stepper scratch, so batched stepping never touches
/// the heap once the `[E | F]` block for the current step size is cached.
/// `k1..k4` and `tmp`/`t0` are `nodes × width` (the explicit steppers
/// sweep every die at once, and `k1` takes the exact product); `k5..k7`,
/// `ya` and `inj` are single columns of length `nodes` (the adaptive
/// kernel gathers one die at a time, reusing prefixes of the wide
/// buffers for its first stages).
#[derive(Debug, Clone, Default)]
struct BatchWorkspace {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    k5: Vec<f64>,
    k6: Vec<f64>,
    k7: Vec<f64>,
    tmp: Vec<f64>,
    t0: Vec<f64>,
    /// One die's gathered temperatures (adaptive integration state).
    ya: Vec<f64>,
    /// One die's gathered injection column `P_i + g_amb_i·T_amb`.
    inj: Vec<f64>,
}

impl BatchWorkspace {
    fn new(nodes: usize, width: usize) -> Self {
        BatchWorkspace {
            k1: vec![0.0; nodes * width],
            k2: vec![0.0; nodes * width],
            k3: vec![0.0; nodes * width],
            k4: vec![0.0; nodes * width],
            k5: vec![0.0; nodes],
            k6: vec![0.0; nodes],
            k7: vec![0.0; nodes],
            tmp: vec![0.0; nodes * width],
            t0: vec![0.0; nodes * width],
            ya: vec![0.0; nodes],
            inj: vec![0.0; nodes],
        }
    }
}

/// N same-structure dies advanced together; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct NetworkBatch {
    /// Prototype network carrying the shared structure (CSR graph,
    /// capacitances, steady-state solver). Its own state vectors are
    /// unused.
    proto: RcNetwork,
    width: usize,
    nodes: usize,
    /// The state block `[T; U]`, node-major, `2·nodes` rows of `width`:
    /// row `i < nodes` holds node `i`'s temperature (°C) per die, row
    /// `nodes + i` its injection `P_i + g_amb_i·T_amb` per die, kept
    /// current by the setters.
    state: Vec<f64>,
    /// Injected node powers (W), node-major.
    powers: Vec<f64>,
    /// Per-die ambient temperature (°C).
    ambient: Vec<f64>,
    /// Per-die adaptive warm-start step size (the scalar `adaptive_dt`).
    adaptive_dt: Vec<Option<f64>>,
    exact: Option<Zoh>,
    ws: BatchWorkspace,
    propagator_builds: u64,
    adaptive_steps: u64,
    step_rejections: u64,
}

/// One O(nnz·width) CSR sweep computing dT/dt for every (node, die); the
/// per-element expression shape is identical to the scalar
/// `OdeView::derivative`, so each die's slopes match bit-for-bit.
fn batch_derivative(proto: &RcNetwork, inject: &[f64], width: usize, t: &[f64], out: &mut [f64]) {
    let n = proto.len();
    for i in 0..n {
        let diag = proto.diag_g[i];
        let inv_cap = proto.inv_capacitance[i];
        let base = i * width;
        for d in 0..width {
            let mut q = inject[base + d] - diag * t[base + d];
            for k in proto.row_ptr[i]..proto.row_ptr[i + 1] {
                q += proto.edge_g[k] * t[proto.col_idx[k] * width + d];
            }
            out[base + d] = q * inv_cap;
        }
    }
}

impl NetworkBatch {
    /// Creates a batch of `width` dies, each starting as a state clone of
    /// `proto` (its temperatures, powers and ambient are broadcast to
    /// every column).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(proto: &RcNetwork, width: usize) -> Self {
        assert!(width > 0, "batch width must be positive");
        let nodes = proto.len();
        let mut state = vec![0.0; 2 * nodes * width];
        for (row, &v) in state.chunks_exact_mut(width).zip(proto.state()) {
            row.fill(v);
        }
        let mut powers = vec![0.0; nodes * width];
        for (row, &p) in powers.chunks_exact_mut(width).zip(proto.powers()) {
            row.fill(p);
        }
        NetworkBatch {
            proto: proto.clone(),
            width,
            nodes,
            state,
            powers,
            ambient: vec![proto.ambient(); width],
            adaptive_dt: vec![None; width],
            exact: None,
            ws: BatchWorkspace::new(nodes, width),
            propagator_builds: 0,
            adaptive_steps: 0,
            step_rejections: 0,
        }
    }

    /// Number of dies in the batch.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of thermal nodes per die.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// How many times the shared `[E | F]` block was (re)built — once per
    /// distinct step size seen by [`Stepper::Exact`].
    pub fn propagator_builds(&self) -> u64 {
        self.propagator_builds
    }

    /// Accepted adaptive steps summed over all dies and advances.
    pub fn adaptive_steps(&self) -> u64 {
        self.adaptive_steps
    }

    /// Rejected (retried) adaptive step attempts summed over all dies.
    pub fn step_rejections(&self) -> u64 {
        self.step_rejections
    }

    /// What [`Stepper::Auto`] resolves to for this fleet: the
    /// prototype's node-count rule ([`RcNetwork::resolve_auto`]).
    pub fn resolve_auto(&self) -> Stepper {
        self.proto.resolve_auto()
    }

    /// Sets the power (W) injected into one node of one die and updates
    /// that die's injection entry with the scalar network's expression.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn set_power(&mut self, die: usize, node: NodeId, watts: f64) {
        assert!(die < self.width, "die index out of range");
        let i = node.index();
        self.powers[i * self.width + die] = watts;
        self.state[(self.nodes + i) * self.width + die] =
            watts + self.proto.ambient_conductance[i] * self.ambient[die];
    }

    /// Power currently injected into a node of a die (W).
    pub fn power(&self, die: usize, node: NodeId) -> f64 {
        self.powers[node.index() * self.width + die]
    }

    /// Sets one die's ambient temperature (°C) and recomputes that die's
    /// injection column.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn set_ambient(&mut self, die: usize, ambient_c: f64) {
        assert!(die < self.width, "die index out of range");
        self.ambient[die] = ambient_c;
        for i in 0..self.nodes {
            self.state[(self.nodes + i) * self.width + die] =
                self.powers[i * self.width + die] + self.proto.ambient_conductance[i] * ambient_c;
        }
    }

    /// One die's ambient temperature (°C).
    pub fn ambient(&self, die: usize) -> f64 {
        self.ambient[die]
    }

    /// Current temperature (°C) of one node of one die.
    pub fn temperature(&self, die: usize, node: NodeId) -> f64 {
        self.state[node.index() * self.width + die]
    }

    /// Copies one die's node temperatures (network node order) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.nodes()`.
    pub fn temperatures_into(&self, die: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.nodes, "out must cover every node");
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.state[i * self.width + die];
        }
    }

    /// Overrides one die's node temperatures from a slice in network node
    /// order (e.g. restoring a checkpoint into a batch column).
    ///
    /// # Panics
    ///
    /// Panics if `temps.len() != self.nodes()`.
    pub fn set_temperatures(&mut self, die: usize, temps: &[f64]) {
        assert_eq!(temps.len(), self.nodes, "temps must cover every node");
        for (i, &t) in temps.iter().enumerate() {
            self.state[i * self.width + die] = t;
        }
    }

    /// One zero-order-hold step for every die, `[T'] = [E | F]·[T; U]`,
    /// rebuilding the shared block first if it was built for a different
    /// step size.
    fn step_exact(&mut self, dt: f64) {
        if self.exact.as_ref().is_none_or(|z| z.dt != dt) {
            self.exact = Some(self.proto.zoh(dt));
            self.propagator_builds += 1;
            thermorl_telemetry::counter!("thermal.propagator_builds");
            thermorl_telemetry::event!(
                "thermal.rebuild",
                "batch propagator dt={dt} width={}",
                self.width
            );
        }
        let zoh = self.exact.as_ref().expect("cache ensured above");
        let out = &mut self.ws.k1;
        mul_cols_into(&zoh.block, self.nodes, &self.state, out, self.width);
        self.state[..out.len()].copy_from_slice(out);
    }

    /// Advances every die by a single step of `dt` seconds.
    ///
    /// Identical semantics to [`RcNetwork::step`] applied to each die
    /// ([`Stepper::Adaptive`] treats `dt` as a whole span and subdivides
    /// it under error control); no step allocates once the exact
    /// propagator for `dt` is cached.
    pub fn step(&mut self, dt: f64, stepper: Stepper) {
        match stepper {
            Stepper::Adaptive { rel_tol, abs_tol } => {
                return self.advance_adaptive(dt, dt, rel_tol, abs_tol);
            }
            Stepper::Auto => return self.step(dt, self.resolve_auto()),
            Stepper::Exact => return self.step_exact(dt),
            Stepper::ForwardEuler | Stepper::Rk4 => {}
        }
        let ws = &mut self.ws;
        let (t, inject) = self.state.split_at_mut(self.nodes * self.width);
        let derivative = |t: &[f64], out: &mut [f64]| {
            batch_derivative(&self.proto, inject, self.width, t, out);
        };
        if stepper == Stepper::ForwardEuler {
            derivative(t, &mut ws.k1);
            for (t, d) in t.iter_mut().zip(&ws.k1) {
                *t += dt * d;
            }
        } else {
            ws.t0.copy_from_slice(t);
            derivative(&ws.t0, &mut ws.k1);
            for i in 0..ws.t0.len() {
                ws.tmp[i] = ws.t0[i] + 0.5 * dt * ws.k1[i];
            }
            derivative(&ws.tmp, &mut ws.k2);
            for i in 0..ws.t0.len() {
                ws.tmp[i] = ws.t0[i] + 0.5 * dt * ws.k2[i];
            }
            derivative(&ws.tmp, &mut ws.k3);
            for i in 0..ws.t0.len() {
                ws.tmp[i] = ws.t0[i] + dt * ws.k3[i];
            }
            derivative(&ws.tmp, &mut ws.k4);
            for (i, t) in t.iter_mut().enumerate() {
                *t = ws.t0[i] + dt / 6.0 * (ws.k1[i] + 2.0 * ws.k2[i] + 2.0 * ws.k3[i] + ws.k4[i]);
            }
        }
    }

    /// Advances every die by `duration` seconds under the embedded
    /// Dormand–Prince 5(4) pair — one gathered column at a time through
    /// the *same* kernel as [`RcNetwork::advance`], so each die's result
    /// is bit-identical to advancing it alone. Each die keeps its own
    /// warm-start step size.
    fn advance_adaptive(&mut self, duration: f64, dt_hint: f64, rel_tol: f64, abs_tol: f64) {
        if duration <= 0.0 {
            return;
        }
        let ws = &mut self.ws;
        let n = self.nodes;
        let ode = self.proto.ode_view();
        let mut stages: [&mut [f64]; MAX_RK_STAGES] = [
            &mut ws.k1[..n],
            &mut ws.k2[..n],
            &mut ws.k3[..n],
            &mut ws.k4[..n],
            &mut ws.k5,
            &mut ws.k6,
            &mut ws.k7,
        ];
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut dt_last = dt_hint;
        for die in 0..self.width {
            for i in 0..n {
                ws.ya[i] = self.state[i * self.width + die];
                ws.inj[i] = self.state[(n + i) * self.width + die];
            }
            let dt0 = self.adaptive_dt[die].unwrap_or(dt_hint);
            let stats = rk::integrate::<DormandPrince54>(
                &ode,
                &ws.inj,
                &mut ws.ya,
                duration,
                dt0,
                rel_tol,
                abs_tol,
                &mut stages,
                &mut ws.tmp[..n],
                &mut ws.t0[..n],
            );
            for i in 0..n {
                self.state[i * self.width + die] = ws.ya[i];
            }
            self.adaptive_dt[die] = Some(stats.dt_next);
            accepted += stats.accepted;
            rejected += stats.rejected;
            dt_last = stats.dt_next;
        }
        self.adaptive_steps += accepted;
        self.step_rejections += rejected;
        thermorl_telemetry::counter!("thermal.adaptive_steps", accepted);
        thermorl_telemetry::counter!("thermal.step_rejections", rejected);
        thermorl_telemetry::gauge!("thermal.dt_current", dt_last);
    }

    /// Advances every die by `duration` seconds — the batched counterpart
    /// of [`RcNetwork::advance`], with the identical sub-step splitting
    /// (so a batched die and a scalar die run the same step sequence).
    pub fn advance(&mut self, duration: f64, dt: f64, stepper: Stepper) {
        if duration <= 0.0 {
            return;
        }
        thermorl_telemetry::counter!("thermal.batch_advances");
        thermorl_telemetry::gauge!("thermal.batch_width", self.width as f64);
        let stepper = if stepper == Stepper::Auto {
            self.resolve_auto()
        } else {
            stepper
        };
        if stepper == Stepper::Exact {
            self.step_exact(duration);
            return;
        }
        if let Stepper::Adaptive { rel_tol, abs_tol } = stepper {
            // The controller subdivides the duration itself; dt is only
            // the cold-start hint.
            self.advance_adaptive(duration, dt, rel_tol, abs_tol);
            return;
        }
        let ratio = duration / dt;
        let steps = if (ratio - ratio.round()).abs() < 1e-9 {
            ratio.round() as u64
        } else {
            ratio.floor() as u64
        };
        for _ in 0..steps {
            self.step(dt, stepper);
        }
        let remainder = duration - steps as f64 * dt;
        if remainder > 1e-12 {
            self.step(remainder, stepper);
        }
    }
}

/// A batch of [`DieModel`]-shaped dies: a [`NetworkBatch`] plus the die's
/// core-node map and integration configuration, so whole fleets of
/// identical dies step together with the prototype's `sim_dt`/stepper.
///
/// This is the unit the serve supervisor batches sessions through (one
/// `DieBatch` per distinct die shape on a shard) and the runner sweeps in
/// parallel.
#[derive(Debug, Clone)]
pub struct DieBatch {
    batch: NetworkBatch,
    core_nodes: Vec<NodeId>,
    sim_dt: f64,
    stepper: Stepper,
}

impl DieBatch {
    /// Creates a batch of `width` dies, each starting as a state clone of
    /// the prototype die.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(proto: &DieModel, width: usize) -> Self {
        DieBatch {
            batch: NetworkBatch::new(proto.network(), width),
            core_nodes: proto.core_nodes().to_vec(),
            sim_dt: proto.params().sim_dt,
            stepper: proto.params().stepper,
        }
    }

    /// Number of dies in the batch.
    pub fn width(&self) -> usize {
        self.batch.width()
    }

    /// Number of cores per die.
    pub fn num_cores(&self) -> usize {
        self.core_nodes.len()
    }

    /// Number of thermal nodes per die.
    pub fn nodes(&self) -> usize {
        self.batch.nodes()
    }

    /// The underlying network batch.
    pub fn network_batch(&self) -> &NetworkBatch {
        &self.batch
    }

    /// Sets the power (W) dissipated on one core of one die.
    ///
    /// # Panics
    ///
    /// Panics if `die` or `core` is out of range.
    pub fn set_core_power(&mut self, die: usize, core: usize, watts: f64) {
        self.batch.set_power(die, self.core_nodes[core], watts);
    }

    /// Exact temperature (°C) of one core of one die.
    pub fn core_temperature(&self, die: usize, core: usize) -> f64 {
        self.batch.temperature(die, self.core_nodes[core])
    }

    /// Sets one die's ambient temperature (°C).
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn set_ambient(&mut self, die: usize, ambient_c: f64) {
        self.batch.set_ambient(die, ambient_c);
    }

    /// Loads one die's full thermal state — node temperatures (network
    /// order), per-core powers, ambient — as captured by
    /// [`DieModel::thermal_state`]; subsequent advances continue
    /// bit-identically to the checkpointed die.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover every node.
    pub fn load_die(&mut self, die: usize, temps: &[f64], core_powers: &[f64], ambient: f64) {
        self.batch.set_ambient(die, ambient);
        let cores = self.core_nodes.len().min(core_powers.len());
        for (core, &power) in core_powers.iter().enumerate().take(cores) {
            self.batch.set_power(die, self.core_nodes[core], power);
        }
        self.batch.set_temperatures(die, temps);
    }

    /// Copies one die's node temperatures (network node order) into `out`,
    /// the inverse of the temperature part of [`DieBatch::load_die`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.nodes()`.
    pub fn store_die(&self, die: usize, out: &mut [f64]) {
        self.batch.temperatures_into(die, out);
    }

    /// Advances every die by `duration` seconds with the prototype's
    /// configured internal step — the batched [`DieModel::advance`].
    pub fn advance(&mut self, duration: f64) {
        self.batch.advance(duration, self.sim_dt, self.stepper);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RcNetworkBuilder;

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
    fn batch_matches_scalar_bitwise_across_steppers() {
        for stepper in [
            Stepper::ForwardEuler,
            Stepper::Rk4,
            Stepper::Exact,
            Stepper::adaptive(),
        ] {
            let proto = two_node();
            let width = 5;
            let mut batch = NetworkBatch::new(&proto, width);
            let mut scalars: Vec<RcNetwork> = (0..width).map(|_| proto.clone()).collect();
            // Distinct per-die powers so columns genuinely diverge.
            for (d, scalar) in scalars.iter_mut().enumerate() {
                batch.set_power(d, NodeId(0), 2.0 * d as f64 + 1.0);
                scalar.set_power(NodeId(0), 2.0 * d as f64 + 1.0);
            }
            batch.advance(1.0, 0.25, stepper);
            for s in &mut scalars {
                s.advance(1.0, 0.25, stepper);
            }
            // A second advance after a power change exercises the dirty
            // refresh and (for adaptive) the per-die warm start.
            for (d, scalar) in scalars.iter_mut().enumerate() {
                batch.set_power(d, NodeId(0), 3.0 * d as f64 + 0.5);
                scalar.set_power(NodeId(0), 3.0 * d as f64 + 0.5);
            }
            batch.advance(1.0, 0.25, stepper);
            for s in &mut scalars {
                s.advance(1.0, 0.25, stepper);
            }
            for (d, scalar) in scalars.iter().enumerate() {
                for i in 0..proto.len() {
                    assert_eq!(
                        batch.temperature(d, NodeId(i)).to_bits(),
                        scalar.temperatures()[i].to_bits(),
                        "{stepper} die {d} node {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_propagator_is_keyed_on_dt_alone() {
        let proto = two_node();
        let mut batch = NetworkBatch::new(&proto, 4);
        batch.step(0.1, Stepper::Exact);
        assert_eq!(batch.propagator_builds(), 1);

        // One die's power and another's ambient move: same block.
        batch.set_power(2, NodeId(0), 3.0);
        batch.set_ambient(1, 31.0);
        batch.step(0.1, Stepper::Exact);
        assert_eq!(batch.propagator_builds(), 1);

        // New dt: the shared block is rebuilt once for the whole fleet.
        batch.step(0.2, Stepper::Exact);
        assert_eq!(batch.propagator_builds(), 2);
    }

    #[test]
    fn ambient_is_per_die() {
        let proto = two_node();
        let mut batch = NetworkBatch::new(&proto, 2);
        batch.set_ambient(1, 35.0);
        batch.advance(4000.0, 1.0, Stepper::Exact);
        // Die 1 sits 15 °C above die 0 in steady state.
        let d0 = batch.temperature(0, NodeId(1));
        let d1 = batch.temperature(1, NodeId(1));
        assert!((d1 - d0 - 15.0).abs() < 1e-9, "{d0} vs {d1}");
    }

    #[test]
    fn die_batch_round_trips_die_model_state() {
        let mut donor = DieModel::quad_core();
        for c in 0..4 {
            donor.set_core_power(c, 6.0 + c as f64);
        }
        donor.advance(3.7);
        let (temps, powers, ambient) = donor.thermal_state();

        let proto = DieModel::quad_core();
        let mut batch = DieBatch::new(&proto, 3);
        batch.load_die(1, &temps, &powers, ambient);
        batch.advance(2.0);
        donor.advance(2.0);

        let mut out = vec![0.0; batch.nodes()];
        batch.store_die(1, &mut out);
        for (a, b) in out.iter().zip(donor.network().temperatures()) {
            assert_eq!(a.to_bits(), b.to_bits(), "batched die diverged");
        }
    }

    #[test]
    fn batch_adaptive_settles_and_counts_steps() {
        let proto = two_node();
        let mut batch = NetworkBatch::new(&proto, 3);
        batch.advance(500.0, 0.05, Stepper::adaptive());
        assert!(batch.adaptive_steps() >= 3, "every die takes steps");
        let ss = proto.steady_state().unwrap();
        for d in 0..3 {
            for (i, want) in ss.iter().enumerate() {
                let got = batch.temperature(d, NodeId(i));
                assert!((got - want).abs() < 0.05, "die {d} node {i}: {got}");
            }
        }
    }

    #[test]
    fn batch_auto_resolves_fleet_wide() {
        // Small dense prototype: Auto is Exact, and advancing under Auto
        // matches advancing under Exact bit-for-bit.
        let proto = two_node();
        let mut auto = NetworkBatch::new(&proto, 2);
        let mut exact = NetworkBatch::new(&proto, 2);
        assert_eq!(auto.resolve_auto(), Stepper::Exact);
        auto.advance(1.0, 0.25, Stepper::Auto);
        exact.advance(1.0, 0.25, Stepper::Exact);
        for d in 0..2 {
            for i in 0..proto.len() {
                assert_eq!(
                    auto.temperature(d, NodeId(i)).to_bits(),
                    exact.temperature(d, NodeId(i)).to_bits()
                );
            }
        }
    }
}
