//! Die floorplans and the standard core/spreader/sink package model.
//!
//! The evaluation platform of the DAC'14 paper is an Intel quad-core; we
//! model its package as a 2×2 grid of core nodes laterally coupled to their
//! orthogonal neighbours, all attached to a shared heat spreader which feeds
//! a heatsink grounded to ambient. The default [`DieParams`] are calibrated
//! (see `DESIGN.md` §6) so that an idle die sits in the low thirties °C and
//! a fully loaded one in the low-to-mid seventies, matching the temperature
//! ranges of the paper's Table 2.

use crate::network::{NodeId, RcNetwork, RcNetworkBuilder};
use crate::stepper::Stepper;
use crate::AMBIENT_C;

/// A rectangular grid-of-cores floorplan.
///
/// Cores are numbered row-major: core `i` sits at
/// `(i % width, i / width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Floorplan {
    width: usize,
    height: usize,
}

impl Floorplan {
    /// Creates a `width` × `height` grid floorplan.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "floorplan must be non-empty");
        Floorplan { width, height }
    }

    /// The 2×2 quad-core floorplan of the paper's platform.
    pub fn quad() -> Self {
        Floorplan::grid(2, 2)
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.width * self.height
    }

    /// Grid position of a core.
    pub fn position(&self, core: usize) -> (usize, usize) {
        (core % self.width, core / self.width)
    }

    /// Pairs of orthogonally adjacent cores, each listed once.
    pub fn adjacent_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for y in 0..self.height {
            for x in 0..self.width {
                let i = y * self.width + x;
                if x + 1 < self.width {
                    pairs.push((i, i + 1));
                }
                if y + 1 < self.height {
                    pairs.push((i, i + self.width));
                }
            }
        }
        pairs
    }
}

/// Per-core big.LITTLE classes for heterogeneous floorplans.
///
/// The first [`HeteroMix::big_cores`] cores in row-major [`Floorplan`]
/// order are the "big" class; the rest are "LITTLE". Each class scales
/// the baseline [`DieParams`] core capacitance and core conductances
/// (core-to-spreader and lateral — coupled classes use the geometric
/// mean of their scales), modelling the larger silicon area and stronger
/// spreader contact of a big core versus the small, weakly-coupled
/// LITTLE one. With `hetero: None` the die is homogeneous and builds the
/// exact same network as before, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroMix {
    /// Number of "big" cores (the first `big_cores` in row-major order).
    pub big_cores: usize,
    /// Capacitance scale applied to big cores.
    pub big_capacitance_scale: f64,
    /// Conductance scale applied to big cores.
    pub big_conductance_scale: f64,
    /// Capacitance scale applied to LITTLE cores.
    pub little_capacitance_scale: f64,
    /// Conductance scale applied to LITTLE cores.
    pub little_conductance_scale: f64,
}

impl HeteroMix {
    /// A representative big.LITTLE split: big cores carry 1.6× the
    /// thermal mass with 1.3× the conductance; LITTLE cores 0.55× and
    /// 0.75× respectively (cf. the NPU-IL paper's platform classes).
    pub fn big_little(big_cores: usize) -> Self {
        HeteroMix {
            big_cores,
            big_capacitance_scale: 1.6,
            big_conductance_scale: 1.3,
            little_capacitance_scale: 0.55,
            little_conductance_scale: 0.75,
        }
    }

    /// `(capacitance_scale, conductance_scale)` for a core index.
    pub fn scales(&self, core: usize) -> (f64, f64) {
        if core < self.big_cores {
            (self.big_capacitance_scale, self.big_conductance_scale)
        } else {
            (self.little_capacitance_scale, self.little_conductance_scale)
        }
    }

    /// Validates that every scale is finite and positive.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("big_capacitance_scale", self.big_capacitance_scale),
            ("big_conductance_scale", self.big_conductance_scale),
            ("little_capacitance_scale", self.little_capacitance_scale),
            ("little_conductance_scale", self.little_conductance_scale),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("hetero {name} must be finite and positive"));
            }
        }
        Ok(())
    }
}

/// Physical package parameters for [`DieModel`].
///
/// Resistances are in K/W, capacitances in J/K. The defaults give a core
/// time constant of ≈0.7 s (fast enough that second-scale activity bursts
/// produce visible thermal cycles) and a heatsink time constant of ≈37 s
/// (slow drift across application phases).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieParams {
    /// Heat capacitance of each core node (J/K).
    pub core_capacitance: f64,
    /// Thermal resistance from each core to the spreader (K/W).
    pub core_to_spreader: f64,
    /// Lateral conductance between adjacent cores (W/K).
    pub lateral_conductance: f64,
    /// Heat capacitance of the spreader node (J/K).
    pub spreader_capacitance: f64,
    /// Thermal resistance from spreader to heatsink (K/W).
    pub spreader_to_sink: f64,
    /// Heat capacitance of the heatsink (J/K).
    pub sink_capacitance: f64,
    /// Thermal resistance from heatsink to ambient (K/W).
    pub sink_to_ambient: f64,
    /// Ambient temperature (°C).
    pub ambient: f64,
    /// Internal integration step (s): the cold-start step size of
    /// [`Stepper::Adaptive`]. Ignored by [`Stepper::Exact`], which covers
    /// any advance duration in a single propagator application.
    pub sim_dt: f64,
    /// Integration scheme. Defaults to [`Stepper::Exact`]: power is
    /// piecewise constant between simulation ticks, so the cached
    /// matrix-exponential step is both exact and the fastest option.
    pub stepper: Stepper,
    /// Optional per-core big.LITTLE classes. `None` (the default) builds
    /// the homogeneous network unchanged.
    pub hetero: Option<HeteroMix>,
}

impl Default for DieParams {
    fn default() -> Self {
        DieParams {
            core_capacitance: 0.6,
            core_to_spreader: 1.2,
            lateral_conductance: 0.8,
            spreader_capacitance: 30.0,
            spreader_to_sink: 0.05,
            sink_capacitance: 150.0,
            sink_to_ambient: 0.25,
            ambient: AMBIENT_C,
            sim_dt: 0.01,
            stepper: Stepper::Exact,
            hetero: None,
        }
    }
}

impl DieParams {
    /// Validates physical sanity of the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.core_capacitance <= 0.0
            || self.spreader_capacitance <= 0.0
            || self.sink_capacitance <= 0.0
        {
            return Err("capacitances must be positive".into());
        }
        if self.core_to_spreader <= 0.0
            || self.spreader_to_sink <= 0.0
            || self.sink_to_ambient <= 0.0
        {
            return Err("resistances must be positive".into());
        }
        if self.lateral_conductance < 0.0 {
            return Err("lateral conductance must be non-negative".into());
        }
        if self.sim_dt <= 0.0 {
            return Err("sim_dt must be positive".into());
        }
        if let Stepper::Adaptive { rel_tol, abs_tol } = self.stepper {
            if !rel_tol.is_finite() || rel_tol <= 0.0 || !abs_tol.is_finite() || abs_tol <= 0.0 {
                return Err("adaptive tolerances must be finite and positive".into());
            }
        }
        if let Some(h) = &self.hetero {
            h.validate()?;
        }
        Ok(())
    }

    /// Capacitance and conductance scale for one core under the optional
    /// heterogeneous mix; `(1, 1)` when the die is homogeneous.
    fn core_scales(&self, core: usize) -> (f64, f64) {
        match &self.hetero {
            Some(h) => h.scales(core),
            None => (1.0, 1.0),
        }
    }
}

/// A multicore die: floorplan + RC package model, with per-core power
/// injection and per-core temperature readout.
#[derive(Debug, Clone)]
pub struct DieModel {
    floorplan: Floorplan,
    params: DieParams,
    network: RcNetwork,
    core_nodes: Vec<NodeId>,
    spreader: NodeId,
    sink: NodeId,
}

impl DieModel {
    /// Builds a die from a floorplan and parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail [`DieParams::validate`] or if a
    /// heterogeneous mix names more big cores than the floorplan holds.
    pub fn new(floorplan: Floorplan, params: DieParams) -> Self {
        params.validate().expect("invalid die parameters");
        if let Some(h) = &params.hetero {
            assert!(
                h.big_cores <= floorplan.num_cores(),
                "hetero mix has {} big cores but the floorplan only {}",
                h.big_cores,
                floorplan.num_cores()
            );
        }
        let mut b = RcNetworkBuilder::new(params.ambient);
        // Per-core class scales; the homogeneous (1, 1) scales multiply
        // out exactly, so `hetero: None` builds bit-identical networks.
        let core_nodes: Vec<NodeId> = (0..floorplan.num_cores())
            .map(|i| {
                let (cap_scale, _) = params.core_scales(i);
                b.add_node(format!("core{i}"), params.core_capacitance * cap_scale)
            })
            .collect();
        let spreader = b.add_node("spreader", params.spreader_capacitance);
        let sink = b.add_node("sink", params.sink_capacitance);
        for (i, &c) in core_nodes.iter().enumerate() {
            let (_, g_scale) = params.core_scales(i);
            b.connect(c, spreader, (1.0 / params.core_to_spreader) * g_scale);
        }
        for (a, c) in floorplan.adjacent_pairs() {
            // Coupled cores of different classes meet at the geometric
            // mean of their conductance scales.
            let g = (params.core_scales(a).1 * params.core_scales(c).1).sqrt();
            b.connect(core_nodes[a], core_nodes[c], params.lateral_conductance * g);
        }
        b.connect(spreader, sink, 1.0 / params.spreader_to_sink);
        b.connect_ambient(sink, 1.0 / params.sink_to_ambient);
        let network = b.build().expect("die network is always grounded");
        DieModel {
            floorplan,
            params,
            network,
            core_nodes,
            spreader,
            sink,
        }
    }

    /// A quad-core die with default calibrated parameters.
    pub fn quad_core() -> Self {
        DieModel::new(Floorplan::quad(), DieParams::default())
    }

    /// A finer-grained die: each core is split into a *compute* node (the
    /// sensed hotspot, carrying the injected power) and an adjacent
    /// *cache* node with its own thermal mass, both feeding the spreader.
    /// Same package calibration as [`DieModel::new`], but core-local
    /// transients are sharper because the compute block is lighter.
    ///
    /// # Panics
    ///
    /// Panics like [`DieModel::new`] on invalid parameters.
    pub fn detailed(floorplan: Floorplan, params: DieParams) -> Self {
        params.validate().expect("invalid die parameters");
        if let Some(h) = &params.hetero {
            assert!(
                h.big_cores <= floorplan.num_cores(),
                "hetero mix has {} big cores but the floorplan only {}",
                h.big_cores,
                floorplan.num_cores()
            );
        }
        let mut b = RcNetworkBuilder::new(params.ambient);
        // Split the core's mass 40/60 between compute and cache; per-core
        // class scales apply to both blocks (exact 1× when homogeneous).
        let c_compute = params.core_capacitance * 0.4;
        let c_cache = params.core_capacitance * 0.6;
        let mut core_nodes = Vec::with_capacity(floorplan.num_cores());
        let mut cache_nodes = Vec::with_capacity(floorplan.num_cores());
        for i in 0..floorplan.num_cores() {
            let (cap_scale, g_scale) = params.core_scales(i);
            let compute = b.add_node(format!("core{i}"), c_compute * cap_scale);
            let cache = b.add_node(format!("cache{i}"), c_cache * cap_scale);
            // Tight internal coupling between the blocks.
            b.connect(compute, cache, (4.0 / params.core_to_spreader) * g_scale);
            core_nodes.push(compute);
            cache_nodes.push(cache);
        }
        let spreader = b.add_node("spreader", params.spreader_capacitance);
        let sink = b.add_node("sink", params.sink_capacitance);
        for i in 0..floorplan.num_cores() {
            // Both blocks reach the spreader; the split halves keep the
            // total core-to-spreader conductance of the simple model.
            let (_, g_scale) = params.core_scales(i);
            b.connect(
                core_nodes[i],
                spreader,
                (0.5 / params.core_to_spreader) * g_scale,
            );
            b.connect(
                cache_nodes[i],
                spreader,
                (0.5 / params.core_to_spreader) * g_scale,
            );
        }
        for (a, c) in floorplan.adjacent_pairs() {
            let g = (params.core_scales(a).1 * params.core_scales(c).1).sqrt();
            b.connect(core_nodes[a], core_nodes[c], params.lateral_conductance * g);
        }
        b.connect(spreader, sink, 1.0 / params.spreader_to_sink);
        b.connect_ambient(sink, 1.0 / params.sink_to_ambient);
        let network = b.build().expect("die network is always grounded");
        DieModel {
            floorplan,
            params,
            network,
            core_nodes,
            spreader,
            sink,
        }
    }

    /// Number of cores on the die.
    pub fn num_cores(&self) -> usize {
        self.core_nodes.len()
    }

    /// The die's floorplan.
    pub fn floorplan(&self) -> Floorplan {
        self.floorplan
    }

    /// The physical parameters the die was built with.
    pub fn params(&self) -> &DieParams {
        &self.params
    }

    /// Sets the power (W) dissipated on a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn set_core_power(&mut self, core: usize, watts: f64) {
        self.network.set_power(self.core_nodes[core], watts);
    }

    /// Power currently dissipated on a core (W).
    pub fn core_power(&self, core: usize) -> f64 {
        self.network.power(self.core_nodes[core])
    }

    /// Advances the thermal state by `duration` seconds with the configured
    /// internal step.
    pub fn advance(&mut self, duration: f64) {
        self.network
            .advance(duration, self.params.sim_dt, self.params.stepper);
    }

    /// Jumps to the steady state for the current power assignment.
    pub fn settle(&mut self) {
        self.network.settle();
    }

    /// Changes the ambient temperature (°C); affects subsequent steps.
    pub fn set_ambient(&mut self, ambient_c: f64) {
        self.network.set_ambient(ambient_c);
    }

    /// Current ambient temperature (°C).
    pub fn ambient(&self) -> f64 {
        self.network.ambient()
    }

    /// Exact (un-quantised) temperature of a core (°C).
    pub fn core_temperature(&self, core: usize) -> f64 {
        self.network.temperature(self.core_nodes[core])
    }

    /// Exact temperatures of all cores (°C), indexed by core id.
    pub fn core_temperatures(&self) -> Vec<f64> {
        self.core_nodes
            .iter()
            .map(|&n| self.network.temperature(n))
            .collect()
    }

    /// Temperature of the heat spreader (°C).
    pub fn spreader_temperature(&self) -> f64 {
        self.network.temperature(self.spreader)
    }

    /// Temperature of the heatsink (°C).
    pub fn sink_temperature(&self) -> f64 {
        self.network.temperature(self.sink)
    }

    /// Hottest core temperature (°C).
    pub fn max_core_temperature(&self) -> f64 {
        self.core_temperatures()
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Access to the underlying network (e.g. for custom instrumentation).
    pub fn network(&self) -> &RcNetwork {
        &self.network
    }

    /// The network node of each core, indexed by core id — the map
    /// [`crate::DieBatch`] uses to address core powers inside a batch.
    pub fn core_nodes(&self) -> &[NodeId] {
        &self.core_nodes
    }

    /// Overrides all node temperatures (network node order) without
    /// touching powers or ambient — how a batched advance writes its
    /// result back into the die it was copied from.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover every network node.
    pub fn set_node_temperatures(&mut self, temps: &[f64]) {
        self.network.set_temperatures(temps);
    }

    /// The die's full mutable thermal state — `(node temperatures,
    /// per-core powers, ambient)` — everything a checkpoint needs; the
    /// structure (floorplan, parameters) is configuration and stays out.
    /// Temperatures cover *all* nodes (cores, caches, spreader, sink) in
    /// network order.
    pub fn thermal_state(&self) -> (Vec<f64>, Vec<f64>, f64) {
        (
            self.network.temperatures().to_vec(),
            (0..self.core_nodes.len())
                .map(|c| self.core_power(c))
                .collect(),
            self.ambient(),
        )
    }

    /// Restores state captured by [`DieModel::thermal_state`] onto a die
    /// built from the same floorplan and parameters; subsequent
    /// [`DieModel::advance`] calls continue bit-identically to the
    /// checkpointed die.
    ///
    /// # Panics
    ///
    /// Panics if `temps` does not cover every network node.
    pub fn restore_thermal_state(&mut self, temps: &[f64], core_powers: &[f64], ambient: f64) {
        self.network.set_ambient(ambient);
        let cores = self.core_nodes.len().min(core_powers.len());
        for (core, &power) in core_powers.iter().enumerate().take(cores) {
            self.set_core_power(core, power);
        }
        self.network.set_temperatures(temps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_floorplan_adjacency() {
        let fp = Floorplan::quad();
        let mut pairs = fp.adjacent_pairs();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn grid_positions_are_row_major() {
        let fp = Floorplan::grid(3, 2);
        assert_eq!(fp.position(0), (0, 0));
        assert_eq!(fp.position(2), (2, 0));
        assert_eq!(fp.position(4), (1, 1));
        assert_eq!(fp.num_cores(), 6);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_floorplan_panics() {
        let _ = Floorplan::grid(0, 3);
    }

    #[test]
    fn idle_die_settles_near_ambient_plus_leakage() {
        let mut die = DieModel::quad_core();
        for c in 0..4 {
            die.set_core_power(c, 2.0); // idle leakage per core
        }
        die.settle();
        let t = die.core_temperature(0);
        // 8 W total: sink 27, spreader 27.4, cores slightly above.
        assert!(t > 28.0 && t < 33.0, "idle core at {t} degC");
    }

    #[test]
    fn fully_loaded_die_reaches_seventies() {
        let mut die = DieModel::quad_core();
        for c in 0..4 {
            die.set_core_power(c, 20.0);
        }
        die.settle();
        let t = die.max_core_temperature();
        assert!(t > 65.0 && t < 85.0, "loaded core at {t} degC");
    }

    #[test]
    fn hotspot_forms_on_loaded_core() {
        let mut die = DieModel::quad_core();
        die.set_core_power(0, 20.0);
        for c in 1..4 {
            die.set_core_power(c, 2.0);
        }
        die.settle();
        let t = die.core_temperatures();
        assert!(t[0] > t[1] + 5.0, "{t:?}");
        assert!(t[0] > t[3] + 5.0, "{t:?}");
        // Adjacent cores (1, 2) warm more than the diagonal one (3).
        assert!(t[1] > t[3] - 1e-9, "{t:?}");
    }

    #[test]
    fn advance_approaches_settle() {
        let mut a = DieModel::quad_core();
        let mut b = a.clone();
        for c in 0..4 {
            a.set_core_power(c, 10.0);
            b.set_core_power(c, 10.0);
        }
        a.advance(600.0);
        b.settle();
        assert!((a.core_temperature(0) - b.core_temperature(0)).abs() < 0.2);
    }

    #[test]
    fn core_time_constant_is_subsecond_scale() {
        // Step power on one core; most of the core-local rise happens in the
        // first couple of seconds (needed so bursty workloads produce
        // measurable thermal cycles at the paper's 1-3 s sampling).
        let mut die = DieModel::quad_core();
        for c in 0..4 {
            die.set_core_power(c, 2.0);
        }
        die.settle();
        let t0 = die.core_temperature(0);
        die.set_core_power(0, 20.0);
        die.advance(2.0);
        let t2 = die.core_temperature(0);
        die.settle();
        let tinf = die.core_temperature(0);
        let local_rise_frac = (t2 - t0) / (tinf - t0);
        assert!(
            local_rise_frac > 0.5,
            "only {local_rise_frac:.2} of the rise after 2 s"
        );
    }

    #[test]
    fn sink_is_much_slower_than_core() {
        let mut die = DieModel::quad_core();
        for c in 0..4 {
            die.set_core_power(c, 20.0);
        }
        let s0 = die.sink_temperature();
        die.advance(2.0);
        let s2 = die.sink_temperature();
        die.settle();
        let sinf = die.sink_temperature();
        assert!((s2 - s0) / (sinf - s0) < 0.3, "sink rose too fast");
    }

    #[test]
    fn exact_stepper_accepts_any_dt() {
        // The exact propagator is unconditionally stable.
        let params = DieParams {
            sim_dt: 10.0,
            ..DieParams::default()
        };
        let mut die = DieModel::new(Floorplan::quad(), params);
        for c in 0..4 {
            die.set_core_power(c, 12.0);
        }
        die.advance(600.0);
        let mut settled = die.clone();
        settled.settle();
        assert!((die.core_temperature(0) - settled.core_temperature(0)).abs() < 1e-3);
    }

    #[test]
    fn params_validation_rejects_nonphysical() {
        let bad = |patch: fn(&mut DieParams)| {
            let mut p = DieParams::default();
            patch(&mut p);
            p
        };
        assert!(bad(|p| p.core_capacitance = -1.0).validate().is_err());
        assert!(bad(|p| p.sink_to_ambient = 0.0).validate().is_err());
        assert!(bad(|p| p.sim_dt = 0.0).validate().is_err());
        assert!(DieParams::default().validate().is_ok());
    }

    #[test]
    fn detailed_die_agrees_on_steady_state_scale() {
        let mut simple = DieModel::quad_core();
        let mut detailed = DieModel::detailed(Floorplan::quad(), DieParams::default());
        for c in 0..4 {
            simple.set_core_power(c, 12.0);
            detailed.set_core_power(c, 12.0);
        }
        simple.settle();
        detailed.settle();
        // Same heat reaches ambient, so the sink matches exactly and the
        // compute hotspot runs a little hotter than the lumped core.
        assert!((simple.sink_temperature() - detailed.sink_temperature()).abs() < 1e-6);
        let ds = detailed.core_temperature(0);
        let ss = simple.core_temperature(0);
        assert!(
            ds > ss - 2.0 && ds < ss + 15.0,
            "detailed {ds} vs simple {ss}"
        );
    }

    #[test]
    fn detailed_die_has_sharper_transients() {
        // The lighter compute block responds faster to a power step.
        let step_response = |mut die: DieModel| {
            for c in 0..4 {
                die.set_core_power(c, 2.0);
            }
            die.settle();
            let t0 = die.core_temperature(0);
            die.set_core_power(0, 20.0);
            die.advance(0.5);
            die.core_temperature(0) - t0
        };
        let simple = step_response(DieModel::quad_core());
        let detailed = step_response(DieModel::detailed(Floorplan::quad(), DieParams::default()));
        assert!(
            detailed > simple,
            "detailed rise {detailed} should beat simple {simple}"
        );
    }

    #[test]
    fn ambient_change_warms_the_die() {
        let mut die = DieModel::quad_core();
        for c in 0..4 {
            die.set_core_power(c, 5.0);
        }
        die.settle();
        let before = die.core_temperature(0);
        die.set_ambient(die.ambient() + 10.0);
        die.settle();
        let after = die.core_temperature(0);
        assert!((after - before - 10.0).abs() < 1e-6, "{before} -> {after}");
    }

    #[test]
    fn thermal_state_round_trip_is_bit_exact() {
        let mut donor = DieModel::quad_core();
        for c in 0..4 {
            donor.set_core_power(c, 8.0 + c as f64 * 2.5);
        }
        donor.advance(7.3);
        let (temps, powers, ambient) = donor.thermal_state();

        let mut twin = DieModel::quad_core();
        twin.restore_thermal_state(&temps, &powers, ambient);
        for (a, b) in twin
            .core_temperatures()
            .iter()
            .zip(donor.core_temperatures())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the restored die advances bit-identically.
        donor.advance(11.0);
        twin.advance(11.0);
        for (a, b) in twin
            .network()
            .temperatures()
            .iter()
            .zip(donor.network().temperatures())
        {
            assert_eq!(a.to_bits(), b.to_bits(), "advance diverged after restore");
        }
    }

    #[test]
    fn adaptive_die_matches_default_die() {
        let params_adaptive = DieParams {
            stepper: Stepper::adaptive(),
            sim_dt: 0.05,
            ..DieParams::default()
        };
        let mut a = DieModel::new(Floorplan::quad(), DieParams::default());
        let mut b = DieModel::new(Floorplan::quad(), params_adaptive);
        for c in 0..4 {
            a.set_core_power(c, 12.0);
            b.set_core_power(c, 12.0);
        }
        a.advance(30.0);
        b.advance(30.0);
        assert!((a.core_temperature(0) - b.core_temperature(0)).abs() < 0.1);
    }

    #[test]
    fn hetero_none_builds_bit_identical_network() {
        // An explicit hetero mix with all-1.0 scales and the plain
        // homogeneous die must advance to the exact same bits.
        let uniform = HeteroMix {
            big_cores: 2,
            big_capacitance_scale: 1.0,
            big_conductance_scale: 1.0,
            little_capacitance_scale: 1.0,
            little_conductance_scale: 1.0,
        };
        let mut plain = DieModel::quad_core();
        let mut mixed = DieModel::new(
            Floorplan::quad(),
            DieParams {
                hetero: Some(uniform),
                ..DieParams::default()
            },
        );
        for c in 0..4 {
            plain.set_core_power(c, 9.0 + c as f64);
            mixed.set_core_power(c, 9.0 + c as f64);
        }
        plain.advance(5.0);
        mixed.advance(5.0);
        for (a, b) in plain
            .network()
            .temperatures()
            .iter()
            .zip(mixed.network().temperatures())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn big_cores_heat_slower_than_little_under_equal_power() {
        // big.LITTLE: core 0-1 big (heavier, better coupled), 2-3 LITTLE.
        let mut die = DieModel::new(
            Floorplan::quad(),
            DieParams {
                hetero: Some(HeteroMix::big_little(2)),
                ..DieParams::default()
            },
        );
        for c in 0..4 {
            die.set_core_power(c, 12.0);
        }
        die.advance(1.0);
        // Early transient: the heavy big core lags the light LITTLE one.
        assert!(
            die.core_temperature(0) < die.core_temperature(3),
            "big {} vs little {}",
            die.core_temperature(0),
            die.core_temperature(3)
        );
        // Steady state: the better-coupled big core also runs cooler.
        die.settle();
        assert!(die.core_temperature(0) < die.core_temperature(3));
    }

    #[test]
    fn hetero_works_on_detailed_dies_and_adaptive_stepper() {
        let params = DieParams {
            hetero: Some(HeteroMix::big_little(1)),
            stepper: Stepper::adaptive(),
            ..DieParams::default()
        };
        let mut die = DieModel::detailed(Floorplan::quad(), params);
        for c in 0..4 {
            die.set_core_power(c, 10.0);
        }
        die.advance(5.0);
        let mut settled = die.clone();
        settled.settle();
        // Partially risen, ordered below steady state.
        assert!(die.core_temperature(0) > 26.0);
        assert!(die.core_temperature(0) < settled.core_temperature(0));
    }

    #[test]
    #[should_panic(expected = "big cores")]
    fn hetero_with_too_many_big_cores_panics() {
        let _ = DieModel::new(
            Floorplan::quad(),
            DieParams {
                hetero: Some(HeteroMix::big_little(5)),
                ..DieParams::default()
            },
        );
    }

    #[test]
    fn hetero_validation_rejects_bad_scales() {
        let mut h = HeteroMix::big_little(2);
        h.little_conductance_scale = 0.0;
        assert!(DieParams {
            hetero: Some(h),
            ..DieParams::default()
        }
        .validate()
        .is_err());
        assert!(DieParams {
            hetero: Some(HeteroMix::big_little(2)),
            ..DieParams::default()
        }
        .validate()
        .is_ok());
    }
}
