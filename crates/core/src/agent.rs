//! Algorithm 1: the run-time reinforcement-learning agent.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use thermorl_reliability::ThermalProfile;
use thermorl_sim::{Actuation, Observation, ThermalController};
use thermorl_telemetry as tel;

use crate::action::ActionSpace;
use crate::alpha::{AlphaSchedule, LearningPhase};
use crate::config::ControlConfig;
use crate::ma::{MovingAverageDetector, WorkloadChange};
use crate::qtable::QTable;
use crate::snapshot::AgentSnapshot;
use crate::state::StateId;

/// The proposed DAC'14 controller (Algorithm 1 of the paper).
///
/// Per sensor sample it records the temperature (`TRec.push(T)`); once a
/// decision epoch's worth of samples has accumulated it:
///
/// 1. computes the window's stress and aging hazards (worst core),
/// 2. updates moving averages and classifies the change as none / intra /
///    inter (§5.4), restoring or resetting the Q-table accordingly,
/// 3. identifies the state, computes the reward of the previous action
///    (Eq. 8) and updates the Q-table (Eq. 7),
/// 4. selects the next action (arbitrary during exploration, ε-greedy
///    afterwards) and decays α (§5.3),
/// 5. clears `TRec` and issues the action as affinity masks + governor.
pub struct DasDac14Controller {
    cfg: ControlConfig,
    actions: Option<ActionSpace>,
    qtable: Option<QTable>,
    q_exp: Option<Vec<f64>>,
    alpha: AlphaSchedule,
    detector: MovingAverageDetector,
    rng: StdRng,
    trec: Vec<Vec<f64>>,
    prev: Option<(StateId, usize)>,
    epochs: u64,
    explore_actions: u64,
    intra_events: u64,
    inter_events: u64,
    last_policy: Vec<usize>,
    stable_epochs: usize,
    convergence_epoch: Option<u64>,
    last_decision: Option<EpochDecision>,
    /// While `epochs < use_static_until`, actions are selected from the
    /// static `Q_exp` table (intra-application adaptation, §5.4).
    use_static_until: u64,
    /// Pending warm-start state applied at `on_start`.
    warm_start: Option<(Vec<f64>, f64)>,
    /// The `(num_threads, num_cores)` pair `on_start` ran with — the
    /// action space's build inputs, recorded so a snapshot can rebuild
    /// an identical space on restore.
    started: Option<(usize, usize)>,
    name: String,
}

/// Telemetry of the most recent decision epoch (exposed for experiment
/// harnesses and debugging).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochDecision {
    /// Window stress hazard (10 / MTTF_tc years).
    pub stress: f64,
    /// Window aging hazard (10 / MTTF_aging years).
    pub aging: f64,
    /// Identified state.
    pub state: StateId,
    /// Chosen action index.
    pub action: usize,
    /// Reward granted to the previous action (0 at epoch 1).
    pub reward: f64,
    /// α at decision time.
    pub alpha: f64,
}

impl std::fmt::Debug for DasDac14Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DasDac14Controller")
            .field("epochs", &self.epochs)
            .field("alpha", &self.alpha.alpha())
            .field("phase", &self.alpha.phase())
            .finish_non_exhaustive()
    }
}

impl DasDac14Controller {
    /// Creates the agent.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ControlConfig::validate`].
    pub fn new(cfg: ControlConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid controller configuration");
        let alpha = cfg.alpha;
        let detector = cfg.detector.clone();
        DasDac14Controller {
            actions: cfg.action_space.clone(),
            alpha,
            detector,
            rng: StdRng::seed_from_u64(seed ^ 0xDAC1_4DAC_14DA_C14D),
            trec: Vec::new(),
            prev: None,
            epochs: 0,
            explore_actions: 0,
            intra_events: 0,
            inter_events: 0,
            last_policy: Vec::new(),
            stable_epochs: 0,
            convergence_epoch: None,
            last_decision: None,
            use_static_until: 0,
            warm_start: None,
            started: None,
            qtable: None,
            q_exp: None,
            name: "proposed-dac14".to_string(),
            cfg,
        }
    }

    /// Renames the controller (for ablation variants in result tables).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Renames a live controller in place (the serving layer labels
    /// sessions after construction; the name is pure metadata and does
    /// not affect the decision stream).
    pub fn rename(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Warm-starts the agent from a previously learned Q-table (as
    /// returned by [`QTable::snapshot`]) and an initial α. The table
    /// becomes both the live table and the `Q_exp` snapshot, so the agent
    /// skips the exploration phase entirely — the deployment regime where
    /// learning cost is amortised across runs.
    ///
    /// # Panics
    ///
    /// `on_start` panics later if the snapshot's size does not match the
    /// state × action dimensions in force.
    pub fn with_warm_start(mut self, table: Vec<f64>, alpha: f64) -> Self {
        self.warm_start = Some((table, alpha.clamp(0.0, 1.0)));
        self
    }

    /// Exports the live Q-table for a future warm start (None before
    /// `on_start`).
    pub fn export_table(&self) -> Option<Vec<f64>> {
        self.qtable.as_ref().map(|q| q.snapshot())
    }

    /// Decision epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Current learning rate α.
    pub fn alpha(&self) -> f64 {
        self.alpha.alpha()
    }

    /// Current learning phase.
    pub fn phase(&self) -> LearningPhase {
        self.alpha.phase()
    }

    /// Decisions taken by exploration (round-robin sweeps plus ε-greedy
    /// random draws) rather than greedily — `explore_actions / epochs` is
    /// the agent's exploration ratio.
    pub fn explore_actions(&self) -> u64 {
        self.explore_actions
    }

    /// Intra-application adaptations performed.
    pub fn intra_events(&self) -> u64 {
        self.intra_events
    }

    /// Inter-application re-learning resets performed.
    pub fn inter_events(&self) -> u64 {
        self.inter_events
    }

    /// Epoch at which the greedy policy stabilised, if it has (the
    /// "number of iterations" metric of Figure 8).
    pub fn convergence_epoch(&self) -> Option<u64> {
        self.convergence_epoch
    }

    /// The live Q-table (after `on_start`).
    pub fn q_table(&self) -> Option<&QTable> {
        self.qtable.as_ref()
    }

    /// Telemetry of the most recent decision epoch.
    pub fn last_decision(&self) -> Option<EpochDecision> {
        self.last_decision
    }

    /// The action space in use (after `on_start`).
    pub fn action_space(&self) -> Option<&ActionSpace> {
        self.actions.as_ref()
    }

    /// Worst-core (stress, aging) hazards of a sample window.
    fn window_hazards(&self, dt: f64) -> (f64, f64) {
        let mut stress: f64 = 0.0;
        let mut aging: f64 = 0.0;
        for core_samples in &self.trec {
            let profile = ThermalProfile::from_samples(dt, core_samples.clone());
            let report = self.cfg.analyzer.analyze(&profile);
            let s = if report.mttf_cycling_years.is_finite() {
                10.0 / report.mttf_cycling_years
            } else {
                0.0
            };
            let a = if report.mttf_aging_years.is_finite() {
                10.0 / report.mttf_aging_years
            } else {
                0.0
            };
            stress = stress.max(s);
            aging = aging.max(a);
        }
        (stress, aging)
    }

    /// Picks the next action; the flag reports whether it was exploratory
    /// (round-robin sweep or ε-greedy random draw) rather than greedy.
    fn select_action(&mut self, state: StateId) -> (usize, bool) {
        let n = self
            .actions
            .as_ref()
            .expect("on_start must run before sampling")
            .len();
        match self.alpha.phase() {
            // "The agent selects action arbitrarily to determine the
            // corresponding reward": a round-robin sweep covers every
            // action during the short exploration phase (a uniform draw
            // would leave most of the space unvisited).
            LearningPhase::Exploration => ((self.epochs as usize) % n, true),
            _ => {
                let eps = self.cfg.epsilon_scale * self.alpha.alpha();
                if self.rng.gen::<f64>() < eps {
                    (self.rng.gen_range(0..n), true)
                } else if self.epochs < self.use_static_until {
                    // Intra-adaptation window: act from the static table.
                    (self.best_static_action(state, n), false)
                } else {
                    let best = self
                        .qtable
                        .as_ref()
                        .expect("table exists after on_start")
                        .best_action(state)
                        .0;
                    (best, false)
                }
            }
        }
    }

    /// Encodes every mutable field of a started agent, so that
    /// [`DasDac14Controller::restore`] under the same configuration
    /// continues the decision stream bit-identically. Returns `None`
    /// before `on_start` (there is nothing to resume yet).
    pub fn snapshot(&self) -> Option<AgentSnapshot> {
        let (num_threads, num_cores) = self.started?;
        let qtable = self.qtable.as_ref()?;
        let (detector_stress, detector_aging, detector_prev_ma) = self.detector.history();
        Some(AgentSnapshot {
            num_threads,
            num_cores,
            name: self.name.clone(),
            qtable: qtable.snapshot(),
            q_exp: self.q_exp.clone(),
            alpha: self.alpha.alpha(),
            rng_state: self.rng.state(),
            detector_stress,
            detector_aging,
            detector_prev_ma,
            trec: self.trec.clone(),
            prev: self.prev.map(|(s, a)| (s.index(), a)),
            epochs: self.epochs,
            explore_actions: self.explore_actions,
            intra_events: self.intra_events,
            inter_events: self.inter_events,
            last_policy: self.last_policy.clone(),
            stable_epochs: self.stable_epochs as u64,
            convergence_epoch: self.convergence_epoch,
            use_static_until: self.use_static_until,
            last_decision: self.last_decision,
        })
    }

    /// Rebuilds a live, already-started agent from a
    /// [`DasDac14Controller::snapshot`]. `cfg` must be the configuration
    /// the donor agent ran with — only mutable state travels in the
    /// snapshot; structure (state space, thresholds, OPP table) comes
    /// from `cfg`, and a mismatched table size panics.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid or the snapshot's Q-table length does
    /// not match the state × action dimensions `cfg` implies.
    pub fn restore(cfg: ControlConfig, snap: &AgentSnapshot) -> Self {
        let mut agent = DasDac14Controller::new(cfg, 0);
        agent.on_start(snap.num_threads, snap.num_cores);
        agent
            .qtable
            .as_mut()
            .expect("on_start builds the table")
            .restore(&snap.qtable);
        agent.q_exp = snap.q_exp.clone();
        agent.alpha.restore_alpha(snap.alpha);
        agent.detector.restore_history(
            &snap.detector_stress,
            &snap.detector_aging,
            snap.detector_prev_ma,
        );
        agent.rng = StdRng::from_state(snap.rng_state);
        agent.trec = snap.trec.clone();
        agent.prev = snap.prev.map(|(s, a)| (StateId(s), a));
        agent.epochs = snap.epochs;
        agent.explore_actions = snap.explore_actions;
        agent.intra_events = snap.intra_events;
        agent.inter_events = snap.inter_events;
        agent.last_policy = snap.last_policy.clone();
        agent.stable_epochs = snap.stable_epochs as usize;
        agent.convergence_epoch = snap.convergence_epoch;
        agent.use_static_until = snap.use_static_until;
        agent.last_decision = snap.last_decision;
        agent.name = snap.name.clone();
        agent
    }

    /// Greedy action of the static `Q_exp` table for `state`.
    fn best_static_action(&self, state: StateId, n: usize) -> usize {
        match &self.q_exp {
            Some(snap) => {
                let row = &snap[state.index() * n..(state.index() + 1) * n];
                let mut best = 0;
                let mut best_q = row[0];
                for (i, &q) in row.iter().enumerate().skip(1) {
                    if q > best_q {
                        best = i;
                        best_q = q;
                    }
                }
                best
            }
            None => {
                self.qtable
                    .as_ref()
                    .expect("table exists after on_start")
                    .best_action(state)
                    .0
            }
        }
    }
}

impl ThermalController for DasDac14Controller {
    fn name(&self) -> &str {
        &self.name
    }

    fn sampling_interval(&self) -> f64 {
        self.cfg.sampling_interval
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.started = Some((num_threads, num_cores));
        if self.actions.is_none() {
            self.actions = Some(ActionSpace::paper_default(
                num_threads,
                num_cores,
                &self.cfg.opp_table,
            ));
        }
        let n_actions = self.actions.as_ref().expect("just set").len();
        let mut table = QTable::new(self.cfg.state_space.len(), n_actions);
        if let Some((snapshot, alpha)) = self.warm_start.take() {
            table.restore(&snapshot);
            self.q_exp = Some(snapshot);
            // Jump the schedule to the requested α by decaying from 1.
            while self.alpha.alpha() > alpha && self.alpha.alpha() > 1e-6 {
                self.alpha.step();
            }
        }
        self.qtable = Some(table);
        self.trec = vec![Vec::with_capacity(self.cfg.epoch_samples); num_cores];
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        // TRec.push(T): record this sample on every core.
        if self.trec.len() != obs.sensor_temps.len() {
            self.trec = vec![Vec::with_capacity(self.cfg.epoch_samples); obs.sensor_temps.len()];
        }
        for (buf, &t) in self.trec.iter_mut().zip(obs.sensor_temps) {
            buf.push(t);
        }
        if self.trec[0].len() < self.cfg.epoch_samples {
            return None;
        }

        // ---- A decision epoch has completed. ----
        let phase_before = self.alpha.phase();
        let (stress, aging) = self.window_hazards(self.cfg.sampling_interval);

        // §5.4: classify the moving-average change. Detection is armed
        // once exploration has produced a snapshot (before that, the
        // agent's own arbitrary actions would trigger false positives).
        let change = self.detector.observe(stress, aging);
        if self.cfg.detect_changes && self.q_exp.is_some() {
            match change {
                WorkloadChange::Inter => {
                    // Q ← 0, α ← 1: relearn from scratch.
                    if let Some(q) = &mut self.qtable {
                        q.reset();
                    }
                    self.alpha.reset();
                    self.detector.reset();
                    self.q_exp = None;
                    self.prev = None;
                    self.inter_events += 1;
                    self.stable_epochs = 0;
                    tel::counter!("agent.detect.inter");
                    tel::event!("detect", "inter");
                    tel::event!("qtable", "reset");
                }
                WorkloadChange::Intra => {
                    // §5.4: "the Q-table [is] updated with the Q values
                    // from the end of the exploration phase" — the agent
                    // keeps two tables, so we read this as *acting from*
                    // the static exploration table for a detector window
                    // while the live table keeps learning at α_exp
                    // (overwriting the live table on every intra event
                    // would freeze learning under continuous
                    // intra-application modulation).
                    if self.cfg.dual_q_tables && self.q_exp.is_some() {
                        self.use_static_until = self.epochs + 3;
                    }
                    self.alpha.restore_exp();
                    self.intra_events += 1;
                    self.stable_epochs = 0;
                    tel::counter!("agent.detect.intra");
                    tel::event!("detect", "intra");
                    tel::event!("qtable", "restore");
                }
                WorkloadChange::None => {
                    tel::counter!("agent.detect.none");
                }
            }
        }

        // IdentifyState + CalculateReward + UpdateQtable (Eq. 7 & 8).
        let state = self.cfg.state_space.identify(stress, aging);
        let mut last_reward = 0.0;
        if let Some((ps, pa)) = self.prev {
            let (mean_s, mean_a) = self.detector.current().unwrap_or((stress, aging));
            let r = self.cfg.reward.reward(
                &self.cfg.state_space,
                state,
                stress,
                aging,
                mean_s,
                mean_a,
                obs.fps,
                obs.perf_constraint,
            );
            last_reward = r;
            if let Some(q) = &mut self.qtable {
                let td = q.update(ps, pa, r, self.alpha.alpha(), self.cfg.gamma, state);
                tel::gauge!("agent.td_error", td);
                tel::observe!("agent.td_error_abs_1e6", (td.abs() * 1e6) as u64);
            }
        }

        // SelectAction + UpdateLearningRate.
        let (action_idx, explored) = self.select_action(state);
        if explored {
            self.explore_actions += 1;
        }
        self.last_decision = Some(EpochDecision {
            stress,
            aging,
            state,
            action: action_idx,
            reward: last_reward,
            alpha: self.alpha.alpha(),
        });
        if self.alpha.step() {
            // End of exploration: take the Q_exp snapshot (§5.4).
            self.q_exp = self.qtable.as_ref().map(|q| q.snapshot());
            tel::event!("qtable", "snapshot");
        }
        let prev_action = self.prev.map(|(_, a)| a);
        self.prev = Some((state, action_idx));
        for buf in &mut self.trec {
            buf.clear();
        }
        self.epochs += 1;
        tel::counter!("agent.decisions");
        if explored {
            tel::counter!("agent.explore_actions");
        }
        tel::gauge!("agent.alpha", self.alpha.alpha());
        tel::gauge!(
            "agent.exploration_ratio",
            self.explore_actions as f64 / self.epochs as f64
        );
        let phase_after = self.alpha.phase();
        if phase_after != phase_before {
            tel::event!("agent.phase", "{phase_after:?}");
        }

        // Convergence bookkeeping (Figure 8).
        if let Some(q) = &self.qtable {
            let policy = q.greedy_policy();
            if policy == self.last_policy {
                self.stable_epochs += 1;
            } else {
                self.stable_epochs = 0;
                self.last_policy = policy;
            }
            if self.convergence_epoch.is_none()
                && self.stable_epochs >= self.cfg.stability_epochs
                && self.alpha.phase() != LearningPhase::Exploration
            {
                self.convergence_epoch = Some(self.epochs);
            }
        }

        let action = self
            .actions
            .as_ref()
            .expect("on_start must run before sampling")
            .get(action_idx);
        // Only changes are logged, so steady exploitation does not flood
        // the ring buffer out of its detect/phase events.
        if prev_action != Some(action_idx) {
            tel::event!(
                "actuate",
                "action={action_idx} governor={:?}",
                action.governor
            );
        }
        Some(Actuation {
            assignment: Some(action.assignment.clone()),
            governor: Some(action.governor),
            per_core_governors: action.per_core_governors.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_platform::CounterSnapshot;

    fn obs<'a>(temps: &'a [f64], freqs: &'a [f64], time: f64) -> Observation<'a> {
        Observation {
            time,
            sensor_temps: temps,
            fps: 1.0,
            perf_constraint: 0.8,
            app_name: "test",
            app_index: 0,
            app_switched: false,
            counters: CounterSnapshot::default(),
            core_freq_ghz: freqs,
        }
    }

    fn agent() -> DasDac14Controller {
        let cfg = ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        };
        let mut a = DasDac14Controller::new(cfg, 3);
        a.on_start(6, 4);
        a
    }

    /// Feeds `n` epochs of a synthetic temperature generator.
    fn feed<F: FnMut(u64) -> f64>(a: &mut DasDac14Controller, epochs: usize, mut temp: F) -> u64 {
        let freqs = [3.4; 4];
        let mut decisions = 0;
        for k in 0..(epochs * 4) as u64 {
            let t = temp(k);
            let temps = [t, t + 1.0, t - 1.0, t];
            if a.on_sample(&obs(&temps, &freqs, k as f64 * 3.0)).is_some() {
                decisions += 1;
            }
        }
        decisions
    }

    #[test]
    fn decides_once_per_epoch() {
        let mut a = agent();
        let decisions = feed(&mut a, 10, |_| 45.0);
        assert_eq!(decisions, 10);
        assert_eq!(a.epochs(), 10);
    }

    #[test]
    fn alpha_decays_and_phases_advance() {
        let mut a = agent();
        assert_eq!(a.phase(), LearningPhase::Exploration);
        feed(&mut a, 40, |_| 45.0);
        assert!(a.alpha() < 0.1);
        assert_eq!(a.phase(), LearningPhase::Exploitation);
    }

    #[test]
    fn snapshot_taken_at_end_of_exploration() {
        let mut a = agent();
        assert!(a.q_exp.is_none());
        feed(&mut a, 10, |_| 45.0);
        assert!(a.q_exp.is_some(), "Q_exp snapshot should exist");
    }

    #[test]
    fn inter_change_resets_learning() {
        let mut a = agent();
        // Converge on a cool workload.
        feed(&mut a, 20, |_| 40.0);
        assert!(a.alpha() < 0.6);
        // Sudden hot, cycling workload: square wave 45..75.
        feed(&mut a, 10, |k| if k % 2 == 0 { 45.0 } else { 75.0 });
        assert!(a.inter_events() >= 1, "switch should be detected");
        // Alpha went back up at the reset.
        assert!(a.epochs() >= 25);
    }

    #[test]
    fn steady_workload_triggers_no_events() {
        let mut a = agent();
        feed(&mut a, 30, |_| 45.0);
        assert_eq!(a.inter_events(), 0);
        assert_eq!(a.intra_events(), 0);
    }

    #[test]
    fn detection_can_be_disabled() {
        let cfg = ControlConfig {
            epoch_samples: 4,
            detect_changes: false,
            ..ControlConfig::default()
        };
        let mut a = DasDac14Controller::new(cfg, 3);
        a.on_start(6, 4);
        feed(&mut a, 20, |_| 40.0);
        feed(&mut a, 10, |k| if k % 2 == 0 { 45.0 } else { 75.0 });
        assert_eq!(a.inter_events(), 0);
    }

    #[test]
    fn actions_carry_assignment_and_governor() {
        let mut a = agent();
        let freqs = [3.4; 4];
        let temps = [45.0; 4];
        let mut act = None;
        for k in 0..4 {
            act = a.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
        }
        let act = act.expect("4th sample closes the epoch");
        assert!(act.assignment.is_some());
        assert!(act.governor.is_some());
        assert_eq!(act.assignment.unwrap().len(), 6);
    }

    #[test]
    fn convergence_is_eventually_declared_on_steady_input() {
        let mut a = agent();
        feed(&mut a, 60, |_| 45.0);
        assert!(
            a.convergence_epoch().is_some(),
            "steady input must converge: alpha={}",
            a.alpha()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = ControlConfig {
                epoch_samples: 4,
                ..ControlConfig::default()
            };
            let mut a = DasDac14Controller::new(cfg, seed);
            a.on_start(6, 4);
            feed(&mut a, 30, |k| 40.0 + (k % 7) as f64);
            (a.alpha(), a.q_table().unwrap().snapshot())
        };
        assert_eq!(run(5).1, run(5).1);
    }

    #[test]
    fn warm_start_skips_exploration() {
        let cfg = ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        };
        // Train a donor agent.
        let mut donor = DasDac14Controller::new(cfg.clone(), 3);
        donor.on_start(6, 4);
        feed(&mut donor, 30, |_| 45.0);
        let table = donor.export_table().expect("trained table");

        let mut warm = DasDac14Controller::new(cfg, 4).with_warm_start(table.clone(), 0.2);
        warm.on_start(6, 4);
        assert!(
            warm.alpha() <= 0.2 + 1e-9,
            "alpha jumped to {}",
            warm.alpha()
        );
        assert_ne!(
            warm.phase(),
            LearningPhase::Exploration,
            "warm start must skip exploration"
        );
        assert_eq!(warm.q_table().unwrap().snapshot(), table);
        // And it still decides normally.
        let decisions = feed(&mut warm, 5, |_| 45.0);
        assert_eq!(decisions, 5);
    }

    /// The learning-dynamics introspection: detector verdicts and
    /// Q-table transitions must surface as telemetry events (thread-local
    /// ring, so concurrent tests cannot pollute the assertion).
    #[test]
    #[cfg(feature = "telemetry")]
    fn detect_verdicts_emit_events() {
        thermorl_telemetry::set_enabled(true);
        let cursor = thermorl_telemetry::next_event_seq();
        let mut a = agent();
        // Converge on a cool workload, then switch to a hot cycling one.
        feed(&mut a, 20, |_| 40.0);
        feed(&mut a, 10, |k| if k % 2 == 0 { 45.0 } else { 75.0 });
        assert!(a.inter_events() >= 1, "switch should be detected");
        let events = thermorl_telemetry::thread_events_since(cursor);
        assert!(
            events
                .iter()
                .any(|e| e.name == "detect" && e.detail == "inter"),
            "detect:inter event missing from {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.name == "qtable" && e.detail == "reset"),
            "qtable:reset event missing"
        );
        assert!(
            events
                .iter()
                .any(|e| e.name == "qtable" && e.detail == "snapshot"),
            "end-of-exploration snapshot event missing"
        );
        assert!(a.explore_actions() > 0, "exploration must be counted");
    }

    /// The serving-layer contract: snapshot → JSON → restore mid-run, and
    /// the restored agent's decision stream is bit-identical to the donor
    /// continuing uninterrupted — table bits, RNG draws, and counters.
    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let cfg = ControlConfig {
            epoch_samples: 4,
            ..ControlConfig::default()
        };
        let mut donor = DasDac14Controller::new(cfg.clone(), 9);
        donor.on_start(6, 4);
        // Past exploration, with a live Q_exp and detector history; stop
        // mid-epoch (2 of 4 samples) so the partial TRec window travels.
        feed(&mut donor, 17, |k| 42.0 + (k % 5) as f64);
        let freqs = [3.4; 4];
        for k in 0..2 {
            let temps = [50.0, 51.0, 49.0, 50.0];
            assert!(donor
                .on_sample(&obs(&temps, &freqs, k as f64 * 3.0))
                .is_none());
        }

        let snap = donor.snapshot().expect("started agent snapshots");
        let line = snap.to_value().to_json();
        let decoded =
            crate::AgentSnapshot::from_value(&thermorl_json::Value::parse(&line).expect("parse"))
                .expect("decode");
        assert_eq!(decoded, snap);
        let mut twin = DasDac14Controller::restore(cfg, &decoded);

        // Drive both through a further stretch that includes a workload
        // switch (exercising detector + reset paths) and compare every
        // decision.
        for k in 0..30 * 4u64 {
            let t = if k < 60 { 45.0 + (k % 3) as f64 } else { 72.0 };
            let temps = [t, t + 1.0, t - 1.0, t];
            let a = donor.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
            let b = twin.on_sample(&obs(&temps, &freqs, k as f64 * 3.0));
            match (&a, &b) {
                (None, None) => {}
                (Some(x), Some(y)) => assert_eq!(x, y, "diverged at sample {k}"),
                _ => panic!("decision cadence diverged at sample {k}"),
            }
            assert_eq!(donor.last_decision(), twin.last_decision());
        }
        assert_eq!(donor.epochs(), twin.epochs());
        assert_eq!(donor.explore_actions(), twin.explore_actions());
        assert_eq!(donor.inter_events(), twin.inter_events());
        let (qa, qb) = (donor.export_table().unwrap(), twin.export_table().unwrap());
        for (x, y) in qa.iter().zip(&qb) {
            assert_eq!(x.to_bits(), y.to_bits(), "Q-table bits diverged");
        }
    }

    #[test]
    fn snapshot_before_start_is_none() {
        let a = DasDac14Controller::new(ControlConfig::default(), 1);
        assert!(a.snapshot().is_none());
    }

    #[test]
    fn name_override() {
        let a = DasDac14Controller::new(ControlConfig::default(), 1).with_name("ablation-x");
        assert_eq!(a.name(), "ablation-x");
    }

    #[test]
    #[should_panic(expected = "invalid controller configuration")]
    fn invalid_config_panics() {
        let cfg = ControlConfig {
            gamma: 2.0,
            ..ControlConfig::default()
        };
        let _ = DasDac14Controller::new(cfg, 1);
    }
}
