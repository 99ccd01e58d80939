//! thermorl-policy: the pluggable policy zoo and scenario tournament.
//!
//! The DAC'14 reproduction grew around one controller —
//! [`thermorl_control::DasDac14Controller`] — hard-wired into the sim
//! engine, the campaign harness, and the serving layer. This crate turns
//! "the agent" into *a* policy: the [`Policy`] trait captures the full
//! observe → decide → learn contract **plus** the snapshot/restore
//! contract the serving layer's kill -9 recovery depends on, and a zoo
//! of contenders implements it:
//!
//! | id          | member                                                  |
//! |-------------|---------------------------------------------------------|
//! | `das_dac14` | the paper agent, re-homed behind the trait bit-identically ([`Dac14Policy`]) |
//! | `egreedy`   | ε-greedy bandit over the same action set ([`EpsilonGreedyPolicy`]) |
//! | `ucb1`      | deterministic UCB1 bandit ([`Ucb1Policy`])               |
//! | `thompson`  | Gaussian Thompson-sampling bandit ([`ThompsonPolicy`])   |
//! | `releta`    | ReLeTA-style temperature-state Q-learner ([`ReletaPolicy`]) |
//! | `oracle`    | greedy baseline reading the RC thermal model directly ([`OraclePolicy`]) |
//!
//! Every policy is deterministic given its seed, snapshots to a
//! self-describing JSON value, and restores bit-identically — the same
//! guarantees the paper agent already gave, now a trait obligation that
//! the zoo-wide proptest enforces.
//!
//! [`PolicyController`] adapts any boxed policy to the sim engine's
//! [`ThermalController`], so zoo members drop into `run_scenario`,
//! campaign grids, and the tournament without the engine knowing. The
//! [`tournament`] module supplies the widened scenario matrix (bursty
//! arrivals, phase-changing traces, ambient swings, degraded sensors)
//! and the leaderboard mathematics behind `BENCH_tournament.json`.

#![deny(missing_docs)]

pub mod bandit;
mod codec;
pub mod dac14;
pub mod oracle;
pub mod releta;
pub mod tournament;
pub mod window;

use thermorl_control::ControlConfig;
use thermorl_sim::json::Value;
use thermorl_sim::{Actuation, Observation, ThermalController};

pub use bandit::{EpsilonGreedyPolicy, ThompsonPolicy, Ucb1Policy};
pub use dac14::Dac14Policy;
pub use oracle::OraclePolicy;
pub use releta::ReletaPolicy;
pub use tournament::{cell_metrics, leaderboard, scenario_matrix, CellMetrics, TournamentScenario};
pub use window::{EpochStats, HazardWindow};

/// Telemetry of a policy's most recent decision epoch. Mirrors the
/// paper agent's `EpochDecision` minus the agent-specific state id, so
/// the serving layer can publish a wire `decision` for any zoo member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionRecord {
    /// Chosen action index within the policy's action space.
    pub action: usize,
    /// Window stress hazard (10 / MTTF_tc years) at decision time.
    pub stress: f64,
    /// Window aging hazard (10 / MTTF_aging years) at decision time.
    pub aging: f64,
    /// Reward granted to the previous action (0 when none).
    pub reward: f64,
    /// The policy's exploration/learning parameter at decision time
    /// (α for Q-learners, ε for ε-greedy, 0 for deterministic members).
    pub alpha: f64,
}

/// A pluggable thermal-management policy: observe → decide → learn,
/// plus full-state snapshot/restore for online serving recovery.
///
/// # Contract
///
/// * **Determinism** — given the same construction seed and the same
///   observation stream, a policy must emit the same decision stream.
/// * **Snapshot round-trip** — `snapshot` after `on_start` must capture
///   every piece of mutable state; a fresh instance built by
///   [`PolicyId::build`] and fed the value through [`Policy::restore`]
///   must continue the decision stream bit-identically. `snapshot`
///   returns `None` before `on_start` (nothing to resume yet).
/// * **Epoch cadence** — decisions happen on decision-epoch boundaries
///   (every `ControlConfig::epoch_samples` observations); `observe`
///   returns `Some` exactly then.
pub trait Policy: Send {
    /// The zoo identity of this policy (stable across snapshots).
    fn id(&self) -> PolicyId;

    /// Human-readable instance name (used in result tables and serve
    /// session labels).
    fn name(&self) -> &str;

    /// Relabels the instance (pure metadata; must not affect decisions).
    fn set_name(&mut self, name: String);

    /// Seconds between sensor samples delivered to this policy.
    fn sampling_interval(&self) -> f64;

    /// Called once before the first observation with the thread and core
    /// counts, so the policy can size its action space.
    fn on_start(&mut self, num_threads: usize, num_cores: usize);

    /// Handles one sensor sample; returns an actuation on decision-epoch
    /// boundaries.
    fn observe(&mut self, obs: &Observation<'_>) -> Option<Actuation>;

    /// Decision epochs completed so far.
    fn epochs(&self) -> u64;

    /// Telemetry of the most recent decision epoch.
    fn last_decision(&self) -> Option<DecisionRecord>;

    /// Encodes every mutable field of a started policy (`None` before
    /// `on_start`).
    fn snapshot(&self) -> Option<Value>;

    /// Rebuilds the state captured by [`Policy::snapshot`] into this
    /// instance (which must have been built by [`PolicyId::build`] under
    /// the same configuration).
    ///
    /// # Errors
    ///
    /// Fails on missing/mistyped fields or a snapshot from a different
    /// policy id.
    fn restore(&mut self, v: &Value) -> Result<(), String>;
}

/// The policy zoo registry: every member the tournament, the campaign
/// binaries (`--policy`), and the serve `attach` message can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyId {
    /// The paper's tabular Q-learning agent behind the trait.
    DasDac14,
    /// ε-greedy multi-armed bandit over the paper's action set.
    EpsilonGreedy,
    /// UCB1 bandit (deterministic; no RNG stream at all).
    Ucb1,
    /// Gaussian Thompson-sampling bandit.
    Thompson,
    /// ReLeTA-style Q-learner: temperature-bin states, temperature-drop
    /// reward.
    Releta,
    /// Greedy thermal oracle reading the RC model directly.
    Oracle,
}

impl PolicyId {
    /// Every zoo member, in leaderboard display order.
    pub const ALL: [PolicyId; 6] = [
        PolicyId::DasDac14,
        PolicyId::EpsilonGreedy,
        PolicyId::Ucb1,
        PolicyId::Thompson,
        PolicyId::Releta,
        PolicyId::Oracle,
    ];

    /// The stable wire/checkpoint identifier. Changing these invalidates
    /// existing tournament checkpoints and serve snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyId::DasDac14 => "das_dac14",
            PolicyId::EpsilonGreedy => "egreedy",
            PolicyId::Ucb1 => "ucb1",
            PolicyId::Thompson => "thompson",
            PolicyId::Releta => "releta",
            PolicyId::Oracle => "oracle",
        }
    }

    /// Parses a wire identifier.
    ///
    /// # Errors
    ///
    /// Fails with the list of known ids on an unknown name.
    pub fn parse(s: &str) -> Result<PolicyId, String> {
        PolicyId::ALL
            .into_iter()
            .find(|p| p.as_str() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = PolicyId::ALL.iter().map(|p| p.as_str()).collect();
                format!("unknown policy {s:?}; known: {}", known.join(", "))
            })
    }

    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyId::DasDac14 => "DAC'14 Q-learning",
            PolicyId::EpsilonGreedy => "eps-greedy bandit",
            PolicyId::Ucb1 => "UCB1 bandit",
            PolicyId::Thompson => "Thompson bandit",
            PolicyId::Releta => "ReLeTA-style Q",
            PolicyId::Oracle => "thermal oracle",
        }
    }

    /// The per-policy decision counter name. Telemetry counter names must
    /// be `&'static str`, so the label lives in this static table rather
    /// than a runtime `format!`.
    pub fn counter_name(self) -> &'static str {
        match self {
            PolicyId::DasDac14 => "policy.decisions.das_dac14",
            PolicyId::EpsilonGreedy => "policy.decisions.egreedy",
            PolicyId::Ucb1 => "policy.decisions.ucb1",
            PolicyId::Thompson => "policy.decisions.thompson",
            PolicyId::Releta => "policy.decisions.releta",
            PolicyId::Oracle => "policy.decisions.oracle",
        }
    }

    /// Builds a fresh zoo member under `cfg` (epoch length, sampling
    /// interval, action space, reliability analyzer all come from the
    /// same [`ControlConfig`] the paper agent uses, so every contender
    /// plays the same game).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ControlConfig::validate`].
    pub fn build(self, cfg: ControlConfig, seed: u64) -> Box<dyn Policy> {
        match self {
            PolicyId::DasDac14 => Box::new(Dac14Policy::new(cfg, seed)),
            PolicyId::EpsilonGreedy => Box::new(EpsilonGreedyPolicy::new(cfg, seed)),
            PolicyId::Ucb1 => Box::new(Ucb1Policy::new(cfg, seed)),
            PolicyId::Thompson => Box::new(ThompsonPolicy::new(cfg, seed)),
            PolicyId::Releta => Box::new(ReletaPolicy::new(cfg, seed)),
            PolicyId::Oracle => Box::new(OraclePolicy::new(cfg, seed)),
        }
    }
}

impl std::fmt::Display for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Adapts a boxed [`Policy`] to the sim engine's [`ThermalController`],
/// so any zoo member plugs into `run_scenario` and the campaign grids.
pub struct PolicyController {
    policy: Box<dyn Policy>,
}

impl PolicyController {
    /// Wraps a policy for the sim engine.
    pub fn new(policy: Box<dyn Policy>) -> Self {
        PolicyController { policy }
    }

    /// The wrapped policy.
    pub fn policy(&self) -> &dyn Policy {
        self.policy.as_ref()
    }

    /// The wrapped policy, mutably.
    pub fn policy_mut(&mut self) -> &mut dyn Policy {
        self.policy.as_mut()
    }

    /// Unwraps the policy.
    pub fn into_inner(self) -> Box<dyn Policy> {
        self.policy
    }
}

impl ThermalController for PolicyController {
    fn name(&self) -> &str {
        self.policy.name()
    }

    fn sampling_interval(&self) -> f64 {
        self.policy.sampling_interval()
    }

    fn on_start(&mut self, num_threads: usize, num_cores: usize) {
        self.policy.on_start(num_threads, num_cores);
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        self.policy.observe(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_parse_round_trip() {
        for id in PolicyId::ALL {
            assert_eq!(PolicyId::parse(id.as_str()), Ok(id));
        }
        assert!(PolicyId::parse("nope").is_err());
    }

    #[test]
    fn ids_are_unique_and_key_safe() {
        let mut seen = std::collections::HashSet::new();
        for id in PolicyId::ALL {
            assert!(seen.insert(id.as_str()), "duplicate id {id}");
            assert!(
                !id.as_str().contains('/') && !id.as_str().contains(char::is_whitespace),
                "id {id} unsafe for job keys"
            );
            assert_eq!(
                id.counter_name(),
                format!("policy.decisions.{id}"),
                "counter table out of sync"
            );
        }
    }

    #[test]
    fn every_member_builds_and_starts() {
        for id in PolicyId::ALL {
            let mut p = id.build(ControlConfig::default(), 7);
            assert_eq!(p.id(), id);
            assert!(p.snapshot().is_none(), "{id}: snapshot before on_start");
            p.on_start(6, 4);
            assert!(p.snapshot().is_some(), "{id}: snapshot after on_start");
            assert_eq!(p.epochs(), 0);
        }
    }
}
