//! Full-state agent serialization for online serving.
//!
//! A batch campaign never needs to persist a *live* agent — every run
//! starts from `on_start`. The serving layer (`thermorl-serve`) does: a
//! supervisor managing thousands of dies snapshots each session's agent
//! periodically and must resume it **bit-identically** after a crash, so
//! that a restarted server emits exactly the decision stream an
//! uninterrupted one would have. [`AgentSnapshot`] therefore captures
//! every piece of mutable controller state — both Q-tables, the α decay
//! position, the detector's moving-average history, the ε-greedy RNG
//! stream, the partial sensor window `TRec`, and all bookkeeping counters
//! — while immutable configuration stays outside (the restore side
//! supplies the same [`crate::ControlConfig`]).
//!
//! Floats travel through the shortest-round-trip JSON form (`{:?}` emit,
//! `str::parse::<f64>` read), which is exact for every finite `f64`, so
//! serialize → restore → step produces the same bits as never
//! snapshotting.

use thermorl_json::{JsonError, Value};

use crate::agent::EpochDecision;
use crate::state::StateId;

/// Every mutable field of a live [`crate::DasDac14Controller`].
///
/// Produced by [`crate::DasDac14Controller::snapshot`] (after `on_start`)
/// and consumed by [`crate::DasDac14Controller::restore`]. The JSON codec
/// ([`AgentSnapshot::to_value`] / [`AgentSnapshot::from_value`]) is
/// self-describing and versioned by field presence: optional state is
/// simply omitted when absent.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSnapshot {
    /// Thread count the action space was built for at `on_start`.
    pub num_threads: usize,
    /// Core count (`TRec` width / sensor count).
    pub num_cores: usize,
    /// Controller name (ablation variants keep their label on restore).
    pub name: String,
    /// The live Q-table values (row-major states × actions).
    pub qtable: Vec<f64>,
    /// The static `Q_exp` snapshot, when exploration has produced one.
    pub q_exp: Option<Vec<f64>>,
    /// Current learning rate α (decay position within the schedule).
    pub alpha: f64,
    /// Raw splitmix64 state of the ε-greedy RNG.
    pub rng_state: u64,
    /// Detector stress moving-average history.
    pub detector_stress: Vec<f64>,
    /// Detector aging moving-average history.
    pub detector_aging: Vec<f64>,
    /// Detector previous moving average `(MA_s, MA_a)`.
    pub detector_prev_ma: Option<(f64, f64)>,
    /// Partial decision-epoch sample window, one buffer per core.
    pub trec: Vec<Vec<f64>>,
    /// Previous `(state index, action)` pair awaiting its reward.
    pub prev: Option<(usize, usize)>,
    /// Decision epochs completed.
    pub epochs: u64,
    /// Exploratory decisions taken.
    pub explore_actions: u64,
    /// Intra-application adaptations performed.
    pub intra_events: u64,
    /// Inter-application relearning resets performed.
    pub inter_events: u64,
    /// Greedy policy at the last epoch (convergence bookkeeping).
    pub last_policy: Vec<usize>,
    /// Consecutive epochs with a stable greedy policy.
    pub stable_epochs: u64,
    /// Epoch at which convergence was declared, if it was.
    pub convergence_epoch: Option<u64>,
    /// Epoch until which actions come from the static table (intra
    /// adaptation window).
    pub use_static_until: u64,
    /// Telemetry of the most recent decision epoch.
    pub last_decision: Option<EpochDecision>,
}

impl AgentSnapshot {
    /// Encodes the snapshot as a JSON object value.
    pub fn to_value(&self) -> Value {
        let mut obj = Value::object();
        obj.set("num_threads", self.num_threads)
            .set("num_cores", self.num_cores)
            .set("name", self.name.as_str())
            .set("qtable", self.qtable.as_slice());
        if let Some(q_exp) = &self.q_exp {
            obj.set("q_exp", q_exp.as_slice());
        }
        obj.set("alpha", self.alpha)
            .set("rng_state", self.rng_state)
            .set("detector_stress", self.detector_stress.as_slice())
            .set("detector_aging", self.detector_aging.as_slice());
        if let Some((s, a)) = self.detector_prev_ma {
            obj.set("detector_prev_ma", &[s, a][..]);
        }
        obj.set(
            "trec",
            Value::Arr(
                self.trec
                    .iter()
                    .map(|core| core.as_slice().into())
                    .collect(),
            ),
        );
        if let Some((state, action)) = self.prev {
            obj.set("prev", &[state, action][..]);
        }
        obj.set("epochs", self.epochs)
            .set("explore_actions", self.explore_actions)
            .set("intra_events", self.intra_events)
            .set("inter_events", self.inter_events)
            .set("last_policy", self.last_policy.as_slice())
            .set("stable_epochs", self.stable_epochs);
        if let Some(epoch) = self.convergence_epoch {
            obj.set("convergence_epoch", epoch);
        }
        obj.set("use_static_until", self.use_static_until);
        if let Some(d) = &self.last_decision {
            let mut dec = Value::object();
            dec.set("stress", d.stress)
                .set("aging", d.aging)
                .set("state", d.state.index())
                .set("action", d.action)
                .set("reward", d.reward)
                .set("alpha", d.alpha);
            obj.set("last_decision", dec);
        }
        obj
    }

    /// Decodes a snapshot from [`AgentSnapshot::to_value`] output.
    ///
    /// # Errors
    ///
    /// Fails on missing or mistyped fields.
    pub fn from_value(v: &Value) -> Result<AgentSnapshot, JsonError> {
        let detector_prev_ma = match v.opt_field::<Vec<f64>>("detector_prev_ma")?.as_deref() {
            None => None,
            Some(&[stress, aging]) => Some((stress, aging)),
            Some(_) => return Err(JsonError::new("\"detector_prev_ma\" must have two entries")),
        };
        let prev = match v.opt_field::<Vec<usize>>("prev")?.as_deref() {
            None => None,
            Some(&[state, action]) => Some((state, action)),
            Some(_) => return Err(JsonError::new("\"prev\" must have two entries")),
        };
        let last_decision = match v.opt_field::<&Value>("last_decision")? {
            None => None,
            Some(dec) => Some(EpochDecision {
                stress: dec.field("stress")?,
                aging: dec.field("aging")?,
                state: StateId(dec.field("state")?),
                action: dec.field("action")?,
                reward: dec.field("reward")?,
                alpha: dec.field("alpha")?,
            }),
        };
        Ok(AgentSnapshot {
            num_threads: v.field("num_threads")?,
            num_cores: v.field("num_cores")?,
            name: v.field("name")?,
            qtable: v.field("qtable")?,
            q_exp: v.opt_field("q_exp")?,
            alpha: v.field("alpha")?,
            rng_state: v.field("rng_state")?,
            detector_stress: v.field("detector_stress")?,
            detector_aging: v.field("detector_aging")?,
            detector_prev_ma,
            trec: v.field("trec")?,
            prev,
            epochs: v.field("epochs")?,
            explore_actions: v.field("explore_actions")?,
            intra_events: v.field("intra_events")?,
            inter_events: v.field("inter_events")?,
            last_policy: v.field("last_policy")?,
            stable_epochs: v.field("stable_epochs")?,
            convergence_epoch: v.opt_field("convergence_epoch")?,
            use_static_until: v.field("use_static_until")?,
            last_decision,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AgentSnapshot {
        AgentSnapshot {
            num_threads: 6,
            num_cores: 4,
            name: "proposed-dac14".into(),
            qtable: vec![0.0, 1.5, -2.25e-9, std::f64::consts::PI],
            q_exp: Some(vec![0.5; 4]),
            alpha: 0.3172,
            rng_state: 0xDEAD_BEEF_0123_4567,
            detector_stress: vec![1.0, 1.125],
            detector_aging: vec![0.25],
            detector_prev_ma: Some((1.0625, 0.25)),
            trec: vec![vec![45.0, 46.5], vec![44.0], vec![], vec![47.25]],
            prev: Some((3, 7)),
            epochs: 19,
            explore_actions: 11,
            intra_events: 1,
            inter_events: 2,
            last_policy: vec![0, 3, 1, 1],
            stable_epochs: 4,
            convergence_epoch: Some(15),
            use_static_until: 21,
            last_decision: Some(EpochDecision {
                stress: 0.7,
                aging: 0.2,
                state: StateId(5),
                action: 7,
                reward: -0.125,
                alpha: 0.3172,
            }),
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let line = snap.to_value().to_json();
        let back = AgentSnapshot::from_value(&Value::parse(&line).expect("parse")).expect("decode");
        assert_eq!(back, snap);
        // And the re-encoding is byte-identical (stable field order).
        assert_eq!(back.to_value().to_json(), line);
    }

    #[test]
    fn optional_fields_may_be_absent() {
        let mut snap = sample();
        snap.q_exp = None;
        snap.detector_prev_ma = None;
        snap.prev = None;
        snap.convergence_epoch = None;
        snap.last_decision = None;
        let line = snap.to_value().to_json();
        let back = AgentSnapshot::from_value(&Value::parse(&line).expect("parse")).expect("decode");
        assert_eq!(back, snap);
    }

    #[test]
    fn missing_required_fields_error() {
        let mut obj = Value::object();
        obj.set("num_threads", Value::UInt(6));
        assert!(AgentSnapshot::from_value(&obj).is_err());
    }

    #[test]
    fn extreme_floats_survive() {
        let mut snap = sample();
        snap.qtable = vec![f64::MIN_POSITIVE, f64::MAX, -0.0, 1e-308, f64::INFINITY];
        let line = snap.to_value().to_json();
        let back = AgentSnapshot::from_value(&Value::parse(&line).expect("parse")).expect("decode");
        for (a, b) in back.qtable.iter().zip(&snap.qtable) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }
}
