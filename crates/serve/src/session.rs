//! One managed die: a zoo policy plus its private thermal state.
//!
//! A [`Session`] bundles everything the supervisor owns per die: the
//! policy (the DAC'14 agent by default, or any other
//! [`thermorl_policy::PolicyId`] the attach names), an optional RC die
//! model + noisy sensor bank (in
//! [`SessionMode::Power`] the client streams per-core watts and the
//! session simulates the die; in [`SessionMode::Temps`] the client
//! streams temperatures directly), and the per-die observe sequence
//! high-water mark.
//!
//! # Exactly-once effect over an at-least-once stream
//!
//! Observes carry a strictly increasing per-die `seq`. A sample at or
//! below the high-water mark is acknowledged as a duplicate without
//! being re-applied; a gap is an error; `seq == high + 1` advances the
//! session. Snapshots capture *all* mutable state bit-exactly (agent
//! Q-tables and RNG, detector windows, thermal node temperatures, sensor
//! RNG streams) together with the covered `seq`, so a session restored
//! from a snapshot and replayed from `acked_seq + 1` emits byte-identical
//! decisions to one that never went down — the recovery contract the
//! loopback test enforces.

use thermorl_control::ControlConfig;
use thermorl_json::Value;
use thermorl_platform::CounterSnapshot;
use thermorl_policy::{Policy, PolicyId};
use thermorl_sim::Observation;
use thermorl_telemetry as tel;
use thermorl_thermal::{DieModel, DieParams, Floorplan, SensorBank, SensorParams};

use crate::proto::Decision;

/// The `"status"` tag of a snapshot line in the supervisor's store. The
/// supervisor appends every snapshot, and a restart keeps the last line
/// with this status per die.
pub const SNAPSHOT_STATUS: &str = "snapshot";

/// Most cores one session manages: the platform's affinity masks are 64
/// bits wide.
pub(crate) const MAX_CORES: usize = 64;

/// fps reported in every observation (serving has no frame pipeline).
pub const SERVE_FPS: f64 = 1.0;
/// Performance constraint `P_c` reported in every observation.
pub const SERVE_PERF_CONSTRAINT: f64 = 0.8;
/// Per-core frequency (GHz) reported in every observation.
pub const SERVE_FREQ_GHZ: f64 = 3.4;

/// What the per-core `values` payload of an observe means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// `values` are per-core watts; the session advances its own RC die
    /// model and reads noisy sensors.
    Power,
    /// `values` are per-core °C, used as sensor readings directly.
    Temps,
}

impl SessionMode {
    /// The wire name (`"power"` / `"temps"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SessionMode::Power => "power",
            SessionMode::Temps => "temps",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Fails on anything but `"power"` or `"temps"`.
    pub fn parse(s: &str) -> Result<SessionMode, String> {
        match s {
            "power" => Ok(SessionMode::Power),
            "temps" => Ok(SessionMode::Temps),
            other => Err(format!("unknown session mode {other:?}")),
        }
    }
}

/// The result of applying one observe sample.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// The sample was a retransmit and was not re-applied.
    pub duplicate: bool,
    /// Present when the sample closed a decision epoch.
    pub decision: Option<Decision>,
}

/// One managed die's live state.
pub struct Session {
    die: String,
    mode: SessionMode,
    seed: u64,
    cores: usize,
    epoch_samples: usize,
    sampling_interval: f64,
    policy_id: PolicyId,
    policy: Box<dyn Policy>,
    model: Option<DieModel>,
    sensors: Option<SensorBank>,
    seq: u64,
}

impl Session {
    /// Creates a fresh session. `seed` drives the policy's exploration and
    /// (in power mode) the sensor noise; the same seed always reproduces
    /// the same decision stream for the same observe stream.
    pub fn new(
        die: impl Into<String>,
        cores: usize,
        threads: usize,
        mode: SessionMode,
        policy_id: PolicyId,
        seed: u64,
        cfg: ControlConfig,
    ) -> Session {
        let die = die.into();
        let epoch_samples = cfg.epoch_samples;
        let sampling_interval = cfg.sampling_interval;
        let mut policy = policy_id.build(cfg, seed);
        policy.set_name(format!("serve:{die}"));
        policy.on_start(threads, cores);
        let (model, sensors) = match mode {
            SessionMode::Power => (
                Some(DieModel::new(
                    Floorplan::grid(cores, 1),
                    DieParams::default(),
                )),
                Some(SensorBank::new(
                    cores,
                    SensorParams::default(),
                    seed.wrapping_add(0x5EED_5EED),
                )),
            ),
            SessionMode::Temps => (None, None),
        };
        Session {
            die,
            mode,
            seed,
            cores,
            epoch_samples,
            sampling_interval,
            policy_id,
            policy,
            model,
            sensors,
            seq: 0,
        }
    }

    /// The die identifier.
    pub fn die(&self) -> &str {
        &self.die
    }

    /// The observation mode.
    pub fn mode(&self) -> SessionMode {
        self.mode
    }

    /// Highest applied observe sequence number (0 when fresh).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Decision epochs completed so far.
    pub fn epochs(&self) -> u64 {
        self.policy.epochs()
    }

    /// The policy this session runs.
    pub fn policy_id(&self) -> PolicyId {
        self.policy_id
    }

    /// Number of cores the session manages.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Applies one observe sample: validates the sequence number and
    /// payload; in power mode applies the per-core watts, advances the die
    /// one sampling interval (inside a `thermal.step` trace span, a child
    /// of the caller's live span) and reads it through the sensor bank;
    /// then drives the policy one sample and records `seq` as applied.
    ///
    /// # Errors
    ///
    /// Fails on a sequence gap, a payload whose length does not match the
    /// core count, or a non-finite payload value; the session is left
    /// unchanged.
    pub fn step(&mut self, seq: u64, values: &[f64]) -> Result<StepOutcome, String> {
        if seq <= self.seq {
            return Ok(StepOutcome {
                duplicate: true,
                decision: None,
            });
        }
        if seq != self.seq + 1 {
            return Err(format!(
                "sequence gap on die {:?}: got {seq}, expected {}",
                self.die,
                self.seq + 1
            ));
        }
        let cores = self.cores;
        if values.len() != cores {
            return Err(format!(
                "payload length {} does not match {cores} cores on die {:?}",
                values.len(),
                self.die
            ));
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(format!(
                "non-finite value {bad} in observe {seq} for die {:?}",
                self.die
            ));
        }
        let temps = match self.mode {
            SessionMode::Power => {
                let model = self.model.as_mut().expect("power mode has a model");
                for (core, watts) in values.iter().enumerate() {
                    model.set_core_power(core, *watts);
                }
                let step = tel::TraceSpan::child("thermal.step");
                model.advance(self.sampling_interval);
                drop(step);
                let sensors = self.sensors.as_mut().expect("power mode has sensors");
                sensors.read_all(&model.core_temperatures())
            }
            SessionMode::Temps => values.to_vec(),
        };
        let freqs = vec![SERVE_FREQ_GHZ; self.cores];
        let obs = Observation {
            time: seq as f64 * self.sampling_interval,
            sensor_temps: &temps,
            fps: SERVE_FPS,
            perf_constraint: SERVE_PERF_CONSTRAINT,
            app_name: "serve",
            app_index: 0,
            app_switched: false,
            counters: CounterSnapshot::default(),
            core_freq_ghz: &freqs,
        };
        let actuation = self.policy.observe(&obs);
        self.seq = seq;
        let decision = actuation.map(|act| {
            let d = self
                .policy
                .last_decision()
                .expect("an actuation implies a recorded epoch decision");
            Decision {
                epoch: self.policy.epochs(),
                action: d.action as u64,
                assignment: act.assignment.map(|a| a.name).unwrap_or_default(),
                governor: act.governor.map(|g| g.to_string()).unwrap_or_default(),
                stress: d.stress,
                aging: d.aging,
                reward: d.reward,
                alpha: d.alpha,
            }
        });
        Ok(StepOutcome {
            duplicate: false,
            decision,
        })
    }

    /// Whether the last applied sample closed a decision epoch (i.e. the
    /// session sits on an epoch boundary — the cheapest moment to
    /// snapshot, since the agent's intra-epoch buffers were just drained).
    pub fn at_epoch_boundary(&self) -> bool {
        self.epoch_samples > 0 && self.seq > 0 && self.seq.is_multiple_of(self.epoch_samples as u64)
    }

    /// Encodes the full mutable state as a JSON object. The `policy`
    /// and `cores` fields round-trip the zoo member through recovery;
    /// snapshots written before the policy zoo carry neither and restore
    /// as the paper agent.
    pub fn snapshot_value(&self) -> Value {
        let agent = self
            .policy
            .snapshot()
            .expect("sessions always run on_start in new()");
        let mut v = Value::object();
        v.set("die", self.die.as_str())
            .set("mode", self.mode.as_str())
            .set("policy", self.policy_id.as_str())
            .set("seed", self.seed)
            .set("seq", self.seq)
            .set("cores", self.cores)
            .set("epoch_samples", self.epoch_samples)
            .set("sampling_interval", self.sampling_interval)
            .set("agent", agent);
        if let Some(model) = &self.model {
            let (temps, powers, ambient) = model.thermal_state();
            let mut thermal = Value::object();
            thermal
                .set("temps", temps.as_slice())
                .set("powers", powers.as_slice())
                .set("ambient", ambient);
            v.set("thermal", thermal);
        }
        if let Some(sensors) = &self.sensors {
            v.set("sensor_rngs", sensors.rng_states().as_slice());
        }
        v
    }

    /// The complete checkpoint-store line for this session: keyed by die,
    /// tagged [`SNAPSHOT_STATUS`] so the store always appends it.
    pub fn snapshot_line(&self) -> String {
        let mut line = Value::object();
        line.set("key", self.die.as_str())
            .set("status", SNAPSHOT_STATUS)
            .set("session", self.snapshot_value());
        line.to_json()
    }

    /// Rebuilds a session from [`Session::snapshot_value`] output,
    /// bit-exactly: stepping the restored session produces the same
    /// outcomes the original would have.
    ///
    /// # Errors
    ///
    /// Fails on missing or malformed fields.
    pub fn restore(v: &Value) -> Result<Session, String> {
        let mode = SessionMode::parse(v.field("mode")?)?;
        let seed: u64 = v.field("seed")?;
        let epoch_samples: usize = v.field("epoch_samples")?;
        let sampling_interval: f64 = v.field("sampling_interval")?;
        // Pre-zoo snapshots carry no "policy" tag: they are paper agents.
        let policy_id = match v.opt_field("policy")? {
            Some(name) => PolicyId::parse(name)?,
            None => PolicyId::DasDac14,
        };
        let cfg = ControlConfig {
            epoch_samples,
            sampling_interval,
            ..ControlConfig::default()
        };
        let agent: &Value = v.field("agent")?;
        let mut policy = policy_id.build(cfg, seed);
        policy.restore(agent)?;
        // Every policy snapshot records its core count; pre-zoo agent
        // snapshots expose it as "num_cores" inside the agent object.
        let cores: usize = match v.opt_field("cores")? {
            Some(c) => c,
            None => agent.field("num_cores")?,
        };
        let (model, sensors) = match mode {
            SessionMode::Power => {
                let thermal: &Value = v.field("thermal")?;
                let temps: Vec<f64> = thermal.field("temps")?;
                let mut model = DieModel::new(Floorplan::grid(cores, 1), DieParams::default());
                let nodes = model.network().temperatures().len();
                if temps.len() != nodes {
                    return Err(format!("{} thermal nodes, model has {nodes}", temps.len()));
                }
                model.restore_thermal_state(
                    &temps,
                    &thermal.field::<Vec<f64>>("powers")?,
                    thermal.field("ambient")?,
                );
                let mut sensors = SensorBank::new(
                    cores,
                    SensorParams::default(),
                    seed.wrapping_add(0x5EED_5EED),
                );
                sensors.restore_rng_states(&v.field::<Vec<u64>>("sensor_rngs")?);
                (Some(model), Some(sensors))
            }
            SessionMode::Temps => (None, None),
        };
        Ok(Session {
            die: v.field("die")?,
            mode,
            seed,
            cores,
            epoch_samples,
            sampling_interval,
            policy_id,
            policy,
            model,
            sensors,
            seq: v.field("seq")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> ControlConfig {
        ControlConfig {
            epoch_samples: 5,
            sampling_interval: 1.0,
            ..ControlConfig::default()
        }
    }

    fn drive(session: &mut Session, from_seq: u64, n: u64) -> Vec<StepOutcome> {
        (0..n)
            .map(|k| {
                let seq = from_seq + k;
                // A deterministic wiggly power trace exercising different
                // states.
                let w = 6.0 + 4.0 * (((seq * 37) % 11) as f64) / 10.0;
                let values = vec![w, w * 0.5, w * 0.8, w * 0.25];
                session.step(seq, &values).expect("step")
            })
            .collect()
    }

    #[test]
    fn sequence_semantics_duplicate_and_gap() {
        let mut s = Session::new(
            "d0",
            4,
            4,
            SessionMode::Power,
            PolicyId::DasDac14,
            7,
            test_cfg(),
        );
        let values = vec![5.0; 4];
        assert!(!s.step(1, &values).expect("first").duplicate);
        let dup = s.step(1, &values).expect("retransmit");
        assert!(dup.duplicate);
        assert!(dup.decision.is_none());
        assert_eq!(s.seq(), 1);
        assert!(s.step(3, &values).is_err(), "gap must be rejected");
        assert!(s.step(2, &[1.0; 3]).is_err(), "payload length checked");
    }

    #[test]
    fn decisions_arrive_on_epoch_boundaries() {
        let mut s = Session::new(
            "d0",
            4,
            4,
            SessionMode::Power,
            PolicyId::DasDac14,
            7,
            test_cfg(),
        );
        let outcomes = drive(&mut s, 1, 10);
        for (i, o) in outcomes.iter().enumerate() {
            let seq = i as u64 + 1;
            assert_eq!(
                o.decision.is_some(),
                seq.is_multiple_of(5),
                "decision exactly every epoch_samples samples (seq {seq})"
            );
        }
        assert_eq!(s.epochs(), 2);
        assert!(s.at_epoch_boundary());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let cfg = test_cfg();
        let mut donor = Session::new(
            "d0",
            4,
            4,
            SessionMode::Power,
            PolicyId::DasDac14,
            123,
            cfg.clone(),
        );
        drive(&mut donor, 1, 20); // 4 full epochs

        // Snapshot through the JSON wire format, as the store would.
        let line = donor.snapshot_line();
        let parsed = Value::parse(&line).expect("snapshot line parses");
        assert_eq!(
            parsed.get("status").and_then(Value::as_str),
            Some(SNAPSHOT_STATUS)
        );
        let mut twin =
            Session::restore(parsed.get("session").expect("session field")).expect("restore");
        assert_eq!(twin.seq(), donor.seq());
        assert_eq!(twin.epochs(), donor.epochs());

        let donor_out = drive(&mut donor, 21, 30);
        let twin_out = drive(&mut twin, 21, 30);
        assert_eq!(
            donor_out, twin_out,
            "restored session must replay the identical decision stream"
        );
    }

    #[test]
    fn temps_mode_needs_no_thermal_model() {
        let cfg = test_cfg();
        let mut donor = Session::new("t0", 4, 2, SessionMode::Temps, PolicyId::DasDac14, 9, cfg);
        let outcomes: Vec<StepOutcome> = (1..=10)
            .map(|seq| {
                let t = 55.0 + ((seq * 13) % 7) as f64;
                donor
                    .step(seq, &[t, t + 2.0, t - 1.0, t + 0.5])
                    .expect("step")
            })
            .collect();
        assert!(outcomes[4].decision.is_some());
        let snap = donor.snapshot_value();
        assert!(snap.get("thermal").is_none());
        let mut twin = Session::restore(&snap).expect("restore");
        let a = donor.step(11, &[60.0, 61.0, 59.0, 60.5]).expect("donor");
        let b = twin.step(11, &[60.0, 61.0, 59.0, 60.5]).expect("twin");
        assert_eq!(a, b);
    }
}
