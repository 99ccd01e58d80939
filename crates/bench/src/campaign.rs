//! Campaign plumbing shared by every experiment.
//!
//! Each experiment contributes keyed jobs producing a [`CellOutcome`] to a
//! [`Campaign`] and renders its tables from the finished
//! [`CampaignReport`]. `run_all` pushes every experiment into **one**
//! campaign (keys are prefixed per experiment, e.g.
//! `table2/tachyon-1/proposed/0`), so the whole evaluation shares one
//! worker pool, one checkpoint file, and one `--resume` boundary; the
//! per-figure binaries build single-experiment campaigns through the same
//! API.

use thermorl_json::{JsonError, Value};
use thermorl_runner::{Campaign, CampaignReport, Codec, RunnerConfig};
use thermorl_sim::RunOutcome;

use crate::experiments::AgentTelemetry;
use crate::SEED;

/// The payload of every bench job: the simulation outcome plus the
/// optional extras individual experiments need (agent telemetry for the
/// learning figures, the thermal trace for the profile figures).
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The simulation outcome.
    pub outcome: RunOutcome,
    /// Controller telemetry, for instrumented proposed-policy runs.
    pub telemetry: Option<AgentTelemetry>,
    /// The recorded thermal trace as CSV, when the experiment plots it.
    pub trace_csv: Option<String>,
}

impl CellOutcome {
    /// A plain outcome with no extras.
    pub fn plain(outcome: RunOutcome) -> Self {
        CellOutcome {
            outcome,
            telemetry: None,
            trace_csv: None,
        }
    }

    /// The telemetry of an instrumented run.
    ///
    /// # Panics
    ///
    /// Panics if the job did not record telemetry — the experiment
    /// definition guarantees which cells are instrumented.
    pub fn telemetry(&self) -> AgentTelemetry {
        self.telemetry.expect("cell was run instrumented")
    }

    /// The trace CSV of a trace-recording run.
    ///
    /// # Panics
    ///
    /// Panics if the job did not record a trace.
    pub fn trace_csv(&self) -> &str {
        self.trace_csv.as_deref().expect("cell recorded a trace")
    }
}

fn telemetry_to_json(t: &AgentTelemetry) -> Value {
    let mut obj = Value::object();
    obj.set("epochs", t.epochs)
        .set(
            "convergence_epoch",
            t.convergence_epoch.map_or(Value::Null, Value::UInt),
        )
        .set("intra_events", t.intra_events)
        .set("inter_events", t.inter_events);
    obj
}

fn telemetry_from_json(v: &Value) -> Result<AgentTelemetry, JsonError> {
    Ok(AgentTelemetry {
        epochs: v.field("epochs")?,
        convergence_epoch: v.opt_field("convergence_epoch")?,
        intra_events: v.field("intra_events")?,
        inter_events: v.field("inter_events")?,
    })
}

fn cell_encode(cell: &CellOutcome) -> Value {
    let mut obj = Value::object();
    obj.set("outcome", cell.outcome.to_json())
        .set(
            "telemetry",
            cell.telemetry
                .as_ref()
                .map_or(Value::Null, telemetry_to_json),
        )
        .set(
            "trace_csv",
            cell.trace_csv.as_deref().map_or(Value::Null, Value::from),
        );
    obj
}

fn cell_decode(v: &Value) -> Result<CellOutcome, JsonError> {
    Ok(CellOutcome {
        outcome: RunOutcome::from_json(v.field("outcome")?)?,
        telemetry: v
            .opt_field::<&Value>("telemetry")?
            .map(telemetry_from_json)
            .transpose()?,
        trace_csv: v.opt_field("trace_csv")?,
    })
}

/// The checkpoint codec for bench cells.
pub fn cell_codec() -> Codec<CellOutcome> {
    Codec {
        encode: cell_encode,
        decode: cell_decode,
    }
}

/// An empty bench campaign with the master seed and the cell codec.
pub fn new_campaign(name: &str) -> Campaign<CellOutcome> {
    Campaign::new(name, SEED).with_codec(cell_codec())
}

/// Builds, runs and reports a single-experiment campaign (the per-figure
/// binaries' entry point). Runs on the default worker count, quietly.
pub fn run_experiment(
    name: &str,
    jobs: impl FnOnce(&mut Campaign<CellOutcome>),
) -> CampaignReport<CellOutcome> {
    let mut campaign = new_campaign(name);
    jobs(&mut campaign);
    let config = RunnerConfig {
        progress: false,
        ..RunnerConfig::default()
    };
    let report = campaign.run(&config);
    assert_no_failures(&report);
    report
}

/// The `merge-checkpoints OUT IN...` subcommand shared by the campaign
/// binaries: folds the per-shard JSONL checkpoints into `OUT`, last-wins
/// per key (later inputs override earlier ones). Returns the number of
/// distinct keys written, or a usage/IO error message.
///
/// # Errors
///
/// Fails on missing arguments, unreadable inputs, or an unwritable output.
pub fn merge_checkpoints_command(args: &[String]) -> Result<usize, String> {
    if args.len() < 2 {
        return Err("merge-checkpoints needs OUT and at least one IN path".into());
    }
    let out = std::path::PathBuf::from(&args[0]);
    let inputs: Vec<std::path::PathBuf> = args[1..].iter().map(std::path::PathBuf::from).collect();
    thermorl_runner::merge_checkpoints(&inputs, &out).map_err(|e| e.to_string())
}

/// Panics with a readable summary if any job failed (the renderers need
/// every cell; a partial table would be silently wrong).
pub fn assert_no_failures(report: &CampaignReport<CellOutcome>) {
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "campaign {:?}: {} job(s) failed: {:?}",
        report.name,
        failures.len(),
        failures
    );
}

/// Readable failure summary for a partial campaign, or `Ok` if every job
/// completed. The campaign binaries print this and exit nonzero so CI
/// and the dispatcher can detect partial runs instead of trusting a
/// zero exit from a campaign that quietly lost cells.
pub fn check_failures<T>(report: &CampaignReport<T>) -> Result<(), String> {
    let failures = report.failures();
    if failures.is_empty() {
        return Ok(());
    }
    let mut message = format!(
        "campaign {:?}: {} of {} job(s) failed:",
        report.name,
        failures.len(),
        report.records.len()
    );
    for (key, reason) in &failures {
        message.push_str(&format!("\n  {key}: {reason}"));
    }
    Err(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermorl_sim::{run_scenario, NullController, SimConfig};
    use thermorl_workload::{alpbench, DataSet, Scenario};

    #[test]
    fn cell_round_trips_through_codec() {
        let app = alpbench::mpeg_dec(DataSet::One);
        let sim = SimConfig {
            max_sim_time: 30.0,
            ..SimConfig::default()
        };
        let outcome = run_scenario(
            &Scenario::single(app),
            Box::new(NullController::default()),
            &sim,
            7,
        );
        let cell = CellOutcome {
            outcome,
            telemetry: Some(AgentTelemetry {
                epochs: 10,
                convergence_epoch: None,
                intra_events: 3,
                inter_events: 1,
            }),
            trace_csv: Some("time,temp0\n0.0,45.0\n".into()),
        };
        let codec = cell_codec();
        let encoded = (codec.encode)(&cell);
        let decoded =
            (codec.decode)(&Value::parse(&encoded.to_json()).expect("parse")).expect("decode");
        assert_eq!(decoded.outcome, cell.outcome);
        assert_eq!(
            decoded.telemetry.expect("telemetry").epochs,
            cell.telemetry.expect("telemetry").epochs
        );
        assert_eq!(decoded.trace_csv, cell.trace_csv);
    }

    #[test]
    fn plain_cell_has_null_extras() {
        let app = alpbench::tachyon(DataSet::One);
        let sim = SimConfig {
            max_sim_time: 10.0,
            ..SimConfig::default()
        };
        let outcome = run_scenario(
            &Scenario::single(app),
            Box::new(NullController::default()),
            &sim,
            7,
        );
        let cell = CellOutcome::plain(outcome);
        let encoded = cell_encode(&cell);
        let decoded = cell_decode(&encoded).expect("decode");
        assert!(decoded.telemetry.is_none());
        assert!(decoded.trace_csv.is_none());
    }
}
