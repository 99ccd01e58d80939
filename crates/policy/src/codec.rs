//! Snapshot pieces shared by the zoo policies' codecs.

use thermorl_json::Value;

/// Checks the snapshot's `"id"` field names the expected policy.
pub(crate) fn check_id(v: &Value, expected: &str) -> Result<(), String> {
    let id: &str = v.field("id")?;
    if id != expected {
        return Err(format!("snapshot is for policy {id:?}, not {expected:?}"));
    }
    Ok(())
}

/// Encodes an optional decision record.
pub(crate) fn decision_to_value(d: &crate::DecisionRecord) -> Value {
    let mut obj = Value::object();
    obj.set("action", d.action)
        .set("stress", d.stress)
        .set("aging", d.aging)
        .set("reward", d.reward)
        .set("alpha", d.alpha);
    obj
}

/// Decodes the optional `"last_decision"` record written by
/// [`decision_to_value`].
pub(crate) fn last_decision_field(v: &Value) -> Result<Option<crate::DecisionRecord>, String> {
    let Some(d) = v.opt_field::<&Value>("last_decision")? else {
        return Ok(None);
    };
    Ok(Some(crate::DecisionRecord {
        action: d.field("action")?,
        stress: d.field("stress")?,
        aging: d.field("aging")?,
        reward: d.field("reward")?,
        alpha: d.field("alpha")?,
    }))
}
