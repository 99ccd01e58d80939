//! Minimal dependency-free JSON for run-outcome checkpoints.
//!
//! The campaign runner (`thermorl-runner`) checkpoints completed
//! [`RunOutcome`]s as JSON lines so interrupted campaigns can resume
//! without re-running finished jobs. The workspace builds offline (no
//! `serde_json`), so this module provides the tiny JSON [`Value`] model,
//! writer and parser that the checkpoint format needs, plus the
//! [`RunOutcome`] codec itself.
//!
//! Numbers are split into [`Value::UInt`] (exact `u64`, required for the
//! splitmix64-derived job seeds which exceed 2^53) and [`Value::Num`]
//! (`f64`). Non-finite floats round-trip as the strings `"inf"`,
//! `"-inf"` and `"nan"`.
//!
//! # Example
//!
//! ```
//! use thermorl_sim::json::Value;
//!
//! let v = Value::parse("{\"a\": [1, 2.5, \"x\"]}").unwrap();
//! let a = v.get("a").unwrap().as_array().unwrap();
//! assert_eq!(a[0].as_u64(), Some(1));
//! assert_eq!(v.to_json(), "{\"a\":[1,2.5,\"x\"]}");
//! ```

use std::fmt;

use thermorl_platform::CounterSnapshot;
use thermorl_reliability::ThermalProfile;
use thermorl_thermal::{DieParams, HeteroMix, Stepper};

use crate::metrics::{AppResult, RunOutcome};

/// A JSON value with deterministic (insertion-ordered) objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (job seeds need all 64 bits).
    UInt(u64),
    /// A double-precision number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved so output is deterministic.
    Obj(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`] or the typed decoders.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Builds an error from a message.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a field to an object value (panics on non-objects).
    pub fn set(&mut self, key: &str, value: Value) -> &mut Self {
        match self {
            Value::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("Value::set on non-object"),
        }
        self
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; `"inf"`/`"nan"` strings map
    /// to their float meanings).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::UInt(u) => Some(*u as f64),
            Value::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A float value; encodes non-finite floats as strings.
    pub fn num(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(v)
        } else if v.is_nan() {
            Value::Str("nan".into())
        } else if v > 0.0 {
            Value::Str("inf".into())
        } else {
            Value::Str("-inf".into())
        }
    }

    /// Renders compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(u) => out.push_str(&u.to_string()),
            Value::Num(n) => {
                if n.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float form and is
                    // valid JSON for finite values.
                    out.push_str(&format!("{n:?}"));
                } else {
                    // Non-finite floats should have been routed through
                    // Value::num; degrade to null rather than emit bad JSON.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed). Arrays and
    /// objects nested more than 128 deep are an error, so no input can
    /// exhaust the parsing thread's stack.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, and every document this workspace writes
/// nests fewer than ten levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes; `pos` indexes both and always sits on a char
    /// boundary between tokens.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b" \t\r\n".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return err(format!("expected ',' or ']' , found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next quote or backslash in
            // one piece. Both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| JsonError("unterminated string".into()))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // the backslash
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let c = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| JsonError(format!("bad \\u escape at byte {}", self.pos)))?;
                    out.push(c);
                    self.pos += 4;
                }
                other => return err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| JsonError(format!("bad number {text:?}: {e}")))
    }
}

// ---------------------------------------------------------------------
// Typed codecs.
// ---------------------------------------------------------------------

fn get_f64(v: &Value, key: &str) -> Result<f64, JsonError> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| JsonError(format!("missing/invalid float field {key:?}")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, JsonError> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| JsonError(format!("missing/invalid integer field {key:?}")))
}

fn get_str(v: &Value, key: &str) -> Result<String, JsonError> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| JsonError(format!("missing/invalid string field {key:?}")))
}

fn profile_to_json(p: &ThermalProfile) -> Value {
    let mut v = Value::object();
    v.set("dt", Value::num(p.dt()));
    v.set(
        "samples",
        Value::Arr(p.samples().iter().map(|&s| Value::num(s)).collect()),
    );
    v
}

fn profile_from_json(v: &Value) -> Result<ThermalProfile, JsonError> {
    let dt = get_f64(v, "dt")?;
    let samples = v
        .get("samples")
        .and_then(Value::as_array)
        .ok_or_else(|| JsonError("missing profile samples".into()))?
        .iter()
        .map(|s| s.as_f64().ok_or_else(|| JsonError("bad sample".into())))
        .collect::<Result<Vec<f64>, _>>()?;
    if dt <= 0.0 {
        return err("profile dt must be positive");
    }
    Ok(ThermalProfile::from_samples(dt, samples))
}

fn app_result_to_json(a: &AppResult) -> Value {
    let mut v = Value::object();
    v.set("name", Value::Str(a.name.clone()));
    v.set("dataset", Value::Str(a.dataset.clone()));
    v.set("start_time", Value::num(a.start_time));
    v.set(
        "finish_time",
        match a.finish_time {
            Some(t) => Value::num(t),
            None => Value::Null,
        },
    );
    v.set("frames_completed", Value::UInt(a.frames_completed as u64));
    v.set("total_frames", Value::UInt(a.total_frames as u64));
    v
}

fn app_result_from_json(v: &Value) -> Result<AppResult, JsonError> {
    Ok(AppResult {
        name: get_str(v, "name")?,
        dataset: get_str(v, "dataset")?,
        start_time: get_f64(v, "start_time")?,
        finish_time: match v.get("finish_time") {
            Some(Value::Null) | None => None,
            Some(t) => Some(
                t.as_f64()
                    .ok_or_else(|| JsonError("bad finish_time".into()))?,
            ),
        },
        frames_completed: get_u64(v, "frames_completed")? as usize,
        total_frames: get_u64(v, "total_frames")? as usize,
    })
}

fn counters_to_json(c: &CounterSnapshot) -> Value {
    let mut v = Value::object();
    v.set("instructions", Value::num(c.instructions));
    v.set("cache_misses", Value::num(c.cache_misses));
    v.set("page_faults", Value::num(c.page_faults));
    v.set("migrations", Value::UInt(c.migrations));
    v
}

fn counters_from_json(v: &Value) -> Result<CounterSnapshot, JsonError> {
    Ok(CounterSnapshot {
        instructions: get_f64(v, "instructions")?,
        cache_misses: get_f64(v, "cache_misses")?,
        page_faults: get_f64(v, "page_faults")?,
        migrations: get_u64(v, "migrations")?,
    })
}

impl RunOutcome {
    /// Encodes the outcome as a JSON [`Value`] (used by campaign
    /// checkpoints; see `thermorl-runner`).
    pub fn to_json(&self) -> Value {
        let mut v = Value::object();
        v.set("scenario_name", Value::Str(self.scenario_name.clone()));
        v.set("controller_name", Value::Str(self.controller_name.clone()));
        v.set(
            "sensor_profiles",
            Value::Arr(self.sensor_profiles.iter().map(profile_to_json).collect()),
        );
        v.set(
            "app_results",
            Value::Arr(self.app_results.iter().map(app_result_to_json).collect()),
        );
        v.set("total_time", Value::num(self.total_time));
        v.set("completed", Value::Bool(self.completed));
        v.set("dynamic_energy_j", Value::num(self.dynamic_energy_j));
        v.set("static_energy_j", Value::num(self.static_energy_j));
        v.set("avg_dynamic_power_w", Value::num(self.avg_dynamic_power_w));
        v.set("avg_static_power_w", Value::num(self.avg_static_power_w));
        v.set("counters", counters_to_json(&self.counters));
        v.set("migrations", Value::UInt(self.migrations));
        v.set("samples", Value::UInt(self.samples));
        v.set("decisions", Value::UInt(self.decisions));
        v
    }

    /// Decodes an outcome previously produced by [`RunOutcome::to_json`].
    pub fn from_json(v: &Value) -> Result<RunOutcome, JsonError> {
        let profiles = v
            .get("sensor_profiles")
            .and_then(Value::as_array)
            .ok_or_else(|| JsonError("missing sensor_profiles".into()))?
            .iter()
            .map(profile_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let apps = v
            .get("app_results")
            .and_then(Value::as_array)
            .ok_or_else(|| JsonError("missing app_results".into()))?
            .iter()
            .map(app_result_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunOutcome {
            scenario_name: get_str(v, "scenario_name")?,
            controller_name: get_str(v, "controller_name")?,
            sensor_profiles: profiles,
            app_results: apps,
            total_time: get_f64(v, "total_time")?,
            completed: v
                .get("completed")
                .and_then(Value::as_bool)
                .ok_or_else(|| JsonError("missing completed".into()))?,
            dynamic_energy_j: get_f64(v, "dynamic_energy_j")?,
            static_energy_j: get_f64(v, "static_energy_j")?,
            avg_dynamic_power_w: get_f64(v, "avg_dynamic_power_w")?,
            avg_static_power_w: get_f64(v, "avg_static_power_w")?,
            counters: counters_from_json(
                v.get("counters")
                    .ok_or_else(|| JsonError("missing counters".into()))?,
            )?,
            migrations: get_u64(v, "migrations")?,
            samples: get_u64(v, "samples")?,
            decisions: get_u64(v, "decisions")?,
        })
    }
}

fn hetero_to_json(h: &HeteroMix) -> Value {
    let mut v = Value::object();
    v.set("big_cores", Value::UInt(h.big_cores as u64));
    v.set("big_capacitance_scale", Value::num(h.big_capacitance_scale));
    v.set("big_conductance_scale", Value::num(h.big_conductance_scale));
    v.set(
        "little_capacitance_scale",
        Value::num(h.little_capacitance_scale),
    );
    v.set(
        "little_conductance_scale",
        Value::num(h.little_conductance_scale),
    );
    v
}

fn hetero_from_json(v: &Value) -> Result<HeteroMix, JsonError> {
    Ok(HeteroMix {
        big_cores: get_u64(v, "big_cores")? as usize,
        big_capacitance_scale: get_f64(v, "big_capacitance_scale")?,
        big_conductance_scale: get_f64(v, "big_conductance_scale")?,
        little_capacitance_scale: get_f64(v, "little_capacitance_scale")?,
        little_conductance_scale: get_f64(v, "little_conductance_scale")?,
    })
}

/// Encodes [`DieParams`] as a JSON [`Value`] — the thermal-package half of
/// an experiment config. The stepper is stored under its
/// [`std::fmt::Display`] name (`"exact"`, `"adaptive:REL:ABS"`, `"auto"`);
/// a heterogeneous big.LITTLE mix, when present, is stored as a nested
/// `hetero` object.
pub fn die_params_to_json(p: &DieParams) -> Value {
    let mut v = Value::object();
    v.set("core_capacitance", Value::num(p.core_capacitance));
    v.set("core_to_spreader", Value::num(p.core_to_spreader));
    v.set("lateral_conductance", Value::num(p.lateral_conductance));
    v.set("spreader_capacitance", Value::num(p.spreader_capacitance));
    v.set("spreader_to_sink", Value::num(p.spreader_to_sink));
    v.set("sink_capacitance", Value::num(p.sink_capacitance));
    v.set("sink_to_ambient", Value::num(p.sink_to_ambient));
    v.set("ambient", Value::num(p.ambient));
    v.set("sim_dt", Value::num(p.sim_dt));
    v.set("stepper", Value::Str(p.stepper.to_string()));
    match &p.hetero {
        Some(h) => v.set("hetero", hetero_to_json(h)),
        None => v.set("hetero", Value::Null),
    };
    v
}

/// Decodes [`DieParams`] previously produced by [`die_params_to_json`].
/// A missing `stepper` field falls back to the default ([`Stepper::Exact`])
/// and a missing/`null` `hetero` field to a homogeneous die, so configs
/// written before those features landed keep loading.
pub fn die_params_from_json(v: &Value) -> Result<DieParams, JsonError> {
    let stepper = match v.get("stepper") {
        None | Some(Value::Null) => Stepper::default(),
        Some(s) => s
            .as_str()
            .ok_or_else(|| JsonError("stepper must be a string".into()))?
            .parse::<Stepper>()
            .map_err(JsonError)?,
    };
    let hetero = match v.get("hetero") {
        None | Some(Value::Null) => None,
        Some(h) => Some(hetero_from_json(h)?),
    };
    Ok(DieParams {
        core_capacitance: get_f64(v, "core_capacitance")?,
        core_to_spreader: get_f64(v, "core_to_spreader")?,
        lateral_conductance: get_f64(v, "lateral_conductance")?,
        spreader_capacitance: get_f64(v, "spreader_capacitance")?,
        spreader_to_sink: get_f64(v, "spreader_to_sink")?,
        sink_capacitance: get_f64(v, "sink_capacitance")?,
        sink_to_ambient: get_f64(v, "sink_to_ambient")?,
        ambient: get_f64(v, "ambient")?,
        sim_dt: get_f64(v, "sim_dt")?,
        stepper,
        hetero,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "42", "-3.5", "1e3", "\"hi\""] {
            let v = Value::parse(text).expect(text);
            let again = Value::parse(&v.to_json()).expect("re-parse");
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0xDEAD_BEEF_CAFE_F00Du64; // > 2^53
        let v = Value::parse(&Value::UInt(seed).to_json()).expect("parse");
        assert_eq!(v.as_u64(), Some(seed));
    }

    #[test]
    fn nonfinite_floats_round_trip_as_strings() {
        for x in [f64::INFINITY, f64::NEG_INFINITY] {
            let v = Value::num(x);
            let parsed = Value::parse(&v.to_json()).expect("parse");
            assert_eq!(parsed.as_f64(), Some(x));
        }
        let nan = Value::parse(&Value::num(f64::NAN).to_json()).expect("parse");
        assert!(nan.as_f64().expect("nan decodes").is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        for s in [
            "line\n\"quoted\"\tunicode: \u{1F600} \\ done",
            "é\"ü\\\u{1}ß\n€",
            "\u{1F600}\u{1f}\u{1F600}\\\"\u{7f}",
            "\t\u{0}\u{2028}ÿ\r",
        ] {
            let parsed = Value::parse(&Value::Str(s.into()).to_json()).expect("parse");
            assert_eq!(parsed.as_str(), Some(s));
        }
        // Hand-written `\u00XX` escapes butting against multi-byte chars.
        let text = "\"é\\u00e9é\\u0041\u{1F600}\\u00FF\\\"\u{1F600}\\u000a\"";
        let parsed = Value::parse(text).expect("parse");
        assert_eq!(parsed.as_str(), Some("éééA\u{1F600}ÿ\"\u{1F600}\n"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(Value::parse("{} x").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        for bad in [
            "\"\\u00\"",
            "\"\\u+041\"",
            "\"\\u00é\"",
            "\"\\ud800\"",
            "\"\\x\"",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A spawned thread gets the default 2 MiB stack, which one level of
        // recursion per bracket would overflow, aborting the process.
        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
            let parsed = std::thread::spawn(move || Value::parse(&bomb))
                .join()
                .expect("parser thread must not panic");
            assert!(parsed.is_err());
        }
    }

    #[test]
    fn nesting_exactly_at_the_limit_parses() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH + 1)).is_err());
        // Objects count toward the same limit: `k` wrappers around `{}`.
        let objects = |k: usize| format!("{}{{}}{}", "{\"a\":".repeat(k), "}".repeat(k));
        assert!(Value::parse(&objects(MAX_DEPTH - 1)).is_ok());
        assert!(Value::parse(&objects(MAX_DEPTH)).is_err());
    }

    #[test]
    fn bracket_bombs_are_errors() {
        for unit in [
            "[", "{", "]", "}", "[{", "{\"\":[", "[1,", "{\"a\":{", "\"\\", "[\"",
        ] {
            for n in [1, 2, MAX_DEPTH, MAX_DEPTH + 1, 10_000] {
                let text = unit.repeat(n);
                assert!(Value::parse(&text).is_err(), "{unit:?} x {n}");
            }
        }
    }

    /// The characters JSON's grammar turns on, the letters of its
    /// literals, one multi-byte character, and a few whole tokens so that
    /// random draws reach past the first byte more often.
    const JSONISH: [&str; 30] = [
        "[", "]", "{", "}", "\"", "\\", ":", ",", " ", "u", "0", "1", "7", "9", "e", "E", ".", "-",
        "t", "r", "f", "a", "l", "s", "n", "é", "true", "null", "\"k\":", "\\u00",
    ];

    /// Characters a string value may hold that its encoding must escape
    /// or carry through as multi-byte UTF-8.
    const STRINGISH: [char; 10] = [
        'a',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        'é',
        '€',
        '\u{1F600}',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Arbitrary JSON-like text parses to `Ok` or `Err`, never a
        /// panic, and whatever parses re-encodes to JSON that parses.
        #[test]
        fn parse_never_panics_on_json_like_text(
            picks in proptest::collection::vec(0usize..JSONISH.len(), 0..48),
        ) {
            let text: String = picks.iter().map(|&i| JSONISH[i]).collect();
            if let Ok(v) = Value::parse(&text) {
                proptest::prop_assert!(Value::parse(&v.to_json()).is_ok(), "{:?}", text);
            }
        }

        /// Real documents with random edits spliced in (JSON-ish tokens
        /// inserted, a char deleted, the tail torn off): `Ok` or `Err`,
        /// never a panic.
        #[test]
        fn parse_never_panics_on_edited_documents(
            doc in 0usize..3,
            edits in proptest::collection::vec((0usize..4096, 0usize..JSONISH.len(), 0u8..4), 1..6),
        ) {
            let mut text = [
                outcome().to_json().to_json(),
                die_params_to_json(&DieParams {
                    hetero: Some(HeteroMix::big_little(1)),
                    ..DieParams::default()
                })
                .to_json(),
                "{\"a\":[1,-2.5e3,true,null,{\"b\":\"é\\u0041\\n\"}],\"c\":{}}".to_string(),
            ][doc]
                .clone();
            for (at, token, op) in edits {
                let mut at = at % (text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                match op {
                    0 => text.truncate(at),
                    1 if at < text.len() => {
                        text.remove(at);
                    }
                    _ => text.insert_str(at, JSONISH[token]),
                }
            }
            let _ = Value::parse(&text);
        }

        /// Any string survives encode → parse unchanged, however its
        /// escapes and multi-byte characters are interleaved.
        #[test]
        fn any_string_round_trips(
            picks in proptest::collection::vec(0usize..STRINGISH.len(), 0..32),
        ) {
            let s: String = picks.iter().map(|&i| STRINGISH[i]).collect();
            let parsed = Value::parse(&Value::Str(s.clone()).to_json());
            proptest::prop_assert_eq!(parsed, Ok(Value::Str(s)));
        }
    }

    fn outcome() -> RunOutcome {
        RunOutcome {
            scenario_name: "scenario/with \"quotes\"".into(),
            controller_name: "ctrl".into(),
            sensor_profiles: vec![
                ThermalProfile::from_samples(1.0, vec![40.0, 42.25, 44.125]),
                ThermalProfile::from_samples(1.0, vec![30.0; 3]),
            ],
            app_results: vec![
                AppResult {
                    name: "a".into(),
                    dataset: "d1".into(),
                    start_time: 0.0,
                    finish_time: Some(10.5),
                    frames_completed: 20,
                    total_frames: 20,
                },
                AppResult {
                    name: "b".into(),
                    dataset: "d2".into(),
                    start_time: 10.5,
                    finish_time: None,
                    frames_completed: 3,
                    total_frames: 9,
                },
            ],
            total_time: 99.125,
            completed: false,
            dynamic_energy_j: 1234.5,
            static_energy_j: 67.875,
            avg_dynamic_power_w: 12.5,
            avg_static_power_w: 0.7,
            counters: CounterSnapshot {
                instructions: 1e12,
                cache_misses: 5e7,
                page_faults: 1e4,
                migrations: 17,
            },
            migrations: 17,
            samples: 101,
            decisions: 33,
        }
    }

    #[test]
    fn run_outcome_round_trips_exactly() {
        let o = outcome();
        let line = o.to_json().to_json();
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        let back = RunOutcome::from_json(&Value::parse(&line).expect("parse")).expect("decode");
        assert_eq!(o, back);
    }

    #[test]
    fn run_outcome_decode_rejects_missing_fields() {
        let mut v = outcome().to_json();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "total_time");
        }
        assert!(RunOutcome::from_json(&v).is_err());
    }

    #[test]
    fn die_params_round_trip_all_steppers() {
        for stepper in [
            Stepper::Exact,
            Stepper::adaptive(),
            Stepper::Adaptive {
                rel_tol: 3.5e-7,
                abs_tol: 1e-10,
            },
            Stepper::Auto,
        ] {
            let p = DieParams {
                stepper,
                sim_dt: 0.02,
                ambient: 27.5,
                ..DieParams::default()
            };
            let line = die_params_to_json(&p).to_json();
            let back = die_params_from_json(&Value::parse(&line).expect("parse")).expect("decode");
            assert_eq!(p, back);
        }
    }

    #[test]
    fn die_params_round_trip_hetero_mix() {
        let p = DieParams {
            hetero: Some(HeteroMix::big_little(2)),
            stepper: Stepper::Auto,
            ..DieParams::default()
        };
        let line = die_params_to_json(&p).to_json();
        let back = die_params_from_json(&Value::parse(&line).expect("parse")).expect("decode");
        assert_eq!(p, back);
        // Missing hetero (legacy config) decodes as homogeneous.
        let mut v = die_params_to_json(&DieParams::default());
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "hetero");
        }
        assert_eq!(die_params_from_json(&v).expect("decode").hetero, None);
    }

    #[test]
    fn die_params_missing_stepper_defaults_to_exact() {
        let mut v = die_params_to_json(&DieParams::default());
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "stepper");
        }
        let back = die_params_from_json(&v).expect("decode");
        assert_eq!(back.stepper, Stepper::Exact);
    }

    #[test]
    fn die_params_rejects_unknown_stepper() {
        // Fixed-step integrator names are not steppers either.
        for name in ["leapfrog", "rk4", "forward-euler"] {
            let mut v = die_params_to_json(&DieParams::default());
            if let Value::Obj(fields) = &mut v {
                fields.retain(|(k, _)| k != "stepper");
            }
            v.set("stepper", Value::Str(name.into()));
            assert!(die_params_from_json(&v).is_err(), "{name}");
        }
    }
}
