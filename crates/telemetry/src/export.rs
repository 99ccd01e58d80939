//! Snapshot exporters: JSON, Prometheus text, and the human span table.
//!
//! The JSON exports are built as `thermorl-json` [`Value`]s, so strings
//! escape and floats format as in every other document the workspace
//! writes (shortest round-trip form; NaN and infinities as `"nan"`,
//! `"inf"`, `"-inf"`). Output is deterministic: `BTreeMap` ordering for
//! maps, global sequence order for events, and only non-empty buckets
//! for histograms.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use thermorl_json::Value;

use crate::events::Event;
use crate::histogram::Histogram;
use crate::registry::{Snapshot, SpanStats};
use crate::trace::SpanRecord;

/// A trace or span id as 16 hex digits: u64 values exceed the 2^53
/// integers JSON consumers can hold losslessly.
pub(crate) fn hex_id(id: u64) -> Value {
    Value::Str(format!("{id:016x}"))
}

/// The non-empty buckets of `h`, each `{<le>: upper bound, "count": n}`.
fn buckets_value(h: &Histogram, le: &str) -> Value {
    Value::Arr(
        h.buckets()
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, &n)| {
                let mut bucket = Value::object();
                bucket.set(le, Histogram::bucket_upper(i)).set("count", n);
                bucket
            })
            .collect(),
    )
}

fn histogram_value(h: &Histogram) -> Value {
    let mut v = Value::object();
    v.set("count", h.count())
        .set("sum", h.sum())
        .set("buckets", buckets_value(h, "le"));
    v
}

fn span_value(s: &SpanStats) -> Value {
    let mut v = Value::object();
    v.set("count", s.count)
        .set("total_ns", s.total_ns)
        .set("mean_ns", s.mean_ns())
        .set("buckets", buckets_value(&s.hist, "le_ns"));
    v
}

fn map_value<T>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> Value) -> Value {
    Value::Obj(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

fn event_value(e: &Event) -> Value {
    let mut v = Value::object();
    v.set("seq", e.seq)
        .set("ts_us", e.ts_us)
        .set("name", e.name)
        .set("detail", e.detail.as_str());
    v
}

fn span_record_value(s: &SpanRecord) -> Value {
    let mut v = Value::object();
    v.set("seq", s.seq)
        .set("trace", hex_id(s.trace_id))
        .set("span", hex_id(s.span_id))
        .set("parent", hex_id(s.parent_id))
        .set("name", s.name)
        .set("start_us", s.start_us)
        .set("dur_us", s.dur_us)
        .set("thread", s.thread);
    v
}

/// One event as a standalone JSONL line (the lines of the `--telemetry`
/// events side file).
pub fn event_jsonl(e: &Event) -> String {
    event_value(e).to_json()
}

impl Snapshot {
    /// Encodes the snapshot as a single JSON object.
    pub fn to_json(&self) -> String {
        let shards = self.shard_occupancy.iter().map(|o| {
            let mut v = Value::object();
            v.set("events", o.events)
                .set("events_capacity", o.events_capacity)
                .set("trace_spans", o.trace_spans)
                .set("trace_capacity", o.trace_capacity);
            v
        });
        let mut v = Value::object();
        v.set("counters", map_value(&self.counters, |&c| c.into()))
            .set("gauges", map_value(&self.gauges, |&g| g.into()))
            .set("histograms", map_value(&self.histograms, histogram_value))
            .set("spans", map_value(&self.spans, span_value))
            .set(
                "events",
                Value::Arr(self.events.iter().map(event_value).collect()),
            )
            .set("events_dropped", self.events_dropped)
            .set(
                "trace_spans",
                Value::Arr(self.trace_spans.iter().map(span_record_value).collect()),
            )
            .set("trace_spans_dropped", self.trace_spans_dropped)
            .set("shards", Value::Arr(shards.collect()));
        v.to_json()
    }

    /// Writes the `--telemetry` files: the snapshot to `path` and its
    /// events, one [`event_jsonl`] line each, to the sibling
    /// `*.events.jsonl`, creating the parent directory if needed.
    ///
    /// # Errors
    ///
    /// Fails when a directory or file cannot be written; the message
    /// names the path.
    pub fn write_files(&self, path: &Path) -> io::Result<()> {
        let write = |path: &Path, text: String| {
            std::fs::write(path, text)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", parent.display())))?;
        }
        write(path, self.to_json() + "\n")?;
        let mut lines = String::new();
        for event in &self.events {
            event_value(event).write(&mut lines);
            lines.push('\n');
        }
        write(&path.with_extension("events.jsonl"), lines)
    }

    /// Encodes the snapshot in Prometheus text exposition format.
    /// Metric names are sanitized (`.` → `_`); span timings export as
    /// `<name>_ns` histograms with cumulative buckets.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, hist) in &self.histograms {
            prom_histogram(&mut out, &prom_name(name), hist);
        }
        for (name, stats) in &self.spans {
            prom_histogram(&mut out, &format!("{}_ns", prom_name(name)), &stats.hist);
        }
        out.push_str(&format!(
            "# TYPE telemetry_events_dropped counter\n\
             telemetry_events_dropped {}\n\
             # TYPE telemetry_trace_spans_dropped counter\n\
             telemetry_trace_spans_dropped {}\n",
            self.events_dropped, self.trace_spans_dropped
        ));
        if !self.shard_occupancy.is_empty() {
            out.push_str("# TYPE telemetry_ring_events gauge\n");
            for (i, o) in self.shard_occupancy.iter().enumerate() {
                out.push_str(&format!(
                    "telemetry_ring_events{{shard=\"{i}\"}} {}\n",
                    o.events
                ));
            }
            out.push_str("# TYPE telemetry_ring_events_capacity gauge\n");
            for (i, o) in self.shard_occupancy.iter().enumerate() {
                out.push_str(&format!(
                    "telemetry_ring_events_capacity{{shard=\"{i}\"}} {}\n",
                    o.events_capacity
                ));
            }
            out.push_str("# TYPE telemetry_ring_trace_spans gauge\n");
            for (i, o) in self.shard_occupancy.iter().enumerate() {
                out.push_str(&format!(
                    "telemetry_ring_trace_spans{{shard=\"{i}\"}} {}\n",
                    o.trace_spans
                ));
            }
            out.push_str("# TYPE telemetry_ring_trace_capacity gauge\n");
            for (i, o) in self.shard_occupancy.iter().enumerate() {
                out.push_str(&format!(
                    "telemetry_ring_trace_capacity{{shard=\"{i}\"}} {}\n",
                    o.trace_capacity
                ));
            }
        }
        out
    }

    /// The `n` span names with the largest total time, descending.
    pub fn top_spans(&self, n: usize) -> Vec<(&str, &SpanStats)> {
        let mut spans: Vec<(&str, &SpanStats)> = self
            .spans
            .iter()
            .map(|(name, stats)| (name.as_str(), stats))
            .collect();
        spans.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        spans.truncate(n);
        spans
    }

    /// A human-readable top-`n` span-timing table (empty string when no
    /// spans were recorded), e.g. for the end-of-campaign summary.
    pub fn render_span_table(&self, n: usize) -> String {
        let top = self.top_spans(n);
        if top.is_empty() {
            return String::new();
        }
        let name_width = top
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = format!(
            "{:<name_width$}  {:>10}  {:>12}  {:>10}\n",
            "span", "count", "total_ms", "mean_us"
        );
        for (name, stats) in top {
            out.push_str(&format!(
                "{:<name_width$}  {:>10}  {:>12.1}  {:>10.1}\n",
                name,
                stats.count,
                stats.total_ns as f64 / 1e6,
                stats.mean_ns() / 1e3
            ));
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

fn prom_histogram(out: &mut String, name: &str, hist: &Histogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, n) in hist.buckets().iter().enumerate() {
        if *n == 0 {
            continue;
        }
        cumulative += n;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            Histogram::bucket_upper(i)
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        hist.count(),
        hist.sum(),
        hist.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("thermal.propagator_builds".into(), 3);
        snap.gauges.insert("agent.alpha".into(), 0.45);
        let mut h = Histogram::new();
        h.record(3);
        h.record(900);
        snap.histograms.insert("runner.job_ms".into(), h);
        let mut s = SpanStats::default();
        s.record(1000);
        s.record(3000);
        snap.spans.insert("engine.decide".into(), s);
        snap.events.push(Event {
            seq: 0,
            ts_us: 42,
            name: "detect",
            detail: "inter".into(),
        });
        snap.trace_spans.push(SpanRecord {
            seq: 1,
            trace_id: 0xAB,
            span_id: 0xCD,
            parent_id: 0,
            name: "serve.request",
            start_us: 5,
            dur_us: 17,
            thread: 2,
        });
        snap.trace_spans_dropped = 4;
        snap.shard_occupancy.push(crate::registry::RingOccupancy {
            events: 1,
            events_capacity: 8192,
            trace_spans: 1,
            trace_capacity: 4096,
        });
        snap
    }

    #[test]
    fn json_export_is_well_formed_and_ordered() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"thermal.propagator_builds\":3"));
        assert!(json.contains("\"agent.alpha\":0.45"));
        assert!(json.contains("\"name\":\"detect\""));
        assert!(json.contains("\"detail\":\"inter\""));
        assert!(json.contains("\"total_ns\":4000"));
        assert!(json.contains("\"events_dropped\":0"));
        assert!(json.contains("\"ts_us\":42"));
        assert!(json.contains("\"trace\":\"00000000000000ab\""));
        assert!(json.contains("\"parent\":\"0000000000000000\""));
        assert!(json.contains("\"trace_spans_dropped\":4"));
        assert!(json.contains(
            "\"shards\":[{\"events\":1,\"events_capacity\":8192,\
             \"trace_spans\":1,\"trace_capacity\":4096}]"
        ));
    }

    #[test]
    fn prometheus_export_sanitizes_and_accumulates() {
        let text = sample_snapshot().to_prometheus();
        assert!(text.contains("# TYPE thermal_propagator_builds counter"));
        assert!(text.contains("thermal_propagator_builds 3"));
        assert!(text.contains("agent_alpha 0.45"));
        assert!(text.contains("engine_decide_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("runner_job_ms_count 2"));
        assert!(text.contains("telemetry_events_dropped 0"));
        assert!(text.contains("telemetry_trace_spans_dropped 4"));
        assert!(text.contains("telemetry_ring_events{shard=\"0\"} 1"));
        assert!(text.contains("telemetry_ring_events_capacity{shard=\"0\"} 8192"));
        assert!(text.contains("telemetry_ring_trace_spans{shard=\"0\"} 1"));
        assert!(text.contains("telemetry_ring_trace_capacity{shard=\"0\"} 4096"));
    }

    #[test]
    fn span_table_ranks_by_total_time() {
        let mut snap = sample_snapshot();
        let mut big = SpanStats::default();
        big.record(1_000_000);
        snap.spans.insert("thermal.step".into(), big);
        let table = snap.render_span_table(5);
        let thermal = table.find("thermal.step").expect("thermal.step row");
        let decide = table.find("engine.decide").expect("engine.decide row");
        assert!(thermal < decide, "larger total must rank first:\n{table}");
        assert!(snap.render_span_table(1).contains("thermal.step"));
        assert!(!snap.render_span_table(1).contains("engine.decide"));
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let event = |detail: &str| Event {
            seq: 0,
            ts_us: 0,
            name: "n",
            detail: detail.into(),
        };
        assert!(event_jsonl(&event("a\"b\\c\nd")).contains("\"detail\":\"a\\\"b\\\\c\\nd\""));
        assert!(event_jsonl(&event("\u{1}")).contains("\"detail\":\"\\u0001\""));
    }

    /// Every export parses back with the workspace codec: a NaN gauge
    /// reads as NaN, and an event detail full of quotes and control
    /// characters survives the snapshot, its JSONL line and the Chrome
    /// trace unchanged.
    #[test]
    fn exports_parse_back_through_the_codec() {
        let detail = "said \"no\"\\\n\t\r\u{1}\u{1f} é \u{1F600}";
        let mut snap = sample_snapshot();
        snap.gauges.insert("agent.nan".into(), f64::NAN);
        snap.gauges.insert("agent.inf".into(), f64::INFINITY);
        snap.events[0].detail = detail.into();

        let doc = Value::parse(&snap.to_json()).expect("snapshot parses");
        let gauges = doc.get("gauges").expect("gauges");
        assert!(gauges.field::<f64>("agent.nan").expect("nan").is_nan());
        assert_eq!(gauges.field::<f64>("agent.inf"), Ok(f64::INFINITY));
        assert_eq!(gauges.field::<f64>("agent.alpha"), Ok(0.45));
        let events = doc.field::<&[Value]>("events").expect("events");
        assert_eq!(events[0].field::<&str>("detail"), Ok(detail));

        let line = Value::parse(&event_jsonl(&snap.events[0])).expect("event line parses");
        assert_eq!(line.field::<&str>("detail"), Ok(detail));
        assert_eq!(line.field::<u64>("ts_us"), Ok(42));

        let chrome = Value::parse(&snap.to_chrome_trace()).expect("chrome trace parses");
        let entries = chrome
            .field::<&[Value]>("traceEvents")
            .expect("traceEvents");
        let instant = entries
            .iter()
            .find(|e| e.field::<&str>("ph") == Ok("i"))
            .expect("instant entry");
        let args = instant.field::<&Value>("args").expect("args");
        assert_eq!(args.field::<&str>("detail"), Ok(detail));
    }
}
