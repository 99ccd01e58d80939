//! Snapshot exporters: JSON, Prometheus text, and the human span table.
//!
//! The JSON writer is deliberately dependency-free (this crate sits below
//! `thermorl-sim`, whose `json` module therefore cannot be used here) and
//! emits deterministic output: `BTreeMap` ordering for maps, global
//! sequence order for events, and only non-empty buckets for histograms.

use crate::histogram::Histogram;
use crate::registry::{Snapshot, SpanStats};
use crate::trace::SpanRecord;

/// Escapes a string for embedding in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON value (non-finite values become strings,
/// matching `thermorl_sim::json::Value::num`).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("\"{v}\"")
    }
}

fn histogram_json(h: &Histogram) -> String {
    let buckets: Vec<String> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(i, n)| format!("{{\"le\":{},\"count\":{}}}", Histogram::bucket_upper(i), n))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum(),
        buckets.join(",")
    )
}

fn span_json(s: &SpanStats) -> String {
    let buckets: Vec<String> = s
        .hist
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(i, n)| {
            format!(
                "{{\"le_ns\":{},\"count\":{}}}",
                Histogram::bucket_upper(i),
                n
            )
        })
        .collect();
    format!(
        "{{\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"buckets\":[{}]}}",
        s.count,
        s.total_ns,
        json_num(s.mean_ns()),
        buckets.join(",")
    )
}

impl Snapshot {
    /// Encodes the snapshot as a single JSON object.
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_num(*v)))
            .collect();
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("\"{}\":{}", json_escape(k), histogram_json(h)))
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(k, s)| format!("\"{}\":{}", json_escape(k), span_json(s)))
            .collect();
        let events: Vec<String> = self.events.iter().map(event_json).collect();
        let traces: Vec<String> = self.trace_spans.iter().map(span_record_json).collect();
        let shards: Vec<String> = self
            .shard_occupancy
            .iter()
            .map(|o| {
                format!(
                    "{{\"events\":{},\"events_capacity\":{},\
                     \"trace_spans\":{},\"trace_capacity\":{}}}",
                    o.events, o.events_capacity, o.trace_spans, o.trace_capacity
                )
            })
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\
             \"spans\":{{{}}},\"events\":[{}],\"events_dropped\":{},\
             \"trace_spans\":[{}],\"trace_spans_dropped\":{},\"shards\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(","),
            spans.join(","),
            events.join(","),
            self.events_dropped,
            traces.join(","),
            self.trace_spans_dropped,
            shards.join(",")
        )
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

fn event_json(e: &crate::events::Event) -> String {
    format!(
        "{{\"seq\":{},\"ts_us\":{},\"name\":\"{}\",\"detail\":\"{}\"}}",
        e.seq,
        e.ts_us,
        json_escape(e.name),
        json_escape(&e.detail)
    )
}

// Trace/span ids export as 16-hex strings: u64 values exceed the 2^53
// integers JSON consumers can hold losslessly.
fn span_record_json(s: &SpanRecord) -> String {
    let links: Vec<String> = s
        .links
        .iter()
        .map(|l| format!("\"{:016x}/{:016x}\"", l.trace_id, l.span_id))
        .collect();
    format!(
        "{{\"seq\":{},\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\
         \"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"thread\":{},\"links\":[{}]}}",
        s.seq,
        s.trace_id,
        s.span_id,
        s.parent_id,
        json_escape(s.name),
        s.start_us,
        s.dur_us,
        s.thread,
        links.join(",")
    )
}

/// One event as a standalone JSONL line (used for the `--telemetry`
/// events side-file).
pub fn event_jsonl(e: &crate::events::Event) -> String {
    event_json(e)
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
    use crate::events::Event;

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
            links: Vec::new(),
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
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
