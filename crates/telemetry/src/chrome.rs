//! Chrome trace-event / Perfetto-compatible JSON export.
//!
//! Renders trace spans and events into the [Trace Event Format] both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) open
//! directly: spans become `"X"` (complete) events with microsecond
//! `ts`/`dur`, placed on one lane per recording thread; registry events
//! become `"i"` (instant) marks on the same timeline. Trace identity
//! travels in `args` (`trace`/`span`/`parent` as 16-hex strings), so a
//! span's place in its trace is inspectable in the UI.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use thermorl_json::Value;

use crate::events::Event;
use crate::export::hex_id;
use crate::registry::Snapshot;
use crate::trace::SpanRecord;

fn span_entry(s: &SpanRecord) -> Value {
    let mut args = Value::object();
    args.set("trace", hex_id(s.trace_id))
        .set("span", hex_id(s.span_id))
        .set("parent", hex_id(s.parent_id));
    let mut v = Value::object();
    v.set("name", s.name)
        .set("cat", "span")
        .set("ph", "X")
        .set("ts", s.start_us)
        .set("dur", s.dur_us.max(1))
        .set("pid", 1u64)
        .set("tid", s.thread)
        .set("args", args);
    v
}

fn event_entry(e: &Event) -> Value {
    let mut args = Value::object();
    args.set("detail", e.detail.as_str());
    let mut v = Value::object();
    v.set("name", e.name)
        .set("cat", "event")
        .set("ph", "i")
        .set("ts", e.ts_us)
        .set("pid", 1u64)
        .set("tid", 0u64)
        .set("s", "p")
        .set("args", args);
    v
}

/// Renders spans and events as one Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`, the object form both viewers accept).
/// Entries come out in global sequence order.
pub fn chrome_trace_json(spans: &[SpanRecord], events: &[Event]) -> String {
    // Interleave by the shared sequence counter so the document reads in
    // causal order even before the viewer sorts by ts.
    let mut entries: Vec<(u64, Value)> = Vec::with_capacity(spans.len() + events.len());
    entries.extend(spans.iter().map(|s| (s.seq, span_entry(s))));
    entries.extend(events.iter().map(|e| (e.seq, event_entry(e))));
    entries.sort_by_key(|(seq, _)| *seq);
    let mut doc = Value::object();
    doc.set(
        "traceEvents",
        Value::Arr(entries.into_iter().map(|(_, entry)| entry).collect()),
    )
    .set("displayTimeUnit", "ms");
    doc.to_json()
}

impl Snapshot {
    /// The snapshot's trace spans and events as a Chrome trace-event
    /// JSON document — write it to a file and open it in Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace_json(&self.trace_spans, &self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            seq,
            trace_id: 0xAB,
            span_id: seq + 1,
            parent_id: if seq == 0 { 0 } else { 1 },
            name: "chrome.test",
            start_us: start,
            dur_us: dur,
            thread: 3,
        }
    }

    #[test]
    fn spans_render_as_complete_events() {
        let json = chrome_trace_json(&[span(0, 10, 50)], &[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":50"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"trace\":\"00000000000000ab\""));
        assert!(json.contains("\"parent\":\"0000000000000000\""));
    }

    #[test]
    fn events_render_as_instants_and_order_follows_seq() {
        let e = Event {
            seq: 1,
            ts_us: 25,
            name: "detect",
            detail: "inter".into(),
        };
        let json = chrome_trace_json(&[span(0, 10, 50), span(2, 40, 5)], &[e]);
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":25"));
        let instant = json.find("\"ph\":\"i\"").expect("instant entry");
        let first_x = json.find("\"ph\":\"X\"").expect("first span");
        let last_x = json.rfind("\"ph\":\"X\"").expect("second span");
        assert!(first_x < instant && instant < last_x, "seq interleave");
    }

    #[test]
    fn zero_duration_spans_stay_visible() {
        // dur 0 renders as 1 µs so the slice is clickable in the UI.
        let json = chrome_trace_json(&[span(0, 10, 0)], &[]);
        assert!(json.contains("\"dur\":1"));
    }
}
