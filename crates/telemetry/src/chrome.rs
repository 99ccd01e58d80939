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

use crate::events::Event;
use crate::export::json_escape;
use crate::registry::Snapshot;
use crate::trace::SpanRecord;

fn span_entry(s: &SpanRecord) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
         \"pid\":1,\"tid\":{},\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\",\
         \"parent\":\"{:016x}\"}}}}",
        json_escape(s.name),
        s.start_us,
        s.dur_us.max(1),
        s.thread,
        s.trace_id,
        s.span_id,
        s.parent_id
    )
}

fn event_entry(e: &Event) -> String {
    format!(
        "{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":0,\
         \"s\":\"p\",\"args\":{{\"detail\":\"{}\"}}}}",
        json_escape(e.name),
        e.ts_us,
        json_escape(&e.detail)
    )
}

/// Renders spans and events as one Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`, the object form both viewers accept).
/// Entries come out in global sequence order.
pub fn chrome_trace_json(spans: &[SpanRecord], events: &[Event]) -> String {
    // Interleave by the shared sequence counter so the document reads in
    // causal order even before the viewer sorts by ts.
    let mut entries: Vec<(u64, String)> = Vec::with_capacity(spans.len() + events.len());
    for s in spans {
        entries.push((s.seq, span_entry(s)));
    }
    for e in events {
        entries.push((e.seq, event_entry(e)));
    }
    entries.sort_by_key(|(seq, _)| *seq);
    let body: Vec<String> = entries.into_iter().map(|(_, line)| line).collect();
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        body.join(",")
    )
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
