//! Distributed tracing: causal span trees with wire propagation.
//!
//! The registry's [`crate::SpanStats`] answer "how long does
//! `serve.request` take on average?" — this module answers "*which*
//! request was slow, and where did its time go?" A [`TraceSpan`] is an
//! RAII guard like [`crate::SpanGuard`], but each instance carries a
//! [`SpanContext`] — a `(trace_id, span_id)` pair drawn from the same
//! splitmix64 machinery the runner derives job seeds with — and records a
//! [`SpanRecord`] into a bounded per-thread ring on drop. Parentage comes
//! from two places:
//!
//! * **the thread** — [`TraceSpan::child`] nests under the innermost
//!   live span on the calling thread (a thread-local stack, popped by
//!   span id so overlapping, non-LIFO drops stay correct);
//! * **the wire** — [`SpanContext::to_traceparent`] renders a W3C-style
//!   `traceparent` string (`00-<trace>-<span>-01`) that rides as an
//!   optional field on dispatch/serve messages; the receiving side
//!   resumes the trace with [`TraceSpan::with_parent`].
//!
//! Recording is gated separately from metrics: spans time themselves
//! whenever telemetry is [`crate::enabled`] (feeding the aggregate
//! [`crate::SpanStats`], so a `TraceSpan` is a drop-in replacement for
//! `span!`), but a [`SpanRecord`] is only kept when
//! [`crate::set_trace_enabled`]`(true)` was also called. With everything
//! off, constructing a `TraceSpan` is one relaxed atomic load.

use std::collections::VecDeque;
use std::time::Instant;

use crate::registry;

/// The identity a trace carries across threads and processes: which
/// trace this is, and which span within it is the current parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Identifier shared by every span of one logical request.
    pub trace_id: u64,
    /// Identifier of one span within the trace.
    pub span_id: u64,
}

impl SpanContext {
    /// Renders the context as a W3C-style `traceparent` value:
    /// `00-<trace_id as 32 hex>-<span_id as 16 hex>-01`. Our ids are
    /// 64-bit, so the trace id occupies the low half of the 128-bit
    /// field.
    pub fn to_traceparent(self) -> String {
        format!("00-{:032x}-{:016x}-01", self.trace_id, self.span_id)
    }

    /// Parses a `traceparent` value back into a context. Returns `None`
    /// on any malformed input (propagation is best-effort: a bad header
    /// starts a fresh trace rather than failing the request). Trace ids
    /// wider than 64 bits are truncated to their low half.
    pub fn parse_traceparent(s: &str) -> Option<SpanContext> {
        let mut parts = s.split('-');
        let version = parts.next()?;
        let trace = parts.next()?;
        let span = parts.next()?;
        let _flags = parts.next()?;
        if parts.next().is_some() || version.len() != 2 || trace.len() != 32 || span.len() != 16 {
            return None;
        }
        let trace_id = u128::from_str_radix(trace, 16).ok()? as u64;
        let span_id = u64::from_str_radix(span, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(SpanContext { trace_id, span_id })
    }
}

/// One completed span, as recorded into the per-thread trace ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global sequence number (shared with [`crate::Event`]s, so spans
    /// and events interleave in one total order).
    pub seq: u64,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
    /// The parent span's id; 0 marks a trace root.
    pub parent_id: u64,
    /// The static span name (e.g. `"serve.request"`).
    pub name: &'static str,
    /// Start time, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small per-thread id (stable within the process) for timeline
    /// lanes.
    pub thread: u64,
}

/// Default per-thread trace ring capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// A bounded ring of [`SpanRecord`]s with an overflow drop counter —
/// the trace-side sibling of [`crate::EventLog`].
#[derive(Clone, Debug)]
pub struct TraceLog {
    ring: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// An empty log holding at most `capacity` spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace log capacity must be positive");
        TraceLog {
            ring: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a record, evicting (and counting) the oldest when full.
    pub fn push(&mut self, record: SpanRecord) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many records have been evicted due to overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        self.ring.iter()
    }

    /// Removes all records and resets the drop counter.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.dropped = 0;
    }
}

mod ids {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    // The same splitmix64 stream the runner derives job seeds from,
    // reproduced here (telemetry sits below the runner in the crate
    // graph). `fetch_add` hands every caller a distinct state, and the
    // finalizer is a bijection, so ids are unique without a lock.
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    static ID_STATE: AtomicU64 = AtomicU64::new(0x7468_6572_6D6F_726C); // "thermorl"

    pub(super) fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fresh nonzero 64-bit id (0 is the "no parent" sentinel).
    pub(super) fn next_id() -> u64 {
        let state = ID_STATE
            .fetch_add(GOLDEN, Ordering::Relaxed)
            .wrapping_add(GOLDEN);
        let id = mix(state);
        if id == 0 {
            1
        } else {
            id
        }
    }

    static THREAD_COUNTER: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static THREAD_ID: u64 = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
    }

    /// A small process-stable id for the calling thread (timeline lane).
    pub(super) fn thread_id() -> u64 {
        THREAD_ID.with(|t| *t)
    }

    static EPOCH: OnceLock<Instant> = OnceLock::new();

    /// Microseconds since the process trace epoch (pinned on first use,
    /// so every thread shares one coherent timeline).
    pub(super) fn now_us() -> u64 {
        let epoch = EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Microseconds since the process trace epoch — the timestamp scale of
/// [`SpanRecord::start_us`] and [`crate::Event::ts_us`].
pub fn now_us() -> u64 {
    ids::now_us()
}

/// Derives a deterministic trace id from a seed (the runner stamps each
/// job's trace with `trace_id_from_seed(job_seed)`, so a job's trace id
/// is reproducible across runs, schedules, and worker processes).
pub fn trace_id_from_seed(seed: u64) -> u64 {
    let id = ids::mix(seed ^ 0x7261_6365); // "race"
    if id == 0 {
        1
    } else {
        id
    }
}

use std::cell::RefCell;

thread_local! {
    static STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

fn push_stack(ctx: SpanContext) {
    STACK.with(|s| s.borrow_mut().push(ctx));
}

/// Pops by span id, searching from the innermost end — overlapping
/// guards dropped out of LIFO order each remove exactly their own entry.
fn pop_stack(span_id: u64) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|c| c.span_id == span_id) {
            stack.remove(pos);
        }
    });
}

fn stack_top() -> Option<SpanContext> {
    STACK.with(|s| s.borrow().last().copied())
}

enum Parent {
    /// New trace, fresh ids.
    Fresh,
    /// Nest under the innermost live span on this thread (fresh trace
    /// when the stack is empty).
    Stack,
    /// Resume a remote context (fresh trace when `None`).
    Remote(Option<SpanContext>),
    /// New root of a trace with a caller-chosen id (deterministic
    /// traces); the span id equals the trace id so remote observers can
    /// parent onto the root without knowing its allocation.
    Seeded(u64),
}

/// An RAII traced span: times its scope like [`crate::SpanGuard`] (the
/// duration always lands in the aggregate [`crate::SpanStats`] when
/// telemetry is enabled) and additionally records a [`SpanRecord`] with
/// full identity when tracing is enabled too.
#[must_use = "a trace span times its scope; dropping it immediately records ~0 µs"]
pub struct TraceSpan {
    name: &'static str,
    start: Option<Instant>,
    start_us: u64,
    ctx: Option<SpanContext>,
    parent_id: u64,
    on_stack: bool,
}

impl TraceSpan {
    /// With telemetry off this inlines to one relaxed load and the
    /// struct literal; the recording body stays out of line.
    #[inline]
    fn begin(name: &'static str, parent: Parent, attach: bool) -> TraceSpan {
        if !registry::enabled() {
            return TraceSpan {
                name,
                start: None,
                start_us: 0,
                ctx: None,
                parent_id: 0,
                on_stack: false,
            };
        }
        TraceSpan::begin_recording(name, parent, attach)
    }

    #[inline(never)]
    fn begin_recording(name: &'static str, parent: Parent, attach: bool) -> TraceSpan {
        let start = Some(Instant::now());
        let (ctx, parent_id, start_us, on_stack) = if registry::trace_enabled() {
            let (trace_id, parent_id, span_id) = match parent {
                Parent::Fresh => (ids::next_id(), 0, ids::next_id()),
                Parent::Stack => match stack_top() {
                    Some(top) => (top.trace_id, top.span_id, ids::next_id()),
                    None => (ids::next_id(), 0, ids::next_id()),
                },
                Parent::Remote(Some(remote)) => (remote.trace_id, remote.span_id, ids::next_id()),
                Parent::Remote(None) => (ids::next_id(), 0, ids::next_id()),
                Parent::Seeded(trace_id) => (trace_id, 0, trace_id),
            };
            let ctx = SpanContext { trace_id, span_id };
            if attach {
                push_stack(ctx);
            }
            (Some(ctx), parent_id, ids::now_us(), attach)
        } else {
            (None, 0, 0, false)
        };
        TraceSpan {
            name,
            start,
            start_us,
            ctx,
            parent_id,
            on_stack,
        }
    }

    /// Starts a new trace root on this thread.
    #[inline]
    pub fn root(name: &'static str) -> TraceSpan {
        TraceSpan::begin(name, Parent::Fresh, true)
    }

    /// Starts a span nested under the innermost live [`TraceSpan`] on
    /// this thread (a fresh root when there is none). The common form —
    /// [`crate::trace_span!`] expands to this.
    #[inline]
    pub fn child(name: &'static str) -> TraceSpan {
        TraceSpan::begin(name, Parent::Stack, true)
    }

    /// Resumes a trace received over the wire: the new span is a child
    /// of `parent` when present, a fresh root otherwise.
    #[inline]
    pub fn with_parent(name: &'static str, parent: Option<SpanContext>) -> TraceSpan {
        TraceSpan::begin(name, Parent::Remote(parent), true)
    }

    /// Starts the deterministic root of trace `trace_id` (its span id
    /// equals the trace id — see [`trace_id_from_seed`]).
    #[inline]
    pub fn root_with_trace_id(name: &'static str, trace_id: u64) -> TraceSpan {
        TraceSpan::begin(name, Parent::Seeded(trace_id), true)
    }

    /// Starts a root with caller-chosen ids that is **not** pushed on
    /// the thread's span stack — for guards that are created on one
    /// thread and dropped on another (e.g. a load generator's paced
    /// writer handing the guard to its reply reader).
    #[inline]
    pub fn detached_with_ids(name: &'static str, trace_id: u64, span_id: u64) -> TraceSpan {
        let mut span = TraceSpan::begin(name, Parent::Fresh, false);
        if let Some(ctx) = &mut span.ctx {
            ctx.trace_id = trace_id;
            ctx.span_id = span_id;
        }
        span
    }

    /// Pops the span off the thread's stack and records it.
    #[inline(never)]
    fn finish(&mut self) {
        if self.on_stack {
            if let Some(ctx) = self.ctx {
                pop_stack(ctx.span_id);
            }
        }
        let Some(start) = self.start else {
            return;
        };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        registry::record_span_ns(self.name, ns);
        if let Some(ctx) = self.ctx {
            registry::record_trace_span(SpanRecord {
                seq: 0, // stamped by the registry
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id: self.parent_id,
                name: self.name,
                start_us: self.start_us,
                dur_us: ns / 1000,
                thread: ids::thread_id(),
            });
        }
    }

    /// The span's wire context, when tracing was live at creation.
    pub fn context(&self) -> Option<SpanContext> {
        self.ctx
    }

    /// Abandons the span without recording anything.
    pub fn cancel(mut self) {
        if self.on_stack {
            if let Some(ctx) = self.ctx {
                pop_stack(ctx.span_id);
            }
            self.on_stack = false;
        }
        self.start = None;
        self.ctx = None;
    }
}

impl Drop for TraceSpan {
    /// A span begun with telemetry off holds neither a start time nor a
    /// stack entry, so its drop is this inlined check alone.
    #[inline]
    fn drop(&mut self) {
        if self.start.is_some() || self.on_stack {
            self.finish();
        }
    }
}

/// One trace reduced to a table row: identity, root, extent, and shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// The trace id.
    pub trace_id: u64,
    /// Name of the trace's root span (of the earliest captured span when
    /// the root itself was evicted from the ring).
    pub root_name: String,
    /// Earliest captured start, µs since the trace epoch.
    pub start_us: u64,
    /// Extent from earliest start to latest end, µs.
    pub dur_us: u64,
    /// Spans captured for this trace.
    pub spans: u64,
    /// Spans whose parent is neither 0 nor another captured span of the
    /// trace (evicted or never-recorded parents).
    pub orphans: u64,
}

/// Groups raw [`SpanRecord`]s into per-trace [`TraceSummary`] rows,
/// ordered by start time. The reconstruction the `trace` wire verb and
/// the proptests share.
pub fn summarize_traces(spans: &[SpanRecord]) -> Vec<TraceSummary> {
    use std::collections::BTreeMap;
    let mut by_trace: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        by_trace.entry(span.trace_id).or_default().push(span);
    }
    let mut out: Vec<TraceSummary> = by_trace
        .into_iter()
        .map(|(trace_id, members)| {
            let ids: std::collections::BTreeSet<u64> = members.iter().map(|s| s.span_id).collect();
            let start_us = members.iter().map(|s| s.start_us).min().unwrap_or(0);
            let end_us = members
                .iter()
                .map(|s| s.start_us.saturating_add(s.dur_us))
                .max()
                .unwrap_or(0);
            let root = members
                .iter()
                .filter(|s| s.parent_id == 0)
                .min_by_key(|s| s.start_us)
                .or_else(|| members.iter().min_by_key(|s| s.start_us));
            let orphans = members
                .iter()
                .filter(|s| s.parent_id != 0 && !ids.contains(&s.parent_id))
                .count() as u64;
            TraceSummary {
                trace_id,
                root_name: root.map(|s| s.name.to_string()).unwrap_or_default(),
                start_us,
                dur_us: end_us.saturating_sub(start_us),
                spans: members.len() as u64,
                orphans,
            }
        })
        .collect();
    out.sort_by_key(|t| (t.start_us, t.trace_id));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trips() {
        let ctx = SpanContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            span_id: 0x0123_4567_89AB_CDEF,
        };
        let header = ctx.to_traceparent();
        assert_eq!(
            header,
            "00-0000000000000000deadbeefcafef00d-0123456789abcdef-01"
        );
        assert_eq!(SpanContext::parse_traceparent(&header), Some(ctx));
    }

    #[test]
    fn traceparent_rejects_malformed_headers() {
        for bad in [
            "",
            "00-short-0123456789abcdef-01",
            "00-0000000000000000deadbeefcafef00d-short-01",
            "00-0000000000000000deadbeefcafef00d-0123456789abcdef", // no flags
            "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-0123456789abcdef-01",
            "00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace
        ] {
            assert_eq!(SpanContext::parse_traceparent(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn trace_ring_evicts_oldest_and_counts_drops() {
        let mut log = TraceLog::new(2);
        for i in 0..5u64 {
            log.push(SpanRecord {
                seq: i,
                trace_id: 1,
                span_id: i + 1,
                parent_id: 0,
                name: "t",
                start_us: i,
                dur_us: 1,
                thread: 1,
            });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let seqs: Vec<u64> = log.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn seeded_trace_ids_are_deterministic_and_nonzero() {
        assert_eq!(trace_id_from_seed(42), trace_id_from_seed(42));
        assert_ne!(trace_id_from_seed(42), trace_id_from_seed(43));
        assert_ne!(trace_id_from_seed(0), 0);
    }

    #[test]
    fn summarize_builds_rows_and_counts_orphans() {
        let span = |seq, trace, id, parent, start, dur| SpanRecord {
            seq,
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: "s",
            start_us: start,
            dur_us: dur,
            thread: 1,
        };
        let spans = vec![
            span(0, 7, 1, 0, 10, 100), // root of trace 7
            span(1, 7, 2, 1, 20, 30),  // child
            span(2, 7, 3, 99, 40, 5),  // orphan (parent evicted)
            span(3, 9, 4, 0, 5, 1),    // root of trace 9
        ];
        let rows = summarize_traces(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].trace_id, 9, "earliest start first");
        let t7 = &rows[1];
        assert_eq!(t7.spans, 3);
        assert_eq!(t7.orphans, 1);
        assert_eq!(t7.start_us, 10);
        assert_eq!(t7.dur_us, 100);
        assert_eq!(t7.root_name, "s");
    }
}
