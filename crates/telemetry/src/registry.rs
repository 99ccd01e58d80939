//! The global metrics registry: per-thread shards merged on snapshot.
//!
//! Every recording call touches only the calling thread's own shard — a
//! `Mutex<ShardData>` that no other thread locks on the hot path, so the
//! lock is always uncontended (snapshots briefly lock each shard, which
//! is the only cross-thread traffic). Metric names are `&'static str`, so
//! recording a counter or span allocates nothing after the first touch of
//! a name.
//!
//! Recording is guarded twice:
//! * compile time — without the `telemetry` feature every function here
//!   is an empty body and [`crate::enabled`] is a constant `false`;
//! * run time — with the feature on, nothing records until
//!   [`set_enabled`]`(true)` flips the global
//!   [`AtomicBool`](std::sync::atomic::AtomicBool) (checked
//!   with one relaxed load per call site).

use std::collections::BTreeMap;

use crate::events::Event;
use crate::histogram::Histogram;
use crate::trace::SpanRecord;

#[cfg(feature = "telemetry")]
use imp::with_shard;

/// Aggregate timing statistics for one span name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total duration across all completions, in nanoseconds (saturating).
    pub total_ns: u64,
    /// Log2 histogram of per-span durations in nanoseconds.
    pub hist: Histogram,
}

impl SpanStats {
    /// Records one completed span of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.hist.record(ns);
    }

    /// Mean span duration in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Adds `other`'s completions into `self`.
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.hist.merge(&other.hist);
    }

    /// Saturating difference `self - baseline` (per-job delta capture).
    pub fn saturating_sub(&self, baseline: &SpanStats) -> SpanStats {
        SpanStats {
            count: self.count.saturating_sub(baseline.count),
            total_ns: self.total_ns.saturating_sub(baseline.total_ns),
            hist: self.hist.saturating_sub(&baseline.hist),
        }
    }
}

/// Occupancy of one shard's bounded rings at snapshot time — how close
/// each ring is to evicting, surfaced so operators can size capacities
/// before drops start rather than after.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingOccupancy {
    /// Events currently held in the shard's event ring.
    pub events: u64,
    /// The event ring's fixed capacity.
    pub events_capacity: u64,
    /// Trace spans currently held in the shard's trace ring.
    pub trace_spans: u64,
    /// The trace ring's fixed capacity.
    pub trace_capacity: u64,
}

/// A merged, point-in-time view of the registry (or of one shard).
///
/// Maps are `BTreeMap` so exports are deterministically ordered; events
/// are sorted by their global sequence number.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-written gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Value histograms recorded via `observe!`.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span timing aggregates.
    pub spans: BTreeMap<String, SpanStats>,
    /// Structured events, globally ordered by `seq`.
    pub events: Vec<Event>,
    /// Events lost to ring-buffer overflow across all shards.
    pub events_dropped: u64,
    /// Completed trace spans, globally ordered by `seq` (the same
    /// counter events draw from, so spans and events interleave).
    pub trace_spans: Vec<SpanRecord>,
    /// Trace spans lost to ring-buffer overflow across all shards.
    pub trace_spans_dropped: u64,
    /// Per-shard ring occupancy (one row per registered shard, in
    /// registration order).
    pub shard_occupancy: Vec<RingOccupancy>,
}

impl Snapshot {
    /// Whether nothing at all was recorded. Shard occupancy rows are
    /// ignored: empty rings registered by idle threads are not data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
            && self.trace_spans.is_empty()
            && self.trace_spans_dropped == 0
    }

    /// The delta `self - baseline`: counter/histogram/span aggregates are
    /// subtracted (entries that end at zero are dropped), gauges keep
    /// their latest value, and only events newer than the baseline's last
    /// sequence number survive. Used to carve what one job recorded out
    /// of its thread's running totals.
    pub fn since(&self, baseline: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, value) in &self.counters {
            let delta = value.saturating_sub(baseline.counters.get(name).copied().unwrap_or(0));
            if delta > 0 {
                out.counters.insert(name.clone(), delta);
            }
        }
        out.gauges = self.gauges.clone();
        for (name, hist) in &self.histograms {
            let delta = match baseline.histograms.get(name) {
                Some(base) => hist.saturating_sub(base),
                None => hist.clone(),
            };
            if !delta.is_empty() {
                out.histograms.insert(name.clone(), delta);
            }
        }
        for (name, stats) in &self.spans {
            let delta = match baseline.spans.get(name) {
                Some(base) => stats.saturating_sub(base),
                None => stats.clone(),
            };
            if delta.count > 0 {
                out.spans.insert(name.clone(), delta);
            }
        }
        let floor = baseline.events.last().map(|e| e.seq + 1).unwrap_or(0);
        out.events = self
            .events
            .iter()
            .filter(|e| e.seq >= floor)
            .cloned()
            .collect();
        out.events_dropped = self.events_dropped.saturating_sub(baseline.events_dropped);
        let trace_floor = baseline.trace_spans.last().map(|s| s.seq + 1).unwrap_or(0);
        out.trace_spans = self
            .trace_spans
            .iter()
            .filter(|s| s.seq >= trace_floor)
            .cloned()
            .collect();
        out.trace_spans_dropped = self
            .trace_spans_dropped
            .saturating_sub(baseline.trace_spans_dropped);
        out.shard_occupancy = self.shard_occupancy.clone();
        out
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock, PoisonError};

    use crate::events::EventLog;
    use crate::histogram::Histogram;
    use crate::trace::TraceLog;

    use super::SpanStats;

    #[derive(Default)]
    pub(super) struct ShardData {
        pub counters: HashMap<&'static str, u64>,
        pub gauges: HashMap<&'static str, f64>,
        pub histograms: HashMap<&'static str, Histogram>,
        pub spans: HashMap<&'static str, SpanStats>,
        pub events: EventLog,
        pub traces: TraceLog,
    }

    pub(super) struct Registry {
        pub seq: AtomicU64,
        // Shards stay registered after their thread exits so the counts
        // they accumulated survive into later snapshots.
        pub shards: Mutex<Vec<Arc<Mutex<ShardData>>>>,
    }

    // Deliberately outside the `OnceLock`: `enabled()` runs on every
    // instrumented call site even while recording is off, and a bare
    // static load dodges the lock's init check on that path.
    pub(super) static ENABLED: AtomicBool = AtomicBool::new(false);

    // Tracing gates separately on top of `ENABLED`: metrics-only
    // deployments pay nothing for the trace rings, and the extra load
    // only happens once recording is already live.
    pub(super) static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

    static REGISTRY: OnceLock<Registry> = OnceLock::new();

    pub(super) fn global() -> &'static Registry {
        REGISTRY.get_or_init(|| Registry {
            seq: AtomicU64::new(0),
            shards: Mutex::new(Vec::new()),
        })
    }

    thread_local! {
        static SHARD: RefCell<Option<Arc<Mutex<ShardData>>>> = const { RefCell::new(None) };
    }

    /// Runs `f` on the calling thread's shard, registering one on first
    /// use. Locks are recovered from poisoning (a panicking job must not
    /// take the whole registry down with it).
    pub(super) fn with_shard<R>(f: impl FnOnce(&mut ShardData) -> R) -> R {
        SHARD.with(|cell| {
            let mut slot = cell.borrow_mut();
            let arc = slot.get_or_insert_with(|| {
                let arc = Arc::new(Mutex::new(ShardData::default()));
                global()
                    .shards
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(Arc::clone(&arc));
                arc
            });
            let mut data = arc.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut data)
        })
    }

    pub(super) fn all_shards() -> Vec<Arc<Mutex<ShardData>>> {
        global()
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    // `#[inline]` here matters: without it, a cross-crate-inlined
    // `counter_add` still makes a real call for this one load, which
    // triples the cost of the disabled path.
    #[inline]
    pub(super) fn load_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    #[inline]
    pub(super) fn load_trace_enabled() -> bool {
        TRACE_ENABLED.load(Ordering::Relaxed)
    }

    pub(super) fn next_seq() -> u64 {
        global().seq.fetch_add(1, Ordering::Relaxed)
    }
}

/// Whether recording is live: the `telemetry` feature is compiled in AND
/// the runtime switch is on. Every macro checks this first, so with the
/// feature off the check is a constant `false` and the whole call site
/// folds away.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "telemetry")]
    {
        imp::load_enabled()
    }
    #[cfg(not(feature = "telemetry"))]
    {
        false
    }
}

/// Flips the runtime recording switch (no-op without the feature).
pub fn set_enabled(on: bool) {
    #[cfg(feature = "telemetry")]
    imp::ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "telemetry"))]
    let _ = on;
}

/// Whether trace recording is live: [`enabled`] AND the trace switch is
/// on. The check short-circuits, so a fully disabled call site still
/// costs one relaxed load.
#[inline]
pub fn trace_enabled() -> bool {
    #[cfg(feature = "telemetry")]
    {
        imp::load_enabled() && imp::load_trace_enabled()
    }
    #[cfg(not(feature = "telemetry"))]
    {
        false
    }
}

/// Flips the runtime trace-recording switch (no-op without the feature).
/// Tracing also requires [`set_enabled`]`(true)` — the trace switch
/// alone records nothing.
pub fn set_trace_enabled(on: bool) {
    #[cfg(feature = "telemetry")]
    imp::TRACE_ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "telemetry"))]
    let _ = on;
}

/// Adds `delta` to the named counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    #[cfg(feature = "telemetry")]
    {
        if !enabled() {
            return;
        }
        with_shard(|d| *d.counters.entry(name).or_insert(0) += delta);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (name, delta);
}

/// Sets the named gauge to `value`.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    #[cfg(feature = "telemetry")]
    {
        if !enabled() {
            return;
        }
        with_shard(|d| {
            d.gauges.insert(name, value);
        });
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (name, value);
}

/// Records `value` into the named histogram.
#[inline]
pub fn observe_value(name: &'static str, value: u64) {
    #[cfg(feature = "telemetry")]
    {
        if !enabled() {
            return;
        }
        with_shard(|d| d.histograms.entry(name).or_default().record(value));
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (name, value);
}

/// Records one completed span of `ns` nanoseconds under `name` (the
/// manual-timing escape hatch behind [`crate::SpanGuard`]).
#[inline]
pub fn record_span_ns(name: &'static str, ns: u64) {
    #[cfg(feature = "telemetry")]
    {
        if !enabled() {
            return;
        }
        with_shard(|d| d.spans.entry(name).or_default().record(ns));
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (name, ns);
}

/// Appends a structured event to the calling thread's ring buffer,
/// stamping it with the next global sequence number.
#[inline]
pub fn record_event(name: &'static str, detail: String) {
    #[cfg(feature = "telemetry")]
    {
        if !enabled() {
            return;
        }
        let seq = imp::next_seq();
        let ts_us = crate::trace::now_us();
        with_shard(|d| {
            d.events.push(Event {
                seq,
                ts_us,
                name,
                detail,
            })
        });
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (name, detail);
}

/// Appends a completed trace span to the calling thread's trace ring,
/// stamping it with the next global sequence number (shared with
/// events). Dropped silently when tracing is off.
#[inline]
pub fn record_trace_span(record: SpanRecord) {
    #[cfg(feature = "telemetry")]
    {
        if !trace_enabled() {
            return;
        }
        let mut record = record;
        record.seq = imp::next_seq();
        with_shard(|d| d.traces.push(record));
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = record;
}

/// The next sequence number a future event would receive — the natural
/// starting cursor for [`thread_events_since`].
pub fn next_event_seq() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        imp::global().seq.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    {
        0
    }
}

/// Clones out the calling thread's events with `seq >= seq_floor`
/// (oldest-first). Empty when telemetry is off or nothing matched.
pub fn thread_events_since(seq_floor: u64) -> Vec<Event> {
    #[cfg(feature = "telemetry")]
    {
        if !enabled() {
            return Vec::new();
        }
        with_shard(|d| d.events.since(seq_floor))
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = seq_floor;
        Vec::new()
    }
}

#[cfg(feature = "telemetry")]
fn merge_into(snap: &mut Snapshot, data: &imp::ShardData) {
    for (name, value) in &data.counters {
        *snap.counters.entry((*name).to_string()).or_insert(0) += value;
    }
    for (name, value) in &data.gauges {
        snap.gauges.insert((*name).to_string(), *value);
    }
    for (name, hist) in &data.histograms {
        snap.histograms
            .entry((*name).to_string())
            .or_default()
            .merge(hist);
    }
    for (name, stats) in &data.spans {
        snap.spans
            .entry((*name).to_string())
            .or_default()
            .merge(stats);
    }
    snap.events.extend(data.events.iter().cloned());
    snap.events_dropped += data.events.dropped();
    snap.trace_spans.extend(data.traces.iter().cloned());
    snap.trace_spans_dropped += data.traces.dropped();
    snap.shard_occupancy.push(RingOccupancy {
        events: data.events.len() as u64,
        events_capacity: data.events.capacity() as u64,
        trace_spans: data.traces.len() as u64,
        trace_capacity: data.traces.capacity() as u64,
    });
}

/// Merges every shard into one [`Snapshot`] (empty without the feature).
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "telemetry")]
    {
        let mut snap = Snapshot::default();
        for shard in imp::all_shards() {
            let data = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            merge_into(&mut snap, &data);
        }
        snap.events.sort_by_key(|e| e.seq);
        snap.trace_spans.sort_by_key(|s| s.seq);
        snap
    }
    #[cfg(not(feature = "telemetry"))]
    {
        Snapshot::default()
    }
}

/// A snapshot of just the calling thread's shard (empty without the
/// feature). Cheap enough to bracket a single job with.
pub fn thread_snapshot() -> Snapshot {
    #[cfg(feature = "telemetry")]
    {
        let mut snap = Snapshot::default();
        with_shard(|data| merge_into(&mut snap, data));
        snap
    }
    #[cfg(not(feature = "telemetry"))]
    {
        Snapshot::default()
    }
}

/// Clears every shard's data (counters, gauges, histograms, spans,
/// events). The enable flag and the global sequence counter are left
/// alone. Intended for tests and between-campaign resets.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    for shard in imp::all_shards() {
        let mut data = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        data.counters.clear();
        data.gauges.clear();
        data.histograms.clear();
        data.spans.clear();
        data.events.clear();
        data.traces.clear();
    }
}
