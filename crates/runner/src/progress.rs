//! Campaign progress and telemetry.
//!
//! The coordinating thread feeds every completion record into a
//! [`ProgressTracker`]; the tracker prints throttled status lines to
//! stderr (jobs done/failed, rate, ETA) and accumulates a log2-bucketed
//! histogram of per-job durations that is exported alongside the results.

use std::time::{Duration, Instant};

use thermorl_json::Value;
use thermorl_telemetry::Histogram;

use crate::job::{JobOutcome, JobRecord};

/// Number of log2 duration buckets exported in the JSON stats: bucket `i`
/// covers `[2^i, 2^(i+1))` ms, except bucket 0 (`< 2` ms) and the last
/// bucket (everything longer). The in-memory [`Histogram`] keeps its full
/// resolution; the tail is folded into this many buckets on export.
const EXPORT_BUCKETS: usize = 20;

/// Aggregated campaign statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Jobs that completed with a payload (including resumed ones).
    pub completed: u64,
    /// Jobs that ended in a panic after all attempts.
    pub panicked: u64,
    /// Jobs that exceeded the wall-clock timeout after all attempts.
    pub timed_out: u64,
    /// Jobs restored from the checkpoint rather than executed.
    pub resumed: u64,
    /// Total attempts across executed jobs (retries show up here).
    pub attempts: u64,
    /// Sum of final-attempt durations across executed jobs, in ms.
    pub total_duration_ms: u64,
    /// Log2-bucketed histogram of executed-job durations in ms (the
    /// shared telemetry histogram type).
    pub duration_histogram: Histogram,
}

impl CampaignStats {
    /// Jobs accounted for so far.
    pub fn total(&self) -> u64 {
        self.completed + self.panicked + self.timed_out
    }

    /// Jobs that failed (panicked or timed out).
    pub fn failed(&self) -> u64 {
        self.panicked + self.timed_out
    }

    /// Records one completion.
    pub fn record<T>(&mut self, record: &JobRecord<T>) {
        match &record.outcome {
            JobOutcome::Completed(_) => self.completed += 1,
            JobOutcome::Panicked(_) => self.panicked += 1,
            JobOutcome::TimedOut => self.timed_out += 1,
        }
        if record.resumed {
            self.resumed += 1;
        } else {
            self.attempts += u64::from(record.attempts);
            self.total_duration_ms += record.duration_ms;
            self.duration_histogram.record(record.duration_ms);
        }
    }

    /// The stats as a JSON object (exported next to campaign results).
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object();
        obj.set("completed", Value::UInt(self.completed));
        obj.set("panicked", Value::UInt(self.panicked));
        obj.set("timed_out", Value::UInt(self.timed_out));
        obj.set("resumed", Value::UInt(self.resumed));
        obj.set("attempts", Value::UInt(self.attempts));
        obj.set("total_duration_ms", Value::UInt(self.total_duration_ms));
        let mut buckets = Vec::new();
        for (i, &count) in self
            .duration_histogram
            .fold(EXPORT_BUCKETS)
            .iter()
            .enumerate()
        {
            if count == 0 {
                continue;
            }
            let mut b = Value::object();
            b.set("le_ms", Value::UInt(Histogram::bucket_upper(i)));
            b.set("count", Value::UInt(count));
            buckets.push(b);
        }
        obj.set("duration_histogram", Value::Arr(buckets));
        obj
    }
}

/// Throttled stderr progress reporting plus stats accumulation.
pub struct ProgressTracker {
    name: String,
    total_jobs: u64,
    stats: CampaignStats,
    started: Instant,
    last_report: Option<Instant>,
    /// Minimum interval between stderr lines (the final line always prints).
    report_every: Duration,
    /// Whether to print anything at all.
    verbose: bool,
}

impl ProgressTracker {
    /// Creates a tracker for a campaign of `total_jobs` executable jobs.
    pub fn new(name: &str, total_jobs: usize, verbose: bool) -> Self {
        ProgressTracker {
            name: name.to_string(),
            total_jobs: total_jobs as u64,
            stats: CampaignStats::default(),
            started: Instant::now(),
            last_report: None,
            report_every: Duration::from_millis(500),
            verbose,
        }
    }

    /// Notes `count` checkpoint-restored jobs (not part of `total_jobs`).
    pub fn note_resumed<T>(&mut self, records: &[JobRecord<T>]) {
        for record in records {
            self.stats.record(record);
        }
        if self.verbose && !records.is_empty() {
            eprintln!(
                "[{}] resumed {} completed job(s) from checkpoint",
                self.name,
                records.len()
            );
        }
    }

    /// Records one executed job and maybe prints a status line.
    pub fn record<T>(&mut self, record: &JobRecord<T>) {
        self.stats.record(record);
        if !self.verbose {
            return;
        }
        let executed = self.stats.total() - self.stats.resumed;
        let now = Instant::now();
        let due = match self.last_report {
            None => true,
            Some(t) => now.duration_since(t) >= self.report_every,
        };
        if due || executed == self.total_jobs {
            self.last_report = Some(now);
            let elapsed = now.duration_since(self.started).as_secs_f64();
            let rate = executed as f64 / elapsed.max(1e-9);
            let remaining = self.total_jobs.saturating_sub(executed);
            let eta_s = remaining as f64 / rate.max(1e-9);
            eprintln!(
                "[{}] {}/{} jobs ({} failed) | {:.1} jobs/s | ETA {:.0}s",
                self.name,
                executed,
                self.total_jobs,
                self.stats.failed(),
                rate,
                eta_s
            );
        }
    }

    /// Finishes tracking and returns the accumulated stats.
    pub fn finish(self) -> CampaignStats {
        if self.verbose {
            let elapsed = self.started.elapsed().as_secs_f64();
            eprintln!(
                "[{}] done: {} ok, {} failed, {} resumed in {:.1}s",
                self.name,
                self.stats.completed,
                self.stats.failed(),
                self.stats.resumed,
                elapsed
            );
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, outcome: JobOutcome<u32>, duration_ms: u64, resumed: bool) -> JobRecord<u32> {
        JobRecord {
            key: key.into(),
            policy: None,
            seed: 0,
            attempts: if resumed { 0 } else { 1 },
            duration_ms,
            resumed,
            metrics: None,
            outcome,
        }
    }

    #[test]
    fn stats_classify_outcomes() {
        let mut stats = CampaignStats::default();
        stats.record(&rec("a", JobOutcome::Completed(1), 3, false));
        stats.record(&rec("b", JobOutcome::Panicked("x".into()), 7, false));
        stats.record(&rec("c", JobOutcome::TimedOut, 100, false));
        stats.record(&rec("d", JobOutcome::Completed(2), 0, true));
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.resumed, 1);
        assert_eq!(stats.failed(), 2);
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.attempts, 3, "resumed records contribute no attempts");
        assert_eq!(stats.total_duration_ms, 110);
    }

    #[test]
    fn export_folds_the_tail_into_the_last_bucket() {
        // A sample beyond the 20-bucket export range must still show up,
        // collapsed into the last exported bucket — exactly what the old
        // bespoke `min(19)` clamp produced.
        let mut stats = CampaignStats::default();
        stats.record(&rec("a", JobOutcome::Completed(1), u64::MAX / 2, false));
        let json = stats.to_json();
        let hist = json
            .get("duration_histogram")
            .and_then(Value::as_array)
            .expect("histogram");
        assert_eq!(hist.len(), 1);
        assert_eq!(
            hist[0].get("le_ms").and_then(Value::as_u64),
            Some(1 << EXPORT_BUCKETS)
        );
        assert_eq!(hist[0].get("count").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn stats_export_to_json() {
        let mut stats = CampaignStats::default();
        stats.record(&rec("a", JobOutcome::Completed(1), 5, false));
        let json = stats.to_json();
        assert_eq!(json.get("completed").and_then(Value::as_u64), Some(1));
        let hist = json
            .get("duration_histogram")
            .and_then(Value::as_array)
            .expect("histogram");
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].get("le_ms").and_then(Value::as_u64), Some(8));
        assert_eq!(hist[0].get("count").and_then(Value::as_u64), Some(1));
    }
}
