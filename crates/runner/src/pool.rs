//! The work-stealing worker pool.
//!
//! Jobs are dealt round-robin onto per-worker deques; each worker pops
//! from the front of its own deque and, when empty, steals from the back
//! of the fullest other deque. Workers execute jobs under
//! [`std::panic::catch_unwind`] so one diverging simulation cannot kill
//! the campaign, optionally under a wall-clock timeout, and failed jobs
//! are retried according to [`PoolConfig::max_attempts`].
//!
//! Completion records stream to the caller-provided sink on the
//! coordinating thread (in completion order — useful for incremental
//! checkpointing); the records themselves are deterministic per job
//! because every job's seed is derived from its key, never from the
//! schedule.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use thermorl_telemetry as tel;

use crate::job::{Job, JobOutcome, JobRecord};

/// Worker-pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads. Defaults to the machine's available
    /// parallelism, floored at 2.
    pub workers: usize,
    /// Per-attempt wall-clock timeout. `None` disables the watchdog (and
    /// runs jobs inline on the workers).
    pub timeout: Option<Duration>,
    /// Maximum attempts per job (2 = the ISSUE's retry-once policy).
    pub max_attempts: u32,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: default_workers(),
            timeout: None,
            max_attempts: 2,
        }
    }
}

/// The default worker count: the machine's available parallelism, floored
/// at 2 so campaigns always overlap job execution with the coordinator's
/// checkpoint I/O (results are schedule-independent, so extra workers are
/// always safe).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(2)
}

struct Queues<T> {
    deques: Vec<VecDeque<(usize, Job<T>)>>,
}

impl<T> Queues<T> {
    /// Pops work for `worker`: own front first, then steal from the back
    /// of the fullest other deque.
    fn pop(&mut self, worker: usize) -> Option<(usize, Job<T>)> {
        if let Some(job) = self.deques[worker].pop_front() {
            return Some(job);
        }
        let victim = (0..self.deques.len())
            .filter(|&w| w != worker)
            .max_by_key(|&w| self.deques[w].len())?;
        self.deques[victim].pop_back()
    }
}

/// Brackets `f` with thread-local telemetry snapshots and returns
/// `(result, what the call recorded)`. The delta is `None` when telemetry
/// is disabled, so the disabled path stays snapshot-free.
fn with_metrics<R>(f: impl FnOnce() -> R) -> (R, Option<tel::Snapshot>) {
    if !tel::enabled() {
        return (f(), None);
    }
    let before = tel::thread_snapshot();
    let result = f();
    (result, Some(tel::thread_snapshot().since(&before)))
}

fn run_attempt<T: Send + 'static>(
    job: &Job<T>,
    seed: u64,
    timeout: Option<Duration>,
) -> (JobOutcome<T>, Option<tel::Snapshot>) {
    match timeout {
        None => {
            let work = job.work.clone();
            let (result, metrics) = with_metrics(move || {
                std::panic::catch_unwind(AssertUnwindSafe(move || work(seed)))
            });
            let outcome = match result {
                Ok(payload) => JobOutcome::Completed(payload),
                Err(panic) => JobOutcome::Panicked(panic_message(panic)),
            };
            (outcome, metrics)
        }
        Some(limit) => {
            // The attempt runs on its own thread so the worker can give up
            // on it. A timed-out thread is detached, not killed: it keeps
            // running to completion in the background (Rust has no safe
            // thread cancellation) but its result is discarded — along
            // with its metrics delta, which lives on that thread's shard.
            let work = job.work.clone();
            let (tx, rx) = mpsc::sync_channel(1);
            let builder = std::thread::Builder::new()
                .name(format!("job:{}", job.key))
                .spawn(move || {
                    let (result, metrics) = with_metrics(move || {
                        std::panic::catch_unwind(AssertUnwindSafe(move || work(seed)))
                    });
                    let _ = tx.send((result, metrics));
                });
            match builder {
                Err(e) => (
                    JobOutcome::Panicked(format!("failed to spawn job thread: {e}")),
                    None,
                ),
                Ok(_handle) => match rx.recv_timeout(limit) {
                    Ok((Ok(payload), metrics)) => (JobOutcome::Completed(payload), metrics),
                    Ok((Err(panic), metrics)) => {
                        (JobOutcome::Panicked(panic_message(panic)), metrics)
                    }
                    Err(_) => (JobOutcome::TimedOut, None),
                },
            }
        }
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `jobs` on the pool. `seeds[i]` is the derived seed of `jobs[i]`.
/// `on_record` observes every completion on the calling thread, in
/// completion order; the returned records are in submission order.
///
/// # Panics
///
/// Panics if `seeds.len() != jobs.len()` or a worker thread dies outside
/// job execution (job panics themselves are caught and recorded).
pub fn run_jobs<T: Send + 'static>(
    jobs: Vec<Job<T>>,
    seeds: Vec<u64>,
    config: &PoolConfig,
    mut on_record: impl FnMut(&JobRecord<T>),
) -> Vec<JobRecord<T>> {
    assert_eq!(jobs.len(), seeds.len(), "one seed per job");
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = config.workers.clamp(1, total.max(1));
    let max_attempts = config.max_attempts.max(1);

    // Deal jobs round-robin across the worker deques.
    let mut deques: Vec<VecDeque<(usize, Job<T>)>> =
        (0..workers).map(|_| VecDeque::new()).collect();
    let seeds = Arc::new(seeds);
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % workers].push_back((i, job));
    }
    let queues = Arc::new(Mutex::new(Queues { deques }));

    let mut records: Vec<Option<JobRecord<T>>> = (0..total).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, JobRecord<T>)>();

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queues = Arc::clone(&queues);
            let seeds = Arc::clone(&seeds);
            let tx = tx.clone();
            let timeout = config.timeout;
            scope.spawn(move || loop {
                let next = queues.lock().expect("queue lock").pop(worker);
                let Some((index, job)) = next else { break };
                let seed = seeds[index];
                // Root the job's trace on its seed-derived id: the same
                // id a remote coordinator computes from the lease seed,
                // so a dispatched job's execution and its result ingest
                // land in one trace without any id exchange.
                let _trace =
                    tel::TraceSpan::root_with_trace_id("runner.job", tel::trace_id_from_seed(seed));
                let mut attempts = 0;
                let mut outcome;
                let mut metrics;
                let mut duration;
                loop {
                    attempts += 1;
                    let t0 = Instant::now();
                    (outcome, metrics) = run_attempt(&job, seed, timeout);
                    duration = t0.elapsed();
                    if outcome.is_completed() || attempts >= max_attempts {
                        break;
                    }
                    tel::counter!("runner.retries");
                    tel::event!("job.retry", "{} attempt={attempts}", job.key);
                }
                tel::counter!("runner.jobs");
                if matches!(outcome, JobOutcome::TimedOut) {
                    tel::counter!("runner.timeouts");
                    tel::event!("job.timeout", "{}", job.key);
                }
                let record = JobRecord {
                    key: job.key,
                    policy: job.policy,
                    seed,
                    attempts,
                    duration_ms: duration.as_millis() as u64,
                    resumed: false,
                    metrics,
                    outcome,
                };
                if tx.send((index, record)).is_err() {
                    break; // collector gone; shut down quietly
                }
            });
        }
        drop(tx);
        for _ in 0..total {
            let (index, record) = rx.recv().expect("workers deliver every record");
            on_record(&record);
            records[index] = Some(record);
        }
    });

    records
        .into_iter()
        .map(|r| r.expect("every job recorded"))
        .collect()
}

/// Deterministic parallel map over arbitrary items, built on the same
/// shared-queue discipline as the campaign pool but supporting borrowed
/// items and propagating panics (it is a drop-in replacement for the old
/// `thermorl_bench::experiments::par_map`).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n_workers = default_workers().min(items.len().max(1));
    let items: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = Mutex::new(items);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let item = queue.lock().expect("queue lock").pop();
                match item {
                    Some((i, t)) => {
                        let r = f(t);
                        results.lock().expect("results lock").push((i, r));
                    }
                    None => break,
                }
            });
        }
    });
    let mut results = results.into_inner().expect("results lock");
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keyed_jobs(n: usize) -> (Vec<Job<u64>>, Vec<u64>) {
        let jobs: Vec<Job<u64>> = (0..n)
            .map(|i| Job::new(format!("job/{i}"), move |seed| seed ^ i as u64))
            .collect();
        let seeds: Vec<u64> = (0..n as u64).map(|i| i * 1000).collect();
        (jobs, seeds)
    }

    #[test]
    fn records_return_in_submission_order() {
        let (jobs, seeds) = keyed_jobs(20);
        let records = run_jobs(jobs, seeds, &PoolConfig::default(), |_| {});
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.key, format!("job/{i}"));
            assert_eq!(r.outcome, JobOutcome::Completed(r.seed ^ i as u64));
        }
    }

    #[test]
    fn single_worker_equals_many_workers() {
        let run = |workers| {
            let (jobs, seeds) = keyed_jobs(30);
            let config = PoolConfig {
                workers,
                ..PoolConfig::default()
            };
            run_jobs(jobs, seeds, &config, |_| {})
                .into_iter()
                .map(|r| (r.key, r.outcome))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn panicking_job_is_isolated_and_retried() {
        let jobs = vec![
            Job::new("ok", |s| s),
            Job::new("boom", |_| -> u64 { panic!("deliberate test panic") }),
        ];
        let records = run_jobs(jobs, vec![1, 2], &PoolConfig::default(), |_| {});
        assert_eq!(records[0].outcome, JobOutcome::Completed(1));
        assert_eq!(records[0].attempts, 1);
        assert_eq!(
            records[1].outcome,
            JobOutcome::Panicked("deliberate test panic".into())
        );
        assert_eq!(records[1].attempts, 2, "failed job retried once");
    }

    #[test]
    fn timeout_marks_job_timed_out_but_campaign_completes() {
        let jobs = vec![
            Job::new("fast", |s| s),
            Job::new("slow", |s| {
                std::thread::sleep(Duration::from_millis(400));
                s
            }),
        ];
        let config = PoolConfig {
            workers: 2,
            timeout: Some(Duration::from_millis(50)),
            max_attempts: 1,
        };
        let records = run_jobs(jobs, vec![1, 2], &config, |_| {});
        assert_eq!(records[0].outcome, JobOutcome::Completed(1));
        assert_eq!(records[1].outcome, JobOutcome::TimedOut);
    }

    #[test]
    fn sink_sees_every_record() {
        let (jobs, seeds) = keyed_jobs(10);
        let mut seen = Vec::new();
        let _ = run_jobs(jobs, seeds, &PoolConfig::default(), |r| {
            seen.push(r.key.clone())
        });
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..64).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn par_map_supports_empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
