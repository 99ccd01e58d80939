//! Execution state of an application instance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::app::{AppModel, SyncModel};

/// What one thread wants from the platform this tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadNeed {
    /// Whether the thread has work (false = blocked at the barrier or the
    /// work queue is empty).
    pub runnable: bool,
    /// Activity factor of its current phase.
    pub activity: f64,
}

/// Barrier-mode phase.
#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Remaining giga-cycles per thread; threads that reach 0 block.
    Parallel { remaining: Vec<f64> },
    /// Remaining giga-cycles of the serial section (thread 0).
    Serial { remaining: f64 },
}

/// One work item in flight on a thread (work-queue mode).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Item {
    hi_remaining: f64,
    lo_remaining: f64,
    activity_mult: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum ExecState {
    Barrier {
        phase: Phase,
        activity_mult: f64,
    },
    Queue {
        next_frame: usize,
        items: Vec<Option<Item>>,
    },
}

/// Runs an [`AppModel`] frame by frame, tracking progress and performance.
///
/// The platform drives it with per-thread progress (giga-cycles executed);
/// it answers with per-thread [`ThreadNeed`]s and frame/fps accounting.
#[derive(Debug, Clone)]
pub struct AppExecution {
    model: AppModel,
    state: ExecState,
    frames_done: usize,
    frames_issued: usize,
    start_time: f64,
    finish_time: Option<f64>,
    completion_times: Vec<f64>,
    rng: StdRng,
}

impl AppExecution {
    /// Starts executing `model` (time origin 0; see
    /// [`AppExecution::restart_at`] for scenario chaining).
    pub fn new(model: AppModel, seed: u64) -> Self {
        let mut exec = AppExecution {
            state: ExecState::Barrier {
                phase: Phase::Serial { remaining: 0.0 },
                activity_mult: 1.0,
            },
            frames_done: 0,
            frames_issued: 0,
            start_time: 0.0,
            finish_time: None,
            completion_times: Vec::with_capacity(model.total_frames),
            rng: StdRng::seed_from_u64(seed ^ 0xABB5_EED0_0000_0001),
            model,
        };
        exec.reset_state();
        exec
    }

    /// The model being executed.
    pub fn model(&self) -> &AppModel {
        &self.model
    }

    /// Resets progress and stamps a new start time (used when a scenario
    /// switches to this application mid-simulation).
    pub fn restart_at(&mut self, now: f64) {
        self.frames_done = 0;
        self.frames_issued = 0;
        self.finish_time = None;
        self.completion_times.clear();
        self.start_time = now;
        self.reset_state();
    }

    fn reset_state(&mut self) {
        self.state = match self.model.sync {
            SyncModel::Barrier => {
                let (phase, mult) = self.fresh_parallel_phase();
                ExecState::Barrier {
                    phase,
                    activity_mult: mult,
                }
            }
            SyncModel::WorkQueue => {
                let n = self.model.num_threads;
                let mut state = ExecState::Queue {
                    next_frame: 0,
                    items: vec![None; n],
                };
                if let ExecState::Queue { next_frame, items } = &mut state {
                    for slot in items.iter_mut() {
                        if *next_frame >= self.model.total_frames {
                            break;
                        }
                        let mult = Self::multiplier(&self.model, &mut self.rng, *next_frame);
                        *slot = Some(Self::make_item(&self.model, mult));
                        *next_frame += 1;
                    }
                    self.frames_issued = *next_frame;
                }
                state
            }
        }
    }

    /// Frame-work multiplier for frame `k`: slow modulation plus jitter.
    fn multiplier(model: &AppModel, rng: &mut StdRng, k: usize) -> f64 {
        let modulation = if model.modulation.amplitude != 0.0 {
            model.modulation.amplitude
                * (2.0 * std::f64::consts::PI * k as f64 / model.modulation.period_frames as f64)
                    .sin()
        } else {
            0.0
        };
        let jitter = if model.jitter > 0.0 {
            rng.gen_range(-model.jitter..=model.jitter)
        } else {
            0.0
        };
        (1.0 + modulation + jitter).max(0.05)
    }

    fn make_item(model: &AppModel, mult: f64) -> Item {
        Item {
            hi_remaining: (model.parallel_gcycles * mult).max(1e-9),
            lo_remaining: model.serial_gcycles * mult,
            activity_mult: if model.modulate_activity { mult } else { 1.0 },
        }
    }

    fn fresh_parallel_phase(&mut self) -> (Phase, f64) {
        let mult = Self::multiplier(&self.model, &mut self.rng, self.frames_done);
        let act_mult = if self.model.modulate_activity {
            mult
        } else {
            1.0
        };
        let per_thread = self.model.parallel_gcycles * mult;
        let phase = if per_thread > 0.0 {
            Phase::Parallel {
                remaining: vec![per_thread; self.model.num_threads],
            }
        } else {
            Phase::Serial {
                remaining: (self.model.serial_gcycles * mult).max(1e-9),
            }
        };
        (phase, act_mult)
    }

    fn scaled_activity(&self, base: f64, mult: f64) -> f64 {
        (base * mult).clamp(0.02, 1.0)
    }

    /// Per-thread demands for the current phase.
    pub fn thread_needs(&self) -> Vec<ThreadNeed> {
        let mut needs = Vec::with_capacity(self.model.num_threads);
        self.thread_needs_into(&mut needs);
        needs
    }

    /// Writes the per-thread demands for the current phase into `needs`
    /// (cleared first), reusing its allocation: the simulation engine's
    /// per-tick form of [`AppExecution::thread_needs`].
    pub fn thread_needs_into(&self, needs: &mut Vec<ThreadNeed>) {
        needs.clear();
        let m = &self.model;
        if self.is_complete() {
            needs.resize(
                m.num_threads,
                ThreadNeed {
                    runnable: false,
                    activity: 0.0,
                },
            );
            return;
        }
        match &self.state {
            ExecState::Barrier {
                phase,
                activity_mult,
            } => match phase {
                Phase::Parallel { remaining } => needs.extend(remaining.iter().map(|&r| {
                    let runnable = r > 0.0;
                    ThreadNeed {
                        runnable,
                        activity: if runnable {
                            self.scaled_activity(m.activity_parallel, *activity_mult)
                        } else {
                            0.0
                        },
                    }
                })),
                Phase::Serial { .. } => needs.extend((0..m.num_threads).map(|i| ThreadNeed {
                    runnable: i == 0,
                    activity: if i == 0 {
                        self.scaled_activity(m.activity_serial, *activity_mult)
                    } else {
                        0.0
                    },
                })),
            },
            ExecState::Queue { items, .. } => needs.extend(items.iter().map(|slot| match slot {
                Some(item) => {
                    let (base, mult) = if item.hi_remaining > 0.0 {
                        (m.activity_parallel, item.activity_mult)
                    } else {
                        (m.activity_serial, item.activity_mult)
                    };
                    ThreadNeed {
                        runnable: true,
                        activity: self.scaled_activity(base, mult),
                    }
                }
                None => ThreadNeed {
                    runnable: false,
                    activity: 0.0,
                },
            })),
        }
    }

    /// Applies per-thread progress (giga-cycles executed since the last
    /// call) and advances phases/frames. `now` is the simulation time at
    /// the *end* of the tick, used to timestamp frame completions.
    ///
    /// # Panics
    ///
    /// Panics if `progress.len() != model.num_threads`.
    pub fn advance(&mut self, progress: &[f64], now: f64) {
        assert_eq!(
            progress.len(),
            self.model.num_threads,
            "progress per thread"
        );
        if self.is_complete() {
            return;
        }
        let serial_g = self.model.serial_gcycles;
        let total_frames = self.model.total_frames;
        match &mut self.state {
            ExecState::Barrier { phase, .. } => {
                let mut finished_frame = false;
                match phase {
                    Phase::Parallel { remaining } => {
                        for (r, &p) in remaining.iter_mut().zip(progress) {
                            *r = (*r - p).max(0.0);
                        }
                        if remaining.iter().all(|&r| r <= 0.0) {
                            if serial_g > 0.0 {
                                *phase = Phase::Serial {
                                    remaining: serial_g,
                                };
                            } else {
                                finished_frame = true;
                            }
                        }
                    }
                    Phase::Serial { remaining } => {
                        *remaining = (*remaining - progress[0]).max(0.0);
                        if *remaining <= 0.0 {
                            finished_frame = true;
                        }
                    }
                }
                if finished_frame {
                    self.complete_frame(now);
                    if !self.is_complete() {
                        let (phase, mult) = self.fresh_parallel_phase();
                        self.state = ExecState::Barrier {
                            phase,
                            activity_mult: mult,
                        };
                    }
                }
            }
            ExecState::Queue { next_frame, items } => {
                let mut completions = 0usize;
                let mut new_items: Vec<usize> = Vec::new();
                for (i, slot) in items.iter_mut().enumerate() {
                    let mut p = progress[i];
                    if p <= 0.0 {
                        continue;
                    }
                    if let Some(item) = slot {
                        if item.hi_remaining > 0.0 {
                            let used = item.hi_remaining.min(p);
                            item.hi_remaining -= used;
                            p -= used;
                        }
                        if item.hi_remaining <= 0.0 && p > 0.0 {
                            item.lo_remaining = (item.lo_remaining - p).max(0.0);
                        }
                        if item.hi_remaining <= 0.0 && item.lo_remaining <= 0.0 {
                            *slot = None;
                            completions += 1;
                            if *next_frame < total_frames {
                                new_items.push(i);
                            }
                        }
                    }
                }
                // Hand out fresh items after the borrow of `items` ends.
                for i in new_items {
                    if *next_frame >= total_frames {
                        break;
                    }
                    let mult = Self::multiplier(&self.model, &mut self.rng, *next_frame);
                    items[i] = Some(Self::make_item(&self.model, mult));
                    *next_frame += 1;
                }
                self.frames_issued = *next_frame;
                for _ in 0..completions {
                    self.complete_frame(now);
                }
            }
        }
    }

    fn complete_frame(&mut self, now: f64) {
        self.frames_done += 1;
        self.completion_times.push(now);
        if self.frames_done >= self.model.total_frames {
            self.finish_time = Some(now);
        }
    }

    /// Whether all frames are done.
    pub fn is_complete(&self) -> bool {
        self.finish_time.is_some()
    }

    /// Frames completed so far.
    pub fn frames_completed(&self) -> usize {
        self.frames_done
    }

    /// Time the application finished, if it has.
    pub fn finish_time(&self) -> Option<f64> {
        self.finish_time
    }

    /// Time the application (re)started.
    pub fn start_time(&self) -> f64 {
        self.start_time
    }

    /// Frame completion timestamps.
    pub fn completion_times(&self) -> &[f64] {
        &self.completion_times
    }

    /// Average frames per second since start (0 before any frame).
    pub fn fps(&self, now: f64) -> f64 {
        let elapsed = now - self.start_time;
        if elapsed <= 0.0 {
            0.0
        } else {
            self.frames_done as f64 / elapsed
        }
    }

    /// Frames per second over the trailing `window` seconds — the
    /// performance signal `P` the reward function compares against `P_c`.
    pub fn windowed_fps(&self, now: f64, window: f64) -> f64 {
        if window <= 0.0 {
            return 0.0;
        }
        let cutoff = now - window;
        let recent = self
            .completion_times
            .iter()
            .rev()
            .take_while(|&&t| t >= cutoff)
            .count();
        recent as f64 / window
    }

    /// Shortfall of performance versus the model's constraint,
    /// `P_c − P` (positive = violating the constraint).
    pub fn perf_shortfall(&self, now: f64, window: f64) -> f64 {
        self.model.perf_constraint_fps - self.windowed_fps(now, window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppModel, SyncModel};

    fn tiny_app(frames: usize) -> AppModel {
        AppModel::builder("t")
            .threads(2)
            .frames(frames)
            .parallel_gcycles(0.5)
            .serial_gcycles(0.25)
            .jitter(0.0)
            .build()
            .unwrap()
    }

    fn queue_app(frames: usize) -> AppModel {
        AppModel::builder("q")
            .threads(2)
            .frames(frames)
            .parallel_gcycles(0.5)
            .serial_gcycles(0.25)
            .jitter(0.0)
            .sync(SyncModel::WorkQueue)
            .build()
            .unwrap()
    }

    /// Drives an execution with fixed per-runnable-thread progress per tick.
    fn drive(exec: &mut AppExecution, per_tick: f64, dt: f64, max_ticks: usize) -> f64 {
        let mut now = 0.0;
        for _ in 0..max_ticks {
            if exec.is_complete() {
                break;
            }
            let needs = exec.thread_needs();
            let progress: Vec<f64> = needs
                .iter()
                .map(|n| if n.runnable { per_tick } else { 0.0 })
                .collect();
            now += dt;
            exec.advance(&progress, now);
        }
        now
    }

    #[test]
    fn runs_to_completion() {
        let mut exec = AppExecution::new(tiny_app(3), 1);
        drive(&mut exec, 0.1, 0.01, 10_000);
        assert!(exec.is_complete());
        assert_eq!(exec.frames_completed(), 3);
        assert!(exec.finish_time().is_some());
    }

    #[test]
    fn phase_sequence_parallel_then_serial() {
        let mut exec = AppExecution::new(tiny_app(1), 1);
        // Initially parallel: both threads runnable at high activity.
        let needs = exec.thread_needs();
        assert!(needs.iter().all(|n| n.runnable));
        assert!(needs[0].activity > 0.5);
        // Finish the parallel work in one step.
        exec.advance(&[0.5, 0.5], 0.1);
        let needs = exec.thread_needs();
        assert!(needs[0].runnable, "thread 0 runs the serial section");
        assert!(!needs[1].runnable, "thread 1 blocks at the barrier");
        assert!(needs[0].activity < 0.5, "serial phase is low activity");
        // Finish the serial work.
        exec.advance(&[0.25, 0.0], 0.2);
        assert!(exec.is_complete());
    }

    #[test]
    fn stragglers_block_early_finishers() {
        let mut exec = AppExecution::new(tiny_app(1), 1);
        // Thread 0 finishes its chunk; thread 1 is only halfway.
        exec.advance(&[0.5, 0.25], 0.1);
        let needs = exec.thread_needs();
        assert!(!needs[0].runnable, "finished thread waits at the barrier");
        assert!(needs[1].runnable);
    }

    #[test]
    fn work_queue_keeps_all_threads_busy() {
        let mut exec = AppExecution::new(queue_app(10), 1);
        let needs = exec.thread_needs();
        assert!(needs.iter().all(|n| n.runnable));
        // Uneven progress: thread 0 races ahead but never blocks while
        // items remain.
        for step in 0..20 {
            if exec.is_complete() {
                break;
            }
            exec.advance(&[0.4, 0.1], step as f64 * 0.1);
            if !exec.is_complete() && exec.frames_completed() < 8 {
                let needs = exec.thread_needs();
                assert!(needs[0].runnable, "queue should refill thread 0");
            }
        }
    }

    #[test]
    fn work_queue_completes_all_frames() {
        let mut exec = AppExecution::new(queue_app(7), 1);
        drive(&mut exec, 0.2, 0.1, 1000);
        assert!(exec.is_complete());
        assert_eq!(exec.frames_completed(), 7);
    }

    #[test]
    fn work_queue_single_item_tail_phase_is_low_activity() {
        let mut exec = AppExecution::new(queue_app(2), 1);
        // Finish both hi parts exactly.
        exec.advance(&[0.5, 0.5], 0.1);
        let needs = exec.thread_needs();
        assert!(needs.iter().all(|n| n.runnable));
        assert!(
            needs.iter().all(|n| n.activity < 0.5),
            "tail sections are low activity: {needs:?}"
        );
    }

    #[test]
    fn work_queue_total_work_matches_barrier_accounting() {
        // Driving with the same aggregate throughput, the queue app (2
        // threads) finishes 2 frames in about the time it takes to run
        // 2*(0.5+0.25) GC at 0.2 GC/tick/thread.
        let mut exec = AppExecution::new(queue_app(2), 1);
        let end = drive(&mut exec, 0.05, 0.05, 10_000);
        // total work = 1.5 GC over 2 threads at 0.05/tick → 15 ticks ≈ 0.75s
        assert!(end <= 1.0, "end {end}");
    }

    #[test]
    fn fps_accounting() {
        let mut exec = AppExecution::new(tiny_app(10), 1);
        let end = drive(&mut exec, 0.05, 0.1, 10_000);
        assert!(exec.is_complete());
        let fps = exec.fps(end);
        assert!(fps > 0.0);
        assert!((fps - 10.0 / end).abs() < 1e-9);
    }

    #[test]
    fn windowed_fps_sees_only_recent_frames() {
        let mut exec = AppExecution::new(tiny_app(5), 1);
        let end = drive(&mut exec, 0.5, 1.0, 100);
        assert!(exec.is_complete());
        assert_eq!(exec.windowed_fps(end + 100.0, 1.0), 0.0);
        assert!(exec.windowed_fps(end, end) > 0.0);
    }

    #[test]
    fn perf_shortfall_sign() {
        let mut model = tiny_app(10);
        model.perf_constraint_fps = 1.0;
        let mut exec = AppExecution::new(model, 1);
        assert!(exec.perf_shortfall(10.0, 10.0) > 0.0);
        drive(&mut exec, 1.0, 0.1, 1000);
        let end = exec.finish_time().unwrap();
        assert!(exec.perf_shortfall(end, end.max(1.0)) < 0.0);
    }

    #[test]
    fn restart_resets_progress() {
        let mut exec = AppExecution::new(tiny_app(2), 1);
        drive(&mut exec, 0.5, 0.1, 100);
        assert!(exec.is_complete());
        exec.restart_at(50.0);
        assert!(!exec.is_complete());
        assert_eq!(exec.frames_completed(), 0);
        assert_eq!(exec.start_time(), 50.0);
        assert_eq!(exec.fps(49.0), 0.0);
    }

    #[test]
    fn restart_works_for_queue_apps() {
        let mut exec = AppExecution::new(queue_app(3), 1);
        drive(&mut exec, 0.5, 0.1, 100);
        assert!(exec.is_complete());
        exec.restart_at(10.0);
        assert!(!exec.is_complete());
        let needs = exec.thread_needs();
        assert!(needs.iter().all(|n| n.runnable));
        drive(&mut exec, 0.5, 0.1, 100);
        assert!(exec.is_complete());
    }

    #[test]
    fn complete_app_requests_nothing() {
        let mut exec = AppExecution::new(tiny_app(1), 1);
        drive(&mut exec, 1.0, 0.1, 100);
        let needs = exec.thread_needs();
        assert!(needs.iter().all(|n| !n.runnable));
        exec.advance(&[1.0, 1.0], 99.0);
        assert_eq!(exec.frames_completed(), 1);
    }

    #[test]
    fn jitter_varies_frame_work_deterministically() {
        let model = AppModel::builder("j")
            .threads(1)
            .frames(50)
            .parallel_gcycles(1.0)
            .serial_gcycles(0.0)
            .jitter(0.3)
            .build()
            .unwrap();
        let run = |seed| {
            let mut exec = AppExecution::new(model.clone(), seed);
            let end = drive(&mut exec, 0.01, 0.01, 1_000_000);
            (end, exec.frames_completed())
        };
        assert_eq!(run(5), run(5), "same seed, same trajectory");
        assert_ne!(run(5).0, run(6).0, "different seed, different work");
    }

    #[test]
    fn modulation_makes_slow_waves_in_frame_times() {
        let model = AppModel::builder("m")
            .threads(1)
            .frames(40)
            .parallel_gcycles(1.0)
            .serial_gcycles(0.0)
            .jitter(0.0)
            .modulation(0.5, 20)
            .build()
            .unwrap();
        let mut exec = AppExecution::new(model, 1);
        drive(&mut exec, 0.05, 0.05, 100_000);
        let times = exec.completion_times();
        let durations: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let min = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.5, "modulated frames vary: {min} vs {max}");
    }

    #[test]
    fn activity_modulation_scales_demands() {
        let model = AppModel::builder("a")
            .threads(1)
            .frames(40)
            .parallel_gcycles(1.0)
            .serial_gcycles(0.0)
            .jitter(0.0)
            .modulation(0.6, 10)
            .modulate_activity(true)
            .activities(0.6, 0.3)
            .build()
            .unwrap();
        let mut exec = AppExecution::new(model, 1);
        let mut activities = Vec::new();
        let mut now = 0.0;
        while !exec.is_complete() && now < 1000.0 {
            let needs = exec.thread_needs();
            activities.push(needs[0].activity);
            now += 0.1;
            exec.advance(&[0.05], now);
        }
        let min = activities.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = activities.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > 0.8,
            "peak activity should rise with heavy scenes: {max}"
        );
        assert!(min < 0.35, "light scenes should switch less: {min}");
    }
}
