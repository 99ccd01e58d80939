//! Application models: fork-join frame loops with per-phase activity.

/// Slow modulation of per-frame work, modelling *intra-application*
/// workload variation (scene changes in a video, image complexity in a
/// render): the work of frame `k` is scaled by
/// `1 + amplitude · sin(2π k / period_frames)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkModulation {
    /// Relative amplitude (0 = constant work).
    pub amplitude: f64,
    /// Modulation period in frames.
    pub period_frames: usize,
}

impl Default for WorkModulation {
    fn default() -> Self {
        WorkModulation {
            amplitude: 0.0,
            period_frames: 1,
        }
    }
}

/// How the threads of an application synchronise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncModel {
    /// Fork-join: each frame is a parallel phase across all threads,
    /// a barrier, then a serial phase on thread 0 while the others block.
    /// This is the codec structure ("inter-thread dependent low activity
    /// cycles", §3).
    #[default]
    Barrier,
    /// Task-parallel: frames sit in a shared queue; each thread pulls one,
    /// executes its parallel part then its serial tail *locally*, and pulls
    /// the next. No cross-thread blocking until the queue drains — the
    /// structure of tachyon's image rendering.
    WorkQueue,
}

/// A multi-threaded application model.
///
/// With [`SyncModel::Barrier`], each *frame* consists of a parallel phase —
/// every thread independently executes `parallel_gcycles` of work at
/// `activity_parallel` — followed by a barrier and a serial phase of
/// `serial_gcycles` executed by thread 0 while the others block. With
/// [`SyncModel::WorkQueue`], each frame is one independent work item
/// (`parallel_gcycles` at high activity plus a `serial_gcycles` tail at low
/// activity) executed entirely by whichever thread pulled it. Performance
/// is frames per second, compared against the constraint
/// `perf_constraint_fps` (the paper's `P_c`).
#[derive(Debug, Clone, PartialEq)]
pub struct AppModel {
    /// Benchmark name, e.g. `"tachyon"`.
    pub name: String,
    /// Input dataset label, e.g. `"set 1"`.
    pub dataset: String,
    /// Number of worker threads (the paper uses 6).
    pub num_threads: usize,
    /// Frames (work items) to completion.
    pub total_frames: usize,
    /// Giga-cycles of parallel work per thread per frame.
    pub parallel_gcycles: f64,
    /// Giga-cycles of serial work per frame (thread 0 only).
    pub serial_gcycles: f64,
    /// Switching activity during parallel bursts (0–1).
    pub activity_parallel: f64,
    /// Switching activity during the serial phase (0–1).
    pub activity_serial: f64,
    /// Memory intensity (0–1), drives the cache-miss model.
    pub mem_intensity: f64,
    /// Performance constraint `P_c` in frames per second.
    pub perf_constraint_fps: f64,
    /// Random per-frame work jitter (relative, uniform ±).
    pub jitter: f64,
    /// Slow intra-application work modulation.
    pub modulation: WorkModulation,
    /// Thread synchronisation structure.
    pub sync: SyncModel,
    /// Whether the frame multiplier also scales switching activity
    /// (complex scenes both take longer *and* switch harder — the
    /// mechanism behind the codecs' deep thermal cycles).
    pub modulate_activity: bool,
}

impl AppModel {
    /// Starts building a model with the given name.
    pub fn builder(name: impl Into<String>) -> AppModelBuilder {
        AppModelBuilder::new(name)
    }

    /// Total work of one *nominal* frame in giga-cycles across all threads.
    pub fn frame_gcycles(&self) -> f64 {
        self.parallel_gcycles * self.num_threads as f64 + self.serial_gcycles
    }

    /// Total nominal work of the whole run in giga-cycles.
    pub fn total_gcycles(&self) -> f64 {
        self.frame_gcycles() * self.total_frames as f64
    }

    /// Rough lower bound on the execution time (s) on `num_cores` cores all
    /// running at `freq_ghz`. For barrier apps the parallel part is
    /// perfectly packed and the serial part single-threaded; work-queue
    /// apps spread whole items over the usable cores. Useful for setting
    /// performance constraints.
    pub fn ideal_time(&self, num_cores: usize, freq_ghz: f64) -> f64 {
        match self.sync {
            SyncModel::Barrier => {
                let par =
                    self.parallel_gcycles * self.num_threads as f64 / (num_cores as f64 * freq_ghz);
                let ser = self.serial_gcycles / freq_ghz;
                (par + ser) * self.total_frames as f64
            }
            SyncModel::WorkQueue => {
                let usable = self.num_threads.min(num_cores) as f64;
                self.total_frames as f64 * (self.parallel_gcycles + self.serial_gcycles)
                    / (usable * freq_ghz)
            }
        }
    }

    /// Serial fraction of a frame's work (0–1): the knob that separates
    /// "mpeg-like" (large) from "tachyon-like" (tiny) thermal signatures.
    pub fn serial_fraction(&self) -> f64 {
        self.serial_gcycles / self.frame_gcycles()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_threads == 0 {
            return Err("application needs at least one thread".into());
        }
        if self.total_frames == 0 {
            return Err("application needs at least one frame".into());
        }
        if self.parallel_gcycles < 0.0 || self.serial_gcycles < 0.0 {
            return Err("work amounts must be non-negative".into());
        }
        if self.parallel_gcycles == 0.0 && self.serial_gcycles == 0.0 {
            return Err("a frame must contain some work".into());
        }
        for (label, v) in [
            ("activity_parallel", self.activity_parallel),
            ("activity_serial", self.activity_serial),
            ("mem_intensity", self.mem_intensity),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{label} must be within 0..=1"));
            }
        }
        if self.jitter < 0.0 || self.jitter >= 1.0 {
            return Err("jitter must be within 0..1".into());
        }
        if self.modulation.amplitude.abs() >= 1.0 || self.modulation.period_frames == 0 {
            return Err("modulation must keep work positive".into());
        }
        Ok(())
    }
}

/// Builder for [`AppModel`] (see [`AppModel::builder`]).
///
/// # Example
///
/// ```
/// use thermorl_workload::AppModel;
///
/// let app = AppModel::builder("custom")
///     .threads(4)
///     .frames(100)
///     .parallel_gcycles(1.0)
///     .serial_gcycles(0.2)
///     .build()
///     .unwrap();
/// assert_eq!(app.num_threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct AppModelBuilder {
    model: AppModel,
}

impl AppModelBuilder {
    /// Starts a builder with neutral defaults (6 threads, 100 frames).
    pub fn new(name: impl Into<String>) -> Self {
        AppModelBuilder {
            model: AppModel {
                name: name.into(),
                dataset: "default".to_string(),
                num_threads: 6,
                total_frames: 100,
                parallel_gcycles: 1.0,
                serial_gcycles: 0.1,
                activity_parallel: 0.9,
                activity_serial: 0.3,
                mem_intensity: 0.5,
                perf_constraint_fps: 0.0,
                jitter: 0.05,
                modulation: WorkModulation::default(),
                sync: SyncModel::Barrier,
                modulate_activity: false,
            },
        }
    }

    /// Sets the dataset label.
    pub fn dataset(mut self, d: impl Into<String>) -> Self {
        self.model.dataset = d.into();
        self
    }

    /// Sets the thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.model.num_threads = n;
        self
    }

    /// Sets the frame count.
    pub fn frames(mut self, n: usize) -> Self {
        self.model.total_frames = n;
        self
    }

    /// Sets the parallel work per thread per frame.
    pub fn parallel_gcycles(mut self, g: f64) -> Self {
        self.model.parallel_gcycles = g;
        self
    }

    /// Sets the serial work per frame.
    pub fn serial_gcycles(mut self, g: f64) -> Self {
        self.model.serial_gcycles = g;
        self
    }

    /// Sets the activity factors of the two phases.
    pub fn activities(mut self, parallel: f64, serial: f64) -> Self {
        self.model.activity_parallel = parallel;
        self.model.activity_serial = serial;
        self
    }

    /// Sets the memory intensity.
    pub fn mem_intensity(mut self, m: f64) -> Self {
        self.model.mem_intensity = m;
        self
    }

    /// Sets the performance constraint (fps).
    pub fn perf_constraint_fps(mut self, fps: f64) -> Self {
        self.model.perf_constraint_fps = fps;
        self
    }

    /// Sets the per-frame work jitter.
    pub fn jitter(mut self, j: f64) -> Self {
        self.model.jitter = j;
        self
    }

    /// Sets the slow work modulation.
    pub fn modulation(mut self, amplitude: f64, period_frames: usize) -> Self {
        self.model.modulation = WorkModulation {
            amplitude,
            period_frames,
        };
        self
    }

    /// Sets the synchronisation structure.
    pub fn sync(mut self, sync: SyncModel) -> Self {
        self.model.sync = sync;
        self
    }

    /// Makes the frame multiplier also scale switching activity.
    pub fn modulate_activity(mut self, on: bool) -> Self {
        self.model.modulate_activity = on;
        self
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// Returns the validation error message when the configuration is
    /// inconsistent (see [`AppModel::validate`]).
    pub fn build(self) -> Result<AppModel, String> {
        self.model.validate()?;
        Ok(self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> AppModel {
        AppModel::builder("x").build().unwrap()
    }

    #[test]
    fn builder_defaults_validate() {
        let m = base();
        assert_eq!(m.num_threads, 6);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn frame_work_accounting() {
        let m = AppModel::builder("x")
            .threads(4)
            .parallel_gcycles(2.0)
            .serial_gcycles(1.0)
            .frames(10)
            .build()
            .unwrap();
        assert_eq!(m.frame_gcycles(), 9.0);
        assert_eq!(m.total_gcycles(), 90.0);
        assert!((m.serial_fraction() - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_time_scales_inversely_with_frequency() {
        let m = base();
        let slow = m.ideal_time(4, 1.6);
        let fast = m.ideal_time(4, 3.4);
        assert!((slow / fast - 3.4 / 1.6).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(AppModel::builder("x").threads(0).build().is_err());
        assert!(AppModel::builder("x").frames(0).build().is_err());
        assert!(AppModel::builder("x")
            .parallel_gcycles(0.0)
            .serial_gcycles(0.0)
            .build()
            .is_err());
        assert!(AppModel::builder("x").activities(1.5, 0.3).build().is_err());
        assert!(AppModel::builder("x").jitter(1.5).build().is_err());
        assert!(AppModel::builder("x").modulation(2.0, 10).build().is_err());
        assert!(AppModel::builder("x").modulation(0.2, 0).build().is_err());
        assert!(AppModel::builder("x").mem_intensity(-0.1).build().is_err());
    }
}
