//! Calibrated presets of the five ALPBench benchmarks used in the paper.
//!
//! Work amounts are calibrated so that, under the Linux ondemand baseline on
//! the default quad-core machine (4 cores, 1.6–3.4 GHz), execution times
//! land near the paper's Table 3 (tachyon ≈ 630 s, mpeg_dec ≈ 1200 s,
//! mpeg_enc ≈ 1620 s) and thermal profiles match the §3/§6 characterisation:
//! tachyon runs hottest (≈ 50–70 °C averages depending on dataset), the
//! mpeg codecs run cool (≈ mid-thirties) but with pronounced thermal
//! cycling from their fork-join structure.

use crate::app::{AppModel, SyncModel};

/// The three input datasets per benchmark of Table 2 (`set 1..3`,
/// `clip 1..3`, `seq 1..3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSet {
    /// First input (Table 2's heaviest tachyon set).
    One,
    /// Second input.
    Two,
    /// Third input.
    Three,
}

impl DataSet {
    /// All three datasets in paper order.
    pub fn all() -> [DataSet; 3] {
        [DataSet::One, DataSet::Two, DataSet::Three]
    }

    /// 1-based index of the dataset.
    pub fn index(self) -> usize {
        match self {
            DataSet::One => 1,
            DataSet::Two => 2,
            DataSet::Three => 3,
        }
    }
}

impl std::fmt::Display for DataSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.index())
    }
}

/// Attaches the standard performance constraint: the paper penalises
/// actions that fall short of `P_c`. We grant headroom over the best-case
/// (all cores at fmax) frame rate: 20 % for work-queue apps, 35 % for
/// barrier apps whose `ideal_time` ignores fork-join straggling.
fn with_constraint(mut model: AppModel) -> AppModel {
    let headroom = match model.sync {
        SyncModel::Barrier => 1.4,
        SyncModel::WorkQueue => 1.45,
    };
    let best_time = model.ideal_time(4, 3.4);
    model.perf_constraint_fps = model.total_frames as f64 / (headroom * best_time);
    model
}

/// `tachyon` — parallel ray tracer rendering 300 images from a shared work
/// queue: every thread renders whole images independently (no barriers),
/// so the die stays uniformly loaded; the hottest benchmark.
pub fn tachyon(ds: DataSet) -> AppModel {
    let (par, act, modulation, act_mod) = match ds {
        // Set 1 renders a heavy scene at near-full switching activity and a
        // nearly flat profile — the hot 69 degC / low-cycling row of
        // Table 2 (TC-MTTF 7.1 years under Linux).
        DataSet::One => (28.0, 0.98, (0.02, 75), false),
        // Sets 2 and 3 are cooler but scene-varying: moderate and strong
        // cycling respectively (Linux TC-MTTF 2.8 and 1.3 years).
        DataSet::Two => (26.5, 0.74, (0.35, 30), true),
        DataSet::Three => (26.0, 0.72, (0.55, 20), true),
    };
    with_constraint(
        AppModel::builder("tachyon")
            .dataset(format!("set {}", ds.index()))
            .threads(6)
            .frames(300)
            .parallel_gcycles(par)
            .serial_gcycles(0.5)
            .activities(act, 0.25)
            .mem_intensity(0.30)
            .jitter(0.05)
            .modulation(modulation.0, modulation.1)
            .modulate_activity(act_mod)
            .sync(SyncModel::WorkQueue)
            .build()
            .expect("preset is valid"),
    )
}

/// `mpeg_dec` — MPEG-2 decoder: short parallel slice decoding, a long
/// serial entropy-decode section per frame; cool but cycling-prone.
pub fn mpeg_dec(ds: DataSet) -> AppModel {
    let (par, serial, modulation, jitter) = match ds {
        // The GOP/scene structure swings the parallel:serial duty cycle
        // hard, producing the deep 10-20 s thermal cycles that make the
        // codecs the cycling-limited benchmarks of Table 2.
        DataSet::One => (0.90, 1.30, (0.60, 12), 0.15),
        DataSet::Two => (0.95, 1.20, (0.65, 10), 0.10),
        DataSet::Three => (0.85, 1.15, (0.55, 16), 0.08),
    };
    with_constraint(
        AppModel::builder("mpeg_dec")
            .dataset(format!("clip {}", ds.index()))
            .threads(6)
            .frames(1300)
            .parallel_gcycles(par)
            .serial_gcycles(serial)
            .activities(0.50, 0.35)
            .mem_intensity(0.60)
            .jitter(jitter)
            .modulation(modulation.0, modulation.1)
            .modulate_activity(true)
            .build()
            .expect("preset is valid"),
    )
}

/// `mpeg_enc` — MPEG-2 encoder: motion estimation parallelises better than
/// decoding but keeps a serial rate-control section.
pub fn mpeg_enc(ds: DataSet) -> AppModel {
    let (par, serial, modulation) = match ds {
        // Encoding cycles more mildly than decoding (Table 2: TC-MTTF
        // 3.9-4.6 years under Linux).
        DataSet::One => (1.50, 1.20, (0.40, 20)),
        DataSet::Two => (1.45, 1.25, (0.45, 16)),
        DataSet::Three => (1.40, 1.15, (0.38, 24)),
    };
    with_constraint(
        AppModel::builder("mpeg_enc")
            .dataset(format!("seq {}", ds.index()))
            .threads(6)
            .frames(1350)
            .parallel_gcycles(par)
            .serial_gcycles(serial)
            .activities(0.52, 0.35)
            .mem_intensity(0.50)
            .jitter(0.10)
            .modulation(modulation.0, modulation.1)
            .modulate_activity(true)
            .build()
            .expect("preset is valid"),
    )
}

/// `face_rec` — face recogniser: long thread-independent high-activity
/// phases, short dependent phases (§3's motivational application).
pub fn face_rec(ds: DataSet) -> AppModel {
    let (par, act) = match ds {
        DataSet::One => (12.0, 0.90),
        DataSet::Two => (11.0, 0.85),
        DataSet::Three => (10.0, 0.82),
    };
    with_constraint(
        AppModel::builder("face_rec")
            .dataset(format!("data {}", ds.index()))
            .threads(6)
            .frames(120)
            .parallel_gcycles(par)
            .serial_gcycles(0.3)
            .activities(act, 0.30)
            .mem_intensity(0.40)
            .jitter(0.04)
            .modulation(0.05, 30)
            .build()
            .expect("preset is valid"),
    )
}

/// `sphinx` — speech recogniser: moderate compute, memory-bound.
pub fn sphinx(ds: DataSet) -> AppModel {
    let (par, serial) = match ds {
        DataSet::One => (2.0, 0.80),
        DataSet::Two => (1.9, 0.85),
        DataSet::Three => (1.8, 0.75),
    };
    with_constraint(
        AppModel::builder("sphinx")
            .dataset(format!("audio {}", ds.index()))
            .threads(6)
            .frames(400)
            .parallel_gcycles(par)
            .serial_gcycles(serial)
            .activities(0.60, 0.40)
            .mem_intensity(0.75)
            .jitter(0.12)
            .modulation(0.20, 25)
            .modulate_activity(true)
            .build()
            .expect("preset is valid"),
    )
}

/// All five benchmarks on one dataset, in the paper's order.
pub fn suite(ds: DataSet) -> Vec<AppModel> {
    vec![
        mpeg_enc(ds),
        mpeg_dec(ds),
        face_rec(ds),
        sphinx(ds),
        tachyon(ds),
    ]
}

/// Looks a benchmark up by name (`"tachyon"`, `"mpeg_dec"`, `"mpeg_enc"`,
/// `"face_rec"`, `"sphinx"`).
pub fn by_name(name: &str, ds: DataSet) -> Option<AppModel> {
    match name {
        "tachyon" => Some(tachyon(ds)),
        "mpeg_dec" => Some(mpeg_dec(ds)),
        "mpeg_enc" => Some(mpeg_enc(ds)),
        "face_rec" => Some(face_rec(ds)),
        "sphinx" => Some(sphinx(ds)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for ds in DataSet::all() {
            for app in suite(ds) {
                assert!(app.validate().is_ok(), "{} {}", app.name, app.dataset);
                assert_eq!(app.num_threads, 6, "paper uses six threads");
                assert!(app.perf_constraint_fps > 0.0);
            }
        }
    }

    #[test]
    fn tachyon_ideal_time_matches_table3_scale() {
        // Table 3: tachyon under ondemand ≈ 629 s; the ideal bound must sit
        // below but in the same ballpark.
        let t = tachyon(DataSet::One).ideal_time(4, 3.4);
        assert!(t > 450.0 && t < 700.0, "tachyon ideal time {t}");
    }

    #[test]
    fn mpeg_times_match_table3_scale() {
        let dec = mpeg_dec(DataSet::One).ideal_time(4, 3.4);
        let enc = mpeg_enc(DataSet::One).ideal_time(4, 3.4);
        assert!(dec > 800.0 && dec < 1400.0, "mpeg_dec ideal time {dec}");
        assert!(enc > 1100.0 && enc < 1800.0, "mpeg_enc ideal time {enc}");
        assert!(enc > dec, "encoding is slower than decoding (Table 3)");
    }

    #[test]
    fn serial_fractions_separate_the_apps() {
        // The codecs are dependency-heavy; tachyon set 1 is embarrassingly
        // parallel; face_rec sits in between (short dependent phases).
        assert!(mpeg_dec(DataSet::One).serial_fraction() > 0.15);
        assert!(tachyon(DataSet::One).serial_fraction() < 0.01);
        assert!(face_rec(DataSet::One).serial_fraction() < 0.01);
    }

    #[test]
    fn tachyon_is_the_hot_benchmark() {
        let t = tachyon(DataSet::One);
        for other in [mpeg_dec(DataSet::One), mpeg_enc(DataSet::One)] {
            assert!(t.activity_parallel > other.activity_parallel);
        }
    }

    #[test]
    fn by_name_roundtrip() {
        for name in ["tachyon", "mpeg_dec", "mpeg_enc", "face_rec", "sphinx"] {
            let app = by_name(name, DataSet::Two).unwrap();
            assert_eq!(app.name, name);
        }
        assert!(by_name("doom", DataSet::One).is_none());
    }

    #[test]
    fn datasets_are_distinct() {
        let a = tachyon(DataSet::One);
        let b = tachyon(DataSet::Two);
        assert_ne!(a.dataset, b.dataset);
        assert_ne!(
            (a.parallel_gcycles, a.activity_parallel),
            (b.parallel_gcycles, b.activity_parallel)
        );
    }

    #[test]
    fn dataset_display_and_index() {
        assert_eq!(DataSet::One.to_string(), "1");
        assert_eq!(DataSet::Three.index(), 3);
        assert_eq!(DataSet::all().len(), 3);
    }
}
