//! Bit-for-bit pins of concurrent-application runs.
//!
//! Each pin was captured from `run_concurrent` while it still had its own
//! copy of the tick loop, before the loop was merged into
//! `Simulation::run`. The mixes are the ones `tests/extensions.rs` and
//! `examples/concurrent_apps.rs` run. A pin compares every float by its
//! bits, and every sensor-profile sample through an FNV-1a digest of the
//! samples' bits, core by core.

use thermorl::prelude::*;
use thermorl::sim::{run_concurrent, Actuation, NullController, Observation, ThermalController};

#[derive(Debug, PartialEq)]
struct Pin<'a> {
    total_time: u64,
    dynamic_energy_j: u64,
    static_energy_j: u64,
    samples: u64,
    decisions: u64,
    migrations: u64,
    /// Per app: the bits of its finish time, and its completed frames.
    apps: &'a [(Option<u64>, usize)],
    /// Samples in each core's sensor profile.
    profile_len: usize,
    /// FNV-1a over the bits of every sensor-profile sample.
    profile_digest: u64,
}

fn check(apps: &[AppModel], controller: Box<dyn ThermalController>, seed: u64, want: &Pin) {
    let out = run_concurrent(apps, controller, &SimConfig::default(), seed);
    let app_pins: Vec<_> = out
        .app_results
        .iter()
        .map(|r| (r.finish_time.map(f64::to_bits), r.frames_completed))
        .collect();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for profile in &out.sensor_profiles {
        assert_eq!(profile.len(), out.sensor_profiles[0].len());
        for s in profile.samples() {
            for b in s.to_bits().to_le_bytes() {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    let got = Pin {
        total_time: out.total_time.to_bits(),
        dynamic_energy_j: out.dynamic_energy_j.to_bits(),
        static_energy_j: out.static_energy_j.to_bits(),
        samples: out.samples,
        decisions: out.decisions,
        migrations: out.migrations,
        apps: &app_pins,
        profile_len: out.sensor_profiles[0].len(),
        profile_digest: digest,
    };
    assert_eq!(&got, want, "{got:#x?}");
}

/// The mix of `tests/extensions.rs`.
fn small_app(name: &str, frames: usize) -> AppModel {
    AppModel::builder(name)
        .threads(3)
        .frames(frames)
        .parallel_gcycles(0.5)
        .serial_gcycles(0.1)
        .perf_constraint_fps(0.1)
        .build()
        .expect("valid model")
}

/// The mix of `examples/concurrent_apps.rs`.
fn example_mix() -> [AppModel; 2] {
    let mut dec = alpbench::mpeg_dec(DataSet::One);
    dec.total_frames = 300;
    let mut tach = alpbench::tachyon(DataSet::Two);
    tach.total_frames = 60;
    [dec, tach]
}

#[test]
fn null_controller_seed_1() {
    check(
        &[small_app("a", 40), small_app("b", 40)],
        Box::new(NullController::default()),
        1,
        &Pin {
            total_time: 0x402bf5c28f5c2867,
            dynamic_energy_j: 0x4081631fecdd0de6,
            static_energy_j: 0x40558e99037347aa,
            samples: 13,
            decisions: 0,
            migrations: 95,
            apps: &[
                (Some(0x402bf5c28f5c2867), 40),
                (Some(0x4029051eb851eb08), 40),
            ],
            profile_len: 13,
            profile_digest: 0x8ab549feab83cb8e,
        },
    );
}

#[test]
fn null_controller_seed_9() {
    check(
        &[small_app("a", 60), small_app("b", 60)],
        Box::new(NullController::default()),
        9,
        &Pin {
            total_time: 0x40357d70a3d70adb,
            dynamic_energy_j: 0x4089c228cfbfc724,
            static_energy_j: 0x40609e35cac9ba08,
            samples: 21,
            decisions: 0,
            migrations: 155,
            apps: &[
                (Some(0x40357d70a3d70adb), 60),
                (Some(0x4033051eb851ebb6), 60),
            ],
            profile_len: 21,
            profile_digest: 0x6a748234b442137d,
        },
    );
}

#[test]
fn proposed_controller_seed_3() {
    check(
        &[small_app("a", 150), small_app("b", 150)],
        Box::new(DasDac14Controller::new(ControlConfig::default(), 3)),
        3,
        &Pin {
            total_time: 0x404b051eb851ea52,
            dynamic_energy_j: 0x40a03ad41bd0408e,
            static_energy_j: 0x4076545e14029c2f,
            samples: 18,
            decisions: 1,
            migrations: 381,
            apps: &[
                (Some(0x404b051eb851ea52), 150),
                (Some(0x4047a7ae147ae0d1), 150),
            ],
            profile_len: 54,
            profile_digest: 0x5afc4fa9276eb1d3,
        },
    );
}

#[test]
fn example_mix_null_controller_seed_42() {
    check(
        &example_mix(),
        Box::new(NullController::default()),
        42,
        &Pin {
            total_time: 0x4076499999998d47,
            dynamic_energy_j: 0x40c7e940fa98cfd8,
            static_energy_j: 0x40a4f3b5af2a15f8,
            samples: 356,
            decisions: 0,
            migrations: 829,
            apps: &[
                (Some(0x4076499999998d47), 300),
                (Some(0x4066ea8f5c28f2c5), 60),
            ],
            profile_len: 356,
            profile_digest: 0xb28b8afe1dc74a0a,
        },
    );
}

#[test]
fn example_mix_proposed_controller_seed_42() {
    check(
        &example_mix(),
        Box::new(DasDac14Controller::new(ControlConfig::default(), 42)),
        42,
        &Pin {
            total_time: 0x407a951eb851dae7,
            dynamic_energy_j: 0x40c55c3cc896d23a,
            static_energy_j: 0x40a4e6c1bec7ee9c,
            samples: 141,
            decisions: 14,
            migrations: 728,
            apps: &[
                (Some(0x407a951eb851dae7), 300),
                (Some(0x406ac947ae147405), 60),
            ],
            profile_len: 425,
            profile_digest: 0x5b4a773bdb95279c,
        },
    );
}

/// Folds every observation the engine hands its controller into one
/// FNV-1a digest, so the merged observation (worst relative fps, the
/// `+`-joined name, index 0, the mix-change flag) is pinned too.
struct ObservationDigest(std::rc::Rc<std::cell::Cell<(u64, u64)>>);

impl ThermalController for ObservationDigest {
    fn name(&self) -> &str {
        "observation-digest"
    }

    fn on_sample(&mut self, obs: &Observation<'_>) -> Option<Actuation> {
        let (mut digest, n) = self.0.get();
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        fold(&obs.time.to_bits().to_le_bytes());
        fold(&obs.fps.to_bits().to_le_bytes());
        fold(&obs.perf_constraint.to_bits().to_le_bytes());
        fold(obs.app_name.as_bytes());
        fold(&obs.app_index.to_le_bytes());
        fold(&[u8::from(obs.app_switched)]);
        for t in obs.sensor_temps.iter().chain(obs.core_freq_ghz) {
            fold(&t.to_bits().to_le_bytes());
        }
        self.0.set((digest, n + 1));
        None
    }
}

#[test]
fn example_mix_observations_seed_42() {
    let seen = std::rc::Rc::new(std::cell::Cell::new((0xcbf2_9ce4_8422_2325u64, 0u64)));
    let out = run_concurrent(
        &example_mix(),
        Box::new(ObservationDigest(seen.clone())),
        &SimConfig::default(),
        42,
    );
    assert_eq!(out.samples, seen.get().1);
    assert_eq!(
        seen.get(),
        (0x186f_b7a5_8a2a_ae56, 356),
        "{:#x?}",
        seen.get()
    );
}
