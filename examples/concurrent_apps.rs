//! The paper's §7 future-work extension: *concurrent* applications.
//! Two benchmarks share the quad-core simultaneously; the controller
//! must manage the combined thermal load and notices when the mix
//! changes (one application completing).
//!
//! ```text
//! cargo run --release --example concurrent_apps
//! ```

use thermorl::prelude::*;
use thermorl::sim::{run_concurrent, NullController, ThermalController};

fn main() {
    // Shrink the workloads so the demo finishes quickly.
    let mut dec = alpbench::mpeg_dec(DataSet::One);
    dec.total_frames = 300;
    let mut tach = alpbench::tachyon(DataSet::Two);
    tach.total_frames = 60;
    let apps = [dec, tach];
    let threads: usize = apps.iter().map(|a| a.num_threads).sum();
    println!(
        "running {} and {} concurrently ({threads} threads total)\n",
        apps[0].name, apps[1].name
    );

    let policies: [(&str, Box<dyn ThermalController>); 2] = [
        ("linux-ondemand", Box::new(NullController::default())),
        (
            "proposed-dac14",
            Box::new(DasDac14Controller::new(ControlConfig::default(), 42)),
        ),
    ];
    for (label, controller) in policies {
        let outcome = run_concurrent(&apps, controller, &SimConfig::default(), 42);
        let r = outcome.reliability_summary();
        println!("policy: {label}");
        for app in &outcome.app_results {
            println!(
                "  {:<10} finished at {:>7.0} s ({} frames)",
                app.name,
                app.finish_time.unwrap_or(f64::NAN),
                app.frames_completed
            );
        }
        println!(
            "  avg T {:.1} degC | TC-MTTF {:.2} y | aging MTTF {:.2} y | dyn {:.1} kJ\n",
            outcome.avg_temperature(),
            r.mttf_cycling_years,
            r.mttf_aging_years,
            outcome.dynamic_energy_j / 1e3
        );
    }
}
