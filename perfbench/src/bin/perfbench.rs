//! End-to-end run of one benchmark workload.
//!
//! `perfbench --workload NAME --seed N --seconds S --tmp DIR` prints the
//! workload's end-to-end metrics, operations attempted and failed, the
//! output checks and an output digest; the last line of standard output
//! is the one-line JSON result. `run.py` builds this binary and supplies
//! the scratch directory.

use perfbench::{campaign, host_speed_ms, serve, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --tmp DIR");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_campaign" => campaign::run_e2e(&campaign::paper(), &args),
        "policy_tournament" => campaign::run_e2e(&campaign::tournament(), &args),
        _ => serve::run_e2e(&args),
    };
    // Read after the metrics (peak RSS included) are taken.
    outcome.print(&args.workload, host_speed_ms());
}
