//! Traced run of one benchmark workload: the per-layer ledger.
//!
//! `ledger --workload NAME --seed N --seconds S --tmp DIR` replays the
//! workload's work through each layer's public functions, checks the
//! replay against the program's own outputs, and prints every per-layer
//! metric; the last line of standard output is the one-line JSON result.

use perfbench::ledger::{self, cells, CampaignLedger};
use perfbench::{campaign, host_speed_ms, Args};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!("usage: ledger --workload NAME --seed N --seconds S --tmp DIR");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_campaign" => ledger::run_campaign(
            &CampaignLedger {
                spec: campaign::paper(),
                cells: |_| cells::paper_cells(),
                paper_payload: true,
            },
            &args,
        ),
        "policy_tournament" => ledger::run_campaign(
            &CampaignLedger {
                spec: campaign::tournament(),
                cells: cells::tournament_cells,
                paper_payload: false,
            },
            &args,
        ),
        _ => ledger::serve::run(&args),
    };
    outcome.print(&args.workload, host_speed_ms());
}
