//! Inter-application scenarios: back-to-back application sequences.
//!
//! The paper's §6.2 evaluates six scenarios (`appA-appB` means A runs to
//! completion, then B starts): `mpegdec-tachyon`, `tachyon-mpegdec`,
//! `mpegenc-tachyon`, `mpegenc-mpegdec`, and two three-application chains.
//! Scenario switches are what the proposed controller must detect
//! *autonomously* through its moving-average thresholds.

use crate::alpbench::{self, DataSet};
use crate::app::AppModel;

/// An ordered sequence of applications executed back-to-back.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, e.g. `"mpegdec-tachyon"`.
    pub name: String,
    /// The applications, in execution order.
    pub apps: Vec<AppModel>,
}

impl Scenario {
    /// Builds a scenario from applications; the name is derived by joining
    /// compressed app names with dashes, matching the paper's labels.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or thread counts differ between apps (the
    /// simulator reuses one thread pool across the sequence).
    pub fn new(apps: Vec<AppModel>) -> Self {
        assert!(
            !apps.is_empty(),
            "a scenario needs at least one application"
        );
        let threads = apps[0].num_threads;
        assert!(
            apps.iter().all(|a| a.num_threads == threads),
            "all applications in a scenario must use the same thread count"
        );
        let name = apps
            .iter()
            .map(|a| a.name.replace('_', ""))
            .collect::<Vec<_>>()
            .join("-");
        Scenario { name, apps }
    }

    /// A single-application "scenario" (the intra-application experiments).
    pub fn single(app: AppModel) -> Self {
        Scenario::new(vec![app])
    }

    /// Number of applications in the sequence.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the scenario is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Number of threads the scenario's shared pool needs.
    pub fn num_threads(&self) -> usize {
        self.apps[0].num_threads
    }

    /// The six inter-application scenarios of the paper's Figure 3, on the
    /// given dataset.
    pub fn paper_figure3(ds: DataSet) -> Vec<Scenario> {
        vec![
            Scenario::new(vec![alpbench::mpeg_dec(ds), alpbench::tachyon(ds)]),
            Scenario::new(vec![alpbench::tachyon(ds), alpbench::mpeg_dec(ds)]),
            Scenario::new(vec![alpbench::mpeg_enc(ds), alpbench::tachyon(ds)]),
            Scenario::new(vec![alpbench::mpeg_enc(ds), alpbench::mpeg_dec(ds)]),
            Scenario::new(vec![
                alpbench::mpeg_dec(ds),
                alpbench::tachyon(ds),
                alpbench::mpeg_enc(ds),
            ]),
            Scenario::new(vec![
                alpbench::tachyon(ds),
                alpbench::mpeg_enc(ds),
                alpbench::mpeg_dec(ds),
            ]),
        ]
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_derivation_matches_paper_labels() {
        let s = Scenario::new(vec![
            alpbench::mpeg_dec(DataSet::One),
            alpbench::tachyon(DataSet::One),
        ]);
        assert_eq!(s.name, "mpegdec-tachyon");
        assert_eq!(s.to_string(), "mpegdec-tachyon");
    }

    #[test]
    fn figure3_scenarios() {
        let scenarios = Scenario::paper_figure3(DataSet::One);
        assert_eq!(scenarios.len(), 6);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"mpegdec-tachyon"));
        assert!(names.contains(&"tachyon-mpegenc-mpegdec"));
        // Two three-application chains.
        assert_eq!(scenarios.iter().filter(|s| s.len() == 3).count(), 2);
    }

    #[test]
    fn single_scenario() {
        let s = Scenario::single(alpbench::sphinx(DataSet::Two));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.num_threads(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one application")]
    fn empty_scenario_rejected() {
        let _ = Scenario::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "same thread count")]
    fn mismatched_thread_counts_rejected() {
        let mut a = alpbench::tachyon(DataSet::One);
        a.num_threads = 4;
        let _ = Scenario::new(vec![a, alpbench::mpeg_dec(DataSet::One)]);
    }
}
