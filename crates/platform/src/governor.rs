//! The five cpufreq governors of the paper's action space.
//!
//! Decision rules follow the kernel documentation (and Pallipadi &
//! Starikovskiy's OLS'06 ondemand paper, the paper's \[13\]):
//!
//! * **ondemand** — jump straight to the highest frequency when utilisation
//!   crosses `up_threshold`; otherwise pick the lowest frequency that would
//!   keep utilisation below the threshold.
//! * **conservative** — step one frequency up/down when utilisation crosses
//!   the up/down thresholds (graceful, battery-oriented).
//! * **performance** / **powersave** — pin to the highest/lowest point.
//! * **userspace** — pin to an explicitly chosen operating point (the RL
//!   agent uses three such frequencies, §5.1).
//! * **schedutil** — the *modern* kernel default (post-4.7), included as an
//!   extension beyond the paper's 2014 platform: frequency proportional to
//!   utilisation with a 25 % headroom factor.

use crate::opp::OppTable;

/// Which cpufreq governor drives a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorKind {
    /// Kernel default on the paper's platform: aggressive ramp-up.
    Ondemand,
    /// Gradual one-step frequency changes.
    Conservative,
    /// Always the highest frequency.
    Performance,
    /// Always the lowest frequency.
    Powersave,
    /// Fixed user-chosen OPP index (`cpufreq-set -g userspace`).
    Userspace(usize),
    /// Modern utilisation-proportional governor (extension; not part of
    /// the paper's 2014 action space).
    Schedutil,
}

impl std::fmt::Display for GovernorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GovernorKind::Ondemand => write!(f, "ondemand"),
            GovernorKind::Conservative => write!(f, "conservative"),
            GovernorKind::Performance => write!(f, "performance"),
            GovernorKind::Powersave => write!(f, "powersave"),
            GovernorKind::Userspace(i) => write!(f, "userspace[{i}]"),
            GovernorKind::Schedutil => write!(f, "schedutil"),
        }
    }
}

/// Tunables shared by the dynamic governors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorTunables {
    /// Utilisation evaluation period in seconds (kernel sampling rate).
    pub sampling_period: f64,
    /// Ondemand/conservative ramp-up threshold (fraction of busy time).
    pub up_threshold: f64,
    /// Conservative step-down threshold.
    pub down_threshold: f64,
}

impl Default for GovernorTunables {
    fn default() -> Self {
        GovernorTunables {
            sampling_period: 0.1,
            up_threshold: 0.95,
            down_threshold: 0.20,
        }
    }
}

/// Per-core governor state machine: feed it busy time, it returns OPP
/// changes.
///
/// # Example
///
/// ```
/// use thermorl_platform::{GovernorKind, GovernorState, OppTable};
///
/// let table = OppTable::intel_quad();
/// let mut gov = GovernorState::new(GovernorKind::Ondemand, &table);
/// // A fully busy 100 ms window triggers a jump to fmax.
/// let change = gov.observe(0.1, 1.0, &table);
/// assert_eq!(change, Some(table.max_index()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorState {
    kind: GovernorKind,
    tunables: GovernorTunables,
    current: usize,
    window_time: f64,
    window_busy: f64,
}

impl GovernorState {
    /// Creates governor state with default tunables; the initial OPP is the
    /// governor's natural resting point.
    pub fn new(kind: GovernorKind, table: &OppTable) -> Self {
        GovernorState::with_tunables(kind, table, GovernorTunables::default())
    }

    /// Creates governor state with explicit tunables.
    ///
    /// # Panics
    ///
    /// Panics if a `Userspace` index is out of the table's range.
    pub fn with_tunables(kind: GovernorKind, table: &OppTable, tunables: GovernorTunables) -> Self {
        let current = match kind {
            GovernorKind::Performance => table.max_index(),
            GovernorKind::Powersave => table.min_index(),
            GovernorKind::Ondemand | GovernorKind::Conservative | GovernorKind::Schedutil => {
                table.min_index()
            }
            GovernorKind::Userspace(i) => {
                assert!(i < table.len(), "userspace OPP index {i} out of range");
                i
            }
        };
        GovernorState {
            kind,
            tunables,
            current,
            window_time: 0.0,
            window_busy: 0.0,
        }
    }

    /// The governor kind.
    pub fn kind(&self) -> GovernorKind {
        self.kind
    }

    /// The OPP index the governor currently requests.
    pub fn current_index(&self) -> usize {
        self.current
    }

    /// Switches the governor (e.g. when the RL agent's action changes);
    /// returns the OPP index the new governor starts at. State is reset but
    /// dynamic governors keep the current frequency until their first
    /// evaluation, like the kernel does.
    pub fn switch(&mut self, kind: GovernorKind, table: &OppTable) -> usize {
        let keep = self.current;
        *self = GovernorState::with_tunables(kind, table, self.tunables);
        if matches!(
            kind,
            GovernorKind::Ondemand | GovernorKind::Conservative | GovernorKind::Schedutil
        ) {
            self.current = keep;
        }
        self.current
    }

    /// Accumulates `dt` seconds of which `busy_frac` were busy; returns
    /// `Some(new_index)` when an evaluation period elapses and the governor
    /// decides to change frequency.
    pub fn observe(&mut self, dt: f64, busy_frac: f64, table: &OppTable) -> Option<usize> {
        match self.kind {
            GovernorKind::Performance | GovernorKind::Powersave | GovernorKind::Userspace(_) => {
                None
            }
            GovernorKind::Ondemand | GovernorKind::Conservative | GovernorKind::Schedutil => {
                self.window_time += dt;
                self.window_busy += dt * busy_frac.clamp(0.0, 1.0);
                if self.window_time + 1e-12 < self.tunables.sampling_period {
                    return None;
                }
                let util = self.window_busy / self.window_time;
                self.window_time = 0.0;
                self.window_busy = 0.0;
                let next = match self.kind {
                    GovernorKind::Schedutil => {
                        // next_freq = 1.25 * f_max * util, snapped upward.
                        let target = 1.25 * table.get(table.max_index()).freq_ghz * util;
                        table.ceil_index(target)
                    }
                    GovernorKind::Ondemand => {
                        if util >= self.tunables.up_threshold {
                            table.max_index()
                        } else {
                            // Lowest frequency that keeps utilisation below
                            // the threshold at the *current* workload.
                            let cur_freq = table.get(self.current).freq_ghz;
                            let needed = cur_freq * util / self.tunables.up_threshold;
                            table.ceil_index(needed)
                        }
                    }
                    GovernorKind::Conservative => {
                        if util >= self.tunables.up_threshold {
                            (self.current + 1).min(table.max_index())
                        } else if util <= self.tunables.down_threshold {
                            self.current.saturating_sub(1)
                        } else {
                            self.current
                        }
                    }
                    _ => unreachable!(),
                };
                if next != self.current {
                    self.current = next;
                    Some(next)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OppTable {
        OppTable::intel_quad()
    }

    #[test]
    fn static_governors_never_change() {
        let t = table();
        let mut perf = GovernorState::new(GovernorKind::Performance, &t);
        let mut save = GovernorState::new(GovernorKind::Powersave, &t);
        let mut user = GovernorState::new(GovernorKind::Userspace(2), &t);
        for _ in 0..100 {
            assert_eq!(perf.observe(0.1, 1.0, &t), None);
            assert_eq!(save.observe(0.1, 1.0, &t), None);
            assert_eq!(user.observe(0.1, 0.0, &t), None);
        }
        assert_eq!(perf.current_index(), t.max_index());
        assert_eq!(save.current_index(), 0);
        assert_eq!(user.current_index(), 2);
    }

    #[test]
    fn ondemand_jumps_to_max_under_load() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Ondemand, &t);
        assert_eq!(g.observe(0.1, 1.0, &t), Some(t.max_index()));
    }

    #[test]
    fn ondemand_steps_down_when_idle() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Ondemand, &t);
        g.observe(0.1, 1.0, &t); // now at max
        let change = g.observe(0.1, 0.0, &t);
        assert_eq!(change, Some(0), "idle window should drop to fmin");
    }

    #[test]
    fn ondemand_partial_load_picks_proportional_point() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Ondemand, &t);
        g.observe(0.1, 1.0, &t); // at 3.4 GHz
                                 // 50% utilisation at 3.4 GHz needs >= 3.4*0.5/0.95 = 1.79 GHz → 2.0.
        assert_eq!(g.observe(0.1, 0.5, &t), Some(1));
    }

    #[test]
    fn ondemand_accumulates_subsample_windows() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Ondemand, &t);
        // Nine 10ms ticks: below the 100ms sampling period → no decision.
        for _ in 0..9 {
            assert_eq!(g.observe(0.01, 1.0, &t), None);
        }
        // The tenth completes the window.
        assert_eq!(g.observe(0.01, 1.0, &t), Some(t.max_index()));
    }

    #[test]
    fn conservative_steps_one_at_a_time() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Conservative, &t);
        assert_eq!(g.observe(0.1, 1.0, &t), Some(1));
        assert_eq!(g.observe(0.1, 1.0, &t), Some(2));
        assert_eq!(g.observe(0.1, 0.0, &t), Some(1));
        assert_eq!(g.observe(0.1, 0.0, &t), Some(0));
        assert_eq!(g.observe(0.1, 0.0, &t), None, "already at the floor");
    }

    #[test]
    fn conservative_holds_in_the_middle_band() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Conservative, &t);
        g.observe(0.1, 1.0, &t);
        assert_eq!(g.observe(0.1, 0.5, &t), None);
        assert_eq!(g.current_index(), 1);
    }

    #[test]
    fn switch_preserves_frequency_for_dynamic_governors() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Ondemand, &t);
        g.observe(0.1, 1.0, &t);
        assert_eq!(g.current_index(), t.max_index());
        let idx = g.switch(GovernorKind::Conservative, &t);
        assert_eq!(
            idx,
            t.max_index(),
            "conservative takes over at current freq"
        );
        let idx = g.switch(GovernorKind::Powersave, &t);
        assert_eq!(idx, 0);
        let idx = g.switch(GovernorKind::Userspace(3), &t);
        assert_eq!(idx, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn userspace_index_validated() {
        let t = table();
        let _ = GovernorState::new(GovernorKind::Userspace(99), &t);
    }

    #[test]
    fn display_names() {
        assert_eq!(GovernorKind::Ondemand.to_string(), "ondemand");
        assert_eq!(GovernorKind::Userspace(2).to_string(), "userspace[2]");
        assert_eq!(GovernorKind::Schedutil.to_string(), "schedutil");
    }

    #[test]
    fn schedutil_tracks_utilisation_proportionally() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Schedutil, &t);
        // Full load: 1.25 * 3.4 = 4.25 -> clamped to fmax.
        assert_eq!(g.observe(0.1, 1.0, &t), Some(t.max_index()));
        // 50% load: 1.25 * 3.4 * 0.5 = 2.125 -> 2.4 GHz (index 2).
        assert_eq!(g.observe(0.1, 0.5, &t), Some(2));
        // Idle drops to the floor.
        assert_eq!(g.observe(0.1, 0.0, &t), Some(0));
    }

    #[test]
    fn schedutil_needs_a_full_window() {
        let t = table();
        let mut g = GovernorState::new(GovernorKind::Schedutil, &t);
        assert_eq!(g.observe(0.05, 1.0, &t), None, "window incomplete");
        assert_eq!(g.observe(0.05, 1.0, &t), Some(t.max_index()));
    }
}
