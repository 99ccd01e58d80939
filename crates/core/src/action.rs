//! The (mapping × governor) action space of the learning agent (§5.1).
//!
//! "The action space of the agent is composed of thread affinity-based
//! assignments and five CPU governors (ondemand, conservative, performance,
//! powersave and userspace). … To restrict the action space, only a few of
//! the alternatives are explored. Similarly, three frequency levels are
//! selected for the userspace CPU governor."

use thermorl_platform::{assignment_presets, CoreClass, GovernorKind, OppTable, ThreadAssignment};

/// One joint action: a thread assignment plus a governor for all cores
/// (optionally refined per core on heterogeneous machines).
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Thread-to-core assignment (`M` component).
    pub assignment: ThreadAssignment,
    /// Governor (`G` component).
    pub governor: GovernorKind,
    /// Per-core governor overrides (§7 heterogeneous extension); applied
    /// on top of `governor` when present.
    pub per_core_governors: Option<Vec<GovernorKind>>,
}

impl Action {
    /// Creates a homogeneous action.
    pub fn new(assignment: ThreadAssignment, governor: GovernorKind) -> Self {
        Action {
            assignment,
            governor,
            per_core_governors: None,
        }
    }

    /// Human-readable label, e.g. `"pack[2,2,1,1]+userspace[2]"`.
    pub fn label(&self) -> String {
        match &self.per_core_governors {
            None => format!("{}+{}", self.assignment.name, self.governor),
            Some(per_core) => {
                let govs: Vec<String> = per_core.iter().map(|g| g.to_string()).collect();
                format!("{}+[{}]", self.assignment.name, govs.join("|"))
            }
        }
    }
}

/// The restricted set of actions the agent may take.
///
/// # Example
///
/// ```
/// use thermorl_control::ActionSpace;
/// use thermorl_platform::OppTable;
///
/// let space = ActionSpace::paper_default(6, 4, &OppTable::intel_quad());
/// assert!(space.len() >= 8);
/// assert!(space.iter().all(|a| a.assignment.len() == 6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ActionSpace {
    actions: Vec<Action>,
}

impl ActionSpace {
    /// Builds a space from explicit actions.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is empty.
    pub fn new(actions: Vec<Action>) -> Self {
        assert!(!actions.is_empty(), "action space cannot be empty");
        ActionSpace { actions }
    }

    /// The paper's default space: a curated ~9-action subset of the
    /// mapping presets × governor product (§5.1 restricts both axes "to
    /// restrict the action space, only a few of the alternatives are
    /// explored"). The governor axis covers ondemand, conservative,
    /// powersave and the three userspace levels (2.4 / 2.8 / 3.2 GHz on
    /// the default table); the mapping axis covers the OS default, the
    /// fixed 2+2+1+1 packing and the half-die grouping.
    pub fn paper_default(num_threads: usize, num_cores: usize, opps: &OppTable) -> Self {
        let mappings = assignment_presets(num_threads, num_cores);
        // The three userspace levels of §5.1: a low thermal-relief point
        // and the two near-peak points where the perf/aging trade-off of
        // the hot benchmarks lives.
        let low = opps.ceil_index(2.4);
        let mid = opps.ceil_index(2.8);
        let high = opps.ceil_index(3.2);
        let os_default = &mappings[0];
        let packed = mappings
            .iter()
            .find(|m| m.name.starts_with("pack[2,2,1,1]"))
            .unwrap_or(&mappings[1 % mappings.len()]);
        let grouped = mappings
            .iter()
            .find(|m| m.name.starts_with("group"))
            .unwrap_or(&mappings[mappings.len() - 1]);
        let mut actions = Vec::new();
        for g in [
            GovernorKind::Ondemand,
            GovernorKind::Conservative,
            GovernorKind::Powersave,
            GovernorKind::Userspace(low),
            GovernorKind::Userspace(mid),
            GovernorKind::Userspace(high),
        ] {
            actions.push(Action::new(os_default.clone(), g));
        }
        actions.push(Action::new(packed.clone(), GovernorKind::Ondemand));
        actions.push(Action::new(packed.clone(), GovernorKind::Userspace(mid)));
        actions.push(Action::new(grouped.clone(), GovernorKind::Userspace(mid)));
        ActionSpace::new(actions)
    }

    /// An action space for heterogeneous (e.g. big.LITTLE) machines: the
    /// homogeneous defaults plus placements that exploit the core classes —
    /// packing the workload onto the efficient cores (cool down the fast
    /// ones) or onto the fast cores (race to idle), with per-core governor
    /// splits that keep the unused class at its floor frequency.
    pub fn hetero_default(num_threads: usize, classes: &[CoreClass], opps: &OppTable) -> Self {
        let num_cores = classes.len();
        let mut actions = ActionSpace::paper_default(num_threads, num_cores, opps).actions;
        let fast_cores: Vec<usize> = (0..num_cores)
            .filter(|&c| classes[c].freq_scale >= 1.0)
            .collect();
        let slow_cores: Vec<usize> = (0..num_cores)
            .filter(|&c| classes[c].freq_scale < 1.0)
            .collect();
        if !fast_cores.is_empty() && !slow_cores.is_empty() {
            let floor_others = |active: &[usize]| -> Vec<GovernorKind> {
                (0..num_cores)
                    .map(|c| {
                        if active.contains(&c) {
                            GovernorKind::Ondemand
                        } else {
                            GovernorKind::Powersave
                        }
                    })
                    .collect()
            };
            let mut on_fast = Action::new(
                ThreadAssignment::grouped(&[(fast_cores.clone(), num_threads)]),
                GovernorKind::Ondemand,
            );
            on_fast.per_core_governors = Some(floor_others(&fast_cores));
            actions.push(on_fast);
            let mut on_slow = Action::new(
                ThreadAssignment::grouped(&[(slow_cores.clone(), num_threads)]),
                GovernorKind::Ondemand,
            );
            on_slow.per_core_governors = Some(floor_others(&slow_cores));
            actions.push(on_slow);
            // Balanced split favouring the fast class.
            let fast_share = num_threads - num_threads / 3;
            if fast_share > 0 && num_threads - fast_share > 0 {
                actions.push(Action::new(
                    ThreadAssignment::grouped(&[
                        (fast_cores, fast_share),
                        (slow_cores, num_threads - fast_share),
                    ]),
                    GovernorKind::Ondemand,
                ));
            }
        }
        ActionSpace::new(actions)
    }

    /// The full cartesian product of the mapping presets and a governor
    /// list (used by the Figure 8 design-space sweep).
    pub fn cartesian(mappings: &[ThreadAssignment], governors: &[GovernorKind]) -> Self {
        let mut actions = Vec::new();
        for m in mappings {
            for &g in governors {
                actions.push(Action::new(m.clone(), g));
            }
        }
        ActionSpace::new(actions)
    }

    /// Keeps only the first `n` actions (Figure 8 sizes the space).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn truncated(mut self, n: usize) -> Self {
        assert!(n > 0, "action space cannot be empty");
        self.actions.truncate(n);
        self
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the space is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The action at `index`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, index: usize) -> &Action {
        &self.actions[index]
    }

    /// Iterates over the actions.
    pub fn iter(&self) -> std::slice::Iter<'_, Action> {
        self.actions.iter()
    }
}

impl<'a> IntoIterator for &'a ActionSpace {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_structure() {
        let s = ActionSpace::paper_default(6, 4, &OppTable::intel_quad());
        // 6 governors on os-default + 2 packed + 1 grouped = 9.
        assert_eq!(s.len(), 9);
        // Distinct labels.
        let labels: std::collections::HashSet<String> = s.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), s.len());
        // Contains the three required userspace frequencies somewhere.
        let userspace: std::collections::HashSet<usize> = s
            .iter()
            .filter_map(|a| match a.governor {
                GovernorKind::Userspace(i) => Some(i),
                _ => None,
            })
            .collect();
        assert!(userspace.len() >= 3, "paper uses three userspace levels");
    }

    #[test]
    fn cartesian_and_truncate() {
        let mappings = assignment_presets(6, 4);
        let governors = [GovernorKind::Ondemand, GovernorKind::Powersave];
        let s = ActionSpace::cartesian(&mappings, &governors);
        assert_eq!(s.len(), mappings.len() * 2);
        let t = s.truncated(4);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn labels_are_informative() {
        let s = ActionSpace::paper_default(6, 4, &OppTable::intel_quad());
        assert!(s.get(0).label().contains("os-default"));
        assert!(s.iter().any(|a| a.label().contains("pack[2,2,1,1]")));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_space_rejected() {
        let _ = ActionSpace::new(vec![]);
    }

    #[test]
    fn hetero_space_adds_class_aware_actions() {
        use thermorl_platform::big_little_quad;
        let classes = big_little_quad();
        let opps = OppTable::intel_quad();
        let homo = ActionSpace::paper_default(6, 4, &opps);
        let hetero = ActionSpace::hetero_default(6, &classes, &opps);
        assert_eq!(hetero.len(), homo.len() + 3);
        // The class-aware actions carry per-core governors.
        let with_per_core = hetero
            .iter()
            .filter(|a| a.per_core_governors.is_some())
            .count();
        assert_eq!(with_per_core, 2);
        // A per-core action's label lists governors per core.
        let labelled = hetero
            .iter()
            .find(|a| a.per_core_governors.is_some())
            .expect("exists");
        assert!(labelled.label().contains('|'), "{}", labelled.label());
    }

    #[test]
    fn homogeneous_classes_add_nothing() {
        use thermorl_platform::CoreClass;
        let classes = vec![CoreClass::big(); 4];
        let opps = OppTable::intel_quad();
        let homo = ActionSpace::paper_default(6, 4, &opps);
        let hetero = ActionSpace::hetero_default(6, &classes, &opps);
        assert_eq!(hetero.len(), homo.len());
    }
}
