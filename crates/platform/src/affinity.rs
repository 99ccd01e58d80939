//! CPU affinity masks and thread-to-core assignments.
//!
//! The paper overrides the Linux scheduler "by changing all thread's
//! affinity masks, forcing the kernel to migrate these threads to the cores
//! specified" (§3). [`AffinityMask`] mirrors the `cpu_set_t` bitmask of
//! `pthread_setaffinity_np`, and [`assignment_presets`] enumerates the
//! restricted set of assignments the Q-learning action space explores
//! (§5.1 notes the full space grows exponentially, so "only a few of the
//! alternatives are explored").

/// A bitmask of allowed cores for one thread, like Linux's `cpu_set_t`.
///
/// # Example
///
/// ```
/// use thermorl_platform::AffinityMask;
///
/// let m = AffinityMask::from_cores(&[0, 2]);
/// assert!(m.contains(0) && !m.contains(1));
/// assert_eq!(m.count(), 2);
/// assert_eq!(format!("{m:b}"), "101");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AffinityMask(u64);

impl AffinityMask {
    /// Mask allowing all of the first `n` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds 64.
    pub fn all(n: usize) -> Self {
        assert!(n > 0 && n <= 64, "core count must be in 1..=64");
        if n == 64 {
            AffinityMask(u64::MAX)
        } else {
            AffinityMask((1u64 << n) - 1)
        }
    }

    /// Mask pinning a thread to a single core.
    ///
    /// # Panics
    ///
    /// Panics if `core >= 64`.
    pub fn single(core: usize) -> Self {
        assert!(core < 64, "core index out of range");
        AffinityMask(1u64 << core)
    }

    /// Mask from an explicit core list.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or any index is ≥ 64.
    pub fn from_cores(cores: &[usize]) -> Self {
        assert!(!cores.is_empty(), "affinity mask cannot be empty");
        let mut bits = 0u64;
        for &c in cores {
            assert!(c < 64, "core index out of range");
            bits |= 1 << c;
        }
        AffinityMask(bits)
    }

    /// The raw bits, as passed to `pthread_setaffinity_np`.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Whether `core` is allowed by this mask.
    pub fn contains(self, core: usize) -> bool {
        core < 64 && self.0 & (1 << core) != 0
    }

    /// Number of allowed cores.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The allowed core indices in ascending order.
    pub fn cores(self) -> Vec<usize> {
        (0..64).filter(|&c| self.contains(c)).collect()
    }

    /// Intersection of two masks, `None` if disjoint.
    pub fn intersect(self, other: AffinityMask) -> Option<AffinityMask> {
        let bits = self.0 & other.0;
        if bits == 0 {
            None
        } else {
            Some(AffinityMask(bits))
        }
    }
}

impl std::fmt::Display for AffinityMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.cores().into_iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl std::fmt::Binary for AffinityMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Binary::fmt(&self.0, f)
    }
}

impl std::fmt::LowerHex for AffinityMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl std::fmt::UpperHex for AffinityMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::UpperHex::fmt(&self.0, f)
    }
}

impl std::fmt::Octal for AffinityMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Octal::fmt(&self.0, f)
    }
}

impl std::ops::BitOr for AffinityMask {
    type Output = AffinityMask;

    fn bitor(self, rhs: AffinityMask) -> AffinityMask {
        AffinityMask(self.0 | rhs.0)
    }
}

/// A complete thread-to-core assignment: one mask per thread, in thread
/// order. This is the unit the learning agent's "mapping" actions select.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThreadAssignment {
    /// Human-readable pattern name, e.g. `"pack[2,2,1,1]"`.
    pub name: String,
    /// Per-thread affinity masks.
    pub masks: Vec<AffinityMask>,
}

impl ThreadAssignment {
    /// The OS-default assignment: every thread may run anywhere; the load
    /// balancer decides (the paper's "Linux thread assignment").
    pub fn os_default(num_threads: usize, num_cores: usize) -> Self {
        ThreadAssignment {
            name: "os-default".to_string(),
            masks: vec![AffinityMask::all(num_cores); num_threads],
        }
    }

    /// Builds a packed assignment from per-core thread counts, e.g.
    /// `[2, 2, 1, 1]` puts two threads on cores 0 and 1 and one on each of
    /// cores 2 and 3 — the fixed assignment of the paper's §3 experiment.
    ///
    /// # Panics
    ///
    /// Panics if the counts do not sum to the intended thread count.
    pub fn packed(counts: &[usize]) -> Self {
        let total: usize = counts.iter().sum();
        assert!(total > 0, "assignment must place at least one thread");
        let mut masks = Vec::with_capacity(total);
        for (core, &n) in counts.iter().enumerate() {
            for _ in 0..n {
                masks.push(AffinityMask::single(core));
            }
        }
        let name = format!(
            "pack[{}]",
            counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        ThreadAssignment { name, masks }
    }

    /// Splits threads across core *groups*: each group of threads may float
    /// within its group of cores (a partial affinity restriction).
    ///
    /// # Panics
    ///
    /// Panics if groups are empty.
    pub fn grouped(groups: &[(Vec<usize>, usize)]) -> Self {
        let mut masks = Vec::new();
        let mut label = Vec::new();
        for (cores, nthreads) in groups {
            let mask = AffinityMask::from_cores(cores);
            for _ in 0..*nthreads {
                masks.push(mask);
            }
            label.push(format!(
                "{}x{}",
                nthreads,
                cores
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join("")
            ));
        }
        assert!(
            !masks.is_empty(),
            "assignment must place at least one thread"
        );
        ThreadAssignment {
            name: format!("group[{}]", label.join("|")),
            masks,
        }
    }

    /// Number of threads covered.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether the assignment covers no threads.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }
}

/// The restricted mapping alternatives explored by the learning agent for
/// `num_threads` threads on `num_cores` cores (§5.1). For the paper's
/// 6-threads-on-4-cores configuration this yields the OS default plus four
/// hand-picked patterns; other shapes degrade to sensible generic splits.
pub fn assignment_presets(num_threads: usize, num_cores: usize) -> Vec<ThreadAssignment> {
    let mut presets = vec![ThreadAssignment::os_default(num_threads, num_cores)];
    if num_cores >= 4 && num_threads == 6 {
        // The paper's motivating pattern: 2+2+1+1.
        presets.push(ThreadAssignment::packed(&[2, 2, 1, 1]));
        // Consolidate on fewer cores (lets the others cool).
        presets.push(ThreadAssignment::packed(&[3, 3, 0, 0]));
        presets.push(ThreadAssignment::packed(&[2, 2, 2, 0]));
        // Pair halves of the die, float within each half.
        presets.push(ThreadAssignment::grouped(&[
            (vec![0, 1], 3),
            (vec![2, 3], 3),
        ]));
    } else {
        // Generic fallbacks: even packing and a half-die split.
        let mut counts = vec![num_threads / num_cores; num_cores];
        for c in counts.iter_mut().take(num_threads % num_cores) {
            *c += 1;
        }
        presets.push(ThreadAssignment::packed(&counts));
        if num_cores >= 2 {
            let half = num_cores / 2;
            presets.push(ThreadAssignment::grouped(&[
                ((0..half).collect(), num_threads / 2 + num_threads % 2),
                ((half..num_cores).collect(), num_threads / 2),
            ]));
        }
    }
    presets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_basics() {
        let m = AffinityMask::all(4);
        assert_eq!(m.bits(), 0b1111);
        assert_eq!(m.count(), 4);
        assert_eq!(m.cores(), vec![0, 1, 2, 3]);
        assert!(!m.contains(4));
        assert_eq!(AffinityMask::single(2).bits(), 0b100);
    }

    #[test]
    fn mask_of_64_cores() {
        assert_eq!(AffinityMask::all(64).count(), 64);
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn zero_core_mask_rejected() {
        let _ = AffinityMask::all(0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_core_list_rejected() {
        let _ = AffinityMask::from_cores(&[]);
    }

    #[test]
    fn mask_intersection() {
        let a = AffinityMask::from_cores(&[0, 1]);
        let b = AffinityMask::from_cores(&[1, 2]);
        assert_eq!(a.intersect(b), Some(AffinityMask::single(1)));
        let c = AffinityMask::from_cores(&[2, 3]);
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn mask_formatting() {
        let m = AffinityMask::from_cores(&[0, 3]);
        assert_eq!(m.to_string(), "{0,3}");
        assert_eq!(format!("{m:b}"), "1001");
        assert_eq!(format!("{m:x}"), "9");
        assert_eq!(format!("{m:o}"), "11");
    }

    #[test]
    fn mask_bitor() {
        let m = AffinityMask::single(0) | AffinityMask::single(3);
        assert_eq!(m, AffinityMask::from_cores(&[0, 3]));
    }

    #[test]
    fn packed_assignment_structure() {
        let a = ThreadAssignment::packed(&[2, 2, 1, 1]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.masks[0], AffinityMask::single(0));
        assert_eq!(a.masks[1], AffinityMask::single(0));
        assert_eq!(a.masks[4], AffinityMask::single(2));
        assert_eq!(a.masks[5], AffinityMask::single(3));
        assert_eq!(a.name, "pack[2,2,1,1]");
    }

    #[test]
    fn grouped_assignment_structure() {
        let a = ThreadAssignment::grouped(&[(vec![0, 1], 3), (vec![2, 3], 3)]);
        assert_eq!(a.len(), 6);
        assert_eq!(a.masks[0], AffinityMask::from_cores(&[0, 1]));
        assert_eq!(a.masks[5], AffinityMask::from_cores(&[2, 3]));
    }

    #[test]
    fn os_default_allows_everything() {
        let a = ThreadAssignment::os_default(6, 4);
        assert!(a.masks.iter().all(|m| m.count() == 4));
    }

    #[test]
    fn paper_presets_for_six_on_four() {
        let presets = assignment_presets(6, 4);
        assert_eq!(presets.len(), 5);
        assert_eq!(presets[0].name, "os-default");
        assert!(presets.iter().all(|p| p.len() == 6));
        // Distinct patterns.
        let names: std::collections::HashSet<_> = presets.iter().map(|p| &p.name).collect();
        assert_eq!(names.len(), presets.len());
    }

    #[test]
    fn generic_presets_for_other_shapes() {
        let presets = assignment_presets(4, 2);
        assert!(presets.len() >= 2);
        assert!(presets.iter().all(|p| p.len() == 4));
        // Every preset leaves every thread at least one core.
        for p in &presets {
            for m in &p.masks {
                assert!(m.count() >= 1);
            }
        }
    }
}
