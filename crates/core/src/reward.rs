//! The reward function of Eq. 8 (§5.2).
//!
//! ```text
//! R(E_i, E_{i+1}) = −ŝ_i · â_i                    if ŝ_i = ŝ_Ns or â_i = â_Na
//!                 = f(â_i, ŝ_i) + (P − P_c)       otherwise
//! ```
//!
//! with `f = a·K₁·stress + b·K₂·aging`, where `K₁` (`K₂`) is a **Gaussian
//! learning weight** over the stress (aging) value — "this distribution
//! assigns lower rewards to thermally unstable as well as the thermally
//! stable states and thus allows the algorithm to explore other states and
//! prevent Q-Table clustering" — and the relative importances `a`, `b` are
//! switched between two preset pairs depending on whether the window's
//! mean stress or mean aging dominates (mpeg-like vs tachyon-like).

use crate::state::{StateId, StateSpace};

/// Parameters of the reward function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardFunction {
    /// Gaussian centre of `K₁` as a fraction of the stress range.
    pub k1_center_frac: f64,
    /// Gaussian width of `K₁` as a fraction of the stress range.
    pub k1_sigma_frac: f64,
    /// Gaussian centre of `K₂` as a fraction of the aging range.
    pub k2_center_frac: f64,
    /// Gaussian width of `K₂` as a fraction of the aging range.
    pub k2_sigma_frac: f64,
    /// The dominant relative importance (used for `a` when stress
    /// dominates, for `b` when aging dominates).
    pub importance_hi: f64,
    /// The recessive relative importance.
    pub importance_lo: f64,
    /// Weight of the performance term `(P − P_c)/P_c`.
    pub perf_weight: f64,
    /// Scale of the unsafe-zone penalty `−ŝ·â` (normalised by the range
    /// product so penalties stay comparable to rewards).
    pub penalty_scale: f64,
}

impl Default for RewardFunction {
    fn default() -> Self {
        RewardFunction {
            k1_center_frac: 0.0,
            k1_sigma_frac: 0.25,
            k2_center_frac: 0.10,
            k2_sigma_frac: 0.30,
            importance_hi: 0.7,
            importance_lo: 0.3,
            perf_weight: 2.0,
            penalty_scale: 5.0,
        }
    }
}

fn gaussian(x: f64, mu: f64, sigma: f64) -> f64 {
    let d = (x - mu) / sigma;
    (-0.5 * d * d).exp()
}

impl RewardFunction {
    /// Computes the reward for landing in `state` with window hazards
    /// `(stress_norm, aging_norm)`, window *means* `(mean_stress,
    /// mean_aging)` selecting the importance pair, and performance `p`
    /// against constraint `p_c`.
    #[allow(clippy::too_many_arguments)] // mirrors Eq. 8's full parameter list
    pub fn reward(
        &self,
        space: &StateSpace,
        state: StateId,
        stress_norm: f64,
        aging_norm: f64,
        mean_stress: f64,
        mean_aging: f64,
        p: f64,
        p_c: f64,
    ) -> f64 {
        let (s_hat, a_hat) = space.representative(state);
        if space.is_unsafe(state) {
            // Penalty branch: −ŝ·â, normalised to the range product.
            return -self.penalty_scale * (s_hat * a_hat)
                / (space.stress_max() * space.aging_max());
        }
        // Importance pair: stress-dominated windows (mpeg-like, large
        // thermal cycles) weight stress harder; aging-dominated windows
        // (tachyon-like) weight aging harder.
        let (a, b) = if mean_stress >= mean_aging {
            (self.importance_hi, self.importance_lo)
        } else {
            (self.importance_lo, self.importance_hi)
        };
        let k1 = gaussian(
            stress_norm,
            self.k1_center_frac * space.stress_max(),
            self.k1_sigma_frac * space.stress_max(),
        );
        let k2 = gaussian(
            aging_norm,
            self.k2_center_frac * space.aging_max(),
            self.k2_sigma_frac * space.aging_max(),
        );
        let f = a * k1 + b * k2;
        // Performance is a *constraint*, not an objective: meeting P_c
        // earns nothing extra ("rewards are guaranteed if an action leads
        // to a thermal safe state while satisfying the performance
        // requirements"), falling short is penalised proportionally.
        let perf = if p_c > 0.0 {
            ((p - p_c) / p_c).clamp(-1.0, 0.0)
        } else {
            0.0
        };
        f + self.perf_weight * perf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> StateSpace {
        StateSpace::new(4, 4, 20.0, 12.0)
    }

    fn reward_of(stress: f64, aging: f64, p: f64, pc: f64) -> f64 {
        let sp = space();
        let state = sp.identify(stress, aging);
        RewardFunction::default().reward(&sp, state, stress, aging, stress, aging, p, pc)
    }

    #[test]
    fn unsafe_states_are_penalised() {
        let r = reward_of(19.0, 1.0, 1.0, 1.0);
        assert!(r < 0.0, "unsafe stress must be penalised: {r}");
        let r = reward_of(1.0, 11.5, 1.0, 1.0);
        assert!(r < 0.0, "unsafe aging must be penalised: {r}");
    }

    #[test]
    fn hotter_unsafe_states_are_penalised_harder() {
        let sp = space();
        let f = RewardFunction::default();
        let corner = sp.identify(19.0, 11.9);
        let edge = sp.identify(19.0, 0.5);
        let rc = f.reward(&sp, corner, 19.0, 11.9, 19.0, 11.9, 1.0, 1.0);
        let re = f.reward(&sp, edge, 19.0, 0.5, 19.0, 0.5, 1.0, 1.0);
        assert!(rc < re, "corner {rc} vs edge {re}");
    }

    #[test]
    fn cool_states_earn_positive_reward_when_meeting_perf() {
        let r = reward_of(2.0, 1.8, 1.2, 1.0);
        assert!(r > 0.0, "thermally safe and fast: {r}");
    }

    #[test]
    fn no_bonus_for_exceeding_the_constraint() {
        // Performance is a constraint: 20% or 100% above P_c score alike.
        let at = reward_of(2.0, 1.8, 1.2, 1.0);
        let over = reward_of(2.0, 1.8, 2.0, 1.0);
        assert_eq!(at, over);
    }

    #[test]
    fn performance_violations_reduce_reward() {
        let fast = reward_of(2.0, 1.8, 1.2, 1.0);
        let slow = reward_of(2.0, 1.8, 0.5, 1.0);
        assert!(slow < fast);
    }

    #[test]
    fn gaussian_weights_decay_away_from_their_centres() {
        // With the default centres at the stable end of the range, reward
        // decreases monotonically as hazards grow through the safe zone.
        let low = reward_of(0.5, 0.9, 1.0, 1.0);
        let mid = reward_of(5.0, 4.0, 1.0, 1.0);
        let high = reward_of(12.0, 7.0, 1.0, 1.0); // still safe bins
        assert!(low > mid, "{low} vs {mid}");
        assert!(mid > high, "{mid} vs {high}");
    }

    #[test]
    fn off_centre_gaussians_penalise_both_extremes() {
        // With a mid-range centre (the paper's anti-clustering shape) the
        // reward peaks in the middle and falls off on both sides.
        let sp = space();
        let f = RewardFunction {
            k1_center_frac: 0.3,
            k2_center_frac: 0.3,
            ..RewardFunction::default()
        };
        let r = |stress: f64, aging: f64| {
            let st = sp.identify(stress, aging);
            f.reward(&sp, st, stress, aging, stress, aging, 1.0, 1.0)
        };
        let centre = r(6.0, 3.6);
        assert!(centre > r(0.0, 0.0));
        assert!(centre > r(12.0, 7.0));
    }

    #[test]
    fn importance_pair_switches_with_dominant_hazard() {
        let sp = space();
        let f = RewardFunction::default();
        // A point where K1 and K2 differ (stress off-centre, aging at
        // centre), so swapping the importance pair changes the reward.
        let state = sp.identify(6.0, 1.8);
        let stress_dom = f.reward(&sp, state, 6.0, 1.8, 5.0, 1.0, 1.0, 1.0);
        let aging_dom = f.reward(&sp, state, 6.0, 1.8, 1.0, 5.0, 1.0, 1.0);
        assert_ne!(stress_dom, aging_dom);
    }

    #[test]
    fn zero_constraint_disables_perf_term() {
        let a = reward_of(2.0, 1.8, 0.0, 0.0);
        let b = reward_of(2.0, 1.8, 100.0, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn perf_term_saturates() {
        let slow = reward_of(2.0, 1.8, 0.0, 1.0);
        let slower = reward_of(2.0, 1.8, -5.0, 1.0);
        assert_eq!(slow, slower, "perf penalty clamps at -1");
    }

    #[test]
    fn lower_stress_beats_higher_stress_at_equal_perf() {
        // The property the agent's convergence relies on.
        let calm = reward_of(0.5, 1.5, 1.0, 1.0);
        let churn = reward_of(4.5, 1.5, 1.0, 1.0);
        assert!(calm > churn);
    }
}
