//! Time integrators for RC networks.

use serde::{Deserialize, Serialize};

/// Integration scheme for [`crate::RcNetwork::step`].
///
/// `Exact` is the default used by the co-simulation: power is piecewise
/// constant between simulation ticks, so the zero-order-hold update
/// `T' = E·T + F·u` (`E = exp(-C⁻¹A·dt)`, `F = (I − E)·A⁻¹`, one product
/// of the cached block `[E | F]`) advances a full tick with no
/// discretisation error at any `dt`. Forward Euler and RK4 remain
/// available for time-varying power *within* a step (where the
/// piecewise-constant assumption breaks) and as independent references
/// the property tests validate `Exact` against.
///
/// `Adaptive` is the large-floorplan path: an embedded Dormand–Prince
/// 5(4) pair with per-node error control and a PI step-size controller
/// advances via sparse CSR matvecs only (O(nnz) per stage), so dies too
/// large to densify `expm`/LU still step. `Auto` picks between the two
/// from the node count.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Stepper {
    /// First-order explicit Euler: cheap, stable for `dt < max_stable_dt`.
    ForwardEuler,
    /// Classic fourth-order Runge–Kutta.
    Rk4,
    /// Exact zero-order-hold step (piecewise-constant power), one product
    /// per step with the `[E | F]` block cached per `dt`.
    #[default]
    Exact,
    /// Embedded adaptive Runge–Kutta (Dormand–Prince 5(4)) with
    /// tolerance-driven step control over the sparse matrix-free path.
    /// Tolerances must be finite and positive (see [`Stepper::adaptive`]).
    Adaptive {
        /// Per-node relative error tolerance.
        rel_tol: f64,
        /// Per-node absolute error tolerance, in °C.
        abs_tol: f64,
    },
    /// Node-count rule: `Exact` on dense dies of at most 64 nodes,
    /// `Adaptive` on larger ones (see [`crate::RcNetwork::resolve_auto`]).
    Auto,
}

// Tolerances are validated finite (never NaN) at every construction site:
// `Stepper::adaptive()` uses constants, `FromStr` and `DieParams::validate`
// reject non-finite values. With NaN excluded, `PartialEq` is total.
impl Eq for Stepper {}

impl std::hash::Hash for Stepper {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        if let Stepper::Adaptive { rel_tol, abs_tol } = self {
            rel_tol.to_bits().hash(state);
            abs_tol.to_bits().hash(state);
        }
    }
}

impl Stepper {
    /// Default relative tolerance for [`Stepper::Adaptive`].
    pub const DEFAULT_REL_TOL: f64 = 1e-6;
    /// Default absolute tolerance (°C) for [`Stepper::Adaptive`].
    pub const DEFAULT_ABS_TOL: f64 = 1e-9;

    /// An adaptive stepper at the default tolerances.
    pub const fn adaptive() -> Stepper {
        Stepper::Adaptive {
            rel_tol: Stepper::DEFAULT_REL_TOL,
            abs_tol: Stepper::DEFAULT_ABS_TOL,
        }
    }
}

impl std::fmt::Display for Stepper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stepper::ForwardEuler => write!(f, "forward-euler"),
            Stepper::Rk4 => write!(f, "rk4"),
            Stepper::Exact => write!(f, "exact"),
            Stepper::Adaptive { rel_tol, abs_tol } => {
                write!(f, "adaptive:{rel_tol:e}:{abs_tol:e}")
            }
            Stepper::Auto => write!(f, "auto"),
        }
    }
}

/// Parses one tolerance field of an `adaptive:REL:ABS` spec.
fn parse_tol(spec: &str, field: &str, raw: &str) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("bad {field} tolerance {raw:?} in stepper {spec:?}"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!(
            "{field} tolerance in stepper {spec:?} must be finite and positive"
        ));
    }
    Ok(v)
}

impl std::str::FromStr for Stepper {
    type Err = String;

    /// Parses the [`std::fmt::Display`] names (`"euler"` is accepted as an
    /// alias for `"forward-euler"`; bare `"adaptive"` uses the default
    /// tolerances), as used by JSON configs and the bench binaries'
    /// `--stepper` flag.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "forward-euler" | "euler" => Ok(Stepper::ForwardEuler),
            "rk4" => Ok(Stepper::Rk4),
            "exact" => Ok(Stepper::Exact),
            "adaptive" => Ok(Stepper::adaptive()),
            "auto" => Ok(Stepper::Auto),
            other => {
                if let Some(rest) = other.strip_prefix("adaptive:") {
                    let mut parts = rest.splitn(2, ':');
                    let rel = parts.next().unwrap_or("");
                    let abs = parts
                        .next()
                        .ok_or_else(|| format!("stepper {other:?} needs adaptive:REL:ABS"))?;
                    return Ok(Stepper::Adaptive {
                        rel_tol: parse_tol(other, "relative", rel)?,
                        abs_tol: parse_tol(other, "absolute", abs)?,
                    });
                }
                Err(format!(
                    "unknown stepper {other:?} (expected exact, rk4, forward-euler, \
                     adaptive[:REL:ABS] or auto)"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exact() {
        assert_eq!(Stepper::default(), Stepper::Exact);
    }

    #[test]
    fn display_names() {
        assert_eq!(Stepper::ForwardEuler.to_string(), "forward-euler");
        assert_eq!(Stepper::Rk4.to_string(), "rk4");
        assert_eq!(Stepper::Exact.to_string(), "exact");
        assert_eq!(Stepper::adaptive().to_string(), "adaptive:1e-6:1e-9");
        assert_eq!(Stepper::Auto.to_string(), "auto");
    }

    #[test]
    fn from_str_round_trips_display_names() {
        for s in [
            Stepper::ForwardEuler,
            Stepper::Rk4,
            Stepper::Exact,
            Stepper::adaptive(),
            Stepper::Adaptive {
                rel_tol: 3.5e-7,
                abs_tol: 1e-10,
            },
            Stepper::Auto,
        ] {
            assert_eq!(s.to_string().parse::<Stepper>(), Ok(s));
        }
        assert_eq!("euler".parse::<Stepper>(), Ok(Stepper::ForwardEuler));
        assert_eq!("adaptive".parse::<Stepper>(), Ok(Stepper::adaptive()));
        assert!("leapfrog".parse::<Stepper>().is_err());
    }

    #[test]
    fn adaptive_parse_rejects_bad_tolerances() {
        assert!("adaptive:0:1e-9".parse::<Stepper>().is_err());
        assert!("adaptive:-1e-6:1e-9".parse::<Stepper>().is_err());
        assert!("adaptive:1e-6:nan".parse::<Stepper>().is_err());
        assert!("adaptive:1e-6".parse::<Stepper>().is_err());
        assert!("adaptive:inf:1e-9".parse::<Stepper>().is_err());
    }

    #[test]
    fn adaptive_hash_distinguishes_tolerances() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: Stepper| {
            let mut hasher = DefaultHasher::new();
            s.hash(&mut hasher);
            hasher.finish()
        };
        assert_ne!(
            h(Stepper::adaptive()),
            h(Stepper::Adaptive {
                rel_tol: 1e-3,
                abs_tol: 1e-9
            })
        );
        assert_eq!(h(Stepper::adaptive()), h(Stepper::adaptive()));
    }
}
