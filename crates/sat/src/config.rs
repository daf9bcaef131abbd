//! Solver configurations ("profiles").
//!
//! Every modern-CDCL heuristic the solver implements is independently
//! switchable, so a configuration is a point in a small feature cube.
//! Two named profiles pin the points we care about: `legacy` is the
//! original MiniSat-1.x-era search (byte-for-byte identical to the
//! pre-profile solver), `modern` turns everything on and is the default.

/// Which CDCL heuristics the solver runs.
///
/// All search behavior is a deterministic function of the configuration
/// and the formula.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SolverConfig {
    /// Compute glucose-style literal-block-distance for learnt clauses.
    pub lbd_tracking: bool,
    /// Periodically delete low-value learnt clauses (tiered retention;
    /// implies LBD scoring of learnt clauses).
    pub db_reduction: bool,
    /// Periodically re-seed saved phases from the best-trail snapshot,
    /// its inverse, or a fixed pseudo-random stream (target/best-phase
    /// rephasing).
    pub rephasing: bool,
    /// Backtrack chronologically (one level) instead of jumping when the
    /// computed backjump would discard more than a threshold of levels.
    pub chrono_backtrack: bool,
}

impl SolverConfig {
    /// The original solver: VSIDS + Luby restarts + phase saving only.
    /// Search is byte-for-byte identical to the pre-profile solver.
    pub const fn legacy() -> SolverConfig {
        SolverConfig {
            lbd_tracking: false,
            db_reduction: false,
            rephasing: false,
            chrono_backtrack: false,
        }
    }

    /// Every heuristic on: LBD tracking, tiered DB reduction, rephasing
    /// and chronological backtracking. The default profile.
    pub const fn modern() -> SolverConfig {
        SolverConfig {
            lbd_tracking: true,
            db_reduction: true,
            rephasing: true,
            chrono_backtrack: true,
        }
    }

    /// Every named profile: verdicts must be identical across all of
    /// them on any formula.
    pub fn profiles() -> [(&'static str, SolverConfig); 2] {
        [
            ("legacy", SolverConfig::legacy()),
            ("modern", SolverConfig::modern()),
        ]
    }

    /// Looks a profile up by name (the `--solver-profile` values).
    pub fn from_profile(name: &str) -> Option<SolverConfig> {
        SolverConfig::profiles()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c)
    }
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig::modern()
    }
}

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer used to
/// derive the rephasing stream's phase bits deterministically.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The five heuristic combinations the unit tests sweep: both profiles
/// plus `legacy` with one heuristic family switched on. Verdicts must
/// agree across all of them.
#[cfg(test)]
pub(crate) fn heuristic_combinations() -> [(&'static str, SolverConfig); 5] {
    [
        ("legacy", SolverConfig::legacy()),
        ("modern", SolverConfig::modern()),
        (
            "lbd+db-reduction",
            SolverConfig {
                lbd_tracking: true,
                db_reduction: true,
                ..SolverConfig::legacy()
            },
        ),
        (
            "rephasing",
            SolverConfig {
                rephasing: true,
                ..SolverConfig::legacy()
            },
        ),
        (
            "chrono-backtrack",
            SolverConfig {
                chrono_backtrack: true,
                ..SolverConfig::legacy()
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_round_trip_by_name() {
        for (name, config) in SolverConfig::profiles() {
            assert_eq!(SolverConfig::from_profile(name), Some(config));
        }
        assert_eq!(SolverConfig::from_profile("no-such-profile"), None);
        assert_eq!(SolverConfig::from_profile("glucose"), None);
    }

    #[test]
    fn default_is_modern() {
        assert_eq!(SolverConfig::default(), SolverConfig::modern());
        assert_eq!(
            SolverConfig::from_profile("modern"),
            Some(SolverConfig::default())
        );
    }

    #[test]
    fn splitmix_spreads_small_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 1, 0xFFFF_FFFF_FFFF_FFFF); // smoke: not constant
    }
}
