//! The placeholder solver configuration and the rephasing mixer.

/// A configuration with nothing to configure: the solver runs one search
/// (LBD scoring, tiered learnt-DB reduction and rephasing, always on).
///
/// It survives only as the argument [`SharedMiter::build_with`] accepts
/// and ignores, and leaves with `shared.rs`.
///
/// [`SharedMiter::build_with`]: crate::SharedMiter::build_with
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverConfig;

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixer used to
/// derive the rephasing stream's phase bits deterministically.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_spreads_small_inputs() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 1, 0xFFFF_FFFF_FFFF_FFFF); // smoke: not constant
    }
}
