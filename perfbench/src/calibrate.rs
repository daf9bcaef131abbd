//! Taking the host's speed out of CPU-bound timings.
//!
//! On a shared host other tenants' load slows every CPU-bound operation
//! by tens of percent, in stretches from seconds to minutes, so two runs
//! of the same program can differ more than any change worth measuring.
//! Each workload therefore runs a fixed calibration probe (code of this
//! crate, independent of odcfp) beside every block of work, and scales the
//! block's CPU-bound timings by [`REFERENCE_PROBE_MS`] over the block's
//! probe reading: a timing is reported as it would read on a host where
//! the probe takes [`REFERENCE_PROBE_MS`]. The probe does not run any of
//! the program's code, so a slower program still reads slower; only a
//! slower host is taken out.

use std::time::Instant;

use odcfp_logic::rng::Xoshiro256;

/// The probe's reading on an uncontended core of the 2-core host the
/// bounds were fixed on. Only the scale of the reported timings depends
/// on it.
pub const REFERENCE_PROBE_MS: f64 = 0.65;

/// Entries of the probe's table: 128 KB of `u32`, which stays in a
/// core's L2 cache, so the probe measures the core rather than memory.
const TABLE: usize = 1 << 15;

/// Steps of one probe pass.
const STEPS: usize = 40_000;

/// Passes per probe; the fastest is kept, so neither an interrupt nor a
/// cache the program left cold counts.
const PASSES: usize = 3;

/// A single random cycle through the table.
fn table() -> &'static [u32] {
    static TABLE_CELL: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    TABLE_CELL.get_or_init(|| {
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        Xoshiro256::seed_from_u64(0x9E37_79B9).shuffle(&mut order);
        let mut next = vec![0u32; TABLE];
        for pair in order.windows(2) {
            next[pair[0] as usize] = pair[1];
        }
        next[order[TABLE - 1] as usize] = order[0];
        next
    })
}

/// Runs the calibration probe and returns its reading in milliseconds:
/// a pointer chase whose every next load waits on two integer divisions
/// and a multiply of the value loaded before, the fastest of [`PASSES`]
/// passes.
pub fn probe_ms() -> f64 {
    let next = table();
    // A divisor the compiler cannot see, so `%` stays a division.
    let n = std::hint::black_box(TABLE as u32);
    let mut best = f64::INFINITY;
    for pass in 0..PASSES {
        let start = Instant::now();
        let mut at = pass as u32;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            at = next[(at % n) as usize] % n;
            acc = (acc ^ u64::from(at))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            at ^= (acc & 1) as u32;
        }
        std::hint::black_box(acc);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The factor that scales a timing taken beside probe readings `probes`
/// to the reference host: [`REFERENCE_PROBE_MS`] over their mean, or 1
/// without readings.
pub fn factor(probes: &[f64]) -> f64 {
    let mean = crate::stats::mean(probes);
    if mean > 0.0 {
        REFERENCE_PROBE_MS / mean
    } else {
        1.0
    }
}

/// The probe readings of a run, as provenance: count, min, median, max.
pub fn provenance(probes: &[f64]) -> String {
    let mut sorted = probes.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "{{\"readings\":{},\"min_ms\":{:.4},\"median_ms\":{:.4},\"max_ms\":{:.4},\
         \"reference_ms\":{REFERENCE_PROBE_MS}}}",
        sorted.len(),
        sorted.first().copied().unwrap_or(0.0),
        crate::stats::median(&mut sorted),
        sorted.last().copied().unwrap_or(0.0),
    )
}

/// Set-up, timed many times over a run; `setup_s` is the fastest.
///
/// Set-up timings are not scaled: the probe does not follow them (they
/// allocate and fault in fresh memory, which the probe does not), and
/// the fastest of the many spread over the run is steadier than any
/// scaled average.
#[derive(Debug, Default)]
pub struct SetupClock {
    seconds: Vec<f64>,
}

impl SetupClock {
    /// Times `setup`.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = setup();
        self.seconds.push(start.elapsed().as_secs_f64());
        out
    }

    /// How many set-ups were timed.
    pub fn count(&self) -> usize {
        self.seconds.len()
    }

    /// The fastest set-up, in seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        assert_eq!(factor(&[REFERENCE_PROBE_MS]), 1.0);
        assert_eq!(factor(&[2.0 * REFERENCE_PROBE_MS]), 0.5);
        assert_eq!(factor(&[]), 1.0);
    }

    #[test]
    fn probe_reads_a_positive_time() {
        assert!(probe_ms() > 0.0);
    }
}
