//! Helpers for 64-way bit-parallel logic simulation.
//!
//! A *pattern word* carries 64 independent input assignments, one per bit.
//! Simulating a netlist over `w` words therefore evaluates `64·w` random
//! vectors in one topological sweep — the workhorse behind both the fast
//! (probabilistic) equivalence check and the switching-activity power model.

use crate::rng::Xoshiro256;

/// Number of 64-bit lanes in a simulation [`Block`].
pub const BLOCK_LANES: usize = 4;

/// A 256-bit simulation block: four independent pattern words evaluated
/// together, so the inner gate-evaluation loop amortizes per-gate dispatch
/// over 256 patterns and the compiler can keep the lanes in vector
/// registers.
pub type Block = [u64; BLOCK_LANES];

/// The all-zeros block.
pub const ZERO_BLOCK: Block = [0; BLOCK_LANES];

/// Gathers lanes `word..word + BLOCK_LANES` of `stream` into a block,
/// zero-padding past the end of the stream.
pub fn gather_block(stream: &[u64], word: usize) -> Block {
    let mut b = ZERO_BLOCK;
    for (lane, slot) in b.iter_mut().enumerate() {
        if let Some(&w) = stream.get(word + lane) {
            *slot = w;
        }
    }
    b
}

/// Fills `words` with uniformly random pattern bits.
pub fn fill_random(rng: &mut Xoshiro256, words: &mut [u64]) {
    for w in words.iter_mut() {
        *w = rng.next_u64();
    }
}

/// Allocates `num_words` random pattern words.
pub fn random_words(rng: &mut Xoshiro256, num_words: usize) -> Vec<u64> {
    let mut v = vec![0u64; num_words];
    fill_random(rng, &mut v);
    v
}

/// Generates the first `2^num_vars` exhaustive patterns for `num_vars`
/// signals, packed into words: element `[v][w]` is pattern word `w` of
/// signal `v`. Useful for exhaustively simulating small circuits.
///
/// # Panics
///
/// Panics if `num_vars > 16` (the exhaustive pattern set would exceed
/// practical sizes).
pub fn exhaustive_patterns(num_vars: usize) -> Vec<Vec<u64>> {
    assert!(num_vars <= 16, "exhaustive simulation limited to 16 inputs");
    let num_words = (1usize << num_vars).div_ceil(64);
    (0..num_vars)
        .map(|v| {
            (0..num_words)
                .map(|w| exhaustive_word(num_vars, v, w))
                .collect()
        })
        .collect()
}

/// Word `w` of signal `v` in [`exhaustive_patterns`]`(num_vars)`, without
/// building the pattern set. Rows past `2^num_vars`, in the last word or
/// in any word beyond it, read 0: the all-zeros assignment.
pub fn exhaustive_word(num_vars: usize, v: usize, w: usize) -> u64 {
    // Signal v < 6 toggles within a word; signal v >= 6 is constant over
    // runs of 2^(v-6) words.
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let rows = 1usize << num_vars;
    if w >= rows.div_ceil(64) {
        return 0;
    }
    let valid = if rows >= 64 {
        u64::MAX
    } else {
        (1u64 << rows) - 1
    };
    match v {
        0..=5 => LOW[v] & valid,
        _ if (w >> (v - 6)) & 1 == 1 => u64::MAX,
        _ => 0,
    }
}

/// Number of bit positions that differ between two equally-long pattern
/// streams.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn count_mismatches(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "pattern stream length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x ^ y).count_ones() as usize)
        .sum()
}

/// Number of 0↔1 transitions a signal makes across consecutive patterns
/// within each word (the toggle count used by the power model).
///
/// Bit `i` and bit `i+1` of each word are treated as consecutive time steps;
/// word boundaries also chain (bit 63 of word `w` precedes bit 0 of word
/// `w+1`).
pub fn toggle_count(words: &[u64]) -> usize {
    let mut toggles = 0usize;
    let mut prev_msb: Option<bool> = None;
    for &w in words {
        // `w ^ (w >> 1)` compares bit i with bit i+1; bit 63 of the XOR
        // compares against a shifted-in zero and must be discarded.
        toggles += ((w ^ (w >> 1)) & (u64::MAX >> 1)).count_ones() as usize;
        if let Some(p) = prev_msb {
            if p != (w & 1 == 1) {
                toggles += 1;
            }
        }
        prev_msb = Some(w >> 63 == 1);
    }
    toggles
}

/// Fraction of one-bits in a pattern stream (signal probability estimate).
pub fn one_density(words: &[u64]) -> f64 {
    if words.is_empty() {
        return 0.0;
    }
    let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    ones as f64 / (words.len() * 64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_patterns_enumerate_assignments() {
        let pats = exhaustive_patterns(3);
        assert_eq!(pats.len(), 3);
        assert_eq!(pats[0].len(), 1);
        for row in 0..8usize {
            for (v, pat) in pats.iter().enumerate() {
                let bit = (pat[0] >> row) & 1 == 1;
                assert_eq!(bit, (row >> v) & 1 == 1, "row {row} var {v}");
            }
        }
    }

    #[test]
    fn exhaustive_patterns_multiword() {
        let pats = exhaustive_patterns(8);
        assert_eq!(pats[0].len(), 4);
        for row in [0usize, 63, 64, 200, 255] {
            for (v, pat) in pats.iter().enumerate() {
                let bit = (pat[row >> 6] >> (row & 63)) & 1 == 1;
                assert_eq!(bit, (row >> v) & 1 == 1);
            }
        }
    }

    #[test]
    fn exhaustive_patterns_match_row_enumeration_at_every_width() {
        for num_vars in 0..=16 {
            let pats = exhaustive_patterns(num_vars);
            let rows = 1usize << num_vars;
            for (v, pat) in pats.iter().enumerate() {
                let mut expected = vec![0u64; rows.div_ceil(64)];
                for row in (0..rows).filter(|row| (row >> v) & 1 == 1) {
                    expected[row >> 6] |= 1 << (row & 63);
                }
                assert_eq!(*pat, expected, "{num_vars} vars, signal {v}");
            }
        }
    }

    #[test]
    fn exhaustive_words_past_the_last_row_read_zero() {
        for num_vars in [0, 3, 6, 8] {
            let words = (1usize << num_vars).div_ceil(64);
            for v in 0..num_vars {
                assert_eq!(exhaustive_word(num_vars, v, words), 0);
                assert_eq!(exhaustive_word(num_vars, v, words + 5), 0);
            }
        }
    }

    #[test]
    fn mismatch_count() {
        assert_eq!(count_mismatches(&[0b1010], &[0b1010]), 0);
        assert_eq!(count_mismatches(&[0b1010], &[0b0110]), 2);
        assert_eq!(count_mismatches(&[u64::MAX, 0], &[0, 0]), 64);
    }

    #[test]
    fn toggles_within_word() {
        // 0b0011: one transition (bit1 -> bit2).
        assert_eq!(toggle_count(&[0b0011]), 1);
        // 0b0101: transitions at every step among low 3 bits + step to 0s.
        // bits: 1,0,1,0,0,...  -> 1->0, 0->1, 1->0 = 3 transitions.
        assert_eq!(toggle_count(&[0b0101]), 3);
        assert_eq!(toggle_count(&[0]), 0);
        assert_eq!(toggle_count(&[u64::MAX]), 0);
    }

    #[test]
    fn toggles_across_word_boundary() {
        // Word 0 ends in 1 (MSB set), word 1 starts with 0.
        let w0 = 1u64 << 63;
        // Inside w0: bits 0..62 are 0, bit 63 is 1 -> one transition.
        assert_eq!(toggle_count(&[w0]), 1);
        assert_eq!(toggle_count(&[w0, 0]), 2);
        // [1<<63, 1]: ...0→1 at the top of word 0, then 1→1 across the
        // boundary (no toggle), then 1→0 inside word 1.
        assert_eq!(toggle_count(&[w0, 1]), 2);
    }

    #[test]
    fn density() {
        assert_eq!(one_density(&[]), 0.0);
        assert_eq!(one_density(&[u64::MAX]), 1.0);
        assert!((one_density(&[0xFFFF_FFFF_0000_0000]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_fill_uses_rng() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let a = random_words(&mut rng, 8);
        let mut rng2 = Xoshiro256::seed_from_u64(11);
        let b = random_words(&mut rng2, 8);
        assert_eq!(a, b);
        assert!(a.iter().any(|&w| w != 0));
    }
}
