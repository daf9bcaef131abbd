//! The combined watermark + fingerprint protection flow of §III-E.
//!
//! *"An IP will be protected by both watermark (to establish the IP's
//! authorship) and fingerprint (to identify each IP buyer). When a
//! suspicious IP is found, the watermark will be first verified to confirm
//! that IP piracy has occurred. Next, the fingerprint needs to be
//! discovered to trace the IP buyer."*
//!
//! Implementation: the engine's locations are split deterministically by a
//! keyed hash — a fixed fraction carry the **watermark** (identical bits in
//! every copy, derived from the designer's key) and the rest carry the
//! per-buyer **fingerprint**. Both ride the same ODC mechanism, so a copy
//! carries authorship proof and buyer identity simultaneously.

use odcfp_netlist::Netlist;

use crate::{FingerprintError, FingerprintedCopy, Fingerprinter};

/// Fraction of locations reserved for the watermark, in percent.
const WATERMARK_SHARE_PCT: usize = 25;

/// A combined watermark + fingerprint engine over one base design.
#[derive(Debug, Clone)]
pub struct ProtectedIp {
    engine: Fingerprinter,
    key: u64,
    /// Indices of watermark locations (sorted).
    watermark_slots: Vec<usize>,
    /// Indices of fingerprint locations (sorted).
    fingerprint_slots: Vec<usize>,
    /// The watermark bit carried by each watermark slot.
    watermark_bits: Vec<bool>,
}

/// The §III-E verification verdict for a suspect netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionVerdict {
    /// Fraction of watermark bits found intact, in `[0, 1]`.
    pub watermark_match: f64,
    /// True if the watermark clears the authorship threshold (90%).
    pub authorship_established: bool,
    /// The extracted buyer fingerprint bits (meaningful when authorship is
    /// established).
    pub buyer_bits: Vec<bool>,
}

/// SplitMix64 — keyed slot assignment must not depend on `rng`'s stream
/// position, so hash directly.
fn mix(key: u64, i: u64) -> u64 {
    let mut z = key ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ProtectedIp {
    /// Splits an engine's locations between watermark and fingerprint using
    /// the designer's secret `key`.
    pub fn new(engine: Fingerprinter, key: u64) -> Self {
        let n = engine.locations().len();
        let mut watermark_slots = Vec::new();
        let mut fingerprint_slots = Vec::new();
        let mut watermark_bits = Vec::new();
        for i in 0..n {
            let h = mix(key, i as u64);
            if (h % 100) < WATERMARK_SHARE_PCT as u64 {
                watermark_slots.push(i);
                watermark_bits.push(h & (1 << 32) != 0);
            } else {
                fingerprint_slots.push(i);
            }
        }
        ProtectedIp {
            engine,
            key,
            watermark_slots,
            fingerprint_slots,
            watermark_bits,
        }
    }

    /// The underlying fingerprinting engine.
    pub fn engine(&self) -> &Fingerprinter {
        &self.engine
    }

    /// The designer key this protection was derived from.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Number of watermark bits every copy carries.
    pub fn watermark_len(&self) -> usize {
        self.watermark_slots.len()
    }

    /// Number of per-buyer fingerprint bits.
    pub fn fingerprint_len(&self) -> usize {
        self.fingerprint_slots.len()
    }

    /// Mints a protected copy: watermark bits fixed by the key, fingerprint
    /// bits from `buyer_bits`.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error when `buyer_bits` does not match
    /// [`ProtectedIp::fingerprint_len`], and propagates embedding errors.
    pub fn mint(&self, buyer_bits: &[bool]) -> Result<FingerprintedCopy, FingerprintError> {
        if buyer_bits.len() != self.fingerprint_slots.len() {
            return Err(FingerprintError::BitLengthMismatch {
                expected: self.fingerprint_slots.len(),
                found: buyer_bits.len(),
            });
        }
        let mut bits = vec![false; self.engine.locations().len()];
        for (slot, &b) in self.watermark_slots.iter().zip(&self.watermark_bits) {
            bits[*slot] = b;
        }
        for (slot, &b) in self.fingerprint_slots.iter().zip(buyer_bits) {
            bits[*slot] = b;
        }
        self.engine.embed(&bits)
    }

    /// Mints a copy with seeded random buyer bits.
    ///
    /// # Errors
    ///
    /// Propagates embedding errors.
    pub fn mint_seeded(&self, buyer_seed: u64) -> Result<FingerprintedCopy, FingerprintError> {
        let mut rng = odcfp_logic::rng::Xoshiro256::seed_from_u64(buyer_seed);
        let bits: Vec<bool> = (0..self.fingerprint_len())
            .map(|_| rng.next_bool())
            .collect();
        self.mint(&bits)
    }

    /// The §III-E two-step check: verify authorship from the watermark,
    /// then extract the buyer fingerprint.
    pub fn verify(&self, suspect: &Netlist) -> ProtectionVerdict {
        let all = self.engine.extract(suspect);
        let matches = self
            .watermark_slots
            .iter()
            .zip(&self.watermark_bits)
            .filter(|(slot, &expect)| all[**slot] == expect)
            .count();
        let watermark_match = if self.watermark_slots.is_empty() {
            0.0
        } else {
            matches as f64 / self.watermark_slots.len() as f64
        };
        let buyer_bits = self.fingerprint_slots.iter().map(|&s| all[s]).collect();
        ProtectionVerdict {
            watermark_match,
            authorship_established: watermark_match >= 0.9,
            buyer_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn protected(key: u64) -> ProtectedIp {
        let base = random_dag(
            CellLibrary::standard(),
            DagParams {
                inputs: 12,
                gates: 160,
                outputs: 8,
                window: 32,
                seed: 3000,
            },
        );
        ProtectedIp::new(Fingerprinter::new(base).unwrap(), key)
    }

    #[test]
    fn slots_partition_all_locations() {
        let p = protected(0x5EC7);
        let n = p.engine().locations().len();
        assert_eq!(p.watermark_len() + p.fingerprint_len(), n);
        assert!(p.watermark_len() > 0, "some watermark slots expected");
        assert!(p.fingerprint_len() > 0);
    }

    #[test]
    fn minted_copies_share_watermark_differ_in_fingerprint() {
        let p = protected(0xABCD);
        let a = p.mint_seeded(1).unwrap();
        let b = p.mint_seeded(2).unwrap();
        let va = p.verify(a.netlist());
        let vb = p.verify(b.netlist());
        assert!(va.authorship_established);
        assert!(vb.authorship_established);
        assert_eq!(va.watermark_match, 1.0);
        assert_ne!(va.buyer_bits, vb.buyer_bits, "buyers must differ");
    }

    #[test]
    fn unmarked_design_fails_authorship() {
        let p = protected(0xABCD);
        let verdict = p.verify(p.engine().base());
        // The base carries no modifications: only watermark bits that
        // happen to be 0 match.
        assert!(
            !verdict.authorship_established || p.watermark_bits.iter().all(|&b| !b),
            "unmarked design should not establish authorship: {verdict:?}"
        );
    }

    #[test]
    fn wrong_key_sees_no_watermark() {
        let p = protected(0xABCD);
        let copy = p.mint_seeded(7).unwrap();
        let wrong = ProtectedIp::new(p.engine().clone(), 0xBEEF);
        let verdict = wrong.verify(copy.netlist());
        assert!(
            verdict.watermark_match < 0.9,
            "a different key must not validate: {}",
            verdict.watermark_match
        );
    }

    #[test]
    fn buyer_bits_roundtrip() {
        let p = protected(0x1234);
        let bits: Vec<bool> = (0..p.fingerprint_len()).map(|i| i % 3 == 0).collect();
        let copy = p.mint(&bits).unwrap();
        let verdict = p.verify(copy.netlist());
        assert!(verdict.authorship_established);
        assert_eq!(verdict.buyer_bits, bits);
    }

    #[test]
    fn length_mismatch_rejected() {
        let p = protected(0x1234);
        assert!(matches!(
            p.mint(&[]),
            Err(FingerprintError::BitLengthMismatch { .. })
        ));
    }
}
