//! Robust (error-correcting) fingerprints — the §V extension.
//!
//! *"For gates with an excessive number of fingerprint combinations, we can
//! ... include additional functionality to our fingerprints, such as error
//! correcting codes or redundancy, so that even if an adversary tampers
//! with the circuit, we can figure out what they have done and what the
//! original fingerprint was."*
//!
//! Two codes are provided over the location bit string:
//!
//! * [`Code::Repetition`] — each payload bit is embedded `r` times and
//!   decoded by majority; tolerates `⌊(r-1)/2⌋` flips per payload bit;
//! * [`Code::Hamming`] — SECDED extended Hamming(8,4) blocks: 4 payload
//!   bits per 8 locations, correcting one flip per block and *detecting*
//!   (not mis-correcting) two.
//!
//! Both decoders also report *which* locations appear tampered, answering
//! the paper's "figure out what they have done" — and both report a
//! [`DecodeStatus`]: a decode that exceeded the code's confidence margin
//! comes back [`DecodeStatus::Ambiguous`] rather than silently wrong.
//! (Plain Hamming(7,4) cannot do this — a double error is mathematically
//! indistinguishable from a single one — which is why the Hamming code
//! here carries the SECDED overall-parity bit.)

use crate::{FingerprintError, FingerprintedCopy, Fingerprinter};

/// The error-correcting code protecting a fingerprint payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Code {
    /// Repeat every payload bit `r` times (majority decode). `r` must be
    /// odd and ≥ 3.
    Repetition(usize),
    /// Extended Hamming(8,4) with SECDED: 4 payload bits per 8 locations,
    /// single-error correction and double-error detection per block.
    Hamming,
}

impl Code {
    /// Payload bits representable with `locations` fingerprint locations.
    pub fn payload_capacity(self, locations: usize) -> usize {
        match self {
            Code::Repetition(r) => locations / r,
            Code::Hamming => (locations / 8) * 4,
        }
    }
}

/// How much trust a decode deserves, worst block/group wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecodeStatus {
    /// Every block matched its codeword exactly.
    Clean,
    /// Errors were found and corrected within the code's margin; the
    /// payload is trustworthy and the flips are localized.
    Corrected,
    /// At least one block exceeded the code's confidence margin (a
    /// SECDED double error, or a repetition majority decided by ≤ 1
    /// vote). The payload is the decoder's best effort and must not be
    /// trusted without independent evidence.
    Ambiguous,
}

/// The outcome of decoding a (possibly tampered) fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFingerprint {
    /// The recovered payload bits.
    pub payload: Vec<bool>,
    /// Location indices whose extracted bit disagreed with the corrected
    /// codeword — the tamper evidence.
    pub tampered_locations: Vec<usize>,
    /// Confidence of the decode; check before trusting `payload`.
    pub status: DecodeStatus,
}

/// Encodes a payload into a location bit string.
///
/// Unused trailing locations are set to parity padding (alternating bits
/// derived from the payload length) so the whole string stays
/// deterministic.
///
/// # Errors
///
/// Returns [`FingerprintError::BitLengthMismatch`] when the payload
/// exceeds the code's capacity for `locations`, and panics if a
/// repetition factor is even or < 3.
pub fn encode(
    code: Code,
    payload: &[bool],
    locations: usize,
) -> Result<Vec<bool>, FingerprintError> {
    if let Code::Repetition(r) = code {
        assert!(
            r >= 3 && r % 2 == 1,
            "repetition factor must be odd and >= 3"
        );
    }
    let capacity = code.payload_capacity(locations);
    if payload.len() > capacity {
        return Err(FingerprintError::BitLengthMismatch {
            expected: capacity,
            found: payload.len(),
        });
    }
    let mut bits = Vec::with_capacity(locations);
    match code {
        Code::Repetition(r) => {
            for &p in payload {
                bits.extend(std::iter::repeat_n(p, r));
            }
        }
        Code::Hamming => {
            for block in payload.chunks(4) {
                let mut d = [false; 4];
                d[..block.len()].copy_from_slice(block);
                bits.extend_from_slice(&hamming84_encode(d));
            }
        }
    }
    while bits.len() < locations {
        bits.push(bits.len() % 2 == 1);
    }
    bits.truncate(locations);
    Ok(bits)
}

/// Decodes a (possibly tampered) location bit string.
///
/// `payload_len` must match what was passed to [`encode`].
///
/// # Example
///
/// ```
/// use odcfp_core::robust::{decode, encode, Code, DecodeStatus};
///
/// let payload = [true, false, true, true];
/// let mut bits = encode(Code::Hamming, &payload, 8)?;
/// bits[3] = !bits[3]; // adversary flips one wire
/// let recovered = decode(Code::Hamming, &bits, 4);
/// assert_eq!(recovered.payload, payload);
/// assert_eq!(recovered.tampered_locations, vec![3]);
/// assert_eq!(recovered.status, DecodeStatus::Corrected);
/// # Ok::<(), odcfp_core::FingerprintError>(())
/// ```
pub fn decode(code: Code, bits: &[bool], payload_len: usize) -> DecodedFingerprint {
    let mut payload = Vec::with_capacity(payload_len);
    let mut tampered = Vec::new();
    let mut status = DecodeStatus::Clean;
    match code {
        Code::Repetition(r) => {
            for (k, chunk) in bits.chunks(r).take(payload_len).enumerate() {
                let ones = chunk.iter().filter(|&&b| b).count();
                let zeros = chunk.len() - ones;
                let value = ones > zeros;
                payload.push(value);
                let group_status = match ones.abs_diff(zeros) {
                    // A majority of one vote (or a tie on a truncated
                    // group) is one flip away from deciding the other
                    // way: the decode is a guess, and says so.
                    0 | 1 => DecodeStatus::Ambiguous,
                    d if d == chunk.len() => DecodeStatus::Clean,
                    _ => DecodeStatus::Corrected,
                };
                status = status.max(group_status);
                for (j, &b) in chunk.iter().enumerate() {
                    if b != value {
                        tampered.push(k * r + j);
                    }
                }
            }
        }
        Code::Hamming => {
            let blocks_needed = payload_len.div_ceil(4);
            for (k, chunk) in bits.chunks(8).take(blocks_needed).enumerate() {
                let mut block = [false; 8];
                block[..chunk.len()].copy_from_slice(chunk);
                let (data, outcome) = hamming84_decode(block);
                let block_status = match outcome {
                    BlockOutcome::Clean => DecodeStatus::Clean,
                    BlockOutcome::CorrectedAt(j) => {
                        if j < chunk.len() {
                            tampered.push(k * 8 + j);
                        }
                        DecodeStatus::Corrected
                    }
                    // Two flips: detected but not localizable — the data
                    // bits are reported raw and flagged.
                    BlockOutcome::DoubleError => DecodeStatus::Ambiguous,
                };
                status = status.max(block_status);
                payload.extend_from_slice(&data);
            }
            payload.truncate(payload_len);
        }
    }
    DecodedFingerprint {
        payload,
        tampered_locations: tampered,
        status,
    }
}

/// Embeds an error-correction-coded payload through an engine.
///
/// # Errors
///
/// Propagates capacity and embedding errors.
pub fn embed_payload(
    fp: &Fingerprinter,
    code: Code,
    payload: &[bool],
) -> Result<FingerprintedCopy, FingerprintError> {
    let bits = encode(code, payload, fp.locations().len())?;
    fp.embed(&bits)
}

/// Extracts and decodes a payload from a suspect copy.
pub fn extract_payload(
    fp: &Fingerprinter,
    code: Code,
    suspect: &odcfp_netlist::Netlist,
    payload_len: usize,
) -> DecodedFingerprint {
    decode(code, &fp.extract(suspect), payload_len)
}

/// What a SECDED block decode concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockOutcome {
    /// Codeword intact.
    Clean,
    /// Exactly one flip, corrected at this 0-based position.
    CorrectedAt(usize),
    /// Two flips detected; correction impossible, data reported raw.
    DoubleError,
}

/// Extended Hamming(8,4) encoder: bits `[d0,d1,d2,d3]` →
/// `[p0,p1,d0,p2,d1,d2,d3,P]` — Hamming(7,4) with parity positions
/// 1,2,4 (1-based) plus an overall even-parity bit `P` for SECDED.
fn hamming84_encode(d: [bool; 4]) -> [bool; 8] {
    let p0 = d[0] ^ d[1] ^ d[3];
    let p1 = d[0] ^ d[2] ^ d[3];
    let p2 = d[1] ^ d[2] ^ d[3];
    let c = [p0, p1, d[0], p2, d[1], d[2], d[3]];
    let overall = c.iter().fold(false, |acc, &b| acc ^ b);
    [c[0], c[1], c[2], c[3], c[4], c[5], c[6], overall]
}

/// Extended Hamming(8,4) SECDED decoder.
///
/// Syndrome × overall-parity cases: both clear ⇒ clean; parity violated ⇒
/// a single flip (at the syndrome position, or the parity bit itself),
/// corrected; syndrome set with parity intact ⇒ an even number of flips —
/// detected, reported uncorrected.
fn hamming84_decode(mut c: [bool; 8]) -> ([bool; 4], BlockOutcome) {
    let s0 = c[0] ^ c[2] ^ c[4] ^ c[6];
    let s1 = c[1] ^ c[2] ^ c[5] ^ c[6];
    let s2 = c[3] ^ c[4] ^ c[5] ^ c[6];
    let syndrome = usize::from(s0) | usize::from(s1) << 1 | usize::from(s2) << 2;
    let parity_violated = c.iter().fold(false, |acc, &b| acc ^ b);
    let outcome = match (syndrome, parity_violated) {
        (0, false) => BlockOutcome::Clean,
        (0, true) => BlockOutcome::CorrectedAt(7), // the parity bit itself
        (s, true) => {
            let idx = s - 1; // 1-based position -> 0-based index
            c[idx] = !c[idx];
            BlockOutcome::CorrectedAt(idx)
        }
        (_, false) => BlockOutcome::DoubleError,
    };
    ([c[2], c[4], c[5], c[6]], outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_equivalent, VerifyPolicy};
    use odcfp_logic::rng::Xoshiro256;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    #[test]
    fn hamming84_roundtrip_and_single_error_correction() {
        for d in 0..16usize {
            let data = [d & 1 == 1, d & 2 == 2, d & 4 == 4, d & 8 == 8];
            let code = hamming84_encode(data);
            let (back, outcome) = hamming84_decode(code);
            assert_eq!(back, data);
            assert_eq!(outcome, BlockOutcome::Clean);
            for e in 0..8 {
                let mut corrupted = code;
                corrupted[e] = !corrupted[e];
                let (fixed, outcome) = hamming84_decode(corrupted);
                assert_eq!(fixed, data, "data {d} error at {e}");
                assert_eq!(outcome, BlockOutcome::CorrectedAt(e));
            }
        }
    }

    #[test]
    fn hamming84_detects_every_double_error() {
        for d in 0..16usize {
            let data = [d & 1 == 1, d & 2 == 2, d & 4 == 4, d & 8 == 8];
            let code = hamming84_encode(data);
            for e1 in 0..8 {
                for e2 in (e1 + 1)..8 {
                    let mut corrupted = code;
                    corrupted[e1] = !corrupted[e1];
                    corrupted[e2] = !corrupted[e2];
                    let (_, outcome) = hamming84_decode(corrupted);
                    assert_eq!(
                        outcome,
                        BlockOutcome::DoubleError,
                        "data {d} flips at {e1},{e2} must be detected, not mis-corrected"
                    );
                }
            }
        }
    }

    #[test]
    fn repetition_roundtrip_and_majority() {
        let payload = [true, false, true, true];
        let bits = encode(Code::Repetition(5), &payload, 24).unwrap();
        assert_eq!(bits.len(), 24);
        let d = decode(Code::Repetition(5), &bits, 4);
        assert_eq!(d.payload, payload);
        assert!(d.tampered_locations.is_empty());
        // Two flips per group still decode.
        let mut tampered = bits.clone();
        tampered[0] = !tampered[0];
        tampered[3] = !tampered[3];
        tampered[6] = !tampered[6];
        let d2 = decode(Code::Repetition(5), &tampered, 4);
        assert_eq!(d2.payload, payload);
        assert_eq!(d2.tampered_locations, vec![0, 3, 6]);
    }

    #[test]
    fn capacity_checks() {
        assert_eq!(Code::Repetition(3).payload_capacity(10), 3);
        assert_eq!(Code::Hamming.payload_capacity(24), 12);
        assert_eq!(Code::Hamming.payload_capacity(23), 8);
        assert!(matches!(
            encode(Code::Hamming, &[true; 13], 24),
            Err(FingerprintError::BitLengthMismatch { .. })
        ));
    }

    #[test]
    fn double_flip_in_a_hamming_block_is_flagged_not_mislead() {
        let payload = [true, false, true, true, false, true, false, false];
        let bits = encode(Code::Hamming, &payload, 16).unwrap();
        // Two flips inside the first block.
        let mut tampered = bits.clone();
        tampered[1] = !tampered[1];
        tampered[5] = !tampered[5];
        let d = decode(Code::Hamming, &tampered, 8);
        assert_eq!(d.status, DecodeStatus::Ambiguous);
        // The untouched second block still decodes its half correctly.
        assert_eq!(&d.payload[4..], &payload[4..]);
    }

    #[test]
    fn repetition_beyond_tolerance_is_flagged_not_mislead() {
        let payload = [true, false];
        let bits = encode(Code::Repetition(3), &payload, 6).unwrap();
        // Two flips in the first 3-bit group: beyond ⌊(3-1)/2⌋ = 1, the
        // majority now reads the wrong value — the decode must say so.
        let mut tampered = bits.clone();
        tampered[0] = !tampered[0];
        tampered[1] = !tampered[1];
        let d = decode(Code::Repetition(3), &tampered, 2);
        assert_eq!(d.status, DecodeStatus::Ambiguous);
        // Sanity: clean decode is Clean and within-tolerance r=5 decodes
        // with a confident margin.
        assert_eq!(
            decode(Code::Repetition(3), &bits, 2).status,
            DecodeStatus::Clean
        );
        let wide = encode(Code::Repetition(5), &payload, 10).unwrap();
        let mut one_flip = wide.clone();
        one_flip[2] = !one_flip[2];
        let d5 = decode(Code::Repetition(5), &one_flip, 2);
        assert_eq!(d5.payload, payload);
        assert_eq!(d5.status, DecodeStatus::Corrected);
        assert_eq!(d5.tampered_locations, vec![2]);
    }

    #[test]
    #[should_panic(expected = "repetition factor")]
    fn even_repetition_rejected() {
        let _ = encode(Code::Repetition(4), &[true], 8);
    }

    #[test]
    fn end_to_end_tamper_recovery() {
        // Embed a coded buyer id, let the adversary flip a few wires
        // (modelled by embedding the tampered bit string), and recover both
        // the id and the tamper locations.
        let base = random_dag(
            CellLibrary::standard(),
            DagParams {
                inputs: 12,
                gates: 220,
                outputs: 10,
                window: 40,
                seed: 99,
            },
        );
        let fp = Fingerprinter::new(base).unwrap();
        let n = fp.locations().len();
        assert!(n >= 16, "need at least two Hamming blocks, got {n}");
        let payload_len = Code::Hamming.payload_capacity(n).min(8);
        let mut rng = Xoshiro256::seed_from_u64(12);
        let payload: Vec<bool> = (0..payload_len).map(|_| rng.next_bool()).collect();

        let copy = embed_payload(&fp, Code::Hamming, &payload).unwrap();
        // Clean extraction.
        let clean = extract_payload(&fp, Code::Hamming, copy.netlist(), payload_len);
        assert_eq!(clean.payload, payload);
        assert!(clean.tampered_locations.is_empty());
        assert_eq!(clean.status, DecodeStatus::Clean);

        // Adversary flips one location in each of the first two blocks.
        let mut bits = copy.bits().to_vec();
        bits[2] = !bits[2];
        bits[10] = !bits[10];
        let tampered_copy = fp.embed(&bits).unwrap();
        let recovered = extract_payload(&fp, Code::Hamming, tampered_copy.netlist(), payload_len);
        assert_eq!(recovered.payload, payload, "payload survives tampering");
        assert_eq!(recovered.tampered_locations, vec![2, 10]);
        assert_eq!(recovered.status, DecodeStatus::Corrected);
    }

    #[test]
    fn verified_payload_roundtrip_reports_equivalence() {
        let base = random_dag(
            CellLibrary::standard(),
            DagParams {
                inputs: 12,
                gates: 220,
                outputs: 10,
                window: 40,
                seed: 98,
            },
        );
        let fp = Fingerprinter::new(base).unwrap();
        let payload_len = Code::Hamming.payload_capacity(fp.locations().len()).min(4);
        let payload: Vec<bool> = (0..payload_len).map(|i| i % 2 == 0).collect();
        let policy = VerifyPolicy::quick();
        let bits = encode(Code::Hamming, &payload, fp.locations().len()).unwrap();
        let (copy, verdict) = fp.embed_with_policy(&bits, &policy).unwrap();
        assert!(verdict.is_pass(), "embed: {verdict}");
        let decoded = extract_payload(&fp, Code::Hamming, copy.netlist(), payload_len);
        assert_eq!(decoded.payload, payload);
        let verdict = verify_equivalent(fp.base(), copy.netlist(), &policy).unwrap();
        assert!(verdict.is_pass(), "extract: {verdict}");
    }

    #[test]
    fn padding_is_deterministic() {
        let a = encode(Code::Hamming, &[true, false], 20).unwrap();
        let b = encode(Code::Hamming, &[true, false], 20).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
    }
}
