//! The collusion attack of §III-E and designer-side tracing.
//!
//! An attacker holding several fingerprinted copies can diff their layouts:
//! every location where the copies disagree is *exposed* (the attacker sees
//! the optional wire present in one copy and absent in another) and can be
//! set arbitrarily in a forged copy. Locations where all held copies agree
//! stay *hidden* — the attacker cannot distinguish them from ordinary
//! structure, so the forged copy necessarily inherits those bits. Tracing
//! exploits exactly that residue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::Netlist;

use crate::{FingerprintError, FingerprintedCopy, Fingerprinter};

/// What a collusion of copies reveals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollusionReport {
    /// Location indices where the colluders' bits differ (attacker-visible).
    pub exposed: Vec<usize>,
    /// Location indices where every colluder agrees (attacker-blind); the
    /// shared bit value is attached.
    pub hidden: Vec<(usize, bool)>,
}

impl CollusionReport {
    /// Fraction of locations exposed by this collusion, in `[0, 1]`.
    pub fn exposure_rate(&self) -> f64 {
        let total = self.exposed.len() + self.hidden.len();
        if total == 0 {
            0.0
        } else {
            self.exposed.len() as f64 / total as f64
        }
    }
}

/// Diffs the colluders' copies (by extracting each one's bits against the
/// base) and reports which locations their comparison exposes.
///
/// # Panics
///
/// Panics if `copies` is empty or bit lengths disagree (copies from a
/// different engine).
pub fn analyze_collusion(fp: &Fingerprinter, copies: &[&Netlist]) -> CollusionReport {
    assert!(!copies.is_empty(), "collusion needs at least one copy");
    let bit_sets: Vec<Vec<bool>> = copies.iter().map(|c| fp.extract(c)).collect();
    let n = bit_sets[0].len();
    assert!(
        bit_sets.iter().all(|b| b.len() == n),
        "copies disagree on location count"
    );
    let mut exposed = Vec::new();
    let mut hidden = Vec::new();
    for i in 0..n {
        let first = bit_sets[0][i];
        if bit_sets.iter().all(|b| b[i] == first) {
            hidden.push((i, first));
        } else {
            exposed.push(i);
        }
    }
    CollusionReport { exposed, hidden }
}

/// How the attacker sets the bits they exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForgeStrategy {
    /// Disconnect every exposed wire (remove what fingerprint they can see).
    ClearExposed,
    /// Majority vote of the held copies per exposed location.
    Majority,
    /// Random choice per exposed location, seeded.
    Random(u64),
}

/// Forges the copy a colluding attacker would produce: hidden bits are
/// inherited (the attacker cannot see them), exposed bits are set per
/// `strategy`.
///
/// # Errors
///
/// Propagates embedding errors.
///
/// # Panics
///
/// Panics if `copies` is empty.
pub fn forge(
    fp: &Fingerprinter,
    copies: &[&Netlist],
    strategy: ForgeStrategy,
) -> Result<FingerprintedCopy, FingerprintError> {
    let report = analyze_collusion(fp, copies);
    let bit_sets: Vec<Vec<bool>> = copies.iter().map(|c| fp.extract(c)).collect();
    let n = fp.locations().len();
    let mut bits = vec![false; n];
    for &(i, v) in &report.hidden {
        bits[i] = v;
    }
    let mut rng = match strategy {
        ForgeStrategy::Random(seed) => Some(Xoshiro256::seed_from_u64(seed)),
        _ => None,
    };
    for &i in &report.exposed {
        bits[i] = match strategy {
            ForgeStrategy::ClearExposed => false,
            ForgeStrategy::Majority => {
                let ones = bit_sets.iter().filter(|b| b[i]).count();
                ones * 2 > bit_sets.len()
            }
            ForgeStrategy::Random(_) => rng.as_mut().expect("seeded").next_bool(),
        };
    }
    fp.embed(&bits)
}

/// Agreement score between a forged bit string and one buyer's registered
/// bits: the fraction of locations on which they match.
///
/// # Example
///
/// ```
/// use odcfp_core::collusion::agreement;
/// assert_eq!(agreement(&[true, false, true], &[true, true, true]), 2.0 / 3.0);
/// ```
pub fn agreement(forged: &[bool], buyer: &[bool]) -> f64 {
    assert_eq!(forged.len(), buyer.len(), "bit length mismatch");
    if forged.is_empty() {
        return 0.0;
    }
    let matches = forged.iter().zip(buyer).filter(|(a, b)| a == b).count();
    matches as f64 / forged.len() as f64
}

/// Containment score: the fraction of the forged copy's *set* bits (wires
/// present) that the buyer's registered copy also carries.
///
/// This is the sharp tracing signal: an extra wire in a forged copy is
/// either a hidden bit (shared by **every** colluder) or an exposed bit at
/// least one colluder carried, so true colluders score at or near 1.0 while
/// innocent buyers match each surviving wire only by coincidence. A forged
/// copy with no set bits scores 1.0 for everyone (no information — the
/// attackers destroyed the whole fingerprint, which §III-E concedes).
///
/// # Example
///
/// ```
/// use odcfp_core::collusion::containment;
/// // The buyer carries both surviving wires: fully contained.
/// assert_eq!(containment(&[true, false, true], &[true, true, true]), 1.0);
/// // Missing one of the two surviving wires.
/// assert_eq!(containment(&[true, false, true], &[true, false, false]), 0.5);
/// ```
pub fn containment(forged: &[bool], buyer: &[bool]) -> f64 {
    assert_eq!(forged.len(), buyer.len(), "bit length mismatch");
    let total = forged.iter().filter(|&&f| f).count();
    if total == 0 {
        return 1.0;
    }
    let covered = forged.iter().zip(buyer).filter(|&(&f, &b)| f && b).count();
    covered as f64 / total as f64
}

/// One buyer's tracing score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspectScore {
    /// Index into the registry.
    pub buyer: usize,
    /// Set-bit containment (primary ranking key).
    pub containment: f64,
    /// Whole-string agreement (tie breaker).
    pub agreement: f64,
}

/// Ranks registered buyers against a recovered (possibly forged) bit
/// string, most suspicious first — the designer's tracing step. Primary
/// key is [`containment`] of the surviving wires, with [`agreement`] as
/// the tie breaker.
pub fn trace_suspects(forged: &[bool], registry: &[Vec<bool>]) -> Vec<(usize, f64)> {
    let mut scored = score_suspects(forged, registry);
    scored.sort_by(|a, b| {
        (b.containment, b.agreement)
            .partial_cmp(&(a.containment, a.agreement))
            .expect("finite scores")
    });
    scored
        .into_iter()
        .map(|s| (s.buyer, s.containment))
        .collect()
}

/// Computes both tracing metrics for every registered buyer, in registry
/// order.
pub fn score_suspects(forged: &[bool], registry: &[Vec<bool>]) -> Vec<SuspectScore> {
    registry
        .iter()
        .enumerate()
        .map(|(i, bits)| SuspectScore {
            buyer: i,
            containment: containment(forged, bits),
            agreement: agreement(forged, bits),
        })
        .collect()
}

/// A bit-packed tracing index over a registered buyer population.
///
/// [`trace_suspects`] compares the forged string against every buyer
/// bit-by-bit — `O(N·L)` boolean operations and one heap-allocated
/// `Vec<bool>` per buyer, which at `N = 10^6` codebooks is both slow and
/// 8× larger than the information content. The index stores one
/// *position plane* per location (a bitmap over buyers: bit `b` of plane
/// `ℓ` = buyer `b`'s bit at location `ℓ`) plus each buyer's popcount.
/// Tracing then never touches individual buyers' bits: the forged
/// string's set positions select ≤ `L` planes, which a carry-save
/// bit-sliced adder folds into per-buyer overlap counts at 64 buyers per
/// word — `O(L · N/64 · log L)` word operations, a ~`64/log L`-fold cut
/// in work with sequential memory access.
///
/// Both tracing metrics are then recovered from the same integers the
/// pairwise scorer divides:
///
/// * `containment = |f ∧ b| / |f|` — `|f ∧ b|` is the accumulated count;
/// * `agreement = (L - |f| - |b| + 2·|f ∧ b|) / L` — since matches =
///   both-ones + both-zeros.
///
/// Because the operands are bit-for-bit the integers the scalar path
/// counts, every score is **identical** to [`trace_suspects`]'s, not
/// merely close. Rankings are made on those integers too: one packed key
/// per buyer orders exactly as the float sort does, ties included (the
/// private `rank` function gives the argument). Past the adder, a trace
/// costs one `O(N)` pass over the counts, which applies the thresholds
/// and keeps the top `k` in a bounded heap, plus `O(c log c)` to order
/// the `c` convicted buyers.
/// Nothing sorts the population except [`TracerIndex::trace`], whose
/// output is the whole ranking. The tests enforce equality with the
/// sort verdict-for-verdict.
#[derive(Debug, Clone)]
pub struct TracerIndex {
    locations: usize,
    buyers: usize,
    /// `planes[l][w]`: bit `b` of word `w` = buyer `64w+b`'s bit at `l`;
    /// every plane is `⌈N/64⌉` words long.
    planes: Vec<Vec<u64>>,
    /// Per-buyer popcount (`|b|`), for the agreement reconstruction.
    pop: Vec<u32>,
}

impl TracerIndex {
    /// An empty index over codes of `locations` bits.
    pub fn new(locations: usize) -> TracerIndex {
        TracerIndex {
            locations,
            buyers: 0,
            planes: vec![Vec::new(); locations],
            pop: Vec::new(),
        }
    }

    /// Builds an index from a materialized registry (compatibility with
    /// the [`trace_suspects`] calling convention).
    ///
    /// # Panics
    ///
    /// Panics if registry rows disagree on bit length.
    pub fn from_registry(registry: &[Vec<bool>]) -> TracerIndex {
        let locations = registry.first().map_or(0, Vec::len);
        let mut index = TracerIndex::new(locations);
        for bits in registry {
            index.push(bits);
        }
        index
    }

    /// Registers one buyer's bits; returns their index (= push order, so
    /// feeding codebook records in buyer order makes indices buyer ids).
    ///
    /// # Panics
    ///
    /// Panics on a bit-length mismatch.
    pub fn push(&mut self, bits: &[bool]) -> usize {
        assert_eq!(bits.len(), self.locations, "bit length mismatch");
        let buyer = self.buyers;
        let (word, bit) = (buyer / 64, buyer % 64);
        if bit == 0 {
            for plane in &mut self.planes {
                plane.push(0);
            }
        }
        let mut pop = 0u32;
        for (plane, &v) in self.planes.iter_mut().zip(bits) {
            if v {
                plane[word] |= 1u64 << bit;
                pop += 1;
            }
        }
        self.pop.push(pop);
        self.buyers += 1;
        buyer
    }

    /// Registered buyers.
    pub fn len(&self) -> usize {
        self.buyers
    }

    /// `true` when no buyer is registered.
    pub fn is_empty(&self) -> bool {
        self.buyers == 0
    }

    /// Bits per code.
    pub fn locations(&self) -> usize {
        self.locations
    }

    /// Per-buyer `|f ∧ b|` via the carry-save bit-sliced adder.
    fn overlap_counts(&self, forged: &[bool]) -> Vec<u32> {
        // Words per tile: every accumulator level's slice of one tile
        // (≤ 11 levels × 2 KiB for codes under 2,048 bits) stays in L1
        // while the tile's planes stream past.
        const TILE: usize = 256;
        const ZERO: [u64; TILE] = [0; TILE];
        let words = self.buyers.div_ceil(64);
        let set: Vec<&[u64]> = forged
            .iter()
            .zip(&self.planes)
            .filter(|&(&f, _)| f)
            .map(|(_, plane)| plane.as_slice())
            .collect();
        // A count ≤ |f| has ⌈log2(|f|+1)⌉ bits; `acc` holds one TILE-word
        // level per bit (at least two, for the weight-4 carry below),
        // level `i` carrying bit `i` of every count.
        let levels = ((usize::BITS - set.len().leading_zeros()) as usize).max(2);
        let mut acc = vec![0u64; levels * TILE];
        let [mut twos_a, mut twos_b, mut fours] = [[0u64; TILE]; 3];
        let mut counts = vec![0u32; self.buyers];
        for start in (0..words).step_by(TILE) {
            let width = TILE.min(words - start);
            acc.fill(0);
            // Four planes at a time: two full adders fold them into level
            // 0 with two weight-2 carries, a third folds those into level
            // 1, and only the weight-4 carry ripples on up.
            for group in set.chunks(4) {
                let plane = |i: usize| {
                    group
                        .get(i)
                        .map_or(&ZERO[..width], |p| &p[start..start + width])
                };
                let (low, high) = acc.split_at_mut(2 * TILE);
                let (ones, twos) = low.split_at_mut(TILE);
                full_add(&mut ones[..width], plane(0), plane(1), &mut twos_a[..width]);
                full_add(&mut ones[..width], plane(2), plane(3), &mut twos_b[..width]);
                full_add(
                    &mut twos[..width],
                    &twos_a[..width],
                    &twos_b[..width],
                    &mut fours[..width],
                );
                for level in high.chunks_exact_mut(TILE) {
                    let mut live = 0;
                    for (a, c) in level[..width].iter_mut().zip(&mut fours[..width]) {
                        let t = *a & *c;
                        *a ^= *c;
                        *c = t;
                        live |= t;
                    }
                    if live == 0 {
                        break;
                    }
                }
            }
            for (i, level) in acc.chunks_exact(TILE).enumerate() {
                for (w, &word) in level[..width].iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        let b = (start + w) * 64 + rest.trailing_zeros() as usize;
                        counts[b] += 1 << i;
                        rest &= rest - 1;
                    }
                }
            }
        }
        counts
    }

    /// Scores every buyer, in registry order — value-identical to
    /// [`score_suspects`] over the same population.
    ///
    /// # Panics
    ///
    /// Panics on a bit-length mismatch.
    pub fn score(&self, forged: &[bool]) -> Vec<SuspectScore> {
        assert_eq!(forged.len(), self.locations, "bit length mismatch");
        let total = forged.iter().filter(|&&f| f).count();
        let counts = self.overlap_counts(forged);
        let len = self.locations;
        counts
            .iter()
            .enumerate()
            .map(|(buyer, &covered)| {
                // Same integer operands, same divisions, as the scalar
                // `containment`/`agreement` — results are bit-identical.
                let containment = if total == 0 {
                    1.0
                } else {
                    f64::from(covered) / total as f64
                };
                let agreement = if len == 0 {
                    0.0
                } else {
                    // Additions first: the final value (= match count)
                    // is non-negative, but `len - total - pop` alone
                    // can underflow usize.
                    let matches = (len + 2 * covered as usize) - total - self.pop[buyer] as usize;
                    matches as f64 / len as f64
                };
                SuspectScore {
                    buyer,
                    containment,
                    agreement,
                }
            })
            .collect()
    }

    /// Every buyer's packed [`rank`], in registry order, and `|f|`.
    fn ranks(&self, forged: &[bool]) -> (usize, impl Iterator<Item = u128> + '_) {
        assert_eq!(forged.len(), self.locations, "bit length mismatch");
        assert!(
            u32::try_from(self.locations).is_ok(),
            "codes longer than u32 counts"
        );
        let total = forged.iter().filter(|&&f| f).count();
        let counts = self.overlap_counts(forged);
        // `L - |f| ≥ 0`, and adding `2·|f ∧ b|` before subtracting `|b|`
        // keeps every step non-negative (the result is the match count).
        let zeros = (self.locations - total) as u64;
        let ranks = counts.into_iter().zip(&self.pop).enumerate();
        let ranks = ranks.map(move |(buyer, (covered, &pop))| {
            let matches = zeros + 2 * u64::from(covered) - u64::from(pop);
            rank(covered, matches as u32, buyer)
        });
        (total, ranks)
    }

    /// The score a packed [`rank`] stands for, computed by the same
    /// expressions as [`score_suspects`].
    fn suspect(&self, rank: u128, total: usize) -> SuspectScore {
        let (covered, matches, buyer) = unrank(rank);
        SuspectScore {
            buyer,
            containment: containment_of(covered, total),
            agreement: agreement_of(matches, self.locations),
        }
    }

    /// Ranks the population, most suspicious first — order-identical to
    /// [`trace_suspects`] over the same registry.
    ///
    /// # Panics
    ///
    /// Panics on a bit-length mismatch.
    pub fn trace(&self, forged: &[bool]) -> Vec<(usize, f64)> {
        let (total, ranks) = self.ranks(forged);
        top(ranks, self.buyers, self.buyers)
            .into_iter()
            .map(|r| {
                let s = self.suspect(r, total);
                (s.buyer, s.containment)
            })
            .collect()
    }

    /// The `k` most suspicious buyers with both metrics — what a
    /// million-buyer tracing report actually wants (the full ranking is
    /// a megabyte of innocents).
    ///
    /// # Panics
    ///
    /// Panics on a bit-length mismatch.
    pub fn trace_top(&self, forged: &[bool], k: usize) -> Vec<SuspectScore> {
        let (total, ranks) = self.ranks(forged);
        top(ranks, k, self.buyers)
            .into_iter()
            .map(|r| self.suspect(r, total))
            .collect()
    }

    /// Traces a recovered bit string to a structured [`TraceVerdict`]
    /// instead of a bare ranking.
    ///
    /// A ranking alone invites misreading: *someone* is always ranked
    /// first, even when the recovered string carries no evidence at all
    /// (every wire stripped) or matches half the population (averaged
    /// into noise). The verdict makes the statistical decision explicit —
    /// see [`TraceParams`] for the threshold construction — and
    /// classifies the trace as [`Convicted`](TraceOutcome::Convicted),
    /// [`Inconclusive`](TraceOutcome::Inconclusive), or
    /// [`InnocentRisk`](TraceOutcome::InnocentRisk).
    ///
    /// The ranking inside the verdict is the selection
    /// [`TracerIndex::trace_top`] makes, so it stays bit-identical to the
    /// pairwise oracle ([`score_suspects`] + the containment/agreement
    /// sort); the verdict only *interprets* it. One pass over the
    /// population applies the thresholds and keeps the top `top_k`;
    /// only the convicted buyers (at most `max_convicted_fraction` of
    /// the population) are ever sorted.
    ///
    /// # Panics
    ///
    /// Panics on a bit-length mismatch.
    pub fn verdict(&self, recovered: &[bool], params: &TraceParams) -> TraceVerdict {
        let (evidence_wires, ranks) = self.ranks(recovered);
        let threshold = params.containment_threshold(evidence_wires);
        let agreement_threshold = params.agreement_threshold(self.locations);
        // Both scores are monotone in their integer operand, so each
        // threshold is the least operand whose score — the same float
        // expression — clears it (`usize::MAX`: none does).
        let min_covered = (0..=evidence_wires)
            .find(|&c| containment_of(c, evidence_wires) >= threshold)
            .unwrap_or(usize::MAX);
        let min_matches = (0..=self.locations)
            .find(|&m| agreement_of(m, self.locations) >= agreement_threshold)
            .unwrap_or(usize::MAX);
        let limit = (params.max_convicted_fraction * self.buyers as f64).ceil() as usize;
        let limit = limit.max(1);
        // The accusation count sweeps the whole population, not just the
        // reported top-k — a flooded threshold must not look clean. One
        // buyer past `limit` already decides the outcome, so the list
        // stops growing there.
        let mut cleared = Vec::new();
        let ranking = top(
            ranks.inspect(|&r| {
                let (covered, matches, _) = unrank(r);
                if cleared.len() <= limit && (covered >= min_covered || matches >= min_matches) {
                    cleared.push(r);
                }
            }),
            params.top_k.max(1),
            self.buyers,
        );
        let outcome = if evidence_wires < params.min_evidence || cleared.is_empty() {
            TraceOutcome::Inconclusive
        } else if cleared.len() > limit {
            TraceOutcome::InnocentRisk
        } else {
            TraceOutcome::Convicted
        };
        let convicted = if outcome == TraceOutcome::Convicted {
            cleared.sort_unstable_by(|a, b| b.cmp(a));
            cleared
                .into_iter()
                .map(|r| self.suspect(r, evidence_wires))
                .collect()
        } else {
            Vec::new()
        };
        TraceVerdict {
            outcome,
            convicted,
            ranking: ranking
                .into_iter()
                .map(|r| self.suspect(r, evidence_wires))
                .collect(),
            evidence_wires,
            threshold,
            agreement_threshold,
        }
    }
}

/// Adds `x + y` into the bit-sliced `sum` word by word, writing the
/// carry out of each lane to `carry`.
fn full_add(sum: &mut [u64], x: &[u64], y: &[u64], carry: &mut [u64]) {
    for (((s, c), &x), &y) in sum.iter_mut().zip(carry).zip(x).zip(y) {
        let t = *s ^ x;
        *c = (*s & x) | (t & y);
        *s = t ^ y;
    }
}

/// `|f ∧ b| / |f|`, the expression [`containment`] evaluates.
fn containment_of(covered: usize, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        covered as f64 / total as f64
    }
}

/// `matches / L`, the expression [`agreement`] evaluates.
fn agreement_of(matches: usize, len: usize) -> f64 {
    if len == 0 {
        0.0
    } else {
        matches as f64 / len as f64
    }
}

/// One buyer's ranking key; larger ranks first.
///
/// Over one trace every containment is `covered / |f|` and every
/// agreement `matches / L`: shared denominators, and a division by a
/// fixed denominator below 2^53 is strictly monotone in numerators up to
/// it. Ordering by `(covered, matches)` descending, then buyer
/// ascending, is therefore exactly the stable `(containment, agreement)`
/// float sort [`trace_suspects`] makes, ties included — and packing the
/// three into one integer makes that order a plain integer comparison.
fn rank(covered: u32, matches: u32, buyer: usize) -> u128 {
    (u128::from(covered) << 96) | (u128::from(matches) << 64) | u128::from(!(buyer as u64))
}

/// `(covered, matches, buyer)` back from a [`rank`].
fn unrank(rank: u128) -> (usize, usize, usize) {
    (
        (rank >> 96) as usize,
        (rank >> 64) as u32 as usize,
        !(rank as u64) as usize,
    )
}

/// The `k` largest of `n` ranks, largest first, consuming them all.
///
/// A bounded min-heap keeps the running top `k` without sorting the
/// population; when `k` is a large share of `n` one unstable sort of
/// the packed keys is cheaper than the heap.
fn top(ranks: impl Iterator<Item = u128>, k: usize, n: usize) -> Vec<u128> {
    if k.saturating_mul(4) >= n {
        let mut all: Vec<u128> = ranks.collect();
        all.sort_unstable_by(|a, b| b.cmp(a));
        all.truncate(k);
        return all;
    }
    let mut heap = BinaryHeap::with_capacity(k + 1);
    for r in ranks {
        if heap.len() < k {
            heap.push(Reverse(r));
        } else if heap.peek().is_some_and(|&Reverse(worst)| r > worst) {
            heap.pop();
            heap.push(Reverse(r));
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|Reverse(r)| r)
        .collect()
}

/// Tuning knobs for [`TracerIndex::verdict`].
///
/// Both conviction thresholds are derived from the innocent-buyer
/// baseline: an innocent's bit at any location is an independent coin
/// flip, so over `s` surviving evidence wires their containment is
/// `Binomial(s, ½)/s` — mean `½`, standard deviation `½/√s` — and over
/// all `L` locations their agreement is `Binomial(L, ½)/L`. A buyer
/// convicts when **either** statistic sits `sigma` innocent standard
/// deviations above chance:
///
/// * containment ≥ `½ + sigma·½/√s` — sharp against AND-style mixing,
///   where every surviving wire is carried by every colluder;
/// * agreement ≥ `½ + sigma·½/√L` — sharp against averaging mixes, whose
///   per-wire signal is diluted to `≈ 1/(2n)` but present at *every*
///   location, set or clear, so the wider evidence base wins.
///
/// With the default `sigma = 3.5` each test's per-innocent
/// false-accusation probability is ≈ 2·10⁻⁴; callers tracing very large
/// populations should raise `sigma` (≈ `√(2·ln N)` keeps the *expected*
/// number of false accusations below one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Minimum surviving evidence wires for any conviction; below this
    /// the verdict is [`TraceOutcome::Inconclusive`]. Default 16.
    pub min_evidence: usize,
    /// Innocent standard deviations above chance required to convict.
    /// Default 3.5.
    pub sigma: f64,
    /// If more than this fraction of the population clears a threshold
    /// (at least one buyer is always tolerated), the verdict degrades to
    /// [`TraceOutcome::InnocentRisk`]: the evidence accuses so broadly it
    /// cannot be trusted. Default 0.25.
    pub max_convicted_fraction: f64,
    /// Length of the reported ranking (the accusation *count* always
    /// considers the whole population). Default 8.
    pub top_k: usize,
}

impl Default for TraceParams {
    fn default() -> Self {
        TraceParams {
            min_evidence: 16,
            sigma: 3.5,
            max_convicted_fraction: 0.25,
            top_k: 8,
        }
    }
}

impl TraceParams {
    /// The containment a buyer must reach to convict, given `s` surviving
    /// evidence wires. Infinite when `s = 0` (no evidence convicts no
    /// one).
    pub fn containment_threshold(&self, evidence_wires: usize) -> f64 {
        if evidence_wires == 0 {
            f64::INFINITY
        } else {
            0.5 + self.sigma * 0.5 / (evidence_wires as f64).sqrt()
        }
    }

    /// The agreement a buyer must reach to convict, given `locations`
    /// bits per code.
    pub fn agreement_threshold(&self, locations: usize) -> f64 {
        if locations == 0 {
            f64::INFINITY
        } else {
            0.5 + self.sigma * 0.5 / (locations as f64).sqrt()
        }
    }
}

/// The statistical outcome of a trace — see [`TracerIndex::verdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOutcome {
    /// At least one buyer sits provably above the innocent baseline.
    Convicted,
    /// Nobody clears the threshold, or the evidence is too thin to
    /// support any accusation.
    Inconclusive,
    /// The threshold accuses an implausibly large share of the
    /// population; treating the ranking as convictions would accuse
    /// innocents.
    InnocentRisk,
}

impl TraceOutcome {
    /// Stable lowercase name (used in traces and scorecards).
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Convicted => "convicted",
            TraceOutcome::Inconclusive => "inconclusive",
            TraceOutcome::InnocentRisk => "innocent-risk",
        }
    }
}

/// A structured tracing decision: the interpreted outcome plus the
/// bit-identical ranking it interprets.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceVerdict {
    /// The statistical decision.
    pub outcome: TraceOutcome,
    /// Buyers above the conviction threshold, most suspicious first.
    /// Empty unless `outcome` is [`TraceOutcome::Convicted`].
    pub convicted: Vec<SuspectScore>,
    /// The top of the underlying ranking (identical to
    /// [`TracerIndex::trace_top`]), reported regardless of outcome.
    pub ranking: Vec<SuspectScore>,
    /// Surviving evidence wires (set bits in the recovered string).
    pub evidence_wires: usize,
    /// The containment threshold that was applied.
    pub threshold: f64,
    /// The agreement threshold that was applied.
    pub agreement_threshold: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn engine() -> Fingerprinter {
        let lib = CellLibrary::standard();
        let base = random_dag(
            lib,
            DagParams {
                inputs: 12,
                gates: 120,
                outputs: 8,
                window: 30,
                seed: 777,
            },
        );
        Fingerprinter::new(base).unwrap()
    }

    #[test]
    fn collusion_exposes_exactly_differing_locations() {
        let fp = engine();
        let n = fp.locations().len();
        assert!(n >= 4, "need a few locations, got {n}");
        let a = fp.embed_seeded(1).unwrap();
        let b = fp.embed_seeded(2).unwrap();
        let report = analyze_collusion(&fp, &[a.netlist(), b.netlist()]);
        for &i in &report.exposed {
            assert_ne!(a.bits()[i], b.bits()[i]);
        }
        for &(i, v) in &report.hidden {
            assert_eq!(a.bits()[i], b.bits()[i]);
            assert_eq!(a.bits()[i], v);
        }
        assert_eq!(report.exposed.len() + report.hidden.len(), n);
        assert!(report.exposure_rate() > 0.0 && report.exposure_rate() < 1.0);
    }

    #[test]
    fn single_copy_exposes_nothing() {
        let fp = engine();
        let a = fp.embed_seeded(3).unwrap();
        let report = analyze_collusion(&fp, &[a.netlist()]);
        assert!(report.exposed.is_empty());
        assert_eq!(report.exposure_rate(), 0.0);
    }

    #[test]
    fn more_colluders_expose_more() {
        let fp = engine();
        let copies: Vec<_> = (0..5).map(|s| fp.embed_seeded(s).unwrap()).collect();
        let two = analyze_collusion(&fp, &[copies[0].netlist(), copies[1].netlist()]);
        let all: Vec<&Netlist> = copies.iter().map(|c| c.netlist()).collect();
        let five = analyze_collusion(&fp, &all);
        assert!(five.exposed.len() >= two.exposed.len());
    }

    #[test]
    fn forged_copy_keeps_hidden_bits_and_stays_functional() {
        let fp = engine();
        let a = fp.embed_seeded(10).unwrap();
        let b = fp.embed_seeded(11).unwrap();
        let report = analyze_collusion(&fp, &[a.netlist(), b.netlist()]);
        for strategy in [
            ForgeStrategy::ClearExposed,
            ForgeStrategy::Majority,
            ForgeStrategy::Random(9),
        ] {
            let forged = forge(&fp, &[a.netlist(), b.netlist()], strategy).unwrap();
            // Hidden bits survive in the forged copy.
            for &(i, v) in &report.hidden {
                assert_eq!(forged.bits()[i], v, "{strategy:?} hidden bit {i}");
            }
            // The forgery is still a functional copy (embed verified it).
            assert_eq!(forged.bits().len(), fp.locations().len());
        }
    }

    #[test]
    fn tracing_ranks_colluders_first() {
        let fp = engine();
        let n_buyers = 8;
        let copies: Vec<_> = (0..n_buyers)
            .map(|s| fp.embed_seeded(s as u64 * 31 + 5).unwrap())
            .collect();
        let registry: Vec<Vec<bool>> = copies.iter().map(|c| c.bits().to_vec()).collect();
        // Buyers 2 and 5 collude and clear what they can see.
        let forged = forge(
            &fp,
            &[copies[2].netlist(), copies[5].netlist()],
            ForgeStrategy::ClearExposed,
        )
        .unwrap();
        let recovered = fp.extract(forged.netlist());
        let ranking = trace_suspects(&recovered, &registry);
        let top2: Vec<usize> = ranking.iter().take(2).map(|&(i, _)| i).collect();
        assert!(
            top2.contains(&2) && top2.contains(&5),
            "colluders should rank first: {ranking:?}"
        );
    }

    #[test]
    fn agreement_bounds() {
        assert_eq!(agreement(&[true, false], &[true, false]), 1.0);
        assert_eq!(agreement(&[true, false], &[false, true]), 0.0);
        assert_eq!(agreement(&[true, true], &[true, false]), 0.5);
        assert_eq!(agreement(&[], &[]), 0.0);
    }

    #[test]
    fn containment_bounds() {
        assert_eq!(containment(&[true, true], &[true, true]), 1.0);
        assert_eq!(containment(&[true, true], &[true, false]), 0.5);
        assert_eq!(
            containment(&[false, false], &[true, false]),
            1.0,
            "no wires, no info"
        );
        // Buyer's extra wires do not hurt containment.
        assert_eq!(containment(&[true, false], &[true, true]), 1.0);
    }

    /// Random registry of `n` buyers × `l` locations plus a forged
    /// string, deterministically seeded.
    fn random_population(seed: u64, n: usize, l: usize) -> (Vec<Vec<bool>>, Vec<bool>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let registry: Vec<Vec<bool>> = (0..n)
            .map(|_| (0..l).map(|_| rng.next_bool()).collect())
            .collect();
        let forged: Vec<bool> = (0..l).map(|_| rng.next_bool()).collect();
        (registry, forged)
    }

    #[test]
    fn index_scores_are_bit_identical_to_pairwise() {
        // Sweep populations crossing the 64-buyer word boundary and odd
        // code lengths; every score must equal the pairwise oracle's
        // f64 exactly (same integers, same divisions).
        for (seed, n, l) in [
            (1u64, 1usize, 1usize),
            (2, 7, 3),
            (3, 63, 17),
            (4, 64, 33),
            (5, 65, 64),
            (6, 200, 71),
        ] {
            let (registry, forged) = random_population(seed, n, l);
            let oracle = score_suspects(&forged, &registry);
            let index = TracerIndex::from_registry(&registry);
            assert_eq!(index.len(), n);
            let fast = index.score(&forged);
            assert_eq!(fast.len(), oracle.len());
            for (f, o) in fast.iter().zip(&oracle) {
                assert_eq!(f.buyer, o.buyer);
                assert_eq!(
                    f.containment.to_bits(),
                    o.containment.to_bits(),
                    "containment n={n} l={l} buyer {}",
                    f.buyer
                );
                assert_eq!(
                    f.agreement.to_bits(),
                    o.agreement.to_bits(),
                    "agreement n={n} l={l} buyer {}",
                    f.buyer
                );
            }
            // Full rankings agree element-for-element (ties included,
            // since both sorts are stable over identical keys).
            assert_eq!(index.trace(&forged), trace_suspects(&forged, &registry));
        }
    }

    #[test]
    fn index_handles_empty_forged_string_like_the_oracle() {
        let (registry, _) = random_population(9, 50, 12);
        let forged = vec![false; 12];
        let index = TracerIndex::from_registry(&registry);
        for s in index.score(&forged) {
            assert_eq!(s.containment, 1.0, "no surviving wires → no information");
        }
        assert_eq!(index.trace(&forged), trace_suspects(&forged, &registry));
    }

    #[test]
    fn index_traces_real_coalitions_identically_to_pairwise() {
        // The guard the CI job relies on: random coalitions up to n = 8,
        // all forge strategies, index ranking == pairwise oracle.
        let fp = engine();
        let copies: Vec<_> = (0..12u64)
            .map(|s| fp.embed_seeded(s * 13 + 3).unwrap())
            .collect();
        let registry: Vec<Vec<bool>> = copies.iter().map(|c| c.bits().to_vec()).collect();
        let index = TracerIndex::from_registry(&registry);
        let mut rng = Xoshiro256::seed_from_u64(0xC0A1);
        for round in 0..6 {
            let size = 2 + (rng.next_u64() % 7) as usize; // 2..=8
            let mut members: Vec<usize> = (0..registry.len()).collect();
            for i in (1..members.len()).rev() {
                members.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            members.truncate(size);
            let held: Vec<&Netlist> = members.iter().map(|&i| copies[i].netlist()).collect();
            for strategy in [
                ForgeStrategy::ClearExposed,
                ForgeStrategy::Majority,
                ForgeStrategy::Random(round as u64),
            ] {
                let forged = forge(&fp, &held, strategy).unwrap();
                let recovered = fp.extract(forged.netlist());
                assert_eq!(
                    index.trace(&recovered),
                    trace_suspects(&recovered, &registry),
                    "round {round} coalition {members:?} {strategy:?}"
                );
                let top = index.trace_top(&recovered, 3);
                let full = index.trace(&recovered);
                for (t, f) in top.iter().zip(&full) {
                    assert_eq!((t.buyer, t.containment), *f);
                }
            }
        }
    }

    #[test]
    fn verdict_ranking_is_bit_identical_to_pairwise_oracle() {
        // The structured verdict interprets the ranking, it must not
        // perturb it: element-for-element equality with the pairwise
        // oracle's sort, f64 bits included.
        for (seed, n, l) in [(11u64, 40usize, 33usize), (12, 65, 80), (13, 129, 129)] {
            let (registry, forged) = random_population(seed, n, l);
            let index = TracerIndex::from_registry(&registry);
            let params = TraceParams {
                top_k: n,
                ..TraceParams::default()
            };
            let verdict = index.verdict(&forged, &params);
            let mut oracle = score_suspects(&forged, &registry);
            oracle.sort_by(|a, b| {
                (b.containment, b.agreement)
                    .partial_cmp(&(a.containment, a.agreement))
                    .expect("finite scores")
            });
            assert_eq!(verdict.ranking.len(), oracle.len());
            for (v, o) in verdict.ranking.iter().zip(&oracle) {
                assert_eq!(v.buyer, o.buyer);
                assert_eq!(v.containment.to_bits(), o.containment.to_bits());
                assert_eq!(v.agreement.to_bits(), o.agreement.to_bits());
            }
            assert_eq!(verdict.ranking, index.trace_top(&forged, n));
        }
    }

    #[test]
    fn verdict_convicts_clear_exposed_coalition_without_innocents() {
        // Needs enough locations that the coalition's hidden-one residue
        // clears `min_evidence`; the default 120-gate DAG is too small.
        let lib = CellLibrary::standard();
        let base = random_dag(
            lib,
            DagParams {
                inputs: 16,
                gates: 1400,
                outputs: 12,
                window: 40,
                seed: 778,
            },
        );
        let fp = Fingerprinter::new(base).unwrap();
        assert!(
            fp.locations().len() >= 100,
            "need a realistic code length, got {}",
            fp.locations().len()
        );
        let copies: Vec<_> = (0..10u64)
            .map(|s| fp.embed_seeded(s * 17 + 2).unwrap())
            .collect();
        let registry: Vec<Vec<bool>> = copies.iter().map(|c| c.bits().to_vec()).collect();
        let index = TracerIndex::from_registry(&registry);
        let colluders = [1usize, 4];
        let held: Vec<&Netlist> = colluders.iter().map(|&i| copies[i].netlist()).collect();
        let forged = forge(&fp, &held, ForgeStrategy::ClearExposed).unwrap();
        let recovered = fp.extract(forged.netlist());
        let verdict = index.verdict(&recovered, &TraceParams::default());
        assert_eq!(verdict.outcome, TraceOutcome::Convicted, "{verdict:?}");
        let accused: Vec<usize> = verdict.convicted.iter().map(|s| s.buyer).collect();
        for b in &accused {
            assert!(
                colluders.contains(b),
                "innocent buyer {b} accused: {verdict:?}"
            );
        }
        assert!(!accused.is_empty());
    }

    #[test]
    fn verdict_is_inconclusive_on_stripped_fingerprint() {
        let (registry, _) = random_population(21, 30, 100);
        let index = TracerIndex::from_registry(&registry);
        let stripped = vec![false; 100];
        let verdict = index.verdict(&stripped, &TraceParams::default());
        assert_eq!(verdict.outcome, TraceOutcome::Inconclusive);
        assert!(verdict.convicted.is_empty());
        assert_eq!(verdict.evidence_wires, 0);
        // The ranking is still reported (everyone at containment 1.0),
        // which is exactly the misreading the outcome guards against.
        assert!(!verdict.ranking.is_empty());
    }

    #[test]
    fn verdict_flags_innocent_risk_when_threshold_floods() {
        // Every buyer carries every wire: the evidence "convicts" the
        // whole population, which must be reported as innocent risk.
        let registry: Vec<Vec<bool>> = vec![vec![true; 64]; 12];
        let index = TracerIndex::from_registry(&registry);
        let mut forged = vec![false; 64];
        for b in forged.iter_mut().take(32) {
            *b = true;
        }
        let verdict = index.verdict(&forged, &TraceParams::default());
        assert_eq!(verdict.outcome, TraceOutcome::InnocentRisk);
        assert!(verdict.convicted.is_empty());
    }

    #[test]
    fn index_scales_to_large_populations() {
        // 10^4 buyers is the in-tree smoke (the bench binary pushes
        // 10^5+); correctness against the oracle stays exact.
        let (registry, forged) = random_population(77, 10_000, 64);
        let index = TracerIndex::from_registry(&registry);
        assert_eq!(index.trace(&forged), trace_suspects(&forged, &registry));
    }

    #[test]
    fn clear_exposed_colluders_have_full_containment() {
        let fp = engine();
        let copies: Vec<_> = (0..6)
            .map(|s| fp.embed_seeded(s * 7 + 1).unwrap())
            .collect();
        let held: Vec<&Netlist> = copies[..3].iter().map(|c| c.netlist()).collect();
        let forged = forge(&fp, &held, ForgeStrategy::ClearExposed).unwrap();
        let recovered = fp.extract(forged.netlist());
        for colluder in copies[..3].iter() {
            assert_eq!(
                containment(&recovered, colluder.bits()),
                1.0,
                "every surviving wire is carried by every colluder"
            );
        }
    }
}
