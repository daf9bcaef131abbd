//! The adversary suite: an attack battery grading fingerprint survival
//! and traceability.
//!
//! The paper proves embedding is functionally invisible; this module asks
//! the complementary question — what does an *active* adversary do to it?
//! Three attack families are modeled, each deterministic (seeded),
//! cancellable, and traced through `odcfp-obs` under `attack.*` names:
//!
//! 1. **Resynthesis** ([`resynth`]): round-trip a fingerprinted copy
//!    through the `odcfp-synth` optimizer and technology re-mapper at
//!    escalating effort, then re-locate surviving ODC-trigger wires by
//!    structural matching (the [`SweepEngine`](odcfp_sat::SweepEngine)
//!    hash-consing front end). The recovered wire set is traced against
//!    the buyer registry to ask whether conviction survives the rewrite.
//! 2. **Collusion averaging** ([`collude`]): `n`-way coalitions
//!    (`n ∈ {2, 4, 8, 16, 32}` by default) mix their copies bit-wise —
//!    AND, majority vote, or random-member averaging — and the forged
//!    code is judged by [`TracerIndex::verdict`](crate::collusion::TracerIndex::verdict),
//!    reporting conviction and innocent-accusation rates per strategy.
//! 3. **Side-channel detectability** ([`sidechannel`]): the switching-
//!    activity power model compares golden and fingerprinted power
//!    signatures; a copy whose signature distance exceeds a threshold is
//!    flagged as detectable from outside the package.
//!
//! The result is an [`AttackScorecard`] (one JSON document per
//! benchmark, reproduced in EXPERIMENTS.md) whose per-location
//! [`SurvivalStats`] feed back into
//! [`heuristics`](crate::heuristics) location selection — attack
//! evidence closing the loop into embedding policy (`--robust-locations`
//! in the CLI).

pub mod collude;
pub mod resynth;
pub mod sidechannel;

use std::fmt;

use odcfp_analysis::cancel::CancelToken;
use odcfp_netlist::Netlist;
use odcfp_synth::{ResynthError, ResynthLevel};

use crate::collusion::{TraceParams, TracerIndex};
use crate::verify::{VerifyPolicy, VerifySession};
use crate::{FingerprintError, Fingerprinter};

pub use collude::{CollusionAttackReport, MixStrategy};
pub use resynth::{ResynthAttackReport, StructuralReference};
pub use sidechannel::{CopyDistance, SideChannelReport};

/// Why an attack battery stopped.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// The base netlist could not be fingerprinted, or a copy could not
    /// be minted.
    Fingerprint(FingerprintError),
    /// A resynthesis pass failed.
    Resynth(ResynthError),
    /// The cancel token fired.
    Cancelled,
    /// The battery was asked for more buyers than the code space holds
    /// useful information for (no locations at all).
    NoLocations,
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Fingerprint(e) => write!(f, "fingerprinting failed: {e}"),
            AttackError::Resynth(e) => write!(f, "resynthesis failed: {e}"),
            AttackError::Cancelled => write!(f, "attack battery cancelled"),
            AttackError::NoLocations => write!(f, "circuit has no fingerprint locations"),
        }
    }
}

impl std::error::Error for AttackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttackError::Fingerprint(e) => Some(e),
            AttackError::Resynth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FingerprintError> for AttackError {
    fn from(e: FingerprintError) -> Self {
        AttackError::Fingerprint(e)
    }
}

impl From<ResynthError> for AttackError {
    fn from(e: ResynthError) -> Self {
        AttackError::Resynth(e)
    }
}

/// Battery configuration. [`Default`] is the full-strength battery; the
/// CLI's smoke budget trims `resynth_levels` and `coalition_sizes`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOptions {
    /// Root seed; every derived RNG (buyer codes, coalition sampling,
    /// random-member mixing, power patterns) is a pure function of it.
    pub seed: u64,
    /// Registered buyer population (bit-string registry). Default 32.
    pub buyers: usize,
    /// Netlist-level copies actually minted (resynthesis victim and
    /// side-channel measurements). Default 4.
    pub minted_copies: usize,
    /// Coalition sizes for the collusion battery; sizes larger than
    /// `buyers` are skipped. Default `[2, 4, 8, 16, 32]`.
    pub coalition_sizes: Vec<usize>,
    /// Resynthesis effort levels to run. Default all three.
    pub resynth_levels: Vec<ResynthLevel>,
    /// Tracing decision parameters.
    pub trace_params: TraceParams,
    /// 64-bit pattern words per net for the power model. Default 64.
    pub power_words: usize,
    /// Relative power-signature distance above which a copy counts as
    /// detectable. Default `0.001` (0.1%).
    pub detectability_threshold: f64,
    /// Verification policy for minting copies.
    pub verify: VerifyPolicy,
}

impl Default for AttackOptions {
    fn default() -> Self {
        AttackOptions {
            seed: 0xA77AC_u64,
            buyers: 32,
            minted_copies: 4,
            coalition_sizes: vec![2, 4, 8, 16, 32],
            resynth_levels: ResynthLevel::ALL.to_vec(),
            trace_params: TraceParams::default(),
            power_words: 64,
            detectability_threshold: 0.001,
            verify: VerifyPolicy::quick(),
        }
    }
}

/// Per-location survival statistics accumulated across every resynthesis
/// attack in a battery — the feedback signal for robust location
/// selection ([`crate::heuristics::robust_location_order`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurvivalStats {
    /// Resynthesis attacks run.
    pub attacks: usize,
    /// Per location: in how many attacks its wire survived (counted only
    /// when the victim copy actually embedded the wire and it was
    /// identifiable pre-attack).
    pub survived: Vec<u32>,
    /// Per location: in how many attacks the wire was embedded and
    /// identifiable pre-attack (the denominator for `survived`).
    pub tested: Vec<u32>,
    /// Per location: whether the wire is structurally identifiable at
    /// all (its modified shape is distinguishable from base logic).
    pub identifiable: Vec<bool>,
}

impl SurvivalStats {
    fn new(locations: usize, identifiable: Vec<bool>) -> SurvivalStats {
        SurvivalStats {
            attacks: 0,
            survived: vec![0; locations],
            tested: vec![0; locations],
            identifiable,
        }
    }

    /// Survival score of location `i` in `[0, 1]`: measured survival
    /// rate, or `0` for never-tested or unidentifiable wires (an
    /// unidentifiable wire is *gone* after any rewrite — the most
    /// fragile kind).
    pub fn score(&self, i: usize) -> f64 {
        if !self.identifiable.get(i).copied().unwrap_or(false) || self.tested[i] == 0 {
            return 0.0;
        }
        f64::from(self.survived[i]) / f64::from(self.tested[i])
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.survived.len()
    }

    /// `true` when there are no locations.
    pub fn is_empty(&self) -> bool {
        self.survived.is_empty()
    }

    /// Renders the statistics as the line-oriented survival file the CLI
    /// passes between `odcfp attack --survival-out` and
    /// `odcfp constrain --robust-locations`.
    pub fn to_text(&self, circuit: &str) -> String {
        let mut s = String::new();
        s.push_str("# odcfp survival v1\n");
        s.push_str(&format!("circuit {circuit}\n"));
        s.push_str(&format!("attacks {}\n", self.attacks));
        s.push_str(&format!("locations {}\n", self.len()));
        for i in 0..self.len() {
            s.push_str(&format!(
                "loc {i} {} {} {}\n",
                self.survived[i],
                self.tested[i],
                u8::from(self.identifiable[i]),
            ));
        }
        s
    }

    /// Parses a survival file written by [`SurvivalStats::to_text`],
    /// returning the circuit name and the statistics.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed line.
    pub fn from_text(text: &str) -> Result<(String, SurvivalStats), String> {
        let mut circuit = String::new();
        let mut attacks = 0usize;
        let mut declared: Option<usize> = None;
        let mut survived = Vec::new();
        let mut tested = Vec::new();
        let mut identifiable = Vec::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("survival file line {}: malformed {line:?}", ln + 1);
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("circuit") => circuit = parts.next().ok_or_else(bad)?.to_string(),
                Some("attacks") => {
                    attacks = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                }
                Some("locations") => {
                    declared = Some(parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?);
                }
                Some("loc") => {
                    let idx: usize = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    if idx != survived.len() {
                        return Err(format!(
                            "survival file line {}: location {idx} out of order",
                            ln + 1
                        ));
                    }
                    let s: u32 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    let t: u32 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    let id: u8 = parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                    survived.push(s);
                    tested.push(t);
                    identifiable.push(id != 0);
                }
                _ => return Err(bad()),
            }
        }
        if let Some(n) = declared {
            if n != survived.len() {
                return Err(format!(
                    "survival file declares {n} locations but lists {}",
                    survived.len()
                ));
            }
        }
        Ok((
            circuit,
            SurvivalStats {
                attacks,
                survived,
                tested,
                identifiable,
            },
        ))
    }
}

/// The complete result of one benchmark's attack battery.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackScorecard {
    /// Circuit name.
    pub circuit: String,
    /// Root seed the battery ran under.
    pub seed: u64,
    /// Fingerprint locations (code length).
    pub locations: usize,
    /// Registered buyers.
    pub buyers: usize,
    /// One report per resynthesis level, in the order run.
    pub resynth: Vec<ResynthAttackReport>,
    /// One report per (coalition size, strategy) cell, in the order run.
    pub collusion: Vec<CollusionAttackReport>,
    /// Side-channel detectability.
    pub side_channel: SideChannelReport,
    /// Per-location survival feedback.
    pub survival: SurvivalStats,
}

fn json_f(v: f64) -> String {
    // Fixed precision keeps the document byte-stable and readable; the
    // inputs are already deterministic.
    format!("{v:.6}")
}

impl AttackScorecard {
    /// Renders the scorecard as a stable, hand-rolled JSON document:
    /// fixed key order, fixed float precision, no timestamps — equal
    /// batteries produce byte-equal documents at any thread count.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"circuit\": \"{}\",\n", self.circuit));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"locations\": {},\n", self.locations));
        s.push_str(&format!("  \"buyers\": {},\n", self.buyers));
        s.push_str("  \"resynth\": [\n");
        for (i, r) in self.resynth.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"level\": \"{}\", \"gates_before\": {}, \"gates_after\": {}, \
                 \"wires_embedded\": {}, \"wires_identifiable\": {}, \"wires_surviving\": {}, \
                 \"phantom_wires\": {}, \"survival_rate\": {}, \"outcome\": \"{}\", \
                 \"victim_convicted\": {}, \"innocents_accused\": {}, \"evidence_wires\": {}}}{}\n",
                r.level.name(),
                r.gates_before,
                r.gates_after,
                r.wires_embedded,
                r.wires_identifiable,
                r.wires_surviving,
                r.phantom_wires,
                json_f(r.survival_rate),
                r.outcome.name(),
                r.victim_convicted,
                r.innocents_accused,
                r.evidence_wires,
                if i + 1 < self.resynth.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"collusion\": [\n");
        for (i, c) in self.collusion.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"coalition\": {}, \"strategy\": \"{}\", \"outcome\": \"{}\", \
                 \"colluders_convicted\": {}, \"innocents_accused\": {}, \
                 \"conviction_rate\": {}, \"innocent_rate\": {}, \"evidence_wires\": {}}}{}\n",
                c.coalition,
                c.strategy.name(),
                c.outcome.name(),
                c.colluders_convicted,
                c.innocents_accused,
                json_f(c.conviction_rate),
                json_f(c.innocent_rate),
                c.evidence_wires,
                if i + 1 < self.collusion.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        s.push_str("  ],\n");
        let sc = &self.side_channel;
        s.push_str(&format!(
            "  \"side_channel\": {{\"copies\": {}, \"power_words\": {}, \"golden_total\": {}, \
             \"threshold\": {}, \"mean_distance\": {}, \"max_distance\": {}, \"detectable\": {}, \
             \"per_copy\": [",
            sc.copies,
            sc.power_words,
            json_f(sc.golden_total),
            json_f(sc.threshold),
            json_f(sc.mean_distance),
            json_f(sc.max_distance),
            sc.detectable,
        ));
        for (i, c) in sc.per_copy.iter().enumerate() {
            s.push_str(&format!(
                "{{\"buyer\": {}, \"distance\": {}, \"detectable\": {}}}{}",
                c.buyer,
                json_f(c.distance),
                c.detectable,
                if i + 1 < sc.per_copy.len() { ", " } else { "" },
            ));
        }
        s.push_str("]},\n");
        s.push_str(&format!(
            "  \"survival\": {{\"attacks\": {}, \"identifiable\": {}, \"per_location_survived\": [",
            self.survival.attacks,
            self.survival.identifiable.iter().filter(|&&b| b).count(),
        ));
        for (i, v) in self.survival.survived.iter().enumerate() {
            s.push_str(&format!(
                "{}{}",
                v,
                if i + 1 < self.survival.survived.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("], \"per_location_tested\": [");
        for (i, v) in self.survival.tested.iter().enumerate() {
            s.push_str(&format!(
                "{}{}",
                v,
                if i + 1 < self.survival.tested.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("]}\n}\n");
        s
    }
}

/// Deterministic per-buyer fingerprint codes: buyer `k`'s code depends
/// only on `(seed, k, locations)`, never on the population size, so
/// registries of different sizes share a prefix.
pub fn buyer_codes(seed: u64, buyers: usize, locations: usize) -> Vec<Vec<bool>> {
    (0..buyers)
        .map(|k| {
            let mut rng = odcfp_logic::rng::Xoshiro256::seed_from_u64(
                seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            (0..locations).map(|_| rng.next_bool()).collect()
        })
        .collect()
}

/// Runs the full battery against `base` and assembles the scorecard.
///
/// Deterministic: the scorecard (and its JSON rendering) is a pure
/// function of `(base, opts)`, bit-identical at any worker-thread count.
/// Cancellable: `token` is polled between attack units; a fired token
/// yields [`AttackError::Cancelled`].
///
/// # Errors
///
/// Propagates fingerprinting and resynthesis failures; returns
/// [`AttackError::NoLocations`] if the circuit offers nowhere to embed.
pub fn run_battery(
    base: &Netlist,
    opts: &AttackOptions,
    token: &CancelToken,
) -> Result<AttackScorecard, AttackError> {
    let mut span = odcfp_obs::span("attack.battery");
    span.field("circuit", base.name().to_string());
    span.field("seed", opts.seed);

    let fp = Fingerprinter::new(base.clone())?;
    let locations = fp.locations().len();
    if locations == 0 {
        return Err(AttackError::NoLocations);
    }
    span.field("locations", locations);
    span.field("buyers", opts.buyers);

    let codes = buyer_codes(opts.seed, opts.buyers, locations);
    let mut index = TracerIndex::new(locations);
    for code in &codes {
        index.push(code);
    }

    // Mint the netlist-level copies (victim first) through one verify
    // session. Verification is the caller's chosen policy; an Undecided
    // verdict is tolerated here — the battery grades robustness, not
    // equivalence (the verify ladder and its tests own that guarantee).
    let minted = opts.minted_copies.min(opts.buyers).max(1);
    let mut session = VerifySession::new(fp.base())?;
    let mut copies = Vec::with_capacity(minted);
    for code in codes.iter().take(minted) {
        if token.is_cancelled() {
            return Err(AttackError::Cancelled);
        }
        let (copy, _verdict) =
            fp.embed_with_session_cancellable(&mut session, code, &opts.verify, token)?;
        copies.push(copy);
    }

    // ---- adversary (a): resynthesis ----
    let victim = &copies[0];
    let mut reference = StructuralReference::new(&fp, victim, token)?;
    let mut survival = SurvivalStats::new(locations, reference.identifiable().to_vec());
    let baseline = reference.recover(victim.netlist());
    let mut resynth_reports = Vec::with_capacity(opts.resynth_levels.len());
    for &level in &opts.resynth_levels {
        if token.is_cancelled() {
            return Err(AttackError::Cancelled);
        }
        let report = resynth::attack_once(
            &mut reference,
            &index,
            &opts.trace_params,
            victim,
            &baseline,
            level,
            &mut survival,
        )?;
        resynth_reports.push(report);
    }

    // ---- adversary (b): collusion averaging ----
    let collusion_reports = collude::run_collusion(
        &index,
        &codes,
        &opts.coalition_sizes,
        &opts.trace_params,
        opts.seed,
        token,
    )?;

    // ---- adversary (c): side-channel detectability ----
    let side_channel = sidechannel::measure(
        base,
        &copies,
        opts.power_words,
        opts.seed,
        opts.detectability_threshold,
        token,
    )?;

    Ok(AttackScorecard {
        circuit: base.name().to_string(),
        seed: opts.seed,
        locations,
        buyers: opts.buyers,
        resynth: resynth_reports,
        collusion: collusion_reports,
        side_channel,
        survival,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn small_base() -> Netlist {
        random_dag(
            CellLibrary::standard(),
            DagParams {
                inputs: 12,
                gates: 120,
                outputs: 8,
                window: 30,
                seed: 777,
            },
        )
    }

    fn large_base() -> Netlist {
        random_dag(
            CellLibrary::standard(),
            DagParams {
                inputs: 16,
                gates: 1400,
                outputs: 12,
                window: 40,
                seed: 778,
            },
        )
    }

    fn smoke_options() -> AttackOptions {
        AttackOptions {
            buyers: 8,
            minted_copies: 2,
            coalition_sizes: vec![2, 4],
            resynth_levels: vec![ResynthLevel::Opt, ResynthLevel::Remap],
            power_words: 16,
            ..AttackOptions::default()
        }
    }

    #[test]
    fn battery_scorecard_is_deterministic_and_covers_all_adversaries() {
        let base = small_base();
        let opts = smoke_options();
        let token = CancelToken::new();
        let a = run_battery(&base, &opts, &token).unwrap();
        let b = run_battery(&base, &opts, &token).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.resynth.len(), 2);
        assert_eq!(a.collusion.len(), 2 * MixStrategy::ALL.len());
        assert_eq!(a.side_channel.per_copy.len(), 2);
        assert_eq!(a.survival.attacks, 2);
        assert_eq!(a.survival.len(), a.locations);
    }

    #[test]
    fn structural_reference_reads_single_wires_exactly() {
        let base = small_base();
        let fp = Fingerprinter::new(base).unwrap();
        let n = fp.locations().len();
        assert!(n >= 4, "need a few locations, got {n}");
        let token = CancelToken::new();
        // Calibrate against a copy carrying a single wire at the first
        // identifiable location.
        let probe =
            StructuralReference::new(&fp, &fp.embed(&vec![false; n]).unwrap(), &token).unwrap();
        let first = probe
            .identifiable()
            .iter()
            .position(|&b| b)
            .expect("at least one identifiable location");
        let mut code = vec![false; n];
        code[first] = true;
        let copy = fp.embed(&code).unwrap();
        let mut reference = StructuralReference::new(&fp, &copy, &token).unwrap();

        let blank = fp.embed(&vec![false; n]).unwrap();
        let empty = reference.recover(blank.netlist());
        assert!(empty.iter().all(|&b| !b), "blank copy must read all-zero");

        let recovered = reference.recover(copy.netlist());
        assert!(recovered[first], "embedded wire must be recovered");
        for (i, &bit) in recovered.iter().enumerate() {
            if i != first {
                assert!(!bit, "location {i} recovered but never embedded");
            }
        }
    }

    #[test]
    fn survival_text_round_trips() {
        let stats = SurvivalStats {
            attacks: 3,
            survived: vec![3, 0, 2],
            tested: vec![3, 3, 2],
            identifiable: vec![true, true, false],
        };
        let text = stats.to_text("des");
        let (circuit, parsed) = SurvivalStats::from_text(&text).unwrap();
        assert_eq!(circuit, "des");
        assert_eq!(parsed, stats);
        assert!(SurvivalStats::from_text("loc zero nope").is_err());
        assert!(SurvivalStats::from_text("locations 2\nloc 0 1 1 1\n").is_err());
    }

    #[test]
    fn battery_convicts_and_coalitions_without_innocents() {
        let base = large_base();
        let opts = AttackOptions {
            buyers: 16,
            minted_copies: 1,
            coalition_sizes: vec![2, 4, 8],
            resynth_levels: vec![ResynthLevel::Opt],
            power_words: 16,
            ..AttackOptions::default()
        };
        let token = CancelToken::new();
        let card = run_battery(&base, &opts, &token).unwrap();
        assert!(
            card.locations >= 100,
            "want ≥100 locations, got {}",
            card.locations
        );

        // Nobody innocent is ever framed, whatever the coalition does.
        for cell in &card.collusion {
            assert_eq!(
                cell.innocents_accused,
                0,
                "{} coalition of {} framed an innocent",
                cell.strategy.name(),
                cell.coalition
            );
        }
        // A pair AND-ing their copies leaves ~L/4 shared wires — plenty of
        // evidence, and both colluders contain all of it: conviction.
        // (Larger AND coalitions strip evidence below `min_evidence`,
        // where Inconclusive is the honest verdict.)
        let and_pair = card
            .collusion
            .iter()
            .find(|c| c.strategy == MixStrategy::BitwiseAnd && c.coalition == 2)
            .expect("n=2 AND cell present");
        assert!(
            and_pair.colluders_convicted >= 1,
            "AND pair escaped conviction (outcome {:?}, {} evidence wires)",
            and_pair.outcome,
            and_pair.evidence_wires
        );

        let opt = &card.resynth[0];
        assert!(
            opt.wires_identifiable > 0,
            "nothing identifiable pre-attack"
        );
        assert!(opt.survival_rate > 0.5, "optimizer wiped the fingerprint");
        assert!(opt.victim_convicted, "victim escaped after plain optimize");
    }
}
