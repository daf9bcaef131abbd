//! The fingerprinting engine: selection, embedding, extraction.

use odcfp_analysis::cancel::CancelToken;
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{NetDriver, NetId, Netlist};

use crate::location::{find_locations, FingerprintLocation};
use crate::modify::{applicable, apply_modification, modification_present, Modification};
use crate::verify::{verify_equivalent, Verdict, VerifyPolicy, VerifySession};
use crate::{CapacityReport, FingerprintError};

/// How the default modification is chosen at each location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// The paper's Fig. 6 policy: modify the deepest eligible gate of the
    /// deepest fanout-free cone, wired from the earliest-arriving trigger
    /// signal, preferring the Fig. 5 early reroute when available — all to
    /// minimize added delay.
    DeepTargetEarlyTrigger,
    /// Uniformly random candidate per location (seeded); the ablation
    /// baseline showing what the depth-aware policy buys.
    Random(u64),
}

/// How much verification each embedded copy receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyLevel {
    /// Structural validation only.
    None,
    /// The simulation rungs of the ladder ([`VerifyPolicy::quick`]):
    /// random smoke test plus exhaustive proof for small designs.
    Simulation,
    /// The full ladder ([`VerifyPolicy::strict`]): simulation plus an
    /// unbounded SAT miter proof.
    Sat,
}

impl VerifyLevel {
    /// The verification policy this level stands for (`None` ⇒ no
    /// verification at all).
    pub fn policy(self) -> Option<VerifyPolicy> {
        match self {
            VerifyLevel::None => None,
            VerifyLevel::Simulation => Some(VerifyPolicy::quick()),
            VerifyLevel::Sat => Some(VerifyPolicy::strict()),
        }
    }
}

/// A fingerprinted copy of the base design.
#[derive(Debug, Clone)]
pub struct FingerprintedCopy {
    netlist: Netlist,
    bits: Vec<bool>,
}

impl FingerprintedCopy {
    /// Assembles a copy from an already-verified netlist and its bits.
    pub(crate) fn from_parts(netlist: Netlist, bits: Vec<bool>) -> FingerprintedCopy {
        FingerprintedCopy { netlist, bits }
    }

    /// The fingerprinted netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the copy, returning the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// The embedded bit string (one bit per fingerprint location).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// The bit string rendered as `0`/`1` characters.
    pub fn bit_string(&self) -> String {
        self.bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
    }
}

/// The fingerprinting engine for one base design.
///
/// Construction scans the netlist for locations, fixes a default
/// [`Modification`] per location under the chosen [`SelectionPolicy`]
/// (resolving inter-location conflicts greedily so that *any* subset of
/// locations can be applied together), and then mints copies on demand.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    base: Netlist,
    locations: Vec<FingerprintLocation>,
    selected: Vec<Modification>,
}

impl Fingerprinter {
    /// Builds an engine with the paper's default selection policy.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation.
    pub fn new(base: Netlist) -> Result<Self, FingerprintError> {
        Fingerprinter::with_policy(base, SelectionPolicy::DeepTargetEarlyTrigger)
    }

    /// Builds an engine with an explicit selection policy.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation.
    pub fn with_policy(
        base: Netlist,
        policy: SelectionPolicy,
    ) -> Result<Self, FingerprintError> {
        base.validate()?;
        let all = find_locations(&base);
        let depths = base.gate_depths()?;
        let net_depth = |net: NetId| -> usize {
            match base.net(net).driver() {
                NetDriver::Gate(g) => depths.get(g.index()).copied().unwrap_or(0),
                _ => 0,
            }
        };

        // Greedy conflict-free selection on a scratch copy carrying every
        // chosen modification; any subset then also applies cleanly
        // (removing modifications only relaxes arity/duplication limits).
        let mut span = odcfp_obs::span("core.select");
        span.field(
            "candidates",
            all.iter().map(|l| l.candidates.len()).sum::<usize>(),
        );
        let mut scratch = base.clone();
        let mut rng = match policy {
            SelectionPolicy::Random(seed) => Some(Xoshiro256::seed_from_u64(seed)),
            SelectionPolicy::DeepTargetEarlyTrigger => None,
        };
        let mut order: Vec<usize> = Vec::new();
        let mut locations = Vec::with_capacity(all.len());
        let mut selected = Vec::with_capacity(all.len());
        for loc in all {
            let choice = match &mut rng {
                Some(rng) => {
                    // Fisher–Yates over candidate indices, then the first
                    // that still applies.
                    order.clear();
                    order.extend(0..loc.candidates.len());
                    for i in (1..order.len()).rev() {
                        let j = rng.next_below(i + 1);
                        order.swap(i, j);
                    }
                    order
                        .iter()
                        .map(|&i| loc.candidates[i].modification)
                        .find(|m| applicable(&scratch, m))
                }
                None => {
                    // The applicable candidate with the least key; ties go
                    // to discovery order, as after a stable sort. Only a
                    // key below the best so far is worth the check.
                    let mut best = None;
                    for c in &loc.candidates {
                        let m = c.modification;
                        // Effective arrival of the added literal: the
                        // latest of the added source nets.
                        let signal_depth = m
                            .added_nets()
                            .iter()
                            .map(|&n| net_depth(n))
                            .max()
                            .unwrap_or(0);
                        // The paper's base flow applies the Fig. 4 trigger
                        // insertion; Fig. 5 reroutes stay available as
                        // alternate configurations (capacity) and fallbacks.
                        let reroute_penalty =
                            usize::from(matches!(m, Modification::RerouteEarly { .. }));
                        let key = (
                            usize::MAX - depths[m.target().index()], // deepest target first
                            reroute_penalty,                         // Fig. 4 insertion first
                            signal_depth,                            // earliest signal first
                        );
                        if best.is_none_or(|(best_key, _)| key < best_key)
                            && applicable(&scratch, &m)
                        {
                            best = Some((key, m));
                        }
                    }
                    best.map(|(_, m)| m)
                }
            };
            if let Some(m) = choice {
                apply_modification(&mut scratch, &m).expect("applicable modification must apply");
                selected.push(m);
                locations.push(loc);
            }
        }
        span.field("selected", selected.len());
        Ok(Fingerprinter {
            base,
            locations,
            selected,
        })
    }

    /// The unfingerprinted base design.
    pub fn base(&self) -> &Netlist {
        &self.base
    }

    /// The usable fingerprint locations, one embedded bit each.
    pub fn locations(&self) -> &[FingerprintLocation] {
        &self.locations
    }

    /// The default modification chosen for each location (parallel to
    /// [`Fingerprinter::locations`]).
    pub fn selected_modifications(&self) -> &[Modification] {
        &self.selected
    }

    /// Capacity accounting over the usable locations.
    pub fn capacity(&self) -> CapacityReport {
        CapacityReport::of(&self.locations)
    }

    /// Embeds a bit string (one bit per location) with simulation-level
    /// verification.
    ///
    /// # Errors
    ///
    /// Returns an error on length mismatch or if verification fails.
    pub fn embed(&self, bits: &[bool]) -> Result<FingerprintedCopy, FingerprintError> {
        self.embed_verified(bits, VerifyLevel::Simulation)
    }

    /// Embeds a bit string with an explicit verification level.
    ///
    /// # Errors
    ///
    /// Returns an error on length mismatch, inapplicable modifications
    /// (impossible for subsets of the selection), or failed verification.
    pub fn embed_verified(
        &self,
        bits: &[bool],
        verify: VerifyLevel,
    ) -> Result<FingerprintedCopy, FingerprintError> {
        let netlist = self.apply_bits(bits)?;
        if let Some(policy) = verify.policy() {
            check_verdict(verify_equivalent(&self.base, &netlist, &policy)?)?;
        }
        Ok(FingerprintedCopy {
            netlist,
            bits: bits.to_vec(),
        })
    }

    /// Embeds a bit string under an explicit [`VerifyPolicy`], returning
    /// the copy alongside the verdict the policy's budget earned.
    ///
    /// [`Verdict::Refuted`] is promoted to an error (a copy that changes
    /// the function must never ship); [`Verdict::Undecided`] is returned
    /// as data so the caller can decide whether the accumulated evidence
    /// suffices.
    ///
    /// # Errors
    ///
    /// Returns an error on length mismatch, failed validation, or a
    /// refuted equivalence check.
    pub fn embed_with_policy(
        &self,
        bits: &[bool],
        policy: &VerifyPolicy,
    ) -> Result<(FingerprintedCopy, Verdict), FingerprintError> {
        let netlist = self.apply_bits(bits)?;
        let verdict = reject_refuted(verify_equivalent(&self.base, &netlist, policy)?)?;
        Ok((
            FingerprintedCopy {
                netlist,
                bits: bits.to_vec(),
            },
            verdict,
        ))
    }

    /// [`Fingerprinter::embed_with_policy`] through a persistent
    /// [`VerifySession`] under a cooperative [`CancelToken`] — the
    /// minting entry point batch runners use.
    ///
    /// The session must have been built from this engine's base netlist
    /// (e.g. `VerifySession::new(fp.base())`); reusing it across copies
    /// lets the sweep engine's strash store, learnt clauses, and
    /// counterexample-enriched signatures amortize over every buyer. A
    /// per-job deadline or an operator abort stops the verification
    /// instead of merely being noticed afterwards: a fired token
    /// surfaces as [`Verdict::Undecided`], the copy is still returned
    /// (it passed structural validation), and the caller decides whether
    /// an unverified copy is usable.
    ///
    /// # Errors
    ///
    /// As [`Fingerprinter::embed_with_policy`].
    pub fn embed_with_session_cancellable(
        &self,
        session: &mut VerifySession,
        bits: &[bool],
        policy: &VerifyPolicy,
        token: &CancelToken,
    ) -> Result<(FingerprintedCopy, Verdict), FingerprintError> {
        let netlist = self.apply_bits(bits)?;
        let verdict = reject_refuted(session.verify_cancellable(&netlist, policy, token)?.verdict)?;
        Ok((
            FingerprintedCopy {
                netlist,
                bits: bits.to_vec(),
            },
            verdict,
        ))
    }

    /// Applies the selected modification at every set bit, returning the
    /// validated (but unverified) netlist.
    fn apply_bits(&self, bits: &[bool]) -> Result<Netlist, FingerprintError> {
        if bits.len() != self.locations.len() {
            return Err(FingerprintError::BitLengthMismatch {
                expected: self.locations.len(),
                found: bits.len(),
            });
        }
        let mut span = odcfp_obs::span("core.embed");
        span.field("bits_set", bits.iter().filter(|&&b| b).count());
        let mut netlist = self.base.clone();
        for (&bit, m) in bits.iter().zip(&self.selected) {
            if bit {
                apply_modification(&mut netlist, m)?;
            }
        }
        netlist.validate()?;
        span.field("gates", netlist.num_gates());
        Ok(netlist)
    }

    /// Embeds a **configuration vector**: entry `i` selects which of
    /// location `i`'s candidates to apply — `0` leaves the location
    /// unmodified, `k` applies `candidates[k-1]`.
    ///
    /// This is the operational form of the paper's capacity claim: a
    /// location with `m` candidates stores `log2(m + 1)` bits, so
    /// configuration vectors realize the full `log2(combinations)` space
    /// of Table II column 7, not just the `2^n` on/off subset.
    ///
    /// Configurations are applied in location order; a selection that
    /// conflicts with an earlier one (same literal into the same gate, or
    /// arity exhausted) is rejected rather than silently skipped.
    ///
    /// # Errors
    ///
    /// Returns a length mismatch, an out-of-range selection (reported as
    /// [`FingerprintError::CannotApply`]), a conflict, or a verification
    /// failure.
    pub fn embed_configs(
        &self,
        configs: &[usize],
        verify: VerifyLevel,
    ) -> Result<Netlist, FingerprintError> {
        if configs.len() != self.locations.len() {
            return Err(FingerprintError::BitLengthMismatch {
                expected: self.locations.len(),
                found: configs.len(),
            });
        }
        let mut netlist = self.base.clone();
        for (&cfg, loc) in configs.iter().zip(&self.locations) {
            if cfg == 0 {
                continue;
            }
            let m = loc
                .candidates
                .get(cfg - 1)
                .map(|c| &c.modification)
                .ok_or_else(|| FingerprintError::CannotApply {
                    gate: loc.primary_gate,
                    reason: format!(
                        "configuration {cfg} out of range (location has {} candidates)",
                        loc.candidates.len()
                    ),
                })?;
            if !crate::modify::applicable(&netlist, m) {
                return Err(FingerprintError::CannotApply {
                    gate: m.target(),
                    reason: "configuration conflicts with an earlier selection".into(),
                });
            }
            apply_modification(&mut netlist, m)?;
        }
        netlist.validate()?;
        if let Some(policy) = verify.policy() {
            check_verdict(verify_equivalent(&self.base, &netlist, &policy)?)?;
        }
        Ok(netlist)
    }

    /// Recovers a configuration vector from a suspect copy: for each
    /// location, the 1-based index of the first candidate whose literals
    /// are present, or `0` when none is.
    ///
    /// Candidates at one location can overlap (a two-source reroute
    /// contains a one-source one); discovery order makes the smaller
    /// option win ties, so pair `extract_configs` with vectors produced by
    /// [`Fingerprinter::embed_configs`] of non-overlapping selections for
    /// exact roundtrips.
    pub fn extract_configs(&self, suspect: &Netlist) -> Vec<usize> {
        self.locations
            .iter()
            .map(|loc| {
                loc.candidates
                    .iter()
                    .position(|c| modification_present(suspect, &c.modification))
                    .map_or(0, |k| k + 1)
            })
            .collect()
    }

    /// Embeds the all-ones fingerprint (every location modified) — the
    /// maximal-overhead configuration measured in the paper's Table II.
    ///
    /// # Errors
    ///
    /// Propagates [`Fingerprinter::embed`] errors.
    pub fn embed_all(&self) -> Result<FingerprintedCopy, FingerprintError> {
        self.embed(&vec![true; self.locations.len()])
    }

    /// Embeds a uniformly random fingerprint derived from `seed` — the
    /// per-buyer minting operation.
    ///
    /// # Errors
    ///
    /// Propagates [`Fingerprinter::embed`] errors.
    pub fn embed_seeded(&self, seed: u64) -> Result<FingerprintedCopy, FingerprintError> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let bits: Vec<bool> = (0..self.locations.len()).map(|_| rng.next_bool()).collect();
        self.embed(&bits)
    }

    /// Recovers the embedded bit string from a suspect copy by comparing it
    /// with the base design (the designer-side detection of §III-E: the
    /// designer checks "whether and what change has occurred in each
    /// fingerprint location").
    ///
    /// The suspect must be derived from this engine's base netlist (gate
    /// and net identities are compared positionally, which clones
    /// preserve).
    pub fn extract(&self, suspect: &Netlist) -> Vec<bool> {
        self.selected
            .iter()
            .map(|m| modification_present(suspect, m))
            .collect()
    }

    /// Like [`Fingerprinter::extract`], but matches gates and nets **by
    /// name** instead of by arena position — for suspects that passed
    /// through a textual format (written to Verilog and re-parsed), where
    /// ids no longer align but names survive.
    ///
    /// # Errors
    ///
    /// Returns [`FingerprintError::CannotApply`] naming the first location
    /// whose target gate or trigger net is missing from the suspect
    /// (renamed or stripped netlists cannot be compared this way).
    pub fn extract_by_name(&self, suspect: &Netlist) -> Result<Vec<bool>, FingerprintError> {
        let base = &self.base;
        let names = crate::modify::NameIndex::new(
            suspect,
            self.selected.iter().map(|m| base.gate(m.target()).name()),
            self.selected
                .iter()
                .flat_map(|m| m.added_nets().iter().map(|&n| base.net(n).name())),
        );
        self.selected
            .iter()
            .map(|m| {
                crate::modify::modification_present_by_name(&self.base, suspect, &names, m)
                    .ok_or_else(|| FingerprintError::CannotApply {
                        gate: m.target(),
                        reason: format!(
                            "suspect lacks gate {:?} or its trigger nets",
                            self.base.gate(m.target()).name()
                        ),
                    })
            })
            .collect()
    }
}

/// Promotes [`Verdict::Refuted`] to [`FingerprintError::NotEquivalent`]:
/// a copy that changes the function must never ship.
fn reject_refuted(verdict: Verdict) -> Result<Verdict, FingerprintError> {
    match verdict {
        Verdict::Refuted { counterexample } => Err(FingerprintError::NotEquivalent {
            counterexample: Some(counterexample),
        }),
        verdict => Ok(verdict),
    }
}

/// Maps a verdict onto the pass/fail contract of the [`VerifyLevel`] API:
/// refuted and undecided verdicts become errors (the built-in levels use
/// unbounded policies, so undecided is defensive only).
pub(crate) fn check_verdict(verdict: Verdict) -> Result<(), FingerprintError> {
    match reject_refuted(verdict)? {
        Verdict::Undecided { .. } => Err(FingerprintError::Verification(
            odcfp_sat::EquivError::BudgetExhausted,
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::{find_locations_naive, Candidate};
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn fig1() -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("fig1", lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let x = n.add_gate("gx", and2, &[a, b]);
        let y = n.add_gate("gy", or2, &[c, d]);
        let f = n.add_gate("gf", and2, &[n.gate_output(x), n.gate_output(y)]);
        n.set_primary_output(n.gate_output(f));
        n
    }

    #[test]
    fn embed_and_extract_roundtrip() {
        let fp = Fingerprinter::new(fig1()).unwrap();
        let n = fp.locations().len();
        assert!(n >= 1);
        for pattern in 0..(1usize << n) {
            let bits: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            let copy = fp.embed_verified(&bits, VerifyLevel::Sat).unwrap();
            assert_eq!(fp.extract(copy.netlist()), bits, "pattern {pattern:b}");
        }
    }

    #[test]
    fn distinct_bits_distinct_structure() {
        let fp = Fingerprinter::new(fig1()).unwrap();
        let n = fp.locations().len();
        let zero = fp.embed(&vec![false; n]).unwrap();
        let one = fp.embed(&vec![true; n]).unwrap();
        assert_eq!(zero.netlist().num_gates(), fp.base().num_gates());
        // The all-ones copy differs structurally somewhere.
        let differs = one
            .netlist()
            .gates()
            .zip(zero.netlist().gates())
            .any(|((_, g1), (_, g0))| g1.inputs().len() != g0.inputs().len())
            || one.netlist().num_gates() != zero.netlist().num_gates();
        assert!(differs);
    }

    #[test]
    fn bit_length_checked() {
        let fp = Fingerprinter::new(fig1()).unwrap();
        assert!(matches!(
            fp.embed(&[]),
            Err(FingerprintError::BitLengthMismatch { .. })
        ));
    }

    #[test]
    fn seeded_embedding_deterministic() {
        let fp = Fingerprinter::new(fig1()).unwrap();
        let a = fp.embed_seeded(7).unwrap();
        let b = fp.embed_seeded(7).unwrap();
        assert_eq!(a.bits(), b.bits());
        assert_eq!(a.bit_string(), b.bit_string());
    }

    #[test]
    fn random_dag_all_subsets_equivalent() {
        // The integration-grade invariant: on a generated circuit, the
        // all-ones embedding (every location modified simultaneously) is
        // SAT-equivalent to the base.
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(21));
        let fp = Fingerprinter::new(base).unwrap();
        assert!(
            !fp.locations().is_empty(),
            "expected locations in a 60-gate circuit"
        );
        let copy = fp.embed_verified(
            &vec![true; fp.locations().len()],
            VerifyLevel::Sat,
        );
        copy.unwrap();
    }

    #[test]
    fn random_policy_also_safe() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(33));
        let fp = Fingerprinter::with_policy(base, SelectionPolicy::Random(5)).unwrap();
        let copy = fp
            .embed_verified(&vec![true; fp.locations().len()], VerifyLevel::Sat)
            .unwrap();
        assert_eq!(fp.extract(copy.netlist()), copy.bits());
    }

    #[test]
    fn extract_on_base_is_all_zeros() {
        let fp = Fingerprinter::new(fig1()).unwrap();
        let bits = fp.extract(fp.base());
        assert!(bits.iter().all(|&b| !b));
    }

    #[test]
    fn policy_changes_selection() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(44));
        let deep = Fingerprinter::new(base.clone()).unwrap();
        let rand = Fingerprinter::with_policy(base, SelectionPolicy::Random(1)).unwrap();
        // Same locations, possibly different selected modifications.
        assert_eq!(deep.locations().len(), rand.locations().len());
        assert_ne!(
            deep.selected_modifications(),
            rand.selected_modifications(),
            "random selection should diverge somewhere on a 60-gate circuit"
        );
    }

    /// The selection as a stable sort by the Fig. 6 key followed by the
    /// first applicable candidate (Fisher–Yates order for `Random`), over
    /// the naive locations: the reference the single-pass selection must
    /// match.
    fn reference_selection(
        base: &Netlist,
        policy: SelectionPolicy,
    ) -> (Vec<FingerprintLocation>, Vec<Modification>) {
        let depths = base.gate_depths().unwrap();
        let net_depth = |net: NetId| match base.net(net).driver() {
            NetDriver::Gate(g) => depths[g.index()],
            _ => 0,
        };
        let mut scratch = base.clone();
        let mut rng = match policy {
            SelectionPolicy::Random(seed) => Some(Xoshiro256::seed_from_u64(seed)),
            SelectionPolicy::DeepTargetEarlyTrigger => None,
        };
        let (mut locations, mut selected) = (Vec::new(), Vec::new());
        for loc in find_locations_naive(base) {
            let mut order: Vec<&Candidate> = loc.candidates.iter().collect();
            match &mut rng {
                Some(rng) => {
                    for i in (1..order.len()).rev() {
                        let j = rng.next_below(i + 1);
                        order.swap(i, j);
                    }
                }
                None => order.sort_by_key(|c| {
                    let m = &c.modification;
                    let signal = m.added_nets().iter().map(|&n| net_depth(n)).max();
                    (
                        std::cmp::Reverse(depths[m.target().index()]),
                        matches!(m, Modification::RerouteEarly { .. }),
                        signal.unwrap_or(0),
                    )
                }),
            }
            if let Some(c) = order
                .into_iter()
                .find(|c| applicable(&scratch, &c.modification))
            {
                apply_modification(&mut scratch, &c.modification).unwrap();
                selected.push(c.modification);
                locations.push(loc.clone());
            }
        }
        (locations, selected)
    }

    fn assert_selection_matches_reference(base: &Netlist, label: &str) {
        for policy in [
            SelectionPolicy::DeepTargetEarlyTrigger,
            SelectionPolicy::Random(0x5E1E_C7ED),
        ] {
            let fp = Fingerprinter::with_policy(base.clone(), policy).unwrap();
            let (locations, selected) = reference_selection(base, policy);
            assert_eq!(fp.locations(), locations, "{label} {policy:?}: locations");
            assert_eq!(
                fp.selected_modifications(),
                selected,
                "{label} {policy:?}: selections"
            );
        }
    }

    #[test]
    fn selection_matches_sort_then_first_applicable_on_random_dags() {
        let lib = CellLibrary::standard();
        for seed in 0..12 {
            let small = random_dag(lib.clone(), DagParams::small(seed));
            assert_selection_matches_reference(&small, &format!("small {seed}"));
            let wide = random_dag(
                lib.clone(),
                DagParams {
                    inputs: 16,
                    gates: 400,
                    outputs: 12,
                    window: 48,
                    seed: 0x5E1E_0000 + seed,
                },
            );
            assert_selection_matches_reference(&wide, &format!("wide {seed}"));
        }
    }

    #[test]
    #[ignore = "release-mode Table II differential; run with --ignored"]
    fn selection_matches_sort_then_first_applicable_on_table2() {
        let lib = CellLibrary::standard();
        for name in odcfp_synth::benchmarks::TABLE2_NAMES {
            let base = odcfp_synth::benchmarks::generate(name, lib.clone()).unwrap();
            assert_selection_matches_reference(&base, name);
        }
    }
}
