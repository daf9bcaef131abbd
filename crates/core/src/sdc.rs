//! Satisfiability Don't Care (SDC) fingerprinting — the authors' companion
//! technique (Dunbar & Qu, ASP-DAC 2015, reference \[9\] of the paper),
//! which this paper's §II positions its contribution alongside.
//!
//! Where the ODC method exploits value combinations that cannot be
//! *observed*, the SDC method exploits input combinations that can never
//! *occur*: if a gate's inputs provably never take some pattern, the gate
//! may be swapped for any other gate that differs **only on that pattern**
//! — an even quieter mark (no wiring changes at all, just a different cell
//! in the same socket).
//!
//! The standard-cell function pairs differing in exactly one input row:
//!
//! | pair | differing row |
//! |---|---|
//! | `AND` ↔ `XNOR` | `00` |
//! | `NAND` ↔ `XOR` | `00` |
//! | `OR` ↔ `XOR`   | `11` |
//! | `NOR` ↔ `XNOR` | `11` |
//!
//! Reachability of the row is *proved* unreachable with the SAT solver
//! (random simulation only pre-filters candidates).

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::{sim, PrimitiveFn};
use odcfp_netlist::{GateId, Netlist};
use odcfp_sat::tseitin::encode_netlist;
use odcfp_sat::{CnfBuilder, Limits, Lit, SolveResult, Solver};

use crate::FingerprintError;

/// One SDC fingerprint location: a 2-input gate whose
/// `row`-pattern is unreachable, allowing a cell swap to `alternate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcLocation {
    /// The swappable gate.
    pub gate: GateId,
    /// The provably unreachable input pattern `(pin0, pin1)`.
    pub row: (bool, bool),
    /// The function the gate may be swapped to (and back from).
    pub alternate: PrimitiveFn,
}

/// The function pair and differing row for a swap candidate, if the
/// function participates in one.
fn swap_partner(f: PrimitiveFn) -> Option<(PrimitiveFn, (bool, bool))> {
    match f {
        PrimitiveFn::And => Some((PrimitiveFn::Xnor, (false, false))),
        PrimitiveFn::Xnor => Some((PrimitiveFn::And, (false, false))),
        PrimitiveFn::Nand => Some((PrimitiveFn::Xor, (false, false))),
        PrimitiveFn::Xor => Some((PrimitiveFn::Nand, (false, false))),
        PrimitiveFn::Or => Some((PrimitiveFn::Xor, (true, true))),
        PrimitiveFn::Nor => Some((PrimitiveFn::Xnor, (true, true))),
        _ => None,
    }
}

// Note the asymmetry: OR↔XOR and NOR↔XNOR are listed one-directionally
// above for XOR/XNOR because XOR's partner at row (0,0) is NAND; a gate
// can only be a location for the row its *current* pairing defines.

/// Number of 64-bit simulation words used for the reachability pre-filter.
const PREFILTER_WORDS: usize = 32;

/// Scans a validated netlist for SDC fingerprint locations.
///
/// Each candidate 2-input gate is first screened with seeded random
/// simulation (a pattern seen at the inputs is certainly reachable); the
/// survivors' rows are then proved unreachable by SAT. `conflict_budget`
/// bounds each proof; gates whose proof exhausts the budget are skipped
/// (sound: only *proved* SDCs become locations).
///
/// # Panics
///
/// Panics if the netlist is invalid (validate first).
pub fn find_sdc_locations(netlist: &Netlist, conflict_budget: u64) -> Vec<SdcLocation> {
    // Pre-filter by simulation.
    let mut rng = Xoshiro256::seed_from_u64(0x5DC);
    let patterns: Vec<Vec<u64>> = (0..netlist.primary_inputs().len())
        .map(|_| sim::random_words(&mut rng, PREFILTER_WORDS))
        .collect();
    let values = netlist.simulate(&patterns);

    let mut candidates = Vec::new();
    for (id, gate) in netlist.gates() {
        if gate.inputs().len() != 2 {
            continue;
        }
        let f = netlist.gate_fn(id);
        let Some((alternate, row)) = swap_partner(f) else {
            continue;
        };
        // Same net on both pins: row (v,v) reachable iff net can be v; for
        // distinct-value rows unreachable, but our rows are (0,0)/(1,1) —
        // leave to SAT like everything else.
        let a = &values[gate.inputs()[0].index()];
        let b = &values[gate.inputs()[1].index()];
        let seen = a.iter().zip(b).any(|(&wa, &wb)| {
            let pa = if row.0 { wa } else { !wa };
            let pb = if row.1 { wb } else { !wb };
            pa & pb != 0
        });
        if !seen {
            candidates.push(SdcLocation {
                gate: id,
                row,
                alternate,
            });
        }
    }
    if candidates.is_empty() {
        return candidates;
    }

    // Prove the survivors with SAT: one shared encoding, one reusable
    // solver, each row queried under assumptions (clauses learnt on one
    // gate's query speed up the next).
    let mut base_cnf = CnfBuilder::new();
    let enc = encode_netlist(&mut base_cnf, netlist);
    let mut solver = Solver::from_cnf(&base_cnf);
    let limits = Limits {
        conflicts: Some(conflict_budget),
        ..Limits::default()
    };
    candidates.retain(|cand| {
        let gate = netlist.gate(cand.gate);
        let va = enc.var(gate.inputs()[0]);
        let vb = enc.var(gate.inputs()[1]);
        let assumptions = [
            Lit::with_polarity(va, cand.row.0),
            Lit::with_polarity(vb, cand.row.1),
        ];
        matches!(
            solver.solve_under(&assumptions, &limits),
            SolveResult::Unsat
        )
    });
    candidates
}

/// The SDC fingerprinting engine, mirroring the shape of
/// [`crate::Fingerprinter`] for the companion technique.
#[derive(Debug, Clone)]
pub struct SdcFingerprinter {
    base: Netlist,
    locations: Vec<SdcLocation>,
}

impl SdcFingerprinter {
    /// Scans `base` for SDC locations (default per-proof conflict budget).
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation.
    pub fn new(base: Netlist) -> Result<Self, FingerprintError> {
        base.validate()?;
        let locations = find_sdc_locations(&base, 200_000);
        Ok(SdcFingerprinter { base, locations })
    }

    /// The unmarked base design.
    pub fn base(&self) -> &Netlist {
        &self.base
    }

    /// The usable swap locations, one bit each.
    pub fn locations(&self) -> &[SdcLocation] {
        &self.locations
    }

    /// Embeds a bit string: bit `i` = 1 swaps location `i`'s gate to its
    /// alternate function.
    ///
    /// # Errors
    ///
    /// Returns an error on length mismatch or when the library lacks the
    /// alternate cell at arity 2.
    pub fn embed(&self, bits: &[bool]) -> Result<Netlist, FingerprintError> {
        if bits.len() != self.locations.len() {
            return Err(FingerprintError::BitLengthMismatch {
                expected: self.locations.len(),
                found: bits.len(),
            });
        }
        let mut netlist = self.base.clone();
        for (&bit, loc) in bits.iter().zip(&self.locations) {
            if !bit {
                continue;
            }
            let cell = netlist
                .library()
                .cell_for(loc.alternate, 2)
                .ok_or_else(|| FingerprintError::CannotApply {
                    gate: loc.gate,
                    reason: format!("library lacks {}2", loc.alternate),
                })?;
            let inputs = netlist.gate(loc.gate).inputs().to_vec();
            netlist.replace_gate(loc.gate, cell, &inputs);
        }
        netlist.validate()?;
        Ok(netlist)
    }

    /// Recovers the embedded bits from a suspect copy derived from this
    /// base (positional identity, as with [`crate::Fingerprinter::extract`]).
    pub fn extract(&self, suspect: &Netlist) -> Vec<bool> {
        self.locations
            .iter()
            .map(|loc| suspect.gate_fn(loc.gate) == loc.alternate)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_sat::{check_equivalence, EquivResult};

    /// A circuit where OR(a, !a) and NAND(a, !a) have unreachable rows.
    fn contradictory() -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("sdc", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let nand2 = n.library().cell_for(PrimitiveFn::Nand, 2).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let na = n.add_gate("na", inv, &[a]);
        // OR(a, !a): row (1,1) needs a = 1 and !a = 1 — unreachable.
        let g_or = n.add_gate("g_or", or2, &[a, n.gate_output(na)]);
        // NAND(a, !a): row (0,0) unreachable.
        let g_nand = n.add_gate("g_nand", nand2, &[a, n.gate_output(na)]);
        // AND(a, b): row (0,0) very reachable — not a location.
        let g_and = n.add_gate("g_and", and2, &[a, b]);
        let top = n.add_gate("top", and2, &[n.gate_output(g_or), n.gate_output(g_nand)]);
        n.set_primary_output(n.gate_output(top));
        n.set_primary_output(n.gate_output(g_and));
        n
    }

    #[test]
    fn finds_exactly_the_unreachable_rows() {
        let n = contradictory();
        let locs = find_sdc_locations(&n, 100_000);
        let names: Vec<&str> = locs.iter().map(|l| n.gate(l.gate).name()).collect();
        assert!(names.contains(&"g_or"), "{names:?}");
        assert!(names.contains(&"g_nand"), "{names:?}");
        assert!(!names.contains(&"g_and"), "{names:?}");
        for l in &locs {
            match (n.gate(l.gate).name(), n.gate_fn(l.gate)) {
                ("g_or", PrimitiveFn::Or) => {
                    assert_eq!(l.row, (true, true));
                    assert_eq!(l.alternate, PrimitiveFn::Xor);
                }
                ("g_nand", PrimitiveFn::Nand) => {
                    assert_eq!(l.row, (false, false));
                    assert_eq!(l.alternate, PrimitiveFn::Xor);
                }
                // top = AND(g_or, g_nand) where g_or ≡ 1: its (0,0) row is
                // genuinely unreachable too, so it is a valid location.
                ("top", PrimitiveFn::And) => {
                    assert_eq!(l.row, (false, false));
                    assert_eq!(l.alternate, PrimitiveFn::Xnor);
                }
                other => panic!("unexpected location {other:?}"),
            }
        }
    }

    #[test]
    fn swaps_are_sat_equivalent() {
        let n = contradictory();
        let fp = SdcFingerprinter::new(n).unwrap();
        let k = fp.locations().len();
        assert!(k >= 2);
        for pattern in 0..(1usize << k) {
            let bits: Vec<bool> = (0..k).map(|i| (pattern >> i) & 1 == 1).collect();
            let copy = fp.embed(&bits).unwrap();
            assert_eq!(
                check_equivalence(fp.base(), &copy, None).unwrap(),
                EquivResult::Equivalent,
                "pattern {pattern:b}"
            );
            assert_eq!(fp.extract(&copy), bits);
        }
    }

    #[test]
    fn swap_partners_differ_in_exactly_one_row() {
        for f in [
            PrimitiveFn::And,
            PrimitiveFn::Nand,
            PrimitiveFn::Or,
            PrimitiveFn::Nor,
            PrimitiveFn::Xor,
            PrimitiveFn::Xnor,
        ] {
            let (alt, row) = swap_partner(f).unwrap();
            let mut diffs = Vec::new();
            for i in 0..4usize {
                let ins = [i & 1 == 1, i & 2 == 2];
                if f.eval(&ins) != alt.eval(&ins) {
                    diffs.push((ins[0], ins[1]));
                }
            }
            assert_eq!(diffs, vec![row], "{f} vs {alt}");
        }
        assert!(swap_partner(PrimitiveFn::Inv).is_none());
    }

    #[test]
    fn reachable_rows_yield_no_locations() {
        // A plain AND of two free inputs: (0,0) is reachable.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("free", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g = n.add_gate("g", and2, &[a, b]);
        n.set_primary_output(n.gate_output(g));
        assert!(find_sdc_locations(&n, 100_000).is_empty());
    }

    #[test]
    fn sdc_and_odc_methods_compose() {
        // Run the ODC engine on an SDC-swapped copy: both marks coexist
        // and both remain extractable.
        let n = contradictory();
        let sdc = SdcFingerprinter::new(n).unwrap();
        let k = sdc.locations().len();
        let sdc_bits = vec![true; k];
        let swapped = sdc.embed(&sdc_bits).unwrap();

        let odc = crate::Fingerprinter::new(swapped.clone()).unwrap();
        if odc.locations().is_empty() {
            // Tiny circuit may offer no ODC site after swapping; the
            // composition claim is then vacuous here.
            return;
        }
        let copy = odc.embed_all().unwrap();
        assert_eq!(
            check_equivalence(sdc.base(), copy.netlist(), None).unwrap(),
            EquivResult::Equivalent
        );
        assert_eq!(sdc.extract(copy.netlist()), sdc_bits);
        assert_eq!(
            odc.extract(copy.netlist()),
            vec![true; odc.locations().len()]
        );
    }

    #[test]
    fn bit_length_checked() {
        let fp = SdcFingerprinter::new(contradictory()).unwrap();
        assert!(matches!(
            fp.embed(&[]),
            Err(FingerprintError::BitLengthMismatch { .. })
        ));
    }
}
