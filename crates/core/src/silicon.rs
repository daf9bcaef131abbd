//! The post-silicon solidification model of §I-A and §VI.
//!
//! The paper's two-step process: *"First, an IC is designed with a number
//! of flexibilities so every IC fabricated is identical. Second, in the
//! post-silicon stage, the flexibilities are solidified such that each IC
//! has an individual fingerprint"* — with fuses suggested as the
//! connection mechanism in §VI.
//!
//! [`FlexibleDesign`] realizes that: one mask-level netlist in which every
//! fingerprint wire is already routed but passes through a *fuse literal*
//! — the added trigger literal is OR-ed (AND-plane targets) or AND-ed
//! (OR/XOR-plane targets) with a per-location fuse net, so that a blown
//! fuse (0) forces the literal to its neutral value and the gate behaves
//! exactly like the unmodified base. Programming the fuse map yields a
//! netlist provably equivalent to [`Fingerprinter::embed`] of the same
//! bits.

use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetId, Netlist};

use crate::modify::widened_cell;
use crate::verify::{verify_equivalent, Verdict, VerifyPolicy};
use crate::{FingerprintError, Fingerprinter, Modification};

/// The single mask-level design that every buyer's IC is fabricated from:
/// all fingerprint wires present, each guarded by a fuse input.
#[derive(Debug, Clone)]
pub struct FlexibleDesign {
    netlist: Netlist,
    /// The unfingerprinted base, kept so programmed ICs can be verified
    /// against the golden function before shipping.
    base: Netlist,
    /// One fuse net per fingerprint location, in location order.
    fuse_nets: Vec<NetId>,
    /// The gate that combines each location's trigger literal with its
    /// fuse, so tests can inspect the structure.
    fuse_gates: Vec<GateId>,
}

impl FlexibleDesign {
    /// Builds the flexible design for an engine's selected modifications.
    ///
    /// Every fuse appears as an additional primary input named
    /// `fuse<i>`; fabricated silicon would tie these to fuse cells, and
    /// simulation/verification drive them like ordinary inputs.
    ///
    /// # Errors
    ///
    /// Returns [`FingerprintError::CannotApply`] if the library cannot
    /// widen a target gate (cannot happen for locations produced by the
    /// same engine).
    pub fn build(fp: &Fingerprinter) -> Result<Self, FingerprintError> {
        let mut netlist = fp.base().clone();
        let mut fuse_nets = Vec::with_capacity(fp.locations().len());
        let mut fuse_gates = Vec::with_capacity(fp.locations().len());
        for (i, m) in fp.selected_modifications().iter().enumerate() {
            let fuse = netlist.add_primary_input(format!("fuse{i}"));
            let gate = attach_fused_literal(&mut netlist, m, fuse)?;
            fuse_nets.push(fuse);
            fuse_gates.push(gate);
        }
        netlist.validate()?;
        Ok(FlexibleDesign {
            netlist,
            base: fp.base().clone(),
            fuse_nets,
            fuse_gates,
        })
    }

    /// The mask-level netlist (fuses are primary inputs).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The fuse nets, one per fingerprint location.
    pub fn fuse_nets(&self) -> &[NetId] {
        &self.fuse_nets
    }

    /// The fuse-combining gates, one per fingerprint location.
    pub fn fuse_gates(&self) -> &[GateId] {
        &self.fuse_gates
    }

    /// Solidifies one IC: ties every fuse to its programmed value,
    /// returning the buyer's netlist. `bits[i] = true` keeps location
    /// `i`'s wire connected.
    ///
    /// # Errors
    ///
    /// Returns [`FingerprintError::BitLengthMismatch`] if `bits` does not
    /// match the fuse count.
    pub fn program(&self, bits: &[bool]) -> Result<Netlist, FingerprintError> {
        if bits.len() != self.fuse_nets.len() {
            return Err(FingerprintError::BitLengthMismatch {
                expected: self.fuse_nets.len(),
                found: bits.len(),
            });
        }
        let mut programmed = Netlist::new(
            format!("{}_programmed", self.netlist.name()),
            self.netlist.library().clone(),
        );
        // Rebuild with fuses as constants instead of primary inputs. Net
        // and gate indices shift, so rebuild by traversal in original
        // order: nets first (same order), then gates (same order).
        let mut net_map: Vec<Option<NetId>> = vec![None; self.netlist.num_nets()];
        for (id, net) in self.netlist.nets() {
            let fuse_index = self.fuse_nets.iter().position(|&f| f == id);
            let new = match (net.driver(), fuse_index) {
                (_, Some(k)) => programmed.add_constant(net.name(), bits[k]),
                (odcfp_netlist::NetDriver::PrimaryInput, None) => {
                    programmed.add_primary_input(net.name())
                }
                (odcfp_netlist::NetDriver::Const(v), None) => {
                    programmed.add_constant(net.name(), v)
                }
                _ => programmed.add_net(net.name()),
            };
            net_map[id.index()] = Some(new);
        }
        for (_, gate) in self.netlist.gates() {
            let inputs: Vec<NetId> = gate
                .inputs()
                .iter()
                .map(|&n| net_map[n.index()].expect("mapped"))
                .collect();
            let output = net_map[gate.output().index()].expect("mapped");
            programmed.add_gate_driving(gate.name(), gate.cell(), &inputs, output);
        }
        for &po in self.netlist.primary_outputs() {
            programmed.set_primary_output(net_map[po.index()].expect("mapped"));
        }
        programmed.validate()?;
        Ok(programmed)
    }

    /// Solidifies one IC and verifies the result against the base design
    /// under `policy` — the production sign-off path: fuse programming is
    /// exactly where manufacturing defects (stuck fuses, bridged wires)
    /// would silently corrupt a shipped part.
    ///
    /// [`Verdict::Refuted`] is promoted to an error; [`Verdict::Undecided`]
    /// is returned as data for the caller to judge.
    ///
    /// # Errors
    ///
    /// Returns [`FingerprintError::BitLengthMismatch`] on a wrong-length
    /// fuse map, validation errors, or [`FingerprintError::NotEquivalent`]
    /// when the programmed netlist provably differs from the base.
    pub fn program_verified(
        &self,
        bits: &[bool],
        policy: &VerifyPolicy,
    ) -> Result<(Netlist, Verdict), FingerprintError> {
        let programmed = self.program(bits)?;
        let verdict = verify_equivalent(&self.base, &programmed, policy)?;
        if let Verdict::Refuted { counterexample } = verdict {
            return Err(FingerprintError::NotEquivalent {
                counterexample: Some(counterexample),
            });
        }
        Ok((programmed, verdict))
    }
}

/// Wires one modification's literal through a fuse: the target gate gets
/// the combined literal instead of the raw one.
///
/// For an AND-plane target (neutral 1) the combined literal is
/// `lit OR !fuse` (blown fuse ⇒ 1 ⇒ neutral); for an OR/XOR-plane target
/// (neutral 0) it is `lit AND fuse` (blown fuse ⇒ 0 ⇒ neutral). Complements
/// fold into the fuse gate: `!lit OR !fuse = NAND(lit, fuse)` and
/// `!lit AND fuse = NOR(lit, !fuse)` — realized as `NOR(lit, inv_fuse)`.
fn attach_fused_literal(
    netlist: &mut Netlist,
    m: &Modification,
    fuse: NetId,
) -> Result<GateId, FingerprintError> {
    let target = m.target();
    let added = m.added_nets().to_vec();
    let (cell, _) = widened_cell(netlist, target, added.len()).ok_or_else(|| {
        FingerprintError::CannotApply {
            gate: target,
            reason: "no wide-enough cell in library".into(),
        }
    })?;
    let neutral = netlist
        .gate_fn(target)
        .widened()
        .neutral_input_value()
        .expect("widened functions have a neutral value");
    let complement = m.complemented();

    let mut new_inputs = netlist.gate(target).inputs().to_vec();
    let mut last_gate = None;
    for net in added {
        // Choose the fuse-combining function so that fuse=0 yields the
        // neutral value and fuse=1 yields the (possibly complemented)
        // literal.
        let (f, ins): (PrimitiveFn, Vec<NetId>) = match (neutral, complement) {
            // neutral 1, literal lit:  lit OR !fuse  == NAND(!lit, fuse).
            (true, false) => {
                let inv = add_inv(netlist, net)?;
                (PrimitiveFn::Nand, vec![inv, fuse])
            }
            // neutral 1, literal !lit: !lit OR !fuse == NAND(lit, fuse).
            (true, true) => (PrimitiveFn::Nand, vec![net, fuse]),
            // neutral 0, literal lit:  lit AND fuse.
            (false, false) => (PrimitiveFn::And, vec![net, fuse]),
            // neutral 0, literal !lit: !lit AND fuse == NOR(lit, !fuse).
            (false, true) => {
                let inv = add_inv(netlist, fuse)?;
                (PrimitiveFn::Nor, vec![net, inv])
            }
        };
        let cell2 =
            netlist
                .library()
                .cell_for(f, 2)
                .ok_or_else(|| FingerprintError::CannotApply {
                    gate: target,
                    reason: format!("library lacks {f}2 for fuse gating"),
                })?;
        let name = format!("fuse_mix_{}", netlist.num_gates());
        let g = netlist.add_gate(name, cell2, &ins);
        new_inputs.push(netlist.gate_output(g));
        last_gate = Some(g);
    }
    netlist.replace_gate(target, cell, &new_inputs);
    Ok(last_gate.expect("modifications add at least one literal"))
}

fn add_inv(netlist: &mut Netlist, net: NetId) -> Result<NetId, FingerprintError> {
    let inv = netlist
        .library()
        .cell_for(PrimitiveFn::Inv, 1)
        .ok_or_else(|| FingerprintError::CannotApply {
            gate: GateId::from_index(0),
            reason: "library has no inverter".into(),
        })?;
    let name = format!("fuse_inv_{}", netlist.num_gates());
    let g = netlist.add_gate(name, inv, &[net]);
    Ok(netlist.gate_output(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_sat::{check_equivalence, EquivResult};
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn engine(seed: u64) -> Fingerprinter {
        let base = random_dag(CellLibrary::standard(), DagParams::small(seed));
        Fingerprinter::new(base).unwrap()
    }

    #[test]
    fn programmed_matches_embedded_for_exhaustive_patterns() {
        let fp = engine(60);
        let flexible = FlexibleDesign::build(&fp).unwrap();
        let n = fp.locations().len().min(6);
        // Exhaust bit patterns over the first few locations (rest zero).
        for pattern in 0..(1usize << n) {
            let mut bits = vec![false; fp.locations().len()];
            for (i, bit) in bits.iter_mut().take(n).enumerate() {
                *bit = (pattern >> i) & 1 == 1;
            }
            let programmed = flexible.program(&bits).unwrap();
            let embedded = fp.embed(&bits).unwrap();
            assert_eq!(
                check_equivalence(&programmed, embedded.netlist(), Some(500_000)).unwrap(),
                EquivResult::Equivalent,
                "pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn all_blown_fuses_give_the_base_function() {
        let fp = engine(61);
        let flexible = FlexibleDesign::build(&fp).unwrap();
        let programmed = flexible
            .program(&vec![false; fp.locations().len()])
            .unwrap();
        assert_eq!(
            check_equivalence(fp.base(), &programmed, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn all_connected_fuses_match_embed_all() {
        let fp = engine(62);
        let flexible = FlexibleDesign::build(&fp).unwrap();
        let programmed = flexible.program(&vec![true; fp.locations().len()]).unwrap();
        let embedded = fp.embed_all().unwrap();
        assert_eq!(
            check_equivalence(&programmed, embedded.netlist(), None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn every_fabricated_ic_is_identical() {
        // The whole point of §I-A: the mask-level design is one netlist;
        // only fuse programming differs.
        let fp = engine(63);
        let a = FlexibleDesign::build(&fp).unwrap();
        let b = FlexibleDesign::build(&fp).unwrap();
        assert_eq!(a.netlist().num_gates(), b.netlist().num_gates());
        assert_eq!(
            a.netlist().primary_inputs().len(),
            b.netlist().primary_inputs().len()
        );
    }

    #[test]
    fn fuse_count_matches_locations() {
        let fp = engine(64);
        let flexible = FlexibleDesign::build(&fp).unwrap();
        assert_eq!(flexible.fuse_nets().len(), fp.locations().len());
        assert_eq!(flexible.fuse_gates().len(), fp.locations().len());
        assert!(matches!(
            flexible.program(&[]),
            Err(FingerprintError::BitLengthMismatch { .. })
        ));
    }

    #[test]
    fn program_verified_signs_off_good_fuse_maps() {
        let fp = engine(66);
        let flexible = FlexibleDesign::build(&fp).unwrap();
        let mut bits = vec![false; fp.locations().len()];
        bits[0] = true;
        let (programmed, verdict) = flexible
            .program_verified(&bits, &VerifyPolicy::strict())
            .unwrap();
        assert!(verdict.is_pass(), "got {verdict}");
        assert_eq!(fp.extract(&programmed).len(), fp.locations().len());
    }

    #[test]
    fn flexible_design_extraction_via_simulation_of_fuses() {
        // Driving the fuse inputs like signals lets the designer probe a
        // flexible die before solidification: with all fuses at 0 it
        // behaves as the base on random vectors.
        let fp = engine(65);
        let flexible = FlexibleDesign::build(&fp).unwrap();
        let k_base = fp.base().primary_inputs().len();
        let total = flexible.netlist().primary_inputs().len();
        assert_eq!(total, k_base + fp.locations().len());
        let mut rng = odcfp_logic::rng::Xoshiro256::seed_from_u64(3);
        for _ in 0..32 {
            let inputs: Vec<bool> = (0..k_base).map(|_| rng.next_bool()).collect();
            let mut full = inputs.clone();
            full.extend(std::iter::repeat_n(false, fp.locations().len()));
            assert_eq!(flexible.netlist().eval(&full), fp.base().eval(&inputs));
        }
    }
}
