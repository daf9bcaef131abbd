//! Deterministic, seeded fault injection — the adversary/defect model the
//! verification battery is graded against.
//!
//! Defense in depth only means something if every layer is exercised
//! against the failures it claims to catch. This module manufactures
//! those failures on demand, reproducibly:
//!
//! * **silicon defects** — [`stuck_at`] ties any net to a constant;
//!   [`substitute_cell`] swaps a gate for the complementary cell of the
//!   same arity (the classic mask/wrong-via defect);
//! * **fingerprint-wire faults** — dropped or duplicated optional
//!   connections, modelled as bit flips on the embedding vector (the
//!   structural change a missing or extra trigger wire produces);
//! * **fuse faults** — flipped bits in a
//!   [`FlexibleDesign`](crate::FlexibleDesign) programming map;
//! * **source corruption** — truncated netlist text handed to a parser.
//!
//! [`FaultInjector`] wraps a seeded RNG so a battery run is a pure
//! function of its seed: a failure reported by CI reproduces locally
//! bit-for-bit.
//!
//! Which layer catches what: stuck-at and wrong-cell faults that change
//! the function are refuted by [`verify_equivalent`](crate::verify) —
//! while ODC-masked instances are *correctly* proven harmless, not
//! silently mis-accepted. Fingerprint-wire and fuse faults preserve the
//! function by construction (that is the paper's point), so equivalence
//! checking cannot see them; the [`robust`](crate::robust) decoder
//! localizes them instead. Truncated sources never reach a netlist: the
//! parsers report typed errors.

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetDriver, NetId, Netlist};

/// The fault classes the battery injects, for labelling and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A net tied to a constant 0/1 (manufacturing short).
    StuckAtNet,
    /// A fingerprint wire absent though its bit says present.
    DroppedFingerprintWire,
    /// A fingerprint wire present though its bit says absent.
    DuplicatedFingerprintWire,
    /// A flipped bit in a fuse programming map.
    FuseBitFlip,
    /// A gate fabricated as the complementary cell of the same arity.
    WrongCellSubstitution,
    /// Netlist source text cut off mid-stream.
    TruncatedSource,
}

impl FaultClass {
    /// Every class, in a fixed order (for exhaustive batteries).
    pub const ALL: [FaultClass; 6] = [
        FaultClass::StuckAtNet,
        FaultClass::DroppedFingerprintWire,
        FaultClass::DuplicatedFingerprintWire,
        FaultClass::FuseBitFlip,
        FaultClass::WrongCellSubstitution,
        FaultClass::TruncatedSource,
    ];
}

/// Rebuilds `netlist` with every reader of `target` redirected to a fresh
/// constant `value` net — a stuck-at fault.
///
/// The original driver (gate or primary input) is kept, now driving a
/// sink-less net, so the primary interface is unchanged and the faulty
/// netlist still validates: the fault is *functional*, exactly like a
/// short in silicon, not a structurally broken file.
pub fn stuck_at(netlist: &Netlist, target: NetId, value: bool) -> Netlist {
    let mut faulty = Netlist::new(
        format!("{}_stuck", netlist.name()),
        netlist.library().clone(),
    );
    let mut net_map: Vec<NetId> = Vec::with_capacity(netlist.num_nets());
    for (_, net) in netlist.nets() {
        let new = match net.driver() {
            NetDriver::PrimaryInput => faulty.add_primary_input(net.name()),
            NetDriver::Const(v) => faulty.add_constant(net.name(), v),
            _ => faulty.add_net(net.name()),
        };
        net_map.push(new);
    }
    let stuck = faulty.add_constant(
        format!("{}_sa{}", netlist.net(target).name(), u8::from(value)),
        value,
    );
    let remap = |n: NetId| {
        if n == target {
            stuck
        } else {
            net_map[n.index()]
        }
    };
    for (_, gate) in netlist.gates() {
        let inputs: Vec<NetId> = gate.inputs().iter().map(|&n| remap(n)).collect();
        faulty.add_gate_driving(
            gate.name(),
            gate.cell(),
            &inputs,
            net_map[gate.output().index()],
        );
    }
    for &po in netlist.primary_outputs() {
        faulty.set_primary_output(remap(po));
    }
    faulty
}

/// The cell function a defect most plausibly confuses `f` with: its
/// complement (same arity, same pin count, inverted behaviour).
pub fn confused_function(f: PrimitiveFn) -> PrimitiveFn {
    match f {
        PrimitiveFn::Buf => PrimitiveFn::Inv,
        PrimitiveFn::Inv => PrimitiveFn::Buf,
        PrimitiveFn::And => PrimitiveFn::Nand,
        PrimitiveFn::Nand => PrimitiveFn::And,
        PrimitiveFn::Or => PrimitiveFn::Nor,
        PrimitiveFn::Nor => PrimitiveFn::Or,
        PrimitiveFn::Xor => PrimitiveFn::Xnor,
        PrimitiveFn::Xnor => PrimitiveFn::Xor,
    }
}

/// Clones `netlist` with gate `target` swapped for the complementary cell
/// of the same arity — the wrong-cell substitution defect.
///
/// Returns `None` when the library has no complementary cell at that
/// arity (the fault cannot be fabricated from this library).
pub fn substitute_cell(netlist: &Netlist, target: GateId) -> Option<Netlist> {
    let arity = netlist.gate(target).inputs().len();
    let wrong = confused_function(netlist.gate_fn(target));
    let cell = netlist.library().cell_for(wrong, arity)?;
    let mut faulty = netlist.clone();
    let inputs = faulty.gate(target).inputs().to_vec();
    faulty.replace_gate(target, cell, &inputs);
    Some(faulty)
}

/// A deterministic source of randomized faults: every choice is drawn
/// from one seeded RNG, so a battery run replays exactly from its seed.
#[derive(Debug)]
pub struct FaultInjector {
    rng: Xoshiro256,
}

impl FaultInjector {
    /// Creates an injector; the same seed yields the same fault sequence.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: Xoshiro256::seed_from_u64(seed),
        }
    }

    /// Injects a stuck-at fault on a uniformly chosen gate-driven net.
    /// Returns the faulty netlist with the chosen net and value, or
    /// `None` for a gateless netlist.
    pub fn random_stuck_at(&mut self, netlist: &Netlist) -> Option<(Netlist, NetId, bool)> {
        let internal: Vec<NetId> = netlist
            .nets()
            .filter(|(_, net)| matches!(net.driver(), NetDriver::Gate(_)))
            .map(|(id, _)| id)
            .collect();
        if internal.is_empty() {
            return None;
        }
        let target = internal[self.rng.next_below(internal.len())];
        let value = self.rng.next_bool();
        Some((stuck_at(netlist, target, value), target, value))
    }

    /// Substitutes a wrong cell at a uniformly chosen gate. Returns
    /// `None` when no gate in the netlist has a complementary cell
    /// available in the library.
    pub fn random_wrong_cell(&mut self, netlist: &Netlist) -> Option<(Netlist, GateId)> {
        let mut candidates: Vec<GateId> = netlist.gates().map(|(id, _)| id).collect();
        self.rng.shuffle(&mut candidates);
        candidates
            .into_iter()
            .find_map(|g| substitute_cell(netlist, g).map(|n| (n, g)))
    }

    /// Flips one uniformly chosen bit (fuse-map corruption). Returns the
    /// flipped vector and the index, or `None` for an empty vector.
    pub fn random_bit_flip(&mut self, bits: &[bool]) -> Option<(Vec<bool>, usize)> {
        if bits.is_empty() {
            return None;
        }
        let i = self.rng.next_below(bits.len());
        let mut flipped = bits.to_vec();
        flipped[i] = !flipped[i];
        Some((flipped, i))
    }

    /// Clears one uniformly chosen set bit — a fingerprint wire that was
    /// supposed to be connected but is missing. `None` if no bit is set.
    pub fn drop_random_wire(&mut self, bits: &[bool]) -> Option<(Vec<bool>, usize)> {
        self.flip_with_value(bits, true)
    }

    /// Sets one uniformly chosen clear bit — an extra fingerprint wire
    /// that was never supposed to exist. `None` if every bit is set.
    pub fn duplicate_random_wire(&mut self, bits: &[bool]) -> Option<(Vec<bool>, usize)> {
        self.flip_with_value(bits, false)
    }

    fn flip_with_value(&mut self, bits: &[bool], current: bool) -> Option<(Vec<bool>, usize)> {
        let eligible: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == current)
            .map(|(i, _)| i)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let i = eligible[self.rng.next_below(eligible.len())];
        let mut flipped = bits.to_vec();
        flipped[i] = !flipped[i];
        Some((flipped, i))
    }

    /// Truncates source text at a uniformly chosen byte offset strictly
    /// inside the text (always cutting something, never everything),
    /// snapped back to a UTF-8 boundary.
    pub fn truncate_source(&mut self, text: &str) -> String {
        if text.len() < 2 {
            return String::new();
        }
        let mut cut = 1 + self.rng.next_below(text.len() - 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text[..cut].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn small() -> Netlist {
        random_dag(CellLibrary::standard(), DagParams::small(7))
    }

    #[test]
    fn stuck_at_preserves_interface_and_validates() {
        let base = small();
        let mut inj = FaultInjector::new(1);
        let (faulty, net, value) = inj.random_stuck_at(&base).unwrap();
        faulty.validate().unwrap();
        assert_eq!(faulty.primary_inputs().len(), base.primary_inputs().len());
        assert_eq!(faulty.primary_outputs().len(), base.primary_outputs().len());
        // The stuck constant exists and carries the injected value.
        let name = format!("{}_sa{}", base.net(net).name(), u8::from(value));
        assert!(faulty.net_by_name(&name).is_some());
    }

    #[test]
    fn wrong_cell_changes_exactly_one_gate() {
        let base = small();
        let mut inj = FaultInjector::new(2);
        let (faulty, gate) = inj.random_wrong_cell(&base).unwrap();
        faulty.validate().unwrap();
        assert_eq!(faulty.num_gates(), base.num_gates());
        assert_eq!(faulty.gate_fn(gate), confused_function(base.gate_fn(gate)));
        let changed = base
            .gates()
            .filter(|&(id, g)| g.cell() != faulty.gate(id).cell())
            .count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn confused_function_is_an_involution() {
        for f in PrimitiveFn::ALL {
            assert_ne!(confused_function(f), f);
            assert_eq!(confused_function(confused_function(f)), f);
        }
    }

    #[test]
    fn bit_faults_flip_exactly_one_bit() {
        let bits = [true, false, true, true, false];
        let mut inj = FaultInjector::new(3);
        let (flipped, i) = inj.random_bit_flip(&bits).unwrap();
        assert_eq!(flipped[i], !bits[i]);
        assert_eq!(flipped.iter().zip(&bits).filter(|(a, b)| a != b).count(), 1);
        let (dropped, j) = inj.drop_random_wire(&bits).unwrap();
        assert!(bits[j] && !dropped[j]);
        let (duped, k) = inj.duplicate_random_wire(&bits).unwrap();
        assert!(!bits[k] && duped[k]);
        assert!(inj.random_bit_flip(&[]).is_none());
        assert!(inj.drop_random_wire(&[false]).is_none());
        assert!(inj.duplicate_random_wire(&[true]).is_none());
    }

    #[test]
    fn injector_is_deterministic() {
        let base = small();
        let a = FaultInjector::new(9).random_stuck_at(&base).unwrap();
        let b = FaultInjector::new(9).random_stuck_at(&base).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        let mut i1 = FaultInjector::new(10);
        let mut i2 = FaultInjector::new(10);
        assert_eq!(
            i1.truncate_source("abcdefgh"),
            i2.truncate_source("abcdefgh")
        );
    }

    #[test]
    fn truncation_always_shortens() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n";
        let mut inj = FaultInjector::new(4);
        for _ in 0..32 {
            let cut = inj.truncate_source(text);
            assert!(cut.len() < text.len());
        }
        assert_eq!(inj.truncate_source(""), "");
        assert_eq!(inj.truncate_source("x"), "");
    }
}
