//! The catalogue of functionality-preserving circuit modifications and
//! their application.

use std::collections::HashMap;

use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetDriver, NetId, Netlist};

use crate::FingerprintError;

/// One concrete, functionality-preserving rewiring at a fingerprint
/// location.
///
/// Both variants add signal(s) to `target`, a gate inside a fanout-free
/// cone feeding the location's primary gate. Correctness rests on the ODC
/// argument of §III-C of the paper:
///
/// * when the trigger is **non-controlling** for the primary gate, the
///   added literal takes the target plane's *neutral* value, so the
///   target's output — and therefore the circuit — is unchanged;
/// * when the trigger is **controlling**, the primary gate's output is
///   fixed regardless of the FFC's value, so any change the added literal
///   causes is unobservable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modification {
    /// §III-C, Figure 4: wire the ODC trigger signal itself into `target`.
    InsertTrigger {
        /// The FFC gate being widened.
        target: GateId,
        /// The trigger net (an input of the primary gate).
        trigger: NetId,
        /// Insert the complement (via an inverter) instead of the signal.
        complement: bool,
    },
    /// §III-C, Figure 5: the trigger is itself generated by a gate whose
    /// output value, when non-controlling, pins every one of its inputs —
    /// so wire one or two of those *earlier* inputs into `target` instead,
    /// saving the trigger gate's delay.
    RerouteEarly {
        /// The FFC gate being widened.
        target: GateId,
        /// One or two input nets of the trigger-generating gate.
        sources: Sources,
        /// Insert complements (via inverters) instead of the signals.
        complement: bool,
    },
}

impl Modification {
    /// The FFC gate this modification widens.
    pub fn target(&self) -> GateId {
        match self {
            Modification::InsertTrigger { target, .. }
            | Modification::RerouteEarly { target, .. } => *target,
        }
    }

    /// The nets that will be wired into the target (before complementing).
    pub fn added_nets(&self) -> &[NetId] {
        match self {
            Modification::InsertTrigger { trigger, .. } => std::slice::from_ref(trigger),
            Modification::RerouteEarly { sources, .. } => sources.as_slice(),
        }
    }

    /// Whether the added literals are complemented.
    pub fn complemented(&self) -> bool {
        match self {
            Modification::InsertTrigger { complement, .. }
            | Modification::RerouteEarly { complement, .. } => *complement,
        }
    }
}

/// The one or two source nets of a Fig. 5 reroute, stored inline so that
/// [`Modification`] is `Copy` and enumerating reroutes allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sources {
    // A single source repeats in the unused slot, so the derived
    // equality and hash see only the nets `as_slice` exposes.
    nets: [NetId; 2],
    len: u8,
}

impl Sources {
    /// One source net.
    pub fn one(net: NetId) -> Sources {
        Sources {
            nets: [net, net],
            len: 1,
        }
    }

    /// Two source nets, in this order.
    pub fn two(first: NetId, second: NetId) -> Sources {
        Sources {
            nets: [first, second],
            len: 2,
        }
    }

    /// The source nets, in order.
    pub fn as_slice(&self) -> &[NetId] {
        &self.nets[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Sources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Inserts a fresh inverter driven by `net` and returns its output.
///
/// A *fresh* inverter is deliberately used even when the circuit already
/// complements the net somewhere: reusing an existing inverter would give a
/// gate that may sit inside another location's fanout-free cone a brand-new
/// fanout edge leaving that cone, silently invalidating the other
/// location's ODC argument. The fresh inverter's only sink is this
/// modification's target, which provably stays inside any cone containing
/// the trigger's driver, so compositions of modifications remain safe.
fn complement_net(netlist: &mut Netlist, net: NetId) -> Result<NetId, FingerprintError> {
    let inv = netlist
        .library()
        .cell_for(PrimitiveFn::Inv, 1)
        .ok_or_else(|| FingerprintError::CannotApply {
            gate: GateId::from_index(0),
            reason: "library has no inverter".into(),
        })?;
    let name = format!("fp_inv_{}", netlist.num_gates());
    let g = netlist.add_gate(name, inv, &[net]);
    Ok(netlist.gate_output(g))
}

/// The widened cell for `gate` after adding `extra` inputs, if the library
/// offers one.
pub(crate) fn widened_cell(
    netlist: &Netlist,
    gate: GateId,
    extra: usize,
) -> Option<(odcfp_netlist::CellId, PrimitiveFn)> {
    let g = netlist.gate(gate);
    let cell = netlist.library().cell(g.cell());
    let f = cell.function().widened();
    let arity = cell.arity() + extra;
    netlist.library().cell_for(f, arity).map(|c| (c, f))
}

/// Applies a modification in place.
///
/// # Errors
///
/// Returns [`FingerprintError::CannotApply`] if the library lacks a
/// wide-enough cell for the target (or an inverter when `complement` is
/// set). The netlist is unchanged on error.
pub fn apply_modification(
    netlist: &mut Netlist,
    m: &Modification,
) -> Result<(), FingerprintError> {
    let target = m.target();
    let added = m.added_nets();
    let (cell, _f) =
        widened_cell(netlist, target, added.len()).ok_or_else(|| FingerprintError::CannotApply {
            gate: target,
            reason: "no wide-enough cell in library".into(),
        })?;
    let mut new_inputs = netlist.gate(target).inputs().to_vec();
    for &net in added {
        let lit = if m.complemented() {
            complement_net(netlist, net)?
        } else {
            net
        };
        new_inputs.push(lit);
    }
    netlist.replace_gate(target, cell, &new_inputs);
    Ok(())
}

/// True if the literal (`net` or its complement) already feeds `target` —
/// used both to rule out degenerate modifications and, on a suspect copy,
/// to *detect* an applied modification.
pub(crate) fn literal_present(
    netlist: &Netlist,
    target: GateId,
    net: NetId,
    complement: bool,
) -> bool {
    let inputs = netlist.gate(target).inputs();
    if !complement {
        return inputs.contains(&net);
    }
    // Scan the target's few inputs for an inverter of `net`, not the
    // sinks of `net`, which may be many.
    inputs
        .iter()
        .any(|&input| match netlist.net(input).driver() {
            NetDriver::Gate(g) => {
                netlist.gate_fn(g) == PrimitiveFn::Inv && netlist.gate(g).inputs() == [net]
            }
            _ => false,
        })
}

/// True if every literal the modification adds is present in `netlist` —
/// the designer-side detection predicate.
pub(crate) fn modification_present(netlist: &Netlist, m: &Modification) -> bool {
    m.added_nets()
        .iter()
        .all(|&net| literal_present(netlist, m.target(), net, m.complemented()))
}

/// The ids a netlist gives a set of gate and net names. Where a name
/// repeats, the lowest id wins, as [`Netlist::gate_by_name`] and
/// [`Netlist::net_by_name`] would find it; a name the netlist lacks
/// resolves to `None`.
pub(crate) struct NameIndex<'a> {
    gates: HashMap<&'a str, Option<GateId>>,
    nets: HashMap<&'a str, Option<NetId>>,
}

impl<'a> NameIndex<'a> {
    /// Resolves `gate_names` and `net_names` in `netlist`, in one pass
    /// over its gates and one over its nets.
    pub(crate) fn new(
        netlist: &Netlist,
        gate_names: impl IntoIterator<Item = &'a str>,
        net_names: impl IntoIterator<Item = &'a str>,
    ) -> NameIndex<'a> {
        let mut gates: HashMap<&str, Option<GateId>> =
            gate_names.into_iter().map(|name| (name, None)).collect();
        for (id, gate) in netlist.gates() {
            if let Some(slot) = gates.get_mut(gate.name()) {
                slot.get_or_insert(id);
            }
        }
        let mut nets: HashMap<&str, Option<NetId>> =
            net_names.into_iter().map(|name| (name, None)).collect();
        for (id, net) in netlist.nets() {
            if let Some(slot) = nets.get_mut(net.name()) {
                slot.get_or_insert(id);
            }
        }
        NameIndex { gates, nets }
    }

    fn gate(&self, name: &str) -> Option<GateId> {
        self.gates.get(name).copied().flatten()
    }

    fn net(&self, name: &str) -> Option<NetId> {
        self.nets.get(name).copied().flatten()
    }
}

/// Name-based variant of [`modification_present`] for suspects that are
/// *textually* derived from the base (written to Verilog and re-parsed):
/// arena ids no longer align, but instance and net names do. `base` is the
/// netlist the modification's ids refer to; `names` resolves the names
/// of its target and added nets in `suspect`.
///
/// Returns `None` when the suspect lacks the named target gate or net —
/// the caller treats that as a detection failure.
pub(crate) fn modification_present_by_name(
    base: &Netlist,
    suspect: &Netlist,
    names: &NameIndex<'_>,
    m: &Modification,
) -> Option<bool> {
    let target_name = base.gate(m.target()).name();
    let target = names.gate(target_name)?;
    for &net in m.added_nets() {
        let net_name = base.net(net).name();
        let suspect_net = names.net(net_name)?;
        if !literal_present(suspect, target, suspect_net, m.complemented()) {
            return Some(false);
        }
    }
    Some(true)
}

/// True if the modification can currently be applied to `netlist`:
/// a wide-enough cell exists, no added literal already feeds the target,
/// and no added net is the target's own output.
pub(crate) fn applicable(netlist: &Netlist, m: &Modification) -> bool {
    let target = m.target();
    widened_cell(netlist, target, m.added_nets().len()).is_some()
        && m.added_nets()
            .iter()
            .all(|&net| net_addable(netlist, target, net, m.complemented()))
}

/// The per-net half of [`applicable`]: `net` (complemented or not) may be
/// wired into `target` — the literal and the net are not already inputs
/// of it, and `net` is neither the target's output nor driven by it.
pub(crate) fn net_addable(netlist: &Netlist, target: GateId, net: NetId, complement: bool) -> bool {
    !(literal_present(netlist, target, net, complement)
        || netlist.gate(target).inputs().contains(&net)
        || netlist.gate_output(target) == net
        // A net the target drives would close a loop.
        || matches!(netlist.net(net).driver(), NetDriver::Gate(g) if g == target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;

    /// F = (A & B) & (C | D) — the paper's Figure 1 left circuit.
    fn fig1() -> (Netlist, GateId, NetId) {
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
        let yo = n.gate_output(y);
        let f = n.add_gate("gf", and2, &[n.gate_output(x), yo]);
        n.set_primary_output(n.gate_output(f));
        (n, x, yo)
    }

    fn functions_match(a: &Netlist, b: &Netlist, inputs: usize) {
        for i in 0..(1usize << inputs) {
            let bits: Vec<bool> = (0..inputs).map(|v| (i >> v) & 1 == 1).collect();
            assert_eq!(a.eval(&bits), b.eval(&bits), "assignment {i:b}");
        }
    }

    #[test]
    fn paper_fig1_insert_trigger() {
        let (base, gx, y_net) = fig1();
        let mut marked = base.clone();
        let m = Modification::InsertTrigger {
            target: gx,
            trigger: y_net,
            complement: false,
        };
        assert!(applicable(&marked, &m));
        apply_modification(&mut marked, &m).unwrap();
        functions_match(&base, &marked, 4);
        // gx widened from AND2 to AND3.
        assert_eq!(marked.gate(gx).inputs().len(), 3);
        assert_eq!(marked.num_gates(), base.num_gates());
    }

    #[test]
    fn complement_inserts_fresh_inverters() {
        // NOR primary: F = NOR(X, Y) with X = AND(A,B) in an FFC.
        // Trigger Y controlling value 1, non-controlling 0; AND-plane target
        // needs neutral 1, so the literal is Y' (complement).
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("norp", lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let y = n.add_primary_input("Y");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let nor2 = n.library().cell_for(PrimitiveFn::Nor, 2).unwrap();
        let gx = n.add_gate("gx", and2, &[a, b]);
        let gf = n.add_gate("gf", nor2, &[n.gate_output(gx), y]);
        n.set_primary_output(n.gate_output(gf));
        let base = n.clone();

        let m = Modification::InsertTrigger {
            target: gx,
            trigger: y,
            complement: true,
        };
        apply_modification(&mut n, &m).unwrap();
        functions_match(&base, &n, 3);
        assert_eq!(n.num_gates(), base.num_gates() + 1, "one inverter added");

        // A second complemented application mints its own inverter rather
        // than reusing the first: sharing inverters across modifications
        // can leak signal changes out of other locations' fanout-free
        // cones (see `complement_net`).
        let gates_after_first = n.num_gates();
        let m2 = Modification::InsertTrigger {
            target: gx,
            trigger: y,
            complement: true,
        };
        apply_modification(&mut n, &m2).unwrap();
        assert_eq!(n.num_gates(), gates_after_first + 1, "fresh inverter");
        functions_match(&base, &n, 3);
    }

    #[test]
    fn reroute_early_preserves_function() {
        // F = AND(X, Y), X = AND(A, B) (trigger gate), Y = OR(C, D) whose
        // FFC gate gy can take A' or B' per Figure 5.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("fig5", lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let gx = n.add_gate("gx", and2, &[a, b]);
        let gy = n.add_gate("gy", or2, &[c, d]);
        let gf = n.add_gate("gf", and2, &[n.gate_output(gx), n.gate_output(gy)]);
        n.set_primary_output(n.gate_output(gf));
        let base = n.clone();

        // Trigger X = AND(A,B); non-controlling X=1 implies A=B=1; OR-plane
        // target needs 0, so literals are complemented.
        for sources in [Sources::one(a), Sources::one(b), Sources::two(a, b)] {
            let mut copy = base.clone();
            let m = Modification::RerouteEarly {
                target: gy,
                sources,
                complement: true,
            };
            assert!(applicable(&copy, &m), "{sources:?}");
            apply_modification(&mut copy, &m).unwrap();
            functions_match(&base, &copy, 4);
        }
    }

    #[test]
    fn name_index_resolves_duplicate_names_to_the_first() {
        let (mut n, gx, _) = fig1();
        let (a, b) = (n.net_by_name("A").unwrap(), n.net_by_name("B").unwrap());
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        // A second gate named "gx" (its output net "gx_o" repeats too) and
        // a second net named "A".
        let dup = n.add_gate("gx", or2, &[a, b]);
        let dup_a = n.add_net("A");
        assert_eq!(n.net(n.gate_output(dup)).name(), "gx_o");
        let gate_names = ["gx", "gy", "gf", "nope"];
        let net_names = ["A", "B", "gx_o", "nope"];
        let names = NameIndex::new(&n, gate_names, net_names);
        for name in gate_names {
            assert_eq!(names.gate(name), n.gate_by_name(name), "{name}");
        }
        for name in net_names {
            assert_eq!(names.net(name), n.net_by_name(name), "{name}");
        }
        assert_eq!(names.gate("gx"), Some(gx));
        assert_eq!(names.net("gx_o"), Some(n.gate_output(gx)));
        assert_eq!(names.net("A"), Some(a));
        assert_ne!(names.net("A"), Some(dup_a));

        // Detection reads the first "gx": A·B·Y, not the decoy OR(A, B).
        let (base, _, y_net) = fig1();
        let m = Modification::InsertTrigger {
            target: gx,
            trigger: y_net,
            complement: false,
        };
        let wanted = |n: &Netlist| NameIndex::new(n, ["gx"], ["gy_o"]);
        assert_eq!(
            modification_present_by_name(&base, &n, &wanted(&n), &m),
            Some(false)
        );
        apply_modification(&mut n, &m).unwrap();
        assert_eq!(
            modification_present_by_name(&base, &n, &wanted(&n), &m),
            Some(true)
        );
    }

    #[test]
    fn inapplicable_cases() {
        let (n, gx, y_net) = fig1();
        // Trigger already an input of the target.
        let a = n.net_by_name("A").unwrap();
        let m = Modification::InsertTrigger {
            target: gx,
            trigger: a,
            complement: false,
        };
        assert!(!applicable(&n, &m));
        // Self output.
        let self_out = n.gate_output(gx);
        let m2 = Modification::InsertTrigger {
            target: gx,
            trigger: self_out,
            complement: false,
        };
        assert!(!applicable(&n, &m2));
        // Too many extra inputs for the library (AND max arity 4: adding 2
        // to a gate already widened to AND3 exceeds it, adding 1 does not).
        let mut widened = n.clone();
        let insert = Modification::InsertTrigger {
            target: gx,
            trigger: y_net,
            complement: false,
        };
        apply_modification(&mut widened, &insert).unwrap();
        let c = n.net_by_name("C").unwrap();
        let d = n.net_by_name("D").unwrap();
        let m3 = Modification::RerouteEarly {
            target: gx,
            sources: Sources::two(c, d),
            complement: false,
        };
        assert!(!applicable(&widened, &m3));
        let m4 = Modification::RerouteEarly {
            target: gx,
            sources: Sources::one(c),
            complement: false,
        };
        assert!(applicable(&widened, &m4));
    }

    #[test]
    fn complemented_literal_found_among_many_sinks() {
        // `a` fans out to 70 inverters; only the one feeding gx counts.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("wide", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        for i in 0..70 {
            let g = n.add_gate(format!("inv{i}"), inv, &[a]);
            n.set_primary_output(n.gate_output(g));
        }
        let gx = n.add_gate("gx", and2, &[b, b]);
        n.set_primary_output(n.gate_output(gx));
        assert!(n.net(a).sinks().len() >= 64);
        assert!(!literal_present(&n, gx, a, true));
        assert!(!literal_present(&n, gx, a, false));
        let m = Modification::InsertTrigger {
            target: gx,
            trigger: a,
            complement: true,
        };
        apply_modification(&mut n, &m).unwrap();
        assert!(literal_present(&n, gx, a, true));
        assert!(!literal_present(&n, gx, a, false));
        assert!(!literal_present(&n, gx, b, true));
        assert!(modification_present(&n, &m));
    }

    #[test]
    fn buf_and_inv_targets_widen_to_and_nand() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("si", lib);
        let a = n.add_primary_input("A");
        let y = n.add_primary_input("Y");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        // X = INV(A) feeds AND(X, Y): trigger Y (controlling 0), INV target
        // becomes NAND2(A, Y) — neutral 1 = non-controlling Y, regular form.
        let gx = n.add_gate("gx", inv, &[a]);
        let gf = n.add_gate("gf", and2, &[n.gate_output(gx), y]);
        n.set_primary_output(n.gate_output(gf));
        let base = n.clone();
        let m = Modification::InsertTrigger {
            target: gx,
            trigger: y,
            complement: false,
        };
        apply_modification(&mut n, &m).unwrap();
        functions_match(&base, &n, 2);
        assert_eq!(n.gate_fn(gx), PrimitiveFn::Nand);
    }

    #[test]
    fn error_on_unwidenable_gate() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("x", lib);
        let ins: Vec<NetId> = (0..4).map(|i| n.add_primary_input(format!("i{i}"))).collect();
        let y = n.add_primary_input("y");
        let and4 = n.library().cell_for(PrimitiveFn::And, 4).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let gx = n.add_gate("gx", and4, &ins);
        let gf = n.add_gate("gf", and2, &[n.gate_output(gx), y]);
        n.set_primary_output(n.gate_output(gf));
        let m = Modification::InsertTrigger {
            target: gx,
            trigger: y,
            complement: false,
        };
        assert!(!applicable(&n, &m));
        assert!(matches!(
            apply_modification(&mut n, &m),
            Err(FingerprintError::CannotApply { .. })
        ));
    }
}
