//! Fanout-free cone (FFC) computation.
//!
//! Definition 1 of the paper requires the primary gate to have "at least one
//! input which is the output signal of a fanout free cone (FFC), which means
//! that this signal only goes into the primary gate". The *maximum* FFC
//! rooted at a gate `r` is the largest set of gates containing `r` such that
//! every gate in the set other than `r` fans out only to gates inside the
//! set. Changes confined to an FFC are invisible everywhere except through
//! the root's output — criterion 2's safety property.
//!
//! These are the straightforward per-query reference implementations; the
//! batched, precomputed equivalents live in [`crate::engine`], which the
//! hot paths use. Property tests assert the two agree.

use odcfp_netlist::{GateId, NetDriver, Netlist};

/// Computes the maximum fanout-free cone rooted at `root`, returned in
/// topological order ending with `root`.
///
/// The root is always a member. A fanin gate joins the cone iff its output
/// is not a primary output and *all* of its sinks are already in the cone.
///
/// # Panics
///
/// Panics if the netlist is cyclic (validate first).
///
/// # Example
///
/// ```
/// use odcfp_netlist::{CellLibrary, Netlist};
/// use odcfp_logic::PrimitiveFn;
/// use odcfp_analysis::cones::ffc_of;
///
/// // a, b -> AND(g1); g1, c -> AND(g2). g1 feeds only g2, so FFC(g2) = {g1, g2}.
/// let lib = CellLibrary::standard();
/// let mut n = Netlist::new("ffc", lib);
/// let a = n.add_primary_input("a");
/// let b = n.add_primary_input("b");
/// let c = n.add_primary_input("c");
/// let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
/// let g1 = n.add_gate("g1", and2, &[a, b]);
/// let g2 = n.add_gate("g2", and2, &[n.gate_output(g1), c]);
/// n.set_primary_output(n.gate_output(g2));
/// assert_eq!(ffc_of(&n, g2), vec![g1, g2]);
/// ```
pub fn ffc_of(netlist: &Netlist, root: GateId) -> Vec<GateId> {
    // Work over the transitive fanin of `root` in reverse topological order:
    // a gate's membership only depends on gates closer to the root.
    let order = netlist.topo_order().expect("cyclic netlist");
    let mut in_fanin = vec![false; netlist.num_gates()];
    for g in transitive_fanin(netlist, root) {
        in_fanin[g.index()] = true;
    }
    let mut member = vec![false; netlist.num_gates()];
    member[root.index()] = true;
    let mut cone: Vec<GateId> = vec![root];
    for &g in order.iter().rev() {
        if g == root || !in_fanin[g.index()] {
            continue;
        }
        let out = netlist.net(netlist.gate(g).output());
        if out.is_primary_output() {
            continue;
        }
        let all_inside = out.sinks().iter().all(|p| member[p.gate.index()]);
        if all_inside && out.fanout() > 0 {
            member[g.index()] = true;
            cone.push(g);
        }
    }
    cone.reverse();
    cone
}

/// The gates in the transitive fanin of `root`, including `root`, ascending
/// by gate id.
pub fn transitive_fanin(netlist: &Netlist, root: GateId) -> Vec<GateId> {
    let mut seen = vec![false; netlist.num_gates()];
    seen[root.index()] = true;
    let mut out = vec![root];
    let mut head = 0;
    while head < out.len() {
        let g = out[head];
        head += 1;
        for &i in netlist.gate(g).inputs() {
            if let NetDriver::Gate(src) = netlist.net(i).driver() {
                if !seen[src.index()] {
                    seen[src.index()] = true;
                    out.push(src);
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// True if the gate's output feeds exactly one gate input and is not a
/// primary output — the "only goes into the primary gate" condition of
/// Definition 1, criterion 2.
pub fn feeds_only(netlist: &Netlist, gate: GateId, primary: GateId) -> bool {
    let out = netlist.net(netlist.gate(gate).output());
    !out.is_primary_output() && out.sinks().len() == 1 && out.sinks()[0].gate == primary
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    /// Builds:
    ///   g1 = AND(a, b)       (feeds g2 only)
    ///   g2 = AND(g1, c)      (feeds g4 only)
    ///   g3 = OR(c, d)        (feeds g4 AND is a PO -> not in any FFC)
    ///   g4 = AND(g2, g3)     (root)
    fn diamond() -> (Netlist, [GateId; 4]) {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("d", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let d = n.add_primary_input("d");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, b]);
        let g2 = n.add_gate("g2", and2, &[n.gate_output(g1), c]);
        let g3 = n.add_gate("g3", or2, &[c, d]);
        let g4 = n.add_gate("g4", and2, &[n.gate_output(g2), n.gate_output(g3)]);
        n.set_primary_output(n.gate_output(g4));
        n.set_primary_output(n.gate_output(g3));
        (n, [g1, g2, g3, g4])
    }

    #[test]
    fn ffc_excludes_po_gates() {
        let (n, [g1, g2, g3, g4]) = diamond();
        let cone = ffc_of(&n, g4);
        assert!(cone.contains(&g1));
        assert!(cone.contains(&g2));
        assert!(cone.contains(&g4));
        assert!(!cone.contains(&g3), "PO gate must stay out of the cone");
        assert_eq!(*cone.last().unwrap(), g4, "root last in topo order");
    }

    #[test]
    fn ffc_of_leaf_is_self() {
        let (n, [g1, ..]) = diamond();
        assert_eq!(ffc_of(&n, g1), vec![g1]);
    }

    #[test]
    fn shared_fanout_blocks_membership() {
        // g1 feeds both g2 and g3 -> g1 not in FFC(g2).
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("s", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, b]);
        let g2 = n.add_gate("g2", inv, &[n.gate_output(g1)]);
        let g3 = n.add_gate("g3", inv, &[n.gate_output(g1)]);
        n.set_primary_output(n.gate_output(g2));
        n.set_primary_output(n.gate_output(g3));
        assert_eq!(ffc_of(&n, g2), vec![g2]);
        assert_eq!(ffc_of(&n, g3), vec![g3]);
    }

    #[test]
    fn chain_cone_is_whole_chain() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("c", lib);
        let a = n.add_primary_input("a");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let mut cur = a;
        let mut ids = Vec::new();
        for i in 0..5 {
            let g = n.add_gate(format!("i{i}"), inv, &[cur]);
            ids.push(g);
            cur = n.gate_output(g);
        }
        n.set_primary_output(cur);
        let cone = ffc_of(&n, ids[4]);
        assert_eq!(cone, ids);
    }

    #[test]
    fn transitive_fanin_contents() {
        let (n, [g1, g2, g3, g4]) = diamond();
        let fi = transitive_fanin(&n, g4);
        assert_eq!(fi.len(), 4);
        for g in [g1, g2, g3, g4] {
            assert!(fi.contains(&g));
        }
        let fi2 = transitive_fanin(&n, g2);
        assert!(fi2.contains(&g1) && fi2.contains(&g2) && !fi2.contains(&g3));
    }

    #[test]
    fn feeds_only_checks() {
        let (n, [g1, g2, g3, g4]) = diamond();
        assert!(feeds_only(&n, g1, g2));
        assert!(!feeds_only(&n, g1, g4));
        assert!(!feeds_only(&n, g3, g4), "PO net fails the condition");
        assert!(feeds_only(&n, g2, g4));
    }
}
