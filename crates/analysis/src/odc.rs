//! Local Observability Don't Care analysis of library gates.
//!
//! Equation (1) of the paper defines the ODC of an input `x` of a function
//! `F` as `ODC_x = (∂F/∂x)'`. For the standard-cell functions this has a
//! simple closed form: an input of an AND/NAND (resp. OR/NOR) gate is
//! unobservable exactly when some *other* input carries the controlling
//! value 0 (resp. 1). XOR-family gates have empty ODCs — every input is
//! always observable — and single-input gates trivially so.
//!
//! This module provides both views: the closed-form *trigger candidates*
//! used by the fingerprint-location search, and the exact truth-table ODC
//! used to cross-validate them.

use odcfp_logic::{PrimitiveFn, TruthTable};
use odcfp_netlist::{GateId, Netlist};

/// One way to activate the ODC of a target pin: drive `pin` to `value`.
///
/// In the paper's terms, the signal on `pin` is an **ODC trigger signal**
/// (Definition 2) for the target pin, active at `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TriggerCandidate {
    /// The pin carrying the trigger signal.
    pub pin: usize,
    /// The controlling value that activates the ODC.
    pub value: bool,
}

/// The trigger candidates that make `target_pin` of an `arity`-input gate
/// with function `f` unobservable.
///
/// Empty when the gate has no controlling value (XOR/XNOR/BUF/INV) or only
/// one input.
pub fn trigger_candidates(
    f: PrimitiveFn,
    arity: usize,
    target_pin: usize,
) -> Vec<TriggerCandidate> {
    let mut out = Vec::new();
    trigger_candidates_into(f, arity, target_pin, &mut out);
    out
}

/// [`trigger_candidates`] into a caller-owned buffer (cleared first), for
/// hot loops that probe every pin of every gate.
pub fn trigger_candidates_into(
    f: PrimitiveFn,
    arity: usize,
    target_pin: usize,
    out: &mut Vec<TriggerCandidate>,
) {
    assert!(target_pin < arity, "pin out of range");
    out.clear();
    if let Some(value) = f.controlling_value() {
        if arity >= 2 {
            out.extend(
                (0..arity)
                    .filter(|&p| p != target_pin)
                    .map(|pin| TriggerCandidate { pin, value }),
            );
        }
    }
}

/// The exact ODC condition of `target_pin` as a truth table over the gate's
/// `arity` inputs (equation (1) applied to the cell function).
pub fn local_odc(f: PrimitiveFn, arity: usize, target_pin: usize) -> TruthTable {
    f.truth_table(arity).odc(target_pin)
}

/// True if this gate instance can *create* ODCs, i.e. it has a controlling
/// value and at least two inputs — the paper's "Table I" gate set.
pub fn is_odc_gate(netlist: &Netlist, gate: GateId) -> bool {
    let g = netlist.gate(gate);
    let cell = netlist.library().cell(g.cell());
    cell.function().has_nonzero_odc(cell.arity())
}

/// True if this gate is a single-input gate (BUF/INV) — eligible for
/// modification inside an FFC under Definition 1, criterion 3.
pub fn is_single_input_gate(netlist: &Netlist, gate: GateId) -> bool {
    netlist.gate_fn(gate).is_single_input()
}

/// Simulation-measured observability of a net: the fraction of
/// `num_words * 64` seeded random input vectors on which *toggling the
/// net's value* changes at least one primary output.
///
/// This is the global ground truth the local (per-gate) ODC conditions
/// approximate: `1 - observability` is the measured don't-care density.
/// Used to cross-validate the closed-form trigger conditions and to study
/// how much observability the local window analysis leaves on the table.
///
/// # Panics
///
/// Panics if the netlist is invalid or `num_words == 0`.
pub fn simulated_observability(
    netlist: &Netlist,
    net: odcfp_netlist::NetId,
    num_words: usize,
    seed: u64,
) -> f64 {
    simulated_observability_many(netlist, &[net], num_words, seed)[0]
}

/// Batched [`simulated_observability`]: one result per entry of `nets`, in
/// order. The random patterns, baseline simulation, and topological order
/// are computed once and shared; the per-net flip propagation fans out
/// across [`engine::configured_threads`](crate::engine::configured_threads)
/// workers with a deterministic merge, so each entry is bit-identical to
/// the corresponding standalone call at any thread count.
///
/// # Panics
///
/// Panics if the netlist is invalid or `num_words == 0`.
pub fn simulated_observability_many(
    netlist: &Netlist,
    nets: &[odcfp_netlist::NetId],
    num_words: usize,
    seed: u64,
) -> Vec<f64> {
    use odcfp_logic::rng::Xoshiro256;
    use odcfp_logic::sim;

    assert!(num_words > 0, "at least one pattern word required");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let patterns: Vec<Vec<u64>> = (0..netlist.primary_inputs().len())
        .map(|_| sim::random_words(&mut rng, num_words))
        .collect();
    let baseline = netlist.simulate(&patterns);
    let order = netlist.topo_order().expect("validated netlist");

    let threads = crate::engine::configured_threads();
    let chunks = crate::engine::parallel_chunks(nets.len(), threads, |range| {
        range
            .map(|i| observability_of_flip(netlist, &order, &baseline, nets[i], num_words))
            .collect::<Vec<f64>>()
    });
    chunks.into_iter().flatten().collect()
}

/// Propagates a flip of `net` through the downstream cone and returns the
/// fraction of pattern bits on which some primary output differs.
fn observability_of_flip(
    netlist: &Netlist,
    order: &[odcfp_netlist::GateId],
    baseline: &[Vec<u64>],
    net: odcfp_netlist::NetId,
    num_words: usize,
) -> f64 {
    // Re-simulate the downstream cone with the net's value flipped: walk
    // gates in topological order, recomputing only values that can change.
    let mut flipped: Vec<Vec<u64>> = baseline.to_vec();
    for word in &mut flipped[net.index()] {
        *word = !*word;
    }
    let mut dirty = vec![false; netlist.num_nets()];
    dirty[net.index()] = true;
    let mut scratch: Vec<u64> = Vec::new();
    for &g in order {
        let gate = netlist.gate(g);
        if !gate.inputs().iter().any(|i| dirty[i.index()]) {
            continue;
        }
        // The driver of the observed net keeps driving its original value
        // in the baseline; the flip is injected *at the net*, so the
        // net's own driver output must not be recomputed.
        if gate.output() == net {
            continue;
        }
        let f = netlist.library().cell(gate.cell()).function();
        let out = gate.output().index();
        let mut changed = false;
        #[allow(clippy::needless_range_loop)] // flipped is indexed on two axes
        for w in 0..num_words {
            scratch.clear();
            scratch.extend(gate.inputs().iter().map(|i| flipped[i.index()][w]));
            let v = f.eval_words(&scratch);
            if v != flipped[out][w] {
                changed = true;
            }
            flipped[out][w] = v;
        }
        if changed {
            dirty[out] = true;
        }
    }

    let mut observable = 0u64;
    let mut any = vec![0u64; num_words];
    for &po in netlist.primary_outputs() {
        for w in 0..num_words {
            any[w] |= baseline[po.index()][w] ^ flipped[po.index()][w];
        }
    }
    for w in any {
        observable += u64::from(w.count_ones());
    }
    observable as f64 / (num_words * 64) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_match_truth_table_odc() {
        // For every library-style function/arity/pin, the union over
        // candidates of "pin == value" must equal the exact ODC.
        for f in [
            PrimitiveFn::And,
            PrimitiveFn::Or,
            PrimitiveFn::Nand,
            PrimitiveFn::Nor,
            PrimitiveFn::Xor,
            PrimitiveFn::Xnor,
        ] {
            for arity in 2..=4usize {
                if matches!(f, PrimitiveFn::Xor | PrimitiveFn::Xnor) && arity > 2 {
                    continue;
                }
                for pin in 0..arity {
                    let exact = local_odc(f, arity, pin);
                    let cands = trigger_candidates(f, arity, pin);
                    let mut union = TruthTable::zero(arity);
                    for c in &cands {
                        let v = TruthTable::var(c.pin, arity);
                        let cond = if c.value { v } else { !&v };
                        union = &union | &cond;
                    }
                    assert_eq!(union, exact, "{f} arity {arity} pin {pin}");
                }
            }
        }
    }

    #[test]
    fn xor_has_no_candidates() {
        assert!(trigger_candidates(PrimitiveFn::Xor, 2, 0).is_empty());
        assert!(trigger_candidates(PrimitiveFn::Xnor, 2, 1).is_empty());
    }

    #[test]
    fn and3_candidates() {
        let c = trigger_candidates(PrimitiveFn::And, 3, 1);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&TriggerCandidate {
            pin: 0,
            value: false
        }));
        assert!(c.contains(&TriggerCandidate {
            pin: 2,
            value: false
        }));
    }

    #[test]
    fn nor_candidates_use_one() {
        let c = trigger_candidates(PrimitiveFn::Nor, 2, 0);
        assert_eq!(
            c,
            vec![TriggerCandidate {
                pin: 1,
                value: true
            }]
        );
    }

    #[test]
    fn simulated_observability_matches_local_odc_on_single_gate() {
        use odcfp_netlist::CellLibrary;
        // F = AND(x, y): x is observable exactly when y = 1, i.e. on half
        // the random vectors.
        let lib = CellLibrary::standard();
        let mut n = odcfp_netlist::Netlist::new("obs", lib);
        let x = n.add_primary_input("x");
        let y = n.add_primary_input("y");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g = n.add_gate("g", and2, &[x, y]);
        n.set_primary_output(n.gate_output(g));
        let obs = simulated_observability(&n, x, 64, 7);
        assert!((obs - 0.5).abs() < 0.05, "got {obs}");
        // The output net itself is always observable.
        let out = n.gate_output(g);
        assert_eq!(simulated_observability(&n, out, 16, 7), 1.0);
    }

    #[test]
    fn xor_chain_fully_observable() {
        use odcfp_netlist::CellLibrary;
        let lib = CellLibrary::standard();
        let mut n = odcfp_netlist::Netlist::new("xc", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let g1 = n.add_gate("g1", xor2, &[a, b]);
        let g2 = n.add_gate("g2", xor2, &[n.gate_output(g1), c]);
        n.set_primary_output(n.gate_output(g2));
        for net in [a, b, c, n.gate_output(g1)] {
            assert_eq!(simulated_observability(&n, net, 8, 3), 1.0);
        }
    }

    #[test]
    fn deeply_blocked_net_has_low_observability() {
        use odcfp_netlist::CellLibrary;
        // x blocked behind two AND stages: observable only when y=z=1
        // (a quarter of vectors).
        let lib = CellLibrary::standard();
        let mut n = odcfp_netlist::Netlist::new("blk", lib);
        let x = n.add_primary_input("x");
        let y = n.add_primary_input("y");
        let z = n.add_primary_input("z");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g1 = n.add_gate("g1", and2, &[x, y]);
        let g2 = n.add_gate("g2", and2, &[n.gate_output(g1), z]);
        n.set_primary_output(n.gate_output(g2));
        let obs = simulated_observability(&n, x, 64, 11);
        assert!((obs - 0.25).abs() < 0.05, "got {obs}");
    }

    #[test]
    fn gate_classification() {
        use odcfp_netlist::CellLibrary;
        let lib = CellLibrary::standard();
        let mut n = odcfp_netlist::Netlist::new("t", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let g_and = n.add_gate("ga", and2, &[a, b]);
        let g_xor = n.add_gate("gx", xor2, &[a, b]);
        let g_inv = n.add_gate("gi", inv, &[a]);
        n.set_primary_output(n.gate_output(g_and));
        n.set_primary_output(n.gate_output(g_xor));
        n.set_primary_output(n.gate_output(g_inv));
        assert!(is_odc_gate(&n, g_and));
        assert!(!is_odc_gate(&n, g_xor));
        assert!(!is_odc_gate(&n, g_inv));
        assert!(is_single_input_gate(&n, g_inv));
        assert!(!is_single_input_gate(&n, g_and));
    }
}
