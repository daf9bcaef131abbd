//! Post-mapping netlist cleanup: constant folding and dead-logic removal.
//!
//! Two places in the flow produce netlists with embedded constants: BLIF
//! models with constant nodes, and post-silicon fuse programming
//! (`FlexibleDesign::program` in `odcfp-core`'s `silicon` module ties fuse nets to
//! 0/1). This pass propagates those constants through the logic
//! (controlling values annihilate gates; neutral values drop pins) and
//! removes everything no primary output observes, producing the netlist a
//! production flow would actually tape out.

use std::collections::HashMap;

use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetDriver, NetId, Netlist};

/// Statistics of one [`optimize`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Gates whose output folded to a constant.
    pub gates_folded: usize,
    /// Constant input pins removed from surviving gates.
    pub pins_pruned: usize,
    /// Gates removed because no primary output observes them.
    pub dead_gates_removed: usize,
}

/// The signal classes the folding pass tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Const(bool),
    /// A live signal, represented by a net in the output netlist.
    Net(NetId),
}

/// Folds constants and sweeps unobservable logic, returning the cleaned
/// netlist and what was removed.
///
/// Semantic guarantee: the result computes the same primary-output
/// functions as the input (covered by SAT-based tests). Primary inputs and
/// outputs are preserved in order and by name, including inputs that end
/// up unused.
///
/// # Panics
///
/// Panics if the netlist is invalid (validate first).
pub fn optimize(netlist: &Netlist) -> (Netlist, OptStats) {
    let order = netlist.topo_order().expect("validated netlist");
    let mut out = Netlist::new(netlist.name(), netlist.library().clone());
    let mut stats = OptStats::default();

    // Pass 1: fold, building gates lazily only when live.
    let mut values: HashMap<NetId, Value> = HashMap::new();
    for (id, net) in netlist.nets() {
        match net.driver() {
            NetDriver::PrimaryInput => {
                let new = out.add_primary_input(net.name());
                values.insert(id, Value::Net(new));
            }
            NetDriver::Const(v) => {
                values.insert(id, Value::Const(v));
            }
            _ => {}
        }
    }

    for g in order {
        let gate = netlist.gate(g);
        let f = netlist.gate_fn(g);
        let ins: Vec<Value> = gate
            .inputs()
            .iter()
            .map(|i| *values.get(i).expect("topological order"))
            .collect();
        let folded = fold_gate(&mut out, gate.name(), f, &ins, &mut stats);
        values.insert(gate.output(), folded);
    }

    // Primary outputs: materialize constants as constant nets; keep names.
    for &po in netlist.primary_outputs() {
        let name = netlist.net(po).name();
        let id = match values[&po] {
            Value::Const(v) => out.add_constant(name, v),
            Value::Net(n) => n,
        };
        out.set_primary_output(id);
    }

    // Pass 2: drop gates that drive nothing observable. `out` was built
    // lazily, but fanout-free chains can remain; rebuild keeping only the
    // observed cone.
    let (swept, dead) = sweep_dead(&out);
    stats.dead_gates_removed = dead;
    swept.validate().expect("optimizer output is valid");
    (swept, stats)
}

/// Simplifies one gate given folded input values; emits a gate into `out`
/// only when the result stays symbolic.
fn fold_gate(
    out: &mut Netlist,
    name: &str,
    f: PrimitiveFn,
    ins: &[Value],
    stats: &mut OptStats,
) -> Value {
    // Controlling constant ⇒ constant output.
    if let (Some(c), Some(o)) = (f.controlling_value(), f.controlled_output()) {
        if ins.contains(&Value::Const(c)) {
            stats.gates_folded += 1;
            return Value::Const(o);
        }
    }
    // Partition: XOR-family folds constants into an output inversion;
    // AND/OR-family drops neutral constants.
    match f {
        PrimitiveFn::Buf | PrimitiveFn::Inv => match ins[0] {
            Value::Const(v) => {
                stats.gates_folded += 1;
                Value::Const(v != matches!(f, PrimitiveFn::Inv))
            }
            Value::Net(n) => emit(out, name, f, &[n]),
        },
        PrimitiveFn::Xor | PrimitiveFn::Xnor => {
            let mut invert = matches!(f, PrimitiveFn::Xnor);
            let mut live: Vec<NetId> = Vec::new();
            for v in ins {
                match v {
                    Value::Const(true) => invert = !invert,
                    Value::Const(false) => {}
                    Value::Net(n) => live.push(*n),
                }
            }
            if live.len() < ins.len() {
                stats.pins_pruned += ins.len() - live.len();
            }
            match live.len() {
                0 => {
                    stats.gates_folded += 1;
                    Value::Const(invert)
                }
                1 => {
                    let f1 = if invert {
                        PrimitiveFn::Inv
                    } else {
                        PrimitiveFn::Buf
                    };
                    emit(out, name, f1, &live)
                }
                _ => {
                    let fx = if invert {
                        PrimitiveFn::Xnor
                    } else {
                        PrimitiveFn::Xor
                    };
                    emit(out, name, fx, &live)
                }
            }
        }
        PrimitiveFn::And | PrimitiveFn::Or | PrimitiveFn::Nand | PrimitiveFn::Nor => {
            let neutral = f.neutral_input_value().expect("plane functions");
            let inverting = f.is_inverting();
            let live: Vec<NetId> = ins
                .iter()
                .filter_map(|v| match v {
                    Value::Const(c) => {
                        debug_assert_eq!(*c, neutral, "controlling handled above");
                        None
                    }
                    Value::Net(n) => Some(*n),
                })
                .collect();
            if live.len() < ins.len() {
                stats.pins_pruned += ins.len() - live.len();
            }
            match live.len() {
                0 => {
                    // All-neutral inputs: AND()≡1, OR()≡0, inverted forms flip.
                    stats.gates_folded += 1;
                    let base = matches!(f, PrimitiveFn::And | PrimitiveFn::Nand);
                    Value::Const(base != inverting)
                }
                1 => {
                    let f1 = if inverting {
                        PrimitiveFn::Inv
                    } else {
                        PrimitiveFn::Buf
                    };
                    emit(out, name, f1, &live)
                }
                _ => emit(out, name, f, &live),
            }
        }
    }
}

fn emit(out: &mut Netlist, name: &str, f: PrimitiveFn, ins: &[NetId]) -> Value {
    let cell = out
        .library()
        .cell_for(f, ins.len())
        .unwrap_or_else(|| panic!("library lacks {f} at arity {}", ins.len()));
    let g = out.add_gate(name, cell, ins);
    Value::Net(out.gate_output(g))
}

/// Rebuilds `netlist` keeping only gates in the transitive fanin of a
/// primary output; returns the swept netlist and the dead-gate count.
fn sweep_dead(netlist: &Netlist) -> (Netlist, usize) {
    let mut live = vec![false; netlist.num_gates()];
    let mut stack: Vec<GateId> = netlist
        .primary_outputs()
        .iter()
        .filter_map(|&po| match netlist.net(po).driver() {
            NetDriver::Gate(g) => Some(g),
            _ => None,
        })
        .collect();
    while let Some(g) = stack.pop() {
        if live[g.index()] {
            continue;
        }
        live[g.index()] = true;
        for &i in netlist.gate(g).inputs() {
            if let NetDriver::Gate(src) = netlist.net(i).driver() {
                stack.push(src);
            }
        }
    }
    let dead = live.iter().filter(|&&l| !l).count();
    if dead == 0 {
        return (netlist.clone(), 0);
    }
    let mut out = Netlist::new(netlist.name(), netlist.library().clone());
    let mut net_map: HashMap<NetId, NetId> = HashMap::new();
    for (id, net) in netlist.nets() {
        match net.driver() {
            NetDriver::PrimaryInput => {
                net_map.insert(id, out.add_primary_input(net.name()));
            }
            NetDriver::Const(v) => {
                net_map.insert(id, out.add_constant(net.name(), v));
            }
            NetDriver::Gate(g) if live[g.index()] => {
                net_map.insert(id, out.add_net(net.name()));
            }
            _ => {}
        }
    }
    for (g, gate) in netlist.gates() {
        if !live[g.index()] {
            continue;
        }
        let ins: Vec<NetId> = gate.inputs().iter().map(|i| net_map[i]).collect();
        out.add_gate_driving(gate.name(), gate.cell(), &ins, net_map[&gate.output()]);
    }
    for &po in netlist.primary_outputs() {
        out.set_primary_output(net_map[&po]);
    }
    (out, dead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_sat::{check_equivalence, EquivResult};

    fn lib() -> std::sync::Arc<CellLibrary> {
        CellLibrary::standard()
    }

    #[test]
    fn controlling_constants_annihilate() {
        let mut n = Netlist::new("ctl", lib());
        let a = n.add_primary_input("a");
        let zero = n.add_constant("zero", false);
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let g = n.add_gate("g", and2, &[a, zero]);
        let h = n.add_gate("h", inv, &[n.gate_output(g)]);
        n.set_primary_output(n.gate_output(h));
        let (opt, stats) = optimize(&n);
        assert_eq!(opt.num_gates(), 0, "everything folds to constant 1");
        assert_eq!(stats.gates_folded, 2);
        assert_eq!(opt.eval(&[false]), vec![true]);
        assert_eq!(opt.eval(&[true]), vec![true]);
    }

    #[test]
    fn neutral_constants_prune_pins() {
        let mut n = Netlist::new("neu", lib());
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let one = n.add_constant("one", true);
        let and3 = n.library().cell_for(PrimitiveFn::And, 3).unwrap();
        let g = n.add_gate("g", and3, &[a, b, one]);
        n.set_primary_output(n.gate_output(g));
        let (opt, stats) = optimize(&n);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(stats.pins_pruned, 1);
        assert_eq!(opt.gate_fn(GateId::from_index(0)), PrimitiveFn::And);
        assert_eq!(
            opt.gate(GateId::from_index(0)).inputs().len(),
            2,
            "AND3 narrowed to AND2"
        );
        for i in 0..4usize {
            let bits = vec![i & 1 == 1, i & 2 == 2];
            assert_eq!(opt.eval(&bits), n.eval(&bits));
        }
    }

    #[test]
    fn xor_constants_fold_to_inversion() {
        let mut n = Netlist::new("xf", lib());
        let a = n.add_primary_input("a");
        let one = n.add_constant("one", true);
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let g = n.add_gate("g", xor2, &[a, one]);
        n.set_primary_output(n.gate_output(g));
        let (opt, _) = optimize(&n);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(opt.gate_fn(GateId::from_index(0)), PrimitiveFn::Inv);
        assert_eq!(opt.eval(&[true]), vec![false]);
    }

    #[test]
    fn single_live_pin_on_inverting_plane_becomes_inv() {
        let mut n = Netlist::new("ni", lib());
        let a = n.add_primary_input("a");
        let one = n.add_constant("one", true);
        let nand2 = n.library().cell_for(PrimitiveFn::Nand, 2).unwrap();
        let g = n.add_gate("g", nand2, &[a, one]);
        n.set_primary_output(n.gate_output(g));
        let (opt, _) = optimize(&n);
        assert_eq!(opt.gate_fn(GateId::from_index(0)), PrimitiveFn::Inv);
        assert_eq!(opt.eval(&[true]), vec![false]);
        assert_eq!(opt.eval(&[false]), vec![true]);
    }

    #[test]
    fn dead_logic_swept() {
        let mut n = Netlist::new("dead", lib());
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let keep = n.add_gate("keep", and2, &[a, b]);
        let _dead = n.add_gate("dead", or2, &[a, b]);
        n.set_primary_output(n.gate_output(keep));
        let (opt, stats) = optimize(&n);
        assert_eq!(opt.num_gates(), 1);
        assert_eq!(stats.dead_gates_removed, 1);
        assert!(opt.gate_by_name("keep").is_some());
        assert!(opt.gate_by_name("dead").is_none());
    }

    #[test]
    fn constant_primary_output_materialized() {
        let mut n = Netlist::new("cpo", lib());
        let _a = n.add_primary_input("a");
        let zero = n.add_constant("z", false);
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let g = n.add_gate("g", inv, &[zero]);
        n.set_primary_output(n.gate_output(g));
        let (opt, _) = optimize(&n);
        assert_eq!(opt.num_gates(), 0);
        assert_eq!(opt.eval(&[true]), vec![true]);
    }

    #[test]
    fn programmed_fuse_netlist_shrinks_back_to_embedded_size() {
        // The flagship use: program the flexible design's fuses, optimize,
        // and land near the plain embedded netlist — while staying
        // SAT-equivalent.
        use odcfp_core::{Fingerprinter, FlexibleDesign};
        use odcfp_synth_test_helpers::small_dag;
        let base = small_dag(77);
        let fp = Fingerprinter::new(base).unwrap();
        let flexible = FlexibleDesign::build(&fp).unwrap();
        let bits: Vec<bool> = (0..fp.locations().len()).map(|i| i % 2 == 0).collect();
        let programmed = flexible.program(&bits).unwrap();
        let embedded = fp.embed(&bits).unwrap();
        let (opt, stats) = optimize(&programmed);
        assert!(stats.gates_folded > 0, "fuse gates must fold");
        assert_eq!(
            check_equivalence(&opt, embedded.netlist(), None).unwrap(),
            EquivResult::Equivalent
        );
        // Within a few gates of the direct embedding (inverter sharing
        // differs slightly).
        let diff = opt.num_gates().abs_diff(embedded.netlist().num_gates());
        assert!(
            diff <= fp.locations().len(),
            "optimized {} vs embedded {}",
            opt.num_gates(),
            embedded.netlist().num_gates()
        );
    }

    #[test]
    fn random_circuits_stay_equivalent_after_optimize() {
        use odcfp_synth_test_helpers::small_dag_with_constants;
        for seed in 0..8u64 {
            let n = small_dag_with_constants(seed);
            let (opt, _) = optimize(&n);
            assert_eq!(
                check_equivalence(&n, &opt, None).unwrap(),
                EquivResult::Equivalent,
                "seed {seed}"
            );
            assert!(opt.num_gates() <= n.num_gates());
        }
    }
}

/// Small helpers shared by the optimizer tests (kept out of the public
/// API).
#[cfg(test)]
mod odcfp_synth_test_helpers {
    use odcfp_logic::rng::Xoshiro256;
    use odcfp_netlist::{CellLibrary, Netlist};

    pub fn small_dag(seed: u64) -> Netlist {
        crate::benchmarks::random::random_dag(
            CellLibrary::standard(),
            crate::benchmarks::random::DagParams {
                inputs: 8,
                gates: 60,
                outputs: 6,
                window: 16,
                seed,
            },
        )
    }

    /// A random DAG with constant nets spliced into some gate inputs.
    pub fn small_dag_with_constants(seed: u64) -> Netlist {
        use odcfp_logic::PrimitiveFn;
        let lib = CellLibrary::standard();
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC0);
        let mut n = Netlist::new("cmix", lib);
        let mut signals: Vec<_> = (0..6)
            .map(|i| n.add_primary_input(format!("x{i}")))
            .collect();
        signals.push(n.add_constant("c0", false));
        signals.push(n.add_constant("c1", true));
        for k in 0..40 {
            let f = *rng
                .choose(&[
                    PrimitiveFn::And,
                    PrimitiveFn::Or,
                    PrimitiveFn::Nand,
                    PrimitiveFn::Nor,
                    PrimitiveFn::Xor,
                ])
                .unwrap();
            let a = signals[rng.next_below(signals.len())];
            let mut bsig = signals[rng.next_below(signals.len())];
            let mut tries = 0;
            while bsig == a && tries < 4 {
                bsig = signals[rng.next_below(signals.len())];
                tries += 1;
            }
            if bsig == a {
                continue;
            }
            let cell = n.library().cell_for(f, 2).unwrap();
            let g = n.add_gate(format!("g{k}"), cell, &[a, bsig]);
            signals.push(n.gate_output(g));
        }
        for s in signals.iter().rev().take(5) {
            n.set_primary_output(*s);
        }
        n
    }
}
