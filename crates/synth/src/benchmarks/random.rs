//! Seeded random-DAG circuits (the `i10` row and general-purpose test
//! fodder for the fingerprinting pipeline).

use std::sync::Arc;

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{CellLibrary, NetId, Netlist};

use crate::builder::CircuitBuilder;

/// Parameters of [`random_dag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagParams {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of gates to generate.
    pub gates: usize,
    /// Number of explicitly chosen primary outputs (all dangling gate
    /// outputs additionally become outputs so nothing is unobservable).
    pub outputs: usize,
    /// Fanin locality window: inputs are drawn from the most recent
    /// `window` signals, which controls circuit depth.
    pub window: usize,
    /// Generator seed.
    pub seed: u64,
}

impl DagParams {
    /// Profile for the MCNC `i10` row (paper: 1600 gates).
    pub fn i10_like() -> Self {
        DagParams {
            inputs: 257,
            gates: 1600,
            outputs: 224,
            window: 180,
            seed: 0x0110,
        }
    }

    /// A small profile convenient for tests.
    pub fn small(seed: u64) -> Self {
        DagParams {
            inputs: 8,
            gates: 60,
            outputs: 6,
            window: 20,
            seed,
        }
    }
}

/// Weighted gate-function mix modelled on mapped MCNC circuits: NAND/NOR
/// heavy, with AND/OR, sparse XOR and inverters.
fn pick_function(rng: &mut Xoshiro256) -> (PrimitiveFn, usize) {
    match rng.next_below(100) {
        0..=29 => (PrimitiveFn::Nand, 2 + rng.next_below(3)),
        30..=49 => (PrimitiveFn::Nor, 2 + rng.next_below(2)),
        50..=64 => (PrimitiveFn::And, 2 + rng.next_below(3)),
        65..=79 => (PrimitiveFn::Or, 2 + rng.next_below(2)),
        80..=89 => (PrimitiveFn::Xor, 2),
        90..=94 => (PrimitiveFn::Xnor, 2),
        _ => (PrimitiveFn::Inv, 1),
    }
}

/// Generates a seeded random combinational DAG.
///
/// Gates draw their fanins from a sliding window of recently created
/// signals, so depth grows with `gates / window`. Deterministic in the
/// parameters.
pub fn random_dag(library: Arc<CellLibrary>, p: DagParams) -> Netlist {
    assert!(p.inputs >= 2 && p.gates >= 1 && p.window >= 2);
    let mut rng = Xoshiro256::seed_from_u64(p.seed);
    let mut b = CircuitBuilder::new("rdag", library);
    let mut signals: Vec<NetId> = b.inputs("x", p.inputs);

    for _ in 0..p.gates {
        let (f, arity) = pick_function(&mut rng);
        let lo = signals.len().saturating_sub(p.window);
        let mut ins: Vec<NetId> = Vec::with_capacity(arity);
        let mut tries = 0;
        while ins.len() < arity {
            let pick = signals[lo + rng.next_below(signals.len() - lo)];
            // Distinct fanins preferred; give up after a few collisions.
            if !ins.contains(&pick) || tries > 8 {
                ins.push(pick);
            }
            tries += 1;
        }
        let out = b.gate(f, &ins);
        signals.push(out);
    }

    // Chosen outputs from the latest signals, plus every dangling gate
    // output so the whole circuit is observable.
    let n_signals = signals.len();
    for k in 0..p.outputs.min(n_signals) {
        b.output(signals[n_signals - 1 - k]);
    }
    let dangling: Vec<NetId> = b
        .netlist()
        .gates()
        .map(|(_, g)| g.output())
        .filter(|&o| b.netlist().net(o).fanout() == 0)
        .collect();
    for o in dangling {
        b.output(o);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let lib = CellLibrary::standard();
        let a = random_dag(lib.clone(), DagParams::small(9));
        let c = random_dag(lib, DagParams::small(9));
        assert_eq!(a.num_gates(), c.num_gates());
        let bits = vec![true; a.primary_inputs().len()];
        assert_eq!(a.eval(&bits), c.eval(&bits));
    }

    #[test]
    fn no_dangling_outputs() {
        let lib = CellLibrary::standard();
        let n = random_dag(lib, DagParams::small(4));
        for (_, g) in n.gates() {
            assert!(n.net(g.output()).fanout() > 0, "gate {} dangles", g.name());
        }
    }

    #[test]
    fn gate_count_matches_request() {
        let lib = CellLibrary::standard();
        let p = DagParams::small(11);
        let n = random_dag(lib, p);
        assert_eq!(n.num_gates(), p.gates);
    }

    #[test]
    fn window_bounds_depth() {
        let lib = CellLibrary::standard();
        let deep = random_dag(
            lib.clone(),
            DagParams {
                inputs: 4,
                gates: 120,
                outputs: 4,
                window: 3,
                seed: 5,
            },
        );
        let shallow = random_dag(
            lib,
            DagParams {
                inputs: 64,
                gates: 120,
                outputs: 4,
                window: 150,
                seed: 5,
            },
        );
        let d1 = deep.stats().max_depth;
        let d2 = shallow.stats().max_depth;
        assert!(d1 > d2, "narrow window should be deeper: {d1} vs {d2}");
    }
}
