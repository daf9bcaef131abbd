//! Seeded inputs shared by the workloads: generated circuits, buyer
//! codes, and faults the benchmark confirms with its own simulation.

use std::sync::Arc;

use odcfp_core::faults::FaultInjector;
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{CellLibrary, NetDriver, Netlist};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

use crate::trace::Tracer;

/// A generated circuit and the Verilog a user would hold for it.
#[derive(Debug, Clone)]
pub struct Golden {
    /// Benchmark name (`c1908`, `des`, ...).
    pub name: &'static str,
    /// The generated netlist.
    pub netlist: Netlist,
    /// Its Verilog text.
    pub text: String,
}

/// Generates each named circuit in-repo, under `synth.generate` spans,
/// and renders its Verilog. A name is either a Table II benchmark
/// (`c432`, `des`, ...) or `rnd<gates>s<seed>`, a seeded random DAG of
/// that many gates over 32 inputs and 24 outputs.
///
/// # Panics
///
/// Panics on a name neither form covers.
pub fn generate(names: &[&'static str], tracer: &mut Tracer) -> Vec<Golden> {
    let library = CellLibrary::standard();
    names
        .iter()
        .map(|&name| {
            let netlist = tracer.time("synth.generate", || {
                let netlist = match random_params(name) {
                    Some(params) => Some(random_dag(Arc::clone(&library), params)),
                    None => odcfp_synth::benchmarks::generate(name, Arc::clone(&library)),
                };
                let mut netlist = netlist.unwrap_or_else(|| panic!("unknown circuit {name}"));
                netlist.set_name(name);
                netlist
            });
            let text = odcfp_verilog::write_verilog(&netlist);
            Golden {
                name,
                netlist,
                text,
            }
        })
        .collect()
}

fn random_params(name: &str) -> Option<DagParams> {
    let (gates, seed) = name.strip_prefix("rnd")?.split_once('s')?;
    Some(DagParams {
        inputs: 32,
        gates: gates.parse().ok()?,
        outputs: 24,
        window: 48,
        seed: seed.parse().ok()?,
    })
}

/// Mixes a run seed with an operation index into an independent stream
/// seed (splitmix64 finalizer).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A buyer code of `n` bits derived from `seed` the way `odcfp embed
/// --seed` and the serve `embed` op derive it.
pub fn seeded_bits(seed: u64, n: usize) -> Vec<bool> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..n).map(|_| rng.next_bool()).collect()
}

/// Simulates `netlist` on `words` 64-pattern words per primary input,
/// returning the primary output words. Written here rather than taken
/// from the program so fault ground truth does not rest on the code
/// under test.
fn simulate(netlist: &Netlist, inputs: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let words = inputs.first().map_or(0, Vec::len);
    let mut values = vec![vec![0u64; words]; netlist.num_nets()];
    for (net, stream) in netlist.primary_inputs().iter().zip(inputs) {
        values[net.index()].clone_from(stream);
    }
    for (id, net) in netlist.nets() {
        if let NetDriver::Const(true) = net.driver() {
            values[id.index()].fill(u64::MAX);
        }
    }
    let order = netlist
        .topo_order()
        .expect("benchmark circuits are acyclic");
    let mut operands = Vec::new();
    for gate in order {
        let f = netlist.gate_fn(gate);
        let out = netlist.gate_output(gate).index();
        let inputs = netlist.gate(gate).inputs();
        values[out] = (0..words)
            .map(|w| {
                operands.clear();
                operands.extend(inputs.iter().map(|i| values[i.index()][w]));
                f.eval_words(&operands)
            })
            .collect();
    }
    netlist
        .primary_outputs()
        .iter()
        .map(|po| values[po.index()].clone())
        .collect()
}

/// Whether `a` and `b` disagree on some output for 1024 seeded random
/// input patterns.
pub fn outputs_differ(a: &Netlist, b: &Netlist, seed: u64) -> bool {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let inputs: Vec<Vec<u64>> = (0..a.primary_inputs().len())
        .map(|_| (0..16).map(|_| rng.next_u64()).collect())
        .collect();
    simulate(a, &inputs) != simulate(b, &inputs)
}

/// A seeded wrong-cell fault on `netlist` that the benchmark's own
/// simulation shows changes an output of `golden`, or `None` if none of
/// a bounded number of draws does.
pub fn visible_fault(golden: &Netlist, netlist: &Netlist, seed: u64) -> Option<Netlist> {
    let mut injector = FaultInjector::new(seed);
    (0..32).find_map(|attempt| {
        let (faulty, _) = injector.random_wrong_cell(netlist)?;
        outputs_differ(golden, &faulty, mix(seed, attempt)).then_some(faulty)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_simulation_agrees_with_the_program() {
        let g = &generate(&["c432"], &mut Tracer::new(false))[0];
        let mut rng = Xoshiro256::seed_from_u64(3);
        let inputs: Vec<Vec<u64>> = (0..g.netlist.primary_inputs().len())
            .map(|_| vec![rng.next_u64(), rng.next_u64()])
            .collect();
        let ours = simulate(&g.netlist, &inputs);
        let theirs = g.netlist.simulate(&inputs);
        let po: Vec<Vec<u64>> = g
            .netlist
            .primary_outputs()
            .iter()
            .map(|po| theirs[po.index()].clone())
            .collect();
        assert_eq!(ours, po);
        let faulty = visible_fault(&g.netlist, &g.netlist, 9).expect("c432 has visible faults");
        assert!(outputs_differ(&g.netlist, &faulty, 1));
        assert!(!outputs_differ(&g.netlist, &g.netlist.clone(), 1));
    }
}
