//! Switching-activity dynamic power estimation.
//!
//! The estimate follows the SIS-era methodology the paper's power numbers
//! come from: simulate the circuit on random vectors, measure each net's
//! toggle density, and charge every toggle with the capacitance the net
//! drives:
//!
//! ```text
//! P ∝ Σ_nets activity(net) · C(net),
//! C(net) = Σ sink-pin input capacitances (+ 1 wire-load unit)
//! ```
//!
//! Absolute units are arbitrary but consistent, which is all the paper's
//! *relative* power-overhead metric needs.

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::sim;
use odcfp_netlist::Netlist;

/// Global scale factor mapping activity·capacitance to the reported power
/// unit (chosen so the benchmark circuits land in the same magnitude range
/// as the paper's tables).
const POWER_SCALE: f64 = 100.0;

/// Per-pattern wire-load capacitance added to every driven net.
const WIRE_CAP: f64 = 1.0;

/// The result of [`estimate_power`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    total: f64,
    per_net: Vec<f64>,
}

impl PowerReport {
    /// Total dynamic power estimate.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The contribution of one net (indexed by [`odcfp_netlist::NetId::index`]).
    pub fn per_net(&self) -> &[f64] {
        &self.per_net
    }
}

/// Estimates dynamic power from `num_words * 64` seeded random input
/// vectors.
///
/// Deterministic for a fixed `(netlist, num_words, seed)` triple.
///
/// # Panics
///
/// Panics if the netlist is invalid (validate first) or `num_words == 0`.
pub fn estimate_power(netlist: &Netlist, num_words: usize, seed: u64) -> PowerReport {
    assert!(num_words > 0, "at least one pattern word required");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let patterns: Vec<Vec<u64>> = (0..netlist.primary_inputs().len())
        .map(|_| sim::random_words(&mut rng, num_words))
        .collect();
    let values = netlist.simulate(&patterns);
    let total_steps = (num_words * 64 - 1) as f64;
    let mut per_net = vec![0.0f64; netlist.num_nets()];
    let mut total = 0.0;
    for (id, net) in netlist.nets() {
        if net.fanout() == 0 {
            continue;
        }
        let toggles = sim::toggle_count(&values[id.index()]) as f64;
        let activity = toggles / total_steps;
        let cap: f64 = WIRE_CAP
            + net
                .sinks()
                .iter()
                .map(|p| {
                    let cell = netlist.gate(p.gate).cell();
                    netlist.library().cell(cell).input_cap()
                })
                .sum::<f64>();
        let p = POWER_SCALE * activity * cap;
        per_net[id.index()] = p;
        total += p;
    }
    PowerReport { total, per_net }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    fn xor_tree(depth: usize) -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("xt", lib);
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let mut level: Vec<_> = (0..(1 << depth))
            .map(|i| n.add_primary_input(format!("x{i}")))
            .collect();
        let mut k = 0;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let g = n.add_gate(format!("g{k}"), xor2, &[pair[0], pair[1]]);
                k += 1;
                next.push(n.gate_output(g));
            }
            level = next;
        }
        n.set_primary_output(level[0]);
        n
    }

    #[test]
    fn deterministic_for_seed() {
        let n = xor_tree(3);
        let a = estimate_power(&n, 8, 42);
        let b = estimate_power(&n, 8, 42);
        assert_eq!(a, b);
        let c = estimate_power(&n, 8, 43);
        assert_ne!(a.total(), c.total());
    }

    #[test]
    fn more_gates_more_power() {
        let small = xor_tree(2);
        let big = xor_tree(4);
        assert!(estimate_power(&big, 8, 1).total() > estimate_power(&small, 8, 1).total());
    }

    #[test]
    fn constant_nets_burn_nothing() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("quiet", lib);
        let a = n.add_primary_input("a");
        let one = n.add_constant("one", true);
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g = n.add_gate("g", and2, &[a, one]);
        n.set_primary_output(n.gate_output(g));
        let report = estimate_power(&n, 8, 7);
        assert_eq!(report.per_net()[one.index()], 0.0);
        assert!(report.per_net()[a.index()] > 0.0);
        assert!(report.total() > 0.0);
    }

    #[test]
    fn per_net_vector_covers_all_nets() {
        let n = xor_tree(2);
        let report = estimate_power(&n, 4, 1);
        assert_eq!(report.per_net().len(), n.num_nets());
        let sum: f64 = report.per_net().iter().sum();
        assert!((sum - report.total()).abs() < 1e-9);
    }

    #[test]
    fn undriven_fanout_free_nets_skipped() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("po", lib);
        let a = n.add_primary_input("a");
        let unused = n.add_primary_input("unused");
        n.set_primary_output(a);
        let report = estimate_power(&n, 4, 3);
        assert_eq!(report.per_net()[unused.index()], 0.0);
    }
}
