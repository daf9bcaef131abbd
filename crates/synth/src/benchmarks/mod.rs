//! Deterministic benchmark circuit generators.
//!
//! The paper evaluates on 14 MCNC / ISCAS'85 circuits (Table II). Those BLIF
//! files cannot be redistributed here, so this module generates circuits of
//! the same *class* and *size* for each row — see `DESIGN.md` §3–4. The
//! fingerprinting method reads only structural properties (gate functions
//! with controlling values, fanout-free cones, depth), so matching class,
//! gate count and gate mix reproduces the experimental shape.
//!
//! All generators are pure functions of their parameters and seeds.

pub mod alu;
pub mod arith;
pub mod ecc;
pub mod pla;
pub mod random;

use std::sync::Arc;

use odcfp_netlist::{CellLibrary, Netlist};

/// The benchmark names of the paper's Table II, in row order.
pub const TABLE2_NAMES: [&str; 14] = [
    "c432", "c499", "c880", "c1355", "c1908", "c3540", "c6288", "des", "k2", "t481", "i10", "i8",
    "dalu", "vda",
];

/// Generates the workspace's stand-in for a Table II benchmark by name
/// (case-insensitive). Returns `None` for unknown names.
///
/// Every circuit is deterministic: repeated calls produce identical
/// netlists.
///
/// # Example
///
/// ```
/// use odcfp_netlist::CellLibrary;
/// use odcfp_synth::benchmarks;
///
/// let c432 = benchmarks::generate("c432", CellLibrary::standard()).unwrap();
/// assert!(c432.num_gates() > 100);
/// ```
pub fn generate(name: &str, library: Arc<CellLibrary>) -> Option<Netlist> {
    let n = match name.to_ascii_lowercase().as_str() {
        "c432" => alu::priority_controller(library, 27, 3),
        "c499" => ecc::sec_circuit(library, ecc::SecParams::c499_like()),
        "c880" => alu::alu(library, alu::AluParams::c880_like()),
        "c1355" => ecc::sec_circuit(library, ecc::SecParams::c1355_like()),
        "c1908" => ecc::sec_circuit(library, ecc::SecParams::c1908_like()),
        "c3540" => alu::alu(library, alu::AluParams::c3540_like()),
        "c6288" => arith::array_multiplier(library, 16, arith::AdderStyle::NandExpanded),
        "des" => pla::sbox_network(library, pla::SboxParams::des_like()),
        "k2" => pla::two_level(library, pla::PlaParams::k2_like()),
        "t481" => pla::two_level(library, pla::PlaParams::t481_like()),
        "i10" => random::random_dag(library, random::DagParams::i10_like()),
        "i8" => pla::two_level(library, pla::PlaParams::i8_like()),
        "dalu" => alu::alu(library, alu::AluParams::dalu_like()),
        "vda" => pla::two_level(library, pla::PlaParams::vda_like()),
        _ => return None,
    };
    let mut n = n;
    n.set_name(name.to_ascii_lowercase());
    Some(n)
}

/// Generates the full Table II suite in row order.
pub fn table2_suite(library: Arc<CellLibrary>) -> Vec<Netlist> {
    TABLE2_NAMES
        .iter()
        .map(|n| generate(n, library.clone()).expect("known name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_generate_and_validate() {
        let lib = CellLibrary::standard();
        for name in TABLE2_NAMES {
            let n = generate(name, lib.clone()).unwrap();
            n.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(n.num_gates() > 50, "{name} too small: {}", n.num_gates());
            assert!(!n.primary_outputs().is_empty(), "{name} has no outputs");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(generate("s27", CellLibrary::standard()).is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        let lib = CellLibrary::standard();
        let a = generate("k2", lib.clone()).unwrap();
        let b = generate("k2", lib).unwrap();
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.num_nets(), b.num_nets());
        // Spot-check behaviour.
        let bits = vec![true; a.primary_inputs().len()];
        assert_eq!(a.eval(&bits), b.eval(&bits));
    }

    #[test]
    fn case_insensitive_lookup() {
        let lib = CellLibrary::standard();
        assert!(generate("C432", lib).is_some());
    }
}
