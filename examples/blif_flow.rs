//! The paper's exact tool flow, §IV: BLIF in → technology mapping → ODC
//! fingerprinting → fingerprinted structural Verilog out.
//!
//! Run with: `cargo run --example blif_flow`

use odcfp_blif::parse_blif;
use odcfp_core::Fingerprinter;
use odcfp_netlist::CellLibrary;
use odcfp_sat::{check_equivalence, EquivResult};
use odcfp_synth::map_network;
use odcfp_verilog::{parse_verilog, write_verilog};

/// A small MCNC-style combinational model (a 4-bit priority encoder with an
/// enable), inlined so the example is self-contained.
const BLIF: &str = "\
.model prenc4
.inputs en r0 r1 r2 r3
.outputs v y0 y1
.names en r0 r1 r2 r3 v
11--- 1
1-1-- 1
1--1- 1
1---1 1
.names en r0 r1 r3 y0
101- 1
1001 1
.names en r0 r1 r2 r3 y1
1--1- 1
1---1 1
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the BLIF model (the paper's benchmark input format).
    let network = parse_blif(BLIF)?;
    network.validate()?;
    println!(
        "parsed {:?}: {} inputs, {} outputs, {} nodes",
        network.name(),
        network.inputs().len(),
        network.outputs().len(),
        network.num_nodes()
    );

    // 2. Technology-map onto the standard-cell library (the ABC step).
    let mapped = map_network(&network, CellLibrary::standard())?;
    println!(
        "mapped to {} gates:\n{}",
        mapped.num_gates(),
        mapped.stats()
    );

    // 3. Fingerprint.
    let fp = Fingerprinter::new(mapped)?;
    println!("capacity: {}", fp.capacity());
    let copy = fp.embed_seeded(0xB11F)?;
    println!("embedded bits: {}", copy.bit_string());

    // 4. Emit fingerprinted structural Verilog (the paper's output format)
    //    and re-read it to prove the shipped artifact is equivalent.
    let verilog = write_verilog(copy.netlist());
    println!("\n{verilog}");
    let reread = parse_verilog(&verilog, fp.base().library().clone())?;
    assert_eq!(
        check_equivalence(fp.base(), &reread, None)?,
        EquivResult::Equivalent,
        "shipped Verilog must implement the original function"
    );
    println!("re-parsed Verilog proven equivalent to the original BLIF model");
    Ok(())
}
