//! Fingerprinting against a user-supplied `genlib` cell library, plus the
//! post-silicon fuse model: one mask set, per-buyer fuse programming.
//!
//! Run with: `cargo run --release --example custom_library`

use odcfp_core::{Fingerprinter, FlexibleDesign};
use odcfp_netlist::genlib::parse_genlib;
use odcfp_sat::{check_equivalence, EquivResult};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

/// A small characterized library in MCNC genlib syntax.
const GENLIB: &str = "\
GATE INVA   928  Y=!A;        PIN * INV    1.0 999 0.8 0.10 0.8 0.10
GATE BUFA   1392 Y=A;         PIN * NONINV 1.0 999 1.5 0.10 1.5 0.10
GATE NAND2A 1392 Y=!(A*B);    PIN * INV    1.4 999 0.9 0.10 0.9 0.10
GATE NAND3A 1856 Y=!(A*B*C);  PIN * INV    1.4 999 1.0 0.10 1.0 0.10
GATE NAND4A 2320 Y=!(A*B*C*D); PIN * INV   1.4 999 1.1 0.10 1.1 0.10
GATE NOR2A  1392 Y=!(A+B);    PIN * INV    1.4 999 1.2 0.10 1.2 0.10
GATE NOR3A  1856 Y=!(A+B+C);  PIN * INV    1.4 999 1.4 0.10 1.4 0.10
GATE AND2A  1856 Y=A*B;       PIN * NONINV 1.8 999 1.7 0.10 1.7 0.10
GATE AND3A  2320 Y=A*B*C;     PIN * NONINV 1.8 999 1.8 0.10 1.8 0.10
GATE AND4A  2784 Y=A*B*C*D;   PIN * NONINV 1.8 999 1.9 0.10 1.9 0.10
GATE OR2A   1856 Y=A+B;       PIN * NONINV 1.8 999 1.9 0.10 1.9 0.10
GATE OR3A   2320 Y=A+B+C;     PIN * NONINV 1.8 999 2.1 0.10 2.1 0.10
GATE OR4A   2784 Y=A+B+C+D;   PIN * NONINV 1.8 999 2.3 0.10 2.3 0.10
GATE NOR4A  2320 Y=!(A+B+C+D); PIN * INV   1.4 999 1.6 0.10 1.6 0.10
GATE XOR2A  2784 Y=A^B;       PIN * UNKNOWN 2.2 999 1.8 0.12 1.8 0.12
GATE XNOR2A 2784 Y=!(A^B);    PIN * UNKNOWN 2.2 999 2.0 0.12 2.0 0.12
GATE AOI21  1624 Y=!(A*B+C);  PIN * INV    1.4 999 1.1 0.10 1.1 0.10
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Load the custom library; exotic cells are reported, not dropped
    //    silently.
    let report = parse_genlib(GENLIB, "acme-7nm")?;
    for (gate, reason) in &report.skipped {
        println!("skipped {gate}: {reason}");
    }
    println!("loaded {} cells from genlib\n", report.library.len());

    // 2. Build a design mapped to that library and fingerprint it.
    let base = random_dag(
        report.library.clone(),
        DagParams {
            inputs: 24,
            gates: 300,
            outputs: 16,
            window: 60,
            seed: 0xACE,
        },
    );
    let fp = Fingerprinter::new(base)?;
    println!("design: {} gates, {}", fp.base().num_gates(), fp.capacity());

    // 3. The practical deployment (§I-A / §VI): fabricate ONE flexible
    //    design with every fingerprint wire behind a fuse, then program
    //    each die.
    let flexible = FlexibleDesign::build(&fp)?;
    println!(
        "flexible mask-level design: {} gates, {} fuse inputs",
        flexible.netlist().num_gates(),
        flexible.fuse_nets().len()
    );

    let buyer_bits: Vec<bool> = (0..fp.locations().len()).map(|i| i % 3 == 0).collect();
    let programmed = flexible.program(&buyer_bits)?;
    let embedded = fp.embed(&buyer_bits)?;
    assert_eq!(
        check_equivalence(&programmed, embedded.netlist(), None)?,
        EquivResult::Equivalent,
        "fuse programming and netlist rewiring implement the same copy"
    );
    println!("fuse-programmed die proven equivalent to the rewired netlist");
    println!(
        "recovered bits match: {}",
        fp.extract(embedded.netlist()) == buyer_bits
    );
    Ok(())
}
