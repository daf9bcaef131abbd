//! The deterministic malformed-input corpus fixtures, shared between the
//! structured-error suite (`malformed_corpus.rs`) and the verification
//! fast-path agreement suite (`verify_fastpath.rs`). Include with
//! `#[path = "corpus_fixtures.rs"] mod corpus_fixtures;` — integration
//! tests are separate crates and cannot link each other directly.

use odcfp_netlist::{CellLibrary, Netlist};

/// Runs a BLIF source through the whole designer-side load pipeline:
/// parse, network validation, technology mapping, netlist validation.
/// Returns the mapped netlist or the first structured error message.
pub fn load_blif(src: &str) -> Result<Netlist, String> {
    let network = odcfp_blif::parse_blif(src).map_err(|e| e.to_string())?;
    network.validate().map_err(|e| e.to_string())?;
    let netlist =
        odcfp_synth::map_network(&network, CellLibrary::standard()).map_err(|e| e.to_string())?;
    netlist.validate().map_err(|e| e.to_string())?;
    Ok(netlist)
}

/// The Verilog twin of [`load_blif`].
pub fn load_verilog(src: &str) -> Result<Netlist, String> {
    let netlist =
        odcfp_verilog::parse_verilog(src, CellLibrary::standard()).map_err(|e| e.to_string())?;
    netlist.validate().map_err(|e| e.to_string())?;
    Ok(netlist)
}

/// Every BLIF fixture: (name, source, substring the error must contain).
pub fn blif_fixtures() -> Vec<(&'static str, String, &'static str)> {
    vec![
        (
            "truncated_mid_cube",
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11".into(),
            "bad cover row",
        ),
        (
            "combinational_cycle",
            ".model c\n.inputs a\n.outputs y\n.names a x y\n11 1\n.names y x\n1 1\n.end\n".into(),
            "cycle",
        ),
        (
            "duplicate_model",
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n\
             .model m\n.inputs b\n.outputs z\n.names b z\n1 1\n.end\n"
                .into(),
            "multiple .model",
        ),
        (
            "nul_byte_in_cube",
            ".model n\n.inputs a\n.outputs y\n.names a y\n1\u{0} 1\n.end\n".into(),
            "bad cover row",
        ),
        (
            "cube_width_mismatch",
            ".model w\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n".into(),
            "bad cover row",
        ),
        (
            "invalid_cube_character",
            ".model x\n.inputs a\n.outputs y\n.names a y\nx 1\n.end\n".into(),
            "bad cover row",
        ),
        (
            "sequential_latch",
            ".model l\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n".into(),
            "sequential",
        ),
        (
            "no_model_header",
            "# just a comment\n.end\n".into(),
            "no .model",
        ),
        (
            "undriven_output",
            ".model u\n.inputs a\n.outputs y z\n.names a y\n1 1\n.end\n".into(),
            "undefined",
        ),
        (
            // One hundred-megabyte cover row on a single line: the parser
            // must reject it with a bounded, structured error — no OOM
            // from quadratic buffering, no hang, no panic. (The CLI twin
            // of this fixture uses a smaller line to spare CI disk I/O.)
            "hundred_megabyte_line",
            format!(
                ".model big\n.inputs a\n.outputs y\n.names a y\n{} 1\n.end\n",
                "1".repeat(100 * 1024 * 1024)
            ),
            "bad cover row",
        ),
    ]
}

/// Every Verilog fixture: (name, source, substring the error must contain).
pub fn verilog_fixtures() -> Vec<(&'static str, String, &'static str)> {
    const GOOD: &str = "module m (a, y);\ninput a;\noutput y;\nINV u1 (.A(a), .Y(y));\nendmodule\n";
    vec![
        (
            "unterminated_block_comment",
            "module m (a, y); input a; output y; /* oops".into(),
            "unexpected end of input",
        ),
        (
            "unknown_cell",
            "module m (a, y); input a; output y; FROB u1 (.A(a), .Y(y)); endmodule".into(),
            "unknown cell",
        ),
        (
            "undeclared_wire",
            "module m (a, y); input a; output y; INV u1 (.A(w), .Y(y)); endmodule".into(),
            "bad connections",
        ),
        (
            // Concatenated files must not silently half-parse as the
            // first module.
            "second_module",
            format!(
                "{GOOD}module m2 (b, z);\ninput b;\noutput z;\nINV u2 (.A(b), .Y(z));\nendmodule\n"
            ),
            "trailing input after endmodule",
        ),
        (
            "trailing_garbage",
            format!("{GOOD}garbage\n"),
            "trailing input after endmodule",
        ),
        (
            "nul_byte_in_identifier",
            "module m\u{0} (a, y); input a; output y; INV u1 (.A(a), .Y(y)); endmodule".into(),
            "unsupported construct",
        ),
        (
            "truncated_mid_instance",
            "module m (a, y); input a; output y; INV u1 (.A(a), .Y".into(),
            "unexpected end of input",
        ),
        (
            "multiple_drivers",
            "module m (a, y); input a; output y; INV u1 (.A(a), .Y(y)); \
             INV u2 (.A(a), .Y(y)); endmodule"
                .into(),
            "multiple drivers",
        ),
    ]
}
