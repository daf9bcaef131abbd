//! Format interoperability: BLIF → mapping → fingerprinting → Verilog →
//! re-parse, with SAT-checked equivalence at every hop.

use odcfp_blif::{parse_blif, write_blif};
use odcfp_core::Fingerprinter;
use odcfp_netlist::CellLibrary;
use odcfp_sat::{check_equivalence, EquivResult};
use odcfp_synth::map_network;
use odcfp_verilog::{parse_verilog, write_verilog};

const ALU_SLICE_BLIF: &str = "\
.model alu_slice
.inputs a b cin s0 s1
.outputs y cout
.names a b axb
10 1
01 1
.names axb cin sum
10 1
01 1
.names a b andab
11 1
.names a b orab
1- 1
-1 1
.names s0 s1 sum andab orab y
001-- 1
01-1- 1
10--1 1
11-11 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

#[test]
fn blif_roundtrips_through_writer() {
    let net = parse_blif(ALU_SLICE_BLIF).unwrap();
    net.validate().unwrap();
    let text = write_blif(&net);
    let back = parse_blif(&text).unwrap();
    assert_eq!(net, back);
}

#[test]
fn mapped_netlist_matches_blif_semantics_exhaustively() {
    let net = parse_blif(ALU_SLICE_BLIF).unwrap();
    let mapped = map_network(&net, CellLibrary::standard()).unwrap();
    for i in 0..(1usize << 5) {
        let bits: Vec<bool> = (0..5).map(|v| (i >> v) & 1 == 1).collect();
        assert_eq!(mapped.eval(&bits), net.eval(&bits), "assignment {i:05b}");
    }
}

#[test]
fn full_flow_blif_to_fingerprinted_verilog_and_back() {
    let net = parse_blif(ALU_SLICE_BLIF).unwrap();
    let mapped = map_network(&net, CellLibrary::standard()).unwrap();
    let fp = Fingerprinter::new(mapped).unwrap();
    assert!(!fp.locations().is_empty());
    let copy = fp.embed_seeded(42).unwrap();

    let verilog = write_verilog(copy.netlist());
    let reread = parse_verilog(&verilog, fp.base().library().clone()).unwrap();
    assert_eq!(
        check_equivalence(fp.base(), &reread, None).unwrap(),
        EquivResult::Equivalent,
        "fingerprinted Verilog must implement the BLIF function"
    );
}

#[test]
fn verilog_roundtrip_preserves_fingerprint_structure() {
    let net = parse_blif(ALU_SLICE_BLIF).unwrap();
    let mapped = map_network(&net, CellLibrary::standard()).unwrap();
    let fp = Fingerprinter::new(mapped).unwrap();
    let marked = fp.embed_seeded(7).unwrap();
    let unmarked = fp.embed(&vec![false; fp.locations().len()]).unwrap();

    let v_marked = write_verilog(marked.netlist());
    let v_unmarked = write_verilog(unmarked.netlist());
    if marked.bits().iter().any(|&b| b) {
        assert_ne!(
            v_marked, v_unmarked,
            "a set fingerprint bit must be visible in the shipped netlist"
        );
    }
}

#[test]
fn generated_benchmark_survives_verilog_roundtrip() {
    let base = odcfp_synth::benchmarks::generate("c432", CellLibrary::standard()).unwrap();
    let text = write_verilog(&base);
    let back = parse_verilog(&text, base.library().clone()).unwrap();
    assert_eq!(back.num_gates(), base.num_gates());
    assert_eq!(
        check_equivalence(&base, &back, None).unwrap(),
        EquivResult::Equivalent
    );
}

#[test]
fn name_based_extraction_after_verilog_roundtrip() {
    // The file-based designer workflow: the base circulates as Verilog, a
    // suspect netlist comes back as Verilog, and extraction must align the
    // two by names rather than arena ids.
    let net = parse_blif(ALU_SLICE_BLIF).unwrap();
    let mapped = map_network(&net, CellLibrary::standard()).unwrap();
    // Normalize the base itself through a write/parse cycle, as a real
    // flow would.
    let base_text = write_verilog(&mapped);
    let base = parse_verilog(&base_text, mapped.library().clone()).unwrap();

    let fp = Fingerprinter::new(base).unwrap();
    let copy = fp.embed_seeded(0x1D).unwrap();
    let suspect_text = write_verilog(copy.netlist());
    let suspect = parse_verilog(&suspect_text, fp.base().library().clone()).unwrap();

    let bits = fp.extract_by_name(&suspect).unwrap();
    assert_eq!(bits, copy.bits());

    // An unrelated netlist without the expected names is rejected.
    let mut foreign = odcfp_netlist::Netlist::new("f", fp.base().library().clone());
    let a = foreign.add_primary_input("zzz");
    foreign.set_primary_output(a);
    assert!(fp.extract_by_name(&foreign).is_err());
}

/// The names of `ids` in `n`, in order.
fn names<'n>(n: &'n odcfp_netlist::Netlist, ids: &[odcfp_netlist::NetId]) -> Vec<&'n str> {
    ids.iter().map(|&id| n.net(id).name()).collect()
}

#[test]
fn table2_circuits_and_copies_rewrite_byte_identically() {
    // The writer's output is a fixed point of parse-then-write for every
    // Table II circuit and a fingerprinted copy of each, and the parse
    // keeps every name and the PI, PO and gate order that
    // `extract_by_name` aligns on.
    let lib = CellLibrary::standard();
    for base in odcfp_synth::benchmarks::table2_suite(lib.clone()) {
        let fp = Fingerprinter::new(base.clone()).unwrap();
        let copy = fp.embed_seeded(3).unwrap();
        for (what, n) in [("base", &base), ("copy", copy.netlist())] {
            let label = format!("{} {what}", base.name());
            let text = write_verilog(n);
            let back = parse_verilog(&text, lib.clone()).unwrap();
            assert_eq!(write_verilog(&back), text, "{label}: rewrite differs");
            assert_eq!(back.name(), n.name(), "{label}");
            assert_eq!(
                names(&back, back.primary_inputs()),
                names(n, n.primary_inputs()),
                "{label}: primary inputs"
            );
            assert_eq!(
                names(&back, back.primary_outputs()),
                names(n, n.primary_outputs()),
                "{label}: primary outputs"
            );
            assert_eq!(back.num_gates(), n.num_gates(), "{label}");
            for ((_, g), (_, h)) in back.gates().zip(n.gates()) {
                assert_eq!(g.name(), h.name(), "{label}: gate order");
                assert_eq!(g.cell(), h.cell(), "{label}: gate {}", h.name());
                assert_eq!(
                    back.net(g.output()).name(),
                    n.net(h.output()).name(),
                    "{label}: gate {} output",
                    h.name()
                );
            }
        }
        if base.name() == "c432" {
            let suspect_text = write_verilog(copy.netlist());
            let suspect = parse_verilog(&suspect_text, lib.clone()).unwrap();
            assert_eq!(fp.extract_by_name(&suspect).unwrap(), copy.bits());
        }
    }
}
