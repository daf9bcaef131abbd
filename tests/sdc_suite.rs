//! Integration tests for the companion SDC technique on real benchmark
//! circuits (the gates it finds there are the classic mux-output NANDs
//! whose (0,0) input row is structurally impossible).

mod common;

use common::sim_equivalent;
use odcfp_core::sdc::{find_sdc_locations, SdcFingerprinter};
use odcfp_core::Fingerprinter;
use odcfp_netlist::CellLibrary;
use odcfp_sat::{check_equivalence, EquivResult};
use odcfp_synth::benchmarks;

#[test]
fn c880_mux_nands_are_sdc_locations() {
    let base = benchmarks::generate("c880", CellLibrary::standard()).unwrap();
    let fp = SdcFingerprinter::new(base).unwrap();
    // The ALU generator's 2:1 muxes end in NAND(t0, t1) where t0 = t1 = 0
    // requires s = 0 and s = 1 simultaneously.
    assert!(
        fp.locations().len() >= 32,
        "expected the mux NANDs, got {}",
        fp.locations().len()
    );
    let all = fp.embed(&vec![true; fp.locations().len()]).unwrap();
    assert_eq!(
        check_equivalence(fp.base(), &all, Some(5_000_000)).unwrap(),
        EquivResult::Equivalent,
        "all swaps applied together must preserve the ALU"
    );
    let bits = fp.extract(&all);
    assert!(bits.iter().all(|&b| b));
}

#[test]
fn sdc_swaps_change_no_metric_direction_surprisingly() {
    // Swapping NAND2 -> XOR2 grows area (XOR cells are larger) but never
    // changes behaviour; just sanity-check both.
    use odcfp_analysis::area::total_area;
    let base = benchmarks::generate("vda", CellLibrary::standard()).unwrap();
    let fp = SdcFingerprinter::new(base).unwrap();
    if fp.locations().is_empty() {
        return;
    }
    let marked = fp.embed(&vec![true; fp.locations().len()]).unwrap();
    assert!(sim_equivalent(fp.base(), &marked, 16, 1));
    assert!(total_area(&marked) >= total_area(fp.base()));
}

#[test]
fn odc_and_sdc_capacities_stack_on_a_benchmark() {
    // The two techniques mark different structures, so their capacities
    // add: embed SDC swaps first, then ODC wires on top, and verify the
    // combined copy.
    let base = benchmarks::generate("c880", CellLibrary::standard()).unwrap();
    let sdc = SdcFingerprinter::new(base).unwrap();
    let sdc_bits: Vec<bool> = (0..sdc.locations().len()).map(|i| i % 2 == 0).collect();
    let swapped = sdc.embed(&sdc_bits).unwrap();

    let odc = Fingerprinter::new(swapped).unwrap();
    assert!(!odc.locations().is_empty());
    let copy = odc.embed_seeded(5).unwrap();

    // Combined copy is equivalent to the *original* base.
    assert!(sim_equivalent(sdc.base(), copy.netlist(), 16, 9));
    // Both marks extract independently.
    assert_eq!(sdc.extract(copy.netlist()), sdc_bits);
    assert_eq!(odc.extract(copy.netlist()), copy.bits());
}

#[test]
fn prefilter_budget_is_sound() {
    // With a tiny conflict budget, locations may be missed but never
    // invented: everything returned still proves UNSAT with a larger
    // budget.
    let base = benchmarks::generate("c880", CellLibrary::standard()).unwrap();
    let tight = find_sdc_locations(&base, 1);
    let loose = find_sdc_locations(&base, 1_000_000);
    for l in &tight {
        assert!(
            loose.contains(l),
            "budgeted result {l:?} missing from full result"
        );
    }
}
