//! The fault-injection battery: every fault class from
//! [`odcfp_core::faults`] must be caught by *some* layer of the pipeline
//! — SAT/simulation refutes it, the ECC decoder localizes it, or a parser
//! reports a typed error. Verdicts are graded against brute-force ground
//! truth, so an ODC-masked (functionally harmless) fault instance must be
//! proven harmless, and a function-changing one must be refuted: nothing
//! is ever *silently* accepted, and nothing panics.

use odcfp_core::faults::{FaultClass, FaultInjector};
use odcfp_core::robust::{self, Code};
use odcfp_core::{
    verify_equivalent, Fingerprinter, FlexibleDesign, SatBudget, Verdict, VerifyPolicy,
};
use odcfp_logic::sim;
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

/// Brute-force functional comparison over every input assignment — the
/// independent ground truth the ladder's verdicts are graded against.
/// Exhaustive-pattern padding bits replicate the all-zeros row in both
/// netlists, so plain stream equality is exact.
fn ground_truth_equal(a: &Netlist, b: &Netlist) -> bool {
    let n = a.primary_inputs().len();
    assert!(n <= 16, "ground truth requires a small input space");
    let patterns = sim::exhaustive_patterns(n);
    let va = a.simulate(&patterns);
    let vb = b.simulate(&patterns);
    a.primary_outputs()
        .iter()
        .zip(b.primary_outputs())
        .all(|(&oa, &ob)| va[oa.index()] == vb[ob.index()])
}

fn small_base(seed: u64) -> Netlist {
    random_dag(CellLibrary::standard(), DagParams::small(seed))
}

/// Grades one faulty netlist against ground truth: the verdict must agree
/// with the truth exactly. Returns whether the fault changed the function.
fn grade(base: &Netlist, faulty: &Netlist, label: &str) -> bool {
    let truth_equal = ground_truth_equal(base, faulty);
    match verify_equivalent(base, faulty, &VerifyPolicy::strict()).unwrap() {
        Verdict::Proven => {
            assert!(truth_equal, "{label}: accepted a function-changing fault");
            false
        }
        Verdict::Refuted { counterexample } => {
            assert!(!truth_equal, "{label}: refuted a harmless fault");
            assert_ne!(
                base.eval(&counterexample),
                faulty.eval(&counterexample),
                "{label}: counterexample does not witness the difference"
            );
            true
        }
        other => panic!("{label}: strict policy must decide, got {other}"),
    }
}

#[test]
fn stuck_at_faults_match_ground_truth() {
    let mut refuted = 0;
    for seed in 0..8 {
        let base = small_base(40 + seed);
        let mut inj = FaultInjector::new(seed);
        let (faulty, net, value) = inj.random_stuck_at(&base).unwrap();
        faulty.validate().unwrap();
        if grade(
            &base,
            &faulty,
            &format!("stuck-at seed {seed} ({net:?}={value})"),
        ) {
            refuted += 1;
        }
    }
    assert!(refuted >= 1, "no stuck-at instance was function-changing");
}

#[test]
fn wrong_cell_faults_match_ground_truth() {
    let mut refuted = 0;
    for seed in 0..8 {
        let base = small_base(50 + seed);
        let mut inj = FaultInjector::new(seed);
        let (faulty, gate) = inj.random_wrong_cell(&base).unwrap();
        faulty.validate().unwrap();
        if grade(
            &base,
            &faulty,
            &format!("wrong-cell seed {seed} ({gate:?})"),
        ) {
            refuted += 1;
        }
    }
    assert!(refuted >= 1, "no wrong-cell instance was function-changing");
}

#[test]
fn stuck_at_inside_fingerprinted_copy_is_refuted() {
    // The production scenario: a defect lands in a *fingerprinted* die.
    let fp = Fingerprinter::new(small_base(60)).unwrap();
    let copy = fp.embed(&vec![true; fp.locations().len()]).unwrap();
    let mut inj = FaultInjector::new(61);
    let mut seen_refutation = false;
    for _ in 0..8 {
        let (faulty, _, _) = inj.random_stuck_at(copy.netlist()).unwrap();
        seen_refutation |= grade(fp.base(), &faulty, "stuck-at in copy");
    }
    assert!(seen_refutation);
}

/// Fingerprint-wire faults (dropped or duplicated optional connections)
/// preserve the circuit function by construction — equivalence checking
/// *must* pass, and the ECC layer must localize the fault instead.
fn wire_fault_battery(drop: bool) {
    let base = random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 10,
            gates: 200,
            outputs: 8,
            window: 40,
            seed: 70,
        },
    );
    let fp = Fingerprinter::new(base).unwrap();
    let n = fp.locations().len();
    let code = Code::Repetition(3);
    let payload_len = code.payload_capacity(n);
    assert!(payload_len >= 1, "need capacity, got {n} locations");
    let payload: Vec<bool> = (0..payload_len).map(|i| i % 3 != 0).collect();
    let intended = robust::encode(code, &payload, n).unwrap();

    let mut inj = FaultInjector::new(71);
    let (faulty_bits, at) = if drop {
        inj.drop_random_wire(&intended).unwrap()
    } else {
        inj.duplicate_random_wire(&intended).unwrap()
    };
    // The faulty die: the wire set differs from the intended one.
    let faulty_copy = fp.embed(&faulty_bits).unwrap();

    // Layer 1 (equivalence) passes — the fault is ODC-masked by design...
    let verdict =
        verify_equivalent(fp.base(), faulty_copy.netlist(), &VerifyPolicy::strict()).unwrap();
    assert!(verdict.is_pass(), "wire faults never change the function");

    // ...so layer 2 (extraction + ECC) must catch and localize it.
    let extracted = fp.extract(faulty_copy.netlist());
    assert_ne!(extracted, intended, "extraction must expose the fault");
    let decoded = robust::decode(code, &extracted, payload_len);
    if at < code.payload_capacity(n) * 3 {
        // Inside the coded region: corrected and localized.
        assert_eq!(decoded.payload, payload, "single wire fault is corrected");
        assert_eq!(decoded.tampered_locations, vec![at]);
    }
}

#[test]
fn dropped_fingerprint_wire_is_localized_by_ecc() {
    wire_fault_battery(true);
}

#[test]
fn duplicated_fingerprint_wire_is_localized_by_ecc() {
    wire_fault_battery(false);
}

#[test]
fn fuse_bit_flip_is_localized_by_ecc() {
    let base = random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 10,
            gates: 200,
            outputs: 8,
            window: 40,
            seed: 80,
        },
    );
    let fp = Fingerprinter::new(base).unwrap();
    let flexible = FlexibleDesign::build(&fp).unwrap();
    let n = fp.locations().len();
    let code = Code::Repetition(3);
    let payload_len = code.payload_capacity(n);
    let payload: Vec<bool> = (0..payload_len).map(|i| i % 2 == 0).collect();
    let intended = robust::encode(code, &payload, n).unwrap();

    let mut inj = FaultInjector::new(81);
    let (flipped, at) = inj.random_bit_flip(&intended).unwrap();

    // Both fuse maps program into functioning, base-equivalent silicon —
    // the flip is invisible to equivalence checking...
    let (_, verdict) = flexible
        .program_verified(&flipped, &VerifyPolicy::strict())
        .unwrap();
    assert!(verdict.is_pass(), "fuse flips never change the function");

    // ...and the fuse-map read-back plus ECC decode localizes it.
    let decoded = robust::decode(code, &flipped, payload_len);
    if at < payload_len * 3 {
        assert_eq!(decoded.payload, payload, "single fuse flip is corrected");
        assert_eq!(decoded.tampered_locations, vec![at]);
    } else {
        assert_eq!(decoded.payload, payload, "padding flips don't touch data");
    }
}

#[test]
fn truncated_blif_never_reaches_the_pipeline_silently() {
    let source = "\
.model battery
.inputs a b c
.outputs y z
.names a b t
11 1
.names t c y
10 1
01 1
.names a c z
00 1
.end
";
    let golden_network = odcfp_blif::parse_blif(source).unwrap();
    let golden = odcfp_synth::map_network(&golden_network, CellLibrary::standard()).unwrap();

    // Cuts at or past the end of the last cover row only shave off
    // `.end`/whitespace; the model is semantically complete and *should*
    // verify as equivalent.
    let semantic_end = source.rfind("00 1").unwrap() + "00 1".len();

    let mut inj = FaultInjector::new(90);
    let mut rejected = 0;
    let mut complete = 0;
    for round in 0..64 {
        let cut = inj.truncate_source(source);
        // Layer 1: the parser reports a typed, located error...
        let network = match odcfp_blif::parse_blif(&cut) {
            Err(e) => {
                assert!(e.line >= 1, "round {round}: error must carry a line");
                assert!(!e.to_string().is_empty());
                rejected += 1;
                continue;
            }
            Ok(network) => network,
        };
        // ...layer 2: network validation inside mapping rejects it...
        let mapped = match odcfp_synth::map_network(&network, CellLibrary::standard()) {
            Err(e) => {
                assert!(!e.to_string().is_empty());
                rejected += 1;
                continue;
            }
            Ok(mapped) => mapped,
        };
        // ...layer 3: a truncated-but-parsable model can never pass a
        // functional comparison against the golden design (unless only
        // trailing boilerplate was cut).
        match verify_equivalent(&golden, &mapped, &VerifyPolicy::strict()) {
            Err(_) | Ok(Verdict::Refuted { .. }) => rejected += 1,
            Ok(verdict) if cut.len() >= semantic_end => {
                assert!(
                    verdict.is_pass(),
                    "round {round}: complete model: {verdict}"
                );
                complete += 1;
            }
            Ok(other) => panic!("round {round}: truncation accepted as {other}"),
        }
    }
    assert_eq!(
        rejected + complete,
        64,
        "every truncation must be caught or provably complete"
    );
    assert!(rejected > complete, "most cuts must lose semantic content");
    assert!(FaultClass::ALL.len() >= 6);
}

#[test]
fn starved_verification_is_undecided_never_wrong() {
    // A starved budget must degrade to Undecided (with accounting) — it
    // must never claim equivalence it did not establish, and whatever it
    // *does* decide within budget must match ground truth.
    let base = small_base(95);
    let mut inj = FaultInjector::new(96);
    let (faulty, _, _) = inj.random_stuck_at(&base).unwrap();
    let starved = VerifyPolicy {
        sim_words: 0,
        exhaustive_max_inputs: 0,
        sat: SatBudget::Conflicts(1),
        ..VerifyPolicy::strict()
    };
    match verify_equivalent(&base, &faulty, &starved).unwrap() {
        Verdict::Undecided { elapsed, .. } => {
            assert!(elapsed > std::time::Duration::ZERO);
        }
        Verdict::Proven => assert!(ground_truth_equal(&base, &faulty)),
        Verdict::Refuted { counterexample } => {
            assert_ne!(base.eval(&counterexample), faulty.eval(&counterexample));
        }
        Verdict::ProbablyEquivalent { .. } => {
            panic!("no simulation ran, so nothing is 'probably' anything")
        }
    }
}

#[test]
fn incremental_reanalysis_matches_from_scratch_on_battery_circuits() {
    // The incremental dirty-region layer must be indistinguishable from a
    // full re-analysis after every single embedding step, on the same
    // circuit family the fault battery grades verdicts with.
    for seed in [40, 47, 50, 63, 95] {
        let base = small_base(seed);
        let fp = Fingerprinter::new(base).unwrap();
        let mut inc = odcfp_core::IncrementalLocations::new(fp.base().clone()).unwrap();
        assert_eq!(
            inc.locations().unwrap(),
            odcfp_core::find_locations(fp.base()),
            "seed {seed}: initial analysis"
        );
        for (step, m) in fp.selected_modifications().iter().enumerate() {
            inc.apply(m).unwrap();
            assert_eq!(
                inc.locations().unwrap(),
                odcfp_core::find_locations(inc.netlist()),
                "seed {seed}: divergence after step {step}"
            );
        }
        // The fully embedded netlist still verifies against the base.
        let verdict = verify_equivalent(fp.base(), inc.netlist(), &VerifyPolicy::strict()).unwrap();
        assert_eq!(verdict, Verdict::Proven, "seed {seed}");
    }
}
