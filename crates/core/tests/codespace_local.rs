//! Differential suite for the local code-space proof: on seeded random
//! DAGs small enough for exhaustive ground truth, a code space proven by
//! local obligations must also be proven by the monolithic free-selector
//! miter (the independent reference), every code must simulate to the
//! golden function, and tampered superpositions must get the same
//! outcome kind from both, with every witness and every per-code
//! verdict replayed against exhaustive simulation.
//!
//! CI runs this file at `ODCFP_THREADS=1` and `8`; the proof itself is
//! single-threaded, so the verdicts must not move.

use odcfp_core::faults::substitute_cell;
use odcfp_core::{CancelToken, CodeSpace, CodeSpaceOutcome, Fingerprinter, Verdict, VerifySession};
use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::{sim, PrimitiveFn};
use odcfp_netlist::{CellLibrary, GateId, NetDriver, Netlist};
use odcfp_sat::{MiterOutcome, SelectableInput, SharedMiter};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

const SEEDS: u64 = 24;

fn dag(seed: u64) -> Netlist {
    random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 10 + (seed % 7) as usize,
            gates: 80 + 10 * (seed % 6) as usize,
            outputs: 6,
            window: 24,
            seed: 0x10CA_1000 + seed,
        },
    )
}

/// Exhaustive output streams of `netlist` with the superposition's
/// selectable inputs pinned to `code`: an unselected input reads its
/// plane-neutral constant. Written against the netlist alone, not the
/// proof code, so it is an independent reference.
fn simulate_code(
    netlist: &Netlist,
    selectable: &[SelectableInput],
    code: &[bool],
) -> Vec<Vec<u64>> {
    let n = netlist.primary_inputs().len();
    assert!(n <= 16, "ground truth needs a small input space");
    let patterns = sim::exhaustive_patterns(n);
    let words = patterns[0].len();
    let mut values = vec![vec![0u64; words]; netlist.num_nets()];
    for (pi, stream) in netlist.primary_inputs().iter().zip(&patterns) {
        values[pi.index()] = stream.clone();
    }
    for (id, net) in netlist.nets() {
        if let NetDriver::Const(v) = net.driver() {
            values[id.index()] = vec![if v { u64::MAX } else { 0 }; words];
        }
    }
    for &g in netlist.cached_topo().expect("acyclic") {
        let gate = netlist.gate(g);
        let f = netlist.gate_fn(g);
        let mut out = vec![0u64; words];
        for (w, slot) in out.iter_mut().enumerate() {
            let ins: Vec<u64> = gate
                .inputs()
                .iter()
                .enumerate()
                .map(
                    |(p, n)| match selectable.iter().find(|s| s.gate == g && s.position == p) {
                        Some(s) if !code[s.group] => {
                            if s.neutral {
                                u64::MAX
                            } else {
                                0
                            }
                        }
                        _ => values[n.index()][w],
                    },
                )
                .collect();
            *slot = f.eval_words(&ins);
        }
        values[gate.output().index()] = out;
    }
    netlist
        .primary_outputs()
        .iter()
        .map(|po| values[po.index()].clone())
        .collect()
}

fn golden_streams(golden: &Netlist) -> Vec<Vec<u64>> {
    simulate_code(golden, &[], &[])
}

/// The output values `streams` hold for one primary-input assignment.
fn row(streams: &[Vec<u64>], inputs: &[bool]) -> Vec<bool> {
    let r = inputs
        .iter()
        .rev()
        .fold(0, |r, &bit| r << 1 | usize::from(bit));
    streams
        .iter()
        .map(|s| s[r / 64] >> (r % 64) & 1 == 1)
        .collect()
}

/// Every code when the space is small, else all-zeros, all-ones and a
/// seeded sample.
fn sample_codes(groups: usize, seed: u64) -> Vec<Vec<bool>> {
    if groups <= 6 {
        return (0u32..1 << groups)
            .map(|c| (0..groups).map(|i| c >> i & 1 == 1).collect())
            .collect();
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut codes = vec![vec![false; groups], vec![true; groups]];
    codes.extend((0..14).map(|_| (0..groups).map(|_| rng.next_bool()).collect()));
    codes
}

fn monolithic(golden: &Netlist, superposed: &Netlist, space: &CodeSpace) -> MiterOutcome {
    let mut shared = SharedMiter::build(golden);
    let variant = shared
        .add_selectable_variant(superposed, space.selectable(), space.num_groups())
        .expect("interfaces match");
    shared.check(variant.id(), None, None)
}

fn miter_kind(outcome: &MiterOutcome) -> &'static str {
    match outcome {
        MiterOutcome::Equivalent => "proven_all",
        MiterOutcome::Counterexample(_) => "some_code_differs",
        MiterOutcome::Undecided => "undecided",
    }
}

#[test]
fn local_proofs_agree_with_the_monolithic_miter_and_ground_truth() {
    let mut settled_by_claims = 0;
    let mut spaces = 0;
    for seed in 0..SEEDS {
        let Ok(fp) = Fingerprinter::new(dag(seed)) else {
            continue;
        };
        if fp.selected_modifications().is_empty() {
            continue;
        }
        spaces += 1;
        let space = CodeSpace::build(&fp).expect("code space");
        let mut session = VerifySession::new(fp.base()).expect("session");
        let proof = space
            .prove(&mut session, None, &CancelToken::new())
            .expect("proof");
        assert_eq!(
            proof.outcome,
            CodeSpaceOutcome::ProvenAll,
            "seed {seed}: an ODC-justified code space is equivalent"
        );
        assert_eq!(
            monolithic(fp.base(), space.superposed(), &space),
            MiterOutcome::Equivalent,
            "seed {seed}: a local proof the monolithic miter refutes is unsound"
        );
        if proof.escalated == 0 {
            settled_by_claims += 1;
        }
        let golden = golden_streams(fp.base());
        for code in sample_codes(space.num_groups(), seed) {
            let copy = fp.embed(&code).expect("embed");
            assert_eq!(
                simulate_code(copy.netlist(), &[], &[]),
                golden,
                "seed {seed}: embedded code {code:?} differs from the golden"
            );
            assert_eq!(
                simulate_code(space.superposed(), space.selectable(), &code),
                golden,
                "seed {seed}: superposition pinned to {code:?} differs"
            );
        }
    }
    assert!(
        spaces >= SEEDS as usize / 2,
        "too few DAGs had locations: {spaces}"
    );
    assert_eq!(
        settled_by_claims, spaces,
        "every random-DAG code space should settle without escalating"
    );
}

/// Gates a wrong-cell fault can land on: "inside" a location region (a
/// widened target or a primary gate) or outside every region.
fn tamper_sites(fp: &Fingerprinter, space: &CodeSpace, seed: u64) -> Vec<(GateId, &'static str)> {
    let mut inside: Vec<GateId> = space.selectable().iter().map(|s| s.gate).collect();
    inside.extend(fp.locations().iter().map(|l| l.primary_gate));
    inside.sort();
    inside.dedup();
    let mut outside: Vec<GateId> = fp
        .base()
        .gates()
        .map(|(g, _)| g)
        .filter(|g| !inside.contains(g))
        .collect();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x7A3F);
    rng.shuffle(&mut inside);
    rng.shuffle(&mut outside);
    let mut sites: Vec<(GateId, &'static str)> =
        inside.into_iter().take(3).map(|g| (g, "inside")).collect();
    sites.extend(outside.into_iter().take(3).map(|g| (g, "outside")));
    sites
}

#[test]
fn wrong_cell_tampers_get_the_same_outcome_on_both_paths() {
    let mut refuted = 0;
    for seed in 0..SEEDS {
        let Ok(fp) = Fingerprinter::new(dag(seed)) else {
            continue;
        };
        if fp.selected_modifications().is_empty() {
            continue;
        }
        let space = CodeSpace::build(&fp).expect("code space");
        let golden = golden_streams(fp.base());
        for (gate, site) in tamper_sites(&fp, &space, seed) {
            let Some(tampered) = substitute_cell(space.superposed(), gate) else {
                continue;
            };
            let mut session = VerifySession::new(fp.base()).expect("session");
            let proof = session
                .prove_code_space(
                    &tampered,
                    space.selectable(),
                    space.num_groups(),
                    None,
                    &CancelToken::new(),
                )
                .expect("tampered proof");
            let reference = monolithic(fp.base(), &tampered, &space);
            assert_eq!(
                proof.outcome.name(),
                miter_kind(&reference),
                "seed {seed}: {site} tamper at {gate:?}: local proof and monolithic miter disagree"
            );
            match &proof.outcome {
                CodeSpaceOutcome::ProvenAll => {
                    // A masked fault: every code must still simulate to
                    // the golden function.
                    for code in sample_codes(space.num_groups(), seed) {
                        assert_eq!(
                            simulate_code(&tampered, space.selectable(), &code),
                            golden,
                            "seed {seed}: {site} tamper at {gate:?} proven, yet code {code:?} differs"
                        );
                    }
                }
                CodeSpaceOutcome::SomeCodeDiffers {
                    counterexample,
                    code,
                } => {
                    refuted += 1;
                    assert!(
                        proof.escalated > 0 && proof.unsettled.is_some(),
                        "seed {seed}: only an escalation refutes, naming the gate that failed to settle"
                    );
                    assert_ne!(
                        row(
                            &simulate_code(&tampered, space.selectable(), code),
                            counterexample
                        ),
                        row(&golden, counterexample),
                        "seed {seed}: {site} tamper at {gate:?}: the witness does not replay"
                    );
                    let token = CancelToken::new();
                    for code in sample_codes(space.num_groups(), seed) {
                        let streams = simulate_code(&tampered, space.selectable(), &code);
                        match session.check_code(&proof, &code, None, &token) {
                            Verdict::Refuted { counterexample: cex } => assert_ne!(
                                row(&streams, &cex),
                                row(&golden, &cex),
                                "seed {seed}: code {code:?} refuted by a witness that does not replay"
                            ),
                            Verdict::Proven => assert_eq!(streams, golden, "seed {seed}: {code:?}"),
                            other => panic!("seed {seed}: unbudgeted check undecided: {other:?}"),
                        }
                    }
                }
                CodeSpaceOutcome::Undecided => panic!("unbudgeted proofs decide"),
            }
        }
    }
    assert!(refuted > 0, "the battery never broke a proof");
}

/// The golden netlist, its superposition and selectable map for the
/// satisfiability don't-care case described on the test below.
fn sdc_superposition() -> (Netlist, Netlist, [SelectableInput; 1]) {
    let build = |sdc: bool| {
        let mut n = Netlist::new("sdc", CellLibrary::standard());
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).expect("and2");
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).expect("or2");
        let n1 = n.add_gate("n1", and2, &[a, b]);
        let n2 = n.add_gate("n2", or2, &[a, b]);
        let (o1, o2) = (n.gate_output(n1), n.gate_output(n2));
        let g = n.add_gate("g", and2, &[o1, if sdc { o1 } else { o2 }]);
        // A widened gate with a selector, so the space has one location.
        let h = n.add_gate("h", or2, &[n.gate_output(g), c]);
        n.set_primary_output(n.gate_output(h));
        n
    };
    let golden = build(false);
    let mut superposed = build(true);
    let h = superposed.gate_by_name("h").expect("h");
    let (g_out, c) = (
        superposed.gate(h).inputs()[0],
        superposed.primary_inputs()[2],
    );
    let or3 = superposed
        .library()
        .cell_for(PrimitiveFn::Or, 3)
        .expect("or3");
    // OR-plane literal c again: redundant for either selector value.
    superposed.replace_gate(h, or3, &[g_out, c, c]);
    let selectable = [SelectableInput {
        gate: h,
        position: 2,
        group: 0,
        neutral: false,
    }];
    (golden, superposed, selectable)
}

/// A superposition equivalent only through a satisfiability don't-care:
/// `g = AND(n1, n2)` with `n1 = AND(a, b)` and `n2 = OR(a, b)` becomes
/// `AND(n1, n1)` — equal because `n1` implies `n2`, which no free cut
/// over `{n1, n2}` can see. No claim settles the output, so it escalates
/// to an obligation over `{a, b, c}`, which proves it; the monolithic
/// reference agrees.
#[test]
fn satisfiability_dont_care_settles_by_escalation() {
    let (golden, superposed, selectable) = sdc_superposition();
    let mut session = VerifySession::new(&golden).expect("session");
    let token = CancelToken::new();
    let proof = session
        .prove_code_space(&superposed, &selectable, 1, None, &token)
        .expect("proof");
    assert_eq!(
        proof.escalated, 1,
        "an SDC-only equivalence settles no claim"
    );
    assert_eq!(proof.unsettled.as_deref(), Some("g"));
    let mut shared = SharedMiter::build(&golden);
    let variant = shared
        .add_selectable_variant(&superposed, &selectable, 1)
        .expect("variant");
    assert_eq!(
        proof.outcome.name(),
        miter_kind(&shared.check(variant.id(), None, None))
    );
    assert_eq!(proof.outcome, CodeSpaceOutcome::ProvenAll);
    for code in [[false], [true]] {
        assert!(session.check_code(&proof, &code, None, &token).is_pass());
    }
}

/// A fired token leaves the proof Undecided, with no obligation spent.
/// Each code checked against it under a live token is decided by a
/// pinned re-proof, and the same session still proves the whole space
/// once asked with a live token.
#[test]
fn cancelled_proof_is_undecided_and_builds_no_fallback() {
    let (golden, superposed, selectable) = sdc_superposition();
    let mut session = VerifySession::new(&golden).expect("session");
    let fired = CancelToken::new();
    fired.cancel();
    let proof = session
        .prove_code_space(&superposed, &selectable, 1, None, &fired)
        .expect("a cancelled proof is an outcome, not an error");
    assert_eq!(proof.outcome, CodeSpaceOutcome::Undecided);
    assert_eq!(proof.obligations, 0);
    assert_eq!(proof.conflicts, 0);
    let live = CancelToken::new();
    for code in [[false], [true]] {
        assert_eq!(
            session.check_code(&proof, &code, None, &live),
            Verdict::Proven,
            "a live token decides the code by a pinned re-proof"
        );
    }
    let proof = session
        .prove_code_space(&superposed, &selectable, 1, None, &live)
        .expect("proof");
    assert_eq!(proof.outcome, CodeSpaceOutcome::ProvenAll);
}
