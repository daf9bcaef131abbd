//! Verify-ladder differential suite for the solver tier: on
//! fault-battery circuits, the ladder and a cold whole-circuit miter must
//! both match brute-force ground truth at every analysis thread count.
//!
//! This is the end-to-end face of `crates/sat/tests/differential.rs`:
//! the thread count changes how the analysis is scheduled, never the
//! conclusion, so campaign journals and attack scorecards stay
//! byte-identical at any `ODCFP_THREADS`.

use odcfp_analysis::engine::set_thread_override;
use odcfp_core::faults::FaultInjector;
use odcfp_core::{verify_equivalent, Verdict, VerifyPolicy};
use odcfp_logic::sim;
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_sat::{Limits, Miter, MiterOutcome};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

/// Brute-force functional comparison — the independent ground truth.
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

/// The circuit pairs under test: clean copies and injected faults, some
/// function-preserving (ODC-masked) and some function-changing.
fn battery() -> Vec<(String, Netlist, Netlist)> {
    let mut pairs = Vec::new();
    for seed in [3u64, 7, 11] {
        let base = random_dag(CellLibrary::standard(), DagParams::small(seed));
        pairs.push((format!("clean_{seed}"), base.clone(), base.clone()));
        let mut inj = FaultInjector::new(seed);
        let (stuck, net, value) = inj.random_stuck_at(&base).expect("injectable");
        pairs.push((format!("stuck_{seed}_{net:?}={value}"), base.clone(), stuck));
        let (wrong, gate) = inj.random_wrong_cell(&base).expect("injectable");
        pairs.push((format!("wrong_{seed}_{gate:?}"), base, wrong));
    }
    pairs
}

/// Verdicts compare by kind; refutations also prove themselves on the
/// netlists, so two refuting paths agree even when their counterexamples
/// differ.
fn check(golden: &Netlist, candidate: &Netlist, outcome: MiterOutcome, label: &str) {
    let truth = ground_truth_equal(golden, candidate);
    match outcome {
        MiterOutcome::Equivalent => {
            assert!(truth, "{label}: proved a function-changing fault");
        }
        MiterOutcome::Counterexample(counterexample) => {
            assert!(!truth, "{label}: refuted a harmless pair");
            assert_ne!(
                golden.eval(&counterexample),
                candidate.eval(&counterexample),
                "{label}: counterexample does not witness the difference"
            );
        }
        MiterOutcome::Undecided => panic!("{label}: an unbounded solve was undecided"),
    }
}

/// The ladder's verdict as the outcome of a miter.
fn ladder(golden: &Netlist, candidate: &Netlist) -> MiterOutcome {
    match verify_equivalent(golden, candidate, &VerifyPolicy::strict()).expect("valid pair") {
        Verdict::Proven => MiterOutcome::Equivalent,
        Verdict::Refuted { counterexample } => MiterOutcome::Counterexample(counterexample),
        other => panic!("strict verify returned {other}"),
    }
}

/// A cold whole-circuit miter's verdict, the ladder's reference.
fn cold(golden: &Netlist, candidate: &Netlist) -> MiterOutcome {
    Miter::build(golden, candidate)
        .expect("same interface")
        .solve(&Limits::default())
}

/// One test (not one per axis) so the global thread override is never
/// mutated concurrently by the harness's parallel test runner.
#[test]
fn thread_counts_agree_with_ground_truth() {
    let pairs = battery();
    for threads in [1usize, 8] {
        set_thread_override(Some(threads));
        for (name, golden, candidate) in &pairs {
            // Each pair is decided twice: through the ladder and through
            // a cold whole-circuit miter.
            let outcomes = [
                ("ladder", ladder(golden, candidate)),
                ("cold", cold(golden, candidate)),
            ];
            for (path, outcome) in outcomes {
                check(
                    golden,
                    candidate,
                    outcome,
                    &format!("{name} @{threads}t {path}"),
                );
            }
        }
    }
    set_thread_override(None);
}
