//! Ground-truth differential for the sweep's local cut-point windows.
//!
//! On seeded random DAGs of at most 16 inputs, fingerprinted copies built
//! from every modification kind (Fig. 4 trigger insertions, plain and
//! complemented, and Fig. 5 reroutes) and wrong-cell faults on those
//! copies are verified with both simulation rungs switched off, so the
//! sweep — truth-table windows first, SAT for what they leave — decides
//! every verdict. Each verdict must match exhaustive `odcfp_logic`
//! simulation, and every counterexample must replay to different outputs.
//!
//! Every pair is also checked on a bare [`SweepEngine`] whose signatures
//! are one word (64 patterns) wide. Its signature classes are full of
//! pairs that are not in fact equal, so its windows face many false
//! candidates; a window that wrongly settled one would merge two
//! different functions and hide a fault from the ground truth.
//!
//! A third engine checks every pair under limits: a seeded small
//! conflict budget, an expired deadline and a fired interrupt. It pins
//! the sweep's contract that only those limits leave a check undecided:
//! an `Undecided` report must have spent its whole budget or seen its
//! deadline or interrupt fire.
//!
//! CI runs this file at `ODCFP_THREADS=1` and `8`; the sweep is
//! single-threaded, so the verdicts must not move.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use odcfp_core::faults::FaultInjector;
use odcfp_core::{Fingerprinter, Modification, Verdict, VerifyLevel, VerifyPolicy, VerifySession};
use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::sim;
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_sat::{Limits, MiterOutcome, SweepEngine, SweepOptions};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

const SEEDS: u64 = 32;

/// Wrong-cell faults injected into each fingerprinted copy.
const FAULTS_PER_COPY: usize = 3;

fn dag(seed: u64) -> Netlist {
    random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 10 + (seed % 7) as usize,
            gates: 80 + 10 * (seed % 6) as usize,
            outputs: 6,
            window: 24,
            seed: 0x5EE9_0000 + seed,
        },
    )
}

/// Brute-force functional comparison, independent of every verify path.
fn ground_truth_equal(a: &Netlist, b: &Netlist) -> bool {
    let n = a.primary_inputs().len();
    assert!(n <= 16, "ground truth needs a small input space");
    let patterns = sim::exhaustive_patterns(n);
    let (va, vb) = (a.simulate(&patterns), b.simulate(&patterns));
    a.primary_outputs()
        .iter()
        .zip(b.primary_outputs())
        .all(|(&oa, &ob)| va[oa.index()] == vb[ob.index()])
}

/// The modification kinds a copy is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Trigger,
    ComplementedTrigger,
    Reroute,
}

fn kind_of(m: &Modification) -> Kind {
    match m {
        Modification::InsertTrigger {
            complement: false, ..
        } => Kind::Trigger,
        Modification::InsertTrigger {
            complement: true, ..
        } => Kind::ComplementedTrigger,
        Modification::RerouteEarly { .. } => Kind::Reroute,
    }
}

/// A configuration vector taking, at every location in order, the first
/// candidate `wanted` accepts that still applies on top of the earlier
/// choices. Returns it with the number of locations it modifies.
fn greedy_configs(
    fp: &Fingerprinter,
    mut wanted: impl FnMut(&Modification) -> bool,
) -> (Vec<usize>, usize) {
    let mut configs = vec![0; fp.locations().len()];
    let mut modified = 0;
    for (i, loc) in fp.locations().iter().enumerate() {
        for (k, cand) in loc.candidates.iter().enumerate() {
            if !wanted(&cand.modification) {
                continue;
            }
            configs[i] = k + 1;
            if fp.embed_configs(&configs, VerifyLevel::None).is_ok() {
                modified += 1;
                break;
            }
            configs[i] = 0;
        }
    }
    (configs, modified)
}

/// The copies under test for one DAG: one per modification kind, one
/// seeded mix of all candidates, and the default selection with every
/// bit set. Each comes with a label.
fn copies(fp: &Fingerprinter, seed: u64, kinds_seen: &mut [usize; 3]) -> Vec<(String, Netlist)> {
    let mut out = Vec::new();
    for kind in [Kind::Trigger, Kind::ComplementedTrigger, Kind::Reroute] {
        let (configs, modified) = greedy_configs(fp, |m| kind_of(m) == kind);
        if modified == 0 {
            continue;
        }
        kinds_seen[kind as usize] += modified;
        let copy = fp
            .embed_configs(&configs, VerifyLevel::None)
            .expect("greedy configs apply");
        out.push((format!("{kind:?}"), copy));
    }
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x00C0_FFEE);
    let (mixed, modified) = greedy_configs(fp, |_| rng.next_below(2) == 0);
    if modified > 0 {
        let copy = fp
            .embed_configs(&mixed, VerifyLevel::None)
            .expect("greedy configs apply");
        out.push(("mixed".to_owned(), copy));
    }
    let all = fp.embed(&vec![true; fp.locations().len()]).expect("embed");
    out.push(("default".to_owned(), all.into_netlist()));
    out
}

/// Verifies `candidate` on the session and on the starved engine and
/// checks both verdicts against ground truth; returns whether it was
/// proven, and how many cut points a window's truth table settled.
fn check(
    session: &mut VerifySession,
    starved: &mut SweepEngine,
    golden: &Netlist,
    candidate: &Netlist,
    label: &str,
) -> (bool, usize) {
    // Both simulation rungs off: the sweep decides everything.
    let policy = VerifyPolicy {
        sim_words: 0,
        exhaustive_max_inputs: 0,
        ..VerifyPolicy::strict()
    };
    let truth = ground_truth_equal(golden, candidate);
    let sweep = starved
        .check(candidate, &Limits::default())
        .expect("valid pair");
    match sweep.outcome {
        MiterOutcome::Equivalent => {
            assert!(
                truth,
                "{label}: starved sweep proved a function-changing copy"
            )
        }
        MiterOutcome::Counterexample(inputs) => {
            assert!(!truth, "{label}: starved sweep refuted an equivalent copy");
            assert_ne!(golden.eval(&inputs), candidate.eval(&inputs), "{label}");
        }
        MiterOutcome::Undecided => panic!("{label}: unbounded sweep was undecided"),
    }
    let report = session.verify(candidate, &policy).expect("valid pair");
    assert!(report.stats.used_fast_path, "{label}: the sweep must run");
    assert!(
        report.stats.cut_points_simulated <= report.stats.cut_points_proven,
        "{label}: {:?}",
        report.stats
    );
    let equal = match report.verdict {
        Verdict::Proven => {
            assert!(truth, "{label}: proved a function-changing copy");
            true
        }
        Verdict::Refuted { counterexample } => {
            assert!(!truth, "{label}: refuted an equivalent copy");
            assert_ne!(
                golden.eval(&counterexample),
                candidate.eval(&counterexample),
                "{label}: counterexample does not witness the difference"
            );
            false
        }
        other => panic!("{label}: unbounded verify returned {other}"),
    };
    (
        equal,
        report.stats.cut_points_simulated + sweep.cut_points_simulated,
    )
}

/// Checks `candidate` on `limited` under a seeded conflict budget below
/// 16, an expired deadline and a fired `interrupt`, each call passing the
/// interrupt in its limits. A decided outcome must match ground truth; an
/// undecided one must have exhausted its budget or seen a limit fire.
/// Returns how many checks ran out of budget with no limit fired.
fn check_limited(
    limited: &mut SweepEngine,
    interrupt: &Arc<AtomicBool>,
    rng: &mut Xoshiro256,
    golden: &Netlist,
    candidate: &Netlist,
    label: &str,
) -> usize {
    let truth = ground_truth_equal(golden, candidate);
    let budget = rng.next_below(16) as u64;
    let mut exhausted = 0;
    for (budget, deadline, fire) in [
        (Some(budget), None, false),
        (None, Some(Instant::now()), false),
        (None, None, true),
    ] {
        interrupt.store(fire, Ordering::Release);
        let limits = Limits {
            conflicts: budget,
            deadline,
            interrupt: Some(Arc::clone(interrupt)),
        };
        let report = limited.check(candidate, &limits).expect("valid pair");
        let fired = fire || deadline.is_some_and(|d| Instant::now() >= d);
        let label = format!("{label} limited to {budget:?} conflicts, fired {fired}");
        match report.outcome {
            MiterOutcome::Equivalent => assert!(truth, "{label}: proved a changed copy"),
            MiterOutcome::Counterexample(inputs) => {
                assert!(!truth, "{label}: refuted an equivalent copy");
                assert_ne!(golden.eval(&inputs), candidate.eval(&inputs), "{label}");
            }
            MiterOutcome::Undecided => {
                let spent = budget.is_some_and(|b| report.conflicts >= b);
                assert!(
                    spent || fired,
                    "{label}: undecided after {} conflicts with no limit reached",
                    report.conflicts
                );
                exhausted += usize::from(!fired);
            }
        }
    }
    interrupt.store(false, Ordering::Release);
    exhausted
}

#[test]
fn sweep_verdicts_match_exhaustive_ground_truth() {
    let mut kinds_seen = [0usize; 3];
    let (mut proven, mut refuted, mut simulated, mut exhausted) = (0, 0, 0, 0);
    for seed in 0..SEEDS {
        let Ok(fp) = Fingerprinter::new(dag(seed)) else {
            continue;
        };
        if fp.locations().is_empty() {
            continue;
        }
        let golden = fp.base().clone();
        // One session per DAG, as campaigns run it: merges and learnt
        // clauses persist from copy to copy.
        let mut session = VerifySession::new(&golden).expect("session");
        let mut starved = SweepEngine::new(&golden, SweepOptions { sim_words: 1 });
        let mut limited = SweepEngine::new(&golden, SweepOptions::default());
        let interrupt = Arc::new(AtomicBool::new(false));
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x00B0_D6E7);
        let mut injector = FaultInjector::new(seed);
        for (label, copy) in copies(&fp, seed, &mut kinds_seen) {
            let label = format!("seed {seed} {label}");
            let (equal, settled) = check(&mut session, &mut starved, &golden, &copy, &label);
            exhausted += check_limited(&mut limited, &interrupt, &mut rng, &golden, &copy, &label);
            assert!(equal, "{label}: an ODC fingerprint is equivalent");
            proven += 1;
            simulated += settled;
            for f in 0..FAULTS_PER_COPY {
                let Some((faulty, gate)) = injector.random_wrong_cell(&copy) else {
                    continue;
                };
                let label = format!("{label} wrong cell #{f} at {gate:?}");
                let (equal, settled) = check(&mut session, &mut starved, &golden, &faulty, &label);
                exhausted +=
                    check_limited(&mut limited, &interrupt, &mut rng, &golden, &faulty, &label);
                simulated += settled;
                if equal {
                    proven += 1;
                } else {
                    refuted += 1;
                }
            }
        }
    }
    for (kind, seen) in [Kind::Trigger, Kind::ComplementedTrigger, Kind::Reroute]
        .into_iter()
        .zip(kinds_seen)
    {
        assert!(seen > 0, "no copy exercised {kind:?}");
    }
    assert!(
        proven > 0 && refuted > 0,
        "proven {proven}, refuted {refuted}"
    );
    assert!(simulated > 0, "no cut point was settled by a window");
    assert!(exhausted > 0, "no budgeted check ran out of conflicts");
}
