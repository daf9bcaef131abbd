//! Fast-path/cold-path agreement suite: the sweep-based SAT rung
//! (strash-proven outputs, cut-point sweeping) and the incremental
//! [`VerifySession`] must return the *same verdict kind* as a naive cold
//! whole-circuit miter on every input we can throw at them — the PR 1
//! fault battery (stuck-at and wrong-cell faults, alone and inside
//! fingerprinted copies) and every malformed-corpus fixture that ever
//! survives the load pipeline. Counterexamples may differ between paths
//! (different solvers walk different models) but each must genuinely
//! witness the inequivalence.
//!
//! CI runs the whole workspace under both `ODCFP_THREADS=1` and
//! `ODCFP_THREADS=8`, so these properties are exercised at both ends of
//! the parallelism matrix.
//!
//! Two timed gates close the file. They are `#[ignore]`d because they
//! read wall time for the whole process; CI runs them in release, alone:
//! `cargo test --release -p odcfp-core --test verify_fastpath --
//! --ignored --test-threads=1`.

#[path = "corpus_fixtures.rs"]
mod corpus_fixtures;

use std::time::Instant;

use corpus_fixtures::{blif_fixtures, load_blif, load_verilog, verilog_fixtures};
use odcfp_core::faults::FaultInjector;
use odcfp_core::{verify_equivalent_report, Fingerprinter, Verdict, VerifyPolicy, VerifySession};
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

/// A strict policy with the simulation and exhaustive stages disabled,
/// so every verdict — proof *and* refutation — must come from the SAT
/// rung under test rather than the (shared) simulation stages.
fn sat_policy(fast: bool) -> VerifyPolicy {
    VerifyPolicy {
        sim_words: 0,
        exhaustive_max_inputs: 0,
        use_fast_path: fast,
        ..VerifyPolicy::strict()
    }
}

/// Collapses a verdict to its kind and, for refutations, checks the
/// counterexample actually witnesses the functional difference.
fn kind(verdict: &Verdict, golden: &Netlist, candidate: &Netlist, label: &str) -> &'static str {
    match verdict {
        Verdict::Proven => "proven",
        Verdict::Refuted { counterexample } => {
            assert_ne!(
                golden.eval(counterexample),
                candidate.eval(counterexample),
                "{label}: counterexample does not witness the difference"
            );
            "refuted"
        }
        other => panic!("{label}: strict policy must decide, got {other}"),
    }
}

/// The core property: cold miter, one-shot fast path, and incremental
/// session all agree on the verdict kind. Returns that kind.
fn paths_agree(
    session: &mut VerifySession,
    candidate: &Netlist,
    label: &str,
) -> &'static str {
    let golden = session.golden().clone();
    let cold = verify_equivalent_report(&golden, candidate, &sat_policy(false))
        .unwrap_or_else(|e| panic!("{label}: cold path errored: {e}"));
    let fast = verify_equivalent_report(&golden, candidate, &sat_policy(true))
        .unwrap_or_else(|e| panic!("{label}: fast path errored: {e}"));
    let incr = session
        .verify(candidate, &sat_policy(true))
        .unwrap_or_else(|e| panic!("{label}: session errored: {e}"));

    assert!(
        !cold.stats.used_fast_path,
        "{label}: cold baseline took the fast path"
    );
    assert!(
        fast.stats.used_fast_path,
        "{label}: fast policy fell back to the cold miter"
    );

    let cold_kind = kind(&cold.verdict, &golden, candidate, &format!("{label}/cold"));
    let fast_kind = kind(&fast.verdict, &golden, candidate, &format!("{label}/fast"));
    let incr_kind = kind(&incr.verdict, &golden, candidate, &format!("{label}/session"));
    assert_eq!(cold_kind, fast_kind, "{label}: fast path flipped the verdict");
    assert_eq!(cold_kind, incr_kind, "{label}: session flipped the verdict");
    cold_kind
}

fn small_base(seed: u64) -> Netlist {
    random_dag(CellLibrary::standard(), DagParams::small(seed))
}

#[test]
fn stuck_at_battery_verdicts_agree_across_paths() {
    let mut refuted = 0;
    for seed in 0..8 {
        let base = small_base(40 + seed);
        let mut session = VerifySession::new(&base).unwrap();
        let mut inj = FaultInjector::new(seed);
        let (faulty, net, value) = inj.random_stuck_at(&base).unwrap();
        faulty.validate().unwrap();
        let label = format!("stuck-at seed {seed} ({net:?}={value})");
        if paths_agree(&mut session, &faulty, &label) == "refuted" {
            refuted += 1;
        }
    }
    assert!(refuted >= 1, "no stuck-at instance was function-changing");
}

#[test]
fn wrong_cell_battery_verdicts_agree_across_paths() {
    let mut refuted = 0;
    for seed in 0..8 {
        let base = small_base(50 + seed);
        let mut session = VerifySession::new(&base).unwrap();
        let mut inj = FaultInjector::new(seed);
        let (faulty, gate) = inj.random_wrong_cell(&base).unwrap();
        faulty.validate().unwrap();
        let label = format!("wrong-cell seed {seed} ({gate:?})");
        if paths_agree(&mut session, &faulty, &label) == "refuted" {
            refuted += 1;
        }
    }
    assert!(refuted >= 1, "no wrong-cell instance was function-changing");
}

#[test]
fn fingerprinted_copies_prove_equivalent_on_every_path() {
    // The production fast-path workload: many function-preserving buyer
    // variants of one base, verified through a single reused session.
    let fp = Fingerprinter::new(small_base(60)).unwrap();
    let n = fp.locations().len();
    let mut session = VerifySession::new(fp.base()).unwrap();
    for buyer in 0..4u64 {
        let bits: Vec<bool> = (0..n).map(|i| (buyer >> (i % 4)) & 1 == 1).collect();
        let copy = fp.embed(&bits).unwrap();
        let verdict = paths_agree(&mut session, copy.netlist(), &format!("buyer {buyer}"));
        assert_eq!(verdict, "proven", "buyer {buyer}: copy is equivalent by construction");
    }
}

#[test]
fn faults_inside_fingerprinted_copies_agree_across_paths() {
    // A defect inside a *fingerprinted* die — the session's golden stays
    // the unmarked base, candidates mix equivalent and faulty variants.
    let fp = Fingerprinter::new(small_base(62)).unwrap();
    let copy = fp.embed(&vec![true; fp.locations().len()]).unwrap();
    let mut session = VerifySession::new(fp.base()).unwrap();
    let mut inj = FaultInjector::new(63);
    let mut refuted = 0;
    for round in 0..6 {
        let (faulty, _, _) = inj.random_stuck_at(copy.netlist()).unwrap();
        faulty.validate().unwrap();
        if paths_agree(&mut session, &faulty, &format!("copy-fault round {round}")) == "refuted" {
            refuted += 1;
        }
    }
    assert!(refuted >= 1, "no copy fault was function-changing");
}

#[test]
fn interleaved_verdicts_do_not_contaminate_the_session() {
    // Learned clauses from refuted candidates must not leak into later
    // proofs and vice versa: alternate equivalent and faulty candidates
    // through one session and re-check each against a fresh cold run.
    let base = small_base(70);
    let fp = Fingerprinter::new(base.clone()).unwrap();
    let n = fp.locations().len();
    let mut session = VerifySession::new(&base).unwrap();
    let mut inj = FaultInjector::new(71);
    for round in 0..4u64 {
        let copy = fp
            .embed(&(0..n).map(|i| (round + i as u64).is_multiple_of(2)).collect::<Vec<_>>())
            .unwrap();
        let verdict = paths_agree(&mut session, copy.netlist(), &format!("interleave copy {round}"));
        assert_eq!(verdict, "proven");
        let (faulty, _, _) = inj.random_stuck_at(&base).unwrap();
        paths_agree(&mut session, &faulty, &format!("interleave fault {round}"));
    }
}

#[test]
fn corpus_survivors_verify_identically_on_both_paths() {
    // Every malformed fixture is rejected today; this loop is the guard
    // for the day a parser regression lets one through. Any fixture that
    // *loads* must at minimum be provably equivalent to itself on the
    // cold path, the fast path, and a fresh session — a survivor that
    // flips verdicts between paths is two bugs, not one.
    let mut survivors = 0;
    for (name, src, _) in blif_fixtures() {
        if let Ok(netlist) = load_blif(&src) {
            survivors += 1;
            let mut session = VerifySession::new(&netlist).unwrap();
            let verdict = paths_agree(&mut session, &netlist, &format!("blif survivor {name}"));
            assert_eq!(verdict, "proven", "{name}: self-equivalence must hold");
        }
    }
    for (name, src, _) in verilog_fixtures() {
        if let Ok(netlist) = load_verilog(&src) {
            survivors += 1;
            let mut session = VerifySession::new(&netlist).unwrap();
            let verdict = paths_agree(&mut session, &netlist, &format!("verilog survivor {name}"));
            assert_eq!(verdict, "proven", "{name}: self-equivalence must hold");
        }
    }
    assert_eq!(survivors, 0, "corpus fixture unexpectedly parsed — extend this test");
}

/// Deterministic per-buyer fingerprint bits (xorshift64; no clocks or
/// OS randomness, so reruns embed the same copies).
fn buyer_bits(buyer: u64, n: usize) -> Vec<bool> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (buyer + 1).wrapping_mul(0x0DCF_5EED);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect()
}

/// A named Table II benchmark and `n` fingerprinted copies of it.
fn benchmark_buyers(name: &str, n: u64) -> (Netlist, Vec<Netlist>) {
    let base =
        odcfp_synth::benchmarks::generate(name, CellLibrary::standard()).expect("known benchmark");
    let fp = Fingerprinter::new(base.clone()).expect("valid benchmark");
    let locations = fp.locations().len();
    let buyers = (0..n)
        .map(|b| {
            fp.embed(&buyer_bits(b, locations))
                .expect("embed preserves function")
                .into_netlist()
        })
        .collect();
    (base, buyers)
}

/// Wall time of one fast-path session sweep: a fresh [`VerifySession`]
/// verifies every buyer under the strict policy.
fn session_sweep(base: &Netlist, buyers: &[Netlist]) -> (f64, Vec<Verdict>) {
    let policy = VerifyPolicy::strict();
    let t0 = Instant::now();
    let mut session = VerifySession::new(base).expect("valid benchmark");
    let verdicts = buyers
        .iter()
        .map(|b| {
            session
                .verify(std::hint::black_box(b), &policy)
                .expect("verify")
                .verdict
        })
        .collect();
    (t0.elapsed().as_secs_f64(), verdicts)
}

/// Regression guard (DESIGN.md §11): c6288's whole-circuit miter is
/// intractable for CDCL, so the cold baseline is capped at 2,000
/// conflicts per buyer. On 8 buyers the fast-path session must prove
/// every copy and still finish before that capped cold miter.
#[test]
#[ignore = "timed gate; run in release, alone (--ignored --test-threads=1)"]
fn c6288_fast_path_beats_the_capped_cold_miter() {
    const CAP: u64 = 2_000;
    let (base, buyers) = benchmark_buyers("c6288", 8);
    let cold_policy = VerifyPolicy {
        use_fast_path: false,
        sat_initial_conflicts: Some(CAP),
        sat_conflict_cap: Some(CAP),
        ..VerifyPolicy::strict()
    };
    let t0 = Instant::now();
    for buyer in &buyers {
        verify_equivalent_report(&base, std::hint::black_box(buyer), &cold_policy)
            .expect("cold verify");
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let (fast_s, verdicts) = session_sweep(&base, &buyers);
    eprintln!(
        "c6288 guard: fast {:.1} ms vs capped cold {:.1} ms ({:.1}x)",
        fast_s * 1e3,
        cold_s * 1e3,
        cold_s / fast_s
    );
    for (i, v) in verdicts.iter().enumerate() {
        assert!(
            matches!(v, Verdict::Proven),
            "c6288 guard: fast path did not prove buyer {i}: {v}"
        );
    }
    assert!(
        fast_s < cold_s,
        "c6288 guard: fast-path session {:.1} ms is not below the cold miter capped \
         at {CAP} conflicts per buyer ({:.1} ms)",
        fast_s * 1e3,
        cold_s * 1e3
    );
}

/// Disabled-instrumentation budget (DESIGN.md §12): the tracing call
/// sites a des 8-buyer session sweep crosses must cost under 1% of its
/// untraced wall time when no sink is installed.
///
/// The budget is (events the sweep emits under `capture`) x (worst
/// per-call cost of a disabled span, count or point), against the
/// median of three untraced sweeps. Bounding the call-site cost this
/// way is what users who never trace pay; diffing two wall clocks
/// would drown a sub-percent effect in run-to-run noise.
#[test]
#[ignore = "timed gate; run in release, alone (--ignored --test-threads=1)"]
fn disabled_tracing_costs_under_one_percent_of_a_des_sweep() {
    const BUDGET_PCT: f64 = 1.0;
    let (base, buyers) = benchmark_buyers("des", 8);
    assert!(
        !odcfp_obs::enabled(),
        "overhead gate must start with tracing disabled (unset ODCFP_TRACE)"
    );
    let mut runs: Vec<f64> = (0..3).map(|_| session_sweep(&base, &buyers).0).collect();
    runs.sort_by(f64::total_cmp);
    let untraced_s = runs[1];

    // Each call site emits exactly one event under a capture sink
    // (spans emit on drop), so the event count is the call-site count.
    let (_, events) =
        odcfp_obs::capture(|| session_sweep(&base, &buyers)).expect("no competing trace sink");

    // A disabled site still evaluates its arguments and takes the
    // `enabled()` branch, exactly what an untraced binary pays.
    fn per_call(mut f: impl FnMut()) -> f64 {
        const ITERS: u32 = 1_000_000;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        t0.elapsed().as_secs_f64() / f64::from(ITERS)
    }
    let span_s = per_call(|| {
        let mut span = odcfp_obs::span(std::hint::black_box("bench.noop"));
        span.field("k", 1u64);
    });
    let count_s = per_call(|| odcfp_obs::count(std::hint::black_box("bench.ctr"), 1));
    let point_s = per_call(|| {
        odcfp_obs::point(std::hint::black_box("bench.pt"))
            .field("a", 1u64)
            .emit();
    });
    let worst_s = span_s.max(count_s).max(point_s);
    let pct = 100.0 * worst_s * events.len() as f64 / untraced_s;
    eprintln!(
        "des overhead: sweep {:.1} ms untraced, {} call sites, worst shape {:.2} ns \
         (span {:.2} / count {:.2} / point {:.2}) -> {pct:.4}% (budget {BUDGET_PCT}%)",
        untraced_s * 1e3,
        events.len(),
        worst_s * 1e9,
        span_s * 1e9,
        count_s * 1e9,
        point_s * 1e9,
    );
    assert!(
        pct < BUDGET_PCT,
        "overhead budget: disabled tracing call sites cost {pct:.4}% of the des sweep \
         (budget {BUDGET_PCT}%)"
    );
}
