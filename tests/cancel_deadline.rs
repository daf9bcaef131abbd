//! Deadline propagation through the verify fast path: a `CancelToken`
//! armed with a short deadline must cut the `SweepEngine`/`SharedMiter`
//! ladder short — returning `Undecided`, promptly — rather than hang on
//! a hard SAT obligation. Exercised at `ODCFP_THREADS` 1 and 8, since
//! interrupt plumbing differs between the serial and parallel engines.
//!
//! All scenarios live in ONE `#[test]`: the thread override is
//! process-global, so the thread counts must run sequentially, not in
//! the test harness's parallel runner.

use std::time::{Duration, Instant};

use odcfp_core::{CancelToken, Fingerprinter, Verdict, VerifyPolicy, VerifySession};
use odcfp_netlist::CellLibrary;

/// A multiplier-class circuit: hard enough that strict verification
/// reaches the SAT rungs and a millisecond-scale deadline fires
/// mid-sweep rather than after a trivial structural proof.
fn hard_pair() -> (Fingerprinter, odcfp_netlist::Netlist) {
    let base = odcfp_synth::benchmarks::generate("c6288", CellLibrary::standard())
        .expect("known benchmark");
    let fp = Fingerprinter::new(base).expect("analysable");
    let copy = fp
        .embed(&vec![true; fp.locations().len()])
        .expect("embeddable");
    (fp, copy.into_netlist())
}

#[test]
fn short_deadline_mid_sweep_degrades_to_undecided_at_1_and_8_threads() {
    let (fp, candidate) = hard_pair();
    // Generous bound: orders of magnitude under an un-cancelled c6288
    // proof, far above scheduler noise.
    let grace = Duration::from_secs(10);

    for threads in [1usize, 8] {
        odcfp_analysis::engine::set_thread_override(Some(threads));

        // A fresh session per thread count: the sweep engine caches
        // proofs, and a warm strash hit would dodge the SAT rung this
        // test is aiming at.
        let mut session = VerifySession::new(fp.base()).expect("valid golden");

        // Deadline armed *before* the sweep starts and short enough to
        // fire inside it.
        let token = CancelToken::with_timeout(Duration::from_millis(3));
        let started = Instant::now();
        let report = session
            .verify_cancellable(&candidate, &VerifyPolicy::strict(), &token)
            .expect("cancellation is a verdict, not an error");
        let elapsed = started.elapsed();
        assert!(
            matches!(report.verdict, Verdict::Undecided { .. }),
            "threads={threads}: expected Undecided under a 3ms deadline, got {:?}",
            report.verdict
        );
        assert!(
            elapsed < grace,
            "threads={threads}: deadline did not cut the sweep short ({elapsed:?})"
        );
        assert!(
            token.is_cancelled(),
            "threads={threads}: the deadline should have fired"
        );

        // Pre-cancelled token: the ladder must return immediately.
        let mut session = VerifySession::new(fp.base()).expect("valid golden");
        let token = CancelToken::new();
        token.cancel();
        let started = Instant::now();
        let report = session
            .verify_cancellable(&candidate, &VerifyPolicy::strict(), &token)
            .expect("cancelled verify still reports");
        assert!(
            matches!(report.verdict, Verdict::Undecided { .. }),
            "threads={threads}: pre-cancelled token must yield Undecided, got {:?}",
            report.verdict
        );
        assert!(
            started.elapsed() < grace,
            "threads={threads}: pre-cancelled verify should return at once"
        );
    }

    // Restore the global override for any test that runs after us in
    // the same process.
    odcfp_analysis::engine::set_thread_override(None);

    // Control: with no deadline the same session/candidate pair proves
    // equivalence — the Undecideds above were the token's doing.
    let mut session = VerifySession::new(fp.base()).expect("valid golden");
    let report = session
        .verify_cancellable(&candidate, &VerifyPolicy::strict(), &CancelToken::new())
        .expect("verifies");
    assert!(
        matches!(report.verdict, Verdict::Proven),
        "control run without deadline must prove, got {:?}",
        report.verdict
    );
}
