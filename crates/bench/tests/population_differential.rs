//! Benchmark-scale differential suite for codebook batch verification:
//! the code-space proof plus per-code combination checks must
//! agree verdict-for-verdict with the per-buyer [`VerifySession`] path
//! that materializes each fingerprinted netlist, on 64-buyer sweeps over
//! c6288 and des and under the PR 1 fault battery (wrong-cell faults in
//! the superposed encoding, bit-flipped buyer codes).
//!
//! The full-size sweeps run in release mode from CI's population smoke
//! job (`cargo test --release -p odcfp-bench --test population_differential
//! -- --ignored`); a small random-DAG sweep keeps the same property in
//! the debug-mode tier-1 run.

use odcfp_bench::netlist_for;
use odcfp_core::faults::FaultInjector;
use odcfp_core::{
    artifact_identity, CancelToken, CodeSpace, CodeSpaceOutcome, CodeSpaceProof, Fingerprinter,
    Verdict, VerifyPolicy, VerifySession,
};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{CellLibrary, Digest128};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

const BUYERS: u64 = 64;

/// Deterministic buyer codes, mirroring the campaign's seed schedule
/// (`seed ^ (buyer + 1) * golden-ratio` feeding one xoshiro bool per
/// location).
fn buyer_code(seed: u64, buyer: u64, locations: usize) -> Vec<bool> {
    let mixed = seed ^ (buyer + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = Xoshiro256::seed_from_u64(mixed);
    (0..locations).map(|_| rng.next_bool()).collect()
}

fn verdict_kind(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Proven => "proven",
        Verdict::Refuted { .. } => "refuted",
        _ => "undecided",
    }
}

/// The core property: for every buyer code, `check_code` against the
/// code-space proof and a strict per-buyer verify of the materialized
/// netlist return the same verdict kind (and on these circuits, that
/// kind is `proven` — the mint schedule only emits authorized codes).
/// Returns the unbudgeted proof, for its work counters.
fn sweep_agrees(name: &str, netlist: odcfp_netlist::Netlist, seed: u64) -> CodeSpaceProof {
    let fp = Fingerprinter::new(netlist).expect("fingerprinter");
    let locations = fp.selected_modifications().len();
    assert!(locations > 0, "{name}: no fingerprint locations");
    let space = CodeSpace::build(&fp).expect("code space");
    let mut session = VerifySession::new(fp.base()).expect("session");
    let token = CancelToken::new();
    let proof = space.prove(&mut session, None, &token).expect("proof");
    assert_eq!(
        proof.outcome,
        CodeSpaceOutcome::ProvenAll,
        "{name}: ODC-justified code space must prove"
    );

    let golden_digest = Digest128::of(name.as_bytes());
    let mut codes = std::collections::HashSet::new();
    let mut identities = std::collections::HashSet::new();
    let mut faults = FaultInjector::new(seed ^ 0xFA17);
    for buyer in 0..BUYERS {
        let bits = buyer_code(seed, buyer, locations);
        let batch = session.check_code(&proof, &bits, None, &token);
        let copy = fp.embed(&bits).expect("embed");
        let per_buyer = session
            .verify(copy.netlist(), &VerifyPolicy::strict())
            .expect("per-buyer verify")
            .verdict;
        assert_eq!(
            verdict_kind(&batch),
            verdict_kind(&per_buyer),
            "{name} buyer {buyer}: batch and per-buyer verdicts diverge"
        );
        assert!(
            matches!(batch, Verdict::Proven),
            "{name} buyer {buyer}: authorized code must prove"
        );

        // Fault battery, code tier: a bit-flipped code is still inside
        // the proven space (equivalence holds) but its artifact identity
        // must separate from the honest buyer's.
        if let Some((flipped, _)) = faults.random_bit_flip(&bits) {
            let tampered = session.check_code(&proof, &flipped, None, &token);
            assert!(matches!(tampered, Verdict::Proven));
            assert_ne!(
                artifact_identity(golden_digest, &bits),
                artifact_identity(golden_digest, &flipped),
                "{name} buyer {buyer}: identity digest must catch a code flip"
            );
        }
        // Identity digests must be injective over distinct codes (buyers
        // can legitimately repeat a code when 2^L < population).
        if codes.insert(bits.clone()) {
            assert!(
                identities.insert(artifact_identity(golden_digest, &bits)),
                "{name} buyer {buyer}: duplicate identity digest for a fresh code"
            );
        }
    }
    proof
}

/// The local proof's pinned work: (obligations, conflicts, escalated).
fn work(proof: &CodeSpaceProof) -> (usize, u64, usize) {
    (proof.obligations, proof.conflicts, proof.escalated)
}

/// Fault battery, netlist tier: tamper the superposed encoding with a
/// wrong-cell fault outside the selectable inputs. The code-space proof
/// must now fail (`SomeCodeDiffers` or a per-code refutation), and every
/// per-code verdict must match a strict per-buyer verify of the equally
/// tampered materialized netlist — verdict for verdict.
fn fault_battery_agrees(name: &str, netlist: odcfp_netlist::Netlist, seed: u64) {
    let fp = Fingerprinter::new(netlist).expect("fingerprinter");
    let locations = fp.selected_modifications().len();
    let space = CodeSpace::build(&fp).expect("code space");
    let mut faults = FaultInjector::new(seed);
    // Deterministically redraw until the fault lands off the widened
    // gates, so the same substitution applies cleanly to both the
    // superposed encoding and each materialized per-buyer copy.
    let (tampered_superposed, gate) = std::iter::from_fn(|| {
        Some(faults.random_wrong_cell(space.superposed()).expect("substitutable gate"))
    })
    .take(32)
    .find(|(_, g)| space.selectable().iter().all(|s| s.gate != *g))
    .expect("a non-selectable gate within 32 draws");

    let mut session = VerifySession::new(fp.base()).expect("session");
    let token = CancelToken::new();
    let proof = session
        .prove_code_space(
            &tampered_superposed,
            space.selectable(),
            space.num_groups(),
            None,
            &token,
        )
        .expect("tampered proof");
    assert!(
        !matches!(proof.outcome, CodeSpaceOutcome::ProvenAll),
        "{name}: wrong-cell fault must break the code-space proof"
    );

    for buyer in 0..16u64 {
        let bits = buyer_code(seed, buyer, locations);
        let batch = session.check_code(&proof, &bits, None, &token);
        // Per-buyer reference: embed the same code, then apply the same
        // wrong-cell fault to the materialized netlist.
        let copy = fp.embed(&bits).expect("embed");
        let tampered_copy = odcfp_core::faults::substitute_cell(copy.netlist(), gate)
            .expect("same gate must substitute in the materialized copy");
        let per_buyer = session
            .verify(&tampered_copy, &VerifyPolicy::strict())
            .expect("per-buyer verify")
            .verdict;
        assert_eq!(
            verdict_kind(&batch),
            verdict_kind(&per_buyer),
            "{name} buyer {buyer}: fault-battery verdicts diverge"
        );
    }
}

#[test]
fn small_sweep_batch_matches_per_buyer() {
    let netlist = random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 10,
            gates: 90,
            outputs: 6,
            window: 24,
            seed: 508,
        },
    );
    sweep_agrees("random-dag", netlist, 11);
}

#[test]
#[ignore = "benchmark scale; run in release from CI's population job"]
fn des_sweep_batch_matches_per_buyer() {
    let proof = sweep_agrees("des", netlist_for("des"), 2015);
    assert_eq!(work(&proof), (2_000, 129, 0));
}

#[test]
#[ignore = "benchmark scale; run in release from CI's population job"]
fn des_fault_battery_batch_matches_per_buyer() {
    fault_battery_agrees("des", netlist_for("des"), 0xBA77);
}

/// c6288 is the known-intractable *whole-circuit* miter (DESIGN.md §11),
/// and the monolithic free-selector code-space miter exhausts any
/// reasonable budget on it too. Its code space settles locally: every
/// location is a small obligation (a 4-variable truth table each), so
/// the budgeted proof must come back `ProvenAll` with no output
/// escalated, and the strong contract applies — the full sweep agrees
/// with per-buyer verification.
///
/// The per-buyer fallback leg stays tested here anyway, because it is
/// what a delta campaign runs after `CodeSpaceFallback` on a circuit
/// whose space does not settle locally: at the same 20k budget the
/// per-buyer fast path must prove every authorized buyer and refute the
/// fault battery exactly as in full-artifact mode.
#[test]
#[ignore = "benchmark scale; run in release from CI's population job"]
fn c6288_budgeted_proof_falls_back_to_per_buyer() {
    let name = "c6288";
    let fp = Fingerprinter::new(netlist_for(name)).expect("fingerprinter");
    let locations = fp.selected_modifications().len();
    let space = CodeSpace::build(&fp).expect("code space");
    let mut session = VerifySession::new(fp.base()).expect("session");
    let token = CancelToken::new();
    let proof = space
        .prove(&mut session, Some(20_000), &token)
        .expect("budgeted proof");
    assert_eq!(
        proof.outcome,
        CodeSpaceOutcome::ProvenAll,
        "{name}: the code space settles by local obligations"
    );
    assert_eq!(work(&proof), (1_412, 0, 0));
    let proof = sweep_agrees(name, netlist_for(name), 2015);
    assert_eq!(work(&proof), (1_412, 0, 0));

    // Fallback leg: the per-buyer fast path decides all 64 buyers under
    // the same budget ...
    let policy = VerifyPolicy::budgeted(20_000);
    for buyer in 0..BUYERS {
        let bits = buyer_code(2015, buyer, locations);
        let copy = fp.embed(&bits).expect("embed");
        let verdict = session
            .verify(copy.netlist(), &policy)
            .expect("per-buyer verify")
            .verdict;
        assert!(
            matches!(verdict, Verdict::Proven),
            "{name} buyer {buyer}: fallback path must prove an authorized code"
        );
    }
    // ... and still catches the fault battery.
    let mut faults = FaultInjector::new(0xBA77);
    let copy = fp
        .embed(&buyer_code(2015, 0, locations))
        .expect("embed");
    let (faulty, _gate) = faults
        .random_wrong_cell(copy.netlist())
        .expect("substitutable gate");
    let verdict = session
        .verify(&faulty, &policy)
        .expect("verify")
        .verdict;
    assert!(
        matches!(verdict, Verdict::Refuted { .. }),
        "{name}: fallback path must refute a wrong-cell fault"
    );
}
