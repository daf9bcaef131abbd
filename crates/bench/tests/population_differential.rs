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
//!
//! The `gate_` tests hold the population acceptance thresholds (delta
//! bytes per buyer, batch-verify speedup, tracer rankings). They read
//! wall time, so CI runs them once, alone, and the differential runs
//! skip them: `-- --ignored --test-threads=1 gate_`.

use std::time::Instant;

use odcfp_bench::netlist_for;
use odcfp_core::campaign::{self, CampaignEnv, CampaignOptions, JobEvent, Manifest};
use odcfp_core::collusion::{trace_suspects, TracerIndex};
use odcfp_core::faults::FaultInjector;
use odcfp_core::{
    artifact_identity, CancelToken, CodeSpace, CodeSpaceOutcome, CodeSpaceProof, Fingerprinter,
    Verdict, VerifyPolicy, VerifySession,
};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{CellLibrary, Digest128, Netlist};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};
use odcfp_verilog::write_verilog;

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

/// The campaign manifest's seed, reused for the gates' standalone codes.
const SEED: u64 = 42;

/// Delta bytes per buyer must be at least this many times below one full
/// Verilog artifact.
const REDUCTION_FLOOR: f64 = 100.0;

/// Proof plus per-code checks must beat the per-buyer session by this
/// factor.
const SPEEDUP_FLOOR: f64 = 5.0;

/// Runs a delta-mode des campaign of `buyers` end to end (journal,
/// codebook, windows of 2,048, batch verification) in a temporary
/// directory. Returns the on-disk bytes per buyer (codebook plus the
/// golden artifact, amortized) and asserts that the campaign proved its
/// code space and proved every buyer.
fn delta_campaign_bytes_per_buyer(buyers: usize) -> f64 {
    let name = "des";
    let dir = std::env::temp_dir().join(format!(
        "odcfp-population-gate-{buyers}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create campaign dir");
    let manifest = Manifest::parse(&format!(
        "circuit {name} path:{name}.v\nbuyers {buyers}\nseed {SEED}\nretries 0\n\
         verify strict\nartifacts delta\nwindow 2048\n"
    ))
    .expect("manifest");
    let load = |_: &campaign::ManifestCircuit| -> Result<Netlist, String> { Ok(netlist_for(name)) };
    let emit = |n: &Netlist| write_verilog(n);
    let env = CampaignEnv {
        load: &load,
        emit: &emit,
    };
    let mut proven = false;
    let mut on_event = |e: &JobEvent| proven |= matches!(e, JobEvent::CodeSpaceProven { .. });
    let t0 = Instant::now();
    let summary = campaign::run(
        &manifest,
        &dir,
        &env,
        &CampaignOptions::default(),
        &mut on_event,
    )
    .expect("delta campaign");
    let wall_s = t0.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(dir.join(odcfp_core::codebook_file(name)))
        .expect("codebook exists")
        .len()
        + std::fs::metadata(
            dir.join(campaign::ARTIFACT_DIR)
                .join(format!("{name}.golden.v")),
        )
        .expect("golden artifact exists")
        .len();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        proven,
        "{name} N={buyers}: the delta campaign must prove its code space"
    );
    assert!(
        summary.is_clean(),
        "{name} N={buyers}: campaign not clean: {summary}"
    );
    assert_eq!(
        summary.verdicts.get("proven").copied(),
        Some(buyers),
        "{name} N={buyers}: every buyer must be proven: {:?}",
        summary.verdicts
    );
    eprintln!(
        "{name} N={buyers}: delta campaign {wall_s:.1} s ({:.0} buyers/s)",
        buyers as f64 / wall_s
    );
    bytes as f64 / buyers as f64
}

/// Bytes of the full Verilog artifact one des buyer would otherwise get.
fn full_artifact_bytes(fp: &Fingerprinter) -> f64 {
    let bits = buyer_code(SEED, 0, fp.selected_modifications().len());
    write_verilog(fp.embed(&bits).expect("embed").netlist()).len() as f64
}

fn assert_reduction(buyers: usize, delta: f64, full: f64) {
    let reduction = full / delta;
    eprintln!(
        "des N={buyers}: {delta:.1} bytes/buyer vs {full:.0} full ({reduction:.0}x, floor \
         {REDUCTION_FLOOR}x)"
    );
    assert!(
        reduction >= REDUCTION_FLOOR,
        "bytes/buyer reduction: {reduction:.0}x below the {REDUCTION_FLOOR}x floor at N={buyers}"
    );
}

/// The population acceptance thresholds at 10k buyers on des:
/// - a 10k-buyer delta campaign proves every buyer and stores each in
///   at least 100x fewer bytes than full Verilog;
/// - one code-space proof plus 10k `check_code` calls is at least 5x
///   faster than the per-buyer session, timed on 64 sampled buyers and
///   extrapolated linearly, and the 64 sampled verdicts are equal;
/// - `TracerIndex` ranks a majority-forged coalition-of-8 string
///   exactly as the pairwise `trace_suspects` oracle over 10^5 codebooks.
#[test]
#[ignore = "timed gate; run in release, alone (--ignored --test-threads=1 gate_)"]
fn gate_10k_buyers_meet_the_population_thresholds() {
    const BUYERS: usize = 10_000;
    const SAMPLE: usize = 64;
    const CODEBOOKS: u64 = 100_000;
    const COALITION: usize = 8;
    let fp = Fingerprinter::new(netlist_for("des")).expect("fingerprinter");
    let locations = fp.selected_modifications().len();

    assert_reduction(
        BUYERS,
        delta_campaign_bytes_per_buyer(BUYERS),
        full_artifact_bytes(&fp),
    );

    // Batch verification: proof plus per-code checks ...
    let token = CancelToken::new();
    let space = CodeSpace::build(&fp).expect("code space");
    let mut session = VerifySession::new(fp.base()).expect("session");
    let t0 = Instant::now();
    let proof = space.prove(&mut session, None, &token).expect("proof");
    let proof_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        proof.outcome,
        CodeSpaceOutcome::ProvenAll,
        "des code space must prove"
    );
    let t0 = Instant::now();
    let mut batch = Vec::with_capacity(SAMPLE);
    for b in 0..BUYERS as u64 {
        let v = session.check_code(&proof, &buyer_code(SEED, b, locations), None, &token);
        if (b as usize) < SAMPLE {
            batch.push(verdict_kind(&v));
        }
    }
    let batch_s = proof_s + t0.elapsed().as_secs_f64();

    // ... against the per-buyer session on pre-materialized netlists, so
    // both sides time verification only.
    let sampled: Vec<Netlist> = (0..SAMPLE as u64)
        .map(|b| {
            fp.embed(&buyer_code(SEED, b, locations))
                .expect("embed")
                .into_netlist()
        })
        .collect();
    let policy = VerifyPolicy::strict();
    let mut baseline = VerifySession::new(fp.base()).expect("session");
    let t0 = Instant::now();
    let per_buyer: Vec<&str> = sampled
        .iter()
        .map(|c| {
            verdict_kind(
                &baseline
                    .verify(std::hint::black_box(c), &policy)
                    .expect("verify")
                    .verdict,
            )
        })
        .collect();
    let per_buyer_s = t0.elapsed().as_secs_f64() / SAMPLE as f64 * BUYERS as f64;
    let speedup = per_buyer_s / batch_s;
    eprintln!(
        "des N={BUYERS}: batch {batch_s:.2} s (proof {proof_s:.3} s) vs per-buyer \
         {per_buyer_s:.1} s extrapolated from {SAMPLE} ({speedup:.1}x, floor {SPEEDUP_FLOOR}x)"
    );
    assert_eq!(
        batch, per_buyer,
        "sampled verdicts: batch and per-buyer verdicts diverge"
    );
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "batch verify speedup: {speedup:.1}x below the {SPEEDUP_FLOOR}x floor"
    );

    // Indexed tracing against the pairwise oracle.
    let registry: Vec<Vec<bool>> = (0..CODEBOOKS)
        .map(|b| buyer_code(SEED, b, locations))
        .collect();
    let index = TracerIndex::from_registry(&registry);
    let forged: Vec<bool> = (0..locations)
        .map(|i| registry[..COALITION].iter().filter(|c| c[i]).count() * 2 >= COALITION)
        .collect();
    assert!(
        index.trace(&forged) == trace_suspects(&forged, &registry),
        "tracer rankings: TracerIndex diverges from the trace_suspects oracle"
    );
}

/// The million-buyer operating point: a 100k-buyer delta campaign on des
/// completes, proves every buyer, and keeps the 100x bytes-per-buyer
/// reduction. The speedup and ranking thresholds are held at 10k
/// ([`gate_10k_buyers_meet_the_population_thresholds`]), where they are
/// stricter, since the speedup grows with the population.
#[test]
#[ignore = "timed gate; run in release, alone (--ignored --test-threads=1 gate_)"]
fn gate_100k_buyer_delta_campaign_proves_every_buyer() {
    const BUYERS: usize = 100_000;
    let fp = Fingerprinter::new(netlist_for("des")).expect("fingerprinter");
    assert_reduction(
        BUYERS,
        delta_campaign_bytes_per_buyer(BUYERS),
        full_artifact_bytes(&fp),
    );
}
