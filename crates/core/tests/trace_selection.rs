//! `TracerIndex`'s selection against the full population sort.
//!
//! `verdict`, `trace` and `trace_top` rank buyers by one packed integer
//! key and keep only the top of the ranking. The reference here is the
//! sort they replaced: `TracerIndex::score` (itself bit-identical to the
//! pairwise `score_suspects`), a stable `(containment, agreement)` float
//! sort of the whole population, and a threshold filter over it. Whole
//! verdicts must be `==` and every score bit-identical, across real ties
//! (duplicate codes), word-boundary population sizes, every `top_k`
//! regime, degenerate forged strings and each of the three outcomes.
//!
//! The timed guard runs in release, alone:
//! `cargo test --release -p odcfp-core --test trace_selection -- --ignored
//! --test-threads=1 --nocapture`.

use std::hint::black_box;
use std::time::Instant;

use odcfp_core::collusion::{
    score_suspects, SuspectScore, TraceOutcome, TraceParams, TraceVerdict, TracerIndex,
};
use odcfp_logic::rng::Xoshiro256;

fn by_suspicion(a: &SuspectScore, b: &SuspectScore) -> std::cmp::Ordering {
    (b.containment, b.agreement)
        .partial_cmp(&(a.containment, a.agreement))
        .expect("finite scores")
}

/// The sort-based verdict: score everyone, stable-sort the population,
/// filter it by the thresholds.
fn reference_verdict(
    index: &TracerIndex,
    recovered: &[bool],
    params: &TraceParams,
) -> TraceVerdict {
    let mut scored = index.score(recovered);
    scored.sort_by(by_suspicion);
    let evidence_wires = recovered.iter().filter(|&&f| f).count();
    let threshold = params.containment_threshold(evidence_wires);
    let agreement_threshold = params.agreement_threshold(index.locations());
    let cleared: Vec<SuspectScore> = scored
        .iter()
        .filter(|s| s.containment >= threshold || s.agreement >= agreement_threshold)
        .copied()
        .collect();
    let limit = (params.max_convicted_fraction * index.len() as f64).ceil() as usize;
    let outcome = if evidence_wires < params.min_evidence || cleared.is_empty() {
        TraceOutcome::Inconclusive
    } else if cleared.len() > limit.max(1) {
        TraceOutcome::InnocentRisk
    } else {
        TraceOutcome::Convicted
    };
    scored.truncate(params.top_k.max(1));
    TraceVerdict {
        outcome,
        convicted: if outcome == TraceOutcome::Convicted {
            cleared
        } else {
            Vec::new()
        },
        ranking: scored,
        evidence_wires,
        threshold,
        agreement_threshold,
    }
}

fn assert_bits_equal(got: &[SuspectScore], want: &[SuspectScore], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.buyer, w.buyer, "{what}: buyer order");
        assert_eq!(
            g.containment.to_bits(),
            w.containment.to_bits(),
            "{what}: containment"
        );
        assert_eq!(
            g.agreement.to_bits(),
            w.agreement.to_bits(),
            "{what}: agreement"
        );
    }
}

fn random_code(rng: &mut Xoshiro256, l: usize) -> Vec<bool> {
    (0..l).map(|_| rng.next_bool()).collect()
}

/// `n` buyers drawing their codes from a pool of `distinct` codes, so
/// whole groups of buyers tie on both scores.
fn population(seed: u64, n: usize, l: usize, distinct: usize) -> Vec<Vec<bool>> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let pool: Vec<Vec<bool>> = (0..distinct).map(|_| random_code(&mut rng, l)).collect();
    (0..n)
        .map(|_| pool[(rng.next_u64() % distinct as u64) as usize].clone())
        .collect()
}

/// Forged strings that exercise every outcome: a random string, the AND
/// of two buyers' codes (their wires survive), the majority of three,
/// and the all-zero and all-one strings. A string of exactly 16 wires
/// puts the σ = 2 containment threshold, 0.5 + 2·0.5/√16 = 12/16, on a
/// score buyers can reach, so `>=` against `>` shows.
fn forged_strings(registry: &[Vec<bool>], l: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut out = vec![random_code(&mut rng, l), vec![false; l], vec![true; l]];
    out.push((0..l).map(|i| i % 4 == 1 && i < 64).collect());
    if registry.len() >= 3 {
        let n = registry.len() as u64;
        let pick: Vec<&Vec<bool>> = (0..3)
            .map(|_| &registry[(rng.next_u64() % n) as usize])
            .collect();
        out.push((0..l).map(|i| pick[0][i] && pick[1][i]).collect());
        out.push(
            (0..l)
                .map(|i| pick.iter().filter(|c| c[i]).count() >= 2)
                .collect(),
        );
    }
    out
}

#[test]
fn selection_matches_the_full_sort() {
    const L: usize = 100;
    let mut outcomes = [0usize; 3];
    for &n in &[0usize, 1, 63, 64, 65, 1000] {
        for (variant, distinct) in [(0u64, usize::MAX), (1, 3), (2, 17)] {
            let seed = 0x005E_1EC7 ^ (n as u64) << 8 ^ variant;
            let registry = if distinct == usize::MAX {
                population(seed, n, L, n.max(1))
            } else {
                population(seed, n, L, distinct)
            };
            let mut index = TracerIndex::new(L);
            for code in &registry {
                index.push(code);
            }
            for (f, forged) in forged_strings(&registry, L, seed).iter().enumerate() {
                for &sigma in &[1.0, 2.0, 3.5, 7.0] {
                    for top_k in [0, 1, 8, n, n + 5] {
                        let params = TraceParams {
                            sigma,
                            top_k,
                            ..TraceParams::default()
                        };
                        let what =
                            format!("n={n} pool={distinct} forged#{f} sigma={sigma} k={top_k}");
                        let got = index.verdict(forged, &params);
                        let want = reference_verdict(&index, forged, &params);
                        assert_eq!(got, want, "{what}");
                        assert_bits_equal(&got.ranking, &want.ranking, &what);
                        assert_bits_equal(&got.convicted, &want.convicted, &what);
                        assert_eq!(got.threshold.to_bits(), want.threshold.to_bits(), "{what}");
                        assert_eq!(
                            got.agreement_threshold.to_bits(),
                            want.agreement_threshold.to_bits(),
                            "{what}"
                        );
                        outcomes[got.outcome as usize] += 1;
                    }
                }
            }
        }
    }
    let [convicted, inconclusive, innocent_risk] = outcomes;
    assert!(
        convicted > 0 && inconclusive > 0 && innocent_risk > 0,
        "every outcome must be exercised: {outcomes:?}"
    );
}

#[test]
fn trace_top_is_a_prefix_of_trace() {
    for (n, distinct) in [(0usize, 1usize), (1, 1), (65, 4), (300, 300)] {
        let registry = population(0x70B ^ n as u64, n, 70, distinct);
        let mut index = TracerIndex::new(70);
        for code in &registry {
            index.push(code);
        }
        for forged in forged_strings(&registry, 70, 0x70B) {
            let full = index.trace(&forged);
            let mut scored = index.score(&forged);
            scored.sort_by(by_suspicion);
            let sorted: Vec<(usize, f64)> =
                scored.iter().map(|s| (s.buyer, s.containment)).collect();
            assert_eq!(full, sorted, "n={n}: trace is the sorted population");
            for k in 0..=n + 1 {
                let top = index.trace_top(&forged, k);
                assert_bits_equal(&top, &scored[..k.min(n)], &format!("n={n} k={k}"));
            }
        }
    }
}

#[test]
fn overlap_counts_cross_tiles_and_partial_groups() {
    // The adder works in 256-word tiles (16,384 buyers) and folds planes
    // four at a time: a population past one tile boundary, traced with
    // every remainder of set planes modulo four, must score exactly as
    // the pairwise oracle does.
    const N: usize = 16_384 + 65;
    const L: usize = 37;
    let registry = population(0x711E, N, L, N);
    let index = TracerIndex::from_registry(&registry);
    for ones in [0usize, 1, 2, 3, 4, 5, 6, 7, L] {
        let forged: Vec<bool> = (0..L).map(|i| i * 5 % L < ones).collect();
        let what = format!("{ones} set planes");
        assert_bits_equal(
            &index.score(&forged),
            &score_suspects(&forged, &registry),
            &what,
        );
    }
}

/// Median of `runs` timings of `f`, in seconds.
fn median_s<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[runs / 2]
}

/// Regression guard (DESIGN.md §14): on a seeded 50k-buyer population of
/// 820-bit codes, a verdict by selection must take at most a third of
/// the median time of the sort-based reference, for both an AND-2 and a
/// majority-3 coalition, on the same host.
#[test]
#[ignore = "timed gate; run in release, alone (--ignored --test-threads=1)"]
fn verdict_selection_beats_the_population_sort_3x() {
    const N: usize = 50_000;
    const L: usize = 820;
    const RUNS: usize = 21;
    let mut rng = Xoshiro256::seed_from_u64(0x7ACE);
    let mut index = TracerIndex::new(L);
    let mut codes = Vec::with_capacity(N);
    for _ in 0..N {
        let code = random_code(&mut rng, L);
        index.push(&code);
        codes.push(code);
    }
    let and2: Vec<bool> = (0..L).map(|i| codes[11][i] && codes[29_000][i]).collect();
    let maj3: Vec<bool> = (0..L)
        .map(|i| [7, 25_000, 49_999].iter().filter(|&&b| codes[b][i]).count() >= 2)
        .collect();
    let params = TraceParams {
        sigma: 7.0,
        ..TraceParams::default()
    };
    for (kind, forged) in [("and-2", &and2), ("majority-3", &maj3)] {
        let got = index.verdict(forged, &params);
        assert_eq!(got, reference_verdict(&index, forged, &params), "{kind}");
        assert_eq!(got.outcome, TraceOutcome::Convicted, "{kind}");
        let select_s = median_s(RUNS, || index.verdict(black_box(forged), &params));
        let sort_s = median_s(RUNS, || {
            reference_verdict(&index, black_box(forged), &params)
        });
        eprintln!(
            "trace guard {kind}: selection {:.2} ms vs sort {:.2} ms ({:.1}x)",
            select_s * 1e3,
            sort_s * 1e3,
            sort_s / select_s
        );
        assert!(
            select_s * 3.0 <= sort_s,
            "trace guard {kind}: selection verdict {:.2} ms is not 3x below the sort-based \
             reference ({:.2} ms)",
            select_s * 1e3,
            sort_s * 1e3
        );
    }
}
