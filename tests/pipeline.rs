//! Cross-crate integration tests: benchmark generation → fingerprinting →
//! verification → detection, end to end.

mod common;

use common::sim_equivalent;
use odcfp_analysis::DesignMetrics;
use odcfp_core::collusion::{analyze_collusion, forge, trace_suspects, ForgeStrategy};
use odcfp_core::heuristics::{reactive_delay_reduction, ReactiveOptions};
use odcfp_core::{Fingerprinter, VerifyLevel};
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_sat::{check_equivalence, EquivResult};
use odcfp_synth::benchmarks;

fn engine(name: &str) -> Fingerprinter {
    let base = benchmarks::generate(name, CellLibrary::standard()).expect("known name");
    Fingerprinter::new(base).expect("valid netlist")
}

#[test]
fn c432_full_embedding_is_sat_equivalent() {
    let fp = engine("c432");
    assert!(
        fp.locations().len() >= 20,
        "c432-class should offer many locations"
    );
    let copy = fp
        .embed_verified(&vec![true; fp.locations().len()], VerifyLevel::Sat)
        .expect("equivalence must hold");
    assert_eq!(fp.extract(copy.netlist()), copy.bits());
}

#[test]
fn c880_random_copies_are_equivalent_and_distinct() {
    let fp = engine("c880");
    let a = fp.embed_seeded(1).unwrap();
    let b = fp.embed_seeded(2).unwrap();
    assert!(sim_equivalent(fp.base(), a.netlist(), 32, 5));
    assert!(sim_equivalent(a.netlist(), b.netlist(), 32, 5));
    assert_ne!(
        a.bits(),
        b.bits(),
        "distinct seeds give distinct fingerprints"
    );
    // Distinctness requirement: the copies are structurally distinguishable.
    assert_ne!(fp.extract(a.netlist()), fp.extract(b.netlist()));
}

#[test]
fn every_benchmark_fingerprints_and_simulates_equivalent() {
    // The full Table II suite: simulation-level equivalence of the maximal
    // embedding (SAT proof for each is covered by targeted tests; this one
    // guards the whole generator + pipeline matrix).
    for name in benchmarks::TABLE2_NAMES {
        let fp = engine(name);
        assert!(
            fp.locations().len() > 10,
            "{name}: too few locations ({})",
            fp.locations().len()
        );
        let copy = fp.embed_all().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            sim_equivalent(fp.base(), copy.netlist(), 8, 0xE0),
            "{name}: maximal embedding altered the function"
        );
    }
}

#[test]
fn medium_benchmarks_full_embedding_sat_proof() {
    for name in ["c499", "c1355", "c1908"] {
        let fp = engine(name);
        let copy = fp.embed_all().unwrap();
        assert_eq!(
            check_equivalence(fp.base(), copy.netlist(), Some(2_000_000)).unwrap(),
            EquivResult::Equivalent,
            "{name}"
        );
    }
}

#[test]
fn overheads_have_the_papers_shape() {
    // Table II shape: positive area overhead, delay overhead is the
    // dominant cost on the PLA-style circuits.
    let fp = engine("k2");
    let base = DesignMetrics::measure(fp.base());
    let copy = fp.embed_all().unwrap();
    let oh = DesignMetrics::measure(copy.netlist()).overhead_vs(&base);
    assert!(oh.area_pct > 2.0, "area should grow: {}", oh.area_pct);
    assert!(
        oh.delay_pct > oh.area_pct,
        "delay overhead should dominate on k2: {oh}"
    );
}

#[test]
fn heredity_fingerprint_survives_exact_cloning() {
    // The third fingerprinting requirement: a verbatim copy of the netlist
    // carries the same fingerprint.
    let fp = engine("c432");
    let copy = fp.embed_seeded(0xACE).unwrap();
    let clone: Netlist = copy.netlist().clone();
    assert_eq!(fp.extract(&clone), copy.bits());
}

#[test]
fn reactive_constraint_respected_on_real_benchmark() {
    let fp = engine("c499");
    for pct in [10.0, 1.0] {
        let r = reactive_delay_reduction(&fp, pct, ReactiveOptions::default()).unwrap();
        let oh = r.metrics.overhead_vs(&r.base_metrics);
        assert!(oh.delay_pct <= pct + 1e-9, "{pct}%: {}", oh.delay_pct);
        assert!(
            sim_equivalent(fp.base(), r.copy.netlist(), 16, 3),
            "constrained copy must stay equivalent"
        );
    }
}

#[test]
fn collusion_and_tracing_on_real_benchmark() {
    let fp = engine("vda");
    let copies: Vec<_> = (0..6).map(|k| fp.embed_seeded(900 + k).unwrap()).collect();
    let registry: Vec<Vec<bool>> = copies.iter().map(|c| c.bits().to_vec()).collect();
    let held: Vec<&Netlist> = copies[..3].iter().map(|c| c.netlist()).collect();

    let report = analyze_collusion(&fp, &held);
    assert!(
        !report.exposed.is_empty(),
        "three copies must differ somewhere"
    );
    assert!(!report.hidden.is_empty(), "residue must remain for tracing");

    let forged = forge(&fp, &held, ForgeStrategy::ClearExposed).unwrap();
    assert!(sim_equivalent(fp.base(), forged.netlist(), 16, 4));

    let ranking = trace_suspects(&fp.extract(forged.netlist()), &registry);
    let top3: Vec<usize> = ranking.iter().take(3).map(|&(i, _)| i).collect();
    for colluder in 0..3 {
        assert!(
            top3.contains(&colluder),
            "colluder {colluder} not traced: {ranking:?}"
        );
    }
}

#[test]
fn capacity_grows_with_circuit_size() {
    let small = engine("c432").capacity();
    let large = engine("des").capacity();
    assert!(large.num_locations > small.num_locations * 5);
    assert!(large.log2_combinations > small.log2_combinations * 5.0);
}

#[test]
fn configuration_vectors_realize_extra_capacity() {
    // The paper's log2(combinations) counts *which* modification is chosen
    // per location. Exercise several non-default configuration vectors on
    // c432 and prove each one equivalent and re-extractable.
    use odcfp_core::VerifyLevel;
    let fp = engine("c432");
    let n = fp.locations().len();
    let mut rng = odcfp_logic::rng::Xoshiro256::seed_from_u64(0xCF6);
    let mut tried = 0;
    let mut succeeded = 0;
    while succeeded < 3 && tried < 10 {
        tried += 1;
        let configs: Vec<usize> = fp
            .locations()
            .iter()
            .map(|loc| rng.next_below(loc.candidates.len() + 1))
            .collect();
        // Conflicting vectors are rejected, not mis-embedded; retry.
        let Ok(netlist) = fp.embed_configs(&configs, VerifyLevel::Simulation) else {
            continue;
        };
        succeeded += 1;
        assert!(sim_equivalent(fp.base(), &netlist, 16, 0xC0));
        let recovered = fp.extract_configs(&netlist);
        assert_eq!(recovered.len(), n);
        // Non-zero selections are detected as applied (possibly as an
        // overlapping smaller candidate); zero selections stay zero unless
        // another location's choice aliased into them, which the engine's
        // conflict rejection prevents for identical literals.
        for (i, (&want, &got)) in configs.iter().zip(&recovered).enumerate() {
            if want == 0 {
                assert_eq!(got, 0, "location {i} should be unmodified");
            } else {
                assert_ne!(got, 0, "location {i} selection must be detected");
            }
        }
    }
    assert!(
        succeeded >= 3,
        "only {succeeded} configuration vectors embedded"
    );
}

#[test]
fn out_of_range_configuration_rejected() {
    let fp = engine("c432");
    let mut configs = vec![0usize; fp.locations().len()];
    configs[0] = fp.locations()[0].candidates.len() + 1;
    assert!(matches!(
        fp.embed_configs(&configs, odcfp_core::VerifyLevel::None),
        Err(odcfp_core::FingerprintError::CannotApply { .. })
    ));
}
