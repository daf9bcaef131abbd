//! Property-based tests over the core invariants, driven by proptest.
//!
//! The generators build random circuits / covers / formulas, and the
//! properties assert the paper's three fingerprinting requirements plus the
//! substrate contracts:
//!
//! * **correct functionality** — every enumerated modification (and any
//!   subset of them) preserves the circuit function;
//! * **distinct fingerprints** — different bit strings give structurally
//!   distinguishable copies, and extraction inverts embedding;
//! * **heredity** — extraction is stable under cloning;
//! * mapping preserves BLIF semantics; the SAT solver agrees with brute
//!   force; collusion exposes exactly the differing bits.

mod common;

use proptest::prelude::*;

use common::sim_equivalent;
use odcfp_analysis::{cones, odc, AnalysisEngine};
use odcfp_core::collusion::analyze_collusion;
use odcfp_core::{find_locations_naive, find_locations_with, Fingerprinter};
use odcfp_logic::{Cube, Sop};
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_sat::{CnfBuilder, Lit, SolveResult, Solver, Var};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

fn small_dag(seed: u64) -> Netlist {
    random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 8,
            gates: 50,
            outputs: 6,
            window: 16,
            seed,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Requirement 1 (correct functionality): any random subset of
    /// locations embeds into a circuit equivalent to the base.
    #[test]
    fn any_bit_subset_preserves_function(seed in 0u64..5000, pattern in any::<u64>()) {
        let fp = Fingerprinter::new(small_dag(seed)).unwrap();
        let n = fp.locations().len();
        let bits: Vec<bool> = (0..n).map(|i| (pattern >> (i % 64)) & 1 == 1).collect();
        // embed() verifies 1024 random patterns internally and errors on a
        // mismatch, so success IS the property.
        let copy = fp.embed(&bits).unwrap();
        prop_assert!(sim_equivalent(fp.base(), copy.netlist(), 8, seed));
    }

    /// Requirement 2 (distinct fingerprints): extraction inverts embedding,
    /// so distinct bit strings are distinguishable.
    #[test]
    fn extraction_inverts_embedding(seed in 0u64..5000, pattern in any::<u64>()) {
        let fp = Fingerprinter::new(small_dag(seed)).unwrap();
        let n = fp.locations().len();
        let bits: Vec<bool> = (0..n).map(|i| (pattern >> (i % 64)) & 1 == 1).collect();
        let copy = fp.embed(&bits).unwrap();
        prop_assert_eq!(fp.extract(copy.netlist()), bits);
    }

    /// Requirement 3 (heredity): cloning a fingerprinted netlist carries
    /// the fingerprint along verbatim.
    #[test]
    fn heredity_under_cloning(seed in 0u64..5000) {
        let fp = Fingerprinter::new(small_dag(seed)).unwrap();
        let copy = fp.embed_seeded(seed ^ 0xFEED).unwrap();
        let cloned = copy.netlist().clone();
        prop_assert_eq!(fp.extract(&cloned), copy.bits());
    }

    /// Collusion exposes exactly the positions where the copies' bits
    /// differ, never the agreeing ones.
    #[test]
    fn collusion_exposes_exactly_the_diff(seed in 0u64..2000, s1 in any::<u64>(), s2 in any::<u64>()) {
        let fp = Fingerprinter::new(small_dag(seed)).unwrap();
        let a = fp.embed_seeded(s1).unwrap();
        let b = fp.embed_seeded(s2).unwrap();
        let report = analyze_collusion(&fp, &[a.netlist(), b.netlist()]);
        for i in 0..fp.locations().len() {
            let differs = a.bits()[i] != b.bits()[i];
            prop_assert_eq!(report.exposed.contains(&i), differs, "location {}", i);
        }
    }

    /// The CDCL solver agrees with brute-force evaluation on random small
    /// formulas.
    #[test]
    fn solver_matches_brute_force(
        clauses in prop::collection::vec(
            prop::collection::vec((0usize..6, any::<bool>()), 1..4),
            1..24
        )
    ) {
        let mut cnf = CnfBuilder::new();
        let vars: Vec<Var> = cnf.new_vars(6);
        for clause in &clauses {
            cnf.add_clause(clause.iter().map(|&(v, pol)| Lit::with_polarity(vars[v], pol)));
        }
        let brute = (0..64usize).any(|m| {
            let assignment: Vec<bool> = (0..6).map(|v| (m >> v) & 1 == 1).collect();
            cnf.eval(&assignment)
        });
        let mut solver = Solver::from_cnf(&cnf);
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(brute);
                let assignment: Vec<bool> = (0..6).map(|v| model.value(vars[v])).collect();
                prop_assert!(cnf.eval(&assignment), "model must satisfy the formula");
            }
            SolveResult::Unsat => prop_assert!(!brute),
            SolveResult::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    /// Random SOP covers map onto the cell library without changing their
    /// semantics.
    #[test]
    fn mapping_preserves_random_covers(
        rows in prop::collection::vec(prop::collection::vec(0u8..3, 4), 1..6),
        onset in any::<bool>()
    ) {
        let cubes: Vec<Cube> = rows.iter().map(|row| {
            let s: String = row.iter().map(|&c| ['0', '1', '-'][c as usize]).collect();
            s.parse().unwrap()
        }).collect();
        let sop = Sop::new(4, cubes, onset);
        let mut network = odcfp_blif::LogicNetwork::new("prop");
        for i in 0..4 {
            network.add_input(format!("x{i}"));
        }
        network.add_output("y");
        network.add_node(odcfp_blif::LogicNode {
            output: "y".into(),
            fanins: (0..4).map(|i| format!("x{i}")).collect(),
            cover: sop.clone(),
        });
        let mapped = odcfp_synth::map_network(&network, CellLibrary::standard()).unwrap();
        for i in 0..16usize {
            let bits: Vec<bool> = (0..4).map(|v| (i >> v) & 1 == 1).collect();
            prop_assert_eq!(mapped.eval(&bits)[0], sop.eval(&bits), "row {}", i);
        }
    }

    /// The parallel analysis engine finds exactly the locations of the
    /// naive reference scan, in the same order, at any worker count.
    #[test]
    fn engine_locations_match_naive_at_any_thread_count(seed in 0u64..5000) {
        let n = small_dag(seed);
        let naive = find_locations_naive(&n);
        let eng = AnalysisEngine::new(&n).unwrap();
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                &find_locations_with(&n, &eng, threads),
                &naive,
                "threads = {}",
                threads
            );
        }
    }

    /// The engine's one-sweep dominator construction reproduces the naive
    /// per-root FFC walk and fanin/fanout-exclusivity helpers everywhere.
    #[test]
    fn engine_cones_match_naive(seed in 0u64..5000) {
        let n = small_dag(seed);
        let eng = AnalysisEngine::new(&n).unwrap();
        for (root, _) in n.gates() {
            prop_assert_eq!(eng.ffc_of(root), cones::ffc_of(&n, root), "ffc of {:?}", root);
            let mut scratch = odcfp_netlist::Scratch::default();
            prop_assert_eq!(
                eng.transitive_fanin(root, &mut scratch),
                cones::transitive_fanin(&n, root),
                "tfi of {:?}",
                root
            );
        }
    }

    /// Batched observability equals the per-net calls it replaces.
    #[test]
    fn batched_observability_matches_per_net(seed in 0u64..2000) {
        let n = small_dag(seed);
        let nets: Vec<_> = n.nets().map(|(id, _)| id).collect();
        let batched = odc::simulated_observability_many(&n, &nets, 4, seed);
        for (i, &net) in nets.iter().enumerate() {
            let single = odc::simulated_observability(&n, net, 4, seed);
            prop_assert_eq!(batched[i], single, "net {:?}", net);
        }
    }

    /// Netlist simulation is consistent: bit-parallel words agree with
    /// scalar evaluation on random DAGs.
    #[test]
    fn word_simulation_matches_scalar(seed in 0u64..5000, assignment in any::<u8>()) {
        let n = small_dag(seed);
        let k = n.primary_inputs().len();
        let bits: Vec<bool> = (0..k).map(|v| (assignment >> (v % 8)) & 1 == 1).collect();
        let scalar = n.eval(&bits);
        let patterns: Vec<Vec<u64>> = bits
            .iter()
            .map(|&b| vec![if b { u64::MAX } else { 0 }])
            .collect();
        let values = n.simulate(&patterns);
        for (j, &po) in n.primary_outputs().iter().enumerate() {
            let word = values[po.index()][0];
            prop_assert!(word == 0 || word == u64::MAX, "constant inputs give constant words");
            prop_assert_eq!(word == u64::MAX, scalar[j]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Writing any generated netlist to Verilog and parsing it back yields
    /// a behaviourally identical design.
    #[test]
    fn verilog_roundtrip_preserves_random_dags(seed in 0u64..3000) {
        let n = small_dag(seed);
        let text = odcfp_verilog::write_verilog(&n);
        let back = odcfp_verilog::parse_verilog(&text, n.library().clone()).unwrap();
        prop_assert_eq!(back.num_gates(), n.num_gates());
        prop_assert!(sim_equivalent(&n, &back, 8, seed));
    }

    /// Writing any generated netlist's BLIF-level behaviour: the optimizer
    /// never changes the function and never grows the design.
    #[test]
    fn optimizer_preserves_random_dags(seed in 0u64..3000) {
        let n = small_dag(seed);
        let (opt, _) = odcfp_synth::opt::optimize(&n);
        prop_assert!(opt.num_gates() <= n.num_gates());
        prop_assert!(sim_equivalent(&n, &opt, 8, seed ^ 1));
    }

    /// The flexible (fuse) design programmed with any bit string matches
    /// the directly embedded netlist on random vectors.
    #[test]
    fn fuse_programming_matches_embedding(seed in 0u64..2000, pattern in any::<u64>()) {
        let fp = Fingerprinter::new(small_dag(seed)).unwrap();
        let flexible = odcfp_core::FlexibleDesign::build(&fp).unwrap();
        let n = fp.locations().len();
        let bits: Vec<bool> = (0..n).map(|i| (pattern >> (i % 64)) & 1 == 1).collect();
        let programmed = flexible.program(&bits).unwrap();
        let embedded = fp.embed(&bits).unwrap();
        prop_assert!(sim_equivalent(&programmed, embedded.netlist(), 8, seed ^ 2));
    }

    /// Error-correcting fingerprints survive any single flipped location
    /// per SECDED Hamming(8,4) block — and a second flip in a block is
    /// flagged as ambiguous, never silently mis-corrected.
    #[test]
    fn hamming_payload_survives_single_flip_per_block(
        seed in 0u64..2000,
        payload_word in any::<u16>(),
        flip_pos in 0usize..8,
        second_flip in 0usize..8
    ) {
        use odcfp_core::robust::{decode, encode, Code, DecodeStatus};
        let locations = 24; // three blocks
        let payload: Vec<bool> = (0..12).map(|i| (payload_word >> i) & 1 == 1).collect();
        let mut bits = encode(Code::Hamming, &payload, locations).unwrap();
        // Flip one position in every block.
        for block in 0..3 {
            let at = block * 8 + flip_pos;
            bits[at] = !bits[at];
        }
        let decoded = decode(Code::Hamming, &bits, 12);
        prop_assert_eq!(decoded.payload, payload, "seed {}", seed);
        prop_assert_eq!(decoded.tampered_locations.len(), 3);
        prop_assert_eq!(decoded.status, DecodeStatus::Corrected);
        // A second, distinct flip in block 0 exceeds the margin.
        if second_flip != flip_pos {
            bits[second_flip] = !bits[second_flip];
            let double = decode(Code::Hamming, &bits, 12);
            prop_assert_eq!(double.status, DecodeStatus::Ambiguous);
        }
    }
}
