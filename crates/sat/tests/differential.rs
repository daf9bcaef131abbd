//! Differential suite for the solver tier: every [`SolverConfig`]
//! heuristic combination must return the **same verdict** on the same
//! formula. The heuristics (LBD tracking, DB reduction, rephasing,
//! chronological backtracking) may only change how the search runs,
//! never what it concludes — this is the determinism contract
//! `odcfp verify --solver-profile` relies on.

use odcfp_sat::{parse_dimacs, CnfBuilder, SolveResult, Solver, SolverConfig};

/// The DIMACS corpus: inline instances mirroring the fixtures in
/// `crates/sat/src/dimacs.rs`, spanning trivially SAT, trivially UNSAT,
/// propagation-only, and search-requiring formulas.
const CORPUS: &[(&str, &str)] = &[
    ("unit_sat", "p cnf 2 2\n1 -2 0\n2 0\n"),
    ("unit_unsat", "p cnf 1 2\n1 0\n-1 0\n"),
    (
        "chain_sat",
        "p cnf 5 5\n1 2 0\n-1 3 0\n-3 4 0\n-4 5 0\n-5 -2 0\n",
    ),
    (
        "tiny_unsat",
        "p cnf 3 8\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n\
         -1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n",
    ),
    (
        "pigeonhole_3_2",
        // 3 pigeons, 2 holes: p_ij = pigeon i in hole j. UNSAT.
        "p cnf 6 9\n1 2 0\n3 4 0\n5 6 0\n\
         -1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n-2 -6 0\n-4 -6 0\n",
    ),
];

/// An UNSAT xor-chain miter over `width` inputs: forward vs reversed
/// association with the difference asserted. Needs genuine CDCL search.
fn xor_miter(width: usize) -> CnfBuilder {
    use odcfp_sat::Lit;
    let mut cnf = CnfBuilder::new();
    let inputs = cnf.new_vars(width);
    let xor2 = |cnf: &mut CnfBuilder, a, b| {
        let t = cnf.new_var();
        cnf.add_clause([Lit::neg(t), Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause([Lit::neg(t), Lit::neg(a), Lit::neg(b)]);
        cnf.add_clause([Lit::pos(t), Lit::neg(a), Lit::pos(b)]);
        cnf.add_clause([Lit::pos(t), Lit::pos(a), Lit::neg(b)]);
        t
    };
    let mut acc = inputs[0];
    for &i in &inputs[1..] {
        acc = xor2(&mut cnf, acc, i);
    }
    let mut rev = inputs[width - 1];
    for &i in inputs[..width - 1].iter().rev() {
        rev = xor2(&mut cnf, rev, i);
    }
    let diff = xor2(&mut cnf, acc, rev);
    cnf.add_clause([Lit::pos(diff)]);
    cnf
}

/// The full instance set: the DIMACS corpus plus generated hard miters.
fn instances() -> Vec<(String, CnfBuilder)> {
    let mut all: Vec<(String, CnfBuilder)> = CORPUS
        .iter()
        .map(|(name, text)| {
            (
                (*name).to_string(),
                parse_dimacs(text).expect("corpus parses"),
            )
        })
        .collect();
    for width in [8, 16, 24] {
        all.push((format!("xor_miter_{width}"), xor_miter(width)));
    }
    all
}

/// Both named profiles plus `legacy` with one heuristic family switched
/// on: the five points of the feature cube the suite sweeps.
fn heuristic_combinations() -> [(&'static str, SolverConfig); 5] {
    [
        ("legacy", SolverConfig::legacy()),
        ("modern", SolverConfig::modern()),
        (
            "lbd+db-reduction",
            SolverConfig {
                lbd_tracking: true,
                db_reduction: true,
                ..SolverConfig::legacy()
            },
        ),
        (
            "rephasing",
            SolverConfig {
                rephasing: true,
                ..SolverConfig::legacy()
            },
        ),
        (
            "chrono-backtrack",
            SolverConfig {
                chrono_backtrack: true,
                ..SolverConfig::legacy()
            },
        ),
    ]
}

/// SAT models differ across configurations; compare verdict kinds, and check
/// any model against the formula itself instead of against a reference.
fn verdict_kind(result: &SolveResult, cnf: &CnfBuilder, label: &str) -> &'static str {
    match result {
        SolveResult::Sat(model) => {
            for i in 0..cnf.num_clauses() {
                assert!(
                    cnf.clause(i).iter().any(|&l| model.satisfies(l)),
                    "{label}: model violates clause {i}"
                );
            }
            "sat"
        }
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

#[test]
fn every_profile_reaches_the_same_verdict_on_the_corpus() {
    for (name, cnf) in instances() {
        let mut reference: Option<&'static str> = None;
        for (profile, config) in heuristic_combinations() {
            let mut solver = Solver::from_cnf_with(&cnf, config);
            let kind = verdict_kind(&solver.solve(), &cnf, &format!("{name}/{profile}"));
            assert_ne!(kind, "unknown", "{name}/{profile}: unbounded solve decided");
            match reference {
                None => reference = Some(kind),
                Some(expect) => {
                    assert_eq!(kind, expect, "{name}: profile {profile} disagrees")
                }
            }
        }
    }
}
