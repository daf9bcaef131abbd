//! Differential suite for the solver: every verdict is checked against a
//! reference that shares nothing with the search. The DIMACS corpus is
//! small enough to decide by exhaustive evaluation of the formula, the
//! xor miters are UNSAT by construction, and every SAT model is checked
//! against the clauses it claims to satisfy.

use odcfp_sat::{parse_dimacs, CnfBuilder, SolveResult, Solver};

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

/// Largest corpus formula decided by enumerating every assignment.
const MAX_EXHAUSTIVE_VARS: usize = 6;

/// Solves `cnf` unbounded and returns whether it is satisfiable, after
/// checking any model against every clause.
fn solve_checked(cnf: &CnfBuilder, name: &str) -> bool {
    match Solver::from_cnf(cnf).solve() {
        SolveResult::Sat(model) => {
            for i in 0..cnf.num_clauses() {
                assert!(
                    cnf.clause(i).iter().any(|&l| model.satisfies(l)),
                    "{name}: model violates clause {i}"
                );
            }
            true
        }
        SolveResult::Unsat => false,
        SolveResult::Unknown => panic!("{name}: an unbounded solve must decide"),
    }
}

#[test]
fn corpus_verdicts_match_exhaustive_evaluation() {
    for (name, text) in CORPUS {
        let cnf = parse_dimacs(text).expect("corpus parses");
        let n = cnf.num_vars();
        assert!(n <= MAX_EXHAUSTIVE_VARS, "{name}: {n} variables");
        let brute_sat = (0..1usize << n).any(|m| {
            let assignment: Vec<bool> = (0..n).map(|v| m >> v & 1 == 1).collect();
            cnf.eval(&assignment)
        });
        assert_eq!(solve_checked(&cnf, name), brute_sat, "{name}");
    }
}

#[test]
fn xor_miters_are_unsat() {
    for width in [8, 16, 24] {
        let name = format!("xor_miter_{width}");
        assert!(!solve_checked(&xor_miter(width), &name), "{name}");
    }
}
