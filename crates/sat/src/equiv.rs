//! Miter-based combinational equivalence checking.

use std::fmt;

use odcfp_netlist::Netlist;

use crate::tseitin::encode_netlist;
use crate::{CnfBuilder, Limits, Lit, SolveResult, Solver, Var};

/// Why two netlists could not be compared.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EquivError {
    /// The primary input counts differ.
    InputCountMismatch {
        /// PI count of the left netlist.
        left: usize,
        /// PI count of the right netlist.
        right: usize,
    },
    /// The primary output counts differ.
    OutputCountMismatch {
        /// PO count of the left netlist.
        left: usize,
        /// PO count of the right netlist.
        right: usize,
    },
    /// The SAT solver exhausted its conflict budget.
    BudgetExhausted,
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::InputCountMismatch { left, right } => {
                write!(f, "primary input counts differ: {left} vs {right}")
            }
            EquivError::OutputCountMismatch { left, right } => {
                write!(f, "primary output counts differ: {left} vs {right}")
            }
            EquivError::BudgetExhausted => write!(f, "SAT conflict budget exhausted"),
        }
    }
}

impl std::error::Error for EquivError {}

/// The verdict of [`check_equivalence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivResult {
    /// The circuits compute identical functions (proved by UNSAT).
    Equivalent,
    /// A concrete primary-input assignment on which the outputs differ.
    Counterexample(Vec<bool>),
}

/// Proves or refutes combinational equivalence of two netlists by building a
/// miter (shared inputs by position, XOR-compared outputs by position) and
/// solving it.
///
/// Primary inputs and outputs are matched **by position**, which is the
/// natural convention here: fingerprinted copies are clones of a base
/// netlist, so positions always agree.
///
/// # Errors
///
/// Returns an error if the interfaces don't match or `conflict_budget`
/// (if `Some`) is exhausted before a verdict.
///
/// # Example
///
/// ```
/// use odcfp_netlist::{CellLibrary, Netlist};
/// use odcfp_sat::{check_equivalence, EquivResult};
/// use odcfp_logic::PrimitiveFn;
///
/// let lib = CellLibrary::standard();
/// let mut build = |f: PrimitiveFn| {
///     let mut n = Netlist::new("m", lib.clone());
///     let a = n.add_primary_input("a");
///     let b = n.add_primary_input("b");
///     let c = n.library().cell_for(f, 2).unwrap();
///     let g = n.add_gate("g", c, &[a, b]);
///     n.set_primary_output(n.gate_output(g));
///     n
/// };
/// let nand = build(PrimitiveFn::Nand);
/// let also_nand = build(PrimitiveFn::Nand);
/// let nor = build(PrimitiveFn::Nor);
/// assert_eq!(check_equivalence(&nand, &also_nand, None)?, EquivResult::Equivalent);
/// assert!(matches!(
///     check_equivalence(&nand, &nor, None)?,
///     EquivResult::Counterexample(_)
/// ));
/// # Ok::<(), odcfp_sat::EquivError>(())
/// ```
pub fn check_equivalence(
    left: &Netlist,
    right: &Netlist,
    conflict_budget: Option<u64>,
) -> Result<EquivResult, EquivError> {
    let mut miter = Miter::build(left, right)?;
    let limits = Limits {
        conflicts: conflict_budget,
        ..Limits::default()
    };
    match miter.solve(&limits) {
        MiterOutcome::Equivalent => Ok(EquivResult::Equivalent),
        MiterOutcome::Counterexample(inputs) => Ok(EquivResult::Counterexample(inputs)),
        MiterOutcome::Undecided => Err(EquivError::BudgetExhausted),
    }
}

/// The outcome of one [`Miter::solve`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterOutcome {
    /// The circuits compute identical functions (proved by UNSAT).
    Equivalent,
    /// A concrete primary-input assignment on which the outputs differ.
    Counterexample(Vec<bool>),
    /// The budget or deadline ran out; call [`Miter::solve`] again with a
    /// larger budget to continue where the search left off.
    Undecided,
}

/// A whole-circuit equivalence miter: built once, solvable repeatedly
/// under per-call [`Limits`].
///
/// Learnt clauses are retained inside the embedded [`Solver`] across
/// [`Miter::solve`] calls, so a retry with a larger budget resumes from the
/// accumulated knowledge of earlier attempts rather than starting over.
/// The verify ladder does not use it (its SAT rung is the
/// [`SweepEngine`](crate::SweepEngine)); it is the cold reference that
/// [`check_equivalence`] and the differential tests solve directly.
///
/// # Example
///
/// ```
/// use odcfp_netlist::{CellLibrary, Netlist};
/// use odcfp_sat::{Limits, Miter, MiterOutcome};
/// use odcfp_logic::PrimitiveFn;
///
/// let lib = CellLibrary::standard();
/// let build = || {
///     let mut n = Netlist::new("m", lib.clone());
///     let a = n.add_primary_input("a");
///     let b = n.add_primary_input("b");
///     let c = n.library().cell_for(PrimitiveFn::Nand, 2).unwrap();
///     let g = n.add_gate("g", c, &[a, b]);
///     n.set_primary_output(n.gate_output(g));
///     n
/// };
/// let (left, right) = (build(), build());
/// let mut miter = Miter::build(&left, &right)?;
/// assert_eq!(miter.solve(&Limits::default()), MiterOutcome::Equivalent);
/// # Ok::<(), odcfp_sat::EquivError>(())
/// ```
#[derive(Debug)]
pub struct Miter {
    solver: Solver,
    input_vars: Vec<Var>,
    trivially_equivalent: bool,
}

impl Miter {
    /// Builds the miter CNF over `left` and `right` (shared inputs by
    /// position, XOR-compared outputs by position) on a fresh solver.
    ///
    /// Primary inputs and outputs are matched **by position**, which is the
    /// natural convention here: fingerprinted copies are clones of a base
    /// netlist, so positions always agree.
    ///
    /// # Errors
    ///
    /// Returns an error if the interfaces don't match.
    pub fn build(left: &Netlist, right: &Netlist) -> Result<Self, EquivError> {
        if left.primary_inputs().len() != right.primary_inputs().len() {
            return Err(EquivError::InputCountMismatch {
                left: left.primary_inputs().len(),
                right: right.primary_inputs().len(),
            });
        }
        if left.primary_outputs().len() != right.primary_outputs().len() {
            return Err(EquivError::OutputCountMismatch {
                left: left.primary_outputs().len(),
                right: right.primary_outputs().len(),
            });
        }

        let mut cnf = CnfBuilder::new();
        let enc_l = encode_netlist(&mut cnf, left);
        let enc_r = encode_netlist(&mut cnf, right);
        // Tie the inputs together.
        for (&pl, &pr) in left.primary_inputs().iter().zip(right.primary_inputs()) {
            let a = enc_l.var(pl);
            let b = enc_r.var(pr);
            cnf.add_clause([Lit::neg(a), Lit::pos(b)]);
            cnf.add_clause([Lit::pos(a), Lit::neg(b)]);
        }
        // diff_i <-> (out_l_i XOR out_r_i); assert OR(diff_i).
        let mut diffs = Vec::new();
        for (&ol, &or) in left.primary_outputs().iter().zip(right.primary_outputs()) {
            let d = cnf.new_var();
            let a = enc_l.var(ol);
            let b = enc_r.var(or);
            cnf.add_clause([Lit::neg(d), Lit::pos(a), Lit::pos(b)]);
            cnf.add_clause([Lit::neg(d), Lit::neg(a), Lit::neg(b)]);
            cnf.add_clause([Lit::pos(d), Lit::pos(a), Lit::neg(b)]);
            cnf.add_clause([Lit::pos(d), Lit::neg(a), Lit::pos(b)]);
            diffs.push(Lit::pos(d));
        }
        let trivially_equivalent = diffs.is_empty();
        if !trivially_equivalent {
            cnf.add_clause(diffs);
        }
        let input_vars = left
            .primary_inputs()
            .iter()
            .map(|&pi| enc_l.var(pi))
            .collect();
        Ok(Miter {
            solver: Solver::from_cnf(&cnf),
            input_vars,
            trivially_equivalent,
        })
    }

    /// Attempts to decide the miter within `limits`.
    ///
    /// On [`MiterOutcome::Undecided`], the solver state (including learnt
    /// clauses) is preserved; calling `solve` again continues the search.
    pub fn solve(&mut self, limits: &Limits) -> MiterOutcome {
        if self.trivially_equivalent {
            return MiterOutcome::Equivalent;
        }
        match self.solver.solve_under(&[], limits) {
            SolveResult::Unsat => MiterOutcome::Equivalent,
            SolveResult::Sat(model) => MiterOutcome::Counterexample(
                self.input_vars.iter().map(|&v| model.value(v)).collect(),
            ),
            SolveResult::Unknown => MiterOutcome::Undecided,
        }
    }

    /// Total conflicts spent across all [`Miter::solve`] calls so far.
    pub fn conflicts_spent(&self) -> u64 {
        self.solver.stats().conflicts
    }

    /// Search statistics of the embedded solver, accumulated across all
    /// [`Miter::solve`] calls.
    pub fn stats(&self) -> crate::SolverStats {
        self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    fn fig1(redundant: bool) -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("fig1", lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let and3 = n.library().cell_for(PrimitiveFn::And, 3).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let y = n.add_gate("gy", or2, &[c, d]);
        let x = if redundant {
            n.add_gate("gx", and3, &[a, b, n.gate_output(y)])
        } else {
            n.add_gate("gx", and2, &[a, b])
        };
        let f = n.add_gate("gf", and2, &[n.gate_output(x), n.gate_output(y)]);
        n.set_primary_output(n.gate_output(f));
        n
    }

    #[test]
    fn paper_fig1_circuits_equivalent() {
        let base = fig1(false);
        let marked = fig1(true);
        assert_eq!(
            check_equivalence(&base, &marked, None).unwrap(),
            EquivResult::Equivalent
        );
    }

    #[test]
    fn inequivalent_detected_with_valid_counterexample() {
        let base = fig1(false);
        let lib = base.library().clone();
        let mut wrong = Netlist::new("wrong", lib);
        let a = wrong.add_primary_input("A");
        let b = wrong.add_primary_input("B");
        let _c = wrong.add_primary_input("C");
        let d = wrong.add_primary_input("D");
        let and2 = wrong.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = wrong.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let x = wrong.add_gate("gx", and2, &[a, b]);
        // Mistake: OR over (A&B, D) instead of the AND with (C|D).
        let f = wrong.add_gate("gf", or2, &[wrong.gate_output(x), d]);
        wrong.set_primary_output(wrong.gate_output(f));

        match check_equivalence(&base, &wrong, None).unwrap() {
            EquivResult::Counterexample(inputs) => {
                assert_ne!(base.eval(&inputs), wrong.eval(&inputs));
            }
            EquivResult::Equivalent => panic!("must differ"),
        }
    }

    #[test]
    fn interface_mismatch_errors() {
        let base = fig1(false);
        let lib = base.library().clone();
        let mut tiny = Netlist::new("tiny", lib);
        let a = tiny.add_primary_input("a");
        tiny.set_primary_output(a);
        assert!(matches!(
            check_equivalence(&base, &tiny, None),
            Err(EquivError::InputCountMismatch { .. })
        ));
    }

    fn capped(conflicts: u64) -> Limits {
        Limits {
            conflicts: Some(conflicts),
            ..Limits::default()
        }
    }

    /// XOR chain over `width` inputs, associated left-to-right or
    /// right-to-left; the two orders are equivalent but proving it takes
    /// real search, which makes the pair a good budget-starvation fixture.
    fn xor_chain(width: usize, reversed: bool) -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("xors", lib);
        let mut pis: Vec<_> = (0..width)
            .map(|i| n.add_primary_input(format!("i{i}")))
            .collect();
        if reversed {
            pis.reverse();
        }
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let mut acc = pis[0];
        for (k, &pi) in pis.iter().enumerate().skip(1) {
            let g = n.add_gate(format!("x{k}"), xor2, &[acc, pi]);
            acc = n.gate_output(g);
        }
        n.set_primary_output(acc);
        n
    }

    #[test]
    fn miter_resumes_after_starved_budget() {
        let left = xor_chain(10, false);
        let right = xor_chain(10, true);
        let mut miter = Miter::build(&left, &right).unwrap();
        // A zero conflict budget aborts at the first conflict.
        assert_eq!(miter.solve(&capped(0)), MiterOutcome::Undecided);
        let spent_early = miter.conflicts_spent();
        // Resuming without a budget finishes the proof on the same solver.
        assert_eq!(miter.solve(&Limits::default()), MiterOutcome::Equivalent);
        assert!(miter.conflicts_spent() >= spent_early);
    }

    #[test]
    fn repeated_solve_does_not_reencode() {
        let left = xor_chain(10, false);
        let right = xor_chain(10, true);
        let mut miter = Miter::build(&left, &right).unwrap();
        let vars_before = miter.solver.num_vars();
        let problem_before = miter.solver.num_problem_clauses();
        assert_eq!(miter.solve(&capped(0)), MiterOutcome::Undecided);
        assert_eq!(miter.solve(&capped(5)), MiterOutcome::Undecided);
        assert_eq!(miter.solve(&Limits::default()), MiterOutcome::Equivalent);
        assert_eq!(
            miter.solver.num_vars(),
            vars_before,
            "re-solving must not allocate fresh variables"
        );
        assert_eq!(
            miter.solver.num_problem_clauses(),
            problem_before,
            "re-solving must not re-encode the CNF"
        );
        assert!(miter.stats().conflicts > 0);
    }

    #[test]
    fn miter_expired_deadline_is_undecided() {
        let left = xor_chain(10, false);
        let right = xor_chain(10, true);
        let mut miter = Miter::build(&left, &right).unwrap();
        let past = std::time::Instant::now() - std::time::Duration::from_secs(1);
        assert_eq!(
            miter.solve(&Limits {
                deadline: Some(past),
                ..Limits::default()
            }),
            MiterOutcome::Undecided
        );
        // Limits do not stick: the next call runs to completion.
        assert_eq!(miter.solve(&Limits::default()), MiterOutcome::Equivalent);
    }

    #[test]
    fn miter_counterexample_is_concrete() {
        let base = fig1(false);
        let lib = base.library().clone();
        let mut wrong = Netlist::new("wrong", lib);
        let a = wrong.add_primary_input("A");
        let b = wrong.add_primary_input("B");
        let _c = wrong.add_primary_input("C");
        let _d = wrong.add_primary_input("D");
        let and2 = wrong.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let x = wrong.add_gate("gx", and2, &[a, b]);
        wrong.set_primary_output(wrong.gate_output(x));

        let mut miter = Miter::build(&base, &wrong).unwrap();
        match miter.solve(&Limits::default()) {
            MiterOutcome::Counterexample(inputs) => {
                assert_eq!(inputs.len(), base.primary_inputs().len());
                assert_ne!(base.eval(&inputs), wrong.eval(&inputs));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn const_nets_in_miter() {
        let lib = CellLibrary::standard();
        let build = |tie: bool| {
            let mut n = Netlist::new("k", lib.clone());
            let a = n.add_primary_input("a");
            let second = if tie {
                n.add_constant("one", true)
            } else {
                // Equivalent: a AND a.
                a
            };
            let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
            let g = n.add_gate("g", and2, &[a, second]);
            n.set_primary_output(n.gate_output(g));
            n
        };
        assert_eq!(
            check_equivalence(&build(true), &build(false), None).unwrap(),
            EquivResult::Equivalent
        );
    }
}
