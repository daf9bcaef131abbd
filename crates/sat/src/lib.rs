//! A CDCL SAT solver and combinational equivalence checking.
//!
//! The fingerprinting method's central safety claim is that every
//! modification leaves the circuit function unchanged. This crate provides
//! the machinery to *prove* that claim for each fingerprinted copy:
//!
//! * [`Solver`] — a conflict-driven clause-learning SAT solver with
//!   two-literal watching, VSIDS branching, phase saving, first-UIP clause
//!   learning and Luby restarts, plus LBD-guided learnt-DB reduction and
//!   rephasing. It is the only solver
//!   type: [`Miter`], [`SharedMiter`] and [`SweepEngine`] each own one
//!   and call it directly;
//! * [`prove_locally`] — decides a superposed fingerprint variant's whole
//!   code space (or one pinned code) as small per-location obligations,
//!   by exhaustive simulation or a tiny miter each, escalating an output
//!   no claim settles to one exact obligation over its primary inputs;
//! * [`tseitin`] — Tseitin encoding of a gate-level
//!   [`Netlist`](odcfp_netlist::Netlist) into CNF;
//! * [`check_equivalence`] — miter-based combinational equivalence checking
//!   between two netlists, returning either a proof of equivalence or a
//!   concrete counterexample input assignment.
//!
//! # Example
//!
//! ```
//! use odcfp_sat::{CnfBuilder, Lit, Solver, SolveResult};
//!
//! let mut cnf = CnfBuilder::new();
//! let a = cnf.new_var();
//! let b = cnf.new_var();
//! cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
//! cnf.add_clause([Lit::neg(a)]);
//! let mut solver = Solver::from_cnf(&cnf);
//! match solver.solve() {
//!     SolveResult::Sat(model) => {
//!         assert!(!model.value(a));
//!         assert!(model.value(b));
//!     }
//!     other => panic!("expected SAT, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cnf;
mod config;
mod dimacs;
mod equiv;
mod heap;
mod lit;
pub mod local;
pub mod shared;
mod solver;
pub mod sweep;
pub mod tseitin;

pub use cnf::CnfBuilder;
pub use config::SolverConfig;
pub use dimacs::{parse_dimacs, ParseDimacsError};
pub use equiv::{check_equivalence, EquivError, EquivResult, Miter, MiterOutcome};
pub use lit::{Lit, Var};
pub use local::{prove_locally, LocalProof, Witness};
pub use shared::{SelectableInput, SelectableVariant, SharedMiter, VariantId};
pub use solver::{Limits, Model, SolveResult, Solver, SolverStats};
pub use sweep::{SweepEngine, SweepOptions, SweepReport};
