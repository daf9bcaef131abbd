//! One persistent solver checking fingerprinted variants of a base
//! circuit, via per-variant activation literals.
//!
//! The [`SharedMiter`] Tseitin-encodes the base **once**, unguarded, and
//! encodes only each variant's *delta* — nets whose drivers differ from
//! the base — under a fresh activation literal `act_i`: every delta
//! clause is extended with `¬act_i`, and [`SharedMiter::check`] solves
//! under the single assumption `act_i` (UNSAT: equivalent; SAT: a
//! counterexample over the base inputs). Clauses learnt from the shared
//! base cone stay valid for every variant. A superposition with free
//! selectors makes one check an exact verdict on a whole code space:
//! the monolithic reference the local proof ([`crate::local`]) is
//! tested against.
//!
//! Nets are matched to the base structurally: a variant net is *shared*
//! (reuses the base CNF variable, no new clauses) when it has the same net
//! index, the same driver shape, and all its fanin already resolved to base
//! variables. Fingerprinted copies are clones of the base with a few gates
//! widened, so almost every net is shared and a variant's marginal CNF is
//! a handful of clauses.

use std::time::Instant;

use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetDriver, Netlist};

use crate::equiv::{EquivError, MiterOutcome};
use crate::tseitin::{encode_gate, encode_netlist, ClauseSink};
use crate::{CnfBuilder, Limits, Lit, SolveResult, Solver, SolverConfig, SolverStats, Var};

/// Handle to a variant registered with
/// [`SharedMiter::add_selectable_variant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantId(usize);

/// One gate input of a selectable variant whose *presence* is governed by
/// a selector group (see [`SharedMiter::add_selectable_variant`]).
///
/// When the group's selector is false the input is replaced by `neutral`
/// — the identity element of the gate's plane (`true` for AND/NAND,
/// `false` for OR/NOR/XOR/XNOR) — so the gate computes exactly what it
/// would compute without the widening.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectableInput {
    /// The widened gate in the variant netlist.
    pub gate: GateId,
    /// Input position within that gate (0-based).
    pub position: usize,
    /// Selector group controlling this input.
    pub group: usize,
    /// Value the input takes when the group is unselected.
    pub neutral: bool,
}

/// Handle to a variant registered with
/// [`SharedMiter::add_selectable_variant`].
#[derive(Debug, Clone)]
pub struct SelectableVariant {
    id: VariantId,
}

impl SelectableVariant {
    /// The underlying variant handle; [`SharedMiter::check`] on it solves
    /// with **all selectors free** — UNSAT proves every one of the
    /// `2^groups` codes equivalent to the base in a single call.
    pub fn id(&self) -> VariantId {
        self.id
    }
}

/// The driver shape of one base net, for structural matching.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NetShape {
    PrimaryInput,
    Const(bool),
    Gate(PrimitiveFn, Vec<u32>),
}

#[derive(Debug)]
struct Variant {
    act: Var,
    /// No output ever differed structurally: equivalent without solving.
    trivial: bool,
}

/// A clause sink that guards every emitted clause with `¬act`, making the
/// clauses conditional on the variant's activation literal.
struct GuardedSink<'a> {
    solver: &'a mut Solver,
    guard: Lit,
}

impl ClauseSink for GuardedSink<'_> {
    fn fresh_var(&mut self) -> Var {
        self.solver.new_var()
    }
    fn emit(&mut self, lits: &[Lit]) {
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
        clause.push(self.guard);
        clause.extend_from_slice(lits);
        self.solver.add_clause(clause);
    }
}

/// An incremental multi-variant equivalence miter over one base netlist.
///
/// # Example
///
/// ```
/// use odcfp_netlist::{CellLibrary, Netlist};
/// use odcfp_sat::{MiterOutcome, SharedMiter};
/// use odcfp_logic::PrimitiveFn;
///
/// let lib = CellLibrary::standard();
/// let build = |f: PrimitiveFn| {
///     let mut n = Netlist::new("m", lib.clone());
///     let a = n.add_primary_input("a");
///     let b = n.add_primary_input("b");
///     let c = n.library().cell_for(f, 2).unwrap();
///     let g = n.add_gate("g", c, &[a, b]);
///     n.set_primary_output(n.gate_output(g));
///     n
/// };
/// let base = build(PrimitiveFn::Nand);
/// let mut shared = SharedMiter::build(&base);
/// let same = shared.add_selectable_variant(&build(PrimitiveFn::Nand), &[], 0)?.id();
/// let diff = shared.add_selectable_variant(&build(PrimitiveFn::Nor), &[], 0)?.id();
/// assert_eq!(shared.check(same, None, None), MiterOutcome::Equivalent);
/// assert!(matches!(
///     shared.check(diff, None, None),
///     MiterOutcome::Counterexample(_)
/// ));
/// # Ok::<(), odcfp_sat::EquivError>(())
/// ```
#[derive(Debug)]
pub struct SharedMiter {
    solver: Solver,
    /// CNF variable of each base net, by net index.
    base_vars: Vec<Var>,
    /// Driver shape of each base net, for structural delta detection.
    base_shapes: Vec<NetShape>,
    /// Base primary-input variables, by position (counterexample order).
    input_vars: Vec<Var>,
    /// Base primary-output variables, by position.
    output_vars: Vec<Var>,
    num_pis: usize,
    num_pos: usize,
    variants: Vec<Variant>,
}

impl SharedMiter {
    /// [`SharedMiter::build`] under a [`SolverConfig`], which has nothing
    /// to configure and is ignored.
    ///
    /// # Panics
    ///
    /// As [`SharedMiter::build`].
    pub fn build_with(base: &Netlist, _config: SolverConfig) -> SharedMiter {
        SharedMiter::build(base)
    }

    /// Tseitin-encodes `base` once into a fresh persistent solver.
    ///
    /// # Panics
    ///
    /// Panics if `base` has undriven nets or a combinational cycle
    /// (validate first).
    pub fn build(base: &Netlist) -> SharedMiter {
        let mut cnf = CnfBuilder::new();
        let enc = encode_netlist(&mut cnf, base);
        let base_vars: Vec<Var> = (0..base.num_nets())
            .map(|i| enc.var(odcfp_netlist::NetId::from_index(i)))
            .collect();
        let base_shapes = base
            .nets()
            .map(|(_, net)| match net.driver() {
                NetDriver::PrimaryInput => NetShape::PrimaryInput,
                NetDriver::Const(v) => NetShape::Const(v),
                NetDriver::Gate(g) => {
                    let gate = base.gate(g);
                    NetShape::Gate(
                        base.library().cell(gate.cell()).function(),
                        gate.inputs().iter().map(|n| n.index() as u32).collect(),
                    )
                }
                NetDriver::None => panic!("undriven net cannot be encoded"),
            })
            .collect();
        SharedMiter {
            solver: Solver::from_cnf(&cnf),
            base_vars,
            base_shapes,
            input_vars: base.primary_inputs().iter().map(|&p| enc.var(p)).collect(),
            output_vars: base.primary_outputs().iter().map(|&p| enc.var(p)).collect(),
            num_pis: base.primary_inputs().len(),
            num_pos: base.primary_outputs().len(),
            variants: Vec::new(),
        }
    }

    /// Encodes a *superposed* variant — the base with every fingerprint
    /// modification applied at once — where each widened input is guarded
    /// by a per-group selector variable that defaults the input to its
    /// plane-neutral value when unselected.
    ///
    /// The encoding is exact for the whole code space: assigning the
    /// selectors to a code `c` makes the variant cone compute precisely
    /// the netlist that applies exactly the modifications in `c` (a
    /// neutral literal is the identity of its plane), so
    /// [`SharedMiter::check`] on [`SelectableVariant::id`], which solves
    /// with all selectors **free**, proves all `2^groups` codes
    /// equivalent to the base at once when UNSAT.
    ///
    /// # Errors
    ///
    /// Returns an error if the variant's interface doesn't match the base.
    ///
    /// # Panics
    ///
    /// Panics if `variant` has undriven nets or a combinational cycle, or
    /// if `selectable` names an out-of-range gate/position/group or lists
    /// the same input twice — the caller builds the list programmatically
    /// from the modifications it just applied, so these are logic errors.
    pub fn add_selectable_variant(
        &mut self,
        variant: &Netlist,
        selectable: &[SelectableInput],
        groups: usize,
    ) -> Result<SelectableVariant, EquivError> {
        if variant.primary_inputs().len() != self.num_pis {
            return Err(EquivError::InputCountMismatch {
                left: self.num_pis,
                right: variant.primary_inputs().len(),
            });
        }
        if variant.primary_outputs().len() != self.num_pos {
            return Err(EquivError::OutputCountMismatch {
                left: self.num_pos,
                right: variant.primary_outputs().len(),
            });
        }
        let act = self.solver.new_var();
        let guard = Lit::neg(act);
        let selectors: Vec<Var> = (0..groups).map(|_| self.solver.new_var()).collect();
        // (gate index, position) -> (selector, neutral), validated.
        let mut gated: std::collections::HashMap<(usize, usize), (Var, bool)> =
            std::collections::HashMap::with_capacity(selectable.len());
        for s in selectable {
            assert!(s.group < groups, "selector group {} out of range", s.group);
            assert!(
                s.position < variant.gate(s.gate).inputs().len(),
                "selectable position {} out of range for gate {:?}",
                s.position,
                s.gate
            );
            let prev = gated.insert(
                (s.gate.index(), s.position),
                (selectors[s.group], s.neutral),
            );
            assert!(
                prev.is_none(),
                "selectable input listed twice: gate {:?} position {}",
                s.gate,
                s.position
            );
        }

        // Resolve each variant net to a CNF variable: shared nets reuse the
        // base variable, delta nets get fresh guarded clauses.
        let mut var_of = vec![None::<Var>; variant.num_nets()];
        for (k, &pi) in variant.primary_inputs().iter().enumerate() {
            var_of[pi.index()] = Some(self.input_vars[k]);
        }
        for (id, net) in variant.nets() {
            if let NetDriver::Const(v) = net.driver() {
                let i = id.index();
                if i < self.base_shapes.len() && self.base_shapes[i] == NetShape::Const(v) {
                    var_of[i] = Some(self.base_vars[i]);
                } else {
                    let fresh = self.solver.new_var();
                    var_of[i] = Some(fresh);
                    self.solver
                        .add_clause([guard, Lit::with_polarity(fresh, v)]);
                }
            }
        }
        let order = variant
            .cached_topo()
            .expect("cyclic netlist cannot be added (validate first)");
        let mut ins: Vec<Var> = Vec::new();
        for &g in order {
            let gate = variant.gate(g);
            let f = variant.library().cell(gate.cell()).function();
            ins.clear();
            for &n in gate.inputs() {
                ins.push(var_of[n.index()].expect("topological order resolves fanin first"));
            }
            if !gated.is_empty() {
                for (pos, v) in ins.iter_mut().enumerate() {
                    let Some(&(sel, neutral)) = gated.get(&(g.index(), pos)) else {
                        continue;
                    };
                    // e <-> if sel then x else neutral, guarded like every
                    // other delta clause. With neutral = true that is
                    // e <-> (x | !sel); with neutral = false, e <-> (x & sel).
                    let x = *v;
                    let e = self.solver.new_var();
                    if neutral {
                        self.solver.add_clause([guard, Lit::neg(x), Lit::pos(e)]);
                        self.solver.add_clause([guard, Lit::pos(sel), Lit::pos(e)]);
                        self.solver
                            .add_clause([guard, Lit::neg(e), Lit::pos(x), Lit::neg(sel)]);
                    } else {
                        self.solver.add_clause([guard, Lit::neg(e), Lit::pos(x)]);
                        self.solver.add_clause([guard, Lit::neg(e), Lit::pos(sel)]);
                        self.solver
                            .add_clause([guard, Lit::pos(e), Lit::neg(x), Lit::neg(sel)]);
                    }
                    *v = e;
                }
            }
            let out = gate.output().index();
            let shared = out < self.base_shapes.len()
                && match &self.base_shapes[out] {
                    NetShape::Gate(bf, b_ins) => {
                        *bf == f
                            && b_ins.len() == ins.len()
                            && b_ins
                                .iter()
                                .zip(&ins)
                                .all(|(&bn, &v)| self.base_vars[bn as usize] == v)
                    }
                    _ => false,
                };
            if shared {
                var_of[out] = Some(self.base_vars[out]);
            } else {
                let fresh = self.solver.new_var();
                var_of[out] = Some(fresh);
                let mut sink = GuardedSink {
                    solver: &mut self.solver,
                    guard,
                };
                encode_gate(&mut sink, f, fresh, &ins);
            }
        }

        // diff_j <-> (base_out_j XOR variant_out_j), guarded; assert that
        // some output differs — all under act.
        let mut diffs: Vec<Lit> = vec![guard];
        for (k, &po) in variant.primary_outputs().iter().enumerate() {
            let a = self.output_vars[k];
            let b = var_of[po.index()].expect("outputs are driven");
            if a == b {
                continue; // structurally identical output: can never differ
            }
            let d = self.solver.new_var();
            self.solver
                .add_clause([guard, Lit::neg(d), Lit::pos(a), Lit::pos(b)]);
            self.solver
                .add_clause([guard, Lit::neg(d), Lit::neg(a), Lit::neg(b)]);
            self.solver
                .add_clause([guard, Lit::pos(d), Lit::pos(a), Lit::neg(b)]);
            self.solver
                .add_clause([guard, Lit::pos(d), Lit::neg(a), Lit::pos(b)]);
            diffs.push(Lit::pos(d));
        }
        let trivial = diffs.len() == 1;
        if !trivial {
            self.solver.add_clause(diffs);
        }
        // New variant clauses are problem clauses, not learnt ones.
        self.solver.rebase_problem_clauses();
        let id = VariantId(self.variants.len());
        self.variants.push(Variant { act, trivial });
        Ok(SelectableVariant { id })
    }

    /// Checks one variant against the base, under an optional conflict
    /// budget and wall-clock deadline.
    ///
    /// On [`MiterOutcome::Undecided`] the solver state (learnt clauses
    /// included) is preserved; calling `check` again continues the search.
    pub fn check(
        &mut self,
        id: VariantId,
        conflict_budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> MiterOutcome {
        if !odcfp_obs::enabled() {
            return self.check_inner(id, conflict_budget, deadline);
        }
        let mut span = odcfp_obs::span("shared.check");
        let before = self.solver.stats().conflicts;
        let outcome = self.check_inner(id, conflict_budget, deadline);
        span.field("variant", id.0);
        span.field(
            "outcome",
            match outcome {
                MiterOutcome::Equivalent => "equivalent",
                MiterOutcome::Counterexample(_) => "counterexample",
                MiterOutcome::Undecided => "undecided",
            },
        );
        span.field("conflicts", self.solver.stats().conflicts - before);
        outcome
    }

    fn check_inner(
        &mut self,
        id: VariantId,
        conflict_budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> MiterOutcome {
        let v = &self.variants[id.0];
        if v.trivial {
            return MiterOutcome::Equivalent;
        }
        let limits = Limits {
            conflicts: conflict_budget,
            deadline,
            interrupt: None,
        };
        match self.solver.solve_under(&[Lit::pos(v.act)], &limits) {
            SolveResult::Unsat => MiterOutcome::Equivalent,
            SolveResult::Sat(model) => MiterOutcome::Counterexample(
                self.input_vars.iter().map(|&v| model.value(v)).collect(),
            ),
            SolveResult::Unknown => MiterOutcome::Undecided,
        }
    }

    /// Search statistics of the shared solver, accumulated over all checks.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// The number of variables in the shared solver (base + all deltas).
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn identical_variant_is_trivially_equivalent() {
        let base = fig1(false);
        let clone = fig1(false);
        let mut sm = SharedMiter::build(&base);
        let vars_before = sm.num_vars();
        let id = sm.add_selectable_variant(&clone, &[], 0).unwrap().id();
        assert_eq!(sm.check(id, None, None), MiterOutcome::Equivalent);
        // Every net shared: only the activation literal was allocated.
        assert_eq!(sm.num_vars(), vars_before + 1);
        assert_eq!(sm.stats().conflicts, 0);
    }

    #[test]
    fn odc_variant_delta_is_small_and_equivalent() {
        let base = fig1(false);
        let marked = fig1(true);
        let mut sm = SharedMiter::build(&base);
        let vars_before = sm.num_vars();
        let id = sm.add_selectable_variant(&marked, &[], 0).unwrap().id();
        assert_eq!(sm.check(id, None, None), MiterOutcome::Equivalent);
        // Only gx's cone changed: act + new gx var + new gf var + diff var.
        let delta_vars = sm.num_vars() - vars_before;
        assert!(delta_vars <= 5, "delta too large: {delta_vars} fresh vars");
    }

    #[test]
    fn many_variants_one_solver_with_counterexamples() {
        let base = fig1(false);
        let mut sm = SharedMiter::build(&base);
        let good = sm.add_selectable_variant(&fig1(true), &[], 0).unwrap().id();

        let lib = base.library().clone();
        let mut wrong = Netlist::new("wrong", lib);
        let a = wrong.add_primary_input("A");
        let b = wrong.add_primary_input("B");
        let _c = wrong.add_primary_input("C");
        let d = wrong.add_primary_input("D");
        let and2 = wrong.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = wrong.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let x = wrong.add_gate("gx", and2, &[a, b]);
        let f = wrong.add_gate("gf", or2, &[wrong.gate_output(x), d]);
        wrong.set_primary_output(wrong.gate_output(f));
        let bad = sm.add_selectable_variant(&wrong, &[], 0).unwrap().id();

        assert_eq!(sm.check(good, None, None), MiterOutcome::Equivalent);
        match sm.check(bad, None, None) {
            MiterOutcome::Counterexample(inputs) => {
                assert_eq!(inputs.len(), 4);
                assert_ne!(base.eval(&inputs), wrong.eval(&inputs));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
        // A bad variant must not poison its siblings.
        assert_eq!(sm.check(good, None, None), MiterOutcome::Equivalent);
    }

    #[test]
    fn starved_check_resumes() {
        // Structurally disjoint XOR associations force real search.
        let build = |reversed: bool| {
            let lib = CellLibrary::standard();
            let mut n = Netlist::new("xors", lib);
            let mut pis: Vec<_> = (0..10)
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
        };
        let base = build(false);
        let mut sm = SharedMiter::build(&base);
        let id = sm
            .add_selectable_variant(&build(true), &[], 0)
            .unwrap()
            .id();
        assert_eq!(sm.check(id, Some(0), None), MiterOutcome::Undecided);
        assert_eq!(sm.check(id, None, None), MiterOutcome::Equivalent);
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let base = fig1(false);
        let lib = base.library().clone();
        let mut tiny = Netlist::new("tiny", lib);
        let a = tiny.add_primary_input("a");
        tiny.set_primary_output(a);
        let mut sm = SharedMiter::build(&base);
        assert!(matches!(
            sm.add_selectable_variant(&tiny, &[], 0),
            Err(EquivError::InputCountMismatch { .. })
        ));
    }
}
