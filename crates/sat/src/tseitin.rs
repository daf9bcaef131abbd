//! Tseitin encoding of gate-level netlists into CNF.

use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{NetDriver, NetId, Netlist};

use crate::{CnfBuilder, Lit, Solver, Var};

/// A receiver of Tseitin clauses: either an offline [`CnfBuilder`] or a
/// live incremental [`Solver`] (used by the SAT-sweeping engine and the
/// shared per-buyer miter, which encode straight into a running solver).
pub trait ClauseSink {
    /// Allocates a fresh variable.
    fn fresh_var(&mut self) -> Var;
    /// Adds a clause.
    fn emit(&mut self, lits: &[Lit]);
}

impl ClauseSink for CnfBuilder {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }
    fn emit(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }
}

impl ClauseSink for Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }
    fn emit(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }
}

impl<S: ClauseSink + ?Sized> ClauseSink for &mut S {
    fn fresh_var(&mut self) -> Var {
        (**self).fresh_var()
    }
    fn emit(&mut self, lits: &[Lit]) {
        (**self).emit(lits);
    }
}

/// The CNF image of a netlist: one variable per net.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// `vars[net.index()]` is the CNF variable carrying that net's value.
    vars: Vec<Var>,
}

impl Encoding {
    /// The variable encoding `net`.
    pub fn var(&self, net: NetId) -> Var {
        self.vars[net.index()]
    }
}

/// Encodes every gate of `netlist` into `cnf`, allocating one variable per
/// net. Constant nets become unit clauses; primary inputs are left
/// unconstrained.
///
/// Gates are emitted in the netlist's memoized topological order
/// ([`Netlist::cached_topo`]) so repeated encodings — one miter per buyer
/// in a campaign — do not re-run Kahn's algorithm, and the clause order
/// follows data flow (definitions precede uses) for better solver locality.
/// Variable numbering is unaffected: variables are allocated per net, in
/// net-id order, before any gate clause is added.
///
/// # Panics
///
/// Panics if the netlist contains an undriven net or a combinational cycle
/// (validate first).
pub fn encode_netlist(cnf: &mut CnfBuilder, netlist: &Netlist) -> Encoding {
    let vars: Vec<Var> = (0..netlist.num_nets()).map(|_| cnf.new_var()).collect();
    let enc = Encoding { vars };
    for (id, net) in netlist.nets() {
        match net.driver() {
            NetDriver::PrimaryInput => {}
            NetDriver::Const(v) => {
                cnf.add_clause([Lit::with_polarity(enc.var(id), v)]);
            }
            NetDriver::Gate(_) => {}
            NetDriver::None => panic!("undriven net {id} cannot be encoded"),
        }
    }
    let order = netlist.cached_topo().expect("cyclic netlist");
    let mut ins: Vec<Var> = Vec::new();
    for &g in order {
        let gate = netlist.gate(g);
        let f = netlist.library().cell(gate.cell()).function();
        let out = enc.var(gate.output());
        ins.clear();
        ins.extend(gate.inputs().iter().map(|&n| enc.var(n)));
        encode_gate(cnf, f, out, &ins);
    }
    enc
}

/// Adds clauses asserting `out == f(ins)`.
///
/// # Panics
///
/// Panics if `ins.len()` is not a legal arity for `f`.
pub fn encode_gate<S: ClauseSink>(sink: &mut S, f: PrimitiveFn, out: Var, ins: &[Var]) {
    assert!(ins.len() >= f.min_arity(), "arity too small for {f}");
    match f {
        PrimitiveFn::Buf => {
            sink.emit(&[Lit::neg(out), Lit::pos(ins[0])]);
            sink.emit(&[Lit::pos(out), Lit::neg(ins[0])]);
        }
        PrimitiveFn::Inv => {
            sink.emit(&[Lit::neg(out), Lit::neg(ins[0])]);
            sink.emit(&[Lit::pos(out), Lit::pos(ins[0])]);
        }
        PrimitiveFn::And => encode_and_plane(sink, out, ins, false),
        PrimitiveFn::Nand => encode_and_plane(sink, out, ins, true),
        PrimitiveFn::Or => encode_or_plane(sink, out, ins, false),
        PrimitiveFn::Nor => encode_or_plane(sink, out, ins, true),
        PrimitiveFn::Xor => encode_parity(sink, out, ins, false),
        PrimitiveFn::Xnor => encode_parity(sink, out, ins, true),
    }
}

/// `out == AND(ins)` (or NAND when `invert`).
fn encode_and_plane<S: ClauseSink>(sink: &mut S, out: Var, ins: &[Var], invert: bool) {
    let o = |polarity: bool| Lit::with_polarity(out, polarity != invert);
    // out -> each input.
    for &i in ins {
        sink.emit(&[o(false), Lit::pos(i)]);
    }
    // all inputs -> out.
    let mut big: Vec<Lit> = ins.iter().map(|&i| Lit::neg(i)).collect();
    big.push(o(true));
    sink.emit(&big);
}

/// `out == OR(ins)` (or NOR when `invert`).
fn encode_or_plane<S: ClauseSink>(sink: &mut S, out: Var, ins: &[Var], invert: bool) {
    let o = |polarity: bool| Lit::with_polarity(out, polarity != invert);
    // each input -> out.
    for &i in ins {
        sink.emit(&[o(true), Lit::neg(i)]);
    }
    // out -> some input.
    let mut big: Vec<Lit> = ins.iter().map(|&i| Lit::pos(i)).collect();
    big.push(o(false));
    sink.emit(&big);
}

/// `out == XOR(ins)` (or XNOR when `invert`), chaining pairwise through
/// auxiliary variables.
fn encode_parity<S: ClauseSink>(sink: &mut S, out: Var, ins: &[Var], invert: bool) {
    // XNOR(x1..xn) = (!x1) ^ x2 ^ ... ^ xn, so complement the accumulator on
    // the final link when inverting.
    let mut acc = ins[0];
    for (k, &b) in ins.iter().enumerate().skip(1) {
        let is_last = k + 1 == ins.len();
        let target = if is_last { out } else { sink.fresh_var() };
        encode_xor2(sink, target, acc, invert && is_last, b);
        acc = target;
    }
}

/// `t == a ^ b`, with `a` complemented when `a_inv`.
fn encode_xor2<S: ClauseSink>(sink: &mut S, t: Var, a: Var, a_inv: bool, b: Var) {
    let la = |pol: bool| Lit::with_polarity(a, pol != a_inv);
    sink.emit(&[Lit::neg(t), la(true), Lit::pos(b)]);
    sink.emit(&[Lit::neg(t), la(false), Lit::neg(b)]);
    sink.emit(&[Lit::pos(t), la(true), Lit::neg(b)]);
    sink.emit(&[Lit::pos(t), la(false), Lit::pos(b)]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveResult, Solver};
    use odcfp_netlist::CellLibrary;

    /// Exhaustively checks that the CNF relation {out, ins} matches `f`.
    fn check_gate(f: PrimitiveFn, arity: usize) {
        for row in 0..(1usize << arity) {
            let ins_bits: Vec<bool> = (0..arity).map(|v| (row >> v) & 1 == 1).collect();
            let expect = f.eval(&ins_bits);
            for out_bit in [false, true] {
                let mut cnf = CnfBuilder::new();
                let out = cnf.new_var();
                let ins = cnf.new_vars(arity);
                encode_gate(&mut cnf, f, out, &ins);
                for (v, &bit) in ins.iter().zip(&ins_bits) {
                    cnf.add_clause([Lit::with_polarity(*v, bit)]);
                }
                cnf.add_clause([Lit::with_polarity(out, out_bit)]);
                let mut s = Solver::from_cnf(&cnf);
                let sat = matches!(s.solve(), SolveResult::Sat(_));
                assert_eq!(
                    sat,
                    out_bit == expect,
                    "{f} arity {arity} row {row} out {out_bit}"
                );
            }
        }
    }

    #[test]
    fn all_gate_encodings_correct() {
        for f in PrimitiveFn::ALL {
            let arities: &[usize] = if f.is_single_input() {
                &[1]
            } else {
                &[2, 3, 4, 5]
            };
            for &n in arities {
                check_gate(f, n);
            }
        }
    }

    #[test]
    fn netlist_encoding_matches_simulation() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("enc", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let one = n.add_constant("one", true);
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let nor2 = n.library().cell_for(PrimitiveFn::Nor, 2).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, one]);
        let g2 = n.add_gate("g2", xor2, &[n.gate_output(g1), b]);
        let g3 = n.add_gate("g3", nor2, &[n.gate_output(g2), c]);
        n.set_primary_output(n.gate_output(g3));
        n.validate().unwrap();

        for row in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|v| (row >> v) & 1 == 1).collect();
            let expect = n.eval(&bits)[0];
            let mut cnf = CnfBuilder::new();
            let enc = encode_netlist(&mut cnf, &n);
            for (k, &pi) in n.primary_inputs().iter().enumerate() {
                cnf.add_clause([Lit::with_polarity(enc.var(pi), bits[k])]);
            }
            let po = n.primary_outputs()[0];
            // Assert the *wrong* output value: must be UNSAT.
            cnf.add_clause([Lit::with_polarity(enc.var(po), !expect)]);
            let mut s = Solver::from_cnf(&cnf);
            assert_eq!(s.solve(), SolveResult::Unsat, "row {row}");
        }
    }
}
