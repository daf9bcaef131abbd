//! Local proof of a selectable variant's whole code space: one small
//! obligation per modified gate instead of one free-selector miter.
//!
//! A superposed variant (see [`SharedMiter::add_selectable_variant`])
//! is the base netlist with a few gates widened and a few fresh
//! inverters added; every other gate sits at the same index with the
//! same function and fanin. [`prove_locally`] exploits that:
//!
//! * **Structural pass.** In topological order a variant net is
//!   *settled* when it is a primary input, the same constant as the
//!   base, or a gate with the base gate's function over the same
//!   (settled) input nets and no selectable input — the by-index shape
//!   test the shared miter uses to reuse base variables. Every other
//!   gate is *delta*.
//! * **Claim points.** Each delta gate whose output net has a base twin
//!   (a base gate driving the same net index) is an obligation: its
//!   output must equal the twin's output as functions of the free
//!   *cut* — the settled nets where the two cones stop — and of the
//!   selectors of the selectable inputs inside the variant cone. A
//!   claim that holds settles the net; one that fails leaves it delta,
//!   and the next claim downstream absorbs its cone. So the FFC gates
//!   of a location fail and its primary gate succeeds; same-gate
//!   compositions and nested locations merge into one obligation.
//!   When a claim fails, cut nets whose base driver reads another cut
//!   net are expanded into their drivers and the claim is retried: this
//!   is what a Fig. 5 reroute needs, whose sources and trigger are
//!   related through the trigger-generating gate.
//! * **Escalation.** Each primary output no claim settled (claims stop
//!   early at a work or size cap) gets one exact obligation: every
//!   settled net of its cone is expanded through its base driver, so
//!   the cut is the cone's primary inputs; no gate cap, and the rest of
//!   the conflict budget.
//! * **Discharge.** An obligation of at most [`SIM_VARS`] free variables
//!   is decided by exhaustive word-parallel simulation; a wider one by a
//!   fresh small [`Solver`] miter over just the obligation's gates.
//! * **Pinned mode.** Given a `code`, a selectable input reads its net
//!   or its neutral constant by the code's bit: the pass decides that
//!   one code.
//!
//! **Soundness.** By induction in topological order every settled
//! net computes, for every primary-input assignment and every selector
//! assignment, the same value as the base net of the same index: a
//! structurally settled net applies the same function to settled
//! inputs, and a claim holds for *all* values of its cut and selectors,
//! hence in particular for the values the settled cut nets actually
//! take. If every primary output ends settled, all `2^groups` codes are
//! equivalent to the base. A failed claim is **not** a refutation — a
//! free cut over-approximates the values its nets can reach together —
//! but an escalated obligation's cut is the primary inputs themselves,
//! so its counterexample is a real [`Witness`]. The pass proves,
//! refutes, or is undecided when the budget, deadline or interrupt ran
//! out.
//!
//! [`SharedMiter::add_selectable_variant`]: crate::SharedMiter::add_selectable_variant

use std::collections::{BTreeSet, HashMap};

use odcfp_logic::sim::{exhaustive_word, Block, BLOCK_LANES, ZERO_BLOCK};
use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetDriver, NetId, Netlist};

use crate::shared::SelectableInput;
use crate::tseitin::encode_gate;
use crate::{Limits, Lit, SolveResult, Solver, Var};

/// Obligations with at most this many free variables (cut nets plus
/// selectors) are discharged by exhaustive simulation, without a solver.
pub const SIM_VARS: usize = 16;

/// Gates (variant and base side together) one claim may span before
/// the pass stops claiming and escalates.
const MAX_OBLIGATION_GATES: usize = 512;

/// Conflicts one SAT-discharged claim may spend before it counts as
/// failed.
const OBLIGATION_CONFLICTS: u64 = 10_000;

/// Rounds of cut expansion a failed claim gets before it stays failed.
const MAX_EXPANSIONS: usize = 4;

/// Node expansions one sweep cut-point window may take
/// (see [`SweepEngine`](crate::SweepEngine)).
pub(crate) const WINDOW_EXPANSIONS: usize = 32;

/// Leaves past [`SIM_VARS`] a sweep window's frontier may hold while it
/// is still expanding; reconvergence can shrink it back.
pub(crate) const WINDOW_SLACK: usize = 8;

/// A sweep window with at most this many leaves fits one 64-row word,
/// so it is checked after every expansion.
pub(crate) const WINDOW_CHEAP_LEAVES: usize = 6;

/// What [`prove_locally`] established: `proven`, a `witness`, or
/// neither when the budget, the deadline or the interrupt ran out first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocalProof {
    /// Every primary output ended settled: every code of the space (in
    /// pinned mode, the pinned code) is equivalent to the base.
    pub proven: bool,
    /// An escalated obligation failed: the variant differs from the base.
    pub witness: Option<Witness>,
    /// Obligations checked: claims (each retry after a cut expansion
    /// included) and escalations.
    pub obligations: usize,
    /// Of those, decided by exhaustive simulation.
    pub simulated: usize,
    /// Of those, decided by a SAT miter.
    pub solved: usize,
    /// Free variables of the widest obligation checked.
    pub widest_cut: usize,
    /// Conflicts the SAT-discharged obligations spent.
    pub conflicts: u64,
    /// Primary outputs the claims left unsettled, each given one exact
    /// obligation over its cone's primary inputs.
    pub escalated: usize,
    /// The variant gate the first escalation traces back to: the first
    /// claim point that failed to settle in the cone of the first
    /// primary output the claims left unsettled. `None` when nothing
    /// escalated.
    pub unsettled: Option<GateId>,
}

/// An input assignment and a code on which a variant and its base
/// compute different primary outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// One value per primary input, in input order; inputs outside the
    /// differing output's cone are false.
    pub inputs: Vec<bool>,
    /// One value per selector group: the pinned code in pinned mode,
    /// else false for the groups outside the differing output's cone.
    pub code: Vec<bool>,
}

/// Decides every code of a selectable variant — or, given `code`, that
/// one code — against `base` by local obligations; see the module docs
/// for the argument.
///
/// `limits.conflicts` bounds the conflicts of all SAT-discharged
/// obligations together, and the deadline and interrupt stop the whole
/// pass.
///
/// # Panics
///
/// Panics if either netlist has a combinational cycle, if `selectable`
/// names an out-of-range gate, position or group or lists the same
/// input twice (as [`SharedMiter::add_selectable_variant`]), or if
/// `code` does not have `groups` bits.
///
/// [`SharedMiter::add_selectable_variant`]: crate::SharedMiter::add_selectable_variant
pub fn prove_locally(
    base: &Netlist,
    variant: &Netlist,
    selectable: &[SelectableInput],
    groups: usize,
    code: Option<&[bool]>,
    limits: &Limits,
) -> LocalProof {
    if let Some(code) = code {
        assert_eq!(code.len(), groups, "code length must match selector groups");
    }
    let mut gated: HashMap<(usize, usize), (usize, bool)> =
        HashMap::with_capacity(selectable.len());
    for s in selectable {
        assert!(s.group < groups, "selector group {} out of range", s.group);
        assert!(
            s.position < variant.gate(s.gate).inputs().len(),
            "selectable position {} out of range for gate {:?}",
            s.position,
            s.gate
        );
        let prev = gated.insert((s.gate.index(), s.position), (s.group, s.neutral));
        assert!(
            prev.is_none(),
            "selectable input listed twice: gate {:?} position {}",
            s.gate,
            s.position
        );
    }
    let mut pass = Pass {
        base,
        variant,
        gated,
        groups,
        code,
        settled: vec![false; variant.num_nets()],
        variant_pos: topo_positions(variant),
        base_pos: topo_positions(base),
        limits,
        proof: LocalProof::default(),
        work: 0,
        program: Program::default(),
    };
    match pass.walk() {
        Ok(()) => pass.proof.proven = true,
        Err(witness) => pass.proof.witness = witness,
    }
    pass.proof
}

/// Position of every gate in the netlist's topological order.
fn topo_positions(netlist: &Netlist) -> Vec<usize> {
    let order = netlist
        .cached_topo()
        .expect("cyclic netlist cannot be proven (validate first)");
    let mut pos = vec![0; netlist.num_gates()];
    for (k, g) in order.iter().enumerate() {
        pos[g.index()] = k;
    }
    pos
}

struct Pass<'a> {
    base: &'a Netlist,
    variant: &'a Netlist,
    /// (variant gate, input position) -> (selector group, neutral value).
    gated: HashMap<(usize, usize), (usize, bool)>,
    groups: usize,
    /// Pinned mode: the one code decided.
    code: Option<&'a [bool]>,
    /// Variant net computes the base net of the same index.
    settled: Vec<bool>,
    variant_pos: Vec<usize>,
    base_pos: Vec<usize>,
    limits: &'a Limits,
    proof: LocalProof,
    /// Gates visited by obligations so far, against a total cap.
    work: usize,
    /// The current obligation, compiled; reused across obligations.
    program: Program,
}

/// How one obligation came out.
enum Check {
    Holds,
    /// Values of the free slots on which the two sides differ.
    Differs(Vec<bool>),
    /// The solver ran out of conflicts or time.
    Unknown,
}

impl Pass<'_> {
    /// Conflicts left in the budget.
    fn remaining(&self) -> Option<u64> {
        let spent = self.proof.conflicts;
        self.limits.conflicts.map(|b| b.saturating_sub(spent))
    }

    /// Settles every primary output, or stops with the witness of a
    /// difference, or with `None` when undecided: interrupted, past the
    /// deadline or out of conflicts, or the interfaces differ.
    fn walk(&mut self) -> Result<(), Option<Witness>> {
        let (base, variant) = (self.base, self.variant);
        // Interfaces line up by index, or nothing below means anything.
        if base.primary_inputs() != variant.primary_inputs()
            || base.primary_outputs() != variant.primary_outputs()
        {
            return Err(None);
        }
        for &pi in variant.primary_inputs() {
            self.settled[pi.index()] = true;
        }
        for (id, net) in variant.nets() {
            if let NetDriver::Const(v) = net.driver() {
                self.settled[id.index()] = base_driver(base, id) == Some(NetDriver::Const(v));
            }
        }
        let mut has_selectable = vec![false; variant.num_gates()];
        for &(gate, _) in self.gated.keys() {
            has_selectable[gate] = true;
        }
        // The failed claim each delta net traces back to.
        let mut origin: Vec<Option<GateId>> = vec![None; variant.num_nets()];
        let work_cap = 8 * variant.num_gates() + 50_000;
        let mut claiming = true;
        let order = variant
            .cached_topo()
            .expect("cyclic netlist cannot be proven (validate first)");
        for &g in order {
            let gate = variant.gate(g);
            let out = gate.output();
            let twin = match base_driver(base, out) {
                Some(NetDriver::Gate(t)) => Some(t),
                _ => None,
            };
            let same_shape = twin.is_some_and(|t| {
                base.gate_fn(t) == variant.gate_fn(g)
                    && base.gate(t).inputs() == gate.inputs()
                    && !has_selectable[g.index()]
            });
            if same_shape && gate.inputs().iter().all(|n| self.settled[n.index()]) {
                self.settled[out.index()] = true;
                continue;
            }
            let inherited = gate
                .inputs()
                .iter()
                .filter(|n| !self.settled[n.index()])
                .find_map(|n| origin[n.index()]);
            if twin.is_none() {
                origin[out.index()] = inherited;
                continue;
            }
            origin[out.index()] = Some(inherited.unwrap_or(g));
            if !claiming {
                continue;
            }
            if self.limits.stopped() {
                return Err(None);
            }
            match self.claim(out) {
                Some(true) => self.settled[out.index()] = true,
                Some(false) => {}
                None => claiming = false,
            }
            if self.work > work_cap {
                claiming = false;
            }
        }
        for &po in variant.primary_outputs() {
            if self.settled[po.index()] {
                continue;
            }
            if self.limits.stopped() {
                return Err(None);
            }
            if self.proof.escalated == 0 {
                self.proof.unsettled = origin[po.index()].or(match variant.net(po).driver() {
                    NetDriver::Gate(g) => Some(g),
                    _ => None,
                });
            }
            self.escalate(po)?;
        }
        Ok(())
    }

    /// Tries to settle delta net `n` against the base net of the same
    /// index, widening the cut on failure. `None` when the unexpanded
    /// claim outgrows [`MAX_OBLIGATION_GATES`].
    fn claim(&mut self, n: NetId) -> Option<bool> {
        let mut expand = BTreeSet::new();
        for round in 0..=MAX_EXPANSIONS {
            let Some(cone) = self.collect(n, Some(&expand)) else {
                return (round > 0).then_some(false);
            };
            let allowance = self
                .remaining()
                .map_or(OBLIGATION_CONFLICTS, |r| r.min(OBLIGATION_CONFLICTS));
            if matches!(self.check(&cone, n, Some(allowance)), Check::Holds) {
                return Some(true);
            }
            // Reconvergence through the cut: expand every cut net whose
            // base driver reads another cut net.
            let before = expand.len();
            for &c in &cone.cut {
                if let Some(NetDriver::Gate(d)) = base_driver(self.base, c) {
                    if self
                        .base
                        .gate(d)
                        .inputs()
                        .iter()
                        .any(|i| cone.cut.contains(i))
                    {
                        expand.insert(c);
                    }
                }
            }
            if expand.len() == before {
                break;
            }
        }
        Some(false)
    }

    /// Decides unsettled primary output `po` exactly, over the primary
    /// inputs of its cone and with the rest of the conflict budget.
    fn escalate(&mut self, po: NetId) -> Result<(), Option<Witness>> {
        self.proof.escalated += 1;
        let cone = self
            .collect(po, None)
            .expect("an exact obligation has no gate cap");
        match self.check(&cone, po, self.remaining()) {
            Check::Holds => Ok(()),
            Check::Differs(free) => Err(Some(self.witness(&cone, &free))),
            Check::Unknown => Err(None),
        }
    }

    /// Spreads an exact obligation's differing free values over the
    /// interface: its cut nets are primary inputs, its selectors groups.
    fn witness(&self, cone: &Cone, free: &[bool]) -> Witness {
        // Inputs outside the cut and groups outside the cone read false.
        let (cut, selectors) = free.split_at(cone.cut.len());
        let read = |values: &[bool], k: Option<usize>| k.is_some_and(|k| values[k]);
        let inputs = self
            .variant
            .primary_inputs()
            .iter()
            .map(|p| read(cut, cone.cut.iter().position(|n| n == p)))
            .collect();
        let code = match self.code {
            Some(code) => code.to_vec(),
            None => (0..self.groups)
                .map(|g| read(selectors, cone.groups.iter().position(|&h| h == g)))
                .collect(),
        };
        Witness { inputs, code }
    }

    /// Gathers the two cones of the obligation on net `n`: variant gates
    /// back to settled nets, base gates back to settled nets, and
    /// expanded settled nets evaluated through their base drivers
    /// (shared by both sides). `None` for `expand` makes the obligation
    /// exact: every settled net a base gate drives is expanded, so the
    /// cut is primary inputs, and no gate cap applies.
    fn collect(&self, n: NetId, expand: Option<&BTreeSet<NetId>>) -> Option<Cone> {
        let (base, variant) = (self.base, self.variant);
        let expanded = |n: NetId| match expand {
            Some(expand) => expand.contains(&n),
            None => matches!(base_driver(base, n), Some(NetDriver::Gate(_))),
        };
        let cap = expand.map_or(usize::MAX, |_| MAX_OBLIGATION_GATES);
        let mut cone = Cone::default();
        let mut variant_stack: Vec<GateId> = match variant.net(n).driver() {
            NetDriver::Gate(g) => vec![g],
            _ => Vec::new(),
        };
        let mut base_stack: Vec<GateId> = match base_driver(base, n) {
            Some(NetDriver::Gate(t)) => vec![t],
            _ => Vec::new(),
        };
        let mut seen_variant: BTreeSet<GateId> = variant_stack.iter().copied().collect();
        let mut seen_base: BTreeSet<GateId> = base_stack.iter().copied().collect();
        let mut cut = BTreeSet::new();
        while let Some(v) = variant_stack.pop() {
            cone.variant_gates.push(v);
            for (p, &n) in variant.gate(v).inputs().iter().enumerate() {
                if let Some(&(group, _)) = self.gated.get(&(v.index(), p)) {
                    if self.code.is_some_and(|code| !code[group]) {
                        continue; // pinned to its neutral constant
                    }
                    if !cone.groups.contains(&group) {
                        cone.groups.push(group);
                    }
                }
                if self.settled[n.index()] && !is_const(variant, n) {
                    if expanded(n) {
                        if let Some(NetDriver::Gate(d)) = base_driver(base, n) {
                            if seen_base.insert(d) {
                                base_stack.push(d);
                            }
                        }
                    } else {
                        cut.insert(n);
                    }
                } else if let NetDriver::Gate(d) = variant.net(n).driver() {
                    if seen_variant.insert(d) {
                        variant_stack.push(d);
                    }
                }
            }
            if cone.variant_gates.len() > cap {
                return None;
            }
        }
        while let Some(b) = base_stack.pop() {
            cone.base_gates.push(b);
            for &n in base.gate(b).inputs() {
                if self.is_settled(n) && !expanded(n) {
                    if !is_const(base, n) {
                        cut.insert(n);
                    }
                } else if let Some(NetDriver::Gate(d)) = base_driver(base, n) {
                    if seen_base.insert(d) {
                        base_stack.push(d);
                    }
                }
            }
            if cone.variant_gates.len() + cone.base_gates.len() > cap {
                return None;
            }
        }
        let (vpos, bpos) = (&self.variant_pos, &self.base_pos);
        cone.variant_gates.sort_by_key(|v| vpos[v.index()]);
        cone.base_gates.sort_by_key(|b| bpos[b.index()]);
        cone.cut = cut;
        Some(cone)
    }

    fn is_settled(&self, n: NetId) -> bool {
        self.settled.get(n.index()).copied().unwrap_or(false)
    }

    /// Compiles and decides the obligation on net `n`; `allowance` caps
    /// the conflicts of a SAT discharge.
    fn check(&mut self, cone: &Cone, n: NetId, allowance: Option<u64>) -> Check {
        self.work += cone.base_gates.len() + cone.variant_gates.len();
        self.compile(cone, n);
        self.proof.obligations += 1;
        let free = self.program.free;
        self.proof.widest_cut = self.proof.widest_cut.max(free);
        if free <= SIM_VARS {
            self.proof.simulated += 1;
            return match self.program.simulate() {
                None => Check::Holds,
                Some(row) => Check::Differs((0..free).map(|v| row >> v & 1 == 1).collect()),
            };
        }
        self.proof.solved += 1;
        let limits = Limits {
            conflicts: allowance,
            ..self.limits.clone()
        };
        let (check, conflicts) = self.program.solve(&limits);
        self.proof.conflicts += conflicts;
        check
    }

    /// Lowers a cone into `self.program`, straight-line code over slots:
    /// the free cut nets first, then the selectors (none when pinned),
    /// then one slot per gate output.
    fn compile(&mut self, cone: &Cone, n: NetId) {
        let (base, variant, code) = (self.base, self.variant, self.code);
        let program = &mut self.program;
        program.reset(0);
        let mut shared: HashMap<NetId, u32> = HashMap::new();
        for &c in &cone.cut {
            shared.insert(c, program.fresh());
        }
        let mut selector: HashMap<usize, u32> = HashMap::new();
        if code.is_none() {
            for &group in &cone.groups {
                selector.insert(group, program.fresh());
            }
        }
        program.free = program.slots as usize;
        let mut consts: [Option<u32>; 2] = [None; 2];
        let mut constant = |program: &mut Program, value: bool| {
            *consts[value as usize].get_or_insert_with(|| program.constant(value))
        };
        // Base side (expanded settled nets included): a net resolves to a
        // cut slot, a base gate slot, or a constant.
        let mut base_slot: HashMap<NetId, u32> = HashMap::new();
        for &b in &cone.base_gates {
            let start = program.args.len();
            for &i in base.gate(b).inputs() {
                let x = match shared.get(&i).or(base_slot.get(&i)) {
                    Some(&s) => s,
                    None => constant(program, const_of(base, i)),
                };
                program.args.push(x);
            }
            let out = program.gate(base.gate_fn(b), start);
            base_slot.insert(base.gate_output(b), out);
        }
        // Variant side: settled nets read the cut (or, expanded, the base
        // slot); delta nets read variant gate slots; a pinned selectable
        // input reads its net or its neutral constant.
        let mut variant_slot: HashMap<NetId, u32> = HashMap::new();
        for &v in &cone.variant_gates {
            let start = program.args.len();
            for (p, &i) in variant.gate(v).inputs().iter().enumerate() {
                let gate = self.gated.get(&(v.index(), p)).copied();
                if let (Some((group, neutral)), Some(code)) = (gate, code) {
                    if !code[group] {
                        let x = constant(program, neutral);
                        program.args.push(x);
                        continue;
                    }
                }
                let x = if self.settled[i.index()] {
                    shared.get(&i).or(base_slot.get(&i)).copied()
                } else {
                    variant_slot.get(&i).copied()
                };
                let x = x.unwrap_or_else(|| constant(program, const_of(variant, i)));
                let x = match gate {
                    Some((group, neutral)) if code.is_none() => {
                        let out = program.fresh();
                        program.ops.push(Op::Select {
                            x,
                            sel: selector[&group],
                            neutral,
                            out,
                        });
                        out
                    }
                    _ => x,
                };
                program.args.push(x);
            }
            let out = program.gate(variant.gate_fn(v), start);
            variant_slot.insert(variant.gate_output(v), out);
        }
        program.left = match variant_slot.get(&n) {
            Some(&s) => s,
            None => constant(program, const_of(variant, n)),
        };
        program.right = match base_slot.get(&n) {
            Some(&s) => s,
            None => constant(program, const_of(base, n)),
        };
    }
}

fn is_const(netlist: &Netlist, n: NetId) -> bool {
    matches!(netlist.net(n).driver(), NetDriver::Const(_))
}

/// The value of constant net `n`: every other net an obligation reads
/// has a slot.
fn const_of(netlist: &Netlist, n: NetId) -> bool {
    match netlist.net(n).driver() {
        NetDriver::Const(value) => value,
        other => unreachable!("net {n:?} ({other:?}) outside the cone"),
    }
}

/// The base driver of net index `n`, if the base has such a net.
fn base_driver(base: &Netlist, n: NetId) -> Option<NetDriver> {
    (n.index() < base.num_nets()).then(|| base.net(n).driver())
}

#[derive(Debug, Default)]
struct Cone {
    variant_gates: Vec<GateId>,
    base_gates: Vec<GateId>,
    cut: BTreeSet<NetId>,
    groups: Vec<usize>,
}

/// One instruction of a [`Program`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Const {
        out: u32,
        value: bool,
    },
    /// `out = f(args[start..start + len])`.
    Gate {
        f: PrimitiveFn,
        start: u32,
        len: u32,
        out: u32,
    },
    /// `out = if sel { x } else { neutral }`.
    Select {
        x: u32,
        sel: u32,
        neutral: bool,
        out: u32,
    },
}

/// One obligation as straight-line code: slots `0..free` are free. The
/// truth-table kernel shared by the code-space proof and the sweep's
/// cut-point windows. Both keep one program and [`Program::reset`] it
/// per obligation or window, so its buffers are allocated once.
#[derive(Debug, Default)]
pub(crate) struct Program {
    pub(crate) slots: u32,
    pub(crate) free: usize,
    pub(crate) ops: Vec<Op>,
    /// Input slots of every [`Op::Gate`], each gate's a contiguous run.
    pub(crate) args: Vec<u32>,
    /// The two slots whose functions are compared.
    pub(crate) left: u32,
    pub(crate) right: u32,
    /// [`Program::simulate`]'s values (one block per slot) and gate-input
    /// scratch.
    vals: Vec<Block>,
    scratch: Vec<Block>,
}

impl Program {
    /// Empties the program for reuse, keeping its buffers; the next
    /// `free` slots are its free ones.
    pub(crate) fn reset(&mut self, free: usize) {
        self.slots = free as u32;
        self.free = free;
        self.ops.clear();
        self.args.clear();
        self.left = 0;
        self.right = 0;
    }

    pub(crate) fn fresh(&mut self) -> u32 {
        self.slots += 1;
        self.slots - 1
    }

    /// Appends a constant; returns its slot.
    pub(crate) fn constant(&mut self, value: bool) -> u32 {
        let out = self.fresh();
        self.ops.push(Op::Const { out, value });
        out
    }

    /// Appends gate `f` over the input slots pushed to `args` since
    /// `start`; returns its output slot.
    pub(crate) fn gate(&mut self, f: PrimitiveFn, start: usize) -> u32 {
        let out = self.fresh();
        self.ops.push(Op::Gate {
            f,
            start: start as u32,
            len: (self.args.len() - start) as u32,
            out,
        });
        out
    }

    /// Exhaustive word-parallel simulation over all `2^free` rows, a
    /// [`Block`] of 256 rows at a time: the first row where the two
    /// outputs differ (free slot `v` reads bit `v` of the row number), or
    /// `None` when they agree on every row. Padding rows repeat the
    /// all-zeros assignment, so comparing whole blocks is exact.
    pub(crate) fn simulate(&mut self) -> Option<usize> {
        let blocks = (1usize << self.free).div_ceil(64 * BLOCK_LANES);
        let vals = &mut self.vals;
        vals.clear();
        vals.resize(self.slots as usize, ZERO_BLOCK);
        for b in 0..blocks {
            for (v, val) in vals[..self.free].iter_mut().enumerate() {
                *val = std::array::from_fn(|lane| {
                    exhaustive_word(self.free, v, b * BLOCK_LANES + lane)
                });
            }
            for op in &self.ops {
                match *op {
                    Op::Const { out, value } => {
                        vals[out as usize] = [if value { u64::MAX } else { 0 }; BLOCK_LANES];
                    }
                    Op::Gate { f, start, len, out } => {
                        let ins = &self.args[start as usize..(start + len) as usize];
                        self.scratch.clear();
                        self.scratch.extend(ins.iter().map(|&i| vals[i as usize]));
                        vals[out as usize] = f.eval_blocks(&self.scratch);
                    }
                    Op::Select {
                        x,
                        sel,
                        neutral,
                        out,
                    } => {
                        let fill = if neutral { u64::MAX } else { 0 };
                        let (xv, sv) = (vals[x as usize], vals[sel as usize]);
                        vals[out as usize] =
                            std::array::from_fn(|l| (xv[l] & sv[l]) | (fill & !sv[l]));
                    }
                }
            }
            let (l, r) = (vals[self.left as usize], vals[self.right as usize]);
            if let Some(lane) = (0..BLOCK_LANES).find(|&k| l[k] != r[k]) {
                let bit = (l[lane] ^ r[lane]).trailing_zeros() as usize;
                return Some((b * BLOCK_LANES + lane) * 64 + bit);
            }
        }
        None
    }

    /// A fresh miter over just this obligation, within `limits`: UNSAT
    /// means it holds, a model gives the differing free values. Returns
    /// the conflicts spent too.
    fn solve(&self, limits: &Limits) -> (Check, u64) {
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..self.slots).map(|_| solver.new_var()).collect();
        for op in &self.ops {
            match op {
                Op::Const { out, value } => {
                    solver.add_clause([Lit::with_polarity(vars[*out as usize], *value)]);
                }
                Op::Gate { f, start, len, out } => {
                    let ins: Vec<Var> = self.args[*start as usize..(*start + *len) as usize]
                        .iter()
                        .map(|&i| vars[i as usize])
                        .collect();
                    encode_gate(&mut solver, *f, vars[*out as usize], &ins);
                }
                Op::Select {
                    x,
                    sel,
                    neutral,
                    out,
                } => {
                    let (x, sel, e) = (vars[*x as usize], vars[*sel as usize], vars[*out as usize]);
                    if *neutral {
                        // e <-> (x | !sel)
                        solver.add_clause([Lit::neg(x), Lit::pos(e)]);
                        solver.add_clause([Lit::pos(sel), Lit::pos(e)]);
                        solver.add_clause([Lit::neg(e), Lit::pos(x), Lit::neg(sel)]);
                    } else {
                        // e <-> (x & sel)
                        solver.add_clause([Lit::neg(e), Lit::pos(x)]);
                        solver.add_clause([Lit::neg(e), Lit::pos(sel)]);
                        solver.add_clause([Lit::pos(e), Lit::neg(x), Lit::neg(sel)]);
                    }
                }
            }
        }
        let (a, b) = (vars[self.left as usize], vars[self.right as usize]);
        solver.add_clause([Lit::pos(a), Lit::pos(b)]);
        solver.add_clause([Lit::neg(a), Lit::neg(b)]);
        let check = match solver.solve_under(&[], limits) {
            SolveResult::Unsat => Check::Holds,
            SolveResult::Sat(model) => {
                Check::Differs(vars[..self.free].iter().map(|&v| model.value(v)).collect())
            }
            SolveResult::Unknown => Check::Unknown,
        };
        (check, solver.stats().conflicts)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    use super::*;
    use crate::{MiterOutcome, SharedMiter};
    use odcfp_netlist::CellLibrary;

    fn cell(n: &Netlist, f: PrimitiveFn, arity: usize) -> odcfp_netlist::CellId {
        n.library().cell_for(f, arity).unwrap()
    }

    /// Fig. 1: F = AND(X, Y) with X = AND(A, B) in Y's ODC region, so
    /// wiring Y into X (selectable, neutral 1) preserves F.
    fn fig1(widened: bool) -> (Netlist, GateId) {
        let mut n = Netlist::new("fig1", CellLibrary::standard());
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let y = n.add_gate("gy", cell(&n, PrimitiveFn::Or, 2), &[c, d]);
        let yo = n.gate_output(y);
        let x = n.add_gate("gx", cell(&n, PrimitiveFn::And, 2), &[a, b]);
        let f = n.add_gate("gf", cell(&n, PrimitiveFn::And, 2), &[n.gate_output(x), yo]);
        n.set_primary_output(n.gate_output(f));
        if widened {
            n.replace_gate(x, cell(&n, PrimitiveFn::And, 3), &[a, b, yo]);
        }
        (n, x)
    }

    fn selectable(gate: GateId, position: usize, group: usize, neutral: bool) -> SelectableInput {
        SelectableInput {
            gate,
            position,
            group,
            neutral,
        }
    }

    fn prove(
        base: &Netlist,
        variant: &Netlist,
        sel: &[SelectableInput],
        groups: usize,
        code: Option<&[bool]>,
    ) -> LocalProof {
        prove_locally(base, variant, sel, groups, code, &Limits::default())
    }

    fn monolithic(
        base: &Netlist,
        variant: &Netlist,
        sel: &[SelectableInput],
        groups: usize,
    ) -> MiterOutcome {
        let mut sm = SharedMiter::build(base);
        let sv = sm.add_selectable_variant(variant, sel, groups).unwrap();
        sm.check(sv.id(), None, None)
    }

    /// A witness must separate the base from the netlist carrying exactly
    /// its code: `variant` with each input of a clear group rewired to
    /// its neutral constant.
    fn assert_replays(base: &Netlist, variant: &Netlist, sel: &[SelectableInput], w: &Witness) {
        let mut n = variant.clone();
        for s in sel.iter().filter(|s| !w.code[s.group]) {
            let mut ins = n.gate(s.gate).inputs().to_vec();
            ins[s.position] = n.add_constant(format!("k{}", s.position), s.neutral);
            n.replace_gate(s.gate, n.gate(s.gate).cell(), &ins);
        }
        assert_ne!(base.eval(&w.inputs), n.eval(&w.inputs), "{w:?}");
    }

    #[test]
    fn identical_variant_settles_structurally() {
        let (base, _) = fig1(false);
        let proof = prove(&base, &base.clone(), &[], 0, None);
        assert!(proof.proven);
        assert_eq!(proof.obligations, 0);
    }

    #[test]
    fn odc_widening_settles_at_the_primary_gate() {
        let (base, _) = fig1(false);
        let (variant, gx) = fig1(true);
        let sel = [selectable(gx, 2, 0, true)];
        let proof = prove(&base, &variant, &sel, 1, None);
        assert!(proof.proven, "{proof:?}");
        // gx itself fails (its function changes when Y = 0); gf holds.
        assert_eq!(proof.obligations, 2);
        assert_eq!(proof.simulated, 2);
        assert_eq!(proof.conflicts, 0);
        assert_eq!(proof.escalated, 0);
        // Cut {A, B, Y} plus one selector.
        assert_eq!(proof.widest_cut, 4);
    }

    #[test]
    fn functional_change_stays_unsettled_and_names_its_origin() {
        // Wiring D into gx (neutral 1) is not ODC-justified.
        let (base, _) = fig1(false);
        let (mut variant, gx) = fig1(false);
        let (a, b, d) = (
            variant.primary_inputs()[0],
            variant.primary_inputs()[1],
            variant.primary_inputs()[3],
        );
        variant.replace_gate(gx, cell(&variant, PrimitiveFn::And, 3), &[a, b, d]);
        let sel = [selectable(gx, 2, 0, true)];
        let proof = prove(&base, &variant, &sel, 1, None);
        assert!(!proof.proven);
        assert_eq!(proof.unsettled, Some(gx));
        assert_eq!(proof.escalated, 1);
        let witness = proof.witness.expect("the escalation refutes");
        assert_eq!(witness.code, [true]);
        assert_replays(&base, &variant, &sel, &witness);
        assert!(matches!(
            monolithic(&base, &variant, &sel, 1),
            MiterOutcome::Counterexample(_)
        ));
    }

    /// Fig. 5: the trigger T = AND(A, B) is non-controlling (1) only when
    /// A = B = 1, so the OR-plane FFC gate X = OR(C, D) may take !A
    /// instead of T. The claim at F only holds once the cut expands T
    /// into its driver over A and B.
    #[test]
    fn fig5_reroute_needs_the_trigger_gate_in_the_cut() {
        let build = |rerouted: bool| {
            let mut n = Netlist::new("fig5", CellLibrary::standard());
            let a = n.add_primary_input("A");
            let b = n.add_primary_input("B");
            let c = n.add_primary_input("C");
            let d = n.add_primary_input("D");
            let t = n.add_gate("gt", cell(&n, PrimitiveFn::And, 2), &[a, b]);
            let x = n.add_gate("gx", cell(&n, PrimitiveFn::Or, 2), &[c, d]);
            let f = n.add_gate(
                "gf",
                cell(&n, PrimitiveFn::And, 2),
                &[n.gate_output(x), n.gate_output(t)],
            );
            n.set_primary_output(n.gate_output(f));
            if rerouted {
                let inv = n.add_gate("fp_inv", cell(&n, PrimitiveFn::Inv, 1), &[a]);
                let na = n.gate_output(inv);
                n.replace_gate(x, cell(&n, PrimitiveFn::Or, 3), &[c, d, na]);
            }
            (n, x)
        };
        let (base, _) = build(false);
        let (variant, gx) = build(true);
        let sel = [selectable(gx, 2, 0, false)];
        let proof = prove(&base, &variant, &sel, 1, None);
        assert!(proof.proven, "{proof:?}");
        // gx fails (its cut {A, C, D} has nothing to expand); gf fails
        // over {A, C, D, T}, then holds over {A, B, C, D}.
        assert_eq!(proof.obligations, 3, "{proof:?}");
        assert_eq!(proof.escalated, 0, "{proof:?}");
        assert_eq!(
            monolithic(&base, &variant, &sel, 1),
            MiterOutcome::Equivalent
        );
    }

    /// Equivalent only through a satisfiability don't-care: N1 = AND(A, B)
    /// implies N2 = OR(A, B), so AND(N1, N2) = AND(N1, N1). A free cut
    /// {N1, N2} cannot see that, so no claim settles it; the output's
    /// escalated obligation over {A, B, C} does.
    #[test]
    fn satisfiability_dont_care_settles_by_escalation() {
        let build = |sdc: bool| {
            let mut n = Netlist::new("sdc", CellLibrary::standard());
            let a = n.add_primary_input("A");
            let b = n.add_primary_input("B");
            let c = n.add_primary_input("C");
            let n1 = n.add_gate("n1", cell(&n, PrimitiveFn::And, 2), &[a, b]);
            let n2 = n.add_gate("n2", cell(&n, PrimitiveFn::Or, 2), &[a, b]);
            let (o1, o2) = (n.gate_output(n1), n.gate_output(n2));
            let g = n.add_gate(
                "g",
                cell(&n, PrimitiveFn::And, 2),
                &[o1, if sdc { o1 } else { o2 }],
            );
            let h = n.add_gate("h", cell(&n, PrimitiveFn::Xor, 2), &[n.gate_output(g), c]);
            n.set_primary_output(n.gate_output(h));
            (n, g)
        };
        let (base, _) = build(false);
        let (variant, g) = build(true);
        let proof = prove(&base, &variant, &[], 0, None);
        assert!(proof.proven, "{proof:?}");
        assert_eq!(proof.escalated, 1);
        assert_eq!(proof.unsettled, Some(g));
        assert_eq!(proof.widest_cut, 3);
        assert_eq!(
            monolithic(&base, &variant, &[], 0),
            MiterOutcome::Equivalent
        );
    }

    /// An AND chain over `len + 1` inputs, and a variant that computes
    /// the complement at every link (NAND, then OR with fresh inverters)
    /// and restores it with an inverter at the output; with `restored`
    /// unset the output stays complemented. Every link's claim fails, so
    /// the output's obligation spans all the inputs. Returns the base,
    /// the variant and the first link.
    fn complement_chain(len: usize, restored: bool) -> (Netlist, Netlist, GateId) {
        let mut base = Netlist::new("chain", CellLibrary::standard());
        let pis: Vec<NetId> = (0..=len)
            .map(|i| base.add_primary_input(format!("i{i}")))
            .collect();
        let and2 = cell(&base, PrimitiveFn::And, 2);
        let mut links = vec![base.add_gate("c1", and2, &[pis[0], pis[1]])];
        for (k, &p) in pis.iter().enumerate().skip(2) {
            let prev = base.gate_output(*links.last().unwrap());
            links.push(base.add_gate(format!("c{k}"), and2, &[prev, p]));
        }
        let last = base.gate_output(*links.last().unwrap());
        let out = base.add_gate("out", cell(&base, PrimitiveFn::Buf, 1), &[last]);
        base.set_primary_output(base.gate_output(out));

        let mut variant = base.clone();
        variant.replace_gate(
            links[0],
            cell(&variant, PrimitiveFn::Nand, 2),
            &[pis[0], pis[1]],
        );
        for (k, &p) in pis.iter().enumerate().skip(2) {
            let inv = variant.add_gate(format!("n{k}"), cell(&variant, PrimitiveFn::Inv, 1), &[p]);
            let ins = [variant.gate_output(links[k - 2]), variant.gate_output(inv)];
            variant.replace_gate(links[k - 1], cell(&variant, PrimitiveFn::Or, 2), &ins);
        }
        if restored {
            variant.replace_gate(out, cell(&variant, PrimitiveFn::Inv, 1), &[last]);
        }
        (base, variant, links[0])
    }

    #[test]
    fn wide_obligations_go_to_the_solver() {
        // 20 inputs: the output's claim is past SIM_VARS, in a SAT miter.
        let (base, variant, _) = complement_chain(19, true);
        let proof = prove(&base, &variant, &[], 0, None);
        assert!(proof.proven, "{proof:?}");
        assert_eq!(proof.widest_cut, 20, "{proof:?}");
        assert!(proof.solved >= 1, "{proof:?}");
        assert_eq!(proof.escalated, 0, "{proof:?}");
        assert_eq!(
            monolithic(&base, &variant, &[], 0),
            MiterOutcome::Equivalent
        );
        // Proving it takes conflicts: with none left the escalation is
        // undecided.
        let limits = Limits {
            conflicts: Some(0),
            ..Limits::default()
        };
        let proof = prove_locally(&base, &variant, &[], 0, None, &limits);
        assert_eq!(
            (proof.proven, proof.witness, proof.escalated),
            (false, None, 1)
        );
        // The output left complemented differs; the escalated miter
        // returns a witness that replays.
        let (base, wrong, first) = complement_chain(19, false);
        let proof = prove(&base, &wrong, &[], 0, None);
        assert!(!proof.proven);
        assert_eq!(proof.unsettled, Some(first));
        assert_eq!(proof.escalated, 1);
        assert_replays(&base, &wrong, &[], &proof.witness.expect("a witness"));
    }

    #[test]
    fn oversized_claims_stop_and_the_output_escalates() {
        // Past ~170 links a claim spans more than MAX_OBLIGATION_GATES:
        // claiming stops, and the output's exact obligation decides.
        let (base, variant, first) = complement_chain(200, true);
        let proof = prove(&base, &variant, &[], 0, None);
        assert!(proof.proven, "{proof:?}");
        assert_eq!(proof.escalated, 1, "{proof:?}");
        assert_eq!(proof.unsettled, Some(first));
        assert_eq!(proof.widest_cut, 201, "{proof:?}");
        assert!(proof.obligations < 200, "claims stopped early: {proof:?}");
    }

    #[test]
    fn interrupted_pass_proves_nothing_and_blames_no_gate() {
        let (base, _) = fig1(false);
        let (variant, gx) = fig1(true);
        let limits = Limits {
            interrupt: Some(Arc::new(AtomicBool::new(true))),
            ..Limits::default()
        };
        let sel = [selectable(gx, 2, 0, true)];
        let proof = prove_locally(&base, &variant, &sel, 1, None, &limits);
        assert!(!proof.proven);
        assert_eq!(proof.witness, None);
        assert_eq!(proof.unsettled, None);
        assert_eq!(proof.obligations, 0);
    }

    #[test]
    fn selectable_all_codes_proven_when_every_literal_is_redundant() {
        // The ODC widening alone: AND3(A, B, Y).
        let (base, _) = fig1(false);
        let (variant, gx) = fig1(true);
        let sel = [selectable(gx, 2, 0, true)];
        // One free proof covers both codes; each pinned proof agrees.
        assert!(prove(&base, &variant, &sel, 1, None).proven);
        for code in [[false], [true]] {
            let proof = prove(&base, &variant, &sel, 1, Some(&code));
            assert!(proof.proven, "{code:?}: {proof:?}");
        }
    }

    #[test]
    fn selectable_code_check_isolates_the_bad_bit() {
        // fig1 with gx widened to AND4(A, B, Y, D): input 2 (Y) is the ODC
        // modification — redundant for every code — while input 3 (D) is
        // a genuine functional change when selected.
        let (base, gx) = fig1(false);
        let mut sup = base.clone();
        let mut ins = sup.gate(gx).inputs().to_vec();
        ins.extend([
            sup.gate_output(sup.gate_by_name("gy").unwrap()),
            sup.primary_inputs()[3],
        ]);
        sup.replace_gate(gx, cell(&sup, PrimitiveFn::And, 4), &ins);
        let sel = [selectable(gx, 2, 0, true), selectable(gx, 3, 1, true)];
        // Some code differs (any with bit 1 set), so the free proof
        // refutes, with the bad bit in its witness.
        let free = prove(&base, &sup, &sel, 2, None);
        let witness = free.witness.expect("some code differs");
        assert!(witness.code[1], "{witness:?}");
        assert_replays(&base, &sup, &sel, &witness);
        // Codes without the bad bit are equivalent; codes with it are not.
        for (code, equivalent) in [
            (&[false, false][..], true),
            (&[true, false][..], true),
            (&[false, true][..], false),
            (&[true, true][..], false),
        ] {
            let proof = prove(&base, &sup, &sel, 2, Some(code));
            if equivalent {
                assert!(proof.proven, "{code:?}: {proof:?}");
                continue;
            }
            let witness = proof.witness.expect("a pinned refutation");
            assert_eq!(witness.code, code);
            assert_replays(&base, &sup, &sel, &witness);
        }
    }

    #[test]
    fn selectable_or_plane_neutral_is_false() {
        // gy widened to OR3(C, D, A): selecting A changes the function,
        // deselecting must restore OR2(C, D) via the neutral 0.
        let (base, _) = fig1(false);
        let mut n = base.clone();
        let gy = n.gate_by_name("gy").unwrap();
        let pis = n.primary_inputs().to_vec();
        n.replace_gate(gy, cell(&n, PrimitiveFn::Or, 3), &[pis[2], pis[3], pis[0]]);
        let sel = [selectable(gy, 2, 0, false)];
        assert!(prove(&base, &n, &sel, 1, Some(&[false])).proven);
        let witness = prove(&base, &n, &sel, 1, Some(&[true])).witness;
        assert_replays(&base, &n, &sel, &witness.expect("a pinned refutation"));
    }
}
