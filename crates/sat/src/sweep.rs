//! Cone-local SAT sweeping with structural hashing (strash).
//!
//! An ODC-fingerprinted variant differs from its base netlist in a handful
//! of fanout-free-cone-local regions; everything else is gate-for-gate
//! identical. A cold miter re-encodes and re-proves that identical 99%
//! from scratch for every buyer. The [`SweepEngine`] instead hash-conses
//! *both* netlists into one shared node store:
//!
//! 1. **Structural hashing** — gates are interned into canonical nodes
//!    (commutative children sorted, `Buf`/double-`Inv` collapsed, trivial
//!    parity cancellation), so every unchanged region of a variant maps to
//!    the very nodes of the base circuit. A primary-output pair whose
//!    cones hash to the same node is proven equivalent with **no SAT call**.
//! 2. **Cut-point sweeping** — interior node pairs with equal
//!    64-word simulation signatures are equivalence candidates, validated
//!    **innermost-first** (ascending logic depth). Each pair is first
//!    tried on a **local window**: starting from the frontier `{a, b}`,
//!    the frontier node with the highest id (node ids are topological)
//!    is repeatedly replaced by its children's class representatives, so
//!    the window grows downward until the two cones reconverge — a
//!    fingerprint's trigger is masked a few gates above its location.
//!    Once neither root is left on the frontier, the window is compiled
//!    to the code-space proof's straight-line truth-table kernel and
//!    simulated over every assignment of its frontier leaves: after each
//!    expansion while it has at most 6 leaves, and once more at the end
//!    when it has at most 16. Agreement on every row merges the pair
//!    with nothing Tseitin-encoded. Only a pair the window cannot settle
//!    goes to a persistent incremental SAT solver. Each proven pair is
//!    merged in a congruence-closed union-find, which re-hashes the
//!    fanout and usually collapses the remaining output pairs
//!    structurally. Only the changed region and its transitive fanout
//!    are ever Tseitin-encoded (cone-of-influence reduction), and merged
//!    classes share one CNF variable, so the miter the solver sees is
//!    tiny.
//! 3. **Counterexample feedback** — a SAT model from a failed candidate is
//!    replayed through the whole node store and appended to the signature
//!    pool, so one counterexample falsifies every other candidate pair it
//!    distinguishes.
//!
//! **Soundness of the local window.** Every path from a root to a
//! primary input passes through the frontier — that is what expanding a
//! node into *all* its children preserves — so both roots are exact
//! functions of the frontier leaves, and merged classes are computed by
//! their representative. If the two functions agree under every leaf
//! assignment, they agree in particular under the assignments the leaves
//! can actually take together, so the pair is equal. The converse does
//! not hold: free leaves over-approximate what they can reach jointly
//! (a satisfiability don't-care), so a window mismatch is **never** a
//! refutation — the pair just falls through to the SAT query.
//!
//! The engine is built once per golden netlist and checked against many
//! candidates; node merges, learnt clauses, and counterexample patterns
//! all persist across checks, so per-buyer marginal cost in a campaign
//! shrinks as the solver learns the base circuit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::sim::{gather_block, Block, BLOCK_LANES};
use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{NetDriver, Netlist};

use crate::equiv::{EquivError, MiterOutcome};
use crate::local::{Op, Program, SIM_VARS, WINDOW_CHEAP_LEAVES, WINDOW_EXPANSIONS, WINDOW_SLACK};
use crate::tseitin::encode_gate;
use crate::{Lit, SolveResult, Solver, SolverConfig, SolverStats, Var};

/// The semantic class of a strash node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKind {
    /// A constant.
    Const(bool),
    /// Primary input by position (shared between golden and candidates).
    Input(u32),
    /// A gate over child nodes (canonicalized; see [`SweepEngine`] docs).
    Gate(PrimitiveFn),
}

/// Result of canonicalizing a would-be gate node.
enum Canon {
    /// Collapsed onto an existing node (e.g. `Buf(x)` → `x`).
    Existing(u32),
    /// Collapsed to a constant (e.g. `Xor(x, x)` → `false`).
    ConstVal(bool),
    /// A genuine new shape: canonical kind + canonical child classes.
    Key(NodeKind, Vec<u32>),
}

/// Outcome of a single SAT query on a node pair.
enum Query {
    Equal,
    Distinct(Vec<bool>),
    Unknown,
}

/// Tuning knobs for [`SweepEngine`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Random 64-bit pattern words per node signature (the cut-point
    /// grouping key). More words mean fewer false candidates.
    pub sim_words: usize,
    /// Seed for the signature pattern generator.
    pub seed: u64,
    /// Per-candidate-pair conflict budget for interior cut-point queries.
    /// A pair whose query exceeds this is skipped, never mis-merged.
    pub cut_conflicts: u64,
    /// Cap on candidate pairs drawn from one signature group, guarding
    /// against quadratic blowup on degenerate signatures.
    pub max_pairs_per_group: usize,
    /// Configuration of the persistent solver answering the SAT queries.
    pub solver: SolverConfig,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            sim_words: 64,
            seed: 0x0DCF_5EED,
            cut_conflicts: 2_000,
            max_pairs_per_group: 8,
            solver: SolverConfig::default(),
        }
    }
}

/// What one [`SweepEngine::check`] call did and decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// The equivalence verdict for this candidate.
    pub outcome: MiterOutcome,
    /// Primary-output pairs proven by structural hashing alone (same node
    /// class before any SAT query of this check).
    pub strash_proven: usize,
    /// Interior cut-point pairs proven equal and merged this check, by a
    /// local truth table or by SAT.
    pub cut_points_proven: usize,
    /// Of `cut_points_proven`, the pairs settled by a local window's
    /// truth table, with no SAT call.
    pub cut_points_simulated: usize,
    /// Candidate pairs refuted by a SAT model (each fed back into the
    /// signature pool).
    pub cut_points_refuted: usize,
    /// Candidate pairs skipped because their query exceeded the per-pair
    /// conflict budget.
    pub cut_points_skipped: usize,
    /// SAT conflicts spent by this check.
    pub conflicts: u64,
}

/// A persistent SAT-sweeping equivalence checker for one golden netlist.
///
/// Build once with [`SweepEngine::new`], then [`SweepEngine::check`] each
/// candidate. All state — strash nodes, proven merges, learnt clauses,
/// counterexample patterns — persists across checks.
///
/// # Example
///
/// ```
/// use odcfp_netlist::{CellLibrary, Netlist};
/// use odcfp_sat::{MiterOutcome, SweepEngine, SweepOptions};
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
/// let (golden, candidate) = (build(), build());
/// let mut engine = SweepEngine::new(&golden, SweepOptions::default());
/// let report = engine.check(&candidate, None, None)?;
/// assert_eq!(report.outcome, MiterOutcome::Equivalent);
/// assert_eq!(report.strash_proven, 1); // proved with zero SAT conflicts
/// assert_eq!(report.conflicts, 0);
/// # Ok::<(), odcfp_sat::EquivError>(())
/// ```
#[derive(Debug)]
pub struct SweepEngine {
    opts: SweepOptions,
    // ---- node store (struct of arrays, indexed by node id) ----
    kind: Vec<NodeKind>,
    /// Flat child arena: node `i`'s children are
    /// `child_arena[child_off[i] as usize..child_off[i + 1] as usize]`.
    child_off: Vec<u32>,
    child_arena: Vec<u32>,
    /// Logic depth at creation (0 for inputs and constants).
    depth: Vec<u32>,
    /// Simulation signature (random words then counterexample words);
    /// freed when a node is retired into another class.
    sig: Vec<Vec<u64>>,
    /// CNF variable of the node's class, allocated lazily on first encode.
    var: Vec<Option<Var>>,
    /// Union-find parent (class representative = smallest node id).
    parent: Vec<u32>,
    /// Nodes that list this node among their children (congruence uses).
    uses: Vec<Vec<u32>>,
    /// Hash-consing map from canonical shape to node id.
    canon: HashMap<(NodeKind, Vec<u32>), u32>,
    /// Counterexample patterns appended to every signature so far.
    cex_count: usize,
    // ---- golden interface ----
    num_pis: usize,
    num_pos: usize,
    /// Node id of each primary input, by position.
    input_nodes: Vec<u32>,
    /// Node id of each golden primary output, by position.
    golden_pos: Vec<u32>,
    // ---- solving ----
    solver: Solver,
    interrupt: Option<Arc<AtomicBool>>,
    rng: Xoshiro256,
}

impl SweepEngine {
    /// Hash-conses `golden` and prepares the persistent solver.
    ///
    /// # Panics
    ///
    /// Panics if `golden` has undriven nets or a combinational cycle
    /// (validate first), or if `opts.sim_words` is zero.
    pub fn new(golden: &Netlist, opts: SweepOptions) -> SweepEngine {
        assert!(opts.sim_words > 0, "signatures need at least one word");
        let solver = Solver::with_config(opts.solver);
        let mut eng = SweepEngine {
            rng: Xoshiro256::seed_from_u64(opts.seed),
            opts,
            kind: Vec::new(),
            child_off: vec![0],
            child_arena: Vec::new(),
            depth: Vec::new(),
            sig: Vec::new(),
            var: Vec::new(),
            parent: Vec::new(),
            uses: Vec::new(),
            canon: HashMap::new(),
            cex_count: 0,
            num_pis: golden.primary_inputs().len(),
            num_pos: golden.primary_outputs().len(),
            input_nodes: Vec::new(),
            golden_pos: Vec::new(),
            solver,
            interrupt: None,
        };
        eng.input_nodes = (0..eng.num_pis)
            .map(|k| eng.intern_leaf(NodeKind::Input(k as u32)))
            .collect();
        {
            let mut span = odcfp_obs::span("sweep.strash");
            eng.golden_pos = eng.strash(golden);
            span.field("nodes", eng.kind.len());
        }
        eng
    }

    /// Arms a cooperative interrupt: when `flag` reads `true`, the running
    /// check aborts with [`MiterOutcome::Undecided`]. Stays armed across
    /// checks until [`SweepEngine::clear_interrupt`].
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag.clone());
        self.solver.set_interrupt(flag);
    }

    /// Disarms the cooperative interrupt.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
        self.solver.clear_interrupt();
    }

    /// Statistics of the persistent solver, accumulated over all checks.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Number of strash nodes interned so far (golden plus all deltas).
    pub fn num_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Checks `candidate` against the golden netlist.
    ///
    /// `conflict_budget` caps the total SAT conflicts of this check;
    /// `deadline` is a wall-clock cutoff. Exceeding either yields an honest
    /// [`MiterOutcome::Undecided`] — partial progress (merges, learnt
    /// clauses, counterexample patterns) is kept for the next call.
    ///
    /// # Errors
    ///
    /// Returns an error if the candidate's interface doesn't match the
    /// golden netlist.
    ///
    /// # Panics
    ///
    /// Panics if `candidate` has undriven nets or a combinational cycle
    /// (validate first).
    pub fn check(
        &mut self,
        candidate: &Netlist,
        conflict_budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<SweepReport, EquivError> {
        if !odcfp_obs::enabled() {
            return self.check_inner(candidate, conflict_budget, deadline);
        }
        let mut span = odcfp_obs::span("sweep.check");
        let result = self.check_inner(candidate, conflict_budget, deadline);
        if let Ok(report) = &result {
            span.field(
                "outcome",
                match report.outcome {
                    MiterOutcome::Equivalent => "equivalent",
                    MiterOutcome::Counterexample(_) => "counterexample",
                    MiterOutcome::Undecided => "undecided",
                },
            );
            span.field("strash_proven", report.strash_proven);
            span.field("cut_points_proven", report.cut_points_proven);
            span.field("cut_points_simulated", report.cut_points_simulated);
            span.field("conflicts", report.conflicts);
            odcfp_obs::count("sweep.strash_proven", report.strash_proven as u64);
            odcfp_obs::count("sweep.cutpoints_proven", report.cut_points_proven as u64);
            odcfp_obs::count(
                "sweep.cutpoints_simulated",
                report.cut_points_simulated as u64,
            );
            odcfp_obs::count("sweep.cutpoints_refuted", report.cut_points_refuted as u64);
            odcfp_obs::count("sweep.cutpoints_skipped", report.cut_points_skipped as u64);
        }
        result
    }

    fn check_inner(
        &mut self,
        candidate: &Netlist,
        conflict_budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<SweepReport, EquivError> {
        if candidate.primary_inputs().len() != self.num_pis {
            return Err(EquivError::InputCountMismatch {
                left: self.num_pis,
                right: candidate.primary_inputs().len(),
            });
        }
        if candidate.primary_outputs().len() != self.num_pos {
            return Err(EquivError::OutputCountMismatch {
                left: self.num_pos,
                right: candidate.primary_outputs().len(),
            });
        }
        let cand_pos = self.strash(candidate);
        let start_conflicts = self.solver.stats().conflicts;
        let golden_pos = self.golden_pos.clone();
        let unproven: Vec<(u32, u32)> = golden_pos
            .iter()
            .zip(&cand_pos)
            .map(|(&l, &r)| (l, r))
            .filter(|&(l, r)| self.find(l) != self.find(r))
            .collect();
        let mut report = SweepReport {
            outcome: MiterOutcome::Equivalent,
            strash_proven: self.num_pos - unproven.len(),
            cut_points_proven: 0,
            cut_points_simulated: 0,
            cut_points_refuted: 0,
            cut_points_skipped: 0,
            conflicts: 0,
        };
        if unproven.is_empty() {
            return Ok(report);
        }

        // Interior cut points: signature-equal node classes within the
        // unresolved cones, validated innermost-first.
        for (a, b) in self.cut_candidates(&unproven) {
            if self.cancelled(deadline) {
                break;
            }
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb || self.sig[ra as usize] != self.sig[rb as usize] {
                continue; // merged or falsified since pairing
            }
            let spent = self.solver.stats().conflicts - start_conflicts;
            let pair_budget = match conflict_budget {
                Some(total) if spent >= total => break,
                Some(total) => self.opts.cut_conflicts.min(total - spent),
                None => self.opts.cut_conflicts,
            };
            if self.settle_locally(ra, rb) {
                self.union(ra, rb);
                report.cut_points_proven += 1;
                report.cut_points_simulated += 1;
                continue;
            }
            match self.prove_distinct(ra, rb, Some(pair_budget), deadline) {
                Query::Equal => {
                    self.union(ra, rb);
                    report.cut_points_proven += 1;
                }
                Query::Distinct(cex) => {
                    self.append_cex(&cex);
                    report.cut_points_refuted += 1;
                }
                Query::Unknown => report.cut_points_skipped += 1,
            }
        }

        // Whatever sweeping left unresolved gets a direct output query.
        for &(l, r) in &unproven {
            let (rl, rr) = (self.find(l), self.find(r));
            if rl == rr {
                continue; // collapsed by a cut-point merge upstream
            }
            if self.cancelled(deadline) {
                report.outcome = MiterOutcome::Undecided;
                break;
            }
            let spent = self.solver.stats().conflicts - start_conflicts;
            let po_budget = match conflict_budget {
                Some(total) if spent >= total => {
                    report.outcome = MiterOutcome::Undecided;
                    break;
                }
                Some(total) => Some(total - spent),
                None => None,
            };
            match self.prove_distinct(rl, rr, po_budget, deadline) {
                Query::Equal => self.union(rl, rr),
                Query::Distinct(cex) => {
                    self.append_cex(&cex);
                    report.outcome = MiterOutcome::Counterexample(cex);
                    break;
                }
                Query::Unknown => {
                    report.outcome = MiterOutcome::Undecided;
                    break;
                }
            }
        }
        report.conflicts = self.solver.stats().conflicts - start_conflicts;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Structural hashing
    // ------------------------------------------------------------------

    /// Interns every net of `netlist` and returns the primary-output node
    /// ids, by position.
    fn strash(&mut self, netlist: &Netlist) -> Vec<u32> {
        let net_node = self.strash_nets(netlist);
        netlist
            .primary_outputs()
            .iter()
            .map(|&po| {
                let node = net_node[po.index()];
                assert!(node != u32::MAX, "undriven output (validate first)");
                node
            })
            .collect()
    }

    /// Interns every net of `netlist` and returns, for each net (indexed
    /// by `NetId` position), its current class representative.
    ///
    /// This runs only the hash-consing front half of the sweep — no SAT
    /// queries are issued and no solver state is created — so the call is
    /// cheap and fully deterministic. Two nets carry equal representatives
    /// iff the engine considers them structurally equivalent: identical up
    /// to the canonicalizer's rewrites (buffer/inverter collapse,
    /// commutative sorting and deduplication, constant folding, XOR pair
    /// cancellation) or merged by a proof from an earlier
    /// [`SweepEngine::check`] on this engine. Representatives are only
    /// meaningful *within* one engine, but they are comparable across
    /// calls on the same engine, which is what makes this usable as a
    /// structural matcher: intern two netlists and intersect their class
    /// sets to find logic that survives a rewrite.
    ///
    /// Undriven nets (possible only in unvalidated netlists) map to
    /// `u32::MAX`, which never names a class.
    ///
    /// # Panics
    ///
    /// Panics if `netlist` has more primary inputs than the golden
    /// netlist or contains a combinational cycle (validate first).
    pub fn net_classes(&mut self, netlist: &Netlist) -> Vec<u32> {
        assert!(
            netlist.primary_inputs().len() <= self.input_nodes.len(),
            "candidate has more primary inputs than the golden netlist"
        );
        let net_node = self.strash_nets(netlist);
        net_node
            .iter()
            .map(|&n| if n == u32::MAX { n } else { self.find(n) })
            .collect()
    }

    /// Interns every net of `netlist`; returns the interned node id per
    /// net (indexed by `NetId` position).
    fn strash_nets(&mut self, netlist: &Netlist) -> Vec<u32> {
        let mut net_node = vec![u32::MAX; netlist.num_nets()];
        for (k, &pi) in netlist.primary_inputs().iter().enumerate() {
            net_node[pi.index()] = self.input_nodes[k];
        }
        for (id, net) in netlist.nets() {
            if let NetDriver::Const(v) = net.driver() {
                net_node[id.index()] = self.intern_leaf(NodeKind::Const(v));
            }
        }
        let order = netlist
            .cached_topo()
            .expect("cyclic netlist cannot be swept (validate first)");
        let mut children: Vec<u32> = Vec::new();
        for &g in order {
            let gate = netlist.gate(g);
            let f = netlist.library().cell(gate.cell()).function();
            children.clear();
            for &n in gate.inputs() {
                let node = net_node[n.index()];
                assert!(node != u32::MAX, "undriven net (validate first)");
                children.push(node);
            }
            net_node[gate.output().index()] = self.intern_gate(f, &children);
        }
        net_node
    }

    /// Interns a childless node (constant or primary input).
    fn intern_leaf(&mut self, kind: NodeKind) -> u32 {
        let key = (kind, Vec::new());
        if let Some(&q) = self.canon.get(&key) {
            return self.find(q);
        }
        let id = self.create_node(kind, Vec::new());
        self.canon.insert(key, id);
        id
    }

    /// Interns a gate node over existing children, canonicalizing first.
    fn intern_gate(&mut self, f: PrimitiveFn, children: &[u32]) -> u32 {
        let mapped: Vec<u32> = children.iter().map(|&c| self.find(c)).collect();
        match self.canonicalize(f, mapped) {
            Canon::Existing(t) => self.find(t),
            Canon::ConstVal(v) => self.intern_leaf(NodeKind::Const(v)),
            Canon::Key(kind, ch) => {
                let key = (kind, ch);
                if let Some(&q) = self.canon.get(&key) {
                    return self.find(q);
                }
                let id = self.create_node(key.0, key.1.clone());
                self.canon.insert(key, id);
                id
            }
        }
    }

    /// Reduces `(f, children)` to canonical shape. `children` must already
    /// be class representatives. Rules: `Buf` collapses; `Inv(Inv(x))`
    /// collapses to `x`; commutative children are sorted; idempotent
    /// functions are deduplicated; parity pairs cancel. Deeper semantic
    /// simplification (e.g. constant folding) is deliberately left to the
    /// signature + SAT stages.
    fn canonicalize(&self, f: PrimitiveFn, mut ch: Vec<u32>) -> Canon {
        use PrimitiveFn::{And, Buf, Inv, Nand, Nor, Or, Xnor, Xor};
        match f {
            Buf => Canon::Existing(ch[0]),
            Inv => self.make_inv(ch[0]),
            And | Or | Nand | Nor => {
                ch.sort_unstable();
                ch.dedup();
                if ch.len() == 1 {
                    match f {
                        And | Or => Canon::Existing(ch[0]),
                        _ => self.make_inv(ch[0]),
                    }
                } else {
                    Canon::Key(NodeKind::Gate(f), ch)
                }
            }
            Xor | Xnor => {
                ch.sort_unstable();
                // x ^ x = 0: equal pairs cancel without flipping parity.
                let mut out: Vec<u32> = Vec::with_capacity(ch.len());
                let mut i = 0;
                while i < ch.len() {
                    if i + 1 < ch.len() && ch[i] == ch[i + 1] {
                        i += 2;
                    } else {
                        out.push(ch[i]);
                        i += 1;
                    }
                }
                match (out.len(), f) {
                    (0, _) => Canon::ConstVal(f == Xnor),
                    (1, Xor) => Canon::Existing(out[0]),
                    (1, _) => self.make_inv(out[0]),
                    _ => Canon::Key(NodeKind::Gate(f), out),
                }
            }
        }
    }

    /// Canonical `Inv(c)`: collapses a double inversion.
    fn make_inv(&self, c: u32) -> Canon {
        let r = self.find(c);
        if self.kind[r as usize] == NodeKind::Gate(PrimitiveFn::Inv) {
            Canon::Existing(self.find(self.children(r)[0]))
        } else {
            Canon::Key(NodeKind::Gate(PrimitiveFn::Inv), vec![r])
        }
    }

    fn create_node(&mut self, kind: NodeKind, children: Vec<u32>) -> u32 {
        let id = self.kind.len() as u32;
        let (sig, depth) = match kind {
            NodeKind::Const(v) => {
                let mut s = vec![if v { u64::MAX } else { 0 }; self.sig_len()];
                self.mask_partial(&mut s);
                (s, 0)
            }
            NodeKind::Input(_) => {
                // Random signature; counterexample words start empty-masked.
                let len = self.sig_len();
                let mut s: Vec<u64> = Vec::with_capacity(len);
                for w in 0..len {
                    s.push(if w < self.opts.sim_words {
                        self.rng.next_u64()
                    } else {
                        0
                    });
                }
                (s, 0)
            }
            NodeKind::Gate(f) => {
                let d = 1 + children
                    .iter()
                    .map(|&c| self.depth[self.find(c) as usize])
                    .max()
                    .unwrap_or(0);
                (self.gate_sig(f, &children), d)
            }
        };
        self.kind.push(kind);
        self.depth.push(depth);
        self.sig.push(sig);
        self.var.push(None);
        self.parent.push(id);
        self.uses.push(Vec::new());
        let mut last = u32::MAX;
        for &c in &children {
            if c != last {
                self.uses[c as usize].push(id);
                last = c;
            }
        }
        self.child_arena.extend_from_slice(&children);
        self.child_off.push(self.child_arena.len() as u32);
        id
    }

    fn children(&self, n: u32) -> &[u32] {
        let s = self.child_off[n as usize] as usize;
        let e = self.child_off[n as usize + 1] as usize;
        &self.child_arena[s..e]
    }

    /// Union-find lookup (no path compression: merge chains stay short
    /// because every link joins two roots).
    fn find(&self, mut n: u32) -> u32 {
        while self.parent[n as usize] != n {
            n = self.parent[n as usize];
        }
        n
    }

    // ------------------------------------------------------------------
    // Signatures
    // ------------------------------------------------------------------

    /// Current signature length: random words plus accumulated
    /// counterexample words.
    fn sig_len(&self) -> usize {
        self.opts.sim_words + self.cex_count.div_ceil(64)
    }

    /// Zeroes the unused high bits of a partially filled counterexample
    /// word, so freshly computed signatures compare equal to incrementally
    /// maintained ones.
    fn mask_partial(&self, sig: &mut [u64]) {
        let bits = self.cex_count % 64;
        if self.cex_count > 0 && bits != 0 {
            if let Some(last) = sig.last_mut() {
                *last &= (1u64 << bits) - 1;
            }
        }
    }

    /// Evaluates a gate's signature from its children's, 256 bits at a
    /// time through the widened kernel.
    fn gate_sig(&self, f: PrimitiveFn, children: &[u32]) -> Vec<u64> {
        let total = self.sig_len();
        let mut out = vec![0u64; total];
        let full = total / BLOCK_LANES * BLOCK_LANES;
        let mut blk_ins: Vec<Block> = Vec::with_capacity(children.len());
        let mut w = 0;
        while w < full {
            blk_ins.clear();
            blk_ins.extend(
                children
                    .iter()
                    .map(|&c| gather_block(&self.sig[self.find(c) as usize], w)),
            );
            out[w..w + BLOCK_LANES].copy_from_slice(&f.eval_blocks(&blk_ins));
            w += BLOCK_LANES;
        }
        let mut word_ins: Vec<u64> = Vec::with_capacity(children.len());
        let reps: Vec<usize> = children.iter().map(|&c| self.find(c) as usize).collect();
        for (w, slot) in out.iter_mut().enumerate().skip(full) {
            word_ins.clear();
            word_ins.extend(reps.iter().map(|&r| self.sig[r][w]));
            *slot = f.eval_words(&word_ins);
        }
        self.mask_partial(&mut out);
        out
    }

    /// Replays one counterexample assignment through every live node and
    /// appends the resulting bit to each signature.
    fn append_cex(&mut self, assignment: &[bool]) {
        let bit = self.cex_count % 64;
        self.cex_count += 1;
        let mut ins: Vec<bool> = Vec::new();
        for i in 0..self.kind.len() {
            if self.find(i as u32) != i as u32 {
                continue; // retired; the class representative carries bits
            }
            if bit == 0 {
                self.sig[i].push(0);
            }
            let value = match self.kind[i] {
                NodeKind::Const(v) => v,
                NodeKind::Input(k) => assignment[k as usize],
                NodeKind::Gate(f) => {
                    ins.clear();
                    let (s, e) = (
                        self.child_off[i] as usize,
                        self.child_off[i + 1] as usize,
                    );
                    for idx in s..e {
                        // Representatives have smaller ids than their
                        // members, so the child's bit is already computed.
                        let c = self.find(self.child_arena[idx]) as usize;
                        let word = self.sig[c][self.sig[c].len() - 1];
                        ins.push((word >> bit) & 1 == 1);
                    }
                    f.eval(&ins)
                }
            };
            if value {
                let last = self.sig[i].len() - 1;
                self.sig[i][last] |= 1u64 << bit;
            }
        }
    }

    // ------------------------------------------------------------------
    // Merging (congruence-closed union-find)
    // ------------------------------------------------------------------

    /// Merges two proven-equal classes, ties their CNF variables, and
    /// congruence-closes: parents of the retired class are re-hashed under
    /// the new map, cascading merges through the fanout.
    fn union(&mut self, a: u32, b: u32) {
        let mut queue = vec![(a, b)];
        while let Some((a, b)) = queue.pop() {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                continue;
            }
            let (keep, retire) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[retire as usize] = keep;
            match (self.var[keep as usize], self.var[retire as usize]) {
                (Some(vk), Some(vr)) => {
                    // Both classes already encoded: tie them in the solver.
                    self.solver.add_clause([Lit::neg(vk), Lit::pos(vr)]);
                    self.solver.add_clause([Lit::pos(vk), Lit::neg(vr)]);
                }
                (None, Some(vr)) => self.var[keep as usize] = Some(vr),
                _ => {}
            }
            // The representative carries the (identical) signature on.
            self.sig[retire as usize] = Vec::new();
            let moved = std::mem::take(&mut self.uses[retire as usize]);
            for &p in &moved {
                let rp = self.find(p);
                if let NodeKind::Gate(f) = self.kind[p as usize] {
                    let mapped: Vec<u32> =
                        self.children(p).iter().map(|&c| self.find(c)).collect();
                    match self.canonicalize(f, mapped) {
                        Canon::Existing(t) => queue.push((rp, t)),
                        Canon::ConstVal(v) => {
                            let t = self.intern_leaf(NodeKind::Const(v));
                            queue.push((rp, t));
                        }
                        Canon::Key(kind, ch) => {
                            let key = (kind, ch);
                            if let Some(&q) = self.canon.get(&key) {
                                if self.find(q) != rp {
                                    queue.push((rp, q));
                                }
                            } else {
                                self.canon.insert(key, p);
                            }
                        }
                    }
                }
            }
            self.uses[keep as usize].extend(moved);
        }
    }

    // ------------------------------------------------------------------
    // SAT queries
    // ------------------------------------------------------------------

    /// Collects candidate cut-point pairs for the unresolved output cones:
    /// signature-equal class pairs, innermost (shallowest) first.
    fn cut_candidates(&self, unproven: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut visited = vec![false; self.kind.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &(l, r) in unproven {
            stack.push(self.find(l));
            stack.push(self.find(r));
        }
        let mut cone: Vec<u32> = Vec::new();
        while let Some(n) = stack.pop() {
            if visited[n as usize] {
                continue;
            }
            visited[n as usize] = true;
            cone.push(n);
            for &c in self.children(n) {
                let rc = self.find(c);
                if !visited[rc as usize] {
                    stack.push(rc);
                }
            }
        }
        // Group by signature: sort, then pair each run's anchor with the
        // rest (capped), deterministic in node-id order.
        cone.sort_unstable_by(|&x, &y| {
            self.sig[x as usize]
                .cmp(&self.sig[y as usize])
                .then(x.cmp(&y))
        });
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut run_start = 0;
        for i in 1..=cone.len() {
            let run_ends = i == cone.len()
                || self.sig[cone[i] as usize] != self.sig[cone[run_start] as usize];
            if run_ends {
                let anchor = cone[run_start];
                for &other in cone[run_start + 1..i]
                    .iter()
                    .take(self.opts.max_pairs_per_group)
                {
                    pairs.push((anchor, other));
                }
                run_start = i;
            }
        }
        pairs.sort_by_key(|&(x, y)| {
            (
                self.depth[x as usize].max(self.depth[y as usize]),
                x,
                y,
            )
        });
        pairs
    }

    // ------------------------------------------------------------------
    // Local windows
    // ------------------------------------------------------------------

    /// Tries to prove classes `a` and `b` equal from a truth table over a
    /// small window below them; see the module docs for the expansion
    /// order and the soundness argument. `false` means "not settled
    /// here", never "distinct".
    fn settle_locally(&self, a: u32, b: u32) -> bool {
        // Sorted ascending; holds gates and inputs, never constants.
        let mut frontier: Vec<u32> = Vec::new();
        // Expanded gates, in descending id order.
        let mut expanded: Vec<u32> = Vec::new();
        self.add_leaf(&mut frontier, a);
        self.add_leaf(&mut frontier, b);
        // The latest window too wide for the cheap check but within
        // `SIM_VARS`: its leaves and how many gates it had expanded.
        let mut last_wide: Option<(Vec<u32>, usize)> = None;
        for _ in 0..WINDOW_EXPANSIONS {
            match frontier.last() {
                Some(&top) if self.is_gate(top) => {
                    frontier.pop();
                    expanded.push(top);
                    for &c in self.children(top) {
                        self.add_leaf(&mut frontier, self.find(c));
                    }
                }
                _ => break, // only primary inputs left
            }
            if frontier.len() > SIM_VARS + WINDOW_SLACK {
                break;
            }
            if frontier.binary_search(&a).is_ok() && self.is_gate(a)
                || frontier.binary_search(&b).is_ok() && self.is_gate(b)
            {
                continue; // a root is still a free leaf
            }
            if frontier.len() <= WINDOW_CHEAP_LEAVES {
                if self.window_agrees(a, b, &frontier, &expanded) {
                    return true;
                }
                last_wide = None;
            } else if frontier.len() <= SIM_VARS {
                last_wide = Some((frontier.clone(), expanded.len()));
            }
        }
        last_wide.is_some_and(|(leaves, k)| self.window_agrees(a, b, &leaves, &expanded[..k]))
    }

    fn is_gate(&self, n: u32) -> bool {
        matches!(self.kind[n as usize], NodeKind::Gate(_))
    }

    /// Adds class representative `n` to a sorted frontier; constants
    /// are compiled in place and never become leaves.
    fn add_leaf(&self, frontier: &mut Vec<u32>, n: u32) {
        if let NodeKind::Const(_) = self.kind[n as usize] {
            return;
        }
        if let Err(at) = frontier.binary_search(&n) {
            frontier.insert(at, n);
        }
    }

    /// Compiles a window (free `leaves`, gates `expanded` in descending
    /// id order) and checks that `a` and `b` agree on every row.
    fn window_agrees(&self, a: u32, b: u32, leaves: &[u32], expanded: &[u32]) -> bool {
        let mut program = Program {
            slots: leaves.len() as u32,
            free: leaves.len(),
            ..Program::default()
        };
        // Slot of each expanded gate, parallel to `expanded`.
        let mut gate_slot = vec![0u32; expanded.len()];
        let slot_of = |program: &mut Program, gate_slot: &[u32], n: u32| -> u32 {
            if let Ok(i) = leaves.binary_search(&n) {
                return i as u32;
            }
            if let Some(i) = expanded.iter().position(|&e| e == n) {
                return gate_slot[i];
            }
            let NodeKind::Const(value) = self.kind[n as usize] else {
                unreachable!("node {n} outside its window")
            };
            let out = program.fresh();
            program.ops.push(Op::Const { out, value });
            out
        };
        for (i, &g) in expanded.iter().enumerate().rev() {
            let NodeKind::Gate(f) = self.kind[g as usize] else {
                unreachable!("only gates are expanded")
            };
            let ins = self
                .children(g)
                .iter()
                .map(|&c| slot_of(&mut program, &gate_slot, self.find(c)))
                .collect();
            let out = program.fresh();
            program.ops.push(Op::Gate { f, ins, out });
            gate_slot[i] = out;
        }
        program.left = slot_of(&mut program, &gate_slot, a);
        program.right = slot_of(&mut program, &gate_slot, b);
        program.simulate()
    }

    /// Lazily Tseitin-encodes a node class (and its cone) into the
    /// persistent solver, returning the class variable.
    fn encode(&mut self, node: u32) -> Var {
        let root = self.find(node);
        let mut stack: Vec<u32> = vec![root];
        let mut pending: Vec<u32> = Vec::new();
        while let Some(&top) = stack.last() {
            let n = self.find(top);
            if self.var[n as usize].is_some() {
                stack.pop();
                continue;
            }
            pending.clear();
            for i in 0..self.children(n).len() {
                let c = self.find(self.children(n)[i]);
                if self.var[c as usize].is_none() {
                    pending.push(c);
                }
            }
            if !pending.is_empty() {
                stack.extend_from_slice(&pending);
                continue;
            }
            let v = self.solver.new_var();
            self.var[n as usize] = Some(v);
            match self.kind[n as usize] {
                NodeKind::Input(_) => {}
                NodeKind::Const(val) => {
                    self.solver.add_clause([Lit::with_polarity(v, val)]);
                }
                NodeKind::Gate(f) => {
                    let ins: Vec<Var> = (0..self.children(n).len())
                        .map(|i| {
                            let c = self.find(self.children(n)[i]);
                            self.var[c as usize].expect("children encoded before parent")
                        })
                        .collect();
                    encode_gate(&mut self.solver, f, v, &ins);
                }
            }
            stack.pop();
        }
        self.var[self.find(root) as usize].expect("root encoded")
    }

    /// One incremental SAT query: are classes `a` and `b` distinguishable?
    fn prove_distinct(
        &mut self,
        a: u32,
        b: u32,
        conflict_budget: Option<u64>,
        deadline: Option<Instant>,
    ) -> Query {
        let va = self.encode(a);
        let vb = self.encode(b);
        if va == vb {
            return Query::Equal;
        }
        let d = self.solver.new_var();
        encode_gate(&mut self.solver, PrimitiveFn::Xor, d, &[va, vb]);
        self.solver.clear_limits();
        if let Some(budget) = conflict_budget {
            self.solver.set_conflict_budget(budget);
        }
        if let Some(dl) = deadline {
            self.solver.set_deadline(dl);
        }
        match self.solver.solve_under(&[Lit::pos(d)]) {
            SolveResult::Unsat => {
                // Retire the query variable; equality is recorded by union.
                self.solver.add_clause([Lit::neg(d)]);
                Query::Equal
            }
            SolveResult::Sat(model) => {
                let inputs = self
                    .input_nodes
                    .iter()
                    .map(|&inp| {
                        let r = self.find(inp);
                        self.var[r as usize].is_some_and(|v| model.value(v))
                    })
                    .collect();
                Query::Distinct(inputs)
            }
            SolveResult::Unknown => Query::Unknown,
        }
    }

    fn cancelled(&self, deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .interrupt
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::{CellLibrary, NetId};

    /// Fig. 1 of the paper: base circuit and its ODC-fingerprinted copy
    /// (`X = A·B` widened to `X' = A·B·Y` where `Y = C+D` masks the cone).
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
    fn net_classes_match_structure_across_netlists() {
        let golden = fig1(false);
        let marked = fig1(true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let base = eng.net_classes(&golden);
        let fp = eng.net_classes(&marked);

        // Same-shape logic lands in the same class: the Y = C+D gate is
        // untouched by the fingerprint, so its output nets agree.
        let y_of = |n: &Netlist, cls: &[u32]| {
            let g = n.gates().find(|(_, g)| g.name() == "gy").unwrap().0;
            cls[n.gate_output(g).index()]
        };
        assert_eq!(y_of(&golden, &base), y_of(&marked, &fp));

        // The widened X' = A·B·Y is a new structure: its class appears in
        // the fingerprinted copy but nowhere in the base netlist.
        let x_of = |n: &Netlist, cls: &[u32]| {
            let g = n.gates().find(|(_, g)| g.name() == "gx").unwrap().0;
            cls[n.gate_output(g).index()]
        };
        let xp = x_of(&marked, &fp);
        assert!(!base.contains(&xp), "widened gate must form a fresh class");
        // Re-interning is idempotent: same classes on a second pass.
        assert_eq!(eng.net_classes(&marked), fp);
    }

    #[test]
    fn identical_clone_is_strash_proven() {
        let golden = fig1(false);
        let clone = fig1(false);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&clone, None, None).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.strash_proven, 1);
        assert_eq!(report.conflicts, 0, "no SAT needed for a clone");
    }

    #[test]
    fn odc_variant_proven_by_cut_points() {
        let golden = fig1(false);
        let marked = fig1(true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&marked, None, None).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        // X vs X' differ (signatures split them), but F vs F' converge.
        assert_eq!(report.strash_proven, 0);
        assert!(report.cut_points_proven >= 1, "{report:?}");

        // Second check of the same variant: the merge persisted, so the
        // output pair is now structurally proven with zero conflicts.
        let again = eng.check(&marked, None, None).unwrap();
        assert_eq!(again.outcome, MiterOutcome::Equivalent);
        assert_eq!(again.strash_proven, 1);
        assert_eq!(again.conflicts, 0);
    }

    #[test]
    fn inequivalent_candidate_yields_concrete_counterexample() {
        let golden = fig1(false);
        let lib = golden.library().clone();
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

        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        match eng.check(&wrong, None, None).unwrap().outcome {
            MiterOutcome::Counterexample(inputs) => {
                assert_eq!(inputs.len(), 4);
                assert_ne!(golden.eval(&inputs), wrong.eval(&inputs));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    /// A chain of two-input XORs over `width` inputs, associated left to
    /// right or, `reversed`, right to left.
    fn xor_chain(width: usize, reversed: bool) -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("xors", lib);
        let mut pis: Vec<_> = (0..width)
            .map(|i| n.add_primary_input(format!("i{i}")))
            .collect();
        if reversed {
            pis.reverse();
        }
        let out = gate_chain(&mut n, &pis, PrimitiveFn::Xor);
        n.set_primary_output(out);
        n
    }

    /// A chain of two-input `f` gates over `inputs`, left to right;
    /// returns the chain's output net.
    fn gate_chain(n: &mut Netlist, inputs: &[NetId], f: PrimitiveFn) -> NetId {
        let cell = n.library().cell_for(f, 2).unwrap();
        let mut acc = inputs[0];
        for (k, &pi) in inputs.iter().enumerate().skip(1) {
            let g = n.add_gate(format!("{f:?}{k}"), cell, &[acc, pi]);
            acc = n.gate_output(g);
        }
        acc
    }

    #[test]
    fn fig1_pair_settles_by_truth_table() {
        let golden = fig1(false);
        let marked = fig1(true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&marked, None, None).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        // F and F' reconverge two gates above the widened X': a window
        // over {A, B, C, D} settles them without the solver.
        assert!(report.cut_points_simulated >= 1, "{report:?}");
        assert_eq!(report.cut_points_simulated, report.cut_points_proven);
        assert_eq!(report.conflicts, 0, "{report:?}");
        assert_eq!(eng.solver_stats().conflicts, 0);
    }

    #[test]
    fn structurally_different_but_equal_uses_output_query() {
        // XOR chains associated in opposite orders: no strash match and
        // no interior signature-equal pairs. The two cones meet only at
        // the 20 primary inputs, past what a local window simulates, so
        // the proof lands on a query of the shared incremental solver.
        let golden = xor_chain(20, false);
        let cand = xor_chain(20, true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&cand, None, None).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.cut_points_simulated, 0, "{report:?}");
        assert!(report.conflicts > 0, "a real proof was required");
        // Once proven, the classes stay merged for the next check.
        let again = eng.check(&cand, None, None).unwrap();
        assert_eq!(again.strash_proven, 1);
        assert_eq!(again.conflicts, 0);
    }

    /// Equal only through a satisfiability don't-care: N1 = AND(x0..x19)
    /// implies N2 = OR(x19..x0), so AND(N1, N2) = N1, and the outputs
    /// (AND(N1, N2) ^ c) ^ d and (N1 ^ c) ^ d are a cut-point pair. The
    /// chains run in opposite orders, so a window sees the implication
    /// only once both chains are expanded far enough to share inputs:
    /// by then all 20 inputs are on its frontier, past what a window
    /// simulates. The pair must go to the solver.
    #[test]
    fn satisfiability_dont_care_is_proven_by_the_solver() {
        let build = |sdc: bool| {
            let mut n = Netlist::new("sdc", CellLibrary::standard());
            let xs: Vec<_> = (0..20)
                .map(|i| n.add_primary_input(format!("x{i}")))
                .collect();
            let c = n.add_primary_input("c");
            let d = n.add_primary_input("d");
            let n1 = gate_chain(&mut n, &xs, PrimitiveFn::And);
            let g = if sdc {
                n1
            } else {
                let reversed: Vec<_> = xs.iter().rev().copied().collect();
                let n2 = gate_chain(&mut n, &reversed, PrimitiveFn::Or);
                let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
                let g = n.add_gate("g", and2, &[n1, n2]);
                n.gate_output(g)
            };
            let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
            let gc = n.add_gate("gc", xor2, &[g, c]);
            let h = n.add_gate("h", xor2, &[n.gate_output(gc), d]);
            n.set_primary_output(n.gate_output(h));
            n
        };
        let golden = build(false);
        let cand = build(true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&cand, None, None).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.cut_points_simulated, 0, "{report:?}");
        assert!(report.cut_points_proven >= 1, "{report:?}");
        assert!(report.conflicts > 0, "{report:?}");
    }

    /// AND(x0..x15) against AND(x0..x14): they differ on one row of
    /// 65,536, which the random signatures miss, so the pair is a cut
    /// point. Its windows disagree (one row is enough), the solver
    /// refutes it, and the counterexample is a real one.
    #[test]
    fn signature_equal_false_candidate_is_refuted() {
        let build = |width: usize| {
            let mut n = Netlist::new("ands", CellLibrary::standard());
            let xs: Vec<_> = (0..16)
                .map(|i| n.add_primary_input(format!("x{i}")))
                .collect();
            let out = gate_chain(&mut n, &xs[..width], PrimitiveFn::And);
            n.set_primary_output(out);
            n
        };
        let golden = build(16);
        let cand = build(15);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&cand, None, None).unwrap();
        assert!(report.cut_points_refuted >= 1, "{report:?}");
        assert_eq!(report.cut_points_simulated, 0, "{report:?}");
        match report.outcome {
            MiterOutcome::Counterexample(inputs) => {
                assert_ne!(golden.eval(&inputs), cand.eval(&inputs));
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_honest_undecided() {
        let golden = xor_chain(12, false);
        let cand = xor_chain(12, true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let starved = eng.check(&cand, Some(0), None).unwrap();
        assert_eq!(starved.outcome, MiterOutcome::Undecided);
        // Progress persists: an unbounded retry completes the proof.
        let done = eng.check(&cand, None, None).unwrap();
        assert_eq!(done.outcome, MiterOutcome::Equivalent);
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let golden = fig1(false);
        let lib = golden.library().clone();
        let mut tiny = Netlist::new("tiny", lib);
        let a = tiny.add_primary_input("a");
        tiny.set_primary_output(a);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        assert!(matches!(
            eng.check(&tiny, None, None),
            Err(EquivError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn buf_and_double_inv_collapse() {
        let lib = CellLibrary::standard();
        let golden = {
            let mut n = Netlist::new("plain", lib.clone());
            let a = n.add_primary_input("a");
            let b = n.add_primary_input("b");
            let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
            let g = n.add_gate("g", and2, &[a, b]);
            n.set_primary_output(n.gate_output(g));
            n
        };
        let cand = {
            let mut n = Netlist::new("buffy", lib);
            let a = n.add_primary_input("a");
            let b = n.add_primary_input("b");
            let buf = n.library().cell_for(PrimitiveFn::Buf, 1).unwrap();
            let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
            let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
            let ab = n.add_gate("ab", buf, &[a]);
            let n1 = n.add_gate("n1", inv, &[n.gate_output(ab)]);
            let n2 = n.add_gate("n2", inv, &[n.gate_output(n1)]);
            // AND(b, inv(inv(buf(a)))) with swapped children.
            let g = n.add_gate("g", and2, &[b, n.gate_output(n2)]);
            n.set_primary_output(n.gate_output(g));
            n
        };
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&cand, None, None).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.strash_proven, 1, "canonicalization alone suffices");
        assert_eq!(report.conflicts, 0);
    }
}
