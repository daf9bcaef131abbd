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

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{NetDriver, Netlist};

use crate::equiv::{EquivError, MiterOutcome};
use crate::local::{Program, SIM_VARS, WINDOW_CHEAP_LEAVES, WINDOW_EXPANSIONS, WINDOW_SLACK};
use crate::tseitin::encode_gate;
use crate::{Limits, Lit, SolveResult, Solver, SolverStats, Var};

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
    /// A genuine new shape: the canonical kind, with the canonical child
    /// classes left in the caller's key buffer.
    Key(NodeKind),
}

/// Marks an empty [`CanonTable`] slot and the end of a use list.
const NIL: u32 = u32::MAX;

/// Hash-cons table from canonical shape `(kind, children)` to node id.
///
/// Open addressing with linear probing over a power-of-two slot array,
/// at most half full. Each key is copied once into an append-only `u32`
/// arena and hashed and compared in place, so a lookup allocates nothing
/// and an insert only when the arena or slot array grows. Keys are
/// hashed with a per-table [`RandomState`]: netlists come from buyers
/// and clients, so the table must stay keyed against crafted
/// collisions. Entries are never removed.
#[derive(Debug)]
struct CanonTable {
    hasher: RandomState,
    slots: Vec<CanonSlot>,
    len: usize,
    keys: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct CanonSlot {
    /// Low 32 bits of the key's hash: its home slot and a cheap filter.
    hash: u32,
    kind: NodeKind,
    /// The key is `keys[off..off + len]`.
    off: u32,
    len: u32,
    /// `NIL` when the slot is empty.
    node: u32,
}

const EMPTY_SLOT: CanonSlot = CanonSlot {
    hash: 0,
    kind: NodeKind::Const(false),
    off: 0,
    len: 0,
    node: NIL,
};

/// Where [`CanonTable::lookup`] found a key missing; valid until the next
/// insert.
struct Vacant {
    slot: usize,
    hash: u32,
}

impl CanonTable {
    /// A table sized for about `entries` keys before its first growth.
    fn with_capacity(entries: usize) -> CanonTable {
        CanonTable {
            hasher: RandomState::new(),
            slots: vec![EMPTY_SLOT; (2 * entries).next_power_of_two().max(16)],
            len: 0,
            keys: Vec::with_capacity(2 * entries),
        }
    }

    /// The node interned under `(kind, key)`, or where to insert it.
    fn lookup(&self, kind: NodeKind, key: &[u32]) -> Result<u32, Vacant> {
        let hash = self.hasher.hash_one((kind, key)) as u32;
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.node == NIL {
                return Err(Vacant { slot: i, hash });
            }
            if s.hash == hash
                && s.kind == kind
                && self.keys[s.off as usize..(s.off + s.len) as usize] == *key
            {
                return Ok(s.node);
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns `(kind, key)` → `node` where [`CanonTable::lookup`] just
    /// found it missing.
    fn insert(&mut self, at: Vacant, kind: NodeKind, key: &[u32], node: u32) {
        debug_assert_eq!(self.slots[at.slot].node, NIL, "stale vacant slot");
        let off = u32::try_from(self.keys.len()).expect("strash key arena exceeds u32");
        self.keys.extend_from_slice(key);
        self.slots[at.slot] = CanonSlot {
            hash: at.hash,
            kind,
            off,
            len: key.len() as u32,
            node,
        };
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
    }

    /// Doubles the slot array, re-placing every entry by its stored hash.
    fn grow(&mut self) {
        let grown = vec![EMPTY_SLOT; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for s in old.into_iter().filter(|s| s.node != NIL) {
            let mut i = s.hash as usize & mask;
            while self.slots[i].node != NIL {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// Congruence uses — for each node, the nodes that list it among their
/// children — as linked lists through one append-only link arena, so
/// retiring a class splices its list onto the survivor's in O(1).
#[derive(Debug, Default)]
struct UseLists {
    /// First and last link of each node's list (`NIL` when empty).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// `(user, next link)`.
    links: Vec<(u32, u32)>,
}

impl UseLists {
    fn add_node(&mut self) {
        self.head.push(NIL);
        self.tail.push(NIL);
    }

    /// Appends `user` to `node`'s list.
    fn push(&mut self, node: u32, user: u32) {
        let link = self.links.len() as u32;
        self.links.push((user, NIL));
        match self.tail[node as usize] {
            NIL => self.head[node as usize] = link,
            t => self.links[t as usize].1 = link,
        }
        self.tail[node as usize] = link;
    }

    /// Moves `from`'s list onto the end of `to`'s.
    fn splice(&mut self, to: u32, from: u32) {
        let (h, t) = (self.head[from as usize], self.tail[from as usize]);
        if h == NIL {
            return;
        }
        match self.tail[to as usize] {
            NIL => self.head[to as usize] = h,
            tt => self.links[tt as usize].1 = h,
        }
        self.tail[to as usize] = t;
        self.head[from as usize] = NIL;
        self.tail[from as usize] = NIL;
    }
}

/// Rows per chunk of [`SigRows`]: 64 KiB at the default 64-word stride.
/// Fixed-size chunks let the store grow without copying, and a dropped
/// engine's chunks are reused by the next engine instead of lingering
/// as one large freed block.
const SIG_CHUNK_ROWS: usize = 128;

/// Simulation signatures as fixed-stride rows, [`SIG_CHUNK_ROWS`] to a
/// chunk. A row is handed to each new node; a retired node's row is
/// released for the next one.
#[derive(Debug)]
struct SigRows {
    /// Words per row: random words, then one word per 64
    /// counterexamples.
    stride: usize,
    chunks: Vec<Vec<u64>>,
    /// Rows handed out so far, live or released.
    rows: usize,
    released: Vec<u32>,
}

impl SigRows {
    fn new(stride: usize) -> SigRows {
        SigRows {
            stride,
            chunks: Vec::new(),
            rows: 0,
            released: Vec::new(),
        }
    }

    fn row(&self, r: u32) -> &[u64] {
        let at = r as usize % SIG_CHUNK_ROWS * self.stride;
        &self.chunks[r as usize / SIG_CHUNK_ROWS][at..at + self.stride]
    }

    fn row_mut(&mut self, r: u32) -> &mut [u64] {
        let at = r as usize % SIG_CHUNK_ROWS * self.stride;
        &mut self.chunks[r as usize / SIG_CHUNK_ROWS][at..at + self.stride]
    }

    /// A row for a new node, with stale contents.
    fn alloc(&mut self) -> u32 {
        if let Some(r) = self.released.pop() {
            return r;
        }
        if self.rows.is_multiple_of(SIG_CHUNK_ROWS) {
            self.chunks.push(vec![0; SIG_CHUNK_ROWS * self.stride]);
        }
        self.rows += 1;
        u32::try_from(self.rows - 1).expect("signature rows exceed u32")
    }

    fn release(&mut self, r: u32) {
        self.released.push(r);
    }

    /// Widens every row by one zeroed word, in place, chunk by chunk.
    fn widen(&mut self) {
        let old = self.stride;
        for chunk in &mut self.chunks {
            chunk.resize(SIG_CHUNK_ROWS * (old + 1), 0);
            // Back to front, so no row is overwritten before it moves.
            for r in (0..SIG_CHUNK_ROWS).rev() {
                chunk.copy_within(r * old..(r + 1) * old, r * (old + 1));
                chunk[r * (old + 1) + old] = 0;
            }
        }
        self.stride += 1;
    }
}

/// Reusable buffers, so interning, merging and windows allocate nothing
/// once they have grown. Their contents mean nothing between calls.
#[derive(Debug, Default)]
struct Scratch {
    /// Canonical child classes of the shape being interned or re-keyed.
    key: Vec<u32>,
    /// Signature row of each child of the gate being created, and the
    /// signature it is evaluated in.
    child_rows: Vec<u32>,
    sig: Vec<u64>,
    /// One counterexample word per child (see `append_cex`).
    word_ins: Vec<u64>,
    /// Pending class pairs of a congruence closure.
    merges: Vec<(u32, u32)>,
    window: Window,
}

/// Cut-point window state (see [`Window::settle`]).
#[derive(Debug, Default)]
struct Window {
    /// Sorted ascending; holds gates and inputs, never constants.
    frontier: Vec<u32>,
    /// Expanded gates, in descending id order.
    expanded: Vec<u32>,
    /// Leaves of the latest window too wide for the cheap check but
    /// within `SIM_VARS`.
    wide: Vec<u32>,
    /// Slot of each compiled gate, parallel to `expanded`.
    gate_slot: Vec<u32>,
    program: Program,
}

/// Outcome of a single SAT query on a node pair.
enum Query {
    Equal,
    Distinct(Vec<bool>),
    Unknown,
}

/// Seed for the signature pattern generator.
const SIG_SEED: u64 = 0x0DCF_5EED;
/// Per-candidate-pair conflict budget for interior cut-point queries.
/// A pair whose query exceeds this is skipped, never mis-merged.
const CUT_CONFLICTS: u64 = 2_000;
/// Cap on candidate pairs drawn from one signature group, guarding
/// against quadratic blowup on degenerate signatures.
const MAX_PAIRS_PER_GROUP: usize = 8;

/// Tuning knobs for [`SweepEngine`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Random 64-bit pattern words per node signature (the cut-point
    /// grouping key). More words mean fewer false candidates.
    pub sim_words: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { sim_words: 64 }
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
/// # Node store
///
/// Nodes live in flat struct-of-arrays storage indexed by node id, so
/// interning a gate, congruence closure and a cut-point window allocate
/// nothing once the arrays have grown:
///
/// * children sit in one child arena, sliced per node;
/// * signatures are rows of one `u64` array, `sim_words` plus one word
///   per 64 counterexamples wide; the stride widens in place when a new
///   counterexample word starts, and a retired node's row is recycled;
/// * congruence uses are linked lists through one append-only link
///   arena, so a merge splices the retired class's list onto the
///   survivor's;
/// * the hash-cons table is open-addressed, keyed by a per-engine
///   `RandomState`, with its keys in an append-only arena of its own.
///   Keys cannot point into the child arena: a merge re-keys each parent
///   of the retired class under its children's *new* representatives,
///   which are no node's stored children.
///
/// Node ids follow creation order, which depends only on the netlists
/// and the proof order, never on a hash seed.
///
/// # Example
///
/// ```
/// use odcfp_netlist::{CellLibrary, Netlist};
/// use odcfp_sat::{Limits, MiterOutcome, SweepEngine, SweepOptions};
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
/// let report = engine.check(&candidate, &Limits::default())?;
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
    /// Simulation signatures: node `n`'s is row `sig_row[n]` of `sigs`.
    /// Only class representatives' rows are live.
    sigs: SigRows,
    sig_row: Vec<u32>,
    /// CNF variable of the node's class, allocated lazily on first encode.
    var: Vec<Option<Var>>,
    /// Union-find parent (class representative = smallest node id).
    parent: Vec<u32>,
    /// Nodes that list this node among their children (congruence uses).
    uses: UseLists,
    /// Hash-consing table from canonical shape to node id.
    canon: CanonTable,
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
    rng: Xoshiro256,
    scratch: Scratch,
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
        let solver = Solver::new();
        // The golden's inputs, constants and gates bound its node count.
        let nodes = golden.primary_inputs().len() + golden.num_gates() + 2;
        let mut eng = SweepEngine {
            rng: Xoshiro256::seed_from_u64(SIG_SEED),
            kind: Vec::with_capacity(nodes),
            child_off: Vec::with_capacity(nodes + 1),
            child_arena: Vec::new(),
            depth: Vec::with_capacity(nodes),
            sigs: SigRows::new(opts.sim_words),
            sig_row: Vec::with_capacity(nodes),
            var: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            uses: UseLists::default(),
            canon: CanonTable::with_capacity(nodes),
            opts,
            cex_count: 0,
            num_pis: golden.primary_inputs().len(),
            num_pos: golden.primary_outputs().len(),
            input_nodes: Vec::new(),
            golden_pos: Vec::new(),
            solver,
            scratch: Scratch::default(),
        };
        eng.child_off.push(0);
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
    /// `limits.conflicts` caps the total SAT conflicts of this check, and
    /// its deadline and interrupt stop it. Exceeding any yields an honest
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
        limits: &Limits,
    ) -> Result<SweepReport, EquivError> {
        if !odcfp_obs::enabled() {
            return self.check_inner(candidate, limits);
        }
        let mut span = odcfp_obs::span("sweep.check");
        let result = self.check_inner(candidate, limits);
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
        limits: &Limits,
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
            if limits.stopped() {
                break;
            }
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb || self.sig(ra) != self.sig(rb) {
                continue; // merged or falsified since pairing
            }
            let spent = self.solver.stats().conflicts - start_conflicts;
            let pair_budget = match limits.conflicts {
                Some(total) if spent >= total => break,
                Some(total) => CUT_CONFLICTS.min(total - spent),
                None => CUT_CONFLICTS,
            };
            if self.settle_locally(ra, rb) {
                self.union(ra, rb);
                report.cut_points_proven += 1;
                report.cut_points_simulated += 1;
                continue;
            }
            match self.prove_distinct(ra, rb, Some(pair_budget), limits) {
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
            if limits.stopped() {
                report.outcome = MiterOutcome::Undecided;
                break;
            }
            let spent = self.solver.stats().conflicts - start_conflicts;
            let po_budget = match limits.conflicts {
                Some(total) if spent >= total => {
                    report.outcome = MiterOutcome::Undecided;
                    break;
                }
                Some(total) => Some(total - spent),
                None => None,
            };
            match self.prove_distinct(rl, rr, po_budget, limits) {
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
        self.intern_key(kind, &[])
    }

    /// Interns a gate node over existing children, canonicalizing first.
    fn intern_gate(&mut self, f: PrimitiveFn, children: &[u32]) -> u32 {
        let mut key = std::mem::take(&mut self.scratch.key);
        key.clear();
        key.extend(children.iter().map(|&c| self.find(c)));
        let id = match self.canonicalize(f, &mut key) {
            Canon::Existing(t) => self.find(t),
            Canon::ConstVal(v) => self.intern_leaf(NodeKind::Const(v)),
            Canon::Key(kind) => self.intern_key(kind, &key),
        };
        self.scratch.key = key;
        id
    }

    /// The class of canonical shape `(kind, children)`, created on a miss.
    fn intern_key(&mut self, kind: NodeKind, children: &[u32]) -> u32 {
        match self.canon.lookup(kind, children) {
            Ok(q) => self.find(q),
            Err(vacant) => {
                let id = self.create_node(kind, children);
                self.canon.insert(vacant, kind, children, id);
                id
            }
        }
    }

    /// Reduces `(f, ch)` to canonical shape in place. `ch` must already
    /// hold class representatives; on [`Canon::Key`] it holds the
    /// canonical children. Rules: `Buf` collapses; `Inv(Inv(x))`
    /// collapses to `x`; commutative children are sorted; idempotent
    /// functions are deduplicated; parity pairs cancel. Deeper semantic
    /// simplification (e.g. constant folding) is deliberately left to the
    /// signature + SAT stages.
    fn canonicalize(&self, f: PrimitiveFn, ch: &mut Vec<u32>) -> Canon {
        use PrimitiveFn::{And, Buf, Inv, Nand, Nor, Or, Xnor, Xor};
        match f {
            Buf => Canon::Existing(ch[0]),
            Inv => self.make_inv(ch[0], ch),
            And | Or | Nand | Nor => {
                ch.sort_unstable();
                ch.dedup();
                if ch.len() == 1 {
                    match f {
                        And | Or => Canon::Existing(ch[0]),
                        _ => self.make_inv(ch[0], ch),
                    }
                } else {
                    Canon::Key(NodeKind::Gate(f))
                }
            }
            Xor | Xnor => {
                ch.sort_unstable();
                // x ^ x = 0: equal pairs cancel without flipping parity.
                let (mut kept, mut i) = (0, 0);
                while i < ch.len() {
                    if i + 1 < ch.len() && ch[i] == ch[i + 1] {
                        i += 2;
                    } else {
                        ch[kept] = ch[i];
                        kept += 1;
                        i += 1;
                    }
                }
                ch.truncate(kept);
                match (ch.len(), f) {
                    (0, _) => Canon::ConstVal(f == Xnor),
                    (1, Xor) => Canon::Existing(ch[0]),
                    (1, _) => self.make_inv(ch[0], ch),
                    _ => Canon::Key(NodeKind::Gate(f)),
                }
            }
        }
    }

    /// Canonical `Inv(c)`: collapses a double inversion. On
    /// [`Canon::Key`], `ch` holds the one child.
    fn make_inv(&self, c: u32, ch: &mut Vec<u32>) -> Canon {
        let r = self.find(c);
        if self.kind[r as usize] == NodeKind::Gate(PrimitiveFn::Inv) {
            Canon::Existing(self.find(self.children(r)[0]))
        } else {
            ch.clear();
            ch.push(r);
            Canon::Key(NodeKind::Gate(PrimitiveFn::Inv))
        }
    }

    fn create_node(&mut self, kind: NodeKind, children: &[u32]) -> u32 {
        let id = self.kind.len() as u32;
        let row = self.sigs.alloc();
        let depth = match kind {
            NodeKind::Const(v) => {
                let sig = self.sigs.row_mut(row);
                sig.fill(if v { u64::MAX } else { 0 });
                mask_partial(self.cex_count, sig);
                0
            }
            NodeKind::Input(_) => {
                // Random signature; counterexample words start empty-masked.
                for (w, word) in self.sigs.row_mut(row).iter_mut().enumerate() {
                    *word = if w < self.opts.sim_words {
                        self.rng.next_u64()
                    } else {
                        0
                    };
                }
                0
            }
            NodeKind::Gate(f) => {
                self.scratch.child_rows.clear();
                let mut d = 0;
                for &c in children {
                    let r = self.find(c) as usize;
                    d = d.max(self.depth[r]);
                    self.scratch.child_rows.push(self.sig_row[r]);
                }
                self.gate_sig(f, row);
                1 + d
            }
        };
        self.kind.push(kind);
        self.depth.push(depth);
        self.sig_row.push(row);
        self.var.push(None);
        self.parent.push(id);
        self.uses.add_node();
        let mut last = NIL;
        for &c in children {
            if c != last {
                self.uses.push(c, id);
                last = c;
            }
        }
        self.child_arena.extend_from_slice(children);
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

    /// Node `n`'s signature.
    fn sig(&self, n: u32) -> &[u64] {
        self.sigs.row(self.sig_row[n as usize])
    }

    /// Evaluates a gate's signature into `row` from its children's rows
    /// (`scratch.child_rows`): the first child's signature folded with
    /// each other child's under the gate's plane, then complemented for
    /// an inverting gate. The fold is bitwise, so every word equals
    /// `f.eval_words` of the children's words.
    fn gate_sig(&mut self, f: PrimitiveFn, row: u32) {
        use PrimitiveFn::{And, Buf, Inv, Nand, Nor, Or, Xnor, Xor};
        let Scratch {
            child_rows, sig, ..
        } = &mut self.scratch;
        let (&first, rest) = child_rows.split_first().expect("a gate node has children");
        sig.clear();
        sig.extend_from_slice(self.sigs.row(first));
        for &c in rest {
            let child = self.sigs.row(c);
            match f {
                And | Nand => fold_row(sig, child, |a, b| a & b),
                Or | Nor => fold_row(sig, child, |a, b| a | b),
                Xor | Xnor => fold_row(sig, child, |a, b| a ^ b),
                Buf | Inv => unreachable!("{f} node with {} children", child_rows.len()),
            }
        }
        if f.is_inverting() {
            sig.iter_mut().for_each(|w| *w = !*w);
        }
        mask_partial(self.cex_count, sig);
        self.sigs.row_mut(row).copy_from_slice(sig);
    }

    /// Replays one counterexample assignment through every live node and
    /// appends the resulting bit to each signature.
    fn append_cex(&mut self, assignment: &[bool]) {
        let bit = self.cex_count % 64;
        if bit == 0 {
            self.sigs.widen();
        }
        self.cex_count += 1;
        let last = self.sigs.stride - 1;
        for i in 0..self.kind.len() {
            if self.find(i as u32) != i as u32 {
                continue; // retired; the class representative carries bits
            }
            let value = match self.kind[i] {
                NodeKind::Const(v) => v,
                NodeKind::Input(k) => assignment[k as usize],
                NodeKind::Gate(f) => {
                    self.scratch.word_ins.clear();
                    let (s, e) = (self.child_off[i] as usize, self.child_off[i + 1] as usize);
                    for idx in s..e {
                        // Representatives have smaller ids than their
                        // members, so the child's bit is already computed.
                        let c = self.find(self.child_arena[idx]) as usize;
                        let word = self.sigs.row(self.sig_row[c])[last];
                        self.scratch.word_ins.push(word);
                    }
                    (f.eval_words(&self.scratch.word_ins) >> bit) & 1 == 1
                }
            };
            if value {
                self.sigs.row_mut(self.sig_row[i])[last] |= 1u64 << bit;
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
        let mut queue = std::mem::take(&mut self.scratch.merges);
        let mut key = std::mem::take(&mut self.scratch.key);
        queue.clear();
        queue.push((a, b));
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
            self.sigs.release(self.sig_row[retire as usize]);
            // Re-key the retired class's uses in list order: the first
            // parent to claim a new shape keeps it.
            let mut link = self.uses.head[retire as usize];
            while link != NIL {
                let (p, next) = self.uses.links[link as usize];
                link = next;
                let rp = self.find(p);
                let NodeKind::Gate(f) = self.kind[p as usize] else {
                    continue;
                };
                key.clear();
                key.extend(self.children(p).iter().map(|&c| self.find(c)));
                match self.canonicalize(f, &mut key) {
                    Canon::Existing(t) => queue.push((rp, t)),
                    Canon::ConstVal(v) => {
                        let t = self.intern_leaf(NodeKind::Const(v));
                        queue.push((rp, t));
                    }
                    Canon::Key(kind) => match self.canon.lookup(kind, &key) {
                        Ok(q) => {
                            if self.find(q) != rp {
                                queue.push((rp, q));
                            }
                        }
                        Err(vacant) => self.canon.insert(vacant, kind, &key, p),
                    },
                }
            }
            self.uses.splice(keep, retire);
        }
        self.scratch.merges = queue;
        self.scratch.key = key;
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
        // Cone classes keyed by their first signature word, which
        // decides most signature comparisons without a row lookup.
        let mut cone: Vec<(u64, u32)> = Vec::new();
        while let Some(n) = stack.pop() {
            if visited[n as usize] {
                continue;
            }
            visited[n as usize] = true;
            cone.push((self.sig(n)[0], n));
            for &c in self.children(n) {
                let rc = self.find(c);
                if !visited[rc as usize] {
                    stack.push(rc);
                }
            }
        }
        // Group by signature: sort, then pair each run's anchor with the
        // rest (capped), deterministic in node-id order.
        cone.sort_unstable_by(|&(kx, x), &(ky, y)| {
            kx.cmp(&ky)
                .then_with(|| self.sig(x).cmp(self.sig(y)))
                .then(x.cmp(&y))
        });
        let same_sig =
            |(kx, x): (u64, u32), (ky, y): (u64, u32)| kx == ky && self.sig(x) == self.sig(y);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut run_start = 0;
        for i in 1..=cone.len() {
            let run_ends = i == cone.len() || !same_sig(cone[i], cone[run_start]);
            if run_ends {
                let anchor = cone[run_start].1;
                for &(_, other) in cone[run_start + 1..i].iter().take(MAX_PAIRS_PER_GROUP) {
                    pairs.push((anchor, other));
                }
                run_start = i;
            }
        }
        pairs.sort_by_key(|&(x, y)| (self.depth[x as usize].max(self.depth[y as usize]), x, y));
        pairs
    }

    // ------------------------------------------------------------------
    // Local windows
    // ------------------------------------------------------------------

    /// Tries to prove classes `a` and `b` equal from a truth table over a
    /// small window below them; see [`Window::settle`].
    fn settle_locally(&mut self, a: u32, b: u32) -> bool {
        let mut window = std::mem::take(&mut self.scratch.window);
        let settled = window.settle(self, a, b);
        self.scratch.window = window;
        settled
    }

    fn is_gate(&self, n: u32) -> bool {
        matches!(self.kind[n as usize], NodeKind::Gate(_))
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

    /// One incremental SAT query: are classes `a` and `b` distinguishable
    /// within `conflicts` and the check's deadline and interrupt?
    fn prove_distinct(&mut self, a: u32, b: u32, conflicts: Option<u64>, limits: &Limits) -> Query {
        let va = self.encode(a);
        let vb = self.encode(b);
        if va == vb {
            return Query::Equal;
        }
        let d = self.solver.new_var();
        encode_gate(&mut self.solver, PrimitiveFn::Xor, d, &[va, vb]);
        let limits = Limits {
            conflicts,
            ..limits.clone()
        };
        match self.solver.solve_under(&[Lit::pos(d)], &limits) {
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
}

/// `acc[w] = op(acc[w], row[w])` for every word.
fn fold_row(acc: &mut [u64], row: &[u64], op: impl Fn(u64, u64) -> u64) {
    for (a, &b) in acc.iter_mut().zip(row) {
        *a = op(*a, b);
    }
}

/// Zeroes the unused high bits of a partially filled counterexample word,
/// so freshly computed signatures compare equal to incrementally
/// maintained ones.
fn mask_partial(cex_count: usize, sig: &mut [u64]) {
    let bits = cex_count % 64;
    if cex_count > 0 && bits != 0 {
        if let Some(last) = sig.last_mut() {
            *last &= (1u64 << bits) - 1;
        }
    }
}

impl Window {
    /// Tries to prove classes `a` and `b` of `eng` equal from a truth
    /// table over a small window below them; see the module docs for the
    /// expansion order and the soundness argument. `false` means "not
    /// settled here", never "distinct".
    fn settle(&mut self, eng: &SweepEngine, a: u32, b: u32) -> bool {
        self.frontier.clear();
        self.expanded.clear();
        add_leaf(eng, &mut self.frontier, a);
        add_leaf(eng, &mut self.frontier, b);
        // How many gates the window saved in `wide` had expanded.
        let mut wide_expanded: Option<usize> = None;
        for _ in 0..WINDOW_EXPANSIONS {
            match self.frontier.last() {
                Some(&top) if eng.is_gate(top) => {
                    self.frontier.pop();
                    self.expanded.push(top);
                    for &c in eng.children(top) {
                        add_leaf(eng, &mut self.frontier, eng.find(c));
                    }
                }
                _ => break, // only primary inputs left
            }
            let leaves = self.frontier.len();
            if leaves > SIM_VARS + WINDOW_SLACK {
                break;
            }
            if self.frontier.binary_search(&a).is_ok() && eng.is_gate(a)
                || self.frontier.binary_search(&b).is_ok() && eng.is_gate(b)
            {
                continue; // a root is still a free leaf
            }
            if leaves <= WINDOW_CHEAP_LEAVES {
                if self.agrees(eng, a, b, self.expanded.len()) {
                    return true;
                }
                wide_expanded = None;
            } else if leaves <= SIM_VARS {
                self.wide.clear();
                self.wide.extend_from_slice(&self.frontier);
                wide_expanded = Some(self.expanded.len());
            }
        }
        wide_expanded.is_some_and(|k| {
            std::mem::swap(&mut self.frontier, &mut self.wide);
            self.agrees(eng, a, b, k)
        })
    }

    /// Compiles the window with free leaves `frontier` and the first `k`
    /// gates of `expanded` (descending id order), and checks that `a`
    /// and `b` agree on every row.
    fn agrees(&mut self, eng: &SweepEngine, a: u32, b: u32, k: usize) -> bool {
        let (leaves, expanded) = (&self.frontier, &self.expanded[..k]);
        let program = &mut self.program;
        program.reset(leaves.len());
        self.gate_slot.clear();
        self.gate_slot.resize(k, 0);
        let slot_of = |program: &mut Program, gate_slot: &[u32], n: u32| -> u32 {
            if let Ok(i) = leaves.binary_search(&n) {
                return i as u32;
            }
            if let Some(i) = expanded.iter().position(|&e| e == n) {
                return gate_slot[i];
            }
            let NodeKind::Const(value) = eng.kind[n as usize] else {
                unreachable!("node {n} outside its window")
            };
            program.constant(value)
        };
        for (i, &g) in expanded.iter().enumerate().rev() {
            let NodeKind::Gate(f) = eng.kind[g as usize] else {
                unreachable!("only gates are expanded")
            };
            let start = program.args.len();
            for &c in eng.children(g) {
                let slot = slot_of(program, &self.gate_slot, eng.find(c));
                program.args.push(slot);
            }
            self.gate_slot[i] = program.gate(f, start);
        }
        program.left = slot_of(program, &self.gate_slot, a);
        program.right = slot_of(program, &self.gate_slot, b);
        program.simulate().is_none()
    }
}

/// Adds class representative `n` of `eng` to a sorted frontier;
/// constants are compiled in place and never become leaves.
fn add_leaf(eng: &SweepEngine, frontier: &mut Vec<u32>, n: u32) {
    if let NodeKind::Const(_) = eng.kind[n as usize] {
        return;
    }
    if let Err(at) = frontier.binary_search(&n) {
        frontier.insert(at, n);
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
        let report = eng.check(&clone, &Limits::default()).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.strash_proven, 1);
        assert_eq!(report.conflicts, 0, "no SAT needed for a clone");
    }

    #[test]
    fn odc_variant_proven_by_cut_points() {
        let golden = fig1(false);
        let marked = fig1(true);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let report = eng.check(&marked, &Limits::default()).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        // X vs X' differ (signatures split them), but F vs F' converge.
        assert_eq!(report.strash_proven, 0);
        assert!(report.cut_points_proven >= 1, "{report:?}");

        // Second check of the same variant: the merge persisted, so the
        // output pair is now structurally proven with zero conflicts.
        let again = eng.check(&marked, &Limits::default()).unwrap();
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
        match eng.check(&wrong, &Limits::default()).unwrap().outcome {
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
        let report = eng.check(&marked, &Limits::default()).unwrap();
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
        let report = eng.check(&cand, &Limits::default()).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.cut_points_simulated, 0, "{report:?}");
        assert!(report.conflicts > 0, "a real proof was required");
        // Once proven, the classes stay merged for the next check.
        let again = eng.check(&cand, &Limits::default()).unwrap();
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
        let report = eng.check(&cand, &Limits::default()).unwrap();
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
        let report = eng.check(&cand, &Limits::default()).unwrap();
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
        let starved = eng
            .check(
                &cand,
                &Limits {
                    conflicts: Some(0),
                    ..Limits::default()
                },
            )
            .unwrap();
        assert_eq!(starved.outcome, MiterOutcome::Undecided);
        // Progress persists: an unbounded retry completes the proof.
        let done = eng.check(&cand, &Limits::default()).unwrap();
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
            eng.check(&tiny, &Limits::default()),
            Err(EquivError::InputCountMismatch { .. })
        ));
    }

    #[test]
    fn canon_table_survives_repeated_growth() {
        let mut table = CanonTable::with_capacity(0);
        let initial = table.slots.len();
        let key = |i: u32| -> Vec<u32> { (0..1 + i % 5).map(|j| 7 * i + j).collect() };
        let kind = |i: u32| match i % 3 {
            0 => NodeKind::Gate(PrimitiveFn::And),
            1 => NodeKind::Gate(PrimitiveFn::Xor),
            _ => NodeKind::Input(i),
        };
        for i in 0..5_000u32 {
            let vacant = table.lookup(kind(i), &key(i)).expect_err("fresh key");
            table.insert(vacant, kind(i), &key(i), i);
        }
        assert!(
            table.slots.len() >= initial << 8,
            "grew {} slots",
            table.slots.len()
        );
        assert!(2 * table.len <= table.slots.len());
        for i in 0..5_000u32 {
            assert_eq!(table.lookup(kind(i), &key(i)).ok(), Some(i), "key {i}");
        }
        // Same children under another kind, and unseen keys, miss.
        assert!(table
            .lookup(NodeKind::Gate(PrimitiveFn::Or), &key(3))
            .is_err());
        assert!(table.lookup(kind(0), &[u32::MAX, 1, 2]).is_err());
    }

    #[test]
    fn empty_keys_tell_leaves_apart() {
        let mut table = CanonTable::with_capacity(4);
        let leaves = [
            NodeKind::Const(false),
            NodeKind::Const(true),
            NodeKind::Input(0),
            NodeKind::Input(1),
        ];
        for (id, &leaf) in leaves.iter().enumerate() {
            let vacant = table.lookup(leaf, &[]).expect_err("fresh leaf");
            table.insert(vacant, leaf, &[], id as u32);
        }
        for (id, &leaf) in leaves.iter().enumerate() {
            assert_eq!(table.lookup(leaf, &[]).ok(), Some(id as u32));
        }
        assert!(table.keys.is_empty(), "empty keys take no arena space");
        assert!(table.lookup(NodeKind::Input(2), &[]).is_err());
    }

    #[test]
    fn sig_rows_widen_in_place_across_chunks() {
        let mut sigs = SigRows::new(3);
        let rows: Vec<u32> = (0..2 * SIG_CHUNK_ROWS + 5).map(|_| sigs.alloc()).collect();
        for &r in &rows {
            sigs.row_mut(r).copy_from_slice(&[r as u64, !(r as u64), 7]);
        }
        sigs.release(rows[4]);
        assert_eq!(sigs.alloc(), rows[4], "a released row is reused first");
        sigs.widen();
        sigs.widen();
        assert_eq!(sigs.stride, 5);
        for &r in &rows {
            assert_eq!(sigs.row(r), &[r as u64, !(r as u64), 7, 0, 0], "row {r}");
        }
        assert_eq!(sigs.chunks.len(), 3);
    }

    #[test]
    fn union_rekeys_a_parent_under_its_mapped_children() {
        let golden = fig1(false);
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let i = eng.input_nodes.clone();
        // x = AND(A, B) and, created after it, x2 = NOR(!A, !B) = x.
        let x = eng.intern_gate(PrimitiveFn::And, &[i[0], i[1]]);
        let (na, nb) = (
            eng.intern_gate(PrimitiveFn::Inv, &[i[0]]),
            eng.intern_gate(PrimitiveFn::Inv, &[i[1]]),
        );
        let x2 = eng.intern_gate(PrimitiveFn::Nor, &[na, nb]);
        assert!(x < x2);
        // p's stored children are (x2, D); no node is AND(x, D) yet.
        let p = eng.intern_gate(PrimitiveFn::And, &[x2, i[3]]);
        assert_eq!(eng.children(p), &[x2.min(i[3]), x2.max(i[3])]);
        eng.union(x, x2);
        assert_eq!(eng.find(x2), x);
        let nodes = eng.num_nodes();
        // The merge re-keyed p under AND(x, D), in either child order.
        assert_eq!(eng.intern_gate(PrimitiveFn::And, &[x, i[3]]), p);
        assert_eq!(eng.intern_gate(PrimitiveFn::And, &[i[3], x]), p);
        assert_eq!(eng.num_nodes(), nodes, "found, not created");
        // p still answers to its stored key too.
        assert_eq!(eng.intern_gate(PrimitiveFn::And, &[x2, i[3]]), p);
    }

    #[test]
    fn restrashing_des_adds_no_nodes() {
        let des = odcfp_synth::benchmarks::generate("des", CellLibrary::standard()).unwrap();
        let mut eng = SweepEngine::new(&des, SweepOptions::default());
        assert_eq!(eng.num_nodes(), 3_486);
        let first = eng.net_classes(&des);
        assert_eq!(eng.net_classes(&des), first);
        assert_eq!(eng.num_nodes(), 3_486);
    }

    #[test]
    fn permuted_commutative_inputs_hit_the_same_nodes() {
        use odcfp_netlist::NetDriver;
        let build = |permute: bool| {
            let mut n = Netlist::new("perm", CellLibrary::standard());
            let x: Vec<NetId> = (0..4)
                .map(|i| n.add_primary_input(format!("x{i}")))
                .collect();
            let mut last = x[3];
            let shapes = [
                (PrimitiveFn::And, 3),
                (PrimitiveFn::Xor, 2),
                (PrimitiveFn::Or, 3),
                (PrimitiveFn::Xnor, 2),
                (PrimitiveFn::Nand, 3),
            ];
            for (k, (f, arity)) in shapes.into_iter().enumerate() {
                let cell = n.library().cell_for(f, arity).unwrap();
                let mut ins = vec![last, x[k % 4], x[(k + 2) % 4]];
                ins.truncate(arity);
                if permute {
                    ins.reverse();
                }
                let g = n.add_gate(format!("g{k}"), cell, &ins);
                last = n.gate_output(g);
            }
            n.set_primary_output(last);
            n
        };
        let (golden, permuted) = (build(false), build(true));
        let mut eng = SweepEngine::new(&golden, SweepOptions::default());
        let nodes = eng.num_nodes();
        let (a, b) = (eng.net_classes(&golden), eng.net_classes(&permuted));
        assert_eq!(a, b, "every net lands in the same class");
        assert_eq!(eng.num_nodes(), nodes, "no node created for the copy");
        assert!(golden
            .nets()
            .all(|(id, net)| matches!(net.driver(), NetDriver::None) || a[id.index()] != u32::MAX));
        let report = eng.check(&permuted, &Limits::default()).unwrap();
        assert_eq!(report.strash_proven, 1);
        assert_eq!(report.conflicts, 0);
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
        let report = eng.check(&cand, &Limits::default()).unwrap();
        assert_eq!(report.outcome, MiterOutcome::Equivalent);
        assert_eq!(report.strash_proven, 1, "canonicalization alone suffices");
        assert_eq!(report.conflicts, 0);
    }
}
