//! The CDCL solver.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::config::splitmix64;
use crate::heap::VarHeap;
use crate::{CnfBuilder, Lit, Var};

/// Learnt clauses with LBD at or below this are "core" tier: kept forever.
const CORE_LBD: u32 = 2;
/// Learnt clauses with LBD at or below this are "mid" tier: they get one
/// reprieve before a reduction may delete them.
const MID_LBD: u32 = 6;
/// First learnt-DB reduction fires once this many live learnt clauses
/// accumulate; the limit then grows by [`REDUCE_GROWTH`] per reduction.
const REDUCE_BASE: u64 = 2000;
/// Learnt-DB growth allowance added after every reduction.
const REDUCE_GROWTH: u64 = 300;
/// Conflicts between rephasings (the interval then grows geometrically).
const REPHASE_BASE: u64 = 1000;

/// The outcome of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveResult {
    /// The formula is satisfiable; a model is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget or deadline was exhausted before a decision was
    /// reached.
    Unknown,
}

/// Per-call limits of one [`Solver::solve_under`] search. The default is
/// unlimited. Nothing carries over to the next call: a call that passes
/// no limit runs to completion whatever the previous call was given.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// Conflicts this call may spend before it returns
    /// [`SolveResult::Unknown`].
    pub conflicts: Option<u64>,
    /// Wall-clock cutoff, checked every 64 conflicts, so a pathological
    /// propagation may overrun it slightly; combine with a conflict budget
    /// for hard caps.
    pub deadline: Option<Instant>,
    /// Cooperative interrupt (typically the cancel flag of a batch job):
    /// the search stops with [`SolveResult::Unknown`] once it reads
    /// `true`, polled with the deadline.
    pub interrupt: Option<Arc<AtomicBool>>,
}

impl Limits {
    /// Whether the deadline has passed or the interrupt was raised.
    pub(crate) fn stopped(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self
                .interrupt
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Acquire))
    }
}

/// A satisfying assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// The value of `v` in the model (variables never constrained default to
    /// `false`).
    pub fn value(&self, v: Var) -> bool {
        self.values.get(v.index()).copied().unwrap_or(false)
    }

    /// True iff the literal is satisfied by the model.
    pub fn satisfies(&self, l: Lit) -> bool {
        l.eval(self.value(l.var()))
    }
}

/// Search statistics exposed for benchmarking and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently stored (live, excluding any
    /// deleted by DB reduction).
    pub learnt_clauses: usize,
    /// Sum of literal-block-distances over all scored learnt clauses.
    pub lbd_sum: u64,
    /// Number of learnt clauses scored with an LBD.
    pub lbd_samples: u64,
    /// Number of learnt-DB reductions performed.
    pub db_reductions: u64,
    /// Number of learnt clauses deleted by DB reductions.
    pub learnt_deleted: u64,
    /// Number of rephasings performed.
    pub rephases: u64,
}

impl SolverStats {
    /// Mean literal-block-distance of scored learnt clauses, or 0 when
    /// none were scored.
    pub fn avg_lbd(&self) -> f64 {
        if self.lbd_samples == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.lbd_samples as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    /// Literal-block-distance at learn time; 0 for problem clauses.
    lbd: u32,
    /// Mid-tier reprieve: set the first time a reduction would have
    /// deleted this clause; a later reduction may then delete it.
    protected: bool,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    clause: u32,
    blocker: Lit,
}

const UNASSIGNED: i8 = -1;

/// A conflict-driven clause-learning SAT solver.
///
/// Implements the MiniSat architecture — two-literal watching, VSIDS
/// activities with an indexed heap, phase saving, first-UIP conflict
/// analysis and Luby-sequence restarts — plus a modern-CDCL feature set
/// (glucose-style LBD scoring, tiered learnt-DB reduction, best-phase
/// rephasing), always on. See the
/// [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    /// Per-variable assignment: `UNASSIGNED`, 0 (false) or 1 (true).
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    first_learnt: usize,
    /// Deleted (tombstoned) clauses at indices `>= first_learnt`.
    learnt_tombstones: usize,
    /// Live learnt-clause count that triggers the next DB reduction.
    reduce_limit: u64,
    /// Cumulative conflict count that triggers the next rephasing.
    next_rephase: u64,
    rephase_interval: u64,
    rephase_count: u64,
    /// Saved phases at the deepest trail seen (target phasing source).
    best_phase: Vec<bool>,
    best_trail: usize,
    stats: SolverStats,
}

impl Solver {
    /// Creates an empty solver with no variables.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::with_vars(0),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            first_learnt: 0,
            learnt_tombstones: 0,
            reduce_limit: REDUCE_BASE,
            next_rephase: REPHASE_BASE,
            rephase_interval: REPHASE_BASE,
            rephase_count: 0,
            best_phase: Vec::new(),
            best_trail: 0,
            stats: SolverStats::default(),
        }
    }

    /// Builds a solver loaded with the formula in `cnf`.
    pub fn from_cnf(cnf: &CnfBuilder) -> Self {
        let mut s = Solver::new();
        s.reserve_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            s.add_clause(clause.iter().copied());
        }
        s.first_learnt = s.clauses.len();
        s
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self
            .clauses
            .len()
            .saturating_sub(self.first_learnt)
            .saturating_sub(self.learnt_tombstones);
        s
    }

    /// The number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The number of problem (non-learnt) clauses loaded.
    pub fn num_problem_clauses(&self) -> usize {
        self.first_learnt
    }

    /// Marks every clause added so far as a problem clause, so stats
    /// report only clauses learnt *after* this point. Only
    /// [`crate::SharedMiter`] calls it, after encoding a new variant;
    /// [`crate::SweepEngine`] does not, so the Tseitin clauses it encodes
    /// after its first solve count as learnt.
    pub fn rebase_problem_clauses(&mut self) {
        self.first_learnt = self.clauses.len();
        // Everything before the new base — including any tombstones — is
        // now problem territory the reducer never revisits.
        self.learnt_tombstones = 0;
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let n = self.num_vars();
        self.reserve_vars(n + 1);
        Var::from_index(n)
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.assign.len() < n {
            let v = Var::from_index(self.assign.len());
            self.assign.push(UNASSIGNED);
            self.level.push(0);
            self.reason.push(None);
            self.activity.push(0.0);
            self.phase.push(false);
            self.best_phase.push(false);
            self.seen.push(false);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.order.grow(n);
            self.order.insert(v, &self.activity);
        }
    }

    /// Adds a clause; an empty clause makes the instance trivially UNSAT.
    ///
    /// Clauses may be added while the solver is at decision level zero —
    /// i.e. before the first solve or between [`Solver::solve_under`]
    /// calls — making the solver incrementally usable for families of
    /// related queries.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search or on unallocated variables.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added before solving"
        );
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        clause.sort_unstable();
        clause.dedup();
        if clause.windows(2).any(|w| w[0] == !w[1]) {
            return; // tautology
        }
        for l in &clause {
            assert!(
                l.var().index() < self.assign.len(),
                "literal {l} references an unallocated variable"
            );
        }
        // Simplify against the permanent level-0 assignment. This is load-
        // bearing for incremental use: a literal that was falsified (and
        // propagated) before this clause arrived will never be visited
        // again by the watch scheme, so watching it would leave the clause
        // dormant and let later models violate it.
        if clause.iter().any(|&l| self.value(l) == Some(true)) {
            return; // already satisfied forever
        }
        clause.retain(|&l| self.value(l).is_none());
        match clause.len() {
            0 => self.ok = false,
            1 => {
                // Unit at level 0.
                match self.value(clause[0]) {
                    Some(false) => self.ok = false,
                    Some(true) => {}
                    None => self.enqueue(clause[0], None),
                }
            }
            _ => {
                let ci = self.clauses.len() as u32;
                self.watch(clause[0], ci, clause[1]);
                self.watch(clause[1], ci, clause[0]);
                self.clauses.push(Clause {
                    lits: clause,
                    lbd: 0,
                    protected: false,
                });
            }
        }
    }

    fn watch(&mut self, l: Lit, clause: u32, blocker: Lit) {
        self.watches[l.code()].push(Watch { clause, blocker });
    }

    fn value(&self, l: Lit) -> Option<bool> {
        match self.assign[l.var().index()] {
            UNASSIGNED => None,
            v => Some(l.eval(v == 1)),
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert_eq!(self.value(l), None);
        let v = l.var().index();
        self.assign[v] = i8::from(!l.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Propagates all enqueued assignments; returns a conflicting clause
    /// index if one arises.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Visit clauses watching the literal that just became false.
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut keep = 0usize;
            let mut conflict = None;
            let mut i = 0usize;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == Some(true) {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let ci = w.clause as usize;
                // Normalize: the false literal goes to position 1.
                {
                    let lits = &mut self.clauses[ci].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                let first = self.clauses[ci].lits[0];
                if first != w.blocker && self.value(first) == Some(true) {
                    ws[keep] = Watch {
                        clause: w.clause,
                        blocker: first,
                    };
                    keep += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.value(cand) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watch(cand, w.clause, first);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // Clause is unit or conflicting.
                ws[keep] = w;
                keep += 1;
                if self.value(first) == Some(false) {
                    // Conflict: retain remaining watches and bail out.
                    while i < ws.len() {
                        ws[keep] = ws[i];
                        keep += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(w.clause);
                } else {
                    self.enqueue(first, Some(w.clause));
                }
            }
            ws.truncate(keep);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
    }

    /// First-UIP conflict analysis; returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 = asserting literal
        let mut path = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;
        loop {
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[confl as usize].lits[start..].to_vec();
            for q in lits {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next marked literal on the trail.
            let pl = loop {
                index -= 1;
                let cand = self.trail[index];
                if self.seen[cand.var().index()] {
                    break cand;
                }
            };
            self.seen[pl.var().index()] = false;
            path -= 1;
            p = Some(pl);
            if path == 0 {
                break;
            }
            confl = self.reason[pl.var().index()].expect("non-decision must have a reason");
        }
        learnt[0] = !p.expect("analysis visits at least one literal");
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backtrack level: highest level among the non-asserting literals.
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Move the max-level literal to slot 1 (it becomes the second watch).
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, bt)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var();
                self.phase[v.index()] = !l.is_neg();
                self.assign[v.index()] = UNASSIGNED;
                self.reason[v.index()] = None;
                self.order.insert(v, &self.activity);
            }
        }
        // Clamp, don't jump: when nothing was popped (e.g. the defensive
        // backtrack at the start of a solve), pending level-0 enqueues must
        // still be propagated.
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn record_learnt(&mut self, learnt: Vec<Lit>, lbd: u32) {
        if learnt.len() == 1 {
            self.enqueue(learnt[0], None);
            return;
        }
        let ci = self.clauses.len() as u32;
        self.watch(learnt[0], ci, learnt[1]);
        self.watch(learnt[1], ci, learnt[0]);
        let asserting = learnt[0];
        self.clauses.push(Clause {
            lits: learnt,
            lbd,
            protected: false,
        });
        self.enqueue(asserting, Some(ci));
    }

    /// Literal-block-distance of `lits`: the number of distinct decision
    /// levels its literals span. Computed at learn time, before
    /// backtracking.
    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// `true` when the clause is the reason of a currently assigned
    /// literal — deleting it would leave a dangling reason.
    fn is_locked(&self, ci: u32) -> bool {
        let lits = &self.clauses[ci as usize].lits;
        if lits.is_empty() {
            return false;
        }
        self.value(lits[0]) == Some(true) && self.reason[lits[0].var().index()] == Some(ci)
    }

    /// Deletes the worst half of the deletable learnt clauses (tiered
    /// retention). Must run at decision level 0 so no reason above the
    /// permanent trail can reference a deleted clause; locked clauses are
    /// skipped regardless.
    ///
    /// Tiers: LBD <= [`CORE_LBD`] is kept forever; LBD <= [`MID_LBD`]
    /// gets one reprieve (marked `protected` instead of deleted, fair
    /// game next time); everything else is deletable immediately, worst
    /// (highest-LBD, then oldest) first. Deletion tombstones the clause
    /// (clears its literals) and filters the watch lists — indices are
    /// never reused, so reasons and watches elsewhere stay valid.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut cands: Vec<(u32, u32)> = Vec::new();
        for ci in self.first_learnt..self.clauses.len() {
            let c = &self.clauses[ci];
            if c.lits.is_empty() || c.lbd <= CORE_LBD || self.is_locked(ci as u32) {
                continue;
            }
            cands.push((c.lbd, ci as u32));
        }
        // Worst first: highest LBD, oldest within a tie.
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let target = cands.len() / 2;
        let mut deleted = 0usize;
        for &(lbd, ci) in &cands {
            if deleted >= target {
                break;
            }
            let c = &mut self.clauses[ci as usize];
            if lbd <= MID_LBD && !c.protected {
                c.protected = true;
                continue;
            }
            c.lits = Vec::new();
            deleted += 1;
        }
        if deleted > 0 {
            self.learnt_tombstones += deleted;
            let clauses = &self.clauses;
            for ws in &mut self.watches {
                ws.retain(|w| !clauses[w.clause as usize].lits.is_empty());
            }
        }
        self.stats.db_reductions += 1;
        self.stats.learnt_deleted += deleted as u64;
    }

    /// Re-seeds saved phases, cycling through four modes: the best-trail
    /// snapshot (target phasing), no change (let the search drift), the
    /// inverted snapshot, and a fixed pseudo-random assignment.
    fn rephase(&mut self) {
        self.stats.rephases += 1;
        let mode = self.rephase_count % 4;
        self.rephase_count += 1;
        match mode {
            0 => self.phase.copy_from_slice(&self.best_phase),
            1 => {}
            2 => {
                for (p, &b) in self.phase.iter_mut().zip(&self.best_phase) {
                    *p = !b;
                }
            }
            _ => {
                let round = self.rephase_count;
                for (i, p) in self.phase.iter_mut().enumerate() {
                    *p = splitmix64((round << 32) ^ i as u64) & 1 == 1;
                }
            }
        }
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == UNASSIGNED {
                return Some(v);
            }
        }
        None
    }

    /// Runs the CDCL search to completion.
    ///
    /// Equivalent to [`Solver::solve_under`] with no assumptions and no
    /// limits. Note that once this returns `Unsat` the formula itself is
    /// contradictory and every later call also returns `Unsat`.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_under(&[], &Limits::default())
    }

    /// Runs the CDCL search under `assumptions`: literals forced true for
    /// this call only.
    ///
    /// The solver is reusable across calls — clauses learnt in one call
    /// are implied by the clause database alone and stay valid for
    /// different assumption sets, which makes repeated reachability
    /// queries (e.g. the SDC scan) incremental. `Unsat` here means
    /// *unsatisfiable together with the assumptions*; the solver stays
    /// usable afterwards unless the formula itself was refuted.
    ///
    /// `limits` bound this call only; exhausting them returns
    /// [`SolveResult::Unknown`] with the learnt clauses kept, so a later
    /// call continues the search.
    ///
    /// # Panics
    ///
    /// Panics if an assumption references an unallocated variable.
    pub fn solve_under(&mut self, assumptions: &[Lit], limits: &Limits) -> SolveResult {
        if !odcfp_obs::enabled() {
            return self.solve_under_inner(assumptions, limits);
        }
        let mut span = odcfp_obs::span("sat.solve");
        let before = self.stats.conflicts;
        let result = self.solve_under_inner(assumptions, limits);
        let delta = self.stats.conflicts - before;
        span.field("conflicts", delta);
        span.field(
            "result",
            match result {
                SolveResult::Sat(_) => "sat",
                SolveResult::Unsat => "unsat",
                SolveResult::Unknown => "unknown",
            },
        );
        odcfp_obs::count("sat.conflicts", delta);
        result
    }

    fn solve_under_inner(&mut self, assumptions: &[Lit], limits: &Limits) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        for a in assumptions {
            assert!(
                a.var().index() < self.assign.len(),
                "assumption {a} references an unallocated variable"
            );
        }
        self.backtrack_to(0);
        // The deepest-trail snapshot is assumption-relative; start fresh
        // each call (the snapshot itself carries over as a warm start).
        self.best_trail = 0;
        let start_conflicts = self.stats.conflicts;
        let mut luby_index = 0u32;
        let mut conflicts_until_restart = 100 * luby(luby_index);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // Target-phase snapshot: remember the polarities of the
                // deepest trail reached — the closest the search came to a
                // full assignment — as the rephasing anchor.
                if self.trail.len() > self.best_trail {
                    self.best_trail = self.trail.len();
                    for (i, &a) in self.assign.iter().enumerate() {
                        if a != UNASSIGNED {
                            self.best_phase[i] = a == 1;
                        }
                    }
                }
                let (learnt, bt) = self.analyze(confl);
                let lbd = self.compute_lbd(&learnt);
                self.stats.lbd_sum += u64::from(lbd);
                self.stats.lbd_samples += 1;
                self.backtrack_to(bt);
                self.record_learnt(learnt, lbd);
                self.decay_activities();
                if let Some(budget) = limits.conflicts {
                    if self.stats.conflicts - start_conflicts >= budget {
                        self.backtrack_to(0);
                        return SolveResult::Unknown;
                    }
                }
                // Amortize clock reads and interrupt polls over a batch
                // of conflicts.
                if (self.stats.conflicts - start_conflicts).is_multiple_of(64) && limits.stopped() {
                    self.backtrack_to(0);
                    return SolveResult::Unknown;
                }
                if conflicts_until_restart > 0 {
                    conflicts_until_restart -= 1;
                } else {
                    self.stats.restarts += 1;
                    luby_index += 1;
                    conflicts_until_restart = 100 * luby(luby_index);
                    self.backtrack_to(0);
                    // Restart points are the safe moments for database
                    // maintenance: the trail holds only the permanent
                    // level-0 prefix.
                    let live =
                        self.clauses
                            .len()
                            .saturating_sub(self.first_learnt)
                            .saturating_sub(self.learnt_tombstones) as u64;
                    if live >= self.reduce_limit {
                        self.reduce_db();
                        self.reduce_limit += REDUCE_GROWTH;
                    }
                    if self.stats.conflicts >= self.next_rephase {
                        self.rephase();
                        self.rephase_interval += self.rephase_interval / 2;
                        self.next_rephase = self.stats.conflicts + self.rephase_interval;
                    }
                }
            } else if (self.decision_level() as usize) < assumptions.len() {
                // Seat the next assumption as a decision.
                let a = assumptions[self.decision_level() as usize];
                match self.value(a) {
                    Some(true) => {
                        // Already implied: open an empty level so indexing
                        // into `assumptions` by decision level stays aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    Some(false) => {
                        // The database (plus earlier assumptions) refutes
                        // this assumption.
                        self.backtrack_to(0);
                        return SolveResult::Unsat;
                    }
                    None => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, None);
                    }
                }
            } else {
                match self.pick_branch() {
                    None => {
                        let values = self.assign.iter().map(|&a| a == 1).collect();
                        self.backtrack_to(0);
                        return SolveResult::Sat(Model { values });
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v.index()];
                        self.enqueue(Lit::with_polarity(v, phase), None);
                    }
                }
            }
        }
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(i: u32) -> u64 {
    // Find the finite subsequence containing index i and its position.
    let mut k = 1u32;
    loop {
        if i + 1 == (1 << k) - 1 {
            return 1u64 << (k - 1);
        }
        if i + 1 < (1 << k) - 1 {
            return luby(i + 1 - (1 << (k - 1)));
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(i: i64) -> Lit {
        let v = Var::from_index((i.unsigned_abs() - 1) as usize);
        if i < 0 {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    }

    fn solver_with(num_vars: usize, clauses: &[&[i64]]) -> Solver {
        let mut s = Solver::new();
        s.reserve_vars(num_vars);
        for c in clauses {
            s.add_clause(c.iter().map(|&i| lit(i)));
        }
        s
    }

    #[test]
    fn luby_sequence() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = solver_with(1, &[&[1]]);
        assert!(matches!(s.solve(), SolveResult::Sat(_)));
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = solver_with(3, &[]);
        assert!(matches!(s.solve(), SolveResult::Sat(_)));
    }

    #[test]
    fn unit_chain_propagation() {
        // 1, 1->2, 2->3, 3->4 forces all true.
        let mut s = solver_with(4, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        match s.solve() {
            SolveResult::Sat(m) => {
                for i in 0..4 {
                    assert!(m.value(Var::from_index(i)), "x{i}");
                }
            }
            other => panic!("expected SAT: {other:?}"),
        }
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let clauses: &[&[i64]] = &[&[1, 2, -3], &[-1, 3], &[-2, -3], &[2, 3], &[-1, -2, 3]];
        let mut s = solver_with(3, clauses);
        match s.solve() {
            SolveResult::Sat(m) => {
                for c in clauses {
                    assert!(
                        c.iter().any(|&i| m.satisfies(lit(i))),
                        "clause {c:?} unsatisfied"
                    );
                }
            }
            other => panic!("expected SAT: {other:?}"),
        }
    }

    /// Pigeonhole formula PHP(p, h), built exactly as `bench_sat`'s hard
    /// set builds it (same variables, same clause order): UNSAT for p > h.
    fn pigeonhole(pigeons: usize, holes: usize) -> CnfBuilder {
        let mut cnf = CnfBuilder::new();
        let vars: Vec<Vec<Var>> = (0..pigeons).map(|_| cnf.new_vars(holes)).collect();
        for row in &vars {
            cnf.add_clause(row.iter().map(|&v| Lit::pos(v)).collect::<Vec<_>>());
        }
        for (a, row_a) in vars.iter().enumerate() {
            for row_b in &vars[a + 1..] {
                for (&va, &vb) in row_a.iter().zip(row_b) {
                    cnf.add_clause([Lit::neg(va), Lit::neg(vb)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        let mut s = Solver::from_cnf(&pigeonhole(3, 2));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let mut s = Solver::from_cnf(&pigeonhole(5, 4));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn search_mechanisms_fire_unforced_on_php_8_7() {
        // The first instance of `bench_sat`'s hard set, with no trigger
        // forced: restarts, learnt-DB reduction and rephasing all run on
        // real search traffic.
        let mut s = Solver::from_cnf(&pigeonhole(8, 7));
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.restarts > 0, "{st:?}");
        assert!(st.db_reductions > 0, "{st:?}");
        assert!(st.rephases > 0, "{st:?}");
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        use odcfp_logic::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(2024);
        for round in 0..60 {
            let num_vars = 3 + rng.next_below(8); // 3..=10
            let num_clauses = 2 + rng.next_below(5 * num_vars);
            let mut cnf = CnfBuilder::new();
            let vars = cnf.new_vars(num_vars);
            let mut raw: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + rng.next_below(3);
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = vars[rng.next_below(num_vars)];
                    c.push(Lit::with_polarity(v, rng.next_bool()));
                }
                raw.push(c.clone());
                cnf.add_clause(c);
            }
            let brute_sat = (0..(1usize << num_vars)).any(|m| {
                let assignment: Vec<bool> = (0..num_vars).map(|v| (m >> v) & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            let mut s = Solver::from_cnf(&cnf);
            match s.solve() {
                SolveResult::Sat(model) => {
                    assert!(brute_sat, "round {round}: solver SAT, brute UNSAT");
                    for c in &raw {
                        assert!(
                            c.iter().any(|&l| model.satisfies(l)),
                            "round {round}: model violates {c:?}"
                        );
                    }
                }
                SolveResult::Unsat => {
                    assert!(!brute_sat, "round {round}: solver UNSAT, brute SAT");
                }
                SolveResult::Unknown => panic!("no budget set"),
            }
        }
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A pigeonhole instance large enough to need > 1 conflict.
        let mut s = Solver::from_cnf(&pigeonhole(6, 5));
        let one = Limits {
            conflicts: Some(1),
            ..Limits::default()
        };
        assert_eq!(s.solve_under(&[], &one), SolveResult::Unknown);
    }

    #[test]
    fn decisions_counted_and_model_defaults() {
        let mut s = solver_with(4, &[&[1, 2], &[3, 4]]);
        match s.solve() {
            SolveResult::Sat(m) => {
                // Unconstrained extra variable defaults to false.
                assert!(!m.value(Var::from_index(100)));
            }
            other => panic!("{other:?}"),
        }
        assert!(s.stats().decisions > 0);
    }

    #[test]
    fn assumptions_restrict_without_poisoning() {
        // x1 free; assume !x1 then x1: both SAT; assume both -> caught.
        let mut s = solver_with(2, &[&[1, 2]]);
        assert!(matches!(
            s.solve_under(&[lit(-1)], &Limits::default()),
            SolveResult::Sat(_)
        ));
        assert!(matches!(
            s.solve_under(&[lit(1)], &Limits::default()),
            SolveResult::Sat(_)
        ));
        assert_eq!(
            s.solve_under(&[lit(1), lit(-1)], &Limits::default()),
            SolveResult::Unsat
        );
        // The solver is still usable and the formula still satisfiable.
        assert!(matches!(s.solve(), SolveResult::Sat(_)));
    }

    #[test]
    fn unsat_under_assumptions_is_not_global_unsat() {
        // Formula forces x1; assuming !x1 is Unsat but only under the
        // assumption.
        let mut s = solver_with(2, &[&[1], &[-1, 2]]);
        assert_eq!(
            s.solve_under(&[lit(-1)], &Limits::default()),
            SolveResult::Unsat
        );
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.value(Var::from_index(0)));
                assert!(m.value(Var::from_index(1)));
            }
            other => panic!("{other:?}"),
        }
        // Assumptions consistent with the formula succeed.
        assert!(matches!(
            s.solve_under(&[lit(2)], &Limits::default()),
            SolveResult::Sat(_)
        ));
    }

    #[test]
    fn repeated_assumption_queries_match_brute_force() {
        use odcfp_logic::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(777);
        for round in 0..25 {
            let num_vars = 4 + rng.next_below(5);
            let num_clauses = 3 + rng.next_below(4 * num_vars);
            let mut cnf = CnfBuilder::new();
            let vars = cnf.new_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + rng.next_below(3);
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(Lit::with_polarity(
                        vars[rng.next_below(num_vars)],
                        rng.next_bool(),
                    ));
                }
                cnf.add_clause(c);
            }
            // One solver instance, many assumption queries.
            let mut solver = Solver::from_cnf(&cnf);
            for q in 0..8 {
                let k = rng.next_below(3);
                let mut assumptions = Vec::new();
                let mut used = Vec::new();
                for _ in 0..k {
                    let v = rng.next_below(num_vars);
                    if used.contains(&v) {
                        continue;
                    }
                    used.push(v);
                    assumptions.push(Lit::with_polarity(vars[v], rng.next_bool()));
                }
                let brute = (0..(1usize << num_vars)).any(|m| {
                    let assignment: Vec<bool> = (0..num_vars).map(|v| (m >> v) & 1 == 1).collect();
                    cnf.eval(&assignment)
                        && assumptions
                            .iter()
                            .all(|l| l.eval(assignment[l.var().index()]))
                });
                match solver.solve_under(&assumptions, &Limits::default()) {
                    SolveResult::Sat(model) => {
                        assert!(brute, "round {round} query {q}: solver SAT, brute UNSAT");
                        for a in &assumptions {
                            assert!(model.satisfies(*a), "assumption {a} violated");
                        }
                        let assignment: Vec<bool> =
                            (0..num_vars).map(|v| model.value(vars[v])).collect();
                        assert!(cnf.eval(&assignment), "model violates formula");
                    }
                    SolveResult::Unsat => {
                        assert!(!brute, "round {round} query {q}: solver UNSAT, brute SAT");
                    }
                    SolveResult::Unknown => panic!("no budget set"),
                }
            }
        }
    }

    #[test]
    fn clauses_added_after_solving_are_simplified_against_level_zero() {
        // Regression: a clause added between solves whose watched literal
        // was already falsified (and propagated) at level 0 must not go
        // dormant — the remaining literal has to propagate. Here x1 is
        // forced false by a unit; the late clause (x1 | x2) must force x2.
        let mut s = solver_with(3, &[&[-1]]);
        assert!(matches!(s.solve(), SolveResult::Sat(_)));
        s.add_clause([lit(1), lit(2)]);
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(!m.value(Var::from_index(0)));
                assert!(m.value(Var::from_index(1)), "late clause went dormant");
            }
            other => panic!("{other:?}"),
        }
        // And a late clause contradicting level 0 refutes the instance.
        s.add_clause([lit(1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn stats_populated() {
        let mut s = solver_with(3, &[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2, 3]]);
        let _ = s.solve();
        let st = s.stats();
        assert!(st.propagations > 0);
    }

    /// Hand-built xor-chain miter CNF: two parity chains over the same
    /// inputs (one reversed), outputs constrained to differ — UNSAT, and
    /// proving it takes real search.
    fn xor_miter_cnf(width: usize) -> CnfBuilder {
        fn chain(cnf: &mut CnfBuilder, order: &[Var]) -> Var {
            let mut acc = order[0];
            for &x in &order[1..] {
                let t = cnf.new_var();
                cnf.add_clause([Lit::neg(t), Lit::pos(acc), Lit::pos(x)]);
                cnf.add_clause([Lit::neg(t), Lit::neg(acc), Lit::neg(x)]);
                cnf.add_clause([Lit::pos(t), Lit::pos(acc), Lit::neg(x)]);
                cnf.add_clause([Lit::pos(t), Lit::neg(acc), Lit::pos(x)]);
                acc = t;
            }
            acc
        }
        let mut cnf = CnfBuilder::new();
        let xs = cnf.new_vars(width);
        let a = chain(&mut cnf, &xs);
        let rev: Vec<Var> = xs.iter().rev().copied().collect();
        let b = chain(&mut cnf, &rev);
        cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause([Lit::neg(a), Lit::neg(b)]);
        cnf
    }

    #[test]
    fn every_profile_matches_brute_force_on_random_3sat() {
        use odcfp_logic::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from_u64(4242);
        for round in 0..20 {
            let num_vars = 3 + rng.next_below(8);
            let num_clauses = 2 + rng.next_below(5 * num_vars);
            let mut cnf = CnfBuilder::new();
            let vars = cnf.new_vars(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + rng.next_below(3);
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(Lit::with_polarity(
                        vars[rng.next_below(num_vars)],
                        rng.next_bool(),
                    ));
                }
                cnf.add_clause(c);
            }
            let brute_sat = (0..(1usize << num_vars)).any(|m| {
                let assignment: Vec<bool> = (0..num_vars).map(|v| (m >> v) & 1 == 1).collect();
                cnf.eval(&assignment)
            });
            let mut s = Solver::from_cnf(&cnf);
            match s.solve() {
                SolveResult::Sat(model) => {
                    assert!(brute_sat, "round {round}: SAT vs brute UNSAT");
                    let assignment: Vec<bool> =
                        (0..num_vars).map(|v| model.value(vars[v])).collect();
                    assert!(cnf.eval(&assignment), "model violates formula");
                }
                SolveResult::Unsat => assert!(!brute_sat, "round {round}: UNSAT vs brute SAT"),
                SolveResult::Unknown => panic!("no budget set"),
            }
        }
    }

    #[test]
    fn db_reduction_fires_and_search_stays_sound() {
        let mut s = Solver::from_cnf(&xor_miter_cnf(40));
        s.reduce_limit = 1; // force a reduction at every restart
                            // Starve it first so the reduced database must survive a resume.
        let starved = Limits {
            conflicts: Some(200),
            ..Limits::default()
        };
        assert_eq!(s.solve_under(&[], &starved), SolveResult::Unknown);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        assert!(st.db_reductions > 0, "reduction never fired: {st:?}");
        assert!(st.learnt_deleted > 0, "nothing deleted: {st:?}");
        assert!(st.lbd_samples > 0 && st.avg_lbd() > 0.0);
    }

    #[test]
    fn limits_bind_one_call_only() {
        let mut s = Solver::from_cnf(&xor_miter_cnf(40));
        let budget = Limits {
            conflicts: Some(10),
            ..Limits::default()
        };
        assert_eq!(s.solve_under(&[], &budget), SolveResult::Unknown);
        assert_eq!(s.stats().conflicts, 10);
        // A raised interrupt stops its own call at the first poll...
        let interrupt = Limits {
            interrupt: Some(Arc::new(AtomicBool::new(true))),
            ..Limits::default()
        };
        assert_eq!(s.solve_under(&[], &interrupt), SolveResult::Unknown);
        assert_eq!(s.stats().conflicts, 10 + 64);
        // ...and neither it nor the budget reaches the next call.
        assert_eq!(s.solve_under(&[], &Limits::default()), SolveResult::Unsat);
    }

    #[test]
    fn rephasing_fires_and_search_stays_sound() {
        let mut s = Solver::from_cnf(&xor_miter_cnf(12));
        s.next_rephase = 1;
        s.rephase_interval = 1;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().rephases > 0, "rephasing never fired");
    }

    #[test]
    fn wide_xor_miters_are_unsat() {
        for width in [12usize, 40, 120] {
            let mut s = Solver::from_cnf(&xor_miter_cnf(width));
            assert_eq!(s.solve(), SolveResult::Unsat, "width {width}");
        }
    }

    #[test]
    fn search_is_deterministic() {
        // Two fresh solves of one formula take the same search: same
        // conflicts, decisions, propagations, restarts and learnt
        // database on a nontrivial proof.
        let cnf = xor_miter_cnf(11);
        let mut a = Solver::from_cnf(&cnf);
        let mut b = Solver::from_cnf(&cnf);
        assert_eq!(a.solve(), SolveResult::Unsat);
        assert_eq!(b.solve(), SolveResult::Unsat);
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().lbd_samples > 0, "{:?}", a.stats());
    }
}
