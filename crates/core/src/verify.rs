//! Budgeted, degrading equivalence verification — defense in depth for
//! every netlist the pipeline emits.
//!
//! Fingerprinting's safety claim ("the modification never changes the
//! function") is only as strong as the checker that enforces it, and a
//! checker that falls over on large designs gets disabled in practice.
//! This module provides a *degradation ladder* instead of a single
//! all-or-nothing SAT call:
//!
//! 1. **Random-simulation smoke test** — 64-way bit-parallel patterns;
//!    catches gross corruption in microseconds and yields a concrete
//!    counterexample when it fires.
//! 2. **Exhaustive simulation** — when the design has few enough primary
//!    inputs, all `2^n` assignments are simulated, which *is* a proof.
//! 3. **SAT** — through the structural-hashing sweep engine
//!    ([`SweepEngine`]): both netlists hash-cons into one shared node
//!    store, outputs with structurally identical cones are proven without
//!    any SAT call, and only the changed region plus its fanout is ever
//!    encoded, with signature-matched interior cut points validated
//!    innermost-first. [`VerifyPolicy::sat`] says whether the rung runs
//!    and under what conflict cap; the time limit bounds it too.
//!
//! Every rung reports honestly: the pipeline never claims more certainty
//! than it earned. The possible outcomes form the [`Verdict`] enum —
//! `Proven`, `ProbablyEquivalent`, `Refuted` (with witness), or
//! `Undecided` (with spent-budget accounting). The report-returning
//! entry points ([`verify_equivalent_report`]) pair the verdict with
//! [`VerifyStats`] accounting (patterns simulated, outputs proven
//! structurally, SAT effort).
//!
//! For campaigns checking many copies of one base design,
//! [`VerifySession`] runs the same ladder but keeps its sweep engine
//! alive across checks, so each buyer pays only the marginal cost of its
//! own delta.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use odcfp_analysis::cancel::CancelToken;
use odcfp_analysis::engine;
use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::sim;
use odcfp_netlist::Netlist;
use odcfp_sat::{
    EquivError, Limits, MiterOutcome, SelectableInput, SolverStats, SweepEngine, SweepOptions,
};

use crate::codebook::CodeSpace;
use crate::FingerprintError;

/// Seed of the smoke test's random patterns, fixed so failures reproduce.
const SIM_SEED: u64 = 0xF1A9;

/// Resource policy for the staged verification ladder.
///
/// The defaults ([`VerifyPolicy::strict`]) always reach a definitive
/// verdict; [`VerifyPolicy::quick`] stops after simulation;
/// [`VerifyPolicy::budgeted`] bounds the SAT effort so verification can
/// be embedded in latency-sensitive flows without being switched off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyPolicy {
    /// 64-bit pattern words for the random-simulation smoke test
    /// (`sim_words * 64` vectors). `0` skips the stage.
    pub sim_words: usize,
    /// Run exhaustive simulation when the primary-input count is at most
    /// this (clamped to 16 internally; `0` disables the stage).
    pub exhaustive_max_inputs: usize,
    /// Whether the SAT rung runs, and under what conflict cap.
    pub sat: SatBudget,
    /// Wall-clock limit for the whole verification run.
    pub time_limit: Option<Duration>,
}

/// The SAT rung's share of a [`VerifyPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatBudget {
    /// No SAT rung: the ladder tops out at [`Verdict::ProbablyEquivalent`].
    Off,
    /// The SAT rung, stopped at this many conflicts with
    /// [`Verdict::Undecided`].
    Conflicts(u64),
    /// The SAT rung, bounded only by the time limit.
    Unbounded,
}

impl SatBudget {
    /// The conflict cap, when there is one.
    pub fn cap(self) -> Option<u64> {
        match self {
            SatBudget::Conflicts(cap) => Some(cap),
            SatBudget::Off | SatBudget::Unbounded => None,
        }
    }
}

impl VerifyPolicy {
    /// Full-strength verification: simulation smoke test, exhaustive
    /// proof for small designs, then unbounded SAT. Always returns
    /// [`Verdict::Proven`] or [`Verdict::Refuted`].
    pub fn strict() -> Self {
        VerifyPolicy {
            sim_words: 16,
            exhaustive_max_inputs: 12,
            sat: SatBudget::Unbounded,
            time_limit: None,
        }
    }

    /// Simulation-only verification: the smoke test plus the exhaustive
    /// stage, no SAT. Cheap enough to run on every mint; large designs
    /// top out at [`Verdict::ProbablyEquivalent`].
    pub fn quick() -> Self {
        VerifyPolicy {
            sat: SatBudget::Off,
            ..VerifyPolicy::strict()
        }
    }

    /// Bounded verification: the SAT rung stops after `total_conflicts`
    /// conflicts. Exceeding the cap yields [`Verdict::Undecided`] rather
    /// than blocking.
    pub fn budgeted(total_conflicts: u64) -> Self {
        VerifyPolicy {
            sat: SatBudget::Conflicts(total_conflicts),
            ..VerifyPolicy::strict()
        }
    }

    /// Adds a wall-clock limit to the policy.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }
}

impl Default for VerifyPolicy {
    fn default() -> Self {
        VerifyPolicy::strict()
    }
}

/// The outcome of a [`verify_equivalent`] run — exactly as much certainty
/// as the policy's budget bought, never more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Equivalence was proven (UNSAT miter, or exhaustive simulation of
    /// every input assignment).
    Proven,
    /// Every simulated pattern agreed, but no proof was attempted or
    /// completed; `patterns` counts the vectors that were checked.
    ProbablyEquivalent {
        /// Number of input vectors simulated without a mismatch.
        patterns: u64,
    },
    /// The designs differ; `counterexample` is a primary-input
    /// assignment (in input order) on which the outputs disagree.
    Refuted {
        /// Witness input assignment, one bool per primary input.
        counterexample: Vec<bool>,
    },
    /// The budget or deadline ran out before a decision.
    Undecided {
        /// SAT conflicts spent.
        conflicts_spent: u64,
        /// Wall-clock time the verification run took.
        elapsed: Duration,
    },
}

impl Verdict {
    /// `true` for verdicts that justify shipping the candidate
    /// ([`Verdict::Proven`] or [`Verdict::ProbablyEquivalent`]).
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Proven | Verdict::ProbablyEquivalent { .. })
    }

    /// Stable snake_case identifier of the verdict variant, used in trace
    /// events, campaign journals, and bench output.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Proven => "proven",
            Verdict::ProbablyEquivalent { .. } => "probably_equivalent",
            Verdict::Refuted { .. } => "refuted",
            Verdict::Undecided { .. } => "undecided",
        }
    }

    /// The verdict a SAT engine's outcome earns; `conflicts_spent` and the
    /// time since `start` account for an undecided one.
    fn from_outcome(outcome: MiterOutcome, conflicts_spent: u64, start: Instant) -> Verdict {
        match outcome {
            MiterOutcome::Equivalent => Verdict::Proven,
            MiterOutcome::Counterexample(counterexample) => Verdict::Refuted { counterexample },
            MiterOutcome::Undecided => Verdict::Undecided {
                conflicts_spent,
                elapsed: start.elapsed(),
            },
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proven => write!(f, "proven equivalent"),
            Verdict::ProbablyEquivalent { patterns } => {
                write!(f, "probably equivalent ({patterns} patterns agreed)")
            }
            Verdict::Refuted { counterexample } => {
                let bits: String = counterexample
                    .iter()
                    .map(|&b| if b { '1' } else { '0' })
                    .collect();
                write!(f, "refuted (counterexample inputs: {bits})")
            }
            Verdict::Undecided {
                conflicts_spent,
                elapsed,
            } => write!(
                f,
                "undecided ({conflicts_spent} conflicts spent in {elapsed:.2?})"
            ),
        }
    }
}

/// Effort accounting for one verification run — what each rung of the
/// ladder actually did, alongside the [`Verdict`] in a [`VerifyReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Input vectors simulated across the random and exhaustive stages.
    pub patterns_simulated: u64,
    /// Primary-output pairs the sweep engine proved by structural hashing
    /// alone, with no SAT call (fast path only).
    pub strash_proven_outputs: usize,
    /// Interior cut-point pairs proven equal and merged (fast path only).
    pub cut_points_proven: usize,
    /// Of `cut_points_proven`, the pairs settled by a local truth table
    /// with no SAT call (fast path only).
    pub cut_points_simulated: usize,
    /// Candidate cut-point pairs refuted by a simulation-fed SAT model
    /// (fast path only).
    pub cut_points_refuted: usize,
    /// Candidate cut-point pairs skipped on a per-pair conflict budget
    /// (fast path only).
    pub cut_points_skipped: usize,
    /// SAT conflicts this run spent.
    pub sat_conflicts: u64,
    /// Statistics of the SAT engine that ran, when one did. For
    /// [`VerifySession`] these are cumulative over the session's life —
    /// the persistent solver is the point.
    pub solver: Option<SolverStats>,
    /// Whether the SAT rung (the sweep engine) ran.
    pub used_fast_path: bool,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl VerifyStats {
    /// Takes over what one sweep check did.
    fn record_sweep(&mut self, report: &odcfp_sat::SweepReport, engine: &SweepEngine) {
        self.used_fast_path = true;
        self.strash_proven_outputs = report.strash_proven;
        self.cut_points_proven = report.cut_points_proven;
        self.cut_points_simulated = report.cut_points_simulated;
        self.cut_points_refuted = report.cut_points_refuted;
        self.cut_points_skipped = report.cut_points_skipped;
        self.sat_conflicts = report.conflicts;
        self.solver = Some(engine.solver_stats());
    }
}

/// A [`Verdict`] paired with the [`VerifyStats`] effort accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// The equivalence verdict.
    pub verdict: Verdict,
    /// What it cost to reach.
    pub stats: VerifyStats,
}

/// Runs the staged verification ladder comparing `candidate` against
/// `golden` under `policy`.
///
/// Primary inputs and outputs are matched by position, as everywhere in
/// this crate (candidates are derived from clones of the golden design).
///
/// # Errors
///
/// Returns [`FingerprintError::InvalidNetlist`] when either netlist fails
/// structural validation and [`FingerprintError::Verification`] when the
/// interfaces don't match. Budget exhaustion is **not** an error — it is
/// the [`Verdict::Undecided`] outcome, with accounting.
pub fn verify_equivalent(
    golden: &Netlist,
    candidate: &Netlist,
    policy: &VerifyPolicy,
) -> Result<Verdict, FingerprintError> {
    Ok(verify_equivalent_report(golden, candidate, policy)?.verdict)
}

/// [`verify_equivalent`] returning the full [`VerifyReport`] (verdict plus
/// effort accounting).
///
/// # Errors
///
/// As [`verify_equivalent`].
pub fn verify_equivalent_report(
    golden: &Netlist,
    candidate: &Netlist,
    policy: &VerifyPolicy,
) -> Result<VerifyReport, FingerprintError> {
    golden.validate()?;
    candidate.validate()?;
    run_ladder(golden, candidate, policy, &CancelToken::new(), &mut None)
}

/// The ladder behind every entry point, for an already validated pair:
/// interface check, the simulation rungs, then the SAT rung.
///
/// Every rung observes `token` *and* the policy's `time_limit` (composed
/// via [`CancelToken::bounded_by`]): the simulation stages poll between
/// bounded pattern batches, and the SAT rung passes both to the solver.
///
/// The SAT rung runs on `sweep`, which is built on first use and kept:
/// a [`VerifySession`] passes its own engine, a one-shot caller a fresh
/// `None`.
fn run_ladder(
    golden: &Netlist,
    candidate: &Netlist,
    policy: &VerifyPolicy,
    token: &CancelToken,
    sweep: &mut Option<SweepEngine>,
) -> Result<VerifyReport, FingerprintError> {
    let start = Instant::now();
    check_interfaces(golden, candidate)?;
    let token = token.bounded_by(policy.time_limit.map(|limit| start + limit));
    let mut stats = VerifyStats::default();
    let verdict = match sim_stages(golden, candidate, policy, &token, &mut stats, start) {
        Some(verdict) => verdict,
        None => {
            let mut span = odcfp_obs::span("verify.sat");
            // Trace readers key on this field; the sweep is the one SAT rung.
            span.field("fast_path", true);
            let engine =
                sweep.get_or_insert_with(|| SweepEngine::new(golden, SweepOptions::default()));
            let report = engine
                .check(candidate, &limits(policy.sat.cap(), &token))
                .map_err(FingerprintError::Verification)?;
            stats.record_sweep(&report, engine);
            trace_fastpath(&report);
            let verdict = Verdict::from_outcome(report.outcome, report.conflicts, start);
            span.field("verdict", verdict.name());
            verdict
        }
    };
    stats.elapsed = start.elapsed();
    trace_verdict(&verdict, &stats);
    Ok(VerifyReport { verdict, stats })
}

/// Deterministic payload event closing one verification run. The counts
/// are thread-invariant (chunk-ordered simulation, sequential SAT), so
/// this event is safe for the payload contract at any worker count.
fn trace_verdict(verdict: &Verdict, stats: &VerifyStats) {
    if !odcfp_obs::enabled() {
        return;
    }
    odcfp_obs::point("verify.verdict")
        .field("verdict", verdict.name())
        .field("patterns", stats.patterns_simulated)
        .field("conflicts", stats.sat_conflicts)
        .field("fast_path", stats.used_fast_path)
        .emit();
}

/// Positional interface comparison shared by every entry point.
fn check_interfaces(golden: &Netlist, candidate: &Netlist) -> Result<(), FingerprintError> {
    if golden.primary_inputs().len() != candidate.primary_inputs().len() {
        return Err(FingerprintError::Verification(
            EquivError::InputCountMismatch {
                left: golden.primary_inputs().len(),
                right: candidate.primary_inputs().len(),
            },
        ));
    }
    if golden.primary_outputs().len() != candidate.primary_outputs().len() {
        return Err(FingerprintError::Verification(
            EquivError::OutputCountMismatch {
                left: golden.primary_outputs().len(),
                right: candidate.primary_outputs().len(),
            },
        ));
    }
    Ok(())
}

/// Stages 1 and 2 of the ladder (plus the closed-circuit and no-SAT
/// short-circuits). `Some(verdict)` ends the run; `None` hands over to
/// the SAT rung.
fn sim_stages(
    golden: &Netlist,
    candidate: &Netlist,
    policy: &VerifyPolicy,
    token: &CancelToken,
    stats: &mut VerifyStats,
    start: Instant,
) -> Option<Verdict> {
    let num_inputs = golden.primary_inputs().len();
    let undecided = || Verdict::Undecided {
        conflicts_spent: 0,
        elapsed: start.elapsed(),
    };

    // Closed circuits (no inputs) have exactly one behaviour; compare it.
    if num_inputs == 0 {
        return Some(if golden.eval(&[]) == candidate.eval(&[]) {
            Verdict::Proven
        } else {
            Verdict::Refuted {
                counterexample: Vec::new(),
            }
        });
    }

    // Stage 1: random-simulation smoke test.
    if policy.sim_words > 0 {
        let mut span = odcfp_obs::span("verify.sim");
        let mut rng = Xoshiro256::seed_from_u64(SIM_SEED);
        let patterns: Vec<Vec<u64>> = (0..num_inputs)
            .map(|_| sim::random_words(&mut rng, policy.sim_words))
            .collect();
        let scan = sim_scan(golden, candidate, &patterns, token);
        span.field("patterns", (policy.sim_words as u64) * 64);
        span.field("outcome", scan.trace_name());
        drop(span);
        match scan {
            SimScan::Mismatch(counterexample) => return Some(Verdict::Refuted { counterexample }),
            SimScan::Clean => stats.patterns_simulated = (policy.sim_words as u64) * 64,
            SimScan::Cancelled => return Some(undecided()),
        }
    }

    // Stage 2: exhaustive simulation — a proof when the input space fits.
    if num_inputs <= policy.exhaustive_max_inputs.min(16) {
        let mut span = odcfp_obs::span("verify.exhaustive");
        let patterns = sim::exhaustive_patterns(num_inputs);
        let scan = sim_scan(golden, candidate, &patterns, token);
        span.field("patterns", 1u64 << num_inputs);
        span.field("outcome", scan.trace_name());
        drop(span);
        // Padding bits beyond 2^n replicate the all-zeros assignment, so
        // any mismatch here is a genuine counterexample.
        return Some(match scan {
            SimScan::Mismatch(counterexample) => Verdict::Refuted { counterexample },
            SimScan::Clean => {
                stats.patterns_simulated += 1 << num_inputs;
                Verdict::Proven
            }
            SimScan::Cancelled => undecided(),
        });
    }

    if policy.sat == SatBudget::Off {
        return Some(Verdict::ProbablyEquivalent {
            patterns: stats.patterns_simulated,
        });
    }
    None
}

/// Solver limits for `conflicts` under `token`'s deadline and cancel
/// flag.
fn limits(conflicts: Option<u64>, token: &CancelToken) -> Limits {
    Limits {
        conflicts,
        deadline: token.deadline(),
        interrupt: Some(token.flag()),
    }
}

/// Deterministic payload event classifying how the sweep settled (or
/// failed to settle) a candidate: `strash` = structurally identical with
/// zero SAT, `cutpoint` = interior merges collapsed the outputs, `sat` =
/// a direct output query decided it, `refuted` / `undecided` as named.
fn trace_fastpath(report: &odcfp_sat::SweepReport) {
    if !odcfp_obs::enabled() {
        return;
    }
    let reason = match &report.outcome {
        MiterOutcome::Equivalent => {
            if report.cut_points_proven > 0 {
                "cutpoint"
            } else if report.conflicts == 0 {
                "strash"
            } else {
                "sat"
            }
        }
        MiterOutcome::Counterexample(_) => "refuted",
        MiterOutcome::Undecided => "undecided",
    };
    odcfp_obs::point("verify.fastpath")
        .field("reason", reason)
        .emit();
}

/// The outcome of one cancellable simulation sweep.
enum SimScan {
    /// A differing output bit was found; the decoded input assignment.
    Mismatch(Vec<bool>),
    /// Every pattern agreed.
    Clean,
    /// The token fired (deadline or explicit cancel) before the sweep
    /// finished; partial agreement proves nothing, so the result is
    /// discarded.
    Cancelled,
}

impl SimScan {
    fn trace_name(&self) -> &'static str {
        match self {
            SimScan::Mismatch(_) => "mismatch",
            SimScan::Clean => "clean",
            SimScan::Cancelled => "cancelled",
        }
    }
}

/// Simulates both netlists on `patterns` and, on the first differing
/// output bit, decodes the corresponding input assignment. Polls `token`
/// between bounded word batches.
fn sim_scan(
    left: &Netlist,
    right: &Netlist,
    patterns: &[Vec<u64>],
    token: &CancelToken,
) -> SimScan {
    let num_words = patterns.first().map_or(0, Vec::len);
    // Word chunks fan out across workers; each chunk's sequential scan is
    // outputs-major, so its hit is the chunk's lexicographic minimum over
    // `(output, word)`, and the global minimum across chunks reproduces the
    // sequential scan's answer at any thread count (batch boundaries only
    // refine the partition; min-merge is associative). Short pattern sets
    // stay sequential — slicing costs more than it saves.
    let threads = if num_words < 64 {
        1
    } else {
        engine::configured_threads()
    };
    let hits = engine::parallel_chunks_cancellable(num_words, threads, token, |range| {
        let slice: Vec<Vec<u64>> = patterns
            .iter()
            .map(|signal| signal[range.clone()].to_vec())
            .collect();
        let vl = left.simulate(&slice);
        let vr = right.simulate(&slice);
        let mut hit: Option<(usize, usize, u32)> = None;
        'outputs: for (o, (&ol, &or)) in left
            .primary_outputs()
            .iter()
            .zip(right.primary_outputs())
            .enumerate()
        {
            for (w, (&a, &b)) in vl[ol.index()].iter().zip(&vr[or.index()]).enumerate() {
                let diff = a ^ b;
                if diff != 0 {
                    hit = Some((o, range.start + w, diff.trailing_zeros()));
                    break 'outputs;
                }
            }
        }
        hit
    });
    let Some(hits) = hits else {
        return SimScan::Cancelled;
    };
    match hits.into_iter().flatten().min() {
        Some((_, w, bit)) => SimScan::Mismatch(
            patterns
                .iter()
                .map(|signal| (signal[w] >> bit) & 1 == 1)
                .collect(),
        ),
        None => SimScan::Clean,
    }
}

/// A persistent verification context for checking many fingerprinted
/// copies against one golden netlist.
///
/// A campaign verifies dozens of buyer copies of the *same* base
/// circuit; building the proof machinery from scratch per copy throws
/// away everything the previous copy taught the solver. A session runs
/// the same ladder as [`verify_equivalent`] but keeps its
/// [`SweepEngine`] alive across calls: the strash store, the signature
/// pool (including counterexample patterns learned from earlier copies),
/// the proven equivalence classes and the learnt clauses all persist, so
/// a second copy touching the same region usually proves structurally
/// with zero SAT. The engine is built lazily on first use, so a session
/// whose copies all fall to simulation costs nothing extra. Code-space
/// proofs ([`VerifySession::prove_code_space`]) keep no state here: each
/// builds its own small obligations.
///
/// Verdict-wise a session agrees with the one-shot functions: definitive
/// outcomes (`Proven`/`Refuted`) are canonical, and reuse only changes
/// how fast they are reached (see DESIGN.md §11 for the determinism
/// argument).
///
/// `stats.solver` in returned reports is cumulative over the session's
/// sweep engine, not per-call.
///
/// # Example
///
/// Verify two buyer copies through one session; the second check reuses
/// the strash store and learnt clauses the first one built:
///
/// ```
/// use odcfp_core::{Fingerprinter, Verdict, VerifyPolicy, VerifySession};
/// use odcfp_netlist::CellLibrary;
/// use odcfp_synth::benchmarks::random::{random_dag, DagParams};
///
/// let base = random_dag(CellLibrary::standard(), DagParams::small(11));
/// let fp = Fingerprinter::new(base)?;
/// let mut session = VerifySession::new(fp.base())?;
/// for seed in [1u64, 2] {
///     let copy = fp.embed_seeded(seed)?;
///     let report = session.verify(copy.netlist(), &VerifyPolicy::strict())?;
///     assert!(matches!(report.verdict, Verdict::Proven));
/// }
/// # Ok::<(), odcfp_core::FingerprintError>(())
/// ```
#[derive(Debug)]
pub struct VerifySession {
    golden: Netlist,
    sweep: Option<SweepEngine>,
}

/// Result of [`VerifySession::prove_code_space`]: what the local proof
/// ([`odcfp_sat::local`]) established about the whole code space.
#[derive(Debug, Clone)]
pub struct CodeSpaceProof {
    groups: usize,
    /// The superposition, kept for the pinned re-proofs of
    /// [`VerifySession::check_code`]; `None` after
    /// [`CodeSpaceOutcome::ProvenAll`], which decides every code.
    space: Option<Arc<CodeSpace>>,
    /// What the proof established.
    pub outcome: CodeSpaceOutcome,
    /// Conflicts the SAT-discharged obligations spent.
    pub conflicts: u64,
    /// Local obligations checked, escalations included.
    pub obligations: usize,
    /// Primary outputs no local claim settled, each decided by one exact
    /// obligation over the primary inputs of its cone.
    pub escalated: usize,
    /// Name of the gate the first escalation traces back to.
    pub unsettled: Option<String>,
}

impl CodeSpaceProof {
    /// Number of fingerprint locations (selector groups) covered.
    pub fn num_groups(&self) -> usize {
        self.groups
    }
}

/// Outcome of a code-space proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeSpaceOutcome {
    /// Every primary output settled: **every** code in the space is
    /// equivalent to the golden netlist — individual buyers need no
    /// further solving.
    ProvenAll,
    /// Some code differs. Buyers must be decided individually.
    SomeCodeDiffers {
        /// Primary-input assignment exhibiting the difference.
        counterexample: Vec<bool>,
        /// A code that differs on `counterexample`; locations outside
        /// the differing output's cone are false.
        code: Vec<bool>,
    },
    /// Budget or deadline exhausted before a verdict.
    Undecided,
}

impl CodeSpaceOutcome {
    /// Stable lowercase name for traces and journals.
    pub fn name(&self) -> &'static str {
        match self {
            CodeSpaceOutcome::ProvenAll => "proven_all",
            CodeSpaceOutcome::SomeCodeDiffers { .. } => "some_code_differs",
            CodeSpaceOutcome::Undecided => "undecided",
        }
    }
}

impl VerifySession {
    /// Creates a session bound to `golden`.
    ///
    /// # Errors
    ///
    /// Returns an error if `golden` fails validation.
    pub fn new(golden: &Netlist) -> Result<Self, FingerprintError> {
        golden.validate()?;
        Ok(Self {
            golden: golden.clone(),
            sweep: None,
        })
    }

    /// The golden netlist this session verifies against.
    pub fn golden(&self) -> &Netlist {
        &self.golden
    }

    /// Verifies `candidate` against the session's golden netlist.
    ///
    /// # Errors
    ///
    /// As [`verify_equivalent`].
    pub fn verify(
        &mut self,
        candidate: &Netlist,
        policy: &VerifyPolicy,
    ) -> Result<VerifyReport, FingerprintError> {
        self.verify_cancellable(candidate, policy, &CancelToken::new())
    }

    /// [`VerifySession::verify`] under a cooperative [`CancelToken`].
    ///
    /// Every rung observes the token and the policy's `time_limit`; a
    /// fired token yields [`Verdict::Undecided`] with whatever accounting
    /// was accrued, exactly as budget exhaustion does, so callers cannot
    /// tell cancellation apart from a slow proof by verdict alone — batch
    /// runners check the token they handed in.
    ///
    /// # Errors
    ///
    /// As [`verify_equivalent`].
    pub fn verify_cancellable(
        &mut self,
        candidate: &Netlist,
        policy: &VerifyPolicy,
        token: &CancelToken,
    ) -> Result<VerifyReport, FingerprintError> {
        candidate.validate()?;
        run_ladder(&self.golden, candidate, policy, token, &mut self.sweep)
    }

    /// Proves the *code space* of a fingerprinter: given the superposed
    /// variant (every modification applied) and the selectable-input map
    /// produced by [`CodeSpace::build`], decides whether every
    /// `2^groups` buyer code is equivalent to the golden at once;
    /// afterwards [`VerifySession::check_code`] decides individual codes,
    /// with no per-buyer netlist ever materialized.
    ///
    /// The proof is [`odcfp_sat::prove_locally`]: one small obligation
    /// per modified gate, by exhaustive simulation or a tiny miter, and
    /// one exact obligation over the primary inputs for each output no
    /// claim settles. `budget` bounds the conflicts of all of them, and
    /// the token's deadline and cancellation stop the pass
    /// ([`CodeSpaceOutcome::Undecided`]).
    ///
    /// # Errors
    ///
    /// Returns an error if `superposed` fails validation or its interface
    /// doesn't match the golden netlist.
    pub fn prove_code_space(
        &mut self,
        superposed: &Netlist,
        selectable: &[SelectableInput],
        groups: usize,
        budget: Option<u64>,
        token: &CancelToken,
    ) -> Result<CodeSpaceProof, FingerprintError> {
        superposed.validate()?;
        self.prove_validated_code_space(superposed, selectable, groups, budget, token)
    }

    /// [`VerifySession::prove_code_space`] for a `superposed` netlist
    /// that has already passed [`Netlist::validate`].
    pub(crate) fn prove_validated_code_space(
        &mut self,
        superposed: &Netlist,
        selectable: &[SelectableInput],
        groups: usize,
        budget: Option<u64>,
        token: &CancelToken,
    ) -> Result<CodeSpaceProof, FingerprintError> {
        check_interfaces(&self.golden, superposed)?;
        let mut span = odcfp_obs::span("verify.codespace");
        span.field("groups", groups);
        let local = odcfp_sat::prove_locally(
            &self.golden,
            superposed,
            selectable,
            groups,
            None,
            &limits(budget, token),
        );
        span.field("obligations", local.obligations);
        span.field("simulated", local.simulated);
        span.field("sat_discharged", local.solved);
        span.field("widest_cut", local.widest_cut);
        span.field("escalated", local.escalated);
        let outcome = match local.witness {
            Some(w) => CodeSpaceOutcome::SomeCodeDiffers {
                counterexample: w.inputs,
                code: w.code,
            },
            None if local.proven => CodeSpaceOutcome::ProvenAll,
            None => CodeSpaceOutcome::Undecided,
        };
        span.field("outcome", outcome.name());
        span.field("conflicts", local.conflicts);
        Ok(CodeSpaceProof {
            groups,
            space: (outcome != CodeSpaceOutcome::ProvenAll).then(|| {
                Arc::new(CodeSpace {
                    superposed: superposed.clone(),
                    selectable: selectable.to_vec(),
                    groups,
                })
            }),
            outcome,
            conflicts: local.conflicts,
            obligations: local.obligations,
            escalated: local.escalated,
            unsettled: local
                .unsettled
                .map(|g| superposed.gate(g).name().to_owned()),
        })
    }

    /// Decides one buyer code against a [`CodeSpaceProof`] of this
    /// session's golden netlist, with no netlist built.
    ///
    /// After [`CodeSpaceOutcome::ProvenAll`] this is a pure consistency
    /// check and returns [`Verdict::Proven`] at once; otherwise it re-runs
    /// the local proof pinned to `code` under `budget` and `token`, so a
    /// proof that was cut short still decides codes under a live token.
    ///
    /// # Panics
    ///
    /// Panics if `code` length differs from the proof's group count.
    pub fn check_code(
        &mut self,
        proof: &CodeSpaceProof,
        code: &[bool],
        budget: Option<u64>,
        token: &CancelToken,
    ) -> Verdict {
        assert_eq!(
            code.len(),
            proof.groups,
            "code length must match the proof's group count"
        );
        let Some(space) = &proof.space else {
            return Verdict::Proven;
        };
        let start = Instant::now();
        let local = odcfp_sat::prove_locally(
            &self.golden,
            space.superposed(),
            space.selectable(),
            space.num_groups(),
            Some(code),
            &limits(budget, token),
        );
        let outcome = match local.witness {
            Some(w) => MiterOutcome::Counterexample(w.inputs),
            None if local.proven => MiterOutcome::Equivalent,
            None => MiterOutcome::Undecided,
        };
        Verdict::from_outcome(outcome, local.conflicts, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    /// XOR chain over `width` inputs in either association order: the two
    /// are equivalent, but the proof needs real SAT search, and `width`
    /// above the exhaustive limit forces the ladder onto the SAT rung.
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
    fn small_equivalent_pair_is_proven_by_exhaustion() {
        let left = xor_chain(6, false);
        let right = xor_chain(6, true);
        // No SAT attempts allowed: the proof must come from stage 2.
        let policy = VerifyPolicy::quick();
        assert_eq!(
            verify_equivalent(&left, &right, &policy).unwrap(),
            Verdict::Proven
        );
    }

    #[test]
    fn large_equivalent_pair_without_sat_is_only_probable() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        let policy = VerifyPolicy::quick();
        assert_eq!(
            verify_equivalent(&left, &right, &policy).unwrap(),
            Verdict::ProbablyEquivalent { patterns: 16 * 64 }
        );
    }

    #[test]
    fn large_equivalent_pair_with_sat_is_proven() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        assert_eq!(
            verify_equivalent(&left, &right, &VerifyPolicy::strict()).unwrap(),
            Verdict::Proven
        );
    }

    #[test]
    fn refuted_carries_a_real_counterexample() {
        let left = xor_chain(20, false);
        let lib = left.library().clone();
        // Same interface, different function: AND instead of XOR at the top.
        let mut right = Netlist::new("w", lib);
        let pis: Vec<_> = (0..20)
            .map(|i| right.add_primary_input(format!("i{i}")))
            .collect();
        let xor2 = right.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let and2 = right.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let mut acc = pis[0];
        for (k, &pi) in pis.iter().enumerate().skip(1) {
            let cell = if k == 19 { and2 } else { xor2 };
            let g = right.add_gate(format!("x{k}"), cell, &[acc, pi]);
            acc = right.gate_output(g);
        }
        right.set_primary_output(acc);

        match verify_equivalent(&left, &right, &VerifyPolicy::strict()).unwrap() {
            Verdict::Refuted { counterexample } => {
                assert_eq!(counterexample.len(), 20);
                assert_ne!(left.eval(&counterexample), right.eval(&counterexample));
            }
            other => panic!("expected refuted, got {other}"),
        }
    }

    #[test]
    fn starved_policy_reports_undecided_with_accounting() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        // Simulation passes, exhaustive is disabled by width, and the SAT
        // rung gets a conflict cap far too small for a 20-bit XOR proof.
        let policy = VerifyPolicy {
            sat: SatBudget::Conflicts(2),
            ..VerifyPolicy::strict()
        };
        match verify_equivalent(&left, &right, &policy).unwrap() {
            Verdict::Undecided {
                conflicts_spent,
                elapsed,
            } => {
                assert!(conflicts_spent <= 2 + 1, "cap respected: {conflicts_spent}");
                assert!(elapsed > Duration::ZERO);
            }
            other => panic!("expected undecided, got {other}"),
        }
        // The same pair under a real budget is decidable.
        assert_eq!(
            verify_equivalent(&left, &right, &VerifyPolicy::strict()).unwrap(),
            Verdict::Proven
        );
    }

    #[test]
    fn expired_deadline_reports_undecided() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        let policy = VerifyPolicy::strict().with_time_limit(Duration::ZERO);
        assert!(matches!(
            verify_equivalent(&left, &right, &policy).unwrap(),
            Verdict::Undecided { .. }
        ));
    }

    /// Regression (deadline granularity): a near-zero deadline must stop
    /// the *random-simulation* stage, not just the SAT rung. With SAT
    /// disabled, the old ladder ran the full sweep and reported
    /// `ProbablyEquivalent` no matter the time limit.
    #[test]
    fn random_sim_stage_observes_the_deadline() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        let policy = VerifyPolicy {
            sim_words: 4096,
            sat: SatBudget::Off,
            ..VerifyPolicy::strict()
        }
        .with_time_limit(Duration::ZERO);
        match verify_equivalent(&left, &right, &policy).unwrap() {
            Verdict::Undecided {
                conflicts_spent, ..
            } => assert_eq!(conflicts_spent, 0, "no SAT ran"),
            other => panic!("expected undecided under a zero deadline, got {other}"),
        }
    }

    /// Regression (deadline granularity): the *exhaustive* stage must
    /// observe the deadline too — previously it would run all 2^n
    /// assignments and claim `Proven` under an already-expired limit.
    #[test]
    fn exhaustive_stage_observes_the_deadline() {
        let left = xor_chain(10, false);
        let right = xor_chain(10, true);
        // Skip stage 1 so the exhaustive stage is the one on the clock.
        let policy = VerifyPolicy {
            sim_words: 0,
            sat: SatBudget::Off,
            ..VerifyPolicy::strict()
        }
        .with_time_limit(Duration::ZERO);
        assert!(matches!(
            verify_equivalent(&left, &right, &policy).unwrap(),
            Verdict::Undecided { .. }
        ));
        // The same pair with time is proven by exhaustion.
        let policy = VerifyPolicy {
            sim_words: 0,
            sat: SatBudget::Off,
            ..VerifyPolicy::strict()
        };
        assert_eq!(
            verify_equivalent(&left, &right, &policy).unwrap(),
            Verdict::Proven
        );
    }

    /// An explicitly fired token degrades every rung to `Undecided`, even
    /// under the unbounded strict policy.
    #[test]
    fn fired_token_short_circuits_the_whole_ladder() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        let mut session = VerifySession::new(&left).unwrap();
        let token = CancelToken::new();
        token.cancel();
        match session
            .verify_cancellable(&right, &VerifyPolicy::strict(), &token)
            .unwrap()
            .verdict
        {
            Verdict::Undecided { .. } => {}
            other => panic!("expected undecided after cancel, got {other}"),
        }
        // A quiet token changes nothing.
        assert_eq!(
            session
                .verify_cancellable(&right, &VerifyPolicy::strict(), &CancelToken::new())
                .unwrap()
                .verdict,
            Verdict::Proven
        );
    }

    #[test]
    fn sim_smoke_test_refutes_grossly_broken_copies() {
        let left = xor_chain(20, false);
        let lib = left.library().clone();
        let mut right = Netlist::new("stuck", lib);
        for i in 0..20 {
            right.add_primary_input(format!("i{i}"));
        }
        let zero = right.add_constant("zero", false);
        right.set_primary_output(zero);
        // Exhaustive and SAT disabled: only the smoke test can catch it.
        let policy = VerifyPolicy {
            exhaustive_max_inputs: 0,
            sat: SatBudget::Off,
            ..VerifyPolicy::strict()
        };
        match verify_equivalent(&left, &right, &policy).unwrap() {
            Verdict::Refuted { counterexample } => {
                assert_ne!(left.eval(&counterexample), right.eval(&counterexample));
            }
            other => panic!("expected refuted, got {other}"),
        }
    }

    #[test]
    fn simulation_witness_is_identical_at_any_thread_count() {
        // Inequivalent pair: the top gate differs (AND vs XOR).
        let left = xor_chain(20, false);
        let lib = left.library().clone();
        let mut right = Netlist::new("w", lib);
        let pis: Vec<_> = (0..20)
            .map(|i| right.add_primary_input(format!("i{i}")))
            .collect();
        let xor2 = right.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let and2 = right.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let mut acc = pis[0];
        for (k, &pi) in pis.iter().enumerate().skip(1) {
            let cell = if k == 19 { and2 } else { xor2 };
            let g = right.add_gate(format!("x{k}"), cell, &[acc, pi]);
            acc = right.gate_output(g);
        }
        right.set_primary_output(acc);

        // Enough words that the chunked scan actually engages, sim only.
        let policy = VerifyPolicy {
            sim_words: 256,
            exhaustive_max_inputs: 0,
            sat: SatBudget::Off,
            ..VerifyPolicy::strict()
        };
        let mut witnesses = Vec::new();
        for threads in [1usize, 2, 8] {
            engine::set_thread_override(Some(threads));
            witnesses.push(verify_equivalent(&left, &right, &policy).unwrap());
        }
        engine::set_thread_override(None);
        assert!(matches!(witnesses[0], Verdict::Refuted { .. }));
        assert_eq!(witnesses[0], witnesses[1]);
        assert_eq!(witnesses[0], witnesses[2]);
    }

    #[test]
    fn interface_mismatch_is_an_error_not_a_verdict() {
        let left = xor_chain(6, false);
        let right = xor_chain(7, false);
        assert!(matches!(
            verify_equivalent(&left, &right, &VerifyPolicy::quick()),
            Err(FingerprintError::Verification(
                EquivError::InputCountMismatch { .. }
            ))
        ));
    }

    #[test]
    fn fingerprinted_random_dag_verifies_under_budget() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(77));
        let fp = crate::Fingerprinter::new(base).unwrap();
        let copy = fp.embed(&vec![true; fp.locations().len()]).unwrap();
        let verdict =
            verify_equivalent(fp.base(), copy.netlist(), &VerifyPolicy::budgeted(100_000)).unwrap();
        assert!(verdict.is_pass(), "got {verdict}");
    }

    /// The sweeping SAT rung and a cold whole-circuit miter must return
    /// the same verdicts — the sweep is an optimization, not a different
    /// decision procedure.
    #[test]
    fn fast_and_cold_sat_rungs_agree() {
        let left = xor_chain(20, false);
        let equivalent = xor_chain(20, true);
        let lib = left.library().clone();
        let mut broken = Netlist::new("w", lib);
        let pis: Vec<_> = (0..20)
            .map(|i| broken.add_primary_input(format!("i{i}")))
            .collect();
        let xor2 = broken.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let and2 = broken.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let mut acc = pis[0];
        for (k, &pi) in pis.iter().enumerate().skip(1) {
            let cell = if k == 19 { and2 } else { xor2 };
            let g = broken.add_gate(format!("x{k}"), cell, &[acc, pi]);
            acc = broken.gate_output(g);
        }
        broken.set_primary_output(acc);

        // Skip simulation so the SAT rung alone decides both cases.
        let base = VerifyPolicy {
            sim_words: 0,
            exhaustive_max_inputs: 0,
            ..VerifyPolicy::strict()
        };
        let cold = |candidate: &Netlist| {
            odcfp_sat::Miter::build(&left, candidate)
                .unwrap()
                .solve(&Limits::default())
        };
        assert_eq!(
            verify_equivalent(&left, &equivalent, &base).unwrap(),
            Verdict::Proven
        );
        assert_eq!(cold(&equivalent), MiterOutcome::Equivalent);
        let fast = verify_equivalent(&left, &broken, &base).unwrap();
        assert!(matches!(fast, Verdict::Refuted { .. }));
        let Verdict::Refuted { counterexample } = fast else {
            unreachable!()
        };
        assert_ne!(left.eval(&counterexample), broken.eval(&counterexample));
        assert!(matches!(cold(&broken), MiterOutcome::Counterexample(_)));
    }

    #[test]
    fn report_accounts_for_the_fast_path() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(78));
        let fp = crate::Fingerprinter::new(base).unwrap();
        let copy = fp.embed(&vec![true; fp.locations().len()]).unwrap();
        // Force the SAT rung so the sweep actually runs.
        let policy = VerifyPolicy {
            sim_words: 1,
            exhaustive_max_inputs: 0,
            ..VerifyPolicy::strict()
        };
        let report = verify_equivalent_report(fp.base(), copy.netlist(), &policy).unwrap();
        assert_eq!(report.verdict, Verdict::Proven);
        assert!(report.stats.used_fast_path);
        assert!(report.stats.solver.is_some());
        assert_eq!(report.stats.patterns_simulated, 64);
        assert!(report.stats.elapsed > Duration::ZERO);
        // A cold whole-circuit miter proves the same thing.
        assert_eq!(
            odcfp_sat::check_equivalence(fp.base(), copy.netlist(), None),
            Ok(odcfp_sat::EquivResult::Equivalent)
        );
        // A verdict the simulation rungs reach never runs the SAT rung.
        let report =
            verify_equivalent_report(fp.base(), copy.netlist(), &VerifyPolicy::quick()).unwrap();
        assert!(!report.stats.used_fast_path);
        assert!(report.stats.solver.is_none());
    }

    #[test]
    fn session_verifies_many_copies_and_matches_one_shot_verdicts() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(79));
        let fp = crate::Fingerprinter::new(base).unwrap();
        let n = fp.locations().len();
        assert!(n >= 2);
        let policy = VerifyPolicy {
            sim_words: 1,
            exhaustive_max_inputs: 0,
            ..VerifyPolicy::strict()
        };
        let mut session = VerifySession::new(fp.base()).unwrap();
        for pattern in [0usize, 1, 3, usize::MAX] {
            let bits: Vec<bool> = (0..n).map(|i| (pattern >> i.min(63)) & 1 == 1).collect();
            let copy = fp.embed(&bits).unwrap();
            let report = session.verify(copy.netlist(), &policy).unwrap();
            assert_eq!(
                report.verdict,
                verify_equivalent(fp.base(), copy.netlist(), &policy).unwrap(),
                "pattern {pattern:b}"
            );
            assert_eq!(report.verdict, Verdict::Proven);
            assert!(report.stats.used_fast_path);
        }
        // The unmodified base is pure strash: zero conflicts spent.
        let report = session.verify(fp.base(), &policy).unwrap();
        assert_eq!(report.verdict, Verdict::Proven);
        assert_eq!(report.stats.sat_conflicts, 0);
    }

    #[test]
    fn session_refutes_with_a_genuine_counterexample() {
        let left = xor_chain(20, false);
        let lib = left.library().clone();
        let mut broken = Netlist::new("stuck", lib);
        for i in 0..20 {
            broken.add_primary_input(format!("i{i}"));
        }
        let zero = broken.add_constant("zero", false);
        broken.set_primary_output(zero);
        let policy = VerifyPolicy {
            sim_words: 0,
            exhaustive_max_inputs: 0,
            ..VerifyPolicy::strict()
        };
        let mut session = VerifySession::new(&left).unwrap();
        match session.verify(&broken, &policy).unwrap().verdict {
            Verdict::Refuted { counterexample } => {
                assert_eq!(counterexample.len(), 20);
                assert_ne!(left.eval(&counterexample), broken.eval(&counterexample));
            }
            other => panic!("expected refuted, got {other}"),
        }
        // The session survives a refutation and still proves the good pair.
        let good = xor_chain(20, true);
        assert_eq!(
            session.verify(&good, &policy).unwrap().verdict,
            Verdict::Proven
        );
    }

    #[test]
    fn starved_session_is_honestly_undecided_and_recovers() {
        let left = xor_chain(20, false);
        let right = xor_chain(20, true);
        let mut session = VerifySession::new(&left).unwrap();
        let starved = VerifyPolicy {
            sim_words: 0,
            exhaustive_max_inputs: 0,
            sat: SatBudget::Conflicts(1),
            ..VerifyPolicy::strict()
        };
        assert!(matches!(
            session.verify(&right, &starved).unwrap().verdict,
            Verdict::Undecided { .. }
        ));
        let generous = VerifyPolicy {
            sim_words: 0,
            exhaustive_max_inputs: 0,
            ..VerifyPolicy::strict()
        };
        assert_eq!(
            session.verify(&right, &generous).unwrap().verdict,
            Verdict::Proven
        );
    }

    #[test]
    fn session_rejects_interface_mismatches() {
        let left = xor_chain(6, false);
        let mut session = VerifySession::new(&left).unwrap();
        assert!(matches!(
            session.verify(&xor_chain(7, false), &VerifyPolicy::quick()),
            Err(FingerprintError::Verification(
                EquivError::InputCountMismatch { .. }
            ))
        ));
    }

    #[test]
    fn verdict_display_is_human_readable() {
        assert_eq!(Verdict::Proven.to_string(), "proven equivalent");
        assert!(Verdict::ProbablyEquivalent { patterns: 1024 }
            .to_string()
            .contains("1024 patterns"));
        assert!(Verdict::Refuted {
            counterexample: vec![true, false, true]
        }
        .to_string()
        .contains("101"));
        assert!(Verdict::Undecided {
            conflicts_spent: 7,
            elapsed: Duration::from_millis(3)
        }
        .to_string()
        .contains("7 conflicts"));
    }
}
