//! Adversary (a): resynthesis round-trips and structural wire recovery.
//!
//! The attacker re-runs synthesis over a fingerprinted copy hoping the
//! tool rewrites the redundant ODC wires away. The designer's counter is
//! *structural re-location*: every fingerprint wire widens exactly one
//! FFC gate, so the widened gate's output computes a structure that
//! appears **nowhere** in the base netlist. Hash-consing the base, the
//! victim copy, and the attacked netlist into one [`SweepEngine`] gives
//! every net a class id; a wire survives an attack iff its widened class
//! is still present among the attacked netlist's classes. No SAT is
//! involved — recovery is a deterministic set
//! intersection, which is what lets the battery run on every benchmark
//! in seconds.
//!
//! Name-based extraction ([`Fingerprinter::extract`]) is useless here by
//! design: resynthesis rebuilds every gate, so gate ids and names do not
//! survive even when the logic does.

use std::collections::HashSet;

use odcfp_analysis::cancel::CancelToken;
use odcfp_netlist::Netlist;
use odcfp_sat::{SweepEngine, SweepOptions};
use odcfp_synth::{resynthesize, ResynthLevel};

use crate::collusion::{TraceOutcome, TraceParams, TracerIndex};
use crate::{apply_modification, Fingerprinter};

use super::{AttackError, SurvivalStats};

/// One resynthesis level's graded outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ResynthAttackReport {
    /// Effort level.
    pub level: ResynthLevel,
    /// Gates in the fingerprinted copy before the attack.
    pub gates_before: usize,
    /// Gates after the attack.
    pub gates_after: usize,
    /// Wires the victim copy embedded (set bits).
    pub wires_embedded: usize,
    /// Embedded wires identifiable before the attack (the survival
    /// denominator).
    pub wires_identifiable: usize,
    /// Identifiable wires still recovered after the attack.
    pub wires_surviving: usize,
    /// Locations recovered as present although the victim never embedded
    /// them (structural aliasing introduced by the rewrite).
    pub phantom_wires: usize,
    /// `wires_surviving / wires_identifiable` (1.0 when nothing was
    /// identifiable — no evidence, nothing destroyed).
    pub survival_rate: f64,
    /// Tracing outcome over the recovered wire set.
    pub outcome: TraceOutcome,
    /// Whether the victim buyer (buyer 0) is among the convicted.
    pub victim_convicted: bool,
    /// Convicted buyers other than the victim.
    pub innocents_accused: usize,
    /// Surviving evidence wires the tracer saw.
    pub evidence_wires: usize,
}

/// The designer's structural matcher: per-location widened-shape classes
/// over a persistent hash-consing engine, calibrated against one victim
/// copy.
///
/// Classes are full-cone structural hashes, so a widened gate's class
/// depends on everything upstream of it — including *other* fingerprint
/// modifications. Reading each embedded wire's class out of the victim
/// netlist itself (rather than out of an isolated single-bit variant)
/// keeps the reference aligned with what the attacked netlist can
/// actually still contain.
#[derive(Debug)]
pub struct StructuralReference {
    engine: SweepEngine,
    /// Classes present in the base netlist (wires matching these carry
    /// no fingerprint information).
    base_classes: HashSet<u32>,
    /// Per location: the distinguishing class to look for — the victim's
    /// widened target-gate output for embedded wires, the single-bit
    /// variant's for absent wires (phantom detection). `None` when the
    /// class collides with base logic or another location
    /// (unidentifiable).
    class_of: Vec<Option<u32>>,
    identifiable: Vec<bool>,
}

impl StructuralReference {
    /// Interns the base netlist, the victim copy, and the single-bit
    /// variants of every wire the victim did *not* embed, recording each
    /// location's distinguishing class.
    ///
    /// # Errors
    ///
    /// [`AttackError::Cancelled`] if the token fires mid-build;
    /// modification application errors surface as
    /// [`AttackError::Fingerprint`].
    pub fn new(
        fp: &Fingerprinter,
        victim: &crate::FingerprintedCopy,
        token: &CancelToken,
    ) -> Result<StructuralReference, AttackError> {
        let mut span = odcfp_obs::span("attack.reference");
        let base = fp.base();
        let mut engine = SweepEngine::new(base, SweepOptions::default());
        let base_classes: HashSet<u32> = engine.net_classes(base).into_iter().collect();
        let mods = fp.selected_modifications();
        let bits = victim.bits();
        let mut class_of = vec![None; mods.len()];
        let mut identifiable = vec![false; mods.len()];
        let mut taken: HashSet<u32> = HashSet::new();
        // Embedded wires first: their class in the victim's own context
        // is the exact shape a rewrite has to destroy.
        let victim_classes = engine.net_classes(victim.netlist());
        for (i, m) in mods.iter().enumerate() {
            if !bits[i] {
                continue;
            }
            let cls = victim_classes[victim.netlist().gate(m.target()).output().index()];
            if cls != u32::MAX && !base_classes.contains(&cls) && taken.insert(cls) {
                class_of[i] = Some(cls);
                identifiable[i] = true;
            }
        }
        // Absent wires: the shape each would take alone. Seeing one of
        // these in an attacked netlist is a phantom — structural aliasing
        // fabricating a bit the victim never carried.
        for (i, m) in mods.iter().enumerate() {
            if bits[i] {
                continue;
            }
            if i % 64 == 0 && token.is_cancelled() {
                return Err(AttackError::Cancelled);
            }
            let mut variant = base.clone();
            apply_modification(&mut variant, m)?;
            let classes = engine.net_classes(&variant);
            let cls = classes[variant.gate(m.target()).output().index()];
            if cls != u32::MAX && !base_classes.contains(&cls) && taken.insert(cls) {
                class_of[i] = Some(cls);
                identifiable[i] = true;
            }
        }
        span.field("locations", mods.len());
        span.field("identifiable", identifiable.iter().filter(|&&b| b).count());
        Ok(StructuralReference {
            engine,
            base_classes,
            class_of,
            identifiable,
        })
    }

    /// Per-location identifiability mask.
    pub fn identifiable(&self) -> &[bool] {
        &self.identifiable
    }

    /// Recovers the per-location wire-presence string from any netlist
    /// with the same primary inputs: location `i` reads `true` iff its
    /// widened class occurs among the netlist's structural classes.
    pub fn recover(&mut self, suspect: &Netlist) -> Vec<bool> {
        let present: HashSet<u32> = self
            .engine
            .net_classes(suspect)
            .into_iter()
            .filter(|&c| c != u32::MAX && !self.base_classes.contains(&c))
            .collect();
        self.class_of
            .iter()
            .map(|c| c.is_some_and(|cls| present.contains(&cls)))
            .collect()
    }
}

/// Runs one resynthesis level against the victim copy, grades survival
/// against the pre-attack `baseline` recovery, traces the recovered wire
/// set, and folds the per-location outcome into `survival`.
#[allow(clippy::too_many_arguments)]
pub(super) fn attack_once(
    reference: &mut StructuralReference,
    index: &TracerIndex,
    trace_params: &TraceParams,
    victim: &crate::FingerprintedCopy,
    baseline: &[bool],
    level: ResynthLevel,
    survival: &mut SurvivalStats,
) -> Result<ResynthAttackReport, AttackError> {
    let mut span = odcfp_obs::span("attack.resynth");
    span.field("level", level.name());
    let (attacked, stats) = resynthesize(victim.netlist(), level)?;
    let recovered = reference.recover(&attacked);

    let bits = victim.bits();
    let mut wires_embedded = 0usize;
    let mut wires_identifiable = 0usize;
    let mut wires_surviving = 0usize;
    let mut phantom_wires = 0usize;
    survival.attacks += 1;
    for i in 0..bits.len() {
        if bits[i] {
            wires_embedded += 1;
            if baseline[i] {
                wires_identifiable += 1;
                survival.tested[i] += 1;
                if recovered[i] {
                    wires_surviving += 1;
                    survival.survived[i] += 1;
                }
            }
        } else if recovered[i] {
            phantom_wires += 1;
        }
    }
    let survival_rate = if wires_identifiable == 0 {
        1.0
    } else {
        wires_surviving as f64 / wires_identifiable as f64
    };

    let verdict = index.verdict(&recovered, trace_params);
    let victim_convicted = verdict.convicted.iter().any(|s| s.buyer == 0);
    let innocents_accused = verdict.convicted.iter().filter(|s| s.buyer != 0).count();

    let report = ResynthAttackReport {
        level,
        gates_before: stats.gates_before,
        gates_after: stats.gates_after,
        wires_embedded,
        wires_identifiable,
        wires_surviving,
        phantom_wires,
        survival_rate,
        outcome: verdict.outcome,
        victim_convicted,
        innocents_accused,
        evidence_wires: verdict.evidence_wires,
    };
    odcfp_obs::point("attack.resynth.survival")
        .field("level", level.name())
        .field("embedded", wires_embedded as u64)
        .field("identifiable", wires_identifiable as u64)
        .field("surviving", wires_surviving as u64)
        .field("phantom", phantom_wires as u64)
        .field("survival_bp", (survival_rate * 10_000.0).round() as u64)
        .field("outcome", verdict.outcome.name())
        .field("victim_convicted", victim_convicted)
        .field("innocents_accused", innocents_accused as u64)
        .emit();
    span.field("gates_after", stats.gates_after);
    Ok(report)
}
