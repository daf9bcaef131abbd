//! Overhead-reduction heuristics under a delay constraint (§III-D, §IV-B;
//! Table III).
//!
//! Two methods are provided, mirroring the paper:
//!
//! * **Reactive** ([`reactive_delay_reduction`]): start from the fully
//!   fingerprinted circuit and remove one modification at a time until the
//!   delay constraint is met. The paper evaluates each removal by
//!   re-measuring the whole circuit; [`ReactiveOptions::exhaustive`]
//!   reproduces that exactly, while the default *slack-guided* mode removes
//!   the modification sitting on the most critical path (one STA per round)
//!   and scales to the large benchmarks. Both fall back to seeded random
//!   removals when no single removal improves the delay, exactly as §IV-B
//!   describes.
//! * **Proactive** ([`proactive_delay_embedding`]): add modifications most
//!   slack-rich first, keeping each only if the constraint still holds.

use odcfp_analysis::{sta, DesignMetrics};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::Netlist;

use crate::attack::SurvivalStats;
use crate::{apply_modification, FingerprintError, FingerprintedCopy, Fingerprinter, VerifyLevel};

/// Options for [`reactive_delay_reduction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactiveOptions {
    /// Evaluate every candidate removal with a full re-measurement (the
    /// paper's exact procedure, `O(n²)` timing runs) instead of the
    /// slack-guided approximation.
    pub exhaustive: bool,
    /// Seed for the random-removal fallback.
    pub seed: u64,
    /// Rounds without delay improvement before a random removal is tried.
    pub patience: usize,
}

impl Default for ReactiveOptions {
    fn default() -> Self {
        ReactiveOptions {
            exhaustive: false,
            seed: 0x0DC,
            patience: 3,
        }
    }
}

/// The result of a delay-constrained fingerprinting run.
#[derive(Debug, Clone)]
pub struct ConstrainedEmbedding {
    /// The surviving fingerprinted copy (its bits mark kept locations).
    pub copy: FingerprintedCopy,
    /// Metrics of the base design.
    pub base_metrics: DesignMetrics,
    /// Metrics of the surviving copy.
    pub metrics: DesignMetrics,
    /// Percentage of fingerprint locations removed (Table III column 1).
    pub fingerprint_reduction_pct: f64,
}

impl ConstrainedEmbedding {
    /// Number of locations that survived.
    pub fn kept_locations(&self) -> usize {
        self.copy.bits().iter().filter(|&&b| b).count()
    }
}

fn delay_of(netlist: &Netlist) -> f64 {
    sta::analyze(netlist)
        .expect("validated netlist")
        .max_delay()
}

fn build(
    fp: &Fingerprinter,
    kept: &[bool],
    verify: VerifyLevel,
) -> Result<FingerprintedCopy, FingerprintError> {
    fp.embed_verified(kept, verify)
}

/// The paper's reactive method: remove modifications from the fully
/// fingerprinted design until its delay is within
/// `max_delay_overhead_pct` percent of the base delay.
///
/// # Errors
///
/// Propagates embedding errors (none are expected for locations produced
/// by the same engine).
pub fn reactive_delay_reduction(
    fp: &Fingerprinter,
    max_delay_overhead_pct: f64,
    opts: ReactiveOptions,
) -> Result<ConstrainedEmbedding, FingerprintError> {
    let n = fp.locations().len();
    let base_metrics = DesignMetrics::measure(fp.base());
    let limit = base_metrics.delay * (1.0 + max_delay_overhead_pct / 100.0);
    let mut kept = vec![true; n];
    let mut rng = Xoshiro256::seed_from_u64(opts.seed);

    let mut current = build(fp, &kept, VerifyLevel::None)?;
    let mut current_delay = delay_of(current.netlist());
    let mut stale_rounds = 0usize;

    while current_delay > limit && kept.iter().any(|&k| k) {
        let removal = if opts.exhaustive {
            // Try every removal; keep the one with minimum resulting delay.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if !kept[i] {
                    continue;
                }
                kept[i] = false;
                let trial = build(fp, &kept, VerifyLevel::None)?;
                let d = delay_of(trial.netlist());
                kept[i] = true;
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            best.map(|(i, _)| i)
        } else if stale_rounds < opts.patience {
            // Slack-guided: drop the kept modification whose target gate is
            // most timing-critical in the current circuit.
            let timing = sta::analyze(current.netlist()).expect("valid");
            (0..n).filter(|&i| kept[i]).min_by(|&a, &b| {
                let sa = timing.slack(fp.selected_modifications()[a].target());
                let sb = timing.slack(fp.selected_modifications()[b].target());
                sa.partial_cmp(&sb).expect("finite slack")
            })
        } else {
            None
        };
        // §IV-B fallback: no productive removal found — remove at random.
        let removal = removal.or_else(|| {
            let alive: Vec<usize> = (0..n).filter(|&i| kept[i]).collect();
            rng.choose(&alive).copied()
        });
        let Some(i) = removal else { break };
        kept[i] = false;
        let next = build(fp, &kept, VerifyLevel::None)?;
        let next_delay = delay_of(next.netlist());
        if next_delay < current_delay - 1e-12 {
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
        }
        current = next;
        current_delay = next_delay;
    }

    let copy = build(fp, &kept, VerifyLevel::Simulation)?;
    let metrics = DesignMetrics::measure(copy.netlist());
    let removed = n - kept.iter().filter(|&&k| k).count();
    Ok(ConstrainedEmbedding {
        copy,
        base_metrics,
        metrics,
        fingerprint_reduction_pct: if n == 0 {
            0.0
        } else {
            removed as f64 / n as f64 * 100.0
        },
    })
}

/// The paper's proactive method: add modifications one at a time —
/// slack-rich targets first — keeping each only if the delay constraint
/// still holds afterwards.
///
/// # Errors
///
/// Propagates embedding errors.
pub fn proactive_delay_embedding(
    fp: &Fingerprinter,
    max_delay_overhead_pct: f64,
) -> Result<ConstrainedEmbedding, FingerprintError> {
    // Order locations by target slack in the base design, descending.
    let timing = sta::analyze(fp.base()).expect("valid base");
    let mut order: Vec<usize> = (0..fp.locations().len()).collect();
    order.sort_by(|&a, &b| {
        let sa = timing.slack(fp.selected_modifications()[a].target());
        let sb = timing.slack(fp.selected_modifications()[b].target());
        sb.partial_cmp(&sa).expect("finite slack")
    });
    proactive_with_order(fp, max_delay_overhead_pct, &order)
}

/// Location indices ordered most-attack-survivable first (ties broken by
/// slack-free index order, so the result is deterministic).
///
/// Scores come from [`SurvivalStats`] measured by an attack battery
/// ([`crate::attack::run_battery`]); a location that was never embedded
/// during the battery, or whose widened shape is structurally
/// unidentifiable, scores `0` — the battery produced no evidence it can
/// survive anything.
pub fn robust_location_order(stats: &SurvivalStats) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stats.len()).collect();
    order.sort_by(|&a, &b| {
        stats
            .score(b)
            .partial_cmp(&stats.score(a))
            .expect("scores are finite")
            .then(a.cmp(&b))
    });
    order
}

/// The proactive method with attack-survival feedback — the
/// `--robust-locations` CLI path.
///
/// Two rules close the loop from attack evidence to embedding policy:
///
/// * **Skip proven-fragile wires.** A location whose widened shape is
///   structurally unidentifiable, or that was attacked and never
///   survived, is never embedded — delay budget spent there buys
///   evidence an attacker demonstrably erases. Locations the battery
///   never exercised are kept with a neutral `0.5` prior (absence of
///   evidence is not evidence of fragility).
/// * **Try survivors first.** Remaining locations are ordered by
///   measured survival rate, slack-rich first among equals, so a tight
///   budget goes to the wires most likely to outlive resynthesis.
///
/// `stats` must describe the same location list as `fp` (same circuit,
/// same engine).
///
/// # Errors
///
/// Propagates embedding errors.
///
/// # Panics
///
/// Panics if `stats` has a different location count than `fp`.
pub fn proactive_robust_embedding(
    fp: &Fingerprinter,
    max_delay_overhead_pct: f64,
    stats: &SurvivalStats,
) -> Result<ConstrainedEmbedding, FingerprintError> {
    let n = fp.locations().len();
    assert_eq!(
        stats.len(),
        n,
        "survival statistics describe a different location list"
    );
    let rank = |i: usize| -> Option<f64> {
        if !stats.identifiable.get(i).copied().unwrap_or(false) {
            return None; // structurally invisible: useless as evidence
        }
        if stats.tested[i] == 0 {
            return Some(0.5); // untested: neutral prior
        }
        if stats.survived[i] == 0 {
            return None; // attacked and always stripped: proven fragile
        }
        Some(f64::from(stats.survived[i]) / f64::from(stats.tested[i]))
    };
    let timing = sta::analyze(fp.base()).expect("valid base");
    let mut order: Vec<(usize, f64)> = (0..n).filter_map(|i| rank(i).map(|s| (i, s))).collect();
    order.sort_by(|&(a, score_a), &(b, score_b)| {
        let slack_a = timing.slack(fp.selected_modifications()[a].target());
        let slack_b = timing.slack(fp.selected_modifications()[b].target());
        score_b
            .partial_cmp(&score_a)
            .expect("finite score")
            .then(slack_b.partial_cmp(&slack_a).expect("finite slack"))
            .then(a.cmp(&b))
    });
    let order: Vec<usize> = order.into_iter().map(|(i, _)| i).collect();
    proactive_with_order(fp, max_delay_overhead_pct, &order)
}

fn proactive_with_order(
    fp: &Fingerprinter,
    max_delay_overhead_pct: f64,
    order: &[usize],
) -> Result<ConstrainedEmbedding, FingerprintError> {
    let n = fp.locations().len();
    let base_metrics = DesignMetrics::measure(fp.base());
    let limit = base_metrics.delay * (1.0 + max_delay_overhead_pct / 100.0);

    // Grow one netlist through an incremental session instead of rebuilding
    // the whole embedding for every trial: each candidate is tried on a
    // clone of the current state and committed only if the constraint still
    // holds. The selected modifications are conflict-free, so the result is
    // order-independent and matches the batch rebuild below.
    let mut kept = vec![false; n];
    let mut session = fp.embed_session()?;
    for &i in order {
        let mut trial = session.netlist().clone();
        apply_modification(&mut trial, &fp.selected_modifications()[i])?;
        if delay_of(&trial) <= limit {
            session.set_bit(i)?;
            kept[i] = true;
        }
    }

    let copy = build(fp, &kept, VerifyLevel::Simulation)?;
    let metrics = DesignMetrics::measure(copy.netlist());
    let removed = n - kept.iter().filter(|&&k| k).count();
    Ok(ConstrainedEmbedding {
        copy,
        base_metrics,
        metrics,
        fingerprint_reduction_pct: if n == 0 {
            0.0
        } else {
            removed as f64 / n as f64 * 100.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn engine(seed: u64) -> Fingerprinter {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(seed));
        Fingerprinter::new(base).unwrap()
    }

    fn overhead_pct(base: &DesignMetrics, m: &DesignMetrics) -> f64 {
        (m.delay - base.delay) / base.delay * 100.0
    }

    #[test]
    fn reactive_meets_constraint() {
        let fp = engine(100);
        assert!(!fp.locations().is_empty());
        for pct in [10.0, 5.0, 1.0] {
            let r = reactive_delay_reduction(&fp, pct, ReactiveOptions::default()).unwrap();
            let oh = overhead_pct(&r.base_metrics, &r.metrics);
            assert!(oh <= pct + 1e-9, "constraint {pct}%: got {oh}%");
            assert!(r.fingerprint_reduction_pct >= 0.0);
            assert!(r.fingerprint_reduction_pct <= 100.0);
        }
    }

    #[test]
    fn exhaustive_mode_meets_constraint() {
        let fp = engine(101);
        let r = reactive_delay_reduction(
            &fp,
            5.0,
            ReactiveOptions {
                exhaustive: true,
                ..ReactiveOptions::default()
            },
        )
        .unwrap();
        let oh = overhead_pct(&r.base_metrics, &r.metrics);
        assert!(oh <= 5.0 + 1e-9, "got {oh}%");
    }

    #[test]
    fn tighter_constraints_keep_fewer_locations() {
        let fp = engine(102);
        let loose = reactive_delay_reduction(&fp, 20.0, ReactiveOptions::default()).unwrap();
        let tight = reactive_delay_reduction(&fp, 1.0, ReactiveOptions::default()).unwrap();
        assert!(
            tight.kept_locations() <= loose.kept_locations(),
            "{} > {}",
            tight.kept_locations(),
            loose.kept_locations()
        );
    }

    #[test]
    fn proactive_meets_constraint() {
        let fp = engine(103);
        for pct in [10.0, 1.0] {
            let r = proactive_delay_embedding(&fp, pct).unwrap();
            let oh = overhead_pct(&r.base_metrics, &r.metrics);
            assert!(oh <= pct + 1e-9, "constraint {pct}%: got {oh}%");
        }
    }

    #[test]
    fn surviving_copy_is_equivalent() {
        // build() verifies by simulation; additionally prove it by SAT on a
        // small circuit.
        let fp = engine(104);
        let r = reactive_delay_reduction(&fp, 5.0, ReactiveOptions::default()).unwrap();
        let verdict = odcfp_sat::check_equivalence(fp.base(), r.copy.netlist(), None).unwrap();
        assert_eq!(verdict, odcfp_sat::EquivResult::Equivalent);
    }

    #[test]
    fn robust_order_ranks_by_survival_score() {
        let stats = SurvivalStats {
            attacks: 2,
            survived: vec![0, 2, 1, 0],
            tested: vec![2, 2, 2, 0],
            identifiable: vec![true, true, true, true],
        };
        assert_eq!(robust_location_order(&stats), vec![1, 2, 0, 3]);
    }

    #[test]
    fn robust_feedback_shifts_selection_toward_surviving_wires() {
        let fp = engine(106);
        let n = fp.locations().len();
        assert!(n >= 4, "need a few locations, got {n}");

        // Baseline: plain proactive under a moderate budget, keeping at
        // least two locations so there is a set to poison.
        let (pct, plain) = [10.0, 5.0, 2.0, 1.0]
            .into_iter()
            .find_map(|pct| {
                let r = proactive_delay_embedding(&fp, pct).unwrap();
                (r.kept_locations() >= 2).then_some((pct, r))
            })
            .expect("some budget keeps at least two locations");
        let plain_kept: Vec<usize> = plain
            .copy
            .bits()
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();

        // Feedback: every other wire the plain method embedded turns out
        // to be strippable (attacked once, never survived); everything
        // else survived its attack.
        let mut survived = vec![1u32; n];
        for (j, &i) in plain_kept.iter().enumerate() {
            if j % 2 == 0 {
                survived[i] = 0;
            }
        }
        let stats = SurvivalStats {
            attacks: 1,
            survived,
            tested: vec![1; n],
            identifiable: vec![true; n],
        };
        let robust = proactive_robust_embedding(&fp, pct, &stats).unwrap();
        let robust_kept: Vec<usize> = robust
            .copy
            .bits()
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        assert!(!robust_kept.is_empty(), "robust mode kept nothing");
        for &i in &robust_kept {
            assert_eq!(
                stats.score(i),
                1.0,
                "robust mode embedded proven-strippable location {i}"
            );
        }

        let mean =
            |kept: &[usize]| kept.iter().map(|&i| stats.score(i)).sum::<f64>() / kept.len() as f64;
        assert!(
            mean(&robust_kept) > mean(&plain_kept),
            "robust selection must shift toward surviving wires \
             (robust mean {}, plain mean {})",
            mean(&robust_kept),
            mean(&plain_kept)
        );
    }

    #[test]
    fn zero_constraint_strips_everything_critical() {
        let fp = engine(105);
        let r = reactive_delay_reduction(&fp, 0.0, ReactiveOptions::default()).unwrap();
        let oh = overhead_pct(&r.base_metrics, &r.metrics);
        assert!(oh <= 1e-9, "zero budget: got {oh}%");
    }
}
