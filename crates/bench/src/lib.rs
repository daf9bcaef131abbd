//! Experiment harness regenerating the paper's tables and figures.
//!
//! Every table and figure of the evaluation section has a runner here and a
//! binary wrapping it:
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Table II (per-circuit capacity + overheads) | [`run_table2`] | `table2` |
//! | Table III (delay-constrained averages) | [`run_table3`] | `table3` |
//! | Fig. 7 (fingerprint bits, unconstrained vs constrained) | [`run_fig7`] | `fig7` |
//! | Policy/heuristic ablations (DESIGN.md §6) | [`run_policy_ablation`], [`run_heuristic_ablation`] | `ablation` |
//!
//! Criterion benches in `benches/` measure the *runtime* of each pipeline
//! stage; these runners measure *design quality*, which is what the paper
//! reports. All runs are deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Arc;

use odcfp_analysis::DesignMetrics;
use odcfp_core::heuristics::{
    proactive_delay_embedding, reactive_delay_reduction, ReactiveOptions,
};
use odcfp_core::{Fingerprinter, SelectionPolicy};
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_synth::benchmarks;

pub use odcfp_synth::benchmarks::TABLE2_NAMES;

/// The delay-overhead constraints of Table III, in percent.
pub const TABLE3_CONSTRAINTS: [f64; 3] = [10.0, 5.0, 1.0];

/// One reference row: `(name, gates, locations, log2_combinations, area%,
/// delay%, power%)`; power is `None` where the paper reports N/A.
pub type PaperTable2Row = (&'static str, usize, usize, f64, f64, f64, Option<f64>);

/// The paper's Table II reference values for shape comparison.
/// (C6288's power column is N/A in the paper and recorded as `None`.)
pub const PAPER_TABLE2: [PaperTable2Row; 14] = [
    ("c432", 166, 40, 68.07, 11.19, 54.69, Some(6.05)),
    ("c499", 409, 112, 177.16, 9.25, 31.23, Some(10.00)),
    ("c880", 255, 38, 66.58, 6.52, 47.05, Some(5.86)),
    ("c1355", 412, 118, 187.36, 9.86, 30.38, Some(9.44)),
    ("c1908", 395, 88, 151.25, 11.40, 46.53, Some(11.92)),
    ("c3540", 851, 179, 376.79, 10.10, 50.52, Some(9.46)),
    ("c6288", 3056, 420, 635.26, 6.29, 34.33, None),
    ("des", 3544, 782, 1438.62, 11.87, 75.00, Some(8.13)),
    ("k2", 1206, 241, 470.25, 13.36, 78.87, Some(8.64)),
    ("t481", 826, 178, 418.62, 13.49, 74.42, Some(7.08)),
    ("i10", 1600, 316, 601.15, 9.85, 48.70, Some(9.03)),
    ("i8", 1211, 235, 541.13, 9.45, 67.44, Some(10.63)),
    ("dalu", 836, 298, 507.57, 15.97, 47.13, Some(21.45)),
    ("vda", 635, 134, 277.42, 14.24, 58.98, Some(9.75)),
];

/// The paper's Table III reference averages:
/// `(constraint%, fingerprint reduction%, area%, delay%, power%)`.
pub const PAPER_TABLE3: [(f64, f64, f64, f64, f64); 3] = [
    (10.0, 49.00, 5.04, 9.42, 4.99),
    (5.0, 64.30, 3.57, 4.44, 2.46),
    (1.0, 81.03, 2.40, 0.41, 2.65),
];

/// One row of the regenerated Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Original gate count.
    pub gates: usize,
    /// Base metrics (columns 3–5 of the paper).
    pub base: DesignMetrics,
    /// Fingerprint locations found (column 6 analogue).
    pub locations: usize,
    /// `log2` of the possible fingerprint combinations (column 7).
    pub log2_combinations: f64,
    /// Area overhead percent after embedding every location (column 8).
    pub area_overhead_pct: f64,
    /// Delay overhead percent (column 9).
    pub delay_overhead_pct: f64,
    /// Power overhead percent (column 10).
    pub power_overhead_pct: f64,
}

/// Builds the fingerprinting engine for one named benchmark.
///
/// # Panics
///
/// Panics if the name is unknown (callers validate against
/// [`TABLE2_NAMES`]).
pub fn engine_for(name: &str, library: Arc<CellLibrary>) -> Fingerprinter {
    let base =
        benchmarks::generate(name, library).unwrap_or_else(|| panic!("unknown benchmark {name:?}"));
    Fingerprinter::new(base).expect("generated benchmarks validate")
}

fn measure_row(name: &str, fp: &Fingerprinter) -> Table2Row {
    let base = DesignMetrics::measure(fp.base());
    let cap = fp.capacity();
    let copy = fp.embed_all().expect("embedding preserves function");
    let marked = DesignMetrics::measure(copy.netlist());
    let oh = marked.overhead_vs(&base);
    Table2Row {
        name: name.to_owned(),
        gates: fp.base().num_gates(),
        base,
        locations: cap.num_locations,
        log2_combinations: cap.log2_combinations,
        area_overhead_pct: oh.area_pct,
        delay_overhead_pct: oh.delay_pct,
        power_overhead_pct: oh.power_pct,
    }
}

/// Regenerates Table II for the named benchmarks.
pub fn run_table2(names: &[&str]) -> Vec<Table2Row> {
    let lib = CellLibrary::standard();
    names
        .iter()
        .map(|name| {
            let fp = engine_for(name, lib.clone());
            measure_row(name, &fp)
        })
        .collect()
}

/// Formats Table II rows (plus averages) in the paper's column layout.
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>10} {:>7} {:>9} {:>6} {:>9} {:>8} {:>8} {:>8}",
        "circuit",
        "gates",
        "area",
        "delay",
        "power",
        "locs",
        "log2(FP)",
        "area%",
        "delay%",
        "power%"
    );
    let mut sums = [0.0f64; 3];
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>10.0} {:>7.2} {:>9.1} {:>6} {:>9.2} {:>8.2} {:>8.2} {:>8.2}",
            r.name,
            r.gates,
            r.base.area,
            r.base.delay,
            r.base.power,
            r.locations,
            r.log2_combinations,
            r.area_overhead_pct,
            r.delay_overhead_pct,
            r.power_overhead_pct
        );
        sums[0] += r.area_overhead_pct;
        sums[1] += r.delay_overhead_pct;
        sums[2] += r.power_overhead_pct;
    }
    let n = rows.len().max(1) as f64;
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>10} {:>7} {:>9} {:>6} {:>9} {:>8.2} {:>8.2} {:>8.2}",
        "AVG",
        "",
        "",
        "",
        "",
        "",
        "",
        sums[0] / n,
        sums[1] / n,
        sums[2] / n
    );
    out
}

/// One row of the regenerated Table III (averages over a benchmark set).
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Delay-overhead constraint in percent.
    pub constraint_pct: f64,
    /// Average percentage of fingerprint locations removed.
    pub fingerprint_reduction_pct: f64,
    /// Average surviving area overhead percent.
    pub area_overhead_pct: f64,
    /// Average surviving delay overhead percent.
    pub delay_overhead_pct: f64,
    /// Average surviving power overhead percent.
    pub power_overhead_pct: f64,
}

/// Which §III-D heuristic a Table III run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Table3Method {
    /// The paper's evaluated method (start full, remove until constrained).
    #[default]
    Reactive,
    /// The proactive alternative (add slack-rich locations first).
    Proactive,
}

/// Regenerates Table III: the chosen heuristic applied at each constraint,
/// averaged over the named benchmarks.
pub fn run_table3_with(
    names: &[&str],
    constraints: &[f64],
    method: Table3Method,
) -> Vec<Table3Row> {
    let lib = CellLibrary::standard();
    let engines: Vec<Fingerprinter> = names
        .iter()
        .map(|name| engine_for(name, lib.clone()))
        .collect();
    constraints
        .iter()
        .map(|&pct| {
            let mut sums = [0.0f64; 4];
            for fp in &engines {
                let r = match method {
                    Table3Method::Reactive => {
                        reactive_delay_reduction(fp, pct, ReactiveOptions::default())
                    }
                    Table3Method::Proactive => proactive_delay_embedding(fp, pct),
                }
                .expect("heuristic embeds valid subsets");
                let oh = r.metrics.overhead_vs(&r.base_metrics);
                sums[0] += r.fingerprint_reduction_pct;
                sums[1] += oh.area_pct;
                sums[2] += oh.delay_pct;
                sums[3] += oh.power_pct;
            }
            let n = engines.len().max(1) as f64;
            Table3Row {
                constraint_pct: pct,
                fingerprint_reduction_pct: sums[0] / n,
                area_overhead_pct: sums[1] / n,
                delay_overhead_pct: sums[2] / n,
                power_overhead_pct: sums[3] / n,
            }
        })
        .collect()
}

/// [`run_table3_with`] using the paper's reactive method.
pub fn run_table3(names: &[&str], constraints: &[f64]) -> Vec<Table3Row> {
    run_table3_with(names, constraints, Table3Method::Reactive)
}

/// Formats Table III rows in the paper's layout.
pub fn format_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>8} {:>8} {:>8}",
        "constraint", "FP reduce%", "area%", "delay%", "power%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>12.2} {:>8.2} {:>8.2} {:>8.2}",
            format!("{}% delay constraint", r.constraint_pct),
            r.fingerprint_reduction_pct,
            r.area_overhead_pct,
            r.delay_overhead_pct,
            r.power_overhead_pct
        );
    }
    out
}

/// One series of Figure 7: fingerprint size (bits) per circuit, before and
/// after each delay constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Series {
    /// Benchmark name.
    pub name: String,
    /// Unconstrained fingerprint size in bits (`log2` combinations).
    pub unconstrained_bits: f64,
    /// `(constraint%, surviving bits)` per constraint.
    pub constrained_bits: Vec<(f64, f64)>,
}

/// Regenerates Figure 7 for the named benchmarks.
///
/// Surviving bits after a constraint are computed over the locations the
/// reactive heuristic keeps.
pub fn run_fig7(names: &[&str], constraints: &[f64]) -> Vec<Fig7Series> {
    let lib = CellLibrary::standard();
    names
        .iter()
        .map(|name| {
            let fp = engine_for(name, lib.clone());
            let cap = fp.capacity();
            let per_location_bits: Vec<f64> = fp
                .locations()
                .iter()
                .map(|l| (l.num_configurations() as f64).log2())
                .collect();
            let constrained_bits = constraints
                .iter()
                .map(|&pct| {
                    let r = reactive_delay_reduction(&fp, pct, ReactiveOptions::default())
                        .expect("heuristic embeds valid subsets");
                    let bits: f64 = r
                        .copy
                        .bits()
                        .iter()
                        .zip(&per_location_bits)
                        .filter(|(&kept, _)| kept)
                        .map(|(_, &b)| b)
                        .sum::<f64>()
                        .max(0.0);
                    (pct, bits)
                })
                .collect();
            Fig7Series {
                name: (*name).to_owned(),
                unconstrained_bits: cap.log2_combinations,
                constrained_bits,
            }
        })
        .collect()
}

/// Renders Figure 7 as an ASCII bar chart (one group of bars per circuit).
pub fn format_fig7(series: &[Fig7Series]) -> String {
    let max_bits = series
        .iter()
        .map(|s| s.unconstrained_bits)
        .fold(1.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fingerprint size (bits) before/after delay constraints"
    );
    for s in series {
        let bar = |bits: f64| {
            let w = ((bits / max_bits) * 50.0).round() as usize;
            "#".repeat(w.max(usize::from(bits > 0.0)))
        };
        let _ = writeln!(
            out,
            "{:<8} unconstrained {:>8.1} |{}",
            s.name,
            s.unconstrained_bits,
            bar(s.unconstrained_bits)
        );
        for &(pct, bits) in &s.constrained_bits {
            let _ = writeln!(
                out,
                "{:<8} {:>3.0}% delay     {:>8.1} |{}",
                "",
                pct,
                bits,
                bar(bits)
            );
        }
    }
    out
}

/// Result of the selection-policy ablation (DESIGN.md §6.1): overheads of
/// the paper's depth-aware policy versus seeded-random selection.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyAblationRow {
    /// Benchmark name.
    pub name: String,
    /// Delay overhead with [`SelectionPolicy::DeepTargetEarlyTrigger`].
    pub deep_delay_pct: f64,
    /// Delay overhead with [`SelectionPolicy::Random`].
    pub random_delay_pct: f64,
    /// Area overheads, same order.
    pub deep_area_pct: f64,
    /// Area overhead for the random policy.
    pub random_area_pct: f64,
}

/// Runs the selection-policy ablation on the named benchmarks.
pub fn run_policy_ablation(names: &[&str], seed: u64) -> Vec<PolicyAblationRow> {
    let lib = CellLibrary::standard();
    names
        .iter()
        .map(|name| {
            let base = benchmarks::generate(name, lib.clone()).expect("known benchmark");
            let overheads = |policy: SelectionPolicy| {
                let fp = Fingerprinter::with_policy(base.clone(), policy).expect("valid");
                let bm = DesignMetrics::measure(fp.base());
                let copy = fp.embed_all().expect("equivalent");
                DesignMetrics::measure(copy.netlist()).overhead_vs(&bm)
            };
            let deep = overheads(SelectionPolicy::DeepTargetEarlyTrigger);
            let random = overheads(SelectionPolicy::Random(seed));
            PolicyAblationRow {
                name: (*name).to_owned(),
                deep_delay_pct: deep.delay_pct,
                random_delay_pct: random.delay_pct,
                deep_area_pct: deep.area_pct,
                random_area_pct: random.area_pct,
            }
        })
        .collect()
}

/// Result of the reactive-vs-proactive heuristic ablation (DESIGN.md §6.3).
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicAblationRow {
    /// Benchmark name.
    pub name: String,
    /// Constraint in percent.
    pub constraint_pct: f64,
    /// Locations kept by the reactive method.
    pub reactive_kept: usize,
    /// Locations kept by the proactive method.
    pub proactive_kept: usize,
    /// Final delay overhead of each method.
    pub reactive_delay_pct: f64,
    /// Final delay overhead of the proactive method.
    pub proactive_delay_pct: f64,
}

/// Runs the reactive-vs-proactive ablation on the named benchmarks.
pub fn run_heuristic_ablation(names: &[&str], constraint_pct: f64) -> Vec<HeuristicAblationRow> {
    let lib = CellLibrary::standard();
    names
        .iter()
        .map(|name| {
            let fp = engine_for(name, lib.clone());
            let re = reactive_delay_reduction(&fp, constraint_pct, ReactiveOptions::default())
                .expect("valid");
            let pro = proactive_delay_embedding(&fp, constraint_pct).expect("valid");
            HeuristicAblationRow {
                name: (*name).to_owned(),
                constraint_pct,
                reactive_kept: re.kept_locations(),
                proactive_kept: pro.kept_locations(),
                reactive_delay_pct: re.metrics.overhead_vs(&re.base_metrics).delay_pct,
                proactive_delay_pct: pro.metrics.overhead_vs(&pro.base_metrics).delay_pct,
            }
        })
        .collect()
}

/// Resolves CLI benchmark-name arguments: no arguments = full Table II
/// suite; `--fast` = a small representative subset.
///
/// # Panics
///
/// Panics with a friendly message on unknown names.
pub fn names_from_args(args: &[String]) -> Vec<&'static str> {
    if args.iter().any(|a| a == "--fast") {
        return vec!["c432", "c499", "c880", "vda"];
    }
    if args.is_empty() {
        return TABLE2_NAMES.to_vec();
    }
    args.iter()
        .map(|a| {
            TABLE2_NAMES
                .iter()
                .find(|n| n.eq_ignore_ascii_case(a))
                .copied()
                .unwrap_or_else(|| panic!("unknown benchmark {a:?}; known: {TABLE2_NAMES:?}"))
        })
        .collect()
}

/// A convenience used by benches: the mapped netlist for a benchmark name.
pub fn netlist_for(name: &str) -> Netlist {
    benchmarks::generate(name, CellLibrary::standard())
        .unwrap_or_else(|| panic!("unknown benchmark {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_runs_on_small_subset() {
        let rows = run_table2(&["c432"]);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.locations > 10);
        assert!(r.log2_combinations > r.locations as f64);
        assert!(r.area_overhead_pct > 0.0);
        let text = format_table2(&rows);
        assert!(text.contains("c432"));
        assert!(text.contains("AVG"));
    }

    #[test]
    fn table3_proactive_keeps_more() {
        let reactive = run_table3_with(&["c432"], &[10.0], Table3Method::Reactive);
        let proactive = run_table3_with(&["c432"], &[10.0], Table3Method::Proactive);
        assert!(proactive[0].delay_overhead_pct <= 10.0 + 1e-9);
        assert!(
            proactive[0].fingerprint_reduction_pct <= reactive[0].fingerprint_reduction_pct + 1e-9,
            "proactive should keep at least as many locations on c432"
        );
    }

    #[test]
    fn table3_monotone_reduction() {
        let rows = run_table3(&["c432"], &[10.0, 1.0]);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].fingerprint_reduction_pct >= rows[0].fingerprint_reduction_pct,
            "tighter constraint must remove at least as many locations"
        );
        assert!(rows[0].delay_overhead_pct <= 10.0 + 1e-9);
        assert!(rows[1].delay_overhead_pct <= 1.0 + 1e-9);
        let text = format_table3(&rows);
        assert!(text.contains("10% delay constraint"));
    }

    #[test]
    fn fig7_bits_shrink_under_constraint() {
        let series = run_fig7(&["c432"], &[10.0, 1.0]);
        let s = &series[0];
        assert!(s.unconstrained_bits > 0.0);
        assert!(s.constrained_bits[0].1 <= s.unconstrained_bits);
        assert!(s.constrained_bits[1].1 <= s.constrained_bits[0].1 + 1e-9);
        let chart = format_fig7(&series);
        assert!(chart.contains("c432"));
        assert!(chart.contains('#'));
    }

    #[test]
    fn ablations_run() {
        let rows = run_policy_ablation(&["c432"], 42);
        assert_eq!(rows.len(), 1);
        let h = run_heuristic_ablation(&["c432"], 10.0);
        assert!(h[0].reactive_delay_pct <= 10.0 + 1e-9);
        assert!(h[0].proactive_delay_pct <= 10.0 + 1e-9);
    }

    #[test]
    fn names_resolution() {
        assert_eq!(names_from_args(&[]).len(), 14);
        assert_eq!(names_from_args(&["--fast".into()]).len(), 4);
        assert_eq!(names_from_args(&["C432".into()]), vec!["c432"]);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        names_from_args(&["s38417".into()]);
    }
}
