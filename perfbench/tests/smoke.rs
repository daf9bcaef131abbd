//! Smoke-scale runs of every workload, untraced and traced, plus a check
//! that `BENCHMARK.json` names exactly the metrics the benchmark prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use odcfp_perfbench::report::{END_TO_END, PER_LAYER};
use odcfp_perfbench::{run, Config, Report, Scale, Workload, HELD_OUT_SEED};

fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    })
}

fn assert_clean(report: &Report, trace: bool) {
    assert!(
        report.correct(),
        "wrong answers: {:?}",
        report.wrong_examples
    );
    assert_eq!(report.failed, 0, "failures: {:?}", report.wrong_examples);
    let line = report.result_line(trace);
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        assert!(
            line.contains(&format!("\"{name}\":{{\"value\":")) && line.contains(unit),
            "{name} missing from {line}"
        );
    }
    assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
    let detail = report.detail_line();
    for key in ["git_rev", "seed", "engine_threads", "nproc", "run_seconds"] {
        assert!(
            detail.contains(&format!("\"{key}\":")),
            "{key} missing from provenance"
        );
    }
}

#[test]
fn pipeline_smoke() {
    let report = smoke(Workload::Pipeline, 11, false);
    assert_clean(&report, false);
    assert!(report.detail_line().contains("\"embed_ms_p90\""));
    let traced = smoke(Workload::Pipeline, 12, true);
    assert_clean(&traced, true);
    assert!(traced.layers["locate.locations"] > 0.0);
    assert!(traced.layers["verify.ms"] > 0.0);
}

#[test]
fn population_smoke() {
    let report = smoke(Workload::Population, 21, false);
    assert_clean(&report, false);
    assert!(report.end_to_end["rate_per_s"] > 0.0);
    let traced = smoke(Workload::Population, 22, true);
    assert_clean(&traced, true);
    assert!(traced.layers["codespace.proof_conflicts"] > 0.0);
    assert_eq!(traced.layers["collusion.innocents_accused"], 0.0);
}

#[test]
fn serve_smoke() {
    let report = smoke(Workload::Serve, 31, false);
    assert_clean(&report, false);
    assert!(report.detail_line().contains("\"serve_p99_ms_low\""));
    let traced = smoke(Workload::Serve, 32, true);
    assert_clean(&traced, true);
    assert!(traced.layers["serve.exec_ms_p50"] > 0.0);
}

#[test]
fn held_out_seed_runs_clean() {
    for workload in Workload::ALL {
        assert_clean(&smoke(workload, HELD_OUT_SEED, false), false);
    }
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let named = |name: &str| text.matches(&format!("\"name\": \"{name}\"")).count();
    for workload in Workload::ALL {
        assert_eq!(named(workload.name()), 1, "workload {}", workload.name());
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert_eq!(named(name), 1, "metric {name}");
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} unit"
        );
    }
    let declared = text.matches("\"unit\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics declared"
    );
}
