//! Differential tests for the observability payload-determinism
//! contract (DESIGN.md §12): the projection of a trace onto its `det`
//! events' `{kind, name, fields}` must be bit-identical at any thread
//! count. Timestamps, sequence numbers, and span durations are allowed
//! to vary; nothing else is.
//!
//! The traced workload deliberately crosses every instrumented layer:
//! location analysis (parallel workers), embedding (incremental dirty
//! regions), session verification (sweep fast path + SAT counters), and
//! a campaign with a quarantined job.

use odcfp_core::campaign::{run, CampaignEnv, CampaignOptions, Manifest};
use odcfp_core::{Fingerprinter, VerifyPolicy, VerifySession};
use odcfp_netlist::CellLibrary;
use odcfp_synth::benchmarks::random::{random_dag, DagParams};

/// Runs the full instrumented pipeline under a capture sink and returns
/// the deterministic payload projection.
fn traced_pipeline(tag: &str) -> Vec<String> {
    let dir = std::env::temp_dir().join("odcfp-trace-det").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let ((), events) = odcfp_obs::capture(|| {
        // Locate + embed + persistent-session verify (strict = untimed:
        // deadline-induced verdicts are the one documented exception to
        // the contract, so the differential avoids time limits). 20
        // inputs puts the design past the exhaustive-simulation cutoff,
        // forcing the SAT sweep fast path to run.
        let base = random_dag(
            CellLibrary::standard(),
            DagParams {
                inputs: 20,
                gates: 120,
                outputs: 8,
                window: 24,
                seed: 42,
            },
        );
        let fp = Fingerprinter::new(base).expect("fingerprinter");
        let mut session = VerifySession::new(fp.base()).expect("verify session");
        for seed in [1u64, 2] {
            let copy = fp.embed_seeded(seed).expect("embed");
            session
                .verify(copy.netlist(), &VerifyPolicy::strict())
                .expect("verify");
        }
        // Incremental location analysis: `engine.dirty_gates` counters.
        let mut es = fp.embed_session().expect("embed session");
        if !fp.locations().is_empty() {
            es.set_bit(0).expect("set bit");
            es.residual_locations().expect("residual locations");
        }
        // A campaign with healthy jobs and a quarantined one.
        let manifest = Manifest::parse(
            "circuit c path:c.v\ncircuit bomb probe:panic\nbuyers 2\nseed 7\nretries 0\n",
        )
        .expect("manifest");
        let env = CampaignEnv {
            load: &|_c| Ok(random_dag(CellLibrary::standard(), DagParams::small(9))),
            emit: &|n| format!("// {} gates\n", n.num_gates()),
        };
        run(
            &manifest,
            &dir,
            &env,
            &CampaignOptions::default(),
            &mut |_| {},
        )
        .expect("campaign");
    })
    .expect("no competing sink installed");
    odcfp_obs::payload_lines(&events)
}

#[test]
fn det_payload_bit_identical_across_thread_counts() {
    odcfp_analysis::engine::set_thread_override(Some(1));
    let one = traced_pipeline("threads-1");
    odcfp_analysis::engine::set_thread_override(Some(8));
    let eight = traced_pipeline("threads-8");
    odcfp_analysis::engine::set_thread_override(None);

    // The workload must actually exercise the instrumented layers —
    // an empty projection would make the equality below vacuous.
    for needle in [
        "verify.verdict",
        "verify.fastpath",
        "sat.conflicts",
        "engine.dirty_gates",
        "campaign.job.outcome",
        "campaign.quarantine",
        "campaign.summary",
    ] {
        assert!(
            one.iter().any(|l| l.contains(needle)),
            "payload must contain {needle}:\n{}",
            one.join("\n")
        );
    }
    assert_eq!(
        one, eight,
        "deterministic payload must not depend on the thread count"
    );
}

#[test]
fn quarantine_emits_structured_event_with_panic_payload() {
    let dir = std::env::temp_dir()
        .join("odcfp-trace-det")
        .join("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let ((), events) = odcfp_obs::capture(|| {
        let manifest = Manifest::parse("circuit bomb probe:panic\nretries 1\n").expect("manifest");
        let env = CampaignEnv {
            load: &|_c| Err("probes never load".into()),
            emit: &|_n| String::new(),
        };
        run(
            &manifest,
            &dir,
            &env,
            &CampaignOptions::default(),
            &mut |_| {},
        )
        .expect("campaign survives the poisoned job");
    })
    .expect("no competing sink installed");

    let q = events
        .iter()
        .find(|e| e.name == "campaign.quarantine")
        .expect("quarantine event emitted");
    assert!(q.det, "quarantine outcomes are part of the payload");
    assert_eq!(q.field_str("job"), Some("bomb#0"));
    assert_eq!(q.field_u64("attempts"), Some(2));
    let diagnostic = q.field_str("diagnostic").expect("diagnostic field");
    assert!(
        diagnostic.contains("deliberate panic in job bomb#0"),
        "diagnostic must carry the panic payload: {diagnostic}"
    );
    // Each failed attempt also left a structured breadcrumb.
    let failures = events
        .iter()
        .filter(|e| e.name == "campaign.attempt.failed")
        .count();
    assert_eq!(failures, 2);
}
