//! Trace-derived per-stage timing breakdown: regenerates
//! `BENCH_stages.json` at the repository root and prints the markdown
//! table embedded in `EXPERIMENTS.md` (§ "Where the time goes").
//!
//! Usage: `cargo run --release -p odcfp-bench --bin stage_times
//! [--fast] [names...]`
//!
//! For each benchmark the whole pipeline — locate, embed one buyer,
//! fast-path verify — runs under an in-memory trace sink
//! ([`odcfp_obs::capture`]); the stage times are the *self* times of
//! the spans the pipeline itself emits, grouped by namespace, so the
//! table is exactly what `odcfp report` would print for a
//! `--trace-out` run of the same flow. Self time excludes enclosed
//! child spans, so the stage columns are disjoint; the `other` column
//! is the wall-clock total minus the staged sums (untraced setup work),
//! which keeps the columns summing to the measured total.

use std::path::PathBuf;

use odcfp_bench::netlist_for;
use odcfp_core::{Fingerprinter, Verdict, VerifyPolicy, VerifySession};

/// Per-buyer fingerprint bits (deterministic; same scheme as
/// `bench_verify` so the two reports describe the same workload).
fn buyer_bits(buyer: u64, n: usize) -> Vec<bool> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (buyer + 1).wrapping_mul(0x0DCF_5EED);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect()
}

struct Row {
    name: String,
    gates: usize,
    locations: usize,
    locate_ms: f64,
    embed_ms: f64,
    verify_ms: f64,
    other_ms: f64,
}

impl Row {
    fn total_ms(&self) -> f64 {
        self.locate_ms + self.embed_ms + self.verify_ms + self.other_ms
    }
}

/// Maps a span name to its pipeline stage.
fn stage_of(span: &str) -> &'static str {
    match span.split('.').next() {
        // Location analysis owns the engine workers it spawns and the
        // Fig. 6 selection pass that follows it.
        _ if span == "core.locate" || span == "core.select" => "locate",
        Some("engine") => "locate",
        _ if span == "core.embed" => "embed",
        Some("verify" | "sweep" | "sat" | "shared") => "verify",
        _ => "other",
    }
}

fn bench_circuit(name: &str) -> Row {
    let base = netlist_for(name);
    let gates = base.num_gates();
    eprintln!("{name}: tracing locate + embed + verify ({gates} gates)...");

    let wall = std::time::Instant::now();
    let ((locations, verdict_ok), events) = odcfp_obs::capture(|| {
        let fp = Fingerprinter::new(base.clone()).expect("valid benchmark");
        let n_loc = fp.locations().len();
        let copy = fp
            .embed(&buyer_bits(0, n_loc))
            .expect("embed preserves function");
        let mut session = VerifySession::new(fp.base()).expect("valid benchmark");
        let report = session
            .verify(copy.netlist(), &VerifyPolicy::strict())
            .expect("verify");
        (n_loc, matches!(report.verdict, Verdict::Proven))
    })
    .expect("no competing trace sink");
    let total_ms = wall.elapsed().as_secs_f64() * 1e3;
    assert!(verdict_ok, "{name}: fast path failed to prove the fingerprinted copy");

    let mut ms = std::collections::BTreeMap::new();
    for (span, self_us) in odcfp_obs::report::span_self_us(&events) {
        *ms.entry(stage_of(&span)).or_insert(0.0) += self_us as f64 / 1e3;
    }
    let locate_ms = ms.get("locate").copied().unwrap_or(0.0);
    let embed_ms = ms.get("embed").copied().unwrap_or(0.0);
    let verify_ms = ms.get("verify").copied().unwrap_or(0.0);
    Row {
        name: name.to_owned(),
        gates,
        locations,
        locate_ms,
        embed_ms,
        verify_ms,
        // Everything the named stages don't account for: untraced setup
        // (netlist clones, session construction) plus any span outside the
        // three namespaces. Wall total minus the staged sums — previously
        // this read only the (empty) "other" span bucket and printed 0.
        other_ms: (total_ms - locate_ms - embed_ms - verify_ms).max(0.0),
    }
}

fn markdown(rows: &[Row]) -> String {
    let mut md = String::new();
    md.push_str("| circuit | gates | locations | locate (ms) | embed (ms) | verify (ms) | total (ms) | verify share |\n");
    md.push_str("|---------|------:|----------:|------------:|-----------:|------------:|-----------:|-------------:|\n");
    for r in rows {
        let total = r.total_ms();
        md.push_str(&format!(
            "| {} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.0}% |\n",
            r.name,
            r.gates,
            r.locations,
            r.locate_ms,
            r.embed_ms,
            r.verify_ms,
            total,
            if total > 0.0 { 100.0 * r.verify_ms / total } else { 0.0 },
        ));
    }
    md
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let names: Vec<String> = {
        let named: Vec<String> = args.iter().filter(|a| !a.starts_with("--")).cloned().collect();
        if !named.is_empty() {
            named
        } else if fast {
            vec!["c432".into()]
        } else {
            vec!["c432".into(), "c880".into(), "c1908".into(), "des".into()]
        }
    };

    let rows: Vec<Row> = names.iter().map(|n| bench_circuit(n)).collect();

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"odcfp-bench-stages/1\",\n  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"gates\": {}, \"locations\": {}, \
             \"locate_ms\": {:.3}, \"embed_ms\": {:.3}, \"verify_ms\": {:.3}, \
             \"other_ms\": {:.3} }}{}\n",
            r.name,
            r.gates,
            r.locations,
            r.locate_ms,
            r.embed_ms,
            r.verify_ms,
            r.other_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_stages.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_stages.json");
    eprintln!("wrote {}", out.display());
    print!("{}", markdown(&rows));
}
