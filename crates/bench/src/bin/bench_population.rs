//! Population-scale benchmark: regenerates `BENCH_population.json` at
//! the repository root, measuring the three legs of the million-buyer
//! factory on `des` (the acceptance circuit):
//!
//! 1. **Delta artifacts** — a delta-mode campaign minting N buyers into
//!    one codebook, vs full per-buyer Verilog artifacts: bytes/buyer and
//!    mint+verify throughput.
//! 2. **Codebook batch verification** — one code-space proof (local
//!    per-location obligations, escalating an unsettled output to one
//!    exact obligation) plus N per-code combination checks, vs the
//!    incremental per-buyer [`VerifySession`] fast path (sampled and
//!    extrapolated), with verdict-for-verdict agreement on the sampled
//!    prefix.
//! 3. **Sublinear collusion tracing** — [`TracerIndex`] over 10^5 random
//!    codebooks vs the pairwise `trace_suspects` oracle, with ranking
//!    equality.
//!
//! Usage: `cargo run --release -p odcfp-bench --bin bench_population
//! [--fast] [--check] [--buyers N] [name]`
//!
//! - default: `des` at 10_000 buyers, 100_000 tracer codebooks.
//! - `--fast`: 1_000 buyers, 10_000 codebooks — the CI smoke tier runs
//!   this first for quick signal before the full 10k acceptance run.
//! - `--check`: exit non-zero unless the acceptance thresholds hold
//!   (≥100x bytes/buyer reduction, ≥5x verify speedup, tracer rankings
//!   identical to the oracle).
//!
//! The JSON records `"mode": "full"|"fast"`, so a committed file says
//! which tier produced it.

use std::path::PathBuf;
use std::time::Instant;

use odcfp_bench::netlist_for;
use odcfp_core::campaign::{self, CampaignEnv, CampaignOptions, JobEvent, Manifest};
use odcfp_core::collusion::{trace_suspects, TracerIndex};
use odcfp_core::{
    CancelToken, CodeSpace, CodeSpaceOutcome, Fingerprinter, Verdict, VerifyPolicy, VerifySession,
};
use odcfp_netlist::Netlist;
use odcfp_verilog::write_verilog;

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

/// Deterministic per-buyer codes for the standalone verify and tracer
/// legs (xorshift64*; the campaign leg uses the manifest seed schedule).
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

struct DeltaLeg {
    buyers: usize,
    locations: usize,
    mint_wall_s: f64,
    buyers_per_sec: f64,
    codebook_bytes: u64,
    golden_bytes: u64,
    delta_bytes_per_buyer: f64,
    full_bytes_per_buyer: f64,
    reduction: f64,
    verdicts_proven: bool,
}

/// Leg 1: run a real delta-mode campaign end to end (journal, codebook,
/// windows, batch verification) and compare its on-disk footprint with
/// what full artifact mode would have written.
fn delta_leg(name: &str, netlist: &Netlist, buyers: usize, window: usize) -> DeltaLeg {
    let dir = std::env::temp_dir().join(format!(
        "odcfp-bench-population-{}-{}",
        name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench dir");

    let manifest = Manifest::parse(&format!(
        "circuit {name} path:{name}.v\nbuyers {buyers}\nseed 42\nretries 0\n\
         verify strict\nartifacts delta\nwindow {window}\n"
    ))
    .expect("bench manifest");
    let load = |_: &campaign::ManifestCircuit| -> Result<Netlist, String> {
        Ok(netlist_for(name))
    };
    let emit = |n: &Netlist| write_verilog(n);
    let env = CampaignEnv {
        load: &load,
        emit: &emit,
    };
    let mut proven_all = false;
    let mut on_event = |e: &JobEvent| {
        if let JobEvent::CodeSpaceProven { .. } = e {
            proven_all = true;
        }
    };
    eprintln!("{name}: delta campaign, {buyers} buyers (window {window})...");
    let t0 = Instant::now();
    let summary = campaign::run(
        &manifest,
        &dir,
        &env,
        &CampaignOptions::default(),
        &mut on_event,
    )
    .expect("delta campaign");
    let mint_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(summary.completed, buyers, "campaign left buyers behind");
    assert!(proven_all, "{name}: expected a code-space proof");

    let codebook_bytes = std::fs::metadata(dir.join(odcfp_core::codebook_file(name)))
        .expect("codebook exists")
        .len();
    let golden_bytes = std::fs::metadata(
        dir.join(campaign::ARTIFACT_DIR)
            .join(format!("{name}.golden.v")),
    )
    .expect("golden artifact exists")
    .len();

    // What full mode would write per buyer: one complete Verilog file.
    let fp = Fingerprinter::new(netlist.clone()).expect("fingerprinter");
    let locations = fp.selected_modifications().len();
    let one = fp
        .embed(&buyer_bits(0, locations))
        .expect("embed");
    let full_bytes_per_buyer = write_verilog(one.netlist()).len() as f64;
    let delta_bytes_per_buyer = (codebook_bytes + golden_bytes) as f64 / buyers as f64;

    let _ = std::fs::remove_dir_all(&dir);
    DeltaLeg {
        buyers,
        locations,
        mint_wall_s,
        buyers_per_sec: buyers as f64 / mint_wall_s,
        codebook_bytes,
        golden_bytes,
        delta_bytes_per_buyer,
        full_bytes_per_buyer,
        reduction: full_bytes_per_buyer / delta_bytes_per_buyer,
        verdicts_proven: true,
    }
}

struct VerifyLeg {
    buyers: usize,
    proof_s: f64,
    proof_conflicts: u64,
    proof_obligations: usize,
    proof_escalated: usize,
    checks_s: f64,
    batch_total_s: f64,
    batch_buyers_per_sec: f64,
    per_buyer_sampled: usize,
    per_buyer_ms: f64,
    per_buyer_total_s: f64,
    speedup: f64,
    verdicts_match: bool,
}

/// Leg 2: code-space proof (local obligations) + N combination checks
/// vs the per-buyer incremental session fast path. The per-buyer baseline is
/// sampled (it is the very cost the batch path amortizes away) and
/// extrapolated linearly — exact in expectation, reported as sampled.
fn verify_leg(name: &str, netlist: &Netlist, buyers: usize, sample: usize) -> VerifyLeg {
    let fp = Fingerprinter::new(netlist.clone()).expect("fingerprinter");
    let locations = fp.selected_modifications().len();
    let token = CancelToken::new();

    eprintln!("{name}: proving the code space ({locations} locations)...");
    let space = CodeSpace::build(&fp).expect("code space");
    let mut session = VerifySession::new(fp.base()).expect("session");
    let t0 = Instant::now();
    let proof = space.prove(&mut session, None, &token).expect("proof");
    let proof_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        proof.outcome,
        CodeSpaceOutcome::ProvenAll,
        "{name}: code space must prove"
    );

    let t0 = Instant::now();
    let mut batch_verdicts = Vec::with_capacity(sample);
    for b in 0..buyers as u64 {
        let bits = buyer_bits(b, locations);
        let v = session.check_code(&proof, &bits, None, &token);
        if (b as usize) < sample {
            batch_verdicts.push(matches!(v, Verdict::Proven));
        }
    }
    let checks_s = t0.elapsed().as_secs_f64();
    let batch_total_s = proof_s + checks_s;

    // Per-buyer baseline: the incremental session fast path (the repo's
    // previous best), on pre-materialized buyer netlists so both sides
    // measure verification only.
    eprintln!("{name}: per-buyer baseline over {sample} sampled buyers...");
    let sampled: Vec<Netlist> = (0..sample as u64)
        .map(|b| {
            fp.embed(&buyer_bits(b, locations))
                .expect("embed")
                .into_netlist()
        })
        .collect();
    let policy = VerifyPolicy::strict();
    let mut baseline = VerifySession::new(fp.base()).expect("session");
    let t0 = Instant::now();
    let mut per_buyer_verdicts = Vec::with_capacity(sample);
    for candidate in &sampled {
        let report = baseline
            .verify(std::hint::black_box(candidate), &policy)
            .expect("verify");
        per_buyer_verdicts.push(matches!(report.verdict, Verdict::Proven));
    }
    let sampled_s = t0.elapsed().as_secs_f64();
    let per_buyer_ms = sampled_s * 1e3 / sample as f64;
    let per_buyer_total_s = sampled_s / sample as f64 * buyers as f64;

    VerifyLeg {
        buyers,
        proof_s,
        proof_conflicts: proof.conflicts,
        proof_obligations: proof.obligations,
        proof_escalated: proof.escalated,
        checks_s,
        batch_total_s,
        batch_buyers_per_sec: buyers as f64 / batch_total_s,
        per_buyer_sampled: sample,
        per_buyer_ms,
        per_buyer_total_s,
        speedup: per_buyer_total_s / batch_total_s,
        verdicts_match: batch_verdicts == per_buyer_verdicts,
    }
}

struct TraceLeg {
    codebooks: usize,
    locations: usize,
    coalition: usize,
    index_build_s: f64,
    index_trace_s: f64,
    oracle_trace_s: f64,
    speedup: f64,
    rankings_match: bool,
}

/// Leg 3: indexed tracing over a large random population vs the pairwise
/// oracle, on a majority-forged coalition string.
fn trace_leg(locations: usize, codebooks: usize, coalition: usize) -> TraceLeg {
    eprintln!("tracer: {codebooks} codebooks x {locations} locations...");
    let registry: Vec<Vec<bool>> = (0..codebooks as u64)
        .map(|b| buyer_bits(b, locations))
        .collect();

    let t0 = Instant::now();
    let index = TracerIndex::from_registry(&registry);
    let index_build_s = t0.elapsed().as_secs_f64();

    // A coalition of the first `coalition` buyers majority-forges one
    // string; both tracers rank the whole population against it.
    let forged: Vec<bool> = (0..locations)
        .map(|i| {
            let ones = registry[..coalition].iter().filter(|c| c[i]).count();
            ones * 2 >= coalition
        })
        .collect();

    let t0 = Instant::now();
    let indexed = index.trace(&forged);
    let index_trace_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let oracle = trace_suspects(&forged, &registry);
    let oracle_trace_s = t0.elapsed().as_secs_f64();

    TraceLeg {
        codebooks,
        locations,
        coalition,
        index_build_s,
        index_trace_s,
        oracle_trace_s,
        speedup: oracle_trace_s / index_trace_s,
        rankings_match: indexed == oracle,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let check = args.iter().any(|a| a == "--check");
    let buyers_override = args
        .iter()
        .position(|a| a == "--buyers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let name = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && args
                    .get(i.wrapping_sub(1))
                    .is_none_or(|p| p != "--buyers")
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or("des");

    let buyers = buyers_override.unwrap_or(if fast { 1_000 } else { 10_000 });
    let codebooks = if fast { 10_000 } else { 100_000 };
    let window = 2_048;
    let sample = 64.min(buyers);

    let netlist = netlist_for(name);
    let delta = delta_leg(name, &netlist, buyers, window);
    let verify = verify_leg(name, &netlist, buyers, sample);
    let trace = trace_leg(delta.locations, codebooks, 8);

    eprintln!(
        "{name} N={buyers}: mint+verify {:.1}s ({:.0} buyers/s), \
         {:.1} bytes/buyer vs {:.0} full ({:.0}x reduction)",
        delta.mint_wall_s, delta.buyers_per_sec, delta.delta_bytes_per_buyer,
        delta.full_bytes_per_buyer, delta.reduction,
    );
    eprintln!(
        "{name} verify: batch {:.1}s (proof {:.1}s + {} checks {:.2}s) vs \
         per-buyer {:.1}s extrapolated from {} x {:.1}ms ({:.1}x), verdicts_match={}",
        verify.batch_total_s, verify.proof_s, buyers, verify.checks_s,
        verify.per_buyer_total_s, verify.per_buyer_sampled, verify.per_buyer_ms,
        verify.speedup, verify.verdicts_match,
    );
    eprintln!(
        "tracer: {} codebooks, index build {:.2}s, trace {:.3}s vs oracle {:.3}s \
         ({:.1}x), rankings_match={}",
        trace.codebooks, trace.index_build_s, trace.index_trace_s, trace.oracle_trace_s,
        trace.speedup, trace.rankings_match,
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"odcfp-bench-population/3\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if fast { "fast" } else { "full" }
    ));
    json.push_str(&format!("  \"name\": \"{name}\",\n"));
    json.push_str("  \"delta_artifacts\": {\n");
    json.push_str(&format!("    \"buyers\": {},\n", delta.buyers));
    json.push_str(&format!("    \"locations\": {},\n", delta.locations));
    json.push_str(&format!("    \"mint_wall_s\": {},\n", json_f(delta.mint_wall_s)));
    json.push_str(&format!(
        "    \"buyers_per_sec\": {},\n",
        json_f(delta.buyers_per_sec)
    ));
    json.push_str(&format!("    \"codebook_bytes\": {},\n", delta.codebook_bytes));
    json.push_str(&format!("    \"golden_bytes\": {},\n", delta.golden_bytes));
    json.push_str(&format!(
        "    \"delta_bytes_per_buyer\": {},\n",
        json_f(delta.delta_bytes_per_buyer)
    ));
    json.push_str(&format!(
        "    \"full_bytes_per_buyer\": {},\n",
        json_f(delta.full_bytes_per_buyer)
    ));
    json.push_str(&format!("    \"reduction\": {},\n", json_f(delta.reduction)));
    json.push_str(&format!(
        "    \"all_proven\": {}\n",
        delta.verdicts_proven
    ));
    json.push_str("  },\n");
    json.push_str("  \"batch_verify\": {\n");
    json.push_str(&format!("    \"buyers\": {},\n", verify.buyers));
    json.push_str(&format!("    \"proof_s\": {},\n", json_f(verify.proof_s)));
    json.push_str(&format!("    \"proof_conflicts\": {},\n", verify.proof_conflicts));
    json.push_str(&format!("    \"proof_obligations\": {},\n", verify.proof_obligations));
    json.push_str(&format!("    \"proof_escalated\": {},\n", verify.proof_escalated));
    json.push_str(&format!("    \"checks_s\": {},\n", json_f(verify.checks_s)));
    json.push_str(&format!(
        "    \"batch_total_s\": {},\n",
        json_f(verify.batch_total_s)
    ));
    json.push_str(&format!(
        "    \"batch_buyers_per_sec\": {},\n",
        json_f(verify.batch_buyers_per_sec)
    ));
    json.push_str(&format!(
        "    \"per_buyer_sampled\": {},\n",
        verify.per_buyer_sampled
    ));
    json.push_str(&format!(
        "    \"per_buyer_ms\": {},\n",
        json_f(verify.per_buyer_ms)
    ));
    json.push_str(&format!(
        "    \"per_buyer_total_s\": {},\n",
        json_f(verify.per_buyer_total_s)
    ));
    json.push_str(&format!("    \"speedup\": {},\n", json_f(verify.speedup)));
    json.push_str(&format!(
        "    \"verdicts_match\": {}\n",
        verify.verdicts_match
    ));
    json.push_str("  },\n");
    json.push_str("  \"collusion_tracing\": {\n");
    json.push_str(&format!("    \"codebooks\": {},\n", trace.codebooks));
    json.push_str(&format!("    \"locations\": {},\n", trace.locations));
    json.push_str(&format!("    \"coalition\": {},\n", trace.coalition));
    json.push_str(&format!(
        "    \"index_build_s\": {},\n",
        json_f(trace.index_build_s)
    ));
    json.push_str(&format!(
        "    \"index_trace_s\": {},\n",
        json_f(trace.index_trace_s)
    ));
    json.push_str(&format!(
        "    \"oracle_trace_s\": {},\n",
        json_f(trace.oracle_trace_s)
    ));
    json.push_str(&format!("    \"speedup\": {},\n", json_f(trace.speedup)));
    json.push_str(&format!(
        "    \"rankings_match\": {}\n",
        trace.rankings_match
    ));
    json.push_str("  }\n}\n");

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_population.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_population.json");
    eprintln!("wrote {}", out.display());
    print!("{json}");

    if check {
        let mut failed = Vec::new();
        if delta.reduction < 100.0 {
            failed.push(format!(
                "bytes/buyer reduction {:.0}x below the 100x acceptance floor",
                delta.reduction
            ));
        }
        if verify.speedup < 5.0 {
            failed.push(format!(
                "batch verify speedup {:.1}x below the 5x acceptance floor",
                verify.speedup
            ));
        }
        if !verify.verdicts_match {
            failed.push("batch and per-buyer verdicts diverge".into());
        }
        if !trace.rankings_match {
            failed.push("indexed tracer diverges from the pairwise oracle".into());
        }
        if !failed.is_empty() {
            for f in &failed {
                eprintln!("REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("all population acceptance thresholds hold");
    }
}
