//! `population`: a delta-artifact campaign of [`BUYERS`] buyers on des,
//! then tracing of seeded coalitions against a `TracerIndex` built from
//! the minted codes.
//!
//! Verification is amortised into one code-space proof plus per-buyer
//! probes; the work is the proof, the fsynced journal and codebook
//! windows, and tracing. Each campaign gets its own seed, so a run repeats
//! the campaign and reports medians. Known answers: every buyer is
//! `proven`, every codebook record decodes to the bits `seed ⊕ buyer`
//! derives, and every coalition is convicted with no innocent accused.

use std::path::{Path, PathBuf};
use std::time::Instant;

use odcfp_core::attack::collude::{mix as mix_codes, MixStrategy};
use odcfp_core::campaign::{self, CampaignEnv, CampaignOptions, JobEvent, Manifest};
use odcfp_core::collusion::{TraceOutcome, TraceParams, TracerIndex};
use odcfp_core::{
    codebook_file, unpack_bits, CodeSpace, CodebookReader, CodebookRecord, Fingerprinter,
};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::Netlist;
use odcfp_sat::{SharedMiter, SolverConfig};
use odcfp_verilog::write_verilog;

use crate::calibrate::{self, SetupClock};
use crate::circuits::{self, Golden};
use crate::report::{json_num, Report};
use crate::stats::{mean, percentile, ratio};
use crate::trace::Tracer;
use crate::{Config, Scale, Stop};

/// The campaign circuit.
pub const CIRCUIT: &str = "des";

/// Buyers per campaign (full scale).
pub const BUYERS: usize = 50_000;

/// Buyers per durable codebook window (full scale).
pub const WINDOW: usize = 2_048;

/// Coalitions traced per campaign.
pub const COALITIONS: usize = 16;

/// Innocent standard deviations a conviction needs. The default 3.5
/// expects false accusations among [`BUYERS`] innocents. At 6.0 one
/// innocent was still accused in about 2000 traced coalitions: the
/// population's lowest-popcount buyer against a 2-way AND string, which
/// is three-quarters zeros. At 7.0 an innocent clears a test with
/// probability about 10^-12, so about 0.04 false accusations are expected
/// over a thousand full runs, while the 2- and 3-way AND and 3- and 5-way
/// majority coalitions still clear it by a wide margin.
pub const SIGMA: f64 = 7.0;

/// Campaigns a full run completes at least.
const MIN_CAMPAIGNS: usize = 8;

/// Set-ups timed before each campaign.
const SETUPS_PER_CAMPAIGN: usize = 4;

/// What one campaign measured.
#[derive(Debug, Default)]
struct Campaign {
    buyers: usize,
    /// Calibration probes: one before the campaign, one after each
    /// window, one before tracing.
    probes: Vec<f64>,
    /// Campaign wall time, the probes taken out.
    wall_ms: f64,
    golden_ms: f64,
    proof_ms: f64,
    proof_conflicts: u64,
    windows_ms: Vec<f64>,
    codebook_bytes: u64,
    read_ms: f64,
    index_ms: f64,
    trace_ms: Vec<f64>,
    innocents_accused: usize,
}

/// Runs the workload.
pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    let mut setup_tracer = Tracer::new(config.trace);
    let mut clock = SetupClock::default();
    let mut setup = |clock: &mut SetupClock| {
        clock.time(|| {
            circuits::generate(&[CIRCUIT], &mut setup_tracer)
                .pop()
                .expect("one circuit")
        })
    };
    let golden = setup(&mut clock);
    // Set-up is timed again before every campaign, so the fastest is taken
    // over the whole run rather than one moment of it.
    let mut resetup = || {
        for _ in 0..SETUPS_PER_CAMPAIGN {
            drop(setup(&mut clock));
        }
    };
    let (buyers, window) = match config.scale {
        Scale::Full => (BUYERS, WINDOW),
        Scale::Smoke => (300, 64),
    };
    let min = if config.scale == Scale::Full {
        MIN_CAMPAIGNS
    } else {
        1
    };
    let mut run = |stop: Stop, tracer: &mut Tracer, report: &mut Report| {
        measure(
            config.seed,
            &golden,
            buyers,
            window,
            stop,
            &mut resetup,
            tracer,
            report,
        )
    };
    let start = Instant::now();
    let (campaigns, tracer) = if config.trace {
        // An untraced pass over half the window, then the same campaigns
        // with spans on; the difference is the tracing overhead.
        let half = config.window() / 2;
        let untraced = run(
            Stop::Time {
                window: half,
                min: min.min(2),
            },
            &mut Tracer::new(false),
            &mut report,
        );
        let mut tracer = Tracer::new(true);
        let traced = run(Stop::Count(untraced.len()), &mut tracer, &mut report);
        let op_ms = |c: &[Campaign]| {
            mean(
                &c.iter()
                    .map(|c| c.wall_ms + c.read_ms + c.index_ms + c.trace_ms.iter().sum::<f64>())
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = op_ms(&traced) - op_ms(&untraced);
        report.layer("trace.overhead_ms", overhead);
        report.layer("trace.overhead_share", ratio(overhead, op_ms(&untraced)));
        (traced, tracer)
    } else {
        let mut tracer = Tracer::new(false);
        let campaigns = run(
            Stop::Time {
                window: config.window(),
                min,
            },
            &mut tracer,
            &mut report,
        );
        (campaigns, tracer)
    };
    let elapsed = start.elapsed().as_secs_f64();
    let setup_s = clock.seconds();
    report.e2e("setup_s", setup_s);
    report.named("setup_s", setup_s, "s");
    report.prov("setups_timed", clock.count().to_string());

    // The end-to-end timings, each campaign's scaled by the mean of its
    // probes.
    let factors: Vec<f64> = campaigns
        .iter()
        .map(|c| calibrate::factor(&c.probes))
        .collect();
    // Coalition `j` of a campaign is an AND coalition for even `j`, a
    // majority one for odd `j`; `None` takes both.
    let traces = |majority: Option<bool>| -> Vec<f64> {
        campaigns
            .iter()
            .zip(&factors)
            .flat_map(|(c, k)| {
                c.trace_ms
                    .iter()
                    .enumerate()
                    .filter(move |(j, _)| majority.is_none_or(|m| (j % 2 == 1) == m))
                    .map(move |(_, ms)| ms * k)
            })
            .collect()
    };
    let mut trace = traces(None);
    let mut trace_and = traces(Some(false));
    let mut trace_majority = traces(Some(true));
    // A window is scaled by the probes just before and after it, which
    // follow the host's speed more closely than the campaign's mean.
    let mut windows: Vec<f64> = campaigns
        .iter()
        .flat_map(|c| {
            c.windows_ms
                .iter()
                .enumerate()
                .map(|(i, ms)| ms * calibrate::factor(&c.probes[i..(i + 2).min(c.probes.len())]))
        })
        .collect();
    // Throughput: buyers over campaign wall time.
    let rate = ratio(
        campaigns.iter().map(|c| c.buyers as f64).sum(),
        campaigns
            .iter()
            .zip(&factors)
            .map(|(c, k)| c.wall_ms / 1e3 * k)
            .sum(),
    );
    let unscaled_rate = ratio(
        campaigns.iter().map(|c| c.buyers as f64).sum(),
        campaigns.iter().map(|c| c.wall_ms / 1e3).sum(),
    );
    let and_p50 = percentile(&mut trace_and, 0.5);
    let and_p90 = percentile(&mut trace_and, 0.9);
    let majority_p50 = percentile(&mut trace_majority, 0.5);
    let majority_p90 = percentile(&mut trace_majority, 0.9);
    // The two kinds of coalition are the two latencies. The codebook
    // window is not one of them: its p50 sits between two modes of
    // durable-write time, 12 and 17 ms, whose shares change with the
    // host, and moved 20% between two sets of ten runs; its cost is in
    // the campaign rate, and it is on the detail line.
    report.e2e("lat_p50_ms", and_p50.value);
    report.e2e("lat_tail_ms", and_p90.value);
    report.e2e("lat2_p50_ms", majority_p50.value);
    report.e2e("lat2_tail_ms", majority_p90.value);
    report.e2e("rate_per_s", rate);
    report.named("campaign_buyers_per_s", rate, "1/s");
    report.named_pct("trace_ms_p50", percentile(&mut trace, 0.5), "ms");
    report.named_pct("trace_ms_p90", percentile(&mut trace, 0.9), "ms");
    report.named_pct("trace_and_ms_p50", and_p50, "ms");
    report.named_pct("trace_and_ms_p90", and_p90, "ms");
    report.named_pct("trace_majority_ms_p50", majority_p50, "ms");
    report.named_pct("trace_majority_ms_p90", majority_p90, "ms");
    report.named_pct("window_ms_p50", percentile(&mut windows, 0.5), "ms");
    report.named_pct("window_ms_p90", percentile(&mut windows, 0.9), "ms");
    report.prov("circuit", format!("\"{CIRCUIT}\""));
    report.prov("buyers_per_campaign", buyers.to_string());
    report.prov("window", window.to_string());
    report.prov("campaigns", campaigns.len().to_string());
    let probes: Vec<f64> = campaigns.iter().flat_map(|c| c.probes.clone()).collect();
    report.prov("calibration_probe", calibrate::provenance(&probes));
    // The same figures unscaled, as the host ran them.
    let mut raw_trace: Vec<f64> = campaigns.iter().flat_map(|c| c.trace_ms.clone()).collect();
    let mut raw_windows: Vec<f64> = campaigns
        .iter()
        .flat_map(|c| c.windows_ms.clone())
        .collect();
    report.prov(
        "unscaled",
        format!(
            "{{\"trace_ms_p50\":{:.4},\"window_ms_p50\":{:.3},\"campaign_buyers_per_s\":{:.1}}}",
            percentile(&mut raw_trace, 0.5).value,
            percentile(&mut raw_windows, 0.5).value,
            unscaled_rate
        ),
    );
    report.prov("coalitions_per_campaign", COALITIONS.to_string());
    report.prov("trace_sigma", json_num(SIGMA));
    report.prov("measured_seconds", json_num(elapsed));

    if config.trace {
        layers(&mut report, &setup_tracer, &tracer, &campaigns);
        proof_split(&mut report, &golden);
        crate::write_spans(config, &tracer);
    }
    report
}

fn layers(report: &mut Report, setup: &Tracer, tracer: &Tracer, campaigns: &[Campaign]) {
    let avg = |f: fn(&Campaign) -> f64| mean(&campaigns.iter().map(f).collect::<Vec<_>>());
    report.layer(
        "synth.generate_ms",
        setup.self_ms_per_call("synth.generate"),
    );
    report.layer("campaign.golden_ms", avg(|c| c.golden_ms));
    report.layer("codespace.proof_ms", avg(|c| c.proof_ms));
    report.layer(
        "codespace.proof_conflicts",
        avg(|c| c.proof_conflicts as f64),
    );
    let mut windows: Vec<f64> = campaigns
        .iter()
        .flat_map(|c| c.windows_ms.clone())
        .collect();
    report.layer(
        "campaign.window_ms_p50",
        percentile(&mut windows, 0.5).value,
    );
    report.layer(
        "campaign.windows",
        ratio(windows.len() as f64, campaigns.len() as f64),
    );
    report.layer(
        "codebook.bytes_per_buyer",
        avg(|c| ratio(c.codebook_bytes as f64, c.buyers as f64)),
    );
    report.layer("codebook.read_ms", avg(|c| c.read_ms));
    report.layer("collusion.index_build_ms", avg(|c| c.index_ms));
    let trace: Vec<f64> = campaigns.iter().flat_map(|c| c.trace_ms.clone()).collect();
    report.layer("collusion.trace_ms", mean(&trace));
    report.layer(
        "collusion.innocents_accused",
        campaigns.iter().map(|c| c.innocents_accused as f64).sum(),
    );
    report.layer("unattributed.campaign", tracer.unattributed("op.campaign"));
    report.layer("unattributed.trace", tracer.unattributed("op.trace"));
}

/// The code-space proof the campaign bundles, re-run through the public
/// SAT layer so its solver statistics are visible.
fn proof_split(report: &mut Report, golden: &Golden) {
    let Ok(fp) = Fingerprinter::new(golden.netlist.clone()) else {
        return;
    };
    let Ok(space) = CodeSpace::build(&fp) else {
        return;
    };
    let start = Instant::now();
    let mut miter = SharedMiter::build_with(fp.base(), SolverConfig::default());
    let Ok(variant) =
        miter.add_selectable_variant(space.superposed(), space.selectable(), space.num_groups())
    else {
        return;
    };
    let _ = miter.check(variant.id(), None, None);
    let seconds = start.elapsed().as_secs_f64();
    let stats = miter.stats();
    report.layer("sat.decisions", stats.decisions as f64);
    report.layer("sat.propagations", stats.propagations as f64);
    report.layer("sat.restarts", stats.restarts as f64);
    report.layer(
        "sat.conflicts_per_s",
        ratio(stats.conflicts as f64, seconds),
    );
}

/// Runs campaigns `0, 1, 2, ...` until `stop`, each after `resetup` and
/// in its own directory under `.bench_out`, removed afterwards.
#[allow(clippy::too_many_arguments)]
fn measure(
    seed: u64,
    golden: &Golden,
    buyers: usize,
    window: usize,
    stop: Stop,
    resetup: &mut dyn FnMut(),
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<Campaign> {
    let root = PathBuf::from(".bench_out").join(format!("population-{seed}"));
    let start = Instant::now();
    let mut campaigns = Vec::new();
    for k in 0.. {
        if stop.reached(start.elapsed(), k as usize) {
            break;
        }
        resetup();
        let dir = root.join(k.to_string());
        let measured = campaign(
            golden,
            &dir,
            circuits::mix(seed, k),
            buyers,
            window,
            tracer,
            report,
        );
        let _ = std::fs::remove_dir_all(&dir);
        campaigns.extend(measured);
    }
    let _ = std::fs::remove_dir_all(&root);
    campaigns
}

/// Runs one campaign, reads its codebook back, and traces coalitions.
fn campaign(
    golden: &Golden,
    dir: &Path,
    seed: u64,
    buyers: usize,
    window: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<Campaign> {
    let _ = std::fs::remove_dir_all(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        report.attempt();
        report.fail(format!("create {}: {e}", dir.display()));
        return None;
    }
    let manifest = Manifest::parse(&format!(
        "circuit {CIRCUIT} path:{CIRCUIT}.v\nbuyers {buyers}\nseed {seed}\nretries 0\n\
         verify strict\nartifacts delta\nwindow {window}\n"
    ))
    .expect("benchmark manifest parses");
    let load =
        |_: &campaign::ManifestCircuit| -> Result<Netlist, String> { Ok(golden.netlist.clone()) };
    let emit = |n: &Netlist| write_verilog(n);
    let env = CampaignEnv {
        load: &load,
        emit: &emit,
    };
    let mut out = Campaign {
        buyers,
        probes: vec![calibrate::probe_ms()],
        ..Campaign::default()
    };
    let start = Instant::now();
    let mut last_mark: Option<Instant> = None;
    let mut proven_all = false;
    let mut probing_ms = 0.0;
    let mut on_event = |e: &JobEvent| {
        let now = Instant::now();
        match e {
            JobEvent::GoldenMinted { .. } => {
                out.golden_ms = (now - start).as_secs_f64() * 1e3;
                last_mark = Some(now);
            }
            JobEvent::CodeSpaceProven { conflicts, .. } => {
                out.proof_ms = last_mark.map_or(0.0, |m| (now - m).as_secs_f64() * 1e3);
                out.proof_conflicts = *conflicts;
                proven_all = true;
                last_mark = Some(now);
            }
            JobEvent::WindowCompleted { .. } => {
                if let Some(m) = last_mark {
                    out.windows_ms.push((now - m).as_secs_f64() * 1e3);
                }
                out.probes.push(calibrate::probe_ms());
                let resumed = Instant::now();
                probing_ms += (resumed - now).as_secs_f64() * 1e3;
                last_mark = Some(resumed);
            }
            _ => {}
        }
    };

    tracer.next_op();
    let open = tracer.enter("op.campaign");
    let summary = tracer.time("campaign.run", || {
        campaign::run(
            &manifest,
            dir,
            &env,
            &CampaignOptions::default(),
            &mut on_event,
        )
    });
    out.wall_ms = start.elapsed().as_secs_f64() * 1e3 - probing_ms;
    let path = dir.join(codebook_file(CIRCUIT));
    let read_start = Instant::now();
    let codes = tracer.time("codebook.read", || {
        read_codebook(&path, seed, buyers, report)
    });
    out.read_ms = read_start.elapsed().as_secs_f64() * 1e3;
    tracer.exit(open);

    // One op per buyer minted (plus the code-space proof), one per
    // codebook record read back; every buyer not minted `proven` fails.
    report.attempted += buyers as u64 + 1;
    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            report.fail_n(buyers as u64 + 1, format!("campaign {seed}: {e}"));
            return None;
        }
    };
    let proven = summary.verdicts.get("proven").copied().unwrap_or(0);
    if proven != buyers || !summary.poisoned.is_empty() {
        report.wrong_n(
            (buyers - proven.min(buyers)) as u64,
            format!(
                "campaign {seed}: {} of {buyers} completed, {} poisoned, verdicts {:?}",
                summary.completed,
                summary.poisoned.len(),
                summary.verdicts
            ),
        );
    }
    if !proven_all {
        report.wrong(format!("campaign {seed}: code space not proven"));
    }
    out.codebook_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let codes = codes?;

    let index_start = Instant::now();
    let index = tracer.time("collusion.index_build", || {
        TracerIndex::from_registry(&codes)
    });
    out.index_ms = index_start.elapsed().as_secs_f64() * 1e3;
    out.probes.push(calibrate::probe_ms());
    let params = TraceParams {
        sigma: SIGMA,
        ..TraceParams::default()
    };
    for j in 0..COALITIONS {
        let mut rng = Xoshiro256::seed_from_u64(circuits::mix(seed, j as u64));
        // Kinds and sizes alternate, so every campaign traces the same
        // number of each (random sizes put the p50s between the sizes'
        // modes in some runs and not others).
        let larger = (j / 2) % 2;
        let (strategy, size) = if j % 2 == 0 {
            (MixStrategy::BitwiseAnd, 2 + larger)
        } else {
            (MixStrategy::Majority, 3 + 2 * larger)
        };
        let mut members: Vec<usize> = Vec::with_capacity(size);
        while members.len() < size {
            let m = rng.next_below(codes.len());
            if !members.contains(&m) {
                members.push(m);
            }
        }
        members.sort_unstable();
        let forged = mix_codes(&codes, &members, strategy, &mut rng);
        tracer.next_op();
        let open = tracer.enter("op.trace");
        let trace_start = Instant::now();
        let verdict = tracer.time("collusion.trace", || index.verdict(&forged, &params));
        out.trace_ms.push(trace_start.elapsed().as_secs_f64() * 1e3);
        tracer.exit(open);
        report.attempt();
        let colluders = verdict
            .convicted
            .iter()
            .filter(|s| members.binary_search(&s.buyer).is_ok())
            .count();
        let innocents = verdict.convicted.len() - colluders;
        out.innocents_accused += innocents;
        if verdict.outcome != TraceOutcome::Convicted || colluders == 0 || innocents > 0 {
            report.wrong(format!(
                "campaign {seed} coalition {j} ({} of {size}): {} with {colluders} colluders, \
                 {innocents} innocents",
                strategy.name(),
                verdict.outcome.name()
            ));
        }
    }
    Some(out)
}

/// Reads the codebook back, checking each record against the bits the
/// campaign seed derives for its buyer; returns the codes in buyer order.
fn read_codebook(
    path: &Path,
    seed: u64,
    buyers: usize,
    report: &mut Report,
) -> Option<Vec<Vec<bool>>> {
    report.attempted += buyers as u64;
    let mut reader = match CodebookReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            report.fail_n(buyers as u64, format!("open codebook: {e}"));
            return None;
        }
    };
    let manifest_seed = Manifest::parse(&format!(
        "circuit {CIRCUIT} path:{CIRCUIT}.v\nbuyers {buyers}\nseed {seed}\n"
    ))
    .expect("benchmark manifest parses");
    let mut locations = 0;
    let mut codes: Vec<Option<Vec<bool>>> = vec![None; buyers];
    let mut bad = 0usize;
    while let Ok(Some(record)) = reader.next_record() {
        match record {
            CodebookRecord::Golden { locations: l, .. } => locations = l as usize,
            CodebookRecord::Code {
                buyer,
                bits,
                verdict,
                ..
            } => {
                let expected =
                    circuits::seeded_bits(manifest_seed.buyer_seed(buyer as usize), locations);
                let decoded = unpack_bits(&bits, locations);
                let slot = codes.get_mut(buyer as usize);
                match (decoded, slot) {
                    (Some(d), Some(slot)) if d == expected && verdict == "proven" => {
                        *slot = Some(d);
                    }
                    _ => bad += 1,
                }
            }
        }
    }
    let missing = codes.iter().filter(|c| c.is_none()).count();
    if bad > 0 || missing > 0 || reader.discarded() > 0 {
        report.wrong_n(
            ((bad + missing) as u64).max(1),
            format!(
                "codebook: {bad} records off their known bits or verdict, {missing} buyers \
                 missing, {} lines discarded",
                reader.discarded()
            ),
        );
        return None;
    }
    Some(codes.into_iter().flatten().collect())
}
