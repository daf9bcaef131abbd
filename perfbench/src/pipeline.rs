//! `pipeline`: a single-threaded closed loop of what a batch user runs.
//!
//! Each candidate draws a circuit from [`MIX`], then runs
//!
//! 1. embed: parse the golden Verilog, locate (`Fingerprinter::new`),
//!    `embed_with_policy` under the strict policy, write Verilog;
//! 2. extract: parse the copy, `extract_by_name`;
//! 3. verify: parse golden and candidate, `verify_equivalent_report`
//!    under the strict policy (the cold ladder).
//!
//! One candidate in [`FAULT_ONE_IN`] carries a seeded wrong-cell fault
//! that the benchmark's own simulation shows is visible; it must be
//! refuted. Clean copies must be proven and must extract to their bits.

use std::sync::Arc;
use std::time::Instant;

use odcfp_core::{
    verify_equivalent_report, Fingerprinter, Verdict, VerifyLevel, VerifyPolicy, VerifyStats,
};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_verilog::{parse_verilog, write_verilog};

use crate::calibrate::{self, SetupClock};
use crate::circuits::{self, Golden};
use crate::report::Report;
use crate::stats::{mean, percentile, ratio};
use crate::trace::Tracer;
use crate::{Config, Scale, Stop};

/// Circuits and their counts per block of [`BLOCK`] candidates. c1908 is
/// an order of magnitude faster than des, and c6288 the slowest. Sorted
/// by time, embeds run 20% c1908, 60% des, 20% c6288, so the p50 is the
/// middle of the des mode and the p90 the middle of c6288's; verifies add
/// the fast refutations of faulted copies to the bottom (30% in all),
/// which still leaves the p50 well inside the des mode.
pub const MIX: [(&str, u64); 3] = [("c1908", 2), ("des", 6), ("c6288", 2)];

/// Candidates per block: each block holds exactly the [`MIX`] counts in
/// a seeded order, so a run's circuit composition does not vary with the
/// seed, only the order, the bits and the faults do. A block's timings
/// are scaled by the calibration probes taken beside it (see
/// [`crate::calibrate`]).
pub const BLOCK: u64 = 10;

/// Exactly one candidate in each run of this many carries a fault.
pub const FAULT_ONE_IN: u64 = 8;

/// Candidates a full run measures at least, so the p90 has ten samples
/// beyond it, even when the time window alone would give fewer.
const MIN_CANDIDATES: usize = 110;

/// Timings of one candidate.
#[derive(Debug, Clone, Copy)]
struct Sample {
    circuit: usize,
    /// Index of its block.
    block: u64,
    /// Calibration probe run just before it.
    probe_ms: f64,
    embed_ms: f64,
    extract_ms: f64,
    verify_ms: f64,
    /// The whole candidate, fault injection included.
    wall_ms: f64,
}

/// Layer counters gathered alongside the spans.
#[derive(Debug, Default)]
struct Counters {
    parse_bytes: f64,
    locations: Vec<f64>,
    bits: Vec<f64>,
    verify: Vec<VerifyStats>,
    undecided: usize,
}

/// Runs the workload.
pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    let names: Vec<&'static str> = MIX.iter().map(|(n, _)| *n).collect();
    let mut setup_tracer = Tracer::new(config.trace);
    let mut clock = SetupClock::default();
    let goldens = clock.time(|| circuits::generate(&names, &mut setup_tracer));
    // Set-up is timed again at every block boundary, so the fastest is
    // taken over the whole run rather than one moment of it.
    let mut resetup = || drop(clock.time(|| circuits::generate(&names, &mut setup_tracer)));
    let min = if config.scale == Scale::Full {
        MIN_CANDIDATES
    } else {
        2
    };

    if !config.trace {
        let window = config.window();
        let start = Instant::now();
        let samples = measure(
            config.seed,
            &goldens,
            Stop::Time { window, min },
            &mut resetup,
            &mut Tracer::new(false),
            &mut Counters::default(),
            &mut report,
        );
        let elapsed = start.elapsed().as_secs_f64();
        end_to_end(&mut report, &goldens, &samples, elapsed);
        report_setup(&mut report, &clock);
        return report;
    }

    // Traced run: an untraced pass over half the window, then the same
    // candidates again with spans on; the difference is the overhead.
    let half = config.window() / 2;
    let untraced = measure(
        config.seed,
        &goldens,
        Stop::Time {
            window: half,
            min: min.min(8),
        },
        &mut resetup,
        &mut Tracer::new(false),
        &mut Counters::default(),
        &mut report,
    );
    let mut tracer = Tracer::new(true);
    let mut counters = Counters::default();
    let traced = measure(
        config.seed,
        &goldens,
        Stop::Count(untraced.len()),
        &mut resetup,
        &mut tracer,
        &mut counters,
        &mut report,
    );
    let total = |s: &[Sample]| {
        mean(
            &s.iter()
                .map(|s| s.embed_ms + s.extract_ms + s.verify_ms)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = total(&traced) - total(&untraced);
    report.layer("trace.overhead_ms", overhead);
    report.layer("trace.overhead_share", ratio(overhead, total(&untraced)));
    report_setup(&mut report, &clock);
    layers(&mut report, &setup_tracer, &tracer, &counters);
    report.prov("traced_candidates", traced.len().to_string());
    crate::write_spans(config, &tracer);
    report
}

fn report_setup(report: &mut Report, clock: &SetupClock) {
    let setup_s = clock.seconds();
    report.e2e("setup_s", setup_s);
    report.named("setup_s", setup_s, "s");
    report.prov("setups_timed", clock.count().to_string());
}

/// The samples with their timings scaled by their block's probes.
fn scaled(samples: &[Sample]) -> Vec<Sample> {
    let blocks = samples.last().map_or(0, |s| s.block as usize + 1);
    let mut probes = vec![Vec::new(); blocks];
    for s in samples {
        probes[s.block as usize].push(s.probe_ms);
    }
    samples
        .iter()
        .map(|s| {
            let f = calibrate::factor(&probes[s.block as usize]);
            Sample {
                embed_ms: s.embed_ms * f,
                extract_ms: s.extract_ms * f,
                verify_ms: s.verify_ms * f,
                wall_ms: s.wall_ms * f,
                ..*s
            }
        })
        .collect()
}

fn end_to_end(report: &mut Report, goldens: &[Golden], raw: &[Sample], elapsed: f64) {
    let scaled = scaled(raw);
    let samples = &scaled[..];
    let ms = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let (mut embed, mut verify, mut extract) = (
        ms(|s| s.embed_ms),
        ms(|s| s.verify_ms),
        ms(|s| s.extract_ms),
    );
    let embed_p50 = percentile(&mut embed, 0.5);
    let embed_p90 = percentile(&mut embed, 0.9);
    let verify_p50 = percentile(&mut verify, 0.5);
    let verify_p90 = percentile(&mut verify, 0.9);
    let rate = ratio(
        samples.len() as f64,
        samples.iter().map(|s| s.wall_ms / 1e3).sum(),
    );
    report.e2e("lat_p50_ms", embed_p50.value);
    report.e2e("lat_tail_ms", embed_p90.value);
    report.e2e("lat2_p50_ms", verify_p50.value);
    report.e2e("lat2_tail_ms", verify_p90.value);
    report.e2e("rate_per_s", rate);
    report.named_pct("embed_ms_p50", embed_p50, "ms");
    report.named_pct("embed_ms_p90", embed_p90, "ms");
    report.named_pct("verify_ms_p50", verify_p50, "ms");
    report.named_pct("verify_ms_p90", verify_p90, "ms");
    report.named_pct("extract_ms_p50", percentile(&mut extract, 0.5), "ms");
    report.named("candidates_per_s", rate, "1/s");
    // Which circuit's mode each percentile landed in.
    let circuit_at = |value: f64, f: fn(&Sample) -> f64| {
        samples
            .iter()
            .find(|s| f(s) == value)
            .map_or("none", |s| goldens[s.circuit].name)
    };
    let modes = format!(
        "{{\"embed_p50\":\"{}\",\"embed_p90\":\"{}\",\"verify_p50\":\"{}\",\"verify_p90\":\"{}\"}}",
        circuit_at(embed_p50.value, |s| s.embed_ms),
        circuit_at(embed_p90.value, |s| s.embed_ms),
        circuit_at(verify_p50.value, |s| s.verify_ms),
        circuit_at(verify_p90.value, |s| s.verify_ms),
    );
    report.prov("percentile_modes", modes);
    let mix: Vec<String> = MIX
        .iter()
        .enumerate()
        .map(|(i, (n, w))| {
            let of = |f: fn(&Sample) -> f64| {
                let mut v: Vec<f64> = samples.iter().filter(|s| s.circuit == i).map(f).collect();
                crate::stats::median(&mut v)
            };
            format!(
                "\"{n}\":{{\"per_block\":{w},\"samples\":{},\"embed_ms_p50\":{:.1},\"verify_ms_p50\":{:.1}}}",
                samples.iter().filter(|s| s.circuit == i).count(),
                of(|s| s.embed_ms),
                of(|s| s.verify_ms),
            )
        })
        .collect();
    report.prov("mix", format!("{{{}}}", mix.join(",")));
    report.prov("block", BLOCK.to_string());
    let probes: Vec<f64> = raw.iter().map(|s| s.probe_ms).collect();
    report.prov("calibration_probe", calibrate::provenance(&probes));
    // The same figures unscaled, as the host ran them.
    let unscaled = |f: fn(&Sample) -> f64, q: f64| {
        percentile(&mut raw.iter().map(f).collect::<Vec<_>>(), q).value
    };
    report.prov(
        "unscaled",
        format!(
            "{{\"embed_ms_p50\":{:.3},\"embed_ms_p90\":{:.3},\"verify_ms_p50\":{:.3},\
             \"verify_ms_p90\":{:.3},\"candidates_per_s\":{:.4}}}",
            unscaled(|s| s.embed_ms, 0.5),
            unscaled(|s| s.embed_ms, 0.9),
            unscaled(|s| s.verify_ms, 0.5),
            unscaled(|s| s.verify_ms, 0.9),
            ratio(raw.len() as f64, raw.iter().map(|s| s.wall_ms / 1e3).sum()),
        ),
    );
    report.prov("fault_one_in", FAULT_ONE_IN.to_string());
    report.prov("measured_seconds", crate::report::json_num(elapsed));
}

fn layers(report: &mut Report, setup: &Tracer, tracer: &Tracer, counters: &Counters) {
    report.layer(
        "synth.generate_ms",
        setup.self_ms_per_call("synth.generate"),
    );
    report.layer("verilog.parse_ms", tracer.self_ms_per_call("verilog.parse"));
    let parse_s = tracer
        .totals()
        .get("verilog.parse")
        .map_or(0.0, |t| t.self_ms / 1e3);
    report.layer(
        "verilog.parse_mb_per_s",
        ratio(counters.parse_bytes / 1e6, parse_s),
    );
    report.layer("verilog.write_ms", tracer.self_ms_per_call("verilog.write"));
    report.layer("locate.ms", tracer.self_ms_per_call("core.locate"));
    report.layer("locate.locations", mean(&counters.locations));
    report.layer("embed.ms", tracer.self_ms_per_call("core.embed"));
    report.layer("embed.bits", mean(&counters.bits));
    report.layer("extract.ms", tracer.self_ms_per_call("core.extract"));
    report.layer("verify.ms", tracer.self_ms_per_call("core.verify"));
    verify_layers(report, &counters.verify);
    report.layer("verify.undecided", counters.undecided as f64);
    report.layer("unattributed.embed", tracer.unattributed("op.embed"));
    report.layer("unattributed.extract", tracer.unattributed("op.extract"));
    report.layer("unattributed.verify", tracer.unattributed("op.verify"));
}

/// The `verify.*` and `sat.*` layer metrics from a set of reports.
fn verify_layers(report: &mut Report, all: &[VerifyStats]) {
    let n = all.len() as f64;
    let sum = |f: fn(&VerifyStats) -> f64| all.iter().map(f).sum::<f64>();
    let proven = sum(|s| s.cut_points_proven as f64);
    let attempted = proven + sum(|s| (s.cut_points_refuted + s.cut_points_skipped) as f64);
    report.layer(
        "verify.patterns",
        ratio(sum(|s| s.patterns_simulated as f64), n),
    );
    report.layer(
        "verify.sat_conflicts",
        ratio(sum(|s| s.sat_conflicts as f64), n),
    );
    report.layer("verify.cut_points_proven", ratio(proven, n));
    report.layer(
        "verify.fast_path_ratio",
        ratio(sum(|s| f64::from(u8::from(s.used_fast_path))), n),
    );
    report.layer("verify.cut_point_yield", ratio(proven, attempted));
    let solver = |f: fn(&odcfp_sat::SolverStats) -> u64| sum_solver(all, f);
    report.layer("sat.decisions", ratio(solver(|s| s.decisions), n));
    report.layer("sat.propagations", ratio(solver(|s| s.propagations), n));
    report.layer("sat.restarts", ratio(solver(|s| s.restarts), n));
    let seconds = sum(|s| s.elapsed.as_secs_f64());
    report.layer(
        "sat.conflicts_per_s",
        ratio(solver(|s| s.conflicts), seconds),
    );
}

fn sum_solver(all: &[VerifyStats], f: fn(&odcfp_sat::SolverStats) -> u64) -> f64 {
    all.iter()
        .filter_map(|s| s.solver.as_ref())
        .map(|s| f(s) as f64)
        .sum()
}

/// Runs whole blocks of candidates `0, 1, 2, ...` until `stop`, a
/// calibration probe before each candidate and `resetup` before each
/// block.
fn measure(
    seed: u64,
    goldens: &[Golden],
    stop: Stop,
    resetup: &mut dyn FnMut(),
    tracer: &mut Tracer,
    counters: &mut Counters,
    report: &mut Report,
) -> Vec<Sample> {
    let library = CellLibrary::standard();
    let start = Instant::now();
    let mut samples = Vec::new();
    for index in 0.. {
        if index % BLOCK == 0 {
            if stop.reached(start.elapsed(), index as usize) {
                break;
            }
            resetup();
        }
        let probe_ms = calibrate::probe_ms();
        let begun = Instant::now();
        if let Some(mut sample) =
            candidate(seed, index, goldens, &library, tracer, counters, report)
        {
            sample.probe_ms = probe_ms;
            sample.wall_ms = ms_since(begun);
            samples.push(sample);
        }
    }
    samples
}

/// The circuit of candidate `index`: position `index % BLOCK` of its
/// block's seeded shuffle of the [`MIX`] counts.
fn pick(seed: u64, index: u64) -> usize {
    let mut block: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(i, (_, w))| std::iter::repeat_n(i, *w as usize))
        .collect();
    Xoshiro256::seed_from_u64(circuits::mix(seed, index / BLOCK)).shuffle(&mut block);
    block[(index % BLOCK) as usize]
}

/// Whether candidate `index` is the one faulted in its run of
/// [`FAULT_ONE_IN`].
fn faulted(seed: u64, index: u64) -> bool {
    let mut rng = Xoshiro256::seed_from_u64(circuits::mix(!seed, index / FAULT_ONE_IN));
    rng.next_u64() % FAULT_ONE_IN == index % FAULT_ONE_IN
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// What the embed op hands to the later ops.
struct Embedded {
    fp: Fingerprinter,
    bits: Vec<bool>,
    copy: Netlist,
    text: String,
    verdict: Verdict,
}

fn parse(
    tracer: &mut Tracer,
    counters: &mut Counters,
    text: &str,
    library: &Arc<CellLibrary>,
) -> Result<Netlist, String> {
    counters.parse_bytes += text.len() as f64;
    tracer
        .time("verilog.parse", || parse_verilog(text, Arc::clone(library)))
        .map_err(|e| format!("parse: {e}"))
}

fn embed_op(
    tracer: &mut Tracer,
    counters: &mut Counters,
    golden: &Golden,
    library: &Arc<CellLibrary>,
    bits_seed: u64,
) -> Result<Embedded, String> {
    let base = parse(tracer, counters, &golden.text, library)?;
    let fp = tracer
        .time("core.locate", || Fingerprinter::new(base))
        .map_err(|e| format!("locate: {e}"))?;
    let bits = circuits::seeded_bits(bits_seed, fp.locations().len());
    let (copy, verdict) = tracer
        .time("core.embed_with_policy", || {
            fp.embed_with_policy(&bits, &VerifyPolicy::strict())
        })
        .map_err(|e| format!("embed: {e}"))?;
    let text = tracer.time("verilog.write", || write_verilog(copy.netlist()));
    Ok(Embedded {
        fp,
        bits,
        copy: copy.into_netlist(),
        text,
        verdict,
    })
}

#[allow(clippy::too_many_arguments)]
fn candidate(
    seed: u64,
    index: u64,
    goldens: &[Golden],
    library: &Arc<CellLibrary>,
    tracer: &mut Tracer,
    counters: &mut Counters,
    report: &mut Report,
) -> Option<Sample> {
    let mut rng = Xoshiro256::seed_from_u64(circuits::mix(seed, index));
    let circuit = pick(seed, index);
    let bits_seed = rng.next_u64();
    let fault_seed = rng.next_u64();
    let faulty = faulted(seed, index);
    let golden = &goldens[circuit];
    let name = golden.name;

    // 1. embed
    tracer.next_op();
    let open = tracer.enter("op.embed");
    let start = Instant::now();
    let embedded = embed_op(tracer, counters, golden, library, bits_seed);
    let embed_ms = ms_since(start);
    tracer.exit(open);
    report.attempt();
    let e = match embedded {
        Ok(e) => e,
        Err(why) => {
            report.fail(format!("{name}#{index} {why}"));
            return None;
        }
    };
    if e.verdict != Verdict::Proven {
        report.wrong(format!("{name}#{index} embed verdict {}", e.verdict.name()));
    }
    counters.locations.push(e.bits.len() as f64);
    counters
        .bits
        .push(e.bits.iter().filter(|&&b| b).count() as f64);

    // 2. extract
    tracer.next_op();
    let open = tracer.enter("op.extract");
    let start = Instant::now();
    let extracted = parse(tracer, counters, &e.text, library).and_then(|suspect| {
        tracer
            .time("core.extract", || e.fp.extract_by_name(&suspect))
            .map_err(|err| format!("extract: {err}"))
    });
    let extract_ms = ms_since(start);
    tracer.exit(open);
    report.attempt();
    match extracted {
        Ok(bits) if bits == e.bits => {}
        Ok(_) => report.wrong(format!("{name}#{index} extract returned other bits")),
        Err(why) => report.fail(format!("{name}#{index} {why}")),
    }

    // The fault, outside any timed op.
    let fault = if faulty {
        circuits::visible_fault(&golden.netlist, &e.copy, fault_seed)
    } else {
        None
    };
    let candidate_text = match &fault {
        Some(f) => write_verilog(f),
        None => e.text.clone(),
    };

    // 3. verify
    tracer.next_op();
    let open = tracer.enter("op.verify");
    let start = Instant::now();
    let verified = parse(tracer, counters, &golden.text, library).and_then(|g| {
        let c = parse(tracer, counters, &candidate_text, library)?;
        tracer
            .time("core.verify", || {
                verify_equivalent_report(&g, &c, &VerifyPolicy::strict())
            })
            .map_err(|err| format!("verify: {err}"))
    });
    let verify_ms = ms_since(start);
    tracer.exit(open);
    report.attempt();
    match verified {
        Ok(r) => {
            let expected = if fault.is_some() { "refuted" } else { "proven" };
            if r.verdict.name() != expected {
                report.wrong(format!(
                    "{name}#{index} verify {} (expected {expected})",
                    r.verdict.name()
                ));
            }
            if tracer.is_on() {
                counters.undecided += usize::from(matches!(r.verdict, Verdict::Undecided { .. }));
                counters.verify.push(r.stats);
            }
        }
        Err(why) => report.fail(format!("{name}#{index} {why}")),
    }

    // Traced runs split the bundled embed_with_policy into its embed and
    // verify layers on the same input.
    if tracer.is_on() {
        tracer.next_op();
        let open = tracer.enter("op.split");
        let _ = tracer.time("core.embed", || {
            e.fp.embed_verified(&e.bits, VerifyLevel::None)
        });
        let _ = tracer.time("core.embed_verify", || {
            verify_equivalent_report(e.fp.base(), &e.copy, &VerifyPolicy::strict())
        });
        tracer.exit(open);
    }

    Some(Sample {
        circuit,
        block: index / BLOCK,
        probe_ms: 0.0,
        embed_ms,
        extract_ms,
        verify_ms,
        wall_ms: 0.0,
    })
}
