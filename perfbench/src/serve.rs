//! `serve`: an open-loop generator walking a fixed ladder of request
//! rates against an in-process [`Server`] over loopback.
//!
//! Requests are due on a fixed schedule (evenly spaced at the rung's
//! rate) whatever the server does; each latency is timed from when the
//! request was due, so a stall also charges the requests queued behind
//! it, and the generator reports its own lateness. One generator thread
//! drives [`CONNS`] pipelined connections, multiplexed with `ppoll(2)`.
//! Circuits are drawn Zipf-style from [`CIRCUITS`], whose warm state
//! exceeds the server's cache budget, so cache-miss rebuilds run beside
//! hits. Every reply is checked against its known answer.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odcfp_core::{
    CancelToken, CodeSpace, CodeSpaceProof, Fingerprinter, VerifyLevel, VerifyPolicy, VerifySession,
};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{CellLibrary, Digest};
use odcfp_serve::proto::{request_line, FieldValue};
use odcfp_serve::{payload_digest, Frame, Reply, ServeSummary, Server, ServerConfig};
use odcfp_verilog::{parse_verilog, write_verilog};

use crate::calibrate::{self, SetupClock};
use crate::circuits::{self, Golden};
use crate::report::{json_num, Report};
use crate::stats::{mean, percentile, ratio};
use crate::trace::Tracer;
use crate::{Config, Scale};

/// Circuits the requests name: five small ones (ISCAS-class stand-ins and
/// seeded random DAGs), drawn Zipf-style in this rank order, that
/// together fit the cache; and last a 1700-gate random DAG whose
/// estimated warm state alone exceeds the whole budget, so the server
/// rebuilds it cold (parse, locate, code-space proof: about 20 ms) on
/// every request for it.
pub const CIRCUITS: [&str; 6] = ["c499", "c880", "c432", "rnd300s1", "rnd300s3", "rnd1700s14"];

/// Zipf exponent of the draw over the five cached circuits.
pub const ZIPF_S: f64 = 1.0;

/// Exactly one request in each run of this many, at a seeded position,
/// is a code verify naming the cold circuit; 50 puts the p99 near the
/// middle of its rebuild latencies rather than in their tail, and a fixed
/// count keeps it there whatever the seed.
pub const COLD_ONE_IN: u64 = 50;

/// Server warm-cache budget, MB: the five small circuits' estimated warm
/// state (0.99 MB) fits, the large one's (1.17 MB) does not.
pub const CACHE_BUDGET_MB: f64 = 1.0;

/// Server worker threads.
pub const WORKERS: usize = 2;

/// Pipelined client connections.
pub const CONNS: usize = 2;

/// Tenants requests are spread over.
pub const TENANTS: u64 = 4;

/// Reply payloads at least this large stream as `chunk`/`done` frames.
pub const STREAM_THRESHOLD: usize = 16 * 1024;

/// Request mix: code-candidate verify, netlist verify, embed, locations,
/// as exact counts per block of 20 requests in a seeded order, so a
/// run's composition does not vary with the seed.
pub const MIX: [(Kind, u64); 4] = [
    (Kind::CodeVerify, 14),
    (Kind::NetlistVerify, 3),
    (Kind::Embed, 2),
    (Kind::Locations, 1),
];

/// One netlist-verify candidate in this many carries a visible fault.
pub const FAULT_ONE_IN: u64 = 8;

/// The rate ladder, requests per second. Every rung runs the same
/// number of requests, so each percentile has the same sample count.
/// The top rung is beyond what the server sustains on a 2-core host:
/// the rate it answers there is its capacity.
pub const LADDER: [f64; 4] = [100.0, 200.0, 300.0, 1200.0];

/// The top rung runs this many times the requests of the others, so the
/// capacity is measured over seconds of saturation, not a short burst.
pub const TOP_SHARE: usize = 3;

/// Requests of rung `rung` when the others run `per_rung`.
fn requests(per_rung: usize, rung: usize) -> usize {
    if rung + 1 == LADDER.len() {
        per_rung * TOP_SHARE
    } else {
        per_rung
    }
}

/// Each rung runs in this many passes, interleaved with the other rungs'
/// (pass 0 of every rung, then pass 1, ...), so every rung sees the host
/// at several moments of the run. Calibration probes run before and after
/// each pass while the server is idle; they scale the pass's CPU-bound
/// figures (see [`crate::calibrate`]).
pub const PASSES: usize = 8;

/// Set-ups timed before each cycle of passes.
const SETUPS_PER_CYCLE: usize = 2;

/// Index of the rung reported as `low`.
pub const LOW: usize = 0;

/// Index of the rung reported as `high`.
pub const HIGH: usize = 1;

/// p99 latency limit a rung must meet to count toward `rps_at_slo`.
pub const SLO_P99_MS: f64 = 150.0;

/// A rung's backlog is growing when, at its last send, more than this
/// share of its requests are still unanswered.
const BACKLOG_GROWING: f64 = 0.02;

/// How long a rung waits for its last replies before counting them lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The request kinds of [`MIX`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `verify` with `candidate_bits` (the cheap code path).
    CodeVerify,
    /// `verify` with a candidate netlist.
    NetlistVerify,
    /// `embed` by seed.
    Embed,
    /// `locations`.
    Locations,
}

/// A served circuit and the files and answers the requests use.
#[derive(Debug)]
struct Served {
    golden: Golden,
    /// Golden path relative to the serve root.
    path: String,
    locations: usize,
    /// Clean candidate netlist paths (answer: proven).
    clean: Vec<String>,
    /// A candidate with a visible fault (answer: refuted).
    faulty: String,
}

/// What a reply must say.
#[derive(Debug, Clone)]
enum Expect {
    Verdict(&'static str),
    Embed { bits: String },
    Locations(usize),
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Planned {
    kind: Kind,
    circuit: usize,
    /// Offset of its due time from the rung's start.
    due: Duration,
    line: String,
    expect: Expect,
    /// For in-process execution: the code bits, embed seed, or candidate.
    bits: Vec<bool>,
    seed: u64,
    candidate: Option<String>,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, Default)]
struct Outcome {
    due: Option<Instant>,
    sent: Option<Instant>,
    done: Option<Instant>,
    answered: bool,
    cache_miss: bool,
    cache_hit: bool,
    batched: bool,
    batch: u64,
    verify: bool,
}

/// Results of one pass of a rung, or of a rung's passes merged.
#[derive(Debug, Default)]
struct Rung {
    rps: f64,
    /// Calibration factor of the pass (1 once merged).
    factor: f64,
    sent: usize,
    latencies: Vec<f64>,
    /// `latencies`, each scaled by its pass's calibration factor.
    scaled_latencies: Vec<f64>,
    lags: Vec<f64>,
    /// Seconds from the first due time until the last reply (at least
    /// the schedule's length).
    busy_s: f64,
    /// `busy_s` scaled by the calibration factor.
    scaled_busy_s: f64,
    backlog_max: usize,
    /// At its last send, more than [`BACKLOG_GROWING`] of the requests
    /// were unanswered.
    growing: bool,
    outcomes: Vec<Outcome>,
    /// The schedule, kept for in-process re-execution.
    plan: Vec<Planned>,
}

impl Rung {
    /// Replies per second over the time the server was busy with it.
    fn achieved_rps(&self) -> f64 {
        ratio(self.latencies.len() as f64, self.busy_s)
    }

    /// Replies per second over the scaled busy time: the rate the server
    /// would answer at on the reference host.
    fn scaled_rps(&self) -> f64 {
        ratio(self.latencies.len() as f64, self.scaled_busy_s)
    }

    /// Merges one rung's passes.
    fn merge(passes: Vec<Rung>) -> Rung {
        let mut out = Rung {
            factor: 1.0,
            ..Rung::default()
        };
        for pass in passes {
            out.rps = pass.rps;
            out.sent += pass.sent;
            out.scaled_latencies
                .extend(pass.latencies.iter().map(|ms| ms * pass.factor));
            out.latencies.extend(pass.latencies);
            out.lags.extend(pass.lags);
            out.busy_s += pass.busy_s;
            out.scaled_busy_s += pass.busy_s * pass.factor;
            out.backlog_max = out.backlog_max.max(pass.backlog_max);
            out.growing |= pass.growing;
            out.outcomes.extend(pass.outcomes);
            out.plan.extend(pass.plan);
        }
        out
    }
}

/// Runs the workload.
pub fn run(config: &Config) -> Report {
    let mut report = Report::default();
    let root = PathBuf::from(".bench_out").join(format!("serve-{}", config.seed));
    let spare = PathBuf::from(".bench_out").join(format!("serve-{}-setup", config.seed));
    let mut setup_tracer = Tracer::new(config.trace);
    let mut clock = SetupClock::default();
    let served = clock.time(|| prepare(&root, config.seed, &mut setup_tracer));
    // Set-up is timed again, into a spare directory, before every cycle
    // of passes, so the fastest is taken over the whole run rather than
    // one moment of it.
    let mut resetup = || {
        for _ in 0..SETUPS_PER_CYCLE {
            drop(clock.time(|| prepare(&spare, config.seed, &mut setup_tracer)));
        }
        let _ = std::fs::remove_dir_all(&spare);
    };
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            report.attempt();
            report.fail(format!("serve setup: {e}"));
            return report;
        }
    };

    let per_rung = match config.scale {
        // Equal request counts on the lower rungs, filling the run length.
        Scale::Full => {
            let seconds_per_request: f64 = (0..LADDER.len())
                .map(|r| requests(1, r) as f64 / LADDER[r])
                .sum();
            (config.seconds / seconds_per_request).round() as usize
        }
        Scale::Smoke => 8 * PASSES,
    };
    let passes: &[bool] = if config.trace {
        &[false, true]
    } else {
        &[false]
    };
    let mut ladders = Vec::new();
    let mut tracer = Tracer::new(config.trace);
    let mut summary = ServeSummary::default();
    let mut probes = Vec::new();
    for &traced in passes {
        // A traced run measures an untraced ladder first, then a traced
        // one with half the requests each; the difference is the
        // overhead of recording spans.
        let n = if config.trace { per_rung / 2 } else { per_rung }.max(1);
        match ladder(
            &root,
            &served,
            config.seed,
            n,
            traced,
            &mut resetup,
            &mut tracer,
            &mut report,
        ) {
            Ok((rungs, p, s)) => {
                ladders.push(rungs);
                probes.extend(p);
                summary = s;
            }
            Err(e) => {
                report.attempt();
                report.fail(format!("serve: {e}"));
                let _ = std::fs::remove_dir_all(&root);
                return report;
            }
        }
    }
    let setup_s = clock.seconds();
    report.e2e("setup_s", setup_s);
    report.named("setup_s", setup_s, "s");
    report.prov("setups_timed", clock.count().to_string());
    let rungs = ladders.pop().expect("one pass ran");
    end_to_end(&mut report, &rungs, per_rung);
    report.prov("calibration_probe", calibrate::provenance(&probes));
    if config.trace {
        let untraced = ladders.pop().expect("two passes ran");
        let p50 = |r: &[Rung]| percentile(&mut r[LOW].latencies.clone(), 0.5).value;
        let overhead = p50(&rungs) - p50(&untraced);
        report.layer("trace.overhead_ms", overhead);
        report.layer("trace.overhead_share", ratio(overhead, p50(&untraced)));
        layers(
            &mut report,
            &setup_tracer,
            &tracer,
            &rungs,
            &served,
            &root,
            summary,
        );
        crate::write_spans(config, &tracer);
    }
    report.prov(
        "server_summary",
        format!(
            "{{\"served\":{},\"rejected\":{},\"panics\":{}}}",
            summary.served, summary.rejected, summary.panics
        ),
    );
    let _ = std::fs::remove_dir_all(&root);
    report
}

fn end_to_end(report: &mut Report, rungs: &[Rung], per_rung: usize) {
    let mut p50s = Vec::new();
    let mut p99s = Vec::new();
    let mut scaled_p99s = Vec::new();
    for rung in rungs {
        let mut l = rung.latencies.clone();
        p50s.push(percentile(&mut l, 0.5));
        p99s.push(percentile(&mut l, 0.99));
        scaled_p99s.push(percentile(&mut rung.scaled_latencies.clone(), 0.99));
    }
    // The highest rung meeting the SLO without a growing backlog, as the
    // rate the server actually answered at on it.
    let at_slo = rungs
        .iter()
        .zip(&p99s)
        .filter(|(r, p99)| p99.value <= SLO_P99_MS && !r.growing && r.latencies.len() == r.sent)
        .map(|(r, _)| r.achieved_rps())
        .next_back()
        .unwrap_or(0.0);
    // What the server answers per second when offered more than it can
    // take: the top rung's answered rate. Unlike `at_slo`, which can
    // only read near a rung's rate, it moves with the cost of a request.
    let capacity = rungs.last().map_or(0.0, Rung::scaled_rps);
    // The p50s are mostly the executor's 2 ms batch gather window, a
    // timer the host's speed does not stretch, so they are not scaled;
    // the p99s are cold rebuilds, CPU work, and are.
    report.e2e("lat_p50_ms", p50s[LOW].value);
    report.e2e("lat_tail_ms", scaled_p99s[LOW].value);
    report.e2e("lat2_p50_ms", p50s[HIGH].value);
    report.e2e("lat2_tail_ms", scaled_p99s[HIGH].value);
    report.e2e("rate_per_s", capacity);
    report.named_pct("serve_p50_ms_low", p50s[LOW], "ms");
    report.named_pct("serve_p99_ms_low", scaled_p99s[LOW], "ms");
    report.named_pct("serve_p50_ms_high", p50s[HIGH], "ms");
    report.named_pct("serve_p99_ms_high", scaled_p99s[HIGH], "ms");
    report.named("serve_rps_at_slo", at_slo, "1/s");
    report.named("serve_capacity_rps", capacity, "1/s");
    report.prov(
        "unscaled",
        format!(
            "{{\"serve_p99_ms_low\":{:.3},\"serve_p99_ms_high\":{:.3},\"serve_capacity_rps\":{:.1}}}",
            p99s[LOW].value,
            p99s[HIGH].value,
            rungs.last().map_or(0.0, Rung::achieved_rps)
        ),
    );
    let mut lags: Vec<f64> = rungs.iter().flat_map(|r| r.lags.clone()).collect();
    report.named_pct("serve_sched_lag_ms_p99", percentile(&mut lags, 0.99), "ms");
    let rows: Vec<String> = rungs
        .iter()
        .zip(p50s.iter().zip(&p99s))
        .map(|(r, (p50, p99))| {
            format!(
                "{{\"rps\":{},\"requests\":{},\"answered\":{},\"achieved_rps\":{},\"p50_ms\":{},\
                 \"p99_ms\":{},\"p99_beyond\":{},\"backlog_max\":{},\"backlog_growing\":{},\
                 \"cache_misses\":{}}}",
                json_num(r.rps),
                r.sent,
                r.latencies.len(),
                json_num(r.achieved_rps()),
                json_num(p50.value),
                json_num(p99.value),
                p99.beyond,
                r.backlog_max,
                r.growing,
                r.outcomes.iter().filter(|o| o.cache_miss).count()
            )
        })
        .collect();
    report.prov("ladder", format!("[{}]", rows.join(",")));
    report.prov("requests_per_rung", per_rung.to_string());
    report.prov("top_rung_share", TOP_SHARE.to_string());
    report.prov("passes_per_rung", PASSES.to_string());
    report.prov("low_rung_rps", json_num(LADDER[LOW]));
    report.prov("high_rung_rps", json_num(LADDER[HIGH]));
    report.prov("slo_p99_ms", json_num(SLO_P99_MS));
    report.prov("circuits", format!("{:?}", CIRCUITS));
    report.prov("cache_budget_mb", json_num(CACHE_BUDGET_MB));
    report.prov("server_workers", WORKERS.to_string());
    report.prov("connections", CONNS.to_string());
    report.prov("generator_threads", "1");
    report.prov("tenants", TENANTS.to_string());
}

#[allow(clippy::too_many_arguments)]
fn layers(
    report: &mut Report,
    setup: &Tracer,
    tracer: &Tracer,
    rungs: &[Rung],
    served: &[Served],
    root: &Path,
    summary: ServeSummary,
) {
    report.layer(
        "synth.generate_ms",
        setup.self_ms_per_call("synth.generate"),
    );
    let all: Vec<&Outcome> = rungs
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.answered)
        .collect();
    let count = |f: fn(&Outcome) -> bool| all.iter().filter(|o| f(o)).count() as f64;
    let looked_up = count(|o| o.cache_hit || o.cache_miss);
    report.layer(
        "serve.cache_hit_ratio",
        ratio(count(|o| o.cache_hit), looked_up),
    );
    report.layer("serve.cache_misses", count(|o| o.cache_miss));
    report.layer(
        "serve.batched_ratio",
        ratio(count(|o| o.batched), count(|o| o.verify)),
    );
    let batches: Vec<f64> = all
        .iter()
        .filter(|o| o.batched)
        .map(|o| o.batch as f64)
        .collect();
    report.layer("serve.batch_mean", mean(&batches));
    report.layer("serve.shed", summary.rejected as f64);
    report.layer(
        "serve.backlog_max",
        rungs.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
    );
    let mut lags: Vec<f64> = rungs.iter().flat_map(|r| r.lags.clone()).collect();
    report.layer("serve.sched_lag_ms_p99", percentile(&mut lags, 0.99).value);
    let mut in_process = execute_in_process(served, root, &rungs[LOW].plan);
    report.layer("locate.ms", mean(&in_process.locate_ms));
    report.layer("locate.locations", mean(&in_process.locations));
    let exec_p50 = percentile(&mut in_process.exec_ms, 0.5).value;
    let served_p50 = percentile(&mut rungs[LOW].latencies.clone(), 0.5).value;
    report.layer("serve.exec_ms_p50", exec_p50);
    report.layer("serve.overhead_ms_p50", served_p50 - exec_p50);
    report.layer("unattributed.request", tracer.unattributed("op.request"));
}

/// Generates the circuits, writes goldens and candidates under `root`,
/// and computes the known answers.
fn prepare(root: &Path, seed: u64, tracer: &mut Tracer) -> Result<Vec<Served>, String> {
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let write = |rel: &str, text: &str| {
        std::fs::write(root.join(rel), text).map_err(|e| format!("write {rel}: {e}"))
    };
    circuits::generate(&CIRCUITS, tracer)
        .into_iter()
        .enumerate()
        .map(|(i, golden)| {
            let fp = Fingerprinter::new(golden.netlist.clone()).map_err(|e| e.to_string())?;
            let locations = fp.locations().len();
            let path = format!("{}.v", golden.name);
            write(&path, &golden.text)?;
            let mut clean = Vec::new();
            for k in 0..2u64 {
                let bits =
                    circuits::seeded_bits(circuits::mix(seed, (i as u64) << 8 | k), locations);
                let copy = fp
                    .embed_verified(&bits, VerifyLevel::None)
                    .map_err(|e| e.to_string())?;
                let rel = format!("{}.clean{k}.v", golden.name);
                write(&rel, &write_verilog(copy.netlist()))?;
                clean.push(rel);
            }
            let faulty = circuits::visible_fault(
                &golden.netlist,
                &golden.netlist,
                circuits::mix(seed, i as u64),
            )
            .ok_or_else(|| format!("{}: no visible fault", golden.name))?;
            let faulty_rel = format!("{}.faulty.v", golden.name);
            write(&faulty_rel, &write_verilog(&faulty))?;
            Ok(Served {
                golden,
                path,
                locations,
                clean,
                faulty: faulty_rel,
            })
        })
        .collect()
}

/// Whether request `index` of rung `rung` is the one in its run of
/// [`COLD_ONE_IN`] that names the cold circuit.
fn cold(seed: u64, rung: usize, index: usize) -> bool {
    let run = index as u64 / COLD_ONE_IN;
    let mut rng = Xoshiro256::seed_from_u64(circuits::mix(!seed, (rung as u64) << 32 | run));
    rng.next_u64() % COLD_ONE_IN == index as u64 % COLD_ONE_IN
}

/// One of the cached circuits, drawn Zipf-style.
fn zipf_pick(rng: &mut Xoshiro256) -> usize {
    let cached = CIRCUITS.len() - 1;
    let weights: Vec<f64> = (1..=cached)
        .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
        .collect();
    let mut draw = rng.next_f64() * weights.iter().sum::<f64>();
    for (i, w) in weights.iter().enumerate() {
        if draw < *w {
            return i;
        }
        draw -= w;
    }
    cached - 1
}

/// The kind of request `index` of rung `rung`: its position in its
/// block's seeded shuffle of the [`MIX`] counts.
fn pick_kind(seed: u64, rung: usize, index: usize) -> Kind {
    let mut block: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n as usize))
        .collect();
    let per_block = block.len();
    let key = (rung as u64) << 32 | (index / per_block) as u64;
    Xoshiro256::seed_from_u64(circuits::mix(seed ^ 0x5EED, key)).shuffle(&mut block);
    block[index % per_block]
}

fn bit_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// The seeded schedule of requests `range` of one rung, due from the
/// start of their pass and numbered from 0.
fn plan(served: &[Served], seed: u64, rung: usize, rps: f64, range: Range<usize>) -> Vec<Planned> {
    let first = range.start;
    range
        .map(|global| {
            let i = global - first;
            let mut rng =
                Xoshiro256::seed_from_u64(circuits::mix(seed, (rung as u64) << 32 | global as u64));
            // A cold request is always a code verify, the common op, so
            // the rebuild latencies the p99 lands on do not vary in kind.
            let (kind, circuit) = if cold(seed, rung, global) {
                (Kind::CodeVerify, CIRCUITS.len() - 1)
            } else {
                (pick_kind(seed, rung, global), zipf_pick(&mut rng))
            };
            let tenant = format!("t{}", rng.next_u64() % TENANTS);
            let s = &served[circuit];
            let id = i.to_string();
            let golden = ("golden_path", FieldValue::Str(s.path.clone()));
            let mut p = Planned {
                kind,
                circuit,
                due: Duration::from_secs_f64(i as f64 / rps),
                line: String::new(),
                expect: Expect::Verdict("proven"),
                bits: Vec::new(),
                seed: 0,
                candidate: None,
            };
            p.line = match kind {
                Kind::CodeVerify => {
                    p.bits = (0..s.locations).map(|_| rng.next_bool()).collect();
                    let bits = ("candidate_bits", FieldValue::Str(bit_string(&p.bits)));
                    request_line(&id, &tenant, None, "verify", &[golden, bits])
                }
                Kind::NetlistVerify => {
                    let candidate = if rng.next_u64().is_multiple_of(FAULT_ONE_IN) {
                        p.expect = Expect::Verdict("refuted");
                        s.faulty.clone()
                    } else {
                        s.clean[rng.next_below(s.clean.len())].clone()
                    };
                    p.candidate = Some(candidate.clone());
                    let cand = ("candidate_path", FieldValue::Str(candidate));
                    request_line(&id, &tenant, None, "verify", &[golden, cand])
                }
                Kind::Embed => {
                    p.seed = rng.next_u64() >> 1;
                    p.bits = circuits::seeded_bits(p.seed, s.locations);
                    p.expect = Expect::Embed {
                        bits: bit_string(&p.bits),
                    };
                    let design = ("design_path", FieldValue::Str(s.path.clone()));
                    request_line(
                        &id,
                        &tenant,
                        None,
                        "embed",
                        &[design, ("seed", FieldValue::U64(p.seed))],
                    )
                }
                Kind::Locations => {
                    p.expect = Expect::Locations(s.locations);
                    let design = ("design_path", FieldValue::Str(s.path.clone()));
                    request_line(&id, &tenant, None, "locations", &[design])
                }
            };
            p.line.push('\n');
            p
        })
        .collect()
}

/// Starts a server, walks the ladder in [`PASSES`] interleaved passes
/// (`resetup` before each cycle), shuts the server down, and returns each
/// rung's passes merged and the probe readings.
#[allow(clippy::too_many_arguments)]
fn ladder(
    root: &Path,
    served: &[Served],
    seed: u64,
    per_rung: usize,
    traced: bool,
    resetup: &mut dyn FnMut(),
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Vec<Rung>, Vec<f64>, ServeSummary), String> {
    let server = Server::bind(ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_depth: 1 << 16,
        cache_budget: (CACHE_BUDGET_MB * 1024.0 * 1024.0) as u64,
        stream_threshold: STREAM_THRESHOLD,
        root: root.to_path_buf(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let handle = std::thread::spawn(move || server.run());
    let result = (|| -> Result<(Vec<Rung>, Vec<f64>), String> {
        let mut conns: Vec<TcpStream> = (0..CONNS)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("connect: {e}"))?;
        warm_up(&mut conns[0], served)?;
        let mut off = Tracer::new(false);
        let mut passes: Vec<Vec<Rung>> = LADDER.iter().map(|_| Vec::new()).collect();
        let mut probes = Vec::new();
        for p in 0..PASSES {
            resetup();
            for (r, &rps) in LADDER.iter().enumerate() {
                let n = requests(per_rung, r);
                let range = p * n / PASSES..(p + 1) * n / PASSES;
                let plan = plan(served, seed, r, rps, range);
                let before = calibrate::probe_ms();
                let t = if traced { &mut *tracer } else { &mut off };
                let mut pass = drive(&mut conns, plan, rps, t, report)?;
                let after = calibrate::probe_ms();
                pass.factor = calibrate::factor(&[before, after]);
                probes.extend([before, after]);
                passes[r].push(pass);
            }
        }
        Ok((passes.into_iter().map(Rung::merge).collect(), probes))
    })();
    let summary = shutdown(addr, handle);
    let (rungs, probes) = result?;
    Ok((rungs, probes, summary?))
}

/// Builds the cached circuits' warm state, code-space proofs included,
/// before anything is timed: one code verify per circuit.
fn warm_up(conn: &mut TcpStream, served: &[Served]) -> Result<(), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    for s in served.iter().rev() {
        let bits = bit_string(&vec![false; s.locations]);
        let line = request_line(
            "warm",
            "warm",
            None,
            "verify",
            &[
                ("golden_path", FieldValue::Str(s.path.clone())),
                ("candidate_bits", FieldValue::Str(bits)),
            ],
        );
        conn.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("warm-up send: {e}"))?;
        while !buf.contains(&b'\n') {
            let got = conn
                .read(&mut chunk)
                .map_err(|e| format!("warm-up receive: {e}"))?;
            if got == 0 {
                return Err("server closed the warm-up connection".into());
            }
            buf.extend_from_slice(&chunk[..got]);
        }
        let pos = buf.iter().position(|&b| b == b'\n').expect("checked");
        let line: Vec<u8> = buf.drain(..=pos).collect();
        let reply = Reply::parse_line(&String::from_utf8_lossy(&line));
        if reply.as_ref().and_then(|r| r.field_str("verdict")) != Some("proven") {
            return Err(format!("warm-up verify of {} failed", s.golden.name));
        }
    }
    Ok(())
}

fn shutdown(
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<ServeSummary>>,
) -> Result<ServeSummary, String> {
    let sent = TcpStream::connect(addr).and_then(|mut s| {
        s.write_all(
            format!(
                "{}\n",
                request_line("shutdown", "admin", None, "shutdown", &[])
            )
            .as_bytes(),
        )?;
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf)?;
        Ok(())
    });
    let summary = handle
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("server: {e}"));
    sent.map_err(|e| format!("shutdown: {e}"))?;
    summary
}

/// Sends one rung's schedule over `conns` (request `i` on connection
/// `i % CONNS`) and collects every reply.
fn drive(
    conns: &mut [TcpStream],
    plan: Vec<Planned>,
    rps: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Rung, String> {
    let n = plan.len();
    let start = Instant::now() + Duration::from_millis(20);
    let mut outcomes = vec![Outcome::default(); n];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut streams: HashMap<usize, String> = HashMap::new();
    let mut next = 0;
    let mut answered = 0;
    let mut backlog_max = 0;
    let mut backlog_at_last_send = 0;
    let mut chunk = vec![0u8; 1 << 16];
    let mut last_send = start;
    while answered < n {
        let now = Instant::now();
        while next < n && start + plan[next].due <= now {
            let conn = next % conns.len();
            conns[conn]
                .write_all(plan[next].line.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            outcomes[next].due = Some(start + plan[next].due);
            outcomes[next].sent = Some(Instant::now());
            next += 1;
            backlog_max = backlog_max.max(next - answered);
            if next == n {
                backlog_at_last_send = next - answered;
                last_send = Instant::now();
            }
        }
        let timeout = if next < n {
            (start + plan[next].due).saturating_duration_since(Instant::now())
        } else {
            if last_send.elapsed() > DRAIN_LIMIT {
                break;
            }
            Duration::from_millis(50)
        };
        let ready = poll::readable(conns, timeout).map_err(|e| format!("poll: {e}"))?;
        for (c, is_ready) in ready.into_iter().enumerate() {
            if !is_ready {
                continue;
            }
            let got = conns[c]
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if got == 0 {
                return Err("server closed a connection".into());
            }
            let done = Instant::now();
            bufs[c].extend_from_slice(&chunk[..got]);
            while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                if let Some(i) = on_frame(&line, &plan, &mut outcomes, &mut streams, done, report) {
                    answered += 1;
                    let o = &outcomes[i];
                    if let (Some(due), Some(sent)) = (o.due, o.sent) {
                        let root = tracer.record("op.request", due, done, None);
                        let _ = tracer.record("generator.lag", due, sent, root);
                    }
                }
            }
        }
    }
    for (i, o) in outcomes.iter().enumerate() {
        if !o.answered {
            report.attempt();
            report.fail(format!("request {i} at {rps} rps: no reply"));
        }
    }
    let latencies: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.answered)
        .filter_map(|o| Some((o.done? - o.due?).as_secs_f64() * 1e3))
        .collect();
    let lags: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| Some((o.sent? - o.due?).as_secs_f64() * 1e3))
        .collect();
    let span = plan.last().map_or(0.0, |p| p.due.as_secs_f64()) + 1.0 / rps;
    let finished = outcomes
        .iter()
        .filter_map(|o| o.done)
        .max()
        .map_or(span, |end| (end - start).as_secs_f64());
    Ok(Rung {
        rps,
        factor: 1.0,
        sent: next,
        latencies,
        lags,
        busy_s: finished.max(span),
        backlog_max,
        growing: backlog_at_last_send as f64 > BACKLOG_GROWING * next as f64,
        outcomes,
        plan,
        ..Rung::default()
    })
}

/// Handles one reply-direction line; returns the request index when the
/// line was the request's terminal frame.
fn on_frame(
    line: &str,
    plan: &[Planned],
    outcomes: &mut [Outcome],
    streams: &mut HashMap<usize, String>,
    now: Instant,
    report: &mut Report,
) -> Option<usize> {
    let Some(frame) = Frame::parse_line(line) else {
        report.attempt();
        report.wrong(format!("unparseable reply line: {:.80}", line));
        return None;
    };
    let index = |id: &str| id.parse::<usize>().ok().filter(|&i| i < plan.len());
    let (i, reply, payload) = match frame {
        Frame::Chunk { id, data, .. } => {
            if let Some(i) = index(&id) {
                streams.entry(i).or_default().push_str(&data);
            }
            return None;
        }
        Frame::Reply(reply) => {
            let i = index(&reply.id)?;
            let payload = reply.field_str("netlist").map(str::to_owned);
            (i, reply, payload)
        }
        Frame::Done {
            reply,
            bytes,
            digest,
            ..
        } => {
            let i = index(&reply.id)?;
            let data = streams.remove(&i).unwrap_or_default();
            if data.len() as u64 != bytes || payload_digest(data.as_bytes()) != digest {
                report.attempt();
                report.wrong(format!(
                    "request {i}: streamed payload does not match its digest"
                ));
                outcomes[i].answered = true;
                outcomes[i].done = Some(now);
                return Some(i);
            }
            (i, reply, Some(data))
        }
    };
    let o = &mut outcomes[i];
    if o.answered {
        return None;
    }
    o.answered = true;
    o.done = Some(now);
    report.attempt();
    check(&reply, &plan[i], payload.as_deref(), o, report);
    Some(i)
}

/// Checks a terminal reply against its request's known answer.
fn check(reply: &Reply, p: &Planned, payload: Option<&str>, o: &mut Outcome, report: &mut Report) {
    let id = &reply.id;
    if !reply.ok {
        let code = reply.error.as_deref().unwrap_or("?");
        report.fail(format!("request {id}: error {code}"));
        return;
    }
    let cache = reply.field_str("cache");
    o.cache_hit = cache == Some("hit");
    o.cache_miss = matches!(cache, Some("miss" | "uncached"));
    o.verify = matches!(p.kind, Kind::CodeVerify | Kind::NetlistVerify);
    o.batched = reply.field_bool("batched") == Some(true);
    o.batch = reply.field_u64("batch").unwrap_or(0);
    let verdict = reply.field_str("verdict");
    match &p.expect {
        Expect::Verdict(want) => {
            if verdict != Some(want) {
                report.wrong(format!(
                    "request {id}: verdict {verdict:?}, expected {want}"
                ));
            }
        }
        Expect::Embed { bits } => {
            let pass = matches!(verdict, Some("proven" | "probably_equivalent"));
            if reply.field_str("bits") != Some(bits.as_str())
                || !pass
                || payload.is_none_or(str::is_empty)
            {
                report.wrong(format!(
                    "request {id}: embed bits, verdict {verdict:?} or netlist off"
                ));
            }
        }
        Expect::Locations(n) => {
            if reply.field_u64("locations") != Some(*n as u64) {
                report.wrong(format!(
                    "request {id}: locations {:?}, expected {n}",
                    reply.field_u64("locations")
                ));
            }
        }
    }
}

/// Warm per-circuit state, as the server's cache holds it.
struct Warm {
    fp: Fingerprinter,
    session: VerifySession,
    proof: CodeSpaceProof,
}

/// In-process timings of the serve workload's core calls.
#[derive(Debug, Default)]
struct InProcess {
    /// Milliseconds of each request of the plan, run on warm state.
    exec_ms: Vec<f64>,
    /// Milliseconds of `Fingerprinter::new` per circuit: what a cache
    /// miss pays to locate before anything else.
    locate_ms: Vec<f64>,
    /// Locations per circuit.
    locations: Vec<f64>,
}

/// Runs `plan`'s requests in-process through the core calls the server's
/// executor makes, against warm state built first.
fn execute_in_process(served: &[Served], root: &Path, plan: &[Planned]) -> InProcess {
    let library = CellLibrary::standard();
    let token = CancelToken::new();
    let mut out = InProcess::default();
    let mut warm: Vec<Option<Warm>> = served
        .iter()
        .map(|s| {
            let start = Instant::now();
            let fp = Fingerprinter::new(s.golden.netlist.clone()).ok()?;
            out.locate_ms.push(start.elapsed().as_secs_f64() * 1e3);
            out.locations.push(fp.locations().len() as f64);
            let mut session = VerifySession::new(fp.base()).ok()?;
            let proof = CodeSpace::build(&fp)
                .ok()?
                .prove(&mut session, None, &token)
                .ok()?;
            Some(Warm { fp, session, proof })
        })
        .collect();
    for p in plan {
        let Some(w) = warm[p.circuit].as_mut() else {
            continue;
        };
        let start = Instant::now();
        // The executor reads and digests the golden on every request.
        let text = std::fs::read_to_string(root.join(&served[p.circuit].path)).unwrap_or_default();
        std::hint::black_box(Digest::of(text.as_bytes()));
        match p.kind {
            Kind::CodeVerify => {
                std::hint::black_box(w.session.check_code(&w.proof, &p.bits, None, &token));
            }
            Kind::NetlistVerify => {
                let path = root.join(p.candidate.as_deref().unwrap_or_default());
                let text = std::fs::read_to_string(path).unwrap_or_default();
                if let Ok(candidate) = parse_verilog(&text, Arc::clone(&library)) {
                    let _ =
                        std::hint::black_box(w.session.verify(&candidate, &VerifyPolicy::strict()));
                }
            }
            Kind::Embed => {
                if let Ok((copy, _)) = w.fp.embed_with_session_cancellable(
                    &mut w.session,
                    &p.bits,
                    &VerifyPolicy::quick(),
                    &token,
                ) {
                    std::hint::black_box(write_verilog(copy.netlist()));
                }
            }
            Kind::Locations => {
                std::hint::black_box(w.fp.capacity());
            }
        }
        out.exec_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out
}

/// `ppoll(2)` over the connections, so one thread can wait for replies
/// on all of them with a sub-millisecond timeout.
#[allow(unsafe_code)]
mod poll {
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const POLLIN: i16 = 0x1;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Which of `conns` have bytes (or an error) to read, waiting up to
    /// `timeout`.
    pub fn readable(conns: &[TcpStream], timeout: Duration) -> std::io::Result<Vec<bool>> {
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is a live, correctly laid out `pollfd` array of
        // the length passed, `ts` outlives the call, and a null sigmask
        // leaves the signal mask unchanged.
        let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(vec![false; conns.len()]);
            }
            return Err(err);
        }
        Ok(fds
            .iter()
            .map(|f| f.revents & (POLLIN | POLLERR | POLLHUP) != 0)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_holds_the_mix_counts() {
        let per_block: u64 = MIX.iter().map(|(_, n)| n).sum();
        for block in 0..5 {
            let kinds: Vec<Kind> = (0..per_block as usize)
                .map(|i| pick_kind(3, 1, block * per_block as usize + i))
                .collect();
            for (kind, n) in MIX {
                assert_eq!(kinds.iter().filter(|&&k| k == kind).count() as u64, n);
            }
        }
    }

    #[test]
    fn exactly_one_cold_request_per_run() {
        let n = COLD_ONE_IN as usize;
        for run in 0..10 {
            let cold_in_run = (run * n..(run + 1) * n).filter(|&i| cold(5, 0, i)).count();
            assert_eq!(cold_in_run, 1);
        }
    }
}
