//! Implementation of the `odcfp` command-line tool.
//!
//! The binary wires the whole flow together for files on disk:
//!
//! ```text
//! odcfp stats      <design.(blif|v)>             design statistics + metrics
//! odcfp map        <in.blif> -o <out.v>          technology mapping
//! odcfp locations  <in.(blif|v)>                 fingerprint locations + capacity
//! odcfp embed      <in.(blif|v)> -o <out.v>      embed a fingerprint
//!                  (--seed N | --bits 0101..) [--verify none|sim|sat]
//! odcfp extract    <base.(blif|v)> <suspect.v>   recover a fingerprint
//! odcfp verify     <golden.(blif|v)> <candidate.(blif|v)>
//!                  [--verify-budget N] [--verify-timeout SECS] [--stats]
//!                  [--solver-profile legacy|modern]
//! odcfp solve      <in.dimacs>                    decide one DIMACS CNF
//!                  [--solver-profile legacy|modern] (debug tool;
//!                  exit codes 0 sat / 1 unsat / 2 undecided)
//! odcfp constrain  <in.(blif|v)> -o <out.v>      delay-constrained embedding
//!                  --delay-pct P [--method reactive|proactive]
//! odcfp dot        <in.(blif|v)> -o <out.dot>    Graphviz export
//! odcfp bench      <name>                        generate a Table II benchmark
//!                  -o <out.v>
//! odcfp attack     <in.(blif|v)> | --manifest <m> adversary battery scorecard
//!                  [--seed N] [--buyers N] [--copies N] [--coalitions 2,4,8]
//!                  [--resynth-levels opt,remap,remap2] [--power-words N]
//!                  [--detect-threshold X] [--survival-out <file>] [-o out.json]
//! odcfp campaign   <manifest> --out-dir <dir>    journaled batch embed+verify
//!                  [--resume] [--max-jobs N]
//! odcfp report     <trace.jsonl>                 summarize an observability trace
//! odcfp serve      [--listen ADDR] [--root DIR]  resident multi-tenant engine
//!                  [--workers N] [--queue-depth N] [--cache-budget-mb N]
//!                  [--drain-secs S] [--max-conns N]
//!                  [--stream-threshold BYTES]
//!                  (protocol: docs/PROTOCOL.md; operations: docs/SERVING.md)
//! odcfp client     <addr> <op> [args]            one request against a server
//!                  [--tenant NAME] [--deadline-ms N]
//! odcfp loadgen    <addr> [--rps R] [--conns N]  deterministic open-loop load
//!                  [--duration-secs S] [--mix op:W,..] [-o hist.json]
//! ```
//!
//! Every command accepts `--genlib <file>` to use a custom cell library
//! instead of the built-in one, and `--threads N` to pin the analysis
//! worker count (results are bit-identical at any setting; the
//! `ODCFP_THREADS` environment variable is the lower-precedence
//! equivalent). BLIF inputs are technology-mapped on the fly.
//!
//! Every command also accepts `--trace-out <path>` (or the
//! `ODCFP_TRACE` environment variable) to record a structured JSONL
//! trace of the run — spans, counters, verdicts — which `odcfp report
//! <trace.jsonl>` turns into a per-stage breakdown (see
//! docs/OBSERVABILITY.md).
//!
//! # Exit codes
//!
//! `run` reports the process exit code for the outcome: `0` success (and
//! `verify`'s *proven equivalent*), `1` runtime error, `2` usage error,
//! `3` *refuted*, `4` *undecided* (budget or deadline exhausted), `5`
//! *probably equivalent* (simulation only, no proof), `6` campaign
//! completed with quarantined jobs.
//!
//! A broken stdout pipe (`odcfp ... | head`) is not an error: the run is
//! cut short and the process exits `0`, like a well-behaved Unix filter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod remote;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odcfp_analysis::DesignMetrics;
use odcfp_core::campaign::{
    self, CampaignEnv, CampaignError, CampaignOptions, CircuitSource, JobEvent, Manifest,
    ManifestCircuit,
};
use odcfp_core::attack::{run_battery, AttackOptions, SurvivalStats};
use odcfp_core::heuristics::{
    proactive_delay_embedding, proactive_robust_embedding, reactive_delay_reduction,
    ReactiveOptions,
};
use odcfp_core::{
    verify_equivalent_report, Fingerprinter, Verdict, VerifyLevel, VerifyPolicy, VerifyStats,
};
use odcfp_netlist::{genlib, CellLibrary, Netlist};
use odcfp_sat::{parse_dimacs, SolveResult, Solver, SolverConfig, SolverStats, Var};
use odcfp_verilog::{parse_verilog, write_verilog};

/// A CLI failure: message already formatted for the user, plus the process
/// exit code (`1` runtime error, `2` usage error).
#[derive(Debug)]
pub struct CliError(pub String, pub i32);

impl CliError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        self.1
    }

    /// `true` for the benign "stdout reader went away" condition
    /// (`odcfp ... | head`). The caller should exit `0` without printing
    /// an error.
    pub fn is_broken_pipe(&self) -> bool {
        self.1 == 0
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

macro_rules! from_error {
    ($($ty:ty),* $(,)?) => {
        $(impl From<$ty> for CliError {
            fn from(e: $ty) -> Self {
                CliError(e.to_string(), 1)
            }
        })*
    };
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        // EPIPE on stdout is the reader closing early (`| head`), not a
        // failure: surface it with exit code 0 so `run` unwinds cleanly
        // and the process exits like any Unix filter would.
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError("broken pipe".into(), 0)
        } else {
            CliError(e.to_string(), 1)
        }
    }
}

from_error!(
    odcfp_blif::ParseBlifError,
    odcfp_verilog::ParseVerilogError,
    odcfp_synth::MapError,
    odcfp_core::FingerprintError,
    odcfp_netlist::NetlistError,
    genlib::ParseGenlibError,
);

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into(), 1)
}

/// A usage mistake (bad flags / arguments): exit code 2.
fn usage(msg: impl Into<String>) -> CliError {
    CliError(msg.into(), 2)
}

/// The process exit code a [`Verdict`] maps to.
pub fn verdict_exit_code(verdict: &Verdict) -> i32 {
    match verdict {
        Verdict::Proven => 0,
        Verdict::Refuted { .. } => 3,
        Verdict::Undecided { .. } => 4,
        Verdict::ProbablyEquivalent { .. } => 5,
    }
}

/// Parsed global options.
struct Options {
    positional: Vec<String>,
    output: Option<String>,
    genlib: Option<String>,
    seed: Option<u64>,
    bits: Option<String>,
    verify: VerifyLevel,
    verify_budget: Option<u64>,
    verify_timeout: Option<f64>,
    stats: bool,
    delay_pct: Option<f64>,
    method: String,
    threads: Option<usize>,
    out_dir: Option<String>,
    resume: bool,
    max_jobs: Option<usize>,
    trace_out: Option<String>,
    // serve / client / loadgen (see `remote`).
    listen: Option<String>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    cache_budget_mb: Option<u64>,
    drain_secs: Option<f64>,
    root: Option<String>,
    tenant: Option<String>,
    deadline_ms: Option<u64>,
    policy: Option<String>,
    max_conns: Option<usize>,
    stream_threshold: Option<usize>,
    rps: Option<f64>,
    duration_secs: Option<f64>,
    conns: Option<usize>,
    mix: Option<String>,
    // attack / constrain --robust-locations.
    manifest: Option<String>,
    buyers: Option<usize>,
    copies: Option<usize>,
    coalitions: Option<String>,
    resynth_levels: Option<String>,
    power_words: Option<usize>,
    detect_threshold: Option<f64>,
    survival_out: Option<String>,
    robust_locations: Option<String>,
    // solver tier (verify / solve).
    solver_profile: Option<String>,
}

impl Options {
    /// The solver configuration `--solver-profile` names (default
    /// profile when the flag is absent).
    fn solver_config(&self) -> Result<SolverConfig, CliError> {
        match &self.solver_profile {
            None => Ok(SolverConfig::default()),
            Some(name) => SolverConfig::from_profile(name).ok_or_else(|| {
                usage(format!(
                    "unknown solver profile {name:?} (expected one of: {})",
                    SolverConfig::profiles()
                        .into_iter()
                        .map(|(n, _)| n)
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            }),
        }
    }

    /// The equivalence-checking policy the flags ask for: `--verify-budget`
    /// overrides `base`, `--verify-timeout` adds a deadline, and
    /// `--solver-profile` configures the SAT tier.
    fn verify_policy(&self, base: VerifyPolicy) -> Result<VerifyPolicy, CliError> {
        let mut policy = match self.verify_budget {
            Some(budget) => VerifyPolicy::budgeted(budget),
            None => base,
        };
        if let Some(secs) = self.verify_timeout {
            policy = policy.with_time_limit(Duration::from_secs_f64(secs));
        }
        policy.solver = self.solver_config()?;
        Ok(policy)
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options {
        positional: Vec::new(),
        output: None,
        genlib: None,
        seed: None,
        bits: None,
        verify: VerifyLevel::Simulation,
        verify_budget: None,
        verify_timeout: None,
        stats: false,
        delay_pct: None,
        method: "reactive".into(),
        threads: None,
        out_dir: None,
        resume: false,
        max_jobs: None,
        trace_out: None,
        listen: None,
        workers: None,
        queue_depth: None,
        cache_budget_mb: None,
        drain_secs: None,
        root: None,
        tenant: None,
        deadline_ms: None,
        policy: None,
        max_conns: None,
        stream_threshold: None,
        rps: None,
        duration_secs: None,
        conns: None,
        mix: None,
        manifest: None,
        buyers: None,
        copies: None,
        coalitions: None,
        resynth_levels: None,
        power_words: None,
        detect_threshold: None,
        survival_out: None,
        robust_locations: None,
        solver_profile: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| usage(format!("{name} needs a value")))
        };
        match a.as_str() {
            "-o" | "--output" => o.output = Some(take("-o")?),
            "--genlib" => o.genlib = Some(take("--genlib")?),
            "--seed" => {
                o.seed = Some(
                    take("--seed")?
                        .parse()
                        .map_err(|_| usage("--seed needs an integer"))?,
                )
            }
            "--bits" => o.bits = Some(take("--bits")?),
            "--verify" => {
                o.verify = match take("--verify")?.as_str() {
                    "none" => VerifyLevel::None,
                    "sim" => VerifyLevel::Simulation,
                    "sat" => VerifyLevel::Sat,
                    other => return Err(usage(format!("unknown verify level {other:?}"))),
                }
            }
            "--verify-budget" => {
                o.verify_budget = Some(
                    take("--verify-budget")?
                        .parse()
                        .map_err(|_| usage("--verify-budget needs a conflict count"))?,
                )
            }
            "--verify-timeout" => {
                let secs: f64 = take("--verify-timeout")?
                    .parse()
                    .map_err(|_| usage("--verify-timeout needs seconds"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(usage("--verify-timeout needs non-negative seconds"));
                }
                o.verify_timeout = Some(secs);
            }
            "--stats" => o.stats = true,
            "--delay-pct" => {
                o.delay_pct = Some(
                    take("--delay-pct")?
                        .parse()
                        .map_err(|_| usage("--delay-pct needs a number"))?,
                )
            }
            "--method" => o.method = take("--method")?,
            "--out-dir" => o.out_dir = Some(take("--out-dir")?),
            "--trace-out" => o.trace_out = Some(take("--trace-out")?),
            "--resume" => o.resume = true,
            "--max-jobs" => {
                let n: usize = take("--max-jobs")?
                    .parse()
                    .map_err(|_| usage("--max-jobs needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--max-jobs needs a positive integer"));
                }
                o.max_jobs = Some(n);
            }
            "--listen" => o.listen = Some(take("--listen")?),
            "--workers" => {
                let n: usize = take("--workers")?
                    .parse()
                    .map_err(|_| usage("--workers needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--workers needs a positive integer"));
                }
                o.workers = Some(n);
            }
            "--queue-depth" => {
                let n: usize = take("--queue-depth")?
                    .parse()
                    .map_err(|_| usage("--queue-depth needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--queue-depth needs a positive integer"));
                }
                o.queue_depth = Some(n);
            }
            "--cache-budget-mb" => {
                o.cache_budget_mb = Some(
                    take("--cache-budget-mb")?
                        .parse()
                        .map_err(|_| usage("--cache-budget-mb needs a size in MiB"))?,
                )
            }
            "--drain-secs" => {
                let secs: f64 = take("--drain-secs")?
                    .parse()
                    .map_err(|_| usage("--drain-secs needs seconds"))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(usage("--drain-secs needs non-negative seconds"));
                }
                o.drain_secs = Some(secs);
            }
            "--root" => o.root = Some(take("--root")?),
            "--tenant" => o.tenant = Some(take("--tenant")?),
            "--deadline-ms" => {
                o.deadline_ms = Some(
                    take("--deadline-ms")?
                        .parse()
                        .map_err(|_| usage("--deadline-ms needs milliseconds"))?,
                )
            }
            "--policy" => o.policy = Some(take("--policy")?),
            "--max-conns" => {
                let n: usize = take("--max-conns")?
                    .parse()
                    .map_err(|_| usage("--max-conns needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--max-conns needs a positive integer"));
                }
                o.max_conns = Some(n);
            }
            "--stream-threshold" => {
                o.stream_threshold = Some(
                    take("--stream-threshold")?
                        .parse()
                        .map_err(|_| usage("--stream-threshold needs a byte count"))?,
                )
            }
            "--rps" => {
                let rps: f64 = take("--rps")?
                    .parse()
                    .map_err(|_| usage("--rps needs a rate"))?;
                if !rps.is_finite() || rps <= 0.0 {
                    return Err(usage("--rps needs a positive rate"));
                }
                o.rps = Some(rps);
            }
            "--duration-secs" => {
                let secs: f64 = take("--duration-secs")?
                    .parse()
                    .map_err(|_| usage("--duration-secs needs seconds"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(usage("--duration-secs needs positive seconds"));
                }
                o.duration_secs = Some(secs);
            }
            "--conns" => {
                let n: usize = take("--conns")?
                    .parse()
                    .map_err(|_| usage("--conns needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--conns needs a positive integer"));
                }
                o.conns = Some(n);
            }
            "--mix" => o.mix = Some(take("--mix")?),
            "--manifest" => o.manifest = Some(take("--manifest")?),
            "--buyers" => {
                let n: usize = take("--buyers")?
                    .parse()
                    .map_err(|_| usage("--buyers needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--buyers needs a positive integer"));
                }
                o.buyers = Some(n);
            }
            "--copies" => {
                let n: usize = take("--copies")?
                    .parse()
                    .map_err(|_| usage("--copies needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--copies needs a positive integer"));
                }
                o.copies = Some(n);
            }
            "--coalitions" => o.coalitions = Some(take("--coalitions")?),
            "--resynth-levels" => o.resynth_levels = Some(take("--resynth-levels")?),
            "--power-words" => {
                let n: usize = take("--power-words")?
                    .parse()
                    .map_err(|_| usage("--power-words needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--power-words needs a positive integer"));
                }
                o.power_words = Some(n);
            }
            "--detect-threshold" => {
                let t: f64 = take("--detect-threshold")?
                    .parse()
                    .map_err(|_| usage("--detect-threshold needs a number"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(usage("--detect-threshold needs a non-negative number"));
                }
                o.detect_threshold = Some(t);
            }
            "--survival-out" => o.survival_out = Some(take("--survival-out")?),
            "--solver-profile" => o.solver_profile = Some(take("--solver-profile")?),
            "--robust-locations" => o.robust_locations = Some(take("--robust-locations")?),
            "--threads" => {
                let n: usize = take("--threads")?
                    .parse()
                    .map_err(|_| usage("--threads needs a positive integer"))?;
                if n == 0 {
                    return Err(usage("--threads needs a positive integer"));
                }
                o.threads = Some(n);
            }
            flag if flag.starts_with('-') => {
                return Err(usage(format!("unknown flag {flag:?}")))
            }
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn load_library(o: &Options) -> Result<Arc<CellLibrary>, CliError> {
    match &o.genlib {
        None => Ok(CellLibrary::standard()),
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
            let report = genlib::parse_genlib(&text, path.clone())?;
            for (gate, reason) in &report.skipped {
                eprintln!("note: skipped genlib gate {gate}: {reason}");
            }
            Ok(report.library)
        }
    }
}

/// Loads a design: `.blif` files are parsed and technology-mapped, `.v`
/// files are parsed directly.
fn load_design(path: &str, library: Arc<CellLibrary>) -> Result<Netlist, CliError> {
    let text =
        fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    let ext = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    match ext {
        "blif" => {
            let network = odcfp_blif::parse_blif(&text)?;
            Ok(odcfp_synth::map_network(&network, library)?)
        }
        "v" | "verilog" => Ok(parse_verilog(&text, library)?),
        other => Err(fail(format!(
            "unknown input extension {other:?} (expected .blif or .v)"
        ))),
    }
}

fn write_output(
    o: &Options,
    text: &str,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    match &o.output {
        Some(path) => {
            fs::write(path, text).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => {
            write!(out, "{text}")?;
            Ok(())
        }
    }
}

fn required_input<'a>(o: &'a Options, what: &str) -> Result<&'a str, CliError> {
    o.positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| usage(format!("missing {what}")))
}

/// Runs one subcommand with its arguments; `out` receives report text.
///
/// Returns the process exit code for the outcome (`0` except for `verify`
/// verdicts and unverified embeddings — see the crate docs).
///
/// # Errors
///
/// Returns a formatted error for any user or I/O problem.
pub fn run(command: &str, args: &[String], out: &mut impl std::io::Write) -> Result<i32, CliError> {
    let o = parse_options(args)?;
    if o.threads.is_some() {
        odcfp_analysis::engine::set_thread_override(o.threads);
    }
    // Dropped at the end of this call: flushes and detaches the trace.
    let _trace_guard = install_trace(&o)?;
    let library = load_library(&o)?;
    match command {
        "stats" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            let metrics = DesignMetrics::measure(&design);
            writeln!(out, "{}", design.stats())?;
            writeln!(out, "{metrics}")?;
            let timing = odcfp_analysis::sta::analyze(&design)
                .map_err(|e| fail(e.to_string()))?;
            writeln!(out, "{}", timing.report(&design))?;
            Ok(0)
        }
        "map" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            write_output(&o, &write_verilog(&design), out)?;
            Ok(0)
        }
        "locations" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            let fp = Fingerprinter::new(design)?;
            writeln!(out, "{}", fp.capacity())?;
            for (loc, m) in fp.locations().iter().zip(fp.selected_modifications()) {
                writeln!(
                    out,
                    "primary {} ({} options) -> default {m:?}",
                    fp.base().gate(loc.primary_gate).name(),
                    loc.candidates.len()
                )?;
            }
            Ok(0)
        }
        "embed" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            let fp = Fingerprinter::new(design)?;
            let bits: Vec<bool> = match (&o.bits, o.seed) {
                (Some(s), _) => s
                    .chars()
                    .map(|c| match c {
                        '0' => Ok(false),
                        '1' => Ok(true),
                        other => Err(usage(format!("bad bit {other:?}"))),
                    })
                    .collect::<Result<_, _>>()?,
                (None, Some(seed)) => {
                    let mut rng = odcfp_logic::rng::Xoshiro256::seed_from_u64(seed);
                    (0..fp.locations().len()).map(|_| rng.next_bool()).collect()
                }
                (None, None) => return Err(usage("embed needs --bits or --seed")),
            };
            let mut code = 0;
            let copy = match o.verify.policy() {
                None => fp.embed_verified(&bits, VerifyLevel::None)?,
                Some(level_policy) => {
                    let (copy, verdict) =
                        fp.embed_with_policy(&bits, &o.verify_policy(level_policy)?)?;
                    if let Verdict::Undecided { .. } = verdict {
                        eprintln!("warning: equivalence {verdict}; output is unverified");
                        code = verdict_exit_code(&verdict);
                    }
                    copy
                }
            };
            writeln!(out, "embedded {} bits: {}", bits.len(), copy.bit_string())?;
            write_output(&o, &write_verilog(copy.netlist()), out)?;
            Ok(code)
        }
        "extract" => {
            if o.positional.len() != 2 {
                return Err(usage("extract needs <base> and <suspect>"));
            }
            let base = load_design(&o.positional[0], library.clone())?;
            let suspect = load_design(&o.positional[1], library)?;
            let fp = Fingerprinter::new(base)?;
            let bits = fp.extract_by_name(&suspect)?;
            let s: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
            writeln!(out, "{s}")?;
            Ok(0)
        }
        "verify" => {
            if o.positional.len() != 2 {
                return Err(usage("verify needs <golden> and <candidate>"));
            }
            let golden = load_design(&o.positional[0], library.clone())?;
            let candidate = load_design(&o.positional[1], library)?;
            let report = verify_equivalent_report(
                &golden,
                &candidate,
                &o.verify_policy(VerifyPolicy::strict())?,
            )?;
            writeln!(out, "{}", report.verdict)?;
            if o.stats {
                write_verify_stats(out, &report.stats)?;
            }
            Ok(verdict_exit_code(&report.verdict))
        }
        "solve" => run_solve(&o, out),
        "constrain" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            let pct = o
                .delay_pct
                .ok_or_else(|| usage("constrain needs --delay-pct"))?;
            let fp = Fingerprinter::new(design)?;
            let result = match (&o.robust_locations, o.method.as_str()) {
                // --robust-locations always uses the survival-aware
                // proactive method: the feedback rule is a location
                // ordering, which the reactive (removal) method has no
                // place for.
                (Some(path), _) => {
                    let text = fs::read_to_string(path)
                        .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
                    let (_, stats) =
                        SurvivalStats::from_text(&text).map_err(|e| fail(format!("{path}: {e}")))?;
                    if stats.len() != fp.locations().len() {
                        return Err(fail(format!(
                            "{path}: survival file describes {} locations but the \
                             design has {} — re-run `odcfp attack --survival-out` \
                             on this design",
                            stats.len(),
                            fp.locations().len()
                        )));
                    }
                    proactive_robust_embedding(&fp, pct, &stats)?
                }
                (None, "reactive") => {
                    reactive_delay_reduction(&fp, pct, ReactiveOptions::default())?
                }
                (None, "proactive") => proactive_delay_embedding(&fp, pct)?,
                (None, other) => return Err(usage(format!("unknown method {other:?}"))),
            };
            writeln!(
                out,
                "kept {}/{} locations; overhead: {}",
                result.kept_locations(),
                fp.locations().len(),
                result.metrics.overhead_vs(&result.base_metrics)
            )?;
            write_output(&o, &write_verilog(result.copy.netlist()), out)?;
            Ok(0)
        }
        "report" => {
            let path = required_input(&o, "input design")?;
            // `.jsonl` inputs are observability traces, not designs:
            // summarize per-stage timing, counters, and campaign outcomes.
            if path.ends_with(".jsonl") {
                return report_trace(&o, path, out);
            }
            let design = load_design(path, library)?;
            let metrics = DesignMetrics::measure(&design);
            let timing = odcfp_analysis::sta::analyze(&design)
                .map_err(|e| fail(e.to_string()))?;
            let fp = Fingerprinter::new(design.clone())?;
            let cap = fp.capacity();
            let marked = fp.embed_all()?;
            let oh = DesignMetrics::measure(marked.netlist()).overhead_vs(&metrics);
            let mut text = String::new();
            use std::fmt::Write as _;
            let _ = writeln!(text, "# Design report: {}", design.name());
            let _ = writeln!(text, "\nSource: `{path}`\n");
            let _ = writeln!(text, "## Statistics\n\n```\n{}```\n", design.stats());
            let _ = writeln!(text, "## Metrics\n\n{metrics}\n");
            let _ = writeln!(text, "## Timing\n\n```\n{}```\n", timing.report(&design));
            let _ = writeln!(text, "## Fingerprint capacity\n\n{cap}\n");
            let _ = writeln!(
                text,
                "Full embedding overhead: {oh}\n\nEvery embedded copy is verified \
                 functionally equivalent (1024-pattern simulation; SAT on demand)."
            );
            write_output(&o, &text, out)?;
            Ok(0)
        }
        "optimize" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            let before = design.num_gates();
            let (opt, stats) = odcfp_synth::opt::optimize(&design);
            writeln!(
                out,
                "{before} -> {} gates (folded {}, pruned {} pins, swept {} dead)",
                opt.num_gates(),
                stats.gates_folded,
                stats.pins_pruned,
                stats.dead_gates_removed
            )?;
            write_output(&o, &write_verilog(&opt), out)?;
            Ok(0)
        }
        "dot" => {
            let design = load_design(required_input(&o, "input design")?, library)?;
            write_output(&o, &odcfp_netlist::dot::to_dot(&design, &[]), out)?;
            Ok(0)
        }
        "bench" => {
            let name = required_input(&o, "benchmark name")?;
            let design = odcfp_synth::benchmarks::generate(name, library)
                .ok_or_else(|| fail(format!("unknown benchmark {name:?}")))?;
            write_output(&o, &write_verilog(&design), out)?;
            Ok(0)
        }
        "attack" => run_attack(&o, library, out),
        "campaign" => run_campaign(&o, library, out),
        "serve" => remote::run_serve(&o, out),
        "client" => remote::run_client(&o, out),
        "loadgen" => remote::run_loadgen(&o, out),
        other => Err(usage(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// The `attack` subcommand: run the adversary battery (resynthesis,
/// collusion averaging, side-channel detectability) against one design
/// or a manifest of designs, emitting a deterministic JSON scorecard
/// (see `odcfp_core::attack` and DESIGN.md §15).
fn run_attack(
    o: &Options,
    library: Arc<CellLibrary>,
    out: &mut impl std::io::Write,
) -> Result<i32, CliError> {
    let mut opts = AttackOptions::default();
    if let Some(seed) = o.seed {
        opts.seed = seed;
    }
    if let Some(buyers) = o.buyers {
        opts.buyers = buyers;
    }
    if let Some(copies) = o.copies {
        opts.minted_copies = copies;
    }
    if let Some(words) = o.power_words {
        opts.power_words = words;
    }
    if let Some(t) = o.detect_threshold {
        opts.detectability_threshold = t;
    }
    if let Some(list) = &o.coalitions {
        opts.coalition_sizes = list
            .split(',')
            .map(|s| {
                match s.trim().parse::<usize>() {
                    Ok(0) | Err(_) => Err(usage(format!("--coalitions: bad size {s:?}"))),
                    Ok(n) => Ok(n),
                }
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(list) = &o.resynth_levels {
        opts.resynth_levels = list
            .split(',')
            .map(|s| {
                odcfp_synth::ResynthLevel::parse(s.trim()).ok_or_else(|| {
                    usage(format!(
                        "--resynth-levels: unknown level {s:?} \
                         (expected opt|remap|remap2 or 1|2|3)"
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
    }

    // Targets: every non-comment manifest line, or the one positional
    // input. A target naming a file is loaded from disk; anything else is
    // a built-in Table II benchmark.
    let targets: Vec<String> = match &o.manifest {
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
            let lines: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if lines.is_empty() {
                return Err(usage(format!("{path}: manifest lists no targets")));
            }
            lines
        }
        None => vec![required_input(o, "input design (or --manifest)")?.to_string()],
    };
    if o.survival_out.is_some() && targets.len() != 1 {
        return Err(usage(
            "--survival-out needs exactly one target (it is per-circuit)",
        ));
    }

    let token = odcfp_core::CancelToken::new();
    let mut cards = Vec::with_capacity(targets.len());
    for target in &targets {
        let design = if Path::new(target).extension().is_some() {
            load_design(target, Arc::clone(&library))?
        } else {
            odcfp_synth::benchmarks::generate(target, Arc::clone(&library))
                .ok_or_else(|| fail(format!("unknown benchmark {target:?}")))?
        };
        let card = run_battery(&design, &opts, &token).map_err(|e| fail(e.to_string()))?;
        for r in &card.resynth {
            eprintln!(
                "{}: resynth {:7} survival {}/{} ({:.1}%), verdict {}",
                card.circuit,
                r.level.name(),
                r.wires_surviving,
                r.wires_identifiable,
                r.survival_rate * 100.0,
                r.outcome.name(),
            );
        }
        let convicted_cells = card
            .collusion
            .iter()
            .filter(|c| c.colluders_convicted > 0)
            .count();
        let framed: usize = card.collusion.iter().map(|c| c.innocents_accused).sum();
        eprintln!(
            "{}: collusion {}/{} cells convicted a colluder, {} innocents accused; \
             side-channel {}/{} copies detectable",
            card.circuit,
            convicted_cells,
            card.collusion.len(),
            framed,
            card.side_channel.detectable,
            card.side_channel.copies,
        );
        cards.push(card);
    }

    if let Some(path) = &o.survival_out {
        let text = cards[0].survival.to_text(&cards[0].circuit);
        fs::write(path, text).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }

    // One scorecard object for a single target, a JSON array for a
    // manifest — byte-identical across runs and thread counts.
    let json = if o.manifest.is_none() {
        cards[0].to_json()
    } else {
        let mut s = String::from("[\n");
        for (i, card) in cards.iter().enumerate() {
            s.push_str(&card.to_json());
            if i + 1 < cards.len() {
                s.pop(); // trailing newline
                s.push_str(",\n");
            }
        }
        s.push_str("]\n");
        s
    };
    write_output(o, &json, out)?;
    Ok(0)
}

/// The `campaign` subcommand: a journaled, crash-safe batch run (see
/// `odcfp_core::campaign` and DESIGN.md §10).
fn run_campaign(
    o: &Options,
    library: Arc<CellLibrary>,
    out: &mut impl std::io::Write,
) -> Result<i32, CliError> {
    let manifest_path = required_input(o, "campaign manifest")?;
    let out_dir = o
        .out_dir
        .as_deref()
        .ok_or_else(|| usage("campaign needs --out-dir <dir>"))?;
    let text = fs::read_to_string(manifest_path)
        .map_err(|e| fail(format!("cannot read {manifest_path}: {e}")))?;
    let manifest = Manifest::parse(&text).map_err(|e| fail(e.to_string()))?;

    // `path:` sources resolve relative to the manifest file, so a
    // manifest can live next to its designs and be invoked from anywhere.
    let manifest_dir = Path::new(manifest_path)
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let load = move |c: &ManifestCircuit| -> Result<Netlist, String> {
        let CircuitSource::Path(p) = &c.source else {
            return Err("internal: loader called for a probe source".into());
        };
        let resolved = if Path::new(p).is_absolute() {
            PathBuf::from(p)
        } else {
            manifest_dir.join(p)
        };
        load_design(&resolved.to_string_lossy(), Arc::clone(&library)).map_err(|e| e.to_string())
    };
    let emit = |n: &Netlist| write_verilog(n);
    let env = CampaignEnv {
        load: &load,
        emit: &emit,
    };
    let options = CampaignOptions {
        resume: o.resume,
        stop_after: o.max_jobs,
    };
    let mut on_event = |e: &JobEvent| match e {
        JobEvent::Started { job, attempt } if *attempt > 1 => {
            eprintln!("job {job}: retry (attempt {attempt})");
        }
        JobEvent::Started { .. } => {}
        JobEvent::Completed { job, verdict, millis } => {
            eprintln!("job {job}: {verdict} ({millis} ms)");
        }
        JobEvent::Skipped { job } => eprintln!("job {job}: already complete (resumed)"),
        JobEvent::SkippedPoisoned { job } => {
            eprintln!("job {job}: quarantined by a previous run");
        }
        JobEvent::StaleArtifact { job } => {
            eprintln!("job {job}: artifact missing or corrupt — re-minting");
        }
        JobEvent::AttemptFailed { job, attempt, error } => {
            eprintln!("job {job}: attempt {attempt} failed: {error}");
        }
        JobEvent::Poisoned { job, diagnostic } => {
            eprintln!("job {job}: QUARANTINED: {diagnostic}");
        }
        // Large campaigns batch progress (one line per few hundred jobs)
        // instead of the per-job chatter above.
        JobEvent::Progress { done, total } => {
            eprintln!("progress: {done}/{total} jobs");
        }
        JobEvent::GoldenMinted { circuit, locations } => {
            eprintln!("circuit {circuit}: golden artifact minted ({locations} locations)");
        }
        JobEvent::CodeSpaceProven {
            circuit,
            obligations,
            conflicts,
            millis,
        } => {
            eprintln!(
                "circuit {circuit}: code space proven ({obligations} local obligations, \
                 {conflicts} conflicts, {millis} ms) — all buyers proven"
            );
        }
        JobEvent::CodeSpaceFallback { circuit, reason } => {
            eprintln!(
                "circuit {circuit}: no code-space proof ({reason}) — \
                 verifying buyers individually"
            );
        }
        JobEvent::WindowCompleted { circuit, from, to } => {
            eprintln!("circuit {circuit}: buyers {from}..{to} durable");
        }
    };
    let summary = campaign::run(&manifest, Path::new(out_dir), &env, &options, &mut on_event)
        .map_err(|e| match e {
            // Journal/manifest misuse is a usage problem, not a crash.
            CampaignError::JournalExists(_) | CampaignError::ManifestMismatch { .. } => {
                usage(e.to_string())
            }
            e => fail(e.to_string()),
        })?;
    write!(out, "{summary}")?;
    Ok(if summary.poisoned.is_empty() { 0 } else { 6 })
}

/// Installs the JSONL trace sink `--trace-out` (or the lower-precedence
/// `ODCFP_TRACE` environment variable) asks for. The returned guard
/// flushes and detaches the sink on drop. A resumed campaign
/// (`--resume`) appends to an existing trace; every other invocation
/// truncates.
fn install_trace(o: &Options) -> Result<Option<odcfp_obs::SinkGuard>, CliError> {
    let path = o
        .trace_out
        .clone()
        .or_else(|| std::env::var("ODCFP_TRACE").ok().filter(|p| !p.is_empty()));
    let Some(path) = path else {
        return Ok(None);
    };
    let guard = odcfp_obs::install_jsonl(Path::new(&path), o.resume).map_err(fail)?;
    Ok(Some(guard))
}

/// The `report <trace.jsonl>` form: summarize an observability trace.
///
/// Degrades gracefully — an empty or entirely torn trace prints a
/// warning and exits `0` (a trace cut short by a kill is still a valid
/// object to inspect).
fn report_trace(
    o: &Options,
    path: &str,
    out: &mut impl std::io::Write,
) -> Result<i32, CliError> {
    let trace = odcfp_obs::read_trace(Path::new(path))
        .map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    if trace.skipped_lines > 0 {
        // Same tolerance as the campaign journal: a trailing line torn
        // by a kill or a full disk is discarded, not fatal.
        eprintln!(
            "warning: {path}: skipped {} torn/unparseable line{}",
            trace.skipped_lines,
            if trace.skipped_lines == 1 { "" } else { "s" }
        );
    }
    if trace.events.is_empty() {
        eprintln!("warning: {path}: no parseable events");
    }
    write_output(o, &odcfp_obs::summarize(&trace), out)?;
    Ok(0)
}

/// The `solve` subcommand: decide one DIMACS CNF file with the configured
/// solver (`--solver-profile`), bounded by `--verify-budget` conflicts
/// and `--verify-timeout` seconds.
///
/// This is a solver debug tool, so unlike the netlist commands it uses
/// the SAT-competition exit-code convention: `0` satisfiable, `1`
/// unsatisfiable, `2` undecided (budget or deadline exhausted).
fn run_solve(o: &Options, out: &mut impl std::io::Write) -> Result<i32, CliError> {
    let path = required_input(o, "input .dimacs file")?;
    let text =
        fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))?;
    let cnf = parse_dimacs(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    let deadline = o
        .verify_timeout
        .map(|secs| Instant::now() + Duration::from_secs_f64(secs));
    let mut solver = Solver::from_cnf_with(&cnf, o.solver_config()?);
    if let Some(b) = o.verify_budget {
        solver.set_conflict_budget(b);
    }
    if let Some(d) = deadline {
        solver.set_deadline(d);
    }
    let code = match &solver.solve() {
        SolveResult::Sat(model) => {
            writeln!(out, "s SATISFIABLE")?;
            let lits: Vec<String> = (0..cnf.num_vars())
                .map(|i| {
                    let v = i + 1;
                    if model.value(Var::from_index(i)) {
                        v.to_string()
                    } else {
                        format!("-{v}")
                    }
                })
                .collect();
            writeln!(out, "v {} 0", lits.join(" "))?;
            0
        }
        SolveResult::Unsat => {
            writeln!(out, "s UNSATISFIABLE")?;
            1
        }
        SolveResult::Unknown => {
            writeln!(out, "s UNKNOWN")?;
            2
        }
    };
    if o.stats {
        write_solver_line(out, &solver.stats())?;
    }
    Ok(code)
}

/// Prints the one-line solver block: classic counters plus the modern-CDCL
/// heuristics accounting (learnt-DB reductions, average LBD, rephasings,
/// chronological backtracks).
fn write_solver_line(
    out: &mut impl std::io::Write,
    s: &SolverStats,
) -> Result<(), CliError> {
    writeln!(
        out,
        "solver: conflicts={} decisions={} propagations={} restarts={} learnt={}",
        s.conflicts, s.decisions, s.propagations, s.restarts, s.learnt_clauses,
    )?;
    writeln!(
        out,
        "heuristics: avg-lbd={:.2} db-reductions={} learnt-deleted={} rephases={} \
         chrono-backtracks={}",
        s.avg_lbd(),
        s.db_reductions,
        s.learnt_deleted,
        s.rephases,
        s.chrono_backtracks,
    )?;
    Ok(())
}

/// Prints the `--stats` effort-accounting block after a verify verdict.
fn write_verify_stats(
    out: &mut impl std::io::Write,
    stats: &VerifyStats,
) -> Result<(), CliError> {
    writeln!(
        out,
        "stats: path={} patterns={} strash-proven={} cut-points={} conflicts={} elapsed={:.2?}",
        if stats.used_fast_path { "fast" } else { "cold" },
        stats.patterns_simulated,
        stats.strash_proven_outputs,
        stats.cut_points_proven,
        stats.sat_conflicts,
        stats.elapsed,
    )?;
    if stats.used_fast_path {
        // The sweep layer's own accounting: structural merges and the
        // fate of every cut point (`simulated` counts the proven ones a
        // local truth table settled without SAT; refutations are
        // simulation counterexamples at interior cut points).
        writeln!(
            out,
            "sweep: strash-proven={} cut-points proven={} simulated={} refuted={} skipped={}",
            stats.strash_proven_outputs,
            stats.cut_points_proven,
            stats.cut_points_simulated,
            stats.cut_points_refuted,
            stats.cut_points_skipped,
        )?;
    }
    if let Some(s) = &stats.solver {
        // A fast-path proof that never reached SAT has an all-zero
        // solver block; say so instead of printing zeros that read as
        // "the solver ran and did nothing".
        if s.conflicts == 0 && s.decisions == 0 && s.propagations == 0 {
            writeln!(out, "solver: no SAT calls (proved structurally)")?;
        } else {
            write_solver_line(out, s)?;
        }
    }
    Ok(())
}

/// The usage banner.
pub const USAGE: &str = "\
usage: odcfp <command> [options]
commands:
  stats     <in.(blif|v)>                       design statistics and metrics
  map       <in.blif> [-o out.v]                technology mapping
  locations <in.(blif|v)>                       fingerprint locations + capacity
  embed     <in.(blif|v)> (--seed N | --bits S) [-o out.v] [--verify none|sim|sat]
  extract   <base.(blif|v)> <suspect.v>         recover a fingerprint
  verify    <golden.(blif|v)> <candidate.(blif|v)>   equivalence check
            [--verify-budget N] [--verify-timeout SECS] [--stats]
            [--solver-profile legacy|modern]
  solve     <in.dimacs>                         decide one DIMACS CNF (debug)
            [--solver-profile legacy|modern] [--verify-budget N]
            [--verify-timeout SECS] [--stats]
            (SAT-competition exit codes: 0 sat, 1 unsat, 2 undecided)
  constrain <in.(blif|v)> --delay-pct P         delay-constrained embedding
            [--method reactive|proactive] [-o out.v]
            [--robust-locations <survival-file>] (survival-aware selection:
             skips proven-strippable wires, tries survivors first)
  attack    <in.(blif|v)> | --manifest <m>      adversary battery scorecard
            [--seed N] [--buyers N] [--copies N] [--coalitions 2,4,8]
            [--resynth-levels opt,remap,remap2] [--power-words N]
            [--detect-threshold X] [--survival-out <file>] [-o out.json]
            (resynthesis survival, n-way collusion averaging, side-channel
             detectability; deterministic at any --threads setting)
  report    <in.(blif|v)> [-o out.md]           full markdown design report
  optimize  <in.(blif|v)> [-o out.v]            constant folding + dead sweep
  dot       <in.(blif|v)> [-o out.dot]          Graphviz export
  bench     <name> [-o out.v]                   generate a Table II benchmark
  campaign  <manifest> --out-dir <dir>          journaled batch embed+verify
            [--resume] [--max-jobs N]           (crash-safe; resumable)
            (manifest `artifacts delta` + `window N` mint delta codebooks
             with one-shot batch verification; see docs/POPULATION.md)
  report    <trace.jsonl>                       summarize an observability trace
  serve     [--listen ADDR] [--workers N]       resident multi-tenant engine
            [--queue-depth N] [--cache-budget-mb N] [--drain-secs S] [--root DIR]
            [--max-conns N] [--stream-threshold BYTES]
            (event-driven multiplexing with streaming replies; protocol
             spec in docs/PROTOCOL.md, operations guide in docs/SERVING.md)
  client    <addr> <op> [args]                  one request against a server
            ops: ping locations embed verify campaign report probe shutdown
            [--tenant NAME] [--deadline-ms N] [--policy quick|strict|budgeted:N]
            (verify accepts <golden> <candidate> or <golden> --bits S)
  loadgen   <addr>                              deterministic open-loop load
            [--rps R] [--duration-secs S] [--conns N] [--seed N]
            [--mix ping:W,locations:W,embed:W,verify:W] [-o hist.json]
options: --genlib <file> to use a custom cell library
         --threads N to pin the analysis worker count (default: all cores,
                     or ODCFP_THREADS; results are identical at any setting)
         --trace-out <path> records a structured JSONL trace of the run
                     (ODCFP_TRACE is the lower-precedence equivalent)
         --verify-budget / --verify-timeout bound SAT effort (embed, verify)
         --solver-profile picks the CDCL heuristics profile (verify, solve)
         --stats prints verification effort accounting (verify)
exit codes: 0 ok/proven, 1 error, 2 usage,
            3 refuted, 4 undecided, 5 probably-equivalent,
            6 campaign completed with quarantined jobs";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join("odcfp-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    const BLIF: &str = "\
.model tiny
.inputs a b c d
.outputs f
.names a b x
11 1
.names c d y
1- 1
-1 1
.names x y f
11 1
.end
";

    fn run_ok(command: &str, args: &[String]) -> String {
        let mut out = Vec::new();
        run(command, args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn stats_on_blif() {
        let input = tmp("s.blif", BLIF);
        let text = run_ok("stats", &[input]);
        assert!(text.contains("gates:"));
        assert!(text.contains("area"));
    }

    #[test]
    fn map_to_verilog_file() {
        let input = tmp("m.blif", BLIF);
        let output = tmp("m.v", "");
        run_ok("map", &[input, "-o".into(), output.clone()]);
        let v = fs::read_to_string(&output).unwrap();
        assert!(v.contains("module tiny"));
    }

    #[test]
    fn locations_listing() {
        let input = tmp("l.blif", BLIF);
        let text = run_ok("locations", &[input]);
        assert!(text.contains("locations"));
    }

    #[test]
    fn embed_extract_cycle() {
        let base_blif = tmp("e.blif", BLIF);
        let base_v = tmp("e_base.v", "");
        run_ok("map", &[base_blif.clone(), "-o".into(), base_v.clone()]);
        let marked_v = tmp("e_marked.v", "");
        let report = run_ok(
            "embed",
            &[
                base_v.clone(),
                "--seed".into(),
                "7".into(),
                "--verify".into(),
                "sat".into(),
                "-o".into(),
                marked_v.clone(),
            ],
        );
        assert!(report.contains("embedded"));
        let bits_line = run_ok("extract", &[base_v, marked_v]);
        let embedded = report
            .trim()
            .rsplit(' ')
            .next()
            .unwrap()
            .trim();
        assert_eq!(bits_line.trim(), embedded);
    }

    #[test]
    fn constrain_reports_and_writes() {
        let input = tmp("c.blif", BLIF);
        let output = tmp("c.v", "");
        let text = run_ok(
            "constrain",
            &[
                input,
                "--delay-pct".into(),
                "10".into(),
                "-o".into(),
                output.clone(),
            ],
        );
        assert!(text.contains("kept"));
        assert!(fs::read_to_string(&output).unwrap().contains("module"));
    }

    #[test]
    fn report_command() {
        let input = tmp("r.blif", BLIF);
        let text = run_ok("report", &[input]);
        assert!(text.contains("# Design report"));
        assert!(text.contains("## Timing"));
        assert!(text.contains("Fingerprint capacity"));
    }

    #[test]
    fn optimize_command() {
        let input = tmp(
            "o.blif",
            ".model o\n.inputs a\n.outputs y\n.names one\n1\n.names a one y\n11 1\n.end\n",
        );
        let text = run_ok("optimize", &[input]);
        assert!(text.contains("-> "), "{text}");
        assert!(text.contains("module o"));
    }

    #[test]
    fn bench_generation() {
        let output = tmp("b.v", "");
        run_ok("bench", &["c432".into(), "-o".into(), output.clone()]);
        assert!(fs::read_to_string(&output).unwrap().contains("module c432"));
    }

    #[test]
    fn dot_export() {
        let input = tmp("d.blif", BLIF);
        let text = run_ok("dot", &[input]);
        assert!(text.starts_with("digraph"));
    }

    #[test]
    fn errors_are_friendly() {
        let e = run("embed", &["nope.v".into()], &mut Vec::new()).unwrap_err();
        assert!(e.0.contains("cannot read"));
        assert_eq!(e.exit_code(), 1);
        let e2 = run("frobnicate", &[], &mut Vec::new()).unwrap_err();
        assert!(e2.0.contains("unknown command"));
        assert_eq!(e2.exit_code(), 2);
        let input = tmp("err.blif", BLIF);
        let e3 = run("embed", &[input], &mut Vec::new()).unwrap_err();
        assert!(e3.0.contains("--bits or --seed"));
        assert_eq!(e3.exit_code(), 2);
    }

    /// The malformed-input corpus: every entry must produce a formatted
    /// [`CliError`] with the right exit code — no panics, no unwraps.
    #[test]
    fn malformed_input_corpus_yields_clean_errors() {
        let truncated = tmp("trunc.blif", &BLIF[..BLIF.len() / 2]);
        let bad_genlib = tmp("bad.genlib", "GATE\nnot a genlib at all\n");
        let bad_ext = tmp("design.vhdl", "entity e is end;");
        let good = tmp("corpus.blif", BLIF);
        let corpus: Vec<(&str, Vec<String>, i32)> = vec![
            // Runtime errors (exit 1): broken files and inputs.
            ("stats", vec![truncated.clone()], 1),
            ("stats", vec!["/nonexistent/x.blif".into()], 1),
            ("stats", vec![good.clone(), "--genlib".into(), bad_genlib], 1),
            ("stats", vec![bad_ext], 1),
            // A --bits string whose length disagrees with the location
            // count must be a typed error, not an index panic.
            ("embed", vec![good.clone(), "--bits".into(), "0".repeat(64)], 1),
            // Usage errors (exit 2): bad flags and arguments.
            ("embed", vec![good.clone(), "--bits".into(), "01x".into()], 2),
            ("embed", vec![good.clone(), "--seed".into(), "NaN".into()], 2),
            ("embed", vec![good.clone(), "--verify".into(), "psychic".into()], 2),
            ("verify", vec![good.clone()], 2),
            ("verify", vec![good.clone(), good.clone(), "--verify-budget".into(), "-3".into()], 2),
            ("verify", vec![good.clone(), good.clone(), "--verify-timeout".into(), "-1".into()], 2),
            ("extract", vec![good.clone()], 2),
            ("stats", vec![good.clone(), "--frob".into()], 2),
            ("stats", vec![good.clone(), "--threads".into(), "0".into()], 2),
            ("stats", vec![good.clone(), "--threads".into(), "many".into()], 2),
            ("stats", vec![good, "--genlib".into()], 2),
        ];
        for (command, args, want_code) in corpus {
            let e = run(command, &args, &mut Vec::new())
                .expect_err(&format!("{command} {args:?} must fail"));
            assert!(!e.0.is_empty(), "{command} {args:?}: empty message");
            assert_eq!(e.exit_code(), want_code, "{command} {args:?}: {}", e.0);
        }
    }

    #[test]
    fn attack_scorecard_covers_all_adversaries_and_is_thread_invariant() {
        let input = tmp("atk.blif", BLIF);
        let args = |threads: &str| {
            vec![
                input.clone(),
                "--buyers".into(),
                "8".into(),
                "--copies".into(),
                "2".into(),
                "--coalitions".into(),
                "2,4".into(),
                "--resynth-levels".into(),
                "opt,remap".into(),
                "--power-words".into(),
                "16".into(),
                "--threads".into(),
                threads.into(),
            ]
        };
        let sequential = run_ok("attack", &args("1"));
        let parallel = run_ok("attack", &args("4"));
        odcfp_analysis::engine::set_thread_override(None);
        assert_eq!(sequential, parallel, "scorecard must be thread-invariant");
        for key in ["\"resynth\"", "\"collusion\"", "\"side_channel\"", "\"survival\""] {
            assert!(sequential.contains(key), "missing {key}:\n{sequential}");
        }
        assert!(sequential.contains("\"level\": \"remap\""), "{sequential}");
        assert!(sequential.contains("\"strategy\": \"random\""), "{sequential}");
    }

    #[test]
    fn attack_manifest_emits_scorecard_array() {
        let design = tmp("atk_m.blif", BLIF);
        let manifest = tmp("atk.manifest", &format!("# targets\n{design}\n{design}\n"));
        let text = run_ok(
            "attack",
            &[
                "--manifest".into(),
                manifest,
                "--buyers".into(),
                "4".into(),
                "--copies".into(),
                "1".into(),
                "--coalitions".into(),
                "2".into(),
                "--resynth-levels".into(),
                "opt".into(),
                "--power-words".into(),
                "8".into(),
            ],
        );
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert_eq!(text.matches("\"circuit\"").count(), 2, "{text}");
    }

    #[test]
    fn attack_survival_feeds_robust_constrain() {
        let input = tmp("atk_s.blif", BLIF);
        let survival = tmp("atk_s.survival", "");
        run_ok(
            "attack",
            &[
                input.clone(),
                "--buyers".into(),
                "4".into(),
                "--resynth-levels".into(),
                "opt".into(),
                "--power-words".into(),
                "8".into(),
                "--survival-out".into(),
                survival.clone(),
            ],
        );
        let written = fs::read_to_string(&survival).unwrap();
        assert!(written.contains("# odcfp survival v1"), "{written}");
        let text = run_ok(
            "constrain",
            &[
                input,
                "--delay-pct".into(),
                "10".into(),
                "--robust-locations".into(),
                survival,
            ],
        );
        assert!(text.contains("kept"), "{text}");
    }

    #[test]
    fn attack_trace_feeds_report_summary() {
        let input = tmp("atk_t.blif", BLIF);
        let trace = std::env::temp_dir()
            .join("odcfp-cli-tests")
            .join("atk.trace.jsonl");
        let _ = fs::remove_file(&trace);
        let trace_arg = trace.to_string_lossy().into_owned();
        run_ok(
            "attack",
            &[
                input,
                "--buyers".into(),
                "4".into(),
                "--coalitions".into(),
                "2".into(),
                "--resynth-levels".into(),
                "opt".into(),
                "--power-words".into(),
                "8".into(),
                "--trace-out".into(),
                trace_arg.clone(),
            ],
        );
        let report = run_ok("report", &[trace_arg]);
        assert!(report.contains("attack resynthesis survival"), "{report}");
        assert!(report.contains("attack collusion verdicts"), "{report}");
        assert!(report.contains("attack side-channel:"), "{report}");
        assert!(report.contains("attack.battery"), "span listed:\n{report}");
    }

    #[test]
    fn attack_rejects_bad_flags() {
        let input = tmp("atk_e.blif", BLIF);
        for (args, code) in [
            (vec![input.clone(), "--resynth-levels".into(), "psychic".into()], 2),
            (vec![input.clone(), "--coalitions".into(), "2,x".into()], 2),
            (vec![input.clone(), "--coalitions".into(), "0".into()], 2),
            (vec![input.clone(), "--buyers".into(), "0".into()], 2),
            (vec!["no_such_benchmark".into()], 1),
            (
                vec![input, "--manifest".into(), "/nonexistent/m.txt".into()],
                1,
            ),
        ] {
            let e = run("attack", &args, &mut Vec::new())
                .expect_err(&format!("attack {args:?} must fail"));
            assert_eq!(e.exit_code(), code, "attack {args:?}: {}", e.0);
        }
    }

    #[test]
    fn threads_flag_does_not_change_results() {
        let input = tmp("t.blif", BLIF);
        let sequential = run_ok("locations", &[input.clone(), "--threads".into(), "1".into()]);
        let parallel = run_ok("locations", &[input, "--threads".into(), "4".into()]);
        odcfp_analysis::engine::set_thread_override(None);
        assert_eq!(sequential, parallel);
        assert!(sequential.contains("locations"));
    }

    #[test]
    fn verify_subcommand_reports_verdicts() {
        let golden = tmp("ver_a.blif", BLIF);
        // Same function, different association of the AND tree.
        let same = tmp(
            "ver_b.blif",
            "\
.model tiny2
.inputs a b c d
.outputs f
.names c d y
1- 1
-1 1
.names a y t
11 1
.names t b f
11 1
.end
",
        );
        // Differs on exactly one row (x y = 10 also asserts f).
        let different = tmp(
            "ver_c.blif",
            "\
.model tiny3
.inputs a b c d
.outputs f
.names a b x
11 1
.names c d y
1- 1
-1 1
.names x y f
11 1
10 1
.end
",
        );
        let mut out = Vec::new();
        let code = run("verify", &[golden.clone(), same], &mut out).unwrap();
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
        assert!(String::from_utf8_lossy(&out).contains("proven equivalent"));

        let mut out = Vec::new();
        let code = run("verify", &[golden, different], &mut out).unwrap();
        assert_eq!(code, 3, "{}", String::from_utf8_lossy(&out));
        assert!(String::from_utf8_lossy(&out).contains("refuted"));
    }

    #[test]
    fn verify_stats_flag_prints_effort_accounting() {
        let golden = tmp("vstats_a.blif", BLIF);
        let copy = tmp("vstats_b.blif", BLIF);
        let mut out = Vec::new();
        let code = run(
            "verify",
            &[golden.clone(), copy.clone(), "--stats".into()],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("proven equivalent"), "{text}");
        assert!(text.contains("stats: path="), "{text}");
        assert!(text.contains("patterns="), "{text}");
        // Without the flag, the accounting block is absent.
        let mut out = Vec::new();
        run("verify", &[golden, copy], &mut out).unwrap();
        let text = String::from_utf8_lossy(&out);
        assert!(!text.contains("stats:"), "{text}");
    }

    #[test]
    fn verify_stats_fast_path_reports_sweep_not_zero_solver() {
        // c432 (36 inputs) cannot be settled by exhaustive simulation, so
        // verifying it against itself exercises the sweep fast path: the
        // strash proves every output with zero SAT conflicts — exactly
        // the case that used to print an all-zero solver block.
        let design = tmp("fp_c432.v", "");
        run_ok("bench", &["c432".into(), "-o".into(), design.clone()]);
        let mut out = Vec::new();
        let code = run(
            "verify",
            &[design.clone(), design, "--stats".into()],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8_lossy(&out);
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("path=fast"), "{text}");
        assert!(text.contains("sweep: strash-proven="), "{text}");
        assert!(
            !text.contains("conflicts=0 decisions=0"),
            "all-zero solver block must be suppressed:\n{text}"
        );
    }

    /// An unsatisfiable xor-chain miter in DIMACS: the forward and
    /// reversed association of an XOR chain over `width` inputs, with the
    /// difference bit asserted. Refuting it needs genuine CDCL search.
    fn xor_miter_dimacs(width: i32) -> String {
        let mut clauses: Vec<String> = Vec::new();
        let mut next = width + 1;
        let mut xor2 = |a: i32, b: i32, clauses: &mut Vec<String>| {
            let t = next;
            next += 1;
            clauses.push(format!("{} {} {} 0", -t, a, b));
            clauses.push(format!("{} {} {} 0", -t, -a, -b));
            clauses.push(format!("{} {} {} 0", t, -a, b));
            clauses.push(format!("{} {} {} 0", t, a, -b));
            t
        };
        let mut acc = 1;
        for i in 2..=width {
            acc = xor2(acc, i, &mut clauses);
        }
        let mut rev = width;
        for i in (1..width).rev() {
            rev = xor2(rev, i, &mut clauses);
        }
        let diff = xor2(acc, rev, &mut clauses);
        clauses.push(format!("{diff} 0"));
        format!("p cnf {} {}\n{}\n", next - 1, clauses.len(), clauses.join("\n"))
    }

    #[test]
    fn solve_subcommand_uses_sat_competition_exit_codes() {
        let sat = tmp("solve_sat.dimacs", "p cnf 2 2\n1 -2 0\n2 0\n");
        let unsat = tmp("solve_unsat.dimacs", "p cnf 1 2\n1 0\n-1 0\n");
        let mut out = Vec::new();
        assert_eq!(run("solve", &[sat], &mut out).unwrap(), 0);
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains("s SATISFIABLE"), "{text}");
        assert!(text.contains("v 1 2 0"), "model line:\n{text}");

        let mut out = Vec::new();
        assert_eq!(run("solve", std::slice::from_ref(&unsat), &mut out).unwrap(), 1);
        assert!(String::from_utf8_lossy(&out).contains("s UNSATISFIABLE"));

        // A zero-conflict budget cannot refute a miter that needs search.
        let hard = tmp("solve_hard.dimacs", &xor_miter_dimacs(16));
        let mut out = Vec::new();
        let code = run(
            "solve",
            &[hard, "--verify-budget".into(), "0".into()],
            &mut out,
        )
        .unwrap();
        assert_eq!(code, 2, "{}", String::from_utf8_lossy(&out));
        assert!(String::from_utf8_lossy(&out).contains("s UNKNOWN"));

        // Unknown profiles are usage errors.
        let e = run(
            "solve",
            &[unsat, "--solver-profile".into(), "psychic".into()],
            &mut Vec::new(),
        )
        .expect_err("unknown profile must fail");
        assert_eq!(e.exit_code(), 2, "{}", e.0);
    }

    #[test]
    fn solver_profiles_agree_and_reach_the_solver() {
        // c432 has too many inputs for exhaustive simulation, so the
        // fingerprinted copy is proven by the SAT tier.
        let golden = tmp("prof_c432.v", "");
        run_ok("bench", &["c432".into(), "-o".into(), golden.clone()]);
        let copy = tmp("prof_copy.v", "");
        run_ok(
            "embed",
            &[
                golden.clone(),
                "--seed".into(),
                "3".into(),
                "--verify".into(),
                "none".into(),
                "-o".into(),
                copy.clone(),
            ],
        );
        let text = fs::read_to_string(&copy).unwrap();
        let broken = tmp("prof_bad.v", &text.replacen("  AND2 ", "  NAND2 ", 1));
        for (candidate, want) in [(copy, 0), (broken, 3)] {
            for profile in ["legacy", "modern"] {
                let mut out = Vec::new();
                let code = run(
                    "verify",
                    &[
                        golden.clone(),
                        candidate.clone(),
                        "--solver-profile".into(),
                        profile.into(),
                    ],
                    &mut out,
                )
                .unwrap();
                assert_eq!(code, want, "{profile}: {}", String::from_utf8_lossy(&out));
            }
        }

        // The profile reaches the search: only `modern` scores LBD and
        // rephases.
        let hard = tmp("prof_hard.dimacs", &xor_miter_dimacs(12));
        let heuristics = |profile: &str| {
            let mut out = Vec::new();
            let args = [hard.clone(), "--stats".into(), "--solver-profile".into(), profile.into()];
            assert_eq!(run("solve", &args, &mut out).unwrap(), 1);
            let text = String::from_utf8(out).unwrap();
            text.lines()
                .find(|l| l.starts_with("heuristics:"))
                .unwrap_or_else(|| panic!("no heuristics line:\n{text}"))
                .to_owned()
        };
        assert!(heuristics("legacy").contains("avg-lbd=0.00"));
        assert!(!heuristics("modern").contains("avg-lbd=0.00"));
    }

    #[test]
    fn removed_solver_flags_are_usage_errors() {
        let design = tmp("flags.blif", BLIF);
        let cnf = tmp("flags.dimacs", "p cnf 1 1\n1 0\n");
        let cases: [(&str, Vec<String>); 2] = [
            ("verify", vec![design.clone(), design]),
            ("solve", vec![cnf]),
        ];
        for (command, inputs) in cases {
            for flag in [["--portfolio", "2"], ["--solver-profile", "glucose"]] {
                let mut args = inputs.clone();
                args.extend(flag.map(String::from));
                let e = run(command, &args, &mut Vec::new())
                    .expect_err("removed flag must be rejected");
                assert_eq!(e.exit_code(), 2, "{command} {flag:?}: {}", e.0);
            }
        }
    }

    #[test]
    fn removed_serve_threaded_flag_is_a_usage_error() {
        let e = run("serve", &["--threaded".to_owned()], &mut Vec::new())
            .expect_err("removed flag must be rejected");
        assert_eq!(e.exit_code(), 2, "{}", e.0);
    }

    #[test]
    fn trace_out_records_and_report_summarizes() {
        let input = tmp("tr.blif", BLIF);
        let trace = std::env::temp_dir()
            .join("odcfp-cli-tests")
            .join("tr.trace.jsonl");
        let _ = fs::remove_file(&trace);
        let trace_arg = trace.to_string_lossy().into_owned();
        run_ok("locations", &[input, "--trace-out".into(), trace_arg.clone()]);
        let text = fs::read_to_string(&trace).unwrap();
        assert!(
            text.lines().any(|l| l.contains("\"core.locate\"")),
            "trace records the locate span:\n{text}"
        );
        assert!(
            text.lines().any(|l| l.contains("\"core.select\"")),
            "trace records the selection span:\n{text}"
        );
        let report = run_ok("report", &[trace_arg]);
        assert!(report.contains("spans (by self time)"), "{report}");
        assert!(report.contains("core.locate"), "{report}");
        assert!(report.contains("core.select"), "{report}");
    }

    #[test]
    fn report_on_empty_or_torn_trace_exits_zero() {
        let empty = tmp("empty.trace.jsonl", "");
        let mut out = Vec::new();
        assert_eq!(run("report", &[empty], &mut out).unwrap(), 0);
        assert!(String::from_utf8_lossy(&out).contains("warning: no events"));
        let torn = tmp("torn.trace.jsonl", "{\"seq\":0,\"t_us\":1,\"ki");
        let mut out = Vec::new();
        assert_eq!(run("report", &[torn], &mut out).unwrap(), 0);
        assert!(String::from_utf8_lossy(&out).contains("1 unparseable line"));
    }

    #[test]
    fn verdict_exit_codes_are_distinct_and_documented() {
        use std::time::Duration;
        let verdicts = [
            (Verdict::Proven, 0),
            (Verdict::Refuted { counterexample: vec![true] }, 3),
            (
                Verdict::Undecided {
                    conflicts_spent: 1,
                    elapsed: Duration::from_millis(1),
                },
                4,
            ),
            (Verdict::ProbablyEquivalent { patterns: 1024 }, 5),
        ];
        for (verdict, want) in verdicts {
            assert_eq!(verdict_exit_code(&verdict), want, "{verdict}");
        }
    }

    #[test]
    fn custom_genlib_flows_through() {
        let lib = tmp(
            "mini.genlib",
            "\
GATE INV  928  Y=!A;    PIN * INV 1 999 0.9 0.12 0.9 0.12
GATE NAND2 1392 Y=!(A*B); PIN * INV 1 999 1.0 0.12 1.0 0.12
GATE NAND3 1856 Y=!(A*B*C); PIN * INV 1 999 1.1 0.12 1.1 0.12
GATE AND2 1856 Y=A*B;   PIN * NONINV 2 999 1.8 0.12 1.8 0.12
GATE AND3 2320 Y=A*B*C; PIN * NONINV 2 999 1.9 0.12 1.9 0.12
GATE OR2  1856 Y=A+B;   PIN * NONINV 2 999 2.0 0.12 2.0 0.12
GATE OR3  2320 Y=A+B+C; PIN * NONINV 2 999 2.2 0.12 2.2 0.12
GATE NOR2 1392 Y=!(A+B); PIN * INV 1 999 1.3 0.12 1.3 0.12
",
        );
        let input = tmp("g.blif", BLIF);
        let text = run_ok("stats", &[input, "--genlib".into(), lib]);
        assert!(text.contains("gates:"));
    }
}
