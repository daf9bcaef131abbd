//! End-to-end and per-layer benchmark of odcfp.
//!
//! Three workloads drive the system from outside, through the public
//! functions of its crates:
//!
//! * [`pipeline`] — a single-threaded closed loop of what a batch user
//!   runs: embed (parse, locate, strict embed, write), extract, verify;
//! * [`population`] — a delta-artifact campaign on `des` followed by
//!   collusion tracing against a [`odcfp_core::collusion::TracerIndex`];
//! * [`serve`] — an open-loop generator walking a ladder of request rates
//!   against an in-process [`odcfp_serve::Server`] over loopback.
//!
//! Every output is checked against a known answer. A traced run
//! (`--trace 1`) records spans around each public call, in this crate
//! only, and reports per-layer numbers instead of end-to-end ones. See
//! `NOTES.md` beside this crate for the metric map.

pub mod calibrate;
pub mod circuits;
pub mod pipeline;
pub mod population;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Duration;

pub use report::Report;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop embed → extract → verify on c1908/des/c6288.
    Pipeline,
    /// Delta campaign on des plus coalition tracing.
    Population,
    /// Open-loop rate ladder against the in-process server.
    Serve,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Pipeline, Workload::Population, Workload::Serve];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Population => "population",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does. `Smoke` shrinks every size so the
/// benchmark's own tests finish in seconds; its numbers mean nothing.
/// The command line always runs `Full`; only the tests set `Smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the end-to-end bounds were fixed for.
    Full,
    /// Tiny sizes for tests.
    Smoke,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Work size.
    pub scale: Scale,
}

impl Config {
    /// The measurement window as a [`Duration`].
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Hard stop for a measurement pass, whatever its sample count, so a run
/// ends well inside three minutes on a slow host.
const MAX_RUN: Duration = Duration::from_secs(140);

/// When a measurement pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once the window has passed and at least `min` operations ran.
    Time {
        /// Measurement window.
        window: Duration,
        /// Minimum operations, so percentiles keep their sample counts.
        min: usize,
    },
    /// After exactly this many operations.
    Count(usize),
}

impl Stop {
    /// Whether a pass that started `elapsed` ago and has run `done`
    /// operations stops before the next one.
    pub fn reached(self, elapsed: Duration, done: usize) -> bool {
        match self {
            Stop::Time { window, min } => (elapsed >= window && done >= min) || elapsed >= MAX_RUN,
            Stop::Count(n) => done >= n,
        }
    }
}

/// Engine threads (`ODCFP_THREADS`) used by every workload. One keeps
/// the closed loops single-threaded and leaves the second core of a
/// 2-core host to the serve workload's other worker.
pub const ENGINE_THREADS: usize = 1;

/// A seed recorded here and never used while the benchmark was tuned:
/// a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7_340_411;

/// Runs one configured benchmark.
pub fn run(config: &Config) -> Report {
    odcfp_analysis::engine::set_thread_override(Some(ENGINE_THREADS));
    let mut report = match config.workload {
        Workload::Pipeline => pipeline::run(config),
        Workload::Population => population::run(config),
        Workload::Serve => serve::run(config),
    };
    report.add_provenance(config);
    report
}

/// Writes a traced run's spans as JSON lines to
/// `.bench_out/spans-<workload>-<seed>.jsonl` under the working
/// directory. Failure to write is reported, not fatal.
pub fn write_spans(config: &Config, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        config.workload.name(),
        config.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
