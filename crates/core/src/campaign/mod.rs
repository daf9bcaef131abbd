//! Crash-safe fingerprinting campaigns: a journaled batch runner with
//! per-job fault isolation, cooperative deadlines, and artifact
//! integrity (DESIGN.md §10).
//!
//! A **campaign** executes the job list a [`Manifest`] expands to —
//! every (circuit, buyer) pair — minting one fingerprinted copy per job
//! through [`Fingerprinter::embed_with_session_cancellable`] on one
//! [`VerifySession`] per circuit. The runner
//! is built for unattended fleets, so three defenses are always on:
//!
//! * **Write-ahead journal** — every job transition is appended to
//!   `campaign.journal.jsonl` (checksummed, fsynced) *before* the runner
//!   acts on it. A SIGKILLed campaign resumes with
//!   [`CampaignOptions::resume`]: completed jobs are skipped (after
//!   re-verifying their artifact digests on disk), quarantined jobs stay
//!   quarantined, and only in-flight jobs re-run. Because buyer bits
//!   derive from the manifest seed, a resumed job re-mints a
//!   bit-identical artifact.
//! * **Fault isolation** — each job attempt runs under
//!   `std::panic::catch_unwind` with a per-job [`CancelToken`] deadline
//!   threaded through the whole verify ladder. A failing attempt is
//!   retried with backoff; an exhausted job is journalled as *poisoned*
//!   with a structured diagnostic and the campaign moves on.
//! * **Artifact integrity** — netlists are written atomically
//!   (temp file + fsync + rename) and their content digests recorded in
//!   the journal, so a resume detects truncated or tampered artifacts
//!   and re-mints them.
//!
//! The core crate owns orchestration only: circuit parsing and netlist
//! emission are injected through [`CampaignEnv`], keeping the dependency
//! graph acyclic (the CLI supplies the BLIF/Verilog codecs).

pub mod journal;
pub mod manifest;
pub mod population;

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odcfp_analysis::cancel::CancelToken;
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{Digest, Netlist};

use crate::verify::{Verdict, VerifySession};
use crate::Fingerprinter;

pub use journal::{
    compact, BatchState, CompactionStats, GoldenState, JobState, Journal, JournalState, Record,
    JOURNAL_FILE,
};
pub use manifest::{
    ArtifactMode, CircuitSource, FaultProbe, JobSpec, Manifest, ManifestCircuit, ManifestError,
    VerifySpec,
};
pub use population::CampaignCache;

/// Directory (inside the output directory) artifacts are written to.
pub const ARTIFACT_DIR: &str = "artifacts";

/// Hard wall-clock cap on the `probe:spin` fault probe, so a manifest
/// without `deadline-ms` cannot hang a campaign forever.
const SPIN_PROBE_CAP: Duration = Duration::from_secs(30);

/// Capability hooks the caller injects: how to load a circuit from a
/// [`CircuitSource::Path`] and how to render a netlist into artifact
/// text. Both run *inside* the per-job `catch_unwind` boundary, so a
/// panicking loader poisons one job, not the campaign.
pub struct CampaignEnv<'a> {
    /// Resolves a `path:` source to a netlist. Errors are job-attempt
    /// failures (retried, then quarantined).
    pub load: &'a (dyn Fn(&ManifestCircuit) -> Result<Netlist, String> + Sync),
    /// Renders a minted netlist to the artifact file contents.
    pub emit: &'a (dyn Fn(&Netlist) -> String + Sync),
}

/// Runner knobs beyond what the manifest specifies.
#[derive(Debug, Clone, Default)]
pub struct CampaignOptions {
    /// Continue a previous run in the same output directory. Without
    /// this, an existing journal is an error (never silently clobber).
    pub resume: bool,
    /// Execute at most this many jobs this invocation, then stop with
    /// the rest pending — chunked operation, and the hook crash-safety
    /// tests use to create interrupted campaigns deterministically.
    pub stop_after: Option<usize>,
}

/// Progress callbacks, one per job transition, for live reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// An attempt began.
    Started {
        /// Job id.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The job completed and its artifact is on disk.
    Completed {
        /// Job id.
        job: String,
        /// Verdict short name.
        verdict: String,
        /// Milliseconds the successful attempt took.
        millis: u64,
    },
    /// Resume skipped a job whose journalled artifact re-verified.
    Skipped {
        /// Job id.
        job: String,
    },
    /// Resume skipped a quarantined job.
    SkippedPoisoned {
        /// Job id.
        job: String,
    },
    /// A journalled-done job's artifact was missing or failed its digest
    /// check; the job re-runs.
    StaleArtifact {
        /// Job id.
        job: String,
    },
    /// An attempt failed; the job will retry or be quarantined.
    AttemptFailed {
        /// Job id.
        job: String,
        /// The attempt that failed.
        attempt: u32,
        /// What went wrong.
        error: String,
    },
    /// The job exhausted its attempts and is quarantined.
    Poisoned {
        /// Job id.
        job: String,
        /// Last failure diagnostic.
        diagnostic: String,
    },
    /// Batched progress: large campaigns emit this every few hundred
    /// jobs instead of per-job `Started`/`Completed` events.
    Progress {
        /// Jobs in a terminal state so far (this leg's view).
        done: u64,
        /// Jobs the manifest expands to.
        total: u64,
    },
    /// Delta mode: a circuit's golden artifact is on disk and
    /// journalled.
    GoldenMinted {
        /// Circuit name.
        circuit: String,
        /// Fingerprint locations (bits per buyer code).
        locations: u64,
    },
    /// Delta mode: the code-space proof landed — every buyer of this
    /// circuit is `proven` without per-buyer solving.
    CodeSpaceProven {
        /// Circuit name.
        circuit: String,
        /// Local obligations the proof checked.
        obligations: usize,
        /// Conflicts the proof's SAT-discharged obligations spent.
        conflicts: u64,
        /// Wall-clock milliseconds the proof took.
        millis: u64,
    },
    /// Delta mode: no code-space proof (entangled locations, refuted
    /// superposition, or budget out); buyers verify individually.
    CodeSpaceFallback {
        /// Circuit name.
        circuit: String,
        /// Why the batch proof was unavailable: the outcome, and the gate
        /// that failed to settle locally when there is one.
        reason: String,
    },
    /// Delta mode: a window of buyers is durably in the codebook.
    WindowCompleted {
        /// Circuit name.
        circuit: String,
        /// First buyer of the window.
        from: u64,
        /// One past the last buyer of the window.
        to: u64,
    },
}

/// A campaign-level failure (job-level failures never surface here —
/// they are quarantined and reported in the summary).
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O operation on the journal, output directory, or an
    /// artifact failed.
    Io {
        /// What the runner was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The output directory already holds a journal and
    /// [`CampaignOptions::resume`] was not set.
    JournalExists(PathBuf),
    /// `--resume` with a manifest that does not match the journalled one.
    ManifestMismatch {
        /// Digest recorded in the journal.
        journalled: Digest,
        /// Digest of the manifest passed to this run.
        supplied: Digest,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io { context, source } => write!(f, "{context}: {source}"),
            CampaignError::JournalExists(path) => write!(
                f,
                "output directory already contains {} — pass --resume to continue it, \
                 or choose a fresh directory",
                path.display()
            ),
            CampaignError::ManifestMismatch {
                journalled,
                supplied,
            } => write!(
                f,
                "refusing to resume: journal was written for manifest {journalled}, \
                 but this run supplied {supplied}"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> CampaignError {
    let context = context.into();
    move |source| CampaignError::Io { context, source }
}

/// The final accounting of a campaign invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Jobs the manifest expands to.
    pub total: usize,
    /// Jobs executed (minted) by *this* invocation.
    pub executed: usize,
    /// Jobs skipped because a previous leg completed them.
    pub skipped: usize,
    /// Jobs completed overall (executed + skipped-as-done).
    pub completed: usize,
    /// Quarantined jobs with their diagnostics (all legs).
    pub poisoned: Vec<(String, String)>,
    /// Verdict short-name histogram over completed jobs.
    pub verdicts: BTreeMap<String, usize>,
    /// Jobs left pending by [`CampaignOptions::stop_after`].
    pub remaining: usize,
}

impl CampaignSummary {
    /// `true` when every job reached a terminal state and none were
    /// quarantined.
    pub fn is_clean(&self) -> bool {
        self.poisoned.is_empty() && self.remaining == 0
    }
}

impl std::fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign: {} jobs, {} completed ({} executed, {} resumed), \
             {} poisoned, {} pending",
            self.total,
            self.completed,
            self.executed,
            self.skipped,
            self.poisoned.len(),
            self.remaining
        )?;
        for (verdict, count) in &self.verdicts {
            writeln!(f, "  verdict {verdict}: {count}")?;
        }
        for (job, diagnostic) in &self.poisoned {
            writeln!(f, "  poisoned {job}: {diagnostic}")?;
        }
        Ok(())
    }
}

/// What one successful attempt produced, before it is journalled.
struct AttemptSuccess {
    verdict: &'static str,
    artifact_text: String,
    bits: String,
}

fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Proven => "proven",
        Verdict::ProbablyEquivalent { .. } => "probable",
        Verdict::Refuted { .. } => "refuted",
        Verdict::Undecided { .. } => "undecided",
    }
}

/// Runs (or resumes) a campaign in `out_dir`, reporting progress through
/// `on_event`.
///
/// # Example
///
/// Mint two buyer copies of one circuit (the loader and emitter are
/// injected, so any codec works — the CLI wires in BLIF/Verilog):
///
/// ```
/// use odcfp_core::campaign::{run, CampaignEnv, CampaignOptions, Manifest};
/// use odcfp_netlist::CellLibrary;
/// use odcfp_synth::benchmarks::random::{random_dag, DagParams};
///
/// let manifest = Manifest::parse("circuit c path:c.v\nbuyers 2\nseed 7\n")?;
/// let env = CampaignEnv {
///     load: &|_c| Ok(random_dag(CellLibrary::standard(), DagParams::small(5))),
///     emit: &|n| format!("// {} gates\n", n.num_gates()),
/// };
/// let dir = std::env::temp_dir().join("odcfp-doc-campaign-run");
/// # let _ = std::fs::remove_dir_all(&dir);
/// let summary = run(&manifest, &dir, &env, &CampaignOptions::default(), &mut |_| {})?;
/// assert_eq!(summary.completed, 2);
/// assert!(summary.is_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Only campaign-level problems error: unusable output directory,
/// journal I/O failures, or a resume against a different manifest.
/// Job-level failures are quarantined, not raised.
pub fn run(
    manifest: &Manifest,
    out_dir: &Path,
    env: &CampaignEnv<'_>,
    options: &CampaignOptions,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<CampaignSummary, CampaignError> {
    run_cached(
        manifest,
        out_dir,
        env,
        options,
        &mut CampaignCache::default(),
        on_event,
    )
}

/// Journal records beyond which a resume compacts the journal before
/// appending more (roughly: several failed legs' worth of churn).
const COMPACT_SLACK: usize = 4096;

/// Campaigns larger than this stop emitting per-job events and obs
/// points and batch progress instead (see [`JobEvent::Progress`]).
const VERBOSE_JOB_CAP: usize = 512;

/// Terminal jobs per [`JobEvent::Progress`] emission in batched mode.
const PROGRESS_EVERY: usize = 256;

/// [`run`] with caller-owned reusable state: a resident server passes
/// the same [`CampaignCache`] to every leg of a campaign so circuit
/// analysis, verify sessions, and delta-mode code-space proofs are paid
/// once per campaign instead of once per leg. Results are identical with
/// a cold cache.
///
/// # Errors
///
/// As [`run`].
pub fn run_cached(
    manifest: &Manifest,
    out_dir: &Path,
    env: &CampaignEnv<'_>,
    options: &CampaignOptions,
    cache: &mut CampaignCache,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<CampaignSummary, CampaignError> {
    fs::create_dir_all(out_dir.join(ARTIFACT_DIR))
        .map_err(io_err(format!("creating {}", out_dir.display())))?;

    let mut state = JournalState::replay(out_dir).map_err(io_err("replaying campaign journal"))?;
    if state.records > 0 && !options.resume {
        return Err(CampaignError::JournalExists(out_dir.join(JOURNAL_FILE)));
    }
    if let Some(journalled) = state.manifest {
        if journalled != manifest.digest() {
            return Err(CampaignError::ManifestMismatch {
                journalled,
                supplied: manifest.digest(),
            });
        }
    }

    let jobs = manifest.jobs();

    // A journal much longer than its job list is mostly superseded
    // churn (retries, many chunked legs); fold it before appending more
    // so replay time stays proportional to live state, not history.
    if options.resume && state.records > 3 * jobs.len() + COMPACT_SLACK {
        let stats = journal::compact(out_dir).map_err(io_err("compacting campaign journal"))?;
        odcfp_obs::point("campaign.compact")
            .field("records_before", stats.records_before)
            .field("records_after", stats.records_after)
            .emit();
        state = JournalState::replay(out_dir).map_err(io_err("replaying compacted journal"))?;
    }
    let mut journal = Journal::open(out_dir).map_err(io_err("opening campaign journal"))?;
    journal
        .append(&Record::Start {
            manifest: manifest.digest(),
            jobs: jobs.len() as u64,
        })
        .map_err(io_err("journalling campaign start"))?;
    odcfp_obs::point("campaign.start")
        .field("jobs", jobs.len())
        .field("resume", options.resume)
        .emit();

    let mut summary = CampaignSummary {
        total: jobs.len(),
        ..CampaignSummary::default()
    };
    // Fingerprinters are expensive (location analysis over the whole
    // netlist); build each circuit's once and share it across buyers.
    let mut fingerprinters: HashMap<usize, Arc<Fingerprinter>> = HashMap::new();
    // One persistent verification session per circuit: the sweep
    // engine's strash store and learnt clauses amortize across buyers,
    // so buyer N+1's check is usually a structural lookup, not a fresh
    // SAT problem. Dropped for a circuit whenever one of its attempts
    // fails (see `run_job`): a panicked or deadline-killed check may
    // leave the engines mid-query, and verdict safety beats reuse.
    let mut sessions: HashMap<usize, VerifySession> = HashMap::new();

    // Per-job emission at population scale drowns both stderr and the
    // trace stream (and measurably slows the mint loop); large
    // campaigns batch progress instead.
    let verbose = jobs.len() <= VERBOSE_JOB_CAP;
    let delta = manifest.artifact_mode == ArtifactMode::Delta;
    let mut terminal = 0u64;
    let progress = |terminal: u64, on_event: &mut dyn FnMut(&JobEvent)| {
        if !verbose && terminal.is_multiple_of(PROGRESS_EVERY as u64) {
            odcfp_obs::point("campaign.progress")
                .field("done", terminal)
                .field("total", jobs.len())
                .emit();
            on_event(&JobEvent::Progress {
                done: terminal,
                total: jobs.len() as u64,
            });
        }
    };

    for job in &jobs {
        // Delta mode mints `path:` circuits in windows (below); only
        // probe circuits go through the per-job loop, keeping the fault
        // battery identical across artifact modes.
        if delta
            && matches!(
                manifest.circuits[job.circuit].source,
                CircuitSource::Path(_)
            )
        {
            continue;
        }
        // Resume: honour terminal journal states.
        match state.jobs.get(&job.id) {
            Some(JobState::Done {
                verdict,
                artifact,
                digest,
                ..
            }) => {
                if artifact_intact(out_dir, artifact, *digest) {
                    summary.skipped += 1;
                    summary.completed += 1;
                    *summary.verdicts.entry(verdict.clone()).or_insert(0) += 1;
                    if verbose {
                        // Replay-stable: a resumed leg re-emits the journalled
                        // outcome, so its `campaign.job.outcome` stream equals
                        // an uninterrupted run's.
                        odcfp_obs::point("campaign.job.outcome")
                            .field("job", job.id.as_str())
                            .field("verdict", verdict.as_str())
                            .emit();
                        on_event(&JobEvent::Skipped {
                            job: job.id.clone(),
                        });
                    }
                    terminal += 1;
                    progress(terminal, on_event);
                    continue;
                }
                // Journalled done, but the artifact is gone or corrupt:
                // fall through and re-mint it.
                on_event(&JobEvent::StaleArtifact {
                    job: job.id.clone(),
                });
            }
            Some(JobState::Poisoned { diagnostic }) => {
                summary.poisoned.push((job.id.clone(), diagnostic.clone()));
                on_event(&JobEvent::SkippedPoisoned {
                    job: job.id.clone(),
                });
                terminal += 1;
                progress(terminal, on_event);
                continue;
            }
            Some(JobState::InFlight) | None => {}
        }

        if options
            .stop_after
            .is_some_and(|cap| summary.executed >= cap)
        {
            summary.remaining += 1;
            continue;
        }
        summary.executed += 1;

        run_job(
            manifest,
            job,
            out_dir,
            env,
            &mut journal,
            &mut fingerprinters,
            &mut sessions,
            &mut summary,
            verbose,
            on_event,
        )?;
        terminal += 1;
        progress(terminal, on_event);
    }

    if delta {
        population::run_delta(
            manifest,
            out_dir,
            env,
            options,
            cache,
            &state,
            &mut journal,
            &mut summary,
            on_event,
        )?;
    }

    // `campaign.summary` carries only leg-invariant totals (a resumed
    // leg reports the same end state as an uninterrupted run);
    // `campaign.leg` carries this invocation's split.
    odcfp_obs::point("campaign.summary")
        .field("total", summary.total)
        .field("completed", summary.completed)
        .field("poisoned", summary.poisoned.len())
        .emit();
    odcfp_obs::point("campaign.leg")
        .field("executed", summary.executed)
        .field("skipped", summary.skipped)
        .field("remaining", summary.remaining)
        .emit();
    Ok(summary)
}

/// Executes one job: attempt loop with backoff, quarantine on
/// exhaustion. Only journal I/O errors propagate.
#[allow(clippy::too_many_arguments)]
fn run_job(
    manifest: &Manifest,
    job: &JobSpec,
    out_dir: &Path,
    env: &CampaignEnv<'_>,
    journal: &mut Journal,
    fingerprinters: &mut HashMap<usize, Arc<Fingerprinter>>,
    sessions: &mut HashMap<usize, VerifySession>,
    summary: &mut CampaignSummary,
    verbose: bool,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<(), CampaignError> {
    let mut job_span = verbose.then(|| {
        let mut span = odcfp_obs::span("campaign.job");
        span.field("job", job.id.as_str());
        span
    });
    let attempts = manifest.retries + 1;
    let mut last_error = String::new();
    for attempt in 1..=attempts {
        journal
            .append(&Record::JobStart {
                job: job.id.clone(),
                attempt,
            })
            .map_err(io_err("journalling job start"))?;
        if verbose {
            odcfp_obs::point("campaign.job.start")
                .field("job", job.id.as_str())
                .field("attempt", u64::from(attempt))
                .emit();
            on_event(&JobEvent::Started {
                job: job.id.clone(),
                attempt,
            });
        }

        let started = Instant::now();
        let token = match manifest.deadline {
            Some(limit) => CancelToken::with_timeout(limit),
            None => CancelToken::new(),
        };
        // The unwind boundary: a panicking loader, fingerprinter, or
        // emitter fails this *attempt*, never the campaign. The
        // fingerprinter cache is only written on success, so a panic
        // cannot leave a half-built entry behind; the verify session is
        // dropped below on any failure since it is mutated mid-attempt.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            attempt_job(manifest, job, env, fingerprinters, sessions, &token)
        }))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_text(payload))));

        match outcome {
            Ok(success) => {
                let relpath = format!(
                    "{ARTIFACT_DIR}/{}_b{}.v",
                    manifest.circuits[job.circuit].name, job.buyer
                );
                let digest = write_artifact_atomic(
                    &out_dir.join(&relpath),
                    success.artifact_text.as_bytes(),
                )
                .map_err(io_err(format!("writing artifact {relpath}")))?;
                let millis = started.elapsed().as_millis() as u64;
                journal
                    .append(&Record::JobDone {
                        job: job.id.clone(),
                        attempt,
                        verdict: success.verdict.to_owned(),
                        artifact: relpath,
                        digest,
                        bits: success.bits,
                        millis,
                    })
                    .map_err(io_err("journalling job completion"))?;
                summary.completed += 1;
                *summary
                    .verdicts
                    .entry(success.verdict.to_owned())
                    .or_insert(0) += 1;
                if verbose {
                    odcfp_obs::point("campaign.job.outcome")
                        .field("job", job.id.as_str())
                        .field("verdict", success.verdict)
                        .emit();
                    on_event(&JobEvent::Completed {
                        job: job.id.clone(),
                        verdict: success.verdict.to_owned(),
                        millis,
                    });
                }
                if let Some(span) = job_span.as_mut() {
                    span.field("outcome", "completed");
                }
                return Ok(());
            }
            Err(error) => {
                // A failed attempt may have left the shared verify
                // session mid-query (panic, deadline inside the
                // solver); rebuild it from scratch next time rather
                // than trust its internal state.
                sessions.remove(&job.circuit);
                journal
                    .append(&Record::JobFailed {
                        job: job.id.clone(),
                        attempt,
                        error: error.clone(),
                    })
                    .map_err(io_err("journalling job failure"))?;
                odcfp_obs::point("campaign.attempt.failed")
                    .field("job", job.id.as_str())
                    .field("attempt", u64::from(attempt))
                    .field("error", error.as_str())
                    .emit();
                on_event(&JobEvent::AttemptFailed {
                    job: job.id.clone(),
                    attempt,
                    error: error.clone(),
                });
                last_error = error;
                if attempt < attempts {
                    std::thread::sleep(retry_backoff(manifest.buyer_seed(job.buyer), attempt));
                }
            }
        }
    }

    let diagnostic = format!("{last_error} (after {attempts} attempts)");
    journal
        .append(&Record::JobPoisoned {
            job: job.id.clone(),
            attempts,
            diagnostic: diagnostic.clone(),
        })
        .map_err(io_err("journalling quarantine"))?;
    // Structured quarantine event: the diagnostic embeds the panic
    // payload (or last error) so a trace alone explains the failure.
    odcfp_obs::point("campaign.quarantine")
        .field("job", job.id.as_str())
        .field("attempts", u64::from(attempts))
        .field("diagnostic", diagnostic.as_str())
        .emit();
    if let Some(span) = job_span.as_mut() {
        span.field("outcome", "poisoned");
    }
    summary.poisoned.push((job.id.clone(), diagnostic.clone()));
    on_event(&JobEvent::Poisoned {
        job: job.id.clone(),
        diagnostic,
    });
    Ok(())
}

/// One attempt's actual work; runs inside the unwind boundary.
fn attempt_job(
    manifest: &Manifest,
    job: &JobSpec,
    env: &CampaignEnv<'_>,
    fingerprinters: &mut HashMap<usize, Arc<Fingerprinter>>,
    sessions: &mut HashMap<usize, VerifySession>,
    token: &CancelToken,
) -> Result<AttemptSuccess, String> {
    let circuit = &manifest.circuits[job.circuit];
    match circuit.source {
        CircuitSource::Probe(FaultProbe::Panic) => {
            panic!("fault probe: deliberate panic in job {}", job.id)
        }
        CircuitSource::Probe(FaultProbe::Spin) => {
            let started = Instant::now();
            while !token.is_cancelled() {
                if started.elapsed() >= SPIN_PROBE_CAP {
                    return Err(format!(
                        "spin probe hit its {SPIN_PROBE_CAP:?} hard cap (no deadline-ms set?)"
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(format!(
                "deadline exceeded after {:?} (spin probe)",
                started.elapsed()
            ))
        }
        CircuitSource::Path(_) => {
            let fp = match fingerprinters.get(&job.circuit) {
                Some(fp) => Arc::clone(fp),
                None => {
                    let netlist = (env.load)(circuit)
                        .map_err(|e| format!("loading circuit {:?}: {e}", circuit.name))?;
                    let fp = Arc::new(
                        Fingerprinter::new(netlist)
                            .map_err(|e| format!("analysing circuit {:?}: {e}", circuit.name))?,
                    );
                    fingerprinters.insert(job.circuit, Arc::clone(&fp));
                    fp
                }
            };
            let mut rng = Xoshiro256::seed_from_u64(manifest.buyer_seed(job.buyer));
            let bits: Vec<bool> = (0..fp.locations().len()).map(|_| rng.next_bool()).collect();
            let policy = manifest.verify.policy();
            // Verify through the circuit's persistent session: the base
            // is strashed once and each buyer's copy usually proves at
            // the first cut point above its modifications. Verdicts are
            // buyer-order-independent — the manifest policies are
            // definitive (see DESIGN.md §11) — so reuse cannot change
            // what the journal records, only how fast.
            let session = match sessions.get_mut(&job.circuit) {
                Some(session) => session,
                None => {
                    let session = VerifySession::new(fp.base())
                        .map_err(|e| format!("building verify session: {e}"))?;
                    sessions.entry(job.circuit).or_insert(session)
                }
            };
            let (copy, verdict) = fp
                .embed_with_session_cancellable(session, &bits, &policy, token)
                .map_err(|e| format!("embedding: {e}"))?;
            if token.is_cancelled() {
                return Err("deadline exceeded during embed/verify".to_owned());
            }
            if matches!(verdict, Verdict::Refuted { .. }) {
                return Err(
                    "verification REFUTED the minted copy — embedding produced a \
                     non-equivalent netlist"
                        .to_owned(),
                );
            }
            Ok(AttemptSuccess {
                verdict: verdict_name(&verdict),
                artifact_text: (env.emit)(copy.netlist()),
                bits: copy.bit_string(),
            })
        }
    }
}

/// Hard ceiling on any retry backoff sleep.
const BACKOFF_CAP: Duration = Duration::from_millis(200);

/// The sleep before retry number `attempt + 1`: bounded exponential
/// backoff with deterministic jitter.
///
/// Exponential growth (10 ms doubling per attempt, capped at 200 ms)
/// gives transient trouble — load spikes, tight
/// deadlines — breathing room while keeping a doomed job cheap. The
/// jitter decorrelates retries when many jobs fail simultaneously (a
/// shared-resource blip would otherwise re-thunder in lockstep), but it
/// is *seeded*, from the job's buyer seed and the attempt number, so a
/// re-run of the same campaign sleeps identically: retries stay
/// reproducible, like every other campaign decision.
pub fn retry_backoff(buyer_seed: u64, attempt: u32) -> Duration {
    let base = Duration::from_millis(10u64 << (attempt - 1).min(5)).min(BACKOFF_CAP);
    // Jitter in [base/2, 3*base/2): full decorrelation while keeping
    // the expected sleep equal to the un-jittered schedule.
    let mut rng = Xoshiro256::seed_from_u64(
        buyer_seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let base_us = base.as_micros() as u64;
    let jittered = base_us / 2 + rng.next_u64() % base_us.max(1);
    Duration::from_micros(jittered).min(BACKOFF_CAP)
}

/// Renders a panic payload into a diagnostic string.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// `true` when the journalled artifact exists on disk with the recorded
/// content digest.
fn artifact_intact(out_dir: &Path, relpath: &str, expected: Digest) -> bool {
    fs::read(out_dir.join(relpath))
        .map(|bytes| Digest::of(&bytes) == expected)
        .unwrap_or(false)
}

/// Writes `bytes` to `path` atomically — temp file, fsync, rename —
/// returning the content digest. Readers never observe a torn artifact:
/// they see the old file (or nothing) until the rename lands.
fn write_artifact_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<Digest> {
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself; failures here are not fatal (the
    // journal digest check catches a lost rename on resume).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(Digest::of(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    #[test]
    fn retry_backoff_is_reproducible_and_bounded() {
        for attempt in 1..=8u32 {
            for seed in [0u64, 7, 0xDEAD_BEEF] {
                let a = retry_backoff(seed, attempt);
                let b = retry_backoff(seed, attempt);
                assert_eq!(a, b, "same seed/attempt sleeps identically");
                // Jitter stays within [base/2, cap].
                let base = Duration::from_millis(10u64 << (attempt - 1).min(5)).min(BACKOFF_CAP);
                assert!(a >= base / 2, "attempt {attempt}: {a:?} < {:?}", base / 2);
                assert!(a <= BACKOFF_CAP, "attempt {attempt}: {a:?} over cap");
            }
        }
    }

    #[test]
    fn retry_backoff_jitter_decorrelates_buyers() {
        // Different buyer seeds must not retry in lockstep: across a
        // spread of seeds, the first-retry sleeps take several distinct
        // values (a thundering herd would share one).
        let distinct: std::collections::BTreeSet<Duration> =
            (0..32u64).map(|seed| retry_backoff(seed, 1)).collect();
        assert!(
            distinct.len() > 8,
            "expected spread-out jitter, got {} distinct values",
            distinct.len()
        );
    }

    #[test]
    fn retry_backoff_grows_with_attempts_on_average() {
        // The jittered schedule keeps the exponential envelope: the
        // mean sleep over many seeds grows until the cap bites.
        let mean = |attempt: u32| -> f64 {
            (0..64u64)
                .map(|s| retry_backoff(s, attempt).as_secs_f64())
                .sum::<f64>()
                / 64.0
        };
        assert!(mean(2) > mean(1) * 1.5);
        assert!(mean(3) > mean(2) * 1.5);
    }

    /// The Fig. 1 circuit of the paper: F = (A & B) & (C | D) — known to
    /// expose at least one fingerprint location.
    fn fig1(name: &str) -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new(name, lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).expect("and2");
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).expect("or2");
        let x = n.add_gate("gx", and2, &[a, b]);
        let y = n.add_gate("gy", or2, &[c, d]);
        let f = n.add_gate("gf", and2, &[n.gate_output(x), n.gate_output(y)]);
        n.set_primary_output(n.gate_output(f));
        n
    }

    /// A deterministic, content-sensitive emitter (the real CLI uses the
    /// Verilog writer; tests only need stable bytes).
    fn emit(n: &Netlist) -> String {
        let mut out = format!("// {}\n", n.name());
        for (_, gate) in n.gates() {
            out.push_str(gate.name());
            for &input in gate.inputs() {
                out.push(' ');
                out.push_str(n.net(input).name());
            }
            out.push('\n');
        }
        out
    }

    fn env(load: &(dyn Fn(&ManifestCircuit) -> Result<Netlist, String> + Sync)) -> CampaignEnv<'_> {
        CampaignEnv { load, emit: &emit }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("odcfp-campaign-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quiet() -> impl FnMut(&JobEvent) {
        |_| {}
    }

    fn load_fig1(c: &ManifestCircuit) -> Result<Netlist, String> {
        match &c.source {
            CircuitSource::Path(_) => Ok(fig1(&c.name)),
            CircuitSource::Probe(_) => Err("probes are not loadable".into()),
        }
    }

    const TWO_BUYERS: &str = "circuit fig1 path:fig1.v\nbuyers 2\nseed 7\nretries 0\n";

    #[test]
    fn clean_campaign_completes_all_jobs_with_artifacts() {
        let dir = tmpdir("clean");
        let m = Manifest::parse(TWO_BUYERS).expect("manifest");
        let summary = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        assert_eq!(summary.total, 2);
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.executed, 2);
        assert!(summary.is_clean());
        for buyer in 0..2 {
            let artifact = dir.join(format!("{ARTIFACT_DIR}/fig1_b{buyer}.v"));
            assert!(artifact.exists(), "{artifact:?}");
        }
        // The journal replays to two Done jobs with intact artifacts.
        let state = JournalState::replay(&dir).expect("replay");
        assert_eq!(state.jobs.len(), 2);
        for (job, js) in &state.jobs {
            let JobState::Done {
                artifact, digest, ..
            } = js
            else {
                panic!("{job} not done: {js:?}");
            };
            assert!(artifact_intact(&dir, artifact, *digest), "{job}");
        }
    }

    #[test]
    fn interrupted_campaign_resumes_to_the_same_end_state() {
        // Reference: one uninterrupted run.
        let m = Manifest::parse(TWO_BUYERS).expect("manifest");
        let ref_dir = tmpdir("resume-ref");
        run(
            &m,
            &ref_dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("reference run");

        // Interrupted: stop after 1 job, then resume.
        let dir = tmpdir("resume-cut");
        let first = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                stop_after: Some(1),
                ..CampaignOptions::default()
            },
            &mut quiet(),
        )
        .expect("first leg");
        assert_eq!(first.executed, 1);
        assert_eq!(first.remaining, 1);

        let mut events = Vec::new();
        let second = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                resume: true,
                ..CampaignOptions::default()
            },
            &mut |e| events.push(e.clone()),
        )
        .expect("resume leg");
        assert_eq!(second.completed, 2);
        assert_eq!(second.skipped, 1, "first job must not re-execute");
        assert_eq!(second.executed, 1);
        assert!(second.is_clean());
        assert!(events.contains(&JobEvent::Skipped {
            job: "fig1#0".into()
        }));

        // Artifacts are bit-identical to the uninterrupted run's.
        for buyer in 0..2 {
            let rel = format!("{ARTIFACT_DIR}/fig1_b{buyer}.v");
            assert_eq!(
                fs::read(ref_dir.join(&rel)).expect("ref artifact"),
                fs::read(dir.join(&rel)).expect("resumed artifact"),
                "{rel}"
            );
        }
    }

    #[test]
    fn corrupted_artifact_is_detected_and_reminted_on_resume() {
        let dir = tmpdir("stale");
        let m = Manifest::parse(TWO_BUYERS).expect("manifest");
        run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        let victim = dir.join(format!("{ARTIFACT_DIR}/fig1_b1.v"));
        let original = fs::read(&victim).expect("artifact");
        fs::write(&victim, b"// tampered\n").expect("tamper");

        let mut events = Vec::new();
        let summary = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                resume: true,
                ..CampaignOptions::default()
            },
            &mut |e| events.push(e.clone()),
        )
        .expect("resume");
        assert!(events.contains(&JobEvent::StaleArtifact {
            job: "fig1#1".into()
        }));
        assert_eq!(summary.executed, 1, "only the tampered job re-runs");
        assert_eq!(summary.skipped, 1);
        assert_eq!(fs::read(&victim).expect("re-minted"), original);
    }

    #[test]
    fn poisoned_job_is_quarantined_and_neighbours_complete() {
        let dir = tmpdir("poison");
        let m = Manifest::parse(
            "circuit good1 path:a.v\ncircuit bomb probe:panic\ncircuit good2 path:b.v\nretries 1\n",
        )
        .expect("manifest");
        let mut events = Vec::new();
        let summary = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut |e| events.push(e.clone()),
        )
        .expect("run");
        assert_eq!(summary.completed, 2, "both good circuits finish");
        assert_eq!(summary.poisoned.len(), 1);
        let (job, diagnostic) = &summary.poisoned[0];
        assert_eq!(job, "bomb#0");
        assert!(
            diagnostic.contains("deliberate panic") && diagnostic.contains("2 attempts"),
            "{diagnostic}"
        );
        // Two attempts were made (retries 1), each journalled.
        let failures = events
            .iter()
            .filter(|e| matches!(e, JobEvent::AttemptFailed { job, .. } if job == "bomb#0"))
            .count();
        assert_eq!(failures, 2);
        assert!(!summary.is_clean());
    }

    #[test]
    fn poisoned_job_stays_quarantined_on_resume() {
        let dir = tmpdir("poison-resume");
        let m = Manifest::parse("circuit bomb probe:panic\ncircuit ok path:a.v\nretries 0\n")
            .expect("manifest");
        run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        let mut events = Vec::new();
        let resumed = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                resume: true,
                ..CampaignOptions::default()
            },
            &mut |e| events.push(e.clone()),
        )
        .expect("resume");
        assert_eq!(resumed.executed, 0, "nothing re-runs");
        assert_eq!(resumed.poisoned.len(), 1);
        assert!(events.contains(&JobEvent::SkippedPoisoned {
            job: "bomb#0".into()
        }));
    }

    #[test]
    fn spin_probe_is_stopped_by_the_job_deadline() {
        let dir = tmpdir("spin");
        let m = Manifest::parse("circuit slow probe:spin\ndeadline-ms 50\nretries 0\n")
            .expect("manifest");
        let started = Instant::now();
        let summary = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        assert!(
            started.elapsed() < SPIN_PROBE_CAP,
            "deadline, not the hard cap, must stop the spin"
        );
        assert_eq!(summary.poisoned.len(), 1);
        assert!(
            summary.poisoned[0].1.contains("deadline exceeded"),
            "{}",
            summary.poisoned[0].1
        );
    }

    #[test]
    fn existing_journal_without_resume_is_refused() {
        let dir = tmpdir("no-clobber");
        let m = Manifest::parse(TWO_BUYERS).expect("manifest");
        run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        let e = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect_err("must refuse");
        assert!(matches!(e, CampaignError::JournalExists(_)), "{e}");
    }

    #[test]
    fn resume_with_a_different_manifest_is_refused() {
        let dir = tmpdir("mismatch");
        let m = Manifest::parse(TWO_BUYERS).expect("manifest");
        run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        let other = Manifest::parse("circuit fig1 path:fig1.v\nbuyers 3\n").expect("manifest");
        let e = run(
            &other,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                resume: true,
                ..CampaignOptions::default()
            },
            &mut quiet(),
        )
        .expect_err("must refuse");
        assert!(matches!(e, CampaignError::ManifestMismatch { .. }), "{e}");
    }

    #[test]
    fn failing_loader_poisons_only_its_circuit() {
        let dir = tmpdir("bad-loader");
        let m = Manifest::parse("circuit bad path:bad.v\ncircuit good path:good.v\nretries 0\n")
            .expect("manifest");
        let load = |c: &ManifestCircuit| -> Result<Netlist, String> {
            if c.name == "bad" {
                Err("synthetic parse error".into())
            } else {
                load_fig1(c)
            }
        };
        let summary = run(
            &m,
            &dir,
            &env(&load),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.poisoned.len(), 1);
        assert!(summary.poisoned[0].1.contains("synthetic parse error"));
    }
}
