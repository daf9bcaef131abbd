//! The delta-mode campaign runner: windows of buyers against one golden
//! artifact and one code-space proof per circuit.
//!
//! Full mode journals two fsynced records and writes one netlist file
//! *per buyer* — correct, but at a million buyers that is two million
//! fsyncs and ~100 GB of near-identical Verilog. Delta mode restructures
//! the buyer dimension (DESIGN.md §14):
//!
//! * the golden netlist is written **once** per circuit, journalled with
//!   a 128-bit identity digest;
//! * buyers are minted in **windows** (`window N`, default 1024): one
//!   write-ahead `bstart` record, then one buffered codebook append per
//!   buyer, then one codebook fsync and one `bdone` record carrying the
//!   window's verdict histogram and the durable codebook byte offset.
//!   Journal traffic and fsync count drop from `O(buyers)` to
//!   `O(buyers / window)`;
//! * verification is hoisted out of the buyer loop entirely when the
//!   code-space proof lands ([`CodeSpace::prove`]): every buyer's
//!   verdict is `proven` by the same proof of local per-location
//!   obligations. If the proof is unavailable (entangled locations, refuted superposition,
//!   budget exhausted), every buyer falls back to the existing per-buyer
//!   session path, so verdicts never silently weaken.
//!
//! Crash recovery keeps the full-mode guarantees: a SIGKILL mid-window
//! leaves codebook bytes past the last journalled offset, which
//! [`CodebookWriter::open`] truncates on resume; the window re-mints
//! from the `done` watermark and — buyer bits being a pure function of
//! `seed ⊕ buyer` — converges to the byte-identical codebook an
//! uninterrupted run writes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use odcfp_analysis::cancel::CancelToken;
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::Digest128;

use crate::codebook::{artifact_identity, pack_bits, CodeSpace, CodebookRecord, CodebookWriter};
use crate::verify::{CodeSpaceOutcome, CodeSpaceProof, Verdict, VerifySession};
use crate::Fingerprinter;

use super::journal::render_histogram;
use super::{
    io_err, panic_text, retry_backoff, verdict_name, write_artifact_atomic, CampaignEnv,
    CampaignError, CampaignOptions, CampaignSummary, CircuitSource, JobEvent, JobState, Journal,
    JournalState, Manifest, ManifestCircuit, Record, VerifySpec, ARTIFACT_DIR,
};

/// Conflict budget for the code-space proof under `verify quick`: quick
/// campaigns skip per-buyer SAT, but the *one* solve that upgrades every
/// buyer to `proven` is worth a real budget — it amortizes over the
/// whole population.
const QUICK_CODESPACE_BUDGET: u64 = 2_000_000;

/// Per-circuit reusable state: the fingerprinter, the verify session the
/// code-space proof lives in, and the proof itself. Held in a
/// [`CampaignCache`] so chunked invocations (the server's drain-aware
/// legs) pay for location analysis and the proof once, not per leg.
struct CircuitCache {
    fp: Arc<Fingerprinter>,
    session: Option<VerifySession>,
    /// `Some` once the proof attempt ran (even if it fell back).
    proof: Option<CodeSpaceProof>,
    proof_attempted: bool,
    golden_digest: Digest128,
}

/// Reusable cross-invocation campaign state, keyed by circuit name.
///
/// [`super::run`] builds a private one per call; [`super::run_cached`]
/// lets a resident caller keep it across legs of the same campaign.
/// Holding it is purely a performance contract — every verdict and
/// artifact byte is identical with a cold cache.
#[derive(Default)]
pub struct CampaignCache {
    circuits: std::collections::HashMap<String, CircuitCache>,
}

/// Deterministic buyer bits — must mint exactly what full mode's
/// `attempt_job` mints, so the two artifact modes are interchangeable.
fn mint_bits(manifest: &Manifest, locations: usize, buyer: u64) -> Vec<bool> {
    let mut rng = Xoshiro256::seed_from_u64(manifest.buyer_seed(buyer as usize));
    (0..locations).map(|_| rng.next_bool()).collect()
}

/// Runs the delta leg for every `path:` circuit in the manifest (probe
/// circuits go through the per-job loop in `run_cached`, keeping the
/// fault battery's semantics identical across artifact modes).
#[allow(clippy::too_many_arguments)]
pub(super) fn run_delta(
    manifest: &Manifest,
    out_dir: &Path,
    env: &CampaignEnv<'_>,
    options: &CampaignOptions,
    cache: &mut CampaignCache,
    state: &JournalState,
    journal: &mut Journal,
    summary: &mut CampaignSummary,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<(), CampaignError> {
    for circuit in &manifest.circuits {
        if !matches!(circuit.source, CircuitSource::Path(_)) {
            continue;
        }
        delta_circuit(
            manifest, circuit, out_dir, env, options, cache, state, journal, summary, on_event,
        )?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn delta_circuit(
    manifest: &Manifest,
    circuit: &ManifestCircuit,
    out_dir: &Path,
    env: &CampaignEnv<'_>,
    options: &CampaignOptions,
    cache: &mut CampaignCache,
    state: &JournalState,
    journal: &mut Journal,
    summary: &mut CampaignSummary,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<(), CampaignError> {
    let name = &circuit.name;
    let total = manifest.buyers as u64;

    // --- Resume accounting -------------------------------------------------
    // The batch watermark says how many buyers are durably in the
    // codebook; their verdict histogram rides in the folded `bdone`
    // records. Individual poisoned buyers (fallback-mode failures) are
    // the only per-job journal entries delta mode writes.
    let batch = state.batches.get(name).cloned().unwrap_or_default();
    let mut done = batch.done;
    let setup_sentinel = format!("{name}#*");
    for (job, js) in state
        .jobs
        .range(format!("{name}#")..format!("{name}#\u{10FFFF}"))
    {
        if let JobState::Poisoned { diagnostic } = js {
            summary.poisoned.push((job.clone(), diagnostic.clone()));
            if job == &setup_sentinel {
                // Circuit-level quarantine (loader/analysis failure)
                // stays quarantined, exactly like a poisoned full-mode
                // job.
                on_event(&JobEvent::SkippedPoisoned { job: job.clone() });
                return Ok(());
            }
        }
    }
    let resumed_completed: u64 = batch.verdicts.values().sum();
    summary.skipped += resumed_completed as usize;
    summary.completed += resumed_completed as usize;
    for (v, n) in &batch.verdicts {
        *summary.verdicts.entry(v.clone()).or_insert(0) += *n as usize;
    }
    if done >= total {
        return Ok(());
    }
    if options
        .stop_after
        .is_some_and(|cap| summary.executed >= cap)
    {
        summary.remaining += (total - done) as usize;
        return Ok(());
    }

    // --- Setup: fingerprinter, golden artifact, code-space proof ----------
    // One retried, unwind-guarded block: a panicking loader or analysis
    // quarantines this circuit (journalled under the `{name}#*`
    // sentinel), never the campaign.
    let attempts = manifest.retries + 1;
    let mut last_error = String::new();
    let mut ready = false;
    for attempt in 1..=attempts {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            setup_circuit(
                manifest, circuit, out_dir, env, cache, state, journal, on_event,
            )
        }))
        .unwrap_or_else(|payload| Err(SetupFailure::Attempt(panic_text(payload))));
        match outcome {
            Ok(()) => {
                ready = true;
                break;
            }
            Err(SetupFailure::Journal(e)) => return Err(e),
            Err(SetupFailure::Attempt(error)) => {
                odcfp_obs::point("campaign.attempt.failed")
                    .field("job", setup_sentinel.as_str())
                    .field("attempt", u64::from(attempt))
                    .field("error", error.as_str())
                    .emit();
                on_event(&JobEvent::AttemptFailed {
                    job: setup_sentinel.clone(),
                    attempt,
                    error: error.clone(),
                });
                last_error = error;
                cache.circuits.remove(name);
                if attempt < attempts {
                    std::thread::sleep(retry_backoff(manifest.seed, attempt));
                }
            }
        }
    }
    if !ready {
        let diagnostic = format!("{last_error} (after {attempts} attempts)");
        journal
            .append(&Record::JobPoisoned {
                job: setup_sentinel.clone(),
                attempts,
                diagnostic: diagnostic.clone(),
            })
            .map_err(io_err("journalling circuit quarantine"))?;
        odcfp_obs::point("campaign.quarantine")
            .field("job", setup_sentinel.as_str())
            .field("attempts", u64::from(attempts))
            .field("diagnostic", diagnostic.as_str())
            .emit();
        summary
            .poisoned
            .push((setup_sentinel.clone(), diagnostic.clone()));
        on_event(&JobEvent::Poisoned {
            job: setup_sentinel,
            diagnostic,
        });
        return Ok(());
    }

    let entry = cache.circuits.get_mut(name).expect("setup populated cache");
    let fp = Arc::clone(&entry.fp);
    let golden_digest = entry.golden_digest;
    let locations = fp.locations().len();
    let proven_all = entry
        .proof
        .as_ref()
        .is_some_and(|p| p.outcome == CodeSpaceOutcome::ProvenAll);
    let policy = manifest.verify.policy();

    // --- Window loop -------------------------------------------------------
    let mut writer = CodebookWriter::open(out_dir, name, batch.offset)
        .map_err(io_err(format!("opening codebook for {name:?}")))?;
    if writer.offset() == 0 {
        writer
            .append(&CodebookRecord::Golden {
                circuit: name.clone(),
                locations: locations as u64,
                seed: manifest.seed,
                artifact: format!("{ARTIFACT_DIR}/{name}.golden.v"),
                digest: golden_digest,
            })
            .map_err(io_err("writing codebook header"))?;
    }

    while done < total {
        let to = (done + manifest.window as u64).min(total);
        journal
            .append(&Record::BatchStart {
                circuit: name.clone(),
                from: done,
                to,
                offset: writer.offset(),
            })
            .map_err(io_err("journalling window start"))?;

        let mut window_hist: BTreeMap<String, u64> = BTreeMap::new();
        for buyer in done..to {
            let bits = mint_bits(manifest, locations, buyer);
            let verdict = if proven_all {
                // The code-space proof already covered this code.
                Some(Verdict::Proven)
            } else {
                fallback_buyer(
                    manifest, name, buyer, &fp, cache, &policy, journal, summary, on_event,
                )?
            };
            let Some(verdict) = verdict else { continue };
            let vname = verdict_name(&verdict);
            writer
                .append(&CodebookRecord::Code {
                    buyer,
                    bits: pack_bits(&bits),
                    verdict: vname.to_owned(),
                    digest: artifact_identity(golden_digest, &bits),
                })
                .map_err(io_err("appending codebook record"))?;
            *window_hist.entry(vname.to_owned()).or_insert(0) += 1;
        }

        let offset = writer.sync().map_err(io_err("syncing codebook"))?;
        journal
            .append(&Record::BatchDone {
                circuit: name.clone(),
                from: done,
                to,
                offset,
                verdicts: render_histogram(&window_hist),
            })
            .map_err(io_err("journalling window completion"))?;

        let minted: u64 = window_hist.values().sum();
        summary.executed += (to - done) as usize;
        summary.completed += minted as usize;
        for (v, n) in &window_hist {
            *summary.verdicts.entry(v.clone()).or_insert(0) += *n as usize;
        }
        odcfp_obs::point("campaign.progress")
            .field("circuit", name.as_str())
            .field("done", to)
            .field("total", total)
            .field("offset", offset)
            .emit();
        on_event(&JobEvent::WindowCompleted {
            circuit: name.clone(),
            from: done,
            to,
        });
        done = to;

        if done < total
            && options
                .stop_after
                .is_some_and(|cap| summary.executed >= cap)
        {
            summary.remaining += (total - done) as usize;
            return Ok(());
        }
    }
    Ok(())
}

/// How circuit setup failed: a retryable attempt problem, or a journal
/// I/O error that must abort the campaign.
enum SetupFailure {
    Attempt(String),
    Journal(CampaignError),
}

/// Loads the circuit, writes the golden artifact, and attempts the
/// code-space proof, populating the cache. Runs inside the unwind
/// boundary.
#[allow(clippy::too_many_arguments)]
fn setup_circuit(
    manifest: &Manifest,
    circuit: &ManifestCircuit,
    out_dir: &Path,
    env: &CampaignEnv<'_>,
    cache: &mut CampaignCache,
    state: &JournalState,
    journal: &mut Journal,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<(), SetupFailure> {
    let name = &circuit.name;
    let attempt_err = |e: String| SetupFailure::Attempt(e);

    if !cache.circuits.contains_key(name) {
        let netlist = (env.load)(circuit)
            .map_err(|e| attempt_err(format!("loading circuit {name:?}: {e}")))?;
        let fp = Arc::new(
            Fingerprinter::new(netlist)
                .map_err(|e| attempt_err(format!("analysing circuit {name:?}: {e}")))?,
        );
        let golden_text = (env.emit)(fp.base());
        let golden_digest = Digest128::of(golden_text.as_bytes());
        let golden_rel = format!("{ARTIFACT_DIR}/{name}.golden.v");
        let journalled = state.golden.get(name);
        let on_disk_intact = journalled.is_some_and(|g| {
            g.digest == golden_digest
                && std::fs::read(out_dir.join(&g.artifact))
                    .is_ok_and(|bytes| Digest128::of(&bytes) == golden_digest)
        });
        if !on_disk_intact {
            write_artifact_atomic(&out_dir.join(&golden_rel), golden_text.as_bytes())
                .map_err(|e| attempt_err(format!("writing golden artifact: {e}")))?;
            journal
                .append(&Record::Golden {
                    circuit: name.clone(),
                    artifact: golden_rel.clone(),
                    digest: golden_digest,
                    locations: fp.locations().len() as u64,
                })
                .map_err(|e| {
                    SetupFailure::Journal(CampaignError::Io {
                        context: "journalling golden artifact".into(),
                        source: e,
                    })
                })?;
        }
        odcfp_obs::point("campaign.golden")
            .field("circuit", name.as_str())
            .field("locations", fp.locations().len())
            .emit();
        on_event(&JobEvent::GoldenMinted {
            circuit: name.clone(),
            locations: fp.locations().len() as u64,
        });
        cache.circuits.insert(
            name.clone(),
            CircuitCache {
                fp,
                session: None,
                proof: None,
                proof_attempted: false,
                golden_digest,
            },
        );
    }

    let entry = cache.circuits.get_mut(name).expect("just inserted");
    if entry.session.is_none() {
        entry.session = Some(
            VerifySession::new(entry.fp.base())
                .map_err(|e| attempt_err(format!("building verify session: {e}")))?,
        );
        // The session is rebuilt after a failed attempt (a panic or a
        // deadline), which may also have cut the proof short: prove again.
        entry.proof = None;
        entry.proof_attempted = false;
    }
    if !entry.proof_attempted {
        entry.proof_attempted = true;
        let budget = match manifest.verify {
            VerifySpec::Strict => None,
            VerifySpec::Budgeted(conflicts) => Some(conflicts),
            VerifySpec::Quick => Some(QUICK_CODESPACE_BUDGET),
        };
        let token = match manifest.deadline {
            Some(limit) => CancelToken::with_timeout(limit),
            None => CancelToken::new(),
        };
        let started = Instant::now();
        let fp = Arc::clone(&entry.fp);
        let session = entry.session.as_mut().expect("session built above");
        match CodeSpace::build(&fp).and_then(|space| space.prove(session, budget, &token)) {
            Ok(proof) => {
                if proof.outcome == CodeSpaceOutcome::ProvenAll {
                    on_event(&JobEvent::CodeSpaceProven {
                        circuit: name.clone(),
                        obligations: proof.obligations,
                        conflicts: proof.conflicts,
                        millis: started.elapsed().as_millis() as u64,
                    });
                } else {
                    let gate = match &proof.unsettled {
                        Some(gate) => format!("; gate {gate} failed to settle locally"),
                        None => String::new(),
                    };
                    on_event(&JobEvent::CodeSpaceFallback {
                        circuit: name.clone(),
                        reason: format!("{}{gate}", proof.outcome.name()),
                    });
                }
                entry.proof = Some(proof);
            }
            Err(e) => {
                // Not an attempt failure: an unprovable code space
                // (entangled locations, odd cell mix) is a legitimate
                // circuit property; buyers verify individually.
                on_event(&JobEvent::CodeSpaceFallback {
                    circuit: name.clone(),
                    reason: e.to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Verifies one buyer through the per-buyer session path — the verdict
/// oracle delta mode falls back to when no code-space proof is
/// available. Returns `None` when the buyer is poisoned (journalled and
/// reported, campaign continues).
#[allow(clippy::too_many_arguments)]
fn fallback_buyer(
    manifest: &Manifest,
    name: &str,
    buyer: u64,
    fp: &Arc<Fingerprinter>,
    cache: &mut CampaignCache,
    policy: &crate::verify::VerifyPolicy,
    journal: &mut Journal,
    summary: &mut CampaignSummary,
    on_event: &mut dyn FnMut(&JobEvent),
) -> Result<Option<Verdict>, CampaignError> {
    let job = format!("{name}#{buyer}");
    let attempts = manifest.retries + 1;
    let mut last_error = String::new();
    for attempt in 1..=attempts {
        let token = match manifest.deadline {
            Some(limit) => CancelToken::with_timeout(limit),
            None => CancelToken::new(),
        };
        let entry = cache.circuits.get_mut(name).expect("cached circuit");
        if entry.session.is_none() {
            match VerifySession::new(entry.fp.base()) {
                Ok(s) => entry.session = Some(s),
                Err(e) => {
                    last_error = format!("rebuilding verify session: {e}");
                    continue;
                }
            }
        }
        let session = entry.session.as_mut().expect("session present");
        let bits = mint_bits(manifest, fp.locations().len(), buyer);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fp.embed_with_session_cancellable(session, &bits, policy, &token)
                .map_err(|e| format!("embedding: {e}"))
                .and_then(|(_, verdict)| {
                    if matches!(verdict, Verdict::Refuted { .. }) {
                        Err(
                            "verification REFUTED the minted copy — embedding produced a \
                             non-equivalent netlist"
                                .to_owned(),
                        )
                    } else if token.is_cancelled() {
                        Err("deadline exceeded during embed/verify".to_owned())
                    } else {
                        Ok(verdict)
                    }
                })
        }))
        .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_text(payload))));
        match outcome {
            Ok(verdict) => return Ok(Some(verdict)),
            Err(error) => {
                // The session may be mid-query after a panic or
                // deadline; rebuild next attempt.
                cache.circuits.get_mut(name).expect("cached").session = None;
                odcfp_obs::point("campaign.attempt.failed")
                    .field("job", job.as_str())
                    .field("attempt", u64::from(attempt))
                    .field("error", error.as_str())
                    .emit();
                on_event(&JobEvent::AttemptFailed {
                    job: job.clone(),
                    attempt,
                    error: error.clone(),
                });
                last_error = error;
                if attempt < attempts {
                    std::thread::sleep(retry_backoff(manifest.buyer_seed(buyer as usize), attempt));
                }
            }
        }
    }
    let diagnostic = format!("{last_error} (after {attempts} attempts)");
    journal
        .append(&Record::JobPoisoned {
            job: job.clone(),
            attempts,
            diagnostic: diagnostic.clone(),
        })
        .map_err(io_err("journalling quarantine"))?;
    odcfp_obs::point("campaign.quarantine")
        .field("job", job.as_str())
        .field("attempts", u64::from(attempts))
        .field("diagnostic", diagnostic.as_str())
        .emit();
    summary.poisoned.push((job.clone(), diagnostic.clone()));
    on_event(&JobEvent::Poisoned { job, diagnostic });
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::super::{run, CampaignOptions};
    use super::*;
    use crate::codebook::{codebook_file, unpack_bits, CodebookReader};
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::{CellLibrary, Netlist};
    use std::fs;
    use std::path::PathBuf;

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

    fn load_fig1(c: &ManifestCircuit) -> Result<Netlist, String> {
        match &c.source {
            CircuitSource::Path(_) => Ok(fig1(&c.name)),
            CircuitSource::Probe(_) => Err("probes are not loadable".into()),
        }
    }

    fn env(load: &(dyn Fn(&ManifestCircuit) -> Result<Netlist, String> + Sync)) -> CampaignEnv<'_> {
        CampaignEnv { load, emit: &emit }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("odcfp-population-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quiet() -> impl FnMut(&JobEvent) {
        |_| {}
    }

    const DELTA: &str = "circuit fig1 path:fig1.v\nbuyers 8\nseed 7\nretries 0\nverify strict\n\
         artifacts delta\nwindow 3\n";
    const FULL: &str = "circuit fig1 path:fig1.v\nbuyers 8\nseed 7\nretries 0\nverify strict\n";

    /// Reads the codebook back: (golden record, codes by buyer).
    fn read_codebook(dir: &Path, circuit: &str) -> (CodebookRecord, Vec<CodebookRecord>) {
        let mut r = CodebookReader::open(&dir.join(codebook_file(circuit))).expect("open");
        let golden = r.next_record().expect("io").expect("golden header");
        assert!(matches!(golden, CodebookRecord::Golden { .. }));
        let mut codes = Vec::new();
        while let Some(rec) = r.next_record().expect("io") {
            codes.push(rec);
        }
        assert_eq!(r.discarded(), 0, "durable codebook has no torn lines");
        (golden, codes)
    }

    #[test]
    fn delta_campaign_expands_bit_identically_to_full_artifacts() {
        // Full-mode reference artifacts.
        let full_dir = tmpdir("expand-full");
        let mf = Manifest::parse(FULL).expect("manifest");
        run(
            &mf,
            &full_dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("full run");

        // Delta campaign over the same circuits/seed.
        let dir = tmpdir("expand-delta");
        let md = Manifest::parse(DELTA).expect("manifest");
        let summary = run(
            &md,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("delta run");
        assert_eq!(summary.completed, 8);
        assert!(summary.is_clean());
        assert_eq!(summary.verdicts.get("proven"), Some(&8));

        // Golden artifact on disk matches its journalled digest.
        let golden_text =
            fs::read(dir.join(format!("{ARTIFACT_DIR}/fig1.golden.v"))).expect("golden artifact");
        let (golden, codes) = read_codebook(&dir, "fig1");
        let CodebookRecord::Golden {
            digest: gd,
            locations,
            ..
        } = golden
        else {
            unreachable!()
        };
        assert_eq!(Digest128::of(&golden_text), gd);
        assert_eq!(codes.len(), 8);

        // Each code re-mints, through the public embed path, the exact
        // bytes full mode wrote for that buyer.
        let fp = Fingerprinter::new(fig1("fig1")).expect("fingerprinter");
        assert_eq!(fp.locations().len() as u64, locations);
        for (i, code) in codes.iter().enumerate() {
            let CodebookRecord::Code {
                buyer,
                bits,
                verdict,
                digest,
            } = code
            else {
                panic!("non-code record {code:?}")
            };
            assert_eq!(*buyer, i as u64);
            assert_eq!(verdict, "proven");
            let bits = unpack_bits(bits, fp.locations().len()).expect("bits");
            assert_eq!(bits, mint_bits(&md, fp.locations().len(), *buyer));
            assert_eq!(*digest, artifact_identity(gd, &bits));
            let expanded = emit(fp.embed(&bits).expect("embed").netlist());
            let full = fs::read_to_string(full_dir.join(format!("{ARTIFACT_DIR}/fig1_b{buyer}.v")))
                .expect("full artifact");
            assert_eq!(expanded, full, "buyer {buyer}");
        }
    }

    #[test]
    fn interrupted_delta_campaign_resumes_to_byte_identical_codebook() {
        let md = Manifest::parse(DELTA).expect("manifest");
        let ref_dir = tmpdir("resume-ref");
        run(
            &md,
            &ref_dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("reference");

        let dir = tmpdir("resume-cut");
        let first = run(
            &md,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                stop_after: Some(1),
                ..CampaignOptions::default()
            },
            &mut quiet(),
        )
        .expect("first leg");
        assert_eq!(first.executed, 3, "one window of 3 buyers");
        assert_eq!(first.remaining, 5);

        // Simulate a crash mid-window: stray bytes past the durable
        // offset, as a SIGKILLed writer leaves behind.
        let cb = dir.join(codebook_file("fig1"));
        let mut torn = fs::read(&cb).expect("codebook");
        torn.extend_from_slice(b"{\"crc\":\"0000");
        fs::write(&cb, &torn).expect("tear");

        let mut events = Vec::new();
        let second = run(
            &md,
            &dir,
            &env(&load_fig1),
            &CampaignOptions {
                resume: true,
                ..CampaignOptions::default()
            },
            &mut |e| events.push(e.clone()),
        )
        .expect("resume leg");
        assert_eq!(second.completed, 8);
        assert_eq!(second.skipped, 3);
        assert_eq!(second.executed, 5);
        assert!(second.is_clean());
        assert!(events
            .iter()
            .any(|e| matches!(e, JobEvent::WindowCompleted { from: 3, .. })));

        // Byte-identical to the uninterrupted run: codebook and golden.
        assert_eq!(
            fs::read(&cb).expect("resumed"),
            fs::read(ref_dir.join(codebook_file("fig1"))).expect("reference"),
        );
        assert_eq!(
            fs::read(dir.join(format!("{ARTIFACT_DIR}/fig1.golden.v"))).expect("golden"),
            fs::read(ref_dir.join(format!("{ARTIFACT_DIR}/fig1.golden.v"))).expect("golden"),
        );
    }

    #[test]
    fn delta_campaign_quarantines_probes_like_full_mode() {
        let dir = tmpdir("probes");
        let m = Manifest::parse(
            "circuit fig1 path:fig1.v\ncircuit bomb probe:panic\nbuyers 2\nseed 7\n\
             retries 0\nartifacts delta\n",
        )
        .expect("manifest");
        let summary = run(
            &m,
            &dir,
            &env(&load_fig1),
            &CampaignOptions::default(),
            &mut quiet(),
        )
        .expect("run");
        assert_eq!(summary.completed, 2, "fig1 buyers complete");
        assert_eq!(summary.poisoned.len(), 2, "both bomb jobs quarantined");
        assert!(summary.poisoned.iter().all(|(j, _)| j.starts_with("bomb#")));
    }

    #[test]
    fn failing_loader_quarantines_circuit_and_stays_quarantined() {
        let dir = tmpdir("bad-loader");
        let m = Manifest::parse(
            "circuit bad path:bad.v\ncircuit good path:good.v\nbuyers 4\nseed 7\n\
             retries 0\nartifacts delta\nwindow 2\n",
        )
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
        assert_eq!(summary.completed, 4, "good circuit unaffected");
        assert_eq!(summary.poisoned.len(), 1);
        assert_eq!(summary.poisoned[0].0, "bad#*");
        assert!(summary.poisoned[0].1.contains("synthetic parse error"));

        // Resume: the quarantine holds without re-running setup.
        let resumed = run(
            &m,
            &dir,
            &env(&load),
            &CampaignOptions {
                resume: true,
                ..CampaignOptions::default()
            },
            &mut quiet(),
        )
        .expect("resume");
        assert_eq!(resumed.executed, 0);
        assert_eq!(resumed.poisoned.len(), 1);
    }
}
