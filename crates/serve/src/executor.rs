//! Request execution: the worker pool, per-request isolation, and the
//! operation implementations.
//!
//! Workers are connection-agnostic. They pop [`Job`]s from the
//! tenant-fair queue, execute under `catch_unwind` with a composed
//! drain + deadline [`CancelToken`], and hand the finished
//! [`Response`] to the reactor's mailbox through the job's [`ReplyTo`].
//! A worker never blocks on a client socket: large payloads leave the
//! worker as a whole `Response::Stream` and are chunked out by the
//! reactor under socket-writability backpressure.
//!
//! Every request, verify included, runs alone on the worker that popped
//! it: a verify's latency is its queue wait plus its own execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use odcfp_analysis::CancelToken;
use odcfp_core::campaign::{self, CampaignOptions, ManifestCircuit};
use odcfp_core::{CodeSpace, CodeSpaceOutcome, Fingerprinter, VerifyPolicy, VerifySession};
use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::{Digest, Netlist};
use odcfp_verilog::write_verilog;

use crate::cache::{CircuitState, Disposition, WarmCache};
use crate::proto::{DesignRef, ErrorCode, Op, Reply, Request, PROTO_VERSION};
use crate::reactor::Mailbox;
use crate::server::Shared;
use crate::stream::StreamSender;

/// Reply fields large enough to stream as chunked frames.
const STREAMED_FIELDS: [&str; 2] = ["netlist", "summary"];

/// One admitted request plus where to send its reply.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) reply_to: ReplyTo,
    pub(crate) enqueued: Instant,
}

/// Where a finished response goes: the reactor's mailbox, addressed to
/// the connection that sent the request. The reactor owns all socket
/// writes.
pub(crate) struct ReplyTo {
    pub(crate) conn: u64,
    pub(crate) mailbox: Arc<Mailbox>,
}

/// A finished request: either one reply line or a reply whose large
/// payload field streams as chunk frames.
pub(crate) enum Response {
    Line(Reply),
    Stream {
        reply: Reply,
        field: &'static str,
        payload: String,
    },
}

impl Response {
    /// Converts into the reactor's outbound representation.
    pub(crate) fn into_sender(self, chunk: usize) -> Result<Vec<u8>, Box<StreamSender>> {
        match self {
            Response::Line(reply) => {
                let mut line = reply.to_line();
                line.push('\n');
                Ok(line.into_bytes())
            }
            Response::Stream {
                reply,
                field,
                payload,
            } => Err(Box::new(StreamSender::new(reply, field, payload, chunk))),
        }
    }
}

/// Outcome of offering a request to admission control.
pub(crate) enum Admit {
    /// Answer now (control op, or shed/draining rejection).
    Immediate(Reply),
    /// Admitted; a worker delivers the reply later.
    Queued,
}

/// Control-op handling plus queue admission, shared by both connection
/// layers. On `Queued` the server's in-flight counter has been bumped;
/// it drops when the response is routed back to the connection layer.
pub(crate) fn admit(shared: &Shared, request: Request, reply_to: ReplyTo) -> Admit {
    let version = request.version;
    match request.op {
        // Control ops answer inline; they must work even when the queue
        // is full or draining.
        Op::Ping => {
            shared.served.fetch_add(1, Ordering::SeqCst);
            Admit::Immediate(
                Reply::ok(&request.id, "ping")
                    .field("draining", shared.draining())
                    .versioned(version),
            )
        }
        Op::Shutdown => {
            shared.draining.store(true, Ordering::SeqCst);
            shared.served.fetch_add(1, Ordering::SeqCst);
            Admit::Immediate(Reply::ok(&request.id, "shutdown").versioned(version))
        }
        _ => {
            let job = Job {
                reply_to,
                enqueued: Instant::now(),
                request,
            };
            let tenant = job.request.tenant.clone();
            let id = job.request.id.clone();
            let op = job.request.op.name();
            match shared.queue.push(&tenant, job) {
                Ok(()) => {
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    Admit::Queued
                }
                Err(e) => {
                    shared.rejected.fetch_add(1, Ordering::SeqCst);
                    let (code, message) = match e {
                        crate::queue::PushError::Full => (
                            ErrorCode::Overloaded,
                            format!(
                                "admission queue full (depth {}); retry with backoff",
                                shared.config.queue_depth
                            ),
                        ),
                        crate::queue::PushError::Closed => {
                            (ErrorCode::Draining, "server is draining".to_owned())
                        }
                    };
                    odcfp_obs::point("serve.reject")
                        .field("tenant", tenant.as_str())
                        .field("op", op)
                        .field("code", code.as_str())
                        .nondet()
                        .emit();
                    Admit::Immediate(Reply::err(&id, code, message).versioned(version))
                }
            }
        }
    }
}

/// Worker thread: pop round-robin, execute under isolation, reply.
pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    while let Some((tenant, job)) = shared.queue.pop() {
        odcfp_obs::point("serve.queue_wait")
            .field("tenant", tenant.as_str())
            .field("us", job.enqueued.elapsed().as_micros() as u64)
            .nondet()
            .emit();
        run_one(shared, job);
    }
}

/// Executes one job under the standard isolation boundary.
fn run_one(shared: &Arc<Shared>, job: Job) {
    let mut span = odcfp_obs::span("serve.request");
    span.field("op", job.request.op.name());
    span.field("tenant", job.request.tenant.as_str());

    let token = shared.drain_token.bounded_by(
        job.request
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
    );
    // The circuit the request touched, for poisoning on panic.
    let mut touched: Option<Digest> = None;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute(shared, &job.request, &token, &mut touched)
    }));
    let reply = match outcome {
        Ok(reply) => reply,
        Err(payload) => panic_reply(shared, &job.request.id, payload, touched),
    };
    span.field(
        "outcome",
        reply.error.clone().unwrap_or_else(|| "ok".to_owned()),
    );
    finish(shared, job, reply);
}

/// Version-stamps, counts, maybe streams, and delivers one reply.
fn finish(shared: &Arc<Shared>, job: Job, reply: Reply) {
    let reply = reply.versioned(job.request.version);
    if reply.ok {
        shared.served.fetch_add(1, Ordering::SeqCst);
    } else {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
    }
    let response = maybe_stream(shared, &job, reply);
    // The reactor decrements in-flight once it routes the response to
    // (or discards it for) the connection.
    job.reply_to.mailbox.deliver(job.reply_to.conn, response);
}

/// Splits a large payload field out of `reply` for chunked emission.
/// Only v2 requests stream; v1 clients get the payload inline.
fn maybe_stream(shared: &Arc<Shared>, job: &Job, mut reply: Reply) -> Response {
    let streamable = job.request.version >= 2 && shared.config.stream_threshold != usize::MAX;
    if streamable {
        for field in STREAMED_FIELDS {
            let big = reply.fields.iter().position(|(k, v)| {
                k == field
                    && matches!(v, crate::proto::FieldValue::Str(s)
                        if s.len() >= shared.config.stream_threshold)
            });
            if let Some(idx) = big {
                let (_, value) = reply.fields.remove(idx);
                let crate::proto::FieldValue::Str(payload) = value else {
                    unreachable!("position matched a Str");
                };
                return Response::Stream {
                    reply,
                    field,
                    payload,
                };
            }
        }
    }
    Response::Line(reply)
}

fn panic_reply(
    shared: &Arc<Shared>,
    id: &str,
    payload: Box<dyn std::any::Any + Send>,
    touched: Option<Digest>,
) -> Reply {
    shared.panics.fetch_add(1, Ordering::SeqCst);
    let text = panic_text(payload);
    let mut message = format!("request panicked: {text}");
    if let Some(digest) = touched {
        let strikes = shared.cache.poison(digest);
        message.push_str(&format!(
            " (circuit warm state dropped; strike {strikes}/{})",
            crate::cache::QUARANTINE_THRESHOLD
        ));
    }
    Reply::err(id, ErrorCode::Panic, message)
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// An in-protocol failure: code + message, turned into an error reply.
type OpError = (ErrorCode, String);

fn bad(message: impl Into<String>) -> OpError {
    (ErrorCode::BadRequest, message.into())
}

/// Resolves a request-supplied relative path under the serve root.
/// Absolute paths and `..` traversal are refused: tenants address only
/// the tree the operator exported.
pub(crate) fn resolve_root(root: &Path, path: &str) -> Result<PathBuf, OpError> {
    let rel = Path::new(path);
    if rel.is_absolute()
        || rel
            .components()
            .any(|c| matches!(c, std::path::Component::ParentDir))
    {
        return Err(bad(format!(
            "path {path:?} must be relative to the serve root, without `..`"
        )));
    }
    Ok(root.join(rel))
}

pub(crate) fn parse_policy(
    spec: Option<&str>,
    default: VerifyPolicy,
) -> Result<VerifyPolicy, OpError> {
    match spec {
        None => Ok(default),
        Some("quick") => Ok(VerifyPolicy::quick()),
        Some("strict") => Ok(VerifyPolicy::strict()),
        Some(s) => match s.strip_prefix("budgeted:").and_then(|n| n.parse().ok()) {
            Some(budget) => Ok(VerifyPolicy::budgeted(budget)),
            None => Err(bad(format!(
                "policy must be quick, strict, or budgeted:<conflicts>; got {s:?}"
            ))),
        },
    }
}

/// Loads netlist source text for a design reference. Returns the text
/// and its format tag.
fn design_source(shared: &Shared, design: &DesignRef) -> Result<(String, String), OpError> {
    match design {
        DesignRef::Text { text, format } => Ok((text.clone(), format.clone())),
        DesignRef::Path(path) => {
            let resolved = resolve_root(&shared.config.root, path)?;
            let format = if path.ends_with(".blif") { "blif" } else { "v" };
            let text = std::fs::read_to_string(&resolved)
                .map_err(|e| bad(format!("reading {path:?}: {e}")))?;
            Ok((text, format.to_owned()))
        }
    }
}

fn parse_netlist(shared: &Shared, text: &str, format: &str) -> Result<Netlist, OpError> {
    match format {
        "blif" => {
            let network =
                odcfp_blif::parse_blif(text).map_err(|e| bad(format!("parsing BLIF: {e}")))?;
            odcfp_synth::map_network(&network, Arc::clone(&shared.library))
                .map_err(|e| bad(format!("mapping BLIF: {e}")))
        }
        _ => odcfp_verilog::parse_verilog(text, Arc::clone(&shared.library))
            .map_err(|e| bad(format!("parsing Verilog: {e}"))),
    }
}

/// Warm-path entry: resolve, digest, quarantine-check, and either
/// serve the cached state or build and admit it.
fn circuit_state(
    shared: &Shared,
    design: &DesignRef,
    touched: &mut Option<Digest>,
) -> Result<(Arc<Mutex<CircuitState>>, Disposition), OpError> {
    let (text, format) = design_source(shared, design)?;
    let digest = Digest::of(text.as_bytes());
    if shared.cache.is_quarantined(digest) {
        return Err((
            ErrorCode::Quarantined,
            format!("circuit {digest} is quarantined after repeated panics"),
        ));
    }
    // From here on a panic is attributed to this circuit.
    *touched = Some(digest);
    if let Some(state) = shared.cache.lookup(digest) {
        return Ok((state, Disposition::Hit));
    }
    let netlist = parse_netlist(shared, &text, &format)?;
    let cost = WarmCache::estimate_cost(text.len(), netlist.num_gates());
    let fingerprinter =
        Arc::new(Fingerprinter::new(netlist).map_err(|e| bad(format!("analysing circuit: {e}")))?);
    let session = VerifySession::new(fingerprinter.base())
        .map_err(|e| bad(format!("building verify session: {e}")))?;
    Ok(shared.cache.admit(
        digest,
        CircuitState {
            fingerprinter,
            session,
            codespace: None,
        },
        cost,
    ))
}

/// `deadline` when the request's own deadline fired, `draining` when
/// the drain watchdog cancelled us.
fn cancel_code(shared: &Shared) -> (ErrorCode, &'static str) {
    if shared.drain_token.is_cancelled() {
        (ErrorCode::Draining, "cancelled by server drain")
    } else {
        (ErrorCode::Deadline, "request deadline exceeded")
    }
}

/// Executes one queued operation. Runs inside the worker's
/// `catch_unwind`; may panic freely.
fn execute(
    shared: &Shared,
    request: &Request,
    token: &CancelToken,
    touched: &mut Option<Digest>,
) -> Reply {
    let id = &request.id;
    let result: Result<Reply, OpError> = match &request.op {
        Op::Ping => Ok(Reply::ok(id, "ping")),
        Op::Shutdown => Ok(Reply::ok(id, "shutdown")),
        Op::Locations { design } => circuit_state(shared, design, touched).map(|(state, disp)| {
            let state = state.lock().unwrap_or_else(PoisonError::into_inner);
            let capacity = state.fingerprinter.capacity();
            Reply::ok(id, "locations")
                .field("locations", capacity.num_locations)
                .field("candidates", capacity.num_candidates)
                .field(
                    "log2_combinations",
                    format!("{:.2}", capacity.log2_combinations),
                )
                .field("cache", disp.as_str())
        }),
        Op::Embed {
            design,
            seed,
            bits,
            policy,
        } => embed_op(
            shared,
            id,
            design,
            *seed,
            bits.as_deref(),
            policy.as_deref(),
            token,
            touched,
        ),
        Op::Verify {
            golden,
            candidate,
            candidate_bits,
            policy,
        } => match (candidate, candidate_bits) {
            (Some(candidate), None) => verify_op(
                shared,
                id,
                golden,
                candidate,
                policy.as_deref(),
                token,
                touched,
            ),
            (None, Some(bits)) => {
                verify_code_op(shared, id, golden, bits, policy.as_deref(), token, touched)
            }
            // The parser enforces exclusivity.
            _ => Err(bad(
                "verify needs exactly one of candidate or candidate_bits",
            )),
        },
        Op::Campaign {
            manifest,
            out_dir,
            resume,
        } => campaign_op(shared, id, manifest, out_dir, *resume, token),
        Op::Report { trace_path } => report_op(shared, id, trace_path),
        Op::Probe { mode, design } => probe_op(shared, id, mode, design.as_ref(), token, touched),
    };
    match result {
        Ok(reply) => reply,
        Err((code, message)) => Reply::err(id, code, message),
    }
}

#[allow(clippy::too_many_arguments)]
fn embed_op(
    shared: &Shared,
    id: &str,
    design: &DesignRef,
    seed: Option<u64>,
    bits: Option<&str>,
    policy: Option<&str>,
    token: &CancelToken,
    touched: &mut Option<Digest>,
) -> Result<Reply, OpError> {
    let policy = parse_policy(policy, VerifyPolicy::quick())?;
    let (state, disp) = circuit_state(shared, design, touched)?;
    let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
    let n = state.fingerprinter.locations().len();
    let bits: Vec<bool> = match (bits, seed) {
        (Some(s), _) => {
            let parsed: Result<Vec<bool>, OpError> = s
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    other => Err(bad(format!("bad bit {other:?}"))),
                })
                .collect();
            let parsed = parsed?;
            if parsed.len() != n {
                return Err(bad(format!(
                    "bit string has {} bits; design has {n} locations",
                    parsed.len()
                )));
            }
            parsed
        }
        // Same derivation as `odcfp embed --seed` and the campaign
        // runner, so served copies are bit-identical to batch ones.
        (None, Some(seed)) => {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            (0..n).map(|_| rng.next_bool()).collect()
        }
        (None, None) => return Err(bad("embed needs seed or bits")),
    };
    let CircuitState {
        fingerprinter,
        session,
        ..
    } = &mut *state;
    let (copy, verdict) = fingerprinter
        .embed_with_session_cancellable(session, &bits, &policy, token)
        .map_err(|e| {
            if token.is_cancelled() {
                let (code, why) = cancel_code(shared);
                (code, format!("{why} during embed"))
            } else {
                (ErrorCode::Internal, format!("embedding: {e}"))
            }
        })?;
    if token.is_cancelled() {
        let (code, why) = cancel_code(shared);
        return Err((code, format!("{why} during embed verification")));
    }
    Ok(Reply::ok(id, "embed")
        .field("bits", copy.bit_string())
        .field("verdict", verdict.name())
        .field("netlist", write_verilog(copy.netlist()))
        .field("cache", disp.as_str()))
}

fn verify_op(
    shared: &Shared,
    id: &str,
    golden: &DesignRef,
    candidate: &DesignRef,
    policy: Option<&str>,
    token: &CancelToken,
    touched: &mut Option<Digest>,
) -> Result<Reply, OpError> {
    let policy = parse_policy(policy, VerifyPolicy::strict())?;
    let (cand_text, cand_format) = design_source(shared, candidate)?;
    let (state, disp) = circuit_state(shared, golden, touched)?;
    let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
    let candidate = parse_netlist(shared, &cand_text, &cand_format)?;
    let report = state
        .session
        .verify_cancellable(&candidate, &policy, token)
        .map_err(|e| bad(format!("verify: {e}")))?;
    if token.is_cancelled() {
        // The ladder degraded to Undecided because we cancelled it —
        // answer with the cause, not a verdict that hides it.
        let (code, why) = cancel_code(shared);
        return Err((code, format!("{why}; verification undecided")));
    }
    Ok(Reply::ok(id, "verify")
        .field("verdict", report.verdict.name())
        .field("sat_conflicts", report.stats.sat_conflicts)
        .field("fast_path", report.stats.used_fast_path)
        .field("cache", disp.as_str()))
}

/// Decides a fingerprint *code* against the golden circuit's cached
/// code-space proof — no candidate netlist is ever materialized. The
/// proof (local per-location obligations) is built on first use and
/// amortizes across every later code check on the warm entry.
fn verify_code_op(
    shared: &Shared,
    id: &str,
    golden: &DesignRef,
    bits: &str,
    policy: Option<&str>,
    token: &CancelToken,
    touched: &mut Option<Digest>,
) -> Result<Reply, OpError> {
    let policy = parse_policy(policy, VerifyPolicy::strict())?;
    let (state, disp) = circuit_state(shared, golden, touched)?;
    let mut state = state.lock().unwrap_or_else(PoisonError::into_inner);
    let code: Vec<bool> = bits
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(bad(format!("bad bit {other:?}"))),
        })
        .collect::<Result<_, _>>()?;
    let CircuitState {
        fingerprinter,
        session,
        codespace,
    } = &mut *state;
    // A proof cut short (this request's cancel token or conflict cap)
    // serves this request only. There is no solver state to pin, but
    // cached, it would make every later check on the entry re-run the
    // pinned proof instead of answering from a proven space.
    let mut transient = None;
    if codespace.is_none() {
        let space = CodeSpace::build(fingerprinter)
            .map_err(|e| bad(format!("code-space verification unavailable: {e}")))?;
        let proof = space
            .prove(session, policy.sat.cap(), token)
            .map_err(|e| bad(format!("proving code space: {e}")))?;
        odcfp_obs::point("serve.codespace")
            .field("outcome", proof.outcome.name())
            .field("groups", proof.num_groups())
            .field("obligations", proof.obligations)
            .field("escalated", proof.escalated)
            .nondet()
            .emit();
        if proof.outcome == CodeSpaceOutcome::Undecided {
            transient = Some(proof);
        } else {
            *codespace = Some(proof);
        }
    }
    let proof = transient
        .as_ref()
        .or(codespace.as_ref())
        .expect("just ensured");
    let code_space = proof.outcome.name();
    if code.len() != proof.num_groups() {
        return Err(bad(format!(
            "candidate_bits has {} bits; design has {} locations",
            code.len(),
            proof.num_groups()
        )));
    }
    let verdict = session.check_code(proof, &code, policy.sat.cap(), token);
    if token.is_cancelled() {
        let (code, why) = cancel_code(shared);
        return Err((code, format!("{why}; code verification undecided")));
    }
    Ok(Reply::ok(id, "verify")
        .field("verdict", verdict.name())
        .field("mode", "code")
        .field("code_space", code_space)
        .field("cache", disp.as_str()))
}

fn campaign_op(
    shared: &Shared,
    id: &str,
    manifest_text: &str,
    out_dir: &str,
    resume: bool,
    token: &CancelToken,
) -> Result<Reply, OpError> {
    let manifest =
        campaign::Manifest::parse(manifest_text).map_err(|e| bad(format!("manifest: {e}")))?;
    let dir = resolve_root(&shared.config.root, out_dir)?;
    let load = |circuit: &ManifestCircuit| -> Result<Netlist, String> {
        let campaign::CircuitSource::Path(path) = &circuit.source else {
            unreachable!("probe sources never reach the loader");
        };
        let (text, format) =
            design_source(shared, &DesignRef::Path(path.clone())).map_err(|(_, m)| m)?;
        parse_netlist(shared, &text, &format).map_err(|(_, m)| m)
    };
    let emit = |n: &Netlist| write_verilog(n);
    let env = campaign::CampaignEnv {
        load: &load,
        emit: &emit,
    };
    // Chunked execution: one job (or one delta window) per leg, journal
    // replayed in between. Progress is durable at every step, and the
    // drain token gets a look-in between legs, so a long campaign
    // cannot hold drain hostage — the journal resumes it, served or
    // batch, later. The cache carries fingerprinters, verify sessions,
    // and delta-mode code-space proofs across legs, so chunking costs
    // journal replays, not re-analysis or re-proving.
    let mut cache = campaign::CampaignCache::default();
    let mut resume_leg = resume;
    let mut executed = 0usize;
    loop {
        let options = CampaignOptions {
            resume: resume_leg,
            stop_after: Some(1),
        };
        let summary =
            campaign::run_cached(&manifest, &dir, &env, &options, &mut cache, &mut |_| {})
                .map_err(|e| match e {
                    campaign::CampaignError::Io { .. } => (ErrorCode::Internal, e.to_string()),
                    _ => bad(e.to_string()),
                })?;
        executed += summary.executed;
        if summary.remaining == 0 {
            let mut reply = Reply::ok(id, "campaign")
                .field("total", summary.total)
                .field("completed", summary.completed)
                .field("executed", executed)
                .field("poisoned", summary.poisoned.len())
                .field("clean", summary.is_clean());
            // Delta campaigns stream artifacts as codebooks: tell the
            // client where each circuit's codebook landed so it can
            // fetch deltas instead of full netlists.
            if manifest.artifact_mode == campaign::ArtifactMode::Delta {
                let codebooks: Vec<String> = manifest
                    .circuits
                    .iter()
                    .filter(|c| matches!(c.source, campaign::CircuitSource::Path(_)))
                    .map(|c| odcfp_core::codebook::codebook_file(&c.name))
                    .collect();
                reply = reply
                    .field("artifacts", "delta")
                    .field("codebooks", codebooks.join(","));
            }
            return Ok(reply);
        }
        resume_leg = true;
        if token.is_cancelled() {
            let (code, why) = cancel_code(shared);
            return Err((
                code,
                format!("{why} after {executed} job(s); journal at {out_dir:?} resumes the rest"),
            ));
        }
    }
}

fn report_op(shared: &Shared, id: &str, trace_path: &str) -> Result<Reply, OpError> {
    let path = resolve_root(&shared.config.root, trace_path)?;
    let trace = odcfp_obs::report::read_trace(&path)
        .map_err(|e| bad(format!("reading {trace_path:?}: {e}")))?;
    Ok(Reply::ok(id, "report")
        .field("events", trace.events.len())
        .field("skipped_lines", trace.skipped_lines)
        .field("summary", odcfp_obs::report::summarize(&trace)))
}

fn probe_op(
    shared: &Shared,
    id: &str,
    mode: &str,
    design: Option<&DesignRef>,
    token: &CancelToken,
    touched: &mut Option<Digest>,
) -> Result<Reply, OpError> {
    // Attributing the fault to a circuit makes a `panic` probe poison
    // that circuit's warm state, so the quarantine ladder is drillable
    // end to end without a genuinely panicking netlist.
    if let Some(design) = design {
        let _ = circuit_state(shared, design, touched)?;
    }
    match mode {
        "panic" => panic!("fault probe: deliberate panic in request {id}"),
        _ => {
            // Spin until cancelled; hard cap mirrors the campaign probe.
            let cap = Duration::from_secs(30);
            let started = Instant::now();
            while !token.is_cancelled() && started.elapsed() < cap {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err((
                ErrorCode::Deadline,
                format!("spin probe cancelled after {:?}", started.elapsed()),
            ))
        }
    }
}

// Unused import guard: PROTO_VERSION is referenced by rustdoc links.
const _: u64 = PROTO_VERSION;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_root_confines_paths() {
        let root = Path::new("/srv/odcfp");
        assert_eq!(
            resolve_root(root, "designs/c17.v").unwrap(),
            PathBuf::from("/srv/odcfp/designs/c17.v")
        );
        assert!(resolve_root(root, "/etc/passwd").is_err());
        assert!(resolve_root(root, "../secrets").is_err());
        assert!(resolve_root(root, "a/../../b").is_err());
    }

    #[test]
    fn parse_policy_grammar() {
        assert!(parse_policy(Some("quick"), VerifyPolicy::strict()).is_ok());
        assert!(parse_policy(Some("strict"), VerifyPolicy::quick()).is_ok());
        assert!(parse_policy(Some("budgeted:5000"), VerifyPolicy::quick()).is_ok());
        assert!(parse_policy(Some("budgeted:x"), VerifyPolicy::quick()).is_err());
        assert!(parse_policy(Some("frob"), VerifyPolicy::quick()).is_err());
    }
}
