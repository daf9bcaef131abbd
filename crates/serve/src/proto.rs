//! The `odcfp serve` wire protocol: newline-delimited JSON, one request
//! per line, one *terminal* reply per request, versioned. The normative
//! specification lives in docs/PROTOCOL.md; this module is its
//! implementation.
//!
//! The contract is robustness-first:
//!
//! * every line — well-formed or not — gets exactly one terminal reply;
//!   the server never answers bad input with a disconnect;
//! * replies are structured: `{"v":2,"id":…,"ok":true,…}` on success,
//!   `{"v":2,"id":…,"ok":false,"error":"<code>","message":…}` on any
//!   failure, with a closed vocabulary of [`ErrorCode`]s clients can
//!   switch on (`overloaded` and `draining` are backpressure, not bugs);
//! * large payloads may stream: a v2 reply can arrive as a sequence of
//!   `chunk` frames followed by a `done` frame carrying the digest of
//!   the whole payload (see [`Frame`]); v1 requests always get a
//!   single-line reply;
//! * the schema is versioned: requests carry `"v"` between
//!   [`MIN_PROTO_VERSION`] and [`PROTO_VERSION`]; anything else is
//!   rejected with [`ErrorCode::UnsupportedVersion`]. Replies mirror the
//!   request's version, so v1 clients keep receiving exactly the v1
//!   shapes they were written against.
//!
//! Parsing reuses the tolerant zero-dependency JSON parser from
//! `odcfp-obs` ([`odcfp_obs::json`]); serialization lives here.

use std::fmt::Write as _;

use odcfp_obs::json::{self, Json};

/// The newest protocol schema version this build speaks.
pub const PROTO_VERSION: u64 = 2;

/// The oldest protocol schema version this build still accepts. v1
/// requests are served with v1-shaped single-line replies (no `chunk` /
/// `done` frames, no `"v":2` fields).
pub const MIN_PROTO_VERSION: u64 = 1;

/// Closed vocabulary of structured failure codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON, or a required field was
    /// missing or ill-typed.
    BadRequest,
    /// The request's `v` field is outside
    /// [`MIN_PROTO_VERSION`]..=[`PROTO_VERSION`].
    UnsupportedVersion,
    /// Admission control rejected the request: the bounded queue is
    /// full. Back off and retry — this is load shedding, not failure.
    Overloaded,
    /// The server is draining (SIGTERM or a `shutdown` request) and no
    /// longer admits new work.
    Draining,
    /// The request's deadline fired before a verdict was reached; any
    /// in-flight SAT/sweep work was cooperatively cancelled.
    Deadline,
    /// The request panicked inside its isolation boundary. The process
    /// survived; the offending circuit's warm state was dropped.
    Panic,
    /// The referenced circuit has panicked repeatedly and is quarantined;
    /// requests against it are refused without execution.
    Quarantined,
    /// An internal error (I/O, journal) — the request may be retried.
    Internal,
}

impl ErrorCode {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Panic => "panic",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A circuit payload: inline source text or a path the server resolves
/// against its `--root`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignRef {
    /// Inline source text with an explicit format (`"v"` or `"blif"`).
    Text {
        /// The design source.
        text: String,
        /// `"v"` (Verilog) or `"blif"`.
        format: String,
    },
    /// A server-side path, resolved relative to the serve root.
    Path(String),
}

/// A parsed, validated request operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Liveness check; answered inline, never queued.
    Ping,
    /// Begin a graceful drain (equivalent to SIGTERM).
    Shutdown,
    /// Fingerprint locations and capacity of a design.
    Locations {
        /// The design to analyse.
        design: DesignRef,
    },
    /// Mint a fingerprinted copy.
    Embed {
        /// The base design.
        design: DesignRef,
        /// Buyer seed (exclusive with `bits`).
        seed: Option<u64>,
        /// Explicit bit string (exclusive with `seed`).
        bits: Option<String>,
        /// Verification policy (`quick` / `strict` / `budgeted:<n>`);
        /// default `quick`.
        policy: Option<String>,
    },
    /// Equivalence-check a candidate against a golden design.
    ///
    /// The candidate is either a full netlist ([`DesignRef`]) or — the
    /// fleet-scale cheap path — a fingerprint *code* (`candidate_bits`),
    /// decided by assumption against the golden circuit's cached
    /// code-space proof without ever materializing a netlist.
    Verify {
        /// The golden design (warm-cached by digest).
        golden: DesignRef,
        /// The candidate netlist (exclusive with `candidate_bits`).
        candidate: Option<DesignRef>,
        /// A fingerprint code as a `0`/`1` string, one bit per location
        /// (exclusive with `candidate`).
        candidate_bits: Option<String>,
        /// Verification policy; default `strict`.
        policy: Option<String>,
    },
    /// Run (or resume) a journaled campaign server-side.
    Campaign {
        /// Manifest text (same grammar as `odcfp campaign`).
        manifest: String,
        /// Output directory, resolved against the serve root.
        out_dir: String,
        /// Continue an existing journal.
        resume: bool,
    },
    /// Summarize a server-side trace file.
    Report {
        /// Trace path, resolved against the serve root.
        trace_path: String,
    },
    /// Fault-injection probe (`panic` / `spin`) for containment drills —
    /// the request-level analogue of the campaign manifest's `probe:`
    /// sources.
    Probe {
        /// `"panic"` or `"spin"`.
        mode: String,
        /// When present, the fault is attributed to this circuit: its
        /// warm state is touched first, so a `panic` probe poisons it
        /// and drives the quarantine ladder — letting operators (and
        /// the conformance tests) drill the `quarantined` error path
        /// without a genuinely hostile netlist.
        design: Option<DesignRef>,
    },
}

impl Op {
    /// The wire name of this operation.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
            Op::Locations { .. } => "locations",
            Op::Embed { .. } => "embed",
            Op::Verify { .. } => "verify",
            Op::Campaign { .. } => "campaign",
            Op::Report { .. } => "report",
            Op::Probe { .. } => "probe",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The protocol version the client spoke. Replies (including
    /// errors) mirror it, and streaming engages only at `version >= 2`.
    pub version: u64,
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub id: String,
    /// Fairness key: requests are round-robin scheduled across tenants.
    pub tenant: String,
    /// Per-request deadline in milliseconds, enforced via `CancelToken`.
    pub deadline_ms: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// A request parse failure: the error code plus a message, and the `id`
/// recovered from the line if one was readable (so even a garbled
/// request gets a correlated reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Correlation id, when recoverable.
    pub id: String,
    /// The version the error reply should be stamped with: the
    /// request's own version when it was readable and supported,
    /// otherwise [`MIN_PROTO_VERSION`] (the safe common denominator).
    pub version: u64,
    /// What class of failure.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

fn obj_get<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str(pairs: &[(String, Json)], key: &str) -> Option<String> {
    match obj_get(pairs, key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(pairs: &[(String, Json)], key: &str) -> Option<u64> {
    match obj_get(pairs, key) {
        Some(Json::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn get_bool(pairs: &[(String, Json)], key: &str) -> Option<bool> {
    match obj_get(pairs, key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Extracts a [`DesignRef`] from `<prefix>_text`/`<prefix>_format` or
/// `<prefix>_path` fields.
fn get_design(pairs: &[(String, Json)], prefix: &str) -> Result<DesignRef, String> {
    let text_key = format!("{prefix}_text");
    let path_key = format!("{prefix}_path");
    match (get_str(pairs, &text_key), get_str(pairs, &path_key)) {
        (Some(text), None) => {
            let format = get_str(pairs, &format!("{prefix}_format")).unwrap_or_else(|| "v".into());
            if format != "v" && format != "blif" {
                return Err(format!("{prefix}_format must be \"v\" or \"blif\""));
            }
            Ok(DesignRef::Text { text, format })
        }
        (None, Some(path)) => Ok(DesignRef::Path(path)),
        (Some(_), Some(_)) => Err(format!("{text_key} and {path_key} are exclusive")),
        (None, None) => Err(format!("missing {text_key} or {path_key}")),
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a [`RequestError`] carrying the structured failure code
    /// and whatever correlation id could be recovered.
    pub fn parse_line(line: &str) -> Result<Request, RequestError> {
        let bad = |id: &str, version: u64, message: String| RequestError {
            id: id.to_owned(),
            version,
            code: ErrorCode::BadRequest,
            message,
        };
        let Some(Json::Obj(pairs)) = json::parse(line) else {
            return Err(bad(
                "",
                MIN_PROTO_VERSION,
                "request line is not a JSON object".into(),
            ));
        };
        let id = get_str(&pairs, "id").unwrap_or_default();
        let version = match get_u64(&pairs, "v") {
            Some(v) if (MIN_PROTO_VERSION..=PROTO_VERSION).contains(&v) => v,
            Some(v) => {
                return Err(RequestError {
                    id,
                    version: MIN_PROTO_VERSION,
                    code: ErrorCode::UnsupportedVersion,
                    message: format!(
                        "protocol version {v} not supported (this server speaks {MIN_PROTO_VERSION}..={PROTO_VERSION})"
                    ),
                })
            }
            None => {
                return Err(bad(
                    &id,
                    MIN_PROTO_VERSION,
                    "missing protocol version field \"v\"".into(),
                ))
            }
        };
        let bad = |id: &str, message: String| bad(id, version, message);
        let tenant = get_str(&pairs, "tenant").unwrap_or_else(|| "anon".into());
        let deadline_ms = get_u64(&pairs, "deadline_ms");
        let op_name = match get_str(&pairs, "op") {
            Some(op) => op,
            None => return Err(bad(&id, "missing \"op\" field".into())),
        };
        let design = |prefix: &str| get_design(&pairs, prefix).map_err(|m| bad(&id, m));
        let op = match op_name.as_str() {
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            "locations" => Op::Locations {
                design: design("design")?,
            },
            "embed" => {
                let seed = get_u64(&pairs, "seed");
                let bits = get_str(&pairs, "bits");
                if seed.is_none() && bits.is_none() {
                    return Err(bad(&id, "embed needs \"seed\" or \"bits\"".into()));
                }
                Op::Embed {
                    design: design("design")?,
                    seed,
                    bits,
                    policy: get_str(&pairs, "policy"),
                }
            }
            "verify" => {
                let candidate_bits = get_str(&pairs, "candidate_bits");
                let candidate = match &candidate_bits {
                    Some(bits) => {
                        if obj_get(&pairs, "candidate_text").is_some()
                            || obj_get(&pairs, "candidate_path").is_some()
                        {
                            return Err(bad(
                                &id,
                                "candidate_bits and candidate_text/candidate_path are exclusive"
                                    .into(),
                            ));
                        }
                        if bits.is_empty() || bits.chars().any(|c| c != '0' && c != '1') {
                            return Err(bad(
                                &id,
                                "candidate_bits must be a non-empty string of 0s and 1s".into(),
                            ));
                        }
                        None
                    }
                    None => Some(design("candidate")?),
                };
                Op::Verify {
                    golden: design("golden")?,
                    candidate,
                    candidate_bits,
                    policy: get_str(&pairs, "policy"),
                }
            }
            "campaign" => Op::Campaign {
                manifest: get_str(&pairs, "manifest")
                    .ok_or_else(|| bad(&id, "campaign needs \"manifest\" text".into()))?,
                out_dir: get_str(&pairs, "out_dir")
                    .ok_or_else(|| bad(&id, "campaign needs \"out_dir\"".into()))?,
                resume: get_bool(&pairs, "resume").unwrap_or(false),
            },
            "report" => Op::Report {
                trace_path: get_str(&pairs, "trace_path")
                    .ok_or_else(|| bad(&id, "report needs \"trace_path\"".into()))?,
            },
            "probe" => {
                let mode = get_str(&pairs, "mode")
                    .ok_or_else(|| bad(&id, "probe needs \"mode\"".into()))?;
                if mode != "panic" && mode != "spin" {
                    return Err(bad(&id, format!("unknown probe mode {mode:?}")));
                }
                let design = if obj_get(&pairs, "design_text").is_some()
                    || obj_get(&pairs, "design_path").is_some()
                {
                    Some(design("design")?)
                } else {
                    None
                };
                Op::Probe { mode, design }
            }
            other => return Err(bad(&id, format!("unknown op {other:?}"))),
        };
        Ok(Request {
            version,
            id,
            tenant,
            deadline_ms,
            op,
        })
    }
}

/// A typed reply field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// String.
    Str(String),
    /// Unsigned integer.
    U64(u64),
    /// Boolean.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// One reply line, under construction or parsed back.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The protocol version the line is stamped with. Builders default
    /// to [`PROTO_VERSION`]; the server overrides it to mirror the
    /// request's version (see [`Reply::versioned`]).
    pub v: u64,
    /// Echoed correlation id.
    pub id: String,
    /// `true` for success replies.
    pub ok: bool,
    /// Echoed operation name (success replies).
    pub op: Option<String>,
    /// Structured failure code (error replies).
    pub error: Option<String>,
    /// Human-readable failure detail (error replies).
    pub message: Option<String>,
    /// Op-specific payload fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Reply {
    /// A success reply for `op`.
    pub fn ok(id: &str, op: &str) -> Reply {
        Reply {
            v: PROTO_VERSION,
            id: id.to_owned(),
            ok: true,
            op: Some(op.to_owned()),
            error: None,
            message: None,
            fields: Vec::new(),
        }
    }

    /// A structured error reply.
    pub fn err(id: &str, code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply {
            v: PROTO_VERSION,
            id: id.to_owned(),
            ok: false,
            op: None,
            error: Some(code.as_str().to_owned()),
            message: Some(message.into()),
            fields: Vec::new(),
        }
    }

    /// Stamps the reply with the version of the request it answers
    /// (builder style). v1 clients must see `"v":1` lines — their
    /// parsers reject anything newer.
    pub fn versioned(mut self, v: u64) -> Reply {
        self.v = v.clamp(MIN_PROTO_VERSION, PROTO_VERSION);
        self
    }

    /// Attach a payload field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<FieldValue>) -> Reply {
        self.fields.push((key.to_owned(), value.into()));
        self
    }

    /// Look up a string payload field.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// Look up an integer payload field.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::U64(n) if k == key => Some(*n),
            _ => None,
        })
    }

    /// Look up a boolean payload field.
    pub fn field_bool(&self, key: &str) -> Option<bool> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Bool(b) if k == key => Some(*b),
            _ => None,
        })
    }

    /// Serializes to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"v\":{},\"id\":\"{}\",\"ok\":{}",
            self.v,
            escape_json(&self.id),
            self.ok
        );
        if let Some(op) = &self.op {
            let _ = write!(out, ",\"op\":\"{}\"", escape_json(op));
        }
        if let Some(error) = &self.error {
            let _ = write!(out, ",\"error\":\"{}\"", escape_json(error));
        }
        if let Some(message) = &self.message {
            let _ = write!(out, ",\"message\":\"{}\"", escape_json(message));
        }
        for (key, value) in &self.fields {
            let _ = write!(out, ",\"{}\":", escape_json(key));
            match value {
                FieldValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape_json(s));
                }
                FieldValue::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                FieldValue::Bool(b) => {
                    let _ = write!(out, "{b}");
                }
            }
        }
        out.push('}');
        out
    }

    /// Parses a reply line back (client side). `None` for malformed
    /// input.
    pub fn parse_line(line: &str) -> Option<Reply> {
        let Json::Obj(pairs) = json::parse(line)? else {
            return None;
        };
        let v = get_u64(&pairs, "v")?;
        if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&v) {
            return None;
        }
        let mut reply = Reply {
            v,
            id: get_str(&pairs, "id")?,
            ok: get_bool(&pairs, "ok")?,
            op: get_str(&pairs, "op"),
            error: get_str(&pairs, "error"),
            message: get_str(&pairs, "message"),
            fields: Vec::new(),
        };
        for (key, value) in &pairs {
            if matches!(key.as_str(), "v" | "id" | "ok" | "op" | "error" | "message") {
                continue;
            }
            let field = match value {
                Json::Str(s) => FieldValue::Str(s.clone()),
                Json::Int(i) if *i >= 0 => FieldValue::U64(*i as u64),
                Json::Bool(b) => FieldValue::Bool(*b),
                _ => continue,
            };
            reply.fields.push((key.clone(), field));
        }
        Some(reply)
    }
}

/// One v2 wire frame, as a client sees it: a plain single-line reply, a
/// streamed payload `chunk`, or the `done` trailer that terminates a
/// chunked reply.
///
/// A chunked reply for request `id` is the sequence
/// `chunk(seq=0) … chunk(seq=n-1) done`, where `done` carries the name
/// of the streamed field (`stream`), the chunk count, the total payload
/// byte length, and the FNV-1a digest of the whole payload
/// ([`payload_digest`]). Concatenating the chunks' `data` in `seq`
/// order reconstructs the payload; the digest detects truncation.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A complete single-line reply (the only shape v1 ever sees).
    Reply(Reply),
    /// One slice of a streamed payload.
    Chunk {
        /// Echoed correlation id.
        id: String,
        /// 0-based chunk sequence number.
        seq: u64,
        /// This slice of the payload.
        data: String,
    },
    /// The terminal frame of a chunked reply: a normal success reply
    /// (scalar fields included) minus the streamed payload itself.
    Done {
        /// The reply, with `frame`/`stream`/`chunks`/`bytes`/`digest`
        /// bookkeeping stripped from `fields`.
        reply: Reply,
        /// Name of the field the chunks carried (e.g. `netlist`).
        stream: String,
        /// Number of chunk frames emitted.
        chunks: u64,
        /// Total payload length in bytes.
        bytes: u64,
        /// [`payload_digest`] of the whole payload.
        digest: String,
    },
}

impl Frame {
    /// Parses one reply-direction wire line into a frame. `None` for
    /// malformed input.
    pub fn parse_line(line: &str) -> Option<Frame> {
        let reply = Reply::parse_line(line)?;
        match reply.field_str("frame") {
            None => Some(Frame::Reply(reply)),
            Some("chunk") => Some(Frame::Chunk {
                id: reply.id.clone(),
                seq: reply.field_u64("seq")?,
                data: reply.field_str("data")?.to_owned(),
            }),
            Some("done") => {
                let stream = reply.field_str("stream")?.to_owned();
                let chunks = reply.field_u64("chunks")?;
                let bytes = reply.field_u64("bytes")?;
                let digest = reply.field_str("digest")?.to_owned();
                let mut reply = reply;
                reply.fields.retain(|(k, _)| {
                    !matches!(
                        k.as_str(),
                        "frame" | "stream" | "chunks" | "bytes" | "digest"
                    )
                });
                Some(Frame::Done {
                    reply,
                    stream,
                    chunks,
                    bytes,
                    digest,
                })
            }
            Some(_) => None,
        }
    }
}

/// Serializes one payload `chunk` frame (no trailing newline).
pub fn chunk_line(v: u64, id: &str, seq: u64, data: &str) -> String {
    format!(
        "{{\"v\":{v},\"id\":\"{}\",\"ok\":true,\"frame\":\"chunk\",\"seq\":{seq},\"data\":\"{}\"}}",
        escape_json(id),
        escape_json(data)
    )
}

/// Serializes the `done` trailer for a chunked reply: `reply`'s scalar
/// fields plus the stream bookkeeping (no trailing newline).
pub fn done_line(reply: &Reply, stream: &str, chunks: u64, bytes: u64, digest: &str) -> String {
    reply
        .clone()
        .field("frame", "done")
        .field("stream", stream)
        .field("chunks", chunks)
        .field("bytes", bytes)
        .field("digest", digest)
        .to_line()
}

/// Content digest carried by `done` frames: 64-bit FNV-1a over the
/// payload bytes, rendered as 16 lowercase hex digits. Self-contained
/// so independent client implementations can check stream integrity
/// from the spec alone (docs/PROTOCOL.md §5).
pub fn payload_digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a request (client side). Op arguments are supplied as
/// pre-built `(key, value)` pairs by the caller.
pub fn request_line(
    id: &str,
    tenant: &str,
    deadline_ms: Option<u64>,
    op: &str,
    args: &[(&str, FieldValue)],
) -> String {
    let mut out = format!(
        "{{\"v\":{PROTO_VERSION},\"id\":\"{}\",\"tenant\":\"{}\",\"op\":\"{}\"",
        escape_json(id),
        escape_json(tenant),
        escape_json(op)
    );
    if let Some(ms) = deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    for (key, value) in args {
        let _ = write!(out, ",\"{}\":", escape_json(key));
        match value {
            FieldValue::Str(s) => {
                let _ = write!(out, "\"{}\"", escape_json(s));
            }
            FieldValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            FieldValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_request_roundtrip() {
        let line = request_line("r1", "acme", Some(250), "ping", &[]);
        let req = Request::parse_line(&line).expect("parses");
        assert_eq!(req.id, "r1");
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.op, Op::Ping);
    }

    #[test]
    fn verify_request_with_inline_text() {
        let line = request_line(
            "v9",
            "t",
            None,
            "verify",
            &[
                ("golden_text", "module m; endmodule".into()),
                ("golden_format", "v".into()),
                ("candidate_path", "cand.v".into()),
                ("policy", "budgeted:5000".into()),
            ],
        );
        let req = Request::parse_line(&line).expect("parses");
        let Op::Verify {
            golden,
            candidate,
            policy,
            candidate_bits,
        } = req.op
        else {
            panic!("wrong op");
        };
        assert_eq!(
            golden,
            DesignRef::Text {
                text: "module m; endmodule".into(),
                format: "v".into()
            }
        );
        assert_eq!(candidate, Some(DesignRef::Path("cand.v".into())));
        assert_eq!(candidate_bits, None);
        assert_eq!(policy.as_deref(), Some("budgeted:5000"));
    }

    #[test]
    fn malformed_lines_yield_structured_errors_with_recovered_ids() {
        for (line, code, id) in [
            ("not json at all", ErrorCode::BadRequest, ""),
            ("{\"v\":1}", ErrorCode::BadRequest, ""),
            ("{\"v\":1,\"id\":\"x\",\"op\":\"frob\"}", ErrorCode::BadRequest, "x"),
            ("{\"v\":3,\"id\":\"y\",\"op\":\"ping\"}", ErrorCode::UnsupportedVersion, "y"),
            ("{\"v\":0,\"id\":\"y2\",\"op\":\"ping\"}", ErrorCode::UnsupportedVersion, "y2"),
            ("{\"id\":\"z\",\"op\":\"ping\"}", ErrorCode::BadRequest, "z"),
            ("{\"v\":1,\"op\":\"embed\",\"design_text\":\"m\"}", ErrorCode::BadRequest, ""),
            (
                "{\"v\":1,\"op\":\"verify\",\"golden_text\":\"a\",\"golden_path\":\"b\",\"candidate_text\":\"c\"}",
                ErrorCode::BadRequest,
                "",
            ),
        ] {
            let e = Request::parse_line(line).expect_err(line);
            assert_eq!(e.code, code, "{line}");
            assert_eq!(e.id, id, "{line}");
            assert!(!e.message.is_empty(), "{line}");
        }
    }

    #[test]
    fn reply_roundtrip_with_fields() {
        let reply = Reply::ok("r1", "verify")
            .field("verdict", "proven")
            .field("conflicts", 42u64)
            .field("cache", "hit")
            .field("cancelled", false);
        let line = reply.to_line();
        let back = Reply::parse_line(&line).expect("parses");
        assert_eq!(back, reply);
        assert_eq!(back.field_str("verdict"), Some("proven"));
        assert_eq!(back.field_u64("conflicts"), Some(42));
        assert_eq!(back.field_bool("cancelled"), Some(false));
    }

    #[test]
    fn error_reply_carries_code_and_message() {
        let line = Reply::err("q", ErrorCode::Overloaded, "queue full (depth 64)").to_line();
        let back = Reply::parse_line(&line).expect("parses");
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("overloaded"));
        assert!(back.message.as_deref().unwrap().contains("queue full"));
    }

    #[test]
    fn v1_requests_parse_and_replies_mirror_version() {
        let req =
            Request::parse_line("{\"v\":1,\"id\":\"old\",\"op\":\"ping\"}").expect("v1 parses");
        assert_eq!(req.version, 1);
        let line = Reply::ok(&req.id, "ping").versioned(req.version).to_line();
        assert!(line.starts_with("{\"v\":1,"), "{line}");
        // A v1 client's parser must accept the mirrored line.
        assert_eq!(Reply::parse_line(&line).expect("parses").v, 1);
    }

    #[test]
    fn verify_accepts_code_bits_exclusively() {
        let line = "{\"v\":2,\"id\":\"c\",\"op\":\"verify\",\"golden_path\":\"g.v\",\"candidate_bits\":\"0110\"}";
        let req = Request::parse_line(line).expect("parses");
        let Op::Verify {
            candidate,
            candidate_bits,
            ..
        } = req.op
        else {
            panic!("wrong op");
        };
        assert_eq!(candidate, None);
        assert_eq!(candidate_bits.as_deref(), Some("0110"));
        for bad in [
            "{\"v\":2,\"op\":\"verify\",\"golden_path\":\"g\",\"candidate_bits\":\"01\",\"candidate_path\":\"c\"}",
            "{\"v\":2,\"op\":\"verify\",\"golden_path\":\"g\",\"candidate_bits\":\"01x\"}",
            "{\"v\":2,\"op\":\"verify\",\"golden_path\":\"g\",\"candidate_bits\":\"\"}",
        ] {
            assert!(Request::parse_line(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn chunked_reply_frames_roundtrip() {
        let chunk = chunk_line(2, "s1", 3, "abc\ndef");
        match Frame::parse_line(&chunk).expect("chunk parses") {
            Frame::Chunk { id, seq, data } => {
                assert_eq!((id.as_str(), seq, data.as_str()), ("s1", 3, "abc\ndef"));
            }
            other => panic!("not a chunk: {other:?}"),
        }
        let trailer = Reply::ok("s1", "embed")
            .field("verdict", "proven")
            .field("cache", "hit");
        let done = done_line(&trailer, "netlist", 4, 123, &payload_digest(b"payload"));
        match Frame::parse_line(&done).expect("done parses") {
            Frame::Done {
                reply,
                stream,
                chunks,
                bytes,
                digest,
            } => {
                assert_eq!(stream, "netlist");
                assert_eq!((chunks, bytes), (4, 123));
                assert_eq!(digest, payload_digest(b"payload"));
                // Bookkeeping is stripped; scalar fields survive.
                assert_eq!(reply.field_str("verdict"), Some("proven"));
                assert!(reply.field_str("frame").is_none());
            }
            other => panic!("not done: {other:?}"),
        }
        // A plain reply parses as Frame::Reply.
        let plain = Reply::ok("p", "ping").to_line();
        assert!(matches!(Frame::parse_line(&plain), Some(Frame::Reply(_))));
    }

    #[test]
    fn payload_digest_is_stable() {
        // Pinned values: independent implementations written from
        // docs/PROTOCOL.md must reproduce these exactly.
        assert_eq!(payload_digest(b""), "cbf29ce484222325");
        assert_eq!(payload_digest(b"a"), "af63dc4c8601ec8c");
        assert_ne!(payload_digest(b"ab"), payload_digest(b"ba"));
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let hostile = "line1\nline2\t\"quoted\" \\slash\u{1} héllo";
        let line = Reply::ok(hostile, "ping").field("msg", hostile).to_line();
        let back = Reply::parse_line(&line).expect("parses");
        assert_eq!(back.id, hostile);
        assert_eq!(back.field_str("msg"), Some(hostile));
    }
}
