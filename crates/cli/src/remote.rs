//! The `odcfp serve`, `odcfp client`, and `odcfp loadgen` subcommands:
//! the resident engine (crates/serve), a thin protocol client, and a
//! deterministic load generator.
//!
//! `serve` binds, prints a parseable `odcfp serve listening on <addr>`
//! line, and runs until SIGTERM/SIGINT or a protocol `shutdown`
//! request, then drains gracefully. `client` speaks one request per
//! invocation: it inlines local design files into the request (the
//! server never needs the client's filesystem), reads *frames* until
//! the terminal reply — reassembling and digest-checking `chunk`/`done`
//! streams — prints the payload, and maps verdicts onto the same exit
//! codes the batch commands use. A connection closed before the
//! terminal reply is a structured `connection-closed` error with a
//! nonzero exit, never a hang. `loadgen` drives a server open-loop at a
//! target request rate over a fixed connection count with a seeded
//! op/tenant mix, and reports a latency histogram (docs/SERVING.md §5).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use odcfp_logic::rng::Xoshiro256;
use odcfp_netlist::CellLibrary;
use odcfp_serve::proto::{payload_digest, request_line, FieldValue, Frame};
use odcfp_serve::{signal, Reply, Server, ServerConfig};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};
use odcfp_verilog::write_verilog;

use crate::{usage, CliError, Options};

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into(), 1)
}

/// `odcfp serve`: run the resident engine until drained.
pub fn run_serve(o: &Options, out: &mut impl std::io::Write) -> Result<i32, CliError> {
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        listen: o.listen.clone().unwrap_or_else(|| "127.0.0.1:7333".into()),
        workers: o.workers.unwrap_or(2),
        queue_depth: o.queue_depth.unwrap_or(64),
        max_conns: o.max_conns.unwrap_or(defaults.max_conns),
        cache_budget: o.cache_budget_mb.unwrap_or(64) * 1024 * 1024,
        drain_deadline: Duration::from_secs_f64(o.drain_secs.unwrap_or(5.0)),
        max_line: defaults.max_line,
        stream_threshold: o.stream_threshold.unwrap_or(defaults.stream_threshold),
        stream_chunk: defaults.stream_chunk,
        root: PathBuf::from(o.root.clone().unwrap_or_else(|| ".".into())),
    };
    signal::install();
    let server = Server::bind(config).map_err(|e| fail(format!("cannot bind: {e}")))?;
    let addr = server.local_addr().map_err(CliError::from)?;
    // Parsed by supervisors and the e2e tests; keep the format stable.
    writeln!(out, "odcfp serve listening on {addr}")?;
    out.flush()?;
    let summary = server.run().map_err(CliError::from)?;
    writeln!(
        out,
        "odcfp serve drained: {} served, {} rejected, {} panics",
        summary.served, summary.rejected, summary.panics
    )?;
    Ok(0)
}

/// Builds the op-specific request fields for `odcfp client`.
fn client_request(o: &Options, op: &str, rest: &[String]) -> Result<String, CliError> {
    let mut args: Vec<(&str, FieldValue)> = Vec::new();
    let read = |path: &String| -> Result<String, CliError> {
        std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
    };
    let design_format = |path: &str| {
        if path.ends_with(".blif") {
            "blif"
        } else {
            "v"
        }
    };
    match op {
        "ping" | "shutdown" => {}
        "locations" | "embed" => {
            let [path] = rest else {
                return Err(usage(format!("client {op} needs <design file>")));
            };
            args.push(("design_text", read(path)?.into()));
            args.push(("design_format", design_format(path).into()));
            if op == "embed" {
                match (&o.bits, o.seed) {
                    (Some(bits), _) => args.push(("bits", bits.as_str().into())),
                    (None, Some(seed)) => args.push(("seed", seed.into())),
                    (None, None) => return Err(usage("client embed needs --seed or --bits")),
                }
                if let Some(policy) = &o.policy {
                    args.push(("policy", policy.as_str().into()));
                }
            }
        }
        "verify" => {
            // Either a candidate netlist file, or --bits for a
            // code-shape check against the golden's code space.
            match (rest, &o.bits) {
                ([golden], Some(bits)) => {
                    args.push(("golden_text", read(golden)?.into()));
                    args.push(("golden_format", design_format(golden).into()));
                    args.push(("candidate_bits", bits.as_str().into()));
                }
                ([golden, candidate], None) => {
                    args.push(("golden_text", read(golden)?.into()));
                    args.push(("golden_format", design_format(golden).into()));
                    args.push(("candidate_text", read(candidate)?.into()));
                    args.push(("candidate_format", design_format(candidate).into()));
                }
                _ => {
                    return Err(usage(
                        "client verify needs <golden> <candidate> or <golden> --bits S",
                    ))
                }
            }
            if let Some(policy) = &o.policy {
                args.push(("policy", policy.as_str().into()));
            }
        }
        "campaign" => {
            let [manifest] = rest else {
                return Err(usage("client campaign needs <manifest file>"));
            };
            let out_dir = o
                .out_dir
                .as_deref()
                .ok_or_else(|| usage("client campaign needs --out-dir (server-relative)"))?;
            args.push(("manifest", read(manifest)?.into()));
            args.push(("out_dir", out_dir.into()));
            if o.resume {
                args.push(("resume", true.into()));
            }
        }
        "report" => {
            let [trace] = rest else {
                return Err(usage("client report needs <trace path> (server-relative)"));
            };
            args.push(("trace_path", trace.as_str().into()));
        }
        "probe" => {
            // Optional design: the fault is attributed to that circuit
            // (a panic probe then drives its quarantine ladder).
            let (mode, design) = match rest {
                [mode] => (mode, None),
                [mode, design] => (mode, Some(design)),
                _ => return Err(usage("client probe needs panic|spin [design file]")),
            };
            args.push(("mode", mode.as_str().into()));
            if let Some(path) = design {
                args.push(("design_text", read(path)?.into()));
                args.push(("design_format", design_format(path).into()));
            }
        }
        other => return Err(usage(format!("unknown client op {other:?}"))),
    }
    let tenant = o.tenant.as_deref().unwrap_or("cli");
    Ok(request_line("cli-1", tenant, o.deadline_ms, op, &args))
}

/// Reads frames until the terminal reply for one request, reassembling
/// chunked streams and verifying the `done` digest.
///
/// A closed connection before the terminal frame returns
/// `Err(ReadError::ConnectionClosed)` — the caller reports it as a
/// structured error and exits nonzero instead of looping forever.
enum ReadError {
    ConnectionClosed,
    Protocol(String),
    Io(std::io::Error),
}

fn read_terminal_reply(reader: &mut impl BufRead) -> Result<Reply, ReadError> {
    let mut assembled = String::new();
    let mut next_seq: u64 = 0;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(ReadError::Io)?;
        if n == 0 {
            // EOF. Pre-v2 clients looped on this forever; it is a
            // terminal condition: the server (or the network) hung up
            // before completing the reply.
            return Err(ReadError::ConnectionClosed);
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        let frame = Frame::parse_line(trimmed)
            .ok_or_else(|| ReadError::Protocol(format!("unparseable reply: {trimmed:?}")))?;
        match frame {
            Frame::Reply(reply) => return Ok(reply),
            Frame::Chunk { seq, data, .. } => {
                if seq != next_seq {
                    return Err(ReadError::Protocol(format!(
                        "chunk out of order: got seq {seq}, expected {next_seq}"
                    )));
                }
                next_seq += 1;
                assembled.push_str(&data);
            }
            Frame::Done {
                reply,
                stream,
                chunks,
                bytes,
                digest,
            } => {
                if chunks != next_seq {
                    return Err(ReadError::Protocol(format!(
                        "stream truncated: done after {next_seq} chunks, expected {chunks}"
                    )));
                }
                if bytes as usize != assembled.len()
                    || payload_digest(assembled.as_bytes()) != digest
                {
                    return Err(ReadError::Protocol(format!(
                        "stream digest mismatch on field {stream:?} ({} bytes)",
                        assembled.len()
                    )));
                }
                return Ok(reply.field(&stream, std::mem::take(&mut assembled)));
            }
        }
    }
}

/// `odcfp client <addr> <op> [args]`: one request, one (possibly
/// chunked) reply.
pub fn run_client(o: &Options, out: &mut impl std::io::Write) -> Result<i32, CliError> {
    let [addr, op, rest @ ..] = o.positional.as_slice() else {
        return Err(usage(
            "client needs <addr> and <op> (ping|locations|embed|verify|campaign|report|probe|shutdown)",
        ));
    };
    let line = client_request(o, op, rest)?;
    let stream =
        TcpStream::connect(addr).map_err(|e| fail(format!("cannot connect {addr}: {e}")))?;
    let mut writer = stream.try_clone().map_err(CliError::from)?;
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut reader = BufReader::new(stream);
    let reply = match read_terminal_reply(&mut reader) {
        Ok(reply) => reply,
        Err(ReadError::ConnectionClosed) => {
            eprintln!(
                "error (connection-closed): server closed the connection before a complete reply"
            );
            return Ok(1);
        }
        Err(ReadError::Protocol(message)) => return Err(fail(message)),
        Err(ReadError::Io(e)) => return Err(CliError::from(e)),
    };

    if !reply.ok {
        let code = reply.error.as_deref().unwrap_or("error");
        let message = reply.message.as_deref().unwrap_or("");
        eprintln!("error ({code}): {message}");
        // Shed/cancelled requests are operational outcomes, not usage
        // mistakes: `deadline` maps onto the batch `undecided` code.
        return Ok(if code == "deadline" { 4 } else { 1 });
    }
    // Large payloads go to -o / stdout; scalar fields print as key=value.
    let mut code = 0;
    for (key, value) in &reply.fields {
        match value {
            FieldValue::Str(s) if key == "netlist" || key == "summary" => match &o.output {
                Some(path) => {
                    std::fs::write(path, s)
                        .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
                    eprintln!("wrote {path}");
                }
                None => write!(out, "{s}")?,
            },
            FieldValue::Str(s) => {
                writeln!(out, "{key}={s}")?;
                if key == "verdict" {
                    code = match s.as_str() {
                        "proven" => 0,
                        "refuted" => 3,
                        "undecided" => 4,
                        _ => 5,
                    };
                }
            }
            FieldValue::U64(n) => writeln!(out, "{key}={n}")?,
            FieldValue::Bool(b) => writeln!(out, "{key}={b}")?,
        }
    }
    if reply.fields.is_empty() {
        writeln!(out, "ok ({})", reply.op.as_deref().unwrap_or("?"))?;
    }
    Ok(code)
}

/// Aggregated loadgen accounting, shared across connection threads.
#[derive(Default)]
struct LoadStats {
    latencies_us: Mutex<Vec<u64>>,
    sent: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    /// Error replies by structured code (`overloaded`, `deadline`, …) —
    /// the troubleshooting table in docs/SERVING.md is keyed by these.
    error_codes: Mutex<HashMap<String, u64>>,
}

/// `odcfp loadgen <addr>`: open-loop load at a target rate.
///
/// Deterministic by construction: the op/tenant mix on each connection
/// is drawn from a `Xoshiro256` stream seeded with `--seed` plus the
/// connection index, so two runs against the same server issue the
/// identical request sequence. Open-loop means requests are sent on
/// schedule regardless of outstanding replies, and each latency runs
/// from the request's scheduled send time — measured latency includes
/// queueing and any lateness of the sender itself, which is what
/// capacity planning needs.
pub fn run_loadgen(o: &Options, out: &mut impl std::io::Write) -> Result<i32, CliError> {
    let [addr] = o.positional.as_slice() else {
        return Err(usage("loadgen needs <addr>"));
    };
    let rps = o.rps.unwrap_or(200.0);
    let duration = Duration::from_secs_f64(o.duration_secs.unwrap_or(5.0));
    let conns = o.conns.unwrap_or(4);
    let seed = o.seed.unwrap_or(7);
    let mix = parse_mix(
        o.mix
            .as_deref()
            .unwrap_or("ping:1,locations:1,embed:1,verify:1"),
    )?;

    // One deterministic design shared by every design-bearing request,
    // so the server answers from its warm cache.
    let design = write_verilog(&random_dag(CellLibrary::standard(), DagParams::small(seed)));
    let stats = Arc::new(LoadStats::default());
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let addr = addr.clone();
            let mix = mix.clone();
            let design = design.clone();
            let stats = Arc::clone(&stats);
            let per_conn_rps = rps / conns as f64;
            std::thread::spawn(move || {
                conn_loop(
                    &addr,
                    c,
                    seed,
                    per_conn_rps,
                    duration,
                    &mix,
                    &design,
                    &stats,
                )
            })
        })
        .collect();
    let mut conn_errors = 0usize;
    for h in handles {
        if h.join().map_or(true, |r| r.is_err()) {
            conn_errors += 1;
        }
    }
    let elapsed = start.elapsed();

    let mut latencies = stats
        .latencies_us
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)]
    };
    let sent = stats.sent.load(Ordering::SeqCst);
    let ok = stats.ok.load(Ordering::SeqCst);
    let errors = stats.errors.load(Ordering::SeqCst);
    let achieved = ok as f64 / elapsed.as_secs_f64();

    // Power-of-two latency histogram (bucket upper bounds in µs).
    let mut histogram: Vec<(u64, u64)> = Vec::new();
    let mut bound = 64u64;
    let mut idx = 0usize;
    while idx < latencies.len() {
        let count = latencies[idx..].iter().take_while(|&&l| l <= bound).count();
        if count > 0 || bound <= pct(1.0) {
            histogram.push((bound, count as u64));
        }
        idx += count;
        bound = bound.saturating_mul(2);
        if bound == 0 {
            break;
        }
    }

    writeln!(
        out,
        "loadgen: {sent} sent, {ok} ok, {errors} errors over {:.2}s ({achieved:.1} rps achieved, {rps:.1} targeted)",
        elapsed.as_secs_f64()
    )?;
    writeln!(
        out,
        "latency: p50={}us p90={}us p99={}us max={}us",
        pct(0.50),
        pct(0.90),
        pct(0.99),
        pct(1.0)
    )?;
    let mut by_code: Vec<(String, u64)> = stats
        .error_codes
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    by_code.sort();
    for (code, n) in &by_code {
        writeln!(out, "error breakdown: {code}={n}")?;
    }
    if conn_errors > 0 {
        writeln!(out, "warning: {conn_errors} connection(s) failed")?;
    }

    if let Some(path) = &o.output {
        let mut json = String::from("{\n");
        json.push_str(&format!("  \"target_rps\": {rps},\n"));
        json.push_str(&format!("  \"achieved_rps\": {achieved:.2},\n"));
        json.push_str(&format!(
            "  \"duration_secs\": {:.3},\n",
            elapsed.as_secs_f64()
        ));
        json.push_str(&format!("  \"conns\": {conns},\n"));
        json.push_str(&format!("  \"seed\": {seed},\n"));
        json.push_str(&format!("  \"sent\": {sent},\n"));
        json.push_str(&format!("  \"ok\": {ok},\n"));
        json.push_str(&format!("  \"errors\": {errors},\n"));
        let codes: Vec<String> = by_code
            .iter()
            .map(|(code, n)| format!("\"{code}\": {n}"))
            .collect();
        json.push_str(&format!("  \"error_codes\": {{{}}},\n", codes.join(", ")));
        json.push_str(&format!(
            "  \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"max_us\": {},\n",
            pct(0.50),
            pct(0.90),
            pct(0.99),
            pct(1.0)
        ));
        json.push_str("  \"histogram_le_us\": [");
        let buckets: Vec<String> = histogram
            .iter()
            .map(|(le, n)| format!("[{le},{n}]"))
            .collect();
        json.push_str(&buckets.join(","));
        json.push_str("]\n}\n");
        std::fs::write(path, json).map_err(|e| fail(format!("cannot write {path}: {e}")))?;
        eprintln!("wrote {path}");
    }
    Ok(if errors > 0 || conn_errors > 0 { 1 } else { 0 })
}

/// Parses `op:weight,op:weight` into a cumulative-weight table.
fn parse_mix(spec: &str) -> Result<Vec<(String, f64)>, CliError> {
    let mut mix = Vec::new();
    for part in spec.split(',') {
        let Some((op, weight)) = part.split_once(':') else {
            return Err(usage(format!("--mix entries are op:weight; got {part:?}")));
        };
        if !matches!(op, "ping" | "locations" | "embed" | "verify") {
            return Err(usage(format!(
                "--mix op must be ping|locations|embed|verify; got {op:?}"
            )));
        }
        let w: f64 = weight
            .parse()
            .map_err(|_| usage(format!("--mix weight must be a number; got {weight:?}")))?;
        if !w.is_finite() || w < 0.0 {
            return Err(usage("--mix weights must be non-negative"));
        }
        mix.push((op.to_owned(), w));
    }
    if mix.iter().map(|(_, w)| w).sum::<f64>() <= 0.0 {
        return Err(usage("--mix weights must sum to a positive value"));
    }
    Ok(mix)
}

/// One loadgen connection: sends on schedule (open loop), reads frames
/// opportunistically between sends, and drains stragglers at the end.
#[allow(clippy::too_many_arguments)]
fn conn_loop(
    addr: &str,
    conn_idx: usize,
    seed: u64,
    rps: f64,
    duration: Duration,
    mix: &[(String, f64)],
    design: &str,
    stats: &LoadStats,
) -> Result<(), ()> {
    let stream = TcpStream::connect(addr).map_err(|_| ())?;
    stream
        .set_read_timeout(Some(Duration::from_millis(2)))
        .map_err(|_| ())?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|_| ())?;
    let mut reader = BufReader::new(stream);
    let mut rng = Xoshiro256::seed_from_u64(seed.wrapping_add(conn_idx as u64 + 1));
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let interval = Duration::from_secs_f64(1.0 / rps.max(0.001));
    let start = Instant::now();
    let mut next_send = start;
    let mut sent_count: u64 = 0;
    let mut pending: HashMap<String, Instant> = HashMap::new();
    // Partial line carried across read timeouts.
    let mut line = String::new();

    loop {
        let now = Instant::now();
        let sending = now < start + duration;
        if !sending && pending.is_empty() {
            break;
        }
        if !sending && now > start + duration + Duration::from_secs(10) {
            // Straggler grace expired; count the rest as errors.
            stats
                .errors
                .fetch_add(pending.len() as u64, Ordering::SeqCst);
            break;
        }
        if sending && now >= next_send {
            // Open loop: send on schedule even with replies outstanding.
            let id = format!("lg{conn_idx}-{sent_count}");
            let tenant = format!("tenant-{}", rng.next_below(4));
            let mut pick = rng.next_f64() * total;
            let mut op = mix[0].0.as_str();
            for (name, w) in mix {
                if pick < *w {
                    op = name;
                    break;
                }
                pick -= w;
            }
            let mut args: Vec<(&str, FieldValue)> = Vec::new();
            match op {
                "ping" => {}
                "locations" => {
                    args.push(("design_text", design.into()));
                    args.push(("design_format", "v".into()));
                }
                "embed" => {
                    args.push(("design_text", design.into()));
                    args.push(("design_format", "v".into()));
                    // Wire integers are i64; keep seeds in range.
                    args.push(("seed", rng.next_below(1 << 32).into()));
                    args.push(("policy", "quick".into()));
                }
                _ => {
                    args.push(("golden_text", design.into()));
                    args.push(("golden_format", "v".into()));
                    args.push(("candidate_text", design.into()));
                    args.push(("candidate_format", "v".into()));
                    args.push(("policy", "strict".into()));
                }
            }
            let request = request_line(&id, &tenant, None, op, &args);
            if writer.write_all(request.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
                stats
                    .errors
                    .fetch_add(pending.len() as u64 + 1, Ordering::SeqCst);
                return Err(());
            }
            stats.sent.fetch_add(1, Ordering::SeqCst);
            // Stamp with the due time, not `now`: a sender that fell
            // behind schedule must not hide its own lateness.
            pending.insert(id, next_send);
            sent_count += 1;
            next_send += interval;
            continue;
        }
        match reader.read_line(&mut line) {
            Ok(0) => {
                // Server hung up with replies outstanding.
                stats
                    .errors
                    .fetch_add(pending.len() as u64, Ordering::SeqCst);
                return Err(());
            }
            Ok(_) => {
                let trimmed = line.trim_end();
                if let Some(Frame::Reply(reply)) = (!trimmed.is_empty())
                    .then(|| Frame::parse_line(trimmed))
                    .flatten()
                {
                    if let Some(due) = pending.remove(&reply.id) {
                        let us = due.elapsed().as_micros() as u64;
                        stats
                            .latencies_us
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .push(us);
                        if reply.ok {
                            stats.ok.fetch_add(1, Ordering::SeqCst);
                        } else {
                            stats.errors.fetch_add(1, Ordering::SeqCst);
                            let code = reply.error.clone().unwrap_or_else(|| "?".into());
                            *stats
                                .error_codes
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .entry(code)
                                .or_insert(0) += 1;
                        }
                    }
                }
                // Chunk/done frames are ignored: loadgen payloads stay
                // under the stream threshold by construction.
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => {
                stats
                    .errors
                    .fetch_add(pending.len() as u64, Ordering::SeqCst);
                return Err(());
            }
        }
    }
    Ok(())
}
