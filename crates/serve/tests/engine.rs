//! In-process integration tests for the resident engine: a real TCP
//! server per test, driven over the wire.
//!
//! The process-global pieces these tests touch (the obs sink, the
//! SIGTERM flag) are avoided: drain is exercised through the protocol's
//! `shutdown` op, and no test installs a trace sink.
//!
//! The two `#[ignore]`d serving gates at the end read the process's
//! resident memory and wall clock, so CI runs them in release, alone:
//! `cargo test --release -p odcfp-serve --test engine -- --ignored
//! --test-threads=1`.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use odcfp_netlist::CellLibrary;
use odcfp_serve::proto::{payload_digest, request_line, FieldValue, Frame};
use odcfp_serve::{Reply, ServeSummary, Server, ServerConfig};
use odcfp_synth::benchmarks::random::{random_dag, DagParams};
use odcfp_verilog::write_verilog;

/// A running server plus a handle to its eventual summary.
struct TestServer {
    addr: String,
    handle: JoinHandle<ServeSummary>,
}

fn start(config: ServerConfig) -> TestServer {
    let server = Server::bind(config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run().expect("serve run"));
    TestServer { addr, handle }
}

impl TestServer {
    fn connect(&self) -> Client {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    /// Drains via the protocol and returns the run summary.
    fn shutdown(self) -> ServeSummary {
        let mut c = self.connect();
        let reply = c.roundtrip(&request_line("shutdown", "admin", None, "shutdown", &[]));
        assert!(reply.ok, "shutdown accepted: {reply:?}");
        self.handle.join().expect("server thread")
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn send_raw(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send nl");
        self.stream.flush().expect("flush");
    }

    fn read_reply(&mut self) -> Reply {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        Reply::parse_line(line.trim_end()).unwrap_or_else(|| panic!("parseable reply: {line:?}"))
    }

    fn roundtrip(&mut self, line: &str) -> Reply {
        self.send_raw(line);
        self.read_reply()
    }

    fn read_frame(&mut self) -> Frame {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read frame");
        Frame::parse_line(line.trim_end())
            .unwrap_or_else(|| panic!("parseable frame: {line:?}"))
    }

    /// Reads one complete reply that may arrive chunked: collects
    /// `chunk` frames in sequence, checks the `done` trailer's digest,
    /// and returns the reply with the streamed payload merged back in.
    fn read_assembled_reply(&mut self) -> Reply {
        let mut assembled = String::new();
        let mut next_seq = 0u64;
        loop {
            match self.read_frame() {
                Frame::Reply(reply) => {
                    assert_eq!(next_seq, 0, "plain reply after chunks");
                    return reply;
                }
                Frame::Chunk { seq, data, .. } => {
                    assert_eq!(seq, next_seq, "chunks arrive in order");
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
                    assert_eq!(chunks, next_seq, "done counts the chunks");
                    assert_eq!(bytes as usize, assembled.len());
                    assert_eq!(digest, payload_digest(assembled.as_bytes()));
                    return reply.field(&stream, assembled);
                }
            }
        }
    }
}

/// A small deterministic Verilog circuit, distinct per seed.
fn circuit_text(seed: u64) -> String {
    write_verilog(&random_dag(CellLibrary::standard(), DagParams::small(seed)))
}

fn verify_args(golden: &str, candidate: &str) -> Vec<(&'static str, FieldValue)> {
    vec![
        ("golden_text", golden.into()),
        ("golden_format", "v".into()),
        ("candidate_text", candidate.into()),
        ("candidate_format", "v".into()),
    ]
}

#[test]
fn bad_input_answers_errors_without_disconnecting() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();

    // Garbage, bad JSON, unknown op, wrong version — each gets a
    // structured reply on the same connection.
    let e = c.roundtrip("this is not json");
    assert!(!e.ok);
    assert_eq!(e.error.as_deref(), Some("bad_request"));

    let e = c.roundtrip("{\"v\":1,\"id\":\"q\",\"op\":\"frobnicate\"}");
    assert_eq!(e.error.as_deref(), Some("bad_request"));
    assert_eq!(e.id, "q", "id recovered from the bad request");

    let e = c.roundtrip("{\"v\":99,\"id\":\"w\",\"op\":\"ping\"}");
    assert_eq!(e.error.as_deref(), Some("unsupported_version"));

    // The connection is still serviceable.
    let pong = c.roundtrip(&request_line("p1", "t", None, "ping", &[]));
    assert!(pong.ok, "{pong:?}");
    assert_eq!(pong.field_bool("draining"), Some(false));

    srv.shutdown();
}

#[test]
fn verify_serves_warm_and_reports_cache_disposition() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();
    let golden = circuit_text(11);

    let first = c.roundtrip(&request_line(
        "v1",
        "acme",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    assert!(first.ok, "{first:?}");
    assert_eq!(first.field_str("verdict"), Some("proven"));
    assert_eq!(first.field_str("cache"), Some("miss"));

    let second = c.roundtrip(&request_line(
        "v2",
        "other-tenant",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    assert_eq!(second.field_str("verdict"), Some("proven"));
    assert_eq!(
        second.field_str("cache"),
        Some("hit"),
        "warm state is shared across tenants: {second:?}"
    );

    let summary = srv.shutdown();
    assert_eq!(summary.panics, 0);
    assert!(summary.served >= 2);
}

#[test]
fn embed_is_deterministic_and_extractable_via_reply() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();
    let base = circuit_text(12);
    let args: Vec<(&str, FieldValue)> = vec![
        ("design_text", base.as_str().into()),
        ("design_format", "v".into()),
        ("seed", 7u64.into()),
    ];
    let a = c.roundtrip(&request_line("e1", "t", None, "embed", &args));
    let b = c.roundtrip(&request_line("e2", "t", None, "embed", &args));
    assert!(a.ok && b.ok, "{a:?} / {b:?}");
    assert_eq!(a.field_str("bits"), b.field_str("bits"));
    assert_eq!(
        a.field_str("netlist"),
        b.field_str("netlist"),
        "same seed, same copy — warm path included"
    );
    assert_eq!(a.field_str("cache"), Some("miss"));
    assert_eq!(b.field_str("cache"), Some("hit"));
    srv.shutdown();
}

#[test]
fn cache_budget_below_working_set_degrades_to_cold_rebuilds() {
    // Budget fits exactly one of the two circuits; alternating them
    // must keep evicting, and every answer must still be correct.
    let net_a = random_dag(CellLibrary::standard(), DagParams::small(21));
    let net_b = random_dag(CellLibrary::standard(), DagParams::small(22));
    let (a, b) = (write_verilog(&net_a), write_verilog(&net_b));
    let cost = |t: &str, n: &odcfp_netlist::Netlist| {
        odcfp_serve::WarmCache::estimate_cost(t.len(), n.num_gates())
    };
    let srv = start(ServerConfig {
        cache_budget: cost(&a, &net_a).max(cost(&b, &net_b)),
        ..ServerConfig::default()
    });
    let mut c = srv.connect();
    let mut dispositions = Vec::new();
    for (i, golden) in [&a, &b, &a, &b].iter().enumerate() {
        let reply = c.roundtrip(&request_line(
            &format!("r{i}"),
            "t",
            None,
            "verify",
            &verify_args(golden, golden),
        ));
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.field_str("verdict"), Some("proven"));
        dispositions.push(reply.field_str("cache").unwrap().to_owned());
    }
    assert_eq!(
        dispositions,
        vec!["miss", "miss", "miss", "miss"],
        "a working set over budget keeps rebuilding cold, never crashing"
    );
    srv.shutdown();
}

/// A code verify whose deadline has already passed cuts the code-space
/// proof short. That undecided proof must not stay on the warm entry:
/// the next code verify on the same entry proves the space afresh.
#[test]
fn cancelled_code_verify_does_not_pin_an_undecided_proof() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();
    let golden = circuit_text(31);
    let design: Vec<(&str, FieldValue)> = vec![
        ("design_text", golden.as_str().into()),
        ("design_format", "v".into()),
    ];
    let warm = c.roundtrip(&request_line("l", "t", None, "locations", &design));
    assert!(warm.ok, "{warm:?}");
    let locations = warm.field_u64("locations").expect("locations") as usize;
    assert!(locations > 0, "{warm:?}");
    let code_args: Vec<(&str, FieldValue)> = vec![
        ("golden_text", golden.as_str().into()),
        ("golden_format", "v".into()),
        ("candidate_bits", "1".repeat(locations).into()),
    ];

    let cancelled = c.roundtrip(&request_line("c1", "t", Some(0), "verify", &code_args));
    assert!(!cancelled.ok, "{cancelled:?}");
    assert_eq!(cancelled.error.as_deref(), Some("deadline"), "{cancelled:?}");

    let next = c.roundtrip(&request_line("c2", "t", None, "verify", &code_args));
    assert!(next.ok, "{next:?}");
    assert_eq!(next.field_str("cache"), Some("hit"), "same warm entry: {next:?}");
    assert_eq!(next.field_str("code_space"), Some("proven_all"), "{next:?}");
    assert_eq!(next.field_str("verdict"), Some("proven"), "{next:?}");
    srv.shutdown();
}

#[test]
fn deadline_cancels_spin_probe_with_structured_reply() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();
    let started = Instant::now();
    let reply = c.roundtrip(&request_line(
        "spin",
        "t",
        Some(120),
        "probe",
        &[("mode", "spin".into())],
    ));
    let elapsed = started.elapsed();
    assert!(!reply.ok);
    assert_eq!(reply.error.as_deref(), Some("deadline"), "{reply:?}");
    assert!(
        elapsed < Duration::from_secs(20),
        "cancelled promptly, not at the 30s spin cap: {elapsed:?}"
    );
    srv.shutdown();
}

#[test]
fn panic_probe_is_isolated_and_counted() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();
    let boom = c.roundtrip(&request_line(
        "boom",
        "hostile",
        None,
        "probe",
        &[("mode", "panic".into())],
    ));
    assert!(!boom.ok);
    assert_eq!(boom.error.as_deref(), Some("panic"));
    assert!(
        boom.message.as_deref().unwrap().contains("deliberate panic"),
        "diagnostic carries the payload: {boom:?}"
    );

    // The process survived; real work still succeeds on the same
    // connection and on a fresh one.
    let golden = circuit_text(31);
    let ok = c.roundtrip(&request_line(
        "after",
        "hostile",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    assert!(ok.ok, "{ok:?}");
    let mut c2 = srv.connect();
    assert!(c2.roundtrip(&request_line("p", "t", None, "ping", &[])).ok);

    let summary = srv.shutdown();
    assert_eq!(summary.panics, 1);
}

#[test]
fn overload_sheds_with_structured_replies_and_recovers() {
    // One worker, queue depth one: a spin probe occupies the worker,
    // one request queues, and everything beyond that must shed.
    let srv = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let mut blocker = srv.connect();
    blocker.send_raw(&request_line(
        "block",
        "heavy",
        Some(1_500),
        "probe",
        &[("mode", "spin".into())],
    ));
    // Let the worker pick the spin probe up.
    std::thread::sleep(Duration::from_millis(300));

    let mut filler = srv.connect();
    filler.send_raw(&request_line(
        "fill",
        "heavy",
        Some(2_000),
        "probe",
        &[("mode", "spin".into())],
    ));
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = srv.connect();
    let golden = circuit_text(41);
    let rejected = shed.roundtrip(&request_line(
        "shed2",
        "light",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    assert!(!rejected.ok);
    assert_eq!(rejected.error.as_deref(), Some("overloaded"), "{rejected:?}");
    assert!(rejected.message.as_deref().unwrap().contains("queue full"));

    // Inline control ops still answer under full load.
    assert!(shed.roundtrip(&request_line("p", "light", None, "ping", &[])).ok);

    // Once the spin probes hit their deadlines, capacity returns.
    assert_eq!(blocker.read_reply().error.as_deref(), Some("deadline"));
    assert_eq!(filler.read_reply().error.as_deref(), Some("deadline"));
    let recovered = shed.roundtrip(&request_line(
        "again",
        "light",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    assert!(recovered.ok, "load shed is transient: {recovered:?}");

    let summary = srv.shutdown();
    assert!(summary.rejected >= 2);
}

#[test]
fn shutdown_drains_queued_work_before_exiting() {
    let srv = start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let addr = srv.addr.clone();
    // Occupy the single worker, queue real work behind it, then request
    // shutdown: the admitted request must still be answered (drain
    // finishes the queue before the process exits).
    let golden = circuit_text(51);
    let mut blocker = srv.connect();
    blocker.send_raw(&request_line(
        "block",
        "t",
        Some(700),
        "probe",
        &[("mode", "spin".into())],
    ));
    let mut worker_conn = srv.connect();
    worker_conn.send_raw(&request_line(
        "queued",
        "t",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    // Ensure both requests are admitted before drain closes the queue.
    std::thread::sleep(Duration::from_millis(300));
    let summary = srv.shutdown();
    assert_eq!(blocker.read_reply().error.as_deref(), Some("deadline"));
    let reply = worker_conn.read_reply();
    assert!(reply.ok, "queued work drained, not dropped: {reply:?}");
    assert_eq!(reply.field_str("verdict"), Some("proven"));
    assert!(summary.served >= 2);

    // Post-drain, the port is gone.
    assert!(TcpStream::connect(&addr).is_err());
}

/// A tiny golden circuit in BLIF, plus a mutant whose `g` output gains
/// a cover row — functionally different, so verify must refute it.
const BLIF_GOLDEN: &str = "\
.model e2e
.inputs a b c d
.outputs f g
.names a b x
11 1
.names c d y
1- 1
-1 1
.names x y f
11 1
.names x c g
10 1
.end
";

fn blif_mutant() -> String {
    BLIF_GOLDEN.replace(".names x c g\n10 1\n", ".names x c g\n10 1\n01 1\n")
}

fn verify_blif_args(golden: &str, candidate: &str) -> Vec<(&'static str, FieldValue)> {
    vec![
        ("golden_text", golden.into()),
        ("golden_format", "blif".into()),
        ("candidate_text", candidate.into()),
        ("candidate_format", "blif".into()),
    ]
}

#[test]
fn partial_frames_split_across_writes_decode_once_complete() {
    let srv = start(ServerConfig::default());
    let mut c = srv.connect();
    // One request delivered in three torn writes: nothing answers until
    // the newline lands, then exactly one reply arrives.
    let line = request_line("torn", "t", None, "ping", &[]);
    let bytes = format!("{line}\n");
    let (a, rest) = bytes.split_at(7);
    let (b, tail) = rest.split_at(rest.len() / 2);
    for piece in [a, b, tail] {
        c.stream.write_all(piece.as_bytes()).expect("torn write");
        c.stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(60));
    }
    let reply = c.read_reply();
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.id, "torn");
    srv.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    // One worker, one tenant lane: FIFO end to end, so replies come
    // back in submission order even when all requests land in a single
    // socket write.
    let srv = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut c = srv.connect();
    let golden = circuit_text(61);
    let mut burst = String::new();
    for i in 0..3 {
        burst.push_str(&request_line(
            &format!("pl{i}"),
            "t",
            None,
            "verify",
            &verify_args(&golden, &golden),
        ));
        burst.push('\n');
    }
    c.stream.write_all(burst.as_bytes()).expect("burst write");
    c.stream.flush().expect("flush");
    for i in 0..3 {
        let reply = c.read_assembled_reply();
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.id, format!("pl{i}"), "replies keep request order");
        assert_eq!(reply.field_str("verdict"), Some("proven"));
    }
    srv.shutdown();
}

#[test]
fn oversized_frame_rejected_and_connection_survives() {
    let srv = start(ServerConfig {
        max_line: 1024,
        ..ServerConfig::default()
    });
    let mut c = srv.connect();
    let huge = "x".repeat(4 * 1024);
    let e = c.roundtrip(&huge);
    assert!(!e.ok);
    assert_eq!(e.error.as_deref(), Some("bad_request"));
    assert!(
        e.message.as_deref().unwrap().contains("exceeds 1024 bytes"),
        "{e:?}"
    );
    // Framing resynchronized at the newline: the connection lives.
    let pong = c.roundtrip(&request_line("p", "t", None, "ping", &[]));
    assert!(pong.ok, "{pong:?}");
    srv.shutdown();
}

#[test]
fn streamed_reply_reassembles_and_matches_inline_payload() {
    // Force streaming on a small payload: threshold 1, 64-byte chunks.
    let streaming = start(ServerConfig {
        stream_threshold: 1,
        stream_chunk: 64,
        ..ServerConfig::default()
    });
    let base = circuit_text(12);
    let args: Vec<(&str, FieldValue)> = vec![
        ("design_text", base.as_str().into()),
        ("design_format", "v".into()),
        ("seed", 7u64.into()),
    ];
    let mut c = streaming.connect();
    c.send_raw(&request_line("s1", "t", None, "embed", &args));
    // The wire shape is chunk…chunk done, never a plain reply.
    let first = c.read_frame();
    assert!(matches!(first, Frame::Chunk { seq: 0, .. }), "{first:?}");
    let mut assembled = match first {
        Frame::Chunk { data, .. } => data,
        _ => unreachable!(),
    };
    let mut next_seq = 1u64;
    let streamed = loop {
        match c.read_frame() {
            Frame::Chunk { seq, data, .. } => {
                assert_eq!(seq, next_seq);
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
                assert_eq!(stream, "netlist");
                assert_eq!(chunks, next_seq);
                assert!(chunks >= 2, "64-byte chunks split a netlist");
                assert_eq!(bytes as usize, assembled.len());
                assert_eq!(digest, payload_digest(assembled.as_bytes()));
                break reply;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(streamed.ok);
    assert!(streamed.field_str("bits").is_some(), "scalars ride the done frame");
    streaming.shutdown();

    // The reassembled payload is byte-identical to what a non-streaming
    // server answers inline.
    let inline = start(ServerConfig::default());
    let mut c = inline.connect();
    let reply = c.roundtrip(&request_line("s2", "t", None, "embed", &args));
    assert_eq!(reply.field_str("netlist"), Some(assembled.as_str()));
    inline.shutdown();
}

#[test]
fn v1_requests_always_get_single_line_replies() {
    // Streaming is v2-only: a v1 client on a streaming-eager server
    // still receives its payload inline, version mirrored.
    let srv = start(ServerConfig {
        stream_threshold: 1,
        stream_chunk: 64,
        ..ServerConfig::default()
    });
    let mut c = srv.connect();
    let base = circuit_text(12);
    let line = format!(
        "{{\"v\":1,\"id\":\"old\",\"op\":\"embed\",\"seed\":7,\"design_format\":\"v\",\"design_text\":\"{}\"}}",
        odcfp_serve::proto::escape_json(&base)
    );
    let reply = c.roundtrip(&line);
    assert!(reply.ok, "{reply:?}");
    assert_eq!(reply.v, 1, "reply mirrors the request's version");
    assert!(
        reply.field_str("netlist").is_some(),
        "payload inline, not chunked: {reply:?}"
    );
    srv.shutdown();
}

#[test]
fn slow_reader_backpressure_never_blocks_the_worker_pool() {
    // One worker. Connection A pipelines several embeds whose chunked
    // replies it refuses to read; its outbound bytes pile up in the
    // reactor's per-connection queue. Connection B's request must still
    // be served promptly — a slow reader stalls only itself.
    let srv = start(ServerConfig {
        workers: 1,
        stream_threshold: 1,
        stream_chunk: 2048,
        ..ServerConfig::default()
    });
    let base = circuit_text(13);
    let args: Vec<(&str, FieldValue)> = vec![
        ("design_text", base.as_str().into()),
        ("design_format", "v".into()),
        ("seed", 9u64.into()),
    ];
    let mut slow = srv.connect();
    let mut burst = String::new();
    for i in 0..5 {
        burst.push_str(&request_line(&format!("slow{i}"), "a", None, "embed", &args));
        burst.push('\n');
    }
    slow.stream.write_all(burst.as_bytes()).expect("burst");
    slow.stream.flush().expect("flush");

    // While A ignores its replies, B roundtrips through the same single
    // worker. If workers blocked on A's socket this would time out.
    let mut fast = srv.connect();
    let golden = circuit_text(14);
    let started = Instant::now();
    let reply = fast.roundtrip(&request_line(
        "fast",
        "b",
        None,
        "verify",
        &verify_args(&golden, &golden),
    ));
    assert!(reply.ok, "{reply:?}");
    assert!(
        started.elapsed() < Duration::from_secs(25),
        "B served while A's replies sit queued: {:?}",
        started.elapsed()
    );

    // A's replies were queued, not dropped: all five drain with intact
    // digests once it finally reads.
    for i in 0..5 {
        let reply = slow.read_assembled_reply();
        assert!(reply.ok, "{reply:?}");
        assert_eq!(reply.id, format!("slow{i}"));
        assert!(reply.field_str("netlist").is_some());
    }
    srv.shutdown();
}

#[test]
fn concurrent_mixed_verifies_answer_per_request() {
    // Candidate mix: netlist copies (proven), a functional mutant
    // (refuted), and a fingerprint code checked against the golden's
    // code space, all against one golden, in flight at once on five
    // connections to two workers. Each runs alone and answers its own
    // verdict.
    let golden = BLIF_GOLDEN.to_owned();
    let mutant = blif_mutant();
    let srv = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    // A valid code for the golden comes from embedding with a seed.
    let bits = {
        let mut c = srv.connect();
        let reply = c.roundtrip(&request_line(
            "mint",
            "t",
            None,
            "embed",
            &[
                ("design_text", golden.as_str().into()),
                ("design_format", "blif".into()),
                ("seed", 3u64.into()),
            ],
        ));
        assert!(reply.ok, "{reply:?}");
        reply.field_str("bits").expect("bits minted").to_owned()
    };
    let requests: Vec<String> = vec![
        request_line("q0", "t0", None, "verify", &verify_blif_args(&golden, &golden)),
        request_line("q1", "t1", None, "verify", &verify_blif_args(&golden, &mutant)),
        request_line("q2", "t2", None, "verify", &verify_blif_args(&golden, &golden)),
        request_line(
            "q3",
            "t3",
            None,
            "verify",
            &[
                ("golden_text", golden.as_str().into()),
                ("golden_format", "blif".into()),
                ("candidate_bits", bits.as_str().into()),
            ],
        ),
        request_line("q4", "t4", None, "verify", &verify_blif_args(&golden, &mutant)),
    ];
    let mut conns: Vec<Client> = requests.iter().map(|_| srv.connect()).collect();
    for (c, r) in conns.iter_mut().zip(&requests) {
        c.send_raw(r);
    }
    let replies: Vec<Reply> = conns.iter_mut().map(Client::read_assembled_reply).collect();
    srv.shutdown();

    let verdicts: Vec<(&str, &str)> = replies
        .iter()
        .map(|r| (r.id.as_str(), r.field_str("verdict").unwrap_or("?")))
        .collect();
    assert_eq!(
        verdicts,
        vec![
            ("q0", "proven"),
            ("q1", "refuted"),
            ("q2", "proven"),
            ("q3", "proven"),
            ("q4", "refuted"),
        ],
        "{replies:?}"
    );
    assert!(
        replies
            .iter()
            .all(|r| r.fields.iter().all(|(k, _)| k != "batched" && k != "batch")),
        "no reply carries batch bookkeeping: {replies:?}"
    );
}

/// Resident bytes one idle connection may cost. The retired "reactor
/// holds at least 4x the connections of thread-per-connection at equal
/// memory" gate allowed a quarter of the 14,144 B a threaded server
/// measured, 3,536 B; the reactor has measured 256–448 B, and up to
/// ~1.2 KB, so the ceiling sits between.
const RSS_PER_CONN_CEILING: u64 = 2_048;

/// This process's resident set (`VmRSS`) in bytes; the server runs
/// in-process, so its connection state is counted here.
fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the connection-memory gate needs /proc/self/status (linux)");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("VmRSS line")
        .trim()
        .trim_end_matches("kB")
        .trim();
    kb.parse::<u64>().expect("VmRSS kB") * 1024
}

/// Pings over a raw socket, reading the reply into a stack buffer, so
/// a held connection allocates nothing on the client side of the wire
/// and the RSS delta belongs to the server.
fn bare_ping(stream: &mut TcpStream, id: &str) {
    let line = request_line(id, "scale", None, "ping", &[]);
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send nl");
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf).expect("read reply");
        assert!(n > 0, "server closed during ping");
        if buf[..n].contains(&b'\n') {
            return;
        }
    }
}

/// The reactor's memory claim (docs/SERVING.md §2): 64 idle, pinged
/// connections cost the in-process server at most
/// [`RSS_PER_CONN_CEILING`] resident bytes each.
#[test]
#[ignore = "reads process RSS; run in release, alone (--ignored --test-threads=1)"]
fn idle_connection_costs_at_most_2048_bytes_of_rss() {
    const CONNS: usize = 64;
    let srv = start(ServerConfig {
        workers: 1,
        max_conns: CONNS + 32,
        ..ServerConfig::default()
    });
    // Warm the allocator and the accept path, so the delta measures
    // connection state rather than first-touch arena growth.
    {
        let mut warm: Vec<TcpStream> = (0..32)
            .map(|_| TcpStream::connect(&srv.addr).expect("connect"))
            .collect();
        for (i, stream) in warm.iter_mut().enumerate() {
            bare_ping(stream, &format!("w{i}"));
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    let before = vm_rss_bytes();
    let mut held: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut stream = TcpStream::connect(&srv.addr).expect("connect");
        bare_ping(&mut stream, &format!("c{i}"));
        held.push(stream);
    }
    std::thread::sleep(Duration::from_millis(200));
    let per_conn = vm_rss_bytes().saturating_sub(before) / CONNS as u64;
    drop(held);
    srv.shutdown();
    eprintln!(
        "idle connections: {per_conn} B each over {CONNS} (ceiling {RSS_PER_CONN_CEILING} B)"
    );
    assert!(
        per_conn <= RSS_PER_CONN_CEILING,
        "connection memory: an idle connection costs {per_conn} B of resident memory \
         (ceiling {RSS_PER_CONN_CEILING} B)"
    );
}

/// Open-loop load in the `odcfp loadgen` schedule: four connections send
/// at fixed times, never gated on replies, a 3:1 ping:locations mix at
/// 300 rps for 2 s against a 600-gate design. Every request must be
/// answered without error, and the generator must reach at least half
/// its target rate.
#[test]
#[ignore = "timed gate; run in release, alone (--ignored --test-threads=1)"]
fn open_loop_load_reaches_half_its_target_rps_without_errors() {
    const TARGET_RPS: u64 = 300;
    const CONNS: u64 = 4;
    const DURATION: Duration = Duration::from_secs(2);
    let golden = write_verilog(&random_dag(
        CellLibrary::standard(),
        DagParams {
            inputs: 64,
            gates: 600,
            outputs: 32,
            window: 80,
            seed: 0x0DCF,
        },
    ));
    let srv = start(ServerConfig {
        workers: 2,
        queue_depth: 256,
        ..ServerConfig::default()
    });
    let (sent, ok, errors) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    // Ids are unique across connections, so one set tracks them all.
    let in_flight = Mutex::new(BTreeSet::new());
    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let Client {
                stream: mut tx,
                mut reader,
            } = srv.connect();
            let (golden, in_flight, sent) = (&golden, &in_flight, &sent);
            scope.spawn(move || {
                let tenant = format!("tenant-{conn}");
                let interval = Duration::from_secs(1).div_f64((TARGET_RPS / CONNS) as f64);
                let t0 = Instant::now();
                let mut next = t0;
                let mut i = 0u64;
                while t0.elapsed() < DURATION {
                    if let Some(wait) = next.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    next += interval;
                    let id = format!("tp{conn}-{i}");
                    let line = if i % 4 == 3 {
                        request_line(
                            &id,
                            &tenant,
                            None,
                            "locations",
                            &[
                                ("design_text", FieldValue::from(golden.as_str())),
                                ("design_format", "v".into()),
                            ],
                        )
                    } else {
                        request_line(&id, &tenant, None, "ping", &[])
                    };
                    in_flight.lock().expect("in-flight set lock").insert(id);
                    sent.fetch_add(1, Ordering::Relaxed);
                    tx.write_all(line.as_bytes()).expect("send");
                    tx.write_all(b"\n").expect("send nl");
                    i += 1;
                }
                // The reactor drains this connection's replies, then
                // closes it, which ends the reader below.
                tx.shutdown(std::net::Shutdown::Write).ok();
            });
            let (ok, errors) = (&ok, &errors);
            scope.spawn(move || {
                let mut line = String::new();
                while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    if let Some(reply) = Reply::parse_line(line.trim_end()) {
                        if in_flight
                            .lock()
                            .expect("in-flight set lock")
                            .remove(&reply.id)
                        {
                            let counter = if reply.ok { ok } else { errors };
                            counter.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    line.clear();
                }
            });
        }
    });
    srv.shutdown();
    let (sent, ok, errors) = (sent.into_inner(), ok.into_inner(), errors.into_inner());
    let achieved = sent as f64 / DURATION.as_secs_f64();
    eprintln!("open loop: {achieved:.0}/{TARGET_RPS} rps, {sent} sent, {ok} ok, {errors} errors");
    assert_eq!(
        ok, sent,
        "open-loop load: {ok} of {sent} requests answered ok ({errors} errors)"
    );
    assert!(
        achieved >= TARGET_RPS as f64 * 0.5,
        "open-loop rate: achieved {achieved:.0} of {TARGET_RPS} target rps (floor 50%)"
    );
}
