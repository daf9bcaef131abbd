//! End-to-end acceptance drill for `odcfp serve`: spawn the compiled
//! binary as a resident server and attack it the way a hostile day
//! would — mixed tenants, a panic probe, a deadline miss, overload,
//! SIGTERM mid-flight, SIGKILL mid-campaign — while demanding that
//! every well-formed answer stays bit-identical to the batch CLI.
//!
//! Signals are delivered with `/bin/kill`, so the whole file is
//! Unix-only (matching the CI runners).

#![cfg(unix)]

use std::fs;
use std::io::{BufRead, BufReader, Read as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::{Duration, Instant};

const BLIF: &str = "\
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

fn odcfp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_odcfp"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "odcfp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("odcfp-serve-e2e").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("workdir");
    dir
}

/// Serve traces land under `target/` (not the temp dir) so CI can
/// upload them as artifacts after a chaos run.
fn trace_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/serve-traces");
    fs::create_dir_all(&dir).expect("trace dir");
    dir
}

/// A spawned `odcfp serve` child plus its parsed listen address.
struct Serve {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    /// Spawns `odcfp serve --listen 127.0.0.1:0 --root <root> <extra>`
    /// and blocks until the parseable banner line announces the port.
    fn start(root: &Path, extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_odcfp"))
            .args(["serve", "--listen", "127.0.0.1:0", "--root"])
            .arg(root)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("banner line");
        let addr = banner
            .trim()
            .strip_prefix("odcfp serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .to_owned();
        Serve {
            child,
            addr,
            stdout,
        }
    }

    /// One synchronous `odcfp client` invocation against this server.
    fn client(&self, args: &[&str]) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_odcfp"));
        cmd.args(["client", &self.addr]).args(args);
        cmd.output().expect("client runs")
    }

    /// A concurrent client: spawned, not awaited.
    fn client_spawn(&self, args: &[&str]) -> Child {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_odcfp"));
        cmd.args(["client", &self.addr])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        cmd.spawn().expect("client spawns")
    }

    /// SIGTERM, then wait for a clean exit and return the remaining
    /// stdout (the `drained:` summary line).
    fn sigterm_and_drain(mut self) -> String {
        let pid = self.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM failed");
        let status = wait_timeout(&mut self.child, Duration::from_secs(30));
        assert_eq!(status.code(), Some(0), "drain must exit cleanly");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("stdout tail");
        rest
    }

    /// SIGKILL: the crash being drilled. No cleanup runs in the child.
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Best effort: don't leak a resident server if a test panics.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `Child::wait` with a deadline; panics (after killing) on timeout so
/// a wedged drain fails the test instead of hanging the harness.
fn wait_timeout(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("child did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Writes the mapped design fixture into `root` and returns the
/// absolute path of the Verilog file as a string.
fn design_fixture(root: &Path) -> String {
    let blif = root.join("design.blif");
    fs::write(&blif, BLIF).expect("blif fixture");
    let design_v = root.join("design.v");
    stdout_of(&odcfp(&[
        "map",
        blif.to_str().expect("utf8"),
        "-o",
        design_v.to_str().expect("utf8"),
    ]));
    design_v.to_str().expect("utf8").to_owned()
}

/// The acceptance chaos drill, part 1: parity, overload shedding,
/// fault isolation, deadline cancellation, and a graceful SIGTERM
/// drain — one server, many tenants.
#[test]
fn serve_parity_overload_isolation_and_sigterm_drain() {
    let root = workdir("chaos");
    let design_v = design_fixture(&root);

    // Reference: the batch CLI's embed of the same design and seed.
    let batch_marked = root.join("marked_batch.v");
    let batch_marked = batch_marked.to_str().expect("utf8");
    let report = stdout_of(&odcfp(&[
        "embed",
        &design_v,
        "--seed",
        "7",
        "-o",
        batch_marked,
    ]));
    let batch_bits = report
        .trim()
        .rsplit(' ')
        .next()
        .expect("bits at end of report")
        .to_owned();
    let batch_verify = odcfp(&["verify", &design_v, batch_marked]);
    assert_eq!(batch_verify.status.code(), Some(0), "batch verify proves");

    // The server runs with the cache budget below the working set
    // (0 MiB: nothing fits) and a deliberately tiny worker pool/queue
    // so overload is reachable from a handful of clients.
    let trace = trace_dir().join("serve-chaos.trace.jsonl");
    let _ = fs::remove_file(&trace);
    let srv = Serve::start(
        &root,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--cache-budget-mb",
            "0",
            "--trace-out",
            trace.to_str().expect("utf8"),
        ],
    );

    // (a) Served embed is bit-identical to the batch CLI: same bits,
    // same emitted netlist, proven verdict — and, with the budget below
    // the working set, every request degrades to a cold rebuild rather
    // than a wrong answer.
    let served_marked = root.join("marked_served.v");
    let served_marked = served_marked.to_str().expect("utf8");
    for round in 0..2 {
        let out = srv.client(&[
            "embed",
            &design_v,
            "--seed",
            "7",
            "--tenant",
            "alice",
            "-o",
            served_marked,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "round {round}: {stderr}");
        assert!(
            stdout.contains(&format!("bits={batch_bits}")),
            "round {round}: {stdout}"
        );
        assert!(stdout.contains("verdict=proven"), "round {round}: {stdout}");
        assert!(stdout.contains("cache=uncached"), "round {round}: {stdout}");
        assert_eq!(
            fs::read(batch_marked).expect("batch netlist"),
            fs::read(served_marked).expect("served netlist"),
            "round {round}: served embed must be bit-identical to batch"
        );
    }
    let out = srv.client(&["verify", &design_v, served_marked, "--tenant", "alice"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict=proven"));

    // (b) Overload: two spin probes occupy the lone worker and the
    // one-slot queue; the next request is shed with a structured
    // `overloaded` reply instead of hanging or disconnecting.
    let spin_a = srv.client_spawn(&["probe", "spin", "--tenant", "bob", "--deadline-ms", "900"]);
    std::thread::sleep(Duration::from_millis(200));
    let spin_b = srv.client_spawn(&["probe", "spin", "--tenant", "carol", "--deadline-ms", "900"]);
    std::thread::sleep(Duration::from_millis(200));
    let shed = srv.client(&["verify", &design_v, served_marked, "--tenant", "dave"]);
    let shed_err = String::from_utf8_lossy(&shed.stderr).into_owned();
    assert_eq!(shed.status.code(), Some(1), "{shed_err}");
    assert!(shed_err.contains("overloaded"), "{shed_err}");

    // (c) The deadline-miss tenants get structured `deadline` errors
    // (client maps them onto the batch `undecided` exit code 4)...
    for (name, spin) in [("bob", spin_a), ("carol", spin_b)] {
        let out = spin.wait_with_output().expect("spin client");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(4), "{name}: {stderr}");
        assert!(stderr.contains("deadline"), "{name}: {stderr}");
    }
    // ...and the panic probe is answered, counted, and isolated: the
    // process survives to serve the next tenant.
    let out = srv.client(&["probe", "panic", "--tenant", "mallory"]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("panic"), "{stderr}");

    let out = srv.client(&["ping", "--tenant", "alice"]);
    assert_eq!(out.status.code(), Some(0), "server must survive the panic");
    let out = srv.client(&["verify", &design_v, served_marked, "--tenant", "alice"]);
    assert_eq!(out.status.code(), Some(0), "still proving after the chaos");

    // Graceful drain: SIGTERM, clean exit, truthful summary.
    let drained = srv.sigterm_and_drain();
    assert!(drained.contains("odcfp serve drained:"), "{drained}");
    assert!(drained.contains("1 panics"), "{drained}");

    // The trace artifact survives the drain intact: no torn lines, and
    // both per-request and summary events present.
    let trace = odcfp_obs::read_trace(&trace).expect("trace readable");
    assert_eq!(trace.skipped_lines, 0, "drain must flush the trace cleanly");
    assert!(trace.events.iter().any(|e| e.name == "serve.request"));
    assert!(trace.events.iter().any(|e| e.name == "serve.summary"));
}

/// The campaign manifest used for the kill drill: fast jobs bracket a
/// spin probe so SIGKILL lands while work is provably in flight.
const MANIFEST: &str = "\
circuit early path:design.v
circuit slow probe:spin
circuit late path:design.v
buyers 2
seed 1234
deadline-ms 800
retries 0
";

/// `campaign.job.outcome` payload lines (replay-stable projection),
/// deduplicated to first occurrence: a resumed or chunked leg re-emits
/// journalled outcomes, so the first-occurrence order reconstructs the
/// execution order.
fn outcome_stream(path: &Path) -> Vec<String> {
    let trace = odcfp_obs::read_trace(path).expect("trace readable");
    let mut seen = std::collections::HashSet::new();
    trace
        .events
        .iter()
        .filter(|e| e.det && e.name == "campaign.job.outcome")
        .map(odcfp_obs::Event::payload_line)
        .filter(|line| seen.insert(line.clone()))
        .collect()
}

/// The acceptance chaos drill, part 2: SIGKILL the server mid-campaign,
/// restart it, resume over the protocol, and require the journal-
/// verified end state to equal an uninterrupted batch run's.
#[test]
fn serve_sigkill_restart_resumes_campaign_to_batch_identical_state() {
    let root = workdir("kill");
    design_fixture(&root);
    let manifest_path = root.join("campaign.manifest");
    fs::write(&manifest_path, MANIFEST).expect("manifest");
    let manifest_path = manifest_path.to_str().expect("utf8").to_owned();

    // Reference: the same campaign, uninterrupted, via the batch CLI.
    let traces = trace_dir();
    let ref_trace = traces.join("serve-campaign-ref.trace.jsonl");
    let _ = fs::remove_file(&ref_trace);
    let ref_out = root.join("ref");
    let ref_run = odcfp(&[
        "campaign",
        &manifest_path,
        "--out-dir",
        ref_out.to_str().expect("utf8"),
        "--trace-out",
        ref_trace.to_str().expect("utf8"),
    ]);
    assert_eq!(ref_run.status.code(), Some(6)); // spin jobs quarantine

    // Victim server: start the campaign over the protocol, then SIGKILL
    // the server once the first artifact proves a job completed.
    let victim_trace = traces.join("serve-campaign-killed.trace.jsonl");
    let _ = fs::remove_file(&victim_trace);
    let srv = Serve::start(
        &root,
        &["--trace-out", victim_trace.to_str().expect("utf8")],
    );
    let campaign_client = srv.client_spawn(&[
        "campaign",
        &manifest_path,
        "--out-dir",
        "out",
        "--tenant",
        "alice",
    ]);
    let first_artifact = root.join("out/artifacts/early_b0.v");
    let started = Instant::now();
    while !first_artifact.exists() {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "campaign never produced its first artifact"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    std::thread::sleep(Duration::from_millis(150));
    srv.sigkill();
    // The client loses its connection; it must fail, not hang.
    let out = campaign_client
        .wait_with_output()
        .expect("client observes the crash");
    assert!(!out.status.success(), "client must report the lost server");

    // The torn trace still reads back (lossy) and shows the campaign
    // was genuinely in flight when the kill landed.
    let killed = odcfp_obs::read_trace(&victim_trace).expect("killed trace readable");
    assert!(killed.events.iter().any(|e| e.name == "campaign.start"));

    // Restart and resume over the protocol. The journal carries the
    // pre-kill progress; the reply's totals must match the manifest.
    let resume_trace = traces.join("serve-campaign-resumed.trace.jsonl");
    let _ = fs::remove_file(&resume_trace);
    let srv = Serve::start(
        &root,
        &["--trace-out", resume_trace.to_str().expect("utf8")],
    );
    let out = srv.client(&[
        "campaign",
        &manifest_path,
        "--out-dir",
        "out",
        "--resume",
        "--tenant",
        "alice",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("total=6"), "{stdout}");
    assert!(stdout.contains("completed=4"), "{stdout}");
    assert!(stdout.contains("poisoned=2"), "{stdout}");
    assert!(stdout.contains("clean=false"), "{stdout}");
    let drained = srv.sigterm_and_drain();
    assert!(drained.contains("odcfp serve drained:"), "{drained}");

    // Journal verification: a batch `--resume` over the server's output
    // directory replays the journal, re-verifies every artifact digest,
    // and finds nothing left to execute.
    let resumed = odcfp(&[
        "campaign",
        &manifest_path,
        "--out-dir",
        root.join("out").to_str().expect("utf8"),
        "--resume",
    ]);
    let stderr = String::from_utf8_lossy(&resumed.stderr).into_owned();
    assert_eq!(resumed.status.code(), Some(6), "{stderr}");
    assert!(
        stderr.contains("already complete (resumed)"),
        "no job may re-execute after the served resume: {stderr}"
    );

    // Bit-identical artifacts versus the uninterrupted batch run...
    for name in ["early_b0.v", "early_b1.v", "late_b0.v", "late_b1.v"] {
        assert_eq!(
            fs::read(ref_out.join("artifacts").join(name)).expect("ref artifact"),
            fs::read(root.join("out/artifacts").join(name)).expect("served artifact"),
            "{name}"
        );
    }
    // ...and an identical replay-stable outcome stream: what the killed
    // and resumed legs journalled folds to exactly what one clean run
    // produces.
    let reference = outcome_stream(&ref_trace);
    assert!(!reference.is_empty(), "reference trace has outcomes");
    let mut served = outcome_stream(&victim_trace);
    for line in outcome_stream(&resume_trace) {
        if !served.contains(&line) {
            served.push(line);
        }
    }
    assert_eq!(
        served, reference,
        "served campaign must converge to the batch run"
    );
}

use odcfp_serve::proto::{escape_json, payload_digest, request_line, Frame, Reply};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};

/// A raw protocol connection to a spawned server, for conformance
/// checks below the `odcfp client` abstraction.
struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: &str) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    fn send(&mut self, line: &str) {
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
        self.send(line);
        self.read_reply()
    }

    fn expect_error(&mut self, line: &str, code: &str) -> Reply {
        let reply = self.roundtrip(line);
        assert!(!reply.ok, "expected {code}: {reply:?}");
        assert_eq!(reply.error.as_deref(), Some(code), "{reply:?}");
        reply
    }
}

/// PROTOCOL.md conformance against the real binary: every structured
/// error code is reachable and correctly shaped, and a chunked reply
/// reassembles with an intact digest.
#[test]
fn protocol_conformance_every_error_code_and_chunked_reply() {
    let root = workdir("conformance");
    fs::write(root.join("design.blif"), BLIF).expect("fixture");
    // Tiny pool/queue so overload is reachable; threshold 1 so every
    // netlist payload streams; an occupied path for the internal error.
    fs::write(root.join("occupied"), b"not a directory").expect("fixture");
    let srv = Serve::start(
        &root,
        &[
            "--workers",
            "1",
            "--queue-depth",
            "1",
            "--stream-threshold",
            "1",
        ],
    );
    let mut w = Wire::connect(&srv.addr);

    // bad_request — three shapes: not JSON, unknown op, missing field.
    w.expect_error("not json at all", "bad_request");
    w.expect_error(
        "{\"v\":2,\"id\":\"x\",\"op\":\"frobnicate\"}",
        "bad_request",
    );
    w.expect_error("{\"v\":2,\"id\":\"x\",\"op\":\"embed\"}", "bad_request");

    // unsupported_version — replies stamp the safe common denominator.
    let e = w.expect_error(
        "{\"v\":99,\"id\":\"x\",\"op\":\"ping\"}",
        "unsupported_version",
    );
    assert_eq!(e.v, 1, "error replies to unknown versions speak v1");

    // deadline — a spin probe cancelled by its own deadline.
    w.expect_error(
        &request_line("dl", "t", Some(150), "probe", &[("mode", "spin".into())]),
        "deadline",
    );

    // panic — isolated, answered, diagnostic preserved.
    let e = w.expect_error(
        &request_line("pp", "t", None, "probe", &[("mode", "panic".into())]),
        "panic",
    );
    assert!(
        e.message.as_deref().unwrap().contains("deliberate panic"),
        "{e:?}"
    );

    // quarantined — three attributed panics strike the circuit out;
    // the next request against it is refused without execution.
    let probe_args: Vec<(&str, odcfp_serve::proto::FieldValue)> = vec![
        ("mode", "panic".into()),
        ("design_path", "design.blif".into()),
    ];
    for i in 0..3 {
        let line = request_line(&format!("q{i}"), "t", None, "probe", &probe_args);
        let e = w.expect_error(&line, "panic");
        assert!(
            e.message
                .as_deref()
                .unwrap()
                .contains(&format!("strike {}/3", i + 1)),
            "{e:?}"
        );
    }
    let e = w.expect_error(
        &request_line(
            "q3",
            "t",
            None,
            "verify",
            &[
                ("golden_path", "design.blif".into()),
                ("candidate_path", "design.blif".into()),
            ],
        ),
        "quarantined",
    );
    assert!(
        e.message.as_deref().unwrap().contains("quarantined"),
        "{e:?}"
    );

    // internal — the campaign journal cannot land on an occupied path.
    w.expect_error(
        &request_line(
            "io",
            "t",
            None,
            "campaign",
            &[
                (
                    "manifest",
                    "circuit one path:design.blif\nbuyers 1\nseed 1\n".into(),
                ),
                ("out_dir", "occupied".into()),
            ],
        ),
        "internal",
    );

    // Chunked reply — embed streams its netlist as chunk…done; the
    // reassembled payload passes the digest in the trailer. The design
    // text rides inline so no fresh digest is touched (the path-based
    // fixture above is quarantined, the text-based one is distinct).
    let design_text = format!("{BLIF}\n");
    w.send(&request_line(
        "ch",
        "t",
        None,
        "embed",
        &[
            ("design_text", design_text.as_str().into()),
            ("design_format", "blif".into()),
            ("seed", 7u64.into()),
        ],
    ));
    let mut assembled = String::new();
    let mut chunks_seen = 0u64;
    let done = loop {
        let mut line = String::new();
        w.reader.read_line(&mut line).expect("frame");
        match Frame::parse_line(line.trim_end()).expect("parseable frame") {
            Frame::Chunk { seq, data, .. } => {
                assert_eq!(seq, chunks_seen);
                chunks_seen += 1;
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
                assert_eq!(chunks, chunks_seen);
                assert_eq!(bytes as usize, assembled.len());
                assert_eq!(digest, payload_digest(assembled.as_bytes()));
                break reply;
            }
            Frame::Reply(r) => panic!("threshold 1 must stream: {r:?}"),
        }
    };
    assert!(done.ok, "{done:?}");
    assert!(chunks_seen >= 1);
    assert!(
        done.field_str("bits").is_some(),
        "scalars ride the done frame"
    );

    // overloaded — pin the worker and fill the one-slot queue, then the
    // next queued op sheds. Separate connections so replies don't race.
    let mut pin = Wire::connect(&srv.addr);
    pin.send(&request_line(
        "pin",
        "p",
        Some(1200),
        "probe",
        &[("mode", "spin".into())],
    ));
    std::thread::sleep(Duration::from_millis(250));
    let mut fill = Wire::connect(&srv.addr);
    fill.send(&request_line(
        "fill",
        "f",
        Some(1200),
        "probe",
        &[("mode", "spin".into())],
    ));
    std::thread::sleep(Duration::from_millis(150));
    let e = w.expect_error(
        &request_line(
            "shed",
            "s",
            None,
            "embed",
            &[
                ("design_text", design_text.as_str().into()),
                ("design_format", "blif".into()),
                ("seed", 1u64.into()),
            ],
        ),
        "overloaded",
    );
    assert!(
        e.message.as_deref().unwrap().contains("queue full"),
        "{e:?}"
    );
    assert_eq!(pin.read_reply().error.as_deref(), Some("deadline"));
    assert_eq!(fill.read_reply().error.as_deref(), Some("deadline"));

    // draining — in-flight work keeps the server alive while drain
    // closes the queue; a request arriving after the transition is
    // refused with `draining` (work admitted *before* it still drains).
    let mut holder = Wire::connect(&srv.addr);
    holder.send(&request_line(
        "hold",
        "h",
        Some(1500),
        "probe",
        &[("mode", "spin".into())],
    ));
    std::thread::sleep(Duration::from_millis(250));
    let bye = w.roundtrip(&request_line("bye", "admin", None, "shutdown", &[]));
    assert!(bye.ok, "{bye:?}");
    std::thread::sleep(Duration::from_millis(250));
    let late = w.roundtrip(&request_line(
        "late",
        "t",
        None,
        "embed",
        &[
            ("design_text", design_text.as_str().into()),
            ("design_format", "blif".into()),
            ("seed", 2u64.into()),
        ],
    ));
    assert_eq!(late.error.as_deref(), Some("draining"), "{late:?}");
    assert_eq!(holder.read_reply().error.as_deref(), Some("deadline"));

    let status = wait_timeout(&mut { srv }.child, Duration::from_secs(30));
    assert_eq!(status.code(), Some(0), "shutdown drains cleanly");
}

/// Regression: a server that hangs up before completing a reply must
/// produce a structured `connection-closed` error and a nonzero exit —
/// never a hang, never a success.
#[test]
fn client_reports_connection_closed_when_server_drops_mid_reply() {
    // Scenario 1: the "server" accepts and closes without replying.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("request read");
        // Drop: connection closes with zero reply bytes.
    });
    let out = odcfp(&["client", &addr, "ping"]);
    silent.join().expect("fake server");
    assert_eq!(
        out.status.code(),
        Some(1),
        "hangup is a failure, not a hang"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("connection-closed"), "{stderr}");

    // Scenario 2: the stream dies mid-chunk — a chunk frame arrives,
    // the `done` trailer never does.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let truncating = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("request read");
        let chunk = format!(
            "{{\"v\":2,\"id\":\"cli-1\",\"ok\":true,\"frame\":\"chunk\",\"seq\":0,\"data\":\"{}\"}}\n",
            escape_json("module truncated")
        );
        stream.write_all(chunk.as_bytes()).expect("chunk write");
        stream.flush().expect("flush");
        // Drop mid-stream.
    });
    let out = odcfp(&["client", &addr, "ping"]);
    truncating.join().expect("fake server");
    assert_eq!(out.status.code(), Some(1), "truncated stream is a failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("connection-closed"), "{stderr}");
}

/// Regression: loadgen measures each latency from the request's
/// scheduled send time. The fake server dribbles its first reply out
/// over a few hundred milliseconds, which keeps loadgen's single
/// connection reading instead of sending; the requests that fell due
/// meanwhile go out late, in one burst, and are answered at once.
/// Stamped at send time they would all read as instant and hide the
/// stall; stamped at their due time they carry it.
#[test]
fn loadgen_latency_counts_a_stalled_senders_lateness() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut first = true;
        let mut line = String::new();
        while reader.read_line(&mut line).expect("request read") > 0 {
            let request = odcfp_serve::Request::parse_line(line.trim_end()).expect("request");
            let mut reply = Reply::ok(&request.id, "ping");
            if first {
                reply = reply.field("pad", "x".repeat(1200));
            }
            let mut bytes = reply.to_line().into_bytes();
            bytes.push(b'\n');
            if first {
                // Well inside loadgen's 2 ms read timeout per byte, so
                // the read never gives up until the line is complete.
                for byte in &bytes {
                    stream
                        .write_all(std::slice::from_ref(byte))
                        .expect("dribble");
                    std::thread::sleep(Duration::from_micros(200));
                }
                first = false;
            } else {
                stream.write_all(&bytes).expect("reply");
            }
            line.clear();
        }
    });
    let out = odcfp(&[
        "loadgen",
        &addr,
        "--rps",
        "100",
        "--duration-secs",
        "0.4",
        "--conns",
        "1",
        "--mix",
        "ping:1",
    ]);
    server.join().expect("fake server");
    let stdout = stdout_of(&out);
    let p90_us: u64 = stdout
        .split_whitespace()
        .find_map(|w| w.strip_prefix("p90=")?.strip_suffix("us")?.parse().ok())
        .unwrap_or_else(|| panic!("no p90 in {stdout}"));
    // More than half of the 40 requests fall due during the stall of
    // at least 240 ms; their lateness lifts p90 far above the
    // sub-millisecond replies a send-time stamp would record.
    assert!(
        p90_us >= 50_000,
        "p90 {p90_us} us hides the stall: {stdout}"
    );
}
