//! True end-to-end tests: spawn the compiled `odcfp` binary as a child
//! process and drive it through files, exactly as a user would.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join("odcfp-e2e");
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

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

#[test]
fn no_arguments_prints_usage_and_exits_nonzero() {
    let out = odcfp(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: odcfp"));
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = odcfp(&["transmogrify"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn full_designer_flow_through_files() {
    let dir = workdir();
    let blif = dir.join("e2e.blif");
    fs::write(&blif, BLIF).unwrap();
    let blif = blif.to_str().unwrap();
    let base_v = dir.join("e2e_base.v");
    let base_v = base_v.to_str().unwrap();
    let marked_v = dir.join("e2e_marked.v");
    let marked_v = marked_v.to_str().unwrap();

    // map: BLIF -> Verilog.
    stdout_of(&odcfp(&["map", blif, "-o", base_v]));
    let v = fs::read_to_string(base_v).unwrap();
    assert!(v.contains("module e2e"));

    // stats + locations on the mapped design.
    let stats = stdout_of(&odcfp(&["stats", base_v]));
    assert!(stats.contains("gates:"));
    assert!(stats.contains("circuit delay"));
    let locs = stdout_of(&odcfp(&["locations", base_v]));
    assert!(locs.contains("locations"));

    // embed with SAT verification, then extract and compare.
    let embed_report = stdout_of(&odcfp(&[
        "embed", base_v, "--seed", "5", "--verify", "sat", "-o", marked_v,
    ]));
    let embedded_bits = embed_report
        .trim()
        .rsplit(' ')
        .next()
        .expect("bits at end of report")
        .to_owned();
    let extracted = stdout_of(&odcfp(&["extract", base_v, marked_v]));
    assert_eq!(extracted.trim(), embedded_bits);

    // report renders markdown.
    let report = stdout_of(&odcfp(&["report", base_v]));
    assert!(report.contains("# Design report"));

    // constrain respects the budget and writes a netlist.
    let constrained_v = dir.join("e2e_con.v");
    let constrained_v = constrained_v.to_str().unwrap();
    let con = stdout_of(&odcfp(&[
        "constrain",
        base_v,
        "--delay-pct",
        "10",
        "-o",
        constrained_v,
    ]));
    assert!(con.contains("kept"));
    assert!(fs::read_to_string(constrained_v)
        .unwrap()
        .contains("module"));

    // optimize is a no-op on a constant-free design but must succeed.
    let opt = stdout_of(&odcfp(&["optimize", base_v]));
    assert!(opt.contains("-> "));
}

#[test]
fn benchmark_generation_and_dot() {
    let dir = workdir();
    let v = dir.join("c432_e2e.v");
    let v = v.to_str().unwrap();
    stdout_of(&odcfp(&["bench", "c432", "-o", v]));
    assert!(fs::read_to_string(v).unwrap().contains("module c432"));
    let dot = stdout_of(&odcfp(&["dot", v]));
    assert!(dot.starts_with("digraph"));
}

#[test]
fn missing_file_reports_error() {
    let out = odcfp(&["stats", "/nonexistent/x.v"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Asserts a clean failure: the requested exit code, a formatted `error:`
/// message, and no panic / backtrace leaking to the user.
fn assert_clean_failure(args: &[&str], want_code: i32) {
    let out = odcfp(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(want_code), "{args:?}: {stderr}");
    assert!(
        stderr.contains("error:") || stderr.contains("usage:"),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{args:?}: {stderr}");
}

#[test]
fn malformed_input_corpus_fails_cleanly() {
    let dir = workdir();
    let truncated = dir.join("corpus_trunc.blif");
    fs::write(&truncated, &BLIF[..BLIF.len() / 2]).unwrap();
    let truncated = truncated.to_str().unwrap();
    let bad_genlib = dir.join("corpus_bad.genlib");
    fs::write(&bad_genlib, "GATE\nnot a genlib\n").unwrap();
    let bad_genlib = bad_genlib.to_str().unwrap();
    let good = dir.join("corpus_good.blif");
    fs::write(&good, BLIF).unwrap();
    let good = good.to_str().unwrap();

    assert_clean_failure(&["stats", truncated], 1);
    assert_clean_failure(&["stats", "/nonexistent/x.blif"], 1);
    assert_clean_failure(&["stats", good, "--genlib", bad_genlib], 1);
    assert_clean_failure(&["embed", good, "--bits", "0101"], 1); // length mismatch
    assert_clean_failure(&["embed", good, "--bits", "01x"], 2);
    assert_clean_failure(&["embed", good], 2);
    assert_clean_failure(&["verify", good], 2);
    assert_clean_failure(&["verify", good, good, "--verify-timeout", "oops"], 2);
    assert_clean_failure(&["transmogrify"], 2);
}

/// The adversarial fixture corpus, driven through the binary: every
/// entry must exit 1 with a formatted `error:` line — the API-level twin
/// lives in `tests/malformed_corpus.rs`.
#[test]
fn adversarial_fixture_corpus_fails_cleanly_via_cli() {
    const GOOD_V: &str =
        "module m (a, y);\ninput a;\noutput y;\nINV u1 (.A(a), .Y(y));\nendmodule\n";
    let fixtures: Vec<(&str, String)> = vec![
        (
            "cut.blif", // truncated mid-cube
            ".model t\n.inputs a b\n.outputs y\n.names a b y\n11".into(),
        ),
        (
            "cycle.blif", // combinational cycle through x/y
            ".model c\n.inputs a\n.outputs y\n.names a x y\n11 1\n.names y x\n1 1\n.end\n".into(),
        ),
        (
            "dupmodel.blif",
            ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n\
             .model m\n.inputs b\n.outputs z\n.names b z\n1 1\n.end\n"
                .into(),
        ),
        (
            "nul.blif", // NUL byte inside a cover row
            ".model n\n.inputs a\n.outputs y\n.names a y\n1\u{0} 1\n.end\n".into(),
        ),
        (
            "latch.blif",
            ".model l\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n".into(),
        ),
        (
            "undriven.blif",
            ".model u\n.inputs a\n.outputs y z\n.names a y\n1 1\n.end\n".into(),
        ),
        (
            "longline.blif", // multi-megabyte single line (100 MB twin in the API corpus)
            format!(
                ".model big\n.inputs a\n.outputs y\n.names a y\n{} 1\n.end\n",
                "1".repeat(4 * 1024 * 1024)
            ),
        ),
        (
            "comment.v", // unterminated block comment
            "module m (a, y); input a; output y; /* oops".into(),
        ),
        (
            "twomods.v", // concatenated modules must not half-parse
            format!("{GOOD_V}module m2 (b, z);\ninput b;\noutput z;\nINV u2 (.A(b), .Y(z));\nendmodule\n"),
        ),
        (
            "cutinst.v", // truncated mid-instance
            "module m (a, y); input a; output y; INV u1 (.A(a), .Y".into(),
        ),
        (
            "twodrivers.v",
            "module m (a, y); input a; output y; INV u1 (.A(a), .Y(y)); \
             INV u2 (.A(a), .Y(y)); endmodule"
                .into(),
        ),
    ];
    let dir = workdir().join("adversarial");
    fs::create_dir_all(&dir).expect("corpus dir");
    for (name, src) in fixtures {
        let path = dir.join(name);
        fs::write(&path, src).expect("fixture write");
        assert_clean_failure(&["stats", path.to_str().expect("utf8")], 1);
    }
}

#[test]
fn verify_exit_codes_by_verdict() {
    let dir = workdir();
    let golden = dir.join("verdict_a.blif");
    fs::write(&golden, BLIF).unwrap();
    let golden = golden.to_str().unwrap();
    // g gains an extra cover row: differs whenever x=0, c=1.
    let different = dir.join("verdict_b.blif");
    fs::write(
        &different,
        BLIF.replace(".names x c g\n10 1\n", ".names x c g\n10 1\n01 1\n"),
    )
    .unwrap();
    let different = different.to_str().unwrap();

    // Equivalent (identical sources): proven, exit 0.
    let out = odcfp(&["verify", golden, golden]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("proven equivalent"));

    // Function changed: refuted, exit 3, concrete counterexample shown.
    let out = odcfp(&["verify", golden, different]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stdout).contains("refuted"));

    // A design too wide for exhaustive proof plus an expired deadline:
    // the ladder degrades to undecided, exit 4 — never a false claim.
    let big = dir.join("verdict_c432.v");
    let big = big.to_str().unwrap();
    stdout_of(&odcfp(&["bench", "c432", "-o", big]));
    let out = odcfp(&["verify", big, big, "--verify-timeout", "0"]);
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("undecided"));
}

/// The work the sweep does on a fingerprinted copy, pinned: the `--stats`
/// counter lines of `verify` on the des and c6288 copies (`bench` +
/// `embed --seed 3`). Any change to node creation order, canonical keys,
/// use-list order or window compilation moves at least one of them. The
/// counters are sequential, so they hold at every `ODCFP_THREADS`.
#[test]
fn verify_stats_pin_sweep_and_solver_work_counters() {
    let pinned: [(&str, [&str; 3]); 2] = [
        (
            "des",
            [
                "sweep: strash-proven=0 cut-points proven=481 simulated=462 refuted=0 skipped=0",
                "solver: conflicts=93 decisions=1099 propagations=11606 restarts=0 learnt=6252",
                "heuristics: avg-lbd=2.30 db-reductions=0 learnt-deleted=0 rephases=0",
            ],
        ),
        (
            "c6288",
            [
                "sweep: strash-proven=2 cut-points proven=368 simulated=336 refuted=1 skipped=0",
                "solver: conflicts=607 decisions=3156 propagations=198560 restarts=3 learnt=7611",
                "heuristics: avg-lbd=7.98 db-reductions=3 learnt-deleted=204 rephases=0",
            ],
        ),
    ];
    let dir = workdir();
    for (circuit, lines) in pinned {
        let golden = dir.join(format!("pinned_{circuit}.v"));
        let copy = dir.join(format!("pinned_{circuit}_fp.v"));
        let (golden, copy) = (golden.to_str().unwrap(), copy.to_str().unwrap());
        stdout_of(&odcfp(&["bench", circuit, "-o", golden]));
        stdout_of(&odcfp(&["embed", golden, "--seed", "3", "-o", copy]));
        let text = stdout_of(&odcfp(&["verify", golden, copy, "--stats"]));
        assert!(text.contains("proven equivalent"), "{circuit}: {text}");
        for line in lines {
            assert!(
                text.lines().any(|l| l == line),
                "{circuit}: expected line\n  {line}\nin\n{text}"
            );
        }
    }
}

#[test]
fn broken_stdout_pipe_exits_cleanly() {
    use std::io::Read;
    use std::process::Stdio;
    // c6288 renders to ~230 KB — far past the OS pipe buffer, so the
    // child's stdout writes hit EPIPE once we close our end early.
    let mut child = Command::new(env!("CARGO_BIN_EXE_odcfp"))
        .args(["bench", "c6288"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut head = [0u8; 512];
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_exact(&mut head)
        .expect("read a prefix");
    // Dropping the handle above closed the read end; the child must wind
    // down like `odcfp ... | head`: exit 0, no error, no panic.
    let out = child.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("error:"), "{stderr}");
}

/// Writes the standard campaign fixture into `dir`: a mapped design plus
/// a manifest, returning the manifest path.
fn campaign_fixture(dir: &std::path::Path, manifest: &str) -> String {
    fs::create_dir_all(dir).expect("fixture dir");
    let blif = dir.join("design.blif");
    fs::write(&blif, BLIF).expect("blif");
    let base_v = dir.join("design.v");
    stdout_of(&odcfp(&[
        "map",
        blif.to_str().expect("utf8"),
        "-o",
        base_v.to_str().expect("utf8"),
    ]));
    let path = dir.join("campaign.manifest");
    fs::write(&path, manifest).expect("manifest");
    path.to_str().expect("utf8").to_owned()
}

#[test]
fn campaign_end_to_end_with_resume_and_quarantine() {
    let dir = workdir().join("campaign-e2e");
    let _ = fs::remove_dir_all(&dir);
    let manifest = campaign_fixture(
        &dir,
        "circuit good path:design.v\ncircuit bomb probe:panic\nbuyers 2\nseed 9\nretries 0\n",
    );
    let out_dir = dir.join("out");
    let out_dir = out_dir.to_str().expect("utf8");

    // A campaign with a poisoned circuit completes its healthy jobs and
    // exits with the dedicated code 6.
    let out = odcfp(&["campaign", &manifest, "--out-dir", out_dir]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(6), "{stderr}");
    assert!(stdout.contains("4 jobs"), "{stdout}");
    assert!(stdout.contains("2 completed"), "{stdout}");
    assert!(stdout.contains("poisoned bomb#0"), "{stdout}");
    assert!(stderr.contains("QUARANTINED"), "{stderr}");
    for buyer in 0..2 {
        assert!(dir.join(format!("out/artifacts/good_b{buyer}.v")).exists());
    }

    // Re-running without --resume must refuse to clobber the journal.
    let out = odcfp(&["campaign", &manifest, "--out-dir", out_dir]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume"));

    // Resume skips completed jobs and keeps the quarantine.
    let out = odcfp(&["campaign", &manifest, "--out-dir", out_dir, "--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(6), "{stderr}");
    assert!(stderr.contains("already complete (resumed)"), "{stderr}");
    assert!(stderr.contains("quarantined by a previous run"), "{stderr}");
}

/// Traces from the kill-and-resume drill land here (not in the temp
/// dir) so CI can upload them as artifacts.
fn trace_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/e2e-traces");
    fs::create_dir_all(&dir).expect("trace dir");
    dir
}

/// The replay-stable projection of a trace: `campaign.job.outcome` and
/// `campaign.summary` payload lines, in emission order. A resumed leg
/// re-emits journalled outcomes for the jobs it skips, so this stream
/// must equal an uninterrupted run's byte for byte.
fn replay_stable_payload(path: &std::path::Path) -> Vec<String> {
    let trace = odcfp_obs::read_trace(path).expect("trace readable");
    trace
        .events
        .iter()
        .filter(|e| e.det && matches!(e.name.as_str(), "campaign.job.outcome" | "campaign.summary"))
        .map(odcfp_obs::Event::payload_line)
        .collect()
}

/// The crash-safety drill: SIGKILL a campaign mid-run, resume it, and
/// require the final state to be bit-identical to an uninterrupted run —
/// with the jobs finished before the kill *not* re-executed.
#[test]
fn campaign_kill_and_resume_matches_uninterrupted_run() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // The spin probe (800 ms deadline) sits mid-list so the kill lands
    // while a job is provably in-flight; fast jobs bracket it.
    const MANIFEST: &str = "\
circuit early path:design.v
circuit slow probe:spin
circuit late path:design.v
buyers 2
seed 1234
deadline-ms 800
retries 0
";
    let dir = workdir().join("campaign-kill");
    let _ = fs::remove_dir_all(&dir);
    let manifest = campaign_fixture(&dir, MANIFEST);

    // Reference: the same campaign, uninterrupted, traced.
    let traces = trace_dir();
    let ref_trace = traces.join("campaign-ref.trace.jsonl");
    let ref_out = dir.join("ref");
    let ref_run = odcfp(&[
        "campaign",
        &manifest,
        "--out-dir",
        ref_out.to_str().expect("utf8"),
        "--trace-out",
        ref_trace.to_str().expect("utf8"),
    ]);
    assert_eq!(ref_run.status.code(), Some(6)); // spin jobs quarantine

    // Victim: kill once the first job has completed (the spin probe is
    // then running or about to). Its trace may end mid-line — reading
    // it back must tolerate the tear.
    let victim_trace = traces.join("campaign-killed.trace.jsonl");
    let victim_out = dir.join("victim");
    let mut child = Command::new(env!("CARGO_BIN_EXE_odcfp"))
        .args([
            "campaign",
            &manifest,
            "--out-dir",
            victim_out.to_str().expect("utf8"),
            "--trace-out",
            victim_trace.to_str().expect("utf8"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn victim");
    let mut lines = BufReader::new(child.stderr.take().expect("stderr piped")).lines();
    let first = loop {
        let line = lines.next().expect("stderr open").expect("stderr line");
        if line.contains(" ms)") {
            break line;
        }
    };
    assert!(
        first.contains("job early#0"),
        "unexpected first completion: {first}"
    );
    std::thread::sleep(std::time::Duration::from_millis(150));
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Resume (with its own trace) and require convergence with the
    // reference run.
    let resume_trace = traces.join("campaign-resumed.trace.jsonl");
    let _ = fs::remove_file(&resume_trace);
    let resumed = odcfp(&[
        "campaign",
        &manifest,
        "--out-dir",
        victim_out.to_str().expect("utf8"),
        "--resume",
        "--trace-out",
        resume_trace.to_str().expect("utf8"),
    ]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(6), "{stderr}");
    assert!(
        stderr.contains("already complete (resumed)"),
        "pre-kill jobs must not re-execute: {stderr}"
    );

    // Same summary (same totals, verdicts, quarantine set)...
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout)
            .lines()
            .filter(|l| !l.contains("poisoned slow#")) // diagnostics embed timings
            .map(|l| l.split(" (").next().expect("prefix").to_owned())
            .collect::<Vec<_>>(),
        String::from_utf8_lossy(&ref_run.stdout)
            .lines()
            .filter(|l| !l.contains("poisoned slow#"))
            .map(|l| l.split(" (").next().expect("prefix").to_owned())
            .collect::<Vec<_>>(),
    );
    // ...and bit-identical artifacts.
    for name in ["early_b0.v", "early_b1.v", "late_b0.v", "late_b1.v"] {
        assert_eq!(
            fs::read(ref_out.join("artifacts").join(name)).expect("ref artifact"),
            fs::read(victim_out.join("artifacts").join(name)).expect("resumed artifact"),
            "{name}"
        );
    }

    // The killed leg's trace reads back (tolerating a torn tail) and
    // records at least the campaign start.
    let killed = odcfp_obs::read_trace(&victim_trace).expect("killed trace readable");
    assert!(
        killed.events.iter().any(|e| e.name == "campaign.start"),
        "killed trace records the start"
    );

    // Replay stability: the resumed leg's outcome/summary payload equals
    // the uninterrupted run's exactly (timestamps excluded by design).
    let reference = replay_stable_payload(&ref_trace);
    assert!(
        reference.iter().any(|l| l.contains("campaign.job.outcome")),
        "reference trace has outcomes:\n{}",
        reference.join("\n")
    );
    assert_eq!(
        replay_stable_payload(&resume_trace),
        reference,
        "resumed trace must replay the uninterrupted outcome stream"
    );
}

/// Population-scale crash drill for delta artifact mode: SIGKILL a
/// 20 000-buyer codebook campaign between durable windows, resume it,
/// and require the final codebook, golden artifact, and summary to be
/// bit-identical to an uninterrupted run's. This is the satellite
/// regression for the window journal (`bstart`/`bdone` + codebook
/// truncate-to-offset): pre-kill windows must not re-execute, the torn
/// window must re-mint deterministically, and nothing downstream can
/// tell the difference.
#[test]
fn campaign_delta_kill_and_resume_at_scale() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    const MANIFEST: &str = "\
circuit pop path:design.v
buyers 20000
seed 77
retries 0
verify strict
artifacts delta
window 128
";
    let dir = workdir().join("campaign-delta-kill");
    let _ = fs::remove_dir_all(&dir);
    let manifest = campaign_fixture(&dir, MANIFEST);

    // Reference: uninterrupted.
    let ref_out = dir.join("ref");
    let ref_run = odcfp(&[
        "campaign",
        &manifest,
        "--out-dir",
        ref_out.to_str().expect("utf8"),
    ]);
    let ref_stderr = String::from_utf8_lossy(&ref_run.stderr);
    assert_eq!(ref_run.status.code(), Some(0), "{ref_stderr}");
    assert!(
        ref_stderr.contains("code space proven (") && ref_stderr.contains(" local obligations, "),
        "delta campaign must batch-verify: {ref_stderr}"
    );
    let codebook = "codebook.pop.jsonl";
    let golden = "artifacts/pop.golden.v";
    assert!(ref_out.join(codebook).exists());
    assert!(ref_out.join(golden).exists());
    // One codebook, no per-buyer artifact files.
    assert!(!ref_out.join("artifacts/pop_b0.v").exists());

    // Victim: kill after the first durable window (well before the last
    // of the ~39 windows on a single-threaded runner).
    let victim_out = dir.join("victim");
    let mut child = Command::new(env!("CARGO_BIN_EXE_odcfp"))
        .args([
            "campaign",
            &manifest,
            "--out-dir",
            victim_out.to_str().expect("utf8"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn victim");
    let mut lines = BufReader::new(child.stderr.take().expect("stderr piped")).lines();
    loop {
        let line = lines.next().expect("stderr open").expect("stderr line");
        if line.contains("durable") {
            break;
        }
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // The kill must land mid-campaign: with ~155 windows of runway
    // after the first durable line, the victim's codebook is still
    // short of the reference when the SIGKILL arrives.
    let torn_len = fs::metadata(victim_out.join("codebook.pop.jsonl"))
        .expect("victim codebook")
        .len();
    let ref_len = fs::metadata(ref_out.join(codebook))
        .expect("ref codebook")
        .len();
    assert!(
        torn_len < ref_len,
        "SIGKILL landed after completion ({torn_len} >= {ref_len} bytes); \
         shrink the window size to restore the drill"
    );

    // Resume and require convergence.
    let resumed = odcfp(&[
        "campaign",
        &manifest,
        "--out-dir",
        victim_out.to_str().expect("utf8"),
        "--resume",
    ]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout)
            .lines()
            .map(|l| l.split(" (").next().expect("prefix").to_owned())
            .collect::<Vec<_>>(),
        String::from_utf8_lossy(&ref_run.stdout)
            .lines()
            .map(|l| l.split(" (").next().expect("prefix").to_owned())
            .collect::<Vec<_>>(),
        "resumed summary must match the uninterrupted run"
    );
    for name in [codebook, golden] {
        assert_eq!(
            fs::read(ref_out.join(name)).expect("ref file"),
            fs::read(victim_out.join(name)).expect("resumed file"),
            "{name} must be bit-identical after kill + resume"
        );
    }
}

#[test]
fn embed_respects_verify_budget_flags() {
    let dir = workdir();
    let blif = dir.join("budget.blif");
    fs::write(&blif, BLIF).unwrap();
    let blif = blif.to_str().unwrap();
    // A generous budget verifies fine (small design: exhaustive proof).
    let out = odcfp(&[
        "embed",
        blif,
        "--seed",
        "3",
        "--verify",
        "sat",
        "--verify-budget",
        "100000",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("embedded"));
}
