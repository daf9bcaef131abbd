//! The campaign write-ahead journal: `campaign.journal.jsonl`.
//!
//! Every state transition of a campaign — start, job start, job done,
//! attempt failed, job quarantined — is appended as one JSON line
//! *before* the runner acts on it (write-ahead), fsynced, and protected
//! by a checksum so a resume can trust what it replays:
//!
//! ```text
//! {"crc":"85944171f73967e8","t":"done","job":"c432#3",...}
//! ```
//!
//! `crc` is the FNV-1a 64 digest of every byte after the `"crc":"…",`
//! prefix (i.e. of `"t":"done",...}`). A line whose checksum fails — the
//! classic torn final line of a SIGKILLed process, or later bit rot — is
//! treated as absent: the job it described re-runs, which is always
//! safe, never wrong. Records are flat (string and integer fields only)
//! so the parser stays small enough to audit.
//!
//! Replay folds lines in order into a [`JournalState`]; later records
//! win, so a resumed campaign simply keeps appending to the same file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use odcfp_netlist::{Digest, Digest128};

/// The journal file name inside a campaign output directory.
pub const JOURNAL_FILE: &str = "campaign.journal.jsonl";

/// One journal record. Field names are kept short — journals are written
/// once per job attempt and read back whole on every resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A campaign (or a resumed leg of one) began.
    Start {
        /// Digest of the manifest text, so a resume refuses to mix
        /// incompatible job lists into one journal.
        manifest: Digest,
        /// Total number of jobs the manifest expands to.
        jobs: u64,
    },
    /// A job attempt was claimed (write-ahead: logged before work).
    JobStart {
        /// Job id, `"{circuit}#{buyer}"`.
        job: String,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A job completed; its artifact is on disk under the recorded
    /// digest.
    JobDone {
        /// Job id.
        job: String,
        /// Attempt that succeeded.
        attempt: u32,
        /// Verdict short name (`proven` / `probable` / `undecided`).
        verdict: String,
        /// Artifact path relative to the output directory.
        artifact: String,
        /// Content digest of the artifact file bytes.
        digest: Digest,
        /// The embedded bit string (`0`/`1` per location).
        bits: String,
        /// Wall-clock milliseconds the successful attempt took.
        millis: u64,
    },
    /// A job attempt failed and will be retried (or poisoned).
    JobFailed {
        /// Job id.
        job: String,
        /// The attempt that failed.
        attempt: u32,
        /// What happened, formatted for humans.
        error: String,
    },
    /// A job exhausted its retry budget and is quarantined.
    JobPoisoned {
        /// Job id.
        job: String,
        /// Attempts consumed.
        attempts: u32,
        /// Structured diagnostic: panic payload, timeout, or error chain.
        diagnostic: String,
    },
    /// Delta mode: the golden artifact for a circuit is on disk.
    Golden {
        /// Circuit name.
        circuit: String,
        /// Golden artifact path relative to the output directory.
        artifact: String,
        /// 128-bit identity digest of the golden artifact bytes.
        digest: Digest128,
        /// Number of fingerprint locations (code length).
        locations: u64,
    },
    /// Delta mode, write-ahead: a window of buyers `[from, to)` is about
    /// to be minted; `offset` is the codebook byte length before it, the
    /// truncation point if the window never completes.
    BatchStart {
        /// Circuit name.
        circuit: String,
        /// First buyer of the window (inclusive).
        from: u64,
        /// One past the last buyer of the window.
        to: u64,
        /// Codebook byte offset at window start.
        offset: u64,
    },
    /// Delta mode: a window of buyers `[from, to)` is fully minted and
    /// its code records are fsynced in the codebook up to `offset`.
    ///
    /// One line stands in for up to a whole window of per-job records —
    /// this is what keeps a million-buyer journal replayable in seconds.
    BatchDone {
        /// Circuit name.
        circuit: String,
        /// First buyer of the window (inclusive).
        from: u64,
        /// One past the last buyer of the window.
        to: u64,
        /// Codebook byte length after the window's records.
        offset: u64,
        /// Verdict histogram, `"proven:1024"` style.
        verdicts: String,
    },
}

impl Record {
    /// The flat `"key":value,...}` body this record serializes to (the
    /// part the checksum covers).
    fn body(&self) -> String {
        let mut b = String::new();
        let push_str = |b: &mut String, k: &str, v: &str| {
            let _ = write!(b, "\"{k}\":\"{}\",", escape_json(v));
        };
        match self {
            Record::Start { manifest, jobs } => {
                push_str(&mut b, "t", "start");
                push_str(&mut b, "manifest", &manifest.to_string());
                let _ = write!(b, "\"jobs\":{jobs},");
            }
            Record::JobStart { job, attempt } => {
                push_str(&mut b, "t", "jstart");
                push_str(&mut b, "job", job);
                let _ = write!(b, "\"attempt\":{attempt},");
            }
            Record::JobDone {
                job,
                attempt,
                verdict,
                artifact,
                digest,
                bits,
                millis,
            } => {
                push_str(&mut b, "t", "done");
                push_str(&mut b, "job", job);
                let _ = write!(b, "\"attempt\":{attempt},");
                push_str(&mut b, "verdict", verdict);
                push_str(&mut b, "artifact", artifact);
                push_str(&mut b, "digest", &digest.to_string());
                push_str(&mut b, "bits", bits);
                let _ = write!(b, "\"millis\":{millis},");
            }
            Record::JobFailed {
                job,
                attempt,
                error,
            } => {
                push_str(&mut b, "t", "fail");
                push_str(&mut b, "job", job);
                let _ = write!(b, "\"attempt\":{attempt},");
                push_str(&mut b, "error", error);
            }
            Record::JobPoisoned {
                job,
                attempts,
                diagnostic,
            } => {
                push_str(&mut b, "t", "poison");
                push_str(&mut b, "job", job);
                let _ = write!(b, "\"attempts\":{attempts},");
                push_str(&mut b, "diagnostic", diagnostic);
            }
            Record::Golden {
                circuit,
                artifact,
                digest,
                locations,
            } => {
                push_str(&mut b, "t", "golden");
                push_str(&mut b, "circuit", circuit);
                push_str(&mut b, "artifact", artifact);
                push_str(&mut b, "digest", &digest.to_string());
                let _ = write!(b, "\"locations\":{locations},");
            }
            Record::BatchStart {
                circuit,
                from,
                to,
                offset,
            } => {
                push_str(&mut b, "t", "bstart");
                push_str(&mut b, "circuit", circuit);
                let _ = write!(b, "\"from\":{from},\"to\":{to},\"offset\":{offset},");
            }
            Record::BatchDone {
                circuit,
                from,
                to,
                offset,
                verdicts,
            } => {
                push_str(&mut b, "t", "bdone");
                push_str(&mut b, "circuit", circuit);
                let _ = write!(b, "\"from\":{from},\"to\":{to},\"offset\":{offset},");
                push_str(&mut b, "verdicts", verdicts);
            }
        }
        // Replace the trailing comma with the closing brace.
        b.pop();
        b.push('}');
        b
    }

    /// Serializes to a full journal line (without the newline).
    pub fn to_line(&self) -> String {
        let body = self.body();
        format!(
            "{{\"crc\":\"{:016x}\",{body}",
            Digest::of(body.as_bytes()).0
        )
    }

    /// Parses one journal line; `None` for any malformed, truncated, or
    /// checksum-failing input (the caller treats such lines as absent).
    pub fn parse_line(line: &str) -> Option<Record> {
        let rest = line.trim_end().strip_prefix("{\"crc\":\"")?;
        let (crc_hex, body) = (rest.get(..16)?, rest.get(16..)?.strip_prefix("\",")?);
        let crc = u64::from_str_radix(crc_hex, 16).ok()?;
        if Digest::of(body.as_bytes()).0 != crc {
            return None;
        }
        let fields = parse_flat_fields(body)?;
        let get = |k: &str| fields.get(k).map(String::as_str);
        let get_u64 = |k: &str| get(k).and_then(|v| v.parse::<u64>().ok());
        let get_u32 = |k: &str| get(k).and_then(|v| v.parse::<u32>().ok());
        match get("t")? {
            "start" => Some(Record::Start {
                manifest: Digest::parse(get("manifest")?)?,
                jobs: get_u64("jobs")?,
            }),
            "jstart" => Some(Record::JobStart {
                job: get("job")?.to_owned(),
                attempt: get_u32("attempt")?,
            }),
            "done" => Some(Record::JobDone {
                job: get("job")?.to_owned(),
                attempt: get_u32("attempt")?,
                verdict: get("verdict")?.to_owned(),
                artifact: get("artifact")?.to_owned(),
                digest: Digest::parse(get("digest")?)?,
                bits: get("bits")?.to_owned(),
                millis: get_u64("millis")?,
            }),
            "fail" => Some(Record::JobFailed {
                job: get("job")?.to_owned(),
                attempt: get_u32("attempt")?,
                error: get("error")?.to_owned(),
            }),
            "poison" => Some(Record::JobPoisoned {
                job: get("job")?.to_owned(),
                attempts: get_u32("attempts")?,
                diagnostic: get("diagnostic")?.to_owned(),
            }),
            "golden" => Some(Record::Golden {
                circuit: get("circuit")?.to_owned(),
                artifact: get("artifact")?.to_owned(),
                digest: Digest128::parse(get("digest")?)?,
                locations: get_u64("locations")?,
            }),
            "bstart" => Some(Record::BatchStart {
                circuit: get("circuit")?.to_owned(),
                from: get_u64("from")?,
                to: get_u64("to")?,
                offset: get_u64("offset")?,
            }),
            "bdone" => Some(Record::BatchDone {
                circuit: get("circuit")?.to_owned(),
                from: get_u64("from")?,
                to: get_u64("to")?,
                offset: get_u64("offset")?,
                verdicts: get("verdicts")?.to_owned(),
            }),
            _ => None,
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
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

/// Parses the flat `"key":value,...}` body of a record: values are JSON
/// strings or unsigned integers (returned as their text). Rejects
/// anything else — nested values, duplicate keys, trailing garbage.
pub(crate) fn parse_flat_fields(body: &str) -> Option<BTreeMap<String, String>> {
    let mut fields = BTreeMap::new();
    let mut rest = body;
    loop {
        let (key, after) = parse_json_string(rest)?;
        rest = after.strip_prefix(':')?;
        let (value, after) = if rest.starts_with('"') {
            parse_json_string(rest)?
        } else {
            let end = rest.find(|c: char| !c.is_ascii_digit())?;
            if end == 0 {
                return None;
            }
            (rest[..end].to_owned(), &rest[end..])
        };
        if fields.insert(key, value).is_some() {
            return None;
        }
        match after.strip_prefix(',') {
            Some(r) => rest = r,
            None => return (after == "}").then_some(fields),
        }
    }
}

/// Parses one JSON string literal at the start of `s`; returns the
/// decoded value and the remainder after the closing quote.
fn parse_json_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let inner = &s[1..];
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &inner[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// An append-only journal handle; every [`Journal::append`] is flushed
/// and fsynced before returning, so an acknowledged record survives a
/// SIGKILL in the very next instruction.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal inside `out_dir` for
    /// appending.
    pub fn open(out_dir: &Path) -> std::io::Result<Journal> {
        let path = out_dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { file, path })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one checksummed record and fsyncs.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let mut line = record.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// What a job is known to be, after replaying the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Completed; the artifact (relative path) should exist under the
    /// recorded digest.
    Done {
        /// Verdict short name from the done record.
        verdict: String,
        /// Artifact path relative to the output directory.
        artifact: String,
        /// Recorded artifact digest.
        digest: Digest,
        /// The embedded bit string.
        bits: String,
    },
    /// Quarantined with a diagnostic; not retried on resume.
    Poisoned {
        /// The recorded diagnostic.
        diagnostic: String,
    },
    /// Started (possibly failed some attempts) but never finished — the
    /// in-flight state a crash leaves behind; re-run on resume.
    InFlight,
}

/// What a circuit's golden artifact is known to be (delta mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenState {
    /// Golden artifact path relative to the output directory.
    pub artifact: String,
    /// 128-bit identity digest of the golden artifact bytes.
    pub digest: Digest128,
    /// Number of fingerprint locations (code length).
    pub locations: u64,
}

/// Delta-mode minting progress of one circuit, folded from batch records.
///
/// Windows are minted in order, so progress is a single watermark: buyers
/// `[0, done)` are safely in the codebook up to byte `offset`. A
/// `BatchStart` without a matching `BatchDone` is the in-flight window a
/// crash left behind; resume truncates the codebook to its recorded
/// offset and re-mints it (deterministically, so the result is
/// bit-identical to an uninterrupted run).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchState {
    /// Buyers `[0, done)` are durably minted.
    pub done: u64,
    /// Codebook byte length covering those buyers.
    pub offset: u64,
    /// Unfinished window: `(from, codebook offset at its start)`.
    pub in_flight: Option<(u64, u64)>,
    /// Accumulated verdict histogram.
    pub verdicts: BTreeMap<String, u64>,
}

/// The fold of a journal: last-writer-wins state per job, plus
/// bookkeeping replay statistics.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Manifest digest from the most recent start record.
    pub manifest: Option<Digest>,
    /// Total jobs from the most recent start record.
    pub total_jobs: Option<u64>,
    /// Per-job state, keyed by job id.
    pub jobs: BTreeMap<String, JobState>,
    /// Delta-mode golden artifacts, keyed by circuit name.
    pub golden: BTreeMap<String, GoldenState>,
    /// Delta-mode minting progress, keyed by circuit name.
    pub batches: BTreeMap<String, BatchState>,
    /// Lines that failed the checksum or did not parse (torn writes).
    pub discarded_lines: usize,
    /// Total well-formed records replayed.
    pub records: usize,
}

impl JournalState {
    /// Replays the journal in `out_dir`; a missing file is an empty
    /// state, any unreadable *line* is counted and skipped.
    pub fn replay(out_dir: &Path) -> std::io::Result<JournalState> {
        let path = out_dir.join(JOURNAL_FILE);
        let mut state = JournalState::default();
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(state),
            Err(e) => return Err(e),
        };
        for line in BufReader::new(file).lines() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            match Record::parse_line(&line) {
                Some(record) => {
                    state.records += 1;
                    state.apply(record);
                }
                None => state.discarded_lines += 1,
            }
        }
        Ok(state)
    }

    fn apply(&mut self, record: Record) {
        match record {
            Record::Start { manifest, jobs } => {
                self.manifest = Some(manifest);
                self.total_jobs = Some(jobs);
            }
            Record::JobStart { job, .. } => {
                // Only a terminal record upgrades a job out of InFlight.
                self.jobs.entry(job).or_insert(JobState::InFlight);
            }
            Record::JobFailed { job, .. } => {
                self.jobs.insert(job, JobState::InFlight);
            }
            Record::JobDone {
                job,
                verdict,
                artifact,
                digest,
                bits,
                ..
            } => {
                self.jobs.insert(
                    job,
                    JobState::Done {
                        verdict,
                        artifact,
                        digest,
                        bits,
                    },
                );
            }
            Record::JobPoisoned {
                job, diagnostic, ..
            } => {
                self.jobs.insert(job, JobState::Poisoned { diagnostic });
            }
            Record::Golden {
                circuit,
                artifact,
                digest,
                locations,
            } => {
                self.golden.insert(
                    circuit,
                    GoldenState {
                        artifact,
                        digest,
                        locations,
                    },
                );
            }
            Record::BatchStart {
                circuit,
                from,
                offset,
                ..
            } => {
                let batch = self.batches.entry(circuit).or_default();
                if from >= batch.done {
                    batch.in_flight = Some((from, offset));
                }
            }
            Record::BatchDone {
                circuit,
                to,
                offset,
                verdicts,
                ..
            } => {
                let batch = self.batches.entry(circuit).or_default();
                if to > batch.done {
                    batch.done = to;
                    batch.offset = offset;
                }
                batch.in_flight = None;
                for (verdict, count) in parse_histogram(&verdicts) {
                    *batch.verdicts.entry(verdict).or_insert(0) += count;
                }
            }
        }
    }
}

/// Renders a verdict histogram as the compact `"proven:1024,probable:3"`
/// form batch records carry.
pub(crate) fn render_histogram(hist: &BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (verdict, count) in hist {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{verdict}:{count}");
    }
    out
}

/// Parses the `"proven:1024,probable:3"` histogram form; malformed
/// entries are skipped (the histogram is informational, not load-bearing).
pub(crate) fn parse_histogram(text: &str) -> Vec<(String, u64)> {
    text.split(',')
        .filter_map(|entry| {
            let (verdict, count) = entry.split_once(':')?;
            Some((verdict.to_owned(), count.parse::<u64>().ok()?))
        })
        .collect()
}

/// Statistics from one [`compact`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Well-formed records before compaction.
    pub records_before: usize,
    /// Records after compaction.
    pub records_after: usize,
    /// Journal bytes before compaction.
    pub bytes_before: u64,
    /// Journal bytes after compaction.
    pub bytes_after: u64,
}

/// Rewrites the journal in `out_dir` down to its folded state: one
/// `start` record, one `golden` + `bdone` pair per delta-mode circuit,
/// and one terminal record per finished job. Superseded attempts, torn
/// lines, and in-flight markers (whose jobs re-run anyway) are dropped.
///
/// A replay of the compacted journal yields the same resume decisions as
/// a replay of the original. Synthesized `done` records carry
/// `attempt: 1` and `millis: 0` — attempt counts and timings of past legs
/// are bookkeeping, not resume inputs. The rewrite is atomic
/// (tmp + fsync + rename), so a crash mid-compaction leaves the original
/// journal in place.
pub fn compact(out_dir: &Path) -> std::io::Result<CompactionStats> {
    let path = out_dir.join(JOURNAL_FILE);
    let bytes_before = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let state = JournalState::replay(out_dir)?;
    let Some(manifest) = state.manifest else {
        // Nothing meaningful journalled yet; leave the file alone.
        return Ok(CompactionStats {
            records_before: state.records,
            records_after: state.records,
            bytes_before,
            bytes_after: bytes_before,
        });
    };
    let mut records: Vec<Record> = Vec::new();
    records.push(Record::Start {
        manifest,
        jobs: state.total_jobs.unwrap_or(0),
    });
    for (circuit, golden) in &state.golden {
        records.push(Record::Golden {
            circuit: circuit.clone(),
            artifact: golden.artifact.clone(),
            digest: golden.digest,
            locations: golden.locations,
        });
    }
    for (circuit, batch) in &state.batches {
        if batch.done > 0 {
            records.push(Record::BatchDone {
                circuit: circuit.clone(),
                from: 0,
                to: batch.done,
                offset: batch.offset,
                verdicts: render_histogram(&batch.verdicts),
            });
        }
    }
    for (job, jstate) in &state.jobs {
        match jstate {
            JobState::Done {
                verdict,
                artifact,
                digest,
                bits,
            } => records.push(Record::JobDone {
                job: job.clone(),
                attempt: 1,
                verdict: verdict.clone(),
                artifact: artifact.clone(),
                digest: *digest,
                bits: bits.clone(),
                millis: 0,
            }),
            JobState::Poisoned { diagnostic } => records.push(Record::JobPoisoned {
                job: job.clone(),
                attempts: 1,
                diagnostic: diagnostic.clone(),
            }),
            JobState::InFlight => {}
        }
    }
    let tmp = out_dir.join(format!("{JOURNAL_FILE}.compact.tmp"));
    {
        let mut file = File::create(&tmp)?;
        let mut buf = String::new();
        for record in &records {
            buf.push_str(&record.to_line());
            buf.push('\n');
        }
        file.write_all(buf.as_bytes())?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    if let Ok(dir) = File::open(out_dir) {
        let _ = dir.sync_data();
    }
    let bytes_after = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    Ok(CompactionStats {
        records_before: state.records,
        records_after: records.len(),
        bytes_before,
        bytes_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("odcfp-journal-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Start {
                manifest: Digest::of(b"manifest"),
                jobs: 2,
            },
            Record::JobStart {
                job: "c17#0".into(),
                attempt: 1,
            },
            Record::JobDone {
                job: "c17#0".into(),
                attempt: 1,
                verdict: "proven".into(),
                artifact: "artifacts/c17_b0.v".into(),
                digest: Digest::of(b"module"),
                bits: "0101".into(),
                millis: 12,
            },
            Record::JobStart {
                job: "c17#1".into(),
                attempt: 1,
            },
            Record::JobFailed {
                job: "c17#1".into(),
                attempt: 1,
                error: "deadline exceeded \"mid\" stage\nline2".into(),
            },
            Record::JobPoisoned {
                job: "c17#1".into(),
                attempts: 3,
                diagnostic: "panicked: boom \\ {\"quote\"}".into(),
            },
        ]
    }

    #[test]
    fn record_line_roundtrip_exactly() {
        for record in sample_records() {
            let line = record.to_line();
            assert_eq!(Record::parse_line(&line).as_ref(), Some(&record), "{line}");
            // The line must also survive a trailing newline.
            assert_eq!(Record::parse_line(&format!("{line}\n")), Some(record));
        }
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let line = sample_records()[2].to_line();
        // Flip every byte position in turn: the parse must never return a
        // *different* record than the one written, and in virtually all
        // cases must return None outright.
        let original = Record::parse_line(&line);
        for i in 0..line.len() {
            let mut bytes = line.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(corrupt) = String::from_utf8(bytes) else {
                continue;
            };
            let parsed = Record::parse_line(&corrupt);
            assert!(
                parsed.is_none() || parsed == original,
                "byte {i}: corruption accepted as a different record: {corrupt}"
            );
        }
    }

    #[test]
    fn truncated_tail_is_discarded_not_fatal() {
        let dir = tmpdir("torn");
        let mut journal = Journal::open(&dir).unwrap();
        for r in sample_records() {
            journal.append(&r).unwrap();
        }
        // Simulate a torn final write: append half a record.
        let torn = &sample_records()[2].to_line()[..20];
        let mut raw = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .unwrap();
        raw.write_all(torn.as_bytes()).unwrap();
        drop(raw);

        let state = JournalState::replay(&dir).unwrap();
        assert_eq!(state.discarded_lines, 1);
        assert_eq!(state.records, sample_records().len());
        assert_eq!(
            state.jobs["c17#0"],
            JobState::Done {
                verdict: "proven".into(),
                artifact: "artifacts/c17_b0.v".into(),
                digest: Digest::of(b"module"),
                bits: "0101".into(),
            }
        );
        assert!(matches!(state.jobs["c17#1"], JobState::Poisoned { .. }));
    }

    #[test]
    fn replay_of_missing_journal_is_empty() {
        let dir = tmpdir("missing");
        let state = JournalState::replay(&dir).unwrap();
        assert!(state.jobs.is_empty());
        assert_eq!(state.records, 0);
    }

    #[test]
    fn in_flight_job_stays_in_flight_until_terminal_record() {
        let dir = tmpdir("inflight");
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&Record::JobStart {
                job: "x#0".into(),
                attempt: 1,
            })
            .unwrap();
        let state = JournalState::replay(&dir).unwrap();
        assert_eq!(state.jobs["x#0"], JobState::InFlight);
    }

    #[test]
    fn later_records_win_on_resume_appends() {
        let dir = tmpdir("later");
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&Record::JobPoisoned {
                job: "x#0".into(),
                attempts: 2,
                diagnostic: "first leg".into(),
            })
            .unwrap();
        journal
            .append(&Record::JobDone {
                job: "x#0".into(),
                attempt: 1,
                verdict: "proven".into(),
                artifact: "artifacts/x_b0.v".into(),
                digest: Digest::of(b"x"),
                bits: "1".into(),
                millis: 1,
            })
            .unwrap();
        let state = JournalState::replay(&dir).unwrap();
        assert!(matches!(state.jobs["x#0"], JobState::Done { .. }));
    }

    fn batch_records() -> Vec<Record> {
        vec![
            Record::Start {
                manifest: Digest::of(b"manifest"),
                jobs: 4096,
            },
            Record::Golden {
                circuit: "des".into(),
                artifact: "artifacts/des.golden.v".into(),
                digest: Digest128::of(b"golden bytes"),
                locations: 137,
            },
            Record::BatchStart {
                circuit: "des".into(),
                from: 0,
                to: 1024,
                offset: 0,
            },
            Record::BatchDone {
                circuit: "des".into(),
                from: 0,
                to: 1024,
                offset: 99_000,
                verdicts: "proven:1024".into(),
            },
            Record::BatchStart {
                circuit: "des".into(),
                from: 1024,
                to: 2048,
                offset: 99_000,
            },
        ]
    }

    #[test]
    fn batch_record_roundtrip_and_fold() {
        let dir = tmpdir("batch");
        let mut journal = Journal::open(&dir).unwrap();
        for r in batch_records() {
            assert_eq!(Record::parse_line(&r.to_line()), Some(r.clone()));
            journal.append(&r).unwrap();
        }
        let state = JournalState::replay(&dir).unwrap();
        assert_eq!(state.total_jobs, Some(4096));
        let golden = &state.golden["des"];
        assert_eq!(golden.locations, 137);
        assert_eq!(golden.digest, Digest128::of(b"golden bytes"));
        let batch = &state.batches["des"];
        assert_eq!(batch.done, 1024);
        assert_eq!(batch.offset, 99_000);
        assert_eq!(batch.in_flight, Some((1024, 99_000)));
        assert_eq!(batch.verdicts["proven"], 1024);
    }

    #[test]
    fn completed_window_clears_in_flight() {
        let dir = tmpdir("bdone");
        let mut journal = Journal::open(&dir).unwrap();
        for r in batch_records() {
            journal.append(&r).unwrap();
        }
        journal
            .append(&Record::BatchDone {
                circuit: "des".into(),
                from: 1024,
                to: 2048,
                offset: 198_000,
                verdicts: "proven:1023,undecided:1".into(),
            })
            .unwrap();
        let state = JournalState::replay(&dir).unwrap();
        let batch = &state.batches["des"];
        assert_eq!(batch.done, 2048);
        assert_eq!(batch.offset, 198_000);
        assert_eq!(batch.in_flight, None);
        assert_eq!(batch.verdicts["proven"], 2047);
        assert_eq!(batch.verdicts["undecided"], 1);
    }

    #[test]
    fn histogram_roundtrip() {
        let mut hist = BTreeMap::new();
        hist.insert("proven".to_owned(), 1024u64);
        hist.insert("undecided".to_owned(), 3u64);
        let text = render_histogram(&hist);
        assert_eq!(text, "proven:1024,undecided:3");
        let back: BTreeMap<String, u64> = parse_histogram(&text).into_iter().collect();
        assert_eq!(back, hist);
        assert!(parse_histogram("").is_empty());
        assert_eq!(parse_histogram("junk,proven:2").len(), 1);
    }

    #[test]
    fn compaction_preserves_folded_state_and_shrinks() {
        let dir = tmpdir("compact");
        let mut journal = Journal::open(&dir).unwrap();
        for r in sample_records() {
            journal.append(&r).unwrap();
        }
        // Many superseded attempts for one job: all must fold away.
        for attempt in 1..=50u32 {
            journal
                .append(&Record::JobStart {
                    job: "c17#2".into(),
                    attempt,
                })
                .unwrap();
            journal
                .append(&Record::JobFailed {
                    job: "c17#2".into(),
                    attempt,
                    error: "flaky".into(),
                })
                .unwrap();
        }
        journal
            .append(&Record::JobDone {
                job: "c17#2".into(),
                attempt: 51,
                verdict: "proven".into(),
                artifact: "artifacts/c17_b2.v".into(),
                digest: Digest::of(b"m2"),
                bits: "1100".into(),
                millis: 7,
            })
            .unwrap();
        for r in batch_records() {
            journal.append(&r).unwrap();
        }
        drop(journal);

        let before = JournalState::replay(&dir).unwrap();
        let stats = compact(&dir).unwrap();
        assert!(stats.records_after < stats.records_before);
        assert!(stats.bytes_after < stats.bytes_before);

        let after = JournalState::replay(&dir).unwrap();
        assert_eq!(after.manifest, before.manifest);
        assert_eq!(after.total_jobs, before.total_jobs);
        assert_eq!(after.golden, before.golden);
        assert_eq!(after.discarded_lines, 0);
        // Terminal job states survive exactly; in-flight entries (which
        // re-run on resume either way) are dropped.
        for (job, state) in &before.jobs {
            match state {
                JobState::InFlight => assert!(!after.jobs.contains_key(job)),
                terminal => assert_eq!(after.jobs.get(job), Some(terminal), "{job}"),
            }
        }
        // Batch progress folds to one record with the same watermark; the
        // in-flight window marker is dropped (its buyers re-run).
        let b_before = &before.batches["des"];
        let b_after = &after.batches["des"];
        assert_eq!(b_after.done, b_before.done);
        assert_eq!(b_after.offset, b_before.offset);
        assert_eq!(b_after.verdicts, b_before.verdicts);
        assert_eq!(b_after.in_flight, None);
        assert_eq!(after.records, stats.records_after);
    }

    #[test]
    fn compaction_of_empty_journal_is_a_noop() {
        let dir = tmpdir("compact-empty");
        let stats = compact(&dir).unwrap();
        assert_eq!(stats.records_before, 0);
        assert_eq!(stats.records_after, 0);
        assert!(!dir.join(JOURNAL_FILE).exists());
    }

    #[test]
    fn flat_parser_rejects_structural_garbage() {
        for bad in [
            "\"t\":\"done\"",           // no closing brace
            "\"t\":\"done\",}",         // trailing comma
            "\"t\":{\"nested\":1}}",    // nested value
            "\"t\":\"a\",\"t\":\"b\"}", // duplicate key
            "\"t\":-3}",                // negative number
            "\"t\":\"done\"}garbage",   // trailing garbage
        ] {
            assert!(parse_flat_fields(bad).is_none(), "{bad}");
        }
    }
}
