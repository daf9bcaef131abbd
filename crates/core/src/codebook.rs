//! Delta-encoded buyer artifacts ("codebooks") and one-shot batch
//! verification of the whole code space.
//!
//! A fingerprinted buyer copy is fully determined by the golden netlist,
//! the fingerprinter's selected modifications, and the buyer's bit
//! string — which itself derives from `seed ⊕ buyer` (the PR 3
//! determinism contract). Materializing a full netlist per buyer
//! therefore stores the same `O(gates)` text a million times over. A
//! *codebook* stores the golden artifact once and one ~hundred-byte
//! `code` record per buyer (packed bits + verdict + identity digest),
//! from which the full artifact re-mints bit-identically on demand.
//!
//! Verification gets the same treatment. [`CodeSpace::build`] applies
//! **all** selected modifications to one *superposed* netlist and
//! records, for every added input, which location controls it and the
//! plane-neutral value it takes when that location is unselected. The
//! selectable encoding is *exact*: a neutral literal is the identity of
//! its plane, so pinning the selectors to a code yields precisely that
//! code's netlist. [`VerifySession::prove_code_space`] then proves every
//! `2^L` code equivalent to the golden at once — the "location-delta
//! algebra" — and each buyer's verification collapses to a combination
//! check.
//!
//! The proof is *local* ([`odcfp_sat::local`]), because every
//! modification is (Definition 1, eq. 1): whenever the trigger is at its
//! controlling value the primary gate ignores its fanout-free cone, and
//! otherwise the added literal is plane-neutral. Walking the superposed
//! netlist in topological order, a net is settled when its gate matches
//! the golden gate at the same index over settled inputs; each other
//! gate with a golden twin is an obligation — its output must equal the
//! twin's for *all* values of the settled nets bounding its cone and of
//! the selectors inside it. The FFC gates fail, the primary gate holds,
//! and same-gate compositions and Fig. 5 reroutes merge into one
//! obligation. Obligations of at most 16 free variables are truth-table
//! checks by exhaustive simulation; wider ones are tiny SAT miters. By
//! induction in topological order, every settled net equals its golden
//! twin for every input and every code, so when all primary outputs
//! settle, all `2^L` codes are equivalent. A failed obligation is not a
//! refutation (free cuts over-approximate what the circuit can reach),
//! so then the proof falls back to one SAT solve of the superposed miter
//! with all selectors free — exact in both directions. If that refutes
//! or runs out of budget, callers fall back to the existing per-buyer
//! path and verdicts stay identical.
//!
//! Codebook files (`codebook.<circuit>.jsonl`) use the campaign
//! journal's checksummed flat-JSON line format, written through a
//! bounded-memory streaming writer and fsynced at window boundaries so
//! SIGKILL recovery can truncate to the last durable offset.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use odcfp_analysis::cancel::CancelToken;
use odcfp_netlist::{Digest, Digest128, Digester128, Netlist};
use odcfp_sat::SelectableInput;

use crate::campaign::journal::{escape_json, parse_flat_fields};
use crate::modify::apply_modification;
use crate::verify::CodeSpaceProof;
use crate::{FingerprintError, Fingerprinter, VerifySession};

/// The codebook file name for a circuit, inside a campaign output
/// directory.
pub fn codebook_file(circuit: &str) -> String {
    format!("codebook.{circuit}.jsonl")
}

/// The superposed variant of a fingerprinter: every selected
/// modification applied at once, with each added input mapped to the
/// location (selector group) that controls it.
///
/// This is the object batch verification is proven against; see the
/// module docs for the soundness argument.
#[derive(Debug, Clone)]
pub struct CodeSpace {
    pub(crate) superposed: Netlist,
    pub(crate) selectable: Vec<SelectableInput>,
    pub(crate) groups: usize,
}

impl CodeSpace {
    /// Builds the superposed netlist from `fp`'s base and selected
    /// modifications.
    ///
    /// Modifications are applied in selection order, so a gate widened by
    /// several locations accumulates their literals at successive tail
    /// positions — each muxed to the (shared) plane neutral by its own
    /// selector. The widened planes are all symmetric, so dropping any
    /// subset of literals to neutral yields exactly the netlist
    /// [`Fingerprinter::embed`] builds for that subset, which is what
    /// makes the encoding exact even when locations share a target gate.
    ///
    /// # Errors
    ///
    /// Returns [`FingerprintError::CannotApply`] if a modification no
    /// longer applies (e.g. the library lacks a wide-enough cell for the
    /// accumulated arity); the caller falls back to per-buyer
    /// verification.
    pub fn build(fp: &Fingerprinter) -> Result<CodeSpace, FingerprintError> {
        let mods = fp.selected_modifications();
        let mut superposed = fp.base().clone();
        let mut selectable = Vec::new();
        for (group, m) in mods.iter().enumerate() {
            let target = m.target();
            let original_arity = superposed.gate(target).inputs().len();
            apply_modification(&mut superposed, m)?;
            let neutral = superposed
                .gate_fn(target)
                .neutral_input_value()
                .ok_or_else(|| FingerprintError::CannotApply {
                    gate: target,
                    reason: "widened gate has no neutral input value".into(),
                })?;
            for k in 0..m.added_nets().len() {
                selectable.push(SelectableInput {
                    gate: target,
                    position: original_arity + k,
                    group,
                    neutral,
                });
            }
        }
        superposed.validate()?;
        Ok(CodeSpace {
            superposed,
            selectable,
            groups: mods.len(),
        })
    }

    /// Number of selector groups (= fingerprint locations = code length).
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// The superposed netlist (all modifications applied).
    pub fn superposed(&self) -> &Netlist {
        &self.superposed
    }

    /// The selectable-input descriptors, one per added literal, for use
    /// with [`VerifySession::prove_code_space`] directly (e.g. to encode
    /// a tampered superposition in differential tests).
    pub fn selectable(&self) -> &[SelectableInput] {
        &self.selectable
    }

    /// Proves the whole code space through `session`; see
    /// [`VerifySession::prove_code_space`]. The superposition was
    /// validated by [`CodeSpace::build`], so it is not validated again.
    ///
    /// # Errors
    ///
    /// As [`VerifySession::prove_code_space`].
    pub fn prove(
        &self,
        session: &mut VerifySession,
        budget: Option<u64>,
        token: &CancelToken,
    ) -> Result<CodeSpaceProof, FingerprintError> {
        session.prove_validated_code_space(
            &self.superposed,
            &self.selectable,
            self.groups,
            budget,
            token,
        )
    }
}

/// Packs a bit string as lowercase hex, four bits per character,
/// LSB-first within each nibble — ¼ the bytes of the journal's `0`/`1`
/// rendering, which matters at a million buyers.
pub fn pack_bits(bits: &[bool]) -> String {
    let mut out = String::with_capacity(bits.len().div_ceil(4));
    for chunk in bits.chunks(4) {
        let mut nibble = 0u32;
        for (j, &bit) in chunk.iter().enumerate() {
            nibble |= u32::from(bit) << j;
        }
        out.push(char::from_digit(nibble, 16).expect("nibble < 16"));
    }
    out
}

/// Reverses [`pack_bits`]; `None` if `hex` is malformed or does not hold
/// exactly `len` bits (after padding the final nibble with zeros).
pub fn unpack_bits(hex: &str, len: usize) -> Option<Vec<bool>> {
    if hex.len() != len.div_ceil(4) {
        return None;
    }
    let mut bits = Vec::with_capacity(len);
    for c in hex.chars() {
        let nibble = c.to_digit(16)?;
        for j in 0..4 {
            bits.push(nibble >> j & 1 == 1);
        }
    }
    // Padding bits beyond `len` must be zero, or the record is corrupt.
    if bits.drain(len..).any(|b| b) {
        return None;
    }
    Some(bits)
}

/// The identity digest of a delta-encoded artifact: folds the golden
/// artifact's identity with the buyer's packed code. Two buyers (or two
/// campaigns) share an identity digest iff they share golden bytes and
/// bits — without ever materializing the expanded netlist.
pub fn artifact_identity(golden: Digest128, bits: &[bool]) -> Digest128 {
    let mut d = Digester128::new();
    d.update(golden.to_string().as_bytes());
    d.update(b"|");
    d.update(pack_bits(bits).as_bytes());
    d.finish()
}

/// One codebook line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodebookRecord {
    /// File header: the golden artifact every code expands against.
    Golden {
        /// Circuit name.
        circuit: String,
        /// Number of fingerprint locations (bits per code).
        locations: u64,
        /// Campaign seed the codes derive from.
        seed: u64,
        /// Golden artifact path relative to the output directory.
        artifact: String,
        /// 128-bit identity digest of the golden artifact bytes.
        digest: Digest128,
    },
    /// One buyer's delta artifact.
    Code {
        /// Buyer index.
        buyer: u64,
        /// Packed bits ([`pack_bits`]).
        bits: String,
        /// Verdict short name (`proven` / `probable` / `undecided`).
        verdict: String,
        /// [`artifact_identity`] of this buyer's expanded artifact.
        digest: Digest128,
    },
}

impl CodebookRecord {
    fn body(&self) -> String {
        let mut b = String::new();
        let push_str = |b: &mut String, k: &str, v: &str| {
            let _ = write!(b, "\"{k}\":\"{}\",", escape_json(v));
        };
        match self {
            CodebookRecord::Golden {
                circuit,
                locations,
                seed,
                artifact,
                digest,
            } => {
                push_str(&mut b, "t", "golden");
                push_str(&mut b, "circuit", circuit);
                let _ = write!(b, "\"locations\":{locations},\"seed\":{seed},");
                push_str(&mut b, "artifact", artifact);
                push_str(&mut b, "digest", &digest.to_string());
            }
            CodebookRecord::Code {
                buyer,
                bits,
                verdict,
                digest,
            } => {
                push_str(&mut b, "t", "code");
                let _ = write!(b, "\"buyer\":{buyer},");
                push_str(&mut b, "bits", bits);
                push_str(&mut b, "verdict", verdict);
                push_str(&mut b, "digest", &digest.to_string());
            }
        }
        b.pop();
        b.push('}');
        b
    }

    /// Serializes to a checksummed line (without the newline), in the
    /// campaign journal's `{"crc":"…", …}` format.
    pub fn to_line(&self) -> String {
        let body = self.body();
        format!(
            "{{\"crc\":\"{:016x}\",{body}",
            Digest::of(body.as_bytes()).0
        )
    }

    /// Parses one codebook line; `None` for malformed, truncated, or
    /// checksum-failing input.
    pub fn parse_line(line: &str) -> Option<CodebookRecord> {
        let rest = line.trim_end().strip_prefix("{\"crc\":\"")?;
        let (crc_hex, body) = (rest.get(..16)?, rest.get(16..)?.strip_prefix("\",")?);
        let crc = u64::from_str_radix(crc_hex, 16).ok()?;
        if Digest::of(body.as_bytes()).0 != crc {
            return None;
        }
        let fields = parse_flat_fields(body)?;
        let get = |k: &str| fields.get(k).map(String::as_str);
        let get_u64 = |k: &str| get(k).and_then(|v| v.parse::<u64>().ok());
        match get("t")? {
            "golden" => Some(CodebookRecord::Golden {
                circuit: get("circuit")?.to_owned(),
                locations: get_u64("locations")?,
                seed: get_u64("seed")?,
                artifact: get("artifact")?.to_owned(),
                digest: Digest128::parse(get("digest")?)?,
            }),
            "code" => Some(CodebookRecord::Code {
                buyer: get_u64("buyer")?,
                bits: get("bits")?.to_owned(),
                verdict: get("verdict")?.to_owned(),
                digest: Digest128::parse(get("digest")?)?,
            }),
            _ => None,
        }
    }
}

/// Bytes the writer buffers before spilling to the OS — the "window" of
/// memory a million-buyer campaign holds for artifact output.
const WRITER_BUF: usize = 256 * 1024;

/// A streaming, bounded-memory codebook writer.
///
/// Records accumulate in a fixed-size buffer and spill to the file as it
/// fills; nothing is durable until [`CodebookWriter::sync`], which the
/// campaign calls once per window, right before journalling the window's
/// `bdone` record. On resume the file is truncated to the last
/// journalled offset, discarding any tail a crash left behind.
#[derive(Debug)]
pub struct CodebookWriter {
    file: File,
    path: PathBuf,
    buf: String,
    /// Logical file length including buffered bytes.
    offset: u64,
}

impl CodebookWriter {
    /// Opens the codebook for `circuit` in `out_dir`, truncating to
    /// `offset` (the last journalled durable length; 0 starts fresh).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; also fails if the existing file is shorter
    /// than `offset` (the journal promised bytes the codebook lost —
    /// genuine corruption, not a torn tail).
    pub fn open(out_dir: &Path, circuit: &str, offset: u64) -> std::io::Result<CodebookWriter> {
        let path = out_dir.join(codebook_file(circuit));
        // Never truncate on open: an existing file's durable prefix is
        // kept and the torn tail is cut back to `offset` below.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .read(true)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len < offset {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "codebook {} holds {len} bytes but the journal recorded {offset}",
                    path.display()
                ),
            ));
        }
        if len > offset {
            file.set_len(offset)?;
        }
        file.seek(SeekFrom::Start(offset))?;
        Ok(CodebookWriter {
            file,
            path,
            buf: String::with_capacity(WRITER_BUF + 512),
            offset,
        })
    }

    /// The codebook file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Logical length: durable bytes plus buffered bytes.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Appends one record to the buffer, spilling to the OS when full.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from a spill.
    pub fn append(&mut self, record: &CodebookRecord) -> std::io::Result<()> {
        let line = record.to_line();
        self.offset += line.len() as u64 + 1;
        self.buf.push_str(&line);
        self.buf.push('\n');
        if self.buf.len() >= WRITER_BUF {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(self.buf.as_bytes())?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes and fsyncs; returns the durable byte length, which the
    /// caller journals in the window's `bdone` record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn sync(&mut self) -> std::io::Result<u64> {
        self.spill()?;
        self.file.sync_data()?;
        Ok(self.offset)
    }
}

/// A streaming codebook reader; torn or corrupt lines are counted and
/// skipped, mirroring journal replay.
#[derive(Debug)]
pub struct CodebookReader {
    lines: std::io::Lines<BufReader<File>>,
    discarded: usize,
}

impl CodebookReader {
    /// Opens a codebook file for streaming.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (including a missing file).
    pub fn open(path: &Path) -> std::io::Result<CodebookReader> {
        Ok(CodebookReader {
            lines: BufReader::new(File::open(path)?).lines(),
            discarded: 0,
        })
    }

    /// The next well-formed record, or `None` at end of file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn next_record(&mut self) -> std::io::Result<Option<CodebookRecord>> {
        loop {
            match self.lines.next() {
                None => return Ok(None),
                Some(line) => {
                    let line = line?;
                    if line.is_empty() {
                        continue;
                    }
                    match CodebookRecord::parse_line(&line) {
                        Some(record) => return Ok(Some(record)),
                        None => self.discarded += 1,
                    }
                }
            }
        }
    }

    /// Lines discarded so far (checksum failures, torn tails).
    pub fn discarded(&self) -> usize {
        self.discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Verdict, VerifyPolicy};
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    #[test]
    fn pack_unpack_roundtrip() {
        for len in [0usize, 1, 3, 4, 5, 8, 137] {
            let bits: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let hex = pack_bits(&bits);
            assert_eq!(hex.len(), len.div_ceil(4));
            assert_eq!(unpack_bits(&hex, len), Some(bits), "len {len}");
        }
        // Wrong length and nonzero padding must be rejected.
        assert_eq!(unpack_bits("ff", 9), None);
        assert_eq!(unpack_bits("f", 2), None);
        assert_eq!(unpack_bits("3", 2), Some(vec![true, true]));
    }

    #[test]
    fn record_roundtrip_and_corruption_rejection() {
        let records = [
            CodebookRecord::Golden {
                circuit: "des".into(),
                locations: 137,
                seed: 0xDEADBEEF,
                artifact: "artifacts/des.golden.v".into(),
                digest: Digest128::of(b"golden"),
            },
            CodebookRecord::Code {
                buyer: 999_999,
                bits: "a3f90".into(),
                verdict: "proven".into(),
                digest: Digest128::of(b"identity"),
            },
        ];
        for r in &records {
            let line = r.to_line();
            assert_eq!(CodebookRecord::parse_line(&line).as_ref(), Some(r));
            let truncated = &line[..line.len() - 3];
            assert_eq!(CodebookRecord::parse_line(truncated), None);
        }
    }

    #[test]
    fn writer_truncates_to_journalled_offset_on_reopen() {
        let dir = std::env::temp_dir()
            .join("odcfp-codebook-tests")
            .join("trunc");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let code = |buyer: u64| CodebookRecord::Code {
            buyer,
            bits: "7".into(),
            verdict: "proven".into(),
            digest: Digest128::of(&buyer.to_le_bytes()),
        };
        let mut w = CodebookWriter::open(&dir, "c17", 0).unwrap();
        w.append(&code(0)).unwrap();
        let durable = w.sync().unwrap();
        // A window that never completed: bytes past the durable offset.
        w.append(&code(1)).unwrap();
        w.append(&code(2)).unwrap();
        w.sync().unwrap();
        drop(w);

        // Resume from the journalled offset: the unfinished window's
        // records are gone, and re-appending converges byte-for-byte.
        let mut w = CodebookWriter::open(&dir, "c17", durable).unwrap();
        assert_eq!(w.offset(), durable);
        w.append(&code(1)).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut r = CodebookReader::open(&dir.join(codebook_file("c17"))).unwrap();
        let mut buyers = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            if let CodebookRecord::Code { buyer, .. } = rec {
                buyers.push(buyer);
            }
        }
        assert_eq!(buyers, vec![0, 1]);
        assert_eq!(r.discarded(), 0);

        // The journal claiming more bytes than the file holds is
        // corruption, not a torn tail.
        assert!(CodebookWriter::open(&dir, "c17", 1 << 30).is_err());
    }

    #[test]
    fn code_space_proof_agrees_with_per_buyer_verification() {
        // Every code of a random-DAG fingerprinter must be proven by the
        // code-space proof AND individually by check_code, and
        // both must agree with the per-buyer session path.
        let base = random_dag(CellLibrary::standard(), DagParams::small(23));
        let fp = Fingerprinter::new(base).unwrap();
        let n = fp.locations().len().min(6);
        assert!(n >= 2, "random dag yielded too few locations");
        let space = CodeSpace::build(&fp).unwrap();
        assert_eq!(space.num_groups(), fp.locations().len());

        let mut session = VerifySession::new(fp.base()).unwrap();
        let token = CancelToken::new();
        let proof = space.prove(&mut session, None, &token).unwrap();
        assert_eq!(
            proof.outcome,
            crate::verify::CodeSpaceOutcome::ProvenAll,
            "a fingerprinter's whole code space must verify"
        );

        let policy = VerifyPolicy::strict();
        for code_bits in 0u32..1 << n {
            let mut bits = vec![false; fp.locations().len()];
            for (i, bit) in bits.iter_mut().enumerate().take(n) {
                *bit = code_bits >> i & 1 == 1;
            }
            let verdict = session.check_code(&proof, &bits, None, &token);
            assert_eq!(verdict, Verdict::Proven, "code {code_bits:b}");
            // Differential: the materializing per-buyer path agrees.
            let copy = fp.embed(&bits).unwrap();
            let report = session.verify(copy.netlist(), &policy).unwrap();
            assert_eq!(report.verdict, Verdict::Proven, "code {code_bits:b}");
        }
    }

    #[test]
    fn shared_target_gate_selects_independently() {
        // Two locations widening the SAME gate (des does this at g10):
        // F = AND3(x, y1, y2) with x = AND(a, b) in an FFC; y1 and y2 are
        // both ODC triggers for x, so both modifications target gx. The
        // superposed gx is AND4(a, b, y1, y2) with each tail literal on
        // its own selector, and every one of the 4 codes must match the
        // netlist `apply_modification` builds for that exact subset.
        use crate::modify::{apply_modification, Modification};
        use odcfp_logic::PrimitiveFn;

        let lib = CellLibrary::standard();
        let mut base = Netlist::new("shared", lib);
        let a = base.add_primary_input("a");
        let b = base.add_primary_input("b");
        let c = base.add_primary_input("c");
        let d = base.add_primary_input("d");
        let e = base.add_primary_input("e");
        let f = base.add_primary_input("f");
        let and2 = base.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let and3 = base.library().cell_for(PrimitiveFn::And, 3).unwrap();
        let or2 = base.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let gx = base.add_gate("gx", and2, &[a, b]);
        let gy1 = base.add_gate("gy1", or2, &[c, d]);
        let gy2 = base.add_gate("gy2", or2, &[e, f]);
        let y1 = base.gate_output(gy1);
        let y2 = base.gate_output(gy2);
        let gf = base.add_gate("gf", and3, &[base.gate_output(gx), y1, y2]);
        base.set_primary_output(base.gate_output(gf));

        let mods = [
            Modification::InsertTrigger {
                target: gx,
                trigger: y1,
                complement: false,
            },
            Modification::InsertTrigger {
                target: gx,
                trigger: y2,
                complement: false,
            },
        ];
        let mut superposed = base.clone();
        let mut selectable = Vec::new();
        for (group, m) in mods.iter().enumerate() {
            let pos = superposed.gate(gx).inputs().len();
            apply_modification(&mut superposed, m).unwrap();
            let neutral = superposed.gate_fn(gx).neutral_input_value().unwrap();
            selectable.push(SelectableInput {
                gate: gx,
                position: pos,
                group,
                neutral,
            });
        }
        assert_eq!(superposed.gate(gx).inputs().len(), 4);

        let mut session = VerifySession::new(&base).unwrap();
        let token = CancelToken::new();
        let proof = session
            .prove_code_space(&superposed, &selectable, mods.len(), None, &token)
            .unwrap();
        assert_eq!(proof.outcome, crate::verify::CodeSpaceOutcome::ProvenAll);

        let policy = VerifyPolicy::strict();
        for code in 0u32..4 {
            let bits = [code & 1 == 1, code >> 1 & 1 == 1];
            assert_eq!(
                session.check_code(&proof, &bits, None, &token),
                Verdict::Proven,
                "code {code:02b}"
            );
            let mut materialized = base.clone();
            for (m, &sel) in mods.iter().zip(&bits) {
                if sel {
                    apply_modification(&mut materialized, m).unwrap();
                }
            }
            let report = session.verify(&materialized, &policy).unwrap();
            assert_eq!(report.verdict, Verdict::Proven, "code {code:02b}");
        }
    }

    #[test]
    fn identity_digest_separates_buyers_and_goldens() {
        let g1 = Digest128::of(b"golden one");
        let g2 = Digest128::of(b"golden two");
        let bits_a = vec![true, false, true];
        let bits_b = vec![true, true, true];
        assert_eq!(
            artifact_identity(g1, &bits_a),
            artifact_identity(g1, &bits_a)
        );
        assert_ne!(
            artifact_identity(g1, &bits_a),
            artifact_identity(g1, &bits_b)
        );
        assert_ne!(
            artifact_identity(g1, &bits_a),
            artifact_identity(g2, &bits_a)
        );
    }
}
