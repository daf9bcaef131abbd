//! The campaign manifest: a line-oriented description of *what to mint*
//! — circuits × buyers × verification policy — plus the robustness
//! budget (per-job deadline, retry count).
//!
//! ```text
//! # fleet run for tape-out 2026-08
//! circuit c432  path:bench/c432.blif
//! circuit c499  path:bench/c499.blif
//! buyers 8
//! seed 0xDAC2015
//! verify budgeted:20000
//! deadline-ms 30000
//! retries 2
//! artifacts delta
//! window 2048
//! ```
//!
//! The format is deliberately not JSON: manifests are written by hand,
//! diffed in code review, and checksummed into the journal, so a flat
//! `directive value` grammar with `#` comments beats nested syntax.
//!
//! Two `probe:` sources exist purely to drill the fault-isolation
//! machinery (see DESIGN.md §10): `probe:panic` panics inside the job,
//! `probe:spin` burns wall-clock until its deadline fires. They let a
//! deployment verify — with the real binary, in CI — that a poisoned job
//! is quarantined and its neighbours finish.

use std::time::Duration;

use odcfp_netlist::Digest;

use crate::verify::VerifyPolicy;

/// A deliberately faulty pseudo-circuit for containment self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultProbe {
    /// Panics when the job runs — exercises `catch_unwind` isolation.
    Panic,
    /// Spins until the job's cancel token fires — exercises deadline
    /// enforcement. Hard-capped at 30 s so a misconfigured manifest
    /// (no `deadline-ms`) cannot hang a campaign forever.
    Spin,
}

/// Where a manifest circuit comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitSource {
    /// A design file on disk (`.blif` or `.v`), resolved by the caller's
    /// loader — the core crate never touches parsers.
    Path(String),
    /// A fault probe (see [`FaultProbe`]).
    Probe(FaultProbe),
}

/// One `circuit` line of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestCircuit {
    /// Unique name; becomes the first half of every job id.
    pub name: String,
    /// Where the design comes from.
    pub source: CircuitSource,
}

/// Which verification ladder each minted copy runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifySpec {
    /// Simulation rungs only ([`VerifyPolicy::quick`]).
    Quick,
    /// Full ladder with unbounded SAT ([`VerifyPolicy::strict`]).
    Strict,
    /// Budgeted ladder with the given total conflict budget
    /// ([`VerifyPolicy::budgeted`]).
    Budgeted(u64),
}

impl VerifySpec {
    /// The concrete [`VerifyPolicy`] this spec stands for.
    pub fn policy(&self) -> VerifyPolicy {
        match *self {
            VerifySpec::Quick => VerifyPolicy::quick(),
            VerifySpec::Strict => VerifyPolicy::strict(),
            VerifySpec::Budgeted(conflicts) => VerifyPolicy::budgeted(conflicts),
        }
    }
}

/// How buyer artifacts are materialized on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArtifactMode {
    /// One full netlist file per buyer (`artifacts/{circuit}_b{n}.v`).
    #[default]
    Full,
    /// The golden netlist once plus a delta codebook
    /// (`codebook.{circuit}.jsonl`); buyer copies re-mint on demand.
    /// Near-constant bytes per buyer — the million-buyer mode.
    Delta,
}

/// A parsed, validated campaign manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The circuits to fingerprint, in manifest order.
    pub circuits: Vec<ManifestCircuit>,
    /// Copies to mint per circuit (buyer indices `0..buyers`).
    pub buyers: usize,
    /// Root seed; each buyer's bits derive deterministically from it, so
    /// a resumed campaign re-mints bit-identical copies.
    pub seed: u64,
    /// Verification ladder per copy.
    pub verify: VerifySpec,
    /// Per-job wall-clock deadline (`deadline-ms`); `None` = unlimited.
    pub deadline: Option<Duration>,
    /// Retries after a failed attempt before the job is quarantined
    /// (total attempts = `retries + 1`).
    pub retries: u32,
    /// How buyer artifacts are materialized (`artifacts full|delta`).
    pub artifact_mode: ArtifactMode,
    /// Buyers per durability window in delta mode (`window N`): the
    /// codebook is fsynced and the journal advanced once per window.
    pub window: usize,
    digest: Digest,
}

/// One expanded job: a (circuit, buyer) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Stable journal id, `"{circuit}#{buyer}"`.
    pub id: String,
    /// Index into [`Manifest::circuits`].
    pub circuit: usize,
    /// Buyer index in `0..buyers`.
    pub buyer: usize,
}

/// A manifest syntax or validation error, with its 1-based line number
/// (0 for whole-file problems).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    /// 1-based line the problem was found on; 0 = whole file.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "manifest: {}", self.message)
        } else {
            write!(f, "manifest line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ManifestError {}

fn err(line: usize, message: impl Into<String>) -> ManifestError {
    ManifestError {
        line,
        message: message.into(),
    }
}

/// Parses a decimal or `0x`-prefixed hexadecimal integer.
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Manifest {
    /// Parses and validates manifest text.
    ///
    /// # Errors
    ///
    /// Returns the first syntax or validation problem, with its line
    /// number.
    pub fn parse(text: &str) -> Result<Manifest, ManifestError> {
        let mut circuits: Vec<ManifestCircuit> = Vec::new();
        let mut buyers = 1usize;
        let mut seed = 1u64;
        let mut verify = VerifySpec::Quick;
        let mut deadline = None;
        let mut retries = 2u32;
        let mut artifact_mode = ArtifactMode::Full;
        let mut window = 1024usize;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let directive = words.next().unwrap_or("");
            let rest: Vec<&str> = words.collect();
            let one = |what: &str| -> Result<&str, ManifestError> {
                match rest.as_slice() {
                    [v] => Ok(v),
                    _ => Err(err(
                        lineno,
                        format!("`{directive}` takes exactly one {what}"),
                    )),
                }
            };
            match directive {
                "circuit" => {
                    let [name, source] = rest.as_slice() else {
                        return Err(err(lineno, "`circuit` takes a name and a source"));
                    };
                    if !is_valid_name(name) {
                        return Err(err(
                            lineno,
                            format!(
                                "circuit name {name:?} must be [A-Za-z0-9._-]+ \
                                 (it becomes part of journal job ids)"
                            ),
                        ));
                    }
                    if circuits.iter().any(|c| c.name == *name) {
                        return Err(err(lineno, format!("duplicate circuit name {name:?}")));
                    }
                    let source = if let Some(path) = source.strip_prefix("path:") {
                        if path.is_empty() {
                            return Err(err(lineno, "empty `path:` source"));
                        }
                        CircuitSource::Path(path.to_owned())
                    } else if let Some(probe) = source.strip_prefix("probe:") {
                        match probe {
                            "panic" => CircuitSource::Probe(FaultProbe::Panic),
                            "spin" => CircuitSource::Probe(FaultProbe::Spin),
                            other => {
                                return Err(err(
                                    lineno,
                                    format!("unknown probe {other:?} (expected panic or spin)"),
                                ))
                            }
                        }
                    } else {
                        return Err(err(
                            lineno,
                            format!("source {source:?} must start with `path:` or `probe:`"),
                        ));
                    };
                    circuits.push(ManifestCircuit {
                        name: (*name).to_owned(),
                        source,
                    });
                }
                "buyers" => {
                    buyers = parse_u64(one("count")?)
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| err(lineno, "`buyers` needs a positive integer"))?
                        as usize;
                }
                "seed" => {
                    seed = parse_u64(one("value")?)
                        .ok_or_else(|| err(lineno, "`seed` needs an integer"))?;
                }
                "verify" => {
                    verify = match one("mode")? {
                        "quick" => VerifySpec::Quick,
                        "strict" => VerifySpec::Strict,
                        mode => match mode.strip_prefix("budgeted:").and_then(parse_u64) {
                            Some(conflicts) => VerifySpec::Budgeted(conflicts),
                            None => {
                                return Err(err(
                                    lineno,
                                    format!(
                                        "unknown verify mode {mode:?} \
                                         (expected quick, strict, or budgeted:<conflicts>)"
                                    ),
                                ))
                            }
                        },
                    };
                }
                "deadline-ms" => {
                    deadline = Some(Duration::from_millis(
                        parse_u64(one("milliseconds")?)
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| err(lineno, "`deadline-ms` needs a positive integer"))?,
                    ));
                }
                "retries" => {
                    retries = parse_u64(one("count")?)
                        .filter(|&n| n <= 100)
                        .ok_or_else(|| err(lineno, "`retries` needs an integer in 0..=100"))?
                        as u32;
                }
                "artifacts" => {
                    artifact_mode = match one("mode")? {
                        "full" => ArtifactMode::Full,
                        "delta" => ArtifactMode::Delta,
                        mode => {
                            return Err(err(
                                lineno,
                                format!("unknown artifact mode {mode:?} (expected full or delta)"),
                            ))
                        }
                    };
                }
                "window" => {
                    window = parse_u64(one("count")?)
                        .filter(|&n| (1..=1 << 20).contains(&n))
                        .ok_or_else(|| err(lineno, "`window` needs an integer in 1..=1048576"))?
                        as usize;
                }
                other => {
                    return Err(err(lineno, format!("unknown directive {other:?}")));
                }
            }
        }

        if circuits.is_empty() {
            return Err(err(0, "no `circuit` lines — nothing to do"));
        }

        Ok(Manifest {
            circuits,
            buyers,
            seed,
            verify,
            deadline,
            retries,
            artifact_mode,
            window,
            digest: Digest::of(text.as_bytes()),
        })
    }

    /// Digest of the manifest source text; journalled so a resume cannot
    /// silently mix two different job lists in one output directory.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Expands the manifest into its job list: circuits × buyers, in
    /// deterministic (circuit-major) order.
    pub fn jobs(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.circuits.len() * self.buyers);
        for (ci, circuit) in self.circuits.iter().enumerate() {
            for buyer in 0..self.buyers {
                jobs.push(JobSpec {
                    id: format!("{}#{buyer}", circuit.name),
                    circuit: ci,
                    buyer,
                });
            }
        }
        jobs
    }

    /// The per-buyer fingerprint seed: a fixed mix of the root seed and
    /// the buyer index, so bits are reproducible on resume and distinct
    /// across buyers.
    pub fn buyer_seed(&self, buyer: usize) -> u64 {
        self.seed ^ (buyer as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "\
# a comment\n\
circuit c17 path:bench/c17.blif   # trailing comment\n\
circuit bomb probe:panic\n\
circuit slow probe:spin\n\
buyers 3\n\
seed 0xDAC2015\n\
verify budgeted:5000\n\
deadline-ms 2500\n\
retries 1\n\
artifacts delta\n\
window 512\n";

    #[test]
    fn full_manifest_parses() {
        let m = Manifest::parse(FULL).expect("parse");
        assert_eq!(m.circuits.len(), 3);
        assert_eq!(
            m.circuits[0].source,
            CircuitSource::Path("bench/c17.blif".into())
        );
        assert_eq!(
            m.circuits[1].source,
            CircuitSource::Probe(FaultProbe::Panic)
        );
        assert_eq!(m.circuits[2].source, CircuitSource::Probe(FaultProbe::Spin));
        assert_eq!(m.buyers, 3);
        assert_eq!(m.seed, 0xDAC2015);
        assert_eq!(m.verify, VerifySpec::Budgeted(5000));
        assert_eq!(m.deadline, Some(Duration::from_millis(2500)));
        assert_eq!(m.retries, 1);
        assert_eq!(m.artifact_mode, ArtifactMode::Delta);
        assert_eq!(m.window, 512);
    }

    #[test]
    fn defaults_are_sensible() {
        let m = Manifest::parse("circuit a path:a.v\n").expect("parse");
        assert_eq!(m.buyers, 1);
        assert_eq!(m.verify, VerifySpec::Quick);
        assert_eq!(m.deadline, None);
        assert_eq!(m.retries, 2);
        assert_eq!(m.artifact_mode, ArtifactMode::Full);
        assert_eq!(m.window, 1024);
    }

    #[test]
    fn jobs_expand_circuit_major_with_stable_ids() {
        let m =
            Manifest::parse("circuit a path:a.v\ncircuit b path:b.v\nbuyers 2\n").expect("parse");
        let ids: Vec<String> = m.jobs().into_iter().map(|j| j.id).collect();
        assert_eq!(ids, ["a#0", "a#1", "b#0", "b#1"]);
    }

    #[test]
    fn buyer_seeds_are_distinct_and_deterministic() {
        let m = Manifest::parse("circuit a path:a.v\nbuyers 4\n").expect("parse");
        let seeds: Vec<u64> = (0..4).map(|b| m.buyer_seed(b)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert_eq!(seeds, (0..4).map(|b| m.buyer_seed(b)).collect::<Vec<_>>());
    }

    #[test]
    fn digest_tracks_source_text() {
        let a = Manifest::parse("circuit a path:a.v\n").expect("parse");
        let b = Manifest::parse("circuit a path:a.v\nbuyers 2\n").expect("parse");
        assert_ne!(a.digest(), b.digest());
        assert_eq!(
            a.digest(),
            Manifest::parse("circuit a path:a.v\n")
                .expect("parse")
                .digest()
        );
    }

    #[test]
    fn rejections_carry_line_numbers() {
        for (text, needle, line) in [
            ("circuit\n", "takes a name and a source", 1),
            ("circuit a b\n", "must start with", 1),
            ("circuit a probe:oops\n", "unknown probe", 1),
            ("circuit a/b path:x.v\n", "must be", 1),
            ("circuit a path:x.v\ncircuit a path:y.v\n", "duplicate", 2),
            ("circuit a path:x.v\nbuyers 0\n", "positive integer", 2),
            (
                "circuit a path:x.v\nverify turbo\n",
                "unknown verify mode",
                2,
            ),
            (
                "circuit a path:x.v\nartifacts sparse\n",
                "unknown artifact mode",
                2,
            ),
            ("circuit a path:x.v\nwindow 0\n", "1..=1048576", 2),
            ("circuit a path:x.v\nwat 3\n", "unknown directive", 2),
            ("circuit a path:\n", "empty `path:`", 1),
            ("", "no `circuit` lines", 0),
        ] {
            let e = Manifest::parse(text).expect_err(text);
            assert!(e.message.contains(needle), "{text:?} -> {e}");
            assert_eq!(e.line, line, "{text:?}");
        }
    }
}
