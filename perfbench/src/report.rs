//! The result of one run: the contract's final JSON line, the named
//! metrics with their sample counts, and provenance.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::stats::Percentile;
use crate::{Config, Scale, ENGINE_THREADS};

/// End-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. What each means on each workload is in `NOTES.md`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("lat2_p50_ms", "ms"),
    ("lat2_tail_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1`, as
/// `(name, unit)`. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("synth.generate_ms", "ms"),
    ("verilog.parse_ms", "ms"),
    ("verilog.parse_mb_per_s", "MB/s"),
    ("verilog.write_ms", "ms"),
    ("locate.ms", "ms"),
    ("locate.locations", "count"),
    ("embed.ms", "ms"),
    ("embed.bits", "count"),
    ("extract.ms", "ms"),
    ("verify.ms", "ms"),
    ("verify.patterns", "count"),
    ("verify.sat_conflicts", "count"),
    ("verify.cut_points_proven", "count"),
    ("verify.undecided", "count"),
    ("verify.fast_path_ratio", "ratio"),
    ("verify.cut_point_yield", "ratio"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.restarts", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("campaign.golden_ms", "ms"),
    ("codespace.proof_ms", "ms"),
    ("codespace.proof_conflicts", "count"),
    ("campaign.window_ms_p50", "ms"),
    ("campaign.windows", "count"),
    ("codebook.bytes_per_buyer", "B"),
    ("codebook.read_ms", "ms"),
    ("collusion.index_build_ms", "ms"),
    ("collusion.trace_ms", "ms"),
    ("collusion.innocents_accused", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.batched_ratio", "ratio"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.backlog_max", "count"),
    ("serve.sched_lag_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("unattributed.embed", "ratio"),
    ("unattributed.extract", "ratio"),
    ("unattributed.verify", "ratio"),
    ("unattributed.campaign", "ratio"),
    ("unattributed.trace", "ratio"),
    ("unattributed.request", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("run.failed_ratio", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a percentile: samples behind it and samples beyond its rank.
    pub samples: Option<(usize, usize)>,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Wrong answers (also counted in `failed`); any makes the run fail.
    pub wrong: u64,
    /// First wrong answers, for the log.
    pub wrong_examples: Vec<String>,
    /// Contract end-to-end metrics, by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics, by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's metrics under their descriptive names, in order.
    pub named: Vec<Metric>,
    /// Provenance fields, values already rendered as JSON.
    pub provenance: Vec<(String, String)>,
}

impl Report {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed or refused operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.fail_n(1, why);
    }

    /// Counts `n` failed or refused operations with one reason.
    pub fn fail_n(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.note(why.into());
    }

    /// Counts an operation whose answer differs from the known answer.
    pub fn wrong(&mut self, why: impl Into<String>) {
        self.wrong_n(1, why);
    }

    /// Counts `n` operations whose answers differ from their known
    /// answers, with one reason.
    pub fn wrong_n(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.wrong += n;
        self.note(why.into());
    }

    fn note(&mut self, why: String) {
        if self.wrong_examples.len() < 8 {
            self.wrong_examples.push(why);
        }
    }

    /// Whether every answer matched its known answer.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// Records a plain named metric.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples: None,
        });
    }

    /// Records a named percentile with its sample count.
    pub fn named_pct(&mut self, name: &str, p: Percentile, unit: &'static str) {
        self.named.push(Metric {
            name: name.to_owned(),
            value: p.value,
            unit,
            samples: Some((p.samples, p.beyond)),
        });
    }

    /// Sets a contract end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Adds a provenance field whose value is already JSON.
    pub fn prov(&mut self, key: &str, json_value: impl Into<String>) {
        self.provenance.push((key.to_owned(), json_value.into()));
    }

    /// Adds the provenance every run carries.
    pub fn add_provenance(&mut self, config: &Config) {
        let failed_ratio = crate::stats::ratio(self.failed as f64, self.attempted as f64);
        self.named("failed_ratio", failed_ratio, "ratio");
        self.layer("run.failed_ratio", failed_ratio);
        self.e2e("peak_rss_mb", peak_rss_mb());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let mut head = vec![
            ("workload".to_owned(), json_str(config.workload.name())),
            ("seed".to_owned(), config.seed.to_string()),
            ("run_seconds".to_owned(), json_num(config.seconds)),
            ("trace".to_owned(), config.trace.to_string()),
            (
                "scale".to_owned(),
                json_str(if config.scale == Scale::Full {
                    "full"
                } else {
                    "smoke"
                }),
            ),
            ("engine_threads".to_owned(), ENGINE_THREADS.to_string()),
            ("nproc".to_owned(), nproc.to_string()),
            ("git_rev".to_owned(), json_str(&git_rev())),
            ("source_digest".to_owned(), json_str(&source_digest())),
        ];
        head.append(&mut self.provenance);
        self.provenance = head;
    }

    /// The line before the result: provenance plus the named metrics
    /// with units and sample counts.
    pub fn detail_line(&self) -> String {
        let mut out = String::from("{\"provenance\":{");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
        }
        out.push_str("},\"named\":{");
        for (i, m) in self.named.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"",
                if i > 0 { "," } else { "" },
                m.name,
                json_num(m.value),
                m.unit
            );
            if let Some((n, beyond)) = m.samples {
                let _ = write!(out, ",\"samples\":{n},\"beyond\":{beyond}");
            }
            out.push('}');
        }
        if !self.wrong_examples.is_empty() {
            out.push_str("},\"failures\":[");
            for (i, w) in self.wrong_examples.iter().enumerate() {
                let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, json_str(w));
            }
            out.push(']');
        } else {
            out.push('}');
        }
        out.push('}');
        out
    }

    /// The contract's final line: `correct`, `attempted`, `failed`, and
    /// the end-to-end (untraced) or per-layer (traced) metrics.
    pub fn result_line(&self, traced: bool) -> String {
        let (names, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER[..], &self.layers)
        } else {
            (&END_TO_END[..], &self.end_to_end)
        };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = values.get(name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                if i > 0 { "," } else { "" },
                json_num(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Renders a finite number with all its digits; non-finite becomes 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Renders a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", odcfp_serve::proto::escape_json(s))
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `git rev-parse HEAD` of the working directory, or `"unavailable"`
/// outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus
/// `Cargo.lock`, in path order: identifies the measured source when the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unavailable".to_owned();
    }
    files.push("Cargo.lock".into());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}
