//! Trace reading and summarization: the engine behind `odcfp report
//! <trace.jsonl>` and the bench bins' stage breakdowns.
//!
//! Reading is tolerant end to end: lines that fail to parse (torn by a
//! kill, truncated by a full disk, written by a future schema) are
//! counted and skipped, never fatal. An empty or fully torn trace
//! produces an empty [`TraceData`] and a summary that says so.

use std::collections::BTreeMap;
use std::path::Path;

use crate::event::{Event, Kind};

/// A parsed trace plus bookkeeping about what could not be parsed.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Successfully parsed events, in file order.
    pub events: Vec<Event>,
    /// Count of non-empty lines that failed to parse as events.
    pub skipped_lines: usize,
}

/// Read a JSONL trace file from disk.
///
/// I/O errors (missing file, permissions) are returned; malformed
/// *content* never is — bad lines are skipped and counted.
pub fn read_trace(path: &Path) -> std::io::Result<TraceData> {
    // Lossy decode: a write torn mid-way through a multi-byte UTF-8
    // sequence (SIGKILL, full disk) must degrade to one skipped line,
    // not fail the whole read the way `read_to_string` would.
    let bytes = std::fs::read(path)?;
    Ok(parse_trace(&String::from_utf8_lossy(&bytes)))
}

/// Parse trace text (one JSON event per line, tolerant of bad lines).
pub fn parse_trace(text: &str) -> TraceData {
    let mut data = TraceData::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Event::from_json_line(line) {
            Some(ev) => data.events.push(ev),
            None => data.skipped_lines += 1,
        }
    }
    data
}

/// Project a trace onto its deterministic payload: one canonical line
/// per `det` event, in emission order, timestamps and durations
/// stripped.
///
/// Two runs of the same work — at any thread count, interrupted and
/// resumed or not — must produce identical projections for the
/// replay-stable subset of events; the differential tests compare
/// exactly this.
pub fn payload_lines(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.det)
        .map(Event::payload_line)
        .collect()
}

fn ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

#[derive(Default)]
struct SpanAgg {
    count: u64,
    dur_us: u64,
    self_us: u64,
}

/// Render a human-readable summary of a trace.
///
/// Sections (each omitted when empty): header with event/skip counts,
/// top spans by aggregate self time, counter totals, verdict and
/// fast-path histograms, and campaign job outcomes.
pub fn summarize(trace: &TraceData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} events ({} unparseable line{} skipped)\n",
        trace.events.len(),
        trace.skipped_lines,
        if trace.skipped_lines == 1 { "" } else { "s" },
    ));
    if trace.events.is_empty() {
        out.push_str("warning: no events — trace is empty or entirely torn\n");
        return out;
    }
    if let (Some(first), Some(last)) = (trace.events.first(), trace.events.last()) {
        out.push_str(&format!(
            "wall clock: {:.3} ms (t_us {}..{})\n",
            ms(last.t_us.saturating_sub(first.t_us)),
            first.t_us,
            last.t_us
        ));
    }

    // Spans, aggregated by name, ranked by total self time.
    let mut spans: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind != Kind::Span {
            continue;
        }
        let agg = spans.entry(&ev.name).or_default();
        agg.count += 1;
        agg.dur_us += ev.dur_us.unwrap_or(0);
        agg.self_us += ev.self_us.unwrap_or(0);
    }
    if !spans.is_empty() {
        let mut rows: Vec<(&str, SpanAgg)> = spans.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
        let name_w = rows
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max("span".len());
        out.push_str("\nspans (by self time):\n");
        out.push_str(&format!(
            "  {:<name_w$}  {:>7}  {:>12}  {:>12}  {:>12}\n",
            "span", "count", "total ms", "self ms", "mean ms"
        ));
        for (name, agg) in &rows {
            out.push_str(&format!(
                "  {:<name_w$}  {:>7}  {:>12.3}  {:>12.3}  {:>12.3}\n",
                name,
                agg.count,
                ms(agg.dur_us),
                ms(agg.self_us),
                ms(agg.dur_us) / agg.count as f64,
            ));
        }
    }

    // Counter totals.
    let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind == Kind::Count {
            *counters.entry(&ev.name).or_default() += ev.field_u64("v").unwrap_or(0);
        }
    }
    if !counters.is_empty() {
        out.push_str("\ncounters:\n");
        let name_w = counters.keys().map(|n| n.len()).max().unwrap_or(4);
        for (name, total) in &counters {
            out.push_str(&format!("  {name:<name_w$}  {total}\n"));
        }
    }

    // Histogram of a point event over one string field.
    let histogram = |event_name: &str, field: &str| -> Vec<(String, u64)> {
        let mut h: BTreeMap<&str, u64> = BTreeMap::new();
        for ev in &trace.events {
            if ev.kind == Kind::Point && ev.name == event_name {
                if let Some(v) = ev.field_str(field) {
                    *h.entry(v).or_default() += 1;
                }
            }
        }
        h.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
    };

    let verdicts = histogram("verify.verdict", "verdict");
    if !verdicts.is_empty() {
        let total: u64 = verdicts.iter().map(|(_, n)| n).sum();
        out.push_str(&format!("\nverify verdicts ({total} checks):\n"));
        for (v, n) in &verdicts {
            out.push_str(&format!("  {v:<20}  {n}\n"));
        }
    }

    let reasons = histogram("verify.fastpath", "reason");
    if !reasons.is_empty() {
        let total: u64 = reasons.iter().map(|(_, n)| n).sum();
        // "Hit" = the sweep settled it without a cold whole-circuit
        // miter; the reason names come from the verify fast path.
        let hits: u64 = reasons
            .iter()
            .filter(|(r, _)| matches!(r.as_str(), "strash" | "cutpoint" | "sat" | "refuted"))
            .map(|(_, n)| n)
            .sum();
        out.push_str(&format!(
            "\nfast path: {hits}/{total} hits ({:.1}%)\n",
            100.0 * hits as f64 / total as f64
        ));
        for (r, n) in &reasons {
            out.push_str(&format!("  {r:<20}  {n}\n"));
        }
    }

    let outcomes = histogram("campaign.job.outcome", "verdict");
    if !outcomes.is_empty() {
        let total: u64 = outcomes.iter().map(|(_, n)| n).sum();
        out.push_str(&format!("\ncampaign job outcomes ({total} jobs):\n"));
        for (v, n) in &outcomes {
            out.push_str(&format!("  {v:<20}  {n}\n"));
        }
    }
    summarize_attack(trace, &mut out);

    let quarantined = trace
        .events
        .iter()
        .filter(|e| e.kind == Kind::Point && e.name == "campaign.quarantine")
        .count();
    if quarantined > 0 {
        out.push_str(&format!("quarantined jobs: {quarantined}\n"));
        for ev in &trace.events {
            if ev.name == "campaign.quarantine" {
                let job = ev.field_str("job").unwrap_or("?");
                let diag = ev.field_str("diagnostic").unwrap_or("");
                out.push_str(&format!("  {job}: {diag}\n"));
            }
        }
    }
    out
}

/// The `attack.*` sections of [`summarize`]: per-pass resynthesis
/// survival, the collusion conviction table, and side-channel
/// detectability. Each is omitted when the trace holds no such events.
fn summarize_attack(trace: &TraceData, out: &mut String) {
    use crate::event::Value;

    // Resynthesis survival histogram, one row per effort level.
    #[derive(Default)]
    struct LevelAgg {
        passes: u64,
        surviving: u64,
        identifiable: u64,
        phantom: u64,
        convicted: u64,
    }
    let mut levels: BTreeMap<&str, LevelAgg> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind != Kind::Point || ev.name != "attack.resynth.survival" {
            continue;
        }
        let level = ev.field_str("level").unwrap_or("?");
        let agg = levels.entry(level).or_default();
        agg.passes += 1;
        agg.surviving += ev.field_u64("surviving").unwrap_or(0);
        agg.identifiable += ev.field_u64("identifiable").unwrap_or(0);
        agg.phantom += ev.field_u64("phantom").unwrap_or(0);
        if matches!(ev.field("victim_convicted"), Some(Value::Bool(true))) {
            agg.convicted += 1;
        }
    }
    if !levels.is_empty() {
        let total_passes: u64 = levels.values().map(|a| a.passes).sum();
        out.push_str(&format!(
            "\nattack resynthesis survival ({total_passes} pass{}):\n",
            if total_passes == 1 { "" } else { "es" }
        ));
        out.push_str(&format!(
            "  {:<8}  {:>6}  {:>12}  {:>9}  {:>8}  {:>9}\n",
            "level", "passes", "surviving", "survival", "phantoms", "convicted"
        ));
        for (level, agg) in &levels {
            let rate = if agg.identifiable == 0 {
                100.0
            } else {
                100.0 * agg.surviving as f64 / agg.identifiable as f64
            };
            out.push_str(&format!(
                "  {:<8}  {:>6}  {:>6}/{:<5}  {:>8.1}%  {:>8}  {:>9}\n",
                level,
                agg.passes,
                agg.surviving,
                agg.identifiable,
                rate,
                agg.phantom,
                agg.convicted
            ));
        }
    }

    // Collusion conviction table, one row per (coalition, strategy) cell.
    #[derive(Default)]
    struct CellAgg {
        cells: u64,
        convicted: u64,
        innocents: u64,
        outcomes: BTreeMap<String, u64>,
    }
    let mut cells: BTreeMap<(u64, String), CellAgg> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind != Kind::Point || ev.name != "attack.collusion.verdict" {
            continue;
        }
        let n = ev.field_u64("coalition").unwrap_or(0);
        let strategy = ev.field_str("strategy").unwrap_or("?").to_owned();
        let agg = cells.entry((n, strategy)).or_default();
        agg.cells += 1;
        agg.convicted += ev.field_u64("colluders_convicted").unwrap_or(0);
        agg.innocents += ev.field_u64("innocents_accused").unwrap_or(0);
        *agg.outcomes
            .entry(ev.field_str("outcome").unwrap_or("?").to_owned())
            .or_default() += 1;
    }
    if !cells.is_empty() {
        let runs: u64 = cells.values().map(|a| a.cells).sum();
        let framed: u64 = cells.values().map(|a| a.innocents).sum();
        out.push_str(&format!(
            "\nattack collusion verdicts ({runs} cell{}, {framed} innocents accused):\n",
            if runs == 1 { "" } else { "s" }
        ));
        out.push_str(&format!(
            "  {:<4}  {:<10}  {:>9}  {:>9}  outcomes\n",
            "n", "strategy", "convicted", "innocents"
        ));
        for ((n, strategy), agg) in &cells {
            let outcomes: Vec<String> = agg
                .outcomes
                .iter()
                .map(|(o, c)| {
                    if *c == 1 {
                        o.clone()
                    } else {
                        format!("{o}×{c}")
                    }
                })
                .collect();
            out.push_str(&format!(
                "  {:<4}  {:<10}  {:>9}  {:>9}  {}\n",
                n,
                strategy,
                agg.convicted,
                agg.innocents,
                outcomes.join(", ")
            ));
        }
    }

    // Side-channel detectability.
    let mut copies = 0u64;
    let mut detectable = 0u64;
    let mut max_ppm = 0u64;
    for ev in &trace.events {
        if ev.kind != Kind::Point || ev.name != "attack.sidechannel.copy" {
            continue;
        }
        copies += 1;
        if matches!(ev.field("detectable"), Some(Value::Bool(true))) {
            detectable += 1;
        }
        max_ppm = max_ppm.max(ev.field_u64("distance_ppm").unwrap_or(0));
    }
    if copies > 0 {
        out.push_str(&format!(
            "\nattack side-channel: {detectable}/{copies} copies detectable \
             (max distance {max_ppm} ppm)\n"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Kind, Value};

    fn span_ev(name: &str, dur: u64, slf: u64) -> Event {
        let mut e = Event::new(Kind::Span, name, false);
        e.dur_us = Some(dur);
        e.self_us = Some(slf);
        e
    }

    #[test]
    fn empty_trace_summarizes_with_warning() {
        let data = parse_trace("");
        let s = summarize(&data);
        assert!(s.contains("0 events"));
        assert!(s.contains("warning: no events"));
    }

    #[test]
    fn torn_lines_are_counted_not_fatal() {
        let good = {
            let mut e = Event::new(Kind::Count, "x", true);
            e.fields.push(("v".into(), Value::U64(2)));
            e.to_json_line()
        };
        let text = format!("{good}\n{{\"seq\":9,\"t_us\":1,\"ki\ngarbage line\n{good}\n");
        let data = parse_trace(&text);
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.skipped_lines, 2);
        let s = summarize(&data);
        assert!(s.contains("2 unparseable lines skipped"));
        assert!(
            s.contains("x  4") || s.contains("x 4"),
            "counter summed: {s}"
        );
    }

    #[test]
    fn truncated_trace_file_with_torn_utf8_reads_lossily() {
        // A trace killed mid-append can end in a partial line cut
        // inside a multi-byte UTF-8 sequence. `read_trace` must treat
        // that as one skipped line, not an I/O-level failure.
        let good = {
            let mut e = Event::new(Kind::Count, "x", true);
            e.fields.push(("v".into(), Value::U64(7)));
            e.to_json_line()
        };
        let mut bytes = good.clone().into_bytes();
        bytes.push(b'\n');
        // "é" is 0xC3 0xA9; keep only the first byte of it.
        bytes.extend_from_slice(b"{\"seq\":2,\"name\":\"caf\xC3");
        let path = std::env::temp_dir().join("odcfp-obs-torn-trace.jsonl");
        std::fs::write(&path, &bytes).expect("write fixture");
        let data = read_trace(&path).expect("torn content is not an I/O error");
        let _ = std::fs::remove_file(&path);
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.skipped_lines, 1);
        assert!(summarize(&data).contains("1 unparseable line skipped"));
    }

    #[test]
    fn payload_projection_filters_and_strips() {
        let mut det = Event::new(Kind::Point, "verify.verdict", true);
        det.seq = 5;
        det.t_us = 123;
        det.fields
            .push(("verdict".into(), Value::Str("proven".into())));
        let nondet = span_ev("verify.sat", 100, 80);
        let lines = payload_lines(&[nondet, det]);
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0],
            "{\"kind\":\"point\",\"name\":\"verify.verdict\",\"fields\":{\"verdict\":\"proven\"}}"
        );
    }

    #[test]
    fn summary_ranks_spans_by_self_time() {
        let data = TraceData {
            events: vec![
                span_ev("cheap", 50, 50),
                span_ev("hot", 1000, 900),
                span_ev("hot", 1000, 900),
                span_ev("wrapper", 3000, 10),
            ],
            skipped_lines: 0,
        };
        let s = summarize(&data);
        let hot = s.find("  hot").expect("hot listed");
        let wrapper = s.find("  wrapper").expect("wrapper listed");
        assert!(hot < wrapper, "self-time ordering:\n{s}");
    }

    #[test]
    fn attack_sections_summarize_through_the_lossy_reader() {
        // Fixture: the attack battery's det points, with a line torn
        // mid-write (killed run) between them — the same lossy path PR 6
        // built for campaign journals must carry attack traces too.
        let resynth = |level: &str, surviving: u64, identifiable: u64, convicted: bool| {
            let mut e = Event::new(Kind::Point, "attack.resynth.survival", true);
            e.fields.push(("level".into(), Value::Str(level.into())));
            e.fields.push(("surviving".into(), Value::U64(surviving)));
            e.fields
                .push(("identifiable".into(), Value::U64(identifiable)));
            e.fields.push(("phantom".into(), Value::U64(0)));
            e.fields
                .push(("victim_convicted".into(), Value::Bool(convicted)));
            e.to_json_line()
        };
        let collusion = {
            let mut e = Event::new(Kind::Point, "attack.collusion.verdict", true);
            e.fields.push(("coalition".into(), Value::U64(4)));
            e.fields
                .push(("strategy".into(), Value::Str("random".into())));
            e.fields
                .push(("outcome".into(), Value::Str("convicted".into())));
            e.fields.push(("colluders_convicted".into(), Value::U64(2)));
            e.fields.push(("innocents_accused".into(), Value::U64(0)));
            e.to_json_line()
        };
        let sidechannel = {
            let mut e = Event::new(Kind::Point, "attack.sidechannel.copy", true);
            e.fields.push(("buyer".into(), Value::U64(0)));
            e.fields.push(("distance_ppm".into(), Value::U64(137)));
            e.fields.push(("detectable".into(), Value::Bool(true)));
            e.to_json_line()
        };
        let text = format!(
            "{}\n{{\"seq\":7,\"t_us\":3,\"name\":\"attack.resy\n{}\n{}\n{}\n",
            resynth("opt", 70, 73, true),
            resynth("remap", 51, 73, false),
            collusion,
            sidechannel,
        );
        let data = parse_trace(&text);
        assert_eq!(data.events.len(), 4);
        assert_eq!(data.skipped_lines, 1, "torn line skipped, not fatal");
        let s = summarize(&data);
        assert!(s.contains("attack resynthesis survival (2 passes)"), "{s}");
        assert!(s.contains("opt"), "{s}");
        assert!(s.contains("95.9%"), "opt row 70/73:\n{s}");
        assert!(
            s.contains("attack collusion verdicts (1 cell, 0 innocents accused)"),
            "{s}"
        );
        assert!(s.contains("random"), "{s}");
        assert!(
            s.contains("attack side-channel: 1/1 copies detectable"),
            "{s}"
        );
        assert!(s.contains("137 ppm"), "{s}");
    }

    #[test]
    fn fastpath_hit_rate_reported() {
        let mk = |reason: &str| {
            let mut e = Event::new(Kind::Point, "verify.fastpath", true);
            e.fields.push(("reason".into(), Value::Str(reason.into())));
            e
        };
        let data = TraceData {
            events: vec![mk("strash"), mk("strash"), mk("cutpoint"), mk("undecided")],
            skipped_lines: 0,
        };
        let s = summarize(&data);
        assert!(s.contains("fast path: 3/4 hits (75.0%)"), "{s}");
    }
}
