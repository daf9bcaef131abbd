//! Structured tracing, per-stage metrics and profiling hooks for the
//! ODC fingerprinting pipeline.
//!
//! This crate is the observability layer threaded through the hot paths
//! of the workspace: the analysis engine, the verification ladder and
//! fast path, and the campaign runner. It is zero-dependency and built
//! around two invariants:
//!
//! 1. **Near-zero overhead when disabled.** Every instrumentation site
//!    first consults [`enabled`], a single relaxed atomic load. With no
//!    sink installed, a span or event costs one predictable branch — no
//!    allocation, no clock read, no lock (guarded by the
//!    `obs_overhead` microbench and the overhead gate in
//!    `tests/verify_fastpath.rs`).
//! 2. **Deterministic payloads.** Events flagged `det` carry only
//!    thread-invariant values and are emitted from deterministic control
//!    points, so the projection of a trace to its `det` events'
//!    `{kind, name, fields}` — see [`Event::payload_line`] — is
//!    bit-identical at any thread count. Timing events (spans, worker
//!    activity) are non-`det` and excluded from the projection.
//!
//! # Emitting
//!
//! ```
//! let (sum, events) = odcfp_obs::capture(|| {
//!     let _span = odcfp_obs::span("demo.work");       // timed scope
//!     odcfp_obs::count("demo.items", 3);              // det counter
//!     odcfp_obs::point("demo.verdict")                // det point
//!         .field("result", "proven")
//!         .emit();
//!     1 + 2
//! })
//! .expect("no other sink installed");
//! assert_eq!(sum, 3);
//! assert_eq!(events.len(), 3); // count, point, then the closing span
//! assert_eq!(events[2].name, "demo.work");
//! ```
//!
//! For production use, install a JSONL sink once near `main` (the CLI
//! does this for `--trace-out` / `ODCFP_TRACE`) and drop the returned
//! [`SinkGuard`] to flush and detach:
//!
//! ```no_run
//! let sink = odcfp_obs::JsonlSink::create(std::path::Path::new("trace.jsonl")).unwrap();
//! let guard = odcfp_obs::install(Box::new(sink)).expect("no sink active");
//! // ... traced work ...
//! drop(guard);
//! ```
//!
//! # Spans and self time
//!
//! [`span`] returns an RAII guard that emits a `Kind::Span` event when
//! dropped, carrying wall-clock `dur_us` and `self_us` = duration minus
//! time spent in child spans *on the same thread* (tracked via a
//! thread-local accumulator). Spans must not be sent across threads;
//! per-worker timing uses one span per worker closure instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod report;
pub mod sink;

use std::cell::Cell;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub use event::{Event, Kind, Value, SCHEMA};
pub use report::{payload_lines, read_trace, summarize, TraceData};
pub use sink::{JsonlSink, MemorySink, Sink};

use std::sync::atomic::{AtomicBool, Ordering};

/// Fast-path gate: true iff a sink is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

struct SinkState {
    sink: Box<dyn Sink>,
    seq: u64,
    epoch: Instant,
}

static SINK: Mutex<Option<SinkState>> = Mutex::new(None);

/// Serializes [`capture`] calls so concurrent tests don't fight over the
/// process-global sink.
static CAPTURE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

thread_local! {
    /// Microseconds spent in already-closed child spans of the innermost
    /// open span on this thread (used for self-time attribution).
    static CHILD_US: Cell<u64> = const { Cell::new(0) };
}

/// Whether instrumentation is live. One relaxed atomic load.
///
/// Instrumentation sites with non-trivial field computation should guard
/// on this before doing any work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Error returned when a sink is already installed.
#[derive(Debug)]
pub struct InstallBusy;

impl std::fmt::Display for InstallBusy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("an observability sink is already installed in this process")
    }
}

impl std::error::Error for InstallBusy {}

/// Detaches the installed sink (flushing it) when dropped.
#[must_use = "dropping the guard uninstalls the sink"]
pub struct SinkGuard(());

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut slot = lock_sink();
        if let Some(state) = slot.as_mut() {
            state.sink.flush();
        }
        *slot = None;
        ENABLED.store(false, Ordering::Relaxed);
    }
}

fn lock_sink() -> MutexGuard<'static, Option<SinkState>> {
    // A panic while holding the lock only interrupts a sink write; the
    // state is still coherent, so recover rather than poison tracing.
    SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Install `sink` as the process-global event destination.
///
/// Fails with [`InstallBusy`] if another sink (including a [`capture`]
/// in progress) is active. The trace clock starts now: `t_us` on events
/// counts from this call.
pub fn install(sink: Box<dyn Sink>) -> Result<SinkGuard, InstallBusy> {
    let mut slot = lock_sink();
    if slot.is_some() {
        return Err(InstallBusy);
    }
    *slot = Some(SinkState {
        sink,
        seq: 0,
        epoch: Instant::now(),
    });
    ENABLED.store(true, Ordering::Relaxed);
    Ok(SinkGuard(()))
}

/// Flush the installed sink, if any.
pub fn flush() {
    if let Some(state) = lock_sink().as_mut() {
        state.sink.flush();
    }
}

/// Run `f` with a temporary in-memory sink and return its events.
///
/// Calls are serialized process-wide, so parallel tests can use this
/// freely; it fails with [`InstallBusy`] only if a *non-capture* sink is
/// already installed (e.g. a CLI trace is active).
pub fn capture<R>(f: impl FnOnce() -> R) -> Result<(R, Vec<Event>), InstallBusy> {
    let _serial = lock_capture();
    let buf = Arc::new(Mutex::new(Vec::new()));
    let guard = install(Box::new(MemorySink::shared(Arc::clone(&buf))))?;
    let result = f();
    drop(guard);
    let events = match buf.lock() {
        Ok(mut events) => std::mem::take(&mut *events),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    };
    Ok((result, events))
}

/// Holds off every other [`capture`] until the guard drops.
fn lock_capture() -> MutexGuard<'static, ()> {
    let lock = CAPTURE_LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Install a [`JsonlSink`] at `path`, creating parent directories.
///
/// `append` controls whether an existing trace is extended (used by
/// `campaign --resume`) or truncated.
pub fn install_jsonl(path: &Path, append: bool) -> Result<SinkGuard, String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create trace directory {}: {e}", parent.display()))?;
        }
    }
    let sink = if append {
        JsonlSink::append(path)
    } else {
        JsonlSink::create(path)
    }
    .map_err(|e| format!("cannot open trace file {}: {e}", path.display()))?;
    install(Box::new(sink)).map_err(|e| e.to_string())
}

fn emit(mut event: Event) {
    let mut slot = lock_sink();
    if let Some(state) = slot.as_mut() {
        event.seq = state.seq;
        state.seq += 1;
        event.t_us = u64::try_from(state.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.sink.record(&event);
    }
}

/// Builder for a single event; a no-op shell when tracing is disabled.
#[must_use = "call .emit() to record the event"]
pub struct EventBuilder(Option<Event>);

impl EventBuilder {
    /// Attach a typed field. Field order is part of the payload.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> EventBuilder {
        if let Some(ev) = self.0.as_mut() {
            ev.fields.push((key.to_owned(), value.into()));
        }
        self
    }

    /// Mark the event as non-deterministic (excluded from the payload
    /// projection). Use for values that vary with thread count or
    /// timing, e.g. per-worker activity.
    pub fn nondet(mut self) -> EventBuilder {
        if let Some(ev) = self.0.as_mut() {
            ev.det = false;
        }
        self
    }

    /// Record the event through the installed sink.
    pub fn emit(self) {
        if let Some(ev) = self.0 {
            emit(ev);
        }
    }
}

/// Start building a deterministic `Point` event.
///
/// Point events are the backbone of the payload contract: verdicts,
/// fast-path reasons, job outcomes. Call only from deterministic control
/// points with thread-invariant field values, or add [`EventBuilder::nondet`].
#[inline]
pub fn point(name: &str) -> EventBuilder {
    if !enabled() {
        return EventBuilder(None);
    }
    EventBuilder(Some(Event::new(Kind::Point, name, true)))
}

/// Emit a deterministic counter increment: `name` += `value`.
///
/// Counters with equal names are summed by the report; the sequence of
/// increments is itself part of the payload.
#[inline]
pub fn count(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let mut ev = Event::new(Kind::Count, name, true);
    ev.fields.push(("v".to_owned(), Value::U64(value)));
    emit(ev);
}

/// An RAII timed scope; emits a `Kind::Span` event when dropped.
///
/// Spans are always non-`det` (their durations vary run to run). The
/// thread-local child-time accumulator gives each span a `self_us` =
/// duration minus enclosed child spans, so the report's "top spans by
/// self time" attributes cost to the code that actually spent it.
pub struct Span(Option<SpanInner>);

struct SpanInner {
    name: String,
    start: Instant,
    saved_child_us: u64,
    fields: Vec<(String, Value)>,
}

/// Open a timed span. Inert (no clock read, no allocation) when
/// tracing is disabled.
#[inline]
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let saved_child_us = CHILD_US.with(|c| c.replace(0));
    Span(Some(SpanInner {
        name: name.to_owned(),
        start: Instant::now(),
        saved_child_us,
        fields: Vec::new(),
    }))
}

impl Span {
    /// Attach a field to the span's closing event.
    pub fn field(&mut self, key: &str, value: impl Into<Value>) {
        if let Some(inner) = self.0.as_mut() {
            inner.fields.push((key.to_owned(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        let dur_us = u64::try_from(inner.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let child_us = CHILD_US.with(|c| {
            let children = c.get();
            // Credit this span's full duration to the parent's children.
            c.set(inner.saved_child_us.saturating_add(dur_us));
            children
        });
        let mut ev = Event::new(Kind::Span, &inner.name, false);
        ev.dur_us = Some(dur_us);
        ev.self_us = Some(dur_us.saturating_sub(child_us));
        ev.fields = inner.fields;
        emit(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_instrumentation_is_inert() {
        // No other test's capture may hold the sink meanwhile.
        let _serial = lock_capture();
        assert!(!enabled());
        let mut s = span("never.recorded");
        s.field("k", 1u64);
        drop(s);
        count("never.counted", 5);
        point("never.pointed").field("a", true).emit();
        // Nothing installed, nothing panicked: that's the contract.
    }

    #[test]
    fn capture_collects_events_in_order() {
        let ((), events) = capture(|| {
            count("a", 1);
            point("b").field("x", 2u64).emit();
            count("a", 3);
        })
        .expect("no sink installed");
        assert_eq!(
            events.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["a", "b", "a"]
        );
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[2].seq, 2);
        assert!(events.iter().all(|e| e.det));
        assert_eq!(events[2].field_u64("v"), Some(3));
    }

    #[test]
    fn span_self_time_excludes_children() {
        let ((), events) = capture(|| {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        })
        .expect("no sink installed");
        // Children close before parents.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        let inner_dur = events[0].dur_us.expect("span has duration");
        let outer_dur = events[1].dur_us.expect("span has duration");
        let outer_self = events[1].self_us.expect("span has self time");
        assert!(outer_dur >= inner_dur);
        assert_eq!(outer_self, outer_dur - inner_dur);
        assert_eq!(events[0].self_us, events[0].dur_us);
        assert!(!events[0].det, "spans are never part of the payload");
    }

    #[test]
    fn sibling_spans_each_charge_the_parent() {
        let ((), events) = capture(|| {
            let _outer = span("outer");
            for _ in 0..2 {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
        })
        .expect("no sink installed");
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner_total: u64 = events
            .iter()
            .filter(|e| e.name == "inner")
            .map(|e| e.dur_us.unwrap_or(0))
            .sum();
        let dur = outer.dur_us.expect("duration");
        let slf = outer.self_us.expect("self");
        assert_eq!(slf, dur - inner_total);
    }

    #[test]
    fn install_is_exclusive() {
        let ((), _) = capture(|| {
            assert!(enabled());
            let err = install(Box::new(MemorySink::shared(Arc::new(Mutex::new(
                Vec::new(),
            )))));
            assert!(err.is_err(), "second install must fail");
        })
        .expect("no sink installed");
        // Checked before any other test's capture can install its sink.
        let _serial = lock_capture();
        assert!(!enabled(), "guard drop disables tracing");
    }

    #[test]
    fn nondet_builder_flag_round_trips() {
        let ((), events) = capture(|| {
            point("worker.activity")
                .field("worker", 3u64)
                .nondet()
                .emit();
        })
        .expect("no sink installed");
        assert!(!events[0].det);
        let line = events[0].to_json_line();
        let back = Event::from_json_line(&line).expect("parses");
        assert!(!back.det);
    }
}
