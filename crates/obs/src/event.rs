//! The trace event model and its canonical JSONL serialization.
//!
//! Every record in a trace is one [`Event`]. Serialization uses a fixed
//! key order and no whitespace so that identical payloads produce
//! byte-identical lines; parsing (via [`Event::from_json_line`]) ignores
//! unknown keys so old readers tolerate newer traces.

use crate::json::Json;

/// Trace schema identifier written by sinks and checked by readers.
///
/// Bump the suffix when the serialized shape changes incompatibly.
pub const SCHEMA: &str = "odcfp-trace/1";

/// What sort of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A closed lexical scope with duration and self-time attribution.
    Span,
    /// A monotonically accumulating counter increment.
    Count,
    /// An instantaneous structured fact (verdict, lifecycle marker, ...).
    Point,
}

impl Kind {
    /// Canonical lower-case name used on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Count => "count",
            Kind::Point => "point",
        }
    }

    /// Parse a wire name back into a [`Kind`].
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "span" => Some(Kind::Span),
            "count" => Some(Kind::Count),
            "point" => Some(Kind::Point),
            _ => None,
        }
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (verdict names, reasons, paths).
    Str(String),
    /// Floating point. Avoid in `det` events: only integers have a
    /// canonical wire form that is trivially bit-stable.
    F64(f64),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                out.push_str(&v.to_string());
            }
            Value::I64(v) => {
                out.push_str(&v.to_string());
            }
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => write_json_string(s, out),
            Value::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is the shortest round-trip form; stable for
                    // equal inputs.
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
        }
    }

    fn from_json(j: &Json) -> Option<Value> {
        match j {
            Json::Int(v) => Some(if *v >= 0 {
                Value::U64(*v as u64)
            } else {
                Value::I64(*v)
            }),
            Json::Float(v) => Some(Value::F64(*v)),
            Json::Bool(v) => Some(Value::Bool(*v)),
            Json::Str(s) => Some(Value::Str(s.clone())),
            Json::Null => None,
            Json::Arr(_) | Json::Obj(_) => None,
        }
    }
}

/// One trace record.
///
/// `seq` and `t_us` are assigned by the sink at emission time; everything
/// else is supplied by the instrumentation site. Events flagged `det`
/// form the *payload*: their kind, name and fields must be bit-identical
/// across runs at any thread count (see [`Event::payload_line`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emission sequence number, unique and increasing within a trace.
    pub seq: u64,
    /// Microseconds since the sink was installed (monotonic clock).
    pub t_us: u64,
    /// Record kind.
    pub kind: Kind,
    /// Dotted event name, e.g. `verify.sat` or `campaign.job.outcome`.
    pub name: String,
    /// Whether this event participates in the deterministic payload.
    pub det: bool,
    /// Span wall-clock duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Span self time: duration minus enclosed child spans (spans only).
    pub self_us: Option<u64>,
    /// Typed fields in emission order.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Construct an event with zeroed sequencing (filled in by the sink).
    pub fn new(kind: Kind, name: &str, det: bool) -> Event {
        Event {
            seq: 0,
            t_us: 0,
            kind,
            name: name.to_owned(),
            det,
            dur_us: None,
            self_us: None,
            fields: Vec::new(),
        }
    }

    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Field as `u64` if present and unsigned.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Field as `&str` if present and a string.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Serialize to one canonical JSON line (no trailing newline).
    ///
    /// Key order is fixed: `seq`, `t_us`, `kind`, `name`, `det`,
    /// `dur_us`, `self_us`, `fields`; absent optionals are omitted, as is
    /// an empty field map.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":");
        write_json_string(&self.name, &mut out);
        out.push_str(",\"det\":");
        out.push_str(if self.det { "true" } else { "false" });
        if let Some(d) = self.dur_us {
            out.push_str(",\"dur_us\":");
            out.push_str(&d.to_string());
        }
        if let Some(s) = self.self_us {
            out.push_str(",\"self_us\":");
            out.push_str(&s.to_string());
        }
        self.write_fields(&mut out);
        out.push('}');
        out
    }

    /// The deterministic payload projection: kind, name and fields only.
    ///
    /// Two traces of the same work agree line-for-line on the payload
    /// projection of their `det` events regardless of thread count,
    /// timing, or interleaved non-deterministic events.
    pub fn payload_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":");
        write_json_string(&self.name, &mut out);
        self.write_fields(&mut out);
        out.push('}');
        out
    }

    fn write_fields(&self, out: &mut String) {
        if self.fields.is_empty() {
            return;
        }
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(k, out);
            out.push(':');
            v.write_json(out);
        }
        out.push('}');
    }

    /// Parse one JSONL line back into an [`Event`].
    ///
    /// Tolerant by design: unknown object keys are ignored (forward
    /// compatibility), and `None` is returned for torn or non-object
    /// lines rather than an error.
    pub fn from_json_line(line: &str) -> Option<Event> {
        let json = crate::json::parse(line)?;
        let obj = match &json {
            Json::Obj(pairs) => pairs,
            _ => return None,
        };
        let mut ev = Event::new(Kind::Point, "", false);
        let mut saw_kind = false;
        let mut saw_name = false;
        for (key, val) in obj {
            match (key.as_str(), val) {
                ("seq", Json::Int(v)) if *v >= 0 => ev.seq = *v as u64,
                ("t_us", Json::Int(v)) if *v >= 0 => ev.t_us = *v as u64,
                ("kind", Json::Str(s)) => {
                    ev.kind = Kind::parse(s)?;
                    saw_kind = true;
                }
                ("name", Json::Str(s)) => {
                    ev.name = s.clone();
                    saw_name = true;
                }
                ("det", Json::Bool(b)) => ev.det = *b,
                ("dur_us", Json::Int(v)) if *v >= 0 => ev.dur_us = Some(*v as u64),
                ("self_us", Json::Int(v)) if *v >= 0 => ev.self_us = Some(*v as u64),
                ("fields", Json::Obj(pairs)) => {
                    for (fk, fv) in pairs {
                        if let Some(value) = Value::from_json(fv) {
                            ev.fields.push((fk.clone(), value));
                        }
                    }
                }
                // Unknown or mistyped keys: skip, never fail.
                _ => {}
            }
        }
        if saw_kind && saw_name {
            Some(ev)
        } else {
            None
        }
    }
}

/// Write `s` as a JSON string literal (with escaping) into `out`.
pub(crate) fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_everything() {
        let mut ev = Event::new(Kind::Span, "verify.sat", false);
        ev.seq = 42;
        ev.t_us = 1_000_001;
        ev.dur_us = Some(530);
        ev.self_us = Some(120);
        ev.fields
            .push(("verdict".into(), Value::Str("proven".into())));
        ev.fields.push(("conflicts".into(), Value::U64(17)));
        ev.fields.push(("delta".into(), Value::I64(-3)));
        ev.fields.push(("capped".into(), Value::Bool(true)));
        let line = ev.to_json_line();
        let back = Event::from_json_line(&line).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn golden_wire_format() {
        // The exact serialized bytes are a compatibility contract: the
        // payload-determinism differential and the kill-and-resume CI
        // assertion both compare these strings byte-for-byte.
        let mut ev = Event::new(Kind::Count, "sat.conflicts", true);
        ev.seq = 7;
        ev.t_us = 99;
        ev.fields.push(("v".into(), Value::U64(1234)));
        assert_eq!(
            ev.to_json_line(),
            "{\"seq\":7,\"t_us\":99,\"kind\":\"count\",\"name\":\"sat.conflicts\",\
             \"det\":true,\"fields\":{\"v\":1234}}"
        );
        assert_eq!(
            ev.payload_line(),
            "{\"kind\":\"count\",\"name\":\"sat.conflicts\",\"fields\":{\"v\":1234}}"
        );
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let line = "{\"seq\":1,\"t_us\":2,\"kind\":\"point\",\"name\":\"x\",\"det\":true,\
                    \"future_key\":[1,2,{\"nested\":true}],\"fields\":{\"a\":1,\"b\":null}}";
        let ev = Event::from_json_line(line).expect("tolerant parse");
        assert_eq!(ev.name, "x");
        assert_eq!(ev.kind, Kind::Point);
        // `b: null` has no Value mapping and is dropped; `a` survives.
        assert_eq!(ev.fields, vec![("a".to_owned(), Value::U64(1))]);
    }

    #[test]
    fn torn_and_garbage_lines_yield_none() {
        assert!(Event::from_json_line("").is_none());
        assert!(Event::from_json_line("{\"seq\":1,\"t_us\":2,\"kind\":\"sp").is_none());
        assert!(Event::from_json_line("not json at all").is_none());
        assert!(Event::from_json_line("[1,2,3]").is_none());
        // An object missing kind/name is structurally valid JSON but not
        // an event.
        assert!(Event::from_json_line("{\"seq\":1}").is_none());
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut ev = Event::new(Kind::Point, "odd\"name\\with\ncontrol\u{1}", true);
        ev.fields
            .push(("msg".into(), Value::Str("panicked at 'boom\t'".into())));
        let back = Event::from_json_line(&ev.to_json_line()).expect("parses");
        assert_eq!(back.name, ev.name);
        assert_eq!(back.fields, ev.fields);
    }
}
