//! Runtime observability: spans, counters, and Chrome trace-event export.
//!
//! The simulator's whole subject is *where time goes*; this module gives
//! every layer a uniform way to say so. Three pieces:
//!
//! * [`TraceSink`] — the recording interface. Producers emit
//!   [`TraceEvent`]s (spans, instants, counter samples, track metadata)
//!   against [`Track`] coordinates; [`Recorder`] collects them,
//!   [`NullTrace`] drops them.
//! * [`Counters`] — a flat, deterministic name → value registry for
//!   monotonic totals (ops placed per device, events dispatched, bytes
//!   moved, stalls) that reports can be cross-checked against.
//! * [`TraceRecording::to_chrome_json`] — export as Chrome trace-event
//!   JSON (the `chrome://tracing` / Perfetto format), hand-rolled like
//!   [`crate::diag`]'s renderer (the workspace builds offline, no
//!   `serde_json`), deterministic and byte-identical for identical runs.
//!   [`validate_chrome_trace`] structurally checks an exported file.
//!
//! All timestamps are *simulated* time ([`Seconds`]), never host
//! wall-clock — a traced run of a deterministic simulation is itself
//! deterministic, which is what makes golden-file and byte-diff testing
//! of traces possible.

use crate::diag::Diagnostics;
use crate::units::Seconds;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Coordinates of one timeline lane: a Chrome trace `(pid, tid)` pair.
///
/// The exporter groups events by track and requires timestamps to be
/// monotone within each track; producers are free to map processes and
/// threads onto any stable scheme (the engine uses one process with one
/// thread per device lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Chrome trace process id.
    pub pid: u32,
    /// Chrome trace thread id.
    pub tid: u32,
}

impl Track {
    /// Builds a track from its process and thread ids.
    pub const fn new(pid: u32, tid: u32) -> Self {
        Track { pid, tid }
    }
}

/// One argument value attached to a span or instant.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A string argument.
    Str(String),
    /// An unsigned integer argument.
    UInt(u64),
    /// A floating-point argument.
    Float(f64),
    /// A boolean argument.
    Bool(bool),
}

impl From<&str> for ArgValue {
    fn from(s: &str) -> Self {
        ArgValue::Str(s.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(s: String) -> Self {
        ArgValue::Str(s)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// Named arguments of a span or instant.
pub type Args = Vec<(&'static str, ArgValue)>;

/// One event on the trace timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A duration span (Chrome `ph: "X"` complete event).
    Span {
        /// Timeline lane.
        track: Track,
        /// Display name.
        name: String,
        /// Category label (Chrome's `cat` field).
        cat: &'static str,
        /// Start, in simulated time.
        start: Seconds,
        /// End, in simulated time (`end >= start`).
        end: Seconds,
        /// Named arguments.
        args: Args,
    },
    /// A zero-duration marker (Chrome `ph: "i"` instant event).
    Instant {
        /// Timeline lane.
        track: Track,
        /// Display name.
        name: String,
        /// Category label.
        cat: &'static str,
        /// Time of the marker.
        ts: Seconds,
        /// Named arguments.
        args: Args,
    },
    /// A sampled counter value (Chrome `ph: "C"` counter event).
    Counter {
        /// Timeline lane.
        track: Track,
        /// Counter name (one plot per name).
        name: &'static str,
        /// Sample time.
        ts: Seconds,
        /// Sampled value.
        value: f64,
    },
    /// Process-name metadata (Chrome `ph: "M"`, `process_name`).
    ProcessName {
        /// Process the name applies to (tid ignored by viewers).
        track: Track,
        /// Display name.
        name: String,
    },
    /// Thread-name metadata (Chrome `ph: "M"`, `thread_name`) — this is
    /// what labels a device lane in the viewer.
    ThreadName {
        /// Track the name applies to.
        track: Track,
        /// Display name.
        name: String,
    },
}

impl TraceEvent {
    fn track(&self) -> Track {
        match self {
            TraceEvent::Span { track, .. }
            | TraceEvent::Instant { track, .. }
            | TraceEvent::Counter { track, .. }
            | TraceEvent::ProcessName { track, .. }
            | TraceEvent::ThreadName { track, .. } => *track,
        }
    }

    /// Metadata sorts to the front of its track; timed events by time.
    fn sort_ts(&self) -> f64 {
        match self {
            TraceEvent::ProcessName { .. } | TraceEvent::ThreadName { .. } => f64::NEG_INFINITY,
            TraceEvent::Span { start, .. } => start.seconds(),
            TraceEvent::Instant { ts, .. } | TraceEvent::Counter { ts, .. } => ts.seconds(),
        }
    }
}

/// Receives trace events from instrumented code.
///
/// Producers should gate expensive argument construction on
/// [`TraceSink::enabled`]; the engine does so at every span, so a run
/// that asks for no trace pays one check per call.
pub trait TraceSink {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);

    /// True when recorded events are kept (false for [`NullTrace`]).
    ///
    /// The value is fixed for the sink's lifetime: consumers may read it
    /// once and cache it, as the engine's observer does.
    fn enabled(&self) -> bool {
        true
    }
}

/// Drops every event — tracing disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTrace;

impl TraceSink for NullTrace {
    fn record(&mut self, _event: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Collects events in memory, preserving emission order for stable
/// tie-breaking at export.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes recording, producing the exportable timeline.
    pub fn into_recording(self) -> TraceRecording {
        TraceRecording::new(self.events)
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// A finished trace: events ordered by track, then time, then emission
/// order — the order [`TraceRecording::to_chrome_json`] writes them in,
/// which guarantees monotone per-track timestamps in the export.
///
/// # Examples
///
/// ```
/// use pim_common::trace::{Recorder, Track, TraceEvent, TraceSink};
/// use pim_common::units::Seconds;
///
/// let mut rec = Recorder::new();
/// let track = Track::new(1, 1);
/// rec.record(TraceEvent::ThreadName { track, name: "CPU".into() });
/// rec.record(TraceEvent::Span {
///     track,
///     name: "Conv2D".into(),
///     cat: "op",
///     start: Seconds::new(1e-6),
///     end: Seconds::new(3e-6),
///     args: vec![("step", 0u64.into())],
/// });
/// let json = rec.into_recording().to_chrome_json();
/// assert!(json.contains("\"ph\":\"X\""));
/// assert!(json.contains("\"name\":\"Conv2D\""));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecording {
    events: Vec<TraceEvent>,
}

impl TraceRecording {
    fn new(mut events: Vec<TraceEvent>) -> Self {
        // Stable sort: emission order breaks (track, time) ties, so the
        // export is a pure function of the recorded events.
        events.sort_by(|a, b| {
            (a.track(), a.sort_ts())
                .partial_cmp(&(b.track(), b.sort_ts()))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        TraceRecording { events }
    }

    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// True when the recording holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the recording as Chrome trace-event JSON, loadable by
    /// `chrome://tracing` and Perfetto.
    ///
    /// Every event carries the `ph`/`ts`/`pid`/`tid` keys; timestamps are
    /// microseconds of simulated time with 0.1 ns resolution; events are
    /// written in track order with monotone timestamps per track. The
    /// output is byte-identical for identical recordings.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            render_event(&mut out, ev);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Microseconds with 0.1 ns resolution — fine enough for the engine's
/// femtosecond-quantized clock, coarse enough to stay compact.
fn fmt_us(t: Seconds) -> String {
    format!("{:.4}", t.seconds() * 1e6)
}

fn render_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{}:", json_string(k)).ok();
        match v {
            ArgValue::Str(s) => out.push_str(&json_string(s)),
            ArgValue::UInt(n) => {
                write!(out, "{n}").ok();
            }
            ArgValue::Float(x) => {
                write!(out, "{x}").ok();
            }
            ArgValue::Bool(b) => {
                write!(out, "{b}").ok();
            }
        }
    }
    out.push('}');
}

fn render_event(out: &mut String, ev: &TraceEvent) {
    match ev {
        TraceEvent::Span {
            track,
            name,
            cat,
            start,
            end,
            args,
        } => {
            write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":",
                json_string(name),
                json_string(cat),
                fmt_us(*start),
                fmt_us(*end - *start),
                track.pid,
                track.tid,
            )
            .ok();
            render_args(out, args);
            out.push('}');
        }
        TraceEvent::Instant {
            track,
            name,
            cat,
            ts,
            args,
        } => {
            write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":",
                json_string(name),
                json_string(cat),
                fmt_us(*ts),
                track.pid,
                track.tid,
            )
            .ok();
            render_args(out, args);
            out.push('}');
        }
        TraceEvent::Counter {
            track,
            name,
            ts,
            value,
        } => {
            write!(
                out,
                "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"value\":{value}}}}}",
                json_string(name),
                fmt_us(*ts),
                track.pid,
                track.tid,
            )
            .ok();
        }
        TraceEvent::ProcessName { track, name } | TraceEvent::ThreadName { track, name } => {
            let meta = if matches!(ev, TraceEvent::ProcessName { .. }) {
                "process_name"
            } else {
                "thread_name"
            };
            write!(
                out,
                "{{\"name\":\"{meta}\",\"ph\":\"M\",\"ts\":0,\"pid\":{},\"tid\":{},\"args\":{{\"name\":{}}}}}",
                track.pid,
                track.tid,
                json_string(name),
            )
            .ok();
        }
    }
}

/// Escapes a string into a JSON string literal (same rules as
/// [`crate::diag`]'s renderer) — the emit-side twin of [`parse_json`],
/// shared by the trace exporter and the `pim-serve` wire protocol.
///
/// # Examples
///
/// ```
/// use pim_common::trace::json_string;
/// assert_eq!(json_string(r#"a"b"#), r#""a\"b""#);
/// ```
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A flat, deterministically ordered registry of named totals.
///
/// Keys are slash-scoped by convention (`"ops/CPU"`, `"bytes/moved"`,
/// `"events/dispatched"`); iteration and JSON rendering are in key order,
/// so two identical runs render identical registries.
///
/// # Examples
///
/// ```
/// use pim_common::trace::Counters;
///
/// let mut c = Counters::new();
/// c.add("events/dispatched", 1.0);
/// c.add("bytes/moved", 4096.0);
/// c.add("events/dispatched", 1.0);
/// assert_eq!(c.get("events/dispatched"), 2.0);
/// assert_eq!(c.get("missing"), 0.0);
/// assert!(c.to_json().starts_with('{'));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    map: BTreeMap<String, f64>,
}

impl Counters {
    /// An empty registry.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `delta` to a counter, creating it at zero first if absent.
    pub fn add(&mut self, name: &str, delta: f64) {
        if let Some(v) = self.map.get_mut(name) {
            *v += delta;
        } else {
            self.map.insert(name.to_string(), delta);
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.map.get(name).copied().unwrap_or(0.0)
    }

    /// True when the counter exists.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All counters in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Folds another registry into this one, summing shared keys.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Renders the registry as a JSON object in key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}:{v}", json_string(k)).ok();
        }
        out.push('}');
        out
    }
}

// ---------------------------------------------------------------------------
// Structural validation of exported Chrome traces.
// ---------------------------------------------------------------------------

/// A parsed JSON value — the minimal model [`validate_chrome_trace`] and
/// the bench-file schema validator need (the workspace builds offline with
/// no `serde_json`). Objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as `(key, value)` pairs in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up an object field by key (`None` for non-objects and
    /// missing keys).
    pub fn field<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value, when this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Compact JSON rendering: no whitespace, object keys in document order,
/// numbers in Rust's shortest-round-trip `f64` form. Rendering a value
/// parsed by [`parse_json`] yields a document that re-parses to the same
/// value, which is what the `pim-serve` protocol and its byte-diff CI
/// stage rely on.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => f.write_str(&json_string(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", json_string(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Parses a complete JSON document (trailing data is an error).
///
/// # Examples
///
/// ```
/// use pim_common::trace::parse_json;
/// let doc = parse_json(r#"{"cells": [1, 2]}"#).unwrap();
/// assert_eq!(doc.field("cells").unwrap().as_arr().unwrap().len(), 2);
/// ```
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    Parser::new(text).parse()
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters, multi-byte ones included,
                    // goes over as one slice: it ends at the next `"` or
                    // `\`, both ASCII and so both char boundaries.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn parse(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }
}

/// Structurally validates an exported Chrome trace:
///
/// * the document parses as JSON with a `traceEvents` array,
/// * every event carries `ph` (string), `ts`, `pid`, and `tid` (numbers),
/// * `X` events carry a `name` and a non-negative `dur`,
/// * per `(pid, tid)` track, non-metadata timestamps are monotone
///   non-decreasing in file order.
///
/// Violations come back as error-severity findings in the `trace` pass;
/// an empty-but-parseable trace is clean.
///
/// # Examples
///
/// ```
/// use pim_common::trace::validate_chrome_trace;
///
/// let ok = r#"{"traceEvents":[
///   {"name":"op","ph":"X","ts":1.0,"dur":2.0,"pid":1,"tid":1,"args":{}}
/// ]}"#;
/// assert!(validate_chrome_trace(ok).is_clean());
/// assert!(!validate_chrome_trace("not json").is_clean());
/// ```
pub fn validate_chrome_trace(json: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let doc = match Parser::new(json).parse() {
        Ok(doc) => doc,
        Err(e) => {
            diags.error("trace", "document", format!("JSON parse failure: {e}"));
            return diags;
        }
    };
    let Some(Json::Arr(events)) = doc.field("traceEvents") else {
        diags.error("trace", "document", "missing `traceEvents` array");
        return diags;
    };
    let mut last_ts: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let subject = format!("event {i}");
        let Some(ph) = ev.field("ph").and_then(Json::as_str) else {
            diags.error("trace", &subject, "missing string `ph` key");
            continue;
        };
        let ts = ev.field("ts").and_then(Json::as_num);
        let pid = ev.field("pid").and_then(Json::as_num);
        let tid = ev.field("tid").and_then(Json::as_num);
        let (Some(ts), Some(pid), Some(tid)) = (ts, pid, tid) else {
            diags.error("trace", &subject, "missing numeric `ts`/`pid`/`tid` key");
            continue;
        };
        if ph == "X" {
            if ev.field("name").and_then(Json::as_str).is_none() {
                diags.error("trace", &subject, "`X` event without a `name`");
            }
            match ev.field("dur").and_then(Json::as_num) {
                Some(d) if d >= 0.0 => {}
                Some(d) => {
                    diags.error("trace", &subject, format!("negative `dur` {d}"));
                }
                None => diags.error("trace", &subject, "`X` event without a `dur`"),
            }
        }
        if ph != "M" {
            let key = (pid as u64, tid as u64);
            if let Some(prev) = last_ts.get(&key) {
                if ts < *prev {
                    diags.error(
                        "trace",
                        &subject,
                        format!("track ({pid},{tid}) timestamp regressed: {prev} -> {ts}"),
                    );
                }
            }
            last_ts.insert(key, ts);
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: Track, name: &str, start: f64, end: f64) -> TraceEvent {
        TraceEvent::Span {
            track,
            name: name.to_string(),
            cat: "op",
            start: Seconds::new(start),
            end: Seconds::new(end),
            args: vec![("step", 1u64.into()), ("rc", true.into())],
        }
    }

    #[test]
    fn json_display_round_trips() {
        let doc =
            r#"{"id":"a\"b","n":1.5,"neg":-2,"ok":true,"none":null,"xs":[1,"two",{"k":false}]}"#;
        let parsed = parse_json(doc).unwrap();
        assert_eq!(parsed.to_string(), doc);
        assert_eq!(parse_json(&parsed.to_string()).unwrap(), parsed);
        assert_eq!(parsed.field("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.field("n").and_then(Json::as_bool), None);
    }

    #[test]
    fn recorder_round_trips_through_chrome_json() {
        let mut rec = Recorder::new();
        let t = Track::new(1, 100);
        rec.record(TraceEvent::ProcessName {
            track: Track::new(1, 0),
            name: "engine".into(),
        });
        rec.record(TraceEvent::ThreadName {
            track: t,
            name: "CPU".into(),
        });
        rec.record(span(t, "Conv2D", 2e-6, 5e-6));
        rec.record(span(t, "Relu", 5e-6, 6e-6));
        rec.record(TraceEvent::Counter {
            track: Track::new(1, 2),
            name: "ff units busy",
            ts: Seconds::new(3e-6),
            value: 64.0,
        });
        assert_eq!(rec.len(), 5);
        let json = rec.into_recording().to_chrome_json();
        assert!(validate_chrome_trace(&json).is_clean(), "{json}");
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn export_sorts_tracks_and_times() {
        let mut rec = Recorder::new();
        let a = Track::new(1, 2);
        let b = Track::new(1, 1);
        rec.record(span(a, "late", 9e-6, 10e-6));
        rec.record(span(b, "second", 5e-6, 6e-6));
        rec.record(span(a, "early", 1e-6, 2e-6));
        rec.record(span(b, "first", 1e-6, 2e-6));
        let recording = rec.into_recording();
        let names: Vec<&str> = recording
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Span { name, .. } => name.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["first", "second", "early", "late"]);
        assert!(validate_chrome_trace(&recording.to_chrome_json()).is_clean());
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut rec = Recorder::new();
            for i in 0..10 {
                rec.record(span(
                    Track::new(1, i % 3),
                    "op",
                    f64::from(i) * 1e-6,
                    f64::from(i + 1) * 1e-6,
                ));
            }
            rec.into_recording().to_chrome_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn null_trace_drops_everything() {
        let mut sink = NullTrace;
        assert!(!sink.enabled());
        sink.record(span(Track::new(0, 0), "ignored", 0.0, 1.0));
    }

    #[test]
    fn validator_rejects_missing_keys_and_regressions() {
        let missing_ph = r#"{"traceEvents":[{"ts":1.0,"pid":1,"tid":1}]}"#;
        assert!(!validate_chrome_trace(missing_ph).is_clean());
        let missing_ts = r#"{"traceEvents":[{"ph":"X","name":"x","dur":1.0,"pid":1,"tid":1}]}"#;
        assert!(!validate_chrome_trace(missing_ts).is_clean());
        let regression = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":5.0,"dur":1.0,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"X","ts":4.0,"dur":1.0,"pid":1,"tid":1,"args":{}}
        ]}"#;
        let diags = validate_chrome_trace(regression);
        assert_eq!(diags.error_count(), 1);
        assert!(diags.render_text().contains("regressed"));
        let negative_dur =
            r#"{"traceEvents":[{"name":"a","ph":"X","ts":1.0,"dur":-2.0,"pid":1,"tid":1}]}"#;
        assert!(!validate_chrome_trace(negative_dur).is_clean());
    }

    #[test]
    fn validator_allows_separate_tracks_to_interleave() {
        let interleaved = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":5.0,"dur":1.0,"pid":1,"tid":1,"args":{}},
            {"name":"b","ph":"X","ts":1.0,"dur":1.0,"pid":1,"tid":2,"args":{}},
            {"name":"c","ph":"i","s":"t","ts":6.0,"pid":1,"tid":1,"args":{}}
        ]}"#;
        assert!(validate_chrome_trace(interleaved).is_clean());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let doc = r#"{"traceEvents":[{"name":"a\"b\\c\nd","ph":"i","ts":0,"pid":1,"tid":1,
            "args":{"nested":{"deep":[1,2,3]},"flag":true,"none":null,"neg":-1.5e-3}}]}"#;
        assert!(validate_chrome_trace(doc).is_clean());
        assert!(!validate_chrome_trace("{\"traceEvents\":[}").is_clean());
        assert!(!validate_chrome_trace("{}").is_clean());
    }

    #[test]
    fn json_strings_keep_multi_byte_runs_and_escapes_at_their_edges() {
        let parse_str = |doc: &str| parse_json(doc).map(|j| j.as_str().unwrap().to_string());
        for plain in ["é", "café", "日本語テキスト", "🦀🦀", "aé日🦀z", ""] {
            assert_eq!(parse_str(&json_string(plain)).unwrap(), plain);
        }
        // Escapes right before, right after and between runs.
        assert_eq!(parse_str(r#""\"é\\""#).unwrap(), "\"é\\");
        assert_eq!(parse_str(r#""\n日本\t🦀\/""#).unwrap(), "\n日本\t🦀/");
        assert_eq!(parse_str(r#""a\\\\b""#).unwrap(), "a\\\\b");
        // `\u` escapes, alone and against multi-byte runs.
        assert_eq!(parse_str(r#""\u00e9""#).unwrap(), "é");
        assert_eq!(parse_str(r#""\u65e5日本\u0041""#).unwrap(), "日日本A");
        assert_eq!(parse_str(r#""\u0001🦀""#).unwrap(), "\u{1}🦀");
        assert!(parse_str(r#""\u00g9""#)
            .unwrap_err()
            .starts_with("bad \\u escape"));
        // An unterminated string is the same error whatever it ends in.
        for bad in [r#""abc"#, r#""日本"#, r#""🦀\""#, r#"{"k":"é"#, "\""] {
            assert_eq!(parse_json(bad).unwrap_err(), "unterminated string", "{bad}");
        }
        // Keys take the same path as values.
        let doc = parse_json(r#"{"ключ":"значение","k\"2":"🦀"}"#).unwrap();
        assert_eq!(doc.field("ключ").unwrap().as_str(), Some("значение"));
        assert_eq!(doc.field("k\"2").unwrap().as_str(), Some("🦀"));
    }

    #[test]
    fn counters_accumulate_and_render_in_key_order() {
        let mut c = Counters::new();
        c.add("ops/CPU", 3.0);
        c.add("ops/CPU", 1.0);
        c.add("bytes/moved", 1024.0);
        assert_eq!(c.get("ops/CPU"), 4.0);
        assert_eq!(c.len(), 2);
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["bytes/moved", "ops/CPU"]);
        assert_eq!(c.to_json(), "{\"bytes/moved\":1024,\"ops/CPU\":4}");

        let mut other = Counters::new();
        other.add("ops/CPU", 1.0);
        other.add("events/dispatched", 7.0);
        c.merge(&other);
        assert_eq!(c.get("ops/CPU"), 5.0);
        assert_eq!(c.get("events/dispatched"), 7.0);
    }

    #[test]
    fn spans_carry_argument_values_of_every_kind() {
        let args: Args = vec![
            ("s", "text".into()),
            ("owned", String::from("owned").into()),
            ("n", 42u64.into()),
            ("idx", 7usize.into()),
            ("x", 1.5f64.into()),
            ("b", false.into()),
        ];
        let mut rec = Recorder::new();
        rec.record(TraceEvent::Instant {
            track: Track::new(1, 1),
            name: "decision".into(),
            cat: "sched",
            ts: Seconds::new(1e-6),
            args,
        });
        let json = rec.into_recording().to_chrome_json();
        assert!(json.contains("\"n\":42"));
        assert!(json.contains("\"x\":1.5"));
        assert!(json.contains("\"b\":false"));
        assert!(validate_chrome_trace(&json).is_clean());
    }
}
