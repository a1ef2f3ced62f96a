//! In-memory span recorder for the traced runs.
//!
//! Spans wrap the harness's own calls into each layer's public functions
//! (nothing inside the simulator is instrumented). Each span carries a
//! name, start, end, the id of the span that caused it, and a tag shared
//! by all spans of one request (a model, a cell, a request id). Spans are
//! kept in memory and written out once, when the run ends. A disabled
//! recorder reads no clock and stores nothing.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The recorder. Span id 0 means "no parent".
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when dropped (or [`Guard::end`]ed).
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u32,
    parent: u32,
    name: Option<String>,
    tag: String,
    start: Option<Instant>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under `parent`, tagged `tag`.
    pub fn span(&self, name: &str, parent: u32, tag: &str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name: None,
                tag: String::new(),
                start: None,
            };
        }
        Guard {
            tracer: self,
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: Some(name.to_string()),
            tag: tag.to_string(),
            start: Some(Instant::now()),
        }
    }

    /// Records a span whose start and end were stamped elsewhere (request
    /// lines read and answered inside the daemon).
    pub fn record(&self, name: &str, parent: u32, tag: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            tag: tag.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The number of spans recorded so far, to slice later spans by.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// The spans recorded since `mark`, in completion order.
    pub fn since(&self, mark: usize) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned")[mark..].to_vec()
    }

    /// The span log as JSON, one span per line.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":{},\"tag\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                pim_common::trace::json_string(&s.name),
                pim_common::trace::json_string(&s.tag),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Durations in microseconds of the spans named `name`.
pub fn micros(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Per-parent sums, in microseconds, of the spans named `name` that pass
/// `keep` — one value per round or pass when those spans sit under one
/// span each.
pub fn sums_by_parent(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    let mut sums: Vec<(u32, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.name == name && keep(s)) {
        match sums.iter_mut().find(|(p, _)| *p == s.parent) {
            Some((_, total)) => *total += s.micros(),
            None => sums.push((s.parent, s.micros())),
        }
    }
    sums.into_iter().map(|(_, total)| total).collect()
}

impl Guard<'_> {
    /// The span id, to parent child spans on (0 when disabled).
    pub fn id(&self) -> u32 {
        self.id
    }

    pub fn end(self) {}
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let (Some(name), Some(start)) = (self.name.take(), self.start) else {
            return;
        };
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name,
            tag: std::mem::take(&mut self.tag),
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        };
        if let Ok(mut log) = self.tracer.spans.lock() {
            log.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_parent() {
        let t = Tracer::new(true);
        for _ in 0..2 {
            let round = t.span("round", 0, "");
            for m in ["a", "b"] {
                t.span("work", round.id(), m).end();
            }
        }
        let spans = t.since(0);
        assert_eq!(spans.len(), 6);
        assert_eq!(sums_by_parent(&spans, "work", |_| true).len(), 2);
        assert_eq!(sums_by_parent(&spans, "work", |s| s.tag == "a").len(), 2);
        assert_eq!(micros(&spans, "work").len(), 4);
        let work: Vec<_> = spans.iter().filter(|s| s.name == "work").collect();
        assert!(work.iter().all(|s| s.parent != 0 && s.end_ns >= s.start_ns));
        assert!(t.to_json().contains("\"name\":\"work\",\"tag\":\"b\""));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("x", 0, "");
        assert_eq!(g.id(), 0);
        drop(g);
        assert_eq!(t.mark(), 0);
    }
}
