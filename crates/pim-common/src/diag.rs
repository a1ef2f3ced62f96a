//! Structured diagnostics for the static-analysis passes.
//!
//! Every `pim-verify` pass — and the engine's own debug-mode assertions —
//! reports findings as [`Diagnostic`] values collected into a
//! [`Diagnostics`] list, rendered either as human-readable text or as JSON
//! (hand-rolled: the workspace builds offline with no `serde_json`).

use crate::trace::json_string;
use std::fmt;
use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth surfacing, never a failure.
    Info,
    /// Suspicious but legal; does not fail verification.
    Warning,
    /// An invariant violation; verification fails.
    Error,
}

impl Severity {
    /// Lower-case label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding from one analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad the finding is.
    pub severity: Severity,
    /// Which pass produced it ("graph", "kir", "schedule", "report").
    pub pass: &'static str,
    /// What the finding is about ("AlexNet/op 12 (Conv2D)", ...).
    pub subject: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        severity: Severity,
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            pass,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.pass, self.subject, self.message
        )
    }
}

/// An ordered collection of findings.
///
/// # Examples
///
/// ```
/// use pim_common::diag::{Diagnostics, Severity};
///
/// let mut diags = Diagnostics::new();
/// diags.push(Severity::Warning, "graph", "t3", "tensor is never consumed");
/// assert_eq!(diags.error_count(), 0);
/// assert!(diags.is_clean());
/// diags.push(Severity::Error, "kir", "k0", "kernel index out of bounds");
/// assert!(!diags.is_clean());
/// assert!(diags.to_json().contains("\"pass\":\"kir\""));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends one finding.
    pub fn push(
        &mut self,
        severity: Severity,
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.items
            .push(Diagnostic::new(severity, pass, subject, message));
    }

    /// Appends an error-severity finding.
    pub fn error(
        &mut self,
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Error, pass, subject, message);
    }

    /// Appends a warning-severity finding.
    pub fn warning(
        &mut self,
        pass: &'static str,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.push(Severity::Warning, pass, subject, message);
    }

    /// Moves every finding of `other` into `self`.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// All findings, in emission order.
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Number of findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.items.iter().filter(|d| d.severity == severity).count()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// True when no finding is an error (warnings and infos allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// True when there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Renders every finding as one line of text each.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Renders the findings as a JSON array of objects with `severity`,
    /// `pass`, `subject`, and `message` string fields.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"severity\":{},\"pass\":{},\"subject\":{},\"message\":{}}}",
                json_string(d.severity.label()),
                json_string(d.pass),
                json_string(&d.subject),
                json_string(&d.message),
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_json, Json};

    #[test]
    fn severity_ordering_puts_error_last() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn counts_partition_by_severity() {
        let mut d = Diagnostics::new();
        d.error("graph", "a", "broken");
        d.warning("graph", "b", "odd");
        d.push(Severity::Info, "kir", "c", "fyi");
        assert_eq!(d.error_count(), 1);
        assert_eq!(d.count(Severity::Warning), 1);
        assert_eq!(d.count(Severity::Info), 1);
        assert!(!d.is_clean());
    }

    #[test]
    fn text_rendering_is_one_line_per_finding() {
        let mut d = Diagnostics::new();
        d.error("schedule", "wl0/step0/op1", "dependency violated");
        d.warning("report", "CPU", "zero makespan");
        let text = d.render_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("error[schedule] wl0/step0/op1: dependency violated"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut d = Diagnostics::new();
        d.error("graph", "t\"x\"", "line1\nline2\ttabbed \\ backslash");
        let json = d.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\\\"x\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\\\\ backslash"));
    }

    #[test]
    fn empty_diagnostics_render_empty_json_array() {
        assert_eq!(Diagnostics::new().to_json(), "[]");
        assert!(Diagnostics::new().is_empty());
        assert!(Diagnostics::new().is_clean());
    }

    #[test]
    fn json_round_trips_hostile_subjects_and_messages() {
        let cases = [
            "plain ascii",
            "quotes \" inside \"twice\"",
            "back\\slash and tab\there",
            "line1\nline2\r\nline3",
            "control \u{1} \u{1f} chars",
            "non-ascii: héllo 日本語 π≈3.14159 →",
            "emoji: 🧪🔥",
            "",
        ];
        for case in cases {
            let mut d = Diagnostics::new();
            d.error("schedule", case, case);
            let json = d.to_json();
            let doc = parse_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
            let finding = &doc.as_arr().unwrap()[0];
            let field = |key| finding.field(key).and_then(Json::as_str);
            assert_eq!(field("subject"), Some(case), "subject drifted: {json}");
            assert_eq!(field("message"), Some(case), "message drifted: {json}");
        }
    }

    #[test]
    fn json_control_characters_are_u_escaped() {
        let mut d = Diagnostics::new();
        d.error("graph", "s", "bell \u{7} and escape \u{1b}");
        let json = d.to_json();
        assert!(json.contains("\\u0007"), "{json}");
        assert!(json.contains("\\u001b"), "{json}");
        assert!(
            json.chars().all(|c| c as u32 >= 0x20),
            "raw control characters leaked into the JSON: {json:?}"
        );
    }

    #[test]
    fn extend_preserves_order() {
        let mut a = Diagnostics::new();
        a.error("graph", "x", "first");
        let mut b = Diagnostics::new();
        b.warning("kir", "y", "second");
        a.extend(b);
        assert_eq!(a.items().len(), 2);
        assert_eq!(a.items()[0].subject, "x");
        assert_eq!(a.items()[1].subject, "y");
    }
}
