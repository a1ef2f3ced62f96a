//! The wire protocol: one JSON object per line, both directions.
//!
//! Requests parse with `pim_common::trace::parse_json` and responses
//! render with the same crate's `Json`/`json_string` emitters, so the
//! daemon stays dependency-free. The grammar is documented in
//! DESIGN.md §4.11; every field of a `run` request maps 1:1 onto a
//! field of the engine's `RunRequest`, which is what makes the wire
//! protocol, the in-process API, and the cache key the same object.
//!
//! Parsing is total: any line — malformed JSON, wrong types, unknown
//! fields — becomes either a [`Request`] or a [`ParseError`] carrying
//! the request id when one could be recovered. The daemon never
//! crashes on input.

use pim_common::trace::{json_string, parse_json, Json};
use pim_runtime::TieBreak;
use std::fmt::Write as _;

/// Protocol error kinds, also used verbatim as the `"error"` field of
/// error responses.
pub mod kind {
    /// The line is not a JSON object.
    pub const MALFORMED: &str = "malformed";
    /// The object is JSON but a field is missing, mistyped, or out of
    /// range.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The object carries a top-level field the protocol does not know.
    pub const UNKNOWN_FIELD: &str = "unknown_field";
    /// Admitting the job would exceed the daemon's outstanding-job
    /// capacity; retry after a `stats` barrier.
    pub const OVER_CAPACITY: &str = "over_capacity";
    /// Admitting the job would exceed the tenant's outstanding-job
    /// quota; retry after a `stats` barrier.
    pub const OVER_QUOTA: &str = "over_quota";
    /// The simulation itself failed.
    pub const EXECUTION_FAILED: &str = "execution_failed";
    /// The run exceeded its `deadline_ms` budget and was cut off at a
    /// deterministic engine check site.
    pub const DEADLINE_EXCEEDED: &str = "deadline_exceeded";
    /// The tenant's circuit breaker is open after repeated failures; the
    /// request was rejected without queueing. The breaker closes again
    /// after a cooldown counted in rejected admissions (never wall
    /// clock), so rejection streams byte-replay.
    pub const BREAKER_OPEN: &str = "breaker_open";
    /// The daemon is draining for shutdown and admits no new runs.
    pub const SHUTTING_DOWN: &str = "shutting_down";
}

/// What a request line asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Simulate a cell.
    Run,
    /// Barrier: drain every outstanding job, emit all buffered responses
    /// in submission order, then report service counters.
    Stats,
    /// Control line `{"cmd":"shutdown"}`: drain like a `stats` barrier,
    /// acknowledge, then stop serving (graceful drain shutdown).
    Shutdown,
}

/// Seed + rate of a seeded fault plan; the horizon is derived by the
/// runner from the cell's zero-fault makespan, so two tenants asking for
/// the same `(seed, rate)` on the same cell share one result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault-plan seed.
    pub seed: u64,
    /// Mean fault events per workload-makespan.
    pub rate: f64,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on the response.
    pub id: String,
    /// The verb.
    pub op: Op,
    /// Tenant the job is accounted to.
    pub tenant: String,
    /// Workload model names (`"model"` or `"models"` on the wire).
    pub models: Vec<String>,
    /// System preset name (`cpu`, `progr`, `fixed`, `hetero`, `bare`,
    /// `rc`).
    pub preset: String,
    /// Training steps per workload.
    pub steps: usize,
    /// Optional batch-size override.
    pub batch: Option<usize>,
    /// Queue priority, 0 (lowest) to 9; higher pops first.
    pub priority: u8,
    /// Tie-break policy.
    pub tie: TieBreak,
    /// Optional fault injection.
    pub faults: Option<FaultSpec>,
    /// Partitioned (each model gets the machine to itself) vs. shared
    /// co-run.
    pub partitioned: bool,
    /// Restrict workloads to CPU + programmable PIM.
    pub cpu_progr_only: bool,
    /// Optional deadline in *simulated* milliseconds-equivalents: the
    /// runner maps it to a deterministic engine budget, so whether a run
    /// is cut off is a pure function of the request, not of wall clock.
    pub deadline_ms: Option<u64>,
}

/// A rejected request line: the error kind, a human-readable message,
/// and the request id when the line parsed far enough to recover one.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Echoed id, when recoverable.
    pub id: Option<String>,
    /// One of the [`kind`] constants.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ParseError {
    fn new(id: Option<String>, kind: &'static str, message: impl Into<String>) -> Self {
        ParseError {
            id,
            kind,
            message: message.into(),
        }
    }
}

/// Every top-level field the protocol accepts.
const KNOWN_FIELDS: &[&str] = &[
    "id",
    "op",
    "tenant",
    "model",
    "models",
    "preset",
    "steps",
    "batch",
    "priority",
    "tie",
    "faults",
    "partitioned",
    "cpu_progr_only",
    "deadline_ms",
    "cmd",
];

fn as_usize(v: &Json) -> Option<usize> {
    let n = v.as_num()?;
    (n.fract() == 0.0 && n >= 0.0 && n <= f64::from(u32::MAX)).then_some(n as usize)
}

fn as_u64(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    (n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(&n)).then_some(n as u64)
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ParseError`] (never panics) describing the first
/// problem: non-JSON input, a non-object document, an unknown field, or
/// a missing/mistyped/out-of-range field value.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let doc = parse_json(line)
        .map_err(|e| ParseError::new(None, kind::MALFORMED, format!("invalid JSON: {e}")))?;
    let Json::Obj(fields) = &doc else {
        return Err(ParseError::new(
            None,
            kind::MALFORMED,
            "request must be a JSON object",
        ));
    };

    // Recover the id first so every later error can echo it.
    let id = doc.field("id").and_then(Json::as_str).map(str::to_string);
    let err = |kind, msg: String| ParseError::new(id.clone(), kind, msg);

    for (key, _) in fields {
        if !KNOWN_FIELDS.contains(&key.as_str()) {
            return Err(err(kind::UNKNOWN_FIELD, format!("unknown field `{key}`")));
        }
    }

    // Control lines: `{"cmd":"shutdown"}` with an optional id. They sit
    // outside the job grammar — no tenant, no models — so they parse
    // before the id requirement (the ack echoes null when absent).
    if let Some(v) = doc.field("cmd") {
        if v.as_str() != Some("shutdown") {
            return Err(err(
                kind::BAD_REQUEST,
                format!("`cmd` must be \"shutdown\", got {v}"),
            ));
        }
        for (key, _) in fields {
            if key != "cmd" && key != "id" {
                return Err(err(
                    kind::BAD_REQUEST,
                    format!("`{key}` is not valid on a control line"),
                ));
            }
        }
        return Ok(Request {
            id: id.unwrap_or_default(),
            op: Op::Shutdown,
            tenant: "public".to_string(),
            models: Vec::new(),
            preset: "hetero".to_string(),
            steps: 1,
            batch: None,
            priority: 4,
            tie: TieBreak::Stable,
            faults: None,
            partitioned: false,
            cpu_progr_only: false,
            deadline_ms: None,
        });
    }

    let Some(id) = id else {
        return Err(ParseError::new(
            None,
            kind::BAD_REQUEST,
            "missing required string field `id`",
        ));
    };
    let err = |kind, msg: String| ParseError::new(Some(id.clone()), kind, msg);

    let op = match doc.field("op").map(|v| (v, v.as_str())) {
        None => Op::Run,
        Some((_, Some("run"))) => Op::Run,
        Some((_, Some("stats"))) => Op::Stats,
        Some((v, _)) => {
            return Err(err(
                kind::BAD_REQUEST,
                format!("`op` must be \"run\" or \"stats\", got {v}"),
            ))
        }
    };

    let tenant = match doc.field("tenant") {
        None => "public".to_string(),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| err(kind::BAD_REQUEST, "`tenant` must be a string".into()))?,
    };

    let mut models = Vec::new();
    match (doc.field("model"), doc.field("models")) {
        (Some(_), Some(_)) => {
            return Err(err(
                kind::BAD_REQUEST,
                "give `model` or `models`, not both".into(),
            ))
        }
        (Some(v), None) => {
            let m = v
                .as_str()
                .ok_or_else(|| err(kind::BAD_REQUEST, "`model` must be a string".into()))?;
            models.push(m.to_string());
        }
        (None, Some(v)) => {
            let items = v.as_arr().ok_or_else(|| {
                err(
                    kind::BAD_REQUEST,
                    "`models` must be an array of strings".into(),
                )
            })?;
            for item in items {
                let m = item.as_str().ok_or_else(|| {
                    err(
                        kind::BAD_REQUEST,
                        "`models` must be an array of strings".into(),
                    )
                })?;
                models.push(m.to_string());
            }
        }
        (None, None) => {}
    }
    if op == Op::Run && models.is_empty() {
        return Err(err(
            kind::BAD_REQUEST,
            "a run request needs `model` or a non-empty `models`".into(),
        ));
    }

    let preset = match doc.field("preset") {
        None => "hetero".to_string(),
        Some(v) => v
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| err(kind::BAD_REQUEST, "`preset` must be a string".into()))?,
    };

    let steps = match doc.field("steps") {
        None => 1,
        Some(v) => as_usize(v).filter(|&n| n >= 1).ok_or_else(|| {
            err(
                kind::BAD_REQUEST,
                "`steps` must be a positive integer".into(),
            )
        })?,
    };

    let batch = match doc.field("batch") {
        None => None,
        Some(v) => Some(as_usize(v).filter(|&n| n >= 1).ok_or_else(|| {
            err(
                kind::BAD_REQUEST,
                "`batch` must be a positive integer".into(),
            )
        })?),
    };

    let priority = match doc.field("priority") {
        None => 4,
        Some(v) => as_usize(v).filter(|&n| n <= 9).ok_or_else(|| {
            err(
                kind::BAD_REQUEST,
                "`priority` must be an integer 0..=9".into(),
            )
        })? as u8,
    };

    let tie = match doc.field("tie") {
        None => TieBreak::Stable,
        Some(v) => match v {
            Json::Str(s) if s == "stable" => TieBreak::Stable,
            Json::Obj(fields) if fields.len() == 1 => {
                let (key, val) = &fields[0];
                let seed = as_u64(val).ok_or_else(|| {
                    err(
                        kind::BAD_REQUEST,
                        format!("`tie.{key}` must be an integer seed"),
                    )
                })?;
                match key.as_str() {
                    "permuted" => TieBreak::Permuted(seed),
                    "priority" => TieBreak::Priority(seed),
                    _ => {
                        return Err(err(
                            kind::BAD_REQUEST,
                            "`tie` must be \"stable\", {\"permuted\":N}, or {\"priority\":N}"
                                .into(),
                        ))
                    }
                }
            }
            _ => {
                return Err(err(
                    kind::BAD_REQUEST,
                    "`tie` must be \"stable\", {\"permuted\":N}, or {\"priority\":N}".into(),
                ))
            }
        },
    };

    let faults = match doc.field("faults") {
        None => None,
        Some(v) => {
            let bad = || {
                err(
                    kind::BAD_REQUEST,
                    "`faults` must be {\"seed\":N,\"rate\":X} with rate >= 0".into(),
                )
            };
            let Json::Obj(fields) = v else {
                return Err(bad());
            };
            for (key, _) in fields {
                if key != "seed" && key != "rate" {
                    return Err(bad());
                }
            }
            let seed = v.field("seed").and_then(as_u64).ok_or_else(bad)?;
            let rate = v
                .field("rate")
                .and_then(Json::as_num)
                .filter(|r| r.is_finite() && *r >= 0.0)
                .ok_or_else(bad)?;
            Some(FaultSpec { seed, rate })
        }
    };

    let flag = |name: &str| match doc.field(name) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| err(kind::BAD_REQUEST, format!("`{name}` must be a boolean"))),
    };
    let partitioned = flag("partitioned")?;
    let cpu_progr_only = flag("cpu_progr_only")?;

    let deadline_ms = match doc.field("deadline_ms") {
        None => None,
        Some(v) => Some(as_u64(v).filter(|&n| n >= 1).ok_or_else(|| {
            err(
                kind::BAD_REQUEST,
                "`deadline_ms` must be a positive integer".into(),
            )
        })?),
    };

    Ok(Request {
        id,
        op,
        tenant,
        models,
        preset,
        steps,
        batch,
        priority,
        tie,
        faults,
        partitioned,
        cpu_progr_only,
        deadline_ms,
    })
}

/// Renders one execution report as a compact JSON object.
///
/// Every float uses Rust's shortest-round-trip `{}` formatting, so a
/// report rendered here is byte-identical to the same report rendered
/// anywhere else — the service-determinism tests compare daemon output
/// against direct `Engine` runs through this one function.
pub fn render_report(r: &pim_runtime::ExecutionReport) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"system\":{},\"steps\":{},\"makespan_s\":{},\"op_time_s\":{},\
         \"data_movement_s\":{},\"sync_s\":{},\"dynamic_energy_j\":{},\
         \"ff_utilization\":{},\"device_busy\":{{",
        json_string(&r.system),
        r.steps,
        r.makespan.seconds(),
        r.op_time.seconds(),
        r.data_movement_time.seconds(),
        r.sync_time.seconds(),
        r.dynamic_energy.joules(),
        r.ff_utilization,
    );
    for (i, (device, busy)) in r.device_busy.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_string(device), busy.seconds());
    }
    out.push_str("}}");
    out
}

/// Renders a successful `run` response: [`render_ok_body`]'s per-cell
/// body spliced after the per-request head by [`render_ok_spliced`].
pub fn render_ok(
    id: &str,
    tenant: &str,
    cache_hit: bool,
    reports: &[pim_runtime::ExecutionReport],
    degraded: Option<&str>,
) -> String {
    render_ok_spliced(id, tenant, cache_hit, &render_ok_body(reports, degraded))
}

/// The per-cell part of a `run` response,
/// `"degraded":…,"reports":[…]}`: a pure function of the cell's result,
/// so the daemon renders it once per cell and splices it into every
/// response that cell answers.
pub fn render_ok_body(reports: &[pim_runtime::ExecutionReport], degraded: Option<&str>) -> String {
    let mut out = String::from("\"degraded\":");
    match degraded {
        Some(name) => out.push_str(&json_string(name)),
        None => out.push_str("null"),
    }
    out.push_str(",\"reports\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_report(r));
    }
    out.push_str("]}");
    out
}

/// A `run` response from its per-request head,
/// `{"id":…,"status":"ok","tenant":…,"cache":"hit|miss",`, and a body
/// rendered by [`render_ok_body`].
pub fn render_ok_spliced(id: &str, tenant: &str, cache_hit: bool, body: &str) -> String {
    let id = json_string(id);
    let tenant = json_string(tenant);
    let mut out = String::with_capacity(48 + id.len() + tenant.len() + body.len());
    let _ = write!(
        out,
        "{{\"id\":{id},\"status\":\"ok\",\"tenant\":{tenant},\"cache\":\"{}\",",
        if cache_hit { "hit" } else { "miss" },
    );
    out.push_str(body);
    out
}

/// Renders an error response ([`ParseError`] or an admission/execution
/// failure). `id` is `null` when the line never yielded one.
pub fn render_error(id: Option<&str>, kind: &str, message: &str) -> String {
    format!(
        "{{\"id\":{},\"status\":\"error\",\"error\":{},\"message\":{}}}",
        id.map_or_else(|| "null".to_string(), json_string),
        json_string(kind),
        json_string(message),
    )
}

/// Renders the acknowledgement of a `{"cmd":"shutdown"}` control line.
/// `id` is `None` when the control line carried no id.
pub fn render_shutdown_ack(id: Option<&str>) -> String {
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"shutdown\":true}}",
        id.map_or_else(|| "null".to_string(), json_string),
    )
}

/// Deterministic service counters reported by the `stats` verb — no
/// wall-clock values, so stats lines byte-diff across replays just like
/// run responses (latency percentiles live in the out-of-band
/// [`crate::daemon::DaemonStats`] summary instead).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Lines received (any verb, including rejected ones).
    pub jobs: u64,
    /// Successful run responses.
    pub ok: u64,
    /// Error responses of any kind.
    pub errors: u64,
    /// Admission rejections (subset of `errors`).
    pub rejected: u64,
    /// Run responses served from the store or by coalescing onto an
    /// in-flight computation.
    pub cache_hits: u64,
    /// Cache hits whose cell was first computed for a *different*
    /// tenant — the cross-tenant sharing the shared store exists for.
    pub cross_tenant_hits: u64,
    /// Distinct cells computed by this daemon instance.
    pub distinct_cells: u64,
}

/// Renders a `stats` response.
pub fn render_stats(id: &str, c: &ServiceCounters) -> String {
    format!(
        "{{\"id\":{},\"status\":\"ok\",\"stats\":{{\"jobs\":{},\"ok\":{},\"errors\":{},\
         \"rejected\":{},\"cache_hits\":{},\"cross_tenant_hits\":{},\"distinct_cells\":{}}}}}",
        json_string(id),
        c.jobs,
        c.ok,
        c.errors,
        c.rejected,
        c.cache_hits,
        c.cross_tenant_hits,
        c.distinct_cells,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_common::rng::{check, Gen};
    use pim_common::units::{Joules, Seconds};
    use pim_runtime::stats::ReportBuilder;
    use pim_runtime::ExecutionReport;

    #[test]
    fn parses_a_minimal_run_request() {
        let req = parse_request(r#"{"id":"1","model":"alex"}"#).unwrap();
        assert_eq!(req.id, "1");
        assert_eq!(req.op, Op::Run);
        assert_eq!(req.tenant, "public");
        assert_eq!(req.models, vec!["alex"]);
        assert_eq!(req.preset, "hetero");
        assert_eq!(req.steps, 1);
        assert_eq!(req.priority, 4);
        assert_eq!(req.tie, TieBreak::Stable);
        assert!(req.faults.is_none() && !req.partitioned && !req.cpu_progr_only);
    }

    #[test]
    fn parses_every_field() {
        let req = parse_request(
            r#"{"id":"x","op":"run","tenant":"t0","models":["alex","lstm"],"preset":"cpu",
                "steps":3,"batch":64,"priority":9,"tie":{"permuted":7},
                "faults":{"seed":5,"rate":1.5},"partitioned":true,"cpu_progr_only":true}"#,
        )
        .unwrap();
        assert_eq!(req.models, vec!["alex", "lstm"]);
        assert_eq!(req.batch, Some(64));
        assert_eq!(req.priority, 9);
        assert_eq!(req.tie, TieBreak::Permuted(7));
        assert_eq!(req.faults, Some(FaultSpec { seed: 5, rate: 1.5 }));
        assert!(req.partitioned && req.cpu_progr_only);
    }

    #[test]
    fn malformed_lines_have_no_id() {
        for line in ["", "{", "not json", "[1,2]", "42"] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, kind::MALFORMED, "line {line:?}");
            assert_eq!(e.id, None);
        }
    }

    #[test]
    fn unknown_field_keeps_the_id() {
        let e = parse_request(r#"{"id":"7","model":"alex","models_":["x"]}"#).unwrap_err();
        assert_eq!(e.kind, kind::UNKNOWN_FIELD);
        assert_eq!(e.id.as_deref(), Some("7"));
        assert!(e.message.contains("models_"));
    }

    #[test]
    fn field_validation_errors_keep_the_id() {
        let cases = [
            r#"{"id":"a","model":"alex","steps":0}"#,
            r#"{"id":"a","model":"alex","steps":1.5}"#,
            r#"{"id":"a","model":"alex","priority":10}"#,
            r#"{"id":"a","model":"alex","tie":"sorted"}"#,
            r#"{"id":"a","model":"alex","tie":{"permuted":-1}}"#,
            r#"{"id":"a","model":"alex","faults":{"seed":1}}"#,
            r#"{"id":"a","model":"alex","faults":{"seed":1,"rate":-2}}"#,
            r#"{"id":"a","model":"alex","partitioned":"yes"}"#,
            r#"{"id":"a","model":"alex","models":["lstm"]}"#,
            r#"{"id":"a"}"#,
            r#"{"id":"a","op":"delete","model":"alex"}"#,
        ];
        for line in cases {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.kind, kind::BAD_REQUEST, "line {line:?}");
            assert_eq!(e.id.as_deref(), Some("a"), "line {line:?}");
        }
    }

    #[test]
    fn parses_deadline_ms() {
        let req = parse_request(r#"{"id":"1","model":"alex","deadline_ms":250}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(250));
        for bad in [
            r#"{"id":"a","model":"alex","deadline_ms":0}"#,
            r#"{"id":"a","model":"alex","deadline_ms":1.5}"#,
            r#"{"id":"a","model":"alex","deadline_ms":"fast"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.kind, kind::BAD_REQUEST, "line {bad:?}");
            assert_eq!(e.id.as_deref(), Some("a"));
        }
    }

    #[test]
    fn parses_shutdown_control_lines() {
        let req = parse_request(r#"{"cmd":"shutdown"}"#).unwrap();
        assert_eq!(req.op, Op::Shutdown);
        assert_eq!(req.id, "");
        let req = parse_request(r#"{"id":"bye","cmd":"shutdown"}"#).unwrap();
        assert_eq!(req.op, Op::Shutdown);
        assert_eq!(req.id, "bye");
        // Unknown command verb and job fields on a control line both fail.
        let e = parse_request(r#"{"cmd":"restart"}"#).unwrap_err();
        assert_eq!(e.kind, kind::BAD_REQUEST);
        let e = parse_request(r#"{"cmd":"shutdown","model":"alex"}"#).unwrap_err();
        assert_eq!(e.kind, kind::BAD_REQUEST);
        assert!(e.message.contains("model"));
    }

    #[test]
    fn missing_id_is_bad_request_without_id() {
        let e = parse_request(r#"{"model":"alex"}"#).unwrap_err();
        assert_eq!(e.kind, kind::BAD_REQUEST);
        assert_eq!(e.id, None);
    }

    /// A string drawn from characters that stress the JSON escaper:
    /// quotes, backslashes, control characters and non-ASCII.
    fn hostile(g: &mut Gen) -> String {
        const CHARS: [char; 12] = [
            'a', 'Z', '7', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '日', '🦀',
        ];
        g.vec(0..8, |g| CHARS[g.draw(0..CHARS.len())])
            .into_iter()
            .collect()
    }

    fn report(g: &mut Gen) -> ExecutionReport {
        let mut b = ReportBuilder::new(hostile(g), g.draw(1..5usize))
            .makespan(Seconds::new(g.draw(1e-6..10.0)))
            .raw_parts(
                Seconds::new(g.draw(0.0..1.0)),
                Seconds::new(g.draw(0.0..1.0)),
                Seconds::new(g.draw(0.0..1.0)),
            )
            .device_energy(Joules::new(g.draw(0.0..100.0)))
            .ff_utilization(g.draw(0.0..1.0));
        for _ in 0..g.draw(0..3usize) {
            b = b.device_busy(hostile(g), Seconds::new(g.draw(0.0..1.0)));
        }
        b.build()
    }

    #[test]
    fn render_ok_is_a_request_head_then_a_cell_body() {
        check(200, "render_ok_is_a_request_head_then_a_cell_body", |g| {
            let id = hostile(g);
            let tenant = hostile(g);
            let hit = g.draw(0..2usize) == 1;
            let reports = g.vec(0..4, report);
            let degraded = (g.draw(0..2usize) == 1).then(|| hostile(g));

            let body = render_ok_body(&reports, degraded.as_deref());
            let line = render_ok(&id, &tenant, hit, &reports, degraded.as_deref());
            assert_eq!(line, render_ok_spliced(&id, &tenant, hit, &body));

            // Both halves, spelled out independently of the renderers.
            let head = format!(
                "{{\"id\":{},\"status\":\"ok\",\"tenant\":{},\"cache\":\"{}\",",
                json_string(&id),
                json_string(&tenant),
                if hit { "hit" } else { "miss" },
            );
            let rendered: Vec<String> = reports.iter().map(render_report).collect();
            let want_body = format!(
                "\"degraded\":{},\"reports\":[{}]}}",
                degraded
                    .as_deref()
                    .map_or_else(|| "null".to_string(), json_string),
                rendered.join(","),
            );
            assert_eq!(body, want_body);
            assert_eq!(line, head + &want_body);

            // The line is one JSON object that reads back what went in.
            assert!(!line.contains('\n'));
            let doc = parse_json(&line).unwrap();
            assert_eq!(doc.field("id").and_then(Json::as_str), Some(id.as_str()));
            assert_eq!(
                doc.field("tenant").and_then(Json::as_str),
                Some(tenant.as_str())
            );
            let cache = doc.field("cache").and_then(Json::as_str);
            assert_eq!(cache, Some(if hit { "hit" } else { "miss" }));
            assert_eq!(
                doc.field("degraded").and_then(Json::as_str),
                degraded.as_deref()
            );
            let got = doc.field("reports").and_then(Json::as_arr).unwrap();
            assert_eq!(got.len(), reports.len());
            for (r, j) in reports.iter().zip(got) {
                assert_eq!(
                    j.field("system").and_then(Json::as_str),
                    Some(r.system.as_str())
                );
            }
        });
    }

    #[test]
    fn responses_are_single_json_lines() {
        let ok = render_ok("1", "t0", true, &[], Some("CPU"));
        assert!(ok.contains("\"cache\":\"hit\"") && ok.contains("\"degraded\":\"CPU\""));
        let err = render_error(None, kind::MALFORMED, "bad \"line\"");
        assert!(err.starts_with("{\"id\":null,"));
        for line in [ok, err, render_stats("s", &ServiceCounters::default())] {
            let doc = pim_common::trace::parse_json(&line).unwrap();
            assert!(matches!(doc, Json::Obj(_)));
            assert!(!line.contains('\n'));
        }
    }
}
