//! Protocol robustness: hostile, malformed, and over-limit input must
//! produce structured error responses carrying the request id — never a
//! daemon crash — and well-formed traffic must replay byte-identically.
//!
//! These tests run the real daemon core against a synthetic
//! [`JobRunner`], so protocol and admission behavior is pinned without
//! simulating anything.

use pim_common::units::Seconds;
use pim_runtime::stats::ReportBuilder;
use pim_serve::daemon::{
    serve_lines, JobError, JobRunner, MemStore, ResultStore, ServeConfig, StoredResult,
};
use pim_serve::protocol::Request;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Models the toy runner accepts; `"explode"` passes validation but
/// fails at execution, and `"panic"` panics outright — both exercise
/// the `execution_failed` path.
const KNOWN: [&str; 5] = ["alex", "dcgan", "lstm", "explode", "panic"];

struct ToyRunner;

impl JobRunner for ToyRunner {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        for m in &req.models {
            if !KNOWN.contains(&m.as_str()) {
                return Err(JobError::bad_request(format!("unknown model `{m}`")));
            }
        }
        Ok(pim_common::fingerprint::debug_hash(&(
            &req.models,
            &req.preset,
            req.steps,
            req.batch,
            req.tie,
            req.faults.map(|f| (f.seed, f.rate.to_bits())),
            req.partitioned,
            req.cpu_progr_only,
            // Deadlines are part of the cell identity: a deadlined run
            // must never coalesce with an undeadlined one.
            req.deadline_ms,
        )))
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        if req.models.iter().any(|m| m == "explode") {
            return Err(JobError::execution("synthetic failure"));
        }
        assert!(!req.models.iter().any(|m| m == "panic"), "synthetic panic");
        // The toy makespan is (1 + name-length) * steps "milliseconds";
        // a deadline below it cuts the run off deterministically.
        if let Some(ms) = req.deadline_ms {
            let cost: u64 = req
                .models
                .iter()
                .map(|m| (1 + m.len() as u64) * req.steps as u64)
                .sum();
            if cost > ms {
                return Err(JobError::deadline(format!(
                    "run needs {cost} ms, deadline is {ms} ms"
                )));
            }
        }
        let reports = req
            .models
            .iter()
            .map(|m| {
                ReportBuilder::new(format!("{}/{m}", req.preset), req.steps)
                    .makespan(Seconds::new(1e-3 * (1 + m.len()) as f64 * req.steps as f64))
                    .build()
            })
            .collect();
        Ok(StoredResult {
            reports,
            degraded: None,
        })
    }
}

fn serve(cfg: &ServeConfig, store: &dyn ResultStore, input: &str) -> (Vec<String>, String) {
    let mut out = Vec::new();
    serve_lines(cfg, &ToyRunner, store, input.as_bytes(), &mut out).expect("daemon I/O");
    let text = String::from_utf8(out).expect("utf8 responses");
    (text.lines().map(str::to_string).collect(), text)
}

fn small_cfg() -> ServeConfig {
    ServeConfig {
        capacity: 4,
        tenant_quota: 2,
        workers: 2,
        max_steps: 4,
        ..ServeConfig::default()
    }
}

#[test]
fn malformed_and_truncated_lines_get_structured_errors() {
    let input = "\
{\"id\":\"ok1\",\"model\":\"alex\"}\n\
{\"id\":\"trunc\",\"model\":\"al\n\
not json at all\n\
[\"id\",\"x\"]\n\
{\"id\":\"ok2\",\"model\":\"lstm\"}\n";
    let (lines, _) = serve(&ServeConfig::default(), &MemStore::default(), input);
    assert_eq!(lines.len(), 5);
    assert!(lines[0].contains("\"id\":\"ok1\"") && lines[0].contains("\"status\":\"ok\""));
    for bad in &lines[1..4] {
        assert!(bad.contains("\"status\":\"error\""), "{bad}");
        assert!(bad.contains("\"error\":\"malformed\""), "{bad}");
        assert!(bad.starts_with("{\"id\":null"), "{bad}");
    }
    // The daemon survived the garbage and kept serving.
    assert!(lines[4].contains("\"id\":\"ok2\"") && lines[4].contains("\"status\":\"ok\""));
}

#[test]
fn unknown_fields_and_bad_values_echo_the_id() {
    let input = "\
{\"id\":\"u1\",\"model\":\"alex\",\"prioritty\":3}\n\
{\"id\":\"u2\",\"model\":\"alex\",\"steps\":0}\n\
{\"id\":\"u3\",\"model\":\"nosuch\"}\n\
{\"id\":\"u4\",\"model\":\"alex\",\"steps\":99}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert!(lines[0].contains("\"id\":\"u1\"") && lines[0].contains("\"error\":\"unknown_field\""));
    assert!(lines[1].contains("\"id\":\"u2\"") && lines[1].contains("\"error\":\"bad_request\""));
    assert!(lines[2].contains("\"id\":\"u3\"") && lines[2].contains("\"error\":\"bad_request\""));
    // Steps beyond the service cap are rejected at admission.
    assert!(lines[3].contains("\"id\":\"u4\"") && lines[3].contains("\"error\":\"bad_request\""));
}

/// [`ToyRunner`] that counts its `cache_key` calls.
#[derive(Default)]
struct CountingRunner {
    keyed: AtomicUsize,
}

impl JobRunner for CountingRunner {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        self.keyed.fetch_add(1, Ordering::SeqCst);
        ToyRunner.cache_key(req)
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        ToyRunner.execute(req)
    }
}

#[test]
fn only_run_lines_within_the_step_cap_are_keyed() {
    // Two run lines (the second a cache hit), then lines that must answer
    // without keying: malformed, an unknown field, a bad value, a missing
    // id, over the step cap, stats, and shutdown.
    let input = "\
{\"id\":\"r1\",\"model\":\"alex\"}\n\
{\"id\":\"r2\",\"model\":\"alex\"}\n\
not json at all\n\
[\"id\",\"x\"]\n\
{\"id\":\"m1\",\"model\":\"alex\",\"prioritty\":3}\n\
{\"id\":\"m2\",\"model\":\"alex\",\"steps\":0}\n\
{\"model\":\"alex\"}\n\
{\"id\":\"cap\",\"model\":\"alex\",\"steps\":99}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n\
{\"cmd\":\"shutdown\",\"id\":\"bye\"}\n";
    let runner = CountingRunner::default();
    let mut out = Vec::new();
    serve_lines(
        &small_cfg(),
        &runner,
        &MemStore::default(),
        input.as_bytes(),
        &mut out,
    )
    .expect("daemon I/O");
    let text = String::from_utf8(out).expect("utf8 responses");
    assert_eq!(text.lines().count(), 10, "{text}");
    assert_eq!(runner.keyed.load(Ordering::SeqCst), 2, "{text}");
}

#[test]
fn the_step_cap_answers_before_the_key_error() {
    // An unknown model over the step cap: the cap is checked first, so
    // the line gets the cap's `bad_request`, not the unknown-model one.
    let input = "{\"id\":\"both\",\"model\":\"nosuch\",\"steps\":99}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"both\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"error\":\"bad_request\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[0].contains("`steps` exceeds the service cap of 4"),
        "{}",
        lines[0]
    );
    assert!(!lines[0].contains("unknown model"), "{}", lines[0]);
}

#[test]
fn over_quota_rejects_deterministically_with_the_id() {
    // Quota 2: the tenant's third distinct outstanding job must reject,
    // regardless of worker timing, because slots release only at
    // barriers.
    let input = "\
{\"id\":\"q1\",\"tenant\":\"t0\",\"model\":\"alex\"}\n\
{\"id\":\"q2\",\"tenant\":\"t0\",\"model\":\"lstm\",\"steps\":2}\n\
{\"id\":\"q3\",\"tenant\":\"t0\",\"model\":\"dcgan\"}\n\
{\"id\":\"q4\",\"tenant\":\"t1\",\"model\":\"dcgan\"}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n\
{\"id\":\"q5\",\"tenant\":\"t0\",\"model\":\"dcgan\",\"steps\":2}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert!(lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].contains("\"status\":\"ok\""));
    assert!(lines[2].contains("\"id\":\"q3\"") && lines[2].contains("\"error\":\"over_quota\""));
    // Another tenant still has room.
    assert!(lines[3].contains("\"id\":\"q4\"") && lines[3].contains("\"status\":\"ok\""));
    assert!(lines[4].contains("\"rejected\":1"), "{}", lines[4]);
    // The barrier released the slots: the same tenant runs again.
    assert!(lines[5].contains("\"id\":\"q5\"") && lines[5].contains("\"status\":\"ok\""));
}

#[test]
fn over_capacity_rejects_deterministically_with_the_id() {
    // Capacity 4, quota 2: tenants t0+t1 fill the daemon, t2 rejects
    // with over_capacity (capacity outranks quota in the check order).
    let input = "\
{\"id\":\"c1\",\"tenant\":\"t0\",\"model\":\"alex\"}\n\
{\"id\":\"c2\",\"tenant\":\"t0\",\"model\":\"lstm\"}\n\
{\"id\":\"c3\",\"tenant\":\"t1\",\"model\":\"dcgan\"}\n\
{\"id\":\"c4\",\"tenant\":\"t1\",\"model\":\"alex\",\"steps\":2}\n\
{\"id\":\"c5\",\"tenant\":\"t2\",\"model\":\"lstm\",\"steps\":2}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    for ok in &lines[0..4] {
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    }
    assert!(lines[4].contains("\"id\":\"c5\"") && lines[4].contains("\"error\":\"over_capacity\""));
    assert!(lines[5].contains("\"jobs\":6") && lines[5].contains("\"rejected\":1"));
}

#[test]
fn cache_hits_coalesce_and_bypass_admission_once_done() {
    // Same cell four times from two tenants: one compute (miss), one
    // in-flight waiter (hit, holds a slot), and after the barrier two
    // free hits that bypass admission entirely.
    let input = "\
{\"id\":\"a\",\"tenant\":\"t0\",\"model\":\"alex\"}\n\
{\"id\":\"b\",\"tenant\":\"t1\",\"model\":\"alex\"}\n\
{\"id\":\"s1\",\"op\":\"stats\"}\n\
{\"id\":\"c\",\"tenant\":\"t0\",\"model\":\"alex\"}\n\
{\"id\":\"d\",\"tenant\":\"t1\",\"model\":\"alex\"}\n\
{\"id\":\"s2\",\"op\":\"stats\"}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert!(lines[0].contains("\"cache\":\"miss\""));
    for hit in [&lines[1], &lines[3], &lines[4]] {
        assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    }
    // b, c(d? only b and d are cross-tenant: owner is t0): b and d.
    assert!(
        lines[5].contains("\"cache_hits\":3") && lines[5].contains("\"cross_tenant_hits\":2"),
        "{}",
        lines[5]
    );
    assert!(lines[5].contains("\"distinct_cells\":1"));
    // The compute and waiter responses carry identical report bytes.
    let body = |l: &str| l.split("\"reports\":").nth(1).unwrap().to_string();
    assert_eq!(body(&lines[0]), body(&lines[1]));
}

#[test]
fn execution_failures_reach_computer_and_waiters_without_crashing() {
    let input = "\
{\"id\":\"x1\",\"tenant\":\"t0\",\"model\":\"explode\"}\n\
{\"id\":\"x2\",\"tenant\":\"t1\",\"model\":\"explode\"}\n\
{\"id\":\"ok\",\"tenant\":\"t1\",\"model\":\"alex\"}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    for failed in &lines[0..2] {
        assert!(
            failed.contains("\"error\":\"execution_failed\""),
            "{failed}"
        );
    }
    assert!(lines[0].contains("\"id\":\"x1\"") && lines[1].contains("\"id\":\"x2\""));
    assert!(lines[2].contains("\"status\":\"ok\""));
    assert!(lines[3].contains("\"errors\":2") && lines[3].contains("\"ok\":1"));
}

#[test]
fn runner_panics_become_responses_and_the_daemon_keeps_serving() {
    // A panic inside execute must not take the worker thread down (a
    // dead worker would wedge the drain barrier forever); it surfaces
    // as an execution_failed response like any other failure.
    let input = "\
{\"id\":\"p1\",\"tenant\":\"t0\",\"model\":\"panic\"}\n\
{\"id\":\"p2\",\"tenant\":\"t1\",\"model\":\"alex\"}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n\
{\"id\":\"p3\",\"tenant\":\"t0\",\"model\":\"lstm\"}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert!(
        lines[0].contains("\"id\":\"p1\"") && lines[0].contains("\"error\":\"execution_failed\"")
    );
    assert!(lines[0].contains("panicked"), "{}", lines[0]);
    assert!(lines[1].contains("\"status\":\"ok\""));
    assert!(lines[2].contains("\"errors\":1"));
    assert!(lines[3].contains("\"id\":\"p3\"") && lines[3].contains("\"status\":\"ok\""));
}

#[test]
fn replays_are_byte_identical_across_worker_counts() {
    let trace = pim_serve::loadgen::generate(200, 11, 3).join("\n") + "\n";
    let mut streams = Vec::new();
    for workers in [1, 2, 8] {
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        // Fresh store per replay: both runs start cold.
        let (_, text) = serve(&cfg, &MemStore::default(), &trace);
        streams.push(text);
    }
    assert_eq!(streams[0], streams[1]);
    assert_eq!(streams[1], streams[2]);
    assert!(streams[0].contains("\"cross_tenant_hits\":"));
}

#[test]
fn oversized_lines_error_without_buffering_and_the_connection_survives() {
    let cfg = ServeConfig {
        max_line_bytes: 64,
        ..small_cfg()
    };
    let huge = "x".repeat(500);
    let input = format!(
        "{{\"id\":\"before\",\"model\":\"alex\"}}\n{huge}\n{{\"id\":\"after\",\"model\":\"lstm\"}}\n"
    );
    let (lines, _) = serve(&cfg, &MemStore::default(), &input);
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"id\":\"before\"") && lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].starts_with("{\"id\":null") && lines[1].contains("\"error\":\"malformed\""));
    assert!(
        lines[1].contains("max-line-bytes cap of 64"),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"id\":\"after\"") && lines[2].contains("\"status\":\"ok\""));
}

#[test]
fn invalid_utf8_lines_error_per_line_and_the_connection_survives() {
    let mut input: Vec<u8> = b"{\"id\":\"before\",\"model\":\"alex\"}\n".to_vec();
    input.extend_from_slice(&[0xff, 0xfe, 0x80, b'{', b'\n']);
    input.extend_from_slice(b"{\"id\":\"after\",\"model\":\"lstm\"}\n");
    let mut out = Vec::new();
    serve_lines(
        &small_cfg(),
        &ToyRunner,
        &MemStore::default(),
        input.as_slice(),
        &mut out,
    )
    .expect("daemon I/O");
    let text = String::from_utf8(out).expect("utf8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"id\":\"before\"") && lines[0].contains("\"status\":\"ok\""));
    assert!(lines[1].starts_with("{\"id\":null") && lines[1].contains("\"error\":\"malformed\""));
    assert!(lines[1].contains("not valid UTF-8"), "{}", lines[1]);
    assert!(lines[2].contains("\"id\":\"after\"") && lines[2].contains("\"status\":\"ok\""));
}

#[test]
fn deadlines_cut_off_runaways_without_touching_other_tenants() {
    // alex at 4 steps costs (1+4)*4 = 20 toy-ms: a 10ms deadline trips,
    // and the identical cell without a deadline (another tenant, same
    // window) is a separate cell and completes untouched.
    let input = "\
{\"id\":\"runaway\",\"tenant\":\"t0\",\"model\":\"alex\",\"steps\":4,\"deadline_ms\":10}\n\
{\"id\":\"bystander\",\"tenant\":\"t1\",\"model\":\"alex\",\"steps\":4}\n\
{\"id\":\"s\",\"op\":\"stats\"}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert!(
        lines[0].contains("\"id\":\"runaway\"")
            && lines[0].contains("\"error\":\"deadline_exceeded\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"id\":\"bystander\"") && lines[1].contains("\"status\":\"ok\""),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"errors\":1") && lines[2].contains("\"ok\":1"));
}

#[test]
fn breakers_open_probe_and_close_as_a_pure_function_of_the_stream() {
    use pim_serve::breaker::BreakerConfig;
    let cfg = ServeConfig {
        breaker: BreakerConfig {
            threshold: 2,
            cooldown: 1,
        },
        ..small_cfg()
    };
    // Two failures (observed at the stats barriers) open t0's breaker;
    // one rejected admission covers the cooldown; the next run is the
    // probe, its success closes the breaker again. t1 never notices.
    let input = "\
{\"id\":\"f1\",\"tenant\":\"t0\",\"model\":\"explode\"}\n\
{\"id\":\"s1\",\"op\":\"stats\"}\n\
{\"id\":\"f2\",\"tenant\":\"t0\",\"model\":\"explode\",\"steps\":2}\n\
{\"id\":\"s2\",\"op\":\"stats\"}\n\
{\"id\":\"rejected\",\"tenant\":\"t0\",\"model\":\"alex\"}\n\
{\"id\":\"other\",\"tenant\":\"t1\",\"model\":\"dcgan\"}\n\
{\"id\":\"probe\",\"tenant\":\"t0\",\"model\":\"lstm\"}\n\
{\"id\":\"s3\",\"op\":\"stats\"}\n\
{\"id\":\"closed\",\"tenant\":\"t0\",\"model\":\"alex\",\"steps\":2}\n";
    let (lines, _) = serve(&cfg, &MemStore::default(), input);
    assert!(lines[0].contains("\"error\":\"execution_failed\""));
    assert!(lines[2].contains("\"error\":\"execution_failed\""));
    assert!(
        lines[4].contains("\"id\":\"rejected\"") && lines[4].contains("\"error\":\"breaker_open\""),
        "{}",
        lines[4]
    );
    assert!(
        lines[5].contains("\"id\":\"other\"") && lines[5].contains("\"status\":\"ok\""),
        "{}",
        lines[5]
    );
    assert!(
        lines[6].contains("\"id\":\"probe\"") && lines[6].contains("\"status\":\"ok\""),
        "{}",
        lines[6]
    );
    assert!(lines[7].contains("\"rejected\":1"), "{}", lines[7]);
    assert!(
        lines[8].contains("\"id\":\"closed\"") && lines[8].contains("\"status\":\"ok\""),
        "{}",
        lines[8]
    );
}

#[test]
fn shutdown_control_line_drains_acks_and_stops_reading() {
    let input = "\
{\"id\":\"a\",\"tenant\":\"t0\",\"model\":\"alex\"}\n\
{\"cmd\":\"shutdown\",\"id\":\"bye\"}\n\
{\"id\":\"never\",\"tenant\":\"t0\",\"model\":\"lstm\"}\n";
    let (lines, _) = serve(&small_cfg(), &MemStore::default(), input);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].contains("\"id\":\"a\"") && lines[0].contains("\"status\":\"ok\""));
    assert_eq!(
        lines[1],
        "{\"id\":\"bye\",\"status\":\"ok\",\"shutdown\":true}"
    );

    // Without an id the ack renders a null id.
    let (lines, _) = serve(
        &small_cfg(),
        &MemStore::default(),
        "{\"cmd\":\"shutdown\"}\n",
    );
    assert_eq!(lines, ["{\"id\":null,\"status\":\"ok\",\"shutdown\":true}"]);
}

#[test]
fn warm_store_changes_flags_but_not_reports() {
    let trace = "{\"id\":\"w\",\"tenant\":\"t0\",\"model\":\"alex\"}\n";
    let store = MemStore::default();
    let (cold, _) = serve(&ServeConfig::default(), &store, trace);
    let (warm, _) = serve(&ServeConfig::default(), &store, trace);
    assert!(cold[0].contains("\"cache\":\"miss\""));
    assert!(warm[0].contains("\"cache\":\"hit\""));
    let body = |l: &str| l.split("\"reports\":").nth(1).unwrap().to_string();
    assert_eq!(body(&cold[0]), body(&warm[0]));
}
