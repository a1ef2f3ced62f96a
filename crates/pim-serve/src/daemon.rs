//! The daemon core: admission, the sharded worker pool, the shared
//! result store, and deterministic response emission.
//!
//! One [`serve_lines`] call services one connection (stdin or a TCP
//! socket): the calling thread parses and admits request lines while a
//! worker pool drains the priority queue concurrently. Responses are
//! buffered and emitted strictly in submission order at *drain
//! barriers* — a `stats` line or end-of-input — and admission slots are
//! released only there, so every admission decision, cache-hit flag,
//! and response byte is a pure function of the request sequence, no
//! matter how many workers run or how they interleave (the determinism
//! argument is spelled out in DESIGN.md §4.11). Wall-clock queue
//! latencies are collected out-of-band in [`DaemonStats`] and never
//! appear in the response stream.

use crate::breaker::{Admission, BreakerConfig, BreakerSet};
use crate::journal::{self, Journal};
use crate::protocol::{self, kind, Op, Request, ServiceCounters};
use crate::queue::{AdmissionQueue, RejectReason};
use pim_runtime::ExecutionReport;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Daemon-wide cap on outstanding (admitted, un-emitted) jobs.
    pub capacity: usize,
    /// Per-tenant cap on outstanding jobs.
    pub tenant_quota: usize,
    /// Worker threads; 0 picks `PIM_RUN_THREADS` or the machine's
    /// available parallelism.
    pub workers: usize,
    /// Upper bound on `steps` per request (admission-time sanity cap).
    pub max_steps: usize,
    /// Cap on buffered bytes per input line; a longer line is discarded
    /// to its newline and answered with a structured `malformed` error
    /// instead of buffering unbounded memory.
    pub max_line_bytes: usize,
    /// Per-tenant circuit-breaker tuning (a `threshold` of 0 switches
    /// breakers off).
    pub breaker: BreakerConfig,
    /// Write-ahead journal path for crash-safe recovery (stdin sessions
    /// only; [`serve_tcp`] clears it because concurrent connections
    /// cannot share one append stream). `None` — the default — journals
    /// nothing and recovers nothing.
    pub journal: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 256,
            tenant_quota: 64,
            workers: 0,
            max_steps: 8,
            max_line_bytes: 1 << 20,
            breaker: BreakerConfig::default(),
            journal: None,
        }
    }
}

impl ServeConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::env::var("PIM_RUN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            })
    }
}

/// What a computed cell stores: the reports plus the degraded-preset
/// marker, exactly the result-bearing part of the engine's `RunOutput`.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredResult {
    /// One report per workload (partitioned) or a single aggregate.
    pub reports: Vec<ExecutionReport>,
    /// Display name of the preset the run degraded to, if any.
    pub degraded: Option<String>,
}

/// A failed job: the protocol error kind plus a message.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// One of the [`kind`] constants (`bad_request` for requests the
    /// runner cannot map onto a simulation, `execution_failed` for
    /// simulation errors).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl JobError {
    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        JobError {
            kind: kind::BAD_REQUEST,
            message: message.into(),
        }
    }

    /// An `execution_failed` error.
    pub fn execution(message: impl Into<String>) -> Self {
        JobError {
            kind: kind::EXECUTION_FAILED,
            message: message.into(),
        }
    }

    /// A `deadline_exceeded` error — the runner cut the simulation off
    /// at the request's `deadline_ms` budget.
    pub fn deadline(message: impl Into<String>) -> Self {
        JobError {
            kind: kind::DEADLINE_EXCEEDED,
            message: message.into(),
        }
    }
}

/// Maps requests onto simulations. The daemon core is runner-agnostic:
/// `pim-sim` provides the engine-backed implementation, the protocol
/// tests a synthetic one.
pub trait JobRunner: Sync {
    /// The content-addressed identity of the request's cell — for the
    /// engine runner, `RunRequest::fingerprint`. Also the semantic
    /// validation point: unknown models/presets fail here, before
    /// admission.
    ///
    /// Called on the reader thread *before* it takes the daemon's state
    /// lock, once per run line within the step cap, so it must be a pure
    /// function of the request: the same key or the same error whatever
    /// the workers are doing.
    ///
    /// # Errors
    ///
    /// A [`JobError`] (normally `bad_request`) when the request does
    /// not name a simulatable cell.
    fn cache_key(&self, req: &Request) -> Result<u64, JobError>;

    /// Runs the simulation.
    ///
    /// # Errors
    ///
    /// A [`JobError`] when the simulation fails.
    fn execute(&self, req: &Request) -> Result<StoredResult, JobError>;
}

/// The shared content-addressed result store.
pub trait ResultStore: Sync {
    /// Fetches a completed cell.
    fn get(&self, key: u64) -> Option<Arc<StoredResult>>;
    /// Publishes a completed cell.
    fn put(&self, key: u64, result: Arc<StoredResult>);
}

/// A process-local [`ResultStore`] for tests and standalone daemons.
#[derive(Default)]
pub struct MemStore {
    cells: Mutex<HashMap<u64, Arc<StoredResult>>>,
}

impl ResultStore for MemStore {
    fn get(&self, key: u64) -> Option<Arc<StoredResult>> {
        self.cells.lock().unwrap().get(&key).cloned()
    }
    fn put(&self, key: u64, result: Arc<StoredResult>) {
        self.cells.lock().unwrap().insert(key, result);
    }
}

/// Everything one [`serve_lines`] session measured.
#[derive(Debug, Clone, Default)]
pub struct DaemonStats {
    /// The deterministic service counters (also exposed by `stats`).
    pub counters: ServiceCounters,
    /// Wall-clock admit→dequeue latency of every computed job, in
    /// microseconds, in completion order. Out-of-band only.
    pub queue_latency_us: Vec<u64>,
}

impl DaemonStats {
    /// The `p`-th percentile (0..=100, nearest-rank) of the queue
    /// latencies, in microseconds; 0 when nothing was computed.
    pub fn latency_percentile_us(&self, p: f64) -> u64 {
        if self.queue_latency_us.is_empty() {
            return 0;
        }
        let mut sorted = self.queue_latency_us.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// One queued computation.
struct WorkItem {
    window_idx: usize,
    key: u64,
    req: Request,
    admitted_at: Instant,
}

/// A job coalesced onto an in-flight cell, waiting for its result.
struct Waiter {
    window_idx: usize,
    id: String,
    tenant: String,
}

/// Per-cell bookkeeping for coalescing and cross-tenant accounting.
enum Cell {
    /// Queued or running: later duplicates coalesce onto it as waiters.
    InFlight {
        owner_tenant: String,
        waiters: Vec<Waiter>,
    },
    /// Completed: every later run line for the cell is a hit answered by
    /// splicing its head onto `body`, the [`protocol::render_ok_body`] of
    /// the cell's result, rendered once per cell (the store keeps the
    /// result itself). `owner_tenant` is the tenant it was computed for.
    Done {
        owner_tenant: String,
        body: Arc<str>,
    },
}

enum Slot {
    /// Response text already known (errors, rejections, cache hits).
    Ready(String),
    /// A worker will fill it (computations and their waiters).
    Waiting,
}

/// One response slot of the current drain window.
struct WindowSlot {
    slot: Slot,
    /// Tenant holding an admission slot until the next barrier, if any.
    tenant: Option<String>,
    /// Whether this run is its tenant's half-open breaker probe.
    probe: bool,
    /// Breaker-relevant terminal outcome: `Some(true)` success,
    /// `Some(false)` strike-worthy failure, `None` neutral.
    verdict: Option<bool>,
}

struct CoreState {
    queue: AdmissionQueue<WorkItem>,
    /// Response slots of the current drain window, in submission order.
    window: Vec<WindowSlot>,
    ready: usize,
    shutdown: bool,
    cells: HashMap<u64, Cell>,
    breakers: BreakerSet,
    counters: ServiceCounters,
    latencies_us: Vec<u64>,
}

impl CoreState {
    /// Pushes a slot whose response is already known (errors,
    /// rejections, cache hits) — it holds no admission slot.
    fn push_ready(&mut self, response: String) {
        self.window.push(WindowSlot {
            slot: Slot::Ready(response),
            tenant: None,
            probe: false,
            verdict: None,
        });
        self.ready += 1;
    }
}

struct Core {
    state: Mutex<CoreState>,
    /// Signals workers: work queued or shutdown.
    work: Condvar,
    /// Signals the drain loop: a response became ready.
    done: Condvar,
}

impl Core {
    fn new(cfg: &ServeConfig) -> Self {
        Core {
            state: Mutex::new(CoreState {
                queue: AdmissionQueue::new(cfg.capacity, cfg.tenant_quota),
                window: Vec::new(),
                ready: 0,
                shutdown: false,
                cells: HashMap::new(),
                breakers: BreakerSet::new(cfg.breaker),
                counters: ServiceCounters::default(),
                latencies_us: Vec::new(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn worker_loop(&self, runner: &dyn JobRunner, store: &dyn ResultStore) {
        loop {
            let item = {
                let mut state = self.state.lock().unwrap();
                loop {
                    if let Some(item) = state.queue.pop() {
                        break item;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = self.work.wait(state).unwrap();
                }
            };
            let latency_us = u64::try_from(item.admitted_at.elapsed().as_micros()).unwrap_or(0);
            // A panicking runner must not take the worker down — a dead
            // worker leaves Waiting slots unfilled and wedges the drain
            // barrier. Panics become execution_failed responses instead.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner.execute(&item.req)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "runner panicked".to_string());
                Err(JobError::execution(format!("runner panicked: {msg}")))
            });

            // Render the cell once, before taking the state lock: the
            // body is a pure function of the result, and this job's own
            // response needs nothing the lock guards. Only the waiters'
            // heads are formatted under it.
            let rendered = outcome.map(|result| {
                let body: Arc<str> =
                    protocol::render_ok_body(&result.reports, result.degraded.as_deref()).into();
                let ok = protocol::render_ok_spliced(&item.req.id, &item.req.tenant, false, &body);
                store.put(item.key, Arc::new(result));
                (body, ok)
            });

            let mut state = self.state.lock().unwrap();
            state.latencies_us.push(latency_us);
            let waiters = match state.cells.get_mut(&item.key) {
                Some(Cell::InFlight { waiters, .. }) => std::mem::take(waiters),
                _ => Vec::new(),
            };
            match rendered {
                Ok((body, ok)) => {
                    fill(&mut state, item.window_idx, ok, Some(true));
                    state.counters.ok += 1;
                    for w in &waiters {
                        let resp = protocol::render_ok_spliced(&w.id, &w.tenant, true, &body);
                        // Waiter verdicts are neutral: whether a duplicate
                        // coalesces (waiter) or lands on a completed cell
                        // (plain cache hit) depends on worker timing, and
                        // only the former would be observed — so neither
                        // may touch the breaker.
                        fill(&mut state, w.window_idx, resp, None);
                        state.counters.ok += 1;
                    }
                    state.cells.insert(
                        item.key,
                        Cell::Done {
                            owner_tenant: item.req.tenant,
                            body,
                        },
                    );
                }
                Err(e) => {
                    // Only terminal service failures strike the breaker;
                    // a bad_request is the client's fault, not the cell's.
                    let verdict = (e.kind == kind::EXECUTION_FAILED
                        || e.kind == kind::DEADLINE_EXCEEDED)
                        .then_some(false);
                    let resp = protocol::render_error(Some(&item.req.id), e.kind, &e.message);
                    fill(&mut state, item.window_idx, resp, verdict);
                    state.counters.errors += 1;
                    for w in &waiters {
                        let resp = protocol::render_error(Some(&w.id), e.kind, &e.message);
                        fill(&mut state, w.window_idx, resp, None);
                        state.counters.errors += 1;
                    }
                    // Failed cells are forgotten: a later submission
                    // recomputes instead of replaying the failure.
                    state.cells.remove(&item.key);
                }
            }
            self.done.notify_all();
        }
    }
}

/// Marks a waiting window slot ready, recording its breaker verdict.
fn fill(state: &mut CoreState, window_idx: usize, response: String, verdict: Option<bool>) {
    debug_assert!(matches!(state.window[window_idx].slot, Slot::Waiting));
    state.window[window_idx].slot = Slot::Ready(response);
    state.window[window_idx].verdict = verdict;
    state.ready += 1;
}

/// One classified line from the capped byte reader.
enum RawLine {
    /// A complete UTF-8 line (trailing `\n` / `\r\n` stripped).
    Line(String),
    /// Bytes up to the newline that are not valid UTF-8.
    NotUtf8(Vec<u8>),
    /// A line longer than the cap; its bytes were discarded up to the
    /// newline instead of being buffered.
    TooLong,
}

/// Reads one line from `input` without ever buffering more than `max`
/// bytes — the replacement for `BufRead::lines` that makes oversized and
/// non-UTF-8 lines survivable per-line protocol errors instead of an
/// unbounded allocation or a dead connection. Returns `None` at EOF.
fn read_raw_line(input: &mut impl BufRead, max: usize) -> std::io::Result<Option<RawLine>> {
    enum Step {
        Eof,
        Newline(usize),
        Partial(usize),
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        let step = {
            let chunk = input.fill_buf()?;
            if chunk.is_empty() {
                Step::Eof
            } else if let Some(i) = chunk.iter().position(|&b| b == b'\n') {
                if !over {
                    if buf.len() + i > max {
                        over = true;
                        buf.clear();
                    } else {
                        buf.extend_from_slice(&chunk[..i]);
                    }
                }
                Step::Newline(i)
            } else {
                let n = chunk.len();
                if !over {
                    if buf.len() + n > max {
                        over = true;
                        buf.clear();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                Step::Partial(n)
            }
        };
        match step {
            Step::Eof => {
                if over {
                    return Ok(Some(RawLine::TooLong));
                }
                if buf.is_empty() {
                    return Ok(None);
                }
                break;
            }
            Step::Newline(i) => {
                input.consume(i + 1);
                if over {
                    return Ok(Some(RawLine::TooLong));
                }
                break;
            }
            Step::Partial(n) => input.consume(n),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Some(RawLine::Line(s))),
        Err(e) => Ok(Some(RawLine::NotUtf8(e.into_bytes()))),
    }
}

/// Journal-input payload tags: a literal line vs. an oversized-line
/// marker (an oversized line's bytes are discarded at read time, but its
/// deterministic `malformed` response must still replay on recovery).
const REPLAY_LITERAL: u8 = b'l';
const REPLAY_OVERSIZE: u8 = b'o';

fn encode_replay(raw: &RawLine) -> Vec<u8> {
    let mut payload = vec![match raw {
        RawLine::Line(_) | RawLine::NotUtf8(_) => REPLAY_LITERAL,
        RawLine::TooLong => REPLAY_OVERSIZE,
    }];
    match raw {
        RawLine::Line(s) => payload.extend_from_slice(s.as_bytes()),
        RawLine::NotUtf8(b) => payload.extend_from_slice(b),
        RawLine::TooLong => {}
    }
    payload
}

fn decode_replay(payload: &[u8]) -> RawLine {
    match payload.split_first() {
        Some((&REPLAY_LITERAL, rest)) => match std::str::from_utf8(rest) {
            Ok(s) => RawLine::Line(s.to_string()),
            Err(_) => RawLine::NotUtf8(rest.to_vec()),
        },
        Some((&REPLAY_OVERSIZE, _)) => RawLine::TooLong,
        // A foreign or empty payload replays as malformed rather than
        // guessing at a request.
        _ => RawLine::NotUtf8(payload.to_vec()),
    }
}

/// The response sink every emission flows through: recovery suppression
/// first, then the journal (journal-before-write), then the client.
struct Emit<'a, W: Write> {
    out: &'a mut W,
    journal: Option<&'a mut Journal>,
    /// Responses still to suppress during recovery replay — already
    /// journaled and (at-least-once) already delivered.
    suppress: usize,
}

impl<W: Write> Emit<'_, W> {
    fn line(&mut self, resp: &str) -> std::io::Result<()> {
        if self.suppress > 0 {
            self.suppress -= 1;
            return Ok(());
        }
        if let Some(j) = self.journal.as_deref_mut() {
            j.response(resp)?;
        }
        writeln!(self.out, "{resp}")
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Cross-connection drain coordination. Once a drain is requested —
/// by a `{"cmd":"shutdown"}` control line on any connection — no
/// connection admits new runs (they are rejected with `shutting_down`)
/// and the TCP accept loop stops accepting.
#[derive(Debug, Default)]
pub struct ServeControl {
    draining: AtomicBool,
}

impl ServeControl {
    /// A fresh, non-draining control block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a graceful drain (idempotent).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }
}

/// Serves one connection: reads request lines from `input` until EOF,
/// writes response lines to `output`, returns the session stats.
///
/// Response order is submission order; responses are flushed at drain
/// barriers (`stats` lines, `{"cmd":"shutdown"}`, and end-of-input).
/// See the module docs for the determinism contract.
///
/// # Errors
///
/// Propagates I/O errors on the transport. Protocol and simulation
/// problems never error — they become in-stream error responses.
pub fn serve_lines(
    cfg: &ServeConfig,
    runner: &dyn JobRunner,
    store: &dyn ResultStore,
    input: impl BufRead,
    output: impl Write,
) -> std::io::Result<DaemonStats> {
    serve_session(cfg, runner, store, input, output, &ServeControl::new())
}

/// [`serve_lines`] with an explicit [`ServeControl`] so several
/// connections (or an accept loop) can coordinate a graceful drain.
/// When `cfg.journal` is set, first recovers the journal: its inputs are
/// replayed through the full daemon state machine ahead of `input` and
/// the already-journaled responses are suppressed, so the stream picks
/// up byte-exactly where the crashed session stopped delivering.
///
/// # Errors
///
/// Propagates I/O errors on the transport or the journal.
pub fn serve_session(
    cfg: &ServeConfig,
    runner: &dyn JobRunner,
    store: &dyn ResultStore,
    input: impl BufRead,
    mut output: impl Write,
    ctl: &ServeControl,
) -> std::io::Result<DaemonStats> {
    let mut replay = Vec::new();
    let mut journal = None;
    let mut suppress = 0usize;
    if let Some(path) = &cfg.journal {
        let recovered = journal::recover(path)?;
        if let Some(torn) = &recovered.torn {
            eprintln!("{torn}");
        }
        replay = recovered.inputs;
        suppress = recovered.responses.len();
        journal = Some(Journal::open(path)?);
    }

    let core = Core::new(cfg);
    let workers = cfg.resolved_workers().max(1);
    let mut io_result = Ok(());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            // The pool already holds the cores: a job's own fan-out
            // (a partitioned request) maps on its worker's thread.
            scope.spawn(|| pim_runtime::par::on_worker(|| core.worker_loop(runner, store)));
        }
        let mut emit = Emit {
            out: &mut output,
            journal: journal.as_mut(),
            suppress,
        };
        io_result = read_loop(cfg, &core, runner, store, replay, input, &mut emit, ctl);
        let mut state = core.state.lock().unwrap();
        state.shutdown = true;
        drop(state);
        core.work.notify_all();
    });
    io_result?;

    let state = core.state.into_inner().unwrap();
    Ok(DaemonStats {
        counters: state.counters,
        queue_latency_us: state.latencies_us,
    })
}

/// The reader/emitter half of [`serve_session`], run on the calling
/// thread. Recovery replay lines run first (never re-journaled), then
/// the live transport.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn read_loop(
    cfg: &ServeConfig,
    core: &Core,
    runner: &dyn JobRunner,
    store: &dyn ResultStore,
    replay: Vec<Vec<u8>>,
    mut input: impl BufRead,
    emit: &mut Emit<'_, impl Write>,
    ctl: &ServeControl,
) -> std::io::Result<()> {
    let mut replay_lines = replay.into_iter();
    loop {
        let (raw, live) = match replay_lines.next() {
            Some(payload) => (decode_replay(&payload), false),
            None => match read_raw_line(&mut input, cfg.max_line_bytes)? {
                None => break,
                Some(raw) => (raw, true),
            },
        };

        // Empty lines produce no response, so they are not journaled.
        if matches!(&raw, RawLine::Line(s) if s.trim().is_empty()) {
            continue;
        }
        if live {
            if let Some(j) = emit.journal.as_deref_mut() {
                j.input(&encode_replay(&raw))?;
            }
        }

        let line = match raw {
            RawLine::Line(s) => s,
            RawLine::TooLong => {
                let mut state = core.state.lock().unwrap();
                state.counters.jobs += 1;
                state.counters.errors += 1;
                let resp = protocol::render_error(
                    None,
                    kind::MALFORMED,
                    &format!(
                        "line exceeds the max-line-bytes cap of {} bytes",
                        cfg.max_line_bytes
                    ),
                );
                state.push_ready(resp);
                continue;
            }
            RawLine::NotUtf8(_) => {
                let mut state = core.state.lock().unwrap();
                state.counters.jobs += 1;
                state.counters.errors += 1;
                let resp = protocol::render_error(None, kind::MALFORMED, "line is not valid UTF-8");
                state.push_ready(resp);
                continue;
            }
        };

        // Parse and key before taking the state lock the workers publish
        // through. Both are pure functions of the line, and only run lines
        // within the step cap are keyed, as below, so every decision under
        // the lock is the same one in the same order (DESIGN.md §4.11).
        let parsed = protocol::parse_request(&line);
        let keyed = match &parsed {
            Ok(req) if req.op == Op::Run && req.steps <= cfg.max_steps => {
                Some(runner.cache_key(req))
            }
            _ => None,
        };

        let mut state = core.state.lock().unwrap();
        state.counters.jobs += 1;
        let req = match parsed {
            Err(e) => {
                state.counters.errors += 1;
                let resp = protocol::render_error(e.id.as_deref(), e.kind, &e.message);
                state.push_ready(resp);
                continue;
            }
            Ok(req) => req,
        };

        if req.op == Op::Stats {
            // Barrier: drain every buffered response, then answer.
            // `ok` counts run successes only; a stats line shows up just
            // in `jobs`.
            let state = drain(core, state, emit)?;
            let resp = protocol::render_stats(&req.id, &state.counters);
            drop(state);
            emit.line(&resp)?;
            emit.flush()?;
            continue;
        }

        if req.op == Op::Shutdown {
            // Graceful drain: finish everything admitted, flush the
            // buffered responses in submission order, acknowledge, and
            // stop reading. The control block tells sibling connections
            // and the TCP accept loop to stop admitting.
            drop(drain(core, state, emit)?);
            ctl.drain();
            let id = (!req.id.is_empty()).then_some(req.id.as_str());
            emit.line(&protocol::render_shutdown_ack(id))?;
            emit.flush()?;
            return Ok(());
        }

        if ctl.is_draining() {
            state.counters.errors += 1;
            state.counters.rejected += 1;
            let resp = protocol::render_error(
                Some(&req.id),
                kind::SHUTTING_DOWN,
                "daemon is draining; no new work admitted",
            );
            state.push_ready(resp);
            continue;
        }

        if req.steps > cfg.max_steps {
            state.counters.errors += 1;
            let resp = protocol::render_error(
                Some(&req.id),
                kind::BAD_REQUEST,
                &format!("`steps` exceeds the service cap of {}", cfg.max_steps),
            );
            state.push_ready(resp);
            continue;
        }

        let key = match keyed.expect("a run line within the step cap is keyed") {
            Err(e) => {
                state.counters.errors += 1;
                let resp = protocol::render_error(Some(&req.id), e.kind, &e.message);
                state.push_ready(resp);
                continue;
            }
            Ok(key) => key,
        };

        // Completed cell (this session, or a warm shared store): answer
        // immediately, no admission slot consumed. A session hit splices
        // its head onto the cell's body; a store hit renders the whole
        // response and never counts as cross-tenant.
        let hit = match state.cells.get(&key) {
            Some(Cell::Done { owner_tenant, body }) => Some((
                *owner_tenant != req.tenant,
                protocol::render_ok_spliced(&req.id, &req.tenant, true, body),
            )),
            Some(Cell::InFlight { .. }) => None,
            None => store.get(key).map(|result| {
                let resp = protocol::render_ok(
                    &req.id,
                    &req.tenant,
                    true,
                    &result.reports,
                    result.degraded.as_deref(),
                );
                (false, resp)
            }),
        };
        if let Some((cross, resp)) = hit {
            state.counters.cache_hits += 1;
            if cross {
                state.counters.cross_tenant_hits += 1;
            }
            state.counters.ok += 1;
            state.push_ready(resp);
            continue;
        }

        // Breaker: only lines that will *compute* consult it — after the
        // cache, and skipping coalescers, because whether a duplicate
        // becomes a waiter or a plain cache hit depends on worker timing
        // and the two must stay byte-identical. Checked before the queue
        // so a breaker rejection consumes no admission slot.
        let coalesce = matches!(state.cells.get(&key), Some(Cell::InFlight { .. }));
        let mut probe = false;
        if !coalesce {
            let admission = state.breakers.admit(&req.tenant);
            if admission == Admission::Reject {
                state.counters.errors += 1;
                state.counters.rejected += 1;
                let resp = protocol::render_error(
                    Some(&req.id),
                    kind::BREAKER_OPEN,
                    &format!("tenant `{}` circuit breaker is open", req.tenant),
                );
                state.push_ready(resp);
                continue;
            }
            probe = admission == Admission::AdmitProbe;
        }

        // Admission: computations and in-flight waiters both hold a
        // slot until the next barrier.
        if let Err(reason) = state.queue.admit(&req.tenant) {
            if probe {
                // The probe never ran; the next admission retries it.
                state.breakers.probe_aborted(&req.tenant);
            }
            let (kind, msg) = match reason {
                RejectReason::OverCapacity => (
                    kind::OVER_CAPACITY,
                    format!(
                        "daemon capacity of {} outstanding jobs reached",
                        cfg.capacity
                    ),
                ),
                RejectReason::OverQuota => (
                    kind::OVER_QUOTA,
                    format!(
                        "tenant quota of {} outstanding jobs reached",
                        cfg.tenant_quota
                    ),
                ),
            };
            state.counters.errors += 1;
            state.counters.rejected += 1;
            let resp = protocol::render_error(Some(&req.id), kind, &msg);
            state.push_ready(resp);
            continue;
        }

        let window_idx = state.window.len();
        let tenant = req.tenant.clone();
        match state.cells.get_mut(&key) {
            Some(Cell::InFlight {
                owner_tenant,
                waiters,
            }) => {
                // Coalesce: exactly one computation per cell, every
                // concurrent duplicate becomes a waiter.
                let cross = *owner_tenant != req.tenant;
                waiters.push(Waiter {
                    window_idx,
                    id: req.id.clone(),
                    tenant: req.tenant.clone(),
                });
                state.counters.cache_hits += 1;
                if cross {
                    state.counters.cross_tenant_hits += 1;
                }
                state.window.push(WindowSlot {
                    slot: Slot::Waiting,
                    tenant: Some(tenant),
                    probe,
                    verdict: None,
                });
            }
            _ => {
                state.counters.distinct_cells += 1;
                state.cells.insert(
                    key,
                    Cell::InFlight {
                        owner_tenant: req.tenant.clone(),
                        waiters: Vec::new(),
                    },
                );
                state.window.push(WindowSlot {
                    slot: Slot::Waiting,
                    tenant: Some(tenant),
                    probe,
                    verdict: None,
                });
                let priority = req.priority;
                state.queue.push(
                    priority,
                    WorkItem {
                        window_idx,
                        key,
                        req,
                        admitted_at: Instant::now(),
                    },
                );
                core.work.notify_one();
            }
        }
    }

    // End of input: final drain.
    let state = core.state.lock().unwrap();
    drop(drain(core, state, emit)?);
    Ok(())
}

/// Waits for every window slot to become ready, emits all responses in
/// submission order, releases the admission slots, and feeds terminal
/// outcomes to the breakers (also in submission order, which keeps the
/// breaker trajectory a pure function of the request sequence).
fn drain<'a>(
    core: &'a Core,
    mut state: std::sync::MutexGuard<'a, CoreState>,
    emit: &mut Emit<'_, impl Write>,
) -> std::io::Result<std::sync::MutexGuard<'a, CoreState>> {
    while state.ready < state.window.len() {
        state = core.done.wait(state).unwrap();
    }
    let window = std::mem::take(&mut state.window);
    state.ready = 0;
    for ws in window {
        if let Some(tenant) = ws.tenant {
            state.queue.release(&tenant);
            if let Some(ok) = ws.verdict {
                state.breakers.observe(&tenant, ok, ws.probe);
            }
        }
        match ws.slot {
            Slot::Ready(resp) => emit.line(&resp)?,
            Slot::Waiting => unreachable!("drain woke with unready slots"),
        }
    }
    emit.flush()?;
    Ok(state)
}

/// Serves TCP connections on `listener`, each through [`serve_session`]
/// with the shared runner, store, and control block (cross-connection
/// sharing flows through the store). Handles at most `max_conns`
/// connections when given; otherwise accepts until a drain is requested
/// by a `{"cmd":"shutdown"}` line on any connection. The journal, a
/// single-stream facility, is cleared for TCP sessions.
///
/// # Errors
///
/// Propagates accept errors; per-connection I/O errors only tear down
/// that connection.
pub fn serve_tcp(
    cfg: &ServeConfig,
    runner: &(dyn JobRunner + Sync),
    store: &(dyn ResultStore + Sync),
    listener: &std::net::TcpListener,
    max_conns: Option<usize>,
    ctl: &ServeControl,
) -> std::io::Result<()> {
    let cfg = &ServeConfig {
        journal: None,
        ..cfg.clone()
    };
    // Nonblocking accept with a short poll so a drain requested on one
    // connection stops the accept loop promptly.
    listener.set_nonblocking(true)?;
    let mut served = 0usize;
    std::thread::scope(|scope| loop {
        if ctl.is_draining() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                scope.spawn(move || {
                    let reader = std::io::BufReader::new(&stream);
                    let _ = serve_session(cfg, runner, store, reader, &stream, ctl);
                });
                served += 1;
                if max_conns.is_some_and(|m| served >= m) {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    })
}
