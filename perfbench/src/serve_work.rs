//! `serve-mix`: a loadgen trace fed through `serve_lines` with the
//! engine-backed `SimRunner`, two workers and a fresh `MemStore` every
//! pass, on one connection (a closed loop: the client waits at every
//! `stats` drain barrier).
//!
//! The daemon is timed from outside: a delegating `JobRunner` around
//! `SimRunner`, a delegating `ResultStore` around `MemStore`, and a
//! `BufRead`/`Write` pair that stamps each request line when the daemon
//! reads it and each response line when the daemon writes it.

use crate::md5;
use crate::spans::{self, Span, Tracer};
use crate::{stats, Metrics, Pass, Workload};
use pim_serve::protocol::{parse_request, render_ok};
use pim_serve::{JobError, JobRunner, MemStore, Request, ResultStore, ServeConfig, StoredResult};
use pim_sim::serve::{model_kind, verify_samples, SimRunner};
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Run requests per pass.
pub const JOBS: usize = 3000;
/// Tenants the trace spreads over.
pub const TENANTS: usize = 4;
/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Every this-many-th trace line is re-run directly and byte-compared.
pub const SAMPLE_EVERY: usize = 16;

struct TimedRunner<'a> {
    tracer: &'a Tracer,
    parent: u32,
    op_counts: &'a [(String, u64)],
    computed: AtomicU64,
    ops: AtomicU64,
}

impl JobRunner for TimedRunner<'_> {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        let _span = self.tracer.span("serve.cache_key", self.parent, &req.id);
        SimRunner.cache_key(req)
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        let span = self.tracer.span("serve.execute", self.parent, &req.id);
        let result = SimRunner.execute(req);
        span.end();
        if result.is_ok() {
            let per_step: u64 = req
                .models
                .iter()
                .filter_map(|m| self.op_counts.iter().find(|(n, _)| n == m))
                .map(|(_, ops)| ops)
                .sum();
            self.computed.fetch_add(1, Ordering::Relaxed);
            self.ops
                .fetch_add(per_step * req.steps as u64, Ordering::Relaxed);
        }
        result
    }
}

struct TimedStore<'a> {
    inner: MemStore,
    tracer: &'a Tracer,
    parent: u32,
    /// Stored results, kept only when tracing (for the render probe).
    kept: Mutex<Vec<Arc<StoredResult>>>,
}

impl ResultStore for TimedStore<'_> {
    fn get(&self, key: u64) -> Option<Arc<StoredResult>> {
        let _span = self.tracer.span("serve.store_get", self.parent, "");
        self.inner.get(key)
    }

    fn put(&self, key: u64, result: Arc<StoredResult>) {
        if self.tracer.enabled() {
            self.kept
                .lock()
                .expect("kept results poisoned")
                .push(Arc::clone(&result));
        }
        self.inner.put(key, result);
    }
}

/// Hands the daemon one request line per `fill_buf`, stamping the moment
/// each line is first handed out.
struct TimedInput<'a> {
    data: &'a [u8],
    pos: usize,
    line_end: usize,
    read_at: Vec<Instant>,
}

impl Read for TimedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for TimedInput<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.data.len() {
            return Ok(&[]);
        }
        if self.pos >= self.line_end {
            self.line_end = self.data[self.pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(self.data.len(), |i| self.pos + i + 1);
            self.read_at.push(Instant::now());
        }
        Ok(&self.data[self.pos..self.line_end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Collects the response stream, stamping each completed line.
#[derive(Default)]
struct TimedOutput {
    bytes: Vec<u8>,
    written_at: Vec<Instant>,
}

impl Write for TimedOutput {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = Instant::now();
            self.written_at.extend(std::iter::repeat_n(now, lines));
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct ServeWork {
    trace: Vec<String>,
    bytes: Vec<u8>,
    is_run: Vec<bool>,
    op_counts: Vec<(String, u64)>,
    cfg: ServeConfig,
    first_responses: Option<Vec<String>>,
    ids: Vec<String>,
    queue_wait_us: Vec<f64>,
}

impl ServeWork {
    /// Generates the trace. The process-wide model, profile and
    /// fault-horizon memos warm up in the first pass and stay warm, as in
    /// a long-lived daemon.
    pub fn new(jobs: usize, seed: u64) -> Result<Self, String> {
        let trace = pim_serve::loadgen::generate(jobs, seed, TENANTS);
        let mut bytes = Vec::new();
        for line in &trace {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let mut ids = Vec::with_capacity(trace.len());
        let mut is_run = Vec::with_capacity(trace.len());
        for line in &trace {
            let req = parse_request(line).map_err(|e| e.message)?;
            is_run.push(req.op == pim_serve::Op::Run);
            ids.push(req.id);
        }
        let mut op_counts = Vec::new();
        for name in pim_serve::loadgen::MODELS {
            let kind = model_kind(name).map_err(|e| e.message)?;
            let model = pim_sim::cache::model(kind).map_err(|e| e.to_string())?;
            op_counts.push((name.to_string(), model.graph().op_count() as u64));
        }
        Ok(ServeWork {
            trace,
            bytes,
            is_run,
            op_counts,
            cfg: ServeConfig {
                workers: WORKERS,
                ..ServeConfig::default()
            },
            first_responses: None,
            ids,
            queue_wait_us: Vec::new(),
        })
    }

    /// The generated request trace.
    #[cfg(test)]
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// Times `parse_request` on every trace line and `render_ok` on every
    /// stored result, as spans.
    fn protocol_probe(trace: &[String], tracer: &Tracer, parent: u32, kept: &[Arc<StoredResult>]) {
        for line in trace {
            let span = tracer.span("serve.parse", parent, "");
            let parsed = parse_request(line);
            span.end();
            std::hint::black_box(parsed.is_ok());
        }
        for result in kept {
            let span = tracer.span("serve.render", parent, "");
            let text = render_ok(
                "j0",
                "t0",
                false,
                &result.reports,
                result.degraded.as_deref(),
            );
            span.end();
            std::hint::black_box(text.len());
        }
    }
}

impl Workload for ServeWork {
    fn pass(&mut self, tracer: &Tracer, parent: u32) -> Pass {
        let runner = TimedRunner {
            tracer,
            parent,
            op_counts: &self.op_counts,
            computed: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        };
        let store = TimedStore {
            inner: MemStore::default(),
            tracer,
            parent,
            kept: Mutex::new(Vec::new()),
        };
        let mut input = TimedInput {
            data: &self.bytes,
            pos: 0,
            line_end: 0,
            read_at: Vec::with_capacity(self.trace.len()),
        };
        let mut output = TimedOutput::default();
        let start = Instant::now();
        let served = pim_serve::serve_lines(&self.cfg, &runner, &store, &mut input, &mut output);
        let secs = start.elapsed().as_secs_f64();

        let jobs = self.is_run.iter().filter(|&&r| r).count();
        let text = String::from_utf8_lossy(&output.bytes);
        let responses: Vec<String> = text.lines().map(str::to_string).collect();
        let complete = served.is_ok()
            && responses.len() == self.trace.len()
            && input.read_at.len() == self.trace.len()
            && output.written_at.len() == self.trace.len();
        let mut latencies_s = Vec::with_capacity(jobs);
        let mut segments_s = Vec::new();
        let mut errors = jobs;
        if complete {
            errors = 0;
            // A drain window runs from reading its first line to answering
            // its closing `stats` barrier.
            let mut window_start = None;
            for (i, run) in self.is_run.iter().enumerate() {
                let (read, written) = (input.read_at[i], output.written_at[i]);
                let start = *window_start.get_or_insert(read);
                if *run {
                    latencies_s.push((written - read).as_secs_f64());
                    if !responses[i].contains("\"status\":\"ok\"") {
                        errors += 1;
                    }
                    tracer.record("serve.request", parent, &self.ids[i], read, written);
                } else {
                    segments_s.push((written - start).as_secs_f64());
                    tracer.record("serve.window", parent, "", start, written);
                    window_start = None;
                }
            }
        }
        if tracer.enabled() && complete {
            if let Ok(stats) = &served {
                self.queue_wait_us
                    .extend(stats.queue_latency_us.iter().map(|&us| us as f64));
            }
            let kept = std::mem::take(&mut *store.kept.lock().expect("kept results poisoned"));
            Self::protocol_probe(&self.trace, tracer, parent, &kept);
        }
        let cache_hits = served.as_ref().map_or(0, |s| s.counters.cache_hits);
        if self.first_responses.is_none() {
            self.first_responses = Some(responses);
        }
        Pass {
            secs,
            latencies_s,
            segments_s,
            jobs,
            errors,
            ops: runner.ops.load(Ordering::Relaxed) as f64,
            digest: md5::hex(&output.bytes),
            counts: vec![
                (
                    "serve.computed".to_string(),
                    runner.computed.load(Ordering::Relaxed),
                ),
                ("serve.cache_hits".to_string(), cache_hits),
            ],
        }
    }

    /// Re-runs every [`SAMPLE_EVERY`]-th request directly through
    /// `SimRunner` and byte-compares the daemon's reports.
    fn verify(&mut self, _timed: &Pass) -> (usize, Vec<String>) {
        let Some(responses) = &self.first_responses else {
            return (1, vec!["no responses recorded".to_string()]);
        };
        match verify_samples(&self.trace, responses, SAMPLE_EVERY) {
            Ok(checked) => (checked, Vec::new()),
            Err(e) => (1, vec![e]),
        }
    }

    fn layer_metrics(&self, spans: &[Span], passes: &[Pass], out: &mut Metrics) {
        let series = |name: &str| spans::micros(spans, name);
        let set_tail = |out: &mut Metrics, name: &str, samples: &[f64], scale: f64, unit| {
            println!(
                "{}",
                stats::describe(name, unit, &scale_all(samples, scale))
            );
            let tail = stats::tail(samples, 99.0).map_or(0.0, |t| t.value);
            out.set(&format!("{name}_p50"), stats::median(samples) * scale, unit);
            out.set(&format!("{name}_p99"), tail * scale, unit);
        };
        let set_median = |out: &mut Metrics, name: &str, samples: &[f64]| {
            println!("{}", stats::describe(name, "us", samples));
            out.set(name, stats::median(samples), "us");
        };
        set_median(out, "serve.parse_us", &series("serve.parse"));
        set_median(out, "serve.render_us", &series("serve.render"));
        set_median(out, "serve.cache_key_us", &series("serve.cache_key"));
        set_median(out, "serve.store_get_us", &series("serve.store_get"));
        set_tail(
            out,
            "serve.execute_ms",
            &series("serve.execute"),
            1e-3,
            "ms",
        );
        set_tail(out, "serve.window_ms", &series("serve.window"), 1e-3, "ms");
        set_tail(out, "serve.queue_wait_us", &self.queue_wait_us, 1.0, "us");
        let first = &passes[0];
        out.set(
            "serve.computed",
            first.count("serve.computed") as f64,
            "count",
        );
        out.set(
            "serve.cache_hit_ratio",
            first.count("serve.cache_hits") as f64 / first.jobs.max(1) as f64,
            "frac",
        );
    }
}

fn scale_all(samples: &[f64], scale: f64) -> Vec<f64> {
    samples.iter().map(|s| s * scale).collect()
}
