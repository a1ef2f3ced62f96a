//! `repro-all`: one cold `repro all` process at a time, stdout
//! digest-checked. The model, profile and sweep-cell caches are
//! process-wide, so only a fresh process pays what a user's `repro all`
//! pays; repeating the sweep inside one process would only hit them.

use crate::expected::Expected;
use crate::md5;
use crate::spans::{self, Span, Tracer};
use crate::{stats, Metrics, Pass, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The `repro` sections, in `repro all` order.
pub const SECTIONS: [&str; 9] = [
    "table1",
    "fig2",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig16",
    "ablations",
];

/// Runs `repro <arg>` to completion: its stdout and wall time.
pub fn run(repro: &Path, arg: &str) -> Result<(Vec<u8>, f64), String> {
    let t = Instant::now();
    let out = Command::new(repro)
        .arg(arg)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", repro.display()))?;
    let secs = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("`repro {arg}` exited with {}", out.status));
    }
    Ok((out.stdout, secs))
}

/// Times each section in a fresh process, `rounds` times, in `repro all`
/// order, checking each section's stdout against its recorded digest.
pub fn sections(
    repro: &Path,
    expected: &Expected,
    tracer: &Tracer,
    rounds: usize,
) -> (usize, Vec<String>) {
    let mut attempted = 0;
    let mut failures = Vec::new();
    for round in 0..rounds {
        let root = tracer.span("experiments", 0, &round.to_string());
        for name in SECTIONS {
            attempted += 1;
            let span = tracer.span(&format!("experiments.{name}"), root.id(), name);
            let result = run(repro, name);
            span.end();
            let want = expected.string("repro-all", &["sections", name]);
            match result {
                Ok((stdout, _)) if want.as_deref() == Some(&md5::hex(&stdout)) => {}
                Ok((stdout, _)) => failures.push(format!(
                    "`repro {name}` digest {} != expected {want:?}",
                    md5::hex(&stdout)
                )),
                Err(e) => failures.push(e),
            }
        }
    }
    (attempted, failures)
}

/// The per-section metrics from [`sections`]' spans.
pub fn section_metrics(spans: &[Span], out: &mut Metrics) {
    for name in SECTIONS {
        let ms: Vec<f64> = spans::micros(spans, &format!("experiments.{name}"))
            .iter()
            .map(|us| us / 1e3)
            .collect();
        println!(
            "{}",
            stats::describe(&format!("experiments.{name}"), "ms", &ms)
        );
        out.set(&format!("experiments.{name}_ms"), stats::median(&ms), "ms");
    }
}

pub struct ReproWork {
    repro: PathBuf,
    ops_per_sweep: f64,
}

impl ReproWork {
    /// Checks the binary runs, warming the page cache with one untimed
    /// sweep.
    pub fn new(repro: &Path, expected: &Expected) -> Result<Self, String> {
        let ops_per_sweep = expected
            .number("repro-all", "sim_ops_per_sweep")
            .ok_or("expected.json records no sim_ops_per_sweep for repro-all")?;
        run(repro, "all")?;
        Ok(ReproWork {
            repro: repro.to_path_buf(),
            ops_per_sweep,
        })
    }
}

impl Workload for ReproWork {
    fn pass(&mut self, tracer: &Tracer, parent: u32) -> Pass {
        let span = tracer.span("repro.all", parent, "all");
        let result = run(&self.repro, "all");
        span.end();
        match result {
            Ok((stdout, secs)) => Pass {
                secs,
                latencies_s: vec![secs],
                segments_s: vec![secs],
                jobs: 1,
                errors: 0,
                ops: self.ops_per_sweep,
                digest: md5::hex(&stdout),
                counts: Vec::new(),
            },
            Err(e) => {
                eprintln!("perfbench: {e}");
                Pass {
                    secs: f64::NAN,
                    latencies_s: Vec::new(),
                    segments_s: Vec::new(),
                    jobs: 1,
                    errors: 1,
                    ops: 0.0,
                    digest: String::new(),
                    counts: Vec::new(),
                }
            }
        }
    }

    fn verify(&mut self, _timed: &Pass) -> (usize, Vec<String>) {
        (0, Vec::new())
    }

    fn layer_metrics(&self, _spans: &[Span], _passes: &[Pass], _out: &mut Metrics) {}
}
