//! `hetero-train` and `fault-grid`: one caller issuing one
//! `Engine::execute` (shared partitioning) at a time.

use crate::md5::Md5;
use crate::spans::{self, Span, Tracer};
use crate::{stats, Metrics, Pass, Workload};
use pim_common::units::Seconds;
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::WorkloadSpec;
use pim_runtime::{Engine, EngineConfig, RunOptions, RunOutput, RunRequest, SystemPreset};
use pim_serve::protocol::render_report;
use std::time::Instant;

/// Steps per `hetero-train` execute: long enough that the planner and
/// the event core dominate.
pub const HETERO_STEPS: usize = 20;
/// Steps per `fault-grid` execute.
pub const FAULT_STEPS: usize = 3;
/// The aggregate fault rate of every `fault-grid` plan.
pub const FAULT_RATE: f64 = 0.1;

/// The `repro`/serve vocabulary for a model.
pub fn model_name(kind: ModelKind) -> &'static str {
    match kind {
        ModelKind::AlexNet => "alex",
        ModelKind::Vgg19 => "vgg",
        ModelKind::Dcgan => "dcgan",
        ModelKind::ResNet50 => "resnet",
        ModelKind::InceptionV3 => "inception",
        ModelKind::Lstm => "lstm",
        ModelKind::Word2vec => "w2v",
    }
}

/// The `repro`/serve vocabulary for a preset.
pub fn preset_name(preset: SystemPreset) -> &'static str {
    match preset {
        SystemPreset::CpuOnly => "cpu",
        SystemPreset::ProgrOnly => "progr",
        SystemPreset::FixedHost => "fixed",
        SystemPreset::Hetero => "hetero",
        SystemPreset::HeteroBare => "bare",
        SystemPreset::HeteroRc => "rc",
    }
}

/// One request of the one-model, shared-partition kind both workloads
/// issue.
pub fn request<'g>(model: &'g Model, steps: usize, plan: FaultPlan) -> RunRequest<'g> {
    RunRequest::new(&[WorkloadSpec {
        graph: model.graph(),
        steps,
        cpu_progr_only: false,
    }])
    .with_faults(plan)
}

/// The latest simulated finish over a run's reports.
pub fn makespan(out: &RunOutput) -> Seconds {
    out.reports
        .iter()
        .map(|r| r.makespan)
        .fold(Seconds::ZERO, Seconds::max)
}

/// Renders an execute result for the output digest.
pub fn render(out: &pim_common::Result<RunOutput>) -> String {
    match out {
        Ok(out) => {
            let reports: Vec<String> = out.reports.iter().map(render_report).collect();
            format!("{:?} [{}]", out.degraded, reports.join(","))
        }
        Err(e) => format!("error: {e}"),
    }
}

/// The simulated statistics of one run, by per-layer metric name.
pub const COUNTS: [(&str, &str); 5] = [
    ("engine.events", "events/dispatched"),
    ("engine.stalls", "events/stalls"),
    ("faults.injected", "faults/injected"),
    ("faults.retries", "faults/retries"),
    ("faults.redispatches", "faults/redispatches"),
];

struct Cell {
    model: usize,
    engine: usize,
    plan: FaultPlan,
    tag: String,
}

pub struct EngineWork {
    models: Vec<(ModelKind, Model)>,
    engines: Vec<(SystemPreset, Engine)>,
    cells: Vec<Cell>,
    steps: usize,
}

fn build_models() -> Result<Vec<(ModelKind, Model)>, String> {
    ModelKind::ALL
        .iter()
        .map(|&k| Model::build(k).map(|m| (k, m)).map_err(|e| e.to_string()))
        .collect()
}

impl EngineWork {
    /// The seven paper models at paper batch sizes on Hetero PIM,
    /// fault-free.
    pub fn hetero_train() -> Result<Self, String> {
        let models = build_models()?;
        let cells = models
            .iter()
            .enumerate()
            .map(|(i, (k, _))| Cell {
                model: i,
                engine: 0,
                plan: FaultPlan::none(),
                tag: format!("{}/hetero", model_name(*k)),
            })
            .collect();
        let mut work = EngineWork {
            models,
            engines: vec![(
                SystemPreset::Hetero,
                Engine::new(EngineConfig::preset(SystemPreset::Hetero)),
            )],
            cells,
            steps: HETERO_STEPS,
        };
        // One untimed pass fills the process-wide profile memo, as
        // fault-grid's horizon runs and serve-mix's warm-up pass do.
        work.pass(&Tracer::new(false), 0);
        Ok(work)
    }

    /// The seven models on all six presets, each under
    /// `FaultPlan::seeded(seed, FAULT_RATE, horizon, ff_units)` with the
    /// cell's fault-free makespan as horizon.
    pub fn fault_grid(seed: u64) -> Result<Self, String> {
        let models = build_models()?;
        let engines: Vec<(SystemPreset, Engine)> = SystemPreset::ALL
            .iter()
            .map(|&p| (p, Engine::new(EngineConfig::preset(p))))
            .collect();
        let mut cells = Vec::new();
        for (mi, (kind, model)) in models.iter().enumerate() {
            for (ei, (preset, engine)) in engines.iter().enumerate() {
                let base = engine
                    .execute(&request(model, FAULT_STEPS, FaultPlan::none()))
                    .map_err(|e| e.to_string())?;
                cells.push(Cell {
                    model: mi,
                    engine: ei,
                    plan: FaultPlan::seeded(
                        seed,
                        FAULT_RATE,
                        makespan(&base),
                        engine.config().ff_units,
                    ),
                    tag: format!("{}/{}", model_name(*kind), preset_name(*preset)),
                });
            }
        }
        Ok(EngineWork {
            models,
            engines,
            cells,
            steps: FAULT_STEPS,
        })
    }

    /// The fault plans of every cell, in cell order.
    #[cfg(test)]
    pub fn plans(&self) -> Vec<FaultPlan> {
        self.cells.iter().map(|c| c.plan.clone()).collect()
    }
}

impl Workload for EngineWork {
    fn pass(&mut self, tracer: &Tracer, parent: u32) -> Pass {
        let mut outs = Vec::with_capacity(self.cells.len());
        let mut latencies_s = Vec::with_capacity(self.cells.len());
        let start = Instant::now();
        for cell in &self.cells {
            let req = request(&self.models[cell.model].1, self.steps, cell.plan.clone());
            let engine = &self.engines[cell.engine].1;
            let t = Instant::now();
            let span = tracer.span("engine.execute", parent, &cell.tag);
            let out = engine.execute(&req);
            span.end();
            latencies_s.push(t.elapsed().as_secs_f64());
            outs.push(out);
        }
        let secs = start.elapsed().as_secs_f64();

        let mut digest = Md5::default();
        let mut counts: Vec<(String, u64)> = COUNTS
            .iter()
            .map(|(name, _)| (name.to_string(), 0))
            .collect();
        for out in &outs {
            digest.update(render(out).as_bytes());
            digest.update(b"\n");
            if let Ok(out) = out {
                for ((_, key), (_, total)) in COUNTS.iter().zip(counts.iter_mut()) {
                    *total += out.counters.get(key) as u64;
                }
            }
        }
        let ops: usize = self
            .cells
            .iter()
            .map(|c| self.models[c.model].1.graph().op_count() * self.steps)
            .sum();
        Pass {
            secs,
            segments_s: latencies_s.clone(),
            latencies_s,
            jobs: outs.len(),
            errors: outs.iter().filter(|o| o.is_err()).count(),
            ops: ops as f64,
            digest: digest.hex(),
            counts,
        }
    }

    /// Re-runs every cell with its timeline and replays it through the
    /// engine's (fault-aware) schedule legality check; the reports must
    /// match the timed pass byte for byte.
    fn verify(&mut self, timed: &Pass) -> (usize, Vec<String>) {
        let mut failures = Vec::new();
        let mut digest = Md5::default();
        for cell in &self.cells {
            let model = &self.models[cell.model].1;
            let engine = &self.engines[cell.engine].1;
            let req = request(model, self.steps, cell.plan.clone()).with_options(RunOptions {
                timeline: true,
                ..RunOptions::default()
            });
            let out = engine.execute(&req);
            digest.update(render(&out).as_bytes());
            digest.update(b"\n");
            let Ok(out) = out else { continue };
            let timeline = out.timeline.unwrap_or_default();
            match engine.verify_timeline_faulted(&req.workloads, &timeline, &cell.plan) {
                Ok(diag) if diag.is_clean() => {}
                Ok(diag) => failures.push(format!(
                    "{}: schedule legality: {}",
                    cell.tag,
                    diag.render_text()
                )),
                Err(e) => failures.push(format!("{}: legality replay failed: {e}", cell.tag)),
            }
        }
        if digest.hex() != timed.digest {
            failures.push("timeline re-run diverged from the timed pass".to_string());
        }
        (self.cells.len() + 1, failures)
    }

    fn layer_metrics(&self, spans: &[Span], passes: &[Pass], out: &mut Metrics) {
        let ms = |keep: &dyn Fn(&Span) -> bool| {
            stats::median(&spans::sums_by_parent(spans, "engine.execute", keep)) / 1e3
        };
        if self.engines.len() == 1 {
            for (kind, _) in &self.models {
                let prefix = format!("{}/", model_name(*kind));
                out.set(
                    &format!("engine.execute_ms.{}", model_name(*kind)),
                    ms(&|s| s.tag.starts_with(&prefix)),
                    "ms",
                );
            }
        }
        for (preset, _) in &self.engines {
            let suffix = format!("/{}", preset_name(*preset));
            out.set(
                &format!("engine.execute_ms.{}", preset_name(*preset)),
                ms(&|s| s.tag.ends_with(&suffix)),
                "ms",
            );
        }
        let exec_us = spans::micros(spans, "engine.execute");
        println!("{}", stats::describe("engine.execute", "us", &exec_us));
        let events: u64 = passes.iter().map(|p| p.count("engine.events")).sum();
        out.set(
            "engine.ns_per_event",
            exec_us.iter().sum::<f64>() * 1e3 / events.max(1) as f64,
            "ns",
        );
        for (name, _) in COUNTS {
            out.set(name, passes[0].count(name) as f64, "count");
        }
    }
}
