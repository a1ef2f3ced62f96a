//! The engine-backed half of the serve daemon: maps protocol requests
//! onto `RunRequest`s, keys the shared store, and verifies daemon
//! output against direct engine runs.
//!
//! [`SimRunner`] implements `pim_serve::JobRunner` over the real
//! engine: `cache_key` is the request's `RunRequest::fingerprint`
//! (with a fault-*spec* suffix, see below) and `execute` is
//! `Engine::execute`. Paired with [`crate::cache::SharedStore`], every
//! distinct `(model, config, steps, faults, tie-break)` cell simulates
//! exactly once per process no matter how many tenants or connections
//! ask for it.
//!
//! Per-preset setup happens once per process, not once per request. A
//! process-wide table holds one `Engine` per preset plus the hasher state
//! after its canonical head (`RunRequest::canonical_head`: the version
//! tag and the configuration's `Debug` text, most of every canonical
//! string); `cache_key`, `execute` and the fault baselines all read it,
//! and a key hashes only the request's own tail on a clone of that state,
//! so keys equal `debug_hash` of the bytes `RunRequest::canonical`
//! renders. Per-graph setup (the step-1 profile and candidate selection)
//! is memoized on the cached model graphs themselves
//! (`pim_graph::Graph::memo`).
//!
//! Fault horizons: a wire request carries `(seed, rate)`, not a full
//! `FaultPlan` — the plan's horizon is the cell's *zero-fault* makespan
//! (the `repro faults` recipe), derived at execution time. The cache
//! key therefore hashes the fault-free fingerprint plus the raw spec,
//! and the derived baselines are memoized in a *private* table rather
//! than the shared store: publishing them mid-run would let worker
//! timing decide whether a later fault-free request hits or misses,
//! breaking the daemon's byte-replay determinism.
//!
//! Deadlines: a request's `deadline_ms` is mapped onto a deterministic
//! engine fuel budget ([`FUEL_PER_DEADLINE_MS`] retired events per
//! millisecond), never a wall clock, so whether a deadlined run is cut
//! off — surfaced as a `deadline_exceeded` job error — is a pure
//! function of the request. A deadlined run is a distinct cache cell
//! from the undeadlined one (the budget changes what the cell can
//! produce), so `cache_key` suffixes the deadline like it does the
//! fault spec.

use crate::cache;
use pim_common::fingerprint::StrPrefixHash;
use pim_common::units::Seconds;
use pim_common::PimError;
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::{
    Engine, EngineConfig, RunLimits, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_serve::protocol::{render_report, Op, Request};
use pim_serve::{JobError, JobRunner, StoredResult};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// Maps a wire model name onto a [`ModelKind`] (the `repro` CLI
/// vocabulary).
///
/// # Errors
///
/// `bad_request` naming the accepted values.
pub fn model_kind(name: &str) -> Result<ModelKind, JobError> {
    match name {
        "alex" => Ok(ModelKind::AlexNet),
        "vgg" => Ok(ModelKind::Vgg19),
        "dcgan" => Ok(ModelKind::Dcgan),
        "resnet" => Ok(ModelKind::ResNet50),
        "inception" => Ok(ModelKind::InceptionV3),
        "lstm" => Ok(ModelKind::Lstm),
        "w2v" => Ok(ModelKind::Word2vec),
        other => Err(JobError::bad_request(format!(
            "unknown model `{other}` (expected alex, vgg, dcgan, resnet, inception, lstm, or w2v)"
        ))),
    }
}

/// Maps a wire preset key onto its [`SystemPreset`] (also the `repro
/// fuzz --presets` vocabulary).
///
/// # Errors
///
/// `bad_request` naming the accepted keys.
pub fn preset(key: &str) -> Result<SystemPreset, JobError> {
    SystemPreset::from_key(key).ok_or_else(|| {
        let keys = SystemPreset::ALL.map(SystemPreset::key);
        let (last, rest) = keys.split_last().expect("presets exist");
        JobError::bad_request(format!(
            "unknown preset `{key}` (expected {}, or {last})",
            rest.join(", ")
        ))
    })
}

/// Fuel granted per millisecond of a request's `deadline_ms`: the wire
/// deadline buys this many retired engine events. The unit is simulated
/// work, not wall clock — the trip point byte-replays across processes
/// and worker counts.
pub const FUEL_PER_DEADLINE_MS: u64 = 1_000;

/// The engine-backed job runner.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimRunner;

/// One preset's engine plus the hasher state after its canonical head,
/// the start of every canonical request string under the preset.
struct PresetEngine {
    engine: Engine,
    head: StrPrefixHash,
}

/// The engine of `preset`, from a process-wide table of all six built
/// on first use.
fn preset_engine(preset: SystemPreset) -> &'static PresetEngine {
    static ENGINES: OnceLock<Vec<PresetEngine>> = OnceLock::new();
    let engines = ENGINES.get_or_init(|| {
        SystemPreset::ALL
            .iter()
            .map(|&p| {
                let engine = Engine::new(EngineConfig::preset(p));
                let head = StrPrefixHash::new(&RunRequest::canonical_head(engine.config()));
                PresetEngine { engine, head }
            })
            .collect()
    });
    let index = SystemPreset::ALL
        .iter()
        .position(|&p| p == preset)
        .expect("SystemPreset::ALL lists every preset");
    &engines[index]
}

/// A validated request: the preset's engine plus the (cached, shared)
/// models.
struct Job {
    preset: &'static PresetEngine,
    models: Vec<Arc<Model>>,
}

impl Job {
    /// The fault-free `RunRequest` over borrowed model graphs.
    fn base_request<'g>(models: &'g [Arc<Model>], req: &Request) -> RunRequest<'g> {
        let workloads: Vec<WorkloadSpec<'g>> = models
            .iter()
            .map(|m| WorkloadSpec {
                graph: m.graph(),
                steps: req.steps,
                cpu_progr_only: req.cpu_progr_only,
            })
            .collect();
        let mut request = RunRequest::new(&workloads).with_options(RunOptions {
            tie: req.tie,
            ..RunOptions::default()
        });
        if req.partitioned {
            request = request.partitioned();
        }
        request
    }
}

fn prepare(req: &Request) -> Result<Job, JobError> {
    let preset = preset(&req.preset)?;
    let mut models = Vec::with_capacity(req.models.len());
    for name in &req.models {
        let kind = model_kind(name)?;
        let model = match req.batch {
            Some(batch) => cache::model_with_batch(kind, batch),
            None => cache::model(kind),
        }
        .map_err(|e| JobError::bad_request(e.to_string()))?;
        models.push(model);
    }
    Ok(Job {
        preset: preset_engine(preset),
        models,
    })
}

/// The key of `base`'s baseline in [`baseline_horizon`]'s memo:
/// `base.fingerprint(config)`, from the cached head state.
fn baseline_key(preset: &PresetEngine, base: &RunRequest<'_>) -> u64 {
    preset.head.hash_with(&base.canonical_tail())
}

/// The zero-fault makespan used as a fault plan's horizon, memoized
/// privately per fault-free fingerprint (NOT the shared store — see the
/// module docs for why).
fn baseline_horizon(preset: &PresetEngine, base: &RunRequest<'_>) -> Result<Seconds, JobError> {
    static BASELINES: OnceLock<Mutex<HashMap<u64, f64>>> = OnceLock::new();
    let key = baseline_key(preset, base);
    let memo = BASELINES.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&hit) = memo.lock().expect("baseline memo poisoned").get(&key) {
        return Ok(Seconds::new(hit));
    }
    // Simulate outside the lock; identical results race benignly.
    let out = preset
        .engine
        .execute(base)
        .map_err(|e| JobError::execution(e.to_string()))?;
    let horizon = out
        .reports
        .iter()
        .map(|r| r.makespan)
        .fold(Seconds::ZERO, Seconds::max);
    memo.lock()
        .expect("baseline memo poisoned")
        .insert(key, horizon.seconds());
    Ok(horizon)
}

impl JobRunner for SimRunner {
    fn cache_key(&self, req: &Request) -> Result<u64, JobError> {
        let job = prepare(req)?;
        let base = Job::base_request(&job.models, req);
        let mut canon = base.canonical_tail();
        if let Some(b) = req.batch {
            let _ = write!(canon, ";batch={b}");
        }
        if let Some(f) = req.faults {
            // The spec, not the derived plan: deriving the horizon here
            // would run a simulation on the admission thread.
            let _ = write!(
                canon,
                ";faultspec={{seed={},rate={:x}}}",
                f.seed,
                f.rate.to_bits()
            );
        }
        if let Some(ms) = req.deadline_ms {
            // A deadlined run may be cut off, so it must never share a
            // cell with the undeadlined (or differently-deadlined) run.
            let _ = write!(canon, ";deadline_ms={ms}");
        }
        Ok(job.preset.head.hash_with(&canon))
    }

    fn execute(&self, req: &Request) -> Result<StoredResult, JobError> {
        let job = prepare(req)?;
        let engine = &job.preset.engine;
        let mut request = Job::base_request(&job.models, req);
        if let Some(f) = req.faults {
            let horizon = baseline_horizon(job.preset, &request)?;
            request = request.with_faults(FaultPlan::seeded(
                f.seed,
                f.rate,
                horizon,
                engine.config().ff_units,
            ));
        }
        if let Some(ms) = req.deadline_ms {
            // Applied after the fault horizon is derived: the horizon is
            // a property of the cell and must come from an unbounded run.
            request = request.with_limits(
                RunLimits::none().with_max_events(ms.saturating_mul(FUEL_PER_DEADLINE_MS)),
            );
        }
        let out = engine.execute(&request).map_err(|e| match e {
            PimError::BudgetExhausted { .. } => JobError::deadline(e.to_string()),
            other => JobError::execution(other.to_string()),
        })?;
        Ok(StoredResult {
            reports: out.reports,
            degraded: out.degraded.map(str::to_string),
        })
    }
}

/// Renders a result's report array exactly as a daemon response embeds
/// it — the byte-comparison target of the determinism tests.
pub fn render_reports(result: &StoredResult) -> String {
    let mut out = String::from("[");
    for (i, r) in result.reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_report(r));
    }
    out.push(']');
    out
}

/// Extracts the `"reports":[...]` payload of an ok response line.
fn response_reports(line: &str) -> Option<&str> {
    line.split("\"reports\":")
        .nth(1)
        .and_then(|s| s.strip_suffix('}'))
}

/// Re-executes every `sample_every`-th run request of a served trace
/// directly through [`SimRunner`] (i.e. `Engine::execute`) and
/// byte-compares the daemon's report payload against the direct one.
/// Returns the number of samples checked.
///
/// # Errors
///
/// Describes the first sampled job whose daemon response was not ok or
/// whose report bytes differ from the direct engine run.
pub fn verify_samples(
    trace: &[String],
    responses: &[String],
    sample_every: usize,
) -> Result<usize, String> {
    if trace.len() != responses.len() {
        return Err(format!(
            "trace has {} lines but the daemon answered {}",
            trace.len(),
            responses.len()
        ));
    }
    let mut checked = 0usize;
    for (i, (line, response)) in trace.iter().zip(responses).enumerate() {
        if i % sample_every.max(1) != 0 {
            continue;
        }
        let req = pim_serve::parse_request(line)
            .map_err(|e| format!("trace line {i} does not parse: {}", e.message))?;
        if req.op != Op::Run {
            continue;
        }
        if !response.contains("\"status\":\"ok\"") {
            return Err(format!("job `{}` failed: {response}", req.id));
        }
        let direct = SimRunner
            .execute(&req)
            .map_err(|e| format!("direct rerun of `{}` failed: {}", req.id, e.message))?;
        let want = render_reports(&direct);
        let got = response_reports(response)
            .ok_or_else(|| format!("job `{}` response carries no reports: {response}", req.id))?;
        if got != want {
            return Err(format!(
                "job `{}` diverged from the direct engine run:\n daemon: {got}\n direct: {want}",
                req.id
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_req(line: &str) -> Request {
        pim_serve::parse_request(line).unwrap()
    }

    #[test]
    fn cache_key_separates_cells_and_ignores_tenancy() {
        let base = run_req(r#"{"id":"1","tenant":"t0","model":"alex"}"#);
        let same_other_tenant = run_req(r#"{"id":"2","tenant":"t9","model":"alex"}"#);
        assert_eq!(
            SimRunner.cache_key(&base).unwrap(),
            SimRunner.cache_key(&same_other_tenant).unwrap()
        );
        for other in [
            r#"{"id":"3","model":"lstm"}"#,
            r#"{"id":"4","model":"alex","steps":2}"#,
            r#"{"id":"5","model":"alex","preset":"cpu"}"#,
            r#"{"id":"6","model":"alex","tie":{"permuted":1}}"#,
            r#"{"id":"7","model":"alex","faults":{"seed":1,"rate":0.5}}"#,
            r#"{"id":"8","model":"alex","batch":8}"#,
            r#"{"id":"9","models":["alex","alex"]}"#,
            r#"{"id":"10","model":"alex","deadline_ms":5}"#,
        ] {
            assert_ne!(
                SimRunner.cache_key(&base).unwrap(),
                SimRunner.cache_key(&run_req(other)).unwrap(),
                "{other}"
            );
        }
    }

    #[test]
    fn unknown_models_and_presets_fail_validation_not_execution() {
        for line in [
            r#"{"id":"1","model":"gpt"}"#,
            r#"{"id":"2","model":"alex","preset":"tpu"}"#,
        ] {
            let e = SimRunner.cache_key(&run_req(line)).unwrap_err();
            assert_eq!(e.kind, "bad_request", "{line}");
        }
        assert_eq!(
            preset("gpu").unwrap_err().message,
            "unknown preset `gpu` (expected cpu, progr, fixed, hetero, bare, or rc)"
        );
    }

    /// The served `execute` of every preset, plus one faulted request,
    /// equals a run of a freshly built engine of that preset.
    #[test]
    fn execute_matches_direct_engine_run() {
        let model = cache::model(ModelKind::Dcgan).unwrap();
        let spec = WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        };
        let mut cases: Vec<(SystemPreset, String)> = SystemPreset::ALL
            .into_iter()
            .map(|preset| {
                let key = preset.key();
                let line = format!(r#"{{"id":"1","model":"dcgan","preset":"{key}","steps":2}}"#);
                (preset, line)
            })
            .collect();
        cases.push((
            SystemPreset::Hetero,
            r#"{"id":"2","model":"dcgan","preset":"hetero","steps":2,"faults":{"seed":3,"rate":0.5}}"#
                .to_string(),
        ));
        assert_eq!(cases.len(), SystemPreset::ALL.len() + 1);
        for (preset, line) in cases {
            let req = run_req(&line);
            let served = SimRunner.execute(&req).unwrap();
            let engine = Engine::new(EngineConfig::preset(preset));
            let mut request = RunRequest::new(&[spec]);
            if let Some(f) = req.faults {
                let horizon = engine.execute(&request).unwrap().report().makespan;
                let plan = FaultPlan::seeded(f.seed, f.rate, horizon, engine.config().ff_units);
                request = request.with_faults(plan);
            }
            let direct = engine.execute(&request).unwrap();
            assert_eq!(served.reports, direct.reports, "{line}");
            assert_eq!(
                render_reports(&served),
                render_reports(&StoredResult {
                    reports: direct.reports,
                    degraded: direct.degraded.map(str::to_string),
                }),
                "{line}"
            );
        }
    }

    /// Every preset's key, with and without `batch`, `faults` and
    /// `deadline_ms`, is `debug_hash` of the full canonical string: the
    /// request's canonical rendering plus the served suffixes.
    #[test]
    fn cache_keys_hash_the_full_canonical_string() {
        use pim_common::fingerprint::debug_hash;
        for preset in SystemPreset::ALL {
            let key = preset.key();
            for extras in 0..8 {
                let mut line = format!(r#"{{"id":"1","models":["alex","lstm"],"preset":"{key}""#);
                let mut suffix = String::new();
                if extras & 1 != 0 {
                    line.push_str(r#","batch":8"#);
                    suffix.push_str(";batch=8");
                }
                if extras & 2 != 0 {
                    line.push_str(r#","faults":{"seed":3,"rate":0.25}"#);
                    let rate = 0.25f64.to_bits();
                    let _ = write!(suffix, ";faultspec={{seed=3,rate={rate:x}}}");
                }
                if extras & 4 != 0 {
                    line.push_str(r#","deadline_ms":7"#);
                    suffix.push_str(";deadline_ms=7");
                }
                line.push('}');
                let req = run_req(&line);
                let job = prepare(&req).unwrap();
                let base = Job::base_request(&job.models, &req);
                let canonical = base.canonical(&EngineConfig::preset(preset)) + &suffix;
                assert_eq!(
                    SimRunner.cache_key(&req).unwrap(),
                    debug_hash(&canonical),
                    "{line}"
                );
            }
        }
    }

    /// The cached head state keys the baseline memo exactly as
    /// `RunRequest::fingerprint` over a fresh preset configuration does.
    #[test]
    fn baseline_keys_equal_fresh_fingerprints() {
        for preset in SystemPreset::ALL {
            let key = preset.key();
            let req = run_req(&format!(
                r#"{{"id":"1","models":["alex","lstm"],"preset":"{key}","steps":3}}"#
            ));
            let job = prepare(&req).unwrap();
            let base = Job::base_request(&job.models, &req);
            assert_eq!(
                baseline_key(preset_engine(preset), &base),
                base.fingerprint(&EngineConfig::preset(preset)),
                "{key}"
            );
        }
    }

    #[test]
    fn tight_deadlines_cut_runs_off_and_loose_ones_change_nothing() {
        let unlimited = SimRunner
            .execute(&run_req(r#"{"id":"1","model":"alex","steps":2}"#))
            .unwrap();
        // A completed run is budget-independent: a deadline the run fits
        // under yields byte-identical reports to the unbounded run.
        let loose = SimRunner
            .execute(&run_req(
                r#"{"id":"2","model":"alex","steps":2,"deadline_ms":1000000}"#,
            ))
            .unwrap();
        assert_eq!(unlimited.reports, loose.reports);
        // A heavyweight model under a 1 ms budget (1000 events) trips at
        // a deterministic check site — long before the run would finish,
        // so the failing path is also the cheap one.
        let e = SimRunner
            .execute(&run_req(
                r#"{"id":"3","model":"resnet","steps":3,"deadline_ms":1}"#,
            ))
            .unwrap_err();
        assert_eq!(e.kind, "deadline_exceeded");
        assert!(e.message.contains("budget"), "{}", e.message);
    }

    #[test]
    fn faulted_requests_share_one_horizon_and_reproduce() {
        let req =
            run_req(r#"{"id":"1","model":"dcgan","preset":"hetero","faults":{"seed":3,"rate":1}}"#);
        let a = SimRunner.execute(&req).unwrap();
        let b = SimRunner.execute(&req).unwrap();
        assert_eq!(a, b);
    }
}
