//! The repository benchmark's harness.
//!
//! ```text
//! perfbench --workload <hetero-train|fault-grid|serve-mix|repro-all>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --repro <path to the repro binary> --expected <expected.json>
//!           [--out-dir <dir>]
//! ```
//!
//! Sets the workload up several times, then runs closed-loop passes over
//! its inputs for `--seconds`, checks every pass's outputs against the
//! recorded references, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans around the harness's own calls into each layer) with
//! `--trace 1`. `perfbench/run.py` builds this binary and adds the
//! process's peak RSS. See `perfbench/README.md`.

mod engine_work;
mod expected;
mod layers;
mod md5;
mod repro_work;
mod serve_work;
mod spans;
mod stats;

use expected::{Expected, Reference};
use spans::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per untraced run, spread evenly over it so that the fastest
/// is not hostage to the host's load in any one second; `setup_s` is the
/// fastest of them.
const SETUPS: usize = 10;
/// Passes a run makes even when `--seconds` ends sooner.
const MIN_PASSES: usize = 3;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repro: PathBuf,
    pub expected: Expected,
    pub out_dir: Option<PathBuf>,
}

impl Args {
    /// The seed the workload's inputs depend on; `None` for the seedless
    /// workloads.
    pub fn input_seed(&self) -> Option<u64> {
        matches!(self.workload.as_str(), "fault-grid" | "serve-mix").then_some(self.seed)
    }
}

/// What one pass over a workload's inputs produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the pass.
    pub secs: f64,
    /// Wall time of each job (an engine call, a served request, a
    /// process).
    pub latencies_s: Vec<f64>,
    /// Wall time of each segment of the pass, in order: a job, or on
    /// `serve-mix` a drain window. The segments cover the pass.
    pub segments_s: Vec<f64>,
    /// Jobs issued.
    pub jobs: usize,
    /// Jobs that returned an error.
    pub errors: usize,
    /// Simulated op instances the pass simulated.
    pub ops: f64,
    /// MD5 of the pass's rendered outputs.
    pub digest: String,
    /// Exact simulated statistics, by per-layer metric name.
    pub counts: Vec<(String, u64)>,
}

impl Pass {
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }
}

/// Metrics in the order they are set; setting a name again replaces it.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    pim_common::trace::json_string(n),
                    json_number(*v),
                    pim_common::trace::json_string(u)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A workload after set-up.
pub trait Workload {
    /// Runs one pass over the workload's inputs, with spans under `parent`.
    fn pass(&mut self, tracer: &Tracer, parent: u32) -> Pass;

    /// Independent output checks of one of the timed passes, run once
    /// after them: checks attempted and the failures found.
    fn verify(&mut self, timed: &Pass) -> (usize, Vec<String>);

    /// The per-layer metrics this workload's traced passes measured.
    fn layer_metrics(&self, spans: &[spans::Span], passes: &[Pass], out: &mut Metrics);
}

fn setup(args: &Args) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "hetero-train" => Box::new(engine_work::EngineWork::hetero_train()?),
        "fault-grid" => Box::new(engine_work::EngineWork::fault_grid(args.seed)?),
        "serve-mix" => Box::new(serve_work::ServeWork::new(serve_work::JOBS, args.seed)?),
        "repro-all" => Box::new(repro_work::ReproWork::new(&args.repro, &args.expected)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Failure accounting: every job attempted, every job failed or wrong.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Tally {
    /// Checks one pass against the reference; the first pass becomes the
    /// reference when none was recorded for this workload and seed.
    pub fn check(&mut self, reference: &mut Option<Reference>, pass: &Pass) {
        if self.attempted == 0 {
            let counts: Vec<String> = pass
                .counts
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!(
                "first pass: digest {} counts [{}]",
                pass.digest,
                counts.join(", ")
            );
        }
        self.attempted += pass.jobs;
        let want = reference.get_or_insert_with(|| Reference {
            digest: pass.digest.clone(),
            counts: pass.counts.clone(),
        });
        let mut wrong = Vec::new();
        if pass.digest != want.digest {
            wrong.push(format!(
                "output digest {} != expected {}",
                pass.digest, want.digest
            ));
        }
        for (name, value) in &want.counts {
            let got = pass.count(name);
            if got != *value {
                wrong.push(format!("count {name} = {got}, expected {value}"));
            }
        }
        if wrong.is_empty() {
            self.failed += pass.errors;
        } else {
            self.failed += pass.jobs;
            self.notes.extend(wrong);
        }
        if pass.errors > 0 {
            self.notes
                .push(format!("{} of {} jobs failed", pass.errors, pass.jobs));
        }
    }

    pub fn verified(&mut self, (attempted, failures): (usize, Vec<String>)) {
        self.attempted += attempted;
        self.failed += failures.len();
        self.notes.extend(failures);
    }
}

/// One pass under a `pass` root span.
fn spanned_pass(work: &mut dyn Workload, tracer: &Tracer) -> Pass {
    let root = tracer.span("pass", 0, "");
    let pass = work.pass(tracer, root.id());
    root.end();
    pass
}

/// Every pass issues the same work in the same order, so each position
/// of `series` (a job's latency, a segment's time) is taken as its
/// fastest over the passes that completed it: the host's interference is
/// filtered out, the spread between positions (the tail the daemon's
/// windows and the slow models produce) is kept.
fn fastest_by_position(passes: &[Pass], series: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    let len = passes.iter().map(|p| series(p).len()).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            let samples: Vec<f64> = passes
                .iter()
                .map(&series)
                .filter(|s| s.len() == len)
                .map(|s| s[i])
                .collect();
            stats::fastest(&samples)
        })
        .collect()
}

fn untraced(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let off = Tracer::new(false);
    let start = Instant::now();
    let run = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut work: Option<Box<dyn Workload>> = None;
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < run {
        let due = run.mul_f64(setups.len() as f64 / SETUPS as f64);
        if setups.len() < SETUPS && start.elapsed() >= due {
            // Drop the previous set-up first so each one starts from the
            // same memory state.
            drop(work.take());
            let t = Instant::now();
            work = Some(setup(args)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let current = work
            .as_mut()
            .expect("the first set-up precedes the first pass");
        passes.push(current.pass(&off, 0));
    }
    let mut work = work.expect("the first set-up precedes the first pass");

    let mut reference = args.expected.reference(&args.workload, args.input_seed());
    for pass in &passes {
        tally.check(&mut reference, pass);
    }
    tally.verified(work.verify(&passes[passes.len() - 1]));

    let pass_secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
    let latencies_ms: Vec<f64> = fastest_by_position(&passes, |p| &p.latencies_s)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    // Ops and ok jobs are the same in every good pass; the rates divide
    // them by the sum of the fastest segments.
    let sweep_s: f64 = fastest_by_position(&passes, |p| &p.segments_s).iter().sum();
    let ops: Vec<f64> = passes.iter().map(|p| p.ops).collect();
    let ok_jobs: Vec<f64> = passes.iter().map(|p| (p.jobs - p.errors) as f64).collect();
    println!("{}", stats::describe("setup", "s", &setups));
    println!("{}", stats::describe("pass", "s", &pass_secs));
    println!(
        "sweep (fastest segments): {sweep_s:.6} s, fastest pass {:.6} s",
        stats::fastest(&pass_secs)
    );
    println!(
        "{}",
        stats::describe("job latency (fastest per job)", "ms", &latencies_ms)
    );
    let tail = stats::tail(&latencies_ms, 99.0).expect("every pass runs a job");

    let mut m = Metrics::default();
    m.set("sim_ops_per_s", stats::median(&ops) / sweep_s, "1/s");
    m.set("sweep_s", sweep_s, "s");
    m.set("jobs_per_s", stats::median(&ok_jobs) / sweep_s, "1/s");
    m.set("latency_ms_p50", stats::median(&latencies_ms), "ms");
    m.set("latency_ms_p99", tail.value, "ms");
    m.set(
        "ok_frac",
        (tally.attempted - tally.failed.min(tally.attempted)) as f64 / tally.attempted as f64,
        "frac",
    );
    m.set("setup_s", stats::fastest(&setups), "s");
    Ok(m)
}

fn traced(args: &Args, tally: &mut Tally) -> Result<(Metrics, Tracer), String> {
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let mut work = setup(args)?;

    // Alternate untraced and traced passes so both see the same machine
    // state; their difference is the tracing overhead.
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    while plain.len() < 2 || spanned.len() < 2 || Instant::now() < until {
        plain.push(spanned_pass(work.as_mut(), &off));
        spanned.push(spanned_pass(work.as_mut(), &tracer));
    }
    let mut reference = args.expected.reference(&args.workload, args.input_seed());
    for pass in plain.iter().chain(&spanned) {
        tally.check(&mut reference, pass);
    }
    tally.verified(work.verify(&plain[0]));

    let mut m = Metrics::default();
    work.layer_metrics(&tracer.since(0), &spanned, &mut m);
    tally.verified(layers::layer_pass(args, &tracer, &mut m)?);

    let plain_s: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let spanned_s: Vec<f64> = spanned.iter().map(|p| p.secs).collect();
    println!("{}", stats::describe("untraced pass", "s", &plain_s));
    println!("{}", stats::describe("traced pass", "s", &spanned_s));
    let overhead = (stats::fastest(&spanned_s) / stats::fastest(&plain_s) - 1.0) * 100.0;
    println!("trace overhead on {}: {overhead:.2}%", args.workload);
    m.set("trace.overhead_pct", overhead, "%");
    Ok((m, tracer))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut repro = None;
    let mut expected = None;
    let mut out_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            "--repro" => repro = Some(PathBuf::from(value)),
            "--expected" => expected = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let expected = Expected::load(&expected.ok_or("--expected is required")?)?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or_else(|| expected.seed("default_seed")),
        seconds,
        trace,
        repro: repro.ok_or("--repro is required")?,
        expected,
        out_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} ({} s, trace {}), {} threads available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );
    let mut tally = Tally::default();
    let result = if args.trace {
        traced(&args, &mut tally).map(|(m, tracer)| {
            if let Some(dir) = &args.out_dir {
                let path = dir.join(format!("spans-{}.json", args.workload));
                match std::fs::write(&path, tracer.to_json()) {
                    Ok(()) => println!("spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
                }
            }
            m
        })
    } else {
        untraced(&args, &mut tally)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in tally.notes.iter().take(20) {
        println!("CHECK FAILED: {note}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0 && tally.notes.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected::load(std::path::Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/expected.json"
        )))
        .expect("expected.json loads")
    }

    fn seeds(e: &Expected) -> [u64; 2] {
        [e.seed("default_seed"), e.seed("held_out_seed")]
    }

    /// One pass plus the independent checks, against the recorded
    /// reference for `seed`.
    fn checked(workload: &str, seed: u64, work: &mut dyn Workload, e: &Expected) -> Pass {
        let pass = work.pass(&Tracer::new(false), 0);
        let mut reference = e.reference(workload, Some(seed));
        assert!(
            reference.is_some(),
            "no reference for {workload} seed {seed}"
        );
        let mut tally = Tally::default();
        tally.check(&mut reference, &pass);
        tally.verified(work.verify(&pass));
        assert_eq!(tally.failed, 0, "{workload} seed {seed}: {:?}", tally.notes);
        assert!(tally.notes.is_empty(), "{:?}", tally.notes);
        pass
    }

    #[test]
    fn the_two_seeds_give_different_traces_and_plans() {
        let [a, b] = seeds(&expected());
        assert_ne!(a, b);
        assert_ne!(
            pim_serve::loadgen::generate(serve_work::JOBS, a, serve_work::TENANTS),
            pim_serve::loadgen::generate(serve_work::JOBS, b, serve_work::TENANTS)
        );
        let plans_a = engine_work::EngineWork::fault_grid(a).unwrap().plans();
        let plans_b = engine_work::EngineWork::fault_grid(b).unwrap().plans();
        assert_eq!(plans_a.len(), 42);
        assert!(plans_a.iter().zip(&plans_b).all(|(x, y)| x != y));
    }

    #[test]
    fn both_seeds_pass_the_fault_grid_checks() {
        let e = expected();
        let [a, b] = seeds(&e);
        let mut digests = Vec::new();
        for seed in [a, b] {
            let mut work = engine_work::EngineWork::fault_grid(seed).unwrap();
            digests.push(checked("fault-grid", seed, &mut work, &e).digest);
        }
        assert_ne!(digests[0], digests[1]);
    }

    #[test]
    fn both_seeds_pass_the_serve_mix_checks() {
        let e = expected();
        let [a, b] = seeds(&e);
        let mut digests = Vec::new();
        for seed in [a, b] {
            let mut work = serve_work::ServeWork::new(serve_work::JOBS, seed).unwrap();
            assert_eq!(
                work.trace().len(),
                serve_work::JOBS + serve_work::JOBS / 64 + 1
            );
            digests.push(checked("serve-mix", seed, &mut work, &e).digest);
        }
        assert_ne!(digests[0], digests[1]);
    }

    #[test]
    fn hetero_train_matches_its_reference() {
        let e = expected();
        let mut work = engine_work::EngineWork::hetero_train().unwrap();
        let pass = work.pass(&Tracer::new(false), 0);
        let mut reference = e.reference("hetero-train", None);
        let mut tally = Tally::default();
        tally.check(&mut reference, &pass);
        assert!(tally.notes.is_empty(), "{:?}", tally.notes);
    }

    #[test]
    fn each_position_takes_its_fastest_pass() {
        let pass = |l: &[f64]| Pass {
            latencies_s: l.to_vec(),
            ..Pass::default()
        };
        let passes = [
            pass(&[1.0, 5.0]),
            pass(&[3.0, 4.0]),
            pass(&[2.0, 9.0]),
            pass(&[]),
        ];
        assert_eq!(
            fastest_by_position(&passes, |p| &p.latencies_s),
            vec![1.0, 4.0]
        );
    }

    #[test]
    fn a_wrong_output_counts_every_job_of_its_pass_as_failed() {
        let pass = Pass {
            jobs: 7,
            digest: "x".into(),
            counts: vec![("engine.events".into(), 3)],
            ..Pass::default()
        };
        let mut tally = Tally::default();
        let mut reference = Some(Reference {
            digest: "x".into(),
            counts: vec![("engine.events".into(), 4)],
        });
        tally.check(&mut reference, &pass);
        assert_eq!((tally.attempted, tally.failed), (7, 7));
        let mut reference = Some(Reference {
            digest: "x".into(),
            counts: vec![("engine.events".into(), 3)],
        });
        let mut tally = Tally::default();
        tally.check(&mut reference, &pass);
        assert_eq!(tally.failed, 0);
    }
}
