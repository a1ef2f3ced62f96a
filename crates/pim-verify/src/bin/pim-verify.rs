//! `pim-verify` — run the static checker over model graphs and schedules.
//!
//! Runs the graph, KIR, schedule, and report passes, plus the opt-in
//! fault replay, order-invariance fuzz (pass 5) and ISA ground truth
//! (pass 6), and prints every finding. `pim-verify --help` lists the
//! flags; the `USAGE` text below is the one copy. Exits 2 when the
//! arguments are invalid (the [`pim_common::cli`] contract shared with
//! `repro`), 1 when any finding has error severity, 0 otherwise —
//! warnings do not fail the run.
#![forbid(unsafe_code)]

use std::process::ExitCode;

use pim_common::cli::{exit_code, parse_pair, require_in_range, verdict, ArgCursor, CliResult};
use pim_models::ModelKind;
use pim_verify::{verify_model, verify_model_faults, verify_model_isa, verify_model_orders};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Args {
    models: Vec<ModelKind>,
    steps: usize,
    faults: Option<(u64, f64)>,
    orders: Option<(usize, u64)>,
    isa: bool,
    format: Format,
}

const USAGE: &str = "usage: pim-verify [--all-models | --model NAME] [--steps N] \
[--faults SEED,RATE] [--orders N,SEED] [--isa] [--format text|json]

Runs the graph, KIR, schedule, report, and (opt-in) order-invariance and
ISA ground-truth verification passes.

options:
  --all-models       check every evaluated workload (default)
  --model NAME       check one workload (vgg19, alexnet, dcgan, resnet50,
                     inception_v3, lstm, word2vec)
  --steps N          training steps per schedule replay (default 2)
  --faults SEED,RATE additionally replay each configuration under a fault
                     plan seeded from SEED at fault rate RATE (0 <= RATE <= 1)
                     through the fault-aware schedule checker
  --orders N,SEED    additionally fuzz N seeded tie-break permutations per
                     configuration against the stable order (pass 5)
  --isa              additionally lower every kernel to an ISA program,
                     validate + interpret it, and match the exact mul/add
                     tallies against the Fig. 4 extraction (pass 6)
  --format FMT       output format: text (default) or json
  --help             print this message";

fn parse_faults(value: &str) -> Result<(u64, f64), String> {
    let (seed, rate) = parse_pair::<u64, f64>("--faults", "SEED,RATE", value)?;
    require_in_range("--faults rate", rate, 0.0, 1.0)?;
    Ok((seed, rate))
}

fn parse_orders(value: &str) -> Result<(usize, u64), String> {
    let (orders, seed) = parse_pair::<usize, u64>("--orders", "N,SEED", value)?;
    if orders == 0 {
        return Err("--orders needs at least one permutation".into());
    }
    Ok((orders, seed))
}

fn parse_model(name: &str) -> Option<ModelKind> {
    let wanted = name.to_ascii_lowercase().replace(['-', '_'], "");
    ModelKind::ALL
        .into_iter()
        .find(|kind| kind.name().to_ascii_lowercase().replace(['-', '_'], "") == wanted)
}

fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "text" => Ok(Format::Text),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format `{other}`")),
    }
}

/// The parsed command line, or `None` when it asks for `--help`.
fn parse_args(argv: &[String]) -> CliResult<Option<Args>> {
    let mut models: Option<Vec<ModelKind>> = None;
    let mut steps = 2;
    let mut faults = None;
    let mut orders = None;
    let mut isa = false;
    let mut format = Format::Text;
    let mut args = ArgCursor::new(argv);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--all-models" => models = Some(ModelKind::ALL.to_vec()),
            "--model" => {
                let kind = args.parse_with(|name| {
                    parse_model(name).ok_or_else(|| format!("unknown model `{name}`"))
                })?;
                models.get_or_insert_with(Vec::new).push(kind);
            }
            "--steps" => steps = args.count()?,
            "--faults" => faults = Some(args.parse_with(parse_faults)?),
            "--orders" => orders = Some(args.parse_with(parse_orders)?),
            "--isa" => isa = true,
            "--format" => format = args.parse_with(parse_format)?,
            "--help" | "-h" => return Ok(None),
            _ => return Err(args.unknown()),
        }
    }
    Ok(Some(Args {
        models: models.unwrap_or_else(|| ModelKind::ALL.to_vec()),
        steps,
        faults,
        orders,
        isa,
        format,
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    exit_code("pim-verify", USAGE, run(&argv))
}

fn run(argv: &[String]) -> CliResult {
    let Some(args) = parse_args(argv)? else {
        println!("{USAGE}");
        return Ok(());
    };

    let mut diags = pim_common::Diagnostics::new();
    for kind in &args.models {
        let verified =
            verify_model(*kind, kind.paper_batch_size(), args.steps).and_then(|mut model_diags| {
                if let Some((seed, rate)) = args.faults {
                    model_diags.extend(verify_model_faults(
                        *kind,
                        kind.paper_batch_size(),
                        args.steps,
                        seed,
                        rate,
                    )?);
                }
                if let Some((orders, seed)) = args.orders {
                    model_diags.extend(verify_model_orders(
                        *kind,
                        kind.paper_batch_size(),
                        args.steps,
                        orders,
                        seed,
                    )?);
                }
                if args.isa {
                    model_diags.extend(verify_model_isa(*kind, kind.paper_batch_size())?);
                }
                Ok(model_diags)
            });
        match verified {
            Ok(model_diags) => {
                if args.format == Format::Text {
                    eprintln!(
                        "pim-verify: {} — {} finding(s), {} error(s)",
                        kind.name(),
                        model_diags.items().len(),
                        model_diags.error_count()
                    );
                }
                diags.extend(model_diags);
            }
            Err(err) => {
                diags.error(
                    "graph",
                    kind.name(),
                    format!("model construction failed: {err}"),
                );
            }
        }
    }

    match args.format {
        Format::Text => print!("{}", diags.render_text()),
        Format::Json => println!("{}", diags.to_json()),
    }
    verdict(diags.is_clean())
}
