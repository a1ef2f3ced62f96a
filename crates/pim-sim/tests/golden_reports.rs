//! Golden snapshot of the full evaluation sweep: every paper model on
//! every system preset, with the report's key quantities pinned to a
//! checked-in table at full f64 round-trip precision.
//!
//! Any engine change that shifts a simulated result — intended or not —
//! shows up here as a readable diff instead of a silent drift. To accept
//! an intended change, regenerate the table:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p pim-sim --test golden_reports
//! ```
//!
//! and review the diff like any other code change.

use pim_common::fingerprint::debug_hash;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunRequest, SystemPreset, WorkloadSpec,
};
use pim_runtime::fuzz::TieBreak;
use pim_serve::protocol::parse_request;
use pim_serve::JobRunner;
use pim_sim::baselines::simulate_neurocube;
use pim_sim::configs::{simulate, SystemConfig};
use pim_sim::mixed::{corun, fig16_cases};
use pim_sim::serve::SimRunner;
use std::fmt::Write as _;

const STEPS: usize = 2;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_reports.txt"
);

/// Renders the sweep as one line per (model x preset) cell. `{:?}` on f64
/// prints the shortest round-trip representation, so equal strings mean
/// bit-equal results and the table stays stable across regenerations.
fn render_sweep() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# model | preset | makespan_s | op_s | dm_s | sync_s | energy_j | ff_util"
    )
    .unwrap();
    for kind in ModelKind::ALL {
        let model = Model::build(kind).unwrap();
        for preset in SystemPreset::ALL {
            let r = simulate(&model, &preset.into(), STEPS).unwrap();
            writeln!(
                out,
                "{} | {} | {:?} | {:?} | {:?} | {:?} | {:?} | {:?}",
                kind.name(),
                preset.name(),
                r.makespan.seconds(),
                r.op_time.seconds(),
                r.data_movement_time.seconds(),
                r.sync_time.seconds(),
                r.dynamic_energy.joules(),
                r.ff_utilization,
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn sweep_reports_match_golden_table() {
    let actual = render_sweep();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden table");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden table missing — regenerate with UPDATE_GOLDEN=1");
    if expected != actual {
        // Report the first diverging line, not a 43-line wall of text.
        for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(e, a, "golden mismatch at line {}", n + 1);
        }
        assert_eq!(
            expected.lines().count(),
            actual.lines().count(),
            "golden table length changed"
        );
        unreachable!("strings differ but no line did");
    }
}

const BASELINE_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/baseline_reports.txt"
);

/// Renders every paper model on the two standalone baselines, GPU and
/// Neurocube, one line per report holding its whole `{:?}` rendering
/// (every field, `device_busy` included, each f64 at round-trip
/// precision).
fn render_baselines() -> String {
    let mut out = String::from("# model | report\n");
    for kind in ModelKind::ALL {
        let model = Model::build(kind).unwrap();
        let gpu = simulate(&model, &SystemConfig::Gpu, STEPS).unwrap();
        let nc = simulate_neurocube(&model, STEPS).unwrap();
        for r in [gpu, nc] {
            writeln!(out, "{} | {r:?}", kind.name()).unwrap();
        }
    }
    out
}

/// Pins the GPU and Neurocube reports bit for bit; `repro all` prints
/// them only rounded. Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn baseline_reports_match_golden_table() {
    let actual = render_baselines();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(BASELINE_GOLDEN_PATH, &actual).expect("write baseline golden");
        return;
    }
    let expected = std::fs::read_to_string(BASELINE_GOLDEN_PATH)
        .expect("baseline golden missing — regenerate with UPDATE_GOLDEN=1");
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "baseline golden mismatch at line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

/// Steps per workload in the scheduled golden: past the pipeline depth
/// (4), so the operation-pipeline window closes and reopens.
const SCHEDULED_STEPS: usize = 8;

const SCHEDULED_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/scheduled_timelines.txt"
);

/// One row of the scheduled golden: the whole report, the dispatch and
/// stall counters, and a hash of the timeline.
fn scheduled_row(label: &str, workloads: &[WorkloadSpec<'_>], tie: TieBreak) -> String {
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let run = engine
        .execute(&RunRequest::new(workloads).with_options(RunOptions {
            timeline: true,
            tie,
            ..RunOptions::default()
        }))
        .unwrap();
    format!(
        "{label} | {:?} | events/dispatched={:?} | events/stalls={:?} | {:016x}\n",
        run.report(),
        run.counters.get("events/dispatched"),
        run.counters.get("events/stalls"),
        debug_hash(run.timeline.as_deref().unwrap()),
    )
}

fn spec(model: &Model, steps: usize, cpu_progr_only: bool) -> WorkloadSpec<'_> {
    WorkloadSpec {
        graph: model.graph(),
        steps,
        cpu_progr_only,
    }
}

/// Renders the scheduled-driver golden: every model alone on Hetero with
/// the pipeline window cycling, one seeded priority-order run, a shared
/// co-run of a CNN with a CPU/programmable-only LSTM sized to many more
/// steps (the two windows lie far apart), and the Fig. 16 co-run
/// makespans.
fn render_scheduled() -> String {
    let mut out = String::from("# run | report | dispatched | stalls | timeline_hash\n");
    let models: Vec<(ModelKind, Model)> = ModelKind::ALL
        .iter()
        .map(|&k| (k, Model::build(k).unwrap()))
        .collect();
    for (kind, model) in &models {
        out += &scheduled_row(
            kind.name(),
            &[spec(model, SCHEDULED_STEPS, false)],
            TieBreak::Stable,
        );
    }
    let model_of = |kind| &models.iter().find(|(k, _)| *k == kind).unwrap().1;
    let alex = model_of(ModelKind::AlexNet);
    out += &scheduled_row(
        "AlexNet priority(1)",
        &[spec(alex, SCHEDULED_STEPS, false)],
        TieBreak::Priority(1),
    );
    out += &scheduled_row(
        "AlexNet + LSTM(cpu/progr, 40 steps)",
        &[
            spec(alex, SCHEDULED_STEPS, false),
            spec(model_of(ModelKind::Lstm), 40, true),
        ],
        TieBreak::Stable,
    );
    for (cnn, other) in fig16_cases() {
        let r = corun(cnn, other, 2).unwrap();
        writeln!(
            out,
            "fig16 {} + {} | sequential {:?} | corun {:?}",
            cnn.name(),
            other.name(),
            r.sequential_seconds,
            r.corun_seconds
        )
        .unwrap();
    }
    out
}

/// Pins the bytes of the event-driven driver past the pipeline window and
/// under co-running. Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn scheduled_timelines_match_golden_table() {
    let actual = render_scheduled();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(SCHEDULED_GOLDEN_PATH, &actual).expect("write scheduled golden");
        return;
    }
    let expected = std::fs::read_to_string(SCHEDULED_GOLDEN_PATH)
        .expect("scheduled golden missing — regenerate with UPDATE_GOLDEN=1");
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "scheduled golden mismatch at line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

const STORE_KEYS_GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/store_keys.txt");

/// Wire requests covering every part of the served cache key's canonical
/// string: each preset, `steps`, `batch`, `faults`, `deadline_ms`, each
/// tie-break kind, `partitioned`, `cpu_progr_only` and a two-model
/// co-run. The last line differs from the first only in fields the key
/// ignores (`id`, `tenant`, `priority`), so the two keys must be equal.
const KEYED_REQUESTS: &[&str] = &[
    r#"{"id":"k1","model":"alex"}"#,
    r#"{"id":"k2","model":"vgg","preset":"cpu","steps":3}"#,
    r#"{"id":"k3","model":"dcgan","preset":"progr","batch":8}"#,
    r#"{"id":"k4","model":"resnet","preset":"fixed","faults":{"seed":2,"rate":0.1}}"#,
    r#"{"id":"k5","model":"inception","preset":"bare","deadline_ms":5}"#,
    r#"{"id":"k6","model":"lstm","preset":"rc","tie":{"permuted":3}}"#,
    r#"{"id":"k7","model":"w2v","tie":{"priority":5}}"#,
    r#"{"id":"k8","model":"alex","tie":"stable","partitioned":true}"#,
    r#"{"id":"k9","model":"lstm","cpu_progr_only":true}"#,
    r#"{"id":"k10","models":["alex","lstm"],"steps":2}"#,
    r#"{"id":"k11","models":["dcgan","w2v"],"batch":4,"partitioned":true,"faults":{"seed":1,"rate":0.05},"deadline_ms":100}"#,
    r#"{"id":"k12","model":"alex","tenant":"b","priority":9}"#,
];

/// Renders the store-key table: the structural hash of every paper model
/// and the served cache key of every request in [`KEYED_REQUESTS`].
fn render_store_keys() -> String {
    let mut out = String::from("# model | structural_hash\n");
    for kind in ModelKind::ALL {
        let model = Model::build(kind).unwrap();
        writeln!(
            out,
            "{} | {:016x}",
            kind.name(),
            model.graph().structural_hash()
        )
        .unwrap();
    }
    out += "# request | cache_key\n";
    for line in KEYED_REQUESTS {
        let req = parse_request(line).unwrap();
        let key = SimRunner.cache_key(&req).unwrap();
        writeln!(out, "{line} | {key:016x}").unwrap();
    }
    out
}

/// Pins the values of the shared store's keys, not just their equality:
/// a key that drifts silently turns every warm store entry into a miss.
/// Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn store_keys_match_golden_table() {
    let actual = render_store_keys();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(STORE_KEYS_GOLDEN_PATH, &actual).expect("write store-key golden");
        return;
    }
    let expected = std::fs::read_to_string(STORE_KEYS_GOLDEN_PATH)
        .expect("store-key golden missing — regenerate with UPDATE_GOLDEN=1");
    for (n, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "store-key golden mismatch at line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
    let key = |line: &str| line.rsplit(" | ").next().unwrap().to_string();
    let rows: Vec<&str> = actual.lines().collect();
    let n = rows.len();
    assert_eq!(key(rows[n - KEYED_REQUESTS.len()]), key(rows[n - 1]));
}
