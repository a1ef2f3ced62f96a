//! Property tests of the scheduler over randomly generated dataflow DAGs:
//! whatever the graph shape, the engine must respect dependencies, never
//! beat the critical path, never lose to the serial schedule, and produce
//! internally consistent reports.

use pim_common::units::Seconds;
use pim_graph::gen::{self, GenSpec};
use pim_graph::graph::Graph;
use pim_hw::faults::FaultPlan;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{
    Engine, EngineConfig, RunOptions, RunRequest, SystemPreset, TimelineEntry, WorkloadSpec,
};
use proptest::prelude::*;

/// Builds a random layered DAG through the shared seeded generator
/// (`pim_graph::gen`), fixing the tensor dimension the original prototype
/// used so existing seeds keep their shapes.
fn random_dag(layers: usize, width: usize, seed: u64) -> Graph {
    gen::random_dag(&GenSpec {
        layers,
        width,
        dim: 8,
        seed,
    })
}

fn run(graph: &Graph, cfg: EngineConfig, steps: usize) -> pim_runtime::ExecutionReport {
    run_with_timeline(graph, cfg, steps).0
}

fn run_with_timeline(
    graph: &Graph,
    cfg: EngineConfig,
    steps: usize,
) -> (pim_runtime::ExecutionReport, Vec<TimelineEntry>) {
    let request = RunRequest::new(&[WorkloadSpec {
        graph,
        steps,
        cpu_progr_only: false,
    }])
    .with_options(timeline_opts());
    let mut out = Engine::new(cfg).execute(&request).unwrap();
    let timeline = out.timeline.take().unwrap();
    (out.into_report(), timeline)
}

fn timeline_opts() -> RunOptions {
    RunOptions {
        timeline: true,
        ..RunOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reports are well-formed and the pipelined schedule never loses to
    /// the serialized one by more than scheduling noise, for any DAG.
    #[test]
    fn scheduled_never_much_worse_than_serialized(
        layers in 1usize..6,
        width in 1usize..4,
        seed in 0u64..1000,
    ) {
        let graph = random_dag(layers, width, seed);
        graph.validate().unwrap();
        let scheduled = run(&graph, EngineConfig::preset(SystemPreset::Hetero), 2);
        let serialized = run(&graph, EngineConfig::preset(SystemPreset::HeteroRc), 2);
        prop_assert!(scheduled.is_well_formed());
        prop_assert!(serialized.is_well_formed());
        // The pipeline overlaps work; tiny graphs may pay small constant
        // overheads, so allow 25% slack.
        prop_assert!(
            scheduled.makespan.seconds() <= serialized.makespan.seconds() * 1.25,
            "scheduled {} vs serialized {}",
            scheduled.makespan.seconds(),
            serialized.makespan.seconds()
        );
    }

    /// More steps never take less time, and never more than proportionally
    /// plus fill overhead.
    #[test]
    fn makespan_is_monotone_and_subadditive_in_steps(
        layers in 1usize..5,
        width in 1usize..4,
        seed in 0u64..1000,
    ) {
        let graph = random_dag(layers, width, seed);
        let one = run(&graph, EngineConfig::preset(SystemPreset::Hetero), 1).makespan;
        let three = run(&graph, EngineConfig::preset(SystemPreset::Hetero), 3).makespan;
        prop_assert!(three >= one);
        prop_assert!(three.seconds() <= 3.0 * one.seconds() + 1e-9);
    }

    /// Every configuration completes every DAG (no wedges, no panics) with
    /// a strictly positive makespan.
    #[test]
    fn all_configurations_complete_random_dags(
        layers in 1usize..5,
        width in 1usize..4,
        seed in 0u64..1000,
    ) {
        let graph = random_dag(layers, width, seed);
        for cfg in [
            EngineConfig::preset(SystemPreset::CpuOnly),
            EngineConfig::preset(SystemPreset::ProgrOnly),
            EngineConfig::preset(SystemPreset::FixedHost),
            EngineConfig::preset(SystemPreset::HeteroBare),
            EngineConfig::preset(SystemPreset::Hetero),
        ] {
            let r = run(&graph, cfg, 1);
            prop_assert!(r.makespan > Seconds::ZERO);
            prop_assert!(r.is_well_formed());
        }
    }

    /// Restricting a workload to CPU + programmable PIM never uses the
    /// fixed-function pool.
    #[test]
    fn restricted_workloads_never_touch_the_pool(
        layers in 1usize..5,
        seed in 0u64..1000,
    ) {
        let graph = random_dag(layers, 2, seed);
        let r = Engine::new(EngineConfig::preset(SystemPreset::Hetero))
            .execute(&RunRequest::new(&[WorkloadSpec { graph: &graph, steps: 2, cpu_progr_only: true }]))
            .unwrap()
            .into_report();
        prop_assert_eq!(r.ff_utilization, 0.0);
    }
}

/// A deterministic deep-chain case: the pipeline cannot reorder a pure
/// dependency chain, so two steps must cost at least ~1.6x one step even
/// with overlap (same-op cross-step ordering).
#[test]
fn dependency_chains_bound_the_pipeline() {
    let graph = random_dag(12, 1, 7);
    let one = run(&graph, EngineConfig::preset(SystemPreset::Hetero), 1).makespan;
    let two = run(&graph, EngineConfig::preset(SystemPreset::Hetero), 2).makespan;
    assert!(two.seconds() >= one.seconds() * 1.2);
}

/// Timeline invariants: exclusive resources never host two overlapping op
/// instances (CPU has one slot; the programmable PIM has two kernel slots).
#[test]
fn timeline_respects_resource_exclusivity() {
    use pim_runtime::engine::ResourceClass;
    let graph = random_dag(6, 3, 42);
    let (report, timeline) =
        run_with_timeline(&graph, EngineConfig::preset(SystemPreset::Hetero), 3);
    assert!(!timeline.is_empty());
    assert!(timeline.iter().all(|e| e.end >= e.start));
    assert!(timeline
        .iter()
        .all(|e| e.end.seconds() <= report.makespan.seconds() + 1e-9));

    // True instantaneous concurrency via an event sweep (ends processed
    // before starts at equal timestamps, so back-to-back reuse is legal).
    let overlaps = |class: fn(ResourceClass) -> bool| -> usize {
        let mut events: Vec<(f64, i32)> = Vec::new();
        for e in timeline.iter().filter(|e| class(e.resource)) {
            events.push((e.start.seconds(), 1));
            events.push((e.end.seconds(), -1));
        }
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let (mut live, mut peak) = (0i32, 0i32);
        for (_, delta) in events {
            live += delta;
            peak = peak.max(live);
        }
        peak.max(0) as usize
    };
    let uses_cpu = |r: ResourceClass| matches!(r, ResourceClass::Cpu | ResourceClass::CpuAndFixed);
    let uses_progr =
        |r: ResourceClass| matches!(r, ResourceClass::Progr | ResourceClass::ProgrAndFixed);
    assert!(overlaps(uses_cpu) <= 1, "CPU slot double-booked");
    assert!(overlaps(uses_progr) <= 2, "progr slots over-subscribed");
}

/// The serialized timeline is strictly sequential: entries never overlap
/// at all.
#[test]
fn serialized_timeline_is_sequential() {
    let graph = random_dag(5, 2, 9);
    let (_, timeline) = run_with_timeline(&graph, EngineConfig::preset(SystemPreset::HeteroRc), 2);
    for pair in timeline.windows(2) {
        assert!(pair[1].start.seconds() >= pair[0].end.seconds() - 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partitioned multi-workload execution produces
    /// exactly the artifacts of running each workload alone in input
    /// order, for any DAG mix: identical `ExecutionReport`s, a merged
    /// timeline equal to the deterministic `(start, partition)` merge of
    /// the solo timelines, and counters equal to the partition-ordered
    /// merge of the solo registries. This is the contract that makes the
    /// worker count (and `PIM_RUN_THREADS`) unobservable in the output.
    #[test]
    fn partitioned_runs_match_solo_runs(
        layers in 1usize..5,
        width in 1usize..4,
        seed in 0u64..500,
    ) {
        use pim_common::trace::Counters;

        let g1 = random_dag(layers, width, seed);
        let g2 = random_dag(layers.max(2) - 1, width, seed.wrapping_add(1));
        let wls = [
            WorkloadSpec { graph: &g1, steps: 2, cpu_progr_only: false },
            WorkloadSpec { graph: &g2, steps: 1, cpu_progr_only: false },
            WorkloadSpec { graph: &g1, steps: 1, cpu_progr_only: true },
        ];
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let opts = timeline_opts();

        let many = engine.execute(&RunRequest::new(&wls).with_options(opts).partitioned()).unwrap();

        let mut solo_reports = Vec::new();
        let mut solo_counters = Counters::new();
        let mut solo_parts = Vec::new();
        for wl in &wls {
            let mut out = engine.execute(&RunRequest::new(&[*wl]).with_options(opts)).unwrap();
            solo_counters.merge(&out.counters);
            solo_parts.push(out.timeline.take().unwrap());
            solo_reports.push(out.into_report());
        }
        prop_assert_eq!(&many.reports, &solo_reports);
        prop_assert_eq!(&many.counters, &solo_counters);

        // The merged registry cross-checks against the summed reports.
        let diags = pim_runtime::stats::cross_check_many(&many.reports, &many.counters);
        prop_assert!(diags.is_clean(), "{}", diags.render_text());

        // The merged timeline holds every solo entry, retagged with its
        // partition, ordered by (quantized start, partition) with stable
        // within-partition order.
        let merged = many.timeline.as_ref().unwrap();
        prop_assert_eq!(
            merged.len(),
            solo_parts.iter().map(Vec::len).sum::<usize>()
        );
        for (p, part) in solo_parts.iter().enumerate() {
            let replayed: Vec<_> = merged
                .iter()
                .filter(|e| e.workload == p)
                .map(|e| (e.step, e.op, e.start, e.end, e.resource, e.ff_units))
                .collect();
            let expected: Vec<_> = part
                .iter()
                .map(|e| (e.step, e.op, e.start, e.end, e.resource, e.ff_units))
                .collect();
            prop_assert_eq!(replayed, expected, "partition {} stream mangled", p);
        }
        for pair in merged.windows(2) {
            let a = (pair[0].start.seconds() * 1e15) as u128;
            let b = (pair[1].start.seconds() * 1e15) as u128;
            prop_assert!(a < b || (a == b && pair[0].workload <= pair[1].workload));
        }

        // The merged timeline splits back into verifiable partitions.
        let diags = engine.verify(&RunRequest::new(&wls).partitioned(), merged).unwrap();
        prop_assert!(diags.is_clean(), "{}", diags.render_text());
    }
}

/// A partitioned run under a fault plan replays clean through
/// `Engine::verify`, which checks every partition against the plan, and
/// a timeline entry moved off its recorded start is flagged.
#[test]
fn partitioned_faulted_runs_verify_and_flag_a_shifted_entry() {
    let models = [
        Model::build_with_batch(ModelKind::AlexNet, 16).unwrap(),
        Model::build_with_batch(ModelKind::Dcgan, 8).unwrap(),
        Model::build_with_batch(ModelKind::Lstm, 16).unwrap(),
    ];
    let wls: Vec<WorkloadSpec<'_>> = models
        .iter()
        .map(|model| WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        })
        .collect();
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let base = engine
        .execute(&RunRequest::new(&wls).partitioned())
        .unwrap();
    let horizon = base
        .reports
        .iter()
        .map(|r| r.makespan)
        .fold(Seconds::ZERO, Seconds::max);
    let plan = FaultPlan::seeded(1, 0.2, horizon, engine.config().ff_units);
    let request = RunRequest::new(&wls)
        .with_options(timeline_opts())
        .with_faults(plan)
        .partitioned();
    let out = engine.execute(&request).unwrap();
    assert!(
        out.counters.get("faults/retries") > 0.0,
        "the plan injected nothing"
    );
    let mut timeline = out.timeline.unwrap();
    let clean = engine.verify(&request, &timeline).unwrap();
    assert!(clean.is_clean(), "{}", clean.render_text());

    // Move partition 1's last-starting entry back to t = 0, ahead of the
    // instances it depends on.
    let last = timeline.iter().rposition(|e| e.workload == 1).unwrap();
    timeline[last].start = Seconds::ZERO;
    let diags = engine.verify(&request, &timeline).unwrap();
    assert!(!diags.is_clean(), "a shifted entry passed verification");
}
