//! End-to-end engine tests over the model zoo (the submodules carry their
//! own unit tests for the event core and the placement policy).

use super::*;
use pim_common::PimError;
use pim_models::{Model, ModelKind};

fn run(cfg: EngineConfig, kind: ModelKind, steps: usize) -> ExecutionReport {
    let model = Model::build_with_batch(kind, 16).unwrap();
    let engine = Engine::new(cfg);
    engine
        .execute(&RunRequest::new(&[WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }]))
        .unwrap()
        .into_report()
}

#[test]
fn cpu_config_runs_and_is_well_formed() {
    let r = run(
        EngineConfig::preset(SystemPreset::CpuOnly),
        ModelKind::AlexNet,
        2,
    );
    assert!(r.is_well_formed());
    assert!(r.makespan.seconds() > 0.0);
    assert_eq!(r.ff_utilization, 0.0);
}

#[test]
fn hetero_beats_cpu_substantially() {
    let cpu = run(
        EngineConfig::preset(SystemPreset::CpuOnly),
        ModelKind::AlexNet,
        2,
    );
    let hetero = run(
        EngineConfig::preset(SystemPreset::Hetero),
        ModelKind::AlexNet,
        2,
    );
    let speedup = cpu.makespan / hetero.makespan;
    assert!(speedup > 3.0, "speedup = {speedup}");
    assert!(hetero.is_well_formed());
}

#[test]
fn hetero_beats_fixed_and_progr_baselines() {
    let kind = ModelKind::AlexNet;
    let hetero = run(EngineConfig::preset(SystemPreset::Hetero), kind, 2);
    let fixed = run(EngineConfig::preset(SystemPreset::FixedHost), kind, 2);
    let progr = run(EngineConfig::preset(SystemPreset::ProgrOnly), kind, 2);
    assert!(fixed.makespan > hetero.makespan);
    assert!(progr.makespan > hetero.makespan);
}

#[test]
fn rc_and_op_improve_over_bare_hetero() {
    // At the paper's batch size; OP's benefit needs enough in-flight
    // work to pipeline.
    let model = Model::build(ModelKind::AlexNet).unwrap();
    let run_cfg = |cfg: EngineConfig| {
        Engine::new(cfg)
            .execute(&RunRequest::new(&[WorkloadSpec {
                graph: model.graph(),
                steps: 3,
                cpu_progr_only: false,
            }]))
            .unwrap()
            .into_report()
    };
    let bare = run_cfg(EngineConfig::preset(SystemPreset::HeteroBare));
    let rc = run_cfg(EngineConfig::preset(SystemPreset::HeteroRc));
    let full = run_cfg(EngineConfig::preset(SystemPreset::Hetero));
    assert!(rc.makespan < bare.makespan, "RC must help");
    assert!(full.makespan < rc.makespan, "OP must help further");
}

#[test]
fn rc_and_op_raise_fixed_pim_utilization() {
    let kind = ModelKind::Vgg19;
    let bare = run(EngineConfig::preset(SystemPreset::HeteroBare), kind, 1);
    let full = run(EngineConfig::preset(SystemPreset::Hetero), kind, 2);
    assert!(
        full.ff_utilization > bare.ff_utilization,
        "bare {} vs full {}",
        bare.ff_utilization,
        full.ff_utilization
    );
}

#[test]
fn frequency_scaling_speeds_up_hetero() {
    let kind = ModelKind::AlexNet;
    let base = run(EngineConfig::preset(SystemPreset::Hetero), kind, 2);
    let fast = run(
        EngineConfig::preset(SystemPreset::Hetero)
            .with_stack(StackConfig::hmc2().with_frequency_multiplier(4.0).unwrap()),
        kind,
        2,
    );
    assert!(fast.makespan < base.makespan);
}

#[test]
fn step_one_profiles_on_the_configured_host() {
    let model = Model::build_with_batch(ModelKind::AlexNet, 2).unwrap();
    let mut params = CpuDevice::xeon_e5_2630_v3().params().clone();
    params.name = "FastHost";
    params.ma_throughput *= 2.0;
    params.other_throughput *= 2.0;
    let profile_total = |cfg: EngineConfig| {
        let engine = Engine::new(cfg);
        crate::profiler::profile_step(model.graph(), engine.profiling_device())
            .unwrap()
            .total_time()
    };
    let fast = profile_total(EngineConfig {
        host: CpuDevice::custom(params),
        ..EngineConfig::preset(SystemPreset::Hetero)
    });
    let base = profile_total(EngineConfig::preset(SystemPreset::Hetero));
    assert!(fast < base);
}

#[test]
fn pipeline_respects_dependencies() {
    // A deliberately serial chain cannot finish faster than the sum of
    // its op times divided by available parallelism — sanity-check by
    // ensuring 2 steps take less than 2x one step (pipelining) but
    // more than 1x (dependencies preserved).
    let kind = ModelKind::AlexNet;
    let one = run(EngineConfig::preset(SystemPreset::Hetero), kind, 1);
    let two = run(EngineConfig::preset(SystemPreset::Hetero), kind, 2);
    assert!(two.makespan > one.makespan);
    assert!(two.makespan < one.makespan * 2.0);
}

#[test]
fn mixed_restricted_workload_avoids_fixed_pim() {
    let model = Model::build_with_batch(ModelKind::Word2vec, 8).unwrap();
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let r = engine
        .execute(&RunRequest::new(&[WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: true,
        }]))
        .unwrap()
        .into_report();
    assert_eq!(r.ff_utilization, 0.0);
    assert!(r.is_well_formed());
}

#[test]
fn run_many_matches_individual_runs() {
    let alex = Model::build_with_batch(ModelKind::AlexNet, 8).unwrap();
    let dcgan = Model::build_with_batch(ModelKind::Dcgan, 8).unwrap();
    let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
    let specs = [
        WorkloadSpec {
            graph: alex.graph(),
            steps: 2,
            cpu_progr_only: false,
        },
        WorkloadSpec {
            graph: dcgan.graph(),
            steps: 2,
            cpu_progr_only: false,
        },
    ];
    let many = engine
        .execute(&RunRequest::new(&specs).partitioned())
        .unwrap()
        .reports;
    assert_eq!(many.len(), 2);
    for (spec, report) in specs.iter().zip(&many) {
        let single = engine
            .execute(&RunRequest::new(&[*spec]))
            .unwrap()
            .into_report();
        assert_eq!(report.makespan, single.makespan);
        assert_eq!(report.dynamic_energy, single.dynamic_energy);
    }
}

mod preview_tests {
    use super::*;

    #[test]
    fn preview_places_conv_backprops_on_recursive_kernels() {
        let model = Model::build(ModelKind::Vgg19).unwrap();
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let rows = engine.plan_preview(model.graph()).unwrap();
        assert_eq!(rows.len(), model.graph().op_count());
        let bpf = rows
            .iter()
            .find(|r| r.name == "Conv2DBackpropFilter")
            .unwrap();
        assert!(bpf.candidate);
        assert!(bpf.placement.starts_with("Recursive"), "{}", bpf.placement);
        let conv = rows.iter().find(|r| r.name == "Conv2D").unwrap();
        assert!(
            conv.placement.starts_with("Fixed PIM"),
            "{}",
            conv.placement
        );
        let relu = rows.iter().find(|r| r.name == "Relu").unwrap();
        assert_eq!(relu.placement, "Progr PIM");
    }

    #[test]
    fn cpu_only_preview_places_everything_on_cpu() {
        let model = Model::build_with_batch(ModelKind::Dcgan, 4).unwrap();
        let engine = Engine::new(EngineConfig::preset(SystemPreset::CpuOnly));
        let rows = engine.plan_preview(model.graph()).unwrap();
        assert!(rows.iter().all(|r| r.placement == "CPU"));
        assert!(rows.iter().all(|r| r.seconds >= 0.0));
    }
}

mod fault_tests {
    use super::*;
    use pim_hw::faults::{FaultPlan, FaultTarget};

    fn spec(model: &Model, steps: usize) -> WorkloadSpec<'_> {
        WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }
    }

    #[test]
    fn seeded_runs_are_deterministic_and_recover() {
        // Every run here passes the debug-build self-verification, so the
        // fault-aware legality checker vets each timeline implicitly.
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        for preset in [
            SystemPreset::Hetero,
            SystemPreset::FixedHost,
            SystemPreset::HeteroRc,
        ] {
            let engine = Engine::new(EngineConfig::preset(preset));
            let horizon = engine
                .execute(&RunRequest::new(&[spec(&model, 2)]))
                .unwrap()
                .into_report()
                .makespan;
            let plan = FaultPlan::seeded(7, 0.2, horizon, engine.config().ff_units);
            let request = RunRequest::new(&[spec(&model, 2)])
                .with_options(RunOptions {
                    timeline: true,
                    ..RunOptions::default()
                })
                .with_faults(plan);
            let a = engine.execute(&request).unwrap();
            let b = engine.execute(&request).unwrap();
            assert_eq!(a.report(), b.report(), "{preset:?}");
            assert_eq!(a.timeline, b.timeline, "{preset:?}");
            assert!(
                a.counters.get("faults/injected") > 0.0,
                "{preset:?}: plan at rate 0.2 injected nothing"
            );
            assert!(a.report().makespan > Seconds::ZERO);
        }
    }

    #[test]
    fn all_ff_dead_collapses_to_the_programmable_preset() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let hetero = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let plan = FaultPlan::quarantine_ff_at_start(hetero.config().ff_units);
        let degraded = hetero
            .execute(&RunRequest::new(&[spec(&model, 2)]).with_faults(plan))
            .unwrap();
        assert_eq!(degraded.degraded, Some("Progr PIM"));
        let progr = Engine::new(EngineConfig::preset(SystemPreset::ProgrOnly))
            .execute(&RunRequest::new(&[spec(&model, 2)]))
            .unwrap()
            .into_report();
        assert_eq!(*degraded.report(), progr);
    }

    #[test]
    fn everything_dead_collapses_to_cpu() {
        let model = Model::build_with_batch(ModelKind::Dcgan, 8).unwrap();
        let hetero = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let plan = FaultPlan::quarantine_ff_at_start(hetero.config().ff_units)
            .with_permanent(Seconds::ZERO, FaultTarget::ProgrPim);
        let degraded = hetero
            .execute(&RunRequest::new(&[spec(&model, 2)]).with_faults(plan))
            .unwrap();
        assert_eq!(degraded.degraded, Some("CPU"));
        let cpu = Engine::new(EngineConfig::preset(SystemPreset::CpuOnly))
            .execute(&RunRequest::new(&[spec(&model, 2)]))
            .unwrap()
            .into_report();
        assert_eq!(degraded.report().makespan, cpu.makespan);
        assert_eq!(degraded.report().dynamic_energy, cpu.dynamic_energy);
    }

    #[test]
    fn mid_run_progr_strike_still_finishes() {
        let model = Model::build_with_batch(ModelKind::Lstm, 16).unwrap();
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        // Anchor the strike inside the busy part of the schedule (the
        // makespan itself ends with barrier/decision accounting no event
        // reaches).
        let request = RunRequest::new(&[spec(&model, 2)]).with_options(RunOptions {
            timeline: true,
            ..RunOptions::default()
        });
        let timeline = engine.execute(&request).unwrap().timeline.unwrap();
        let last_end =
            timeline
                .iter()
                .map(|e| e.end)
                .fold(Seconds::ZERO, |a, b| if b > a { b } else { a });
        let plan = FaultPlan::none().with_permanent(last_end * 0.5, FaultTarget::ProgrPim);
        let out = engine
            .execute(&RunRequest::new(&[spec(&model, 2)]).with_faults(plan))
            .unwrap();
        assert!(out.degraded.is_none());
        assert!(out.report().is_well_formed());
        assert!(out.counters.get("faults/quarantined_units") >= 1.0);
    }

    /// A fixed-function strike loses at most the units still alive: the
    /// second strike asks for 300 of the 100 left, so exactly the whole
    /// pool ends up quarantined on the serialized and scheduled drivers.
    #[test]
    fn ff_strikes_past_the_alive_count_saturate_on_both_drivers() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        for preset in [
            SystemPreset::FixedHost,
            SystemPreset::HeteroBare,
            SystemPreset::Hetero,
        ] {
            let engine = Engine::new(EngineConfig::preset(preset));
            let ff_units = engine.config().ff_units;
            let horizon = engine
                .execute(&RunRequest::new(&[spec(&model, 2)]))
                .unwrap()
                .into_report()
                .makespan;
            let plan = FaultPlan::none()
                .with_permanent(horizon * 0.2, FaultTarget::FixedUnits(ff_units - 100))
                .with_permanent(horizon * 0.4, FaultTarget::FixedUnits(300));
            let out = engine
                .execute(&RunRequest::new(&[spec(&model, 2)]).with_faults(plan))
                .unwrap();
            assert!(out.report().is_well_formed(), "{preset:?}");
            assert_eq!(
                out.counters.get("faults/quarantined_units"),
                ff_units as f64,
                "{preset:?}"
            );
        }
    }
}

mod limit_tests {
    use super::*;

    fn spec(model: &Model, steps: usize) -> WorkloadSpec<'_> {
        WorkloadSpec {
            graph: model.graph(),
            steps,
            cpu_progr_only: false,
        }
    }

    /// The differential guard of the tentpole: compiling the check sites
    /// in — and even running under generous explicit limits — leaves a
    /// completed run byte-identical to the unbounded run, on both the
    /// scheduled and serialized drivers.
    #[test]
    fn generous_limits_leave_completed_runs_byte_identical() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let opts = RunOptions {
            timeline: true,
            ..RunOptions::default()
        };
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let base = RunRequest::new(&[spec(&model, 2)]).with_options(opts);
            let plain = engine.execute(&base).unwrap();
            let bounded = engine
                .execute(
                    &base
                        .clone()
                        .with_limits(RunLimits::none().with_max_events(u64::MAX / 2)),
                )
                .unwrap();
            assert_eq!(plain.report(), bounded.report(), "{preset:?}");
            assert_eq!(plain.timeline, bounded.timeline, "{preset:?}");
        }
    }

    #[test]
    fn fuel_budget_trips_deterministically() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let request =
            RunRequest::new(&[spec(&model, 4)]).with_limits(RunLimits::none().with_max_events(10));
        let a = engine.execute(&request).unwrap_err();
        let b = engine.execute(&request).unwrap_err();
        assert_eq!(
            a,
            PimError::BudgetExhausted {
                budget: "events",
                limit: 10
            }
        );
        assert_eq!(a, b, "trip point must be a pure function of the request");
    }

    #[test]
    fn fuel_budget_trips_the_serialized_driver_too() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        // FixedHost has no operation pipeline → run_serialized.
        let engine = Engine::new(EngineConfig::preset(SystemPreset::FixedHost));
        let err = engine
            .execute(
                &RunRequest::new(&[spec(&model, 4)])
                    .with_limits(RunLimits::none().with_max_events(5)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            PimError::BudgetExhausted {
                budget: "events",
                limit: 5
            }
        );
    }

    #[test]
    fn faulted_drivers_honor_fuel_budgets() {
        use pim_hw::faults::FaultPlan;
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        for preset in [SystemPreset::Hetero, SystemPreset::FixedHost] {
            let engine = Engine::new(EngineConfig::preset(preset));
            let horizon = engine
                .execute(&RunRequest::new(&[spec(&model, 2)]))
                .unwrap()
                .into_report()
                .makespan;
            let plan = FaultPlan::seeded(7, 0.2, horizon, engine.config().ff_units);
            let err = engine
                .execute(
                    &RunRequest::new(&[spec(&model, 2)])
                        .with_faults(plan)
                        .with_limits(RunLimits::none().with_max_events(5)),
                )
                .unwrap_err();
            assert_eq!(
                err,
                PimError::BudgetExhausted {
                    budget: "events",
                    limit: 5
                },
                "{preset:?}"
            );
        }
    }

    /// Pins the smallest fuel that completes a faulted scheduled run. The
    /// gauge ticks once per popped event, a killed attempt's stale event,
    /// a retry wake and a strike included, and serve deadlines are priced
    /// in that count, so a change that drops or double-counts any of them
    /// moves the boundary and fails here.
    #[test]
    fn faulted_fuel_boundaries_are_pinned() {
        use pim_hw::faults::FaultPlan;
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        let opts = RunOptions {
            timeline: true,
            ..RunOptions::default()
        };
        for (kind, seed, rate, boundary) in [
            (ModelKind::AlexNet, 7, 0.2, 208u64),
            (ModelKind::Lstm, 3, 0.3, 2548),
        ] {
            let model = Model::build_with_batch(kind, 16).unwrap();
            let horizon = engine
                .execute(&RunRequest::new(&[spec(&model, 2)]))
                .unwrap()
                .into_report()
                .makespan;
            let plan = FaultPlan::seeded(seed, rate, horizon, engine.config().ff_units);
            let request = RunRequest::new(&[spec(&model, 2)])
                .with_options(opts)
                .with_faults(plan);
            let with_fuel = |fuel| {
                request
                    .clone()
                    .with_limits(RunLimits::none().with_max_events(fuel))
            };
            let unbounded = engine.execute(&request).unwrap();
            let fits = engine.execute(&with_fuel(boundary)).unwrap();
            assert_eq!(fits.reports, unbounded.reports, "{kind:?}");
            assert_eq!(fits.timeline, unbounded.timeline, "{kind:?}");
            assert_eq!(fits.counters, unbounded.counters, "{kind:?}");
            assert_eq!(
                engine.execute(&with_fuel(boundary - 1)).unwrap_err(),
                PimError::BudgetExhausted {
                    budget: "events",
                    limit: boundary - 1
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn partitioned_fuel_is_per_partition() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let engine = Engine::new(EngineConfig::preset(SystemPreset::Hetero));
        // Find fuel that just fits one workload as its own partition.
        let single = RunRequest::new(&[spec(&model, 1)]).partitioned();
        let mut fuel = 1u64;
        while engine
            .execute(
                &single
                    .clone()
                    .with_limits(RunLimits::none().with_max_events(fuel)),
            )
            .is_err()
        {
            fuel *= 2;
            assert!(fuel < 1 << 40, "fuel search ran away");
        }
        // The same fuel admits two identical partitions: each has its own
        // gauge, so doubling the workload count must not trip the budget.
        let double = RunRequest::new(&[spec(&model, 1), spec(&model, 1)])
            .partitioned()
            .with_limits(RunLimits::none().with_max_events(fuel));
        let out = engine.execute(&double).unwrap();
        assert_eq!(out.reports.len(), 2);
        assert_eq!(out.reports[0], out.reports[1]);
    }

    #[test]
    fn limits_are_excluded_from_the_canonical_identity() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let cfg = EngineConfig::preset(SystemPreset::Hetero);
        let plain = RunRequest::new(&[spec(&model, 2)]);
        let bounded = plain
            .clone()
            .with_limits(RunLimits::none().with_max_events(7));
        assert_eq!(plain.canonical(&cfg), bounded.canonical(&cfg));
        assert_eq!(plain.fingerprint(&cfg), bounded.fingerprint(&cfg));
    }
}

mod isa_tests {
    use super::*;

    #[test]
    fn isa_backend_runs_and_stays_close_to_analytic() {
        let kind = ModelKind::AlexNet;
        let analytic = run(EngineConfig::preset(SystemPreset::Hetero), kind, 2);
        let interpreted = run(
            EngineConfig::preset(SystemPreset::Hetero).with_progr_backend(ProgrBackend::Isa),
            kind,
            2,
        );
        assert!(interpreted.is_well_formed());
        let delta = (interpreted.makespan.seconds() - analytic.makespan.seconds()).abs()
            / analytic.makespan.seconds();
        // The ISA backend rounds issue cycles and bytes, and folds call
        // dispatch into the compute term; it must stay a refinement of the
        // analytic model, not a different model.
        assert!(delta < 0.05, "makespan delta {delta} too large");
    }

    #[test]
    fn isa_backend_is_deterministic() {
        let cfg = EngineConfig::preset(SystemPreset::Hetero).with_progr_backend(ProgrBackend::Isa);
        let a = run(cfg.clone(), ModelKind::Dcgan, 2);
        let b = run(cfg, ModelKind::Dcgan, 2);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.dynamic_energy, b.dynamic_energy);
    }

    #[test]
    fn isa_backend_distinguishes_fingerprints() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 16).unwrap();
        let spec = WorkloadSpec {
            graph: model.graph(),
            steps: 1,
            cpu_progr_only: false,
        };
        let request = RunRequest::new(&[spec]);
        let analytic = EngineConfig::preset(SystemPreset::Hetero);
        let isa = analytic.clone().with_progr_backend(ProgrBackend::Isa);
        assert_ne!(request.fingerprint(&analytic), request.fingerprint(&isa));
        // The default backend is Analytic — presets are unchanged.
        assert_eq!(analytic.progr_backend, ProgrBackend::Analytic);
    }

    #[test]
    fn progr_pool_stays_analytic_under_the_isa_backend() {
        // The ProgrOnly baseline never places on the single ARM device, so
        // the backend toggle must not move its numbers.
        let kind = ModelKind::Lstm;
        let analytic = run(EngineConfig::preset(SystemPreset::ProgrOnly), kind, 2);
        let isa = run(
            EngineConfig::preset(SystemPreset::ProgrOnly).with_progr_backend(ProgrBackend::Isa),
            kind,
            2,
        );
        assert_eq!(analytic.makespan, isa.makespan);
        assert_eq!(analytic.dynamic_energy, isa.dynamic_energy);
    }
}

mod plan_table_tests {
    use super::*;
    use crate::engine::components::ResourceSoA;
    use crate::engine::placement::PlannedOp;
    use pim_common::ids::OpId;

    /// Every field of a costed plan, floats as bits.
    fn bits(p: &PlannedOp) -> [u64; 6] {
        [
            p.duration.seconds().to_bits(),
            p.op_part.seconds().to_bits(),
            p.dm_part.seconds().to_bits(),
            p.sync_part.seconds().to_bits(),
            p.energy.joules().to_bits(),
            p.ff_busy.seconds().to_bits(),
        ]
    }

    /// The serialized driver's state table against planning each attempt
    /// on the ledger, as the driver did before it had the table. For
    /// every serialized preset, paper model, restriction flag and
    /// surviving state a seeded plan reaches, each row must be bit-equal
    /// to what `choose` picks on a ledger quarantined down to that state,
    /// costed by `plan_cost`, and every op must place. One engine serves
    /// the states in turn, fault-free first as in a run, so a table keyed
    /// or shared on less than the whole state hands a later state an
    /// earlier one's rows.
    #[test]
    fn state_table_rows_equal_planning_on_a_quarantined_ledger() {
        let models: Vec<Model> = ModelKind::ALL
            .iter()
            .map(|&k| Model::build(k).unwrap())
            .collect();
        let mut serialized = 0;
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let cfg = &engine.planner.cfg;
            if cfg.operation_pipeline {
                continue;
            }
            serialized += 1;
            let ff_units = cfg.ff_units;
            assert_eq!(ff_units, 444, "{preset:?}");
            for model in &models {
                for restricted in [false, true] {
                    let spec = WorkloadSpec {
                        graph: model.graph(),
                        steps: 1,
                        cpu_progr_only: restricted,
                    };
                    let prepared = engine
                        .prepare(&[spec], &mut NullTrace, TieBreak::Stable)
                        .unwrap();
                    let wl = &prepared[0];
                    for progr_alive in [true, false] {
                        for ff_alive in [444, 333, 222, 0] {
                            let mut ledger = ResourceSoA::new(&engine.planner);
                            ledger.quarantine_ff(ff_units - ff_alive).unwrap();
                            if !progr_alive {
                                ledger.quarantine_progr();
                            }
                            assert_eq!(ledger.survivors(), (ff_alive, progr_alive));
                            let rows = engine
                                .plans
                                .get(&engine.planner, wl, ledger.survivors())
                                .unwrap();
                            assert_eq!(rows.len(), wl.costs.len());
                            let what = format!(
                                "{preset:?} {} restricted={restricted} \
                                 ff_alive={ff_alive} progr_alive={progr_alive}",
                                model.kind().name()
                            );
                            for (op, cost) in wl.costs.iter().enumerate() {
                                let candidate = wl.candidates.contains(OpId::new(op));
                                let kind = engine
                                    .planner
                                    .choose(cost, candidate, restricted, ledger.availability())
                                    .unwrap_or_else(|| panic!("{what}: op {op} places nowhere"));
                                let planned = engine.planner.plan_cost(kind, cost);
                                assert_eq!(rows[op].0, kind, "{what}: op {op}");
                                assert_eq!(bits(&rows[op].1), bits(&planned), "{what}: op {op}");
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(serialized, 5, "serialized presets");
    }
}
