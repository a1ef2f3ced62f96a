//! Fig. 13: execution time with and without RC and OP.

use bench::paper_model;
use criterion::{criterion_group, criterion_main, Criterion};
use pim_models::ModelKind;
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use std::time::Duration;

fn fig13(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_software_time");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1200));
    group.sample_size(10);
    for kind in ModelKind::CNNS {
        let model = paper_model(kind);
        for cfg in [
            EngineConfig::preset(SystemPreset::HeteroBare),
            EngineConfig::preset(SystemPreset::HeteroRc),
            EngineConfig::preset(SystemPreset::Hetero),
        ] {
            let label = format!("{}/{}", kind.name(), cfg.name);
            group.bench_function(label, |b| {
                b.iter(|| {
                    Engine::new(cfg.clone())
                        .execute(&RunRequest::new(&[WorkloadSpec {
                            graph: model.graph(),
                            steps: 2,
                            cpu_progr_only: false,
                        }]))
                        .unwrap()
                        .into_report()
                        .makespan
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig13);
criterion_main!(benches);
