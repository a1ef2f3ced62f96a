//! Fig. 15: fixed-function-PIM utilization with and without RC and OP.

use bench::paper_model;
use criterion::{criterion_group, criterion_main, Criterion};
use pim_models::ModelKind;
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use std::time::Duration;

fn fig15(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig15_utilization");
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
                            steps: 3,
                            cpu_progr_only: false,
                        }]))
                        .unwrap()
                        .into_report()
                        .ff_utilization
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig15);
criterion_main!(benches);
