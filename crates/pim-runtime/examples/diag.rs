use pim_hw::cpu::CpuDevice;
use pim_models::{Model, ModelKind};
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use pim_runtime::profiler::profile_step;

fn main() {
    let kind: ModelKind = match std::env::args().nth(1).as_deref() {
        Some("vgg") => ModelKind::Vgg19,
        Some("alex") | None => ModelKind::AlexNet,
        Some("dcgan") => ModelKind::Dcgan,
        Some("resnet") => ModelKind::ResNet50,
        Some("inception") => ModelKind::InceptionV3,
        _ => ModelKind::AlexNet,
    };
    let batch: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let model = Model::build_with_batch(kind, batch).unwrap();
    let profile = profile_step(model.graph(), &CpuDevice::xeon_e5_2630_v3()).unwrap();
    println!(
        "=== {} batch {} ({} ops) ===",
        kind,
        batch,
        model.graph().op_count()
    );
    println!("profile rows by time:");
    for row in profile.by_name().iter().take(8) {
        println!(
            "  {:28} t={:.4}s mem={:>12} inv={}",
            row.name,
            row.time.seconds(),
            row.memory_accesses,
            row.invocations
        );
    }
    let mut rows = profile.by_name();
    rows.sort_by_key(|r| std::cmp::Reverse(r.memory_accesses));
    println!("profile rows by mem:");
    for row in rows.iter().take(8) {
        println!(
            "  {:28} t={:.4}s mem={:>12} inv={}",
            row.name,
            row.time.seconds(),
            row.memory_accesses,
            row.invocations
        );
    }
    let wl = WorkloadSpec {
        graph: model.graph(),
        steps: 2,
        cpu_progr_only: false,
    };
    for cfg in [
        EngineConfig::preset(SystemPreset::CpuOnly),
        EngineConfig::preset(SystemPreset::ProgrOnly),
        EngineConfig::preset(SystemPreset::FixedHost),
        EngineConfig::preset(SystemPreset::HeteroBare),
        EngineConfig::preset(SystemPreset::HeteroRc),
        EngineConfig::preset(SystemPreset::Hetero),
    ] {
        let name = cfg.name.clone();
        let r = Engine::new(cfg)
            .execute(&RunRequest::new(&[wl]))
            .unwrap()
            .into_report();
        println!(
            "{:22} makespan={:>9.4}s op={:.3} dm={:.3} sync={:.3} E={:>8.2}J util={:.2}",
            name,
            r.makespan.seconds(),
            r.op_time.seconds(),
            r.data_movement_time.seconds(),
            r.sync_time.seconds(),
            r.dynamic_energy.joules(),
            r.ff_utilization
        );
    }
}
