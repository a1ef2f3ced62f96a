//! End-to-end tests of the observability layer: Chrome-trace export
//! (golden file, determinism, structural validity) and the counters
//! registry's agreement with the execution report across the evaluation
//! grid.

use pim_models::{Model, ModelKind};
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use pim_runtime::stats::cross_check_counters;

mod chrome_export {
    use pim_models::ModelKind;
    use pim_runtime::engine::SystemPreset;
    use pim_sim::chrome::chrome_trace;

    const GOLDEN: &str = include_str!("golden/alexnet_trace.json");

    fn alexnet_trace() -> String {
        chrome_trace(ModelKind::AlexNet, 2, 2, SystemPreset::Hetero).unwrap()
    }

    // The export is a stable artifact: simulated-time stamps only, sorted
    // deterministically. Regenerate the golden file with
    // `cargo run --release -p pim-sim --bin repro -- --trace \
    //  crates/pim-sim/tests/golden/alexnet_trace.json` after an
    // intentional scheduler or trace-format change.
    #[test]
    fn matches_golden_file() {
        let json = alexnet_trace();
        assert!(
            json == GOLDEN,
            "AlexNet Chrome trace diverged from tests/golden/alexnet_trace.json \
             ({} bytes vs {} golden); regenerate via `repro --trace` if intended",
            json.len(),
            GOLDEN.len()
        );
    }

    #[test]
    fn is_deterministic_across_runs() {
        assert_eq!(alexnet_trace(), alexnet_trace());
    }

    #[test]
    fn golden_file_is_structurally_valid() {
        let diags = pim_common::trace::validate_chrome_trace(GOLDEN);
        assert!(diags.is_clean(), "{}", diags.render_text());
    }

    #[test]
    fn every_preset_exports_a_valid_trace() {
        for preset in SystemPreset::ALL {
            let json = chrome_trace(ModelKind::Dcgan, 4, 1, preset).unwrap();
            let diags = pim_common::trace::validate_chrome_trace(&json);
            assert!(diags.is_clean(), "{preset:?}: {}", diags.render_text());
        }
    }
}

// The 1e-6 relative-tolerance cross-check of the independently-accumulated
// counter registry against the report, over every model x engine preset.
#[test]
fn counters_agree_with_report_across_the_grid() {
    for kind in [
        ModelKind::AlexNet,
        ModelKind::Vgg19,
        ModelKind::ResNet50,
        ModelKind::InceptionV3,
        ModelKind::Dcgan,
    ] {
        let model = Model::build_with_batch(kind, 2).unwrap();
        let workload = WorkloadSpec {
            graph: model.graph(),
            steps: 2,
            cpu_progr_only: false,
        };
        for preset in SystemPreset::ALL {
            let engine = Engine::new(EngineConfig::preset(preset));
            let out = engine.execute(&RunRequest::new(&[workload])).unwrap();
            let diags = cross_check_counters(out.report(), &out.counters);
            assert!(
                diags.is_clean(),
                "{kind} on {preset:?}:\n{}",
                diags.render_text()
            );
            let dispatched = out.counters.get("events/dispatched");
            assert_eq!(
                dispatched,
                (model.graph().op_count() * workload.steps) as f64,
                "{kind} on {preset:?} dispatched wrong op count"
            );
        }
    }
}
