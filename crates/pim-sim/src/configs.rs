//! The five system configurations of §VI and the simulation entry point.

use crate::gpu::simulate_gpu;
use pim_common::Result;
use pim_hw::gpu::GpuDevice;
use pim_mem::stack::StackConfig;
use pim_models::Model;
use pim_runtime::engine::{Engine, EngineConfig, RunRequest, SystemPreset, WorkloadSpec};
use pim_runtime::stats::ExecutionReport;
use serde::Serialize;

/// One of the evaluated system configurations.
#[derive(Debug, Clone, Serialize)]
pub enum SystemConfig {
    /// All operations on the host CPU.
    Cpu,
    /// All operations on the GTX 1080 Ti.
    Gpu,
    /// Programmable PIMs only, no runtime scheduling.
    ProgrPim,
    /// Fixed-function PIMs + CPU, no runtime scheduling.
    FixedPim,
    /// The full heterogeneous PIM with a custom engine configuration.
    HeteroPim(EngineConfig),
}

impl SystemConfig {
    /// The paper's five configurations in presentation order.
    pub fn evaluation_set() -> Vec<SystemConfig> {
        vec![
            SystemConfig::Cpu,
            SystemConfig::Gpu,
            SystemConfig::ProgrPim,
            SystemConfig::FixedPim,
            SystemConfig::hetero_pim(),
        ]
    }

    /// The full Hetero PIM (RC + OP) at baseline frequency.
    pub fn hetero_pim() -> SystemConfig {
        SystemConfig::HeteroPim(EngineConfig::preset(SystemPreset::Hetero))
    }

    /// Hetero PIM at a scaled stack frequency (§VI-D).
    ///
    /// # Errors
    ///
    /// Propagates invalid multipliers.
    pub fn hetero_pim_at_frequency(multiplier: f64) -> Result<SystemConfig> {
        let stack = StackConfig::hmc2().with_frequency_multiplier(multiplier)?;
        Ok(SystemConfig::HeteroPim(
            EngineConfig::preset(SystemPreset::Hetero).with_stack(stack),
        ))
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &str {
        match self {
            SystemConfig::Cpu => "CPU",
            SystemConfig::Gpu => "GPU",
            SystemConfig::ProgrPim => "Progr PIM",
            SystemConfig::FixedPim => "Fixed PIM",
            SystemConfig::HeteroPim(cfg) => &cfg.name,
        }
    }
}

/// Simulates `steps` training steps of `model` under a configuration.
///
/// # Examples
///
/// ```
/// use pim_sim::configs::{simulate, SystemConfig};
/// use pim_models::{Model, ModelKind};
///
/// # fn main() -> pim_common::Result<()> {
/// let model = Model::build_with_batch(ModelKind::AlexNet, 4)?;
/// let hetero = simulate(&model, &SystemConfig::hetero_pim(), 2)?;
/// let cpu = simulate(&model, &SystemConfig::Cpu, 2)?;
/// assert!(hetero.makespan < cpu.makespan);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates engine or cost-model failures.
pub fn simulate(model: &Model, config: &SystemConfig, steps: usize) -> Result<ExecutionReport> {
    let engine_cfg = match config {
        SystemConfig::Cpu => EngineConfig::preset(SystemPreset::CpuOnly),
        SystemConfig::Gpu => {
            return simulate_gpu(model, &GpuDevice::gtx_1080_ti(), steps);
        }
        SystemConfig::ProgrPim => EngineConfig::preset(SystemPreset::ProgrOnly),
        SystemConfig::FixedPim => EngineConfig::preset(SystemPreset::FixedHost),
        SystemConfig::HeteroPim(cfg) => cfg.clone(),
    };
    let request = RunRequest::new(&[WorkloadSpec {
        graph: model.graph(),
        steps,
        cpu_progr_only: false,
    }]);
    Ok(Engine::new(engine_cfg).execute(&request)?.into_report())
}

/// Simulates a raw training-step graph (not a zoo model) on the full
/// heterogeneous PIM — the path user-built graphs take.
///
/// # Errors
///
/// Propagates engine failures.
pub fn simulate_graph_hetero(graph: &pim_graph::Graph, steps: usize) -> Result<ExecutionReport> {
    let request = RunRequest::new(&[WorkloadSpec {
        graph,
        steps,
        cpu_progr_only: false,
    }]);
    Ok(Engine::new(EngineConfig::preset(SystemPreset::Hetero))
        .execute(&request)?
        .into_report())
}

/// The Table IV host/GPU configuration summary rows.
pub fn table_iv_rows() -> Vec<(&'static str, &'static str)> {
    vec![
        ("CPU", "Intel Xeon E5-2630 V3@2.4GHz"),
        ("Main memory", "16GB DDR4"),
        ("Operating system", "Ubuntu 16.04.2"),
        ("GPU", "NVIDIA GeForce GTX 1080 Ti (Pascal)"),
        ("GPU cores", "28 SMs, 128 CUDA cores per SM, 1.5GHz"),
        ("L1 cache", "24KB per SM"),
        ("L2 cache", "4096KB"),
        (
            "Memory interface",
            "8 memory controllers, 352-bit bus width",
        ),
        ("GPU main memory", "11GB GDDR5X"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_models::ModelKind;

    #[test]
    fn all_five_configurations_simulate() {
        let model = Model::build_with_batch(ModelKind::Dcgan, 8).unwrap();
        for config in SystemConfig::evaluation_set() {
            let r = simulate(&model, &config, 1).unwrap();
            assert!(r.is_well_formed(), "{} not well formed", config.name());
            assert!(r.makespan.seconds() > 0.0);
        }
    }

    #[test]
    fn hetero_is_fastest_pim_configuration() {
        let model = Model::build_with_batch(ModelKind::AlexNet, 8).unwrap();
        let hetero = simulate(&model, &SystemConfig::hetero_pim(), 2).unwrap();
        for config in [
            SystemConfig::Cpu,
            SystemConfig::ProgrPim,
            SystemConfig::FixedPim,
        ] {
            let r = simulate(&model, &config, 2).unwrap();
            assert!(
                r.makespan > hetero.makespan,
                "{} beat hetero",
                config.name()
            );
        }
    }

    #[test]
    fn table_iv_matches_paper() {
        let rows = table_iv_rows();
        assert_eq!(rows.len(), 9);
        assert!(rows[0].1.contains("E5-2630"));
        assert!(rows[8].1.contains("11GB"));
    }
}
