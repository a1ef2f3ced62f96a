//! Placement policy: the §III-C scheduling principles over the [`Device`]
//! abstraction.
//!
//! The [`Planner`] owns the device models of one system configuration and
//! answers two questions for the event core:
//!
//! * [`Planner::choose`] — *where* an op runs given current availability
//!   (the three scheduling principles, plus the RC and OP toggles), and
//! * [`Planner::plan_cost`] — *what it costs* there: duration, op/dm/sync
//!   decomposition, energy, and the resources it holds.
//!
//! Device timing always flows through [`Device::estimate`]; the one
//! exception is the fixed-function pool's partial-grant path
//! ([`FixedFunctionPool::estimate_ma`]), which needs the granted unit
//! count.

use super::observe::ResourceClass;
use super::{EngineConfig, ProgrBackend, SystemMode};
use crate::stats::normalized_parts;
use crate::sync::{
    kernel_calls, HOST_CALL, HOST_FF_SYNC, HOST_PROGR_SYNC, PIM_CALL, PIM_INTERNAL_SYNC,
};
use pim_common::fingerprint::debug_hash;
use pim_common::units::{Joules, Seconds};
use pim_hw::arm::{ProgrammablePim, ProgrammablePool};
use pim_hw::cpu::CpuDevice;
use pim_hw::device::Device;
use pim_hw::fixed::{FixedFunctionPool, FixedPoolConfig};
use pim_hw::params::ComputeEstimate;
use pim_isa::interp::Machine;
use pim_isa::lower::{lower_kernel, lower_recursive};
use pim_opencl::binary::BinarySet;
use pim_opencl::kir::KernelSource;
use pim_tensor::cost::{CostProfile, OffloadClass};
use std::collections::HashMap;
use std::sync::Mutex;

/// CPU-side runtime cost of one scheduling decision (querying the busy
/// registers, picking a device, enqueueing) — the price of the dynamic
/// scheduler itself, paid only by the heterogeneous configuration.
pub(crate) const PLACEMENT_DECISION: Seconds = Seconds::new(25e-6);

/// Where an operation is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanKind {
    Cpu,
    ProgrPool,
    Progr,
    FixedWhole { rc_runtime: bool, units: usize },
    HostSplit { units: usize },
    Recursive { units: usize },
}

/// Fully costed placement of one op instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedOp {
    pub duration: Seconds,
    pub op_part: Seconds,
    pub dm_part: Seconds,
    pub sync_part: Seconds,
    pub energy: Joules,
    pub ff_units: usize,
    /// Time the granted fixed-function units actually compute (utilization
    /// accounting counts useful busy time, not reservation time).
    pub ff_busy: Seconds,
    pub uses_cpu: bool,
    pub uses_progr: bool,
}

/// Human-readable description of a placement — the vocabulary shared by
/// [`super::Engine::plan_preview`] rows and the trace spans' `placement`
/// argument.
pub(crate) fn describe(kind: PlanKind) -> String {
    match kind {
        PlanKind::Cpu => "CPU".to_string(),
        PlanKind::ProgrPool => "Progr PIM pool".to_string(),
        PlanKind::Progr => "Progr PIM".to_string(),
        PlanKind::FixedWhole { rc_runtime, units } => {
            format!(
                "Fixed PIM ({}, {units} units)",
                if rc_runtime { "rc" } else { "host" }
            )
        }
        PlanKind::HostSplit { units } => format!("CPU + Fixed PIM ({units} units)"),
        PlanKind::Recursive { units } => {
            format!("Recursive: Progr PIM + Fixed PIM ({units} units)")
        }
    }
}

/// Which exclusive resource class a planned op occupies.
pub(crate) fn resource_class(planned: &PlannedOp) -> ResourceClass {
    match (planned.uses_cpu, planned.uses_progr, planned.ff_units > 0) {
        (true, _, true) => ResourceClass::CpuAndFixed,
        (true, _, false) => ResourceClass::Cpu,
        (false, true, true) => ResourceClass::ProgrAndFixed,
        (false, true, false) => ResourceClass::Progr,
        _ => ResourceClass::Fixed,
    }
}

/// Snapshot of free resources at a scheduling decision.
///
/// `ff_alive`/`progr_alive` separate *busy* from *gone*: a busy resource
/// is worth waiting for, a quarantined one never comes back, and the
/// graceful-degradation branches of [`Planner::choose`] fire only on the
/// latter — so fault-free decisions are untouched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Availability {
    pub cpu_free: bool,
    pub progr_free: bool,
    pub ff_free: usize,
    /// Fixed-function units not permanently quarantined (free or busy).
    pub ff_alive: usize,
    /// The programmable PIM has not been permanently quarantined.
    pub progr_alive: bool,
}

impl Availability {
    /// Everything free (uncontended previews and serialized execution).
    pub fn all_free(ff_units: usize) -> Self {
        Availability {
            cpu_free: true,
            progr_free: true,
            ff_free: ff_units,
            ff_alive: ff_units,
            progr_alive: true,
        }
    }

    /// The part of this snapshot a placement's success can depend on while
    /// `ff_alive`/`progr_alive` stay fixed: `(cpu_free, progr_free,
    /// min(ff_free, FF_FLOOR_CAP))`, as an index below [`SIGNATURES`].
    /// [`Planner::choose`] compares free units only against grant floors,
    /// and no floor exceeds [`FF_FLOOR_CAP`].
    pub fn signature(&self) -> usize {
        (usize::from(self.cpu_free) * 2 + usize::from(self.progr_free)) * (FF_FLOOR_CAP + 1)
            + self.ff_free.min(FF_FLOOR_CAP)
    }
}

/// Largest fixed-function grant floor: a request for more units than this
/// starts once this many are idle and takes what is free.
pub(crate) const FF_FLOOR_CAP: usize = 64;

/// Number of distinct [`Availability::signature`] values.
pub(crate) const SIGNATURES: usize = 4 * (FF_FLOOR_CAP + 1);

/// The fewest idle units a fixed-function request of `parallelism` units
/// starts on.
fn ff_floor(parallelism: usize) -> usize {
    parallelism.clamp(1, FF_FLOOR_CAP)
}

/// The demand class of an op: everything about it that decides whether
/// [`Planner::choose`] can place it at all. In every [`SystemMode`] branch
/// `choose` reads the cost only through its offload-class kind and the
/// grant floor of its fixed-function parallelism, so two ops of one class
/// are placeable under exactly the same availabilities (the
/// `demand_class_decides_placeability` test pins this). The scheduled
/// driver asks once per class instead of once per ready op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DemandClass {
    kind: std::mem::Discriminant<OffloadClass>,
    ff_floor: usize,
    pub candidate: bool,
    pub restricted: bool,
}

impl DemandClass {
    pub fn of(cost: &CostProfile, candidate: bool, restricted: bool) -> Self {
        DemandClass {
            kind: std::mem::discriminant(&cost.class),
            ff_floor: ff_floor(cost.ff_parallelism),
            candidate,
            restricted,
        }
    }
}

/// Splits a cost profile into its multiply/add core and the remainder.
fn split_cost(cost: &CostProfile) -> (CostProfile, CostProfile) {
    let total = cost.total_flops().max(1.0);
    let ma_frac = cost.ma_flops() / total;
    let ma = CostProfile {
        muls: cost.muls,
        adds: cost.adds,
        other_flops: 0.0,
        control_ops: cost.control_ops * ma_frac,
        bytes_read: cost.bytes_read * ma_frac,
        bytes_written: cost.bytes_written * ma_frac,
        pattern: cost.pattern,
        ff_parallelism: cost.ff_parallelism,
        class: OffloadClass::FullyMulAdd,
    };
    let rest = CostProfile {
        muls: 0.0,
        adds: 0.0,
        other_flops: cost.other_flops,
        control_ops: cost.control_ops * (1.0 - ma_frac),
        bytes_read: cost.bytes_read * (1.0 - ma_frac),
        bytes_written: cost.bytes_written * (1.0 - ma_frac),
        pattern: cost.pattern,
        ff_parallelism: 0,
        class: OffloadClass::NonMulAdd,
    };
    (ma, rest)
}

/// ISA-backed programmable-PIM costing (DESIGN.md §4.12): each kernel the
/// planner would place on the ARM core is lowered to a `pim_isa` program
/// and interpreted; issue cycles and `ld`/`st` traffic replace the
/// closed-form compute/memory terms. Results are memoized per cost
/// profile — the engine re-plans the same op every step — and lowering
/// failures (non-integral mul/add counts from synthetic costs) fall back
/// to the analytic estimate so planning stays infallible.
struct IsaEstimator {
    /// Machine model of the full ARM processor.
    machine: Machine,
    /// Machine model of the scheduled-mode core pair.
    machine_pair: Machine,
    memo: Mutex<HashMap<u64, ComputeEstimate>>,
}

impl IsaEstimator {
    fn new(progr: &ProgrammablePim, progr_pair: &ProgrammablePim) -> Self {
        IsaEstimator {
            machine: Self::machine_for(progr),
            machine_pair: Self::machine_for(progr_pair),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Derives the machine model, with `call_fixed` issue cycles pinned to
    /// the runtime's `PIM_CALL` latency at the device's actual clock (so
    /// frequency-scaled stacks keep the same wall-clock call cost).
    fn machine_for(pim: &ProgrammablePim) -> Machine {
        let machine = Machine::for_arm(pim);
        let cycles = (PIM_CALL.seconds() * machine.clock_hz).round() as u64;
        machine.with_call_issue_cycles(cycles)
    }

    fn machine(&self, pair: bool) -> &Machine {
        if pair {
            &self.machine_pair
        } else {
            &self.machine
        }
    }

    fn memoized(
        &self,
        key: u64,
        compute: impl FnOnce() -> Option<ComputeEstimate>,
    ) -> Option<ComputeEstimate> {
        if let Some(est) = self.memo.lock().expect("isa memo poisoned").get(&key) {
            return Some(*est);
        }
        let est = compute()?;
        self.memo
            .lock()
            .expect("isa memo poisoned")
            .insert(key, est);
        Some(est)
    }

    /// Whole-kernel estimate for a [`PlanKind::Progr`] placement: the op's
    /// kernel runs in-line on the ARM core, mul/add regions included.
    fn estimate_whole(
        &self,
        pim: &ProgrammablePim,
        pair: bool,
        cost: &CostProfile,
    ) -> Option<ComputeEstimate> {
        self.memoized(debug_hash(&("whole", pair, cost)), || {
            let kernel = KernelSource::from_cost("op", cost);
            let program = lower_kernel(&kernel, cost).ok()?;
            let machine = self.machine(pair);
            let summary = machine.run(&program).ok()?;
            Some(pim_isa::estimate_interpreted(
                &summary,
                machine,
                pim.params(),
                cost.pattern,
            ))
        })
    }

    /// ARM-side estimate for a [`PlanKind::Recursive`] placement: binary
    /// #4 (extracted regions as `call_fixed` sites) interpreted with the
    /// non-extracted share of the traffic; call-issue cycles land in the
    /// compute term, so the caller must not add `PIM_CALL` again.
    fn estimate_recursive(
        &self,
        pim: &ProgrammablePim,
        pair: bool,
        cost: &CostProfile,
        rest: &CostProfile,
    ) -> Option<ComputeEstimate> {
        self.memoized(debug_hash(&("recursive", pair, cost)), || {
            let set = BinarySet::generate(KernelSource::from_cost("op", cost)).ok()?;
            let program = lower_recursive(&set, rest).ok()?;
            let machine = self.machine(pair);
            let summary = machine.run(&program).ok()?;
            Some(pim_isa::estimate_interpreted(
                &summary,
                machine,
                pim.params(),
                cost.pattern,
            ))
        })
    }
}

/// The placement policy plus the device models it schedules onto.
pub(crate) struct Planner {
    pub cfg: EngineConfig,
    cpu: CpuDevice,
    /// [`pim_hw::params::DeviceParams::fingerprint`] of the CPU: the CPU part of the
    /// graph memo key of the step-1 candidate selection.
    cpu_fingerprint: u64,
    progr: ProgrammablePim,
    /// Core pair used per kernel in scheduled mode: the programmable-PIM
    /// runtime dedicates two cores to each in-flight kernel so two
    /// recursive kernels can proceed concurrently.
    progr_pair: ProgrammablePim,
    progr_pool: ProgrammablePool,
    pool_cfg: FixedPoolConfig,
    /// Idle pool reused for timing estimates ([`FixedFunctionPool::estimate_ma`]
    /// reads only the configuration, never allocation state) — built once so
    /// the hot path does not reconstruct a pool per planned op.
    est_pool: FixedFunctionPool,
    /// Present when `cfg.progr_backend` is [`ProgrBackend::Isa`].
    isa: Option<IsaEstimator>,
}

impl Planner {
    /// Builds the device complement for a configuration. The host CPU is
    /// whatever the configuration carries (`EngineConfig::host`), not a
    /// hardcoded part.
    pub fn new(cfg: EngineConfig) -> Self {
        let cpu = cfg.host.clone();
        let cpu_fingerprint = cpu.params().fingerprint();
        let progr = ProgrammablePim::cortex_a9(&cfg.stack, cfg.arm_cores);
        let progr_pair = ProgrammablePim::cortex_a9(&cfg.stack, cfg.arm_cores.div_ceil(2).max(1));
        let progr_pool = ProgrammablePool::unlimited(&cfg.stack);
        let pool_cfg = FixedPoolConfig::with_units(&cfg.stack, cfg.ff_units);
        let est_pool = FixedFunctionPool::new(pool_cfg.clone());
        let isa = (cfg.progr_backend == ProgrBackend::Isa)
            .then(|| IsaEstimator::new(&progr, &progr_pair));
        Planner {
            cfg,
            cpu,
            cpu_fingerprint,
            progr,
            progr_pair,
            progr_pool,
            pool_cfg,
            est_pool,
            isa,
        }
    }

    /// The host CPU device (profiling runs against it).
    pub fn cpu(&self) -> &CpuDevice {
        &self.cpu
    }

    /// The fingerprint of [`Planner::cpu`]'s parameters.
    pub fn cpu_fingerprint(&self) -> u64 {
        self.cpu_fingerprint
    }

    /// The fixed-function pool configuration of this complement.
    pub fn pool_cfg(&self) -> &FixedPoolConfig {
        &self.pool_cfg
    }

    /// The ARM device serving one kernel: the whole processor when
    /// execution is serialized, a core pair when the scheduler runs two
    /// kernels concurrently.
    fn arm_device(&self) -> &ProgrammablePim {
        if self.cfg.operation_pipeline {
            &self.progr_pair
        } else {
            &self.progr
        }
    }

    /// Timing/energy of a whole kernel on the ARM core: interpreted when
    /// the ISA backend is selected (and the kernel lowers), analytic
    /// otherwise.
    fn progr_estimate(&self, cost: &CostProfile) -> ComputeEstimate {
        let pair = self.cfg.operation_pipeline;
        if let Some(isa) = &self.isa {
            if let Some(est) = isa.estimate_whole(self.arm_device(), pair, cost) {
                return est;
            }
        }
        self.arm_device().estimate(cost)
    }

    /// ARM-side estimate and busy time for the recursive scheme. The
    /// analytic path charges `PIM_CALL` per kernel call on top of the
    /// device busy time; the ISA path interprets binary #4, whose
    /// `call_fixed` issue cycles already carry that cost.
    fn recursive_arm_estimate(
        &self,
        cost: &CostProfile,
        ma: &CostProfile,
        rest: &CostProfile,
    ) -> (ComputeEstimate, Seconds) {
        let pair = self.cfg.operation_pipeline;
        if let Some(isa) = &self.isa {
            if let Some(est) = isa.estimate_recursive(self.arm_device(), pair, cost, rest) {
                return (est, est.compute_time.max(est.memory_time));
            }
        }
        let est = self.arm_device().estimate(rest);
        let busy =
            est.compute_time.max(est.memory_time) + PIM_CALL * kernel_calls(ma.ma_flops()) as f64;
        (est, busy)
    }

    /// Host-side kernel calls are cheaper on the hetero hardware even
    /// without recursive kernels: the programmable PIM drives completion
    /// synchronization, avoiding frequent interrupts to the CPU (§III-B).
    fn host_call_factor(&self) -> f64 {
        if self.cfg.mode == SystemMode::Hetero {
            0.75
        } else {
            1.0
        }
    }

    /// Costs a placement fully: duration, breakdown, energy, holds.
    pub fn plan_cost(&self, kind: PlanKind, cost: &CostProfile) -> PlannedOp {
        match kind {
            PlanKind::Cpu => {
                let est = self.cpu.estimate(cost);
                let busy = est.compute_time.max(est.memory_time);
                let (op, dm, sync) = normalized_parts(
                    busy + est.dispatch_time,
                    est.compute_time,
                    busy - est.compute_time,
                    est.dispatch_time,
                );
                PlannedOp {
                    duration: busy + est.dispatch_time,
                    op_part: op,
                    dm_part: dm,
                    sync_part: sync,
                    energy: est.energy,
                    ff_units: 0,
                    ff_busy: Seconds::ZERO,
                    uses_cpu: true,
                    uses_progr: false,
                }
            }
            PlanKind::ProgrPool | PlanKind::Progr => {
                let est = if kind == PlanKind::ProgrPool {
                    self.progr_pool.estimate(cost)
                } else {
                    self.progr_estimate(cost)
                };
                let busy = est.compute_time.max(est.memory_time);
                let sync_raw = est.dispatch_time + HOST_PROGR_SYNC;
                let duration = busy + sync_raw;
                let (op, dm, sync) = normalized_parts(
                    duration,
                    est.compute_time,
                    busy - est.compute_time,
                    sync_raw,
                );
                PlannedOp {
                    duration,
                    op_part: op,
                    dm_part: dm,
                    sync_part: sync,
                    energy: est.energy,
                    ff_units: 0,
                    ff_busy: Seconds::ZERO,
                    uses_cpu: false,
                    uses_progr: true,
                }
            }
            PlanKind::FixedWhole { rc_runtime, units } => {
                let est = self.est_pool.estimate_ma(cost, units, !rc_runtime);
                let busy = est.compute_time.max(est.memory_time);
                let calls = kernel_calls(cost.ma_flops()) as f64;
                let (duration, sync_raw, host_energy) = if rc_runtime {
                    let call_time = PIM_CALL * calls;
                    let duration = busy.max(call_time) + PIM_INTERNAL_SYNC;
                    (duration, duration - busy, Joules::ZERO)
                } else {
                    let call_time = HOST_CALL * self.host_call_factor() * calls + HOST_FF_SYNC;
                    // The host orchestrates synchronously: its cycles are
                    // burned, and the op extends by the full call time.
                    let duration = busy + call_time;
                    (duration, call_time, self.cpu.dynamic_power() * call_time)
                };
                let (op, dm, sync) = normalized_parts(
                    duration,
                    est.compute_time,
                    busy - est.compute_time,
                    sync_raw,
                );
                PlannedOp {
                    duration,
                    op_part: op,
                    dm_part: dm,
                    sync_part: sync,
                    energy: est.energy + host_energy,
                    ff_units: units,
                    ff_busy: busy,
                    uses_cpu: false,
                    // Dispatch through the progr runtime only enqueues the
                    // kernel; it does not occupy an ARM core pair.
                    uses_progr: false,
                }
            }
            PlanKind::HostSplit { units } => {
                let (ma, rest) = split_cost(cost);
                let ff = self.est_pool.estimate_ma(&ma, units, true);
                let host = self.cpu.estimate(&rest);
                let ff_busy = ff.compute_time.max(ff.memory_time);
                let host_busy = host.compute_time.max(host.memory_time);
                let call_time =
                    HOST_CALL * self.host_call_factor() * kernel_calls(ma.ma_flops()) as f64
                        + HOST_FF_SYNC;
                let duration = ff_busy + host_busy + call_time;
                let (op, dm, sync) = normalized_parts(
                    duration,
                    ff.compute_time + host.compute_time,
                    (ff_busy - ff.compute_time) + (host_busy - host.compute_time),
                    call_time,
                );
                PlannedOp {
                    duration,
                    op_part: op,
                    dm_part: dm,
                    sync_part: sync,
                    energy: ff.energy + host.energy + self.cpu.dynamic_power() * call_time,
                    ff_units: units,
                    ff_busy,
                    uses_cpu: true,
                    uses_progr: false,
                }
            }
            PlanKind::Recursive { units } => {
                let (ma, rest) = split_cost(cost);
                let ff = self.est_pool.estimate_ma(&ma, units, false);
                let (arm, arm_busy) = self.recursive_arm_estimate(cost, &ma, &rest);
                let ff_busy = ff.compute_time.max(ff.memory_time);
                // Phases and fixed-function sub-kernels overlap inside the
                // single recursive kernel (Fig. 6).
                let duration = ff_busy.max(arm_busy) + PIM_INTERNAL_SYNC;
                let (op, dm, sync) = normalized_parts(
                    duration,
                    ff.compute_time + arm.compute_time,
                    (ff_busy - ff.compute_time)
                        + (arm.compute_time.max(arm.memory_time) - arm.compute_time),
                    duration - ff_busy.max(arm_busy),
                );
                PlannedOp {
                    duration,
                    op_part: op,
                    dm_part: dm,
                    sync_part: sync,
                    energy: ff.energy + arm.energy,
                    ff_units: units,
                    ff_busy,
                    uses_cpu: false,
                    uses_progr: true,
                }
            }
        }
    }

    /// Grant size for a fixed-function request under dynamic availability.
    fn ff_grant(parallelism: usize, free: usize) -> Option<usize> {
        if free >= ff_floor(parallelism) {
            Some(parallelism.max(1).min(free))
        } else {
            None
        }
    }

    /// Chooses a placement under the three scheduling principles, given
    /// current availability. `None` means "wait for resources".
    pub fn choose(
        &self,
        cost: &CostProfile,
        is_candidate: bool,
        restricted: bool,
        avail: Availability,
    ) -> Option<PlanKind> {
        let Availability {
            cpu_free,
            progr_free,
            ff_free,
            ff_alive,
            progr_alive,
        } = avail;
        if restricted {
            // Mixed-workload non-CNN rule: CPU or programmable PIM only.
            if cpu_free {
                return Some(PlanKind::Cpu);
            }
            if progr_free {
                return Some(PlanKind::Progr);
            }
            return None;
        }
        match self.cfg.mode {
            SystemMode::CpuOnly => cpu_free.then_some(PlanKind::Cpu),
            SystemMode::ProgrOnly => {
                if progr_free {
                    return Some(PlanKind::ProgrPool);
                }
                if !progr_alive {
                    // Degradation: the programmable complement is gone;
                    // the host is all that remains.
                    return cpu_free.then_some(PlanKind::Cpu);
                }
                None
            }
            SystemMode::FixedHost => match cost.class {
                OffloadClass::FullyMulAdd => {
                    if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                        if cpu_free {
                            // Host-driven dispatch occupies the CPU.
                            return Some(PlanKind::FixedWhole {
                                rc_runtime: false,
                                units,
                            });
                        }
                    }
                    cpu_free.then_some(PlanKind::Cpu)
                }
                OffloadClass::PartiallyMulAdd { .. } => {
                    if cpu_free {
                        if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                            return Some(PlanKind::HostSplit { units });
                        }
                        return Some(PlanKind::Cpu);
                    }
                    None
                }
                _ => cpu_free.then_some(PlanKind::Cpu),
            },
            SystemMode::Hetero => {
                // Principle 3 (dependencies) is enforced by the event loop;
                // principles 1 and 2 order the preferences here.
                // Non-mul/add and data-movement ops belong to the
                // programmable PIM whenever it is idle, candidate or not
                // (principle 2: prefer PIMs over CPU).
                if matches!(
                    cost.class,
                    OffloadClass::NonMulAdd | OffloadClass::DataMovement
                ) {
                    if progr_free {
                        return Some(PlanKind::Progr);
                    }
                    return cpu_free.then_some(PlanKind::Cpu);
                }
                if !is_candidate {
                    // Class-1 ops (compute-intensive, not memory-intensive)
                    // "do not have to be offloaded to PIMs, but we can
                    // offload them when there are idling hardware units"
                    // (§II-A).
                    if cost.class == OffloadClass::FullyMulAdd {
                        if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                            if self.cfg.recursive_kernels {
                                return Some(PlanKind::FixedWhole {
                                    rc_runtime: true,
                                    units,
                                });
                            }
                            if cpu_free {
                                return Some(PlanKind::FixedWhole {
                                    rc_runtime: false,
                                    units,
                                });
                            }
                        }
                    }
                    return cpu_free.then_some(PlanKind::Cpu);
                }
                // Heavy candidate ops with a fixed-function core wait for
                // the pool rather than falling back to the slow CPU: under
                // the operation pipeline another step's work keeps the CPU
                // and programmable PIM fed meanwhile. A *quarantined*
                // complement is different — it never comes back, so the
                // degradation branches re-rank the survivors along the
                // fixed → programmable → host chain instead of waiting.
                match cost.class {
                    OffloadClass::FullyMulAdd => {
                        if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                            if self.cfg.recursive_kernels {
                                return Some(PlanKind::FixedWhole {
                                    rc_runtime: true,
                                    units,
                                });
                            }
                            if cpu_free {
                                return Some(PlanKind::FixedWhole {
                                    rc_runtime: false,
                                    units,
                                });
                            }
                        }
                        if Self::ff_grant(cost.ff_parallelism, ff_alive).is_none() {
                            // The pool can never serve this op again.
                            if progr_alive && progr_free {
                                return Some(PlanKind::Progr);
                            }
                            return cpu_free.then_some(PlanKind::Cpu);
                        }
                        if self.cfg.operation_pipeline {
                            None // wait for pool capacity
                        } else {
                            cpu_free.then_some(PlanKind::Cpu)
                        }
                    }
                    OffloadClass::PartiallyMulAdd { .. } => {
                        if self.cfg.recursive_kernels {
                            if progr_free {
                                if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                                    return Some(PlanKind::Recursive { units });
                                }
                            }
                        } else if cpu_free {
                            if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                                return Some(PlanKind::HostSplit { units });
                            }
                        }
                        let pool_dead = Self::ff_grant(cost.ff_parallelism, ff_alive).is_none();
                        if self.cfg.recursive_kernels && !progr_alive && !pool_dead {
                            // The recursive driver is gone but the pool
                            // survives: host-driven split still uses it.
                            if cpu_free {
                                if let Some(units) = Self::ff_grant(cost.ff_parallelism, ff_free) {
                                    return Some(PlanKind::HostSplit { units });
                                }
                                return Some(PlanKind::Cpu);
                            }
                            return None;
                        }
                        if pool_dead {
                            // The pool can never serve the split again.
                            if progr_alive && progr_free {
                                return Some(PlanKind::Progr);
                            }
                            return cpu_free.then_some(PlanKind::Cpu);
                        }
                        if self.cfg.operation_pipeline {
                            None // wait for the programmable PIM + pool
                        } else {
                            cpu_free.then_some(PlanKind::Cpu)
                        }
                    }
                    OffloadClass::NonMulAdd | OffloadClass::DataMovement => {
                        if progr_free {
                            return Some(PlanKind::Progr);
                        }
                        cpu_free.then_some(PlanKind::Cpu)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SystemPreset;
    use pim_common::units::Bytes;

    fn planner(cfg: EngineConfig) -> Planner {
        Planner::new(cfg)
    }

    fn cost(class: OffloadClass, parallelism: usize) -> CostProfile {
        CostProfile::compute(
            1e9,
            1e9,
            if matches!(class, OffloadClass::FullyMulAdd) {
                0.0
            } else {
                1e8
            },
            Bytes::new(1e7),
            Bytes::new(1e7),
            class,
            parallelism,
        )
    }

    #[test]
    fn split_cost_partitions_work_and_bytes() {
        let c = cost(OffloadClass::PartiallyMulAdd { ma_fraction: 0.9 }, 64);
        let (ma, rest) = split_cost(&c);
        assert_eq!(ma.class, OffloadClass::FullyMulAdd);
        assert_eq!(rest.class, OffloadClass::NonMulAdd);
        assert_eq!(ma.ma_flops(), c.ma_flops());
        assert_eq!(rest.other_flops, c.other_flops);
        let total = c.bytes_read + c.bytes_written;
        let split_total = ma.bytes_read + ma.bytes_written + rest.bytes_read + rest.bytes_written;
        assert!((split_total.bytes() - total.bytes()).abs() < 1.0);
    }

    /// Every op of the seven models and of random graphs, candidate and
    /// restricted both ways, under every mode: an op is placeable exactly
    /// when its demand class's first op is. The availability grid puts
    /// `ff_free`/`ff_alive` on, just below and just above every grant
    /// floor, covers busy and quarantined programmable PIMs, and asks the
    /// representative at `min(ff_free, FF_FLOOR_CAP)` — the two facts the
    /// scheduled driver's admission table rests on.
    #[test]
    fn demand_class_decides_placeability() {
        use pim_graph::gen::{random_dag, GenSpec};
        use pim_models::{Model, ModelKind};
        let models: Vec<Model> = ModelKind::ALL
            .iter()
            .map(|&kind| Model::build(kind).unwrap())
            .collect();
        let dags: Vec<pim_graph::Graph> = (1..=4)
            .map(|seed| {
                random_dag(&GenSpec {
                    layers: 8,
                    width: 4,
                    dim: 16,
                    seed,
                })
            })
            .collect();
        let mut costs: Vec<CostProfile> = Vec::new();
        for graph in models.iter().map(Model::graph).chain(&dags) {
            for c in graph.costs().unwrap() {
                if !costs.contains(c) {
                    costs.push(*c);
                }
            }
        }
        let mut cfgs: Vec<EngineConfig> = SystemPreset::ALL
            .iter()
            .map(|&p| EngineConfig::preset(p))
            .collect();
        let mut op_no_rc = EngineConfig::preset(SystemPreset::Hetero);
        op_no_rc.recursive_kernels = false;
        cfgs.push(op_no_rc);
        let units = cfgs[0].ff_units;
        let mut levels = vec![0, FF_FLOOR_CAP + 1, units];
        for c in &costs {
            let f = ff_floor(c.ff_parallelism);
            levels.extend([f - 1, f, f + 1]);
        }
        levels.sort_unstable();
        levels.dedup();
        levels.retain(|&n| n <= units);
        let mut grid = Vec::new();
        for &ff_alive in &levels {
            for &ff_free in levels.iter().filter(|&&n| n <= ff_alive) {
                for cpu_free in [false, true] {
                    // Free, busy, and quarantined (which reads busy).
                    for (progr_free, progr_alive) in [(true, true), (false, true), (false, false)] {
                        grid.push(Availability {
                            cpu_free,
                            progr_free,
                            ff_free,
                            ff_alive,
                            progr_alive,
                        });
                    }
                }
            }
        }
        for cfg in cfgs {
            let planner = planner(cfg);
            for (candidate, restricted) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let mut reps: Vec<(DemandClass, &CostProfile)> = Vec::new();
                for cost in &costs {
                    let demand = DemandClass::of(cost, candidate, restricted);
                    let rep = match reps.iter().find(|(d, _)| *d == demand) {
                        Some(&(_, rep)) => rep,
                        None => {
                            reps.push((demand, cost));
                            cost
                        }
                    };
                    for &avail in &grid {
                        let clamped = Availability {
                            ff_free: avail.ff_free.min(FF_FLOOR_CAP),
                            ..avail
                        };
                        assert_eq!(
                            planner.choose(cost, candidate, restricted, avail).is_some(),
                            planner
                                .choose(rep, candidate, restricted, clamped)
                                .is_some(),
                            "{:?} {cost:?} vs {rep:?} under {avail:?}",
                            planner.cfg.name,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ff_grant_honors_floor_and_capacity() {
        // Plenty free: get exactly what is wanted.
        assert_eq!(Planner::ff_grant(100, 444), Some(100));
        // Partially free above the 64-unit floor: get the remainder.
        assert_eq!(Planner::ff_grant(100, 80), Some(80));
        // Below the floor: wait.
        assert_eq!(Planner::ff_grant(100, 63), None);
        // Small requests floor at their own size.
        assert_eq!(Planner::ff_grant(8, 8), Some(8));
        assert_eq!(Planner::ff_grant(0, 1), Some(1));
    }

    #[test]
    fn choose_follows_the_mode_restrictions() {
        let all = Availability::all_free(444);
        let ma = cost(OffloadClass::FullyMulAdd, 128);
        let cpu_only = planner(EngineConfig::preset(SystemPreset::CpuOnly));
        assert_eq!(cpu_only.choose(&ma, true, false, all), Some(PlanKind::Cpu));
        let progr = planner(EngineConfig::preset(SystemPreset::ProgrOnly));
        assert_eq!(
            progr.choose(&ma, true, false, all),
            Some(PlanKind::ProgrPool)
        );
        let hetero = planner(EngineConfig::preset(SystemPreset::Hetero));
        assert_eq!(
            hetero.choose(&ma, true, false, all),
            Some(PlanKind::FixedWhole {
                rc_runtime: true,
                units: 128
            })
        );
    }

    #[test]
    fn restricted_workloads_stay_off_the_fixed_pool() {
        let hetero = planner(EngineConfig::preset(SystemPreset::Hetero));
        let ma = cost(OffloadClass::FullyMulAdd, 128);
        assert_eq!(
            hetero.choose(&ma, true, true, Availability::all_free(444)),
            Some(PlanKind::Cpu)
        );
        let no_cpu = Availability {
            cpu_free: false,
            ..Availability::all_free(444)
        };
        assert_eq!(
            hetero.choose(&ma, true, true, no_cpu),
            Some(PlanKind::Progr)
        );
        let nothing = Availability {
            cpu_free: false,
            progr_free: false,
            ..Availability::all_free(444)
        };
        assert_eq!(hetero.choose(&ma, true, true, nothing), None);
    }

    #[test]
    fn hetero_candidates_wait_for_the_pool_under_op() {
        let hetero = planner(EngineConfig::preset(SystemPreset::Hetero));
        let ma = cost(OffloadClass::FullyMulAdd, 128);
        let pool_busy = Availability {
            ff_free: 0,
            ..Availability::all_free(444)
        };
        // Under the operation pipeline a heavy candidate waits instead of
        // falling back to the CPU.
        assert_eq!(hetero.choose(&ma, true, false, pool_busy), None);
        let mut serial_cfg = EngineConfig::preset(SystemPreset::Hetero);
        serial_cfg.operation_pipeline = false;
        let serial = planner(serial_cfg);
        assert_eq!(
            serial.choose(&ma, true, false, pool_busy),
            Some(PlanKind::Cpu)
        );
    }

    #[test]
    fn quarantined_pool_degrades_along_the_survivor_chain() {
        let hetero = planner(EngineConfig::preset(SystemPreset::Hetero));
        let ma = cost(OffloadClass::FullyMulAdd, 128);
        // Pool quarantined (not merely busy): a candidate falls to the
        // programmable PIM instead of waiting forever.
        let pool_dead = Availability {
            ff_free: 0,
            ff_alive: 0,
            ..Availability::all_free(444)
        };
        assert_eq!(
            hetero.choose(&ma, true, false, pool_dead),
            Some(PlanKind::Progr)
        );
        // Pool and programmable PIM both quarantined: host takes over.
        let only_cpu = Availability {
            ff_free: 0,
            ff_alive: 0,
            progr_free: false,
            progr_alive: false,
            ..Availability::all_free(444)
        };
        assert_eq!(
            hetero.choose(&ma, true, false, only_cpu),
            Some(PlanKind::Cpu)
        );
        // A recursive split whose driver died still exploits the pool
        // through the host.
        let split = cost(OffloadClass::PartiallyMulAdd { ma_fraction: 0.9 }, 128);
        let progr_dead = Availability {
            progr_free: false,
            progr_alive: false,
            ..Availability::all_free(444)
        };
        assert_eq!(
            hetero.choose(&split, true, false, progr_dead),
            Some(PlanKind::HostSplit { units: 128 })
        );
    }

    #[test]
    fn quarantined_progr_only_falls_back_to_the_host() {
        let progr = planner(EngineConfig::preset(SystemPreset::ProgrOnly));
        let ma = cost(OffloadClass::FullyMulAdd, 128);
        let dead = Availability {
            progr_free: false,
            progr_alive: false,
            ..Availability::all_free(444)
        };
        assert_eq!(progr.choose(&ma, true, false, dead), Some(PlanKind::Cpu));
        // Merely busy still waits for a slot.
        let busy = Availability {
            progr_free: false,
            ..Availability::all_free(444)
        };
        assert_eq!(progr.choose(&ma, true, false, busy), None);
    }

    #[test]
    fn plan_cost_breakdown_partitions_the_duration() {
        let hetero = planner(EngineConfig::preset(SystemPreset::Hetero));
        for kind in [
            PlanKind::Cpu,
            PlanKind::Progr,
            PlanKind::ProgrPool,
            PlanKind::FixedWhole {
                rc_runtime: true,
                units: 128,
            },
            PlanKind::FixedWhole {
                rc_runtime: false,
                units: 128,
            },
            PlanKind::HostSplit { units: 128 },
            PlanKind::Recursive { units: 128 },
        ] {
            let c = cost(OffloadClass::PartiallyMulAdd { ma_fraction: 0.9 }, 128);
            let p = hetero.plan_cost(kind, &c);
            let parts = p.op_part + p.dm_part + p.sync_part;
            assert!(
                (parts.seconds() - p.duration.seconds()).abs() <= 1e-9 * p.duration.seconds(),
                "{kind:?}: {} vs {}",
                parts.seconds(),
                p.duration.seconds()
            );
            assert!(p.energy.joules() > 0.0, "{kind:?} has zero energy");
        }
    }

    #[test]
    fn recursive_kernel_holds_progr_but_not_cpu() {
        let hetero = planner(EngineConfig::preset(SystemPreset::Hetero));
        let c = cost(OffloadClass::PartiallyMulAdd { ma_fraction: 0.9 }, 128);
        let p = hetero.plan_cost(PlanKind::Recursive { units: 128 }, &c);
        assert!(p.uses_progr);
        assert!(!p.uses_cpu);
        assert_eq!(p.ff_units, 128);
        assert_eq!(resource_class(&p), ResourceClass::ProgrAndFixed);
        let host = hetero.plan_cost(PlanKind::HostSplit { units: 128 }, &c);
        assert!(host.uses_cpu);
        assert_eq!(resource_class(&host), ResourceClass::CpuAndFixed);
    }
}
