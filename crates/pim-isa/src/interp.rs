//! The deterministic interpreter and the machine timing model.
//!
//! [`Machine`] captures the programmable PIM's issue widths: how many
//! multiply/add, other-arithmetic, and control operations retire per
//! cycle, plus the per-call issue cost of dispatching a fixed-function
//! kernel. [`Machine::run`] validates a program, then executes it
//! instruction by instruction, accumulating exact `u64` multiply/add
//! tallies (executed in-line and offloaded through `CallFixed`),
//! memory-path traffic, and issue cycles — the executed ground truth the
//! analytic device formula is differentially tested against.

use crate::isa::{Inst, Program, COUNTER_REGS};
use crate::validate::{validate, StaticInfo, Violation};
use pim_hw::arm::ProgrammablePim;
use pim_hw::params::DeviceParams;
use serde::Serialize;
use std::fmt;

/// Default per-call issue cycles for `CallFixed` dispatch: the runtime's
/// 0.1 µs recursive-kernel call cost at the nominal 2 GHz ARM clock.
pub const DEFAULT_CALL_ISSUE_CYCLES: u64 = 200;

/// Kernel-call granularity: one call message per this many multiply/add
/// flops. Kept numerically identical to `pim_runtime::sync`'s constant
/// (a cross-crate test pins the equality).
pub const CALL_GRANULARITY_FLOPS: f64 = 6e6;

/// The issue-width model of one programmable-PIM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Machine {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Multiply/add flops retired per cycle across all cores.
    pub ma_lanes: f64,
    /// Other-arithmetic ops retired per cycle.
    pub other_lanes: f64,
    /// Control/bookkeeping ops retired per cycle.
    pub ctrl_lanes: f64,
    /// Issue cycles per fixed-kernel call message.
    pub call_issue_cycles: u64,
}

impl Machine {
    /// Derives the machine from a programmable-PIM device. The ARM core
    /// runs 2 multiply/add flops per cycle per core, so the clock falls
    /// out of the device's throughput: `clock = ma_throughput / (2 ×
    /// cores)` — frequency-scaled stacks scale the clock with it.
    pub fn for_arm(pim: &ProgrammablePim) -> Self {
        Machine::from_params(
            pim.params(),
            pim.params().ma_throughput / (2.0 * pim.cores() as f64),
        )
    }

    /// Derives lane widths from device throughputs at a given clock.
    pub fn from_params(params: &DeviceParams, clock_hz: f64) -> Self {
        Machine {
            clock_hz,
            ma_lanes: params.ma_throughput / clock_hz,
            other_lanes: params.other_throughput / clock_hz,
            ctrl_lanes: params.control_throughput / clock_hz,
            call_issue_cycles: DEFAULT_CALL_ISSUE_CYCLES,
        }
    }

    /// Returns a copy with a different per-call issue cost (the runtime
    /// derives it from its `PIM_CALL` latency at the actual clock).
    #[must_use]
    pub fn with_call_issue_cycles(mut self, cycles: u64) -> Self {
        self.call_issue_cycles = cycles.max(1);
        self
    }

    /// Issue cycles one instruction charges. Vector work rounds up to
    /// whole cycles against the lane width; bookkeeping, branches, and
    /// memory issue take one cycle (traffic time is accounted against
    /// bandwidth separately, as in the analytic overlap model).
    pub fn inst_cycles(&self, inst: Inst, program: &Program) -> u64 {
        let lanes =
            |elems: u64, per_cycle: f64| -> u64 { (elems as f64 / per_cycle).ceil() as u64 };
        match inst {
            Inst::Nop
            | Inst::Ld { .. }
            | Inst::St { .. }
            | Inst::SetCnt { .. }
            | Inst::DecJnz { .. }
            | Inst::Sync
            | Inst::Halt => 1,
            Inst::Mul { elems, .. } | Inst::Add { elems, .. } => lanes(elems, self.ma_lanes),
            Inst::Fma { elems, .. } => lanes(2 * elems, self.ma_lanes),
            Inst::Other { elems } => lanes(elems, self.other_lanes),
            Inst::Ctrl { ops } => lanes(ops, self.ctrl_lanes),
            Inst::CallFixed { kernel } => {
                let calls = program
                    .fixed_kernels
                    .get(kernel as usize)
                    .map_or(1, |k| u64::from(k.calls.max(1)));
                calls * self.call_issue_cycles
            }
        }
    }

    /// The static issue-cycle bound implied by a validation's exact
    /// multiplicities — interpretation can never exceed it.
    pub fn cycle_bound(&self, program: &Program, info: &StaticInfo) -> u64 {
        program
            .code
            .iter()
            .zip(&info.multiplicity)
            .map(|(&inst, &m)| m * self.inst_cycles(inst, program))
            .sum()
    }

    /// Validates and interprets `program`.
    ///
    /// # Errors
    ///
    /// [`ExecError::Invalid`] when validation fails;
    /// [`ExecError::FuelExhausted`] when execution exceeds the static
    /// retirement bound (impossible for programs the validator accepts —
    /// the check is the interpreter's own termination guarantee);
    /// [`ExecError::RegionOverrun`] when cumulative `Ld`/`St` traffic
    /// through a region exceeds its declared size.
    pub fn run(&self, program: &Program) -> Result<ExecSummary, ExecError> {
        let info = validate(program).map_err(ExecError::Invalid)?;
        self.run_validated(program, &info)
    }

    /// Interprets a program already validated to `info`. Exposed so
    /// callers holding a [`StaticInfo`] avoid re-validation.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`], minus [`ExecError::Invalid`].
    pub fn run_validated(
        &self,
        program: &Program,
        info: &StaticInfo,
    ) -> Result<ExecSummary, ExecError> {
        let mut s = ExecSummary::default();
        let mut counters = [0u64; COUNTER_REGS as usize];
        let mut region_traffic = vec![0u64; program.regions.len()];
        let mut pc = 0usize;
        while pc < program.code.len() {
            let inst = program.code[pc];
            s.retired += 1;
            if s.retired > info.retired_bound {
                return Err(ExecError::FuelExhausted {
                    bound: info.retired_bound,
                });
            }
            s.issue_cycles += self.inst_cycles(inst, program);
            let mut next = pc + 1;
            match inst {
                Inst::Nop | Inst::Ctrl { .. } => {}
                Inst::Ld { region, bytes, .. } => {
                    s.load_bytes += bytes;
                    let t = &mut region_traffic[region as usize];
                    *t += bytes;
                    if *t > program.regions[region as usize] {
                        return Err(ExecError::RegionOverrun {
                            pc,
                            region,
                            moved: *t,
                            size: program.regions[region as usize],
                        });
                    }
                }
                Inst::St { region, bytes, .. } => {
                    s.store_bytes += bytes;
                    let t = &mut region_traffic[region as usize];
                    *t += bytes;
                    if *t > program.regions[region as usize] {
                        return Err(ExecError::RegionOverrun {
                            pc,
                            region,
                            moved: *t,
                            size: program.regions[region as usize],
                        });
                    }
                }
                Inst::Mul { elems, .. } => s.executed_muls += elems,
                Inst::Add { elems, .. } => s.executed_adds += elems,
                Inst::Fma { elems, .. } => {
                    s.executed_muls += elems;
                    s.executed_adds += elems;
                }
                Inst::Other { elems } => s.other_elems += elems,
                Inst::SetCnt { ctr, trips } => counters[ctr.0 as usize] = trips,
                Inst::DecJnz { ctr, target } => {
                    let c = &mut counters[ctr.0 as usize];
                    *c = c.saturating_sub(1);
                    if *c > 0 {
                        next = target as usize;
                    }
                }
                Inst::CallFixed { kernel } => {
                    let k = program.fixed_kernels[kernel as usize];
                    s.offloaded_muls += k.muls;
                    s.offloaded_adds += k.adds;
                    s.calls += u64::from(k.calls);
                }
                Inst::Sync => s.syncs += 1,
                Inst::Halt => break,
            }
            if let Inst::Ctrl { ops } = inst {
                s.ctrl_ops += ops;
            }
            pc = next;
        }
        Ok(s)
    }
}

/// Why interpretation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program failed structural validation.
    Invalid(Vec<Violation>),
    /// Execution exceeded the static retirement bound.
    FuelExhausted {
        /// The bound that was exceeded.
        bound: u64,
    },
    /// Cumulative traffic through a region exceeded its declared size.
    RegionOverrun {
        /// Program counter of the overrunning transfer.
        pc: usize,
        /// The region.
        region: u8,
        /// Cumulative bytes moved including this transfer.
        moved: u64,
        /// Declared region size.
        size: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Invalid(vs) => {
                write!(f, "{} validation violation(s)", vs.len())?;
                if let Some(first) = vs.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            ExecError::FuelExhausted { bound } => {
                write!(f, "execution exceeded the static retirement bound {bound}")
            }
            ExecError::RegionOverrun {
                pc,
                region,
                moved,
                size,
            } => write!(
                f,
                "inst {pc}: cumulative traffic {moved}B overruns region r{region} of {size}B"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Everything one interpretation accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ExecSummary {
    /// Instructions retired.
    pub retired: u64,
    /// Issue cycles charged.
    pub issue_cycles: u64,
    /// Bytes loaded through the memory path.
    pub load_bytes: u64,
    /// Bytes stored through the memory path.
    pub store_bytes: u64,
    /// Multiplications executed in-line (`mul` + `fma`).
    pub executed_muls: u64,
    /// Additions executed in-line (`add` + `fma`).
    pub executed_adds: u64,
    /// Multiplications offloaded through `callfixed`.
    pub offloaded_muls: u64,
    /// Additions offloaded through `callfixed`.
    pub offloaded_adds: u64,
    /// Other-arithmetic operations retired.
    pub other_elems: u64,
    /// Control/bookkeeping operations retired.
    pub ctrl_ops: u64,
    /// Fixed-kernel call messages issued.
    pub calls: u64,
    /// Sync barriers executed.
    pub syncs: u64,
}

impl ExecSummary {
    /// Total memory-path traffic.
    pub fn traffic_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes
    }

    /// Total multiplications (executed + offloaded).
    pub fn total_muls(&self) -> u64 {
        self.executed_muls + self.offloaded_muls
    }

    /// Total additions (executed + offloaded).
    pub fn total_adds(&self) -> u64 {
        self.executed_adds + self.offloaded_adds
    }

    /// Renders the summary as deterministic text for golden snapshots.
    pub fn render(&self) -> String {
        format!(
            "retired={} cycles={} loadB={} storeB={} exec_mul={} exec_add={} \
             off_mul={} off_add={} other={} ctrl={} calls={} syncs={}",
            self.retired,
            self.issue_cycles,
            self.load_bytes,
            self.store_bytes,
            self.executed_muls,
            self.executed_adds,
            self.offloaded_muls,
            self.offloaded_adds,
            self.other_elems,
            self.ctrl_ops,
            self.calls,
            self.syncs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Ctr, FixedEntry, Reg};
    use pim_mem::stack::StackConfig;

    fn machine() -> Machine {
        Machine::for_arm(&ProgrammablePim::cortex_a9(&StackConfig::hmc2(), 4))
    }

    fn looped() -> Program {
        Program {
            name: "loop".to_string(),
            regions: vec![4096, 1024],
            fixed_kernels: vec![FixedEntry {
                muls: 500,
                adds: 400,
                calls: 3,
            }],
            code: vec![
                Inst::Ld {
                    dst: Reg(0),
                    region: 0,
                    bytes: 4096,
                },
                Inst::SetCnt {
                    ctr: Ctr(0),
                    trips: 5,
                },
                Inst::Fma {
                    dst: Reg(2),
                    a: Reg(0),
                    b: Reg(1),
                    elems: 100,
                },
                Inst::DecJnz {
                    ctr: Ctr(0),
                    target: 2,
                },
                Inst::Mul {
                    dst: Reg(3),
                    a: Reg(0),
                    b: Reg(1),
                    elems: 7,
                },
                Inst::CallFixed { kernel: 0 },
                Inst::Sync,
                Inst::St {
                    src: Reg(2),
                    region: 1,
                    bytes: 1024,
                },
                Inst::Halt,
            ],
        }
    }

    #[test]
    fn tallies_are_exact_across_loops_and_calls() {
        let s = machine().run(&looped()).unwrap();
        // 5 trips x 100 fma + 7 mul (executed), plus the offloaded kernel.
        assert_eq!(s.executed_muls, 507);
        assert_eq!(s.executed_adds, 500);
        assert_eq!(s.offloaded_muls, 500);
        assert_eq!(s.offloaded_adds, 400);
        assert_eq!(s.traffic_bytes(), 5120);
        assert_eq!(s.calls, 3);
    }

    #[test]
    fn retirement_matches_the_static_bound_exactly() {
        let p = looped();
        let info = validate(&p).unwrap();
        let s = machine().run(&p).unwrap();
        assert_eq!(s.retired, info.retired_bound);
    }

    #[test]
    fn cycle_bound_is_met_exactly_by_straight_execution() {
        let p = looped();
        let m = machine();
        let info = validate(&p).unwrap();
        let s = m.run(&p).unwrap();
        assert_eq!(s.issue_cycles, m.cycle_bound(&p, &info));
    }

    #[test]
    fn interpretation_is_deterministic() {
        let p = looped();
        let m = machine();
        assert_eq!(m.run(&p).unwrap(), m.run(&p).unwrap());
    }

    #[test]
    fn invalid_program_does_not_execute() {
        let mut p = looped();
        p.code.pop();
        assert!(matches!(machine().run(&p), Err(ExecError::Invalid(_))));
    }

    #[test]
    fn region_overrun_is_caught_dynamically() {
        let mut p = looped();
        // A second full-size load through region 0 overruns it.
        p.code.insert(
            1,
            Inst::Ld {
                dst: Reg(1),
                region: 0,
                bytes: 4096,
            },
        );
        // Fix the loop target after the insertion.
        p.code[4] = Inst::DecJnz {
            ctr: Ctr(0),
            target: 3,
        };
        match machine().run(&p) {
            Err(ExecError::RegionOverrun { region: 0, .. }) => {}
            other => panic!("expected overrun, got {other:?}"),
        }
    }

    #[test]
    fn arm_machine_lane_widths_follow_the_device() {
        let m = machine();
        assert!((m.clock_hz - 2e9).abs() < 1.0);
        assert!((m.ma_lanes - 8.0).abs() < 1e-12); // 4 cores x 2 flops/cycle
        assert!((m.ctrl_lanes - 16.0).abs() < 1e-12);
    }
}
