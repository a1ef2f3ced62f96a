//! The runtime engine: configuration, workload preparation, and the public
//! simulation API.
//!
//! Implements the §III-C scheduler — profiling-based candidate selection,
//! the three scheduling principles, recursive PIM kernels (RC), and the
//! operation pipeline (OP) — over the device models of `pim-hw`. The
//! system configurations of §VI map onto [`SystemPreset`] via
//! [`EngineConfig::preset`] (the GPU baseline is analytic and lives in
//! `pim-sim`).
//!
//! The API is two calls over one request type. [`Engine::execute`] takes a
//! [`RunRequest`] — workloads, [`RunOptions`], a [`FaultPlan`], and a
//! [`Partitioning`] — and returns a [`RunOutput`] carrying the reports plus
//! any requested observability artifacts (timeline, counters, Chrome-trace
//! recording). [`Engine::verify`] replays a timeline recorded for the same
//! request through the schedule legality checker. The same `RunRequest`
//! doubles as the content-addressed identity of a simulation:
//! [`RunRequest::fingerprint`] keys the shared result store of
//! `pim-serve`, so the in-process API, the wire protocol, and the cache
//! key are one object.
//!
//! The engine is a thin facade over the core submodules:
//!
//! * `placement` — the placement policy (`Planner`): the three scheduling
//!   principles costed through the `pim-hw` `Device` trait,
//! * `components` — the discrete-event core (clock, the one event heap
//!   of the scheduled driver, the device-lane slab, SoA resource state),
//! * `observe` — the timeline entry type and the observability
//!   `Observer`,
//! * `drivers` — one serialized and one scheduled driver, each generic
//!   over the fault policy of [`faults`].

mod components;
mod drivers;
pub mod faults;
mod limits;
mod observe;
mod placement;
#[cfg(test)]
mod tests;

pub use limits::RunLimits;

pub use components::PROGR_KERNEL_SLOTS;
pub use faults::{backoff_after, AttemptOutcome, BACKOFF_BASE, LINK_TIMEOUT, MAX_ATTEMPTS};
pub(crate) use observe::SCHED_TRACK;
pub use observe::{ResourceClass, TimelineEntry};

use crate::fuzz::TieBreak;
use crate::select::{CandidateSet, Selection};
use crate::stats::ExecutionReport;
use crate::verify::{ResourceLimits, WorkloadFacts};
use faults::{FaultContext, FaultPolicy, NoFaults};
use observe::Observer;
use pim_common::trace::{Counters, NullTrace, TraceRecording};
use pim_common::units::Seconds;
use pim_common::{Diagnostics, Result};
use pim_graph::Graph;
use pim_hw::cpu::CpuDevice;
use pim_hw::faults::{FaultPlan, FaultTarget};
use pim_hw::fixed::FixedFunctionPool;
use pim_mem::stack::StackConfig;
use pim_tensor::cost::CostProfile;
use placement::{describe, Availability, PlanKind, PlannedOp, Planner};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which compute complement the simulated system has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SystemMode {
    /// Everything on the host CPU.
    CpuOnly,
    /// Everything on the programmable-PIM pool ("Progr PIM" baseline).
    ProgrOnly,
    /// Fixed-function PIMs driven by the host; the rest on CPU
    /// ("Fixed PIM" baseline).
    FixedHost,
    /// The full heterogeneous PIM (fixed-function pool + one programmable
    /// PIM + CPU).
    Hetero,
}

/// The named system configurations of the evaluation — the single source
/// of truth [`EngineConfig::preset`] builds from.
///
/// §VI's engine-backed configurations plus the Fig. 13 ablation points
/// (the GPU baseline is analytic and lives in `pim-sim`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SystemPreset {
    /// The "CPU" configuration of §VI.
    CpuOnly,
    /// The "Progr PIM" configuration: programmable PIMs only, no runtime
    /// scheduling.
    ProgrOnly,
    /// The "Fixed PIM" configuration: fixed-function PIMs plus CPU, no
    /// runtime scheduling.
    FixedHost,
    /// The full "Hetero PIM" configuration with RC and OP.
    Hetero,
    /// Hetero hardware without either runtime technique (Fig. 13's
    /// "Hetero PIM" ablation bar).
    HeteroBare,
    /// Hetero hardware with recursive kernels but no operation pipeline
    /// (Fig. 13's "+RC" bar).
    HeteroRc,
}

impl SystemPreset {
    /// Every preset, in evaluation order.
    pub const ALL: [SystemPreset; 6] = [
        SystemPreset::CpuOnly,
        SystemPreset::ProgrOnly,
        SystemPreset::FixedHost,
        SystemPreset::Hetero,
        SystemPreset::HeteroBare,
        SystemPreset::HeteroRc,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SystemPreset::CpuOnly => "CPU",
            SystemPreset::ProgrOnly => "Progr PIM",
            SystemPreset::FixedHost => "Fixed PIM",
            SystemPreset::Hetero => "Hetero PIM",
            SystemPreset::HeteroBare => "Hetero PIM (no RC/OP)",
            SystemPreset::HeteroRc => "Hetero PIM +RC",
        }
    }

    /// The compute complement this preset runs on.
    pub fn mode(self) -> SystemMode {
        match self {
            SystemPreset::CpuOnly => SystemMode::CpuOnly,
            SystemPreset::ProgrOnly => SystemMode::ProgrOnly,
            SystemPreset::FixedHost => SystemMode::FixedHost,
            SystemPreset::Hetero | SystemPreset::HeteroBare | SystemPreset::HeteroRc => {
                SystemMode::Hetero
            }
        }
    }
}

/// How programmable-PIM placements are costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum ProgrBackend {
    /// The closed-form device formula (`pim_hw::params::estimate`) — the
    /// default, and byte-identical to the pre-ISA engine.
    #[default]
    Analytic,
    /// ISA interpretation: each kernel placed on the ARM core lowers to a
    /// `pim_isa` program whose interpreted issue cycles and `ld`/`st`
    /// traffic produce the timing/energy estimate (the executed ground
    /// truth of DESIGN.md §4.12). The `ProgrOnly` pool abstraction stays
    /// analytic — it models "as many cores as needed", not one program.
    Isa,
}

/// Engine configuration: system complement plus runtime-technique toggles.
#[derive(Debug, Clone, Serialize)]
pub struct EngineConfig {
    /// Display name for reports.
    pub name: String,
    /// Compute complement.
    pub mode: SystemMode,
    /// Recursive PIM kernels enabled (§III-B).
    pub recursive_kernels: bool,
    /// Operation pipeline enabled (§III-C); when off, execution is
    /// serialized as in the baselines "without runtime scheduling".
    pub operation_pipeline: bool,
    /// Steps allowed in flight simultaneously under the pipeline.
    pub pipeline_depth: usize,
    /// Candidate-selection coverage (the paper's x = 90%).
    pub coverage: f64,
    /// The 3D memory stack (carries the frequency multiplier of §VI-D).
    pub stack: StackConfig,
    /// ARM cores of the programmable PIM.
    pub arm_cores: usize,
    /// Fixed-function units on the logic die.
    pub ff_units: usize,
    /// The host CPU: step-1 profiling and all CPU placements run on this
    /// device (defaults to the paper's Xeon E5-2630 v3).
    pub host: CpuDevice,
    /// Programmable-PIM costing backend. Part of the `Debug` rendering, so
    /// [`RunRequest::fingerprint`] distinguishes analytic from interpreted
    /// runs in the shared result store.
    pub progr_backend: ProgrBackend,
}

impl EngineConfig {
    /// Builds the configuration for a named preset — the one constructor
    /// all evaluation configurations derive from.
    ///
    /// # Examples
    ///
    /// ```
    /// use pim_runtime::engine::{EngineConfig, SystemPreset};
    /// let cfg = EngineConfig::preset(SystemPreset::Hetero);
    /// assert_eq!(cfg.name, "Hetero PIM");
    /// assert!(cfg.recursive_kernels && cfg.operation_pipeline);
    /// ```
    pub fn preset(preset: SystemPreset) -> Self {
        let (rc, op) = match preset {
            SystemPreset::Hetero => (true, true),
            SystemPreset::HeteroRc => (true, false),
            _ => (false, false),
        };
        EngineConfig {
            name: preset.name().to_string(),
            mode: preset.mode(),
            recursive_kernels: rc,
            operation_pipeline: op,
            pipeline_depth: 4,
            coverage: crate::select::DEFAULT_COVERAGE,
            stack: StackConfig::hmc2(),
            arm_cores: 4,
            ff_units: pim_hw::fixed::DEFAULT_UNITS,
            host: CpuDevice::xeon_e5_2630_v3(),
            progr_backend: ProgrBackend::default(),
        }
    }

    /// Returns a copy with a different stack (frequency-scaling studies).
    pub fn with_stack(mut self, stack: StackConfig) -> Self {
        self.stack = stack;
        self
    }

    /// Returns a copy with a different PIM complement (Fig. 12 scaling).
    pub fn with_pim_complement(mut self, arm_cores: usize, ff_units: usize) -> Self {
        self.arm_cores = arm_cores;
        self.ff_units = ff_units;
        self
    }

    /// Returns a copy with a different programmable-PIM costing backend.
    pub fn with_progr_backend(mut self, backend: ProgrBackend) -> Self {
        self.progr_backend = backend;
        self
    }
}

/// One workload participating in a simulation.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec<'g> {
    /// The training-step graph.
    pub graph: &'g Graph,
    /// Steps to simulate.
    pub steps: usize,
    /// Restrict to CPU + programmable PIM (the §VI-F non-CNN co-runner
    /// rule: "the non-CNN model executes on CPU or the programmable PIM,
    /// when they are idle").
    pub cpu_progr_only: bool,
}

/// One row of [`Engine::plan_preview`]: where an op would run, uncontended.
#[derive(Debug, Clone, Serialize)]
pub struct PlanRow {
    /// The operation.
    pub op: pim_common::ids::OpId,
    /// Its TensorFlow display name.
    pub name: &'static str,
    /// Placement description ("Fixed PIM (rc, 444 units)", "CPU", ...).
    pub placement: String,
    /// Whether the op was an offload candidate.
    pub candidate: bool,
    /// Estimated uncontended duration in seconds.
    pub seconds: f64,
}

/// Prepared per-workload state the execution drivers consume. The cost
/// and adjacency slices borrow the graph's memoized tables
/// ([`Graph::costs`], [`Graph::adjacency`]); the candidate set is a copy
/// of the graph's memoized one, so the drivers test membership without
/// going through the memo.
pub(crate) struct Prepared<'g> {
    pub spec: WorkloadSpec<'g>,
    pub costs: &'g [CostProfile],
    pub candidates: CandidateSet,
    pub deps: &'g [Vec<usize>],
    pub consumers: &'g [Vec<usize>],
    pub topo: &'g [usize],
    pub rank: &'g [usize],
}

/// An engine's uncontended placements ([`Planner::uncontended`]) per
/// (graph uid, restriction flag, `ff_alive`, `progr_alive`): the
/// serialized driver's plans, computed on the first serialized run that
/// places the graph on that much of the machine and read by every later
/// one on the same engine. One op runs at a time, so everything that
/// survives is free at each placement ([`Availability::surviving`]) and
/// the plan depends on nothing else: the planner configuration is the
/// engine's, the costs and the candidate set are functions of the graph
/// (membership is the stable selection's under every tie-break), and a
/// mutated or cloned graph has a fresh [`Graph::uid`]. The fault-free
/// entry is the `(ff_units, true)` state.
///
/// A state whose placements ([`PlanKind`]s) equal those of a state
/// already stored for the same graph and restriction shares that entry's
/// rows: [`Planner::plan_cost`] is pure in the kind and the cost, so the
/// costed column follows. On the CPU preset every state shares the
/// fault-free rows, and on the Progr preset every progr-alive state does.
///
/// An entry is filled outside the lock, so concurrent first runs may both
/// plan and the first stored result is kept; a failure is never stored.
#[derive(Default)]
pub(crate) struct PlanTable(Mutex<HashMap<(u64, bool), Vec<StatePlans>>>);

/// What a quarantine leaves of the machine: `(ff_alive, progr_alive)`.
pub(crate) type Survivors = (usize, bool);

/// One graph's uncontended placements, indexed by op id. A row is the
/// kind, which fixes what the placement holds, and its costs: 64 bytes.
type UncontendedPlans = Arc<[(PlanKind, PlannedOp)]>;

/// A graph's placements on what one state leaves of the machine.
type StatePlans = (Survivors, UncontendedPlans);

impl PlanTable {
    /// Graphs held before the table starts over. A stale entry (its graph
    /// dropped) is never hit again, so an engine that outlives many
    /// graphs empties the table rather than keep them all.
    const CAPACITY: usize = 64;

    /// `wl`'s uncontended placements on what `alive` leaves of the
    /// machine, indexed by op id.
    ///
    /// # Errors
    ///
    /// The first failed item of [`Planner::uncontended`] (a planner bug).
    pub fn get(
        &self,
        planner: &Planner,
        wl: &Prepared<'_>,
        alive: Survivors,
    ) -> Result<UncontendedPlans> {
        let graph = (wl.spec.graph.uid(), wl.spec.cpu_progr_only);
        let stored = |states: &[StatePlans]| {
            let hit = states.iter().find(|(state, _)| *state == alive);
            hit.map(|(_, plans)| Arc::clone(plans))
        };
        let table = self.0.lock().expect("plan table poisoned");
        if let Some(hit) = table.get(&graph).and_then(|states| stored(states)) {
            return Ok(hit);
        }
        drop(table);
        let avail = Availability::surviving(alive.0, alive.1);
        let mut fresh = Vec::with_capacity(wl.costs.len());
        for plan in planner.uncontended(wl.costs, &wl.candidates, wl.spec.cpu_progr_only, avail) {
            fresh.push(plan?);
        }
        let mut table = self.0.lock().expect("plan table poisoned");
        if table.len() >= Self::CAPACITY && !table.contains_key(&graph) {
            table.clear();
        }
        let states = table.entry(graph).or_default();
        if let Some(hit) = stored(states) {
            return Ok(hit);
        }
        let same_kinds =
            |plans: &UncontendedPlans| plans.iter().map(|p| p.0).eq(fresh.iter().map(|p| p.0));
        let plans = match states.iter().find(|(_, plans)| same_kinds(plans)) {
            Some((_, shared)) => Arc::clone(shared),
            None => fresh.into(),
        };
        states.push((alive, Arc::clone(&plans)));
        Ok(plans)
    }
}

/// Knobs for one [`RunRequest`]: which observability artifacts to
/// materialize alongside the report, and the tie-break policy.
///
/// The default requests nothing extra.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Collect the per-instance execution timeline.
    pub timeline: bool,
    /// Record a Chrome-trace span recording into [`RunOutput::trace`].
    pub trace: bool,
    /// Tie-break policy for candidate ranking, dispatch order, and
    /// event retire order. The default, [`TieBreak::Stable`], is the
    /// byte-identical production path; the seeded modes back the pass-5
    /// order-invariance audit ([`crate::fuzz`]) and the schedule search
    /// ([`crate::search`]).
    pub tie: TieBreak,
}

/// How [`Engine::execute`] maps workloads onto the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum Partitioning {
    /// All workloads co-run on one shared resource state (the Fig. 16
    /// co-scheduling scenario) and produce a single aggregate report.
    #[default]
    Shared,
    /// Each workload is an independent partition with the whole machine to
    /// itself, advanced on its own event core and fanned out over worker
    /// threads — producing one report per workload.
    Partitioned,
}

/// One simulation request: the argument of [`Engine::execute`] and
/// [`Engine::verify`], and — through [`RunRequest::canonical`] /
/// [`RunRequest::fingerprint`] — the shared cache/protocol key of the
/// `pim-serve` daemon.
#[derive(Debug, Clone)]
pub struct RunRequest<'g> {
    /// The participating workloads.
    pub workloads: Vec<WorkloadSpec<'g>>,
    /// Observability and tie-break knobs.
    pub options: RunOptions,
    /// The fault plan; [`FaultPlan::none`] (the default) keeps the
    /// fault-free hot paths byte-identical.
    pub faults: FaultPlan,
    /// Shared co-run vs. independent partitions.
    pub partitioning: Partitioning,
    /// Execution bounds: an event-count fuel budget. Unbounded by default.
    /// Deliberately excluded from [`RunRequest::canonical`]: limits only
    /// decide whether a run *finishes*, never what a finished run
    /// produces, so a completed bounded run shares its cache cell with the
    /// unbounded run (and a tripped run returns an error, which is never
    /// cached).
    pub limits: RunLimits,
}

impl<'g> RunRequest<'g> {
    /// A fault-free, shared, default-options request over `workloads`.
    pub fn new(workloads: &[WorkloadSpec<'g>]) -> Self {
        RunRequest {
            workloads: workloads.to_vec(),
            options: RunOptions::default(),
            faults: FaultPlan::none(),
            partitioning: Partitioning::Shared,
            limits: RunLimits::none(),
        }
    }

    /// Returns the request with `options` replacing the defaults.
    #[must_use]
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Returns the request with `faults` replacing the empty plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns the request with [`Partitioning::Partitioned`].
    #[must_use]
    pub fn partitioned(mut self) -> Self {
        self.partitioning = Partitioning::Partitioned;
        self
    }

    /// Returns the request with execution bounds replacing the unbounded
    /// default.
    #[must_use]
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The shared single-workload request one partition of this request
    /// runs as.
    fn partition(&self, workload: WorkloadSpec<'g>) -> Self {
        RunRequest::new(&[workload])
            .with_options(self.options)
            .with_faults(self.faults.clone())
            .with_limits(self.limits.clone())
    }

    /// The canonical text form of this request under a configuration: a
    /// stable, versioned rendering of everything that determines the
    /// simulation result — the configuration, each workload's structural
    /// graph hash and step count, the tie-break policy, the fault plan,
    /// and the partitioning.
    ///
    /// The observability toggles ([`RunOptions::timeline`],
    /// [`RunOptions::trace`]) are deliberately *excluded*: they change
    /// which artifacts are materialized, never the report (the trace
    /// byte-diff stage of ci.sh holds this invariant), so two requests
    /// differing only in observability share one cache cell.
    pub fn canonical(&self, cfg: &EngineConfig) -> String {
        Self::canonical_head(cfg) + &self.canonical_tail()
    }

    /// The part of [`RunRequest::canonical`] the configuration alone
    /// decides: its version tag and the configuration's `Debug` text. A
    /// caller serving many requests under one configuration renders (and
    /// hashes) it once.
    pub fn canonical_head(cfg: &EngineConfig) -> String {
        format!("run-request-v1;config={cfg:?}")
    }

    /// The part of [`RunRequest::canonical`] after
    /// [`RunRequest::canonical_head`]: everything the request decides.
    pub fn canonical_tail(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from(";workloads=[");
        for (i, wl) in self.workloads.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{graph={:016x},ops={},steps={},restricted={}}}",
                wl.graph.structural_hash(),
                wl.graph.op_count(),
                wl.steps,
                wl.cpu_progr_only
            );
        }
        let _ = write!(
            s,
            "];tie={:?};faults={:?};partitioning={:?}",
            self.options.tie, self.faults, self.partitioning
        );
        s
    }

    /// The content hash of [`RunRequest::canonical`] — the shared result
    /// store key (`pim_common::fingerprint::debug_hash` over the canonical
    /// string, stable across processes and thread counts).
    pub fn fingerprint(&self, cfg: &EngineConfig) -> u64 {
        pim_common::fingerprint::debug_hash(&self.canonical(cfg))
    }
}

/// Everything one simulation produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The execution reports: exactly one for a [`Partitioning::Shared`]
    /// run (the aggregate over all co-run workloads), one per workload in
    /// input order for a [`Partitioning::Partitioned`] run.
    pub reports: Vec<ExecutionReport>,
    /// The per-instance timeline, when [`RunOptions::timeline`] was set.
    /// Partitioned runs merge per-partition timelines by
    /// `(quantized start, partition index)` with stable within-partition
    /// order (see the `components` module docs for the determinism
    /// argument).
    pub timeline: Option<Vec<TimelineEntry>>,
    /// The span recording, when [`RunOptions::trace`] was set. Partitioned
    /// runs do not record traces.
    pub trace: Option<TraceRecording>,
    /// The run's counter registry (ops placed per device, events
    /// dispatched, busy seconds, bytes moved, sync stalls, fault
    /// recovery). Always collected; cross-checked against the report in
    /// debug builds. Partitioned runs merge counters in partition
    /// order — every key is a sum over events, so the merge is independent
    /// of the worker count.
    pub counters: Counters,
    /// When a fault plan quarantined a whole compute complement before the
    /// run started, the preset the configuration gracefully degraded to
    /// (its display name); `None` for fault-free runs and plans the
    /// configuration rides out without collapsing. Mid-run strikes degrade
    /// placement-by-placement and do not set this.
    pub degraded: Option<&'static str>,
}

impl RunOutput {
    /// The run's single report. For shared runs this is *the* aggregate
    /// report; for partitioned runs it is the first partition's.
    ///
    /// # Panics
    ///
    /// Panics if the output carries no reports — only possible for a
    /// partitioned run over an empty workload set.
    pub fn report(&self) -> &ExecutionReport {
        &self.reports[0]
    }

    /// Consumes the output, returning its single (first) report.
    ///
    /// # Panics
    ///
    /// Panics if the output carries no reports (see [`RunOutput::report`]).
    pub fn into_report(mut self) -> ExecutionReport {
        self.reports.swap_remove(0)
    }
}

/// The engine: devices + policy for one configuration, plus the
/// uncontended placements of every graph it has run serialized, one set
/// per surviving machine a run placed it on. A long-lived engine plans a
/// graph once per such state, as the paper's runtime decides in step 1
/// and reuses the decisions (§III-C); the table dies with the engine,
/// and no run's bytes depend on whether it was warm.
pub struct Engine {
    planner: Planner,
    plans: PlanTable,
}

impl Engine {
    /// Builds the engine for a configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Engine {
            planner: Planner::new(cfg),
            plans: PlanTable::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.planner.cfg
    }

    /// The CPU device this configuration profiles and schedules against
    /// ([`EngineConfig::host`]).
    pub fn profiling_device(&self) -> &CpuDevice {
        self.planner.cpu()
    }

    /// The offload candidates of `graph` under this configuration: the
    /// step-1 profile on [`Engine::profiling_device`] and the global-index
    /// selection at [`EngineConfig::coverage`] under `tie`, exactly what
    /// `select_candidates_tie(&profile_step(graph, cpu)?, coverage, tie)`
    /// returns. Memoized on the graph ([`Graph::memo`]) per (CPU
    /// parameters, coverage, tie-break), so engines of every preset share
    /// one profile of a graph.
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures for malformed graphs.
    pub fn candidates(&self, graph: &Graph, tie: TieBreak) -> Result<CandidateSet> {
        Ok(self.selection(graph, tie)?.candidates)
    }

    fn selection(&self, graph: &Graph, tie: TieBreak) -> Result<Selection> {
        Selection::of(
            graph,
            self.planner.cpu(),
            self.planner.cpu_fingerprint(),
            self.planner.cfg.coverage,
            tie,
        )
    }

    /// Classifies every workload for the drivers, borrowing each graph's
    /// memoized cost and adjacency tables and copying its memoized
    /// candidate set.
    fn prepare<'g>(
        &self,
        workloads: &[WorkloadSpec<'g>],
        tracer: &mut dyn pim_common::trace::TraceSink,
        tie: TieBreak,
    ) -> Result<Vec<Prepared<'g>>> {
        let mut prepared = Vec::with_capacity(workloads.len());
        for wl in workloads {
            let graph = wl.graph;
            let costs = graph.costs()?;
            let selection = self.selection(graph, tie)?;
            selection.trace(self.planner.cfg.coverage, tracer);
            let adjacency = graph.adjacency()?;
            prepared.push(Prepared {
                spec: *wl,
                costs,
                candidates: selection.candidates,
                deps: &adjacency.deps,
                consumers: &adjacency.consumers,
                topo: &adjacency.topo,
                rank: &adjacency.rank,
            });
        }
        Ok(prepared)
    }

    /// Executes one [`RunRequest`] — the engine's single entry point.
    ///
    /// A [`Partitioning::Shared`] request co-runs all workloads on one
    /// resource state under the request's fault plan: when the plan
    /// quarantines a whole compute complement before the run starts
    /// (e.g. every fixed-function unit at `t <= 0`), the configuration
    /// *collapses* to the strongest surviving preset along the paper's
    /// fixed → programmable → host chain before executing, and
    /// [`RunOutput::degraded`] names it. With [`FaultPlan::none`] the
    /// drivers run under the zero-sized fault-free policy, whose hooks
    /// compile away.
    ///
    /// A [`Partitioning::Partitioned`] request gives each workload the
    /// whole machine to itself on its own event core, fanned out over
    /// worker threads (capped by `PIM_RUN_THREADS`; `1` runs them
    /// serially) — then merges the artifacts deterministically:
    /// reports keep input order, timelines merge by `(quantized start,
    /// partition index)`, counters merge in partition order. The output
    /// is a pure function of the request, independent of the worker
    /// count. This is not a shared request split up: a shared request
    /// co-runs its workloads (the Fig. 16 scenario) and produces one
    /// aggregate report.
    ///
    /// In debug builds every run additionally replays its timeline through
    /// the `schedule` legality pass (as [`Engine::verify`] does) and
    /// cross-checks the counter registry against the report
    /// ([`crate::stats::cross_check_counters`]), panicking on any violation
    /// so a scheduler bug surfaces at the run that produced it.
    ///
    /// # Errors
    ///
    /// Propagates cost/profiling failures, or an internal error if the
    /// scheduler wedges (a bug, guarded explicitly). A request carrying
    /// [`RunLimits`] additionally returns `PimError::BudgetExhausted`
    /// when its event fuel trips, observed at the drivers' per-event check
    /// sites, so bounded runs that *complete* stay byte-identical to
    /// unbounded ones.
    /// Partitioned requests propagate the first failure among the
    /// partitions, in input order.
    pub fn execute(&self, request: &RunRequest<'_>) -> Result<RunOutput> {
        match request.partitioning {
            Partitioning::Shared => match self.degraded_engine(&request.faults) {
                Some((engine, label, eff)) => {
                    let mut out = engine.run_shared(request, &eff)?;
                    out.degraded = Some(label);
                    Ok(out)
                }
                None => self.run_shared(request, &request.faults),
            },
            Partitioning::Partitioned => {
                // Each partition gets its own gauge over the same limits: a
                // shared fuel counter would make the trip point depend on
                // worker interleaving.
                let outs: Vec<RunOutput> = crate::par::par_map(&request.workloads, |wl| {
                    self.execute(&request.partition(*wl))
                })
                .into_iter()
                .collect::<Result<_>>()?;
                let mut counters = Counters::new();
                let mut reports = Vec::with_capacity(outs.len());
                let mut degraded = None;
                let mut parts = request
                    .options
                    .timeline
                    .then(|| Vec::with_capacity(outs.len()));
                for out in outs {
                    counters.merge(&out.counters);
                    degraded = degraded.or(out.degraded);
                    reports.extend(out.reports);
                    if let Some(parts) = parts.as_mut() {
                        parts.push(out.timeline.unwrap_or_default());
                    }
                }
                Ok(RunOutput {
                    reports,
                    timeline: parts.map(components::merge_partition_timelines),
                    trace: None,
                    counters,
                    degraded,
                })
            }
        }
    }

    /// Replays a timeline recorded for `request` (its [`RunOutput::timeline`])
    /// against this configuration's devices and the workloads' dependency
    /// structure, reporting every legality violation as a
    /// `schedule`-pass diagnostic (see [`crate::verify`]).
    ///
    /// Under a fault plan the checker additionally validates attempt
    /// chains, backoff spacing, plan consistency, and capacity under
    /// quarantine, after the same whole-complement collapse
    /// [`Engine::execute`] applies. A partitioned timeline is split back
    /// into per-partition streams by its workload tags and each partition
    /// is checked on its own, since each had the whole machine to itself.
    ///
    /// # Errors
    ///
    /// Propagates cost/profiling failures while re-preparing the
    /// workloads; the timeline itself never errors — problems become
    /// diagnostics.
    pub fn verify(
        &self,
        request: &RunRequest<'_>,
        timeline: &[TimelineEntry],
    ) -> Result<Diagnostics> {
        match request.partitioning {
            Partitioning::Shared => {
                let replay = |engine: &Engine, plan: &FaultPlan| -> Result<Diagnostics> {
                    let prepared =
                        engine.prepare(&request.workloads, &mut NullTrace, request.options.tie)?;
                    let plan = (!plan.is_none()).then_some(plan);
                    Ok(engine.check_prepared(&prepared, timeline, plan))
                };
                match self.degraded_engine(&request.faults) {
                    Some((engine, _, eff)) => replay(&engine, &eff),
                    None => replay(self, &request.faults),
                }
            }
            Partitioning::Partitioned => {
                let parts = crate::verify::split_partitions(timeline, request.workloads.len());
                let mut diags = Diagnostics::new();
                for (wl, part) in request.workloads.iter().zip(parts) {
                    diags.extend(self.verify(&request.partition(*wl), &part)?);
                }
                Ok(diags)
            }
        }
    }

    /// [`Engine::verify`] for a shared request over `workloads` under
    /// `plan`.
    ///
    /// # Errors
    ///
    /// As [`Engine::verify`].
    pub fn verify_timeline_faulted(
        &self,
        workloads: &[WorkloadSpec<'_>],
        timeline: &[TimelineEntry],
        plan: &FaultPlan,
    ) -> Result<Diagnostics> {
        self.verify(
            &RunRequest::new(workloads).with_faults(plan.clone()),
            timeline,
        )
    }

    /// The preset this configuration collapses to when `plan` takes out a
    /// whole compute complement before the run starts.
    fn collapse_target(&self, plan: &FaultPlan) -> Option<SystemPreset> {
        if plan.is_none() {
            return None;
        }
        let cfg = &self.planner.cfg;
        let ff_dead = cfg.ff_units > 0 && plan.initial_ff_quarantine() >= cfg.ff_units;
        let progr_dead = plan.progr_quarantined_initially();
        match cfg.mode {
            SystemMode::Hetero if ff_dead && progr_dead => Some(SystemPreset::CpuOnly),
            SystemMode::Hetero if ff_dead => Some(SystemPreset::ProgrOnly),
            SystemMode::FixedHost if ff_dead => Some(SystemPreset::CpuOnly),
            SystemMode::ProgrOnly if progr_dead => Some(SystemPreset::CpuOnly),
            _ => None,
        }
    }

    /// Builds the collapsed engine plus the residual fault plan: the
    /// collapse consumes the initial quarantines it absorbed, so a plan
    /// that *only* kills a complement at the start leaves a fault-free
    /// residual and the collapsed run is byte-identical to the target
    /// preset's native run.
    fn degraded_engine(&self, plan: &FaultPlan) -> Option<(Engine, &'static str, FaultPlan)> {
        let target = self.collapse_target(plan)?;
        let base = EngineConfig::preset(target);
        let collapsed = EngineConfig {
            name: base.name,
            mode: base.mode,
            recursive_kernels: base.recursive_kernels,
            operation_pipeline: base.operation_pipeline,
            ..self.planner.cfg.clone()
        };
        let mut eff = plan.clone();
        eff.permanents.retain(|p| {
            if p.at > Seconds::ZERO {
                return true;
            }
            match p.target {
                // No collapsed complement ever places on the pool again.
                FaultTarget::FixedUnits(_) => false,
                // Consumed only when the collapse removed the progr PIM.
                FaultTarget::ProgrPim => target != SystemPreset::CpuOnly,
            }
        });
        Some((Engine::new(collapsed), target.name(), eff))
    }

    /// Runs a shared request under `plan`, assuming any whole-complement
    /// collapse already happened.
    fn run_shared(&self, request: &RunRequest<'_>, plan: &FaultPlan) -> Result<RunOutput> {
        let opts = &request.options;
        let verify = cfg!(debug_assertions);
        let faults = (!plan.is_none()).then(|| FaultContext::new(plan, self.planner.cfg.ff_units));

        let mut null = NullTrace;
        let mut recorder = pim_common::trace::Recorder::new();
        let tracer: &mut dyn pim_common::trace::TraceSink =
            if opts.trace { &mut recorder } else { &mut null };

        let prepared = self.prepare(&request.workloads, &mut *tracer, opts.tie)?;
        let mut counters = Counters::new();
        let collect = opts.timeline || verify;
        let mut entries = Vec::new();
        let report = {
            let mut obs = Observer::new(
                collect.then_some(&mut entries),
                &mut counters,
                self.planner.cfg.ff_units,
                &mut *tracer,
                &self.planner.cfg.name,
            );
            let report = match &faults {
                None => self.drive(&prepared, &mut obs, &NoFaults, opts.tie, &request.limits),
                Some(f) => self.drive(&prepared, &mut obs, f, opts.tie, &request.limits),
            }?;
            obs.finish();
            report
        };
        let entries = collect.then_some(entries);

        if verify {
            let entries = entries.as_deref().unwrap_or(&[]);
            let mut diags =
                self.check_prepared(&prepared, entries, faults.as_ref().map(|f| &f.plan));
            diags.extend(crate::stats::cross_check_counters(&report, &counters));
            assert!(
                diags.is_clean(),
                "schedule verification failed for `{}`:\n{}",
                self.planner.cfg.name,
                diags.render_text()
            );
        }

        Ok(RunOutput {
            reports: vec![report],
            timeline: if opts.timeline { entries } else { None },
            trace: opts.trace.then(|| recorder.into_recording()),
            counters,
            degraded: None,
        })
    }

    /// Runs prepared workloads through this configuration's driver under
    /// a fault policy; `policy` goes to both drivers. The serialized
    /// driver executes one op at a time in topological order — there is
    /// no tie surface to permute, so it ignores `tie` (candidate
    /// selection already saw it in `prepare`).
    fn drive<P: FaultPolicy>(
        &self,
        prepared: &[Prepared<'_>],
        obs: &mut Observer<'_>,
        policy: &P,
        tie: TieBreak,
        limits: &RunLimits,
    ) -> Result<ExecutionReport> {
        if self.planner.cfg.operation_pipeline {
            drivers::run_scheduled(&self.planner, prepared, obs, policy, tie, limits)
        } else {
            drivers::run_serialized(&self.planner, &self.plans, prepared, obs, policy, limits)
        }
    }

    /// Builds the legality facts for prepared workloads and runs the
    /// schedule checker over a timeline.
    fn check_prepared(
        &self,
        prepared: &[Prepared<'_>],
        timeline: &[TimelineEntry],
        plan: Option<&FaultPlan>,
    ) -> Diagnostics {
        let facts: Vec<WorkloadFacts> = prepared
            .iter()
            .map(|wl| WorkloadFacts {
                deps: wl.deps.to_vec(),
                steps: wl.spec.steps,
                restricted: wl.spec.cpu_progr_only,
                costs: wl.costs.to_vec(),
                names: wl
                    .spec
                    .graph
                    .ops()
                    .iter()
                    .map(|op| op.kind.tf_name())
                    .collect(),
            })
            .collect();
        let cfg = &self.planner.cfg;
        let limits = ResourceLimits {
            cpu_slots: 1,
            progr_slots: PROGR_KERNEL_SLOTS,
            ff_units: cfg.ff_units,
            pipeline_depth: cfg.operation_pipeline.then_some(cfg.pipeline_depth),
        };
        let pool = FixedFunctionPool::new(self.planner.pool_cfg().clone());
        crate::verify::check_timeline_faulted(&facts, timeline, &limits, &pool, plan)
    }

    /// Previews the placement decision for every op of a graph under this
    /// configuration, with all resources free (no contention) — the
    /// explainability view of the scheduler (C-INTERMEDIATE: expose the
    /// intermediate results the simulation is built from). It plans
    /// afresh on every call, bypassing the engine's table.
    ///
    /// # Errors
    ///
    /// Propagates profiling/cost failures.
    pub fn plan_preview(&self, graph: &Graph) -> Result<Vec<PlanRow>> {
        let candidates = self.selection(graph, TieBreak::Stable)?.candidates;
        let all_free = Availability::surviving(self.planner.cfg.ff_units, true);
        let plans = self
            .planner
            .uncontended(graph.costs()?, &candidates, false, all_free);
        let mut rows = Vec::with_capacity(graph.op_count());
        for (node, plan) in graph.ops().iter().zip(plans) {
            let (kind, planned) = plan?;
            rows.push(PlanRow {
                op: node.id,
                name: node.kind.tf_name(),
                placement: describe(kind),
                candidate: candidates.contains(node.id),
                seconds: planned.duration.seconds(),
            });
        }
        Ok(rows)
    }
}
