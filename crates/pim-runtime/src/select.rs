//! Candidate selection: the global-index algorithm of §III-C.
//!
//! "The runtime sorts operations into two lists (in descending order) based
//! on execution time and the number of main memory accesses ... With each
//! operation, the runtime calculates a global index by adding these two
//! indexes. Based on the global indexes, the runtime sorts operations into
//! a global list. The runtime chooses top operations in the global list to
//! offload to PIMs. Those top operations account for x% of total execution
//! time of one step (x = 90 in our evaluation)."

use crate::fuzz::TieBreak;
use crate::profiler::{profile_step, StepProfile};
use pim_common::ids::OpId;
use pim_common::trace::{TraceEvent, TraceSink};
use pim_common::units::Seconds;
use pim_common::Result;
use pim_graph::Graph;
use pim_hw::cpu::CpuDevice;
use serde::Serialize;

/// The paper's coverage parameter `x` (percent of step time the candidate
/// set must account for).
pub const DEFAULT_COVERAGE: f64 = 0.90;

/// The candidate set chosen for offloading.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CandidateSet {
    /// Ops selected for offloading, in global-index order (best first).
    pub ranked: Vec<OpId>,
    /// Membership flag per op, indexed by op id.
    pub members: Vec<bool>,
    /// Fraction of step time the set covers.
    pub time_coverage: f64,
}

impl CandidateSet {
    /// True when `op` was selected for offloading.
    pub fn contains(&self, op: OpId) -> bool {
        self.members.get(op.index()) == Some(&true)
    }
}

/// Runs the global-index selection over a step profile.
///
/// # Examples
///
/// ```
/// use pim_runtime::profiler::profile_step;
/// use pim_runtime::select::{select_candidates, DEFAULT_COVERAGE};
/// use pim_hw::cpu::CpuDevice;
/// use pim_models::{Model, ModelKind};
///
/// # fn main() -> pim_common::Result<()> {
/// let model = Model::build_with_batch(ModelKind::AlexNet, 2)?;
/// let profile = profile_step(model.graph(), &CpuDevice::xeon_e5_2630_v3())?;
/// let candidates = select_candidates(&profile, DEFAULT_COVERAGE);
/// assert!(candidates.time_coverage >= 0.90);
/// # Ok(())
/// # }
/// ```
pub fn select_candidates(profile: &StepProfile, coverage: f64) -> CandidateSet {
    // Operations are selected at *type* granularity, matching the per-type
    // profiling of Table I (each type "can be invoked up to tens of times"
    // per step; the profile aggregates them).
    let rows = profile.by_name();
    let n = rows.len();
    // Rank types by execution time, descending (rows are pre-sorted so the
    // time rank is the row index).
    let mut by_mem: Vec<usize> = (0..n).collect();
    by_mem.sort_by(|&a, &b| rows[b].memory_accesses.cmp(&rows[a].memory_accesses));
    let mut mem_rank = vec![0usize; n];
    for (rank, &i) in by_mem.iter().enumerate() {
        mem_rank[i] = rank;
    }
    // Global index = sum of the two ranks; smaller is better.
    let mut global: Vec<usize> = (0..n).collect();
    global.sort_by_key(|&i| i + mem_rank[i]);

    let total_time = profile.total_time();
    let mut selected = 0;
    let mut covered = Seconds::ZERO;
    for &i in &global {
        if total_time.seconds() > 0.0 && covered / total_time >= coverage {
            break;
        }
        selected += 1;
        covered += rows[i].time;
    }
    let mut ranked = Vec::new();
    let mut members = vec![false; profile.ops.len()];
    // Emit member ops in global-index order of their types.
    for &i in &global[..selected] {
        for p in &profile.ops {
            if p.name == rows[i].name {
                ranked.push(p.op);
                members[p.op.index()] = true;
            }
        }
    }
    CandidateSet {
        ranked,
        members,
        time_coverage: if total_time.seconds() > 0.0 {
            covered / total_time
        } else {
            1.0
        },
    }
}

/// [`select_candidates`] under a tie-break policy.
///
/// Membership is computed by the stable algorithm under *every* policy.
/// The first full-surface fuzz showed selection-tie order is
/// decision-significant, not incidental: swapping profile rows that
/// agree on both execution time and memory accesses redistributes the
/// global-index sums inside the tie group (positions `j` contribute
/// `base + j + σ(j)`, a different multiset for `σ ≠ id`), which can move
/// the 90%-coverage break point and change *which types are offloaded*
/// — observed as device flips on DCGAN@Hetero. So the tie order stays
/// pinned to first appearance, and its determinism is audited by
/// stable-rerun comparison instead (see `crate::fuzz`).
///
/// What provably *is* order-inert is the emission order of
/// [`CandidateSet::ranked`]: the planner consumes the candidate set
/// purely through [`CandidateSet::contains`], so
/// [`TieBreak::Permuted`] re-sorts the ranked list by a seeded hash of
/// type name and op id. The order-invariance audit ([`crate::fuzz`])
/// asserts nothing downstream secretly depends on that order.
pub fn select_candidates_tie(profile: &StepProfile, coverage: f64, tie: TieBreak) -> CandidateSet {
    let mut set = select_candidates(profile, coverage);
    if let TieBreak::Permuted(_) = tie {
        let name_of: std::collections::HashMap<OpId, &str> =
            profile.ops.iter().map(|p| (p.op, p.name)).collect();
        set.ranked.sort_by_cached_key(|op| {
            let name = name_of.get(op).copied().unwrap_or("");
            tie.decision_hash(&[crate::fuzz::hash_str(name), op.index() as u64])
        });
    }
    set
}

/// One graph's step-1 outcome under one engine: the candidate set plus
/// the profile totals its trace instants report. Kept in the graph's
/// [`Graph::memo`], so the profile and the selection run once per
/// (graph, CPU parameters, coverage, tie-break), not once per run.
#[derive(Clone)]
pub(crate) struct Selection {
    pub candidates: CandidateSet,
    profiled_ops: usize,
    cpu_time: Seconds,
    memory_accesses: u64,
}

impl Selection {
    /// `select_candidates_tie(profile_step(graph, cpu), coverage, tie)`
    /// through the graph's memo. `cpu_fingerprint` is the `debug_hash` of
    /// `cpu`'s parameters, computed once per engine.
    ///
    /// # Errors
    ///
    /// Propagates cost-model failures for malformed graphs (never
    /// memoized).
    pub fn of(
        graph: &Graph,
        cpu: &CpuDevice,
        cpu_fingerprint: u64,
        coverage: f64,
        tie: TieBreak,
    ) -> Result<Selection> {
        graph.memo((cpu_fingerprint, coverage.to_bits(), tie), || {
            let profile = profile_step(graph, cpu)?;
            Ok(Selection {
                candidates: select_candidates_tie(&profile, coverage, tie),
                profiled_ops: profile.ops.len(),
                cpu_time: profile.total_time(),
                memory_accesses: profile.total_memory_accesses(),
            })
        })
    }

    /// Records the "profile step" and "select candidates" instants on the
    /// scheduler track, when the sink is enabled. A memo hit records the
    /// same instants a fresh profile and selection would.
    pub fn trace(&self, coverage: f64, tracer: &mut dyn TraceSink) {
        if !tracer.enabled() {
            return;
        }
        tracer.record(TraceEvent::Instant {
            track: crate::engine::SCHED_TRACK,
            name: "profile step".to_string(),
            cat: "meta",
            ts: Seconds::ZERO,
            args: vec![
                ("ops", self.profiled_ops.into()),
                ("cpu_seconds", self.cpu_time.seconds().into()),
                ("memory_accesses", self.memory_accesses.into()),
            ],
        });
        tracer.record(TraceEvent::Instant {
            track: crate::engine::SCHED_TRACK,
            name: "select candidates".to_string(),
            cat: "meta",
            ts: Seconds::ZERO,
            args: vec![
                ("candidates", self.candidates.ranked.len().into()),
                ("requested_coverage", coverage.into()),
                ("time_coverage", self.candidates.time_coverage.into()),
            ],
        });
    }
}

/// The four operation classes of Fig. 2 (compute intensity x memory
/// intensity quadrants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum OpClass {
    /// Compute-intensive and memory-intensive: the offload target.
    ComputeAndMemoryIntensive,
    /// Memory-intensive only: also offloaded (data movement dominates).
    MemoryIntensiveOnly,
    /// Compute-intensive only: "does not have to be offloaded ... but we
    /// can offload them when there are idling hardware units".
    ComputeIntensiveOnly,
    /// Neither: "does not have big performance impact".
    Neither,
}

/// Classifies every op against the median time and median memory-access
/// thresholds of the profiled step.
pub fn classify(profile: &StepProfile) -> Vec<(OpId, OpClass)> {
    let mut times: Vec<f64> = profile.ops.iter().map(|p| p.cpu_time.seconds()).collect();
    let mut mems: Vec<u64> = profile.ops.iter().map(|p| p.memory_accesses).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    mems.sort_unstable();
    // "Intensive" means well above the median op: the threshold sits at the
    // 75th percentile, separating the heavy tail the paper's tables show.
    let t_thresh = times[(times.len() * 3) / 4];
    let m_thresh = mems[(mems.len() * 3) / 4];
    profile
        .ops
        .iter()
        .map(|p| {
            let ci = p.cpu_time.seconds() >= t_thresh && t_thresh > 0.0;
            let mi = p.memory_accesses >= m_thresh && m_thresh > 0;
            let class = match (ci, mi) {
                (true, true) => OpClass::ComputeAndMemoryIntensive,
                (false, true) => OpClass::MemoryIntensiveOnly,
                (true, false) => OpClass::ComputeIntensiveOnly,
                (false, false) => OpClass::Neither,
            };
            (p.op, class)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_step;
    use pim_hw::cpu::CpuDevice;
    use pim_models::{Model, ModelKind};

    fn profile(kind: ModelKind) -> StepProfile {
        let model = Model::build_with_batch(kind, 16).unwrap();
        profile_step(model.graph(), &CpuDevice::xeon_e5_2630_v3()).unwrap()
    }

    #[test]
    fn selection_reaches_requested_coverage() {
        let p = profile(ModelKind::Vgg19);
        let c = select_candidates(&p, 0.90);
        assert!(c.time_coverage >= 0.90);
        assert!(c.ranked.len() < p.ops.len());
    }

    #[test]
    fn higher_coverage_selects_more_ops() {
        let p = profile(ModelKind::AlexNet);
        let c90 = select_candidates(&p, 0.90);
        let c99 = select_candidates(&p, 0.99);
        assert!(c99.ranked.len() >= c90.ranked.len());
    }

    #[test]
    fn heavy_conv_ops_are_selected_first() {
        let p = profile(ModelKind::Vgg19);
        let c = select_candidates(&p, 0.90);
        let first = c.ranked[0];
        let name = p.ops[first.index()].name;
        assert!(name.starts_with("Conv2D"), "top candidate was {name}");
    }

    #[test]
    fn members_match_ranked_list() {
        let p = profile(ModelKind::Dcgan);
        let c = select_candidates(&p, 0.90);
        assert_eq!(c.ranked.len(), c.members.iter().filter(|&&m| m).count());
        assert!(c.ranked.iter().all(|op| c.contains(*op)));
    }

    #[test]
    fn classification_produces_all_target_ops() {
        let p = profile(ModelKind::Vgg19);
        let classes = classify(&p);
        let target = classes
            .iter()
            .filter(|(_, c)| *c == OpClass::ComputeAndMemoryIntensive)
            .count();
        assert!(target > 0);
        // The heavy backprop convs land in the offload-target quadrant
        // (early layers; the smallest instances can fall below threshold).
        let bpf_in_target = classes.iter().zip(&p.ops).any(|((_, c), op)| {
            op.name == "Conv2DBackpropFilter" && *c == OpClass::ComputeAndMemoryIntensive
        });
        assert!(bpf_in_target);
    }
}
