//! Step-1 profiling (§III-C, "Step 1: profiling").
//!
//! "The runtime profiles performance of all operations on CPU. The
//! profiling happens in only one step of NN model training ... During
//! profiling, the runtime executes operations one by one in CPU, collecting
//! execution time and the number of main memory accesses of each operation
//! with hardware counters."
//!
//! Inter-operation parallelism is disabled during the profile (as in the
//! paper's §II-A characterization methodology), so the numbers are exactly
//! the CPU device model's per-op estimates.

use pim_common::ids::OpId;
use pim_common::units::Seconds;
use pim_common::Result;
use pim_graph::Graph;
use pim_hw::cpu::CpuDevice;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Profile of one operation instance collected during the profiling step:
/// what the paper's step 1 collects, CPU time and main-memory accesses.
/// The op's analytic cost is not copied here; it is entry `op` of the
/// graph's memoized [`Graph::costs`] table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OpProfile {
    /// The operation.
    pub op: OpId,
    /// Its TensorFlow display name.
    pub name: &'static str,
    /// Execution time observed on the CPU.
    pub cpu_time: Seconds,
    /// Main-memory accesses observed (64-byte lines).
    pub memory_accesses: u64,
}

/// The complete profiling-step output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StepProfile {
    /// Per-op profiles in op-id order.
    pub ops: Vec<OpProfile>,
}

impl StepProfile {
    /// Total CPU execution time of the profiled step.
    pub fn total_time(&self) -> Seconds {
        self.ops.iter().map(|p| p.cpu_time).sum()
    }

    /// Total main-memory accesses of the profiled step.
    pub fn total_memory_accesses(&self) -> u64 {
        self.ops.iter().map(|p| p.memory_accesses).sum()
    }

    /// Profiles aggregated by op name: `(name, time share, access share,
    /// invocations)`, sorted by time share descending — the rows of
    /// Table I.
    pub fn by_name(&self) -> Vec<NameAggregate> {
        // Aggregate in first-appearance (op-stream) order so the stable
        // sort below resolves time ties deterministically — candidate
        // ranking and figure output must not vary run to run. A step has a
        // few dozen distinct names, so a linear search over the rows beats
        // hashing every op's name.
        let mut rows: Vec<NameAggregate> = Vec::new();
        for p in &self.ops {
            let i = match rows.iter().position(|r| r.name == p.name) {
                Some(i) => i,
                None => {
                    rows.push(NameAggregate {
                        name: p.name,
                        time: Seconds::ZERO,
                        memory_accesses: 0,
                        invocations: 0,
                    });
                    rows.len() - 1
                }
            };
            rows[i].time += p.cpu_time;
            rows[i].memory_accesses += p.memory_accesses;
            rows[i].invocations += 1;
        }
        rows.sort_by(|a, b| {
            b.time
                .partial_cmp(&a.time)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }
}

/// Per-op-name aggregate (one row of Table I).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct NameAggregate {
    /// TensorFlow op name.
    pub name: &'static str,
    /// Summed execution time.
    pub time: Seconds,
    /// Summed main-memory accesses.
    pub memory_accesses: u64,
    /// Number of invocations in the step.
    pub invocations: usize,
}

/// Runs the profiling step for a training graph on the CPU device model.
///
/// Op costs come from the graph's memoized [`Graph::costs`] table, so only
/// the first profile of a graph pays for cost characterization.
///
/// # Examples
///
/// ```
/// use pim_runtime::profiler::profile_step;
/// use pim_hw::cpu::CpuDevice;
/// use pim_models::{Model, ModelKind};
///
/// # fn main() -> pim_common::Result<()> {
/// let model = Model::build_with_batch(ModelKind::AlexNet, 2)?;
/// let profile = profile_step(model.graph(), &CpuDevice::xeon_e5_2630_v3())?;
/// assert_eq!(profile.ops.len(), model.graph().op_count());
/// assert!(profile.total_time().seconds() > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates cost-model failures for malformed graphs.
pub fn profile_step(graph: &Graph, cpu: &CpuDevice) -> Result<StepProfile> {
    let ops = graph
        .ops()
        .iter()
        .zip(graph.costs()?)
        .map(|(node, cost)| OpProfile {
            op: node.id,
            name: node.kind.tf_name(),
            cpu_time: cpu.estimate_op(cost).time,
            memory_accesses: cost.memory_accesses(),
        })
        .collect();
    Ok(StepProfile { ops })
}

/// Memo key: graph structure fingerprint, op count (a cheap second
/// discriminant against fingerprint collisions), and the CPU device's
/// parameter fingerprint.
type ProfileKey = (u64, usize, u64);

/// Process-wide memo of profiling-step results.
///
/// The profiling pass is a pure function of the graph structure and the
/// CPU device parameters, so a sweep over N system presets of the same
/// model profiles its graph once instead of N times. Entries are shared
/// via `Arc` — a hit costs one lock plus one refcount bump.
static PROFILE_MEMO: OnceLock<Mutex<HashMap<ProfileKey, Arc<StepProfile>>>> = OnceLock::new();

fn profile_memo() -> &'static Mutex<HashMap<ProfileKey, Arc<StepProfile>>> {
    PROFILE_MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// [`profile_step`] behind the process-wide memo.
///
/// The first call for a given (graph structure, CPU parameters) pair runs
/// the real profiling pass; later calls return the shared result. The
/// returned profile is always equal to what a fresh [`profile_step`] would
/// produce (a property-tested invariant).
///
/// Nothing on the simulation path calls it: the engine reads the graph's
/// own memoized tables and candidate memo (`Engine::candidates`)
/// instead. It stays as a timed layer of the benchmark harness.
///
/// # Errors
///
/// Propagates cost-model failures for malformed graphs (never cached).
pub fn profile_step_cached(graph: &Graph, cpu: &CpuDevice) -> Result<Arc<StepProfile>> {
    let key = (
        graph.structural_hash(),
        graph.op_count(),
        pim_common::fingerprint::debug_hash(cpu.params()),
    );
    if let Some(hit) = profile_memo()
        .lock()
        .expect("profile memo poisoned")
        .get(&key)
    {
        return Ok(Arc::clone(hit));
    }
    // Profile outside the lock: concurrent misses for the same key both
    // compute the (identical) result and the last insert wins.
    let fresh = Arc::new(profile_step(graph, cpu)?);
    profile_memo()
        .lock()
        .expect("profile memo poisoned")
        .insert(key, Arc::clone(&fresh));
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_models::{Model, ModelKind};

    fn vgg_profile() -> StepProfile {
        // The paper's batch size (32): the characterization claims of
        // Table I are batch-scale properties.
        let model = Model::build(ModelKind::Vgg19).unwrap();
        profile_step(model.graph(), &CpuDevice::xeon_e5_2630_v3()).unwrap()
    }

    #[test]
    fn top_ops_dominate_time_as_in_table_i() {
        // Paper: "top five operations in VGG-19 model consume over 95% of
        // total execution time".
        let profile = vgg_profile();
        let rows = profile.by_name();
        let top5: Seconds = rows.iter().take(5).map(|r| r.time).sum();
        let share = top5 / profile.total_time();
        assert!(share > 0.95, "top-5 share = {share}");
    }

    #[test]
    fn conv_backprop_filter_is_rank_one() {
        // Table I's VGG-19 column: Conv2DBackpropFilter leads both lists.
        let profile = vgg_profile();
        let rows = profile.by_name();
        assert_eq!(rows[0].name, "Conv2DBackpropFilter");
        let by_mem = {
            let mut r = rows.clone();
            r.sort_by_key(|x| std::cmp::Reverse(x.memory_accesses));
            r
        };
        assert_eq!(by_mem[0].name, "Conv2DBackpropFilter");
    }

    #[test]
    fn aggregates_cover_all_ops() {
        let profile = vgg_profile();
        let total_invocations: usize = profile.by_name().iter().map(|r| r.invocations).sum();
        assert_eq!(total_invocations, profile.ops.len());
    }

    #[test]
    fn time_consuming_ops_are_memory_intensive() {
        // The paper's second observation: the top time consumers also top
        // the memory-access ranking (the paper reports >98%; our cost model
        // attributes more traffic to the elementwise tail, landing at ~71%
        // — the concentration claim still holds, see EXPERIMENTS.md).
        let profile = vgg_profile();
        let rows = profile.by_name();
        let top5_mem: u64 = {
            let mut r = rows.clone();
            r.sort_by_key(|x| std::cmp::Reverse(x.memory_accesses));
            r.iter().take(5).map(|x| x.memory_accesses).sum()
        };
        let share = top5_mem as f64 / profile.total_memory_accesses() as f64;
        assert!(share > 0.65, "top-5 memory share = {share}");
    }
}
