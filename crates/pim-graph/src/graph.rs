//! The dataflow graph of one training step.

use crate::node::{OpKind, OpNode, TensorInfo, TensorRole};
use pim_common::ids::{OpId, TensorId};
use pim_common::{PimError, Result};
use pim_tensor::cost::CostProfile;
use pim_tensor::Shape;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A directed acyclic graph of operations over tensors, representing one
/// training step of a model.
///
/// Operation dependencies are implied by tensor production/consumption, the
/// same convention TensorFlow uses and the paper relies on for its
/// scheduling principle 3 ("scheduling needs to respect data dependency
/// across operations ... each operation has explicit input and output data
/// objects").
///
/// The graph also memoizes three per-graph values, [`Graph::costs`],
/// [`Graph::adjacency`] and [`Graph::structural_hash`], plus one
/// caller-keyed table, [`Graph::memo`], so every simulation and every
/// cache lookup of the same graph reuses one characterization — the
/// paper's runtime characterizes the step graph once (§III-C). All four
/// are pure functions of the tensors and ops (and the memo's key), are
/// reset by [`Graph::add_tensor`] / [`Graph::add_op`], and are left out of
/// `Debug` (so the hash, which renders the tensors and ops, is the same
/// whether or not any of them was filled). [`Graph::uid`] names one
/// unmutated graph value within the process, for caches that outlive a
/// run but not the graph.
///
/// # Examples
///
/// ```
/// use pim_graph::graph::Graph;
/// use pim_graph::node::{OpKind, TensorRole};
/// use pim_tensor::Shape;
///
/// # fn main() -> pim_common::Result<()> {
/// let mut g = Graph::new();
/// let x = g.add_tensor(Shape::new(vec![4, 8]), TensorRole::Input, "x");
/// let y = g.add_tensor(Shape::new(vec![4, 8]), TensorRole::Activation, "y");
/// g.add_op(OpKind::Activation(pim_tensor::ops::activation::Activation::Relu), vec![x], vec![y])?;
/// assert_eq!(g.topo_order()?.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    tensors: Vec<TensorInfo>,
    ops: Vec<OpNode>,
    /// The op producing each tensor, indexed by tensor id.
    producer: Vec<Option<OpId>>,
    /// Memoized [`Graph::costs`].
    costs: OnceLock<Vec<CostProfile>>,
    /// Memoized [`Graph::adjacency`].
    adjacency: OnceLock<Adjacency>,
    /// Memoized [`Graph::structural_hash`].
    hash: OnceLock<u64>,
    /// The table behind [`Graph::memo`].
    memo: MemoSlot,
    /// [`Graph::uid`]; not rendered, hashed or serialized.
    uid: Uid,
}

/// A process-unique graph identity from one atomic counter. A default
/// and a clone each draw a fresh one, so no two graph values share a
/// uid, and a uid is never reused after its graph is dropped.
struct Uid(u64);

impl Uid {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Uid(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Uid {
    fn default() -> Self {
        Uid::fresh()
    }
}

impl Clone for Uid {
    fn clone(&self) -> Self {
        Uid::fresh()
    }
}

/// The type-erased table behind [`Graph::memo`]: a
/// `Mutex<HashMap<K, V>>` for the one `(K, V)` pair its caller uses. The
/// graph cannot name the value type (its one user, the runtime's
/// candidate selection, lives downstream). A clone starts empty: the
/// entries describe the graph they were computed on, and a boxed table
/// cannot be cloned.
#[derive(Default)]
struct MemoSlot(OnceLock<Box<dyn Any + Send + Sync>>);

impl Clone for MemoSlot {
    fn clone(&self) -> Self {
        MemoSlot::default()
    }
}

/// Prints the tensors and ops only, exactly as a derive over those two
/// fields would: the producer index and memoized values are derived data,
/// and rendering them would make the output depend on which queries ran.
#[allow(clippy::missing_fields_in_debug)]
impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("tensors", &self.tensors)
            .field("ops", &self.ops)
            .finish()
    }
}

/// A graph's dependency structure as dense op-index tables — what the
/// engine's drivers index by op every event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    /// Per op, the ops producing its inputs: sorted and deduplicated.
    pub deps: Vec<Vec<usize>>,
    /// Per op, the ops consuming its outputs: sorted and deduplicated.
    pub consumers: Vec<Vec<usize>>,
    /// The Kahn topological order ([`Graph::topo_order`]).
    pub topo: Vec<usize>,
    /// Each op's position in `topo`.
    pub rank: Vec<usize>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Drops the memoized values and draws a fresh [`Graph::uid`]; every
    /// mutation calls it.
    fn invalidate(&mut self) {
        self.costs.take();
        self.adjacency.take();
        self.hash.take();
        self.memo.0.take();
        self.uid = Uid::fresh();
    }

    /// A process-unique identity of this graph value: stable across reads,
    /// and fresh on construction, on `clone` and after every mutation. Two
    /// reads that return the same uid saw the same tensors and ops, so a
    /// cache keyed by it needs no structural hash (which renders the whole
    /// graph). It is not part of `Debug`, [`Graph::structural_hash`] or the
    /// serialized form.
    pub fn uid(&self) -> u64 {
        self.uid.0
    }

    /// Registers a tensor and returns its id.
    pub fn add_tensor(
        &mut self,
        shape: Shape,
        role: TensorRole,
        name: impl Into<String>,
    ) -> TensorId {
        self.invalidate();
        let id = TensorId::new(self.tensors.len());
        self.tensors.push(TensorInfo {
            id,
            shape,
            role,
            name: name.into(),
        });
        self.producer.push(None);
        id
    }

    /// Registers an operation consuming `inputs` and producing `outputs`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] when any referenced tensor does not
    /// exist, and [`PimError::InvalidArgument`] when an output tensor
    /// already has a producer (tensors are single-assignment).
    pub fn add_op(
        &mut self,
        kind: OpKind,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
    ) -> Result<OpId> {
        for &tid in inputs.iter().chain(&outputs) {
            if tid.index() >= self.tensors.len() {
                return Err(PimError::UnknownId {
                    kind: "tensor",
                    index: tid.index(),
                });
            }
        }
        for &out in &outputs {
            if self.producer[out.index()].is_some() {
                return Err(PimError::invalid(
                    "Graph::add_op",
                    format!("tensor {out} already has a producer"),
                ));
            }
        }
        self.invalidate();
        let id = OpId::new(self.ops.len());
        for &out in &outputs {
            self.producer[out.index()] = Some(id);
        }
        self.ops.push(OpNode {
            id,
            kind,
            inputs,
            outputs,
        });
        Ok(id)
    }

    /// All tensors in id order.
    pub fn tensors(&self) -> &[TensorInfo] {
        &self.tensors
    }

    /// All operations in insertion order.
    pub fn ops(&self) -> &[OpNode] {
        &self.ops
    }

    /// Looks up a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for unknown ids.
    pub fn tensor(&self, id: TensorId) -> Result<&TensorInfo> {
        self.tensors.get(id.index()).ok_or(PimError::UnknownId {
            kind: "tensor",
            index: id.index(),
        })
    }

    /// Looks up an operation.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for unknown ids.
    pub fn op(&self, id: OpId) -> Result<&OpNode> {
        self.ops.get(id.index()).ok_or(PimError::UnknownId {
            kind: "op",
            index: id.index(),
        })
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The op that produces a tensor, if any (`None` for graph inputs,
    /// parameters, and unknown ids).
    pub fn producer(&self, id: TensorId) -> Option<OpId> {
        self.producer.get(id.index()).copied().flatten()
    }

    /// The producers of an op's inputs as op indices, sorted and
    /// deduplicated.
    fn input_producers(&self, op: &OpNode) -> Vec<usize> {
        let mut deps: Vec<usize> = op
            .inputs
            .iter()
            .filter_map(|&tid| self.producer(tid))
            .map(OpId::index)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// The ops whose outputs this op consumes — its dependencies.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::UnknownId`] for unknown ids.
    pub fn dependencies(&self, id: OpId) -> Result<Vec<OpId>> {
        let deps = self.input_producers(self.op(id)?);
        Ok(deps.into_iter().map(OpId::new).collect())
    }

    /// Per-op dependency lists for the whole graph, indexed by op id.
    ///
    /// Entry `i` equals `dependencies(OpId::new(i))`; the whole pass is
    /// O(n + e) through the dense producer index.
    pub fn all_dependencies(&self) -> Vec<Vec<OpId>> {
        self.ops
            .iter()
            .map(|op| {
                let deps = self.input_producers(op);
                deps.into_iter().map(OpId::new).collect()
            })
            .collect()
    }

    /// Builds the adjacency tables in O(n + e): dependency lists, consumer
    /// lists (filled in op order, so each comes out sorted and
    /// deduplicated), and a FIFO Kahn sort whose roots enter in op order
    /// and whose in-degrees are the dependency counts.
    fn build_adjacency(&self) -> Result<Adjacency> {
        let n = self.ops.len();
        let deps: Vec<Vec<usize>> = self.ops.iter().map(|op| self.input_producers(op)).collect();
        let mut consumers = vec![Vec::new(); n];
        for (op, ds) in deps.iter().enumerate() {
            for &d in ds {
                consumers[d].push(op);
            }
        }
        let mut in_degree: Vec<usize> = deps.iter().map(Vec::len).collect();
        // `topo` doubles as the FIFO queue: ops are appended when their
        // in-degree reaches zero and popped at `head`.
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        topo.extend((0..n).filter(|&i| in_degree[i] == 0));
        let mut head = 0;
        while let Some(&id) = topo.get(head) {
            head += 1;
            for &user in &consumers[id] {
                in_degree[user] -= 1;
                if in_degree[user] == 0 {
                    topo.push(user);
                }
            }
        }
        if topo.len() != n {
            let members = (0..n).filter(|&i| in_degree[i] > 0).collect();
            return Err(PimError::GraphCycle { members });
        }
        let mut rank = vec![0usize; n];
        for (r, &op) in topo.iter().enumerate() {
            rank[op] = r;
        }
        Ok(Adjacency {
            deps,
            consumers,
            topo,
            rank,
        })
    }

    /// Kahn topological sort of the operations.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::GraphCycle`] when the graph is cyclic.
    pub fn topo_order(&self) -> Result<Vec<OpId>> {
        let adjacency = self.build_adjacency()?;
        Ok(adjacency.topo.into_iter().map(OpId::new).collect())
    }

    /// The graph's adjacency tables, computed on first use and memoized
    /// until the next mutation.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::GraphCycle`] when the graph is cyclic (failures
    /// are not memoized).
    pub fn adjacency(&self) -> Result<&Adjacency> {
        if let Some(adjacency) = self.adjacency.get() {
            return Ok(adjacency);
        }
        let fresh = self.build_adjacency()?;
        Ok(self.adjacency.get_or_init(|| fresh))
    }

    /// Every op's analytic cost ([`crate::cost::graph_costs`]), computed on
    /// first use and memoized until the next mutation.
    ///
    /// # Errors
    ///
    /// Returns the first per-op cost failure (failures are not memoized).
    pub fn costs(&self) -> Result<&[CostProfile]> {
        if let Some(costs) = self.costs.get() {
            return Ok(costs);
        }
        let fresh = crate::cost::graph_costs(self)?;
        Ok(self.costs.get_or_init(|| fresh))
    }

    /// The value `init` computes for `key` on this graph, computed on
    /// first use per key and memoized until the next mutation; every hit
    /// returns a clone. The value must be a pure function of the graph and
    /// the key. Concurrent first uses of one key may both run `init`; the
    /// first result stored is kept.
    ///
    /// # Panics
    ///
    /// Panics if two calls on one graph use different key or value types:
    /// the table holds one `(K, V)` pair.
    ///
    /// # Errors
    ///
    /// Returns `init`'s error (failures are not memoized).
    pub fn memo<K, V>(&self, key: K, init: impl FnOnce() -> Result<V>) -> Result<V>
    where
        K: Eq + Hash + Send + 'static,
        V: Clone + Send + 'static,
    {
        let table = self
            .memo
            .0
            .get_or_init(|| Box::new(Mutex::new(HashMap::<K, V>::new())))
            .downcast_ref::<Mutex<HashMap<K, V>>>()
            .expect("a graph's memo holds one key and value type");
        if let Some(hit) = table.lock().expect("graph memo poisoned").get(&key) {
            return Ok(hit.clone());
        }
        let fresh = init()?;
        Ok(table
            .lock()
            .expect("graph memo poisoned")
            .entry(key)
            .or_insert(fresh)
            .clone())
    }

    /// Validates the whole graph: referenced ids exist, output tensors have
    /// unique producers (enforced at insertion), and the graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        self.adjacency().map(|_| ())
    }

    /// A deterministic fingerprint of the graph's complete structure:
    /// every tensor (shape, role, name) and every op (kind, operands) in
    /// id order. Two graphs built by the same sequence of `add_tensor` /
    /// `add_op` calls fingerprint identically, within and across
    /// processes — the key the profiler's step cache, the served result
    /// store and other sweep-level memoizations rely on. Computed on first
    /// use and memoized until the next mutation.
    pub fn structural_hash(&self) -> u64 {
        *self
            .hash
            .get_or_init(|| pim_common::fingerprint::debug_hash(&(&self.tensors, &self.ops)))
    }

    /// Total bytes of parameter tensors (a rough model size).
    pub fn parameter_bytes(&self) -> usize {
        self.tensors
            .iter()
            .filter(|t| t.role == TensorRole::Parameter)
            .map(|t| t.shape.size_bytes())
            .sum()
    }

    /// Counts op instances by TF name, for the invocation-count columns of
    /// Table I.
    pub fn invocation_counts(&self) -> HashMap<&'static str, usize> {
        let mut counts = HashMap::new();
        for op in &self.ops {
            *counts.entry(op.kind.tf_name()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_tensor::ops::activation::Activation;

    fn relu() -> OpKind {
        OpKind::Activation(Activation::Relu)
    }

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add_tensor(Shape::new(vec![4]), TensorRole::Input, "t0");
        for i in 0..n {
            let next = g.add_tensor(
                Shape::new(vec![4]),
                TensorRole::Activation,
                format!("t{}", i + 1),
            );
            g.add_op(relu(), vec![prev], vec![next]).unwrap();
            prev = next;
        }
        g
    }

    #[test]
    fn topo_order_respects_chain() {
        let g = chain(5);
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 5);
        for (pos, id) in order.iter().enumerate() {
            assert_eq!(id.index(), pos);
        }
    }

    #[test]
    fn unknown_tensor_is_rejected() {
        let mut g = Graph::new();
        let err = g.add_op(relu(), vec![TensorId::new(9)], vec![]);
        assert!(matches!(err, Err(PimError::UnknownId { .. })));
    }

    #[test]
    fn double_producer_is_rejected() {
        let mut g = Graph::new();
        let a = g.add_tensor(Shape::new(vec![1]), TensorRole::Input, "a");
        let b = g.add_tensor(Shape::new(vec![1]), TensorRole::Activation, "b");
        g.add_op(relu(), vec![a], vec![b]).unwrap();
        assert!(g.add_op(relu(), vec![a], vec![b]).is_err());
    }

    #[test]
    fn dependencies_follow_tensor_flow() {
        let g = chain(3);
        assert!(g.dependencies(OpId::new(0)).unwrap().is_empty());
        assert_eq!(g.dependencies(OpId::new(2)).unwrap(), vec![OpId::new(1)]);
    }

    #[test]
    fn diamond_topology_sorts() {
        // a -> (b, c) -> d
        let mut g = Graph::new();
        let t_in = g.add_tensor(Shape::new(vec![4]), TensorRole::Input, "in");
        let t_a = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "a");
        let t_b = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "b");
        let t_c = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "c");
        let t_d = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "d");
        let a = g.add_op(relu(), vec![t_in], vec![t_a]).unwrap();
        let b = g.add_op(relu(), vec![t_a], vec![t_b]).unwrap();
        let c = g.add_op(relu(), vec![t_a], vec![t_c]).unwrap();
        let d = g
            .add_op(
                OpKind::Binary(pim_tensor::ops::elementwise::BinaryOp::Add),
                vec![t_b, t_c],
                vec![t_d],
            )
            .unwrap();
        let order = g.topo_order().unwrap();
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
        assert_eq!(g.dependencies(d).unwrap(), vec![b, c]);
    }

    #[test]
    fn invocation_counts_group_by_name() {
        let g = chain(4);
        assert_eq!(g.invocation_counts()["Relu"], 4);
    }

    #[test]
    fn validate_passes_for_dag() {
        assert!(chain(10).validate().is_ok());
    }

    #[test]
    fn uid_is_stable_across_reads_and_fresh_after_clone_and_mutation() {
        let mut g = chain(3);
        let uid = g.uid();
        assert_eq!(g.uid(), uid);
        let hash = g.structural_hash();
        let copy = g.clone();
        assert_ne!(copy.uid(), uid);
        assert_eq!(g.uid(), uid, "cloning leaves the source's uid alone");
        assert_eq!(copy.structural_hash(), hash, "the uid is not hashed");
        assert_eq!(format!("{copy:?}"), format!("{g:?}"), "nor rendered");
        let input = g.tensors()[0].id;
        let out = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "out");
        let after_tensor = g.uid();
        assert_ne!(after_tensor, uid, "add_tensor draws a fresh uid");
        g.add_op(relu(), vec![input], vec![out]).unwrap();
        assert_ne!(g.uid(), after_tensor, "add_op draws a fresh uid");
        assert_ne!(Graph::new().uid(), Graph::new().uid());
    }

    #[test]
    fn memo_computes_once_per_key_until_a_mutation() {
        let mut g = chain(3);
        let calls = std::cell::Cell::new(0);
        let ops = |g: &Graph| {
            calls.set(calls.get() + 1);
            Ok(g.op_count())
        };
        assert_eq!(g.memo(1u8, || ops(&g)).unwrap(), 3);
        assert_eq!(g.memo(1u8, || ops(&g)).unwrap(), 3);
        assert_eq!(g.memo(2u8, || ops(&g)).unwrap(), 3);
        assert_eq!(calls.get(), 2);
        // A failure is returned and not stored.
        assert!(g
            .memo::<u8, usize>(3, || Err(PimError::internal("boom")))
            .is_err());
        assert_eq!(g.memo(3u8, || ops(&g)).unwrap(), 3);
        assert_eq!(calls.get(), 3);
        // A clone starts empty, and a mutation drops every entry.
        let copy = g.clone();
        assert_eq!(copy.memo(1u8, || ops(&copy)).unwrap(), 3);
        assert_eq!(calls.get(), 4);
        g.add_tensor(Shape::new(vec![4]), TensorRole::Input, "extra");
        assert_eq!(g.memo(1u8, || ops(&g)).unwrap(), 3);
        assert_eq!(calls.get(), 5);
    }
}
