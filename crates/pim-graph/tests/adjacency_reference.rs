//! Reference equivalence for the graph's dependency queries and its
//! memoized adjacency tables.
//!
//! The reference below is the original hash-map formulation of
//! `all_dependencies` / `topo_order`: a `TensorId -> OpId` producer map, a
//! per-producer consumer map sorted and deduplicated, and a FIFO Kahn
//! sort over it. It shares no code with `Graph`'s own queries, so any
//! change to how the graph indexes its structure must reproduce these
//! lists exactly — order included, since the engine's ready-set ranks and
//! the cycle report are built from them.

use pim_common::ids::{OpId, TensorId};
use pim_common::PimError;
use pim_graph::gen::{random_dag, GenSpec};
use pim_graph::node::{OpKind, TensorRole};
use pim_graph::Graph;
use pim_models::{Model, ModelKind};
use pim_tensor::ops::activation::Activation;
use pim_tensor::Shape;
use std::collections::{HashMap, VecDeque};

fn reference_producers(g: &Graph) -> HashMap<TensorId, OpId> {
    let mut map = HashMap::new();
    for op in g.ops() {
        for &out in &op.outputs {
            map.insert(out, op.id);
        }
    }
    map
}

fn reference_all_dependencies(g: &Graph) -> Vec<Vec<OpId>> {
    let producers = reference_producers(g);
    g.ops()
        .iter()
        .map(|op| {
            let mut deps: Vec<OpId> = op
                .inputs
                .iter()
                .filter_map(|tid| producers.get(tid).copied())
                .collect();
            deps.sort_unstable();
            deps.dedup();
            deps
        })
        .collect()
}

fn reference_consumers(g: &Graph) -> HashMap<OpId, Vec<OpId>> {
    let producers = reference_producers(g);
    let mut map: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for op in g.ops() {
        for tid in &op.inputs {
            if let Some(&producer) = producers.get(tid) {
                map.entry(producer).or_default().push(op.id);
            }
        }
    }
    for list in map.values_mut() {
        list.sort_unstable();
        list.dedup();
    }
    map
}

fn reference_topo_order(g: &Graph) -> Result<Vec<OpId>, Vec<usize>> {
    let n = g.op_count();
    let mut in_degree = vec![0usize; n];
    let consumers = reference_consumers(g);
    for users in consumers.values() {
        for user in users {
            in_degree[user.index()] += 1;
        }
    }
    let mut queue: VecDeque<OpId> = g
        .ops()
        .iter()
        .filter(|op| in_degree[op.id.index()] == 0)
        .map(|op| op.id)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(id) = queue.pop_front() {
        order.push(id);
        if let Some(users) = consumers.get(&id) {
            for &user in users {
                in_degree[user.index()] -= 1;
                if in_degree[user.index()] == 0 {
                    queue.push_back(user);
                }
            }
        }
    }
    if order.len() != n {
        return Err((0..n).filter(|&i| in_degree[i] > 0).collect());
    }
    Ok(order)
}

/// Every structural query of `g` equals the reference.
fn assert_matches_reference(g: &Graph, label: &str) {
    let deps = reference_all_dependencies(g);
    assert_eq!(g.all_dependencies(), deps, "{label}: all_dependencies");
    for (i, d) in deps.iter().enumerate() {
        assert_eq!(
            &g.dependencies(OpId::new(i)).unwrap(),
            d,
            "{label}: dependencies({i})"
        );
    }
    let topo = reference_topo_order(g).expect("acyclic");
    assert_eq!(g.topo_order().unwrap(), topo, "{label}: topo_order");

    let indices = |ids: &[OpId]| ids.iter().map(|id| id.index()).collect::<Vec<_>>();
    let adjacency = g.adjacency().unwrap();
    let dense_deps: Vec<Vec<usize>> = deps.iter().map(|d| indices(d)).collect();
    assert_eq!(adjacency.deps, dense_deps, "{label}: adjacency deps");
    let consumers = reference_consumers(g);
    for op in g.ops() {
        let want = consumers.get(&op.id).map_or_else(Vec::new, |c| indices(c));
        assert_eq!(
            adjacency.consumers[op.id.index()],
            want,
            "{label}: adjacency consumers of {}",
            op.id
        );
    }
    assert_eq!(adjacency.topo, indices(&topo), "{label}: adjacency topo");
    for (r, id) in topo.iter().enumerate() {
        assert_eq!(adjacency.rank[id.index()], r, "{label}: adjacency rank");
    }
    assert_eq!(
        adjacency.rank.len(),
        g.op_count(),
        "{label}: adjacency rank"
    );
}

/// The same graph with its ops inserted in reverse: every consumer is
/// registered before its producers, so the Kahn order departs from op
/// order everywhere.
fn reversed(g: &Graph) -> Graph {
    let mut r = Graph::new();
    for t in g.tensors() {
        r.add_tensor(t.shape.clone(), t.role, t.name.clone());
    }
    for op in g.ops().iter().rev() {
        r.add_op(op.kind, op.inputs.clone(), op.outputs.clone())
            .unwrap();
    }
    r
}

fn relu() -> OpKind {
    OpKind::Activation(Activation::Relu)
}

fn vector(g: &mut Graph, name: &str) -> TensorId {
    g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, name)
}

#[test]
fn random_dags_match_the_reference() {
    for seed in 0..50 {
        let g = random_dag(&GenSpec::from_seed(seed));
        assert_matches_reference(&g, &format!("seed {seed}"));
        assert_matches_reference(&reversed(&g), &format!("reversed seed {seed}"));
    }
}

#[test]
fn paper_models_match_the_reference() {
    for kind in ModelKind::ALL {
        let model = Model::build(kind).unwrap();
        assert_matches_reference(model.graph(), kind.name());
    }
}

#[test]
fn cycles_report_the_reference_members() {
    // in -> op0 -> x; a <-> b through op1/op2; op3 hangs off the cycle;
    // op4 depends on both the cycle and the acyclic prefix.
    let mut g = Graph::new();
    let t_in = vector(&mut g, "in");
    let x = vector(&mut g, "x");
    let a = vector(&mut g, "a");
    let b = vector(&mut g, "b");
    let c = vector(&mut g, "c");
    let d = vector(&mut g, "d");
    g.add_op(relu(), vec![t_in], vec![x]).unwrap();
    g.add_op(relu(), vec![b], vec![a]).unwrap();
    g.add_op(relu(), vec![a], vec![b]).unwrap();
    g.add_op(relu(), vec![a], vec![c]).unwrap();
    g.add_op(
        OpKind::Binary(pim_tensor::ops::elementwise::BinaryOp::Add),
        vec![x, c],
        vec![d],
    )
    .unwrap();
    let members = reference_topo_order(&g).expect_err("cyclic");
    assert_eq!(members, vec![1, 2, 3, 4]);
    match g.topo_order() {
        Err(PimError::GraphCycle { members: got }) => assert_eq!(got, members),
        other => panic!("expected GraphCycle, got {other:?}"),
    }
    match g.adjacency() {
        Err(PimError::GraphCycle { members: got }) => assert_eq!(got, members),
        other => panic!("expected GraphCycle, got {other:?}"),
    }
    assert!(matches!(g.validate(), Err(PimError::GraphCycle { .. })));
    assert_eq!(g.all_dependencies(), reference_all_dependencies(&g));

    // A self-loop: an op reading its own output.
    let mut s = Graph::new();
    let t = vector(&mut s, "t");
    s.add_op(relu(), vec![t], vec![t]).unwrap();
    assert_eq!(reference_topo_order(&s).expect_err("cyclic"), vec![0]);
    match s.topo_order() {
        Err(PimError::GraphCycle { members }) => assert_eq!(members, vec![0]),
        other => panic!("expected GraphCycle, got {other:?}"),
    }
}

#[test]
fn a_second_producer_is_rejected_with_the_same_text() {
    const TEXT: &str = "invalid argument in Graph::add_op: tensor t1 already has a producer";

    // The first producer is the previous op.
    let mut g = Graph::new();
    let a = vector(&mut g, "a");
    let b = vector(&mut g, "b");
    g.add_op(relu(), vec![a], vec![b]).unwrap();
    let err = g.add_op(relu(), vec![a], vec![b]).unwrap_err();
    assert!(matches!(err, PimError::InvalidArgument { .. }));
    assert_eq!(err.to_string(), TEXT);
    assert_eq!(g.op_count(), 1, "a rejected op is not added");

    // The first producer is many ops earlier.
    let mut g = Graph::new();
    let a = vector(&mut g, "a");
    let b = vector(&mut g, "b");
    g.add_op(relu(), vec![a], vec![b]).unwrap();
    let mut prev = b;
    for i in 0..40 {
        let next = vector(&mut g, &format!("n{i}"));
        g.add_op(relu(), vec![prev], vec![next]).unwrap();
        prev = next;
    }
    let fresh = vector(&mut g, "fresh");
    let err = g.add_op(relu(), vec![prev], vec![fresh, b]).unwrap_err();
    assert_eq!(err.to_string(), TEXT);
    assert_eq!(g.op_count(), 41, "a rejected op is not added");
    // The rejected op claimed nothing: `fresh` can still be produced.
    g.add_op(relu(), vec![prev], vec![fresh]).unwrap();
    assert_matches_reference(&g, "after a rejected producer");
}
