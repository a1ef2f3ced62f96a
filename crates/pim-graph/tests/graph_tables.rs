//! Hygiene of the graph's memoized cost and adjacency tables and
//! structural hash: they are invisible to `Debug` and the tables to
//! `structural_hash` (so request fingerprints and cache keys do not depend
//! on whether a graph was simulated or keyed before), they are reset by
//! every mutation, a cyclic graph still fails only at the adjacency step,
//! and concurrent first use yields one shared table and one hash.

use pim_common::PimError;
use pim_graph::cost::graph_costs;
use pim_graph::gen::{random_dag, GenSpec};
use pim_graph::node::{OpKind, TensorRole};
use pim_graph::Graph;
use pim_models::{Model, ModelKind};
use pim_tensor::ops::activation::Activation;
use pim_tensor::Shape;
use std::sync::Barrier;

fn graphs() -> Vec<(String, Graph)> {
    let mut out: Vec<(String, Graph)> = (0..4)
        .map(|seed| {
            (
                format!("seed {seed}"),
                random_dag(&GenSpec::from_seed(seed)),
            )
        })
        .collect();
    for kind in [ModelKind::AlexNet, ModelKind::Lstm] {
        let model = Model::build_with_batch(kind, 2).unwrap();
        out.push((kind.name().to_string(), model.graph().clone()));
    }
    out
}

#[test]
fn filled_tables_change_neither_debug_nor_structural_hash() {
    for (label, g) in graphs() {
        let untouched = g.clone();
        let never_queried = g.clone();
        g.costs().unwrap();
        g.adjacency().unwrap();
        assert_eq!(format!("{g:?}"), format!("{untouched:?}"), "{label}");
        assert_eq!(format!("{g:#?}"), format!("{untouched:#?}"), "{label}");
        assert_eq!(g.structural_hash(), untouched.structural_hash(), "{label}");
        // A clone of a filled and hashed graph renders and hashes the same
        // as a never-queried clone.
        let filled_clone = g.clone();
        assert_eq!(format!("{filled_clone:?}"), format!("{never_queried:?}"));
        assert_eq!(format!("{filled_clone:#?}"), format!("{never_queried:#?}"));
        assert_eq!(
            filled_clone.structural_hash(),
            never_queried.structural_hash()
        );
        // The derived-looking rendering names the two structural fields only.
        let text = format!("{untouched:?}");
        assert!(text.starts_with("Graph { tensors: ["), "{label}");
        assert!(text.contains("], ops: ["), "{label}");
        assert!(text.ends_with("] }"), "{label}");
    }
}

#[test]
fn mutation_after_a_fill_invalidates_both_tables() {
    let mut g = random_dag(&GenSpec::from_seed(7));
    let n = g.op_count();
    assert_eq!(g.costs().unwrap().len(), n);
    assert_eq!(g.adjacency().unwrap().topo.len(), n);

    let last = g.ops()[n - 1].outputs[0];
    let t = g.add_tensor(Shape::new(vec![4, 4]), TensorRole::Activation, "extra");
    assert_eq!(g.costs().unwrap().len(), n);
    let id = g
        .add_op(OpKind::Activation(Activation::Relu), vec![last], vec![t])
        .unwrap();
    assert_eq!(id.index(), n);

    let costs = g.costs().unwrap();
    assert_eq!(costs.len(), n + 1);
    assert_eq!(costs, graph_costs(&g).unwrap().as_slice());
    let adjacency = g.adjacency().unwrap();
    assert_eq!(adjacency.deps.len(), n + 1);
    assert_eq!(adjacency.deps[n], vec![n - 1]);
    assert!(adjacency.consumers[n - 1].contains(&n));
    assert_eq!(adjacency.topo.len(), n + 1);
    assert_eq!(adjacency.topo.last(), Some(&n));
    assert_eq!(adjacency.rank[n], n);
    let fresh = g.clone();
    assert_eq!(
        adjacency.topo,
        fresh
            .topo_order()
            .unwrap()
            .iter()
            .map(|id| id.index())
            .collect::<Vec<_>>()
    );
}

#[test]
fn mutation_after_a_hash_drops_the_stale_hash() {
    let relu = || OpKind::Activation(Activation::Relu);
    for seed in 0..4 {
        let spec = GenSpec::from_seed(seed);
        let mut g = random_dag(&spec);
        let stale = g.structural_hash();
        // `twin` is built by the same calls but never hashed in between.
        let mut twin = random_dag(&spec);
        let last = g.ops()[g.op_count() - 1].outputs[0];
        let t = g.add_tensor(Shape::new(vec![4, 4]), TensorRole::Activation, "extra");
        twin.add_tensor(Shape::new(vec![4, 4]), TensorRole::Activation, "extra");
        let after_tensor = g.structural_hash();
        assert_ne!(after_tensor, stale, "seed {seed}: add_tensor kept the hash");
        assert_eq!(after_tensor, twin.clone().structural_hash(), "seed {seed}");

        g.add_op(relu(), vec![last], vec![t]).unwrap();
        twin.add_op(relu(), vec![last], vec![t]).unwrap();
        let after_op = g.structural_hash();
        assert_ne!(after_op, after_tensor, "seed {seed}: add_op kept the hash");
        assert_eq!(after_op, twin.structural_hash(), "seed {seed}");
    }
}

#[test]
fn a_cyclic_graph_costs_but_has_no_adjacency() {
    let mut g = Graph::new();
    let a = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "a");
    let b = g.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "b");
    g.add_op(OpKind::Activation(Activation::Relu), vec![b], vec![a])
        .unwrap();
    g.add_op(OpKind::Activation(Activation::Relu), vec![a], vec![b])
        .unwrap();
    assert_eq!(g.costs().unwrap().len(), 2);
    for _ in 0..2 {
        match g.adjacency() {
            Err(PimError::GraphCycle { members }) => assert_eq!(members, vec![0, 1]),
            other => panic!("expected GraphCycle, got {other:?}"),
        }
    }
}

#[test]
fn concurrent_first_use_yields_one_table() {
    const THREADS: usize = 4;
    for (label, g) in graphs() {
        let untouched = g.clone();
        // The barrier releases every thread into its first query together,
        // so the tables are filled under contention.
        let start = Barrier::new(THREADS);
        let seen: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let hash = g.structural_hash();
                        let costs = g.costs().unwrap();
                        let adjacency = g.adjacency().unwrap();
                        (
                            hash,
                            costs.to_vec(),
                            adjacency.clone(),
                            costs.as_ptr() as usize,
                            std::ptr::from_ref(adjacency) as usize,
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        let want_costs = graph_costs(&untouched).unwrap();
        let want_adjacency = untouched.adjacency().unwrap();
        let want_hash = untouched.structural_hash();
        for (hash, costs, adjacency, costs_at, adjacency_at) in &seen {
            assert_eq!(*hash, want_hash, "{label}");
            assert_eq!(*hash, g.structural_hash(), "{label}");
            assert_eq!(costs, &want_costs, "{label}");
            assert_eq!(adjacency, want_adjacency, "{label}");
            // Every thread was handed the one memoized table.
            assert_eq!(*costs_at, g.costs().unwrap().as_ptr() as usize, "{label}");
            assert_eq!(
                *adjacency_at,
                std::ptr::from_ref(g.adjacency().unwrap()) as usize,
                "{label}"
            );
        }
    }
}
