//! Sweep-cell memoization: models and per-(model x config x steps)
//! reports.
//!
//! `repro all` evaluates the same cells repeatedly — Fig. 8/9 runs the
//! Hetero PIM once for its energy baseline and again inside the
//! evaluation set, Figs. 10–13 re-run it per model, Fig. 13's Progr and
//! Fixed rows re-run Fig. 8's columns, and every section would otherwise
//! rebuild its models. Both the model builder and the
//! simulator are pure functions of their inputs (the engine is
//! deterministic by construction, a property the differential suite and
//! the CI byte-diff pin down), so caching is behavior-invisible: a hit
//! returns exactly the report a fresh run would produce.
//!
//! A cell is keyed by its graph's identity ([`Graph::uid`]), the
//! configuration's fingerprint ([`pim_common::fingerprint::debug_hash`])
//! and the step count. A uid names one graph value and is never reused,
//! so reading it costs nothing and a mutated graph misses. Every sweep
//! section reads its models from [`model`], so the sections share cells
//! through the one graph each model is built into; every engine-backed
//! system is a [`SystemConfig::Engine`], so a preset has one fingerprint
//! whichever section names it.

use crate::configs::{simulate, SystemConfig};
use pim_common::Result;
use pim_graph::Graph;
use pim_models::{Model, ModelKind};
use pim_runtime::stats::ExecutionReport;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// A process-wide single-flight memo. Each key owns a slot: the first
/// miss fills it while holding the slot's lock, so a concurrent miss on
/// the same key waits for that fill instead of computing it again, and
/// misses on different keys never wait for each other. A failed fill
/// leaves the slot empty, so errors are never cached and the next caller
/// retries.
struct Memo<K, V>(OnceLock<Mutex<HashMap<K, Slot<V>>>>);

/// One key's value, empty until its first successful fill.
type Slot<V> = Arc<Mutex<Option<V>>>;

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    const fn new() -> Self {
        Self(OnceLock::new())
    }

    fn get_or_fill(&self, key: K, fill: impl FnOnce() -> Result<V>) -> Result<V> {
        let slot = Arc::clone(
            self.0
                .get_or_init(Mutex::default)
                .lock()
                .expect("memo poisoned")
                .entry(key)
                .or_default(),
        );
        let mut value = slot.lock().expect("memo slot poisoned");
        if let Some(hit) = &*value {
            return Ok(hit.clone());
        }
        let filled = fill()?;
        *value = Some(filled.clone());
        Ok(filled)
    }
}

static MODELS: Memo<(ModelKind, usize), Arc<Model>> = Memo::new();

/// [`Model::build`] behind the process-wide model cache: the model at its
/// paper batch size, the same instance [`model_with_batch`] returns for
/// that batch.
///
/// # Errors
///
/// Propagates model-construction failures (never cached).
pub fn model(kind: ModelKind) -> Result<Arc<Model>> {
    model_with_batch(kind, kind.paper_batch_size())
}

/// [`Model::build_with_batch`] behind the process-wide model cache, one
/// shared instance per (kind, batch).
///
/// # Errors
///
/// Propagates model-construction failures (never cached).
pub fn model_with_batch(kind: ModelKind, batch: usize) -> Result<Arc<Model>> {
    MODELS.get_or_fill((kind, batch), || {
        Model::build_with_batch(kind, batch).map(Arc::new)
    })
}

/// Cell key: graph uid, configuration fingerprint, steps.
type CellKey = (u64, u64, usize);

static CELLS: Memo<CellKey, ExecutionReport> = Memo::new();

fn cell_key(graph: &Graph, config: &SystemConfig, steps: usize) -> CellKey {
    (
        graph.uid(),
        pim_common::fingerprint::debug_hash(config),
        steps,
    )
}

/// [`simulate`] behind the process-wide sweep-cell cache.
///
/// # Errors
///
/// Propagates simulation failures (never cached).
pub fn cell_report(model: &Model, config: &SystemConfig, steps: usize) -> Result<ExecutionReport> {
    CELLS.get_or_fill(cell_key(model.graph(), config, steps), || {
        simulate(model, config, steps)
    })
}

static REQUESTS: OnceLock<Mutex<HashMap<u64, Arc<pim_serve::StoredResult>>>> = OnceLock::new();

/// The process-wide shared result store of the serve daemon: request
/// fingerprints ([`pim_runtime::RunRequest::fingerprint`] plus the
/// fault-spec suffix, see [`crate::serve`]) to completed results. Every
/// connection and every tenant shares this one map, which is what makes
/// identical cells simulate exactly once across tenants.
#[derive(Debug, Default, Clone, Copy)]
pub struct SharedStore;

impl pim_serve::ResultStore for SharedStore {
    fn get(&self, key: u64) -> Option<Arc<pim_serve::StoredResult>> {
        REQUESTS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("request store poisoned")
            .get(&key)
            .cloned()
    }

    fn put(&self, key: u64, result: Arc<pim_serve::StoredResult>) {
        REQUESTS
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("request store poisoned")
            .insert(key, result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_graph::TensorRole;
    use pim_runtime::engine::SystemPreset;
    use pim_tensor::Shape;

    #[test]
    fn cached_cell_equals_fresh_simulation() {
        let m = Model::build_with_batch(ModelKind::AlexNet, 4).unwrap();
        let cfg = SystemConfig::from(SystemPreset::Hetero);
        let first = cell_report(&m, &cfg, 2).unwrap();
        let hit = cell_report(&m, &cfg, 2).unwrap();
        let fresh = simulate(&m, &cfg, 2).unwrap();
        assert_eq!(first, hit);
        assert_eq!(first, fresh);
    }

    #[test]
    fn a_mutated_copy_of_a_cached_graph_misses() {
        let m = model(ModelKind::Lstm).unwrap();
        let cfg = SystemConfig::from(SystemPreset::CpuOnly);
        let cached = cell_report(&m, &cfg, 1).unwrap();
        let hit = CELLS.get_or_fill(cell_key(m.graph(), &cfg, 1), || {
            panic!("the cached graph must hit its cell")
        });
        assert_eq!(hit.unwrap(), cached);
        let mut copy = m.graph().clone();
        copy.add_tensor(Shape::new(vec![4]), TensorRole::Activation, "extra");
        let mut filled = false;
        let miss = CELLS.get_or_fill(cell_key(&copy, &cfg, 1), || {
            filled = true;
            Ok(cached.clone())
        });
        assert_eq!(miss.unwrap(), cached);
        assert!(filled, "a mutated copy of a cached graph hit its cell");
    }

    /// Fig. 8's evaluation set and Fig. 13's preset rows name a system
    /// the same way, so they share its cells.
    #[test]
    fn evaluation_set_keys_cells_like_its_presets() {
        let m = model(ModelKind::AlexNet).unwrap();
        let engine_configs: Vec<SystemConfig> = SystemConfig::evaluation_set()
            .into_iter()
            .filter(|c| !matches!(c, SystemConfig::Gpu))
            .collect();
        let presets = [
            SystemPreset::CpuOnly,
            SystemPreset::ProgrOnly,
            SystemPreset::FixedHost,
            SystemPreset::Hetero,
        ];
        assert_eq!(engine_configs.len(), presets.len());
        for (config, preset) in engine_configs.iter().zip(presets) {
            assert_eq!(
                cell_key(m.graph(), config, 3),
                cell_key(m.graph(), &preset.into(), 3),
                "{preset:?}"
            );
        }
    }

    #[test]
    fn distinct_steps_are_distinct_cells() {
        let m = Model::build_with_batch(ModelKind::Dcgan, 4).unwrap();
        let cfg = SystemConfig::from(SystemPreset::CpuOnly);
        let one = cell_report(&m, &cfg, 1).unwrap();
        let two = cell_report(&m, &cfg, 2).unwrap();
        assert!(two.makespan > one.makespan);
    }

    #[test]
    fn concurrent_cold_misses_share_one_fill() {
        // A batch size no other caller uses, so the key starts cold.
        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let models: Vec<Arc<Model>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        model_with_batch(ModelKind::Dcgan, 7).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for m in &models[1..] {
            assert!(Arc::ptr_eq(&models[0], m));
        }
    }

    #[test]
    fn model_cache_returns_shared_instances() {
        let a = model(ModelKind::AlexNet).unwrap();
        let b = model(ModelKind::AlexNet).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        for kind in ModelKind::ALL {
            let paper = model_with_batch(kind, kind.paper_batch_size()).unwrap();
            assert!(Arc::ptr_eq(&model(kind).unwrap(), &paper), "{kind:?}");
        }
        assert_eq!(
            a.graph().structural_hash(),
            Model::build(ModelKind::AlexNet)
                .unwrap()
                .graph()
                .structural_hash()
        );
    }
}
