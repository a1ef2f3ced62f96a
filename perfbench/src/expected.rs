//! The recorded reference outputs (`perfbench/expected.json`): output
//! digests and exact simulated statistics per workload, keyed by seed for
//! the seeded workloads and by `"any"` for the seedless ones.

use pim_common::trace::{parse_json, Json};

/// The reference one run is checked against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    /// MD5 of a pass's rendered outputs.
    pub digest: String,
    /// Exact simulated statistics of one pass, by per-layer metric name.
    pub counts: Vec<(String, u64)>,
}

pub struct Expected {
    doc: Json,
}

impl Expected {
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Expected { doc })
    }

    pub fn seed(&self, which: &str) -> u64 {
        self.doc.field(which).and_then(Json::as_num).unwrap_or(1.0) as u64
    }

    fn workload(&self, workload: &str) -> Option<&Json> {
        self.doc.field("workloads")?.field(workload)
    }

    /// The reference for `workload` at `seed` (seedless workloads are
    /// recorded under `"any"`), when one was recorded.
    pub fn reference(&self, workload: &str, seed: Option<u64>) -> Option<Reference> {
        let key = seed.map_or_else(|| "any".to_string(), |s| s.to_string());
        let entry = self.workload(workload)?.field("references")?.field(&key)?;
        let digest = entry.field("digest")?.as_str()?.to_string();
        let counts = match entry.field("counts") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_num()? as u64)))
                .collect(),
            _ => Vec::new(),
        };
        Some(Reference { digest, counts })
    }

    /// A number recorded for `workload` under `key`.
    pub fn number(&self, workload: &str, key: &str) -> Option<f64> {
        self.workload(workload)?.field(key)?.as_num()
    }

    /// A string recorded for `workload` under `path` (nested keys).
    pub fn string(&self, workload: &str, path: &[&str]) -> Option<String> {
        let mut node = self.workload(workload)?;
        for key in path {
            node = node.field(key)?;
        }
        node.as_str().map(str::to_string)
    }
}
