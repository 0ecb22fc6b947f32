//! Compiled-graph cache.
//!
//! Graphs are keyed by sequence length (all decoder layers share one
//! graph per length, §5.2.2). The cache charges compile time exactly
//! once per length; engines preload the standard sizes offline and the
//! Online-prepare baseline compiles at request time.

use std::collections::{BTreeMap, BTreeSet};

use hetero_soc::SimTime;
use hetero_tensor::abft::fingerprint_bytes;
use serde::{Deserialize, Serialize};

use crate::compile::CompileModel;
use crate::template::GraphSet;

/// Cache of compiled NPU graphs for one model.
///
/// # Examples
///
/// ```
/// use hetero_graph::{CompileModel, GraphCache, GraphSet};
/// use hetero_soc::SimTime;
///
/// let mut cache = GraphCache::new(GraphSet::llama8b(), CompileModel::default());
/// let first = cache.ensure(256);
/// assert!(first > SimTime::ZERO);          // compiled once...
/// assert_eq!(cache.ensure(256), SimTime::ZERO); // ...free afterwards
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphCache {
    set: GraphSet,
    model: CompileModel,
    compiled: BTreeSet<usize>,
    total_compile_time: SimTime,
    /// Stored content fingerprint per compiled length. A fresh compile
    /// stores the expected value; persistent SDC (a poisoned compiled
    /// graph) makes the stored value diverge from expected.
    #[serde(default)]
    fingerprints: BTreeMap<usize, u64>,
}

impl GraphCache {
    /// New, empty cache for a model's graph set.
    pub fn new(set: GraphSet, model: CompileModel) -> Self {
        Self {
            set,
            model,
            compiled: BTreeSet::new(),
            total_compile_time: SimTime::ZERO,
            fingerprints: BTreeMap::new(),
        }
    }

    /// The content fingerprint a clean compile of length `m` produces:
    /// FNV-1a over the instantiated operator set. Deterministic, so a
    /// verifier can recompute it without the compiled artifact.
    fn expected_fingerprint(&self, m: usize) -> u64 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(m as u64).to_le_bytes());
        for t in &self.set.templates {
            bytes.extend_from_slice(t.name.as_bytes());
            bytes.extend_from_slice(&(t.k as u64).to_le_bytes());
            bytes.extend_from_slice(&(t.n as u64).to_le_bytes());
        }
        fingerprint_bytes(&bytes)
    }

    /// Whether a graph for sequence length `m` exists.
    pub fn has(&self, m: usize) -> bool {
        self.compiled.contains(&m)
    }

    /// Ensure a graph for `m` exists, returning the compile time
    /// charged (zero on a hit).
    pub fn ensure(&mut self, m: usize) -> SimTime {
        if m == 0 || self.has(m) {
            return SimTime::ZERO;
        }
        let t = self.model.set_compile_time(&self.set, m);
        debug_assert!(
            self.set.is_empty() || t > SimTime::ZERO,
            "compiling a non-empty graph set must charge time (m={m})"
        );
        self.compiled.insert(m);
        self.fingerprints.insert(m, self.expected_fingerprint(m));
        self.total_compile_time += t;
        t
    }

    /// Corrupt the stored graph of length `m` (persistent-SDC
    /// injection hook): the fault flips one fingerprint bit chosen by
    /// `draw`. Returns `false` when no graph of that length exists.
    pub fn poison(&mut self, m: usize, draw: u64) -> bool {
        match self.fingerprints.get_mut(&m) {
            Some(fp) => {
                *fp ^= 1u64 << (draw % 64);
                true
            }
            None => false,
        }
    }

    /// Verify the stored graph of length `m` against its recomputed
    /// expected fingerprint. Absent graphs are vacuously clean (a miss
    /// compiles fresh, it cannot dispatch a poisoned artifact).
    pub fn verify(&self, m: usize) -> bool {
        self.fingerprints
            .get(&m)
            .is_none_or(|fp| *fp == self.expected_fingerprint(m))
    }

    /// Compiled lengths whose stored fingerprint mismatches, ascending.
    pub fn poisoned_sizes(&self) -> Vec<usize> {
        self.compiled
            .iter()
            .copied()
            .filter(|&m| !self.verify(m))
            .collect()
    }

    /// Drop the graph of length `m` so the next [`Self::ensure`]
    /// recompiles (and re-charges) it — the quarantine step for a
    /// poisoned artifact. Returns whether a graph was dropped.
    pub fn invalidate(&mut self, m: usize) -> bool {
        self.fingerprints.remove(&m);
        self.compiled.remove(&m)
    }

    /// Preload graphs for `sizes`, returning the total compile time.
    /// Offline preparation pays this once, not per request.
    pub fn preload(&mut self, sizes: &[usize]) -> SimTime {
        sizes.iter().map(|&m| self.ensure(m)).sum()
    }

    /// Sequence lengths with compiled graphs.
    pub fn compiled_sizes(&self) -> Vec<usize> {
        self.compiled.iter().copied().collect()
    }

    /// Cumulative compile time charged so far.
    pub fn total_compile_time(&self) -> SimTime {
        self.total_compile_time
    }

    /// The graph set this cache compiles.
    pub fn graph_set(&self) -> &GraphSet {
        &self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> GraphCache {
        GraphCache::new(GraphSet::llama8b(), CompileModel::default())
    }

    #[test]
    fn first_ensure_charges_then_free() {
        let mut c = cache();
        assert!(!c.has(256));
        let t1 = c.ensure(256);
        assert!(t1 > SimTime::ZERO);
        assert!(c.has(256));
        assert_eq!(c.ensure(256), SimTime::ZERO);
        assert_eq!(c.total_compile_time(), t1);
    }

    #[test]
    fn cache_saved_without_fingerprints_loads_with_none() {
        let mut c = cache();
        c.preload(&[64, 256]);
        let json = serde_json::to_string(&c).expect("cache serializes");
        // `fingerprints` is the last field; drop it as an older cache
        // file would lack it.
        let (head, _) = json
            .split_once(",\"fingerprints\"")
            .expect("fingerprints serialized");
        let back: GraphCache =
            serde_json::from_str(&format!("{head}}}")).expect("missing default field loads");
        assert_eq!(back.compiled_sizes(), vec![64, 256]);
        assert!(back.fingerprints.is_empty());
        assert!(back.poisoned_sizes().is_empty());
    }

    #[test]
    fn preload_standard_sizes() {
        let mut c = cache();
        let t = c.preload(&[32, 64, 128, 256, 512, 1024]);
        assert!(t > SimTime::ZERO);
        assert_eq!(c.compiled_sizes(), vec![32, 64, 128, 256, 512, 1024]);
        // Re-preloading is free.
        assert_eq!(c.preload(&[32, 1024]), SimTime::ZERO);
    }

    #[test]
    fn zero_length_is_free() {
        let mut c = cache();
        assert_eq!(c.ensure(0), SimTime::ZERO);
        assert!(!c.has(0));
    }

    #[test]
    fn poison_then_verify_then_invalidate() {
        let mut c = cache();
        c.preload(&[64, 256]);
        assert!(c.verify(64) && c.verify(256));
        assert!(c.poisoned_sizes().is_empty());
        // Absent lengths are vacuously clean and cannot be poisoned.
        assert!(c.verify(128));
        assert!(!c.poison(128, 9));

        assert!(c.poison(256, 17));
        assert!(c.verify(64));
        assert!(!c.verify(256));
        assert_eq!(c.poisoned_sizes(), vec![256]);

        // Quarantine: drop it, recompile recharges, and the rebuilt
        // graph verifies again.
        assert!(c.invalidate(256));
        assert!(!c.has(256));
        assert!(c.ensure(256) > SimTime::ZERO);
        assert!(c.verify(256));
        assert!(c.poisoned_sizes().is_empty());
    }

    #[test]
    fn fingerprints_depend_on_length_and_set() {
        let c = cache();
        assert_ne!(c.expected_fingerprint(64), c.expected_fingerprint(128));
        let other = GraphCache::new(
            GraphSet::new(vec![crate::template::OpTemplate::new("qkv", 64, 64)]),
            CompileModel::default(),
        );
        assert_ne!(c.expected_fingerprint(64), other.expected_fingerprint(64));
    }

    #[test]
    fn larger_graphs_cost_more() {
        let mut c = cache();
        let small = c.ensure(64);
        let large = c.ensure(1024);
        assert!(large > small);
    }
}
