//! The content-addressed result cache.
//!
//! Keys are [`ncpu_soc::Scenario::cache_key`] values — 64-bit FNV-1a
//! over the canonical scenario encoding — so two requests share an
//! entry **iff** every engine in the equivalence class would produce
//! byte-identical reports for them. Values are the finished, normalized
//! report artifacts (engine tag stripped), so a hit is a pure string
//! copy: no simulation, no re-rendering, no chance of divergence.
//!
//! Eviction is least-recently-used over a deterministic logical clock
//! (one tick per get/insert), so the eviction sequence is a pure
//! function of the request sequence — the same transcript always
//! produces the same hit/miss/eviction counters, regardless of wall
//! clock or worker count.
//!
//! The LRU itself is generic ([`Lru`]): the fleet reuses it to bound
//! the use-case construction memo, so *every* long-lived map in the
//! service shares one eviction discipline.

use std::collections::BTreeMap;

/// A finished run, ready to serve.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Name of the engine that computed the entry.
    pub engine: &'static str,
    /// The normalized `RunArtifact` JSON (multi-line, `ncpu-run-v2`).
    pub artifact_json: String,
    /// The same artifact rendered compact, for single-line responses.
    pub compact_json: String,
}

/// The result cache: a bounded [`Lru`] keyed by canonical scenario hash.
pub type ResultCache = Lru<u64, CacheEntry>;

/// Deterministic bounded LRU over a logical clock.
#[derive(Debug)]
pub struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<K, (u64, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            capacity: capacity.max(1),
            tick: 0,
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit. Counts a miss
    /// on `None`.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((last_used, _)) => {
                *last_used = self.tick;
                self.hits += 1;
                Some(&self.entries[key].1)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peeks without touching recency or counters.
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts `entry`, evicting the least-recently-used entry first if
    /// the cache is full. Re-inserting an existing key refreshes it.
    pub fn insert(&mut self, key: K, entry: V) {
        self.tick += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty cache has an oldest entry");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
        self.entries.insert(key, (self.tick, entry));
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime (hits, misses, evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(tag: &str) -> CacheEntry {
        CacheEntry {
            engine: "event",
            artifact_json: format!("{{\n  \"name\": \"{tag}\"\n}}"),
            compact_json: format!("{{\"name\":\"{tag}\"}}"),
        }
    }

    #[test]
    fn hit_returns_the_exact_bytes_inserted() {
        let mut cache = ResultCache::new(4);
        cache.insert(7, entry("a"));
        assert_eq!(cache.get(&7).unwrap().compact_json, "{\"name\":\"a\"}");
        assert!(cache.get(&8).is_none());
        assert_eq!(cache.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, entry("a"));
        cache.insert(2, entry("b"));
        assert!(cache.get(&1).is_some()); // refresh 1; now 2 is oldest
        cache.insert(3, entry("c"));
        assert!(cache.contains(&1) && cache.contains(&3) && !cache.contains(&2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (1, 0, 1));
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let mut cache = ResultCache::new(2);
        cache.insert(1, entry("a"));
        cache.insert(2, entry("b"));
        cache.insert(1, entry("a2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats(), (0, 0, 0));
        assert_eq!(cache.get(&1).unwrap().compact_json, "{\"name\":\"a2\"}");
    }
}
