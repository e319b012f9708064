//! Deterministic-iteration adapters for hash-ordered containers.
//!
//! `HashMap`/`HashSet` iteration order is arbitrary, which is fine for
//! lookups but poison for anything order-sensitive in a simulator that
//! promises bit-for-bit reproducibility. The `no-unordered-iteration` lint
//! (see `pcm-lint`) forbids direct iteration in deterministic crates;
//! these adapters are the sanctioned path: they snapshot the container
//! into a `Vec` sorted by key, so the traversal order is a function of the
//! data alone.
//!
//! The copy is O(n log n) — deliberate. Hash containers on hot paths
//! should only ever be *probed*; when code needs to walk one, it is in a
//! reporting/rollup path where the clone is noise and the determinism is
//! the point. The simulator's per-request path holds none: the backing
//! store is its own open-addressed line table (`pcm_memsim`'s `memory`
//! module) and a completed read finds its core through the request.

use std::collections::{HashMap, HashSet};

/// Key-sorted snapshot of a map's entries.
///
/// ```
/// use std::collections::HashMap;
/// let m: HashMap<u32, &str> = [(2, "b"), (1, "a")].into_iter().collect();
/// let entries = pcm_types::sorted_entries(&m);
/// assert_eq!(entries, vec![(&1, &"a"), (&2, &"b")]);
/// ```
pub fn sorted_entries<K: Ord, V>(map: &HashMap<K, V>) -> Vec<(&K, &V)> {
    let mut v: Vec<(&K, &V)> = map.iter().collect();
    v.sort_unstable_by(|a, b| a.0.cmp(b.0));
    v
}

/// Sorted snapshot of a map's keys.
pub fn sorted_keys<K: Ord + Clone, V>(map: &HashMap<K, V>) -> Vec<K> {
    let mut v: Vec<K> = map.keys().cloned().collect();
    v.sort_unstable();
    v
}

/// Sorted snapshot of a set's values.
pub fn sorted_values<T: Ord + Clone>(set: &HashSet<T>) -> Vec<T> {
    let mut v: Vec<T> = set.iter().cloned().collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_sorted_by_key() {
        let m: HashMap<u64, u64> = (0..100).map(|i| (i * 7919 % 101, i)).collect();
        let e = sorted_entries(&m);
        assert_eq!(e.len(), m.len());
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn keys_and_values_sorted() {
        let m: HashMap<u32, ()> = [(5, ()), (1, ()), (3, ())].into_iter().collect();
        assert_eq!(sorted_keys(&m), vec![1, 3, 5]);
        let s: HashSet<i32> = [-4, 9, 0].into_iter().collect();
        assert_eq!(sorted_values(&s), vec![-4, 0, 9]);
    }

    #[test]
    fn empty_containers() {
        let m: HashMap<u8, u8> = HashMap::new();
        assert!(sorted_entries(&m).is_empty());
        assert!(sorted_keys(&m).is_empty());
        let s: HashSet<u8> = HashSet::new();
        assert!(sorted_values(&s).is_empty());
    }
}
