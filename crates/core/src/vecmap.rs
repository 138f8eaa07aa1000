//! A sorted-vector map: the capacity-path replacement for `BTreeMap`
//! in per-stack state.
//!
//! A `BTreeMap` allocates 11-entry leaf nodes, so a stack holding a
//! handful of modules/bindings/timers pays for dozens of slots it never
//! uses — at 10^6 stacks that overhead (~1.5–2 KB/stack across the five
//! maps in [`crate::Stack`]) dominates the residual memory budget. A
//! sorted `Vec<(K, V)>` stores exactly `len` entries (every insert grows
//! it by one slot, not by doubling), and for the single-digit populations a
//! stack actually holds, binary search + `memmove` beats pointer-chasing
//! tree nodes on the dispatch hot path too.
//!
//! Iteration order is **ascending by key** — identical to `BTreeMap` —
//! which is what keeps trace event order (and therefore the golden
//! fingerprint) byte-stable across the swap.

use std::fmt;

/// A map backed by a `Vec` of key-sorted `(K, V)` pairs.
///
/// Lookups are `O(log n)`, inserts/removes `O(n)` (memmove) — the right
/// trade for small, read-mostly populations. Inserting a key greater
/// than the current maximum is `O(1)` amortized (a push), which is the
/// common case for monotonic ids ([`crate::ModuleId`], [`crate::TimerId`]).
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map. Does not allocate.
    pub const fn new() -> Self {
        VecMap { entries: Vec::new() }
    }

    fn idx(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.idx(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.idx(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.idx(key).is_ok()
    }

    /// Insert `value` under `key`, returning the previous value if the
    /// key was already present (same contract as `BTreeMap::insert`).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        // Fast path: monotonically increasing keys append.
        if self.entries.last().is_none_or(|(k, _)| *k < key) {
            self.grow_exact();
            self.entries.push((key, value));
            return None;
        }
        match self.idx(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.grow_exact();
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Grow capacity by exactly one slot when full, instead of `Vec`'s
    /// amortized doubling (minimum 4). These maps hold a handful of
    /// entries per stack and are built once at boot, then mutated only
    /// at protocol-switch or timer-churn rates — at a million stacks,
    /// doubling's slack is megabytes of dead capacity, while exact
    /// growth costs a few boot-time reallocations of tiny buffers.
    /// Removals keep capacity, so a map that churns at a steady size
    /// stops reallocating at its high-water mark.
    #[inline]
    fn grow_exact(&mut self) {
        if self.entries.len() == self.entries.capacity() {
            self.entries.reserve_exact(1);
        }
    }

    /// Remove and return the value stored under `key`, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.idx(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The value under `key`, inserting `V::default()` first if absent
    /// (the `entry(k).or_default()` idiom).
    pub(crate) fn get_mut_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.idx(&key) {
            Ok(i) => i,
            Err(i) => {
                self.grow_exact();
                self.entries.insert(i, (key, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterate `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterate values mutably in ascending key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Ord, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries.iter().map(|(k, v)| (k, v))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: VecMap<u32, &str> = VecMap::new();
        assert_eq!(m.len(), 0);
        assert_eq!(m.insert(5, "five"), None);
        assert_eq!(m.insert(1, "one"), None);
        assert_eq!(m.insert(3, "three"), None);
        assert_eq!(m.insert(3, "tres"), Some("three"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&3), Some(&"tres"));
        assert!(m.contains_key(&1));
        assert!(!m.contains_key(&2));
        assert_eq!(m.remove(&1), Some("one"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_key_sorted_like_btreemap() {
        let keys = [9u64, 2, 7, 4, 1, 8, 3];
        let mut m: VecMap<u64, u64> = VecMap::new();
        let mut b = std::collections::BTreeMap::new();
        for k in keys {
            m.insert(k, k * 10);
            b.insert(k, k * 10);
        }
        let ours: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        let theirs: Vec<_> = b.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(ours, theirs);
        let vals: Vec<_> = m.values().copied().collect();
        assert_eq!(vals, theirs.iter().map(|(_, v)| *v).collect::<Vec<_>>());
    }

    #[test]
    fn get_mut_or_default_matches_entry_or_default() {
        let mut m: VecMap<u32, Vec<u32>> = VecMap::new();
        m.get_mut_or_default(2).push(20);
        m.get_mut_or_default(1).push(10);
        m.get_mut_or_default(2).push(21);
        assert_eq!(m.get(&1), Some(&vec![10]));
        assert_eq!(m.get(&2), Some(&vec![20, 21]));
    }

    #[test]
    fn every_insert_grows_capacity_to_the_length_exactly() {
        let mut m: VecMap<u32, Vec<u32>> = VecMap::new();
        for k in [5, 1, 9, 3, 7] {
            m.get_mut_or_default(k);
            assert_eq!(m.entries.capacity(), m.len(), "after inserting {k}");
            m.insert(k + 10, Vec::new());
            assert_eq!(m.entries.capacity(), m.len(), "after inserting {}", k + 10);
        }
    }
}
