//! A sorted boxed-slice map: the capacity-path replacement for
//! `BTreeMap` in per-stack state.
//!
//! A `BTreeMap` allocates 11-entry leaf nodes, so a stack holding a
//! handful of modules/bindings pays for dozens of slots it never uses —
//! at 10^6 stacks that overhead (~1.5–2 KB/stack across the maps in
//! [`crate::Stack`]) dominates the residual memory budget. A sorted
//! `Box<[(K, V)]>` stores exactly `len` entries and no capacity word:
//! every insert or remove reallocates it to the new length, and for the
//! single-digit populations a stack actually holds, binary search +
//! `memmove` beats pointer-chasing tree nodes on the dispatch hot path
//! too. The tables that use it change only when a stack is built or
//! switches protocol; the timer table, which churns with every timer,
//! keeps a `Vec` of its own.
//!
//! Iteration order is **ascending by key** — identical to `BTreeMap` —
//! which is what keeps trace event order (and therefore the golden
//! fingerprint) byte-stable across the swap.

use std::fmt;

/// A map backed by a boxed slice of key-sorted `(K, V)` pairs, exactly
/// as long as the map: 16 bytes inline, `len` entries on the heap.
///
/// Lookups are `O(log n)`, inserts/removes `O(n)` plus one reallocation
/// — the right trade for small populations that change at build and
/// switch time only.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct VecMap<K, V> {
    entries: Box<[(K, V)]>,
}

/// Insert `item` at index `i` of `slice`, reallocating it to exactly
/// one more element.
pub(crate) fn insert_exact<T>(slice: &mut Box<[T]>, i: usize, item: T) {
    let mut v = std::mem::take(slice).into_vec();
    v.reserve_exact(1);
    v.insert(i, item);
    *slice = v.into_boxed_slice();
}

/// Keep the elements of `slice` that `keep` accepts, in order,
/// reallocating it to exactly those (no allocator call if all stay).
pub(crate) fn retain_exact<T>(slice: &mut Box<[T]>, keep: impl FnMut(&T) -> bool) {
    let mut v = std::mem::take(slice).into_vec();
    v.retain(keep);
    *slice = v.into_boxed_slice();
}

/// Remove and return the element at index `i` of `slice`, reallocating
/// it to exactly the rest.
fn remove_exact<T>(slice: &mut Box<[T]>, i: usize) -> T {
    let mut v = std::mem::take(slice).into_vec();
    let item = v.remove(i);
    *slice = v.into_boxed_slice();
    item
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map. Does not allocate.
    pub fn new() -> Self {
        VecMap { entries: Box::default() }
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
    /// Replacing a value allocates nothing.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.idx(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                insert_exact(&mut self.entries, i, (key, value));
                None
            }
        }
    }

    /// Remove and return the value stored under `key`, if any.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.idx(key).ok()?;
        Some(remove_exact(&mut self.entries, i).1)
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
                insert_exact(&mut self.entries, i, (key, V::default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Drop every entry and the allocation that held them.
    pub fn clear(&mut self) {
        self.entries = Box::default();
    }

    /// Iterate `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterate values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
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
    fn the_map_holds_exactly_its_entries_and_no_capacity_word() {
        assert_eq!(std::mem::size_of::<VecMap<u32, u64>>(), 16);
        let mut m: VecMap<u32, u64> = VecMap::new();
        let heap = |m: &VecMap<u32, u64>| std::mem::size_of_val(&*m.entries);
        for k in [5, 1, 9, 3, 7] {
            m.get_mut_or_default(k);
            m.insert(k + 10, 0);
            assert_eq!(heap(&m), m.len() * std::mem::size_of::<(u32, u64)>(), "after {k}");
        }
        m.remove(&9);
        assert_eq!(heap(&m), 9 * std::mem::size_of::<(u32, u64)>(), "a remove shrinks it");
        m.clear();
        assert_eq!((m.len(), heap(&m)), (0, 0));
    }

    #[test]
    fn retain_and_insert_keep_a_slice_exact_and_in_order() {
        let mut s: Box<[u32]> = Box::default();
        for (i, x) in [(0, 4), (0, 1), (1, 2), (3, 9)] {
            insert_exact(&mut s, i, x);
        }
        assert_eq!(&*s, [1, 2, 4, 9]);
        retain_exact(&mut s, |x| x % 2 == 0);
        assert_eq!(&*s, [2, 4]);
    }
}
