//! The two sets a protocol needs to let go of what the group is done
//! with: *who* has been heard from ([`HeardSet`], one bit per member) and
//! *which numbers* of each author have been seen ([`IntervalSet`], one
//! run per author while they arrive in order). Beside them, the one
//! resequencer ([`InOrder`]): numbered items released in number order.
//!
//! Each answers exactly what the `BTreeSet` or `BTreeMap` it replaces
//! would answer; none grows with the length of the run. A replica
//! remembers a high-water mark per author, not everything it ever saw.

use crate::StackId;
use std::collections::BTreeMap;

/// Which members of the group have been heard from: one bit per entry of
/// the peer table, in one inline word for a group of up to 64 (nothing
/// allocated) and a boxed slice beyond.
///
/// Users: Repl marks the origins adelivered under the current
/// `seqNumber` (module retirement), a marker drain the senders of flush
/// markers, a switch coordinator the senders of acks, consensus the
/// deciders whose `Decide` relay has arrived (instance collection).
///
/// The default set is that of an empty group: complete, and deaf to
/// marks. Starting over is assigning a [`HeardSet::new`].
#[derive(Clone, Debug)]
pub struct HeardSet(Bits);

/// Bits past the group size are kept set, so "everyone heard" is "every
/// word full".
#[derive(Clone, Debug)]
enum Bits {
    Word(u64),
    Words(Box<[u64]>),
}

impl Default for HeardSet {
    fn default() -> HeardSet {
        HeardSet::new(0)
    }
}

impl HeardSet {
    /// Nobody of a group of `group` has been heard yet.
    pub fn new(group: usize) -> HeardSet {
        // Word `w` with the bits of members that do not exist pre-set.
        let spare = |w: usize| match group.saturating_sub(64 * w) {
            used @ 0..64 => u64::MAX << used,
            _ => 0,
        };
        HeardSet(match group.div_ceil(64) {
            0 | 1 => Bits::Word(spare(0)),
            words => Bits::Words((0..words).map(spare).collect()),
        })
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Bits::Word(word) => std::slice::from_ref(word),
            Bits::Words(words) => words,
        }
    }

    /// `origin` has been heard. True when that makes the set complete:
    /// exactly once per set, and never for a duplicate, a stack outside
    /// `peers`, or the default set.
    pub fn mark(&mut self, peers: &[StackId], origin: StackId) -> bool {
        // Every host numbers its group 0..n; search only if one does not.
        let identity = (peers.get(origin.idx()) == Some(&origin)).then_some(origin.idx());
        let Some(idx) = identity.or_else(|| peers.iter().position(|p| *p == origin)) else {
            return false; // not a member of the group
        };
        let words = match &mut self.0 {
            Bits::Word(word) => std::slice::from_mut(word),
            Bits::Words(words) => &mut words[..],
        };
        let Some(word) = words.get_mut(idx / 64) else { return false };
        let bit = 1u64 << (idx % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.is_complete()
    }

    /// Every member has been heard (always, for the default set).
    pub fn is_complete(&self) -> bool {
        self.words().iter().all(|w| *w == u64::MAX)
    }
}

/// An exact set of `(key, number)` pairs — `insert` and `contains` answer
/// as `BTreeSet<(K, u64)>` would — stored as the maximal runs of
/// consecutive numbers of each key. Numbers that arrive in order, which
/// per-pair FIFO channels make the normal case, cost one entry per key
/// for ever: the run is a watermark. A number that arrives early opens a
/// second run, which merges back when the gap fills.
#[derive(Clone, Debug)]
pub struct IntervalSet<K> {
    /// `(key, lo) → hi`: the run `lo..=hi` of `key`. Runs of one key
    /// neither overlap nor touch.
    runs: BTreeMap<(K, u64), u64>,
}

impl<K> Default for IntervalSet<K> {
    fn default() -> IntervalSet<K> {
        IntervalSet { runs: BTreeMap::new() }
    }
}

impl<K: Ord + Copy> IntervalSet<K> {
    /// The empty set.
    pub fn new() -> IntervalSet<K> {
        IntervalSet::default()
    }

    /// The run of `key` that starts at or below `n`.
    fn run_below(&self, key: K, n: u64) -> Option<(u64, u64)> {
        let (&(k, lo), &hi) = self.runs.range(..=(key, n)).next_back()?;
        (k == key).then_some((lo, hi))
    }

    /// Whether `(key, n)` is in the set.
    pub fn contains(&self, (key, n): (K, u64)) -> bool {
        self.run_below(key, n).is_some_and(|(_, hi)| n <= hi)
    }

    /// Add `(key, n)`. False if it was there already.
    pub fn insert(&mut self, (key, n): (K, u64)) -> bool {
        let below = self.run_below(key, n);
        if below.is_some_and(|(_, hi)| n <= hi) {
            return false;
        }
        // `n` lengthens the run that ends just below it and swallows the
        // one that starts just above.
        let lo = match below {
            Some((lo, hi)) if hi + 1 == n => lo,
            _ => n,
        };
        let above = n.checked_add(1).and_then(|next| self.runs.remove(&(key, next)));
        self.runs.insert((key, lo), above.unwrap_or(n));
        true
    }

    /// How many pairs the set holds (saturating). Walks the runs, like
    /// [`IntervalSet::gaps`].
    pub fn len(&self) -> u64 {
        self.runs
            .iter()
            .fold(0u64, |sum, (&(_, lo), &hi)| sum.saturating_add(hi - lo).saturating_add(1))
    }

    /// Whether the set holds nothing.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Runs beyond the first of each key: the numbers that arrived ahead
    /// of a gap and are held until it fills. Zero while everything
    /// arrives in order. Walks the set; meant for reports.
    pub fn gaps(&self) -> usize {
        let runs = self.runs.keys();
        runs.clone().zip(runs.skip(1)).filter(|(run, next)| run.0 == next.0).count()
    }
}

/// Numbered items released in number order: "everything after `k`".
/// Item `due()` is handed straight back and everything it unblocks
/// follows; an item ahead of a gap waits (a second copy of it replaces
/// the first, as `BTreeMap::insert` would); a number already released is
/// refused. While items arrive in order the map stays empty — and,
/// since an emptied map is dropped, without storage.
///
/// Users: rp2p per peer, the sequencer, ring and hierarchical broadcasts'
/// deliveries and hier's per-forwarder streams, and `abcast.ct`'s
/// decided batches.
#[derive(Debug)]
pub struct InOrder<T> {
    /// The number released next: every number below it has been.
    due: u64,
    /// Items ahead of a gap, by number; never holds `due`.
    ahead: BTreeMap<u64, T>,
}

impl<T> Default for InOrder<T> {
    fn default() -> InOrder<T> {
        InOrder { due: 0, ahead: BTreeMap::new() }
    }
}

impl<T> InOrder<T> {
    /// Nothing released yet; item 0 is due.
    pub fn new() -> InOrder<T> {
        InOrder::default()
    }

    /// The number released next.
    pub fn due(&self) -> u64 {
        self.due
    }

    /// How many items wait ahead of a gap.
    pub fn held(&self) -> usize {
        self.ahead.len()
    }

    /// Offer item `n`: the items it releases, in number order — nothing
    /// unless `n` is due. Consume the iterator: a released item that is
    /// not taken is lost.
    pub fn offer(&mut self, n: u64, item: T) -> impl Iterator<Item = T> + '_ {
        let mut first = None;
        if n == self.due {
            self.due += 1;
            first = Some(item);
        } else if n > self.due {
            self.ahead.insert(n, item);
        }
        std::iter::from_fn(move || first.take().or_else(|| self.pop()))
    }

    /// The due item, if it waits here.
    fn pop(&mut self) -> Option<T> {
        if self.ahead.is_empty() {
            return None;
        }
        let item = self.ahead.remove(&self.due)?;
        self.due += 1;
        if self.ahead.is_empty() {
            // An emptied BTreeMap keeps its root leaf; let it go.
            self.ahead = BTreeMap::new();
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn heard_set_is_one_inline_word_up_to_64_members() {
        for n in [0usize, 1, 7, 63, 64] {
            assert!(matches!(HeardSet::new(n).0, Bits::Word(_)), "n={n}");
        }
        assert_eq!(HeardSet::new(65).words().len(), 2);
        assert_eq!(HeardSet::new(1024).words().len(), 16);
        // No larger than the boxed slice alone: a module that embeds one
        // (Repl, a switch coordinator) did not grow for the inline word.
        assert_eq!(std::mem::size_of::<HeardSet>(), std::mem::size_of::<Box<[u64]>>());
        assert!(HeardSet::default().is_complete());
        assert!(HeardSet::new(0).is_complete());
        assert!(!HeardSet::new(1).is_complete());
    }

    /// `HeardSet` against a `BTreeSet` model: random marks with
    /// duplicates and non-members, at word boundaries, on the identity
    /// peer table every host builds and on one that is not.
    #[test]
    fn heard_set_matches_a_btreeset_model() {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for n in [1usize, 63, 64, 65, 1024] {
            let identity: Vec<StackId> = (0..n as u32).map(StackId).collect();
            let shifted: Vec<StackId> = (0..n as u32).rev().map(|i| StackId(3 * i + 5)).collect();
            for peers in [identity, shifted] {
                let mut set = HeardSet::default();
                assert!(!set.mark(&peers, peers[0]), "n={n}: the default set ignores marks");
                for _round in 0..3 {
                    set = HeardSet::new(n);
                    let mut model = BTreeSet::new();
                    let mut completions = 0;
                    while model.len() < n {
                        let r = next();
                        // A member, a repeat of one, or an outsider.
                        let origin = match r % 4 {
                            0 => StackId(u32::MAX - (r >> 8) as u32 % 7),
                            1 if !model.is_empty() => *model.iter().next().unwrap(),
                            _ => peers[(r >> 8) as usize % n],
                        };
                        let fresh = peers.contains(&origin) && model.insert(origin);
                        let completed = set.mark(&peers, origin);
                        assert_eq!(completed, fresh && model.len() == n, "n={n} origin={origin}");
                        assert_eq!(set.is_complete(), model.len() == n, "n={n}");
                        completions += usize::from(completed);
                    }
                    assert_eq!(completions, 1, "n={n}");
                    assert!(!set.mark(&peers, peers[n / 2]), "n={n}: complete stays quiet");
                }
            }
        }
    }

    #[test]
    fn in_order_is_the_counter_and_the_map_it_replaced() {
        type Item = (StackId, u64);
        let two_fields = std::mem::size_of::<(u64, BTreeMap<u64, Item>)>();
        assert_eq!(std::mem::size_of::<InOrder<Item>>(), two_fields);
    }

    #[test]
    fn interval_set_merges_runs_and_survives_the_ends_of_u64() {
        // A module that swaps its `BTreeSet` of keys for this does not grow.
        assert_eq!(
            std::mem::size_of::<IntervalSet<StackId>>(),
            std::mem::size_of::<BTreeSet<(StackId, u64)>>()
        );
        let mut set = IntervalSet::new();
        assert!(set.is_empty());
        for n in [5, 7, u64::MAX, 0, u64::MAX - 1] {
            assert!(set.insert(('a', n)));
            assert!(!set.insert(('a', n)));
        }
        assert_eq!((set.len(), set.gaps()), (5, 3));
        assert!(set.insert(('a', 6)), "joins 5 and 7");
        assert_eq!((set.len(), set.gaps()), (6, 2));
        assert!(set.insert(('b', 6)), "another key is another set");
        assert_eq!(set.gaps(), 2);
        for n in [0, 5, 6, 7, u64::MAX - 1, u64::MAX] {
            assert!(set.contains(('a', n)), "{n}");
        }
        for n in [1, 4, 8, u64::MAX - 2] {
            assert!(!set.contains(('a', n)), "{n}");
        }
        assert!(set.contains(('b', 6)) && !set.contains(('b', 5)) && !set.contains(('c', 6)));
    }
}
