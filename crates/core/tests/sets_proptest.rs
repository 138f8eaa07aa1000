//! Model tests for [`IntervalSet`] and [`InOrder`].
//!
//! Whatever the key stream — in order, reordered, duplicated, numbered
//! from zero, from a clock-seeded start (the hierarchical broadcast's
//! `oseq`) or across the end of `u64` — `insert` and `contains` answer
//! exactly as the `BTreeSet<(StackId, u64)>` it replaced, and the runs it
//! keeps are the maximal ones.
//!
//! Whatever the arrival order — in order, ahead of a gap, duplicated
//! ahead, stale — `InOrder` releases exactly what the `BTreeMap` and
//! counter it replaced released, in the same order.

use dpu_core::{InOrder, IntervalSet, StackId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Where an author starts numbering.
fn start() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        // `now_ns * golden ratio`, as `abcast.hier` seeds `oseq`.
        any::<u64>().prop_map(|now_ns| now_ns.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        (0u64..40).prop_map(|below| u64::MAX - below),
    ]
}

proptest! {
    #[test]
    fn interval_set_answers_as_a_btreeset(
        starts in proptest::collection::vec(start(), 3),
        ops in proptest::collection::vec((0usize..3, 0u64..6, 0u32..8), 1..400),
    ) {
        let mut set = IntervalSet::new();
        let mut model = BTreeSet::new();
        let mut sent: Vec<(StackId, u64)> = Vec::new();
        let mut next = [0u64; 3];
        for (author, ahead, kind) in ops {
            let id = StackId(7 * author as u32);
            let key = match kind {
                // A duplicate of something that arrived before.
                0 if !sent.is_empty() => sent[(31 * ahead + next[author]) as usize % sent.len()],
                // Reordered: up to five numbers ahead of its turn.
                1 | 2 => (id, starts[author].wrapping_add(next[author] + ahead)),
                // In order (a number that came early is a duplicate now).
                _ => {
                    next[author] += 1;
                    (id, starts[author].wrapping_add(next[author] - 1))
                }
            };
            prop_assert_eq!(set.contains(key), model.contains(&key));
            prop_assert_eq!(set.insert(key), model.insert(key));
            for near in [key.1.wrapping_sub(1), key.1, key.1.wrapping_add(1)] {
                prop_assert_eq!(set.contains((key.0, near)), model.contains(&(key.0, near)));
                let other = StackId(key.0 .0 + 1);
                prop_assert!(!set.contains((other, near)));
            }
            prop_assert_eq!(set.len(), model.len() as u64);
            sent.push(key);
        }
        // A run starts at every number whose predecessor is missing.
        let runs = model
            .iter()
            .filter(|&&(id, n)| n == 0 || !model.contains(&(id, n - 1)))
            .count();
        let authors = model.iter().map(|&(id, _)| id).collect::<BTreeSet<_>>().len();
        prop_assert_eq!(set.gaps(), runs - authors);
    }

    #[test]
    fn in_order_releases_as_a_btreemap_and_a_counter(
        arrivals in proptest::collection::vec((0u32..5, 0u64..6), 1..400),
    ) {
        let mut order = InOrder::new();
        let mut model = BTreeMap::new();
        let mut due = 0u64;
        for (i, (kind, ahead)) in arrivals.into_iter().enumerate() {
            let n = match kind {
                // Stale: released already (or, before anything was, due).
                0 => due.saturating_sub(1 + ahead),
                // Ahead of a gap, or — when `ahead` is 0 — due.
                1 | 2 => due + ahead,
                // A second copy of something that waits.
                3 if !model.is_empty() => *model.keys().nth(ahead as usize % model.len()).unwrap(),
                // Due.
                _ => due,
            };
            // The six copies: refuse the stale, file the rest, release the
            // contiguous prefix.
            let mut want = Vec::new();
            if n >= due {
                model.insert(n, i);
                while let Some(item) = model.remove(&due) {
                    due += 1;
                    want.push(item);
                }
            }
            let got: Vec<usize> = order.offer(n, i).collect();
            prop_assert_eq!(got, want, "offer({})", n);
            prop_assert_eq!(order.due(), due);
            prop_assert_eq!(order.held(), model.len());
        }
    }
}
