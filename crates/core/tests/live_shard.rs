//! `LiveShard`'s loan guard, through the public entry points: whatever
//! way a loaned closure ends — return or unwind — the shard pool and
//! the stack's resident scratch are swapped back.

use dpu_core::host::{LiveShard, NullSink, WallClock};
use dpu_core::wire::ScratchStats;
use dpu_core::{FactoryRegistry, Stack, StackConfig, StackId};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn shard() -> LiveShard {
    let stack = Stack::new(StackConfig::nth(0, 1, 1), FactoryRegistry::new());
    let mut shard = LiveShard::new(WallClock::start(), [stack]);
    shard.fire_due(shard.now(), &mut NullSink);
    shard
}

/// Pool counters as seen from inside a loan (the loaned pool stands in
/// for the stack's scratch there).
fn pool(shard: &mut LiveShard) -> ScratchStats {
    shard.ctl(0, |s| s.wire_stats(), &mut NullSink)
}

#[test]
fn loan_is_returned_after_a_closure_that_encodes() {
    let mut shard = shard();
    assert_eq!(shard.local_of(StackId(0)), Some(0));
    assert_eq!(shard.local_of(StackId(1)), None);
    shard.ctl(0, |s| drop(s.encode(&7u64)), &mut NullSink);
    assert_eq!(pool(&mut shard).emitted, 1, "the encode landed in the shard pool");
    assert_eq!(shard.fold_report().wire.emitted, 1);
    let (_, stack) = shard.into_stacks().pop().expect("one stack");
    assert_eq!(stack.wire_stats(), ScratchStats::default(), "resident scratch untouched");
}

#[test]
fn loan_is_returned_when_the_closure_unwinds() {
    let mut shard = shard();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        shard.ctl(
            0,
            |s| {
                drop(s.encode(&7u64));
                panic!("closure fails mid-loan");
            },
            &mut NullSink,
        )
    }));
    assert!(unwound.is_err());
    // Had the guard not un-swapped on unwind, the pool (with its one
    // emission) would now sit inside the stack and the stack's empty
    // scratch in the shard: the next loan would see zero.
    assert_eq!(pool(&mut shard).emitted, 1, "pool is back in the shard");
    shard.ctl(0, |s| drop(s.encode(&8u64)), &mut NullSink);
    assert_eq!(shard.fold_report().wire.emitted, 2);
    let (_, stack) = shard.into_stacks().pop().expect("one stack");
    assert_eq!(stack.wire_stats(), ScratchStats::default(), "stack holds its own scratch again");
}
