//! `LiveShard`'s loan guard, through the public entry points: whatever
//! way a loaned closure ends — return or unwind — the shard pool and
//! the stack's resident scratch, and the shard's telemetry set and the
//! stack's own handles, are swapped back, and a stack left without work
//! holds no dispatch capacity; and a traced stack leaves the shard with
//! the calls it pushed through the shard's trace tail.

use bytes::Bytes;
use dpu_core::host::{LiveShard, NullSink, WallClock};
use dpu_core::stack::net_ops;
use dpu_core::wire::{Encode, ScratchStats};
use dpu_core::{FactoryRegistry, ModuleId, ServiceId, Stack, StackConfig, StackId};
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

/// Delivery-latency samples in the shard's report.
fn latency_samples(shard: &LiveShard) -> u64 {
    shard.fold_report().report("test", shard.now().as_nanos(), None).delivery_latency_ns.count
}

/// Queue a datagram to the stack itself through the built-in `net`
/// bridge (module 1): a dispatch step and a host action to come.
fn queue_a_send(s: &mut Stack) {
    let data = (StackId(0), Bytes::from_static(b"x")).to_bytes();
    s.call_as(ModuleId(1), &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data);
}

/// What the shard hands back at the end: the one stack, which must hold
/// none of the loaned state.
fn assert_handed_back(shard: LiveShard) {
    let (_, stack) = shard.into_stacks().pop().expect("one stack");
    assert_eq!(stack.wire_stats(), ScratchStats::default(), "stack holds its own scratch again");
    assert_eq!(stack.telemetry().set_bytes(), 0, "no histogram or ring left in the stack");
    assert!(!stack.has_work());
    assert_eq!(stack.dispatch_capacity(), (0, 0), "an idle stack holds no dispatch slots");
}

#[test]
fn loan_is_returned_after_a_closure_that_encodes() {
    let mut shard = shard();
    assert_eq!(shard.local_of(StackId(0)), Some(0));
    assert_eq!(shard.local_of(StackId(1)), None);
    shard.ctl(
        0,
        |s| {
            drop(s.encode(&7u64));
            s.telemetry_mut().note_delivery(10, 5);
            queue_a_send(s);
        },
        &mut NullSink,
    );
    assert_eq!(pool(&mut shard).emitted, 1, "the encode landed in the shard pool");
    assert_eq!(shard.fold_report().wire.emitted, 1);
    assert_eq!(latency_samples(&shard), 1, "the sample landed in the shard set");
    assert_handed_back(shard);
}

#[test]
fn loan_is_returned_when_the_closure_unwinds() {
    let mut shard = shard();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        shard.ctl(
            0,
            |s| {
                drop(s.encode(&7u64));
                s.telemetry_mut().note_delivery(10, 5);
                // Busy as it unwinds: the stack keeps the buffer it took.
                queue_a_send(s);
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
    shard.ctl(
        0,
        |s| {
            drop(s.encode(&8u64));
            s.telemetry_mut().note_delivery(20, 6);
        },
        &mut NullSink,
    );
    assert_eq!(shard.fold_report().wire.emitted, 2);
    // Same for the telemetry handles: left swapped, the set (with its
    // first sample) would be the stack's, the second sample would land
    // in a fresh histogram in the shard, and the stack would come back
    // holding an allocation. And the send queued before the unwind ran
    // at the next poll, after which the stack's buffer went back.
    assert_eq!(latency_samples(&shard), 2);
    assert_handed_back(shard);
}
