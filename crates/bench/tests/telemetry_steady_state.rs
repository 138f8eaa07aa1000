//! Steady-state allocation guard for the telemetry record path
//! (`tests/wire_steady_state.rs` applied to the observability layer).
//!
//! Every per-sample operation — histogram record, flight-recorder push,
//! switch-phase stamp, hold-back count — must be alloc-free once each handle has seen
//! its first sample and each bounded buffer has reached its bound: a
//! histogram's bucket block is allocated by its first record and never
//! again, a flight ring grows with its content up to its capacity, and
//! the timeline's retained-switch window grows one record at a time up
//! to 16. The warm-up below does those one-time allocations (and fills
//! both rings and the retained window); a counting global allocator then measures the
//! record phase directly, and the budget is zero. The same code runs
//! whether the handles are the stack's own (here) or a shard's, lent.
//!
//! The gate counts this thread's allocations only: the allocator is
//! process-global, and the test harness's own thread can allocate inside
//! the window.

use dpu_bench::mem::CountingAlloc;
use dpu_core::{StackTelemetry, TelemetryConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn switch(t: &mut StackTelemetry, now: u64) {
    t.switch_requested(now);
    t.switch_flushed(now + 1);
    t.switch_activated(now + 2);
    t.note_delivery(now + 3, 900);
}

#[test]
fn record_path_is_allocation_free() {
    let mut t = StackTelemetry::new(&TelemetryConfig::default(), 0);

    // Warm-up: exercise every record kind once so every lazily
    // allocated handle is in place, deliver enough to fill the delivery
    // ring (64), and complete enough switches to fill the retained-record
    // window (16) and the lifecycle ring (4 events each: 64).
    for k in 0..64 {
        t.note_delivery(1_000 + k, 500);
    }
    t.cascade_step();
    t.cascade_end();
    t.record_scratch_occupancy(4096);
    t.record_reseq_depth(3);
    t.note_retransmit_exhausted(4_000, 9);
    t.note_held();
    for k in 0..16 {
        switch(&mut t, 5_000 + k * 10);
    }

    let allocs0 = ALLOC.thread_allocs();
    for i in 0..100_000u64 {
        let now = 10_000 + i * 10;
        t.note_delivery(now, 500 + (i % 1_000));
        t.cascade_step();
        t.cascade_step();
        t.cascade_end();
        t.record_scratch_occupancy(4096 + (i % 64) * 128);
        t.record_reseq_depth(i % 8);
        t.note_held();
        t.note_released(1);
        t.note_hold_back_dropped();
        if i % 10_000 == 0 {
            // A full switch lifecycle, flight events included, is also
            // on the zero-allocation path.
            switch(&mut t, now);
        }
    }
    let new_allocs = ALLOC.thread_allocs() - allocs0;
    assert_eq!(
        new_allocs, 0,
        "telemetry record path allocated {new_allocs} times over 100k samples; \
         record() must be alloc-free after the first sample"
    );
    let state = t.state().expect("telemetry always has state");
    let set = state.set.as_deref().expect("the first sample boxed the set");
    assert!(set.delivery_latency.count() > 100_000, "samples must actually land");
    assert_eq!(state.switches.completed(), 26);
    assert_eq!(set.hold_back.released, 100_000);
}
