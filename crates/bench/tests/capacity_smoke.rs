//! The 65536-stack capacity smoke: builds the `BENCH_scale.json`
//! datagram soak at its full size, runs a short window through the
//! persistent worker pool, and bounds the live heap per stack as a
//! counting allocator measures it — proof that the slab/SoA layout and
//! the shared peer table actually hold at the scale the committed
//! baseline claims. `#[ignore]`d because it only makes sense in release
//! (debug builds multiply the wall clock ~20x); CI runs it as
//! `cargo test -p dpu-bench --release -- --ignored`.
//!
//! One test per file: the counting allocator is process-global.

use dpu_bench::mem::CountingAlloc;
use dpu_bench::synth::datagram_soak_sim;
use dpu_core::time::{Dur, Time};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
#[ignore = "release-only capacity smoke (65536 stacks); run with --release -- --ignored"]
fn capacity_smoke_65536_stacks() {
    let n = 65_536;
    let live0 = ALLOC.live();
    let mut sim = datagram_soak_sim(n, 42, 4);
    sim.run_until(Time::ZERO + Dur::millis(10));
    let bytes_per_stack = (ALLOC.live() - live0) / u64::from(n);
    println!("live bytes/stack: {bytes_per_stack}");
    let stats = sim.stats();
    assert!(stats.events > u64::from(n), "the soak must actually run: {} events", stats.events);
    assert!(
        stats.packets_delivered > 0,
        "the soak must deliver traffic across the recycled layout"
    );
    // The capacity claim, instrumented: the allocator measures
    // 841 B/stack live here (969 B while the slab row was 344 B, seven
    // telemetry handles, a host-event queue header and four capacity
    // words among them, and requirers were per-service lists; 1 193 B
    // while a stack's slab row held an
    // inline scratch pool, inline dispatch buffers, inline switch records
    // and a second timer table; 1 255 B while the scheduler wheel's bucket
    // `Vec`s kept the largest fill each had held; the pre-refactor boxed
    // layout was ~265 KB, dominated by the O(n²) owned peer tables;
    // per-stack pre-allocated telemetry then added ~17 KB until the
    // histograms moved into the shards, every stack's own dispatch queue
    // 512 B until idle stacks handed it back to the shard, and module
    // slots holding a kind `String` and two service vectors, four-slot
    // timer heaps and doubling requirer lists 441 B). The bound is that
    // measurement plus 4 %: one flight ring (1.5 KB), one histogram
    // (4.7 KB), the eight-delivery queue of one `LoadGen` burst (512 B)
    // or a copied kind name left in every stack fails it.
    assert!(bytes_per_stack < 875, "live bytes/stack regressed: {bytes_per_stack}");
    // The same run is observed: every stack is instrumented and the
    // samples land in the 16 shard sets.
    let tel = sim.telemetry_report();
    assert_eq!(tel.stacks_enabled, n, "every stack must be instrumented");
    assert!(tel.scratch_occupancy_bytes.count > 0, "the soak must record occupancy samples");
    assert!(tel.delivery_latency_ns.count > 0, "the soak must record delivery latency");
}
