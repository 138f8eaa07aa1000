//! The tentpole acceptance test: a 1,048,576-stack datagram soak must
//! build on a dev machine in single-digit seconds and hold its
//! steady-state footprint under 1 KB per stack — instrumented, like
//! every run: telemetry has no off switch — as measured by a counting
//! allocator. This is the claim `BENCH_scale.json`'s million row
//! commits to; the test keeps it honest on every capacity CI run.
//!
//! `#[ignore]`d because it only makes sense in release (debug builds
//! multiply the wall clock ~20x and the build budget is a release
//! number); CI runs it via
//! `cargo test --release -p dpu-bench --test million_smoke -- --ignored`.
//!
//! One test per file: the counting allocator is process-global.

use std::time::Instant;

use dpu_bench::mem::CountingAlloc;
use dpu_bench::synth::datagram_soak_sim;
use dpu_core::time::{Dur, Time};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
#[ignore = "release-only million-stack smoke; run with --release -- --ignored"]
fn million_smoke() {
    let n: u32 = 1 << 20;
    let live0 = ALLOC.live();

    let t0 = Instant::now();
    let mut sim = datagram_soak_sim(n, 42, 1);
    let build_secs = t0.elapsed().as_secs_f64();
    let built_per_stack = (ALLOC.live() - live0) / u64::from(n);

    // Build budget: the pre-refactor boxed layout took 125 s to build
    // 65536 stacks; the slab/SoA layout with the shared peer table must
    // assemble sixteen times as many in single-digit seconds.
    assert!(build_secs < 10.0, "million-stack build took {build_secs:.1} s (budget 10 s)");

    let run0 = Instant::now();
    sim.run_until(Time::ZERO + Dur::millis(5));
    let run_secs = run0.elapsed().as_secs_f64();
    let run_per_stack = (ALLOC.live() - live0) / u64::from(n);

    let stats = sim.stats();
    assert!(stats.events > u64::from(n), "the soak must actually run: {} events", stats.events);
    assert!(stats.packets_delivered > 0, "the soak must deliver traffic");
    // The headline bound: steady-state allocator-measured heap, per
    // stack, telemetry included, at its reading (665 B) plus 4 %.
    // Shard scratch pools, shard-owned histograms and dispatch buffers
    // (an idle stack holds none: 1 995 B while each kept its own queue,
    // 1 017 B while a stack's slab row still held an empty inline pool,
    // empty buffer headers, inline switch records and a driver-side
    // timer heap beside its timer map, 793 B while the row was 344 B
    // with seven telemetry handles, a host-event queue header and four
    // capacity words in it),
    // exact boxed-slice tables, one requirers table and an exact-growth
    // timer table, interned service
    // names and module kinds (1 484 B while every module slot kept its
    // own kind and service lists), and scheduler buckets that are chains
    // through the event slab (1 041 B while each bucket was a `Vec`
    // keeping the largest fill it had held) are what hold it there.
    // Built reads 483 B, less than the run: a built stack's starts are a
    // count, not a boxed queue, and what the run adds is traffic — every
    // stack is built with one queued event, whose slab node carries its
    // 16-byte key and chain link beside the payload (923 B built while
    // the starts waited in a boxed queue, 1 083 B with the inline row).
    assert!(
        run_per_stack <= 691,
        "steady-state bytes/stack blew the 691 B budget: {run_per_stack} \
         (built {built_per_stack})"
    );
    // Generous wall guard so a pathological slowdown (quadratic scan,
    // lost batching) fails loudly instead of hanging the CI job.
    assert!(run_secs < 600.0, "5 ms window took {run_secs:.0} s of wall clock");

    eprintln!(
        "million smoke: built in {build_secs:.2} s at {built_per_stack} B/stack, \
         ran {} events in {run_secs:.1} s at {run_per_stack} B/stack steady state",
        stats.events
    );
}
