//! What building a protocol-free stack costs: the heap 4096 stacks in
//! `dgram-64k-sim`'s shape (one `LoadGen` over the built-in `net`
//! bridge each, clustered by 256, no trace) hold once the simulation is
//! built, and the allocations it took, per stack — the slab row, the
//! stack's tables, its generator and its first scheduled event.
//!
//! One test per file: the counting allocator is process-global.

use dpu_bench::mem::CountingAlloc;
use dpu_bench::synth::datagram_soak_sim;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_bare_loadgen_stack_builds_small() {
    const N: u32 = 4096;
    let (live0, allocs0) = (ALLOC.live(), ALLOC.allocs());
    let sim = datagram_soak_sim(N, 42, 1);
    let bytes = (ALLOC.live() - live0) / u64::from(N);
    let allocs = (ALLOC.allocs() - allocs0) / u64::from(N);
    println!("built: {bytes} B and {allocs} allocations a stack");
    // Each bound is its reading plus 4 %: 486 B and 6 allocations (494 B
    // while the slab row was 240 B; 934 B and 9 while a built stack's starts waited in a boxed queue, its
    // requirers were a map of per-service lists and its slab row was
    // 344 B).
    assert!(bytes <= 505, "a built stack holds {bytes} B");
    assert!(allocs <= 6, "a stack's build took {allocs} allocations");
    drop(sim);
}
