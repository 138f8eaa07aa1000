//! What building a group costs a stack: the heap a 64-stack group in
//! `switch-1k-sim`'s shape (clustered by 16, `abcast.seq` under the Repl
//! layer, a probe, rp2p with the benchmark's parameters, no trace) holds
//! once `group_sim` returns, and the allocations it took, per stack.
//!
//! A group's stacks share one module catalogue, and a stack keeps of each
//! module only the module and its interned kind. A catalogue built per
//! stack fails both bounds: the 14 kinds' factories and the default
//! providers are ≈ 2.2 KB in 47 allocations (9 668 B and 95 a stack).
//!
//! One test per file: the counting allocator is process-global.

use dpu_bench::mem::CountingAlloc;
use dpu_core::time::Dur;
use dpu_core::ModuleSpec;
use dpu_net::rp2p::Rp2pConfig;
use dpu_repl::builder::{group_sim, specs, GroupStackOpts, SwitchLayer};
use dpu_sim::{CpuConfig, NetConfig, SimConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn a_group_of_stacks_shares_one_catalogue() {
    const N: u32 = 64;
    let mut cfg = SimConfig::clustered(N, 101, N / 16, NetConfig::datacenter(), NetConfig::lan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &Rp2pConfig {
            retransmit: Dur::millis(100),
            lower: dpu_net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: vec![(dpu_net::RP2P_SVC.to_string(), rp2p)],
    };
    let (live0, allocs0) = (ALLOC.live(), ALLOC.allocs());
    let (sim, _handles) = group_sim(cfg, &opts);
    let bytes = (ALLOC.live() - live0) / u64::from(N);
    let allocs = (ALLOC.allocs() - allocs0) / u64::from(N);
    println!("built: {bytes} B and {allocs} allocations a stack");
    // Each bound is its reading plus 4 %, lowered only: 2 789 B and 42
    // allocations (2 797 B while the slab row was 240 B, the driver
    // holding a pointer to its own event queue; 3 582 B and 49 while a built stack's starts waited in
    // a boxed queue, its requirers were per-service lists and its slab
    // row was 344 B; 3 790 B and 48 while a stack's slab row held an inline scratch
    // pool, inline dispatch buffers and inline switch records; 7 432 B
    // while each of the scheduler wheel's 768 buckets a shard was an
    // empty `Vec`, not a 4-byte chain head; 9 983 B and 97 with a
    // catalogue per stack and fat module slots).
    assert!(bytes <= 2_900, "a built stack holds {bytes} B");
    assert!(allocs <= 43, "a stack's build took {allocs} allocations");
    drop(sim);
}
