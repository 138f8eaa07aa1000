//! Churn-capacity regression: 100 crash/restart cycles must leave the
//! process's live bytes/stack flat. This pins the eager-drop restart
//! path (`Sim::restart_node_with` + slab slot recycling): a regression
//! that keeps both incarnations alive across a restart, or leaks the
//! old incarnation's module/timer/scratch state, shows up here as
//! monotone growth in the counting allocator's live counter.
//!
//! One test per file: the counting allocator is process-global, so the
//! measurement must not share its binary with concurrent allocations
//! from unrelated tests.

use dpu_bench::mem::CountingAlloc;
use dpu_bench::synth::LoadGen;
use dpu_core::stack::FactoryRegistry;
use dpu_core::time::{Dur, Time};
use dpu_core::{Stack, StackConfig, StackId};
use dpu_sim::{CpuConfig, NetConfig, Sim, SimConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const N: u32 = 64;
const CLUSTER: u32 = 8;

fn mk_stack(sc: StackConfig) -> Stack {
    let node_seed = sc.seed ^ (u64::from(sc.id.0) << 20) ^ 0xA076_1D64_78BD_642F;
    let mut s = Stack::new(sc, FactoryRegistry::new());
    s.add_module(Box::new(LoadGen::new(Dur::millis(5), 4, CLUSTER, node_seed)));
    s
}

#[test]
fn hundred_restarts_keep_live_bytes_per_stack_flat() {
    let mut cfg = SimConfig::clustered(N, 7, CLUSTER, NetConfig::datacenter(), NetConfig::wan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    let mut sim = Sim::new(cfg, mk_stack);

    // Warm up: reach the steady-state standing population before the
    // baseline is taken, so growth during churn cannot hide behind
    // first-use allocations (scratch pools, scheduler wheels, queues).
    sim.run_until(Time::ZERO + Dur::millis(200));
    let live_before = ALLOC.live();

    let mut deadline = Time::ZERO + Dur::millis(200);
    for round in 0..100u32 {
        let victim = StackId(round % N);
        sim.restart_node_with(victim, mk_stack);
        // Advance between restarts so each new incarnation re-arms its
        // load and traffic flows through the recycled slot.
        deadline += Dur::millis(2);
        sim.run_until(deadline);
    }
    // Settle after the last restart.
    sim.run_until(deadline + Dur::millis(100));
    let live_after = ALLOC.live();

    // "Flat" = no per-restart growth. 100 restarts over 64 stacks with
    // a leak of even one retained incarnation (~10 KB+) per restart
    // would add ≥ 1 MB; allow a quarter of that for allocator noise,
    // queue-capacity ratchets and timer-heap growth.
    let slack = 256 * 1024;
    assert!(
        live_after <= live_before + slack,
        "live bytes grew across churn: {live_before} -> {live_after} \
         (> {slack} slack; ~{} per restart)",
        (live_after.saturating_sub(live_before)) / 100,
    );
}
