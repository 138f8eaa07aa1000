//! Host-equivalence tests: the `StackDriver` refactor must not change
//! what the deterministic simulator computes, and the sharded runtime
//! must stay shutdown-safe under load.
//!
//! The golden fingerprint below was recorded from the pre-`StackDriver`
//! simulator (thread-per-stack era) for the exact `(config, seed)` used
//! here. `Sim` now drives every stack through `dpu_core::host::StackDriver`;
//! producing the same fingerprint means the canonical drive loop is
//! byte-for-byte equivalent to the hand-rolled one it replaced.

use dpu::repl::builder::{
    group, group_sim, request_change, send_probe, specs, GroupStackOpts, SwitchLayer,
};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu::sim::SimConfig;
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;

/// The shared equivalence-suite fingerprint (see
/// `dpu_core::TraceLog::fingerprint`).
fn trace_fingerprint(trace: &dpu_core::TraceLog) -> u64 {
    trace.fingerprint()
}

/// One fixed, fully deterministic scenario: 3 Figure-4 stacks under the
/// Repl layer, traffic before/during/after a live ct -> seq switch.
fn golden_run() -> (dpu::sim::SimStats, u64) {
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(8),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, h) = group_sim(SimConfig::lan(3, 20_060_425), &opts);
    sim.run_until(Time::ZERO + Dur::millis(200));
    for i in 0..3 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(Time::ZERO + Dur::secs(2));
    request_change(&mut sim, StackId(1), &h, &specs::seq(1));
    for i in 0..3 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(Time::ZERO + Dur::secs(8));
    let stats = sim.stats().clone();
    let fp = trace_fingerprint(&sim.merged_trace());
    (stats, fp)
}

#[test]
fn sim_through_stack_driver_matches_pre_refactor_recording() {
    let (stats, fp) = golden_run();
    // Values recorded from the pre-refactor simulator; see module docs.
    println!("stats: {stats:?}");
    println!("fingerprint: {fp:#x}");
    assert_eq!(fp, GOLDEN_FP, "merged trace diverged from the pre-refactor recording");
    assert_eq!(stats.packets_sent, GOLDEN_SENT);
    assert_eq!(stats.packets_delivered, GOLDEN_DELIVERED);
}

/// Recorded 2026-07-29 from commit 181cd88 (hand-rolled drive loops in
/// both hosts), scenario and seed as in [`golden_run`].
const GOLDEN_FP: u64 = 0x4026a4be2f99a940;
const GOLDEN_SENT: u64 = 2620;
const GOLDEN_DELIVERED: u64 = 2620;

#[test]
fn shutdown_under_in_flight_load_returns_all_stacks() {
    // Fire broadcasts into every stack and shut down immediately, while
    // packets, retransmit timers and the sequencer's ordering traffic
    // are all still in flight. Every shard must stop cleanly and hand
    // back every stack — no deadlock, no lost stack.
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let n = 24u32;
    let (rt, h) = group(&opts, |mk| Runtime::spawn(RuntimeConfig::new(n).with_shards(3), mk));
    for i in 0..n {
        send_probe(&rt, StackId(i), &h);
    }
    // No quiescing: shut down with everything in flight.
    let stacks = rt.shutdown();
    assert_eq!(stacks.len(), n as usize);
    for (i, s) in stacks.iter().enumerate() {
        assert_eq!(s.id(), StackId(i as u32));
    }
}
