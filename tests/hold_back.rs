//! A frame that arrives before the module it is for waits for it (ROADMAP
//! item 1(a), the cross-variant half).
//!
//! 256 stacks in 16 clusters switch from a flat sequencer to the
//! hierarchical abcast under constant load. A cluster sequencer that has
//! already switched forwards an ordered batch (`Fwd`) to the merge
//! leader; the leader, busy fanning out the switch as the old sequencer,
//! has not created its `abcast.hier` yet, so nobody on the leader's stack
//! listens on that `rp2p` channel. Until the stack held such a response
//! back for the first module created to listen there, the frame was
//! dropped — `rp2p` had already acked it, so it never came again — and
//! the broadcasts it carried were lost on every stack.
//!
//! Exposed when `udp` started sending at the edge (one dispatch step less
//! per datagram moves who is ahead of whom). Over seeds 1–30 of this
//! scenario with the load running to 1 s, four seeds (1, 17, 25, 28) lost
//! one message each with the edge and no hold-back, none before either,
//! none with both; each of the four held and released exactly one frame.
//! No smaller group (64 or 128 stacks, seeds 1–60) loses anything, so the
//! test keeps 256 stacks and cuts the load to 400 ms: ≈ 1 s in release,
//! 8 s in debug. Which seeds reach the case moves with the timing: when the
//! namespace left the frame bodies for the channel (a byte less a frame),
//! seed 17 stopped reaching it, and of seeds 1–40 at 400 ms, 21, 34 and 38
//! held one frame each and lost one broadcast without the hold-back. Since
//! a fan-out to many peers is one `rp2p` call (one dispatch step, not one
//! a peer), only seed 37 of 1–40 reaches it: it holds and releases one
//! frame, and with the hold-back gated off it loses a broadcast.

use dpu::repl::builder::{check_run, drive_load, group_sim, request_change, specs};
use dpu::repl::builder::{GroupStackOpts, SwitchLayer};
use dpu::sim::{CpuConfig, NetConfig, SimConfig};
use dpu_core::time::{Dur, Time};
use dpu_core::{ModuleSpec, StackId};
use dpu_protocols::abcast::hier::{HierAbcastParams, KIND as HIER_KIND};

/// Seq → hier at `n` stacks, as the benchmark's `switch-1k-sim` sets them
/// up: the hold-back counters once every stack has delivered everything.
fn seq_to_hier_under_load(n: u32, seed: u64) -> dpu_core::telemetry::HoldBackCounters {
    let mut cfg = SimConfig::clustered(n, seed, n / 16, NetConfig::datacenter(), NetConfig::lan());
    cfg.cpu = CpuConfig::fast();
    cfg.trace = false;
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &dpu::net::rp2p::Rp2pConfig {
            retransmit: Dur::millis(100),
            lower: dpu::net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: vec![(dpu::net::RP2P_SVC.to_string(), rp2p)],
    };
    let (mut sim, h) = group_sim(cfg, &opts);
    sim.run_until(Time::ZERO + Dur::millis(200));
    let load_end = Time::ZERO + Dur::millis(600);
    drive_load(&mut sim, &h, 1000.0, load_end);
    let hier = ModuleSpec::with_params(
        HIER_KIND,
        &HierAbcastParams { namespace: 1, resend: Dur::secs(30) },
    );
    sim.schedule(Time::ZERO + Dur::millis(500), {
        let h = h.clone();
        move |sim| request_change(sim, StackId(7), &h, &hier)
    });
    sim.run_until(load_end + Dur::secs(1));
    let held = sim.telemetry_report().hold_back;
    println!("n = {n}, seed {seed}: {held:?}");
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    for id in sim.stack_ids() {
        assert_eq!(report.checker.delivery_count(id), sent, "{id} missed deliveries");
    }
    held
}

#[test]
fn a_frame_that_arrives_before_its_module_is_not_lost() {
    let held = seq_to_hier_under_load(256, 37);
    assert!(held.released > 0, "the run must hold a frame back to test anything: {held:?}");
    assert_eq!(held.dropped, 0);
}
