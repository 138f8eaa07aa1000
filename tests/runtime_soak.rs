//! The scale soak for the sharded runtime: 256 full group-communication
//! stacks multiplexed on 4 shard threads, performing a live protocol
//! switch (the paper's `changeABcast`) while messages flow. This is the
//! "thousands of stacks per process" architecture exercised end to end:
//! every stack is driven through `dpu_core::host::StackDriver`, timers
//! ride the per-shard wheels, packets are delivery-timestamped.
//!
//! The group uses the fixed-sequencer broadcast (seq -> rp2p -> udp): a
//! 256-member Chandra–Toueg stack would put an all-to-all heartbeat
//! failure detector on the wire (n² packets per period), which is a
//! network-model workload, not a host-scheduling one. The sequencer
//! variant keeps the message complexity linear so the test exercises
//! what it is about: many drivers per shard racing timers, packets,
//! control traffic and a switch.
//!
//! CI runs this with `--release` so shard scheduling races are exercised
//! at real speed.

use dpu::repl::builder::{
    assert_one_delivery_order, group, request_change, send_probe, specs, GroupStackOpts,
    SwitchLayer,
};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu_core::probe::Probe;
use dpu_core::StackId;
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::time::{Duration, Instant};

const N: u32 = 256;
const SHARDS: u32 = 4;

fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let limit = Instant::now() + deadline;
    loop {
        if done() {
            return;
        }
        assert!(Instant::now() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn soak_256_stacks_on_4_shards_switch_live() {
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (rt, h) = group(&opts, |mk| Runtime::spawn(RuntimeConfig::new(N).with_shards(SHARDS), mk));
    assert_eq!(rt.n(), N);
    assert_eq!(rt.shards(), SHARDS);
    let probe = h.probe.expect("probe");
    let layer = h.layer.expect("repl layer");

    let delivered = |node: u32| {
        rt.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
        })
    };
    let all_delivered = |count: usize| (0..N).all(|node| delivered(node) >= count);

    std::thread::sleep(Duration::from_millis(300));

    // Phase 1: broadcasts from four corners of the group, totally
    // ordered on all 256 stacks.
    for node in [0, 63, 128, 255] {
        send_probe(&rt, StackId(node), &h);
    }
    wait_until("phase-1 deliveries on all 256 stacks", Duration::from_secs(120), || {
        all_delivered(4)
    });

    // The live switch, requested mid-traffic from a non-sequencer stack.
    request_change(&rt, StackId(17), &h, &specs::seq(1));
    for node in [1, 64, 129, 254] {
        send_probe(&rt, StackId(node), &h);
    }
    wait_until("post-switch deliveries on all 256 stacks", Duration::from_secs(120), || {
        all_delivered(8)
    });

    // Every stack applied exactly one switch and drained.
    for node in 0..N {
        let (sn, undelivered) = rt.with_stack(StackId(node), move |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| (m.seq_number(), m.undelivered_len()))
                .expect("repl layer")
        });
        assert_eq!(sn, 1, "stack {node} must have switched exactly once");
        assert_eq!(undelivered, 0, "stack {node} must have no stuck messages");
    }

    // All 256 stacks delivered the same 8 messages in the same order:
    // equal delivery-order heads, folded by each probe as it delivered.
    let head = assert_one_delivery_order(|_| &rt, &h, (0..N).map(StackId));
    assert_eq!(head.len, 8);

    let stacks = rt.shutdown();
    assert_eq!(stacks.len(), N as usize);
}
