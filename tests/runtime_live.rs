//! Live-runtime integration tests: the same stacks the simulator proves
//! correct run on OS threads with the wall clock, and the dynamic
//! protocol update works there too (the paper's cluster experiment in
//! miniature). Wall-clock tests are kept short and generous with
//! deadlines to stay robust on loaded CI machines.

mod common;

use common::{live_switch_scenario, wait_for_deliveries};
use dpu::repl::builder::{group, send_probe, specs, GroupStackOpts, SwitchLayer};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu_core::StackId;
use std::time::Duration;

fn opts() -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(8),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

#[test]
fn live_switch_preserves_total_order_across_shards() {
    // 3 full Figure-4 stacks multiplexed on 2 shard threads; the switch
    // is requested from stack 1 with a probe from every stack racing it.
    let (rt, h) = group(&opts(), |mk| Runtime::spawn(RuntimeConfig::new(3).with_shards(2), mk));
    std::thread::sleep(Duration::from_millis(200));
    live_switch_scenario(|_| &rt, &h, 3, &[0, 1, 2], 1, &[0, 1, 2]);
    rt.shutdown();
}

#[test]
fn live_stack_survives_lossy_network() {
    let mut cfg = RuntimeConfig::new(3);
    cfg.loss = 0.10;
    let (rt, h) = group(&opts(), |mk| Runtime::spawn(cfg, mk));

    std::thread::sleep(Duration::from_millis(200));
    for round in 0..4 {
        for node in 0..3 {
            send_probe(&rt, StackId(node), &h);
        }
        wait_for_deliveries(|_| &rt, &h, 3, (round + 1) * 3);
    }
    let stats = rt.stats();
    assert!(stats.packets_dropped > 0, "loss model must have fired");
    rt.shutdown();
}
