//! Live (real-time, multi-threaded) dynamic protocol update: the same
//! stacks that run under the deterministic simulator run here on OS
//! threads with the wall clock, and the protocol is replaced while
//! messages flow — a miniature of the paper's cluster experiment.
//!
//! ```text
//! cargo run --example live_runtime
//! ```

use dpu::repl::builder::{group, request_change, send_probe, specs, GroupStackOpts, SwitchLayer};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu_core::probe::Probe;
use dpu_core::{ModuleId, StackId};
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::time::Duration;

fn delivered(rt: &Runtime, node: u32, probe: ModuleId) -> usize {
    rt.with_stack(StackId(node), move |s| {
        s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
    })
}

fn main() {
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(16),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (rt, h) = group(&opts, |mk| Runtime::spawn(RuntimeConfig::new(3).with_shards(2), mk));
    let probe = h.probe.expect("probe");
    let layer = h.layer.expect("repl layer");

    println!("3 live stacks multiplexed on {} shard threads; warming up ...", rt.shards());
    std::thread::sleep(Duration::from_millis(300));
    for node in 0..3 {
        send_probe(&rt, StackId(node), &h);
    }
    wait_for(&rt, probe, 3);
    println!("3 messages totally ordered in real time");

    println!("hot-swapping abcast.ct → abcast.seq while sending ...");
    request_change(&rt, StackId(0), &h, &specs::seq(1));
    for node in 0..3 {
        send_probe(&rt, StackId(node), &h);
    }
    wait_for(&rt, probe, 6);

    for node in 0..3 {
        let sn = rt.with_stack(StackId(node), move |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).expect("repl")
        });
        assert_eq!(sn, 1, "stack {node} switched");
    }
    // Transcript equality across the live switch.
    let logs: Vec<Vec<_>> = (0..3)
        .map(|node| {
            rt.with_stack(StackId(node), move |s| {
                s.with_module::<Probe, _>(probe, |p| {
                    p.delivered().iter().map(|r| r.msg).collect::<Vec<_>>()
                })
                .expect("probe")
            })
        })
        .collect();
    assert_eq!(logs[1], logs[0]);
    assert_eq!(logs[2], logs[0]);
    let stats = rt.stats();
    println!(
        "live switch complete: 6 messages, identical order on all stacks, \
         {} packets on the wire. ✓",
        stats.packets_sent
    );
    rt.shutdown();
}

fn wait_for(rt: &Runtime, probe: ModuleId, count: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if (0..3).all(|node| delivered(rt, node, probe) >= count) {
            return;
        }
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {count} deliveries");
        std::thread::sleep(Duration::from_millis(20));
    }
}
