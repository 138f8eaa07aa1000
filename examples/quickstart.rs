//! Quickstart: build the paper's group communication stack on three
//! simulated machines, broadcast a few messages, replace the atomic
//! broadcast protocol on the fly (Algorithm 1), and verify the four
//! atomic broadcast properties across the switch.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dpu::repl::builder::{
    check_run, group_sim, request_change, send_probe, specs, GroupStackOpts, SwitchLayer,
};
use dpu::sim::SimConfig;
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;
use dpu_repl::abcast_repl::ReplAbcastModule;

fn main() {
    // 1. Three stacks, each: probe → r-abcast (Repl) → abcast (CT) →
    //    consensus → fd/rp2p → udp → net, in a deterministic simulation.
    let opts = GroupStackOpts {
        abcast: specs::ct(0),     // consensus-based ABcast, incarnation 0
        layer: SwitchLayer::Repl, // the paper's replacement module
        probe_pad: Some(16),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, handles) = group_sim(SimConfig::lan(3, 42), &opts);
    println!("application talks to service: {}", handles.top_service);

    // 2. Let the failure detector settle, then broadcast from everyone.
    sim.run_until(Time::ZERO + Dur::millis(300));
    for node in 0..3 {
        send_probe(&mut sim, StackId(node), &handles);
    }
    sim.run_until(Time::ZERO + Dur::secs(2));

    // 3. Replace CT-ABcast by the fixed-sequencer ABcast — on the fly.
    //    The request is atomically broadcast through the OLD protocol;
    //    its position in the total order is the switch point.
    println!("switching abcast.ct -> abcast.seq ...");
    request_change(&mut sim, StackId(0), &handles, &specs::seq(1));
    for node in 0..3 {
        send_probe(&mut sim, StackId(node), &handles); // racing the switch
    }
    sim.run_until(Time::ZERO + Dur::secs(5));
    for node in 0..3 {
        send_probe(&mut sim, StackId(node), &handles); // after the switch
    }
    sim.run_until(Time::ZERO + Dur::secs(10));

    // 4. Inspect the replacement layer and check every property the
    //    paper proves in §5.2.2.
    let layer = handles.layer.expect("repl layer");
    for node in sim.stack_ids() {
        let (sn, switches, undelivered) = sim.with_stack(node, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| {
                (m.seq_number(), m.switch_times().len(), m.undelivered_len())
            })
            .unwrap()
        });
        println!("{node}: seqNumber={sn} switches={switches} undelivered={undelivered}");
        assert_eq!(sn, 1);
        assert_eq!(undelivered, 0);
    }
    let report = check_run(&mut sim, &handles);
    report.assert_ok();
    println!(
        "all {} messages delivered on all stacks, in the same total order,",
        report.checker.broadcast_count()
    );
    println!("across the protocol replacement — validity, uniform agreement,");
    println!("uniform integrity and uniform total order all hold. ✓");
}
