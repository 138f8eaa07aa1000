//! Scenarios more than one test binary runs.
//!
//! The live-switch scenario shared by `runtime_live` and `reactor_live`:
//! probe → live switch with probes racing it → check that every stack
//! switched once, drained, and delivered everything in one total order.
//! Written once over [`Host`]; the caller supplies which host serves
//! which stack, so a group may sit on one runtime or span two reactors.
//!
//! The paper's testbed in the simulator ([`paper_testbed_3s`]), whose
//! packets `transport_economy` counts and whose dispatch steps
//! `dispatch_economy` counts.

#![allow(dead_code)] // each test binary uses its own subset

use dpu::repl::builder::{
    assert_one_delivery_order, drive_load, group_sim, request_change, send_probe, specs,
    GroupStackOpts, Handles, SwitchLayer,
};
use dpu::sim::{Sim, SimConfig};
use dpu_core::abcast_check::AbcastChecker;
use dpu_core::host::Host;
use dpu_core::probe::Probe;
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::time::{Duration, Instant};

pub fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let limit = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < limit, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Block until every one of the `n` stacks has delivered `count` probes.
pub fn wait_for_deliveries<H: Host>(host_of: impl Fn(u32) -> H, h: &Handles, n: u32, count: usize) {
    let probe = h.probe.expect("probe");
    wait_until(&format!("{count} deliveries on all {n} stacks"), Duration::from_secs(60), || {
        (0..n).all(|node| {
            host_of(node).with_stack(StackId(node), move |s| {
                s.with_module::<Probe, _>(probe, |p| p.order_head().len).expect("probe")
            }) >= count as u64
        })
    });
}

/// `before` send one probe each; `requester` asks for `seq(1)` with the
/// `racing` probes sent right behind the request. Asserts: every stack
/// applied exactly one switch and holds no stuck message, the four
/// ABcast properties hold on the recorded probe logs, and every stack
/// delivered all `before.len() + racing.len()` messages.
pub fn live_switch_scenario<H: Host>(
    host_of: impl Fn(u32) -> H,
    h: &Handles,
    n: u32,
    before: &[u32],
    requester: u32,
    racing: &[u32],
) {
    let probe = h.probe.expect("probe");
    let layer = h.layer.expect("repl layer");

    for &node in before {
        send_probe(host_of(node), StackId(node), h);
    }
    wait_for_deliveries(&host_of, h, n, before.len());

    request_change(host_of(requester), StackId(requester), h, &specs::seq(1));
    for &node in racing {
        send_probe(host_of(node), StackId(node), h);
    }
    let total = before.len() + racing.len();
    wait_for_deliveries(&host_of, h, n, total);

    // One total order, from the heads the probes folded as they delivered
    // (O(1) a stack); the checker below then holds the other three
    // properties against the records.
    let head = assert_one_delivery_order(|id| host_of(id.0), h, (0..n).map(StackId));
    assert_eq!(head.len, total as u64, "every stack delivered everything, once");

    let mut checker = AbcastChecker::new((0..n).map(StackId));
    for node in 0..n {
        let id = StackId(node);
        let (sn, undelivered) = host_of(node).with_stack(id, move |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| (m.seq_number(), m.undelivered_len()))
                .expect("repl layer")
        });
        assert_eq!(sn, 1, "stack {node} must have switched exactly once");
        assert_eq!(undelivered, 0, "stack {node} must have no stuck messages");
        let (sent, delivered) = host_of(node).with_stack(id, move |s| {
            s.with_module::<Probe, _>(probe, |p| (p.sent().to_vec(), p.delivered().to_vec()))
                .expect("probe")
        });
        for (msg, t) in sent {
            checker.record_broadcast(msg, id, t);
        }
        for rec in delivered {
            checker.record_delivery(rec.msg, id, rec.delivered_at);
        }
    }
    checker.assert_ok();
}

/// The `fig5-ct-sim` inputs of the benchmark, shortened to 3 s: n = 7
/// Figure-4 stacks, Repl over `abcast.ct`, zero loss, seed 42, advanced
/// through a 500 ms warm-up by `warm_up` (`Sim::run_until`, or a caller's
/// loop that reads the trace on the way); then scheduled, not yet run:
/// 150 msg/s round-robin until the returned time, and a ct → ct
/// replacement after 1 s and after 2 s.
pub fn paper_testbed_3s(mut warm_up: impl FnMut(&mut Sim, Time)) -> (Sim, Handles, Time) {
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, h) = group_sim(SimConfig::lan(7, 42), &opts);
    warm_up(&mut sim, Time::ZERO + Dur::millis(500));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 150.0, until);
    for k in 1..=2u64 {
        let h = h.clone();
        sim.schedule_in(Dur::secs(k), move |sim| {
            request_change(sim, StackId(k as u32), &h, &specs::ct(k))
        });
    }
    (sim, h, until)
}
