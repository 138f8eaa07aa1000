//! Live protocol switch across *two reactors* — the in-process version
//! of the two-OS-process demo (`cross_switch_net`). Eight full
//! group-communication stacks are split 4/4 between two epoll-backed
//! reactors; every inter-stack message crosses a real loopback UDP
//! socket (even stack-to-stack traffic inside one reactor is sent
//! through its socket). Mid-traffic, a non-sequencer stack requests
//! `changeABcast(seq(1))`; afterwards every stack must have switched
//! exactly once, drained, and delivered the same messages in the same
//! order — the paper's Figure-4 scenario over a real transport.

mod common;

use common::live_switch_scenario;
use dpu::reactor::{Reactor, ReactorConfig};
use dpu::repl::builder::{group, send_probe, specs, GroupStackOpts, SwitchLayer};
use dpu_core::probe::Probe;
use dpu_core::StackId;
use std::time::{Duration, Instant};

const N: u32 = 8;

#[test]
fn live_switch_across_two_reactors_over_loopback_udp() {
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    // Reactor A hosts stacks 0..4, reactor B hosts 4..8. A injects 2%
    // send-side loss so the switch also rides rp2p recovery.
    let mut cfg_a = ReactorConfig::new(N, (0..N / 2).map(StackId).collect());
    cfg_a.loss = 0.02;
    cfg_a.seed = 11;
    let (ra, h) = group(&opts, |mk| Reactor::spawn(cfg_a, mk));
    let ra = ra.expect("spawn reactor a");
    let cfg_b = ReactorConfig::new(N, (N / 2..N).map(StackId).collect());
    let (rb, hb) = group(&opts, |mk| Reactor::spawn(cfg_b, mk));
    let rb = rb.expect("spawn reactor b");
    // Construction is deterministic: both halves get identical handles.
    assert_eq!(h.probe, hb.probe);
    assert_eq!(h.layer, hb.layer);

    // The rendezvous two OS processes would do over a file: exchange
    // bound addresses and install them in each other's peer tables.
    for &na in ra.local_addrs() {
        rb.set_peer(na);
    }
    for &na in rb.local_addrs() {
        ra.set_peer(na);
    }

    // Probes from both reactors, then the live switch requested from a
    // non-sequencer stack on reactor B — the request itself crosses the
    // loopback socket to reach the sequencer on reactor A — with probes
    // from both reactors racing it.
    let host = |node: u32| if node < N / 2 { &ra } else { &rb };
    live_switch_scenario(host, &h, N, &[1, 6], 5, &[2, 7]);

    // All of it crossed the real sockets.
    assert!(ra.stats().packets_sent > 0 && rb.stats().packets_sent > 0);
    let a_stacks = ra.shutdown();
    let b_stacks = rb.shutdown();
    assert_eq!(a_stacks.len() + b_stacks.len(), N as usize);
}

/// ROADMAP item 4(c), decided: why `dpu_net::frag` stays although no
/// stack contains it. A probe of 60 000 bytes is adelivered by all three
/// stacks with no send error; one of 70 000 by none — `sendto` refuses a
/// frame over the UDP limit, the reactor counts the refusal as loss, and
/// `rp2p` resends the same oversize frame for as long as the run lasts.
/// Passes once `frag` sits under `rp2p` on this host (`Rp2pConfig::lower`
/// is there for it); until then CI runs it with `continue-on-error`.
#[test]
#[ignore = "known failure: nothing fragments a frame over the UDP limit on the reactor"]
fn a_70_000_byte_broadcast_is_adelivered_everywhere() {
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(70_000),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let cfg = ReactorConfig::new(3, (0..3).map(StackId).collect());
    let (r, h) = group(&opts, |mk| Reactor::spawn(cfg, mk));
    let r = r.expect("spawn reactor");
    let probe = h.probe.expect("probe");
    send_probe(&r, StackId(0), &h);
    let delivered = || {
        let on = |node| {
            r.with_stack(StackId(node), move |s| {
                s.with_module::<Probe, _>(probe, |p| p.order_head().len).expect("probe")
            })
        };
        [on(0), on(1), on(2)]
    };
    let deadline = Instant::now() + Duration::from_millis(1500);
    while delivered() != [1, 1, 1] && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let (delivered, stats) = (delivered(), r.stats());
    println!(
        "delivered per stack {delivered:?}; send_errors {} of {} sends",
        stats.send_errors, stats.packets_sent
    );
    r.shutdown();
    assert_eq!(delivered, [1, 1, 1], "the broadcast was not adelivered by every stack");
}
