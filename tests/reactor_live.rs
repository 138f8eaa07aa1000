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
use dpu::net::sockframe::{MAX_PIECES, PIECE};
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

/// A frame over one datagram's limit reaches every stack: a probe of
/// 70 000 bytes (two pieces on the wire) and one of the most pieces a
/// frame may go in (`sockframe::MAX_PIECES`) are each adelivered by all
/// three stacks of one reactor, with no send error. The reactor's codec
/// sends a frame over `sockframe::PIECE` bytes as pieces and delivers it
/// once the last one is in; `sendto` refuses any datagram over UDP's
/// 65 507 bytes, so without the split no stack adelivers either probe and
/// `rp2p` resends it for ever. A probe one piece larger is not sent: its
/// pieces would overflow the receiving socket's buffer unseen, so the
/// reactor refuses it and counts each try in `send_errors`.
#[test]
fn a_70_000_byte_broadcast_is_adelivered_everywhere() {
    let largest = MAX_PIECES as usize * PIECE - 1_000;
    for (pad, sendable) in [(70_000, true), (largest, true), (largest + 2_000, false)] {
        let opts = GroupStackOpts {
            abcast: specs::ct(0),
            layer: SwitchLayer::Repl,
            probe_pad: Some(pad),
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
        let done = || if sendable { delivered() == [1, 1, 1] } else { r.stats().send_errors > 0 };
        let deadline = Instant::now() + Duration::from_millis(1500);
        while !done() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let (delivered, stats) = (delivered(), r.stats());
        println!(
            "{pad} B: delivered per stack {delivered:?}; send_errors {} of {} sends",
            stats.send_errors, stats.packets_sent
        );
        r.shutdown();
        if sendable {
            assert_eq!(delivered, [1, 1, 1], "the {pad}-byte broadcast was not adelivered");
            assert_eq!(stats.send_errors, 0, "{pad} B: {stats:?}");
        } else {
            assert_eq!(delivered, [0, 0, 0], "{pad} B: a frame over MAX_PIECES was sent");
            assert!(stats.send_errors > 0, "{pad} B: a refused frame went uncounted: {stats:?}");
        }
    }
}
