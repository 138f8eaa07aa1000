//! What reliable delivery costs on a healthy network, counted end to end
//! on the paper's testbed (the `fig5-ct-sim` inputs of the benchmark,
//! shortened to 3 s): n = 7 Figure-4 stacks, Repl over `abcast.ct`, 150
//! msg/s round-robin, two ct → ct replacements, zero loss.
//!
//! `rp2p` puts a frame on the wire once and reports its receipt on
//! traffic that already flows, so with nothing lost there is nothing to
//! resend, and what `rp2p` adds to the packets its users and `fd` send
//! anyway is the acks no data frame could carry. Before resends went by
//! age and acks rode the reverse traffic this run read 4 802 resends and
//! ≈ 0.8 standalone acks for every other packet.
//!
//! Packets a broadcast are printed, not bounded: beyond what `rp2p` adds
//! they measure `abcast.ct`'s batch size — how many messages share one
//! consensus instance — and a batch shrinks as the stacks get faster.
//! This run read 116.2 while responses still fanned out by service name,
//! 126.2 once they were routed by channel and ct, on the CPU that freed,
//! decided smaller batches sooner, and 132.4 with `udp` the bottom of the
//! stack: the ceiling of 125 that stood here failed on a change that made
//! every broadcast cheaper.

mod common;

use dpu::repl::builder::check_run;
use dpu::sim::Sim;
use dpu_core::time::Dur;

#[test]
fn a_lossless_run_resends_nothing_and_acks_on_the_reverse_traffic() {
    let (mut sim, h, until) = common::paper_testbed_3s(Sim::run_until);
    let sent_before = sim.stats().packets_sent;
    // Packets are counted over the load and the half second its last
    // broadcasts take to settle; the idle tail is heartbeats only.
    sim.run_until(until + Dur::millis(500));
    let packets = sim.stats().packets_sent - sent_before;
    sim.run_until(until + Dur::secs(2));

    let transport = sim.telemetry_report().transport;
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let broadcasts = report.checker.broadcast_count() as f64;
    let per_msg = packets as f64 / broadcasts;
    println!(
        "{broadcasts} broadcasts, {packets} packets ({per_msg:.1} a broadcast), {transport:?}"
    );
    assert!(broadcasts >= 440.0, "150 msg/s for 3 s, got {broadcasts}");
    assert_eq!(transport.retransmissions, 0, "nothing was lost, nothing is resent");
    assert_eq!(transport.unacked, 0, "everything sent was acknowledged");
    // What rp2p adds: standalone acks against everything else on the wire
    // (data frames and heartbeats; acks only flow while the load does, so
    // the whole run's count belongs to the counted packets). 0.37 per other
    // packet and 35.8 a broadcast here; 0.29 and 28 while `udp` sat on
    // `net`: with two dispatch steps fewer on each side of the wire an
    // owed ack leaves before the reverse data it used to ride turns up,
    // and ct, deciding smaller batches, sends more frames to answer.
    // Limits are the reading + 10 %. Aging a debt a full `retransmit / 4`
    // reads 0.22, at a cost in bytes a stack (ROADMAP item 6).
    let acks_per_packet = transport.acks as f64 / (packets - transport.acks) as f64;
    assert!(acks_per_packet <= 0.41, "{acks_per_packet:.2} standalone acks per other packet");
    let acks_per_msg = transport.acks as f64 / broadcasts;
    assert!(acks_per_msg <= 39.4, "{acks_per_msg:.1} standalone acks a broadcast");
}
