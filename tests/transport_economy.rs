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
//! every broadcast cheaper. It read 135.5 while a process that acked a
//! consensus round went straight on to the next, 118.6 once it waited for
//! the decision, and 112.7 since round 0 has no estimates: its coordinator
//! proposes at once.
//!
//! The run is failure-free, so every consensus instance must end in its
//! first round: a round-1 cascade that came back would fail here.

mod common;

use dpu::repl::builder::check_run;
use dpu::sim::Sim;
use dpu_core::time::Dur;
use dpu_core::StackId;
use dpu_protocols::consensus::ConsensusModule;

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
    // the whole run's count belongs to the counted packets). 36.0 a
    // broadcast here and 0.47 per other packet. The acks barely moved
    // (35.8 a broadcast before) when consensus stopped sending a round-1
    // estimate, proposal and ack per instance; the other packets fell, so
    // the ratio rose from 0.37 to 0.44. It rose to 0.47 when the n − 1
    // round-0 estimates went, the acks again unmoved. It read 0.29 and 28
    // a broadcast while `udp` sat on `net`: with two dispatch steps fewer
    // on each side of the wire an owed ack leaves before the reverse data
    // it used to ride turns up. The limits were set at 0.44 and 36.0, each
    // + 10 %, and stand. Aging a debt a full `retransmit / 4` read 0.22
    // against 0.37, at a cost in bytes a stack (ROADMAP item 6).
    let acks_per_packet = transport.acks as f64 / (packets - transport.acks) as f64;
    assert!(acks_per_packet <= 0.48, "{acks_per_packet:.2} standalone acks per other packet");
    let acks_per_msg = transport.acks as f64 / broadcasts;
    assert!(acks_per_msg <= 39.6, "{acks_per_msg:.1} standalone acks a broadcast");

    for id in (0..7).map(StackId) {
        let round = sim.with_stack(id, |s| {
            let cons = s.bound(&dpu_protocols::CONSENSUS_SVC.into()).expect("consensus bound");
            s.with_module::<ConsensusModule, _>(cons, |m| m.max_round_seen()).expect("consensus")
        });
        assert_eq!(round, 0, "{id} took a consensus instance past round 0 with nobody suspected");
    }
}
