//! What reliable delivery costs on a healthy network, counted end to end
//! on the paper's testbed (the `fig5-ct-sim` inputs of the benchmark,
//! shortened to 3 s): n = 7 Figure-4 stacks, Repl over `abcast.ct`, 150
//! msg/s round-robin, two ct → ct replacements, zero loss.
//!
//! `rp2p` puts a frame on the wire once and reports its receipt on
//! traffic that already flows, so with nothing lost there is nothing to
//! resend, and a broadcast costs its data frames, the acks no data frame
//! could carry, and `fd`'s heartbeats. Before resends went by age and acks
//! rode the reverse traffic this run read 4 802 resends and 139.6 packets
//! a broadcast.

use dpu::repl::builder::{
    check_run, drive_load, group_sim, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu::sim::SimConfig;
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;

#[test]
fn a_lossless_run_resends_nothing_and_acks_on_the_reverse_traffic() {
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, h) = group_sim(SimConfig::lan(7, 42), &opts);
    sim.run_until(Time::ZERO + Dur::millis(500));
    let sent_before = sim.stats().packets_sent;
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 150.0, until);
    for k in 1..=2u64 {
        let h = h.clone();
        sim.schedule_in(Dur::secs(k), move |sim| {
            request_change(sim, StackId(k as u32), &h, &specs::ct(k))
        });
    }
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
    assert!(per_msg <= 125.0, "{per_msg:.1} packets a broadcast");
    // Well under one standalone ack per data frame (it was one for one).
    let acks_per_msg = transport.acks as f64 / broadcasts;
    assert!(acks_per_msg <= 35.0, "{acks_per_msg:.1} standalone acks a broadcast");
}
