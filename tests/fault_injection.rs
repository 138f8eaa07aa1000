//! Fault-injection integration tests: the replacement algorithm must
//! preserve the atomic broadcast properties under message loss,
//! duplication, crashes and partitions — the asynchronous-system
//! conditions the paper's proofs (§5.2.2) assume.

use dpu::repl::builder::{
    check_run, drive_load, group_sim, request_change, send_probe, specs, GroupStackOpts,
    SwitchLayer,
};
use dpu::sim::{NetConfig, SimConfig, Topology};
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;

fn opts() -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(16),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

#[test]
fn switch_survives_heavy_message_loss() {
    let mut cfg = SimConfig::lan(3, 5);
    cfg.topology = Topology::flat(NetConfig::lossy(0.20));
    let (mut sim, h) = group_sim(cfg, &opts());
    sim.run_until(Time::ZERO + Dur::millis(500));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 30.0, until);
    let h2 = h.clone();
    sim.schedule_in(Dur::millis(1500), move |sim| {
        request_change(sim, StackId(0), &h2, &specs::ct(1));
    });
    sim.run_until(until + Dur::secs(25));
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    assert!(sent > 50);
    for id in sim.stack_ids() {
        assert_eq!(report.checker.delivery_count(id), sent, "stack {id}");
    }
    assert!(sim.stats().packets_dropped() > 0, "loss model must have fired");
}

#[test]
fn switch_survives_duplicated_packets() {
    let mut cfg = SimConfig::lan(3, 9);
    cfg.topology = Topology::flat(NetConfig { duplicate: 0.3, ..NetConfig::lan() });
    let (mut sim, h) = group_sim(cfg, &opts());
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(2);
    drive_load(&mut sim, &h, 40.0, until);
    let h2 = h.clone();
    sim.schedule_in(Dur::secs(1), move |sim| {
        request_change(sim, StackId(2), &h2, &specs::ct(1));
    });
    sim.run_until(until + Dur::secs(10));
    check_run(&mut sim, &h).assert_ok();
}

#[test]
fn crash_during_switch_preserves_properties_for_survivors() {
    // Crash a non-initiator right around the switch point; the CT-based
    // protocols tolerate one crash out of five (majority = 3).
    let (mut sim, h) = group_sim(SimConfig::lan(5, 21), &opts());
    sim.run_until(Time::ZERO + Dur::millis(500));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 40.0, until);
    let h2 = h.clone();
    sim.schedule_in(Dur::millis(1400), move |sim| {
        request_change(sim, StackId(0), &h2, &specs::ct(1));
    });
    sim.schedule_in(Dur::millis(1450), |sim| {
        sim.crash_at(sim.now(), StackId(4));
    });
    sim.run_until(until + Dur::secs(20));
    // The checker exempts the crashed stack from liveness obligations
    // but still checks uniform properties on what it delivered.
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    for id in [0u32, 1, 2, 3].map(StackId) {
        assert_eq!(
            report.checker.delivery_count(id),
            report.checker.broadcast_count(),
            "survivor {id}"
        );
    }
}

#[test]
fn crash_of_the_initiator_right_after_requesting_a_switch() {
    // The switch request is atomically broadcast, so either it is
    // ordered (everyone switches) or it is not (nobody does) — even if
    // the initiator dies immediately after calling changeABcast.
    let (mut sim, h) = group_sim(SimConfig::lan(5, 33), &opts());
    sim.run_until(Time::ZERO + Dur::millis(500));
    for i in 0..5 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(Time::ZERO + Dur::secs(2));
    request_change(&mut sim, StackId(4), &h, &specs::ct(1));
    sim.crash_at(sim.now() + Dur::micros(200), StackId(4));
    sim.run_until(Time::ZERO + Dur::secs(8));
    for i in 0..4 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(Time::ZERO + Dur::secs(20));
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    // Survivors agree on whether the switch happened.
    let layer = h.layer.unwrap();
    let sns: Vec<u64> = [0u32, 1, 2, 3]
        .iter()
        .map(|&i| {
            sim.with_stack(StackId(i), |s| {
                s.with_module::<dpu_repl::abcast_repl::ReplAbcastModule, _>(layer, |m| {
                    m.seq_number()
                })
                .unwrap()
            })
        })
        .collect();
    assert!(sns.iter().all(|&s| s == sns[0]), "survivors disagree on the switch: {sns:?}");
}

#[test]
fn partition_delays_but_does_not_break_the_switch() {
    let (mut sim, h) = group_sim(SimConfig::lan(3, 27), &opts());
    sim.run_until(Time::ZERO + Dur::millis(500));
    for i in 0..3 {
        send_probe(&mut sim, StackId(i), &h);
    }
    // Cut stack 2 off, request the switch in the majority partition.
    sim.partition(&[StackId(0), StackId(1)], &[StackId(2)]);
    sim.run_until(sim.now() + Dur::millis(200));
    request_change(&mut sim, StackId(0), &h, &specs::ct(1));
    sim.run_until(sim.now() + Dur::secs(3));
    // The majority switches; stack 2 cannot yet.
    let layer = h.layer.unwrap();
    let sn2 = sim.with_stack(StackId(2), |s| {
        s.with_module::<dpu_repl::abcast_repl::ReplAbcastModule, _>(layer, |m| m.seq_number())
            .unwrap()
    });
    assert_eq!(sn2, 0, "partitioned stack cannot have switched yet");
    // Heal: stack 2 catches up (weak protocol-operationability).
    sim.heal_partitions();
    sim.run_until(sim.now() + Dur::secs(25));
    for i in 0..3 {
        let sn = sim.with_stack(StackId(i), |s| {
            s.with_module::<dpu_repl::abcast_repl::ReplAbcastModule, _>(layer, |m| m.seq_number())
                .unwrap()
        });
        assert_eq!(sn, 1, "stack {i} must catch up after heal");
    }
    check_run(&mut sim, &h).assert_ok();
}

/// Hierarchical abcast with a fast failover timeout, so the rotation
/// machinery acts within the test horizon.
fn hier_spec(ns: u64) -> dpu_core::ModuleSpec {
    use dpu::protocols::abcast::hier::{HierAbcastParams, KIND};
    dpu_core::ModuleSpec::with_params(
        KIND,
        &HierAbcastParams { namespace: ns, resend: Dur::millis(300) },
    )
}

fn clustered_cfg(n: u32, seed: u64, sz: u32) -> SimConfig {
    SimConfig::clustered(n, seed, sz, NetConfig::datacenter(), NetConfig::lan())
}

#[test]
fn hier_local_sequencer_crash_mid_stream_recovers_one_total_order() {
    // Unlike the flat sequencer (negative control below), the
    // hierarchical variant survives a *local* sequencer crash: cluster
    // 1's members rotate to the next candidate, which claims the relay
    // role and receives the leader's log replay — the survivors
    // converge on a single gap-free total order.
    let o = GroupStackOpts { abcast: hier_spec(0), ..opts() };
    let (mut sim, h) = group_sim(clustered_cfg(9, 41, 3), &o);
    sim.run_until(Time::ZERO + Dur::millis(500));
    let until = sim.now() + Dur::secs(4);
    drive_load(&mut sim, &h, 40.0, until);
    // Crash cluster 1's primary sequencer (node 3) mid-stream.
    sim.schedule_in(Dur::millis(1500), |sim| {
        sim.crash_at(sim.now(), StackId(3));
    });
    sim.run_until(until + Dur::secs(25));
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let survivors = [0u32, 1, 2, 4, 5, 6, 7, 8].map(StackId);
    let counts: Vec<usize> =
        survivors.iter().map(|&id| report.checker.delivery_count(id)).collect();
    assert!(counts[0] > 0, "survivors must keep delivering after the crash");
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "survivors disagree on the delivered set: {counts:?}"
    );
}

#[test]
fn hier_intercluster_partition_heals_into_one_total_order() {
    // Partition the two clusters: cluster 1's forwards, claims and the
    // leader's commits sit in RP2P retransmit queues until the heal,
    // after which both sides converge on one complete total order.
    let o = GroupStackOpts { abcast: hier_spec(0), ..opts() };
    let (mut sim, h) = group_sim(clustered_cfg(6, 43, 3), &o);
    sim.run_until(Time::ZERO + Dur::millis(500));
    for i in 0..6 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(sim.now() + Dur::secs(2));
    sim.partition(&[StackId(0), StackId(1), StackId(2)], &[StackId(3), StackId(4), StackId(5)]);
    // Traffic on both sides of the cut.
    for i in 0..6 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(sim.now() + Dur::secs(3));
    sim.heal_partitions();
    sim.run_until(sim.now() + Dur::secs(30));
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    assert_eq!(sent, 12);
    for id in sim.stack_ids() {
        assert_eq!(report.checker.delivery_count(id), sent, "stack {id} has a gap");
    }
}

#[test]
fn non_fault_tolerant_protocol_stalls_on_crash_and_checker_sees_it() {
    // Negative control: the sequencer protocol is *not* crash-tolerant.
    // Crash the sequencer and verify messages stop being delivered —
    // i.e. our checker and harness can actually detect broken runs.
    let o = GroupStackOpts { abcast: specs::seq(0), ..opts() };
    let (mut sim, h) = group_sim(SimConfig::lan(3, 3), &o);
    sim.run_until(Time::ZERO + Dur::millis(300));
    sim.crash_at(sim.now(), StackId(0)); // stack 0 is the sequencer
    sim.run_until(sim.now() + Dur::millis(500));
    send_probe(&mut sim, StackId(1), &h);
    sim.run_until(sim.now() + Dur::secs(5));
    let probe = h.probe.unwrap();
    let delivered = sim.with_stack(StackId(1), |s| {
        s.with_module::<dpu_core::probe::Probe, _>(probe, |p| p.delivered().len()).unwrap()
    });
    assert_eq!(delivered, 0, "sequencer down ⇒ nothing can be ordered");
    // Validity is indeed violated for the correct sender:
    let report = check_run(&mut sim, &h);
    let violations = report.checker.check();
    assert!(!violations.is_empty(), "checker must flag the stalled run");
}
