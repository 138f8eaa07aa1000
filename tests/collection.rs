//! Collection of per-message protocol state by stability, seen from the
//! report: `transport.held` is what the consensus and `abcast.ct` modules
//! of a group still hold — a handful per stack while every member
//! answers, growing with the traffic while one does not.
//!
//! A crashed or silent peer is never heard, so the survivors keep the
//! tombstone of every instance decided after it fell silent — the same
//! pin, for the same reason, as on module retirement
//! (`tests/retirement.rs`). What lifts both is ROADMAP item 1(b): drive
//! the heard-sets from the `GmModule` view, so an excluded member stops
//! counting.

use dpu::repl::builder::{check_run, drive_load, group_sim, GroupStackOpts};
use dpu::sim::{Sim, SimConfig};
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;
use dpu_protocols::consensus::ConsensusModule;

const N: u32 = 5;

/// `(instances decided, instances held)` by the consensus module on `id`.
fn consensus_state(sim: &mut Sim, id: StackId) -> (u64, usize) {
    sim.with_stack(id, |s| {
        let cons = s.bound(&dpu_protocols::CONSENSUS_SVC.into()).expect("consensus bound");
        s.with_module::<ConsensusModule, _>(cons, |m| (m.decided_count(), m.live_instances()))
            .expect("consensus module")
    })
}

#[test]
fn a_crashed_peer_pins_collection_and_the_report_shows_it() {
    let (mut sim, h) = group_sim(SimConfig::lan(N, 83), &GroupStackOpts::default());
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 100.0, until);
    sim.run_until(Time::ZERO + Dur::secs(1));
    let survivors = [StackId(0), StackId(1), StackId(2), StackId(3)];
    let before: Vec<(u64, usize)> =
        survivors.iter().map(|&id| consensus_state(&mut sim, id)).collect();
    let held_before = sim.telemetry_report().transport.held;
    assert!(held_before <= u64::from(N) * 12, "held = {held_before} with everyone alive");
    sim.crash_at(sim.now(), StackId(4));
    sim.run_until(until + Dur::secs(4));

    // Every instance a survivor decided after the crash is still there:
    // the crashed stack's `Decide` never comes.
    let mut pinned = 0;
    for (&id, (decided_before, _)) in survivors.iter().zip(&before) {
        let (decided, live) = consensus_state(&mut sim, id);
        let since = (decided - decided_before) as usize;
        assert!(since > 50, "{id} decided only {since} instances after the crash");
        assert!(live >= since, "{id} holds {live} instances, decided {since} since the crash");
        assert!(live <= since + 12, "{id} holds {live} instances, decided {since} since the crash");
        pinned += live as u64;
    }
    let held = sim.telemetry_report().transport.held;
    println!("held {held_before} before the crash, {held} after ({pinned} on the survivors)");
    assert!(held >= pinned, "report shows held = {held}, the survivors hold {pinned}");
    assert!(held > 10 * held_before, "held = {held}, {held_before} before the crash");

    // ct tolerates the crash: the survivors deliver everything, in one
    // order.
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    for id in survivors {
        assert_eq!(report.checker.delivery_count(id), sent, "{id} missed deliveries");
    }
}

#[test]
fn without_a_crash_held_stays_at_in_flight_plus_namespaces() {
    let (mut sim, h) = group_sim(SimConfig::lan(N, 83), &GroupStackOpts::default());
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 100.0, until);
    let mut peak = 0;
    while sim.now() < until + Dur::secs(2) {
        let next = sim.now() + Dur::millis(100);
        sim.run_until(next);
        peak = peak.max(sim.telemetry_report().transport.held);
    }
    // Per stack: one namespace's last tombstone, the instance being
    // decided and the one behind it, a few messages not yet ordered.
    assert!(peak <= u64::from(N) * 5, "held peaked at {peak}");
    // At rest only tombstones nobody proposed beyond are left.
    let held = sim.telemetry_report().transport.held;
    println!("held peaked at {peak}, {held} at rest");
    assert!((u64::from(N)..=2 * u64::from(N)).contains(&held), "held = {held} at rest");
    let decided = consensus_state(&mut sim, StackId(0)).0;
    assert!(decided > 200, "the run must decide instances to collect: {decided}");
    check_run(&mut sim, &h).assert_ok();
}
