//! Collection of per-message protocol state by stability, seen from the
//! report: `transport.held` is what the consensus and `abcast.ct` modules
//! of a group still hold — a handful per stack while every member
//! answers, growing with the traffic while one does not.
//!
//! A crashed or silent peer's decided watermark stops, so the survivors
//! keep the tombstone of every instance decided after it fell silent —
//! the same pin, for the same reason, as on module retirement
//! (`tests/retirement.rs`). Without a membership module nothing in the
//! stack can tell a crashed member from a slow one, and the pin stays:
//! the first test pins that, and that consensus names the member
//! (`ConsensusModule::pinned_by`). Where a `GmModule` excludes whom the
//! failure detector suspects, the view it passes down makes the excluded
//! member stop counting, and both pins lift (the last test).

mod common;

use dpu::repl::builder::{check_run, drive_load, group_sim, request_change, specs, GroupStackOpts};
use dpu::sim::{Sim, SimConfig};
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;
use dpu_protocols::consensus::ConsensusModule;
use dpu_repl::abcast_repl::ReplAbcastModule;

const N: u32 = 5;

/// `f` of the consensus module on `id`.
fn consensus<R>(sim: &mut Sim, id: StackId, f: impl FnOnce(&mut ConsensusModule) -> R) -> R {
    sim.with_stack(id, |s| {
        let cons = s.bound(&dpu_protocols::CONSENSUS_SVC.into()).expect("consensus bound");
        s.with_module::<ConsensusModule, _>(cons, f).expect("consensus module")
    })
}

/// `(instances decided, instances held)` by the consensus module on `id`.
fn consensus_state(sim: &mut Sim, id: StackId) -> (u64, usize) {
    consensus(sim, id, |m| (m.decided_count(), m.live_instances()))
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
    // Each survivor names the members whose watermark holds it back.
    // Round 0's coordinator, stack 0, hears every member's acks and names
    // the crashed one alone; a participant hears the others only through
    // the coordinator's `stable`, which stopped with stack 4, and names
    // every member it cannot tell apart.
    for id in survivors {
        let pin = consensus(&mut sim, id, |m| m.pinned_by());
        println!("{id}: collection pinned by {pin:?}");
        assert!(pin.contains(&StackId(4)), "{id} names {pin:?}");
    }
    assert_eq!(consensus(&mut sim, StackId(0), |m| m.pinned_by()), [StackId(4)]);

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

#[test]
fn a_crashed_peer_excluded_by_the_view_pins_nothing() {
    let (mut sim, h, gm) =
        common::excluding_group_sim(SimConfig::lan(N, 83), &GroupStackOpts::default());
    let layer = h.layer.expect("replacement layer");
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 100.0, until);
    sim.run_until(Time::ZERO + Dur::secs(1));
    let held_before = sim.telemetry_report().transport.held;
    // Stack 4 crashes, and a replacement follows at once: every survivor
    // keeps the replaced module until stack 4 is heard or excluded.
    sim.crash_at(sim.now(), StackId(4));
    sim.run_until(sim.now() + Dur::millis(50));
    request_change(&mut sim, StackId(0), &h, &specs::ct(1));
    sim.run_until(until + Dur::secs(4));

    let survivors = [StackId(0), StackId(1), StackId(2), StackId(3)];
    let mut since = 0;
    for id in survivors {
        let view = common::view(&mut sim, id, gm);
        assert_eq!(view.members, survivors, "{id}: stack 4 is excluded");
        since += consensus_state(&mut sim, id).0;
        let pin = consensus(&mut sim, id, |m| m.pinned_by());
        assert!(!pin.contains(&StackId(4)), "{id}: the excluded stack pins nothing: {pin:?}");
        let repl = sim.with_stack(id, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| {
                (m.seq_number(), m.retired_total(), m.pending_retirement())
            })
        });
        assert_eq!(repl, Some((1, 1, 0)), "{id}: (sn, retired, pending)");
    }
    let held = sim.telemetry_report().transport.held;
    println!("held {held_before} before the crash, {held} after the exclusion ({since} decided)");
    assert!(held <= u64::from(N) * 12, "held = {held} after the exclusion");
    assert!(since > 4 * 200, "the survivors decided {since} instances");

    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    for id in survivors {
        assert_eq!(report.checker.delivery_count(id), sent, "{id} missed deliveries");
    }
}
