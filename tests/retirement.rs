//! Retirement of replaced incarnations (the second stated deviation in
//! `dpu_repl::abcast_repl`): a replaced module goes once every stack has
//! been heard under the new protocol — never earlier, whatever the
//! outgoing protocol relays through its peers; a stack that lags keeps
//! the old protocol alive everywhere; a crashed peer pins it.

use dpu::repl::builder::{
    check_run, drive_load, group_sim, request_change, specs, GroupStackOpts, Handles,
};
use dpu::sim::{NetConfig, Sim, SimConfig, Topology};
use dpu_core::time::{Dur, Time};
use dpu_core::trace::{TraceEvent, TraceLog};
use dpu_core::{ModuleId, ModuleSpec, StackId};
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::collections::BTreeMap;

/// `(seqNumber, retired, pending)` of the replacement module on `id`.
fn repl_state(sim: &mut Sim, h: &Handles, id: StackId) -> (u64, u64, usize) {
    let layer = h.layer.expect("replacement layer present");
    sim.with_stack(id, |s| {
        s.with_module::<ReplAbcastModule, _>(layer, |m| {
            (m.seq_number(), m.retired_total(), m.pending_retirement())
        })
        .expect("replacement module")
    })
}

/// Unbound `abcast.*` modules still in stack `id`.
fn unbound_abcast_modules(sim: &Sim, id: StackId) -> usize {
    let stack = sim.stack(id);
    let bound = stack.bound(&dpu_protocols::ABCAST_SVC.into());
    stack.modules().filter(|(m, kind)| kind.starts_with("abcast.") && Some(*m) != bound).count()
}

/// The safety half of the rule, read off the trace: when stack `i`
/// destroys its k-th abcast incarnation, every stack has already
/// unbound *its* k-th (construction is deterministic, so the k-th
/// `abcast.*` module created on each stack is the same incarnation).
fn assert_nothing_destroyed_while_bound_anywhere(trace: &TraceLog, stacks: &[StackId]) {
    let mut incarnations: BTreeMap<StackId, Vec<ModuleId>> = BTreeMap::new();
    let mut unbound_at: BTreeMap<(StackId, usize), Time> = BTreeMap::new();
    let mut destroyed = Vec::new();
    for (t, ev) in trace.events() {
        match ev {
            TraceEvent::ModuleCreated { stack, module, kind } if kind.starts_with("abcast.") => {
                incarnations.entry(*stack).or_default().push(*module);
            }
            TraceEvent::Unbind { stack, module, .. } => {
                let of_stack = incarnations.get(stack).map_or(&[][..], Vec::as_slice);
                if let Some(k) = of_stack.iter().position(|m| m == module) {
                    unbound_at.insert((*stack, k), *t);
                }
            }
            TraceEvent::ModuleDestroyed { stack, module, kind } if kind.starts_with("abcast.") => {
                let k = incarnations[stack].iter().position(|m| m == module).expect("created");
                destroyed.push((*t, *stack, k));
            }
            _ => {}
        }
    }
    for (t, stack, k) in destroyed {
        for j in stacks {
            let unbound = unbound_at.get(&(*j, k));
            assert!(
                unbound.is_some_and(|u| *u <= t),
                "{stack} destroyed abcast incarnation {k} at {t}, but {j} unbound it at {unbound:?}"
            );
        }
    }
}

/// One stack hears everything `lag` late (its outbound links are
/// healthy) while the group, under `rate` msg/s, replaces `spec(0)` by
/// `spec(1)` by `spec(2)` in quick succession: the others finish both
/// replacements before the laggard has applied the first. The four
/// variants run at 100 ms and 40 msg/s, ct at 150 ms too. Far enough
/// behind and busy enough, ct loses the laggard for good — retirement or
/// no retirement — which the `#[ignore]`d case below keeps on record
/// until ROADMAP item 1(a) fixes it. Where the frames die is printed per
/// stack: not at the replacement module's `sn` guards (`ahead_dropped`
/// reads 0 on every stack of every losing run) but below it — the new
/// incarnation's gossip and `consensus` DECIDEs reach the laggard before
/// its own switch has created the `abcast.ct` they are for, are
/// dispatched to the older incarnations on the same channel and dropped
/// by their namespace guards; the new module then waits for decisions
/// that were announced before it existed.
fn laggard_across_two_replacements(spec: fn(u64) -> ModuleSpec, seed: u64, lag: Dur, rate: f64) {
    const N: u32 = 4;
    let laggard = StackId(N - 1);
    let mut topology = Topology::flat(NetConfig::lan());
    let held_back = NetConfig { latency: lag, jitter: Dur::ZERO, ..NetConfig::lan() };
    for src in 0..N - 1 {
        topology.set_link(StackId(src), laggard, held_back.clone());
    }
    let cfg = SimConfig { topology: Some(topology), ..SimConfig::lan(N, seed) };
    let opts = GroupStackOpts { abcast: spec(0), ..GroupStackOpts::default() };
    let (mut sim, h) = group_sim(cfg, &opts);
    let ids = sim.stack_ids();
    let prompt = &ids[..ids.len() - 1];
    sim.run_until(Time::ZERO + Dur::secs(1));
    let load_end = sim.now() + Dur::secs(4);
    drive_load(&mut sim, &h, rate, load_end);

    // The stack just before the laggard in id order requests each
    // replacement as soon as it has applied the one before (under ring
    // the token then reaches it before it reaches the laggard). Step in
    // 1 ms slices and hold the rule at every one of them: no stack has
    // retired more incarnations than the slowest stack has unbound.
    let requester = StackId(N - 2);
    let mut requested = 0;
    let mut held_back_across_both = false;
    while sim.now() < load_end + Dur::secs(4) {
        let state: Vec<(u64, u64, usize)> =
            ids.iter().map(|&id| repl_state(&mut sim, &h, id)).collect();
        let slowest = state.iter().map(|s| s.0).min().unwrap();
        for (id, (sn, retired, _)) in ids.iter().zip(&state) {
            assert!(
                *retired <= slowest,
                "{id} (sn {sn}) retired {retired} incarnations while a stack is still at sn {slowest}"
            );
        }
        let prompt_done = state[..prompt.len()].iter().all(|s| s.0 == 2);
        held_back_across_both |= prompt_done && state[prompt.len()].0 == 0;
        let warm = sim.now() >= Time::ZERO + Dur::secs(2);
        if warm && requested < 2 && state[requester.idx()].0 == requested {
            requested += 1;
            request_change(&mut sim, requester, &h, &spec(requested));
        }
        let next = sim.now() + Dur::millis(1);
        sim.run_until(next);
    }
    assert!(
        held_back_across_both,
        "the scenario must hold the laggard back across both replacements"
    );

    // Where a lost frame dies (ROADMAP item 1): what each replacement
    // module discarded as tagged with a `seqNumber` ahead of its own.
    for &id in &ids {
        let layer = h.layer.expect("replacement layer present");
        let ahead = sim.with_stack(id, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| m.ahead_dropped()).unwrap()
        });
        println!("{id}: {ahead} payloads discarded as ahead of the local seqNumber");
    }
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    for &id in &ids {
        assert_eq!(report.checker.delivery_count(id), sent, "{id} missed deliveries");
    }

    // The laggard applied both switches, was heard, and everything went.
    for &id in &ids {
        assert_eq!(repl_state(&mut sim, &h, id), (2, 2, 0), "{id}: (sn, retired, pending)");
        assert_eq!(unbound_abcast_modules(&sim, id), 0, "{id}");
    }
}

#[test]
fn laggard_keeps_outgoing_ct_alive_everywhere() {
    laggard_across_two_replacements(specs::ct, 61, Dur::millis(100), 40.0);
}

/// ROADMAP item 1 recorded 4–9 messages lost here when `rp2p` still
/// resent by timer and datagrams fanned out to every user of the service
/// (before PRs 19 and 20); since then nothing is, so this is a plain
/// regression test.
#[test]
fn laggard_150ms_behind_loses_nothing_under_ct() {
    laggard_across_two_replacements(specs::ct, 61, Dur::millis(150), 40.0);
}

/// The loss on record. Speed keeps moving the threshold: with `udp` the
/// bottom of the stack (PR 22) the 40 msg/s scenario lost nothing from 270
/// to 700 ms, so the case went to 300 ms at 100 msg/s; with `udp` sending
/// at the edge as well (no step of `udp` at all) that passes too, and
/// seeds 61–63 lose at 400 ms / 200 msg/s, 300 ms / 300 msg/s and 500 ms /
/// 150 msg/s alike — the laggard's own broadcasts, with `ahead_dropped` 0
/// on every stack. A faster stack moves the threshold; it does not close
/// the hole (the same-channel half of item 1(a): the older incarnations'
/// namespace guards).
#[test]
#[ignore = "ROADMAP item 1(a): frames for incarnation sn+k that arrive before the local switch are dropped"]
fn laggard_400ms_behind_loses_nothing_under_ct() {
    laggard_across_two_replacements(specs::ct, 61, Dur::millis(400), 200.0);
}

#[test]
fn laggard_keeps_outgoing_seq_alive_everywhere() {
    laggard_across_two_replacements(specs::seq, 62, Dur::millis(100), 40.0);
}

#[test]
fn laggard_keeps_outgoing_ring_alive_everywhere() {
    laggard_across_two_replacements(specs::ring, 63, Dur::millis(100), 40.0);
}

#[test]
fn laggard_keeps_outgoing_hier_alive_everywhere() {
    laggard_across_two_replacements(specs::hier, 64, Dur::millis(100), 40.0);
}

#[test]
fn retirement_never_precedes_the_last_unbind_in_the_trace() {
    // Three replacements under load, cycling through the protocols; the
    // merged trace must show every destruction after every stack's
    // unbind of that incarnation.
    let (mut sim, h) = group_sim(SimConfig::lan(5, 71), &GroupStackOpts::default());
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(4);
    drive_load(&mut sim, &h, 100.0, until);
    for (k, spec) in [specs::ring(1), specs::hier(2), specs::seq(3)].into_iter().enumerate() {
        let h = h.clone();
        sim.schedule_in(Dur::secs(1 + k as u64), move |sim| {
            request_change(sim, StackId(k as u32), &h, &spec)
        });
    }
    sim.run_until(until + Dur::secs(4));
    let ids = sim.stack_ids();
    for &id in &ids {
        assert_eq!(repl_state(&mut sim, &h, id), (3, 3, 0), "{id}: (sn, retired, pending)");
    }
    let trace = sim.merged_trace();
    assert_nothing_destroyed_while_bound_anywhere(&trace, &ids);
    let destroyed = trace
        .events()
        .filter(|(_, e)| matches!(e, TraceEvent::ModuleDestroyed { kind, .. } if kind.starts_with("abcast.")))
        .count();
    assert_eq!(destroyed, 3 * ids.len());
}

#[test]
fn a_crashed_peer_pins_retirement_and_the_report_shows_it() {
    // ct tolerates the crash, so the group keeps working and keeps
    // replacing; but the crashed stack is never heard under the new
    // protocol, so the replaced modules stay — the listing's behaviour.
    let (mut sim, h) = group_sim(SimConfig::lan(3, 73), &GroupStackOpts::default());
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(4);
    drive_load(&mut sim, &h, 60.0, until);
    sim.crash_at(Time::ZERO + Dur::millis(800), StackId(2));
    for k in 1..=2u64 {
        let h = h.clone();
        sim.schedule_in(Dur::secs(k), move |sim| {
            request_change(sim, StackId(0), &h, &specs::ct(k))
        });
    }
    sim.run_until(until + Dur::secs(6));
    for id in [StackId(0), StackId(1)] {
        assert_eq!(repl_state(&mut sim, &h, id), (2, 0, 2), "{id}: (sn, retired, pending)");
        assert_eq!(unbound_abcast_modules(&sim, id), 2, "{id}");
    }
    let report = sim.telemetry_report();
    assert_eq!(report.switches.completed, 4, "two live stacks, two replacements each");
    assert_eq!(report.switches.retired, 0, "completed − retired = replaced modules riding along");
    check_run(&mut sim, &h).assert_ok();
}
