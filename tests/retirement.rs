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
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

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

/// How a laggard run ended (see [`laggard_run`]).
#[derive(Debug)]
struct LaggardRun {
    /// The others finished both replacements before the laggard applied
    /// the first.
    held_back_across_both: bool,
    /// The most responses the laggard's stack held at once for a module
    /// its own switch had not created yet, sampled every millisecond.
    laggard_peak_held: usize,
}

/// One stack hears everything `lag` late, give or take a twentieth of
/// it (its outbound links are healthy), while the group, under `rate`
/// msg/s, replaces `spec(0)` by `spec(1)` by `spec(2)` in quick
/// succession. Panics on a lost broadcast,
/// on a retirement before the slowest stack has unbound, on a replaced
/// module still in a stack at the end, and on a response still held back
/// anywhere at the end.
///
/// Where a laggard's frames used to die (ROADMAP item 1(a')): the
/// incarnations shared one channel per variant, so the new incarnation's
/// frames reached the laggard's older ones, whose namespace guards dropped
/// them; with the incarnation in the channel they wait in the stack for
/// the module the laggard's own switch creates. Past that, ct lost at
/// 400 ms / 200 msg/s to a retransmission storm (20 ms resends against a
/// 400 ms round trip) until rp2p's resend age doubled.
///
/// Why the jitter: a stack runs an input's whole cascade before the
/// next, so on links that keep their order the laggard's switch always
/// runs before a later frame for the module it creates arrives, and
/// nothing is ever held (336 runs of the sweep, and 3 024 more over
/// seeds 64–90, all read 0). A frame reaches a module the switch has
/// not created yet only when rp2p hands up a batch in one step: a
/// reordered datagram fills a gap, and the frames it completes go up
/// together.
fn laggard_run(spec: fn(u64) -> ModuleSpec, seed: u64, lag: Dur, rate: f64) -> LaggardRun {
    const N: u32 = 4;
    let laggard = StackId(N - 1);
    let mut topology = Topology::flat(NetConfig::lan());
    let held_back = NetConfig { latency: lag, jitter: lag / 20, ..NetConfig::lan() };
    for src in 0..N - 1 {
        topology.set_link(StackId(src), laggard, held_back.clone());
    }
    let cfg = SimConfig { topology, ..SimConfig::lan(N, seed) };
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
    let (mut held_back_across_both, mut laggard_peak_held) = (false, 0);
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
        laggard_peak_held = laggard_peak_held.max(sim.stack(laggard).held_back());
        let warm = sim.now() >= Time::ZERO + Dur::secs(2);
        if warm && requested < 2 && state[requester.idx()].0 == requested {
            requested += 1;
            request_change(&mut sim, requester, &h, &spec(requested));
        }
        let next = sim.now() + Dur::millis(1);
        sim.run_until(next);
    }

    // What the laggard held back, and what the replacement modules' `sn`
    // guards discarded as ahead of their own switch (none: it waited).
    let hold_back = sim.telemetry_report().hold_back;
    let layer = h.layer.expect("replacement layer present");
    let ahead: u64 = (ids.iter())
        .map(|&id| {
            sim.with_stack(id, |s| {
                s.with_module(layer, |m: &mut ReplAbcastModule| m.ahead_dropped())
            })
        })
        .map(|ahead| ahead.expect("replacement module"))
        .sum();
    println!(
        "{}, {lag} behind at {rate} msg/s, seed {seed}: laggard held up to {laggard_peak_held}, \
         {ahead} discarded as ahead; {hold_back:?}",
        spec(0).kind
    );
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    for &id in &ids {
        assert_eq!(report.checker.delivery_count(id), sent, "{id} missed deliveries");
    }

    // The laggard applied both switches, was heard, and everything went:
    // the replaced modules, and whatever any stack held back for a module.
    for &id in &ids {
        assert_eq!(repl_state(&mut sim, &h, id), (2, 2, 0), "{id}: (sn, retired, pending)");
        assert_eq!(unbound_abcast_modules(&sim, id), 0, "{id}");
        assert_eq!(sim.stack(id).held_back(), 0, "{id} still holds responses back");
    }
    assert_eq!(hold_back.held, hold_back.released + hold_back.dropped, "{hold_back:?}");
    LaggardRun { held_back_across_both, laggard_peak_held }
}

/// A [`laggard_run`] whose scenario does hold the laggard back across both
/// replacements. The four variants run at 100 ms and 40 msg/s, ct at
/// 150 ms and 400 ms too.
fn laggard_across_two_replacements(
    spec: fn(u64) -> ModuleSpec,
    seed: u64,
    lag: Dur,
    rate: f64,
) -> LaggardRun {
    let run = laggard_run(spec, seed, lag, rate);
    assert!(
        run.held_back_across_both,
        "the scenario must hold the laggard back across both replacements"
    );
    run
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

/// The loss item 1(a') kept on record: seeds 61–63 lost the laggard's own
/// broadcasts at 400 ms / 200 msg/s, 300 ms / 300 msg/s and 500 ms /
/// 150 msg/s alike. The laggard holds frames back for its own switch.
/// Whether a seed reaches that moves with the timing: seed 61 did until a
/// fan-out to many peers became one `rp2p` call; after that, of seeds
/// 61–70 at 200 msg/s, 62 and 69 held two at once. Since round 0 of
/// consensus proposes without estimates, none of 61–70 held a frame at
/// 200 msg/s and every one held six at 300 msg/s. Since a stack runs an
/// input's whole cascade before the next, a frame is held only when the
/// lag link's jitter reorders it (see [`laggard_run`]): at 400 ms and
/// 300 msg/s, seed 63 holds two at once (61 and 62 none), so the test
/// runs seed 63; the 400 ms / 200 msg/s cell stays in
/// [`laggard_sweep_loses_nothing`].
#[test]
fn laggard_400ms_behind_loses_nothing_under_ct() {
    let run = laggard_across_two_replacements(specs::ct, 63, Dur::millis(400), 300.0);
    assert!(run.laggard_peak_held > 0, "nothing waited for the laggard's switch: {run:?}");
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

/// ROADMAP item 1(a')'s sweep: lag 100–700 ms × 40–300 msg/s × the four
/// variants × seeds 61–63, 336 [`laggard_run`]s over every core. Whether
/// a cell holds the laggard back across both replacements depends on the
/// cell, so only what every run asserts is asserted — and that some run
/// held a frame for the laggard's switch, or the sweep never reached the
/// hold-back. Release only, as a CI step of its own (≈ 10 s on two
/// cores).
#[test]
#[ignore = "release-only sweep of 336 runs: its own CI step"]
fn laggard_sweep_loses_nothing() {
    let variants: [fn(u64) -> ModuleSpec; 4] = [specs::ct, specs::seq, specs::ring, specs::hier];
    let mut cells = Vec::new();
    for spec in variants {
        for lag in (100..=700).step_by(100) {
            for rate in [40.0, 100.0, 200.0, 300.0] {
                cells.extend((61..=63).map(|seed| (spec, seed, Dur::millis(lag), rate)));
            }
        }
    }
    assert_eq!(cells.len(), 336);
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Per worker: the runs whose laggard held a frame, and the most held.
    let (held, peak) = std::thread::scope(|s| {
        let worker = || {
            let (mut held, mut peak) = (0, 0);
            while let Some(&(spec, seed, lag, rate)) = cells.get(next.fetch_add(1, Relaxed)) {
                let run = laggard_run(spec, seed, lag, rate).laggard_peak_held;
                (held, peak) = (held + usize::from(run > 0), peak.max(run));
            }
            (held, peak)
        };
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        let ends = handles.into_iter().map(|h| h.join().expect("a sweep run failed"));
        ends.fold((0, 0), |(h, p), (held, peak)| (h + held, p.max(peak)))
    });
    println!("336 runs, none lost anything; {held} held a frame, up to {peak} at once");
    assert!(held > 0, "no run held a frame for the laggard's switch");
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
