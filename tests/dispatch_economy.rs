//! What a broadcast costs in dispatch steps on the paper's testbed (the
//! `transport_economy` inputs), and that a datagram is handed to the
//! module that listens on its channel, not to every user of the service.
//!
//! `udp` and `rp2p` respond *on* the channel they just decoded
//! (`ModuleCtx::respond_on`) and every datagram user declares the one
//! channel it listens on (`Module::listens_on`), so `fd` is not stepped
//! for `rp2p`'s frames, `rp2p` not for `fd`'s heartbeats, `abcast.ct`
//! and `consensus` not for each other's, and a replaced `abcast.ct` not
//! for its successor's (the channel carries the incarnation). And `udp` is the bottom of the
//! stack, and the stack's edge does its work: no step puts a datagram on
//! the wire (a call to `udp` is traced and leaves inside the caller's
//! step, `Module::on_send`), none takes it off (`Stack::packet_in`
//! responds on `udp` itself), so the `net` service is never called and
//! never responds, and the module bound to `udp` is never stepped. With
//! the simulator charging 40 µs a step that is most of the latency: routed
//! by service name alone this run took 861 steps a broadcast, 727 routed
//! by channel through `net`, 483 with one step of `udp` a datagram sent,
//! 373 with none, 308 once a fan-out to many peers was one `rp2p` call
//! (`dgram::SEND_MANY`) rather than one call, and one step, a peer, 251
//! once a consensus instance ended in round 0 and no process sent a frame
//! to itself, and ≈ 234 now that round 0 has no estimates: its
//! coordinator proposes at once.
//!
//! A stack without `udp` (the `LoadGen` of the datagram benchmarks) calls
//! the built-in `net` service instead, and the edge sends for the bridge
//! bound there the same way: the last two tests pin that it is never
//! stepped and what a datagram costs.

mod common;

use dpu::repl::builder::{build, check_run, specs, GroupStackOpts, SwitchLayer};
use dpu::sim::Sim;
use dpu_bench::synth::{datagram_soak_sim, LoadGen};
use dpu_core::probe::Probe;
use dpu_core::stack::{StepCategory, StepInfo};
use dpu_core::time::{Dur, Time};
use dpu_core::{
    svc, FactoryRegistry, HostAction, Op, ServiceId, Stack, StackConfig, StackId, Tally, TimerId,
    TraceEvent, TraceLog,
};
use dpu_net::dgram;
use dpu_protocols::abcast::ct::KIND as CT_KIND;
use dpu_protocols::abcast::ops::ABCAST;
use dpu_repl::abcast_repl::ReplAbcastModule;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The half second of warm-up before the load (`paper_testbed_3s`), and
/// the load's 3 s plus the half second its last broadcasts take to settle:
/// steps and what caused them are counted between the two, like
/// `transport_economy` counts packets.
const LOAD_FROM: Time = Time(500_000_000);
const SETTLED_BY: Time = Time(4_000_000_000);

/// Every stack's log merged: its tally is the run's so far.
fn merged(sim: &Sim) -> TraceLog {
    let mut all = TraceLog::new();
    sim.stack_ids().into_iter().for_each(|id| all.merge(sim.stack(id).trace()));
    all
}

/// The row of `(service, op)` in `trace`'s tally (zero if it has none).
fn row(trace: &TraceLog, service: &str, op: Op) -> Tally {
    let service = ServiceId::new(service);
    let found = trace.tally().iter().find(|(s, o, _)| *s == service && *o == op);
    found.map_or(Tally::default(), |(.., tally)| *tally)
}

#[test]
fn a_datagram_is_dispatched_to_the_module_listening_on_its_channel() {
    // Every udp datagram has one taker (rp2p or fd); an rp2p frame has
    // at most one too, also while a replaced abcast.ct and its successor
    // are both live: each listens on its own incarnation (a frame for a
    // successor not created yet, or for an incarnation retired here,
    // reaches none). A log keeps no call or response, only their tally
    // per (service, op), so each stack's log is read every 10 ms: the
    // rp2p RECVs a stack tallied in a slice throughout which it had two
    // abcast.ct live arrived while the two coexisted.
    #[derive(Default)]
    struct Seen {
        structural: usize,
        ct_live: usize,
        rp2p: u64,
    }
    let mut seen: BTreeMap<StackId, Seen> = BTreeMap::new();
    let mut rp2p_overlap = 0u64;
    let mut read_trace_until = |sim: &mut Sim, end: Time| {
        while sim.now() < end {
            let next = (sim.now() + Dur::millis(10)).min(end);
            sim.run_until(next);
            for id in sim.stack_ids() {
                let (trace, seen) = (sim.stack(id).trace(), seen.entry(id).or_default());
                let mut throughout = seen.ct_live == 2;
                for (_, e) in trace.events().skip(seen.structural) {
                    match e {
                        TraceEvent::ModuleCreated { kind, .. } if **kind == *CT_KIND => {
                            (seen.ct_live, throughout) = (seen.ct_live + 1, false);
                        }
                        TraceEvent::ModuleDestroyed { kind, .. } if **kind == *CT_KIND => {
                            (seen.ct_live, throughout) = (seen.ct_live - 1, false);
                        }
                        _ => {}
                    }
                    seen.structural += 1;
                }
                let rp2p = row(trace, dpu_net::RP2P_SVC, dgram::RECV).responses;
                if throughout {
                    rp2p_overlap += rp2p - seen.rp2p;
                }
                seen.rp2p = rp2p;
            }
        }
    };
    let (mut sim, h, until) = common::paper_testbed_3s(&mut read_trace_until);
    assert_eq!((sim.now(), until + Dur::millis(500)), (LOAD_FROM, SETTLED_BY));
    // Steps and what caused them are counted over the same slices: the
    // events after LOAD_FROM, up to and including SETTLED_BY.
    let (steps_before, tally_before) = (sim.stats().steps, merged(&sim));
    read_trace_until(&mut sim, SETTLED_BY);
    let (steps, tally_after) = (sim.stats().steps - steps_before, merged(&sim));
    read_trace_until(&mut sim, until + Dur::secs(2));
    let run = merged(&sim);
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let broadcasts = report.checker.broadcast_count();
    assert!(broadcasts >= 440, "150 msg/s for 3 s, got {broadcasts}");
    let per_msg = steps as f64 / broadcasts as f64;
    println!("{broadcasts} broadcasts, {steps} steps ({per_msg:.1} a broadcast)");
    // What the counted steps were for: calls to each service, and modules
    // reached by each service's responses.
    let mut charged: BTreeMap<(ServiceId, &str), u64> = BTreeMap::new();
    for &(service, op, after) in tally_after.tally() {
        let before = row(&tally_before, service.name(), op);
        *charged.entry((service, "calls")).or_default() += after.calls - before.calls;
        *charged.entry((service, "responses")).or_default() += after.reached - before.reached;
    }
    for ((service, what), n) in &charged {
        let edge = if service.name() == svc::UDP && *what == "calls" {
            ", taken at the edge: no step"
        } else {
            ""
        };
        println!("  {:>6.1} {what} on {service}{edge}", *n as f64 / broadcasts as f64);
    }
    // 233.6 here (251.4 while every participant sent the coordinator a
    // round-0 estimate it did not need; 307.9 while a process that acked a
    // consensus round went straight on to the next and the coordinator
    // sent its own estimate, proposal and ack to itself; 373.4 while every
    // fan-out was a call to `rp2p` a peer; 483.2 while a call to `udp` was
    // a step of `udp`, one per datagram sent; 727.0 while `udp` sat on
    // `net`: a call to the bridge to put a datagram on the wire and a
    // response through `udp` to take it off); the bound is that reading
    // + 4 %.
    assert!(per_msg <= 243.0, "{per_msg:.1} dispatch steps a broadcast");
    // 15.1 (21.1 with the round-0 estimates, 37.4 with the round-1 cascade
    // and the frames to itself, 94.6 with a call a peer): the gossip, the
    // coordinator's proposal and each decider's relay are one call each;
    // the rest are the acks, one each for the coordinator. Round-0
    // estimates sent with nobody suspected, a per-peer loop over `rp2p` or
    // a consensus round beyond the first that came back fails here.
    let rp2p_calls = charged.get(&(ServiceId::new(dpu_net::RP2P_SVC), "calls")).copied();
    let rp2p_per_msg = rp2p_calls.unwrap_or(0) as f64 / broadcasts as f64;
    assert!(rp2p_per_msg <= 15.7, "{rp2p_per_msg:.1} calls on rp2p a broadcast");

    // `udp` sends with `net_send` and the edge responds on `udp`: the
    // bridge is never called and never responds on a Figure-4 stack.
    let on_net: Vec<_> = run.tally().iter().filter(|(s, ..)| s.name() == svc::NET).collect();
    assert!(on_net.is_empty(), "calls to or responses on net: {on_net:?}");
    let udp = row(&run, dpu_net::UDP_SVC, dgram::RECV);
    let rp2p = row(&run, dpu_net::RP2P_SVC, dgram::RECV);
    println!(
        "{} entries traced: {} udp RECV, {} rp2p RECV, {rp2p_overlap} of them while two \
         abcast.ct were live; the most modules an rp2p RECV reached: {}",
        run.pushed(),
        udp.responses,
        rp2p.responses,
        rp2p.most,
    );
    assert!(run.pushed() > sim.stats().steps / 2, "the trace must have been on");
    assert_eq!((udp.reached, udp.most), (udp.responses, 1), "every udp RECV reached one module");
    assert!(udp.responses > rp2p.responses && rp2p.responses > 0, "the trace must hold datagrams");
    assert!(rp2p_overlap > 0, "two replacements must each leave two abcast.ct side by side");
    assert!(rp2p.most <= 1, "an rp2p RECV reached {} modules", rp2p.most);
}

/// Steps every stack at `now` until none has work and nothing is on the
/// wire: a datagram is delivered the moment it is sent, a timer is armed
/// into `timers` as `(deadline, stack index, id)`. `stepped` sees every
/// step; returns how many datagrams were sent.
fn quiesce(
    stacks: &mut [Stack],
    now: Time,
    timers: &mut BTreeSet<(Time, usize, TimerId)>,
    mut stepped: impl FnMut(&Stack, &StepInfo),
) -> u64 {
    let (mut wire, mut sends) = (VecDeque::new(), 0);
    loop {
        for (i, s) in stacks.iter_mut().enumerate() {
            loop {
                let info = s.step(now);
                for action in s.drain_actions().collect::<Vec<_>>() {
                    match action {
                        HostAction::NetSend { dst, payload } => {
                            sends += 1;
                            wire.push_back((s.id(), dst, payload));
                        }
                        HostAction::SetTimer { id, delay } => {
                            timers.insert((now + delay, i, id));
                        }
                    }
                }
                let Some(info) = info else { break };
                stepped(s, &info);
            }
        }
        if wire.is_empty() {
            return sends;
        }
        while let Some((src, dst, payload)) = wire.pop_front() {
            stacks[dst.idx()].packet_in(now, src, payload);
        }
    }
}

/// The paper's stacks (n = 4 here) stepped by hand, so that every
/// `StepInfo` can be read: each datagram is delivered the moment it is
/// sent, each timer fires at its deadline, every stack broadcasts every
/// 10 ms for a second and a ct → ct replacement is requested halfway. No
/// step, on any stack, is dispatched to the module bound to `udp` but its
/// `on_start`.
#[test]
fn no_step_is_dispatched_to_the_module_bound_to_udp() {
    const N: u32 = 4;
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let peers = StackConfig::peer_table(N);
    let mut stacks: Vec<Stack> = (0..N)
        .map(|i| {
            let sc =
                StackConfig { peers: peers.clone(), trace: false, ..StackConfig::nth(i, N, 42) };
            build(sc, &opts).stack
        })
        .collect();
    let h = build(StackConfig::nth(0, N, 42), &opts).handles;
    let probe = h.probe.expect("probe");
    let udp = ServiceId::new(svc::UDP);
    let mut timers = BTreeSet::new();
    let (mut steps, mut sends) = (0u64, 0u64);
    let (load_from, load_end, end) = (Dur::millis(300), Dur::millis(1300), Dur::millis(2500));
    let mut now = Time::ZERO;
    let mut tick = Time::ZERO + load_from;
    while now < Time::ZERO + end {
        sends += quiesce(&mut stacks, now, &mut timers, |s, info| {
            steps += 1;
            let udp_stepped = Some(info.module) == s.bound(&udp);
            assert!(
                !udp_stepped || info.category == StepCategory::Start,
                "{} at {now}: {info:?}",
                s.id()
            );
        });
        // The next timer, or the next round of broadcasts.
        let load = tick < Time::ZERO + load_end;
        match timers.first().copied() {
            Some((due, i, id)) if !load || due <= tick => {
                timers.pop_first();
                now = due;
                stacks[i].timer_fired(now, id);
            }
            _ if load => {
                now = tick;
                for s in &mut stacks {
                    let from = s.id();
                    let payload = s
                        .with_module::<Probe, _>(probe, |p| p.next_payload(from, now))
                        .expect("probe present");
                    s.call_as(probe, &h.top_service, ABCAST, payload);
                }
                if tick == Time::ZERO + (load_from + load_end) / 2 {
                    let change = dpu_core::wire::to_bytes(&specs::ct(1));
                    stacks[1].call_as(probe, &h.top_service, dpu_repl::CHANGE_OP, change);
                }
                tick += Dur::millis(10);
            }
            _ => break,
        }
    }
    let orders: Vec<Vec<(StackId, u64)>> = stacks
        .iter_mut()
        .map(|s| {
            s.with_module::<Probe, _>(probe, |p| p.delivered().iter().map(|r| r.msg).collect())
                .expect("probe present")
        })
        .collect();
    let broadcasts = u64::from(N) * 100;
    println!("{steps} steps, {sends} datagrams, {broadcasts} broadcasts: none stepped udp");
    assert_eq!(orders[0].len() as u64, broadcasts, "every broadcast delivered");
    assert!(orders.iter().all(|o| *o == orders[0]), "one total order");
    let layer = h.layer.expect("replacement layer");
    for s in &mut stacks {
        let sn = s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number());
        assert_eq!(sn, Some(1), "{} applied the replacement", s.id());
    }
}

/// The stacks of the `dgram-64k-sim` benchmark and the capacity soaks
/// carry no `udp`: `LoadGen` calls the built-in `net` service, and the
/// edge sends for it as for `udp` (`Module::on_send`), so the bridge bound
/// there is never stepped but for its `on_start` either. Stepped by hand
/// (every datagram delivered the moment it is sent, every timer at its
/// deadline), 32 generators in clusters of 8 for 50 ms.
#[test]
fn no_step_is_dispatched_to_the_net_bridge() {
    const N: u32 = 32;
    let peers = StackConfig::peer_table(N);
    let mut stacks: Vec<Stack> = (0..N)
        .map(|i| {
            let sc =
                StackConfig { peers: peers.clone(), trace: false, ..StackConfig::nth(i, N, 42) };
            let mut s = Stack::new(sc, FactoryRegistry::new());
            s.add_module(Box::new(LoadGen::new(Dur::millis(5), 8, 8, u64::from(i))));
            s
        })
        .collect();
    let net = ServiceId::new(svc::NET);
    let mut timers = BTreeSet::new();
    let (mut sends, mut responses) = (0u64, 0u64);
    let mut now = Time::ZERO;
    while now < Time::ZERO + Dur::millis(50) {
        sends += quiesce(&mut stacks, now, &mut timers, |s, info| {
            let bridge_stepped = Some(info.module) == s.bound(&net);
            assert!(
                !bridge_stepped || info.category == StepCategory::Start,
                "{} at {now}: {info:?}",
                s.id()
            );
            responses += u64::from(info.category == StepCategory::Response);
        });
        let Some((due, i, id)) = timers.pop_first() else { break };
        now = due;
        stacks[i].timer_fired(now, id);
    }
    println!("{sends} datagrams, {responses} received: none stepped net.bridge");
    assert!(sends > 1_000, "the generators must have sent: {sends}");
    assert_eq!(responses, sends, "every datagram reaches its generator, and only it");
}

/// What a protocol-free datagram costs in dispatch steps on a small
/// clustered simulation of the same load (256 `LoadGen` stacks in 16
/// clusters, 100 ms): one step to receive it and an eighth of the timer
/// step that sent it in a burst of eight — 1.125 steps a datagram (43 565
/// steps for 38 731 datagrams), bounded at 4 % over that. It read 2.125
/// (82 294 steps) while every `net.SEND` was a step of the bridge.
#[test]
fn a_datagram_over_net_costs_its_receipt_and_a_share_of_its_timer() {
    const STEPS_PER_DATAGRAM: f64 = 1.125;
    let mut sim = datagram_soak_sim(256, 42, 1);
    sim.run_until(Time::ZERO + Dur::millis(100));
    let stats = sim.stats();
    let per_datagram = stats.steps as f64 / stats.packets_sent as f64;
    println!(
        "{} steps, {} datagrams sent: {per_datagram:.4} steps a datagram",
        stats.steps, stats.packets_sent
    );
    assert!(stats.packets_sent > 30_000, "the soak must send: {}", stats.packets_sent);
    assert!(per_datagram <= STEPS_PER_DATAGRAM * 1.04, "{per_datagram:.4} steps a datagram");
}
