//! Protocol state is bounded by the group, not by the run: four times
//! the messages must leave (almost) the same live heap per stack.
//!
//! The inputs are `fig5-ct-sim`'s — n = 7, `abcast.ct` under the Repl
//! layer, 150 msg/s round-robin, ct → ct replacements under fresh
//! namespaces — with the probe's records taken out before the heap is
//! read, so what is left is what the protocols hold; with the trace off,
//! and once more with it on, as the benchmark runs it: a traced stack
//! keeps its binds and module lifetimes (the same four replacements in
//! both runs) and a tally of calls per `(service, op)`, not an entry per
//! dispatch step.
//! Kept whole, the trace made that ratio read ≈ 4.
//! The same four replacements happen in the short and in the long run;
//! only the number of messages differs. Before consensus instances were
//! collected by stability the long run held ≈ 3.5 KB per extra instance
//! per stack, and this ratio read ≈ 4.
//!
//! Retirement destroys each replaced `abcast.ct` incarnation and its
//! delivered-set with it, so a second scenario runs the same load with no
//! switch layer (one incarnation for the whole run), and a third drives
//! `rb` on its own.
//!
//! The other axis is the replacements: the same load with four times the
//! replacements must leave (almost) the same live heap per stack too.
//! Retirement passes the ids of what it destroys down to consensus, which
//! forgets the namespaces they used; while it did not, each replacement
//! left ≈ 500 B of consensus state on every stack for good and this
//! ratio read 1.42.
//!
//! The counting allocator is process-global: the scenarios share one lock.

use bytes::Bytes;
use dpu_bench::mem::CountingAlloc;
use dpu_core::abcast_check::AbcastChecker;
use dpu_core::probe::Probe;
use dpu_core::props;
use dpu_core::stack::{FactoryRegistry, ModuleCtx, Stack, StackConfig};
use dpu_core::time::{Dur, Time};
use dpu_core::{Call, Module, ModuleId, Response, ServiceId, StackId};
use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
use dpu_net::udp::UdpModule;
use dpu_protocols::consensus::ConsensusModule;
use dpu_protocols::rb::{self, RbModule};
use dpu_repl::builder::{
    drive_load, group_sim, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu_sim::{Sim, SimConfig};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const N: u32 = 7;
const RATE: f64 = 150.0;
/// Load of the short run; the long run has four times as much.
const SHORT: Dur = Dur::secs(5);
const DRAIN: Dur = Dur::secs(2);
/// Consensus instances a stack may hold at any time: the instances in
/// flight plus the last tombstones of the namespaces not yet retired —
/// however many messages, and however many replacements. Reads 2 at
/// every 100 ms sample (4 and 16 replacements, 5 and 20 s of load); it
/// grew by one namespace's tombstones a replacement while a retired
/// namespace's state stayed for good.
const LIVE_INSTANCES: usize = 8;
/// `transport.held` a stack at the end of a run: reads 13 for the group
/// of seven after 0, 4 and 16 replacements (it grew by 13 a replacement
/// while retired namespaces stayed).
const HELD_PER_STACK: u64 = 4;

/// Live consensus instances on `id` (running + tombstoned).
fn live_instances(sim: &mut Sim, id: StackId) -> usize {
    sim.with_stack(id, |s| {
        let cons = s.bound(&dpu_protocols::CONSENSUS_SVC.into()).expect("consensus bound");
        s.with_module::<ConsensusModule, _>(cons, |m| m.live_instances()).expect("consensus")
    })
}

/// One `abcast.ct` run of `load` seconds with `switches` replacements, one
/// a second from the first second on. Returns live bytes per stack — the
/// trace's among them when it is on.
fn ct_run(layer: SwitchLayer, switches: u64, load: Dur, traced: bool) -> u64 {
    let live0 = ALLOC.live();
    let mut cfg = SimConfig::lan(N, 101);
    cfg.trace = traced;
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, h) = group_sim(cfg, &opts);
    sim.run_until(Time::ZERO + Dur::millis(500));
    let start = sim.now();
    drive_load(&mut sim, &h, RATE, start + load);
    for k in 1..=switches {
        let h = h.clone();
        sim.schedule(start + Dur::secs(k), move |sim| {
            request_change(sim, StackId((k % u64::from(N)) as u32), &h, &specs::ct(k))
        });
    }
    let ids = sim.stack_ids();
    while sim.now() < start + load + DRAIN {
        let next = sim.now() + Dur::millis(100);
        sim.run_until(next);
        for &id in &ids {
            let (live, at) = (live_instances(&mut sim, id), sim.now());
            assert!(live <= LIVE_INSTANCES, "{id} holds {live} consensus instances at {at}");
        }
    }
    // The probe's records are the measurement, not the system: they go
    // to the checker and out of the heap before it is read. The trace
    // stays where it is until then (`check_run` would take it).
    let probe = h.probe.expect("probe");
    let mut checker = AbcastChecker::new(ids.iter().copied());
    for &id in &ids {
        let (sent, delivered) = sim.with_stack(id, |s| {
            s.with_module::<Probe, _>(probe, |p| (p.take_sent(), p.take_delivered()))
                .expect("probe present")
        });
        sent.into_iter().for_each(|(msg, t)| checker.record_broadcast(msg, id, t));
        delivered.into_iter().for_each(|r| checker.record_delivery(r.msg, id, r.delivered_at));
    }
    checker.assert_ok();
    let broadcasts = checker.broadcast_count();
    assert!(broadcasts as f64 >= 0.95 * RATE * load.as_secs_f64(), "only {broadcasts} broadcasts");
    for &id in &ids {
        assert_eq!(checker.delivery_count(id), broadcasts, "{id} missed deliveries");
    }
    drop(checker);
    let held = sim.telemetry_report().transport.held;
    assert!(held <= u64::from(N) * HELD_PER_STACK, "held = {held} at the end of the run");
    let live = (ALLOC.live() - live0) / u64::from(N);
    // What the trace kept is what the §3 checker reads, whole.
    let trace = sim.merged_trace();
    assert_eq!(trace.pushed() > 0, traced);
    let wellformed = props::check_stack_well_formedness(&trace);
    assert!(wellformed.weak, "{:?}", wellformed.violations);
    live
}

fn assert_flat(what: &str, short: u64, long: u64, limit: f64) {
    let ratio = long as f64 / short as f64;
    println!("{what}: {short} B/stack at 1x, {long} B/stack at 4x the messages: ratio {ratio:.3}");
    assert!(ratio <= limit, "{what}: live bytes per stack grew {ratio:.2}x with 4x the messages");
}

#[test]
fn four_times_the_messages_cost_the_same_bytes_under_repl() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let short = ct_run(SwitchLayer::Repl, 4, SHORT, false);
    let long = ct_run(SwitchLayer::Repl, 4, SHORT * 4, false);
    assert_flat("repl over ct", short, long, 1.1);
}

/// 4 vs 16 replacements, one a second, in the same 20 s of load. Reads
/// 17 515 → 18 855 B a stack (1.077). Destroying each module at the end
/// of 40 s runs splits what is left: consensus 4 295 B at 4, 16 and 32
/// replacements (5 040 / 11 682 / 19 015 B while retired namespaces
/// stayed), Repl 712 / 808 / 936 B (a switch time each), the rest of the
/// stack 12 693 / 13 767 / 14 356 B.
#[test]
fn four_times_the_replacements_cost_the_same_bytes() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let few = ct_run(SwitchLayer::Repl, 4, SHORT * 4, false);
    let many = ct_run(SwitchLayer::Repl, 16, SHORT * 4, false);
    let ratio = many as f64 / few as f64;
    println!("replacements: {few} B/stack at 4, {many} B/stack at 16: ratio {ratio:.3}");
    assert!(ratio <= 1.1, "live bytes per stack grew {ratio:.2}x with 4x the replacements");
}

#[test]
fn four_times_the_messages_cost_the_same_bytes_under_repl_with_the_trace_on() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let short = ct_run(SwitchLayer::Repl, 4, SHORT, true);
    let long = ct_run(SwitchLayer::Repl, 4, SHORT * 4, true);
    assert_flat("repl over ct, traced", short, long, 1.1);
}

/// What the trace costs a stack on the paper's testbed: its structural
/// entries and its tally, a row per `(service, op)` — no call is kept.
/// Reads 2 291 B run alone (ten runs) and 2 087–2 112 B beside the
/// binary's other tests (six runs): the counting allocator is
/// process-wide, so the bound sits 10 % above the larger. ≈ 25.0 KB
/// while each shard kept a 160 KiB tail of recent calls, ≈ 165 KB while
/// every stack kept one of its own.
#[test]
fn the_trace_costs_its_structural_entries_and_its_tally() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let on = ct_run(SwitchLayer::Repl, 4, SHORT, true);
    let off = ct_run(SwitchLayer::Repl, 4, SHORT, false);
    let trace = on.saturating_sub(off);
    println!("the trace: {trace} B/stack ({on} traced, {off} not)");
    assert!(trace <= 2_520, "the trace costs {trace} B a stack");
}

#[test]
fn four_times_the_messages_cost_the_same_bytes_without_a_switch_layer() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let short = ct_run(SwitchLayer::None, 0, SHORT, false);
    let long = ct_run(SwitchLayer::None, 0, SHORT * 4, false);
    assert_flat("ct alone", short, long, 1.1);
}

/// Counts `rb` deliveries and keeps nothing.
struct Counter {
    got: u64,
}

impl Module for Counter {
    fn kind(&self) -> &str {
        "rb-counter"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(dpu_protocols::RB_SVC)]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
        self.got += u64::from(resp.op == rb::ops::DELIVER);
    }
}

/// Layout: m1 net, m2 udp, m3 rp2p, m4 rb, m5 counter.
const COUNTER: ModuleId = ModuleId(5);

fn rb_stack(sc: StackConfig) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    let udp = s.add_module(Box::new(UdpModule::new()));
    let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
    let rb = s.add_module(Box::new(RbModule::new()));
    s.add_module(Box::new(Counter { got: 0 }));
    s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
    s.bind(&ServiceId::new(dpu_net::RP2P_SVC), rp2p);
    s.bind(&ServiceId::new(dpu_protocols::RB_SVC), rb);
    s
}

/// `count` reliable broadcasts at [`RATE`], round-robin over the stacks.
fn rb_run(count: u64) -> u64 {
    let live0 = ALLOC.live();
    let mut cfg = SimConfig::lan(N, 102);
    cfg.trace = false;
    let mut sim = Sim::new(cfg, rb_stack);
    sim.run_until(Time::ZERO + Dur::millis(100));
    let gap = Dur::secs_f64(1.0 / RATE);
    for i in 0..count {
        sim.run_until(sim.now() + gap);
        sim.with_stack(StackId((i % u64::from(N)) as u32), |s| {
            let payload = Bytes::from(vec![0u8; 32]);
            s.call_as(COUNTER, &ServiceId::new(dpu_protocols::RB_SVC), rb::ops::BCAST, payload)
        });
    }
    sim.run_until(sim.now() + DRAIN);
    for id in sim.stack_ids() {
        let got = sim.with_stack(id, |s| s.with_module::<Counter, _>(COUNTER, |c| c.got).unwrap());
        assert_eq!(got, count, "{id}");
    }
    (ALLOC.live() - live0) / u64::from(N)
}

#[test]
fn four_times_the_messages_cost_the_same_bytes_in_rb() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let messages = (RATE * SHORT.as_secs_f64()) as u64;
    let short = rb_run(messages);
    let long = rb_run(4 * messages);
    // ≈ 1.14 (15.5 → 17.6 KB; 1.015 at 23.7 → 24.1 KB while `udp`
    // re-encoded every frame for `net`). What rises is capacity, not
    // state: the shard's scratch pool reuses its ≈ 410 buffers for frames
    // of any size, each growing (64–127 B → 128–255 B, by allocator size
    // class) the first time a larger frame passes through it, and with one
    // encode a datagram instead of three the short run no longer cycles
    // them all: 8x the messages read 18.9 KB, 32x 19.7 KB, and there it
    // stays. State kept per message reads 4, as before.
    assert_flat("rb", short, long, 1.2);
}
