//! What the two live hosts share, tested once over both: the loan
//! discipline of the shard pools (no encode, sample or idle dispatch
//! capacity left in a stack), a bad stack id, an unroutable send.
//! `dpu-runtime` and `dpu-reactor` are the same `LiveShard` under
//! different transports, so every test here is one generic body run
//! against a 1-shard `Runtime` and against a `Reactor`. The flight
//! recorder dump is checked on the simulator too.

mod common;

use bytes::Bytes;
use common::wait_until;
use dpu::reactor::{Reactor, ReactorConfig};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu::sim::{Sim, SimConfig};
use dpu_core::host::Host;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::telemetry::SocketCounters;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::ScratchStats;
use dpu_core::{
    svc, Call, Module, ModuleId, Response, ServiceId, Stack, StackConfig, StackId, TimerId,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const N: u32 = 3;
const BEATS: u32 = 3;

/// Encodes (through the stack's scratch) in every kind of handler a
/// host drives: `on_start` (start-up poll), `on_timer` (timer wake) and
/// `on_response` (packet delivery). Quiescent after `BEATS` timers.
struct Chatter {
    beats: u32,
    got: Vec<Bytes>,
}

impl Chatter {
    fn send(ctx: &mut ModuleCtx<'_>, dst: StackId, what: &'static [u8]) {
        let data = ctx.encode(&(dst, Bytes::from_static(what)));
        ctx.call(&ServiceId::new(svc::NET), net_ops::SEND, data);
    }

    fn next(ctx: &ModuleCtx<'_>) -> StackId {
        StackId((ctx.stack_id().0 + 1) % N)
    }
}

impl Module for Chatter {
    fn kind(&self) -> &str {
        "chatter"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(svc::NET)]
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let next = Self::next(ctx);
        Self::send(ctx, next, b"hello");
        ctx.set_timer(Dur::millis(5), 1);
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != net_ops::RECV {
            return;
        }
        let (src, data): (StackId, Bytes) = resp.decode().unwrap();
        if data.as_ref() == b"ping" {
            Self::send(ctx, src, b"pong");
        }
        self.got.push(data);
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        self.beats += 1;
        let next = Self::next(ctx);
        Self::send(ctx, next, b"tick");
        if self.beats < BEATS {
            ctx.set_timer(Dur::millis(5), 1);
        }
    }
}

/// Net bridge is module 1, the chatter module 2.
const CHATTER: ModuleId = ModuleId(2);

fn mk(sc: StackConfig) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    s.add_module(Box::new(Chatter { beats: 0, got: Vec::new() }));
    s
}

fn runtime() -> Runtime {
    Runtime::spawn(RuntimeConfig::new(N).with_shards(1), mk)
}

fn reactor() -> Reactor {
    Reactor::spawn(ReactorConfig::new(N, (0..N).map(StackId).collect()), mk).expect("spawn")
}

fn got<H: Host>(mut host: H, node: u32) -> Vec<Bytes> {
    host.with_stack(StackId(node), |s| {
        s.with_module::<Chatter, _>(CHATTER, |c| c.got.clone()).unwrap()
    })
}

/// Drive traffic through every loaned entry point of a one-shard host,
/// wait for quiescence, and check the pool's books. The caller then
/// checks the stacks `shutdown` hands back
/// ([`assert_residents_untouched`]).
fn drive_every_loaned_entry_point<H: Host + Copy>(mut host: H) {
    // A `with_stack` closure that encodes, then a follow-up poll that
    // sends what it queued: stack 0 pings stack 1, which pongs back from
    // its delivery cascade.
    host.with_stack(StackId(0), |s| {
        let data = s.encode(&(StackId(1), Bytes::from_static(b"ping")));
        s.call_as(CHATTER, &ServiceId::new(svc::NET), net_ops::SEND, data);
    });
    // Start-up hello + BEATS ticks from the predecessor on every stack,
    // plus the ping on 1 and the pong on 0.
    let expect = |node: u32| 1 + BEATS as usize + usize::from(node < 2);
    wait_until("all chatter delivered", Duration::from_secs(30), || {
        (0..N).all(|node| got(host, node).len() == expect(node))
    });
    assert!(got(host, 0).iter().any(|d| d.as_ref() == b"pong"));

    // Seen from inside a loan, a stack's scratch *is* the shard pool —
    // and on a one-shard host that pool is the whole report: the stacks'
    // own (resident) scratch pools never saw an encode.
    let pool: ScratchStats = host.with_stack(StackId(0), |s| s.wire_stats());
    let report = host.telemetry_report();
    assert_eq!(report.wire, pool, "every encode landed in the shard pool");
    let sends = (N * (1 + BEATS) + 2) as u64;
    assert!(pool.emitted >= sends, "{sends} sends encoded through the pool: {pool:?}");
    assert_eq!(pool.emitted, pool.reclaimed + pool.allocations);
    assert_eq!(report.stacks, N);
    // The telemetry set rides the same loan: every packet arrival and
    // every drained cascade was sampled, into the shard's histograms.
    assert!(report.scratch_occupancy_bytes.count >= sends - 2, "{report}");
    assert!(report.cascade_depth.count >= sends - 2, "{report}");
}

fn assert_residents_untouched(stacks: Vec<Stack>) {
    assert_eq!(stacks.len(), N as usize);
    for s in &stacks {
        assert_eq!(s.wire_stats(), ScratchStats::default(), "{} encoded outside a loan", s.id());
        assert_eq!(s.telemetry().set_bytes(), 0, "{} holds a histogram or delivery ring", s.id());
        if !s.has_work() {
            assert_eq!(s.dispatch_capacity(), (0, 0), "{} idle, holding dispatch slots", s.id());
        }
    }
}

#[test]
fn loan_discipline_holds_on_the_runtime() {
    let rt = runtime();
    drive_every_loaned_entry_point(&rt);
    assert_residents_untouched(rt.shutdown());
}

#[test]
fn loan_discipline_holds_on_the_reactor() {
    let r = reactor();
    drive_every_loaned_entry_point(&r);
    assert_residents_untouched(r.shutdown());
}

/// `with_stack` on an id the host does not serve panics on the *calling*
/// thread, names the id, and leaves the host serving.
fn bad_id_panics_on_the_caller_only<H: Host + Copy>(mut host: H, bad: StackId) {
    let panic = catch_unwind(AssertUnwindSafe(|| host.with_stack(bad, |s| s.id())))
        .expect_err("an unhosted id must not yield a stack");
    let msg = panic.downcast_ref::<String>().expect("panic message");
    assert!(msg.contains(&bad.to_string()), "panic names the offending id: {msg}");
    assert_eq!(host.with_stack(StackId(1), |s| s.id()), StackId(1), "host still serves");
    assert_eq!(host.telemetry_report().stacks, 2);
}

#[test]
fn runtime_survives_with_stack_on_an_id_beyond_n() {
    let rt = Runtime::spawn(RuntimeConfig::new(2).with_shards(2), mk);
    bad_id_panics_on_the_caller_only(&rt, StackId(2));
    bad_id_panics_on_the_caller_only(&rt, StackId(77));
    assert_eq!(rt.shutdown().len(), 2);
}

#[test]
fn reactor_survives_with_stack_on_an_id_it_does_not_host() {
    // Stack 2 is in the group but hosted elsewhere; 77 is not even in
    // the group.
    let r = Reactor::spawn(ReactorConfig::new(3, vec![StackId(0), StackId(1)]), mk).expect("spawn");
    bad_id_panics_on_the_caller_only(&r, StackId(2));
    bad_id_panics_on_the_caller_only(&r, StackId(77));
    assert_eq!(r.shutdown().len(), 2);
}

/// A send to `StackId(N)` — outside the group — is counted as
/// unroutable, not as sent-and-forgotten and not as loss.
fn unroutable_send_is_counted<H: Host>(mut host: H, stats: impl Fn() -> SocketCounters) {
    wait_until("start-up chatter settled", Duration::from_secs(30), || {
        let s = stats();
        s.packets_sent >= u64::from(N * (1 + BEATS))
    });
    let before = stats();
    host.with_stack(StackId(0), |s| {
        let data = s.encode(&(StackId(N), Bytes::from_static(b"void")));
        s.call_as(CHATTER, &ServiceId::new(svc::NET), net_ops::SEND, data);
    });
    // `with_stack` returns before the follow-up poll executes the send.
    wait_until("the send to be executed", Duration::from_secs(30), || {
        stats().packets_sent > before.packets_sent
    });
    let after = stats();
    assert_eq!(after.packets_sent, before.packets_sent + 1);
    assert_eq!(after.unroutable, before.unroutable + 1, "{after:?}");
    assert_eq!(after.unroutable, 1);
    assert_eq!(after.packets_dropped, 0, "no loss model configured: {after:?}");
}

#[test]
fn runtime_counts_unroutable_sends() {
    let rt = runtime();
    unroutable_send_is_counted(&rt, || rt.stats());
    rt.shutdown();
}

#[test]
fn reactor_counts_unroutable_sends() {
    let r = reactor();
    unroutable_send_is_counted(&r, || r.stats());
    r.shutdown();
}

/// Destroy every stack's chatter module: a lifecycle event in each
/// stack's own flight recorder, which the host's dump then names.
fn destroy_every_chatter<H: Host>(mut host: H) {
    for node in 0..N {
        host.with_stack(StackId(node), |s| s.destroy_module(CHATTER));
    }
}

fn names_every_stack(dump: &str) -> bool {
    (0..N).all(|node| dump.contains(&format!("[stack {node}]")))
}

#[test]
fn sim_flight_dump_names_every_stack() {
    let mut sim = Sim::new(SimConfig::lan(N, 7), mk);
    sim.run_until(Time::ZERO + Dur::millis(50));
    destroy_every_chatter(&mut sim);
    sim.run_until(sim.now() + Dur::millis(1));
    let dump = sim.dump_flight_recorders();
    assert!(names_every_stack(&dump), "{dump}");
}

#[test]
fn runtime_flight_dump_names_every_stack() {
    let rt = runtime();
    destroy_every_chatter(&rt);
    wait_until("every stack in the flight dump", Duration::from_secs(30), || {
        names_every_stack(&rt.dump_flight_recorders())
    });
    rt.shutdown();
}

#[test]
fn reactor_flight_dump_names_every_stack() {
    let r = reactor();
    destroy_every_chatter(&r);
    wait_until("every stack in the flight dump", Duration::from_secs(30), || {
        names_every_stack(&r.dump_flight_recorders())
    });
    r.shutdown();
}
