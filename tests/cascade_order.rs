//! One input, one cascade: a stack takes its next input only once the
//! dispatch cascade of the one before has drained — on the simulator,
//! where a second packet arrives while the first one's cascade is still
//! being charged to the node's modelled CPU, and on a live host's shard,
//! where both packets enter the stack before it takes a step.

use bytes::Bytes;
use dpu::sim::{NetConfig, Sim, SimConfig, Topology};
use dpu_core::host::{LiveShard, NullSink, WallClock};
use dpu_core::stack::net_ops;
use dpu_core::time::{Dur, Time};
use dpu_core::{
    Call, FactoryRegistry, Module, ModuleCtx, Op, Response, ServiceId, Stack, StackConfig, StackId,
};
use std::sync::{Arc, Mutex};

/// What stack 1's modules ran, in order: the datagram's tag, the step,
/// and the time the stack was told.
type Log = Arc<Mutex<Vec<(u8, &'static str, Time)>>>;

const RELAY: &str = "relay";
/// Calls to `relay` each datagram starts, one after the other.
const DEPTH: Op = 3;

fn net() -> ServiceId {
    ServiceId::new(dpu_core::svc::NET)
}

/// On stack 0: sends the datagrams `a` and `b` to stack 1 in one step.
struct Sender;

impl Module for Sender {
    fn kind(&self) -> &str {
        "sender"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![net()]
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        for tag in [b'a', b'b'] {
            let data = ctx.encode(&(StackId(1), Bytes::from(vec![tag])));
            ctx.call(&net(), net_ops::SEND, data);
        }
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
}

/// On stack 1: each datagram starts a chain of [`DEPTH`] calls to
/// `relay`, the next made when the last is answered — a cascade of
/// 2 × `DEPTH` + 1 steps.
struct Head(Log);

impl Module for Head {
    fn kind(&self) -> &str {
        "head"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![net(), ServiceId::new(RELAY)]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let relay = ServiceId::new(RELAY);
        let (tag, left) = if resp.service == net() {
            let (_, payload): (StackId, Bytes) = resp.decode().expect("a net.RECV");
            (payload, DEPTH)
        } else {
            (resp.data, resp.op - 1)
        };
        let step = if left == DEPTH { "datagram" } else { "answer" };
        self.0.lock().unwrap().push((tag[0], step, ctx.now()));
        if left > 0 {
            ctx.call(&relay, left, tag);
        }
    }
}

/// On stack 1: answers every call on `relay` with its op and payload.
struct Relay(Log);

impl Module for Relay {
    fn kind(&self) -> &str {
        "relay"
    }
    fn provides(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(RELAY)]
    }
    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        self.0.lock().unwrap().push((call.data[0], "relay", ctx.now()));
        ctx.respond(&call.service, call.op, call.data);
    }
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
}

/// Stack 1: `relay` bound, and its user listening on `net`.
fn receiver(stack: &mut Stack, log: &Log) {
    let relay = stack.add_module(Box::new(Relay(Arc::clone(log))));
    stack.bind(&ServiceId::new(RELAY), relay);
    stack.add_module(Box::new(Head(Arc::clone(log))));
}

/// The order of the steps, without their times.
fn order(log: &Log) -> Vec<(u8, &'static str)> {
    log.lock().unwrap().iter().map(|&(tag, step, _)| (tag, step)).collect()
}

#[test]
fn a_packet_arriving_mid_cascade_waits_for_it_on_every_host() {
    let sim_log = Log::default();
    // No jitter: `a` and `b` leave in one step and arrive in that order,
    // `b` trailing by its transmission delay, a few microseconds.
    let lan = NetConfig { jitter: Dur::ZERO, ..NetConfig::lan() };
    let cfg = SimConfig { topology: Topology::flat(lan), ..SimConfig::lan(2, 1) };
    let mut sim = Sim::new(cfg, |sc| {
        let id = sc.id;
        let mut stack = Stack::new(sc, FactoryRegistry::new());
        if id == StackId(0) {
            stack.add_module(Box::new(Sender));
        } else {
            receiver(&mut stack, &sim_log);
        }
        stack
    });
    sim.run_until(Time::ZERO + Dur::millis(10));
    let one = |tag| {
        let chain = [(tag, "relay"), (tag, "answer")].repeat(usize::from(DEPTH));
        [vec![(tag, "datagram")], chain].concat()
    };
    let expected = [one(b'a'), one(b'b')].concat();
    assert_eq!(order(&sim_log), expected, "a's whole cascade, then b's");
    // Each step costs the node 40 µs: `b` arrived long before `a`'s
    // cascade was done.
    let times: Vec<Time> = sim_log.lock().unwrap().iter().map(|e| e.2).collect();
    let span = times[2 * usize::from(DEPTH)] - times[0];
    assert!(span >= Dur::micros(200), "a's cascade took {span}");

    // The same two packets on a live host's shard, both in the stack
    // before its first step.
    let live_log = Log::default();
    let mut stack = Stack::new(StackConfig::nth(1, 2, 1), FactoryRegistry::new());
    receiver(&mut stack, &live_log);
    let mut shard = LiveShard::new(WallClock::start(), [stack]);
    let now = shard.now();
    shard.ctl(
        0,
        |s| {
            for tag in [b'a', b'b'] {
                s.packet_in(now, StackId(0), Bytes::from(vec![tag]));
            }
        },
        &mut NullSink,
    );
    assert_eq!(order(&live_log), expected, "the simulator's order");
}
