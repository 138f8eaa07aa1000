//! Isolated kernels: one public function of one layer timed in a loop.
//! They give the per-layer unit costs (`core.dispatch_ns_per_step`,
//! `core.wire_*`, `net.sockframe_*`, `sim.sched_ns_per_op`,
//! `telemetry.hist_record_ns`) that the cost ledger multiplies by the
//! counts of a run.

use crate::stats::{median, splitmix};
use crate::trace::Tracer;
use bytes::Bytes;
use dpu::core::probe::ProbeMsg;
use dpu::core::telemetry::Histogram;
use dpu::core::time::{Dur, Time};
use dpu::core::wire::{self, WireScratch};
use dpu::core::{
    Call, FactoryRegistry, Module, ModuleCtx, Response, ServiceId, Stack, StackConfig, StackId,
};
use dpu::net::sockframe::FrameCodec;
use dpu::sim::sched::Scheduler;
use dpu::sim::SchedConfig;
use std::hint::black_box;
use std::time::Instant;

/// Median ns per operation over `rounds` timings of `iters` calls of `op`
/// (after one untimed round).
fn ns_per_op(rounds: usize, iters: u64, mut op: impl FnMut()) -> f64 {
    let mut per_round = Vec::with_capacity(rounds);
    for round in 0..=rounds {
        let t = Instant::now();
        for _ in 0..iters {
            op();
        }
        if round > 0 {
            per_round.push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    median(&per_round)
}

const ECHO_SVC: &str = "bench.echo";
const ECHO_OP: u16 = 1;

/// Answers every call with a response carrying the same bytes.
struct Echo;

impl Module for Echo {
    fn kind(&self) -> &str {
        "bench.echo"
    }
    fn provides(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(ECHO_SVC)]
    }
    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        ctx.respond(&call.service, call.op, call.data);
    }
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
}

/// Requires the echo service and counts the responses.
#[derive(Default)]
struct EchoClient {
    got: u64,
}

impl Module for EchoClient {
    fn kind(&self) -> &str {
        "bench.echo-client"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(ECHO_SVC)]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {
        self.got += 1;
    }
}

/// `Stack::call_as` + `Stack::step` on a 2-module echo stack: one call
/// and one response dispatched per round trip, no host, no wire.
pub fn dispatch_ns_per_step(tr: &mut Tracer) -> f64 {
    let o = tr.begin("kernel.core.dispatch");
    let mut cfg = StackConfig::nth(0, 1, 1);
    cfg.trace = false;
    let mut stack = Stack::new(cfg, FactoryRegistry::new());
    let echo = stack.add_module(Box::new(Echo));
    let svc = ServiceId::new(ECHO_SVC);
    stack.bind(&svc, echo);
    let client = stack.add_module(Box::new(EchoClient::default()));
    while stack.step(Time::ZERO).is_some() {}
    let data = Bytes::from_static(&[7u8; 32]);
    let mut steps = 0u64;
    let iters = 100_000;
    let per_trip = ns_per_op(5, iters, || {
        stack.call_as(client, &svc, ECHO_OP, data.clone());
        while stack.step(Time::ZERO).is_some() {
            steps += 1;
        }
    });
    let got = stack.with_module::<EchoClient, _>(client, |c| c.got).expect("client present");
    assert_eq!(got, 6 * iters, "every echo call must come back");
    assert_eq!(steps, 2 * got, "one call step and one response step per round trip");
    tr.end(o);
    per_trip / 2.0
}

fn probe_msg() -> ProbeMsg {
    ProbeMsg {
        origin: StackId(1),
        seq: 123_456,
        sent_at: Time(987_654_321),
        pad: Bytes::from_static(&[0u8; 32]),
    }
}

/// `WireScratch::encode` and `wire::from_bytes` on a pad-32 `ProbeMsg`.
pub fn wire_ns(tr: &mut Tracer) -> (f64, f64) {
    let msg = probe_msg();
    let o = tr.begin("kernel.core.wire_encode");
    let mut scratch = WireScratch::new();
    let enc = ns_per_op(5, 200_000, || {
        black_box(scratch.encode(black_box(&msg)));
    });
    tr.end(o);
    let o = tr.begin("kernel.core.wire_decode");
    let bytes = scratch.encode(&msg);
    let dec = ns_per_op(5, 200_000, || {
        let m: ProbeMsg = wire::from_bytes(black_box(&bytes)).expect("own encoding decodes");
        black_box(m);
    });
    tr.end(o);
    (enc, dec)
}

/// `FrameCodec::encode` / `FrameCodec::decode` on an encoded pad-32 probe.
pub fn sockframe_ns(tr: &mut Tracer) -> (f64, f64) {
    let payload = wire::to_bytes(&probe_msg());
    let mut codec = FrameCodec::new();
    let o = tr.begin("kernel.net.sockframe_encode");
    let enc = ns_per_op(5, 200_000, || {
        black_box(codec.encode(StackId(1), StackId(2), black_box(&payload)));
    });
    tr.end(o);
    let o = tr.begin("kernel.net.sockframe_decode");
    let frame = codec.encode(StackId(1), StackId(2), &payload);
    let dec = ns_per_op(5, 200_000, || {
        black_box(codec.decode(black_box(&frame)).expect("own frame decodes"));
    });
    tr.end(o);
    (enc, dec)
}

/// `Histogram::record` over latency-like values.
pub fn hist_record_ns(tr: &mut Tracer) -> f64 {
    let o = tr.begin("kernel.telemetry.hist_record");
    let mut h = Histogram::new();
    let mut rng = 0x1234_5678u64;
    let ns = ns_per_op(5, 1_000_000, || {
        h.record(black_box(10_000 + splitmix(&mut rng) % 50_000_000));
    });
    black_box(h.count());
    tr.end(o);
    ns
}

/// How far ahead of the clock a workload schedules its events: `short`
/// for intra-cluster packets and step completions, `long` for backbone
/// packets and protocol timers, and the share of `long` ones.
#[derive(Clone, Copy)]
pub struct SchedProfile {
    pub short: (u64, u64),
    pub long: (u64, u64),
    pub long_pct: u64,
}

/// `Scheduler::pop_before` + `Scheduler::push` at a standing population
/// of `population` events (the `Sim::queued_events()` of the run it
/// stands for): ns per single operation.
pub fn sched_ns_per_op(tr: &mut Tracer, population: usize, profile: SchedProfile) -> f64 {
    let o = tr.begin("kernel.sim.sched");
    let population = population.clamp(16, 4_000_000);
    let mut rng = 0xABCD_EF01u64 ^ population as u64;
    let mut delta = move || {
        let r = splitmix(&mut rng);
        let (lo, hi) = if r % 100 < profile.long_pct { profile.long } else { profile.short };
        lo + (r >> 8) % (hi - lo).max(1)
    };
    // The event is sized like the simulator's own (discriminant, two ids, a `Bytes`).
    let mut sched: Scheduler<[u64; 5]> = Scheduler::new(&SchedConfig::default(), population);
    let mut seq = 0u64;
    for _ in 0..population {
        sched.push(Time(delta()), seq, [seq; 5]);
        seq += 1;
    }
    let iters = (population as u64 * 2).clamp(200_000, 2_000_000);
    let per_pair = ns_per_op(3, iters, || {
        let (at, ev) = sched.pop_before(Time(u64::MAX)).expect("standing population");
        sched.push(at + Dur::nanos(delta()), seq, ev);
        seq += 1;
    });
    assert_eq!(sched.len(), population);
    tr.end(o);
    per_pair / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_return_positive_costs() {
        let mut tr = Tracer::new(true);
        assert!(dispatch_ns_per_step(&mut tr) > 0.0);
        let (e, d) = wire_ns(&mut tr);
        assert!(e > 0.0 && d > 0.0);
        let (e, d) = sockframe_ns(&mut tr);
        assert!(e > 0.0 && d > 0.0);
        assert!(hist_record_ns(&mut tr) > 0.0);
        let p = SchedProfile { short: (1_000, 20_000), long: (1_000_000, 9_000_000), long_pct: 20 };
        assert!(sched_ns_per_op(&mut tr, 1_000, p) > 0.0);
        assert_eq!(tr.spans().len(), 7, "one span per kernel");
    }
}
