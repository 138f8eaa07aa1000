//! A restart must not forget what the old incarnation measured: across
//! a [`Generator::Churn`] workload every counter of
//! [`Sim::telemetry_report`] is monotone. Histogram samples survive by
//! construction (they live in the shard's set, never in the stack);
//! what a stack holds itself — completed switches, the lifecycle ring's
//! drop count, wire and transport counters — must be carried over by
//! the shard's retired partial when the slab slot is recycled.

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::telemetry::{TelemetryConfig, TelemetryReport};
use dpu_core::time::{Dur, Time};
use dpu_core::wire;
use dpu_core::{Call, Module, Response, ServiceId, Stack, StackConfig, StackId, TimerId};
use dpu_sim::workload::{self, Generator};
use dpu_sim::{NetConfig, Sim, SimConfig};
use std::sync::Arc;

/// Every 2 ms, one time-stamped datagram to the next peer. Every
/// receipt is a latency sample; every third one also walks a complete
/// switch lifecycle through the telemetry, so `completed`, the blackout
/// and swap-gap histograms and (with a 2-slot ring) the lifecycle drop
/// count all move on every stack.
struct Beacon {
    received: u64,
}

impl Module for Beacon {
    fn kind(&self) -> &str {
        "beacon"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(dpu_core::svc::NET)]
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.set_timer(Dur::millis(2), 1);
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != net_ops::RECV {
            return;
        }
        let (_, payload): (StackId, Bytes) = resp.decode().unwrap();
        let sent_ns: u64 = wire::from_bytes(&payload).unwrap();
        let now = ctx.now().as_nanos();
        self.received += 1;
        if self.received.is_multiple_of(3) {
            ctx.telemetry().switch_requested(now.saturating_sub(300));
            ctx.telemetry().switch_flushed(now.saturating_sub(200));
            ctx.telemetry().switch_activated(now.saturating_sub(100));
        }
        ctx.telemetry().note_delivery(now, now.saturating_sub(sent_ns));
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        let next = StackId((ctx.stack_id().0 + 1) % ctx.peers().len() as u32);
        let stamp = ctx.encode(&ctx.now().as_nanos());
        let data = ctx.encode(&(next, stamp));
        ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data);
        ctx.set_timer(Dur::millis(2), 1);
    }
}

/// Two-slot rings: lifecycle events overflow within a few switches, so
/// `flight_dropped` has a per-stack part a restart could lose. The
/// churn factory builds its replacements here too.
fn mk_stack(sc: StackConfig) -> Stack {
    let sc = StackConfig { telemetry: TelemetryConfig { flight_capacity: 2 }, ..sc };
    let mut s = Stack::new(sc, FactoryRegistry::new());
    s.add_module(Box::new(Beacon { received: 0 }));
    s
}

/// Every cumulative counter of the report, by name.
fn counters(r: &TelemetryReport) -> Vec<(&'static str, u64)> {
    vec![
        ("delivery_latency.count", r.delivery_latency_ns.count),
        ("cascade_depth.count", r.cascade_depth.count),
        ("scratch_occupancy.count", r.scratch_occupancy_bytes.count),
        ("reseq_depth.count", r.reseq_depth.count),
        ("switches.completed", r.switches.completed),
        ("switches.blackout.count", r.switches.blackout_ns.count),
        ("switches.swap_gap.count", r.switches.swap_gap_ns.count),
        ("flight_dropped", r.flight_dropped),
        ("wire.emitted", r.wire.emitted),
        ("wire.reclaimed", r.wire.reclaimed),
        ("wire.allocations", r.wire.allocations),
        ("transport.retransmissions", r.transport.retransmissions),
        ("transport.exhausted", r.transport.exhausted),
    ]
}

#[test]
fn every_report_counter_is_monotone_across_restarts() {
    const N: u32 = 12;
    let cfg = SimConfig::clustered(N, 0xBEAC, 4, NetConfig::lan(), NetConfig::lan());
    let mut sim = Sim::new(cfg, mk_stack);

    let until = Time::ZERO + Dur::millis(200);
    sim.run_until(Time::ZERO + Dur::millis(40));
    let nodes = sim.stack_ids();
    let churn = workload::install(
        &mut sim,
        "churn",
        nodes,
        until,
        Generator::Churn { crashes: 8, downtime: Dur::millis(6), factory: Arc::new(mk_stack) },
    );

    let mut last = counters(&sim.telemetry_report());
    assert!(last.iter().any(|&(name, v)| name == "switches.completed" && v > 0), "{last:?}");
    assert!(last.iter().any(|&(name, v)| name == "flight_dropped" && v > 0), "{last:?}");
    let mut at = sim.now();
    while at < until + Dur::millis(20) {
        at += Dur::millis(1);
        sim.run_until(at);
        let report = sim.telemetry_report();
        assert_eq!(report.stacks, N);
        assert_eq!(report.stacks, N, "a retired incarnation is not a hosted stack");
        let now = counters(&report);
        for (&(name, before), &(_, after)) in last.iter().zip(&now) {
            assert!(after >= before, "{name} went down across t={at}: {before} -> {after}");
        }
        last = now;
    }
    let stats = sim.stats();
    assert_eq!(stats.workloads[churn].restarts, 8, "the churn must actually restart nodes");
    // The retired incarnations' share is real: the live stacks alone
    // account for fewer completed switches than the report carries.
    let live: u64 = sim
        .stack_ids()
        .into_iter()
        .map(|id| sim.stack(id).telemetry().state().unwrap().switches.completed())
        .sum();
    let total = sim.telemetry_report().switches.completed;
    assert!(live < total, "retired stacks completed switches too: live {live}, report {total}");
    assert_eq!(
        total,
        sim.telemetry_report().switches.blackout_ns.count,
        "every completed switch has its blackout sample, whichever incarnation closed it"
    );
}
