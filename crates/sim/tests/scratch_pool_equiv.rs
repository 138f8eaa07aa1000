//! The shard loan's accounting, end to end: a `Sim` lends each shard's
//! scratch pool, dispatch buffers and `TelemetrySet` to whichever stack
//! it drives, so after any run — random clustered topologies, loss,
//! crashes, restarts, worker counts — everything encoded or recorded at
//! event rate must be in the shard's pool and set and nothing in a
//! hosted stack: no histogram, no delivery ring, no encode counter, and
//! no dispatch capacity in a stack without work. The totals a report
//! folds are then exactly the shard pools plus what retired stacks
//! counted, and must satisfy `emitted == reclaimed + allocations`.
//!
//! What the pool itself guarantees — bytes identical to
//! `Encode::to_bytes`, its retain and scan budgets — is unit-tested in
//! `dpu_core::wire`.

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::time::{Dur, Time};
use dpu_core::wire::{Encode, ScratchStats};
use dpu_core::{Call, Module, Response, ServiceId, Stack, StackConfig, StackId, TimerId};
use dpu_sim::{NetConfig, Sim, SimConfig, SimStats};
use proptest::prelude::*;

/// A busy module: periodic timers, rotating sends (half across cluster
/// boundaries), echoes — enough encode traffic through every dispatch
/// path (deliver, step, settle) to catch a loan imbalance anywhere.
struct Chatter {
    period: Dur,
    next_peer: u32,
    received: u64,
}

impl Module for Chatter {
    fn kind(&self) -> &str {
        "chatter"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(dpu_core::svc::NET)]
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.set_timer(self.period, 1);
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != net_ops::RECV {
            return;
        }
        self.received += 1;
        if self.received.is_multiple_of(2) {
            let (src, _): (StackId, Bytes) = resp.decode().unwrap();
            let reply = (src, Bytes::from_static(b"echo")).to_bytes();
            ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, reply);
        }
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        let n = ctx.peers().len() as u32;
        let me = ctx.stack_id().0;
        let peer = StackId((me + 1 + self.next_peer) % n);
        self.next_peer = (self.next_peer + 1) % n.max(1);
        if peer != ctx.stack_id() {
            let data = (peer, Bytes::from_static(b"tick")).to_bytes();
            ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data);
        }
        ctx.set_timer(self.period, 1);
    }
}

fn mk_stack(sc: StackConfig) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    s.add_module(Box::new(Chatter { period: Dur::millis(7), next_peer: 0, received: 0 }));
    s
}

struct Scenario {
    n: u32,
    cluster_size: u32,
    seed: u64,
    loss: f64,
    backbone_us: u64,
    millis: u64,
    crash: bool,
    restart: bool,
}

/// One full run, with the per-stack residual checks every run must
/// pass; returns the stats and the folded wire totals.
fn run(sc: &Scenario, workers: usize) -> (SimStats, ScratchStats) {
    // The loss rides on both link classes.
    let intra = NetConfig::lossy(sc.loss);
    let backbone = NetConfig {
        latency: Dur::micros(sc.backbone_us),
        jitter: Dur::micros(sc.backbone_us / 4),
        ..intra.clone()
    };
    let cfg =
        SimConfig::clustered(sc.n, sc.seed, sc.cluster_size, intra, backbone).with_workers(workers);
    let mut sim = Sim::new(cfg, mk_stack);
    if sc.crash {
        sim.crash_at(Time::ZERO + Dur::millis(sc.millis / 2), StackId(sc.n - 1));
    }
    if sc.restart {
        // Churn exercises the retired-stats absorption path: whatever a
        // retiring stack counted must survive into the totals.
        sim.schedule(Time::ZERO + Dur::millis(sc.millis / 3), |sim| {
            sim.restart_node_with(StackId(0), mk_stack);
        });
    }
    sim.run_until(Time::ZERO + Dur::millis(sc.millis));
    // Nothing encoded or recorded at event rate may have stayed in a
    // stack, nor dispatch capacity in one without work…
    for id in sim.stack_ids() {
        let stack = sim.stack(id);
        assert_eq!(stack.telemetry().set_bytes(), 0, "{id} holds a histogram or delivery ring");
        assert_eq!(stack.wire_stats(), ScratchStats::default(), "{id} holds encode counters");
        if !stack.has_work() {
            assert_eq!(stack.dispatch_capacity(), (0, 0), "{id} is idle and holds dispatch slots");
        }
    }
    // …it is in the shard sets and pools the report folds.
    let tel = sim.telemetry_report();
    assert!(tel.scratch_occupancy_bytes.count > 0, "packet arrivals must be sampled");
    assert!(tel.cascade_depth.count > 0, "cascades must be sampled");
    (sim.stats(), tel.wire)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every run leaves its stacks empty-handed (asserted in `run`) and
    /// its folded wire totals satisfy the scratch accounting identity
    /// exactly.
    #[test]
    fn shard_loan_accounts_for_every_encode(
        n in 4u32..=12,
        cluster_size in prop_oneof![Just(1u32), Just(2), Just(3), Just(5)],
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
        backbone_us in prop_oneof![Just(150u64), Just(400), Just(2_000)],
        millis in 30u64..100,
        crash in any::<bool>(),
        restart in any::<bool>(),
        workers in 1usize..=4,
    ) {
        let sc = Scenario { n, cluster_size, seed, loss, backbone_us, millis, crash, restart };
        let (_, wire) = run(&sc, workers);
        prop_assert!(wire.emitted > 0, "the run must actually emit messages");
        prop_assert_eq!(wire.emitted, wire.reclaimed + wire.allocations);
    }
}

/// Deterministic edition, across churn: with every per-stack residual
/// zero (asserted in `run`), the wire totals are exactly the shard
/// pools plus retired partials — and they are complete: `Chatter`
/// encodes nothing itself, so the one scratch encode per packet handed
/// to a stack must account for every emitted message, including those
/// the restarted and the crashed stack received before they went.
#[test]
fn pooled_wire_totals_survive_churn() {
    let sc = Scenario {
        n: 9,
        cluster_size: 3,
        seed: 0xC0FFEE,
        loss: 0.05,
        backbone_us: 400,
        millis: 120,
        crash: true,
        restart: true,
    };
    let (stats, wire) = run(&sc, 3);
    assert!(wire.emitted > 0, "the run must actually emit messages");
    assert_eq!(wire.emitted, stats.packets_delivered, "an encode went uncounted");
    assert_eq!(wire.emitted, wire.reclaimed + wire.allocations);
}
