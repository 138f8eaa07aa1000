//! Shard-pool observational-equivalence property test: the scratch
//! loan discipline ([`dpu_sim::SimConfig::scratch_pooling`]) is a pure
//! representation change — *where* encode buffers live (one pool per
//! shard vs one retained set per stack) must never show in anything a
//! run computes. Across random clustered topologies, fault settings and
//! worker counts, a pooled run and a per-stack run must produce the
//! same stats, the same trace fingerprint and the same number of
//! emitted wire messages; and in both modes the scratch accounting
//! identity `emitted == reclaimed + allocations` must hold exactly.
//!
//! The telemetry half of the loan is unconditional, so both arms lend
//! the shard's `TelemetrySet`: after either run no hosted stack may
//! hold an allocated histogram or delivery ring, the samples must be in
//! the report, and the cascade-depth histogram (scratch-independent)
//! must summarise identically.
//!
//! Reclaim/allocation *counts* are intentionally not compared across
//! modes: a deep shared pool reclaims buffers a 32-entry per-stack set
//! would have dropped, so those counters are the win being bought, not
//! an invariant.

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::telemetry::HistSummary;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::Encode;
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

/// One full run: returns `(stats, fingerprint, wire stats, cascade-depth
/// summary)`.
fn run(
    sc: &Scenario,
    pooling: bool,
    workers: usize,
) -> (SimStats, u64, dpu_core::wire::ScratchStats, HistSummary) {
    let intra = NetConfig::lan();
    let backbone = NetConfig {
        latency: Dur::micros(sc.backbone_us),
        jitter: Dur::micros(sc.backbone_us / 4),
        ..NetConfig::lan()
    };
    let mut cfg = SimConfig::clustered(sc.n, sc.seed, sc.cluster_size, intra, backbone);
    cfg.net.loss = sc.loss;
    cfg.workers = workers;
    let cfg = cfg.with_scratch_pooling(pooling);
    let mut sim = Sim::new(cfg, mk_stack);
    if sc.crash {
        sim.crash_at(Time::ZERO + Dur::millis(sc.millis / 2), StackId(sc.n - 1));
    }
    if sc.restart {
        // Churn exercises the retired-stats absorption path: the wire
        // counters of a retiring stack must survive into the totals.
        sim.schedule(Time::ZERO + Dur::millis(sc.millis / 3), |sim| {
            sim.restart_node_with(StackId(0), mk_stack);
        });
    }
    sim.run_until(Time::ZERO + Dur::millis(sc.millis));
    let stats = sim.stats();
    let fp = sim.merged_trace().fingerprint();
    let wire = sim.wire_stats();
    // Nothing recorded at event rate may have stayed in a stack…
    for id in sim.stack_ids() {
        assert_eq!(
            sim.stack(id).telemetry().set_bytes(),
            0,
            "{id} holds a histogram or delivery ring (pooling={pooling})"
        );
    }
    // …it is in the shard sets the report folds.
    let tel = sim.telemetry_report();
    assert!(tel.scratch_occupancy_bytes.count > 0, "packet arrivals must be sampled");
    (stats, fp, wire, tel.cascade_depth)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Pooled and per-stack scratch runs are observationally identical
    /// — stats, fingerprint, emitted count — and both modes satisfy the
    /// scratch accounting identity exactly.
    #[test]
    fn shard_pool_is_observationally_identical_to_per_stack_scratch(
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
        let pooled = run(&sc, true, workers);
        let per_stack = run(&sc, false, workers);
        prop_assert_eq!(&pooled.0, &per_stack.0, "stats diverged");
        prop_assert_eq!(pooled.1, per_stack.1, "trace fingerprint diverged");
        prop_assert_eq!(pooled.2.emitted, per_stack.2.emitted, "emitted wire messages diverged");
        prop_assert!(pooled.3.count > 0, "cascades must be sampled");
        prop_assert_eq!(pooled.3, per_stack.3, "cascade-depth histogram diverged");
        for (mode, wire) in [("pooled", pooled.2), ("per-stack", per_stack.2)] {
            prop_assert_eq!(
                wire.emitted,
                wire.reclaimed + wire.allocations,
                "{} scratch accounting identity broken",
                mode
            );
        }
    }
}

/// The pooled representation's defining property, deterministic
/// edition: a pooled run's wire totals are exactly the shard pools plus
/// retired partials (per-stack residuals are zero), and they match the
/// per-stack run's totals on the same scenario even across churn.
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
    let pooled = run(&sc, true, 3);
    let per_stack = run(&sc, false, 3);
    assert_eq!(pooled.0, per_stack.0, "stats diverged");
    assert_eq!(pooled.1, per_stack.1, "fingerprint diverged");
    assert_eq!(pooled.2.emitted, per_stack.2.emitted, "emitted diverged");
    assert!(pooled.2.emitted > 0, "the run must actually emit messages");
}
