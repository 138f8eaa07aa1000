//! Serial-vs-parallel equivalence property test: the conservative
//! clustered engine must produce *bit-identical* runs — same stats,
//! same trace fingerprint, same delivery-latency histogram — whatever
//! the worker count, across random topologies, seeds and fault
//! settings. This is the parallel-engine counterpart of
//! `sched_equiv.rs`: event order decides every RNG draw downstream, so
//! one out-of-order dispatch, one misordered cross-cluster exchange or
//! one shard-RNG share diverges the fingerprint immediately.

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::telemetry::HistSummary;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::{self, Encode, LenPrefixed};
use dpu_core::{Call, Module, Response, ServiceId, Stack, StackConfig, StackId, TimerId};
use dpu_sim::{NetConfig, Sim, SimConfig, SimStats};
use proptest::prelude::*;

/// The shared equivalence-suite fingerprint (see
/// `dpu_core::TraceLog::fingerprint`).
fn trace_fingerprint(trace: &dpu_core::TraceLog) -> u64 {
    trace.fingerprint()
}

/// A busy module: periodic timers, rotating sends (half of them across
/// cluster boundaries, by construction of the rotation), echoes — the
/// event diversity that exercises intra-epoch processing, the
/// cross-cluster exchange and stale-wake handling alike. Every datagram
/// carries its send time and the receiver stamps the latency, so the
/// shards' telemetry histograms have something to disagree about.
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
        let (src, stamp): (StackId, Bytes) = resp.decode().unwrap();
        if let Ok(sent_ns) = wire::from_bytes::<u64>(&stamp) {
            let now_ns = ctx.now().as_nanos();
            ctx.telemetry().note_delivery(now_ns, now_ns.saturating_sub(sent_ns));
        }
        if self.received.is_multiple_of(2) {
            let reply = (src, stamp).to_bytes();
            ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, reply);
        }
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        let n = ctx.peers().len() as u32;
        let me = ctx.stack_id().0;
        let peer = StackId((me + 1 + self.next_peer) % n);
        self.next_peer = (self.next_peer + 1) % n.max(1);
        if peer != ctx.stack_id() {
            let data = (peer, LenPrefixed(&ctx.now().as_nanos())).to_bytes();
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
    duplicate: f64,
    backbone_us: u64,
    millis: u64,
    crash: bool,
}

fn run(sc: &Scenario, workers: usize) -> (SimStats, u64, HistSummary) {
    // The faults ride on both link classes.
    let intra = NetConfig { loss: sc.loss, duplicate: sc.duplicate, ..NetConfig::lan() };
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
    sim.run_until(Time::ZERO + Dur::millis(sc.millis));
    let stats = sim.stats();
    let fp = trace_fingerprint(&sim.merged_trace());
    (stats, fp, sim.telemetry_report().delivery_latency_ns)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// One-worker and multi-worker runs of random clustered
    /// configurations are identical — the worker count is a pure
    /// wall-clock knob.
    #[test]
    fn parallel_engine_reproduces_serial_fingerprint(
        n in 4u32..=12,
        cluster_size in prop_oneof![Just(1u32), Just(2), Just(3), Just(5)],
        seed in any::<u64>(),
        loss in 0.0f64..0.2,
        duplicate in 0.0f64..0.15,
        backbone_us in prop_oneof![Just(150u64), Just(400), Just(2_000)],
        millis in 30u64..100,
        crash in any::<bool>(),
        workers in 2usize..=4,
    ) {
        let sc = Scenario { n, cluster_size, seed, loss, duplicate, backbone_us, millis, crash };
        let serial = run(&sc, 1);
        let parallel = run(&sc, workers);
        prop_assert_eq!(&serial.0, &parallel.0, "stats diverged");
        prop_assert_eq!(serial.1, parallel.1, "trace fingerprint diverged");
        prop_assert_eq!(serial.2, parallel.2, "delivery-latency histogram diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The full hierarchical atomic broadcast stack — per-cluster local
    /// sequencers, leader-cluster stream merge, relay fan-out — is
    /// bit-identical across worker counts: same stats, same trace
    /// fingerprint, same delivery log. This is the protocol whose
    /// traffic pattern the cluster sharding exists for, so it doubles
    /// as the engine's most adversarial in-tree workload (cross-cluster
    /// forwards and commits on every broadcast).
    #[test]
    fn hier_abcast_stack_is_worker_count_invariant(
        n in prop_oneof![Just(6u32), Just(8), Just(12)],
        cluster_size in prop_oneof![Just(2u32), Just(3), Just(4)],
        seed in any::<u64>(),
        workers in 2usize..=4,
    ) {
        use dpu_protocols::testing::{self, Variant};
        let run = |workers: usize| {
            let cfg =
                SimConfig::clustered(n, seed, cluster_size, NetConfig::datacenter(), NetConfig::lan())
                    .with_workers(workers);
            let mut sim =
                Sim::new(cfg, |sc| testing::conformance_stack(sc, Variant::Hier, 0));
            let nodes = sim.stack_ids();
            let until = Time::ZERO + Dur::millis(2500);
            let mut counter = 0u64;
            dpu_sim::workload::install(
                &mut sim,
                "abcast",
                nodes,
                until,
                dpu_sim::workload::Generator::Poisson {
                    rate: 40.0,
                    inject: Box::new(move |sim, node| {
                        counter += 1;
                        let payload = (node.0, counter).to_bytes();
                        sim.with_stack(node, |s| testing::send(s, payload));
                    }),
                },
            );
            sim.run_until(until + Dur::secs(2));
            let stats = sim.stats();
            let fp = trace_fingerprint(&sim.merged_trace());
            let log = sim.with_stack(StackId(0), testing::log);
            (stats, fp, log)
        };
        let serial = run(1);
        let parallel = run(workers);
        prop_assert!(!serial.2.is_empty(), "the run must actually deliver broadcasts");
        prop_assert_eq!(&serial.0, &parallel.0, "stats diverged");
        prop_assert_eq!(serial.1, parallel.1, "trace fingerprint diverged");
        prop_assert_eq!(&serial.2, &parallel.2, "delivery log diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Steal-pressure invariance for the persistent work-stealing pool:
    /// with more workers than ready shards (and again with fewer), the
    /// claim cursor's races decide only *which thread* executes a
    /// shard, never the shard-internal event order or the exchange
    /// order — so every worker count reproduces the one-worker run
    /// bit-for-bit. Oversubscribed counts (workers > shards) maximise
    /// contention on the cursor; tiny counts maximise multi-shard
    /// batches per worker.
    #[test]
    fn work_stealing_pool_is_steal_pressure_invariant(
        n in 6u32..=16,
        cluster_size in prop_oneof![Just(2u32), Just(3)],
        seed in any::<u64>(),
        loss in 0.0f64..0.15,
        millis in 30u64..80,
        workers_a in 2usize..=8,
        workers_b in 2usize..=8,
    ) {
        let sc = Scenario {
            n,
            cluster_size,
            seed,
            loss,
            duplicate: 0.0,
            backbone_us: 400,
            millis,
            crash: false,
        };
        let serial = run(&sc, 1);
        let a = run(&sc, workers_a);
        let b = run(&sc, workers_b);
        prop_assert_eq!(&serial.0, &a.0, "stats diverged (workers_a)");
        prop_assert_eq!(serial.1, a.1, "fingerprint diverged (workers_a)");
        prop_assert_eq!(&serial.0, &b.0, "stats diverged (workers_b)");
        prop_assert_eq!(serial.1, b.1, "fingerprint diverged (workers_b)");
        prop_assert_eq!(serial.2, a.2, "delivery-latency histogram diverged (workers_a)");
        prop_assert_eq!(serial.2, b.2, "delivery-latency histogram diverged (workers_b)");
    }
}

/// The SimStats merge satellite: on a partitioned clustered run, the
/// per-worker (per-shard) counter folding must equal the one-worker
/// counters exactly, field by field, and the per-shard rows must sum
/// back to the folded totals.
#[test]
fn per_worker_stats_fold_to_serial_counters_on_partitioned_run() {
    let run = |workers: usize| {
        let cfg = SimConfig::clustered(9, 4242, 3, NetConfig::lan(), NetConfig::wan())
            .with_workers(workers);
        let mut sim = Sim::new(cfg, mk_stack);
        // Cut two clusters apart mid-run, heal later: partition drops
        // and loss-free delivery both accumulate.
        sim.schedule(Time::ZERO + Dur::millis(30), |sim| sim.partition_clusters(0, 1));
        sim.schedule(Time::ZERO + Dur::millis(90), |sim| sim.heal_partitions());
        sim.run_until(Time::ZERO + Dur::millis(150));
        sim.stats()
    };
    let serial = run(1);
    let parallel = run(4);
    assert!(serial.dropped_partition > 0, "the partition must have dropped packets");
    assert_eq!(serial.events, parallel.events);
    assert_eq!(serial.packets_sent, parallel.packets_sent);
    assert_eq!(serial.packets_delivered, parallel.packets_delivered);
    assert_eq!(serial.steps, parallel.steps);
    assert_eq!(serial.dropped_loss, parallel.dropped_loss);
    assert_eq!(serial.dropped_partition, parallel.dropped_partition);
    assert_eq!(serial.bytes_sent, parallel.bytes_sent);
    assert_eq!(serial, parallel, "full stats including per-shard rows");
    // The per-shard rows sum back to the totals (events excepted:
    // barrier actions belong to no shard).
    assert_eq!(parallel.per_shard.len(), 3);
    let delivered: u64 = parallel.per_shard.iter().map(|s| s.packets_delivered).sum();
    let steps: u64 = parallel.per_shard.iter().map(|s| s.steps).sum();
    let shard_events: u64 = parallel.per_shard.iter().map(|s| s.events).sum();
    assert_eq!(delivered, parallel.packets_delivered);
    assert_eq!(steps, parallel.steps);
    assert!(shard_events <= parallel.events);
}

/// A panic inside module code running on a pool worker must propagate
/// out of `Sim::run_until` (via barrier poisoning + the control
/// thread's poisoned-wait check) — not deadlock the cohort at the
/// epoch barrier, and not hang the persistent pool's condvar loop.
#[test]
#[should_panic(expected = "parallel simulation worker panicked")]
fn worker_panic_propagates_instead_of_deadlocking() {
    // The worker's own payload ("module blew up") is printed on its
    // thread, but the control thread rethrows with the pool's message;
    // a regression of the barrier poisoning shows up as a hang, not a
    // different string.
    struct Bomb {
        ticks: u32,
    }
    impl Module for Bomb {
        fn kind(&self) -> &str {
            "bomb"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.set_timer(Dur::millis(1), 1);
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
            self.ticks += 1;
            assert!(self.ticks < 5 || ctx.stack_id() != StackId(5), "module blew up");
            ctx.set_timer(Dur::millis(1), 1);
        }
    }
    let cfg = SimConfig::clustered(8, 1, 2, NetConfig::lan(), NetConfig::wan()).with_workers(3);
    let mut sim = Sim::new(cfg, |sc| {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        s.add_module(Box::new(Bomb { ticks: 0 }));
        s
    });
    sim.run_until(Time::ZERO + Dur::secs(1));
}

/// Workload generators are pinned per cluster: their arrival streams,
/// and therefore the whole run, are identical across worker counts.
#[test]
fn cluster_pinned_workloads_are_worker_count_invariant() {
    let run = |workers: usize| {
        let cfg = SimConfig::clustered(8, 99, 2, NetConfig::lan(), NetConfig::wan())
            .with_workers(workers);
        let mut sim = Sim::new(cfg, mk_stack);
        let nodes = sim.stack_ids();
        let until = Time::ZERO + Dur::millis(400);
        dpu_sim::workload::install(
            &mut sim,
            "poisson",
            nodes,
            until,
            dpu_sim::workload::Generator::Poisson {
                rate: 2_000.0,
                inject: Box::new(|sim, node| {
                    let data =
                        (StackId((node.0 + 1) % sim.n()), Bytes::from_static(b"w")).to_bytes();
                    sim.with_stack(node, |s| {
                        s.call_as(
                            dpu_core::ModuleId(2),
                            &ServiceId::new(dpu_core::svc::NET),
                            net_ops::SEND,
                            data,
                        )
                    });
                }),
            },
        );
        sim.run_until(until + Dur::millis(50));
        let stats = sim.stats();
        let fp = trace_fingerprint(&sim.merged_trace());
        (stats, fp)
    };
    let serial = run(1);
    let parallel = run(3);
    assert!(serial.0.workloads[0].injected > 100, "{:?}", serial.0.workloads);
    assert_eq!(serial, parallel);
}
