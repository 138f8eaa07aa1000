//! The wheel scheduler against its reference model.
//!
//! The simulator once ran on a single global `BinaryHeap` ordered by
//! `(time, seq)`; the golden fingerprint in `tests/host_equivalence.rs`
//! was recorded then, and the timing wheel that replaced it must pop in
//! exactly that order for any bucket width, slot count and resize
//! history. Two arms:
//!
//! * an op-sequence model test of [`Scheduler`] against a local heap —
//!   random interleavings of pushes onto every wheel level, pops with
//!   horizons that stop short, and peeks followed by an earlier push
//!   (what the parallel engine's epoch-floor probe does), with event
//!   density swinging across both adaptive-resize thresholds;
//! * a full-`Sim` property: a run is a function of `(config, seed)` and
//!   not of the scheduler's tuning — event pop order decides every RNG
//!   draw downstream, so one out-of-order pop diverges the fingerprint.

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::time::{Dur, Time};
use dpu_core::wire::Encode;
use dpu_core::{Call, Module, Response, ServiceId, Stack, StackConfig, StackId, TimerId};
use dpu_sim::sched::Scheduler;
use dpu_sim::workload::{self, Generator};
use dpu_sim::{SchedConfig, Sim, SimConfig, SimStats};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

const FAR: Time = Time(u64::MAX);

/// The reference model: one global min-heap over `(time, seq)`; the
/// payload of every event is its `seq`.
#[derive(Default)]
struct Heap(BinaryHeap<Reverse<(Time, u64)>>);

impl Heap {
    fn push(&mut self, at: Time, seq: u64) {
        self.0.push(Reverse((at, seq)));
    }

    fn next_time(&self) -> Option<Time> {
        self.0.peek().map(|&Reverse((at, _))| at)
    }

    fn pop_before(&mut self, horizon: Time) -> Option<(Time, u64)> {
        if self.next_time()? > horizon {
            return None;
        }
        self.0.pop().map(|Reverse(e)| e)
    }
}

/// Inter-arrival gaps (ns) of the simulator's own bursty thinning
/// generator (inhomogeneous Poisson, see `dpu_sim::workload`): each
/// 100 ms period opens with 4 ms at 1 M arrivals/s, then idles at
/// 40 k/s — a few thousand arrivals per phase at ~1 µs and ~25 µs
/// spacing, so a wheel fed at this density sees buckets far too crowded
/// and far too sparse for most widths swept below.
fn bursty_gaps(seed: u64) -> Vec<u64> {
    let mut sim = Sim::new(SimConfig::lan(1, seed), |sc| Stack::new(sc, FactoryRegistry::new()));
    let arrivals = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&arrivals);
    let until = Time::ZERO + Dur::millis(300);
    workload::install(
        &mut sim,
        "gaps",
        vec![StackId(0)],
        until,
        Generator::Bursty {
            base: 40_000.0,
            burst: 1_000_000.0,
            period: Dur::millis(100),
            duty: 0.04,
            inject: Box::new(move |sim, _| sink.lock().unwrap().push(sim.now().as_nanos())),
        },
    );
    sim.run_until(until);
    let arrivals = arrivals.lock().unwrap();
    arrivals.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Standing population the op sequence holds the queue at: a popped
/// event respawns `POPULATION` gaps ahead, so the event density the
/// wheel sees is one per gap.
const POPULATION: u64 = 64;

/// The wheel and the model, driven in lock-step: every observable of
/// every operation is compared.
struct Lockstep {
    wheel: Scheduler<u64>,
    model: Heap,
    seq: u64,
    /// Time of the last pop — the floor for pushes, as in the `Sim`.
    now: Time,
}

impl Lockstep {
    fn push(&mut self, at: Time) {
        self.wheel.push(at, self.seq, self.seq);
        self.model.push(at, self.seq);
        self.seq += 1;
        assert_eq!(self.wheel.len(), self.model.0.len());
    }

    fn peek(&mut self) -> Option<Time> {
        let peeked = self.wheel.next_time();
        assert_eq!(peeked, self.model.next_time(), "next_time at {:?}", self.now);
        peeked
    }

    fn pop(&mut self, horizon: Time) -> Option<Time> {
        let got = self.wheel.pop_before(horizon);
        assert_eq!(
            got,
            self.model.pop_before(horizon),
            "pop_before({horizon:?}) at {:?}",
            self.now
        );
        assert_eq!(self.wheel.len(), self.model.0.len());
        let (at, _) = got?;
        assert!(self.now <= at && at <= horizon);
        self.now = at;
        Some(at)
    }
}

/// Drive one scheduler configuration through an op sequence, one op per
/// gap; returns the resize count.
fn model_run(cfg: &SchedConfig, gaps: &[u64], seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ls =
        Lockstep { wheel: Scheduler::new(cfg, 1), model: Heap::default(), seq: 0, now: Time::ZERO };
    let width = cfg.bucket.as_nanos().next_power_of_two();
    let slots = cfg.buckets as u64;
    let mut last_at = Time::ZERO;
    for &gap in gaps {
        let r: u64 = rng.gen();
        let k = 1 + (r >> 8) % slots;
        let now = ls.now;
        let at = match r % 32 {
            // Zero delay, and a tie with the previous push.
            0 | 1 => Some(now),
            2 | 3 => Some(last_at.max(now)),
            // One push onto each coarser level, and beyond the span
            // (not monotonically: a later push can be the earlier key).
            4 => Some(now + Dur::nanos(width * slots * k)),
            5 => Some(now + Dur::nanos(width * slots * slots * k)),
            6 => Some(now + Dur::nanos(width * slots * slots * slots * (1 + k % 4))),
            // Peek, then push earlier than the peeked time.
            7..=9 => ls.peek().map(|t| now + Dur::nanos((t.as_nanos() - now.as_nanos()) / 2)),
            // A horizon that may stop short of the head.
            10..=12 => {
                ls.pop(now + Dur::nanos(gap / 2));
                None
            }
            // Turnover: the head respawns one population ahead.
            _ => ls.pop(FAR).map(|at| at + Dur::nanos(POPULATION * gap)),
        };
        if let Some(at) = at {
            ls.push(at);
            last_at = at;
        }
        if ls.wheel.len() as u64 > POPULATION {
            ls.pop(FAR);
        }
    }
    while ls.pop(FAR).is_some() {}
    assert!(ls.wheel.is_empty() && ls.model.0.is_empty());
    ls.wheel.resizes()
}

#[test]
fn wheel_matches_heap_model_on_random_op_sequences() {
    for seed in [1u64, 2] {
        let gaps = bursty_gaps(seed);
        assert!(gaps.len() > 20_000, "generator produced only {} arrivals", gaps.len());
        for bucket_us in [1u64, 13, 64, 500, 5_000] {
            for buckets in [64usize, 256] {
                for adaptive in [true, false] {
                    let cfg = SchedConfig { bucket: Dur::micros(bucket_us), buckets, adaptive };
                    let resizes = model_run(&cfg, &gaps, seed ^ bucket_us ^ buckets as u64);
                    assert_eq!(resizes > 0, adaptive, "{cfg:?}: {resizes} resizes");
                }
            }
        }
    }
}

/// The shared equivalence-suite fingerprint (see
/// `dpu_core::TraceLog::fingerprint`).
fn trace_fingerprint(trace: &dpu_core::TraceLog) -> u64 {
    trace.fingerprint()
}

/// A busy module: periodic timers, rotating sends, echoes — enough event
/// diversity (packets, wakes, steps) to exercise every scheduler path.
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

#[allow(clippy::too_many_arguments)]
fn run(
    sched: SchedConfig,
    n: u32,
    seed: u64,
    loss: f64,
    duplicate: f64,
    millis: u64,
    crash: bool,
) -> (SimStats, u64) {
    let mut cfg = SimConfig::lan(n, seed);
    cfg.net.loss = loss;
    cfg.net.duplicate = duplicate;
    cfg.sched = sched;
    let mut sim = Sim::new(cfg, mk_stack);
    if crash {
        sim.crash_at(Time::ZERO + Dur::millis(millis / 2), StackId(n - 1));
    }
    sim.run_until(Time::ZERO + Dur::millis(millis));
    (sim.stats(), trace_fingerprint(&sim.merged_trace()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any swept scheduler tuning reproduces the default tuning's stats
    /// and trace fingerprint for random small configs — random bucket
    /// widths so bucket-boundary ties get exercised, and fault settings
    /// that make the RNG stream order-sensitive.
    #[test]
    fn any_scheduler_tuning_reproduces_the_default_run(
        n in 2u32..=8,
        seed in any::<u64>(),
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.2,
        millis in 40u64..200,
        bucket_us in prop_oneof![Just(1u64), Just(13), Just(64), Just(500), Just(5_000)],
        buckets in prop_oneof![Just(64usize), Just(256)],
        adaptive in any::<bool>(),
        crash in any::<bool>(),
    ) {
        let swept = SchedConfig { bucket: Dur::micros(bucket_us), buckets, adaptive };
        let reference = run(SchedConfig::default(), n, seed, loss, duplicate, millis, crash);
        let swept = run(swept, n, seed, loss, duplicate, millis, crash);
        prop_assert_eq!(&reference.0, &swept.0, "stats diverged");
        prop_assert_eq!(reference.1, swept.1, "trace fingerprint diverged");
    }
}
