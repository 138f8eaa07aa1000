//! The wheel scheduler against its reference model.
//!
//! The simulator once ran on a single global `BinaryHeap` ordered by
//! `(time, seq)`; the golden fingerprint in `tests/host_equivalence.rs`
//! was recorded then, and the timing wheel that replaced it must pop in
//! exactly that order for any starting bucket width, slot count and
//! resize history. An op-sequence model test of [`Scheduler`] against a
//! local heap: random interleavings of pushes onto every wheel level,
//! pops with horizons that stop short, and peeks followed by an earlier
//! push (what the parallel engine's epoch-floor probe does), with event
//! density swinging across both adaptive-resize thresholds. Event pop
//! order decides every RNG draw of a `Sim` run downstream, so one
//! out-of-order pop would diverge the fingerprint.

use dpu_core::stack::FactoryRegistry;
use dpu_core::time::{Dur, Time};
use dpu_core::{Stack, StackId};
use dpu_sim::sched::Scheduler;
use dpu_sim::workload::{self, Generator};
use dpu_sim::{SchedConfig, Sim, SimConfig};
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
                let cfg = SchedConfig { bucket: Dur::micros(bucket_us), buckets };
                let resizes = model_run(&cfg, &gaps, seed ^ bucket_us ^ buckets as u64);
                assert!(resizes > 0, "{cfg:?}: the width never adapted");
            }
        }
    }
}
