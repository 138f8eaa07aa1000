//! The conservative parallel execution engine: cluster shards on a
//! worker-thread pool, synchronized by lookahead-wide epochs.
//!
//! # Why conservative, and where the lookahead comes from
//!
//! PR 4 made the *scheduler* ~6× faster, but every stack step, wire
//! decode and timer fire still ran on one core. Classic conservative
//! parallel discrete-event simulation (bounded-window / YAWNS-style
//! synchronization) recovers the idle cores: partition the nodes so
//! that interactions *within* a partition are frequent and interactions
//! *across* partitions are slow, then let each partition advance
//! independently through a time window no wider than the fastest
//! cross-partition interaction. The [`crate::Topology`] hands us
//! exactly that partition — LAN clusters joined by a WAN backbone — and
//! the window width (*lookahead*) is the minimum cross-cluster link
//! latency ([`crate::Topology::lookahead`]): a packet sent at time `t`
//! across a cluster boundary cannot arrive before `t + lookahead`,
//! because jitter, transmission delay and NIC queueing only ever add to
//! the propagation delay.
//!
//! # The epoch protocol
//!
//! Let `T` be the earliest pending event over all shards and `W` the
//! lookahead. One epoch:
//!
//! 1. **parallel phase** — every shard processes its own events with
//!    time `< T + W`, in its local deterministic `(time, seq)` order.
//!    Sends to nodes of the same cluster are pushed straight back into
//!    the shard's queue (they may arrive inside the epoch); sends that
//!    cross a cluster boundary are buffered in the source shard's
//!    per-destination outbox — their arrival times are necessarily
//!    `≥ T + W`, so the destination cannot need them this epoch;
//! 2. **barrier** — workers rendezvous on a spin barrier;
//! 3. **exchange** — outboxes are merged into the destination shards'
//!    queues in a fixed order (destination-major, then source shard,
//!    then emission order), each arrival taking the next local `seq`.
//!
//! Barrier-time *actions* (scheduled closures, workload injections —
//! anything needing `&mut Sim`) bound the stretch of epochs: an action
//! at time `t` runs after every shard event before `t` and before any
//! shard event at or after `t` (`crate::Sim::schedule`).
//!
//! # Determinism
//!
//! The run is bit-identical for every worker count because nothing a
//! worker computes depends on *when* or *where* it runs:
//!
//! * shard state (nodes, event queue, `seq` counter, link-randomness
//!   RNG stream, stats partial) is touched only by the shard's owner —
//!   one worker per epoch, exclusive. *Which* worker owns a shard is
//!   decided dynamically (work-stealing claims, see `WorkerPool`),
//!   but the claim is exclusive and the shard's event order is its own,
//!   so ownership placement is invisible to the result;
//! * the epoch schedule (`T`, `T + W`, action barriers) is derived from
//!   shard queue minima and the action queue — pure functions of the
//!   configuration and seed;
//! * the exchange merges outboxes in a fixed order, so cross-cluster
//!   arrivals get identical `(time, seq)` keys no matter which thread
//!   produced them; ties in arrival time are broken by (source shard,
//!   emission order), both deterministic;
//! * per-worker counters are per-*shard* counters; folding them
//!   ([`crate::Sim::stats`]) is commutative addition.
//!
//! A flat topology is the one-shard case of the same protocol: no
//! cross-cluster link exists, so the lookahead is unbounded and a
//! stretch is a single epoch up to the next action, in the shard's
//! strict `(time, seq)` order. With one shard there is nothing to
//! spread over workers, so `workers > 1` runs it on the calling thread.
//! `crates/sim/tests/par_equiv.rs` property-tests the equivalence of
//! worker counts across random clustered topologies and seeds, and
//! `sched_equiv.rs` pins the timing wheel to a reference heap.

use crate::{CpuConfig, Shard, SimShared, Topology};
use dpu_core::time::{Dur, Time};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;

/// A reusable sense-reversing barrier. Spins briefly (the common case:
/// workers finish their epochs within microseconds of each other), then
/// yields, so it degrades gracefully on machines with fewer cores than
/// workers.
pub(crate) struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    pub(crate) fn new(parties: usize) -> SpinBarrier {
        SpinBarrier {
            parties,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Mark the barrier dead: every current and future [`wait`] returns
    /// `false` instead of blocking. Called from a panicking party's
    /// unwind path, so its peers disband instead of spinning forever on
    /// a cohort that can no longer complete.
    ///
    /// [`wait`]: SpinBarrier::wait
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Rendezvous; `true` on a completed phase, `false` if the barrier
    /// was poisoned (the caller must stop using it).
    #[must_use]
    pub(crate) fn wait(&self) -> bool {
        if self.poisoned.load(Ordering::Acquire) {
            return false;
        }
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arrival: reset the count, then release the cohort.
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Acquire) {
                    return false;
                }
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        true
    }
}

/// Poisons the barrier if dropped mid-panic, so a panicking worker (or
/// control thread) disbands the cohort; the panic then propagates
/// through the scoped join instead of deadlocking the run.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The epoch schedule, written once for every worker count: floor = the
/// earliest pending event over all shards; horizon = floor + lookahead,
/// capped at `bound` (`None` = unbounded, so one shard runs straight to
/// `bound`); `run` processes every shard to the horizon; [`exchange`].
/// Repeats until no shard has an event before `bound` (exclusive).
pub(crate) fn run_epochs(
    shards: &mut Vec<Shard>,
    lookahead: Option<Dur>,
    bound: Time,
    mut run: impl FnMut(&mut Vec<Shard>, Time),
) {
    while let Some(floor) =
        shards.iter_mut().filter_map(Shard::next_time).min().filter(|f| *f < bound)
    {
        let horizon =
            lookahead.map_or(bound, |la| Time(floor.0.saturating_add(la.as_nanos()).min(bound.0)));
        run(shards, horizon);
        exchange(shards);
    }
}

/// Merge every shard's cross-cluster outboxes into the destination
/// shards, in the fixed deterministic order: destination-major, then
/// source shard, then emission order. [`crate::Sim`]'s barrier-context
/// sends follow the same order, so both assign identical `(time, seq)`
/// keys.
fn exchange(shards: &mut [Shard]) {
    for dst in 0..shards.len() {
        for src in 0..shards.len() {
            let batch = shards[src].take_outbox(dst);
            for packet in batch {
                shards[dst].push_arrival(packet);
            }
        }
    }
}

/// One stretch of epochs handed to the pool. The shards sit in their
/// cells only during a parallel phase (the control thread owns them
/// between epochs for exchange + floor); the rest is the read-only view
/// workers dispatch against plus the epoch-control atomics.
struct StretchJob {
    cells: Vec<Mutex<Option<Shard>>>,
    topology: Arc<Topology>,
    cpu: CpuConfig,
    n: u32,
    barrier: SpinBarrier,
    /// Exclusive horizon of the current epoch (nanoseconds).
    horizon: AtomicU64,
    stop: AtomicBool,
    /// Work-stealing cursor: workers `fetch_add` their way through
    /// [`StretchJob::order`] until it runs out, so an epoch-imbalanced
    /// shard set self-balances instead of idling the fixed-stride
    /// owners of light shards.
    claim: AtomicUsize,
    /// The claim order of the current epoch: shard indices, busiest
    /// event queue first (longest-processing-time-first — the heavy
    /// shard starts immediately and stragglers don't gate the barrier).
    /// Written by the control thread before the start-of-epoch barrier.
    order: Vec<AtomicUsize>,
}

/// What the pool's condvar guards: a monotone job generation plus the
/// current job. Workers sleep here between stretches.
#[derive(Default)]
struct JobBoard {
    gen: u64,
    job: Option<Arc<StretchJob>>,
    shutdown: bool,
}

/// The persistent worker pool: `workers` OS threads spawned once per
/// [`crate::Sim`] and parked on a condvar between stretches, replacing
/// the old spawn-and-join of scoped threads per stretch (a few tens of
/// microseconds per barrier action — ~1% of an action-dense Poisson
/// soak, and pure waste at the 10⁵-stack scale where stretches are
/// short and plentiful).
///
/// Within a stretch the protocol is unchanged — start barrier, parallel
/// phase, end barrier — except that workers *claim* shards dynamically
/// through [`StretchJob::claim`] instead of walking a fixed stride.
/// Claiming is work stealing with deterministic results: it only decides
/// *which thread* executes a shard's epoch, never the order of events
/// within the shard (exclusive per epoch) nor the exchange order at the
/// barrier (fixed, destination-major), so the run stays bit-identical
/// for every worker count — see the module docs.
///
/// A panic in module code poisons the stretch's barrier: its cohort
/// disbands, the control thread re-raises the panic, and the `Sim` is
/// dead (the shards died with the job). The pool itself shuts down via
/// [`Drop`], which is what a panicking run unwinds into.
pub(crate) struct WorkerPool {
    workers: usize,
    board: Arc<(StdMutex<JobBoard>, Condvar)>,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    pub(crate) fn new(workers: usize) -> WorkerPool {
        let board = Arc::new((StdMutex::new(JobBoard::default()), Condvar::new()));
        let threads = (0..workers)
            .map(|wi| {
                let board = Arc::clone(&board);
                std::thread::Builder::new()
                    .name(format!("sim-worker-{wi}"))
                    .spawn(move || worker_loop(&board))
                    .expect("spawn simulation worker thread")
            })
            .collect();
        WorkerPool { workers, board, threads }
    }

    /// Hand `body` the pool's one job — "run these shards to this
    /// horizon on the workers" — for a stretch of epochs whose schedule
    /// `body` computes ([`run_epochs`]), then stand the workers down.
    /// The workers are woken on the first epoch, so a stretch with none
    /// costs no wake-up. The control thread (the caller) sets each
    /// epoch's horizon and claim order, parks the shards in the job's
    /// cells for the parallel phase and takes them back after it, so the
    /// exchange runs when the workers hold no locks.
    pub(crate) fn stretch(
        &self,
        topology: Arc<Topology>,
        cpu: CpuConfig,
        n: u32,
        nshards: usize,
        body: impl FnOnce(&mut dyn FnMut(&mut Vec<Shard>, Time)),
    ) {
        let job = Arc::new(StretchJob {
            cells: (0..nshards).map(|_| Mutex::new(None)).collect(),
            topology,
            cpu,
            n,
            barrier: SpinBarrier::new(self.workers + 1),
            horizon: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            claim: AtomicUsize::new(0),
            order: (0..nshards).map(AtomicUsize::new).collect(),
        });
        // If the control thread panics (exchange runs Shard code), the
        // workers must disband rather than spin on a dead cohort.
        let _poison = PoisonOnPanic(&job.barrier);
        let mut posted = false;
        body(&mut |shards: &mut Vec<Shard>, horizon: Time| {
            if !posted {
                self.post(&job);
                posted = true;
            }
            job.horizon.store(horizon.0, Ordering::Release);
            // Longest-queue-first claim order; ties break on shard index
            // (sort_by_key is stable), keeping the order deterministic —
            // not that it matters for the result, only for telemetry.
            let mut order: Vec<usize> = (0..nshards).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(shards[i].sched.len()));
            for (slot, idx) in job.order.iter().zip(order) {
                slot.store(idx, Ordering::Relaxed);
            }
            job.claim.store(0, Ordering::Relaxed);
            for (cell, shard) in job.cells.iter().zip(shards.drain(..)) {
                *cell.lock() = Some(shard);
            }
            if !job.barrier.wait() {
                panic!("parallel simulation worker panicked");
            }
            // ... the workers execute the epoch ...
            if !job.barrier.wait() {
                panic!("parallel simulation worker panicked");
            }
            shards.extend(
                job.cells.iter().map(|c| c.lock().take().expect("shard parked for the epoch")),
            );
        });
        if posted {
            job.stop.store(true, Ordering::Release);
            if !job.barrier.wait() {
                panic!("parallel simulation worker panicked");
            }
        }
    }

    /// Wake the workers onto `job`.
    fn post(&self, job: &Arc<StretchJob>) {
        let (board, cond) = &*self.board;
        let mut b = board.lock().expect("pool board poisoned");
        b.gen += 1;
        b.job = Some(Arc::clone(job));
        cond.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let (board, cond) = &*self.board;
            if let Ok(mut b) = board.lock() {
                b.shutdown = true;
                cond.notify_all();
            }
        }
        for t in self.threads.drain(..) {
            // A worker that panicked mid-run is already gone; its join
            // error is the panic we re-raised at the barrier.
            let _ = t.join();
        }
    }
}

/// A pool thread: sleep on the board until a new job generation (or
/// shutdown), work the stretch, repeat.
fn worker_loop(board: &(StdMutex<JobBoard>, Condvar)) {
    let mut last_gen = 0;
    loop {
        let job = {
            let (board, cond) = board;
            let mut b = board.lock().expect("pool board poisoned");
            loop {
                if b.shutdown {
                    return;
                }
                if b.gen != last_gen {
                    last_gen = b.gen;
                    break Arc::clone(b.job.as_ref().expect("job posted with the gen bump"));
                }
                b = cond.wait(b).expect("pool board poisoned");
            }
        };
        stretch_worker(&job);
    }
}

/// One worker's side of a stretch: rendezvous, claim-and-run shards
/// until the epoch's claim cursor runs dry, rendezvous again.
fn stretch_worker(job: &StretchJob) {
    // A panic in module code (run_epoch executes arbitrary stack
    // handlers) poisons the barrier on unwind, so the cohort — control
    // thread included — disbands instead of waiting forever; the control
    // thread then re-raises the panic on its side.
    let _poison = PoisonOnPanic(&job.barrier);
    let shared = SimShared { topology: &job.topology, cpu: &job.cpu, n: job.n };
    let nshards = job.cells.len();
    loop {
        if !job.barrier.wait() {
            return; // a peer panicked
        }
        if job.stop.load(Ordering::Acquire) {
            return; // stretch complete — back to the board
        }
        let h = Time(job.horizon.load(Ordering::Acquire));
        loop {
            let k = job.claim.fetch_add(1, Ordering::AcqRel);
            if k >= nshards {
                break;
            }
            let idx = job.order[k].load(Ordering::Relaxed);
            let mut cell = job.cells[idx].lock();
            cell.as_mut().expect("shard parked for the epoch").run_epoch(&shared, h);
        }
        if !job.barrier.wait() {
            return; // a peer panicked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SpinBarrier;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spin_barrier_synchronizes_repeated_phases() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(THREADS);
        let arrived = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        arrived.fetch_add(1, Ordering::AcqRel);
                        assert!(barrier.wait());
                        // Between two waits every thread observes the
                        // full cohort of the current round.
                        let seen = arrived.load(Ordering::Acquire);
                        assert!(
                            seen >= (round + 1) * THREADS,
                            "round {round}: saw only {seen} arrivals"
                        );
                        assert!(barrier.wait());
                    }
                });
            }
        });
        assert_eq!(arrived.load(Ordering::Acquire), THREADS * ROUNDS);
    }
}
