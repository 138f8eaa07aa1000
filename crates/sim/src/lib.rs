//! # dpu-sim — deterministic discrete-event host for DPU stacks
//!
//! Stands in for the paper's evaluation testbed (a cluster of 7 PCs on
//! switched 100 Mb/s Ethernet, §6.1) — and scales far past it: the
//! cluster-sharded engine ([`par`]), the [`sched`] timing-wheel
//! scheduler and the [`topology`]/[`workload`] subsystems exist to run
//! the same live-switch experiments on thousands of simulated nodes. A
//! [`Sim`] hosts `n` [`Stack`]s under a single virtual clock and models:
//!
//! * **the network** ([`NetConfig`] per link, composed by a
//!   [`Topology`]): per-hop propagation delay + jitter, transmission
//!   delay from a configurable bandwidth, probabilistic loss and
//!   duplication, and dynamic partitions — datagram semantics, like the
//!   UDP the paper's stack bottoms out in. Topologies range from the
//!   paper's flat LAN to datacenter clusters joined by a WAN backbone;
//! * **the CPU** ([`CpuConfig`]): each dispatched stack step occupies the
//!   node's single CPU for a configurable service time, so load produces
//!   queueing and the latency-vs-load curves of the paper's Figure 6 get
//!   their characteristic knee;
//! * **faults**: node crashes (and restarts) at arbitrary virtual times;
//! * **traffic**: pluggable [`workload`] generators — open-loop
//!   Poisson, bursty Poisson, node churn.
//!
//! Everything is driven from one seeded RNG family, so a run is a pure
//! function of `(configuration, seed)` — every number the benchmark and
//! the paper-figure binaries print is exactly reproducible, whatever the
//! [`sched`] wheel's bucket width or the worker count (see
//! [`SimConfig::workers`] and [`par`]).
//!
//! # The execution engine
//!
//! Nodes are partitioned into *shards*, one per [`Topology`] cluster.
//! Each shard owns its nodes, its own [`sched`] event queue, its own
//! RNG stream for link randomness, and its own [`stats`] partial. One
//! engine runs every topology: shards advance in *epochs* bounded by
//! the topology-derived lookahead (see [`Topology::lookahead`] and the
//! [`par`] module docs), exchanging cross-cluster packets at
//! deterministic barriers, and scheduled actions ([`Sim::schedule`])
//! run between stretches of epochs. A **flat topology** is the
//! one-shard case: its lookahead is unbounded, so a stretch is a single
//! epoch up to the next action. The epoch schedule is a pure function
//! of the configuration, so the run is bit-identical whether the shards
//! are processed by one thread ([`SimConfig::workers`]` = 1`, the
//! default) or by a worker pool.
//!
//! ```
//! use dpu_core::{Stack, StackConfig, FactoryRegistry};
//! use dpu_sim::{Sim, SimConfig};
//! use dpu_core::time::{Time, Dur};
//!
//! let cfg = SimConfig::lan(3, 42);
//! let mut sim = Sim::new(cfg, |sc| Stack::new(sc, FactoryRegistry::new()));
//! sim.run_until(Time::ZERO + Dur::millis(10));
//! assert_eq!(sim.now(), Time::ZERO + Dur::millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;
pub mod sched;
mod slab;
pub mod stats;
pub mod topology;
pub mod workload;

pub use sched::SchedConfig;
pub use stats::{ShardStats, SimStats, WorkloadStats};
pub use topology::{NetConfig, Topology};

use bytes::Bytes;
use dpu_core::host::{ActionSink, ReportFold, ShardPools, StackDriver};
use dpu_core::stack::StepCategory;
use dpu_core::time::{Dur, Time};
use dpu_core::trace::TraceLog;
use dpu_core::{Stack, StackConfig, StackId, TelemetryConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sched::Scheduler;
use slab::NodeSlab;
use std::collections::BTreeMap;
use std::sync::Arc;

/// CPU model: virtual service time charged per dispatched stack step, by
/// step category. Calibrated very roughly to the paper's Pentium III
/// 766 MHz running a Java protocol framework — absolute values only shape
/// the saturation point, not the comparative results. A caller picks a
/// preset ([`CpuConfig::fast`], or the default calibration every
/// [`SimConfig`] constructor sets).
#[derive(Clone, Debug)]
pub struct CpuConfig {
    /// Cost of dispatching a service call.
    call: Dur,
    /// Cost of dispatching a response.
    response: Dur,
    /// Cost of a timer handler.
    timer: Dur,
    /// Cost of `on_start`.
    start: Dur,
    /// Cost of removing a destroyed module (its `StepCategory::Stop`
    /// step).
    stop: Dur,
}

impl CpuConfig {
    /// Default calibration (see module docs).
    pub(crate) fn default_cal() -> CpuConfig {
        CpuConfig {
            call: Dur::micros(40),
            response: Dur::micros(40),
            timer: Dur::micros(15),
            start: Dur::micros(80),
            stop: Dur::micros(30),
        }
    }

    /// A modern-hardware calibration: ~1 µs per dispatch, i.e. a few
    /// thousand cycles on a ~3 GHz core running the native stack rather
    /// than the paper's Pentium III Java framework. The thousand-node
    /// experiments use this together with [`crate::NetConfig::datacenter`];
    /// with the default calibration a sequencer fanning one broadcast
    /// out to 1024 peers would charge 2 × 1024 × 40 µs ≈ 82 ms of CPU
    /// per message and saturate at ~12 msg/s.
    pub fn fast() -> CpuConfig {
        CpuConfig {
            call: Dur::micros(1),
            response: Dur::micros(1),
            timer: Dur::nanos(500),
            start: Dur::micros(2),
            stop: Dur::micros(1),
        }
    }

    /// Cost for a step category.
    pub fn cost(&self, cat: StepCategory) -> Dur {
        match cat {
            StepCategory::Call => self.call,
            StepCategory::Response => self.response,
            StepCategory::Timer => self.timer,
            StepCategory::Start => self.start,
            StepCategory::Stop => self.stop,
        }
    }
}

/// Full simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of stacks (machines), ids `0..n`.
    pub n: u32,
    /// Master seed; all randomness (jitter, loss, per-stack RNG streams,
    /// workload generators) derives from it.
    pub seed: u64,
    /// CPU model.
    pub cpu: CpuConfig,
    /// Record a trace in each stack: every bind, unbind, module lifetime
    /// and blocked call, plus a digest and a per-`(service, op)` tally of
    /// every call and response — per stack what its replacements and the
    /// services it binds add, whatever the length of the run
    /// (`dpu_core::trace`). [`Sim::merged_trace`] reads them.
    pub trace: bool,
    /// The network: the [`NetConfig`] of every link class (one for a
    /// flat topology, intra-cluster and backbone for a clustered one)
    /// plus per-link overrides. A different link is a different
    /// `NetConfig` handed to [`Topology::flat`] or
    /// [`Topology::clustered`].
    pub topology: Topology,
    /// Worker threads for the conservative parallel engine (default 1 =
    /// process every shard on the calling thread). The worker count
    /// never changes the result of a run — only its wall-clock time —
    /// and only clustered topologies have exploitable parallelism; see
    /// the [`par`] module docs.
    pub workers: usize,
}

impl SimConfig {
    /// `n` machines on a healthy LAN: `Topology::flat(NetConfig::lan())`.
    pub fn lan(n: u32, seed: u64) -> SimConfig {
        SimConfig {
            n,
            seed,
            cpu: CpuConfig::default_cal(),
            trace: true,
            topology: Topology::flat(NetConfig::lan()),
            workers: 1,
        }
    }

    /// `n` machines in clusters of `cluster_size` on `intra` links,
    /// joined by `backbone` — see [`Topology::clustered`].
    pub fn clustered(
        n: u32,
        seed: u64,
        cluster_size: u32,
        intra: NetConfig,
        backbone: NetConfig,
    ) -> SimConfig {
        SimConfig {
            topology: Topology::clustered(cluster_size, intra, backbone),
            ..SimConfig::lan(n, seed)
        }
    }

    /// Set the worker-thread count (builder style).
    pub fn with_workers(mut self, workers: usize) -> SimConfig {
        self.workers = workers;
        self
    }
}

pub(crate) enum EventKind {
    PacketArrive {
        dst: StackId,
        src: StackId,
        payload: Bytes,
    },
    /// Wake a node's [`StackDriver`] so it fires its due timers. One
    /// wake is kept scheduled per node, stamped in [`Node::wake`];
    /// entries whose time no longer matches the stamp are stale
    /// (a nearer deadline was scheduled since) and are skipped.
    NodeWake {
        node: StackId,
    },
    NodeStep {
        node: StackId,
    },
    Crash {
        node: StackId,
    },
}

/// [`ActionSink`] that buffers sends so they can be replayed through the
/// network model once the driver borrow ends.
#[derive(Default)]
struct SendBuf {
    sends: Vec<(Time, StackId, StackId, Bytes)>,
}

impl ActionSink for SendBuf {
    fn net_send(&mut self, at: Time, src: StackId, dst: StackId, payload: Bytes) {
        self.sends.push((at, src, dst, payload));
    }
}

/// A cross-cluster packet in transit between shards: arrival time,
/// destination, source, payload. Buffered in the source shard's
/// [`Shard::outbox`] and merged at the next epoch barrier.
pub(crate) type Inflight = (Time, StackId, StackId, Bytes);

/// Read-only simulation state shared with shard processing (and, in the
/// parallel engine, across worker threads).
pub(crate) struct SimShared<'a> {
    topology: &'a Topology,
    cpu: &'a CpuConfig,
    n: u32,
}

/// Everything one topology cluster owns: its nodes, its event queue,
/// its link-randomness RNG stream, its `seq` counter (the tie-break of
/// the deterministic `(time, seq)` order is *per shard*), its stats
/// partial, and outboxes for cross-cluster packets. A shard never
/// touches another shard's state — that independence is what lets the
/// parallel engine process shards on worker threads and still produce
/// the serial result bit for bit.
pub(crate) struct Shard {
    /// First global node id owned by this shard (clusters are
    /// contiguous id ranges).
    base: u32,
    /// Slot-stable drivers + SoA hot fields (see [`slab`]); slot =
    /// `id - base`.
    nodes: NodeSlab,
    sched: Scheduler<EventKind>,
    seq: u64,
    rng: SmallRng,
    stats: SimStats,
    /// Shard-local clock: the time of the last dispatched event.
    now: Time,
    /// Cross-cluster packets emitted this epoch, per destination shard.
    outbox: Vec<Vec<Inflight>>,
    /// Encode buffers, dispatch buffers and the telemetry set, lent to
    /// whichever stack an event drives ([`ShardPools::lend`]): retained
    /// memory and event-rate samples scale with shards, not stacks, and
    /// a stack without work holds no dispatch capacity.
    pools: ShardPools,
    /// What retired stack incarnations counted and measured (node
    /// restarts drop the old stack; its wire and transport counters,
    /// completed switches and flight-ring drops fold in here so every
    /// report counter stays monotone across churn).
    retired: ReportFold,
}

impl Shard {
    #[inline]
    fn slot(&self, id: StackId) -> usize {
        (id.0 - self.base) as usize
    }

    fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.sched.push(at, seq, kind);
    }

    fn stacks(&self) -> impl Iterator<Item = &Stack> {
        self.nodes.drivers().map(StackDriver::stack)
    }

    /// The earliest queued event's time (the epoch-floor probe).
    pub(crate) fn next_time(&mut self) -> Option<Time> {
        self.sched.next_time()
    }

    /// Pop and dispatch every queued event strictly before `horizon` —
    /// one epoch of this shard. Events this produces inside the window
    /// are processed in the same pass; cross-cluster packets land in
    /// [`Shard::outbox`] (the lookahead guarantees their arrival times
    /// are at or beyond `horizon`).
    pub(crate) fn run_epoch(&mut self, shared: &SimShared<'_>, horizon: Time) {
        let last = Time(horizon.0 - 1);
        while let Some((at, kind)) = self.sched.pop_before(last) {
            self.dispatch(shared, at, kind);
        }
    }

    /// Push an exchanged cross-cluster arrival (barrier context).
    pub(crate) fn push_arrival(&mut self, (at, dst, src, payload): Inflight) {
        self.push(at, EventKind::PacketArrive { dst, src, payload });
    }

    /// Take the outbox destined for shard `dst`.
    pub(crate) fn take_outbox(&mut self, dst: usize) -> Vec<Inflight> {
        std::mem::take(&mut self.outbox[dst])
    }

    fn dispatch(&mut self, shared: &SimShared<'_>, at: Time, kind: EventKind) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.stats.events += 1;
        match kind {
            EventKind::PacketArrive { dst, src, payload } => {
                let slot = self.slot(dst);
                if self.nodes.crashed(slot) {
                    return;
                }
                self.pools.lend(self.nodes.driver_mut(slot)).deliver(at, src, payload);
                self.stats.packets_delivered += 1;
                self.ensure_step(dst);
            }
            EventKind::NodeWake { node } => {
                let slot = self.slot(node);
                if self.nodes.crashed(slot) || self.nodes.wake(slot) != Some(at) {
                    // Stale wake: a nearer deadline superseded this entry.
                    return;
                }
                self.nodes.set_wake(slot, None);
                let next = self.pools.lend(self.nodes.driver_mut(slot)).wake(at);
                self.ensure_step(node);
                self.ensure_wake_at(node, next);
            }
            EventKind::NodeStep { node } => {
                let slot = self.slot(node);
                self.nodes.set_step_scheduled(slot, false);
                self.node_step(shared, node, at);
            }
            EventKind::Crash { node } => {
                let slot = self.slot(node);
                self.nodes.set_crashed(slot);
                self.nodes.driver_mut(slot).stack_mut().crash(at);
            }
        }
    }

    fn node_step(&mut self, shared: &SimShared<'_>, id: StackId, at: Time) {
        let slot = self.slot(id);
        if self.nodes.crashed(slot) {
            return;
        }
        let mut loan = self.pools.lend(self.nodes.driver_mut(slot));
        let Some(info) = loan.step_raw(at) else { return };
        let done = at + shared.cpu.cost(info.category);
        let mut buf = SendBuf::default();
        loan.settle(done, &mut buf);
        drop(loan);
        self.stats.steps += 1;
        self.nodes.set_cpu_free(slot, done);
        self.flush_sends(shared, buf);
        self.ensure_step(id);
        self.ensure_wake(id);
    }

    /// Replay sends buffered by a [`StackDriver`] call through the
    /// network model, in action order.
    fn flush_sends(&mut self, shared: &SimShared<'_>, buf: SendBuf) {
        for (at, src, dst, payload) in buf.sends {
            self.net_send(shared, src, dst, payload, at);
        }
    }

    fn net_send(
        &mut self,
        shared: &SimShared<'_>,
        src: StackId,
        dst: StackId,
        payload: Bytes,
        when: Time,
    ) {
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        if dst.0 >= shared.n || shared.topology.blocked(src, dst) {
            self.stats.dropped_partition += 1;
            return;
        }
        let link = shared.topology.link(src, dst).clone();
        if link.loss > 0.0 && self.rng.gen::<f64>() < link.loss {
            self.stats.dropped_loss += 1;
            return;
        }
        // Serialise on the sender's outbound link: a burst of sends
        // queues behind the NIC, which is what bends the latency-vs-load
        // curves at high throughput.
        let bits = 8 * (payload.len() + link.header_bytes) as u64;
        let tx = Dur::nanos(bits.saturating_mul(1_000_000_000) / link.bandwidth_bps);
        let src_slot = self.slot(src);
        let depart = when.max(self.nodes.nic_free(src_slot));
        self.nodes.set_nic_free(src_slot, depart + tx);
        let copies =
            if link.duplicate > 0.0 && self.rng.gen::<f64>() < link.duplicate { 2 } else { 1 };
        let dst_shard = shared.topology.cluster_of(dst) as usize;
        let local = dst_shard == shared.topology.cluster_of(src) as usize;
        for _ in 0..copies {
            let jitter = if link.jitter.as_nanos() > 0 {
                Dur::nanos(self.rng.gen_range(0..link.jitter.as_nanos()))
            } else {
                Dur::ZERO
            };
            let arrive = depart + tx + link.latency + jitter;
            if local {
                self.push(arrive, EventKind::PacketArrive { dst, src, payload: payload.clone() });
            } else {
                self.outbox[dst_shard].push((arrive, dst, src, payload.clone()));
            }
        }
    }

    fn ensure_step(&mut self, id: StackId) {
        let slot = self.slot(id);
        if self.nodes.crashed(slot)
            || self.nodes.step_scheduled(slot)
            || !self.nodes.driver(slot).stack().has_work()
        {
            return;
        }
        self.nodes.set_step_scheduled(slot, true);
        let at = self.now.max(self.nodes.cpu_free(slot));
        self.push(at, EventKind::NodeStep { node: id });
    }

    /// Keep one [`EventKind::NodeWake`] scheduled at the driver's
    /// earliest timer deadline. Scheduling a nearer wake strands the old
    /// queue entry; the wake stamp in the [`NodeSlab`] marks it stale.
    fn ensure_wake(&mut self, id: StackId) {
        let slot = self.slot(id);
        let deadline = self.nodes.driver_mut(slot).next_deadline();
        self.ensure_wake_at(id, deadline);
    }

    /// Fold a retiring stack incarnation's counters and telemetry
    /// remainder into the shard's retired partial — called just before
    /// [`NodeSlab::retire`] tears the old stack down.
    fn absorb_retiring(&mut self, slot: usize) {
        self.retired.retire(self.nodes.driver(slot).stack());
    }

    /// [`Shard::ensure_wake`] with the deadline already in hand (the
    /// fused [`StackDriver::wake`] hook reports it for free).
    fn ensure_wake_at(&mut self, id: StackId, deadline: Option<Time>) {
        let slot = self.slot(id);
        if self.nodes.crashed(slot) {
            return;
        }
        let Some(deadline) = deadline else { return };
        let at = deadline.max(self.now);
        if self.nodes.wake(slot).is_some_and(|w| w <= at) {
            return;
        }
        self.nodes.set_wake(slot, Some(at));
        self.push(at, EventKind::NodeWake { node: id });
    }
}

/// A barrier-time control closure ([`Sim::schedule`]).
type Action = Box<dyn FnOnce(&mut Sim) + Send>;

/// Builds the [`SimShared`] view without borrowing all of `self`, so
/// shard borrows stay disjoint from the read-only fields.
macro_rules! shared_view {
    ($sim:expr) => {
        SimShared { topology: &$sim.topology, cpu: &$sim.cpu, n: $sim.n }
    };
}

/// Mutable access to the topology. It sits behind an [`Arc`] so the
/// persistent worker pool can hold a reference across a stretch; between
/// stretches the refcount is (almost always) 1 and `make_mut` is free.
/// A clone can only happen in the harmless window where a pool worker
/// still holds the previous stretch's job.
macro_rules! topology_mut {
    ($sim:expr) => {
        Arc::make_mut(&mut $sim.topology)
    };
}

/// The deterministic discrete-event host. See module docs.
pub struct Sim {
    /// The [`SimConfig`] fields but `topology`, which is held once,
    /// below.
    n: u32,
    seed: u64,
    trace: bool,
    cpu: CpuConfig,
    workers: usize,
    now: Time,
    shards: Vec<Shard>,
    /// Barrier-time actions ([`Sim::schedule`]) by `(time, seq)`, run
    /// between stretches of shard epochs on every topology: the actions
    /// at `t` run after every shard event before `t` and before any shard
    /// event at or after `t`.
    actions: BTreeMap<(Time, u64), Action>,
    action_seq: u64,
    /// Actions dispatched from the barrier queue (counted into
    /// [`SimStats::events`]; they belong to no shard).
    actions_dispatched: u64,
    workloads: Vec<WorkloadStats>,
    /// Shared with the worker pool during parallel stretches; mutate
    /// through `topology_mut!` (partitions, loss changes).
    topology: Arc<Topology>,
    /// The one peer table every stack of the run shares (an owned vector
    /// per stack would cost O(n²) bytes — the old 65536-stack ceiling).
    peer_table: Arc<[StackId]>,
    /// Persistent worker threads for the parallel engine, spawned on the
    /// first parallel stretch and parked on a condvar between stretches.
    pool: Option<par::WorkerPool>,
    /// Conservative epoch width (`None` when there is a single shard and
    /// epochs are unbounded).
    lookahead: Option<Dur>,
}

/// The splitmix64 finalizer behind every derived RNG stream of the
/// simulator ([`shard_seed`], [`Sim::derive_rng`]).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The link-randomness RNG stream of shard `idx`: shard 0 keeps the
/// exact pre-sharding global stream (flat runs are byte-identical to
/// the serial simulator of old); further shards get independent streams
/// derived from the master seed.
fn shard_seed(seed: u64, idx: u32) -> u64 {
    let base = seed ^ 0xD1B54A32D192ED03;
    if idx == 0 {
        return base;
    }
    mix64(base.wrapping_add(u64::from(idx).wrapping_mul(0x9E3779B97F4A7C15)))
}

impl Sim {
    /// Build a simulation; `mk_stack` constructs each stack from its
    /// [`StackConfig`] (attach factories, install modules, etc.).
    pub fn new(cfg: SimConfig, mut mk_stack: impl FnMut(StackConfig) -> Stack) -> Sim {
        let SimConfig { n, seed, cpu, trace, topology, workers } = cfg;
        let nshards = topology.cluster_count(n) as usize;
        // A zero-latency backbone still advances one nanosecond an epoch.
        let lookahead = topology.lookahead(n).map(|la| la.max(Dur::nanos(1)));
        let cluster_size = topology.cluster_size().unwrap_or(n.max(1));
        let mut sim = Sim {
            n,
            seed,
            trace,
            cpu,
            workers,
            now: Time::ZERO,
            shards: Vec::with_capacity(nshards),
            actions: BTreeMap::new(),
            action_seq: 0,
            actions_dispatched: 0,
            workloads: Vec::new(),
            topology: Arc::new(topology),
            peer_table: StackConfig::peer_table(n),
            pool: None,
            lookahead,
        };
        for k in 0..nshards as u32 {
            let base = k * cluster_size;
            let count = cluster_size.min(n - base);
            let drivers = (base..base + count)
                .map(|i| StackDriver::new(mk_stack(sim.stack_config(StackId(i)))))
                .collect();
            sim.shards.push(Shard {
                base,
                nodes: NodeSlab::new(drivers),
                sched: Scheduler::new(&SchedConfig::default(), count as usize),
                seq: 0,
                rng: SmallRng::seed_from_u64(shard_seed(seed, k)),
                stats: SimStats::default(),
                now: Time::ZERO,
                outbox: vec![Vec::new(); nshards],
                pools: ShardPools::default(),
                retired: ReportFold::default(),
            });
        }
        // Stacks are born with pending Start deliveries.
        for i in 0..n {
            sim.shard_of(StackId(i)).ensure_step(StackId(i));
        }
        sim
    }

    #[inline]
    fn shard_of(&mut self, id: StackId) -> &mut Shard {
        let k = self.topology.cluster_of(id) as usize;
        &mut self.shards[k]
    }

    /// The [`StackConfig`] node `id` was (and would again be) built from
    /// — used by churn workloads to construct replacement stacks.
    pub(crate) fn stack_config(&self, id: StackId) -> StackConfig {
        StackConfig {
            id,
            peers: Arc::clone(&self.peer_table),
            seed: self.seed,
            trace: self.trace,
            cluster_size: self.topology.cluster_size(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of stacks.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// All stack ids.
    pub fn stack_ids(&self) -> Vec<StackId> {
        (0..self.n).map(StackId).collect()
    }

    /// Run statistics so far: the per-shard partials folded into totals
    /// plus one [`ShardStats`] row per cluster (see [`stats`]).
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats);
            total.per_shard.push(shard.stats.shard_row());
        }
        total.events += self.actions_dispatched;
        total.workloads = self.workloads.clone();
        total
    }

    /// Number of events currently queued (in-flight packets, pending
    /// steps, armed wakes, scheduled actions) across all shards and the
    /// barrier action queue.
    pub fn queued_events(&self) -> usize {
        self.shards.iter().map(|s| s.sched.len()).sum::<usize>() + self.actions.len()
    }

    /// The topology (for link inspection; mutate via the `Sim` methods
    /// so partition changes stay on the simulation thread).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a stack.
    pub fn stack(&self, id: StackId) -> &Stack {
        let k = self.topology.cluster_of(id) as usize;
        let shard = &self.shards[k];
        shard.nodes.driver(shard.slot(id)).stack()
    }

    /// Mutate a stack, then reschedule its CPU if the mutation produced
    /// work. Use this (not direct field access) so injected calls run.
    pub fn with_stack<R>(&mut self, id: StackId, f: impl FnOnce(&mut Stack) -> R) -> R {
        let now = self.now;
        let shared = shared_view!(self);
        let k = shared.topology.cluster_of(id) as usize;
        let shard = &mut self.shards[k];
        shard.now = shard.now.max(now);
        let mut loan = shard.pools.lend(shard.nodes.driver_mut(shard.slot(id)));
        let r = f(loan.stack_mut());
        // A mutation (e.g. install()) may have produced host actions.
        let mut buf = SendBuf::default();
        loan.settle(now, &mut buf);
        drop(loan);
        shard.flush_sends(&shared, buf);
        shard.ensure_step(id);
        shard.ensure_wake(id);
        self.flush_outboxes_from(k);
        r
    }

    /// Move the cross-cluster packets a barrier-context mutation
    /// buffered in shard `src`'s outboxes into their destination
    /// shards. Only `src` can hold anything here — every other outbox
    /// was drained at the preceding epoch barrier — so this is O(shard
    /// count), not a full exchange. Destination order matches
    /// [`par::exchange`], so the assigned `(time, seq)` keys are the
    /// same ones a full exchange would produce.
    fn flush_outboxes_from(&mut self, src: usize) {
        for dst in 0..self.shards.len() {
            if dst == src {
                continue; // a shard's own slot is never used
            }
            let batch = self.shards[src].take_outbox(dst);
            for packet in batch {
                self.shards[dst].push_arrival(packet);
            }
        }
    }

    /// Schedule a closure to run at absolute virtual time `at` (clamped
    /// to now). On every topology the closure runs at a deterministic
    /// epoch barrier: after every event before `at`, before any event at
    /// or after `at`; actions at the same time run in scheduling order.
    pub fn schedule(&mut self, at: Time, f: impl FnOnce(&mut Sim) + Send + 'static) {
        let at = at.max(self.now);
        let seq = self.action_seq;
        self.action_seq += 1;
        self.actions.insert((at, seq), Box::new(f));
    }

    /// Schedule a closure `delay` from now.
    pub fn schedule_in(&mut self, delay: Dur, f: impl FnOnce(&mut Sim) + Send + 'static) {
        self.schedule(self.now + delay, f);
    }

    /// Crash node `id` at time `at`.
    pub fn crash_at(&mut self, at: Time, id: StackId) {
        let at = at.max(self.now);
        self.shard_of(id).push(at, EventKind::Crash { node: id });
    }

    /// Replace node `id` with a stack `factory` builds from its
    /// [`StackConfig`], reviving it if it was crashed. The new stack
    /// starts from scratch (it re-runs `on_start`); in-flight packets
    /// addressed to the node are delivered to the *new* incarnation. Used
    /// by [`workload::Generator::Churn`]-style crash/restart schedules.
    ///
    /// The factory runs *after* the old incarnation has been torn down
    /// in its slab slot, so a restart's resident peak is one
    /// stack's worth of state, not two — at 10^5+ stacks the difference
    /// is whether a restart storm doubles the process footprint.
    pub fn restart_node_with(&mut self, id: StackId, factory: impl FnOnce(StackConfig) -> Stack) {
        let cfg = self.stack_config(id);
        let shard = self.shard_of(id);
        let slot = shard.slot(id);
        // Recycle the slab slot in place: the old incarnation's module,
        // timer and buffer state is dropped here, before the SoA fields
        // are reset — nothing of it survives into the new incarnation.
        // Its counters do: fold them into the shard's retired partials
        // so run totals stay exact across churn.
        shard.absorb_retiring(slot);
        shard.nodes.retire(slot);
        let driver = StackDriver::new(factory(cfg));
        let now = self.now;
        let shard = self.shard_of(id);
        shard.nodes.recycle(slot, driver, now);
        // Settle what building the stack produced; schedule its CPU.
        self.with_stack(id, |_| ());
    }

    /// Block traffic in both directions between the two groups.
    pub fn partition(&mut self, a: &[StackId], b: &[StackId]) {
        topology_mut!(self).partition(a, b);
    }

    /// Block all traffic between two clusters of the topology.
    pub fn partition_clusters(&mut self, a: u32, b: u32) {
        let n = self.n;
        topology_mut!(self).partition_clusters(a, b, n);
    }

    /// Remove all partitions.
    pub fn heal_partitions(&mut self) {
        topology_mut!(self).heal_partitions();
    }

    /// Change the loss probability from now on, on every link class of
    /// the topology: the flat or intra-cluster config and the backbone
    /// (per-link overrides are left alone).
    pub fn set_loss(&mut self, loss: f64) {
        topology_mut!(self).set_loss(loss);
    }

    /// An RNG stream derived from the master seed and `salt`, independent
    /// of the simulator's own streams (drawing from it does not perturb
    /// jitter/loss decisions). Workload generators take their randomness
    /// from here so runs stay pure functions of `(config, seed)`.
    pub(crate) fn derive_rng(&self, salt: u64) -> SmallRng {
        // splitmix64-style finalizer over (seed, salt).
        SmallRng::seed_from_u64(mix64(self.seed ^ salt.wrapping_mul(0x9E3779B97F4A7C15)))
    }

    pub(crate) fn register_workload(&mut self, name: String) -> usize {
        self.workloads.push(WorkloadStats { name, ..WorkloadStats::default() });
        self.workloads.len() - 1
    }

    pub(crate) fn workload_mut(&mut self, id: usize) -> &mut WorkloadStats {
        &mut self.workloads[id]
    }

    /// Run until virtual time `t`, processing all events up to it.
    pub fn run_until(&mut self, t: Time) {
        self.run_events(t);
        self.now = self.now.max(t);
    }

    /// Process every event and action with time ≤ `t`: stretches of
    /// shard epochs, each bounded by the next action (actions need
    /// `&mut Sim`), and the actions between them. An action at `a` runs
    /// after every event before `a` and before any event at `a` or
    /// later. The schedule — and therefore the entire run — is
    /// independent of [`SimConfig::workers`]; see the [`par`] module
    /// docs for the determinism argument.
    fn run_events(&mut self, t: Time) {
        let cap = Time(t.0.saturating_add(1)); // exclusive event bound
        loop {
            let bound = self.actions.first_key_value().map_or(cap, |(&(at, _), _)| at.min(cap));
            self.run_stretch(bound);
            let reached = self.shards.iter().map(|s| s.now).max().unwrap_or(self.now);
            self.now = self.now.max(reached);
            if bound == cap {
                return;
            }
            self.now = bound;
            while let Some(entry) = self.actions.first_entry() {
                if entry.key().0 > bound {
                    break;
                }
                let action = entry.remove();
                self.actions_dispatched += 1;
                action(self);
            }
        }
    }

    /// Run epochs until every shard's next event is at or beyond `bound`
    /// (exclusive) — [`par::run_epochs`], with each epoch's shards
    /// processed on this thread or, with `workers > 1`, by the [`par`]
    /// worker pool; the results are identical.
    fn run_stretch(&mut self, bound: Time) {
        let workers = self.workers.clamp(1, self.shards.len());
        let lookahead = self.lookahead;
        if workers == 1 {
            let shared = shared_view!(self);
            par::run_epochs(&mut self.shards, lookahead, bound, |shards, horizon| {
                for shard in shards.iter_mut() {
                    shard.run_epoch(&shared, horizon);
                }
            });
        } else {
            let pool = self.pool.get_or_insert_with(|| par::WorkerPool::new(workers));
            let shards = &mut self.shards;
            pool.stretch(
                Arc::clone(&self.topology),
                self.cpu.clone(),
                self.n,
                shards.len(),
                |epoch| par::run_epochs(shards, lookahead, bound, epoch),
            );
        }
    }

    fn stacks(&self) -> impl Iterator<Item = &Stack> {
        self.shards.iter().flat_map(Shard::stacks)
    }

    /// Every stack folded through [`dpu_core::host::ReportFold`] (the
    /// per-stack telemetry remainder, resident scratch counters — zero
    /// under pooling, where every encode runs under the pool loan — and
    /// transport-module counters), plus what the stacks do not hold: the
    /// shard pools and telemetry sets and the partials of retired
    /// (churned) incarnations. The source of [`Sim::telemetry_report`].
    fn fold(&self) -> ReportFold {
        let mut fold = ReportFold::of_stacks(self.stacks());
        for shard in &self.shards {
            fold.absorb_pools(&shard.pools);
            fold.merge(&shard.retired);
        }
        fold
    }

    /// The unified observability report. Shape-identical to
    /// `Runtime::telemetry_report` and `Reactor::telemetry_report`.
    pub fn telemetry_report(&self) -> dpu_core::telemetry::TelemetryReport {
        self.fold().into_report("sim", self.now, None)
    }

    /// Dump the flight recorders, shard by shard: every stack's
    /// lifecycle events, then the shard's most recent deliveries (oldest
    /// first, with drop counts) — the postmortem a failing soak prints.
    pub fn dump_flight_recorders(&self) -> String {
        self.shards
            .iter()
            .map(|shard| dpu_core::host::dump_flight(shard.stacks(), &shard.pools))
            .collect()
    }

    /// Merge and take the traces of all stacks, shard by shard and slot
    /// by slot — stack order, and the same whatever the worker count —
    /// which is the order the merged [`TraceLog::fingerprint`] joins the
    /// per-stack digests in. The result holds every structural entry of
    /// the run, the joined digest and the summed tally: calls and
    /// responses live on only in those two.
    pub fn merged_trace(&mut self) -> TraceLog {
        let mut merged = TraceLog::new();
        for shard in &mut self.shards {
            for driver in shard.nodes.drivers_mut() {
                let t = driver.stack_mut().take_trace();
                merged.merge(&t);
            }
        }
        merged
    }
}

impl dpu_core::host::Host for &mut Sim {
    fn now(&self) -> Time {
        Sim::now(self)
    }
    fn with_stack<R: Send + 'static>(
        &mut self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Sim::with_stack(self, id, f)
    }
    fn telemetry_report(&self) -> dpu_core::telemetry::TelemetryReport {
        Sim::telemetry_report(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
    use dpu_core::wire::{self, Encode};
    use dpu_core::{Call, Module, Response, ServiceId};

    /// A module that, on start, sends one datagram to every peer and
    /// counts datagrams received.
    struct Pinger {
        received: Vec<(StackId, Bytes)>,
    }

    impl Module for Pinger {
        fn kind(&self) -> &str {
            "pinger"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(dpu_core::svc::NET)]
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            let me = ctx.stack_id();
            for peer in ctx.peers().to_vec() {
                if peer != me {
                    let data = (peer, Bytes::from(vec![me.0 as u8])).to_bytes();
                    ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data);
                }
            }
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == net_ops::RECV {
                let (src, data): (StackId, Bytes) = resp.decode().unwrap();
                self.received.push((src, data));
            }
        }
    }

    /// In every pinger stack: net bridge is m1, pinger is m2.
    const PINGER: dpu_core::ModuleId = dpu_core::ModuleId(2);

    fn pinger_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        s.add_module(Box::new(Pinger { received: vec![] }));
        s
    }

    fn pinger_sim(n: u32, seed: u64) -> Sim {
        Sim::new(SimConfig::lan(n, seed), pinger_stack)
    }

    fn received(sim: &mut Sim, id: u32) -> usize {
        sim.with_stack(StackId(id), |s| {
            s.with_module::<Pinger, _>(PINGER, |p| p.received.len()).unwrap()
        })
    }

    #[test]
    fn all_to_all_pings_arrive() {
        let mut sim = pinger_sim(4, 1);
        sim.run_until(Time::ZERO + Dur::millis(10));
        for i in 0..4u32 {
            assert_eq!(received(&mut sim, i), 3, "stack {i} should get one ping per peer");
        }
        assert_eq!(sim.stats().packets_sent, 12);
        assert_eq!(sim.stats().packets_delivered, 12);
        assert_eq!(sim.stats().packets_dropped(), 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut sim = pinger_sim(5, seed);
            sim.run_until(Time::ZERO + Dur::millis(5));
            let stats = sim.stats();
            let trace_len = sim.merged_trace().pushed();
            (stats, trace_len)
        };
        assert_eq!(run(7), run(7));
        let (a, _) = run(7);
        let (b, _) = run(8);
        assert_eq!(a.packets_delivered, b.packets_delivered);
    }

    /// What a stack pushes before its first loan — its build, in
    /// `Sim::new` or `restart_node_with` — and outside any (a crash)
    /// lands in the merged trace in order: in time, each stack's build
    /// in the order it happened, the crash at its time and nothing of
    /// the crashed stack after it. (A stack stamps its build at its own
    /// clock, zero, also when a restart builds it.)
    #[test]
    fn entries_pushed_outside_a_loan_land_in_order() {
        use dpu_core::TraceEvent;
        let mut sim = pinger_sim(4, 1);
        sim.run_until(Time::ZERO + Dur::millis(10));
        let restart = sim.now();
        sim.restart_node_with(StackId(2), pinger_stack);
        sim.crash_at(restart + Dur::millis(2), StackId(3));
        sim.run_until(restart + Dur::millis(10));
        let trace = sim.merged_trace();
        let events: Vec<_> = trace.events().collect();
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0), "the merged trace is in time order");
        for stack in 0..4 {
            let id = StackId(stack);
            let build: Vec<_> = events.iter().filter(|(_, e)| e.stack() == id).take(3).collect();
            let created =
                TraceEvent::ModuleCreated { stack: id, module: PINGER, kind: "pinger".into() };
            let bound = TraceEvent::Bind {
                stack: id,
                service: ServiceId::new(dpu_core::svc::NET),
                module: dpu_core::ModuleId(1),
            };
            let kinds = build.iter().map(|(_, e)| std::mem::discriminant(e));
            let order = [&created, &bound, &created].map(std::mem::discriminant);
            assert!(kinds.eq(order), "stack {stack}: the bridge, its bind, the pinger");
            assert_eq!(build[2].1, created, "stack {stack}'s pinger is built last");
        }
        let crash = events
            .iter()
            .position(|(_, e)| matches!(e, TraceEvent::Crash { stack: StackId(3) }))
            .expect("the crash is traced");
        assert_eq!(events[crash].0, restart + Dur::millis(2));
        assert!(events[crash + 1..].iter().all(|(_, e)| e.stack() != StackId(3)));
    }

    #[test]
    fn loss_drops_packets() {
        let mut cfg = SimConfig::lan(2, 3);
        cfg.topology = Topology::flat(NetConfig::lossy(1.0));
        let mut sim = Sim::new(cfg, pinger_stack);
        sim.run_until(Time::ZERO + Dur::millis(5));
        assert_eq!(sim.stats().packets_sent, 2);
        assert_eq!(sim.stats().dropped_loss, 2);
        assert_eq!(sim.stats().dropped_partition, 0);
        assert_eq!(sim.stats().packets_delivered, 0);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut cfg = SimConfig::lan(2, 3);
        cfg.topology = Topology::flat(NetConfig { duplicate: 1.0, ..NetConfig::lan() });
        let mut sim = Sim::new(cfg, pinger_stack);
        sim.run_until(Time::ZERO + Dur::millis(5));
        assert_eq!(sim.stats().packets_delivered, 4);
    }

    #[test]
    fn clustered_faults_reach_every_link_class() {
        // 6 stacks in clusters of 2, all-to-all: each stack pings its
        // cluster mate over the intra link and 4 peers over the backbone
        // (6 + 24 packets), so a fault missing either class shows.
        let run = |intra: NetConfig, backbone: NetConfig, set_loss: bool| {
            let mut sim = Sim::new(SimConfig::clustered(6, 13, 2, intra, backbone), pinger_stack);
            if set_loss {
                sim.set_loss(1.0);
            }
            sim.run_until(Time::ZERO + Dur::millis(50));
            let stats = sim.stats();
            assert_eq!(stats.packets_sent, 30);
            stats
        };
        let lossy = NetConfig::lossy(1.0);
        let stats = run(lossy.clone(), lossy, false);
        assert_eq!(stats.packets_delivered, 0);
        assert_eq!(stats.dropped_loss, stats.packets_sent);
        let doubled = NetConfig { duplicate: 1.0, ..NetConfig::lan() };
        let stats = run(doubled.clone(), doubled, false);
        assert_eq!(stats.packets_delivered, 2 * stats.packets_sent);
        let stats = run(NetConfig::lan(), NetConfig::lan(), true);
        assert_eq!(stats.packets_delivered, 0);
        assert_eq!(stats.dropped_loss, stats.packets_sent);
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let mut sim = pinger_sim(2, 9);
        sim.partition(&[StackId(0)], &[StackId(1)]);
        sim.run_until(Time::ZERO + Dur::millis(5));
        assert_eq!(sim.stats().packets_delivered, 0);
        assert_eq!(sim.stats().dropped_partition, 2);
        assert_eq!(sim.stats().dropped_loss, 0);
        sim.heal_partitions();
        let data = (StackId(1), Bytes::from_static(b"x")).to_bytes();
        sim.with_stack(StackId(0), |s| {
            s.call_as(PINGER, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
        });
        sim.run_until(Time::ZERO + Dur::millis(10));
        assert_eq!(sim.stats().packets_delivered, 1);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = pinger_sim(3, 5);
        sim.crash_at(Time::ZERO, StackId(2));
        sim.run_until(Time::ZERO + Dur::millis(10));
        // The crash event at t=0 was scheduled before any processing.
        assert_eq!(received(&mut sim, 2), 0);
        assert!(sim.stack(StackId(2)).is_crashed());
    }

    /// Arms one timer 5 ms out on start if `arm`; counts its fires.
    struct Alarm {
        arm: bool,
        fired: u32,
    }

    impl Module for Alarm {
        fn kind(&self) -> &str {
            "alarm"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            if self.arm {
                ctx.set_timer(Dur::millis(5), 0);
            }
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        fn on_timer(&mut self, _: &mut ModuleCtx<'_>, _: dpu_core::TimerId, _: u64) {
            self.fired += 1;
        }
    }

    #[test]
    fn a_destroyed_modules_timer_still_wakes_its_node_and_fires_into_nothing() {
        // In an alarm stack the alarm is m2, like the pinger.
        let run = |arm: bool, destroy: bool| {
            let mut sim = Sim::new(SimConfig::lan(1, 3), |sc| {
                let mut s = Stack::new(sc, FactoryRegistry::new());
                s.add_module(Box::new(Alarm { arm, fired: 0 }));
                s
            });
            sim.run_until(Time::ZERO + Dur::millis(1));
            if destroy {
                sim.with_stack(StackId(0), |s| s.destroy_module(PINGER));
            }
            sim.run_until(Time::ZERO + Dur::millis(10));
            let fired =
                sim.with_stack(StackId(0), |s| s.with_module::<Alarm, _>(PINGER, |a| a.fired));
            (sim.stats().events, sim.stats().steps, fired)
        };
        let (_, _, fired) = run(true, false);
        assert_eq!(fired, Some(1));
        let (armed_events, armed_steps, gone) = run(true, true);
        let (bare_events, bare_steps, _) = run(false, true);
        assert_eq!(gone, None);
        assert_eq!(armed_steps, bare_steps, "nothing dispatched");
        assert_eq!(armed_events, bare_events + 1, "the timer still woke its node");
    }

    #[test]
    fn restart_revives_a_crashed_node() {
        let mut sim = pinger_sim(3, 5);
        sim.crash_at(Time::ZERO, StackId(2));
        sim.run_until(Time::ZERO + Dur::millis(10));
        assert!(sim.stack(StackId(2)).is_crashed());
        // Restart with a fresh stack: it re-pings on start and receives.
        sim.restart_node_with(StackId(2), pinger_stack);
        assert!(!sim.stack(StackId(2)).is_crashed());
        sim.run_until(sim.now() + Dur::millis(10));
        // Its startup pings reached the live peers (node 2 crashed at
        // t=0, before its own initial ping could go out)...
        assert_eq!(received(&mut sim, 0), 2, "peer 0: node 1's initial ping + restart ping");
        // ...and a direct message to it is delivered again.
        let data = (StackId(2), Bytes::from_static(b"hi")).to_bytes();
        sim.with_stack(StackId(0), |s| {
            s.call_as(PINGER, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
        });
        sim.run_until(sim.now() + Dur::millis(10));
        assert_eq!(received(&mut sim, 2), 1);
    }

    #[test]
    fn scheduled_actions_run_in_time_order_before_events_at_their_time() {
        let flat = SimConfig::lan(4, 5);
        let clustered = SimConfig::clustered(4, 5, 2, NetConfig::lan(), NetConfig::wan());
        for cfg in [flat, clustered] {
            let mut sim = Sim::new(cfg, pinger_stack);
            sim.schedule(Time::ZERO + Dur::millis(2), |sim| {
                assert_eq!(sim.now(), Time::ZERO + Dur::millis(2));
                sim.crash_at(sim.now(), StackId(1));
            });
            sim.schedule_in(Dur::millis(1), |sim| {
                assert!(!sim.stack(StackId(1)).is_crashed());
            });
            // The tie rule: an action at `t` runs before any event at
            // `t` — here, before the stacks' `Start` steps at zero.
            sim.schedule(Time::ZERO, |sim| assert_eq!(sim.stats().steps, 0));
            sim.run_until(Time::ZERO + Dur::millis(5));
            assert!(sim.stack(StackId(1)).is_crashed());
            assert!(sim.stats().steps > 0);
        }
    }

    #[test]
    fn actions_at_one_instant_run_in_the_order_they_were_scheduled() {
        let mut sim = pinger_sim(2, 5);
        let ran = Arc::new(std::sync::Mutex::new(Vec::new()));
        let at = Time::ZERO + Dur::millis(1);
        for i in 0..8 {
            let ran = Arc::clone(&ran);
            sim.schedule(at, move |sim| {
                ran.lock().unwrap().push(i);
                if i == 0 {
                    // Scheduled at its own instant, it comes after the
                    // actions already waiting there.
                    sim.schedule(sim.now(), move |_| ran.lock().unwrap().push(8));
                }
            });
        }
        sim.run_until(at);
        assert_eq!(*ran.lock().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = pinger_sim(2, 5);
        sim.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(sim.now(), Time::ZERO + Dur::secs(1));
    }

    #[test]
    fn cpu_cost_serialises_steps_on_one_node() {
        // With a huge per-step cost, a burst of packets takes multiple
        // service times to process on the receiving node.
        let mut cfg = SimConfig::lan(2, 11);
        cfg.cpu.response = Dur::millis(10);
        let mut sim = Sim::new(cfg, pinger_stack);
        for _ in 0..5 {
            let data = (StackId(1), Bytes::from_static(b"x")).to_bytes();
            sim.with_stack(StackId(0), |s| {
                s.call_as(PINGER, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
            });
        }
        // Node 1 receives 6 datagrams in total: the startup ping from
        // node 0 plus the 5 injected ones.
        sim.run_until(Time::ZERO + Dur::millis(38));
        let partial = received(&mut sim, 1);
        assert!(partial < 6, "CPU queueing must spread processing out; got {partial}");
        sim.run_until(Time::ZERO + Dur::millis(200));
        assert_eq!(received(&mut sim, 1), 6);
    }

    #[test]
    fn wire_roundtrip_through_sim_payloads() {
        let payload = Bytes::from(vec![7u8; 100]);
        let encoded = (StackId(1), payload.clone()).to_bytes();
        let (dst, data): (StackId, Bytes) = wire::from_bytes(&encoded).unwrap();
        assert_eq!(dst, StackId(1));
        assert_eq!(data, payload);
    }

    #[test]
    fn clustered_topology_delays_cross_cluster_traffic() {
        // 2 clusters of 2 on instant-ish LANs joined by a slow backbone:
        // the intra-cluster ping lands long before the inter-cluster one.
        let cfg = SimConfig::clustered(4, 7, 2, NetConfig::datacenter(), NetConfig::wan());
        let mut sim = Sim::new(cfg, pinger_stack);
        sim.run_until(Time::ZERO + Dur::millis(5));
        // Intra-cluster pings (1 per node) have arrived; WAN ones (15 ms
        // one-way) have not.
        for i in 0..4 {
            assert_eq!(received(&mut sim, i), 1, "stack {i} at t=5ms");
        }
        sim.run_until(Time::ZERO + Dur::millis(100));
        for i in 0..4 {
            assert_eq!(received(&mut sim, i), 3, "stack {i} after WAN delivery");
        }
    }

    #[test]
    fn per_shard_counters_are_per_cluster_and_cover_all_nodes() {
        // Flat: one shard row holding every counter.
        let mut sim = pinger_sim(4, 21);
        sim.run_until(Time::ZERO + Dur::millis(10));
        let stats = sim.stats();
        assert_eq!(stats.per_shard.len(), 1);
        assert_eq!(stats.per_shard[0].packets_delivered, stats.packets_delivered);
        assert_eq!(stats.per_shard[0].steps, stats.steps);
        // Clustered: one row per cluster, folding back to the totals.
        let cfg = SimConfig::clustered(6, 21, 2, NetConfig::lan(), NetConfig::wan());
        let mut sim = Sim::new(cfg, pinger_stack);
        sim.run_until(Time::ZERO + Dur::millis(100));
        let stats = sim.stats();
        assert_eq!(stats.per_shard.len(), 3);
        let shard_delivered: u64 = stats.per_shard.iter().map(|s| s.packets_delivered).sum();
        let shard_steps: u64 = stats.per_shard.iter().map(|s| s.steps).sum();
        assert_eq!(shard_delivered, stats.packets_delivered);
        assert_eq!(shard_steps, stats.steps);
        assert!(stats.events >= stats.steps + stats.packets_delivered);
        assert!(stats.per_shard.iter().all(|s| s.packets_delivered > 0), "{stats:?}");
    }

    #[test]
    fn flat_runs_ignore_the_worker_knob() {
        // One shard has nothing to spread over workers, and the epoch
        // schedule never depends on the worker count.
        let run = |workers| {
            let mut sim = Sim::new(SimConfig::lan(4, 33).with_workers(workers), pinger_stack);
            sim.run_until(Time::ZERO + Dur::millis(10));
            (sim.stats(), sim.merged_trace().pushed())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn clustered_engine_matches_across_worker_counts() {
        // The quick in-crate version of crates/sim/tests/par_equiv.rs:
        // same clustered config, workers 1 vs 3, identical stats.
        let run = |workers| {
            let cfg = SimConfig::clustered(6, 77, 2, NetConfig::lan(), NetConfig::wan())
                .with_workers(workers);
            let mut sim = Sim::new(cfg, pinger_stack);
            sim.run_until(Time::ZERO + Dur::millis(120));
            (sim.stats(), sim.merged_trace().pushed())
        };
        assert_eq!(run(1), run(3));
    }
}
