//! The live-host core: everything `dpu-runtime` and `dpu-reactor` share.
//!
//! A *live* host drives stacks under the wall clock on one or more
//! shard threads. What differs between live hosts is only the
//! **transport** — how a [`NetSend`](crate::HostAction::NetSend) leaves a
//! shard and how a packet comes back in (crossbeam mailboxes in the
//! runtime, UDP sockets in the reactor). Everything else lives here,
//! once:
//!
//! * [`LiveShard`] — the thread-side half: the drivers and their ids,
//!   the shard's [`ShardPools`] (lent through the [`Loan`](super::Loan)
//!   the simulator takes too), and the stamped heap of wake deadlines;
//! * [`Ctl`] + [`ShardPort`] — the control plane: a closure shipped to a
//!   shard thread and the calling-thread helpers built on it
//!   (`with_stack`, the report fold, the flight dump);
//! * [`ReportFold`] — the one place a [`TelemetryReport`] is built from
//!   stacks, shared with the simulator;
//! * [`Host`] — `now` / `with_stack` / `telemetry_report` over all
//!   three hosts, so harness code is written once;
//! * [`WallClock`] and [`LossModel`] — the clock and the fault injector
//!   both live hosts use.
//!
//! # What a transport supplies
//!
//! An [`ActionSink`] for outbound packets, and a loop that (1) calls
//! [`LiveShard::fire_due`] — the first call services the stacks'
//! start-up work — (2) blocks on its own event source until
//! [`LiveShard::next_deadline`], (3) hands every arrived packet to
//! [`LiveShard::deliver`] and every control request to [`Ctl::run`],
//! and (4) returns [`LiveShard::into_stacks`] on shutdown. It never
//! touches a driver, a pool or a loan itself.
//!
//! # One input, one cascade
//!
//! The order is the stack's, not the host's: a stack takes the next
//! input (a packet, a fired timer, a control closure's call) only once
//! the dispatch cascade of the one before has drained (see
//! `stack/dispatch.rs`), on this host as on the simulator, so a packet
//! never overtakes the module-creation reactions of the packet before
//! it. [`LiveShard::deliver`] also runs the cascade before it returns,
//! so a shard's reply to the control plane sees its effects.

use super::{ActionSink, ShardPools, StackDriver, Wakeup};
use crate::ids::StackId;
use crate::stack::Stack;
use crate::time::Time;
use crate::wire::ScratchStats;
use crate::TransportStats;
use bytes::Bytes;
use dpu_telemetry::{SocketCounters, TelemetryAggregate, TelemetryReport};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::Instant;

/// The wall clock of a live host as virtual [`Time`]: nanoseconds since
/// the host started. `Copy`, so the handle and every shard thread stamp
/// events with the same origin.
#[derive(Clone, Copy, Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }

    /// Time since the clock started.
    pub fn now(&self) -> Time {
        Time(self.0.elapsed().as_nanos() as u64)
    }
}

/// Send-side probabilistic packet loss (fault injection for soak tests;
/// an internal xorshift generator, so a `(seed, lane)` pair replays the
/// same drop pattern).
#[derive(Debug)]
pub struct LossModel {
    p: f64,
    rng: u64,
}

impl LossModel {
    /// Drop each packet with probability `p`. `lane` separates the
    /// streams of shard threads sharing one `seed`.
    pub fn new(p: f64, seed: u64, lane: u64) -> LossModel {
        LossModel { p, rng: seed ^ (lane + 1).wrapping_mul(0x9E3779B97F4A7C15) | 1 }
    }

    /// Whether the next packet is lost.
    pub fn drops(&mut self) -> bool {
        if self.p <= 0.0 {
            return false;
        }
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let unit = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.p
    }
}

/// The thread-side half of a live host: a set of drivers, the pools
/// they borrow, and when each next needs CPU. See the [module
/// docs](self) for what the owning transport loop must do.
pub struct LiveShard {
    ids: Vec<StackId>,
    drivers: Vec<StackDriver>,
    index_of: BTreeMap<StackId, usize>,
    /// Scheduled wake time per local driver. A heap entry whose time
    /// differs from the stamp is stale and is skipped; the stamp moves
    /// whenever a nearer deadline is scheduled, so superseded wakeups
    /// purge themselves on pop.
    next_wake: Vec<Option<Time>>,
    wakes: BinaryHeap<Reverse<(Time, usize)>>,
    clock: WallClock,
    /// Encode buffers, dispatch buffers and the telemetry set, lent to
    /// whichever driver is running: retained memory and event-rate
    /// samples scale with shard threads, not stacks.
    pools: ShardPools,
}

impl LiveShard {
    /// A shard hosting `stacks`, in the given order (local index = the
    /// position in `stacks`). Every driver starts out due, so the first
    /// [`LiveShard::fire_due`] services the stacks' start-up work
    /// (`on_start` handlers, first timers).
    pub fn new(clock: WallClock, stacks: impl IntoIterator<Item = Stack>) -> LiveShard {
        let drivers: Vec<StackDriver> = stacks.into_iter().map(StackDriver::new).collect();
        let ids: Vec<StackId> = drivers.iter().map(StackDriver::id).collect();
        LiveShard {
            index_of: ids.iter().enumerate().map(|(local, &id)| (id, local)).collect(),
            next_wake: vec![Some(Time::ZERO); drivers.len()],
            wakes: (0..drivers.len()).map(|local| Reverse((Time::ZERO, local))).collect(),
            ids,
            drivers,
            clock,
            pools: ShardPools::default(),
        }
    }

    /// The shard's wall clock reading.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Local index of stack `id`, or `None` if this shard does not host
    /// it. Ids arrive from other threads and from the network, so every
    /// lookup is fallible.
    pub fn local_of(&self, id: StackId) -> Option<usize> {
        self.index_of.get(&id).copied()
    }

    /// Run one driver's canonical drive loop (under the loan —
    /// dispatched handlers encode) and keep a wake scheduled at its next
    /// deadline.
    fn poll(&mut self, local: usize, sink: &mut dyn ActionSink) {
        let now = self.now();
        let wakeup = self.pools.lend(&mut self.drivers[local]).poll(now, sink);
        self.arm(local, wakeup);
    }

    /// Deliver one packet and run its whole cascade (see the [module
    /// docs](self)).
    pub fn deliver(
        &mut self,
        local: usize,
        src: StackId,
        payload: Bytes,
        sink: &mut dyn ActionSink,
    ) {
        let now = self.now();
        let wakeup = {
            let mut loan = self.pools.lend(&mut self.drivers[local]);
            loan.deliver(now, src, payload);
            loan.poll(now, sink)
        };
        self.arm(local, wakeup);
    }

    /// Run a control closure against a stack (it may encode, so under
    /// the loan), then poll: the closure may have queued work or
    /// produced actions.
    pub fn ctl<R>(
        &mut self,
        local: usize,
        f: impl FnOnce(&mut Stack) -> R,
        sink: &mut dyn ActionSink,
    ) -> R {
        let r = f(self.pools.lend(&mut self.drivers[local]).stack_mut());
        self.poll(local, sink);
        r
    }

    fn arm(&mut self, local: usize, wakeup: Wakeup) {
        if let Wakeup::At(at) = wakeup {
            if self.next_wake[local].is_none_or(|w| at < w) {
                self.next_wake[local] = Some(at);
                self.wakes.push(Reverse((at, local)));
            }
        }
    }

    /// The earliest instant some driver needs CPU, or `None` when every
    /// driver is idle (the transport may then block indefinitely).
    pub fn next_deadline(&mut self) -> Option<Time> {
        while let Some(&Reverse((at, local))) = self.wakes.peek() {
            if self.next_wake[local] == Some(at) {
                return Some(at);
            }
            self.wakes.pop();
        }
        None
    }

    /// Poll every driver whose wake deadline is at or before `now`.
    pub fn fire_due(&mut self, now: Time, sink: &mut dyn ActionSink) {
        while let Some(&Reverse((at, local))) = self.wakes.peek() {
            if at > now {
                break;
            }
            self.wakes.pop();
            if self.next_wake[local] == Some(at) {
                self.next_wake[local] = None;
                self.poll(local, sink);
            }
        }
    }

    fn stacks(&self) -> impl Iterator<Item = &Stack> {
        self.drivers.iter().map(StackDriver::stack)
    }

    /// This shard's part of the host's report: its stacks plus its pools
    /// (where every encode and every sample lands under the loan
    /// discipline — the per-stack residuals stay zero).
    pub fn fold_report(&self) -> ReportFold {
        let mut fold = ReportFold::of_stacks(self.stacks());
        fold.absorb_pools(&self.pools);
        fold
    }

    /// This shard's flight recorders (see [`dump_flight`]).
    pub fn dump_flight(&self) -> String {
        dump_flight(self.stacks(), &self.pools)
    }

    /// Unwrap into `(id, stack)` pairs in hosting order, discarding
    /// pending events and armed timers. A traced stack's trace is
    /// whole in it: its structural entries, its digest and its tally
    /// (calls and responses are kept nowhere else).
    pub fn into_stacks(self) -> Vec<(StackId, Stack)> {
        self.ids.into_iter().zip(self.drivers.into_iter().map(StackDriver::into_stack)).collect()
    }
}

/// One shard's flight recorders — every stack's lifecycle ring, then
/// the shard's recent deliveries (oldest first, with drop counts): the
/// postmortem a failing soak prints.
pub fn dump_flight<'a>(stacks: impl IntoIterator<Item = &'a Stack>, pools: &ShardPools) -> String {
    let mut out = String::new();
    for stack in stacks {
        stack.telemetry().dump_flight(&format!("stack {}", stack.id().0), &mut out);
    }
    let deliveries = pools.telemetry.set.as_ref().map(|set| &set.deliveries);
    if let Some(deliveries) = deliveries.filter(|d| !d.is_empty()) {
        deliveries.dump("shard deliveries", &mut out);
    }
    out
}

/// A partial [`TelemetryReport`]: shard telemetry sets and per-stack
/// remainders folded through a [`TelemetryAggregate`] (which also
/// counts the hosted stacks), wire and transport counters folded by
/// addition. Every constituent merges by addition, so partials from
/// shard threads (or simulator shards) combine in any order.
#[derive(Debug, Default)]
pub struct ReportFold {
    telemetry: TelemetryAggregate,
    /// Scratch-pool counters; public for the hosts' own reports.
    pub wire: ScratchStats,
    /// Reliable-transport counters (same).
    pub transport: TransportStats,
}

impl ReportFold {
    /// Fold `stacks`: their telemetry, resident scratch counters and
    /// transport-module counters.
    pub fn of_stacks<'a>(stacks: impl IntoIterator<Item = &'a Stack>) -> ReportFold {
        let mut fold = ReportFold::default();
        for stack in stacks {
            fold.telemetry.absorb(stack.telemetry());
            fold.wire.absorb(stack.wire_stats());
            fold.transport.absorb(stack.transport_stats());
        }
        fold
    }

    /// Add what a shard's pools hold and its stacks do not: the scratch
    /// pool's counters and the telemetry set.
    pub fn absorb_pools(&mut self, pools: &ShardPools) {
        self.wire.absorb(pools.wire_stats());
        self.telemetry.absorb_set(&pools.telemetry);
    }

    /// Fold in a stack incarnation a restart is about to drop: all it
    /// counted and measured, without counting it as hosted.
    pub fn retire(&mut self, stack: &Stack) {
        self.telemetry.absorb_retired(stack.telemetry());
        self.wire.absorb(stack.wire_stats());
        self.transport.absorb(stack.transport_stats());
    }

    /// Fold another partial into this one.
    pub fn merge(&mut self, other: &ReportFold) {
        self.telemetry.merge(&other.telemetry);
        self.wire.absorb(other.wire);
        self.transport.absorb(other.transport);
    }

    /// Condense into the report `host` hands to callers.
    pub fn into_report(
        self,
        host: &'static str,
        now: Time,
        sockets: Option<SocketCounters>,
    ) -> TelemetryReport {
        let stacks = self.telemetry.stacks_enabled;
        let mut report = self.telemetry.report(host, stacks, now.as_nanos());
        report.wire = self.wire;
        report.transport = self.transport;
        report.sockets = sockets;
        report
    }
}

/// A control request: a closure a host handle ships to a shard thread,
/// which [runs](Ctl::run) it against its [`LiveShard`] and transport
/// `T` between events. Built by [`ShardPort`]'s helpers.
pub struct Ctl<T>(Box<CtlFn<T>>);

type CtlFn<T> = dyn FnOnce(&mut LiveShard, &mut T) + Send;

impl<T> Ctl<T> {
    /// Execute the request (shard thread).
    pub fn run(self, shard: &mut LiveShard, transport: &mut T) {
        (self.0)(shard, transport);
    }
}

/// The calling-thread half of a live host: given a way to
/// [`post`](ShardPort::post) a [`Ctl`] to a shard thread, everything a
/// handle offers is built here. All helpers block until the shard
/// services the request and must be called from *outside* the shard
/// threads — a call from code already running on a shard (e.g. inside
/// another `with_stack` closure) would wait on the very thread that is
/// executing it.
pub trait ShardPort {
    /// The transport the shard threads run over.
    type Transport: ActionSink + 'static;

    /// Number of shard threads.
    fn shards(&self) -> usize;

    /// Enqueue `ctl` for shard `shard` and wake its thread. Panics if
    /// the thread is gone.
    fn post(&self, shard: usize, ctl: Ctl<Self::Transport>);

    /// Post a request that answers through a reply channel, and block
    /// for the answer.
    fn ask<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut LiveShard, &mut Self::Transport, SyncSender<R>) + Send + 'static,
    ) -> R {
        let (tx, rx) = sync_channel(1);
        self.post(shard, Ctl(Box::new(move |core, transport| f(core, transport, tx))));
        rx.recv().expect("host thread replies")
    }

    /// Run `f` on shard `shard`'s thread and return its result.
    fn on_shard<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut LiveShard, &mut Self::Transport) -> R + Send + 'static,
    ) -> R {
        self.ask(shard, move |core, transport, tx| {
            let _ = tx.send(f(core, transport));
        })
    }

    /// Run `f` against stack `id` on shard `shard`'s thread
    /// ([`LiveShard::ctl`]) and return its result; the reply is sent
    /// before the follow-up poll. Panics — here, on the calling thread —
    /// if that shard does not host `id`.
    fn on_stack<R: Send + 'static>(
        &self,
        shard: usize,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        let reply = self.ask(shard, move |core, transport, tx| {
            let answer = |stack: &mut Stack| drop(tx.send(Some(f(stack))));
            match core.local_of(id) {
                Some(local) => core.ctl(local, answer, transport),
                None => drop(tx.send(None)),
            }
        });
        reply.unwrap_or_else(|| panic!("{id} is not hosted by this host"))
    }

    /// The report partial of every shard, folded: one control round-trip
    /// per shard, not one per stack.
    fn fold_report(&self) -> ReportFold {
        let mut total = ReportFold::default();
        for shard in 0..self.shards() {
            total.merge(&self.on_shard(shard, |core, _| core.fold_report()));
        }
        total
    }

    /// Every shard's flight recorders, shard by shard.
    fn dump_flight(&self) -> String {
        (0..self.shards()).map(|shard| self.on_shard(shard, |core, _| core.dump_flight())).collect()
    }
}

/// What every host — simulator, runtime, reactor — offers a harness:
/// a clock, access to a stack, and the observability report. Code
/// written against it (`dpu_repl::builder::send_probe`, the live
/// scenario tests) runs on all three. Implemented for the borrow each
/// host is driven through — `&mut Sim`, `&Runtime`, `&Reactor` (like
/// `Write for &File`) — so generic code takes a `Host` by value.
pub trait Host {
    /// The host's clock: virtual time on the simulator, time since
    /// start on the live hosts.
    fn now(&self) -> Time;

    /// Run a closure against the stack of node `id` and return the
    /// result; the host then drives whatever work the closure queued.
    fn with_stack<R: Send + 'static>(
        &mut self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R;

    /// The unified observability report over the hosted stacks.
    fn telemetry_report(&self) -> TelemetryReport;
}
