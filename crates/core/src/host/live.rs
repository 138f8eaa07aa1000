//! The live-host core: everything `dpu-runtime` and `dpu-reactor` share.
//!
//! A *live* host drives stacks under the wall clock on one or more
//! shard threads. What differs between live hosts is only the
//! **transport** — how a send that reaches the shard's
//! [`ActionSink`] leaves it and how a packet comes back in (crossbeam mailboxes in the
//! runtime, UDP sockets in the reactor). Everything else lives here,
//! once:
//!
//! * [`LiveShard`] — the thread-side half: the stacks, the shard's
//!   [`ShardPools`] (lent through the [`Loan`](super::Loan) the
//!   simulator takes too), and the stamped heap of wake deadlines;
//! * [`Ctl`] + [`ShardPort`] — the control plane: a closure shipped to a
//!   shard thread and the calling-thread helpers built on it
//!   (`with_stack`, the report fold, the flight dump);
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
//! touches a stack, a pool or a loan itself: the shard hands each stack
//! its packets through [`Stack::packet_in`] and runs it through
//! [`Stack::poll`].
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

use super::{fold_shard, ActionSink, ShardPools, Wakeup};
use crate::ids::StackId;
use crate::stack::Stack;
use crate::time::Time;
use bytes::Bytes;
use dpu_telemetry::{TelemetryAggregate, TelemetryReport};
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

/// The thread-side half of a live host: a set of stacks, the pools
/// they borrow, and when each next needs CPU. See the [module
/// docs](self) for what the owning transport loop must do.
pub struct LiveShard {
    stacks: Vec<Stack>,
    index_of: BTreeMap<StackId, usize>,
    /// Scheduled wake time per local stack. A heap entry whose time
    /// differs from the stamp is stale and is skipped; the stamp moves
    /// whenever a nearer deadline is scheduled, so superseded wakeups
    /// purge themselves on pop.
    next_wake: Vec<Option<Time>>,
    wakes: BinaryHeap<Reverse<(Time, usize)>>,
    clock: WallClock,
    /// Encode buffers, dispatch buffers and the telemetry set, lent to
    /// whichever stack is running: retained memory and event-rate
    /// samples scale with shard threads, not stacks.
    pools: ShardPools,
}

impl LiveShard {
    /// A shard hosting `stacks`, in the given order (local index = the
    /// position in `stacks`). Every stack starts out due, so the first
    /// [`LiveShard::fire_due`] services the stacks' start-up work
    /// (`on_start` handlers, first timers).
    pub fn new(clock: WallClock, stacks: impl IntoIterator<Item = Stack>) -> LiveShard {
        let stacks: Vec<Stack> = stacks.into_iter().collect();
        LiveShard {
            index_of: stacks.iter().enumerate().map(|(local, s)| (s.id(), local)).collect(),
            next_wake: vec![Some(Time::ZERO); stacks.len()],
            wakes: (0..stacks.len()).map(|local| Reverse((Time::ZERO, local))).collect(),
            stacks,
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

    /// Run one stack's drive loop (under the loan — dispatched handlers
    /// encode) and keep a wake scheduled at its next deadline.
    fn poll(&mut self, local: usize, sink: &mut dyn ActionSink) {
        let now = self.now();
        let wakeup = self.pools.lend(&mut self.stacks[local]).poll(now, sink);
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
            let mut loan = self.pools.lend(&mut self.stacks[local]);
            loan.packet_in(now, src, payload);
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
        let now = self.now();
        let mut loan = self.pools.lend(&mut self.stacks[local]);
        loan.advance_to(now);
        let r = f(&mut loan);
        drop(loan);
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

    /// The earliest instant some stack needs CPU, or `None` when every
    /// stack is idle (the transport may then block indefinitely).
    pub fn next_deadline(&mut self) -> Option<Time> {
        while let Some(&Reverse((at, local))) = self.wakes.peek() {
            if self.next_wake[local] == Some(at) {
                return Some(at);
            }
            self.wakes.pop();
        }
        None
    }

    /// Poll every stack whose wake deadline is at or before `now`.
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

    /// This shard's part of the host's report: its stacks plus its pools
    /// (where every encode and every sample lands under the loan
    /// discipline — the per-stack residuals stay zero).
    pub fn fold_report(&self) -> TelemetryAggregate {
        let mut report = TelemetryAggregate::new();
        fold_shard(&mut report, &self.stacks, &self.pools);
        report
    }

    /// This shard's flight recorders (see [`dump_flight`]).
    pub fn dump_flight(&self) -> String {
        dump_flight(&self.stacks, &self.pools)
    }

    /// Unwrap into `(id, stack)` pairs in hosting order, discarding
    /// pending events and armed timers. A traced stack's trace is
    /// whole in it: its structural entries, its digest and its tally
    /// (calls and responses are kept nowhere else).
    pub fn into_stacks(self) -> Vec<(StackId, Stack)> {
        self.stacks.into_iter().map(|stack| (stack.id(), stack)).collect()
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
    fn fold_report(&self) -> TelemetryAggregate {
        let mut total = TelemetryAggregate::new();
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
