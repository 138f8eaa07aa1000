//! The protocol [`Stack`]: the set of modules on one machine, their
//! dynamic service bindings, and the dispatch engine.
//!
//! # Execution model
//!
//! A stack is a deterministic, single-threaded, run-to-completion engine.
//! All pending work (service calls, responses, timer expirations, module
//! lifecycle events) sits in two internal FIFOs — the running cascade and
//! the inbox of inputs behind it; the *host* — the deterministic
//! simulator (`dpu-sim`) or a live host (`dpu-runtime`, `dpu-reactor`) —
//! repeatedly invokes [`Stack::step`] to dispatch one item to one module
//! handler, or lets [`Stack::poll`] run the whole drive loop. Handlers
//! interact with the world only through [`ModuleCtx`], which enqueues
//! further work and records what a step asks of the host (network sends,
//! timer arming); [`Stack::settle`] hands the sends to the host's
//! [`ActionSink`](crate::ActionSink) and stamps the timers' deadlines.
//!
//! This split is what lets the same protocol modules run unchanged under
//! virtual time (for reproducible experiments) and real time.
//!
//! # Dynamic update hooks (paper §2, §4)
//!
//! * [`Stack::bind`] / [`Stack::unbind`] change which module provides a
//!   service; at most one module is bound per service.
//! * A call to an unbound service **blocks** (is queued) until a module is
//!   bound — the weak stack-well-formedness regime. The trace records
//!   [`TraceEvent::BlockedCall`]/[`TraceEvent::ReleasedCall`] so checkers
//!   can verify both regimes.
//! * A response issued on a channel that no local module listens on yet
//!   is **held back** the same way, until a module that listens there is
//!   created (a frame for a protocol that a switch is about to create
//!   here, arriving from a peer that switched first), at most
//!   `route::HOLD_BACK` a service — unless a live module listens on a later
//!   incarnation of the same channel base: then the response is stale,
//!   for a module retired here, and is dropped.
//! * [`Stack::install`] implements the recursive `create_module` procedure
//!   of Algorithm 1 (lines 22–28): create the module, bind its provided
//!   services, then recursively create default providers for any required
//!   service that has no bound module.
//!
//! # Layout
//!
//! One file per phase of a piece of work: `registry` creates, binds and
//! destroys modules (Algorithm 1); `route` decides where a call, a
//! response or an arriving datagram goes; `dispatch` runs one queued
//! delivery ([`Stack::step`]); `ctx` is what a handler may do
//! ([`ModuleCtx`]). This file holds the state they share.

mod ctx;
mod dispatch;
mod registry;
mod route;

pub use ctx::ModuleCtx;
use dispatch::DispatchBuf;
pub(crate) use dispatch::ShardDispatch;
pub use dispatch::{StepCategory, StepInfo};
pub use registry::FactoryRegistry;
pub use route::net_ops;

use crate::ids::{ModuleId, Name, ServiceId, StackId, TimerId};
use crate::module::Module;
use crate::time::{Dur, Time};
use crate::trace::{TraceEvent, TraceLog};
use crate::vecmap::VecMap;
use crate::wire::{Encode, ScratchStats, WireError, WireScratch};
use bytes::Bytes;
use dispatch::Timers;
use dpu_telemetry::{StackTelemetry, TelemetryConfig};
use route::{net_service, NetBridge, Waiting};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// An effect a step asks of its host, executed by [`Stack::settle`].
pub(crate) enum HostAction {
    /// Transmit `payload` to stack `dst` over the (unreliable) network.
    NetSend {
        /// Destination stack.
        dst: StackId,
        /// Raw datagram contents.
        payload: Bytes,
    },
    /// Stamp timer `id`'s deadline: `delay` after the settle time.
    SetTimer {
        /// Timer handle.
        id: TimerId,
        /// Delay from now.
        delay: Dur,
    },
}

/// Errors from stack reconfiguration operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackError {
    /// No factory registered for the requested module kind.
    UnknownKind(String),
    /// A required service has no bound provider and no default provider
    /// spec was configured (Algorithm 1, line 27 failed to "find a module
    /// q providing service s").
    NoDefaultProvider(ServiceId),
    /// The referenced module does not exist (destroyed or never created).
    UnknownModule(ModuleId),
    /// A parameter blob failed to decode.
    Wire(WireError),
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::UnknownKind(k) => write!(f, "no factory for module kind {k:?}"),
            StackError::NoDefaultProvider(s) => {
                write!(f, "no default provider configured for service {s}")
            }
            StackError::UnknownModule(m) => write!(f, "unknown module {m}"),
            StackError::Wire(e) => write!(f, "parameter decode error: {e}"),
        }
    }
}

impl std::error::Error for StackError {}

impl From<WireError> for StackError {
    fn from(e: WireError) -> StackError {
        StackError::Wire(e)
    }
}

/// Static configuration of a stack.
#[derive(Clone, Debug)]
pub struct StackConfig {
    /// This stack's id (the machine index `i`).
    pub id: StackId,
    /// All stacks in the system, including this one, in a globally agreed
    /// order. Shared: every stack of a host holds the same allocation
    /// (build it once with [`StackConfig::peer_table`]) — an owned vector
    /// per stack would cost O(n²) bytes across a simulation.
    pub peers: Arc<[StackId]>,
    /// The run's seed. The stack itself draws no randomness; whoever
    /// builds it seeds its modules' and its host's streams from this.
    pub seed: u64,
    /// Whether to record a [`TraceLog`].
    pub trace: bool,
    /// Nodes per topology cluster, when the host places the stacks on a
    /// clustered topology (stack `i` belongs to cluster `i /
    /// cluster_size`, mirroring the simulator's topology rule). `None`
    /// on flat hosts: locality-aware protocols must degenerate to a
    /// single cluster spanning the whole group.
    pub cluster_size: Option<u32>,
    /// Observability parameters (flight-ring capacity). Telemetry itself
    /// is always on: it costs a stack 48 B at rest.
    pub telemetry: TelemetryConfig,
}

impl StackConfig {
    /// Configuration for stack `id` out of `n` stacks `0..n`.
    ///
    /// Builds a fresh peer table per call; hosts constructing many
    /// stacks should call [`StackConfig::peer_table`] once and share it.
    pub fn nth(id: u32, n: u32, seed: u64) -> StackConfig {
        StackConfig {
            id: StackId(id),
            peers: Self::peer_table(n),
            seed,
            trace: true,
            cluster_size: None,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The canonical peer table for a group of `n` stacks `0..n`, ready
    /// to be shared across every [`StackConfig`] of the group.
    pub fn peer_table(n: u32) -> Arc<[StackId]> {
        (0..n).map(StackId).collect()
    }
}

/// A module and its kind: all a stack keeps per module. What it provides
/// and requires the stack asks the module when it wires it in, and the
/// requirers table remembers the latter.
pub(crate) struct ModuleSlot {
    /// `None` while the module's own handler runs.
    module: Option<Box<dyn Module>>,
    kind: Name,
}

/// The set of modules located on one machine, plus their bindings
/// (paper §2).
pub struct Stack {
    id: StackId,
    peers: Arc<[StackId]>,
    cluster_size: Option<u32>,
    now: Time,
    modules: VecMap<ModuleId, ModuleSlot>,
    bindings: VecMap<ServiceId, ModuleId>,
    /// Who requires what, one `(service, module)` pair per requirement,
    /// sorted: a service's run of pairs is its response fan-out set, in
    /// registration order (module ids ascend). One exact allocation for
    /// the whole table.
    requirers: Box<[(ServiceId, ModuleId)]>,
    /// Calls blocked on an unbound service (weak stack-well-formedness),
    /// and responses held back for a listener not created yet.
    waiting: VecMap<ServiceId, VecDeque<Waiting>>,
    /// The cascade queue, the inbox and the action buffer: the shard's
    /// while it lends them, kept only while they hold work
    /// ([`DispatchBuf`]).
    dispatch: Option<Box<DispatchBuf>>,
    /// Modules created last whose start is due before anything queued:
    /// the ids `next_module - starting .. next_module`
    /// ([`Stack::next_module_id`]).
    starting: u16,
    /// Whether a module handler is running: what it queues joins the
    /// cascade, the calls and responses of anyone else the inbox.
    stepping: bool,
    /// The one timer table: every armed timer's deadline, the module it
    /// fires into, and its tag.
    timers: Timers,
    /// The group's module catalogue, shared with every stack it was
    /// cloned into.
    factory: FactoryRegistry,
    trace: TraceLog,
    next_module: u64,
    next_timer: u64,
    crashed: bool,
    net_bridge: ModuleId,
    /// Reusable encode buffers for every message this stack produces —
    /// the steady-state allocation-free path: the shard's pool while a
    /// host lends it, else this stack's own, allocated by its first
    /// encode. A hosted stack at rest holds none.
    scratch: Option<Box<WireScratch>>,
    /// Observability state: the per-stack remainder (open switch record,
    /// lifecycle flight ring) plus the set and the cascade histogram of
    /// whichever shard lends them. Single-threaded like the rest of the
    /// stack, so recording is plain integer arithmetic; never feeds back
    /// into protocol behaviour.
    telemetry: StackTelemetry,
}

impl Stack {
    /// Create a stack with the given configuration and module catalogue
    /// (a group's stacks share one: pass each a clone).
    ///
    /// The built-in net bridge is created and bound to the `net` service.
    pub fn new(cfg: StackConfig, factory: FactoryRegistry) -> Stack {
        let trace = if cfg.trace { TraceLog::new() } else { TraceLog::disabled() };
        let telemetry = StackTelemetry::new(&cfg.telemetry, cfg.id.0);
        let mut stack =
            Stack::empty(cfg.id, cfg.peers, cfg.cluster_size, factory, trace, telemetry);
        let bridge = stack.add_module(Box::new(NetBridge));
        stack.net_bridge = bridge;
        stack.bind(net_service(), bridge);
        stack
    }

    /// A stack with no module, not even the net bridge.
    fn empty(
        id: StackId,
        peers: Arc<[StackId]>,
        cluster_size: Option<u32>,
        factory: FactoryRegistry,
        trace: TraceLog,
        telemetry: StackTelemetry,
    ) -> Stack {
        Stack {
            id,
            peers,
            cluster_size,
            now: Time::ZERO,
            modules: VecMap::new(),
            bindings: VecMap::new(),
            requirers: Box::default(),
            waiting: VecMap::new(),
            dispatch: None,
            starting: 0,
            stepping: false,
            timers: Timers::default(),
            factory,
            trace,
            next_module: 1,
            next_timer: 1,
            crashed: false,
            net_bridge: ModuleId(0),
            scratch: None,
            telemetry,
        }
    }

    /// Drop everything this incarnation holds — queued work, modules,
    /// timers, buffers, trace and lifecycle records — leaving an empty
    /// stack with the same id and peers in place: what a host does to a
    /// restarted node's slot before it builds the next incarnation, so
    /// that the two never coexist.
    pub fn tear_down(&mut self) {
        let telemetry = StackTelemetry::new(&TelemetryConfig::default(), self.id.0);
        let (peers, factory) = (Arc::clone(&self.peers), self.factory.clone());
        *self = Stack::empty(self.id, peers, None, factory, TraceLog::disabled(), telemetry);
    }

    /// This stack's id.
    pub fn id(&self) -> StackId {
        self.id
    }

    /// All stacks of the system (including this one).
    pub fn peers(&self) -> &[StackId] {
        &self.peers
    }

    /// Nodes per topology cluster, if the host placed this stack on a
    /// clustered topology (see [`StackConfig::cluster_size`]).
    pub fn cluster_size(&self) -> Option<u32> {
        self.cluster_size
    }

    /// The current virtual time, as last told by the host.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Tell the stack that the host's clock reads `now`, before the host
    /// calls into it from outside a step ([`Stack::call_as`] in a control
    /// closure): a module at the edge runs such a call at once, and reads
    /// the time it sent at from [`ModuleCtx::now`]. The clock never moves
    /// back.
    pub fn advance_to(&mut self, now: Time) {
        self.now = self.now.max(now);
    }

    /// Whether the stack has crashed. A crashed stack ignores all input.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Number of pending internal deliveries.
    pub fn pending(&self) -> usize {
        usize::from(self.starting) + self.dispatch.as_ref().map_or(0, |d| d.pending())
    }

    /// Whether [`Stack::step`] has work to do.
    pub fn has_work(&self) -> bool {
        self.pending() > 0 && !self.crashed
    }

    /// The module currently bound to `service`, if any.
    pub fn bound(&self, service: &ServiceId) -> Option<ModuleId> {
        self.bindings.get(service).copied()
    }

    /// The kind name of a module.
    pub fn module_kind(&self, id: ModuleId) -> Option<&str> {
        self.modules.get(&id).map(|s| s.kind.as_str())
    }

    /// Ids and kinds of all live modules.
    pub fn modules(&self) -> impl Iterator<Item = (ModuleId, &str)> {
        self.modules.iter().map(|(id, s)| (*id, s.kind.as_str()))
    }

    /// Access the recorded trace: the stack's structural entries, its
    /// digest and its tally. Its calls and responses live on only in
    /// those two; under a host as on a bare stack, there is nothing more
    /// to collect.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Take the recorded trace, leaving an empty one (same enablement):
    /// the structural entries, the digest and the tally move together.
    pub fn take_trace(&mut self) -> TraceLog {
        self.trace.take()
    }

    /// Crash the stack: it drops all pending work, with the capacity that
    /// held it, and ignores all further input. Used for fault-injection
    /// experiments.
    pub fn crash(&mut self, now: Time) {
        if self.crashed {
            return;
        }
        self.now = now;
        self.crashed = true;
        self.dispatch = None;
        self.starting = 0;
        self.waiting.clear();
        self.telemetry.note_crash(now.as_nanos());
        self.trace.push(now, TraceEvent::Crash { stack: self.id });
    }

    /// Encode a payload through this stack's [`WireScratch`] (steady-state
    /// allocation-free; bytes identical to [`Encode::to_bytes`]). Hosts
    /// and tests use this to build injected payloads; modules use
    /// [`ModuleCtx::encode`].
    pub fn encode<T: Encode + ?Sized>(&mut self, value: &T) -> Bytes {
        scratch(&mut self.scratch).encode(value)
    }

    /// Counters of this stack's scratch pool (see [`ScratchStats`]).
    ///
    /// Under a shard-level pool (see [`crate::host::ShardPools`]) every
    /// encode happens while the shard's pool is loaned in, so the stack
    /// holds no scratch of its own and this returns zeros — the host
    /// reports the pool's counters instead.
    pub fn wire_stats(&self) -> ScratchStats {
        self.scratch.as_ref().map_or(ScratchStats::default(), |s| s.stats())
    }

    /// This stack's observability state (hosts fold these into a
    /// [`dpu_telemetry::TelemetryReport`]).
    pub fn telemetry(&self) -> &StackTelemetry {
        &self.telemetry
    }

    /// Mutable observability state: hosts use this to stamp events the
    /// stack cannot see itself (e.g. end-to-end latencies measured by a
    /// harness), and to lend the stack their shard's telemetry set
    /// around a drive call.
    pub fn telemetry_mut(&mut self) -> &mut StackTelemetry {
        &mut self.telemetry
    }

    /// Fold the [`crate::TransportStats`] of every live module that
    /// reports them (a stack can hold several transport incarnations
    /// after protocol switches). Zero everywhere if no module does.
    pub fn transport_stats(&self) -> crate::TransportStats {
        let mut total = crate::TransportStats::default();
        for slot in self.modules.values() {
            if let Some(ts) = slot.module.as_ref().and_then(|m| m.transport_stats()) {
                total.absorb(ts);
            }
        }
        total
    }

    /// Run a closure against the concrete type of a module (downcast).
    /// Returns `None` if the module does not exist or has another type.
    pub fn with_module<M: Module, R>(
        &mut self,
        id: ModuleId,
        f: impl FnOnce(&mut M) -> R,
    ) -> Option<R> {
        let slot = self.modules.get_mut(&id)?;
        let module = slot.module.as_mut()?;
        let any: &mut dyn std::any::Any = &mut **module;
        any.downcast_mut::<M>().map(f)
    }
}

/// The scratch in `slot`: the pool a loan put there, or the stack's own,
/// allocated here by its first encode.
fn scratch(slot: &mut Option<Box<WireScratch>>) -> &mut WireScratch {
    slot.get_or_insert_with(Box::default)
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("id", &self.id)
            .field("modules", &self.modules.len())
            .field("bindings", &self.bindings)
            .field("pending", &self.pending())
            .field("crashed", &self.crashed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    //! The test modules and helpers the phase files share, and the tests
    //! of what this file holds.

    use super::*;
    use crate::module::{Call, Response};

    /// Test module: provides `echo`; responds on `echo` with the same
    /// payload it was called with.
    pub(super) struct Echo;

    impl Module for Echo {
        fn kind(&self) -> &str {
            "echo"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("echo")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            ctx.respond(&call.service, call.op, call.data);
        }
        fn on_response(&mut self, _ctx: &mut ModuleCtx<'_>, _resp: Response) {}
    }

    /// Test module: requires `echo`; records every response payload.
    #[derive(Default)]
    pub(super) struct Client {
        pub(super) got: Vec<Bytes>,
    }

    impl Module for Client {
        fn kind(&self) -> &str {
            "client"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("echo")]
        }
        fn on_call(&mut self, _ctx: &mut ModuleCtx<'_>, _call: Call) {}
        fn on_response(&mut self, _ctx: &mut ModuleCtx<'_>, resp: Response) {
            self.got.push(resp.data);
        }
    }

    pub(super) fn run_until_idle(stack: &mut Stack) {
        let mut t = stack.now();
        while stack.step(t).is_some() {
            t = Time(t.0 + 1);
        }
    }

    pub(super) fn new_stack() -> Stack {
        Stack::new(StackConfig::nth(0, 3, 42), FactoryRegistry::new())
    }

    /// The sends the steps since the last settle made, settled at the
    /// stack's clock into a recording sink.
    pub(super) fn settled(stack: &mut Stack) -> Vec<(Time, StackId, StackId, Bytes)> {
        let mut sent = Vec::new();
        stack.settle(stack.now(), &mut sent);
        sent
    }

    pub(super) fn net_send_from(stack: &mut Stack, from: ModuleId) {
        let data = (StackId(2), Bytes::from_static(b"x")).to_bytes();
        stack.call_as(from, &ServiceId::new(crate::svc::NET), net_ops::SEND, data);
    }

    #[test]
    fn crash_drops_all_work_and_ignores_input() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        stack.call_as(client, &ServiceId::new("echo"), 1, Bytes::new());
        stack.crash(Time(5));
        assert!(stack.is_crashed());
        assert!(stack.step(Time(6)).is_none());
        stack.packet_in(Time(7), StackId(1), Bytes::new());
        assert_eq!(stack.wake(Time(8)), None);
        assert!(!stack.has_work());
        assert!(stack.trace().events().any(|(_, e)| matches!(e, TraceEvent::Crash { .. })));
    }

    #[test]
    fn a_crashed_stack_holds_no_dispatch_capacity() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        net_send_from(&mut stack, client);
        run_until_idle(&mut stack); // the send waits in `actions`
        stack.call_as(client, &ServiceId::new("echo"), 1, Bytes::new());
        assert!(stack.has_work());
        stack.crash(Time(5));
        assert_eq!(stack.dispatch_capacity(), (0, 0));
    }
}
