//! The protocol [`Stack`]: the set of modules on one machine, their
//! dynamic service bindings, and the dispatch engine.
//!
//! # Execution model
//!
//! A stack is a deterministic, single-threaded, run-to-completion engine.
//! All pending work (service calls, responses, timer expirations, module
//! lifecycle events) sits in an internal FIFO; the *host* — the
//! deterministic simulator (`dpu-sim`) or the threaded runtime
//! (`dpu-runtime`) — repeatedly invokes [`Stack::step`] to dispatch one
//! item to one module handler. Handlers interact with the world only
//! through [`ModuleCtx`], which enqueues further work and emits
//! [`HostAction`]s (network sends, timer arming) for the host to execute.
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
//!   [`HOLD_BACK`] a service — unless a live module listens on a later
//!   incarnation of the same channel base: then the response is stale,
//!   for a module retired here, and is dropped.
//! * [`Stack::install`] implements the recursive `create_module` procedure
//!   of Algorithm 1 (lines 22–28): create the module, bind its provided
//!   services, then recursively create default providers for any required
//!   service that has no bound module.

use crate::ids::{Channel, ModuleId, ServiceId, StackId, TimerId};
use crate::module::{Call, Module, ModuleSpec, Op, Response};
use crate::time::{Dur, Time};
use crate::trace::{TraceEvent, TraceLog};
use crate::vecmap::VecMap;
use crate::wire::{Decode, Encode, ScratchStats, WireError, WireScratch};
use bytes::Bytes;
use dpu_telemetry::{StackTelemetry, TelemetryConfig};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Operation codes of the built-in `net` service (the host boundary).
pub mod net_ops {
    use crate::module::Op;
    /// Downward call: send a datagram. Payload: `(StackId dst, Bytes data)`.
    pub const SEND: Op = 1;
    /// Upward response: a datagram arrived. Payload: `(StackId src, Bytes data)`.
    pub const RECV: Op = 2;
}

/// An effect a stack asks its host to perform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostAction {
    /// Transmit `payload` to stack `dst` over the (unreliable) network.
    NetSend {
        /// Destination stack.
        dst: StackId,
        /// Raw datagram contents.
        payload: Bytes,
    },
    /// Arm a one-shot timer; the host must call
    /// [`Stack::timer_fired`] with `id` after `delay` elapses (unless
    /// cancelled).
    SetTimer {
        /// Timer handle.
        id: TimerId,
        /// Delay from now.
        delay: Dur,
    },
    /// Disarm a previously set timer. Firing a cancelled timer is a no-op,
    /// so hosts may ignore this if inconvenient.
    CancelTimer {
        /// Timer handle.
        id: TimerId,
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

/// What kind of work one [`Stack::step`] dispatched — hosts use this to
/// charge CPU cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepCategory {
    /// A service call was dispatched to its provider.
    Call,
    /// A response was dispatched to a requirer.
    Response,
    /// A timer handler ran.
    Timer,
    /// A module's `on_start` ran.
    Start,
    /// A module's `on_stop` ran (module removed afterwards).
    Stop,
}

/// Report of one dispatched step.
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// The module whose handler ran.
    pub module: ModuleId,
    /// Kind of work dispatched.
    pub category: StepCategory,
    /// The service involved, for calls/responses.
    pub service: Option<ServiceId>,
    /// The operation involved, for calls/responses.
    pub op: Option<Op>,
}

/// A boxed module constructor, as stored in the registry.
pub type ModuleFactory = Box<dyn Fn(&ModuleSpec) -> Result<Box<dyn Module>, StackError> + Send>;

/// Registry of module factories, keyed by kind name.
///
/// A factory builds a fresh module instance from a [`ModuleSpec`]. The
/// registry is consulted by [`Stack::install`] and by the recursive
/// default-provider creation of Algorithm 1.
#[derive(Default)]
pub struct FactoryRegistry {
    factories: BTreeMap<String, ModuleFactory>,
}

impl FactoryRegistry {
    /// An empty registry.
    pub fn new() -> FactoryRegistry {
        FactoryRegistry::default()
    }

    /// Register a factory for a `kind` that takes no parameters. Later
    /// registrations replace earlier ones.
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        f: impl Fn(&ModuleSpec) -> Box<dyn Module> + Send + 'static,
    ) {
        self.factories.insert(kind.into(), Box::new(move |spec| Ok(f(spec))));
    }

    /// Register a factory for a `kind` whose [`ModuleSpec::params`] are a
    /// wire-encoded `P`: an empty blob means `P::default()`, anything
    /// else must decode — a blob that does not is a
    /// [`StackError::Wire`] out of [`FactoryRegistry::build`], never a
    /// silently defaulted module (whose namespace 0 would share wire tags
    /// with the first incarnation).
    pub fn register_with<P: Decode + Default, M: Module>(
        &mut self,
        kind: impl Into<String>,
        make: impl Fn(P) -> M + Send + 'static,
    ) {
        let factory = move |spec: &ModuleSpec| -> Result<Box<dyn Module>, StackError> {
            let params = if spec.params.is_empty() { P::default() } else { spec.params::<P>()? };
            Ok(Box::new(make(params)))
        };
        self.factories.insert(kind.into(), Box::new(factory));
    }

    /// Build a module from `spec`, if its kind is registered and its
    /// parameters decode.
    pub fn build(&self, spec: &ModuleSpec) -> Result<Box<dyn Module>, StackError> {
        match self.factories.get(&spec.kind) {
            Some(f) => f(spec),
            None => Err(StackError::UnknownKind(spec.kind.clone())),
        }
    }

    /// Whether a factory for `kind` exists.
    pub fn contains(&self, kind: &str) -> bool {
        self.factories.contains_key(kind)
    }
}

impl fmt::Debug for FactoryRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FactoryRegistry")
            .field("kinds", &self.factories.keys().collect::<Vec<_>>())
            .finish()
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
    /// Seed for the stack's deterministic RNG (mixed with the stack id).
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
    /// is always on: it costs a stack 160 B at rest.
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

/// Responses a stack holds back per service for a module not created
/// yet; past this the oldest is dropped (and counted).
pub const HOLD_BACK: usize = 64;

/// What waits on a service: a call for a provider to be bound, or a
/// response issued on a channel for a module listening there to be
/// created.
enum Waiting {
    Call(Call),
    Response(Response, Channel),
}

enum Delivery {
    Call { to: ModuleId, call: Call },
    Response { to: ModuleId, resp: Response },
    Timer { to: ModuleId, id: TimerId, tag: u64 },
    Start { to: ModuleId },
    Stop { to: ModuleId },
}

struct ModuleSlot {
    module: Option<Box<dyn Module>>,
    kind: String,
    provides: Vec<ServiceId>,
    requires: Vec<ServiceId>,
}

/// Shard-owned dispatch capacity: the delivery queue and the action
/// buffer, which a stack needs only while it has work. A cascade's burst
/// ratchets a buffer to its peak; lent, that is paid once per shard.
/// Each buffer on its own: a stack holding no capacity borrows the
/// shard's ([`Stack::lend_dispatch`]); an idle stack hands its own back
/// and the shard keeps the larger ([`Stack::return_dispatch`]); a busy
/// stack keeps its own and nothing moves. The shard's is always empty.
#[derive(Default)]
pub(crate) struct DispatchBuf {
    queue: VecDeque<Delivery>,
    actions: Vec<HostAction>,
}

/// The `net` service id, interned once. [`Stack::packet_in`] needs it for
/// every datagram on every host thread, and [`ServiceId::new`] takes the
/// process-wide intern pool's lock.
fn net_service() -> &'static ServiceId {
    static NET: OnceLock<ServiceId> = OnceLock::new();
    NET.get_or_init(|| ServiceId::new(crate::svc::NET))
}

/// The `udp` service id, interned once for the same reason.
fn udp_service() -> &'static ServiceId {
    static UDP: OnceLock<ServiceId> = OnceLock::new();
    UDP.get_or_init(|| ServiceId::new(crate::svc::UDP))
}

/// The built-in module bound to the `net` service, for stacks with no
/// `udp` module (test sinks, load generators, ping-pong probes): it turns
/// `net.SEND` calls into [`HostAction::NetSend`], and [`Stack::packet_in`]
/// fans arrivals out as `net.RECV` responses in its name. A stack built
/// over `udp` never steps it: the edge sends for `udp`
/// ([`Module::on_send`]) and responds on `udp` ([`Module::on_packet`]).
struct NetBridge;

impl Module for NetBridge {
    fn kind(&self) -> &str {
        "net.bridge"
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![*net_service()]
    }

    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op == net_ops::SEND {
            if let Ok((dst, payload)) = call.decode::<(StackId, Bytes)>() {
                ctx.net_send(dst, payload);
            }
        }
    }

    fn on_response(&mut self, _ctx: &mut ModuleCtx<'_>, _resp: Response) {}
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
    /// Modules requiring each service, in registration order — the
    /// response fan-out set.
    requirers: VecMap<ServiceId, Vec<ModuleId>>,
    /// Calls blocked on an unbound service (weak stack-well-formedness),
    /// and responses held back for a listener not created yet.
    waiting: VecMap<ServiceId, VecDeque<Waiting>>,
    queue: VecDeque<Delivery>,
    actions: Vec<HostAction>,
    timers: VecMap<TimerId, (ModuleId, u64)>,
    factory: FactoryRegistry,
    defaults: VecMap<ServiceId, ModuleSpec>,
    trace: TraceLog,
    next_module: u64,
    next_timer: u64,
    rng_state: u64,
    crashed: bool,
    net_bridge: ModuleId,
    /// Reusable encode buffers for every message this stack produces —
    /// the steady-state allocation-free path. One scratch per stack means
    /// one per `StackDriver`, whichever host owns the driver.
    scratch: WireScratch,
    /// Observability state: the per-stack remainder (open switch record,
    /// lifecycle flight ring) plus the handles of whichever
    /// `TelemetrySet` is lent in. Single-threaded like the rest of the
    /// stack, so recording is plain integer arithmetic; never feeds back
    /// into protocol behaviour.
    telemetry: StackTelemetry,
}

impl Stack {
    /// Create a stack with the given configuration and factory registry.
    ///
    /// The built-in net bridge is created and bound to the `net` service.
    pub fn new(cfg: StackConfig, factory: FactoryRegistry) -> Stack {
        let trace = if cfg.trace { TraceLog::new() } else { TraceLog::disabled() };
        let mut stack = Stack {
            id: cfg.id,
            peers: cfg.peers,
            cluster_size: cfg.cluster_size,
            now: Time::ZERO,
            modules: VecMap::new(),
            bindings: VecMap::new(),
            requirers: VecMap::new(),
            waiting: VecMap::new(),
            queue: VecDeque::new(),
            actions: Vec::new(),
            timers: VecMap::new(),
            factory,
            defaults: VecMap::new(),
            trace,
            next_module: 1,
            next_timer: 1,
            // SplitMix-style seed scramble so stacks with consecutive ids
            // do not share low-entropy streams.
            rng_state: cfg.seed ^ (u64::from(cfg.id.0) + 1).wrapping_mul(0x9E3779B97F4A7C15),
            crashed: false,
            net_bridge: ModuleId(0),
            scratch: WireScratch::new(),
            telemetry: StackTelemetry::new(&cfg.telemetry, cfg.id.0),
        };
        let bridge = stack.insert_module(Box::new(NetBridge));
        stack.net_bridge = bridge;
        stack.bind(net_service(), bridge);
        stack
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

    /// Whether the stack has crashed. A crashed stack ignores all input.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Number of pending internal deliveries.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Responses held back right now for a listener not created yet.
    pub fn held_back(&self) -> usize {
        let held = |w: &&Waiting| matches!(w, Waiting::Response(..));
        self.waiting.values().map(|w| w.iter().filter(held).count()).sum()
    }

    /// Whether [`Stack::step`] has work to do.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() && !self.crashed
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

    /// Configure the default provider spec for `service`, used by the
    /// recursive module creation of Algorithm 1 (line 27: "find a module q
    /// providing service s").
    pub fn set_default_provider(&mut self, service: ServiceId, spec: ModuleSpec) {
        self.defaults.insert(service, spec);
    }

    /// Access the recorded trace.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Take the recorded trace, leaving an empty one (same enablement).
    pub fn take_trace(&mut self) -> TraceLog {
        self.trace.take()
    }

    /// Insert an already-constructed module (no binding, no recursion).
    /// Useful for probes and tests; protocol code normally goes through
    /// [`Stack::install`].
    pub fn add_module(&mut self, module: Box<dyn Module>) -> ModuleId {
        self.insert_module(module)
    }

    /// Create a module from `spec` via the factory registry and wire it in
    /// per Algorithm 1 lines 22–28: bind each provided service that is
    /// currently unbound, then recursively create default providers for
    /// required services with no bound module.
    pub fn install(&mut self, spec: &ModuleSpec) -> Result<ModuleId, StackError> {
        let module = self.factory.build(spec)?;
        let id = self.insert_module(module);
        self.wire_in(id)?;
        Ok(id)
    }

    fn wire_in(&mut self, id: ModuleId) -> Result<(), StackError> {
        let (provides, requires) = {
            let slot = self.modules.get(&id).ok_or(StackError::UnknownModule(id))?;
            (slot.provides.clone(), slot.requires.clone())
        };
        for svc in &provides {
            if !self.bindings.contains_key(svc) {
                self.bind(svc, id);
            }
        }
        for svc in &requires {
            if !self.bindings.contains_key(svc) {
                let spec =
                    self.defaults.get(svc).cloned().ok_or(StackError::NoDefaultProvider(*svc))?;
                let dep = self.factory.build(&spec)?;
                let dep_id = self.insert_module(dep);
                self.wire_in(dep_id)?;
            }
        }
        Ok(())
    }

    fn insert_module(&mut self, module: Box<dyn Module>) -> ModuleId {
        let id = ModuleId(self.next_module);
        self.next_module += 1;
        let kind = module.kind().to_string();
        let provides = module.provides();
        let requires = module.requires();
        for svc in &requires {
            self.requirers.get_mut_or_default(*svc).push(id);
        }
        self.trace.push(
            self.now,
            TraceEvent::ModuleCreated { stack: self.id, module: id, kind: kind.as_str().into() },
        );
        self.queue.push_back(Delivery::Start { to: id });
        // What arrived for this module before it existed comes right
        // after its `on_start`, in arrival order.
        for svc in &requires {
            let Some(channel) = module.listens_on(svc) else { continue };
            let held = self.release_waiting(svc, |w| match w {
                Waiting::Response(resp, on) if on == channel => Ok(resp),
                w => Err(w),
            });
            if !held.is_empty() {
                self.telemetry.note_released(held.len() as u64);
            }
            for resp in held {
                self.queue.push_back(Delivery::Response { to: id, resp });
            }
        }
        self.modules.insert(id, ModuleSlot { module: Some(module), kind, provides, requires });
        id
    }

    /// Take what waits on `service` that `pick` accepts (`Ok`), in order,
    /// and leave what it hands back (`Err`) waiting.
    fn release_waiting<T>(
        &mut self,
        service: &ServiceId,
        mut pick: impl FnMut(Waiting) -> Result<T, Waiting>,
    ) -> Vec<T> {
        let Some(all) = self.waiting.remove(service) else { return Vec::new() };
        let (mut taken, mut kept) = (Vec::new(), VecDeque::new());
        for w in all {
            match pick(w) {
                Ok(t) => taken.push(t),
                Err(w) => kept.push_back(w),
            }
        }
        if !kept.is_empty() {
            self.waiting.insert(*service, kept);
        }
        taken
    }

    /// Bind `module` to `service` (paper §2 "Module bindings"). Any
    /// previously bound module is implicitly unbound first. Calls blocked
    /// on the service are released in FIFO order.
    pub fn bind(&mut self, service: &ServiceId, module: ModuleId) {
        if let Some(prev) = self.bindings.insert(*service, module) {
            if prev != module {
                self.trace.push(
                    self.now,
                    TraceEvent::Unbind { stack: self.id, service: *service, module: prev },
                );
            }
        }
        self.trace.push(self.now, TraceEvent::Bind { stack: self.id, service: *service, module });
        let blocked = self.release_waiting(service, |w| match w {
            Waiting::Call(call) => Ok(call),
            w => Err(w),
        });
        for call in blocked {
            self.trace.push(
                self.now,
                TraceEvent::ReleasedCall {
                    stack: self.id,
                    service: *service,
                    op: call.op,
                    from: call.from,
                },
            );
            self.queue.push_back(Delivery::Call { to: module, call });
        }
    }

    /// Unbind whatever module is bound to `service`. Subsequent calls to
    /// the service block until a new module is bound. Unbinding does *not*
    /// remove the module from the stack (paper §2).
    pub fn unbind(&mut self, service: &ServiceId) {
        if let Some(prev) = self.bindings.remove(service) {
            self.trace.push(
                self.now,
                TraceEvent::Unbind { stack: self.id, service: *service, module: prev },
            );
        }
    }

    /// Destroy a module: unbind it from any service it is bound to, run
    /// its `on_stop`, and remove it. Pending deliveries to it are dropped.
    pub fn destroy_module(&mut self, id: ModuleId) {
        if !self.modules.contains_key(&id) {
            return;
        }
        let bound_services: Vec<ServiceId> =
            self.bindings.iter().filter(|(_, m)| **m == id).map(|(s, _)| *s).collect();
        for svc in bound_services {
            self.unbind(&svc);
        }
        self.queue.push_back(Delivery::Stop { to: id });
    }

    /// Make a service call on behalf of module `from` (used by hosts and
    /// probes to inject work; modules use [`ModuleCtx::call`]).
    pub fn call_as(&mut self, from: ModuleId, service: &ServiceId, op: Op, data: Bytes) {
        self.enqueue_call(Call { service: *service, op, data, from });
    }

    /// The one call path. A call to `udp` is also the edge on the way
    /// out: the module bound there is asked what it would put on the wire
    /// ([`Module::on_send`]) and the datagram leaves inside the caller's
    /// step, with the call traced as any other — so a rebinding still
    /// redirects it — and the `udp` module never stepped. Its slot holds
    /// it (only the caller is out), unless it is the caller itself; an
    /// answer of `None` takes the queued path.
    fn enqueue_call(&mut self, call: Call) {
        let Some(&to) = self.bindings.get(&call.service) else {
            self.trace.push(
                self.now,
                TraceEvent::BlockedCall {
                    stack: self.id,
                    service: call.service,
                    op: call.op,
                    from: call.from,
                },
            );
            self.waiting.get_mut_or_default(call.service).push_back(Waiting::Call(call));
            return;
        };
        self.trace.push(
            self.now,
            TraceEvent::Call {
                stack: self.id,
                service: call.service,
                op: call.op,
                from: call.from,
                to,
            },
        );
        if call.service == *udp_service() {
            let module = self.modules.get_mut(&to).and_then(|slot| slot.module.as_mut());
            if let Some((dst, payload)) = module.and_then(|m| m.on_send(call.op, &call.data)) {
                return self.actions.push(HostAction::NetSend { dst, payload });
            }
        }
        self.queue.push_back(Delivery::Call { to, call });
    }

    /// The one response path. `channel` is the provider's end of the
    /// routing key (`None`: a plain [`ModuleCtx::respond`], reaches every
    /// requirer); a requirer's end is [`Module::listens_on`], asked here
    /// rather than stored — every requirer is in its slot (only the
    /// module being dispatched is out, and that is the responder), so the
    /// key costs a stack no byte at rest.
    ///
    /// A response on a channel that reaches no module is held back, not
    /// dropped: the first module created that listens on that channel
    /// gets it after its `on_start` (`insert_module`). Past
    /// [`HOLD_BACK`] held on the service the oldest goes. A response
    /// without a channel is never held. Nor is a stale one, for an
    /// incarnation older than a live listener's on the same base
    /// ([`Channel::supersedes`]): incarnations only rise, so its module
    /// was here and has been retired. It is dropped and counted.
    fn enqueue_response(&mut self, resp: Response, channel: Option<Channel>) {
        let (mut fanout, mut stale) = (0, false);
        for &to in self.requirers.get(&resp.service).map_or(&[][..], Vec::as_slice) {
            if to == resp.from {
                continue;
            }
            let Some(slot) = self.modules.get(&to) else { continue };
            let wanted =
                channel.and(slot.module.as_deref()).and_then(|m| m.listens_on(&resp.service));
            if wanted.is_none() || wanted == channel {
                self.queue.push_back(Delivery::Response { to, resp: resp.clone() });
                fanout += 1;
            } else {
                stale |= wanted.zip(channel).is_some_and(|(w, c)| w.supersedes(c));
            }
        }
        self.trace.push(
            self.now,
            TraceEvent::Response {
                stack: self.id,
                service: resp.service,
                op: resp.op,
                from: resp.from,
                fanout,
            },
        );
        if let (0, Some(channel)) = (fanout, channel) {
            self.hold_back(resp, channel, stale);
        }
    }

    fn hold_back(&mut self, resp: Response, channel: Channel, stale: bool) {
        self.telemetry.note_held();
        if stale {
            return self.telemetry.note_hold_back_dropped();
        }
        let waiting = self.waiting.get_mut_or_default(resp.service);
        let held = |w: &Waiting| matches!(w, Waiting::Response(..));
        if waiting.iter().filter(|w| held(w)).count() == HOLD_BACK {
            if let Some(oldest) = waiting.iter().position(held) {
                waiting.remove(oldest);
                self.telemetry.note_hold_back_dropped();
            }
        }
        waiting.push_back(Waiting::Response(resp, channel));
    }

    /// Inject a datagram arrival from the network — the one edge every
    /// host delivers through. The header is read once, here: the module
    /// bound to `udp` says which channel the datagram is for
    /// ([`Module::on_packet`]) and the stack responds on `udp` and that
    /// channel in its name, without stepping it, so the first module
    /// dispatched is the one listening there. With no module bound to
    /// `udp`, or a datagram it does not take, the arrival fans out as a
    /// `net.RECV` response to every module requiring the `net` service.
    pub fn packet_in(&mut self, now: Time, src: StackId, payload: Bytes) {
        if self.crashed {
            return;
        }
        self.now = now;
        // Sample scratch-pool pressure once per arriving packet — off the
        // encode hot path, frequent enough to catch retention spikes.
        self.telemetry.record_scratch_occupancy(self.scratch.mem_bytes() as u64);
        let udp = *udp_service();
        let taken = self.bindings.get(&udp).and_then(|&from| {
            let module = self.modules.get_mut(&from)?.module.as_mut()?;
            let (channel, op, data) = module.on_packet(src, &payload, &mut self.scratch)?;
            Some((Response { service: udp, op, data, from }, channel))
        });
        if let Some((resp, channel)) = taken {
            return self.enqueue_response(resp, Some(channel));
        }
        let data = self.scratch.encode(&(src, payload));
        self.enqueue_response(
            Response { service: *net_service(), op: net_ops::RECV, data, from: self.net_bridge },
            None,
        );
    }

    /// Fire a timer previously armed via [`HostAction::SetTimer`]. Firing
    /// a cancelled or unknown timer is a no-op.
    pub fn timer_fired(&mut self, now: Time, id: TimerId) {
        if self.crashed {
            return;
        }
        self.now = now;
        if let Some((module, tag)) = self.timers.remove(&id) {
            self.queue.push_back(Delivery::Timer { to: module, id, tag });
        }
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
        self.queue = VecDeque::new();
        self.actions = Vec::new();
        self.waiting.clear();
        self.telemetry.note_crash(now.as_nanos());
        self.trace.push(now, TraceEvent::Crash { stack: self.id });
    }

    /// Dispatch one pending delivery at virtual time `now`. Returns what
    /// was dispatched, or `None` if there was no work (or the stack
    /// crashed).
    pub fn step(&mut self, now: Time) -> Option<StepInfo> {
        if self.crashed {
            return None;
        }
        self.now = now;
        loop {
            let Some(delivery) = self.queue.pop_front() else {
                // The cascade triggered by the last external input has
                // drained; record how many steps it took.
                self.telemetry.cascade_end();
                return None;
            };
            self.telemetry.cascade_step();
            let (to, category) = match &delivery {
                Delivery::Call { to, .. } => (*to, StepCategory::Call),
                Delivery::Response { to, .. } => (*to, StepCategory::Response),
                Delivery::Timer { to, .. } => (*to, StepCategory::Timer),
                Delivery::Start { to } => (*to, StepCategory::Start),
                Delivery::Stop { to } => (*to, StepCategory::Stop),
            };
            // Deliveries to destroyed modules are dropped silently.
            let Some(slot) = self.modules.get_mut(&to) else { continue };
            let mut module = slot.module.take().expect("module re-entrancy");
            let (service, op) = match &delivery {
                Delivery::Call { call, .. } => (Some(call.service), Some(call.op)),
                Delivery::Response { resp, .. } => (Some(resp.service), Some(resp.op)),
                _ => (None, None),
            };
            let mut ctx = ModuleCtx { stack: self, me: to, destroyed_self: false };
            match delivery {
                Delivery::Call { call, .. } => module.on_call(&mut ctx, call),
                Delivery::Response { resp, .. } => module.on_response(&mut ctx, resp),
                Delivery::Timer { id, tag, .. } => module.on_timer(&mut ctx, id, tag),
                Delivery::Start { .. } => module.on_start(&mut ctx),
                Delivery::Stop { .. } => {
                    module.on_stop(&mut ctx);
                    ctx.destroyed_self = true;
                }
            }
            let destroyed = ctx.destroyed_self;
            if self.queue.is_empty() {
                // The cascade drained with this step: close it here, so
                // hosts that only schedule steps while work is pending
                // (the sim never calls `step` on an empty queue) still
                // feed the depth histogram.
                self.telemetry.cascade_end();
            }
            if destroyed {
                let kind = module.kind().into();
                self.telemetry.note_module_destroyed(self.now.as_nanos());
                self.trace.push(
                    self.now,
                    TraceEvent::ModuleDestroyed { stack: self.id, module: to, kind },
                );
                self.remove_module_records(to);
            } else if let Some(slot) = self.modules.get_mut(&to) {
                slot.module = Some(module);
            }
            return Some(StepInfo { module: to, category, service, op });
        }
    }

    fn remove_module_records(&mut self, id: ModuleId) {
        self.modules.remove(&id);
        let bound: Vec<ServiceId> =
            self.bindings.iter().filter(|(_, m)| **m == id).map(|(s, _)| *s).collect();
        for svc in bound {
            self.unbind(&svc);
        }
        for reqs in self.requirers.values_mut() {
            reqs.retain(|m| *m != id);
        }
        self.timers.retain(|_, (m, _)| *m != id);
    }

    /// Drain the host actions produced since the last drain, in order,
    /// in place: the buffer keeps its capacity for the next step.
    pub fn drain_actions(&mut self) -> std::vec::Drain<'_, HostAction> {
        self.actions.drain(..)
    }

    /// Delivery and host-action slots this stack holds (capacity): none
    /// once idle, if a shard lends to it ([`crate::host::ShardPools`]).
    pub fn dispatch_capacity(&self) -> (usize, usize) {
        (self.queue.capacity(), self.actions.capacity())
    }

    /// Encode a payload through this stack's [`WireScratch`] (steady-state
    /// allocation-free; bytes identical to [`Encode::to_bytes`]). Hosts
    /// and tests use this to build injected payloads; modules use
    /// [`ModuleCtx::encode`].
    pub fn encode<T: Encode + ?Sized>(&mut self, value: &T) -> Bytes {
        self.scratch.encode(value)
    }

    /// Counters of this stack's scratch pool (see [`ScratchStats`]).
    ///
    /// Under a shard-level pool (see [`crate::host::ShardPools`]) every
    /// encode happens while the shard's pool is loaned in, so the
    /// resident scratch stays empty and this returns zeros — the host
    /// reports the pool's counters instead.
    pub fn wire_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }

    /// Swap this stack's [`WireScratch`] with `other` — the scratch part
    /// of the shard loan, both ways. The swap moves the retained buffers
    /// *and* the counters, so stats accumulated during the loan stay
    /// with the pool; encoded bytes are identical either way.
    pub(crate) fn swap_scratch(&mut self, other: &mut WireScratch) {
        std::mem::swap(&mut self.scratch, other);
    }

    /// Taking a shard loan: each buffer holding no capacity takes the shard's.
    pub(crate) fn lend_dispatch(&mut self, shard: &mut DispatchBuf) {
        if self.queue.capacity() == 0 {
            std::mem::swap(&mut self.queue, &mut shard.queue);
        }
        if self.actions.capacity() == 0 {
            std::mem::swap(&mut self.actions, &mut shard.actions);
        }
    }

    /// Ending a shard loan: an empty buffer leaves; the shard keeps the
    /// larger of it and its own.
    pub(crate) fn return_dispatch(&mut self, shard: &mut DispatchBuf) {
        if self.queue.is_empty() {
            let spare = std::mem::take(&mut self.queue);
            if spare.capacity() > shard.queue.capacity() {
                shard.queue = spare;
            }
        }
        if self.actions.is_empty() {
            let spare = std::mem::take(&mut self.actions);
            if spare.capacity() > shard.actions.capacity() {
                shard.actions = spare;
            }
        }
    }

    /// This stack's observability state (hosts fold these into a
    /// [`dpu_telemetry::TelemetryReport`]).
    pub fn telemetry(&self) -> &StackTelemetry {
        &self.telemetry
    }

    /// Mutable observability state: hosts use this to stamp events the
    /// stack cannot see itself (e.g. end-to-end latencies measured by a
    /// harness), and to lend the stack their shard's `TelemetrySet`
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

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: deterministic, cheap, good enough for timer jitter.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("id", &self.id)
            .field("modules", &self.modules.len())
            .field("bindings", &self.bindings)
            .field("pending", &self.queue.len())
            .field("crashed", &self.crashed)
            .finish()
    }
}

/// The capability handle passed to module handlers: everything a module
/// may do to the world.
pub struct ModuleCtx<'a> {
    stack: &'a mut Stack,
    me: ModuleId,
    destroyed_self: bool,
}

impl ModuleCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.stack.now
    }

    /// The id of the stack this module lives on.
    pub fn stack_id(&self) -> StackId {
        self.stack.id
    }

    /// All stacks of the system.
    pub fn peers(&self) -> &[StackId] {
        &self.stack.peers
    }

    /// The same table as [`ModuleCtx::peers`], as the shared allocation
    /// the stack holds (a reference count, not a copy): what a module
    /// iterates while it sends to every member through `self`.
    pub fn peer_table(&self) -> Arc<[StackId]> {
        Arc::clone(&self.stack.peers)
    }

    /// Nodes per topology cluster (`None` on flat hosts): stack `i`
    /// belongs to cluster `i / cluster_size`, matching the simulator's
    /// topology rule. Locality-aware protocols (e.g. the hierarchical
    /// atomic broadcast) derive their cluster membership from this.
    pub fn cluster_size(&self) -> Option<u32> {
        self.stack.cluster_size
    }

    /// This module's own id.
    pub fn me(&self) -> ModuleId {
        self.me
    }

    /// Encode a payload through the stack's shared [`WireScratch`]: the
    /// steady-state allocation-free way for a module to build the `data`
    /// for [`ModuleCtx::call`] / [`ModuleCtx::respond`]. Produces bytes
    /// identical to [`Encode::to_bytes`].
    pub fn encode<T: Encode + ?Sized>(&mut self, value: &T) -> Bytes {
        self.stack.scratch.encode(value)
    }

    /// The stack's observability state. Modules record protocol-level
    /// metrics here (switch-phase stamps, resequencing depth, delivery
    /// latency); nothing recorded ever feeds back into protocol
    /// behaviour.
    pub fn telemetry(&mut self) -> &mut StackTelemetry {
        &mut self.stack.telemetry
    }

    /// Call a service (paper: "service call"). If the service is unbound
    /// the call blocks until a module is bound.
    pub fn call(&mut self, service: &ServiceId, op: Op, data: Bytes) {
        self.stack.enqueue_call(Call { service: *service, op, data, from: self.me });
    }

    /// Respond on a service this module provides (paper: "service
    /// response"). The response is delivered to every local module that
    /// requires the service (excluding this module itself), whatever
    /// channel it listens on. Note that a module may respond even after
    /// being unbound.
    pub fn respond(&mut self, service: &ServiceId, op: Op, data: Bytes) {
        self.stack.enqueue_response(Response { service: *service, op, data, from: self.me }, None);
    }

    /// [`ModuleCtx::respond`] on one `channel` of the service: the same
    /// response, delivered to the requirers that listen on `channel` or
    /// declare no channel at all ([`Module::listens_on`]), and to nobody
    /// who declared another. For a provider that multiplexes its users —
    /// it has the channel in hand from the header it just decoded, so the
    /// stack need not step every other user only for each to decode the
    /// same header and drop the frame.
    pub fn respond_on(&mut self, service: &ServiceId, channel: Channel, op: Op, data: Bytes) {
        let resp = Response { service: *service, op, data, from: self.me };
        self.stack.enqueue_response(resp, Some(channel));
    }

    /// Arm a one-shot timer; `tag` is returned to
    /// [`Module::on_timer`] for multiplexing.
    pub fn set_timer(&mut self, delay: Dur, tag: u64) -> TimerId {
        let id = TimerId(self.stack.next_timer);
        self.stack.next_timer += 1;
        self.stack.timers.insert(id, (self.me, tag));
        self.stack.actions.push(HostAction::SetTimer { id, delay });
        id
    }

    /// Disarm a timer. Safe to call on already-fired timers.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.stack.timers.remove(&id).is_some() {
            self.stack.actions.push(HostAction::CancelTimer { id });
        }
    }

    /// Bind `module` to `service` (dynamic reconfiguration).
    pub fn bind(&mut self, service: &ServiceId, module: ModuleId) {
        self.stack.bind(service, module);
    }

    /// Unbind the provider of `service` (dynamic reconfiguration).
    pub fn unbind(&mut self, service: &ServiceId) {
        self.stack.unbind(service);
    }

    /// The module currently bound to `service`.
    pub fn bound(&self, service: &ServiceId) -> Option<ModuleId> {
        self.stack.bound(service)
    }

    /// Create and wire in a module per Algorithm 1 lines 22–28 (see
    /// [`Stack::install`]).
    pub fn create_module(&mut self, spec: &ModuleSpec) -> Result<ModuleId, StackError> {
        self.stack.install(spec)
    }

    /// Whether this stack's registry can build `spec` (kind registered,
    /// parameters decode), without creating anything: what a switch layer
    /// asks before it proposes `spec` to the whole group.
    pub fn check_spec(&self, spec: &ModuleSpec) -> Result<(), StackError> {
        self.stack.factory.build(spec).map(drop)
    }

    /// Destroy a module (used by whole-stack switch baselines). A module
    /// may destroy itself; removal then happens after the current handler
    /// returns.
    pub fn destroy_module(&mut self, id: ModuleId) {
        if id == self.me {
            self.destroyed_self = true;
            // Unbind immediately so no further calls are routed to us.
            let bound: Vec<ServiceId> =
                self.stack.bindings.iter().filter(|(_, m)| **m == id).map(|(s, _)| *s).collect();
            for svc in bound {
                self.stack.unbind(&svc);
            }
        } else {
            self.stack.destroy_module(id);
        }
    }

    /// The kind of a live module.
    pub fn module_kind(&self, id: ModuleId) -> Option<&str> {
        self.stack.module_kind(id)
    }

    /// Deterministic per-stack randomness (for timer jitter and the like).
    pub fn random_u64(&mut self) -> u64 {
        self.stack.next_rand()
    }

    /// Put a datagram on the wire: the host transmits `payload` to stack
    /// `dst` as it is ([`HostAction::NetSend`]). Only the bottom of a
    /// stack sends this way, from a step — `udp` for a call that waited
    /// for it to be bound, the built-in `net` bridge on stacks without
    /// `udp`. A protocol module above the bottom calls `udp` (or `rp2p`)
    /// instead, so that its send is a service interaction the trace sees
    /// and a rebinding can redirect; that costs no step of `udp`, whose
    /// datagram leaves inside the caller's step ([`Module::on_send`]).
    pub fn net_send(&mut self, dst: StackId, payload: Bytes) {
        self.stack.actions.push(HostAction::NetSend { dst, payload });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Encode;

    /// Test module: provides `echo`; responds on `echo` with the same
    /// payload it was called with.
    struct Echo;

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
    struct Client {
        got: Vec<Bytes>,
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

    fn run_until_idle(stack: &mut Stack) {
        let mut t = stack.now();
        while stack.step(t).is_some() {
            t = Time(t.0 + 1);
        }
    }

    fn new_stack() -> Stack {
        Stack::new(StackConfig::nth(0, 3, 42), FactoryRegistry::new())
    }

    #[test]
    fn call_reaches_bound_provider_and_response_fans_out() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        stack.call_as(client, &ServiceId::new("echo"), 7, Bytes::from_static(b"hi"));
        run_until_idle(&mut stack);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        assert_eq!(got, vec![Bytes::from_static(b"hi")]);
    }

    #[test]
    fn call_to_unbound_service_blocks_until_bind() {
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        stack.call_as(client, &ServiceId::new("echo"), 7, Bytes::from_static(b"queued"));
        run_until_idle(&mut stack);
        // Not delivered yet: no provider bound.
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        assert!(got.is_empty());
        // Bind releases the blocked call.
        let echo = stack.add_module(Box::new(Echo));
        stack.bind(&ServiceId::new("echo"), echo);
        run_until_idle(&mut stack);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        assert_eq!(got, vec![Bytes::from_static(b"queued")]);
        // Trace captured the block + release.
        let evs: Vec<_> = stack.trace().events().map(|(_, e)| e).collect();
        assert!(evs.iter().any(|e| matches!(e, TraceEvent::BlockedCall { .. })));
        assert!(evs.iter().any(|e| matches!(e, TraceEvent::ReleasedCall { .. })));
    }

    #[test]
    fn unbind_then_bind_preserves_fifo_order() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        let svc = ServiceId::new("echo");
        stack.bind(&svc, echo);
        stack.unbind(&svc);
        for i in 0..5u8 {
            stack.call_as(client, &svc, 1, Bytes::copy_from_slice(&[i]));
        }
        stack.bind(&svc, echo);
        run_until_idle(&mut stack);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        let order: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn at_most_one_module_bound_per_service() {
        let mut stack = new_stack();
        let a = stack.add_module(Box::new(Echo));
        let b = stack.add_module(Box::new(Echo));
        let svc = ServiceId::new("echo");
        stack.bind(&svc, a);
        assert_eq!(stack.bound(&svc), Some(a));
        stack.bind(&svc, b);
        assert_eq!(stack.bound(&svc), Some(b));
        // The old module is still in the stack (unbinding does not remove).
        assert!(stack.module_kind(a).is_some());
    }

    #[test]
    fn net_bridge_turns_send_calls_into_host_actions() {
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        let payload = Bytes::from_static(b"datagram");
        let data = (StackId(2), payload.clone()).to_bytes();
        stack.call_as(client, &ServiceId::new(crate::svc::NET), net_ops::SEND, data);
        run_until_idle(&mut stack);
        let actions: Vec<_> = stack.drain_actions().collect();
        assert_eq!(actions, vec![HostAction::NetSend { dst: StackId(2), payload }]);
    }

    #[test]
    fn packet_in_fans_out_to_net_requirers() {
        struct NetUser {
            got: Vec<(StackId, Bytes)>,
        }
        impl Module for NetUser {
            fn kind(&self) -> &str {
                "netuser"
            }
            fn provides(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn requires(&self) -> Vec<ServiceId> {
                vec![ServiceId::new(crate::svc::NET)]
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
                if resp.op == net_ops::RECV {
                    let (src, data): (StackId, Bytes) = resp.decode().unwrap();
                    self.got.push((src, data));
                }
            }
        }
        let mut stack = new_stack();
        let user = stack.add_module(Box::new(NetUser { got: vec![] }));
        stack.packet_in(Time(10), StackId(1), Bytes::from_static(b"pkt"));
        run_until_idle(&mut stack);
        let got = stack.with_module::<NetUser, _>(user, |u| u.got.clone()).unwrap();
        assert_eq!(got, vec![(StackId(1), Bytes::from_static(b"pkt"))]);
    }

    /// The edge asks the module bound to `udp` what a datagram is and
    /// responds on `udp` in its name without stepping it; what that module
    /// does not take goes to the `net` requirers as on a stack without one.
    #[test]
    fn packet_in_asks_the_module_bound_to_udp_first() {
        /// Takes frames whose first byte is a channel base (< 16); hands
        /// the rest up on that channel.
        struct Bottom;
        impl Module for Bottom {
            fn kind(&self) -> &str {
                "bottom"
            }
            fn provides(&self) -> Vec<ServiceId> {
                vec![ServiceId::new(crate::svc::UDP)]
            }
            fn requires(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
            fn on_packet(
                &mut self,
                _src: StackId,
                frame: &Bytes,
                _scratch: &mut WireScratch,
            ) -> Option<(Channel, Op, Bytes)> {
                let base = *frame.first().filter(|c| **c < 16)?;
                Some((Channel::new(base, 0), 9, frame.slice(1..)))
            }
        }
        /// Requires `udp` (on channel 3 only) and `net`; records both.
        struct Listener {
            got: Vec<(ServiceId, Op, Bytes)>,
        }
        impl Module for Listener {
            fn kind(&self) -> &str {
                "listener"
            }
            fn provides(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn requires(&self) -> Vec<ServiceId> {
                vec![ServiceId::new(crate::svc::UDP), ServiceId::new(crate::svc::NET)]
            }
            fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
                (service.name() == crate::svc::UDP).then_some(Channel::new(3, 0))
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
                self.got.push((resp.service, resp.op, resp.data));
            }
        }
        let mut stack = new_stack();
        let bottom = stack.add_module(Box::new(Bottom));
        let listener = stack.add_module(Box::new(Listener { got: vec![] }));
        run_until_idle(&mut stack); // the `on_start`s
        let (udp, net) = (ServiceId::new(crate::svc::UDP), ServiceId::new(crate::svc::NET));

        // Nothing bound to `udp` yet: the `net` path.
        stack.packet_in(Time(1), StackId(1), Bytes::from_static(b"\x03abc"));
        stack.bind(&udp, bottom);
        // Taken, on the listener's channel; taken, on another; not taken.
        stack.packet_in(Time(2), StackId(1), Bytes::from_static(b"\x03abc"));
        stack.packet_in(Time(3), StackId(1), Bytes::from_static(b"\x04abc"));
        stack.packet_in(Time(4), StackId(1), Bytes::from_static(b"\xffabc"));
        let mut stepped = Vec::new();
        while let Some(info) = stack.step(Time(5)) {
            stepped.push(info.module);
        }
        assert_eq!(stepped, vec![listener; 3], "`bottom` answers the edge, it is never stepped");
        let got = stack.with_module::<Listener, _>(listener, |l| l.got.clone()).unwrap();
        let raw = |frame: &'static [u8]| (StackId(1), Bytes::from_static(frame)).to_bytes();
        assert_eq!(
            got,
            vec![
                (net, net_ops::RECV, raw(b"\x03abc")),
                (udp, 9, Bytes::from_static(b"abc")),
                (net, net_ops::RECV, raw(b"\xffabc")),
            ]
        );
    }

    #[test]
    fn timers_fire_with_tag_and_cancel_works() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Module for TimerUser {
            fn kind(&self) -> &str {
                "timeruser"
            }
            fn provides(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn requires(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
                ctx.set_timer(Dur::millis(1), 11);
                let t2 = ctx.set_timer(Dur::millis(2), 22);
                ctx.cancel_timer(t2);
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
            fn on_timer(&mut self, _: &mut ModuleCtx<'_>, _: TimerId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut stack = new_stack();
        let user = stack.add_module(Box::new(TimerUser { fired: vec![] }));
        run_until_idle(&mut stack);
        let set: Vec<TimerId> = stack
            .drain_actions()
            .filter_map(|a| match a {
                HostAction::SetTimer { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(set.len(), 2);
        // Fire both: the cancelled one must be a no-op.
        stack.timer_fired(Time(100), set[0]);
        stack.timer_fired(Time(100), set[1]);
        run_until_idle(&mut stack);
        let fired = stack.with_module::<TimerUser, _>(user, |u| u.fired.clone()).unwrap();
        assert_eq!(fired, vec![11]);
    }

    #[test]
    fn install_recursively_creates_default_providers() {
        // upper requires "mid"; mid requires "low"; low requires nothing.
        struct Svc {
            name: &'static str,
            kind_name: &'static str,
            deps: Vec<&'static str>,
        }
        impl Module for Svc {
            fn kind(&self) -> &str {
                self.kind_name
            }
            fn provides(&self) -> Vec<ServiceId> {
                vec![ServiceId::new(self.name)]
            }
            fn requires(&self) -> Vec<ServiceId> {
                self.deps.iter().map(ServiceId::new).collect()
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        }
        let mut reg = FactoryRegistry::new();
        reg.register("upper", |_| {
            Box::new(Svc { name: "up", kind_name: "upper", deps: vec!["mid"] })
        });
        reg.register("middle", |_| {
            Box::new(Svc { name: "mid", kind_name: "middle", deps: vec!["low"] })
        });
        reg.register("lower", |_| Box::new(Svc { name: "low", kind_name: "lower", deps: vec![] }));
        let mut stack = Stack::new(StackConfig::nth(0, 1, 7), reg);
        stack.set_default_provider(ServiceId::new("mid"), ModuleSpec::new("middle"));
        stack.set_default_provider(ServiceId::new("low"), ModuleSpec::new("lower"));
        let up = stack.install(&ModuleSpec::new("upper")).unwrap();
        assert_eq!(stack.bound(&ServiceId::new("up")), Some(up));
        assert!(stack.bound(&ServiceId::new("mid")).is_some());
        assert!(stack.bound(&ServiceId::new("low")).is_some());
        // Installing again binds nothing new (services already bound).
        let up2 = stack.install(&ModuleSpec::new("upper")).unwrap();
        assert_ne!(up, up2);
        assert_eq!(stack.bound(&ServiceId::new("up")), Some(up));
    }

    #[test]
    fn install_fails_without_default_provider() {
        struct Needy;
        impl Module for Needy {
            fn kind(&self) -> &str {
                "needy"
            }
            fn provides(&self) -> Vec<ServiceId> {
                vec![ServiceId::new("n")]
            }
            fn requires(&self) -> Vec<ServiceId> {
                vec![ServiceId::new("missing")]
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        }
        let mut reg = FactoryRegistry::new();
        reg.register("needy", |_| Box::new(Needy));
        let mut stack = Stack::new(StackConfig::nth(0, 1, 7), reg);
        let err = stack.install(&ModuleSpec::new("needy")).unwrap_err();
        assert_eq!(err, StackError::NoDefaultProvider(ServiceId::new("missing")));
        let err2 = stack.install(&ModuleSpec::new("nope")).unwrap_err();
        assert_eq!(err2, StackError::UnknownKind("nope".into()));
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
        stack.timer_fired(Time(8), TimerId(1));
        assert!(!stack.has_work());
        assert!(stack.trace().events().any(|(_, e)| matches!(e, TraceEvent::Crash { .. })));
    }

    fn net_send_from(stack: &mut Stack, from: ModuleId) {
        let data = (StackId(2), Bytes::from_static(b"x")).to_bytes();
        stack.call_as(from, &ServiceId::new(crate::svc::NET), net_ops::SEND, data);
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

    /// `work` on `stack` under a loan of `shard`'s dispatch buffers, as a
    /// host takes it.
    fn lent<R>(
        stack: &mut Stack,
        shard: &mut DispatchBuf,
        work: impl FnOnce(&mut Stack) -> R,
    ) -> R {
        stack.lend_dispatch(shard);
        let r = work(stack);
        stack.return_dispatch(shard);
        r
    }

    #[test]
    fn an_idle_stack_holds_no_dispatch_capacity() {
        let mut shard = DispatchBuf::default();
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        for _ in 0..3 {
            let sent = lent(&mut stack, &mut shard, |s| {
                net_send_from(s, client);
                run_until_idle(s);
                s.drain_actions().count()
            });
            assert_eq!(sent, 1);
            assert_eq!(stack.dispatch_capacity(), (0, 0));
            assert!(shard.queue.capacity() > 0 && shard.actions.capacity() > 0);
        }
    }

    #[test]
    fn a_busy_stack_keeps_its_own_buffer_in_fifo_order() {
        let mut shard = DispatchBuf::default();
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        lent(&mut stack, &mut shard, run_until_idle); // the `on_start`s
        shard.queue.reserve(64);
        let warm = shard.queue.capacity();
        let call = |s: &mut Stack, i: u8| {
            s.call_as(client, &ServiceId::new("echo"), 1, Bytes::copy_from_slice(&[i]));
        };
        // Work enqueued under one loan waits in the buffer the stack took;
        // later loans find the stack busy and move nothing either way.
        for i in 0..5 {
            lent(&mut stack, &mut shard, |s| call(s, i));
            assert_eq!(stack.pending(), usize::from(i) + 1);
            assert_eq!(stack.dispatch_capacity().0, warm, "the one buffer, not a copy");
            assert_eq!(shard.queue.capacity(), 0, "nothing carried back");
        }
        lent(&mut stack, &mut shard, |s| s.step(Time(1)));
        assert_eq!(stack.dispatch_capacity().0, warm, "still busy");
        lent(&mut stack, &mut shard, |s| call(s, 5));
        lent(&mut stack, &mut shard, run_until_idle);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        let order: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        assert_eq!(stack.dispatch_capacity(), (0, 0));
        assert_eq!(shard.queue.capacity(), warm, "idle: the buffer went back");
    }

    #[test]
    fn the_shard_keeps_the_larger_buffer() {
        let mut shard = DispatchBuf::default();
        shard.queue.reserve(8);
        shard.actions.reserve(100);
        let (small, large) = (shard.queue.capacity(), shard.actions.capacity());
        let mut stack = new_stack();
        run_until_idle(&mut stack);
        stack.queue.reserve(100);
        stack.actions.reserve(8);
        let bigger = stack.queue.capacity();
        assert!(bigger > small && stack.actions.capacity() < large);
        stack.return_dispatch(&mut shard);
        assert_eq!(stack.dispatch_capacity(), (0, 0), "the smaller of each pair is freed");
        assert_eq!((shard.queue.capacity(), shard.actions.capacity()), (bigger, large));
    }

    #[test]
    fn a_stack_never_lent_to_keeps_its_buffers() {
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        for _ in 0..3 {
            net_send_from(&mut stack, client);
            run_until_idle(&mut stack);
            assert_eq!(stack.drain_actions().count(), 1);
            let (queue, actions) = stack.dispatch_capacity();
            assert!(queue > 0 && actions > 0, "its own buffers, drained in place");
        }
    }

    #[test]
    fn destroy_module_unbinds_and_removes() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let svc = ServiceId::new("echo");
        stack.bind(&svc, echo);
        stack.destroy_module(echo);
        run_until_idle(&mut stack);
        assert_eq!(stack.bound(&svc), None);
        assert!(stack.module_kind(echo).is_none());
        assert!(stack
            .trace()
            .events()
            .any(|(_, e)| matches!(e, TraceEvent::ModuleDestroyed { .. })));
    }

    #[test]
    fn responses_skip_the_responding_module() {
        // A module that both provides and requires the same service must
        // not receive its own responses (prevents trivial loops).
        struct Loopy {
            responses: usize,
        }
        impl Module for Loopy {
            fn kind(&self) -> &str {
                "loopy"
            }
            fn provides(&self) -> Vec<ServiceId> {
                vec![ServiceId::new("loop")]
            }
            fn requires(&self) -> Vec<ServiceId> {
                vec![ServiceId::new("loop")]
            }
            fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
                ctx.respond(&call.service, call.op, call.data);
            }
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {
                self.responses += 1;
            }
        }
        let mut stack = new_stack();
        let loopy = stack.add_module(Box::new(Loopy { responses: 0 }));
        stack.bind(&ServiceId::new("loop"), loopy);
        stack.call_as(loopy, &ServiceId::new("loop"), 1, Bytes::new());
        run_until_idle(&mut stack);
        let n = stack.with_module::<Loopy, _>(loopy, |l| l.responses).unwrap();
        assert_eq!(n, 0);
    }

    /// Provides `mux`, and requires it too (as `rp2p`-over-`rp2p` would):
    /// a call's op is the channel base to respond on (at incarnation 0),
    /// `0xffff` for no channel.
    struct Mux;

    const NO_CHANNEL: Op = 0xffff;

    impl Module for Mux {
        fn kind(&self) -> &str {
            "mux"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("mux")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("mux")]
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            match call.op {
                NO_CHANNEL => ctx.respond(&call.service, call.op, call.data),
                base => ctx.respond_on(&call.service, chan(base), call.op, call.data),
            }
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {
            panic!("the responder is never its own requirer");
        }
    }

    /// Requires `mux` and `echo`, listening on `channel` of `mux` only
    /// (`None`: on everything); records the op of every response.
    struct Listener {
        channel: Option<Channel>,
        got: Vec<Op>,
    }

    impl Module for Listener {
        fn kind(&self) -> &str {
            "listener"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("mux"), ServiceId::new("echo")]
        }
        fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
            self.channel.filter(|_| service.name() == "mux")
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            self.got.push(resp.op);
        }
    }

    #[test]
    fn a_response_on_a_channel_reaches_its_listeners_and_the_undeclared() {
        let mut stack = new_stack();
        let mux = stack.add_module(Box::new(Mux));
        let echo = stack.add_module(Box::new(Echo));
        stack.bind(&ServiceId::new("mux"), mux);
        stack.bind(&ServiceId::new("echo"), echo);
        let listener = |stack: &mut Stack, channel| {
            stack.add_module(Box::new(Listener { channel, got: vec![] }))
        };
        let on_3 = listener(&mut stack, Some(chan(3)));
        let on_4 = listener(&mut stack, Some(chan(4)));
        let also_on_4 = listener(&mut stack, Some(chan(4)));
        let on_all = listener(&mut stack, None);
        run_until_idle(&mut stack);
        stack.take_trace();
        // Channel 3, channel 4, a channel nobody declared, no channel —
        // and one response on the other service every listener requires,
        // where the `mux` channel must not narrow anything.
        for op in [3, 4, 9, NO_CHANNEL] {
            stack.call_as(on_all, &ServiceId::new("mux"), op, Bytes::new());
        }
        stack.call_as(on_all, &ServiceId::new("echo"), 4, Bytes::new());
        run_until_idle(&mut stack);
        let got = |stack: &mut Stack, id| stack.with_module::<Listener, _>(id, |l| l.got.clone());
        assert_eq!(got(&mut stack, on_3).unwrap(), [3, NO_CHANNEL, 4]);
        assert_eq!(got(&mut stack, on_4).unwrap(), [4, NO_CHANNEL, 4]);
        assert_eq!(got(&mut stack, also_on_4).unwrap(), [4, NO_CHANNEL, 4]);
        assert_eq!(got(&mut stack, on_all).unwrap(), [3, 4, 9, NO_CHANNEL, 4]);
        // The trace counts the modules reached, not the modules requiring.
        assert_eq!(stack.trace().dropped(), 0, "five responses fit the log's tail");
        let fanouts: Vec<(Op, usize)> = stack
            .trace()
            .events()
            .filter_map(|(_, e)| match e {
                TraceEvent::Response { op, fanout, .. } => Some((*op, *fanout)),
                _ => None,
            })
            .collect();
        assert_eq!(fanouts, [(3, 2), (4, 3), (9, 1), (NO_CHANNEL, 4), (4, 4)]);
    }

    /// Provides `udp` and answers the edge for `SEND` (op 1) calls whose
    /// payload is non-empty: one datagram to stack 2; with `edge` off it
    /// has no `on_send` and sends from `on_call` instead, as a module
    /// without the method does.
    struct Wire {
        edge: bool,
    }

    fn wire_frame(data: &Bytes) -> Option<(StackId, Bytes)> {
        (!data.is_empty()).then(|| (StackId(2), data.clone()))
    }

    impl Module for Wire {
        fn kind(&self) -> &str {
            "wire"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::svc::UDP)]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            if let Some((dst, payload)) = wire_frame(&call.data).filter(|_| call.op == 1) {
                ctx.net_send(dst, payload);
            }
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        fn on_send(&mut self, op: Op, data: &Bytes) -> Option<(StackId, Bytes)> {
            wire_frame(data).filter(|_| self.edge && op == 1)
        }
    }

    /// Calls `udp` SEND with its payload from its own `on_start`.
    struct Sender(&'static [u8]);

    impl Module for Sender {
        fn kind(&self) -> &str {
            "sender"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.call(&ServiceId::new(crate::svc::UDP), 1, Bytes::from_static(self.0));
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// Steps until idle: `(module, category, actions drained after it)`.
    fn steps_and_actions(stack: &mut Stack) -> Vec<(ModuleId, StepCategory, Vec<HostAction>)> {
        let mut out = Vec::new();
        while let Some(info) = stack.step(stack.now()) {
            out.push((info.module, info.category, stack.drain_actions().collect()));
        }
        out
    }

    fn sent(payload: &'static [u8]) -> Vec<HostAction> {
        vec![HostAction::NetSend { dst: StackId(2), payload: Bytes::from_static(payload) }]
    }

    #[test]
    fn a_call_to_udp_leaves_at_the_edge_inside_the_callers_step() {
        let mut stack = new_stack();
        let wire = stack.add_module(Box::new(Wire { edge: true }));
        stack.bind(&ServiceId::new(crate::svc::UDP), wire);
        run_until_idle(&mut stack);
        stack.take_trace();
        let sender = stack.add_module(Box::new(Sender(b"dgram")));
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(sender, StepCategory::Start, sent(b"dgram"))],
            "one step, the caller's, and the datagram with it"
        );
        let calls: Vec<_> = stack
            .trace()
            .events()
            .filter_map(|(_, e)| match e {
                TraceEvent::Call { service, from, to, .. } => Some((service.name(), *from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(calls, [(crate::svc::UDP, sender, wire)], "the send is still a traced call");

        // A call the module would not send (empty payload) is queued to it.
        stack.call_as(sender, &ServiceId::new(crate::svc::UDP), 1, Bytes::new());
        assert_eq!(steps_and_actions(&mut stack), vec![(wire, StepCategory::Call, vec![])]);
    }

    #[test]
    fn a_call_to_an_unbound_udp_blocks_and_is_released_to_a_step() {
        let mut stack = new_stack();
        let sender = stack.add_module(Box::new(Sender(b"early")));
        run_until_idle(&mut stack);
        assert!(stack.drain_actions().next().is_none(), "nothing bound to `udp`: the call waits");
        let wire = stack.add_module(Box::new(Wire { edge: true }));
        stack.bind(&ServiceId::new(crate::svc::UDP), wire);
        assert!(stack.drain_actions().next().is_none(), "a released call is queued, not sent");
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(wire, StepCategory::Start, vec![]), (wire, StepCategory::Call, sent(b"early"))]
        );
        let evs: Vec<_> = stack.trace().events().map(|(_, e)| e).collect();
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::BlockedCall { from, .. } if *from == sender)));
        assert!(evs
            .iter()
            .any(|e| matches!(e, TraceEvent::ReleasedCall { from, .. } if *from == sender)));
    }

    #[test]
    fn a_udp_module_without_on_send_is_stepped_as_before() {
        let mut stack = new_stack();
        let wire = stack.add_module(Box::new(Wire { edge: false }));
        stack.bind(&ServiceId::new(crate::svc::UDP), wire);
        run_until_idle(&mut stack);
        let sender = stack.add_module(Box::new(Sender(b"dgram")));
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(sender, StepCategory::Start, vec![]), (wire, StepCategory::Call, sent(b"dgram"))]
        );
    }

    /// Channel `op` (a base, at incarnation 0) or, from 16 up, incarnation
    /// `op / 16` of base `op % 16`: how the test modules read an op.
    fn chan(op: Op) -> Channel {
        Channel::new((op % 16) as u8, u64::from(op / 16))
    }

    /// Provides `chan`: a call's op is the channel to respond on
    /// ([`chan`]; `NO_CHANNEL`: none), its data what is responded.
    struct Chan;

    impl Module for Chan {
        fn kind(&self) -> &str {
            "chan"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("chan")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            match call.op {
                NO_CHANNEL => ctx.respond(&call.service, 0, call.data),
                op => ctx.respond_on(&call.service, chan(op), 0, call.data),
            }
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// Requires `chan`, listening on `channel`; records what it gets.
    struct Tuned {
        channel: Option<Channel>,
        got: Vec<Bytes>,
    }

    impl Module for Tuned {
        fn kind(&self) -> &str {
            "tuned"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("chan")]
        }
        fn listens_on(&self, _: &ServiceId) -> Option<Channel> {
            self.channel
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            self.got.push(resp.data);
        }
    }

    /// A stack with [`Chan`] bound and `(channel, data)` responded on it
    /// before anybody listens.
    fn chan_stack(responses: &[(Op, &'static [u8])]) -> (Stack, ModuleId) {
        let mut stack = new_stack();
        let chan = stack.add_module(Box::new(Chan));
        stack.bind(&ServiceId::new("chan"), chan);
        for &(channel, data) in responses {
            stack.call_as(chan, &ServiceId::new("chan"), channel, Bytes::from_static(data));
        }
        run_until_idle(&mut stack);
        (stack, chan)
    }

    fn tune_in(stack: &mut Stack, channel: Option<Op>) -> ModuleId {
        stack.add_module(Box::new(Tuned { channel: channel.map(chan), got: Vec::new() }))
    }

    fn tuned(stack: &mut Stack, id: ModuleId) -> Vec<Bytes> {
        stack.with_module::<Tuned, _>(id, |t| t.got.clone()).unwrap()
    }

    /// `(held, released, dropped)`, as this stack counted them.
    fn hold_back(stack: &Stack) -> (u64, u64, u64) {
        let counted = stack.telemetry().state().unwrap().hold_back.as_deref();
        counted.map_or((0, 0, 0), |c| (c.held, c.released, c.dropped))
    }

    #[test]
    fn a_response_nobody_listens_for_waits_for_its_module() {
        let (mut stack, _) = chan_stack(&[(3, b"a"), (4, b"x"), (3, b"b")]);
        let fanouts: Vec<usize> = stack
            .trace()
            .events()
            .filter_map(|(_, e)| match e {
                TraceEvent::Response { fanout, .. } => Some(*fanout),
                _ => None,
            })
            .collect();
        assert_eq!(fanouts, [0, 0, 0]);
        // Created later: one on another channel, then one on channel 3 —
        // which gets both of channel 3's, right after its `on_start`.
        let on_9 = tune_in(&mut stack, Some(9));
        let on_3 = tune_in(&mut stack, Some(3));
        let stepped: Vec<_> =
            steps_and_actions(&mut stack).into_iter().map(|(m, c, _)| (m, c)).collect();
        assert_eq!(
            stepped,
            [
                (on_9, StepCategory::Start),
                (on_3, StepCategory::Start),
                (on_3, StepCategory::Response),
                (on_3, StepCategory::Response),
            ]
        );
        assert_eq!(tuned(&mut stack, on_3), [&b"a"[..], b"b"]);
        assert!(tuned(&mut stack, on_9).is_empty());
        // Channel 4's waits on, for the first module listening there.
        let on_4 = tune_in(&mut stack, Some(4));
        run_until_idle(&mut stack);
        assert_eq!(tuned(&mut stack, on_4), [&b"x"[..]]);
        assert_eq!(hold_back(&stack), (3, 3, 0));
    }

    #[test]
    fn a_response_without_a_channel_is_never_held() {
        let (mut stack, _) = chan_stack(&[(NO_CHANNEL, b"a")]);
        let everything = tune_in(&mut stack, None);
        run_until_idle(&mut stack);
        assert!(tuned(&mut stack, everything).is_empty());
        assert_eq!(hold_back(&stack), (0, 0, 0));
    }

    #[test]
    fn the_hold_back_drops_its_oldest_past_the_bound() {
        let frames: Vec<Bytes> = (0..HOLD_BACK as u32 + 2).map(|i| i.to_bytes()).collect();
        let (mut stack, chan) = chan_stack(&[]);
        for f in &frames {
            stack.call_as(chan, &ServiceId::new("chan"), 5, f.clone());
        }
        run_until_idle(&mut stack);
        let on_5 = tune_in(&mut stack, Some(5));
        run_until_idle(&mut stack);
        assert_eq!(tuned(&mut stack, on_5), frames[2..]);
        let all = frames.len() as u64;
        assert_eq!(hold_back(&stack), (all, all - 2, 2));
    }

    #[test]
    fn a_crash_clears_the_hold_back() {
        let (mut stack, _) = chan_stack(&[(3, b"a")]);
        stack.crash(Time(9));
        tune_in(&mut stack, Some(3));
        assert_eq!(stack.pending(), 1, "the new module's `Start`, and nothing held for it");
    }

    /// The incarnation in the key: what a module that checked its
    /// namespace used to decide for itself, decided once by the stack.
    #[test]
    fn the_key_routes_one_incarnation_holds_a_later_and_drops_an_older() {
        let at = |incarnation: Op| incarnation * 16 + 5;
        let (mut stack, chan) = chan_stack(&[]);
        let on_1 = tune_in(&mut stack, Some(at(1)));
        let respond = |stack: &mut Stack, op: Op, data: &'static [u8]| {
            stack.call_as(chan, &ServiceId::new("chan"), op, Bytes::from_static(data));
            run_until_idle(stack);
        };
        respond(&mut stack, at(1), b"exact");
        assert_eq!(tuned(&mut stack, on_1), [&b"exact"[..]], "an exact match is routed");
        respond(&mut stack, at(2), b"later");
        respond(&mut stack, at(0), b"older");
        respond(&mut stack, 6, b"other base");
        assert_eq!(stack.held_back(), 2, "the later incarnation and the other base wait");
        assert_eq!(hold_back(&stack), (3, 0, 1), "the older one is dropped, and counted");
        let on_2 = tune_in(&mut stack, Some(at(2)));
        let on_6 = tune_in(&mut stack, Some(6));
        run_until_idle(&mut stack);
        assert_eq!(tuned(&mut stack, on_2), [&b"later"[..]]);
        assert_eq!(tuned(&mut stack, on_6), [&b"other base"[..]]);
        assert_eq!(tuned(&mut stack, on_1), [&b"exact"[..]]);
        assert_eq!((stack.held_back(), hold_back(&stack)), (0, (3, 2, 1)));
    }

    #[test]
    fn deterministic_rng_streams_differ_across_stacks() {
        let mut a = Stack::new(StackConfig::nth(0, 2, 42), FactoryRegistry::new());
        let mut b = Stack::new(StackConfig::nth(1, 2, 42), FactoryRegistry::new());
        let ra: Vec<u64> = (0..4).map(|_| a.next_rand()).collect();
        let rb: Vec<u64> = (0..4).map(|_| b.next_rand()).collect();
        assert_ne!(ra, rb);
        // Same config ⇒ same stream.
        let mut a2 = Stack::new(StackConfig::nth(0, 2, 42), FactoryRegistry::new());
        let ra2: Vec<u64> = (0..4).map(|_| a2.next_rand()).collect();
        assert_eq!(ra, ra2);
    }

    #[test]
    fn step_reports_categories() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        // Drain the Start deliveries first.
        let s1 = stack.step(Time(1)).unwrap();
        assert_eq!(s1.category, StepCategory::Start); // net bridge
        let s2 = stack.step(Time(2)).unwrap();
        assert_eq!(s2.category, StepCategory::Start);
        let s3 = stack.step(Time(3)).unwrap();
        assert_eq!(s3.category, StepCategory::Start);
        stack.call_as(client, &ServiceId::new("echo"), 9, Bytes::new());
        let s4 = stack.step(Time(4)).unwrap();
        assert_eq!(s4.category, StepCategory::Call);
        assert_eq!(s4.op, Some(9));
        let s5 = stack.step(Time(5)).unwrap();
        assert_eq!(s5.category, StepCategory::Response);
        assert!(stack.step(Time(6)).is_none());
    }
}
