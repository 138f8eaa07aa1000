//! [`ModuleCtx`]: everything a module handler may do to the world.

use super::{HostAction, Stack, StackError};
use crate::ids::{Channel, ModuleId, ServiceId, StackId, TimerId};
use crate::module::{Call, ModuleSpec, Op, Response};
use crate::time::{Dur, Time};
use crate::wire::Encode;
use bytes::Bytes;
use dpu_telemetry::StackTelemetry;
use std::sync::Arc;

/// The capability handle passed to module handlers: everything a module
/// may do to the world.
pub struct ModuleCtx<'a> {
    pub(super) stack: &'a mut Stack,
    pub(super) me: ModuleId,
    pub(super) destroyed_self: bool,
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
    ///
    /// [`WireScratch`]: crate::wire::WireScratch
    pub fn encode<T: Encode + ?Sized>(&mut self, value: &T) -> Bytes {
        self.stack.encode(value)
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
    ///
    /// [`Module::listens_on`]: crate::module::Module::listens_on
    pub fn respond_on(&mut self, service: &ServiceId, channel: Channel, op: Op, data: Bytes) {
        let resp = Response { service: *service, op, data, from: self.me };
        self.stack.enqueue_response(resp, Some(channel));
    }

    /// Arm a one-shot timer; `tag` is returned to
    /// [`Module::on_timer`](crate::module::Module::on_timer) for
    /// multiplexing. A timer cannot be cancelled: a module that no
    /// longer wants one ignores the fire by its tag.
    pub fn set_timer(&mut self, delay: Dur, tag: u64) {
        let id = TimerId(self.stack.next_timer);
        self.stack.next_timer += 1;
        self.stack.timers.arm(id, self.me, tag);
        self.stack.act(HostAction::SetTimer { id, delay });
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
            self.stack.unbind_all(id);
        } else {
            self.stack.destroy_module(id);
        }
    }

    /// The kind of a live module.
    pub fn module_kind(&self, id: ModuleId) -> Option<&str> {
        self.stack.module_kind(id)
    }

    /// Put a datagram on the wire: the next settle hands `payload` to the
    /// host's [`ActionSink`](crate::ActionSink), which transmits it to
    /// stack `dst` as it is. Only the bottom of a stack sends this way —
    /// `udp`, or the built-in `net` bridge on stacks without `udp` — and,
    /// being at the edge ([`Module::at_edge`](crate::module::Module::at_edge)),
    /// inside whichever step called it. A protocol module above the bottom
    /// calls `udp` (or `rp2p`) instead, so that its send is a service
    /// interaction the trace sees and a rebinding can redirect; that costs
    /// it no step either.
    pub fn net_send(&mut self, dst: StackId, payload: Bytes) {
        self.stack.act(HostAction::NetSend { dst, payload });
    }
}
