//! The [`Module`] trait and the two kinds of inter-module interaction:
//! service [`Call`]s and [`Response`]s (paper §2, Figure 2).

use crate::ids::{Channel, ModuleId, ServiceId, StackId};
use crate::stack::ModuleCtx;
use crate::wire::{Decode, Encode, WireResult, WireScratch};
use bytes::Bytes;
use std::any::Any;

/// An operation code within a service interface.
///
/// Each service defines a small set of operations, e.g. the `abcast`
/// service defines the downward call `ABCAST` and the upward response
/// `ADELIVER`. Operation constants live next to the service definition in
/// the crate that owns the protocol.
pub type Op = u16;

/// A service call: the *local* interaction from a caller module to the
/// module currently bound to `service` in the same stack.
#[derive(Clone, Debug)]
pub struct Call {
    /// The service being called.
    pub service: ServiceId,
    /// Which operation of the service interface is invoked.
    pub op: Op,
    /// Operation payload, encoded with [`crate::wire`].
    pub data: Bytes,
    /// The module that made the call.
    pub from: ModuleId,
}

impl Call {
    /// Decode the payload as `T`.
    pub fn decode<T: Decode>(&self) -> WireResult<T> {
        T::from_bytes(&self.data)
    }
}

/// A response to a service call: an invocation flowing from the provider
/// of `service` back to the modules that require it, on the local stack.
///
/// Routing: the stack hands a copy to every live module that lists
/// `service` in [`Module::requires`], except the responder itself. A
/// response issued *on a channel* ([`ModuleCtx::respond_on`]) also skips
/// every requirer whose [`Module::listens_on`] names another channel; the
/// channel is a routing key only and is not part of what is delivered.
///
/// Remote interaction (a response occurring on stack `j ≠ i`) arises when a
/// provider module on stack `j` responds there as a consequence of a call
/// made on stack `i` — e.g. `Adeliver` on every stack after one `ABcast`.
#[derive(Clone, Debug)]
pub struct Response {
    /// The service responding.
    pub service: ServiceId,
    /// Which operation of the service interface this response carries.
    pub op: Op,
    /// Response payload, encoded with [`crate::wire`].
    pub data: Bytes,
    /// The provider module that issued the response. Note that per the
    /// paper a module may respond even after it has been unbound.
    pub from: ModuleId,
}

impl Response {
    /// Decode the payload as `T`.
    pub fn decode<T: Decode>(&self) -> WireResult<T> {
        T::from_bytes(&self.data)
    }
}

/// A protocol module: one local member of a distributed protocol
/// (the paper's `P_i`).
///
/// Modules are event-driven state machines. They never block; every
/// external effect (calling another service, responding to callers,
/// setting timers, rebinding services, creating modules) goes through the
/// [`ModuleCtx`] passed to each handler. The stack dispatches exactly one
/// handler at a time (run-to-completion), so handlers may freely mutate
/// `self` without further synchronisation.
///
/// The trait requires `Any` so hosts and tests can downcast concrete
/// modules via [`crate::stack::Stack::with_module`].
pub trait Module: Any + Send {
    /// Short kind name, e.g. `"abcast.ct"`. Two modules of the same
    /// protocol (on different stacks) share a kind; the
    /// protocol-operationability checker matches modules across stacks by
    /// kind.
    fn kind(&self) -> &str;

    /// Services this module can provide (it still must be *bound* to
    /// actually receive calls).
    fn provides(&self) -> Vec<ServiceId>;

    /// Services this module requires. The stack uses this to route
    /// responses: a response on service `s` is delivered to every module
    /// requiring `s` — narrowed, for responses issued on a channel, by
    /// [`Module::listens_on`].
    fn requires(&self) -> Vec<ServiceId>;

    /// The one channel of required service `service` this module listens
    /// on, if it wants no other: a response the provider issues on a
    /// different channel ([`ModuleCtx::respond_on`]) is then not
    /// dispatched to this module at all, instead of being dispatched and
    /// dropped on its first comparison. `None` — the default — means
    /// everything on the service, which is also what a response issued
    /// without a channel ([`ModuleCtx::respond`]) reaches whatever is
    /// returned here. Asked when a response is routed, so it must be a
    /// pure function of the module's configuration; the module keeps its
    /// own check (a provider that does not key its responses still
    /// reaches it with every channel). A module that a replacement may run
    /// beside another of its kind listens on its own incarnation of its
    /// base ([`Channel::at`]): a response for a later incarnation waits in
    /// the stack for that module, and one for an incarnation older than a
    /// live listener's is dropped there.
    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        let _ = service;
        None
    }

    /// The edge's question to the module bound to [`crate::svc::UDP`],
    /// asked by [`crate::Stack::packet_in`] of every arriving datagram
    /// before anything is queued: parse the header `frame` carries and
    /// return `(channel, op, data)`, which the stack issues as this
    /// module's response on that service and channel — so the first
    /// module *stepped* for a packet is the one listening on its channel.
    /// The frame's layout stays with the module that owns it; the stack
    /// reads none of it. `None` — the default, and what a module answers
    /// for a frame it refuses (and counts) — leaves the datagram to the
    /// `net` service, where on a stack built over `udp` nobody listens.
    /// `frame` is untrusted wire input. The way out is
    /// [`Module::on_send`].
    fn on_packet(
        &mut self,
        src: StackId,
        frame: &Bytes,
        scratch: &mut WireScratch,
    ) -> Option<(Channel, Op, Bytes)> {
        let _ = (src, frame, scratch);
        None
    }

    /// The mirror of [`Module::on_packet`], on the way out: what this
    /// module, bound to [`crate::svc::UDP`] or [`crate::svc::NET`], would
    /// put on the wire for a call `op` with payload `data` —
    /// `(destination, datagram)`. The stack asks it when the call is made
    /// (the call is traced as any other) and hands the datagram to the
    /// host inside the caller's step, so no step of this module sends.
    /// `None` — the default, and the answer for a call it would not send
    /// — queues the call to [`Module::on_call`] as for any other service.
    fn on_send(&mut self, op: Op, data: &Bytes) -> Option<(StackId, Bytes)> {
        let _ = (op, data);
        None
    }

    /// Invoked once when the module is created and inserted in the stack.
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let _ = ctx;
    }

    /// A call arrived on a service this module is bound to.
    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call);

    /// A response arrived on a service this module requires.
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response);

    /// A timer set by this module fired. `tag` is the value passed to
    /// [`ModuleCtx::set_timer`].
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, timer: crate::ids::TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Health counters, if this module implements a reliable transport
    /// (retransmission + acknowledgements). The default is `None`;
    /// `rp2p`-style modules override it so hosts can aggregate transport
    /// health per stack ([`crate::stack::Stack::transport_stats`]) and
    /// per run without downcasting to concrete module types. A protocol
    /// that holds per-message state until the group is done with it
    /// (consensus, consensus-based atomic broadcast) reports how much
    /// through the same hook, in the `held` gauge.
    fn transport_stats(&self) -> Option<TransportStats> {
        None
    }
}

/// Counters reported by reliable-transport modules (see
/// [`Module::transport_stats`]). Defined once, in `dpu-telemetry` (as
/// `TransportCounters`, the type
/// [`crate::telemetry::TelemetryReport::transport`] carries).
pub use dpu_telemetry::TransportCounters as TransportStats;

/// A serialisable description of a module to create: the paper's `prot`
/// argument of `changeABcast(prot)` and the unit of
/// [`crate::stack::FactoryRegistry`] construction.
///
/// `kind` selects a registered factory; `params` is an opaque,
/// factory-specific configuration blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleSpec {
    /// Factory/kind name, e.g. `"abcast.seq"`.
    pub kind: String,
    /// Factory-specific parameters (wire-encoded).
    pub params: Bytes,
}

impl ModuleSpec {
    /// Spec with no parameters.
    pub fn new(kind: impl Into<String>) -> ModuleSpec {
        ModuleSpec { kind: kind.into(), params: Bytes::new() }
    }

    /// Spec with wire-encoded parameters.
    pub fn with_params<T: Encode>(kind: impl Into<String>, params: &T) -> ModuleSpec {
        ModuleSpec { kind: kind.into(), params: params.to_bytes() }
    }

    /// Decode the parameter blob as `T`.
    pub fn params<T: Decode>(&self) -> WireResult<T> {
        T::from_bytes(&self.params)
    }
}

crate::wire_codec!(ModuleSpec { kind, params });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn module_spec_roundtrip() {
        let spec = ModuleSpec::with_params("abcast.ct", &(3u32, String::from("cfg")));
        let b = wire::to_bytes(&spec);
        let back: ModuleSpec = wire::from_bytes(&b).unwrap();
        assert_eq!(back, spec);
        let (n, s): (u32, String) = back.params().unwrap();
        assert_eq!(n, 3);
        assert_eq!(s, "cfg");
    }

    #[test]
    fn module_spec_new_has_empty_params() {
        let spec = ModuleSpec::new("fd");
        assert_eq!(spec.kind, "fd");
        assert!(spec.params.is_empty());
    }

    #[test]
    fn module_spec_bytes() {
        let spec = ModuleSpec::with_params("fd", &7u64);
        wire::testing::assert_wire_bytes(&spec, &[2, b'f', b'd', 1, 7]);
    }

    #[test]
    fn call_and_response_decode() {
        let call = Call {
            service: ServiceId::new("q"),
            op: 1,
            data: wire::to_bytes(&42u64),
            from: ModuleId(1),
        };
        assert_eq!(call.decode::<u64>().unwrap(), 42);
        let resp = Response {
            service: ServiceId::new("q"),
            op: 2,
            data: wire::to_bytes(&(7u32, true)),
            from: ModuleId(2),
        };
        assert_eq!(resp.decode::<(u32, bool)>().unwrap(), (7, true));
    }
}
