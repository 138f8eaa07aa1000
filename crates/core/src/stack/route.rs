//! Where work goes: the one call path, the one response path, the
//! hold-back for a listener not created yet, and the stack's edge — a
//! call to `udp` or `net` sent inside the caller's step on the way out,
//! [`Stack::packet_in`] on the way in, and, for stacks without `udp`, the
//! built-in [`NetBridge`] that answers for `net`.

use super::dispatch::Work;
use super::{HostAction, ModuleCtx, Stack};
use crate::ids::{Channel, ModuleId, ServiceId, StackId};
use crate::module::{Call, Module, Op, Response};
use crate::time::Time;
use crate::trace::TraceEvent;
use crate::wire;
use bytes::Bytes;
use std::sync::OnceLock;

/// Operation codes of the built-in `net` service (the host boundary).
pub mod net_ops {
    use crate::module::Op;
    /// Downward call: send a datagram. Payload: `(StackId dst, Bytes data)`.
    pub const SEND: Op = 1;
    /// Upward response: a datagram arrived. Payload: `(StackId src, Bytes data)`.
    pub const RECV: Op = 2;
}

/// Responses a stack holds back per service for a module not created
/// yet; past this the oldest is dropped (and counted).
pub(crate) const HOLD_BACK: usize = 64;

/// What waits on a service: a call for a provider to be bound, or a
/// response issued on a channel for a module listening there to be
/// created.
pub(super) enum Waiting {
    Call(Call),
    Response(Response, Channel),
}

/// The `net` service id, interned once. [`Stack::packet_in`] needs it for
/// every datagram on every host thread, and [`ServiceId::new`] takes the
/// process-wide intern pool's lock.
pub(super) fn net_service() -> &'static ServiceId {
    static NET: OnceLock<ServiceId> = OnceLock::new();
    NET.get_or_init(|| ServiceId::new(crate::svc::NET))
}

/// The `udp` service id, interned once for the same reason.
fn udp_service() -> &'static ServiceId {
    static UDP: OnceLock<ServiceId> = OnceLock::new();
    UDP.get_or_init(|| ServiceId::new(crate::svc::UDP))
}

/// The built-in module bound to the `net` service, for stacks with no
/// `udp` module (test sinks, load generators, ping-pong probes). It is
/// never stepped for a datagram either way: a `net.SEND` call leaves at
/// the edge inside the caller's step ([`Module::on_send`], the decoded
/// destination and a window on the caller's payload), and
/// [`Stack::packet_in`] fans arrivals out as `net.RECV` responses in its
/// name. A call the edge does not send — one released after blocking, or
/// one `on_send` refuses — is queued to [`Module::on_call`], which sends
/// what `on_send` would have.
pub(super) struct NetBridge;

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
        if let Some((dst, payload)) = self.on_send(call.op, &call.data) {
            ctx.net_send(dst, payload);
        }
    }

    fn on_send(&mut self, op: Op, data: &Bytes) -> Option<(StackId, Bytes)> {
        if op != net_ops::SEND {
            return None;
        }
        // Decoding `Bytes` is zero-copy: the datagram is a window on the
        // caller's payload, not a re-encoding of it.
        wire::from_bytes(data).ok()
    }

    fn on_response(&mut self, _ctx: &mut ModuleCtx<'_>, _resp: Response) {}
}

impl Stack {
    /// Make a service call on behalf of module `from` (used by hosts and
    /// probes to inject work; modules use [`ModuleCtx::call`]).
    pub fn call_as(&mut self, from: ModuleId, service: &ServiceId, op: Op, data: Bytes) {
        self.enqueue_call(Call { service: *service, op, data, from });
    }

    /// The one call path. A call to `udp` or `net` is also the edge on
    /// the way out: the module bound there is asked what it would put on
    /// the wire ([`Module::on_send`]) and the datagram leaves inside the
    /// caller's step, with the call traced as any other — so a rebinding
    /// still redirects it — and that module never stepped. Its slot holds
    /// it (only the caller is out), unless it is the caller itself; an
    /// answer of `None` takes the queued path.
    pub(super) fn enqueue_call(&mut self, call: Call) {
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
        if call.service == *udp_service() || call.service == *net_service() {
            let module = self.modules.get_mut(&to).and_then(|slot| slot.module.as_mut());
            if let Some((dst, payload)) = module.and_then(|m| m.on_send(call.op, &call.data)) {
                return self.act(HostAction::NetSend { dst, payload });
            }
        }
        self.enqueue(to, Work::Call(call));
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
    /// gets it after its `on_start` ([`Stack::add_module`]). Past
    /// [`HOLD_BACK`] held on the service the oldest goes. A response
    /// without a channel is never held. Nor is a stale one, for an
    /// incarnation older than a live listener's on the same base
    /// ([`Channel::supersedes`]): incarnations only rise, so its module
    /// was here and has been retired. It is dropped and counted.
    pub(super) fn enqueue_response(&mut self, resp: Response, channel: Option<Channel>) {
        let (mut fanout, mut stale) = (0, false);
        let first = self.requirers.partition_point(|&(s, _)| s < resp.service);
        let count = self.requirers[first..].partition_point(|&(s, _)| s == resp.service);
        for i in first..first + count {
            let to = self.requirers[i].1;
            if to == resp.from {
                continue;
            }
            let Some(slot) = self.modules.get(&to) else { continue };
            let wanted =
                channel.and(slot.module.as_deref()).and_then(|m| m.listens_on(&resp.service));
            if wanted.is_none() || wanted == channel {
                self.enqueue(to, Work::Response(resp.clone()));
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

    /// Responses held back right now for a listener not created yet.
    pub fn held_back(&self) -> usize {
        let held = |w: &&Waiting| matches!(w, Waiting::Response(..));
        self.waiting.values().map(|w| w.iter().filter(held).count()).sum()
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
        let occupancy = self.scratch.as_ref().map_or(0, |s| s.mem_bytes());
        self.telemetry.record_scratch_occupancy(occupancy as u64);
        let udp = *udp_service();
        let taken = self.bindings.get(&udp).and_then(|&from| {
            let module = self.modules.get_mut(&from)?.module.as_mut()?;
            let scratch = super::scratch(&mut self.scratch);
            let (channel, op, data) = module.on_packet(src, &payload, scratch)?;
            Some((Response { service: udp, op, data, from }, channel))
        });
        if let Some((resp, channel)) = taken {
            return self.enqueue_response(resp, Some(channel));
        }
        let data = self.encode(&(src, payload));
        self.enqueue_response(
            Response { service: *net_service(), op: net_ops::RECV, data, from: self.net_bridge },
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::tests::{new_stack, run_until_idle, Client, Echo};
    use crate::stack::StepCategory;
    use crate::wire::{Encode, WireScratch};
    use crate::TraceLog;

    /// The digest of `entries` pushed into a fresh log at their times:
    /// what a log that pushed exactly these reads.
    fn digest(entries: impl IntoIterator<Item = (Time, TraceEvent)>) -> u64 {
        let mut log = TraceLog::new();
        entries.into_iter().for_each(|(t, e)| log.push(t, e));
        log.fingerprint()
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
    fn net_bridge_turns_send_calls_into_host_actions() {
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        run_until_idle(&mut stack); // the `on_start`s
        let payload = Bytes::from_static(b"datagram");
        let data = (StackId(2), payload.clone()).to_bytes();
        stack.call_as(client, &ServiceId::new(crate::svc::NET), net_ops::SEND, data);
        assert_eq!(steps_and_actions(&mut stack), vec![], "no step sends the datagram");
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
        let t = stack.now();
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
        // The trace counts the modules reached, not the modules requiring:
        // the five calls at once, then each call's response and the steps
        // it fans out to, one ns apart, before the next call is taken.
        let id = stack.id();
        let (mux_svc, echo_svc) = (ServiceId::new("mux"), ServiceId::new("echo"));
        let call =
            |service, op, to| (t, TraceEvent::Call { stack: id, service, op, from: on_all, to });
        let response = |step: u64, service, op, from, fanout| {
            (Time(t.0 + step), TraceEvent::Response { stack: id, service, op, from, fanout })
        };
        let expected = [
            call(mux_svc, 3, mux),
            call(mux_svc, 4, mux),
            call(mux_svc, 9, mux),
            call(mux_svc, NO_CHANNEL, mux),
            call(echo_svc, 4, echo),
            response(0, mux_svc, 3, mux, 2),
            response(3, mux_svc, 4, mux, 3),
            response(7, mux_svc, 9, mux, 1),
            response(9, mux_svc, NO_CHANNEL, mux, 4),
            response(14, echo_svc, 4, echo, 4),
        ];
        assert_eq!(stack.trace().fingerprint(), digest(expected));
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

    /// Calls service `.0` with op `.1` and payload `.2` from its own
    /// `on_start`.
    struct Sender(&'static str, Op, Bytes);

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
            ctx.call(&ServiceId::new(self.0), self.1, self.2.clone());
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// A [`Sender`] of `udp` SEND (op 1) with `payload`.
    fn udp_sender(payload: &'static [u8]) -> Sender {
        Sender(crate::svc::UDP, 1, Bytes::from_static(payload))
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
        let (t, id) = (stack.now(), stack.id());
        let sender = stack.add_module(Box::new(udp_sender(b"dgram")));
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(sender, StepCategory::Start, sent(b"dgram"))],
            "one step, the caller's, and the datagram with it"
        );
        let udp = ServiceId::new(crate::svc::UDP);
        let expected = [
            (t, TraceEvent::ModuleCreated { stack: id, module: sender, kind: "sender".into() }),
            (t, TraceEvent::Call { stack: id, service: udp, op: 1, from: sender, to: wire }),
        ];
        assert_eq!(stack.trace().fingerprint(), digest(expected), "the send is a traced call");

        // A call the module would not send (empty payload) is queued to it.
        stack.call_as(sender, &ServiceId::new(crate::svc::UDP), 1, Bytes::new());
        assert_eq!(steps_and_actions(&mut stack), vec![(wire, StepCategory::Call, vec![])]);
    }

    #[test]
    fn a_call_to_an_unbound_udp_blocks_and_is_released_to_a_step() {
        let mut stack = new_stack();
        let sender = stack.add_module(Box::new(udp_sender(b"early")));
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
        let sender = stack.add_module(Box::new(udp_sender(b"dgram")));
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(sender, StepCategory::Start, vec![]), (wire, StepCategory::Call, sent(b"dgram"))]
        );
    }

    #[test]
    fn a_call_to_net_leaves_at_the_edge_inside_the_callers_step() {
        let net = ServiceId::new(crate::svc::NET);
        let mut stack = new_stack();
        run_until_idle(&mut stack); // the bridge's `on_start`
        stack.take_trace();
        let (t, id) = (stack.now(), stack.id());
        let bridge = stack.bound(&net).unwrap();
        let data = (StackId(2), Bytes::from_static(b"dgram")).to_bytes();
        let sender = Sender(crate::svc::NET, net_ops::SEND, data.clone());
        let caller = stack.add_module(Box::new(sender));
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(caller, StepCategory::Start, sent(b"dgram"))],
            "one step, the caller's, and the datagram with it"
        );
        assert!(!stack.has_work());
        let expected = [
            (t, TraceEvent::ModuleCreated { stack: id, module: caller, kind: "sender".into() }),
            (
                t,
                TraceEvent::Call {
                    stack: id,
                    service: net,
                    op: net_ops::SEND,
                    from: caller,
                    to: bridge,
                },
            ),
        ];
        assert_eq!(stack.trace().fingerprint(), digest(expected), "traced to the bridge");

        // A wrong op, a payload that does not decode, one with bytes left
        // over: queued to the bridge, which sends none of them.
        let mut trailing = data.to_vec();
        trailing.push(0);
        for (op, data) in [
            (net_ops::RECV, data.clone()),
            (net_ops::SEND, Bytes::from_static(b"\xff")),
            (net_ops::SEND, Bytes::from(trailing)),
        ] {
            stack.call_as(caller, &net, op, data);
            assert_eq!(steps_and_actions(&mut stack), vec![(bridge, StepCategory::Call, vec![])]);
        }

        // A call the edge cannot take — released by a bind after blocking
        // — is a step of the bridge, and sends the same datagram.
        stack.unbind(&net);
        stack.call_as(caller, &net, net_ops::SEND, data);
        stack.bind(&net, bridge);
        assert_eq!(
            steps_and_actions(&mut stack),
            vec![(bridge, StepCategory::Call, sent(b"dgram"))]
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
        let set = stack.telemetry().state().unwrap().set.as_deref();
        set.map_or((0, 0, 0), |s| (s.hold_back.held, s.hold_back.released, s.hold_back.dropped))
    }

    #[test]
    fn a_response_nobody_listens_for_waits_for_its_module() {
        let (mut stack, chan) = chan_stack(&[]);
        stack.take_trace();
        let (t, id, service) = (stack.now(), stack.id(), ServiceId::new("chan"));
        for (op, data) in [(3, b"a"), (4, b"x"), (3, b"b")] {
            stack.call_as(chan, &service, op, Bytes::from_static(data));
        }
        run_until_idle(&mut stack);
        // Three calls at once, then three responses that reach nobody.
        let call = |op| (t, TraceEvent::Call { stack: id, service, op, from: chan, to: chan });
        let response = |step: u64| {
            let fanout = 0;
            (
                Time(t.0 + step),
                TraceEvent::Response { stack: id, service, op: 0, from: chan, fanout },
            )
        };
        let expected = [call(3), call(4), call(3), response(0), response(1), response(2)];
        assert_eq!(stack.trace().fingerprint(), digest(expected));
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
}
