//! The UDP module (paper Figure 4, bottom of the stack): an interface to
//! the unreliable network with channel multiplexing.
//!
//! Provides service [`crate::UDP_SVC`] and requires nothing: it *is* the
//! bottom, and the stack's edge does its work in both directions without
//! stepping it. A `SEND` call is checked at the edge ([`Module::on_send`])
//! and leaves for the host inside the caller's step; an arriving datagram
//! is classified there ([`Module::on_packet`]) and surfaces as a `RECV` on
//! its channel. One validator serves both (`channel_of`). A call that
//! waited for `udp` to be bound is released to a step of this module and
//! goes out through [`ModuleCtx::net_send`] the same way. Send semantics match the
//! underlying network: datagrams may be lost, duplicated or reordered;
//! whatever arrives is handed up unchanged.

use crate::dgram;
use bytes::{BufMut, Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::wire::{self, Decode, Encode, WireScratch};
use dpu_core::{Call, Channel, Module, Op, Response, ServiceId, StackId};

/// Module kind name, for factory registration.
pub const KIND: &str = "udp";

/// The UDP module: translates between the `udp` service interface
/// ([`dgram::Dgram`] payloads) and the `(channel, data)` frames that cross
/// the wire, counting malformed inbound frames it drops. A `Dgram` encodes
/// as `peer ++ frame`, so neither direction re-encodes the frame.
pub struct UdpModule {
    udp_svc: ServiceId,
    malformed_dropped: u64,
}

impl UdpModule {
    /// A UDP module providing the default [`crate::UDP_SVC`] service.
    pub fn new() -> UdpModule {
        UdpModule { udp_svc: ServiceId::new(crate::UDP_SVC), malformed_dropped: 0 }
    }

    /// Register this module's factory under [`KIND`]. The kind takes no
    /// parameters.
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, |()| UdpModule::new());
    }

    /// Inbound datagrams dropped because their `(channel, data)` frame —
    /// the part that actually crossed the wire — failed to decode. A
    /// non-zero count points at a peer speaking a different wire format;
    /// the drop is counted here rather than panicking the stack.
    pub fn malformed_dropped(&self) -> u64 {
        self.malformed_dropped
    }
}

impl Default for UdpModule {
    fn default() -> Self {
        Self::new()
    }
}

/// The channel of a `(channel, data)` frame — the part of a
/// [`dgram::Dgram`] that crosses the wire — if the frame decodes whole.
fn channel_of(frame: &Bytes) -> Option<Channel> {
    wire::from_bytes::<(Channel, Bytes)>(frame).ok().map(|(channel, _data)| channel)
}

/// A received [`dgram::Dgram`], written in one pass: the source followed
/// by the frame's bytes exactly as they arrived. A borrowed view that
/// writes a window forward, so its `Encode` is written by hand.
struct Arrived<'a> {
    src: StackId,
    frame: &'a [u8],
}

impl Encode for Arrived<'_> {
    fn encode(&self, buf: &mut BytesMut) {
        self.src.encode(buf);
        buf.put_slice(self.frame);
    }
    fn encoded_len(&self) -> usize {
        self.src.encoded_len() + self.frame.len()
    }
}

impl Module for UdpModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.udp_svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if let Some((dst, frame)) = self.on_send(call.op, &call.data) {
            ctx.net_send(dst, frame);
        }
    }

    fn on_send(&mut self, op: Op, data: &Bytes) -> Option<(StackId, Bytes)> {
        if op != dgram::SEND {
            return None;
        }
        // The frame is what follows the destination in the caller's own
        // bytes: checked, then forwarded as it is, not rebuilt.
        let mut frame = data.clone();
        let dst = StackId::decode(&mut frame).ok()?;
        channel_of(&frame)?;
        Some((dst, frame))
    }

    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}

    fn on_packet(
        &mut self,
        src: StackId,
        frame: &Bytes,
        scratch: &mut WireScratch,
    ) -> Option<(Channel, Op, Bytes)> {
        // Untrusted wire input: a frame that does not decode whole is
        // dropped and counted, never unwrapped.
        let Some(channel) = channel_of(frame) else {
            self.malformed_dropped += 1;
            return None;
        };
        Some((channel, dgram::RECV, scratch.encode(&Arrived { src, frame })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgram::Dgram;
    use dpu_core::stack::{FactoryRegistry, HostAction, Stack, StackConfig};
    use dpu_core::time::Time;
    use dpu_core::ModuleId;

    /// Records `udp` RECV responses.
    struct UdpSink {
        got: Vec<Dgram>,
    }

    impl Module for UdpSink {
        fn kind(&self) -> &str {
            "udpsink"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::UDP_SVC)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == dgram::RECV {
                self.got.push(resp.decode().unwrap());
            }
        }
    }

    /// A stack of a bound [`UdpModule`] and a [`UdpSink`], with their ids.
    fn udp_stack() -> (Stack, ModuleId, ModuleId) {
        let mut stack = Stack::new(StackConfig::nth(0, 2, 1), FactoryRegistry::new());
        let udp = stack.add_module(Box::new(UdpModule::new()));
        stack.bind(&ServiceId::new(crate::UDP_SVC), udp);
        let user = stack.add_module(Box::new(UdpSink { got: vec![] }));
        (stack, udp, user)
    }

    fn run_until_idle(stack: &mut Stack) {
        let mut t = stack.now();
        while stack.step(t).is_some() {
            t = Time(t.0 + 1);
        }
    }

    #[test]
    fn send_produces_net_host_action_with_frame() {
        let (mut stack, _, user) = udp_stack();
        let d = Dgram { peer: StackId(1), channel: ch(7), data: Bytes::from_static(b"hello") };
        stack.call_as(user, &ServiceId::new(crate::UDP_SVC), dgram::SEND, wire::to_bytes(&d));
        run_until_idle(&mut stack);
        let actions: Vec<_> = stack.drain_actions().collect();
        assert_eq!(actions.len(), 1);
        let HostAction::NetSend { dst, payload } = &actions[0] else {
            panic!("expected NetSend");
        };
        assert_eq!(*dst, StackId(1));
        let (channel, data): (Channel, Bytes) = wire::from_bytes(payload).unwrap();
        assert_eq!(channel, ch(7));
        assert_eq!(data, Bytes::from_static(b"hello"));
    }

    #[test]
    fn packet_in_surfaces_as_udp_recv() {
        let (mut stack, _, user) = udp_stack();
        let frame = wire::to_bytes(&(ch(9), Bytes::from_static(b"payload")));
        stack.packet_in(Time(5), StackId(1), frame);
        run_until_idle(&mut stack);
        let got = stack.with_module::<UdpSink, _>(user, |u| u.got.clone()).unwrap();
        assert_eq!(
            got,
            vec![Dgram { peer: StackId(1), channel: ch(9), data: Bytes::from_static(b"payload") }]
        );
    }

    #[test]
    fn malformed_frames_are_dropped() {
        let (mut stack, udp, user) = udp_stack();
        stack.packet_in(Time(5), StackId(1), Bytes::from_static(&[0xff, 0xff, 0xff]));
        run_until_idle(&mut stack);
        let got = stack.with_module::<UdpSink, _>(user, |u| u.got.clone()).unwrap();
        assert!(got.is_empty());
        let dropped = stack.with_module::<UdpModule, _>(udp, |m| m.malformed_dropped()).unwrap();
        assert_eq!(dropped, 1, "the malformed frame must be counted, not unwrapped");
    }

    /// Base `base` at incarnation 0: the one-byte channels.
    fn ch(base: u8) -> Channel {
        Channel::new(base, 0)
    }

    /// The `dgram_wire_contract` corpus, across one- and multi-byte peers
    /// and channels.
    fn corpus() -> Vec<Dgram> {
        let mut out = Vec::new();
        for data in [Bytes::new(), Bytes::from_static(b"abc"), Bytes::from(vec![0u8; 300])] {
            for (peer, channel) in
                [(4, ch(9)), (0, ch(0)), (200, ch(4).at(300)), (u32::MAX, ch(15).at(u64::MAX))]
            {
                out.push(Dgram { peer: StackId(peer), channel, data: data.clone() });
            }
        }
        out
    }

    #[test]
    fn send_forwards_the_callers_bytes_as_the_old_re_encode_built_them() {
        let (mut stack, _, user) = udp_stack();
        for d in corpus() {
            let data = wire::to_bytes(&d);
            stack.call_as(user, &ServiceId::new(crate::UDP_SVC), dgram::SEND, data);
            run_until_idle(&mut stack);
            let old = stack.encode(&(d.channel, d.data.clone()));
            assert_eq!(
                stack.drain_actions().collect::<Vec<_>>(),
                vec![HostAction::NetSend { dst: d.peer, payload: old }],
                "{d:?}"
            );
        }
    }

    #[test]
    fn receive_hands_up_the_dgram_the_old_two_passes_built() {
        let (mut stack, udp, _) = udp_stack();
        let mut scratch = WireScratch::new();
        for d in corpus() {
            let frame = wire::to_bytes(&(d.channel, d.data.clone()));
            let up = stack
                .with_module::<UdpModule, _>(udp, |m| m.on_packet(d.peer, &frame, &mut scratch))
                .unwrap();
            assert_eq!(up, Some((d.channel, dgram::RECV, wire::to_bytes(&d))), "{d:?}");
        }
    }

    /// `udp` is the bottom: it requires nothing, and neither direction
    /// touches the `net` service, or steps `udp` itself — the edge sends
    /// for it and responds in its name.
    #[test]
    fn neither_direction_goes_through_net() {
        use dpu_core::{TraceEvent, TraceLog};
        assert!(UdpModule::new().requires().is_empty());
        let (mut stack, udp, user) = udp_stack();
        run_until_idle(&mut stack); // the three `on_start`s
        stack.take_trace();
        let (t0, id) = (stack.now(), stack.id());
        let d = Dgram { peer: StackId(1), channel: ch(7), data: Bytes::from_static(b"hello") };
        stack.call_as(user, &ServiceId::new(crate::UDP_SVC), dgram::SEND, wire::to_bytes(&d));
        let sent =
            vec![HostAction::NetSend { dst: StackId(1), payload: stack.encode(&(ch(7), d.data)) }];
        let actions: Vec<_> = stack.drain_actions().collect();
        assert_eq!(actions, sent, "the datagram leaves with the call");
        stack.packet_in(Time(5), StackId(1), wire::to_bytes(&(ch(7), Bytes::from_static(b"yo"))));
        let mut stepped = Vec::new();
        let mut t = stack.now();
        while let Some(info) = stack.step(t) {
            stepped.push(info.module);
            t = Time(t.0 + 1);
        }
        assert_eq!(stepped, vec![user], "no step of `udp` to send, none to receive");
        // The call to `udp`, and the edge's response in `udp`'s name to
        // the one module listening: nothing on `net`, nothing else.
        let service = ServiceId::new(crate::UDP_SVC);
        let mut expected = TraceLog::new();
        let op = dgram::SEND;
        expected.push(t0, TraceEvent::Call { stack: id, service, op, from: user, to: udp });
        let (op, fanout) = (dgram::RECV, 1);
        expected.push(Time(5), TraceEvent::Response { stack: id, service, op, from: udp, fanout });
        assert_eq!(stack.trace().fingerprint(), expected.fingerprint());
    }

    #[test]
    fn factory_registration_builds_module() {
        let mut reg = FactoryRegistry::new();
        UdpModule::register(&mut reg);
        assert!(reg.contains(KIND));
        let m = reg.build(&dpu_core::ModuleSpec::new(KIND)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new(crate::UDP_SVC)]);
    }
}
