//! The UDP module (paper Figure 4, bottom of the stack): an interface to
//! the unreliable network with channel multiplexing.
//!
//! Provides service [`crate::UDP_SVC`], requires the built-in `net`
//! service. Send semantics match the underlying network: datagrams may be
//! lost, duplicated or reordered; whatever arrives is handed up unchanged.

use crate::dgram::{self, Dgram};
use bytes::Bytes;
use dpu_core::stack::{net_ops, ModuleCtx};
use dpu_core::wire::LenPrefixed;
use dpu_core::{Call, Module, ModuleSpec, Response, ServiceId, StackId};

/// Module kind name, for factory registration.
pub const KIND: &str = "udp";

/// The UDP module: translates between the `udp` service interface
/// ([`Dgram`] frames) and raw `net` datagrams, counting malformed inbound
/// frames it drops.
pub struct UdpModule {
    udp_svc: ServiceId,
    net_svc: ServiceId,
    malformed_dropped: u64,
}

impl UdpModule {
    /// A UDP module providing the default [`crate::UDP_SVC`] service.
    pub fn new() -> UdpModule {
        UdpModule {
            udp_svc: ServiceId::new(crate::UDP_SVC),
            net_svc: ServiceId::new(dpu_core::svc::NET),
            malformed_dropped: 0,
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register(KIND, |_spec: &ModuleSpec| Box::new(UdpModule::new()));
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

impl Module for UdpModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.udp_svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.net_svc]
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != dgram::SEND {
            return;
        }
        let Ok(d) = call.decode::<Dgram>() else { return };
        // Frame: (channel, data); the destination travels in the net
        // call. One forward pass through the stack scratch — no
        // intermediate buffer for the nested frame.
        let payload = ctx.encode(&(d.peer, LenPrefixed(&(d.channel, d.data))));
        ctx.call(&self.net_svc, net_ops::SEND, payload);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != net_ops::RECV {
            return;
        }
        // The outer (src, frame) envelope is built by the local stack's
        // `packet_in`, never by a peer — a decode failure here would be a
        // local codec bug, not wire damage, so it is dropped without
        // touching the malformed counter.
        let Ok((src, frame)) = resp.decode::<(StackId, Bytes)>() else {
            debug_assert!(false, "locally-built net envelope failed to decode");
            return;
        };
        // The inner frame IS untrusted wire input: malformed frames are
        // dropped and counted, never unwrapped.
        let Ok((channel, data)) = dpu_core::wire::from_bytes::<(u16, Bytes)>(&frame) else {
            self.malformed_dropped += 1;
            return;
        };
        let up = ctx.encode(&Dgram { peer: src, channel, data });
        ctx.respond_on(&self.udp_svc, channel, dgram::RECV, up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::stack::{FactoryRegistry, HostAction, Stack, StackConfig};
    use dpu_core::time::Time;
    use dpu_core::wire;

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

    fn run_until_idle(stack: &mut Stack) {
        let mut t = stack.now();
        while stack.step(t).is_some() {
            t = Time(t.0 + 1);
        }
    }

    #[test]
    fn send_produces_net_host_action_with_frame() {
        let mut stack = Stack::new(StackConfig::nth(0, 2, 1), FactoryRegistry::new());
        let udp = stack.add_module(Box::new(UdpModule::new()));
        stack.bind(&ServiceId::new(crate::UDP_SVC), udp);
        let user = stack.add_module(Box::new(UdpSink { got: vec![] }));
        let d = Dgram { peer: StackId(1), channel: 7, data: Bytes::from_static(b"hello") };
        stack.call_as(user, &ServiceId::new(crate::UDP_SVC), dgram::SEND, wire::to_bytes(&d));
        run_until_idle(&mut stack);
        let actions = stack.drain_actions();
        assert_eq!(actions.len(), 1);
        let HostAction::NetSend { dst, payload } = &actions[0] else {
            panic!("expected NetSend");
        };
        assert_eq!(*dst, StackId(1));
        let (ch, data): (u16, Bytes) = wire::from_bytes(payload).unwrap();
        assert_eq!(ch, 7);
        assert_eq!(data, Bytes::from_static(b"hello"));
    }

    #[test]
    fn packet_in_surfaces_as_udp_recv() {
        let mut stack = Stack::new(StackConfig::nth(0, 2, 1), FactoryRegistry::new());
        let udp = stack.add_module(Box::new(UdpModule::new()));
        stack.bind(&ServiceId::new(crate::UDP_SVC), udp);
        let user = stack.add_module(Box::new(UdpSink { got: vec![] }));
        let frame = wire::to_bytes(&(9u16, Bytes::from_static(b"payload")));
        stack.packet_in(Time(5), StackId(1), frame);
        run_until_idle(&mut stack);
        let got = stack.with_module::<UdpSink, _>(user, |u| u.got.clone()).unwrap();
        assert_eq!(
            got,
            vec![Dgram { peer: StackId(1), channel: 9, data: Bytes::from_static(b"payload") }]
        );
    }

    #[test]
    fn malformed_frames_are_dropped() {
        let mut stack = Stack::new(StackConfig::nth(0, 2, 1), FactoryRegistry::new());
        let udp = stack.add_module(Box::new(UdpModule::new()));
        stack.bind(&ServiceId::new(crate::UDP_SVC), udp);
        let user = stack.add_module(Box::new(UdpSink { got: vec![] }));
        stack.packet_in(Time(5), StackId(1), Bytes::from_static(&[0xff, 0xff, 0xff]));
        run_until_idle(&mut stack);
        let got = stack.with_module::<UdpSink, _>(user, |u| u.got.clone()).unwrap();
        assert!(got.is_empty());
        let dropped = stack.with_module::<UdpModule, _>(udp, |m| m.malformed_dropped()).unwrap();
        assert_eq!(dropped, 1, "the malformed frame must be counted, not unwrapped");
    }

    #[test]
    fn factory_registration_builds_module() {
        let mut reg = FactoryRegistry::new();
        UdpModule::register(&mut reg);
        assert!(reg.contains(KIND));
        let m = reg.build(&ModuleSpec::new(KIND)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new(crate::UDP_SVC)]);
    }
}
