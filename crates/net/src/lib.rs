//! # dpu-net — network substrate modules
//!
//! The two bottom modules of the paper's group communication stack
//! (Figure 4):
//!
//! * [`udp::UdpModule`] — an interface to the unreliable datagram network
//!   (the paper's *UDP* module). Adds channel multiplexing so several
//!   protocols can share the wire.
//! * [`rp2p::Rp2pModule`] — *reliable point-to-point* communication: FIFO,
//!   duplicate-free, loss-recovering delivery between any pair of stacks,
//!   built on UDP with sequence numbers, cumulative acks and
//!   retransmission. A fan-out to many peers is one call
//!   ([`dgram::SEND_MANY`]) that puts one frame per peer on the wire.
//!
//! Both are ordinary [`dpu_core::Module`]s; they are wired into stacks via
//! service names [`UDP_SVC`] and [`RP2P_SVC`].
//!
//! [`sockframe`] is not a module but the datagram envelope used by the
//! real-socket host (`dpu-reactor`) to carry `(src, dst, payload)`
//! across an actual wire. It is also where a frame too large for one
//! datagram is split and put back together: only that host has a
//! datagram limit, so no module of the stack splits frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rp2p;
pub mod sockframe;
pub mod udp;

/// Service name of the unreliable datagram service.
pub const UDP_SVC: &str = dpu_core::svc::UDP;
/// Service name of the reliable point-to-point service.
pub const RP2P_SVC: &str = "rp2p";

/// Shared operation codes and payload shapes for datagram-style services
/// (`udp` and `rp2p` use the same interface shape), and the client side
/// every module above one uses: [`dgram::send`], [`dgram::send_many`] and
/// [`dgram::recv`].
pub mod dgram {
    use bytes::{Bytes, BytesMut};
    use dpu_core::stack::ModuleCtx;
    use dpu_core::wire::{self, Decode, Encode};
    use dpu_core::wire::{put_uvarint, uvarint_len, LenPrefixed};
    use dpu_core::{Channel, Op, Response, ServiceId, StackId};

    /// Downward call: send `(dst, channel, data)`.
    pub const SEND: Op = 1;
    /// Upward response: received `(src, channel, data)`.
    pub const RECV: Op = 2;
    /// Downward call, `rp2p` only: send one `(channel, data)` to every
    /// stack of a list, `(dsts, channel, data)` ([`DgramMany`]). One call,
    /// so one dispatch step of `rp2p`, however many frames it puts on the
    /// wire: `rp2p` treats each listed stack — in list order, a repeat
    /// as often as it is listed, the stack itself by loopback — exactly as
    /// a [`SEND`] to it. What a protocol fans out to its peers goes this
    /// way, through [`send_many`]; `udp` offers only [`SEND`].
    pub const SEND_MANY: Op = 3;

    /// Payload of [`SEND`] and [`RECV`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Dgram {
        /// The remote stack (destination on send, source on receive).
        pub peer: StackId,
        /// Multiplexing channel; receivers filter on it.
        pub channel: Channel,
        /// Opaque payload.
        pub data: Bytes,
    }

    dpu_core::wire_codec!(Dgram { peer, channel, data });

    /// Borrowing view of a [`Dgram`] whose payload is a not-yet-encoded
    /// message: encodes byte-identically to
    /// `Dgram { peer, channel, data: body.to_bytes() }` but writes the
    /// nested frame *forward* into one buffer (the body's length prefix
    /// comes from [`Encode::encoded_len`]), so no intermediate buffer is
    /// built per layer. Every module sends through this, by [`send`]. A
    /// borrowed view, so its `Encode` is written by hand.
    pub struct DgramRef<'a, B: Encode + ?Sized> {
        /// Destination stack.
        pub peer: StackId,
        /// Multiplexing channel.
        pub channel: Channel,
        /// The payload message, encoded in place.
        pub body: &'a B,
    }

    impl<B: Encode + ?Sized> Encode for DgramRef<'_, B> {
        fn encode(&self, buf: &mut BytesMut) {
            self.peer.encode(buf);
            self.channel.encode(buf);
            LenPrefixed(self.body).encode(buf);
        }
        fn encoded_len(&self) -> usize {
            self.peer.encoded_len()
                + self.channel.encoded_len()
                + LenPrefixed(self.body).encoded_len()
        }
    }

    /// Payload of [`SEND_MANY`]: `data` on `channel` to each of `peers`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct DgramMany {
        /// The destination stacks, in send order.
        pub peers: Vec<StackId>,
        /// Multiplexing channel of every frame.
        pub channel: Channel,
        /// Opaque payload, the same for every destination.
        pub data: Bytes,
    }

    dpu_core::wire_codec!(DgramMany { peers, channel, data });

    /// Borrowing view of a [`DgramMany`], as [`DgramRef`] is of a
    /// [`Dgram`]: the destinations come from an iterator (walked once to
    /// size the payload and once to write it, so it must be `Clone`, as a
    /// filtered slice iterator is) and the body is encoded in place, one
    /// forward pass into one buffer. Byte-identical to
    /// `DgramMany { peers: peers.collect(), channel, data: body.to_bytes() }`.
    /// A borrowed view, so its `Encode` is written by hand.
    pub(crate) struct DgramManyRef<'a, I, B: Encode + ?Sized> {
        /// Destination stacks, in send order.
        pub peers: I,
        /// Multiplexing channel.
        pub channel: Channel,
        /// The payload message, encoded in place.
        pub body: &'a B,
    }

    impl<I, B> Encode for DgramManyRef<'_, I, B>
    where
        I: Iterator<Item = StackId> + Clone,
        B: Encode + ?Sized,
    {
        fn encode(&self, buf: &mut BytesMut) {
            put_uvarint(buf, self.peers.clone().count() as u64);
            for peer in self.peers.clone() {
                peer.encode(buf);
            }
            self.channel.encode(buf);
            LenPrefixed(self.body).encode(buf);
        }
        fn encoded_len(&self) -> usize {
            let (count, peers) =
                self.peers.clone().fold((0, 0), |(n, len), p| (n + 1, len + p.encoded_len()));
            uvarint_len(count)
                + peers
                + self.channel.encoded_len()
                + LenPrefixed(self.body).encoded_len()
        }
    }

    /// Send `body` on `channel` to `peer` with one [`SEND`] call of `svc`:
    /// the one-destination twin of [`send_many`], and the one way a module
    /// sends a datagram. `body` is encoded in place inside the envelope,
    /// one forward pass through the stack's scratch pool; `&()` is the
    /// empty body, byte for byte `Bytes::new()`.
    pub fn send<B: Encode + ?Sized>(
        ctx: &mut ModuleCtx<'_>,
        svc: &ServiceId,
        peer: StackId,
        channel: Channel,
        body: &B,
    ) {
        let payload = ctx.encode(&DgramRef { peer, channel, body });
        ctx.call(svc, SEND, payload);
    }

    /// The envelope of `resp` if it is a [`RECV`] of `svc` on `channel`,
    /// its body not decoded: the check every datagram user makes of what
    /// comes up. A user that decodes the body takes [`recv`].
    pub fn envelope(resp: &Response, svc: &ServiceId, channel: Channel) -> Option<Dgram> {
        if resp.service != *svc || resp.op != RECV {
            return None;
        }
        let d = resp.decode::<Dgram>().ok()?;
        (d.channel == channel).then_some(d)
    }

    /// The source and the decoded body of `resp` if it is a [`RECV`] of
    /// `svc` on `channel` whose body decodes whole as `B`; `None` for
    /// anything else, so a module drops what is not its own.
    pub fn recv<B: Decode>(
        resp: &Response,
        svc: &ServiceId,
        channel: Channel,
    ) -> Option<(StackId, B)> {
        let d = envelope(resp, svc, channel)?;
        Some((d.peer, wire::from_bytes(&d.data).ok()?))
    }

    /// Send `body` on `channel` to every stack `peers` yields, in order,
    /// with one [`SEND_MANY`] call of `svc` (`rp2p`): the one way a
    /// protocol fans a message out. `body` is encoded once, in place,
    /// through the stack's scratch pool. An empty list makes no call.
    pub fn send_many<I, B>(
        ctx: &mut ModuleCtx<'_>,
        svc: &ServiceId,
        peers: I,
        channel: Channel,
        body: &B,
    ) where
        I: Iterator<Item = StackId> + Clone,
        B: Encode + ?Sized,
    {
        if peers.clone().next().is_none() {
            return;
        }
        let payload = ctx.encode(&DgramManyRef { peers, channel, body });
        ctx.call(svc, SEND_MANY, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::dgram::{self, Dgram, DgramMany, DgramManyRef, DgramRef};
    use bytes::Bytes;
    use dpu_core::stack::ModuleCtx;
    use dpu_core::wire;
    use dpu_core::{Call, Channel, Module, ModuleId, Response, ServiceId, StackId};

    #[test]
    fn dgram_roundtrip() {
        let d = Dgram {
            peer: StackId(4),
            channel: Channel::new(9, 2),
            data: Bytes::from_static(b"abc"),
        };
        let b = wire::to_bytes(&d);
        let back: Dgram = wire::from_bytes(&b).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn dgram_wire_contract() {
        for data in [Bytes::new(), Bytes::from_static(b"abc"), Bytes::from(vec![0u8; 300])] {
            let d = Dgram { peer: StackId(4), channel: Channel::new(9, 300), data };
            wire::testing::assert_wire_contract(&d);
        }
        let d = Dgram { peer: StackId(4), channel: Channel::new(9, 2), data: Bytes::from("ab") };
        wire::testing::assert_wire_bytes(&d, &[4, 0x29, 2, b'a', b'b']);
    }

    /// `DgramRef` must be byte-identical to the two-pass encoding it
    /// replaces: a `Dgram` whose payload is the body's own encoding.
    #[test]
    fn dgram_ref_matches_nested_to_bytes() {
        use dpu_core::wire::Encode;
        let body = (7u16, Bytes::from_static(b"payload"), 42u64);
        let channel = Channel::new(5, 0);
        let one_pass = DgramRef { peer: StackId(3), channel, body: &body }.to_bytes();
        let two_pass = Dgram { peer: StackId(3), channel, data: wire::to_bytes(&body) }.to_bytes();
        assert_eq!(one_pass, two_pass);
        let data = wire::to_bytes(&body);
        wire::testing::assert_wire_contract(&Dgram { peer: StackId(3), channel, data });
    }

    /// Provides `svc` and records the payload of every call on it.
    struct Recorder(Vec<Bytes>);

    impl Module for Recorder {
        fn kind(&self) -> &str {
            "recorder"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("svc")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, call: Call) {
            assert_eq!(call.op, dgram::SEND);
            self.0.push(call.data);
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// Sends each of its bodies to stack 3 on `CH` through `dgram::send`
    /// as it starts.
    struct Sender(Vec<(u16, Bytes)>);

    impl Module for Sender {
        fn kind(&self) -> &str {
            "sender"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("svc")]
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            for body in &self.0 {
                dgram::send(ctx, &ServiceId::new("svc"), StackId(3), CH, body);
            }
            dgram::send(ctx, &ServiceId::new("svc"), StackId(3), CH, &());
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    const CH: Channel = Channel::new(5, 1);

    /// `dgram::send` puts on the call exactly what `DgramRef` encodes,
    /// and the empty body `&()` exactly what `Bytes::new()` does.
    #[test]
    fn send_frames_like_dgram_ref_and_the_unit_body_is_empty() {
        use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
        use dpu_core::time::Time;
        use dpu_core::wire::Encode;
        let bodies =
            vec![(0, Bytes::new()), (7, Bytes::from_static(b"abc")), (9, vec![1; 300].into())];
        let mut s = Stack::new(StackConfig::nth(0, 4, 1), FactoryRegistry::new());
        let rec = s.add_module(Box::new(Recorder(Vec::new())));
        s.bind(&ServiceId::new("svc"), rec);
        s.add_module(Box::new(Sender(bodies.clone())));
        while s.step(Time::ZERO).is_some() {}
        let got = s.with_module::<Recorder, _>(rec, |r| r.0.clone()).expect("the recorder");
        let mut want: Vec<Bytes> = (bodies.iter())
            .map(|body| DgramRef { peer: StackId(3), channel: CH, body }.to_bytes())
            .collect();
        let empty = Dgram { peer: StackId(3), channel: CH, data: Bytes::new() };
        want.push(empty.to_bytes());
        assert_eq!(got, want);
    }

    /// `recv` returns the source and the body of a `RECV` of the service
    /// on the channel, and `None` for anything else.
    #[test]
    fn recv_takes_only_a_whole_recv_of_its_service_on_its_channel() {
        use dpu_core::wire::Encode;
        let svc = ServiceId::new("svc");
        let body = (7u16, Bytes::from_static(b"abc"));
        let frame = |channel, data: Bytes| Dgram { peer: StackId(2), channel, data }.to_bytes();
        let good = frame(CH, body.to_bytes());
        let resp = |service, op, data| Response { service, op, data, from: ModuleId(1) };
        let recv = |r: Response| dgram::recv::<(u16, Bytes)>(&r, &svc, CH);
        assert_eq!(recv(resp(svc, dgram::RECV, good.clone())), Some((StackId(2), body.clone())));
        let envelope = dgram::envelope(&resp(svc, dgram::RECV, good.clone()), &svc, CH);
        assert_eq!(envelope.map(|d| d.data), Some(body.to_bytes()));
        let refused = [
            ("another service", resp(ServiceId::new("other"), dgram::RECV, good.clone())),
            ("another op", resp(svc, dgram::SEND, good.clone())),
            ("another channel", resp(svc, dgram::RECV, frame(Channel::new(5, 2), body.to_bytes()))),
            ("a truncated envelope", resp(svc, dgram::RECV, good.slice(..good.len() - 1))),
            ("an undecodable body", resp(svc, dgram::RECV, frame(CH, Bytes::from_static(b"\xff")))),
        ];
        for (what, r) in refused {
            assert_eq!(recv(r), None, "{what}");
        }
    }

    fn many(peers: &[u32], data: &'static [u8]) -> DgramMany {
        let peers = peers.iter().copied().map(StackId).collect();
        DgramMany { peers, channel: Channel::new(9, 300), data: Bytes::from_static(data) }
    }

    #[test]
    fn dgram_many_wire_contract() {
        for d in [many(&[], b"x"), many(&[1], b""), many(&[0, 2, 2, u32::MAX], b"abc")] {
            wire::testing::assert_wire_contract(&d);
        }
        let d = DgramMany {
            peers: vec![StackId(1), StackId(300)],
            channel: Channel::new(5, 1),
            data: Bytes::from("x"),
        };
        wire::testing::assert_wire_bytes(&d, &[2, 1, 0xac, 0x02, 0x15, 1, b'x']);
    }

    /// `DgramManyRef` must be byte-identical to the `DgramMany` it stands
    /// for: the list its iterator yields, the body's own encoding.
    #[test]
    fn dgram_many_ref_matches_dgram_many() {
        use dpu_core::wire::Encode;
        let body = (7u16, Bytes::from_static(b"payload"));
        let channel = Channel::new(5, 2);
        let table: Vec<StackId> = (0..200).map(StackId).collect();
        let me = StackId(3);
        let peers = table.iter().copied().filter(|&p| p != me);
        let view = DgramManyRef { peers: peers.clone(), channel, body: &body };
        let whole = DgramMany { peers: peers.collect(), channel, data: wire::to_bytes(&body) };
        assert_eq!(view.encoded_len(), view.to_bytes().len());
        assert_eq!(view.to_bytes(), whole.to_bytes());
        let empty = DgramManyRef { peers: std::iter::empty(), channel, body: &body };
        let none = DgramMany { peers: Vec::new(), channel, data: wire::to_bytes(&body) };
        assert_eq!(empty.to_bytes(), none.to_bytes());
    }

    /// What a forged `SEND_MANY` payload can do: fail to decode. A count
    /// or a body length beyond what the input holds is refused before
    /// anything is allocated, and a list that does decode is allocated
    /// once, at its size: no more destinations than the input has bytes.
    #[test]
    fn a_forged_dgram_many_fails_without_allocating_beyond_its_input() {
        use dpu_core::wire::{put_uvarint, WireError};
        let decode = |raw: &[u8]| wire::from_bytes::<DgramMany>(&Bytes::copy_from_slice(raw));
        // A count of 2^64 − 1 destinations in a 12-byte payload.
        let mut huge = bytes::BytesMut::new();
        put_uvarint(&mut huge, u64::MAX);
        huge.extend_from_slice(&[0, 0]);
        assert_eq!(decode(&huge), Err(WireError::BadLength(u64::MAX)));
        // As many destinations as bytes follow: the list eats the channel
        // and the body, and the decode runs out.
        assert_eq!(decode(&[4, 1, 2, 3, 4]), Err(WireError::Truncated));
        // An honest list, then a body length past the end.
        assert_eq!(decode(&[1, 7, 9, 100, b'x']), Err(WireError::BadLength(100)));
        // Nothing at all.
        assert_eq!(decode(&[]), Err(WireError::Truncated));
        // An empty list is a valid payload that sends nothing.
        let channel = Channel::new(9, 0);
        let data = Bytes::from_static(b"x");
        assert_eq!(decode(&[0, 9, 1, b'x']), Ok(DgramMany { peers: Vec::new(), channel, data }));
        // The longest list a payload can carry: one byte a destination.
        let raw: Vec<u8> = [&[100u8][..], &[1; 100], &[9, 0]].concat();
        let d = decode(&raw).expect("100 one-byte destinations");
        assert_eq!(d.peers.capacity(), 100, "allocated once, at the list's size");
    }
}
