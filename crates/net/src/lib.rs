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
//!   retransmission.
//! * [`frag::FragModule`] — MTU fragmentation/reassembly for oversized
//!   payloads, slotting between RP2P and UDP
//!   (`rp2p → frag → udp`) when protocol messages outgrow a datagram.
//!
//! All are ordinary [`dpu_core::Module`]s; they are wired into stacks via
//! service names [`UDP_SVC`] and [`RP2P_SVC`].
//!
//! [`sockframe`] is not a module but the datagram envelope used by the
//! real-socket host (`dpu-reactor`) to carry `(src, dst, payload)`
//! across an actual wire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frag;
pub mod rp2p;
pub mod sockframe;
pub mod udp;

/// Service name of the unreliable datagram service.
pub const UDP_SVC: &str = dpu_core::svc::UDP;
/// Service name of the reliable point-to-point service.
pub const RP2P_SVC: &str = "rp2p";
/// Service name of the MTU fragmentation service (same datagram
/// interface as UDP, for oversized payloads).
pub const FRAG_SVC: &str = "frag";
/// UDP channel reserved for fragmentation frames.
pub const FRAG_UDP_CHANNEL: dpu_core::Channel = dpu_core::Channel::new(2, 0);

/// Shared operation codes and payload shapes for datagram-style services
/// (`udp` and `rp2p` use the same interface shape).
pub mod dgram {
    use bytes::{Bytes, BytesMut};
    use dpu_core::wire::{Decode, Encode, WireResult};
    use dpu_core::{Channel, Op, StackId};

    /// Downward call: send `(dst, channel, data)`.
    pub const SEND: Op = 1;
    /// Upward response: received `(src, channel, data)`.
    pub const RECV: Op = 2;

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

    impl Encode for Dgram {
        fn encode(&self, buf: &mut BytesMut) {
            self.peer.encode(buf);
            self.channel.encode(buf);
            self.data.encode(buf);
        }
        fn encoded_len(&self) -> usize {
            self.peer.encoded_len() + self.channel.encoded_len() + self.data.encoded_len()
        }
    }

    impl Decode for Dgram {
        fn decode(buf: &mut Bytes) -> WireResult<Self> {
            Ok(Dgram {
                peer: StackId::decode(buf)?,
                channel: Channel::decode(buf)?,
                data: Bytes::decode(buf)?,
            })
        }
    }

    /// Borrowing view of a [`Dgram`] whose payload is a not-yet-encoded
    /// message: encodes byte-identically to
    /// `Dgram { peer, channel, data: body.to_bytes() }` but writes the
    /// nested frame *forward* into one buffer (the body's length prefix
    /// comes from [`Encode::encoded_len`]), so no intermediate buffer is
    /// built per layer. Every protocol module sends through this.
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
            dpu_core::wire::LenPrefixed(self.body).encode(buf);
        }
        fn encoded_len(&self) -> usize {
            self.peer.encoded_len()
                + self.channel.encoded_len()
                + dpu_core::wire::LenPrefixed(self.body).encoded_len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dgram::Dgram;
    use bytes::Bytes;
    use dpu_core::wire;
    use dpu_core::{Channel, StackId};

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
    }

    /// `DgramRef` must be byte-identical to the two-pass encoding it
    /// replaces: a `Dgram` whose payload is the body's own encoding.
    #[test]
    fn dgram_ref_matches_nested_to_bytes() {
        use super::dgram::DgramRef;
        use dpu_core::wire::Encode;
        let body = (7u16, Bytes::from_static(b"payload"), 42u64);
        let channel = Channel::new(5, 0);
        let one_pass = DgramRef { peer: StackId(3), channel, body: &body }.to_bytes();
        let two_pass = Dgram { peer: StackId(3), channel, data: wire::to_bytes(&body) }.to_bytes();
        assert_eq!(one_pass, two_pass);
        let data = wire::to_bytes(&body);
        wire::testing::assert_wire_contract(&Dgram { peer: StackId(3), channel, data });
    }
}
