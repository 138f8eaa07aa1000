//! Socket framing: maps stack-to-stack wire frames onto real datagrams.
//!
//! The in-process hosts (`dpu-sim`, `dpu-runtime`) carry a `NetSend`'s
//! `(src, dst, payload)` out of band — the channel *is* the addressing.
//! A real-socket host (`dpu-reactor`) has only the datagram bytes, so
//! this module defines the one envelope that crosses a real wire:
//!
//! ```text
//! +-------+-----+-----+----------------+
//! | MAGIC | src | dst | payload (len-prefixed bytes)
//! +-------+-----+-----+----------------+
//! ```
//!
//! [`SockFrame`] is the envelope; [`FrameCodec`] owns a
//! [`WireScratch`] so steady-state encodes reuse buffers (the same
//! zero-copy discipline as the stack-internal path) and counts every
//! malformed datagram it refuses — socket input is untrusted, so decode
//! failures are *counted drops*, never panics.

use bytes::{Bytes, BytesMut};
use dpu_core::wire::{self, Decode, Encode, ScratchStats, WireError, WireResult, WireScratch};
use dpu_core::StackId;

/// Leading magic of every reactor datagram (`b"DPU0"` as a big-endian
/// integer). Rejects cross-talk from unrelated processes on the same
/// port range before any length field is trusted.
pub(crate) const MAGIC: u32 = 0x4450_5530;

/// The envelope of one datagram between two reactor-hosted stacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SockFrame {
    /// Sending stack.
    pub src: StackId,
    /// Destination stack.
    pub dst: StackId,
    /// The stack-level wire frame, handed to
    /// [`dpu_core::host::StackDriver::inject`] unchanged on receive.
    pub payload: Bytes,
}

impl Encode for SockFrame {
    fn encode(&self, buf: &mut BytesMut) {
        MAGIC.encode(buf);
        self.src.encode(buf);
        self.dst.encode(buf);
        self.payload.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        MAGIC.encoded_len()
            + self.src.encoded_len()
            + self.dst.encoded_len()
            + self.payload.encoded_len()
    }
}

impl Decode for SockFrame {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let magic = u32::decode(buf)?;
        if magic != MAGIC {
            return Err(WireError::BadTag(magic));
        }
        Ok(SockFrame {
            src: StackId::decode(buf)?,
            dst: StackId::decode(buf)?,
            payload: Bytes::decode(buf)?,
        })
    }
}

/// Counters of one [`FrameCodec`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FrameStats {
    /// Frames encoded for sending.
    pub encoded: u64,
    /// Frames decoded successfully from received datagrams.
    pub decoded: u64,
    /// Received datagrams dropped because they failed to decode as a
    /// [`SockFrame`] (bad magic, truncation, corruption, trailing
    /// garbage). A real socket is open to arbitrary input; anything
    /// that is not a well-formed frame lands here instead of anywhere
    /// near a panic.
    pub malformed_dropped: u64,
}

/// A per-reactor frame codec: scratch-pooled encode, counted-drop
/// decode. Single-threaded (one per reactor loop), like the
/// [`WireScratch`] it wraps: one pool for every stack of the loop, a
/// shard's budget.
#[derive(Debug, Default)]
pub struct FrameCodec {
    scratch: WireScratch,
    stats: FrameStats,
}

impl FrameCodec {
    /// A fresh codec with an empty scratch pool.
    pub fn new() -> FrameCodec {
        FrameCodec::default()
    }

    /// Encode one outbound frame through the scratch pool. The produced
    /// bytes are exactly one datagram.
    pub fn encode(&mut self, src: StackId, dst: StackId, payload: &Bytes) -> Bytes {
        self.stats.encoded += 1;
        // Borrowing mirror of `SockFrame` so the payload is written
        // forward without constructing an owning envelope first.
        struct Out<'a>(StackId, StackId, &'a Bytes);
        impl Encode for Out<'_> {
            fn encode(&self, buf: &mut BytesMut) {
                MAGIC.encode(buf);
                self.0.encode(buf);
                self.1.encode(buf);
                self.2.encode(buf);
            }
            fn encoded_len(&self) -> usize {
                MAGIC.encoded_len()
                    + self.0.encoded_len()
                    + self.1.encoded_len()
                    + self.2.encoded_len()
            }
        }
        self.scratch.encode(&Out(src, dst, payload))
    }

    /// Decode one received datagram. `None` means the bytes were not a
    /// well-formed frame; the drop is counted in
    /// `FrameStats::malformed_dropped`.
    pub fn decode(&mut self, datagram: &[u8]) -> Option<SockFrame> {
        match wire::from_bytes::<SockFrame>(&Bytes::copy_from_slice(datagram)) {
            Ok(f) => {
                self.stats.decoded += 1;
                Some(f)
            }
            Err(_) => {
                self.stats.malformed_dropped += 1;
                None
            }
        }
    }

    /// The scratch pool's counters (steady-state allocation oracle of
    /// the socket send path).
    pub fn wire_stats(&self) -> ScratchStats {
        self.scratch.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sockframe_wire_contract() {
        for payload in [Bytes::new(), Bytes::from_static(b"abc"), Bytes::from(vec![7u8; 300])] {
            let f = SockFrame { src: StackId(3), dst: StackId(12), payload };
            wire::testing::assert_wire_contract(&f);
        }
    }

    #[test]
    fn codec_encode_matches_owned_frame() {
        let mut codec = FrameCodec::new();
        let payload = Bytes::from_static(b"wire frame");
        let via_codec = codec.encode(StackId(1), StackId(2), &payload);
        let owned = SockFrame { src: StackId(1), dst: StackId(2), payload }.to_bytes();
        assert_eq!(via_codec, owned);
        assert_eq!(codec.stats.encoded, 1);
    }

    #[test]
    fn codec_roundtrip_and_counters() {
        let mut codec = FrameCodec::new();
        let d = codec.encode(StackId(5), StackId(6), &Bytes::from_static(b"payload"));
        let back = codec.decode(&d).expect("well-formed frame");
        assert_eq!(back.src, StackId(5));
        assert_eq!(back.dst, StackId(6));
        assert_eq!(back.payload, Bytes::from_static(b"payload"));
        assert_eq!(codec.stats, FrameStats { encoded: 1, decoded: 1, malformed_dropped: 0 });
    }

    #[test]
    fn bad_magic_is_a_counted_drop() {
        let mut codec = FrameCodec::new();
        let mut d = codec.encode(StackId(1), StackId(2), &Bytes::from_static(b"x")).to_vec();
        d[0] ^= 0xff; // clobber the magic
        assert!(codec.decode(&d).is_none());
        assert_eq!(codec.stats.malformed_dropped, 1);
    }

    #[test]
    fn junk_truncation_and_corruption_never_panic() {
        let mut codec = FrameCodec::new();
        let good = codec.encode(StackId(9), StackId(4), &Bytes::from(vec![0xabu8; 64]));
        // Every strict prefix must be a counted drop.
        for cut in 0..good.len() {
            assert!(codec.decode(&good[..cut]).is_none(), "{cut}-byte prefix decoded");
        }
        // Arbitrary junk: xorshift bytes of many lengths.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..128usize {
            let junk: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x >> 32) as u8
                })
                .collect();
            let _ = codec.decode(&junk); // Ok or counted drop — never a panic.
        }
        // Single-byte corruptions of a valid frame: decode may succeed
        // (payload bytes) or drop, never panic.
        for i in 0..good.len() {
            let mut c = good.to_vec();
            c[i] ^= 0x80;
            let _ = codec.decode(&c);
        }
        assert!(codec.stats.malformed_dropped >= good.len() as u64);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut codec = FrameCodec::new();
        let mut d = codec.encode(StackId(1), StackId(2), &Bytes::from_static(b"p")).to_vec();
        d.push(0x00);
        assert!(codec.decode(&d).is_none(), "frame with trailing byte decoded");
    }

    #[test]
    fn scratch_reuses_buffers_in_steady_state() {
        let mut codec = FrameCodec::new();
        let payload = Bytes::from(vec![1u8; 128]);
        for _ in 0..100 {
            let d = codec.encode(StackId(0), StackId(1), &payload);
            drop(d); // consumer done — buffer reclaimable
        }
        let ws = codec.wire_stats();
        assert_eq!(ws.emitted, 100);
        assert!(ws.reclaimed >= 90, "steady-state encodes must reclaim: {ws:?}");
    }
}
