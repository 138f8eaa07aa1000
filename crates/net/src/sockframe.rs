//! Socket framing: maps stack-to-stack wire frames onto real datagrams.
//!
//! The in-process hosts (`dpu-sim`, `dpu-runtime`) carry a `NetSend`'s
//! `(src, dst, payload)` out of band — the channel *is* the addressing.
//! A real-socket host (`dpu-reactor`) has only the datagram bytes, so
//! this module defines the one envelope that crosses a real wire,
//! [`Datagram`]: a frame whole, or one piece of a frame too large for
//! one datagram.
//!
//! ```text
//! +--------+-----+-----+-----+-------+-------+----------------+
//! | "DPU0" | src | dst |                       payload        |  whole
//! | "DPU1" | src | dst | msg | index | count | piece of it    |  piece
//! +--------+-----+-----+-----+-------+-------+----------------+
//! ```
//!
//! Only this host has a datagram limit (UDP's 65 507 bytes), so only it
//! splits: a payload over [`PIECE`] bytes goes as `count` pieces, and
//! [`FrameCodec`] puts them back together in order, one frame at a time
//! per `(src, dst)` pair. A piece is as unreliable as a datagram: a lost
//! one loses its frame, and `rp2p` above resends the frame whole.
//!
//! [`FrameCodec`] owns a [`WireScratch`] so steady-state encodes reuse
//! buffers (the same zero-copy discipline as the stack-internal path)
//! and counts every malformed datagram it refuses — socket input is
//! untrusted, so decode failures are *counted drops*, never panics.

use bytes::{Bytes, BytesMut};
use dpu_core::wire::{self, Encode, ScratchStats, WireScratch};
use dpu_core::StackId;

/// Leading magic of a whole frame (`b"DPU0"` as a big-endian integer),
/// the tag of [`Datagram::Whole`]. Rejects cross-talk from unrelated
/// processes on the same port range before any length field is trusted.
const MAGIC: u32 = 0x4450_5530;

/// Most payload bytes one datagram carries: a frame over it goes in
/// pieces. With the envelope's header it stays below UDP's 65 507.
pub const PIECE: usize = 60_000;
/// Most pieces one frame goes in. A larger frame is not sent. The
/// pieces of a frame leave in one burst and wait in the receiver's socket
/// buffer until its loop drains it. At Linux's default `SO_RCVBUF`
/// (212 992 B) an idle loopback socket took 200 000 payload bytes in one
/// burst and dropped part of 220 000, so a frame of four full pieces
/// would never arrive; three leave room for other traffic
/// (`tests/reactor_live.rs`).
pub const MAX_PIECES: u32 = 3;
/// Most frames a codec holds unfinished, over all pairs; the first piece
/// of one more drops the oldest. Bounds the payload bytes held to
/// `MAX_PARTIALS × MAX_PIECES × PIECE`.
pub const MAX_PARTIALS: usize = 16;

/// A stack-level frame between two reactor-hosted stacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SockFrame {
    /// Sending stack.
    pub src: StackId,
    /// Destination stack.
    pub dst: StackId,
    /// The stack-level wire frame, handed to
    /// [`dpu_core::host::LiveShard::deliver`] unchanged on receive.
    pub payload: Bytes,
}

dpu_core::wire_codec!(SockFrame { src, dst, payload });

/// Piece `index` of `count` of frame `msg` from `src` to `dst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Piece {
    /// Sending stack.
    pub src: StackId,
    /// Destination stack.
    pub dst: StackId,
    /// The frame's number, unique per sending codec.
    pub msg: u64,
    /// Which piece this is, from 0.
    pub index: u32,
    /// How many pieces the frame goes in, `2..=MAX_PIECES`.
    pub count: u32,
    /// This piece's bytes of the payload, at most [`PIECE`].
    pub data: Bytes,
}

dpu_core::wire_codec!(Piece { src, dst, msg, index, count, data });

/// What one datagram between reactors carries. The tag is the magic, so
/// a datagram of neither kind is [`wire::WireError::BadTag`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Datagram {
    /// A frame in one datagram.
    Whole(SockFrame),
    /// One piece of a frame over [`PIECE`] bytes.
    Piece(Piece),
}

dpu_core::wire_codec!(enum Datagram {
    0x4450_5530 => Whole(frame),
    0x4450_5531 => Piece(piece),
});

/// A frame whose first pieces have arrived: the piece it waits for, and
/// the payload so far.
#[derive(Debug)]
struct Partial {
    src: StackId,
    dst: StackId,
    msg: u64,
    count: u32,
    next: u32,
    payload: BytesMut,
}

/// Counters of one [`FrameCodec`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FrameStats {
    /// Frames encoded for sending, whole or in pieces.
    encoded: u64,
    /// Frames decoded from received datagrams, whole or put together.
    decoded: u64,
    /// Received datagrams dropped because they were neither a
    /// well-formed frame nor a well-formed piece (bad magic, truncation,
    /// corruption, trailing garbage, a count, index or length out of
    /// range). A real socket is open to arbitrary input; anything that
    /// is not well-formed lands here instead of anywhere near a panic.
    malformed_dropped: u64,
}

/// A per-reactor frame codec: scratch-pooled encode, counted-drop
/// decode, reassembly of pieces. Single-threaded (one per reactor loop),
/// like the [`WireScratch`] it wraps: one pool for every stack of the
/// loop, a shard's budget.
#[derive(Debug, Default)]
pub struct FrameCodec {
    scratch: WireScratch,
    stats: FrameStats,
    /// The number of the next frame sent in pieces.
    next_msg: u64,
    /// At most one unfinished frame per `(src, dst)` pair, at most
    /// [`MAX_PARTIALS`] in all, oldest first.
    partials: Vec<Partial>,
}

impl FrameCodec {
    /// A fresh codec with an empty scratch pool.
    pub fn new() -> FrameCodec {
        FrameCodec::default()
    }

    /// Encode one outbound frame whole, through the scratch pool: one
    /// datagram, if the payload is at most [`PIECE`] bytes
    /// ([`FrameCodec::datagrams`] splits a larger one).
    pub fn encode(&mut self, src: StackId, dst: StackId, payload: &Bytes) -> Bytes {
        self.stats.encoded += 1;
        // Borrowing mirror of `Datagram::Whole` so the payload is written
        // forward without constructing an owning envelope first (a
        // borrowed view, so its `Encode` is written by hand).
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

    /// The datagrams that carry one outbound frame, in send order: the
    /// frame whole if its payload is at most [`PIECE`] bytes, else its
    /// pieces. `None`, with nothing encoded, for a frame over
    /// [`MAX_PIECES`] pieces.
    pub fn datagrams<'a>(
        &'a mut self,
        src: StackId,
        dst: StackId,
        payload: &'a Bytes,
    ) -> Option<impl Iterator<Item = Bytes> + 'a> {
        let count = payload.len().div_ceil(PIECE).max(1);
        if count > MAX_PIECES as usize {
            return None;
        }
        let msg = self.next_msg;
        if count > 1 {
            self.next_msg += 1;
            self.stats.encoded += 1;
        }
        Some((0..count).map(move |index| {
            if count == 1 {
                return self.encode(src, dst, payload);
            }
            let data = payload.slice(index * PIECE..payload.len().min((index + 1) * PIECE));
            let (index, count) = (index as u32, count as u32);
            self.scratch.encode(&Datagram::Piece(Piece { src, dst, msg, index, count, data }))
        }))
    }

    /// Decode one received datagram. `None` means it was malformed
    /// (counted in `FrameStats::malformed_dropped`) or a piece that
    /// completes no frame.
    pub fn decode(&mut self, datagram: &[u8]) -> Option<SockFrame> {
        let frame = match wire::from_bytes(&Bytes::copy_from_slice(datagram)) {
            Ok(Datagram::Whole(frame)) => frame,
            Ok(Datagram::Piece(piece))
                if (2..=MAX_PIECES).contains(&piece.count)
                    && piece.index < piece.count
                    && piece.data.len() <= PIECE =>
            {
                self.reassemble(piece)?
            }
            Ok(Datagram::Piece(_)) | Err(_) => {
                self.stats.malformed_dropped += 1;
                return None;
            }
        };
        self.stats.decoded += 1;
        Some(frame)
    }

    /// Take one well-formed piece: the frame it completes, if any. A
    /// piece that is not the next of its pair's frame drops that frame,
    /// so a frame put together is always one that was sent. A first
    /// piece with [`MAX_PARTIALS`] frames held drops the oldest of them:
    /// stale or forged first pieces cannot keep out the frames that
    /// follow.
    fn reassemble(&mut self, piece: Piece) -> Option<SockFrame> {
        let pair = self.partials.iter().position(|p| (p.src, p.dst) == (piece.src, piece.dst));
        if let Some(i) = pair {
            let p = &mut self.partials[i];
            if (p.msg, p.count, p.next) == (piece.msg, piece.count, piece.index) {
                p.payload.extend_from_slice(&piece.data);
                p.next += 1;
                if p.next < p.count {
                    return None;
                }
                let Partial { src, dst, payload, .. } = self.partials.remove(i);
                return Some(SockFrame { src, dst, payload: payload.freeze() });
            }
            self.partials.remove(i);
        }
        if piece.index > 0 {
            return None;
        }
        if self.partials.len() == MAX_PARTIALS {
            self.partials.remove(0);
        }
        let mut payload = BytesMut::with_capacity(piece.count as usize * piece.data.len());
        payload.extend_from_slice(&piece.data);
        let Piece { src, dst, msg, count, .. } = piece;
        self.partials.push(Partial { src, dst, msg, count, next: 1, payload });
        None
    }

    /// Received datagrams refused as malformed: the one count behind the
    /// reactor's `SocketCounters::malformed_dropped`.
    pub fn malformed_dropped(&self) -> u64 {
        self.stats.malformed_dropped
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
            wire::testing::assert_wire_contract(&Datagram::Whole(f));
        }
    }

    /// One whole frame, byte for byte: the magic (`b"DPU0"` as a varint),
    /// `src`, `dst`, the payload's length and the payload.
    #[test]
    fn whole_frame_wire_bytes() {
        let payload = Bytes::from_static(b"abc");
        let pinned = [0xb0, 0xaa, 0xc1, 0xa2, 0x04, 3, 12, 3, b'a', b'b', b'c'];
        let f = SockFrame { src: StackId(3), dst: StackId(12), payload: payload.clone() };
        wire::testing::assert_wire_bytes(&Datagram::Whole(f), &pinned);
        assert_eq!(FrameCodec::new().encode(StackId(3), StackId(12), &payload), pinned[..]);
    }

    fn piece(msg: u64, index: u32, count: u32, data: &'static [u8]) -> Piece {
        let data = Bytes::from_static(data);
        Piece { src: StackId(3), dst: StackId(12), msg, index, count, data }
    }

    /// One piece, byte for byte: the magic `b"DPU1"`, `src`, `dst`,
    /// `msg`, `index`, `count`, the data's length and the data.
    #[test]
    fn piece_wire_contract() {
        for data in [Bytes::new(), Bytes::from_static(b"chunk"), Bytes::from(vec![1u8; PIECE])] {
            let p = Piece { src: StackId(1), dst: StackId(300), msg: 77, index: 2, count: 9, data };
            wire::testing::assert_wire_contract(&Datagram::Piece(p));
        }
        let pinned = [0xb1, 0xaa, 0xc1, 0xa2, 0x04, 3, 12, 0xc8, 0x01, 1, 2, 1, b'z'];
        wire::testing::assert_wire_bytes(&Datagram::Piece(piece(200, 1, 2, b"z")), &pinned);
    }

    #[test]
    fn codec_encode_matches_owned_frame() {
        let mut codec = FrameCodec::new();
        let payload = Bytes::from_static(b"wire frame");
        let via_codec = codec.encode(StackId(1), StackId(2), &payload);
        let owned =
            Datagram::Whole(SockFrame { src: StackId(1), dst: StackId(2), payload }).to_bytes();
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
        let stats = FrameStats { encoded: 1, decoded: 1, ..FrameStats::default() };
        assert_eq!(codec.stats, stats);
    }

    #[test]
    fn bad_magic_is_a_counted_drop() {
        let mut codec = FrameCodec::new();
        let mut d = codec.encode(StackId(1), StackId(2), &Bytes::from_static(b"x")).to_vec();
        d[0] ^= 0xff; // clobber the magic
        assert!(codec.decode(&d).is_none());
        assert_eq!(codec.stats.malformed_dropped, 1);
    }

    /// The datagrams of a `len`-byte frame from `src` to 12, each byte its
    /// offset mod 251 xor `fill`.
    fn split(codec: &mut FrameCodec, src: u32, len: usize, fill: u8) -> (Bytes, Vec<Bytes>) {
        let payload: Bytes = (0..len).map(|i| (i % 251) as u8 ^ fill).collect::<Vec<u8>>().into();
        let datagrams = codec.datagrams(StackId(src), StackId(12), &payload).expect("sendable");
        let datagrams = datagrams.collect();
        (payload, datagrams)
    }

    /// What `decode` makes of each datagram in turn: the payloads of the
    /// frames that came out whole.
    fn feed<'a>(
        codec: &mut FrameCodec,
        datagrams: impl IntoIterator<Item = &'a Bytes>,
    ) -> Vec<Bytes> {
        datagrams.into_iter().filter_map(|d| codec.decode(d)).map(|f| f.payload).collect()
    }

    #[test]
    fn a_frame_over_a_piece_is_put_back_together_exactly() {
        for (len, count) in [(0, 1), (PIECE, 1), (PIECE + 1, 2), (2 * PIECE + 7, 3), (3 * PIECE, 3)]
        {
            let (mut tx, mut rx) = (FrameCodec::new(), FrameCodec::new());
            let (payload, datagrams) = split(&mut tx, 3, len, 0x5a);
            assert_eq!(datagrams.len(), count, "{len} bytes");
            assert!(datagrams.iter().all(|d| d.len() <= 65_507), "{len} bytes");
            let got = feed(&mut rx, &datagrams);
            assert_eq!(got, [payload], "{len} bytes");
            assert_eq!((tx.stats.encoded, rx.stats.decoded), (1, 1));
            assert_eq!(rx.stats.malformed_dropped, 0);
            assert!(rx.partials.is_empty());
        }
    }

    #[test]
    fn a_frame_over_max_pieces_is_not_sent() {
        let mut codec = FrameCodec::new();
        let payload = Bytes::from(vec![0u8; MAX_PIECES as usize * PIECE + 1]);
        assert!(codec.datagrams(StackId(1), StackId(2), &payload).is_none());
        assert_eq!(codec.stats.encoded, 0);
        let largest = payload.slice(1..);
        let sent = codec.datagrams(StackId(1), StackId(2), &largest).expect("MAX_PIECES pieces");
        assert_eq!(sent.count(), MAX_PIECES as usize);
    }

    #[test]
    fn interleaved_pairs_both_reassemble_and_a_pair_never_mixes_frames() {
        let (mut tx, mut rx) = (FrameCodec::new(), FrameCodec::new());
        let (a, a_dgrams) = split(&mut tx, 1, 2 * PIECE + 5, 1);
        let (b, b_dgrams) = split(&mut tx, 2, 3 * PIECE, 2);
        let mut both = Vec::new();
        for i in 0..3 {
            both.extend(a_dgrams.get(i));
            both.extend(b_dgrams.get(i));
        }
        assert_eq!(feed(&mut rx, both), [a.clone(), b]);
        // The same pair: a second frame's first piece drops the first frame.
        let (c, c_dgrams) = split(&mut tx, 1, PIECE + 9, 3);
        let mixed = [&a_dgrams[0], &c_dgrams[0], &a_dgrams[1], &c_dgrams[1], &a_dgrams[2]];
        // a0, then c0 (a0 dropped), then a1 (drops c0 and itself), c1, a2.
        assert_eq!(feed(&mut rx, mixed), Vec::<Bytes>::new());
        assert!(rx.partials.is_empty());
        assert_eq!(feed(&mut rx, &c_dgrams), [c]);
    }

    #[test]
    fn a_lost_piece_loses_only_its_frame() {
        let (mut tx, mut rx) = (FrameCodec::new(), FrameCodec::new());
        let frames: Vec<_> = (0..4).map(|i| split(&mut tx, 1, 2 * PIECE + 1, i)).collect();
        let mut wire = Vec::new();
        for (i, (_, datagrams)) in frames.iter().enumerate() {
            // Frame 1 loses its middle piece, frame 2 its last.
            let lost = [None, Some(1), Some(2), None][i];
            wire.extend((0..3).filter(|&k| Some(k) != lost).map(|k| &datagrams[k]));
        }
        assert_eq!(feed(&mut rx, wire), [frames[0].0.clone(), frames[3].0.clone()]);
        assert!(rx.partials.is_empty());
    }

    /// Frame A loses its pieces 1 and 2, frame B its piece 0: what is left
    /// is A0, B1, B2, and without the frame's number B1 would follow A0.
    #[test]
    fn pieces_of_two_frames_never_splice() {
        let (mut tx, mut rx) = (FrameCodec::new(), FrameCodec::new());
        let (_, a) = split(&mut tx, 1, 2 * PIECE + 1, 1);
        let (_, b) = split(&mut tx, 1, 2 * PIECE + 1, 2);
        assert_eq!(feed(&mut rx, [&a[0], &b[1], &b[2]]), Vec::<Bytes>::new());
        assert!(rx.partials.is_empty());
        assert_eq!(rx.stats.malformed_dropped, 0);
    }

    #[test]
    fn the_partials_bound_holds_under_pressure() {
        let mut rx = FrameCodec::new();
        let first = |src| Datagram::Piece(Piece { src: StackId(src), ..piece(0, 0, 2, b"ab") });
        for src in 0..=MAX_PARTIALS as u32 {
            assert!(rx.decode(&first(src).to_bytes()).is_none());
        }
        // The first piece past the bound dropped the oldest frame.
        assert_eq!(rx.partials.len(), MAX_PARTIALS);
        assert_eq!(rx.partials[0].src, StackId(1));
        let last = |src| Datagram::Piece(Piece { src: StackId(src), ..piece(0, 1, 2, b"c") });
        assert!(rx.decode(&last(0).to_bytes()).is_none());
        let done = rx.decode(&last(MAX_PARTIALS as u32).to_bytes()).expect("the newest completes");
        assert_eq!(done.payload, Bytes::from_static(b"abc"));
        assert_eq!(rx.partials.len(), MAX_PARTIALS - 1);
        let held: usize = rx.partials.iter().map(|p| p.payload.len()).sum();
        assert_eq!(held, 2 * (MAX_PARTIALS - 1));
    }

    #[test]
    fn a_piece_out_of_range_is_malformed() {
        let mut rx = FrameCodec::new();
        let long = Bytes::from(vec![0u8; PIECE + 1]);
        let bad = [
            piece(0, 0, 0, b"x"),
            piece(0, 0, 1, b"x"),
            piece(0, 0, MAX_PIECES + 1, b"x"),
            piece(0, 2, 2, b"x"),
            piece(0, 7, 3, b"x"),
            Piece { data: long, ..piece(0, 0, 2, b"") },
        ];
        for p in bad {
            assert!(rx.decode(&Datagram::Piece(p.clone()).to_bytes()).is_none(), "{p:?}");
        }
        assert_eq!(rx.stats.malformed_dropped, 6);
        assert!(rx.partials.is_empty());
    }

    #[test]
    fn junk_truncation_and_corruption_never_panic() {
        let mut codec = FrameCodec::new();
        let good = codec.encode(StackId(9), StackId(4), &Bytes::from(vec![0xabu8; 64]));
        let first_piece = Datagram::Piece(piece(5, 0, 3, &[0xcd; 64])).to_bytes();
        for d in [&good, &first_piece] {
            let before = codec.stats.malformed_dropped;
            // Every strict prefix must be a counted drop.
            for cut in 0..d.len() {
                assert!(codec.decode(&d[..cut]).is_none(), "{cut}-byte prefix decoded");
            }
            assert_eq!(codec.stats.malformed_dropped - before, d.len() as u64);
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
        // Single-byte corruptions of a valid frame and of a piece: decode
        // may succeed (payload bytes, a piece that starts a frame) or
        // drop, never panic.
        for d in [&good, &first_piece] {
            for i in 0..d.len() {
                let mut c = d.to_vec();
                c[i] ^= 0x80;
                let _ = codec.decode(&c);
            }
        }
        assert!(codec.stats.malformed_dropped >= (good.len() + first_piece.len()) as u64);
        assert!(codec.partials.len() <= MAX_PARTIALS);
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
