//! A small self-contained binary wire codec.
//!
//! All inter-module payloads and all network messages in the workspace are
//! encoded with this codec. It is a length-aware, varint-based format:
//!
//! * unsigned integers use LEB128 varints;
//! * signed integers use zigzag + varint;
//! * `String`, `Vec<T>`, `Bytes` are length-prefixed;
//! * a struct is its fields in order, and an enum a `u32` tag followed by
//!   the variant's fields.
//!
//! A frame or parameter type declares its layout once, as a list of its
//! fields in wire order given to [`wire_codec!`](crate::wire_codec), which
//! writes `encode`, `encoded_len` and `decode` from that one list. Written
//! by hand are only the codecs that list cannot say: `dpu-repl`'s `Coord`
//! (its round is computed from the tag, 2k − 1 and 2k),
//! [`ProbeMsg`](crate::probe::ProbeMsg) (a magic prefix, checked on
//! decode), and the borrowed views that write a window or a nested frame
//! forward (`dpu-net`'s `udp::Arrived`, `DgramRef`, `DgramManyRef` and
//! `sockframe`'s `Out`). A magic that tells one layout from another is an
//! enum's tag: `sockframe::Datagram`'s two variants are a whole frame and
//! a piece of one.
//!
//! The codec exists because the offline dependency set contains `serde` but
//! no serde *format* crate; a direct `Encode`/`Decode` pair is smaller and
//! gives us exact message sizes for the simulator's bandwidth model.
//!
//! # Steady-state allocation-free encoding
//!
//! The wire format is **frozen** (the golden trace in
//! `tests/host_equivalence.rs` pins it byte for byte), but the *path* that
//! produces those bytes is built to avoid per-message allocation:
//!
//! * [`Encode::encoded_len`] reports the exact encoded size before any
//!   byte is written, so buffers are sized once and nested length
//!   prefixes are written *forward* — no intermediate buffer per layer;
//! * [`LenPrefixed`] wraps a value so it encodes as `uvarint(len)` +
//!   `encoding`, byte-identical to encoding `value.to_bytes()` as a
//!   [`Bytes`] field, letting a whole nested frame be written into one
//!   buffer;
//! * [`WireScratch`] is a reusable buffer pool: each host shard owns one
//!   and lends it to the stack it drives (a bare stack makes its own),
//!   and in steady state every emitted message reclaims the backing
//!   buffer of an earlier message whose consumers have dropped it — zero
//!   new backing allocations ([`ScratchStats`] counts them).
//!
//! Decoding is zero-copy: [`Bytes`] fields borrow the input buffer
//! (`split_to` is a pointer advance on the shared backing storage), and
//! `String` fields validate UTF-8 on the borrowed slice before the single
//! unavoidable allocation. Length prefixes are validated against the
//! remaining input *before* any allocation, so malformed frames cannot
//! trigger huge `with_capacity` calls.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Error produced when decoding malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A varint ran over its maximum width.
    VarintOverflow,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// An enum tag was not recognised by the decoder.
    BadTag(u32),
    /// A length prefix was implausibly large for the remaining input.
    BadLength(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::VarintOverflow => write!(f, "varint overflow"),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::BadTag(t) => write!(f, "unrecognised enum tag {t}"),
            WireError::BadLength(n) => write!(f, "implausible length prefix {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Decoding result.
pub type WireResult<T> = Result<T, WireError>;

/// A value that can be written to the wire.
pub trait Encode {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Exact number of bytes [`Encode::encode`] will append.
    ///
    /// The contract `encoded_len() == encode(..).len()` is what allows
    /// forward length-prefix writing ([`LenPrefixed`]) and exact buffer
    /// sizing ([`WireScratch`]); it is property-tested for every message
    /// type in the workspace.
    fn encoded_len(&self) -> usize;

    /// Encode into a fresh, frozen buffer, sized exactly.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Encode through a reusable [`WireScratch`]; in steady state this
    /// reuses the backing buffer of an earlier message instead of
    /// allocating. The bytes produced are identical to
    /// [`Encode::to_bytes`].
    fn encode_into(&self, scratch: &mut WireScratch) -> Bytes
    where
        Self: Sized,
    {
        scratch.encode(self)
    }
}

/// Blanket impl: a reference encodes exactly like its referent.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

/// A value that can be read back from the wire.
pub trait Decode: Sized {
    /// Consume the encoding of `Self` from the front of `buf`.
    fn decode(buf: &mut Bytes) -> WireResult<Self>;

    /// Decode from a standalone buffer, requiring it to be fully consumed.
    fn from_bytes(bytes: &Bytes) -> WireResult<Self> {
        let mut buf = bytes.clone();
        let v = Self::decode(&mut buf)?;
        if buf.has_remaining() {
            return Err(WireError::BadLength(buf.remaining() as u64));
        }
        Ok(v)
    }
}

/// Exact number of bytes [`put_uvarint`] writes for `v`.
#[inline]
pub const fn uvarint_len(v: u64) -> usize {
    // ceil(significant_bits / 7), with 0 occupying one byte.
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Read a length prefix and validate it against the remaining input
/// **before any allocation**. Every encoded element (and every raw byte)
/// occupies at least one input byte, so a genuine length can never exceed
/// `buf.remaining()`; anything larger is a malformed frame and fails
/// here, before a `with_capacity` could be asked for gigabytes.
#[inline]
pub(crate) fn get_length_prefix(buf: &mut Bytes) -> WireResult<usize> {
    let len = get_uvarint(buf)?;
    if len > buf.remaining() as u64 {
        return Err(WireError::BadLength(len));
    }
    Ok(len as usize)
}

/// Write an unsigned LEB128 varint.
#[inline]
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    // Fast path: the overwhelming share of fields (tags, ids, channels,
    // lengths) fit one byte.
    if v < 0x80 {
        buf.put_u8(v as u8);
        return;
    }
    // Staged in a stack array so the buffer is touched exactly once.
    let mut tmp = [0u8; 10];
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            tmp[n] = byte;
            n += 1;
            break;
        }
        tmp[n] = byte | 0x80;
        n += 1;
    }
    buf.put_slice(&tmp[..n]);
}

/// Read an unsigned LEB128 varint.
///
/// Parses over the buffer's contiguous slice and advances the cursor
/// *once* — an offset-window decode, instead of a bounds-checked
/// refcounted-cursor operation per byte. This is the hot inner loop of
/// batch decoding (every tag, id, and length prefix passes through
/// here), so the one-byte case is kept branch-minimal.
#[inline]
pub(crate) fn get_uvarint(buf: &mut Bytes) -> WireResult<u64> {
    let s: &[u8] = buf.chunk();
    let Some(&first) = s.first() else {
        return Err(WireError::Truncated);
    };
    if first < 0x80 {
        buf.advance(1);
        return Ok(u64::from(first));
    }
    let mut v: u64 = u64::from(first & 0x7f);
    let mut shift = 7u32;
    let mut n = 1usize;
    loop {
        let Some(&byte) = s.get(n) else {
            return Err(WireError::Truncated);
        };
        n += 1;
        if shift == 63 && byte > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            buf.advance(n);
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(WireError::VarintOverflow);
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

macro_rules! impl_uint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                put_uvarint(buf, u64::from(*self));
            }
            fn encoded_len(&self) -> usize {
                uvarint_len(u64::from(*self))
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut Bytes) -> WireResult<Self> {
                let v = get_uvarint(buf)?;
                <$ty>::try_from(v).map_err(|_| WireError::VarintOverflow)
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

impl Encode for usize {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let v = get_uvarint(buf)?;
        usize::try_from(v).map_err(|_| WireError::VarintOverflow)
    }
}

impl Encode for i64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, zigzag(*self));
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(zigzag(*self))
    }
}

impl Decode for i64 {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(unzigzag(get_uvarint(buf)?))
    }
}

/// The parameters of a module kind that takes none: no bytes.
impl Encode for () {
    fn encode(&self, _: &mut BytesMut) {}
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Decode for () {
    fn decode(_: &mut Bytes) -> WireResult<Self> {
        Ok(())
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        Ok(buf.get_u8() != 0)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.len()
    }
}

impl Decode for String {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let len = get_length_prefix(buf)?;
        // Validate and copy from the borrowed window, then advance the
        // cursor once — no intermediate `split_to` handle, so the only
        // allocation is the final owned copy of a known-valid string.
        let owned = match std::str::from_utf8(&buf.chunk()[..len]) {
            Ok(s) => s.to_owned(),
            Err(_) => return Err(WireError::InvalidUtf8),
        };
        buf.advance(len);
        Ok(owned)
    }
}

impl Encode for str {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.len()
    }
}

impl Encode for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        buf.put_slice(self);
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Bytes {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let len = get_length_prefix(buf)?;
        // Zero-copy: a window into the shared backing buffer.
        Ok(buf.split_to(len))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        // Each element takes at least one byte on the wire, so the length
        // check bounds the allocation below by the input size. The list
        // is allocated once, at its length: collecting `Result`s would
        // start from a size hint of 0 and grow by doubling.
        let len = get_length_prefix(buf)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Encode + Ord> Encode for BTreeSet<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let len = get_length_prefix(buf)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        uvarint_len(self.len() as u64)
            + self.iter().map(|(k, v)| k.encoded_len() + v.encoded_len()).sum::<usize>()
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let len = get_length_prefix(buf)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(WireError::BadTag(u32::from(t))),
        }
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, buf: &mut BytesMut) {
                $(self.$idx.encode(buf);)+
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(buf: &mut Bytes) -> WireResult<Self> {
                Ok(($($name::decode(buf)?,)+))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// The id and time newtypes encode as the number they wrap.
macro_rules! impl_newtype {
    ($($ty:path),*) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                self.0.encode(buf);
            }
            fn encoded_len(&self) -> usize {
                self.0.encoded_len()
            }
        }
        impl Decode for $ty {
            fn decode(buf: &mut Bytes) -> WireResult<Self> {
                Ok(Self(Decode::decode(buf)?))
            }
        }
    )*};
}

impl_newtype!(crate::ids::StackId, crate::ids::Channel, crate::time::Time, crate::time::Dur);

/// Implements [`Encode`] and [`Decode`] for a type from one list of its
/// fields in wire order: the one place its layout is written.
///
/// * `wire_codec!(RbMsg { origin, seq, data })`: a struct is its fields,
///   in the order listed.
/// * `wire_codec!(enum Frame { 0 => Req { data }, 1 => Ack(seq), 2 => Nack })`:
///   an enum is the variant's `u32` tag, then that variant's fields in the
///   order listed; struct, tuple and unit variants alike. An unknown tag
///   decodes as [`WireError::BadTag`].
///
/// Decoding reads the fields in the order listed, each field's type
/// inferred from the type's declaration. The invoking crate depends on
/// `bytes`, as every crate with a wire type does.
#[macro_export]
macro_rules! wire_codec {
    (enum $ty:ident {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })? $(( $($pos:ident),* $(,)? ))?),+ $(,)?
    }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($pos),* ))? => {
                        $crate::wire::put_uvarint(buf, $tag);
                        $($($crate::wire::Encode::encode($field, buf);)*)?
                        $($($crate::wire::Encode::encode($pos, buf);)*)?
                    })+
                }
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($pos),* ))? => {
                        $crate::wire::uvarint_len($tag)
                            $($(+ $crate::wire::Encode::encoded_len($field))*)?
                            $($(+ $crate::wire::Encode::encoded_len($pos))*)?
                    })+
                }
            }
        }
        impl $crate::wire::Decode for $ty {
            fn decode(buf: &mut ::bytes::Bytes) -> $crate::wire::WireResult<Self> {
                Ok(match <u32 as $crate::wire::Decode>::decode(buf)? {
                    $($tag => {
                        $($(let $field = $crate::wire::Decode::decode(buf)?;)*)?
                        $($(let $pos = $crate::wire::Decode::decode(buf)?;)*)?
                        Self::$variant $({ $($field),* })? $(( $($pos),* ))?
                    })+
                    t => return Err($crate::wire::WireError::BadTag(t)),
                })
            }
        }
    };
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Encode for $ty {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                $($crate::wire::Encode::encode(&self.$field, buf);)*
            }
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::Encode::encoded_len(&self.$field))*
            }
        }
        impl $crate::wire::Decode for $ty {
            fn decode(buf: &mut ::bytes::Bytes) -> $crate::wire::WireResult<Self> {
                Ok(Self { $($field: $crate::wire::Decode::decode(buf)?),* })
            }
        }
    };
}

/// Encodes its referent behind a forward-written length prefix:
/// `uvarint(encoded_len)` followed by the encoding itself.
///
/// This is byte-identical to encoding `value.to_bytes()` as a [`Bytes`]
/// field, which is how layered frames used to be built — each layer
/// encoding into a fresh buffer that the next layer copied. Wrapping the
/// inner value in `LenPrefixed` instead writes the whole nested structure
/// into one buffer in a single pass. The receiver still decodes the field
/// as [`Bytes`] (zero-copy) and peels it with `from_bytes`.
pub struct LenPrefixed<'a, T: Encode + ?Sized>(pub &'a T);

impl<T: Encode + ?Sized> Encode for LenPrefixed<'_, T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.0.encoded_len() as u64);
        self.0.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        let inner = self.0.encoded_len();
        uvarint_len(inner as u64) + inner
    }
}

/// Counters of one [`WireScratch`] pool. Defined once, in
/// `dpu-telemetry` (as `WireCounters`, the type
/// [`crate::telemetry::TelemetryReport::wire`] carries), so a report
/// folds pool counters without converting them.
pub use dpu_telemetry::WireCounters as ScratchStats;

/// Largest message a [`WireScratch`] will retain for reclaim. Messages
/// above this (jumbo batches) allocate per emission instead, so one
/// burst of huge messages cannot fill the pool's byte budget with a few
/// jumbo buffers for the process lifetime.
const SCRATCH_RETAIN_MAX_BYTES: usize = 64 * 1024;

/// Entry budget of a pool. A pool serves *every* stack of a shard, so at
/// soak rates the newest few hundred emissions are all still in flight
/// (delivery latency × shard message rate); the pool must be deep enough
/// that the *oldest* retained entries have had time to be consumed and
/// become reclaimable, or every encode degrades to a fresh allocation.
const POOL_ENTRIES: usize = 1024;

/// Total byte budget of a pool — the actual capacity knob (the entry
/// budget is a backstop against byte-tiny floods). 1 MB per shard is
/// 16 MB per 16-shard host, independent of stack count.
const POOL_BYTES: usize = 1 << 20;

/// How many entries (oldest first) a pool scans per encode. Oldest
/// entries are the most likely to be unique again, so the expected hit
/// is at index ~0; the cap keeps the worst case (a burst pinning
/// everything) O(1) per encode instead of O(pool depth).
const POOL_SCAN: usize = 32;

/// A reusable encode-buffer pool: the steady-state allocation-free path.
///
/// `encode` sizes the buffer exactly via [`Encode::encoded_len`], writes
/// the message, and hands out the frozen [`Bytes`] while *retaining a
/// clone* of it. On a later `encode`, any retained buffer whose consumers
/// have dropped their handles is reclaimed (`BytesMut::try_from(Bytes)`,
/// which succeeds only for a unique owner) and reused — so once traffic
/// reaches a steady state, no new backing buffers are allocated.
///
/// One budget, a shard's: one pool per host shard, loaned to whichever
/// stack is being driven (see [`crate::host::ShardPools`]), so retained
/// encode memory scales with *shards*, not with total stacks. It retains
/// up to 1 024 entries and 1 MB, and a reclaim scans the oldest 32. A
/// stack nobody lends to (a bare one), a codec or a benchmark kernel
/// makes a pool of its own with the same budget. The pool is
/// single-threaded and needs no locking.
pub struct WireScratch {
    retained: VecDeque<Bytes>,
    /// Incremental Σ len over `retained` — keeps [`WireScratch::mem_bytes`]
    /// O(1), which matters now that stacks sample it per packet.
    retained_bytes: usize,
    stats: ScratchStats,
}

impl Default for WireScratch {
    fn default() -> WireScratch {
        WireScratch::new()
    }
}

impl WireScratch {
    /// An empty pool.
    pub fn new() -> WireScratch {
        WireScratch { retained: VecDeque::new(), retained_bytes: 0, stats: ScratchStats::default() }
    }

    /// Pool counters so far.
    pub fn stats(&self) -> ScratchStats {
        self.stats
    }

    /// Bytes currently pinned by the pool's retained buffer handles
    /// (an upper bound on what reclaim can recover; the buffers may be
    /// co-owned by in-flight messages) — the `scratch_occupancy`
    /// telemetry sample. O(1).
    pub fn mem_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Encode `value`, reusing a reclaimed buffer when one is free.
    /// The produced bytes are identical to [`Encode::to_bytes`].
    pub fn encode<T: Encode + ?Sized>(&mut self, value: &T) -> Bytes {
        let len = value.encoded_len();
        let mut buf = self.take_buffer(len);
        value.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "encoded_len() disagrees with encode()");
        let out = buf.freeze();
        if len <= SCRATCH_RETAIN_MAX_BYTES {
            self.retained.push_back(out.clone());
            self.retained_bytes += len;
            while self.retained.len() > POOL_ENTRIES || self.retained_bytes > POOL_BYTES {
                let dropped = self.retained.pop_front().expect("non-empty while over budget");
                self.retained_bytes -= dropped.len();
            }
        }
        self.stats.emitted += 1;
        out
    }

    /// A cleared buffer with capacity for `len` bytes: a reclaimed one if
    /// a retained handle within the scan window is uniquely owned again,
    /// else a fresh one. Still-shared entries are skipped with a cheap
    /// refcount peek (`Bytes::is_unique`), not moved around. The scan
    /// runs oldest-first: the older an emission, the likelier its
    /// consumers have dropped their handles.
    fn take_buffer(&mut self, len: usize) -> BytesMut {
        for i in 0..self.retained.len().min(POOL_SCAN) {
            if !self.retained[i].is_unique() {
                continue;
            }
            let candidate = self.retained.remove(i).expect("index in range");
            self.retained_bytes -= candidate.len();
            let Ok(mut buf) = BytesMut::try_from(candidate) else {
                // Unreachable for a single-threaded pool, but harmless.
                break;
            };
            if buf.capacity() < len {
                self.stats.allocations += 1;
            } else {
                self.stats.reclaimed += 1;
            }
            buf.clear();
            buf.reserve(len);
            return buf;
        }
        self.stats.allocations += 1;
        BytesMut::with_capacity(len)
    }
}

impl fmt::Debug for WireScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireScratch")
            .field("retained", &self.retained.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Encode a value into a frozen buffer (convenience free function).
pub fn to_bytes<T: Encode>(value: &T) -> Bytes {
    value.to_bytes()
}

/// Decode a value from a frozen buffer, requiring full consumption.
pub fn from_bytes<T: Decode>(bytes: &Bytes) -> WireResult<T> {
    T::from_bytes(bytes)
}

/// Wire-contract checking helpers, shared by every crate's codec tests.
/// Hidden from docs: test support, not API.
#[doc(hidden)]
pub mod testing {
    use super::*;

    /// Assert the full wire contract for one value of `T`:
    ///
    /// 1. `encoded_len() == encode(..).len()` (forward sizing is exact);
    /// 2. decode ∘ encode roundtrips at the byte level (checked by
    ///    re-encoding, so `T` needs no `PartialEq`);
    /// 3. decoding any strict prefix fails with an error — never panics,
    ///    never fabricates a value (every varint and length prefix is
    ///    validated against the remaining input);
    /// 4. decoding single-byte corruptions never panics.
    pub fn assert_wire_contract<T: Encode + Decode>(value: &T) {
        let bytes = to_bytes(value);
        assert_eq!(value.encoded_len(), bytes.len(), "encoded_len() != encode().len()");
        let scratch_bytes = WireScratch::new().encode(value);
        assert_eq!(scratch_bytes, bytes, "scratch encode differs from to_bytes");
        let back = T::from_bytes(&bytes).expect("roundtrip decode failed");
        assert_eq!(to_bytes(&back), bytes, "re-encoding the decoded value changed the bytes");
        for cut in 0..bytes.len() {
            let prefix = bytes.slice(..cut);
            assert!(T::from_bytes(&prefix).is_err(), "decode of {cut}-byte prefix succeeded");
        }
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut corrupt = bytes.to_vec();
                corrupt[i] ^= flip;
                // Must return (Ok or Err) — never panic, never overflow.
                let _ = T::from_bytes(&Bytes::from(corrupt));
            }
        }
    }

    /// Assert that `value` encodes to exactly `bytes` — the frozen layout
    /// of its type, written out — and the full [`assert_wire_contract`].
    pub fn assert_wire_bytes<T: Encode + Decode>(value: &T, bytes: &[u8]) {
        assert_eq!(to_bytes(value).as_ref(), bytes, "the encoding moved");
        assert_wire_contract(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let b = to_bytes(&v);
        let back: T = from_bytes(&b).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn uvarint_boundaries() {
        for v in [0u64, 1, 127, 128, 255, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_uvarint(&mut b).unwrap(), v);
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn uvarint_single_byte_for_small_values() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 100);
        assert_eq!(buf.len(), 1);
        put_uvarint(&mut buf, 200);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let mut b = Bytes::from_static(&[0x80]);
        assert_eq!(get_uvarint(&mut b), Err(WireError::Truncated));
        let empty = Bytes::new();
        assert_eq!(u32::from_bytes(&empty), Err(WireError::Truncated));
    }

    #[test]
    fn varint_overflow_is_an_error() {
        let mut b =
            Bytes::from_static(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(get_uvarint(&mut b), Err(WireError::VarintOverflow));
    }

    #[test]
    fn narrowing_rejects_oversized_values() {
        let wide = to_bytes(&(300u64));
        assert_eq!(u8::from_bytes(&wide), Err(WireError::VarintOverflow));
        let ok = to_bytes(&(250u64));
        assert_eq!(u8::from_bytes(&ok), Ok(250u8));
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(42u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(String::from("hello κόσμος"));
        roundtrip(String::new());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u32, String::from("x"), false));
        roundtrip(BTreeSet::from([3u64, 1, 2]));
        roundtrip(BTreeMap::from([(1u32, String::from("a")), (2, String::from("b"))]));
        roundtrip(Bytes::from_static(b"payload"));
    }

    #[test]
    fn nested_containers() {
        roundtrip(vec![vec![1u64, 2], vec![], vec![3]]);
        roundtrip(Some(vec![(1u32, true), (2, false)]));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&buf.freeze()), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 1_000_000);
        buf.put_u8(0);
        assert!(matches!(Vec::<u8>::from_bytes(&buf.freeze()), Err(WireError::BadLength(_))));
    }

    #[test]
    fn trailing_garbage_rejected_by_from_bytes() {
        let mut buf = BytesMut::new();
        7u32.encode(&mut buf);
        buf.put_u8(9); // trailing garbage
        assert!(matches!(u32::from_bytes(&buf.freeze()), Err(WireError::BadLength(1))));
    }

    #[test]
    fn option_bad_tag_rejected() {
        let b = Bytes::from_static(&[7]);
        assert_eq!(Option::<u8>::from_bytes(&b), Err(WireError::BadTag(7)));
    }

    /// What every scratch encode must leave true.
    fn check_pool(pool: &WireScratch) {
        assert!(pool.retained.len() <= POOL_ENTRIES);
        assert!(pool.retained_bytes <= POOL_BYTES);
        assert_eq!(pool.retained_bytes, pool.retained.iter().map(Bytes::len).sum::<usize>());
        assert_eq!(pool.stats.emitted, pool.stats.reclaimed + pool.stats.allocations);
    }

    #[test]
    fn scratch_encodes_to_bytes_and_stays_within_budget() {
        // Consumers hold every message for a while — long enough that
        // small messages fill the entry budget and large ones the byte
        // budget before the oldest become reclaimable.
        let mut pool = WireScratch::new();
        let mut in_flight = VecDeque::new();
        let (mut most_entries, mut most_bytes) = (0, 0);
        let mut x = 7u64;
        for i in 0..6_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (len, window) = match i / 2_000 {
                0 => (x >> 60, 1_500),         // < 16 B
                1 => (4_096 + (x >> 52), 300), // 4–8 KB
                _ => (x >> 47, 40),            // up to 128 KB: half are never retained
            };
            let value = (i, Bytes::from(vec![i as u8; len as usize]));
            let out = pool.encode(&value);
            assert_eq!(out, value.to_bytes(), "scratch encode differs from to_bytes");
            check_pool(&pool);
            most_entries = most_entries.max(pool.retained.len());
            most_bytes = most_bytes.max(pool.retained_bytes);
            in_flight.push_back(out);
            in_flight.drain(..in_flight.len().saturating_sub(window));
        }
        assert!(pool.stats.reclaimed > 0, "nothing was ever reused");
        assert_eq!(most_entries, POOL_ENTRIES, "the entry budget never bound");
        assert!(most_bytes > POOL_BYTES - 8_300, "the byte budget never bound");
    }

    #[test]
    fn scratch_scan_stops_at_its_window() {
        // Reclaim looks at the oldest POOL_SCAN entries only: with all of
        // them still in flight nothing is reclaimed, however many younger
        // entries are free; with one fewer, the first free one is.
        for (pinned, reclaims) in [(POOL_SCAN, false), (POOL_SCAN - 1, true)] {
            let mut pool = WireScratch::new();
            let in_flight: Vec<Bytes> = (0..pinned as u64).map(|i| pool.encode(&!i)).collect();
            for i in 0..200u64 {
                assert_eq!(pool.encode(&!i), (!i).to_bytes());
                check_pool(&pool);
            }
            assert_eq!(pool.stats.reclaimed > 0, reclaims, "{pinned} oldest entries in flight");
            drop(in_flight);
        }
    }

    #[test]
    fn stack_id_and_time_roundtrip() {
        roundtrip(crate::ids::StackId(5));
        roundtrip(crate::time::Time(123_456_789));
        roundtrip(crate::time::Dur(987_654_321));
        assert_eq!(to_bytes(&crate::time::Dur::nanos(300)), to_bytes(&300u64));
    }

    #[test]
    fn a_decoded_vec_is_allocated_once_at_its_length() {
        let ids: Vec<_> = (0..9).map(crate::ids::StackId).collect();
        let back: Vec<crate::ids::StackId> = from_bytes(&to_bytes(&ids)).expect("decode");
        assert_eq!(back, ids);
        assert_eq!(back.capacity(), 9);
    }

    struct Pair {
        a: u32,
        b: String,
    }
    crate::wire_codec!(Pair { a, b });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Named { x: u64, y: Bytes },
        Tuple(u8, bool),
        Unit,
    }
    crate::wire_codec!(enum Shape { 0 => Named { x, y }, 3 => Tuple(p, q), 7 => Unit });

    #[test]
    fn wire_codec_writes_fields_in_order_behind_the_tag() {
        let pair = Pair { a: 300, b: "hi".into() };
        testing::assert_wire_bytes(&pair, &[0xac, 0x02, 2, b'h', b'i']);
        let named = Shape::Named { x: 1, y: Bytes::from_static(b"z") };
        testing::assert_wire_bytes(&named, &[0, 1, 1, b'z']);
        testing::assert_wire_bytes(&Shape::Tuple(9, true), &[3, 9, 1]);
        testing::assert_wire_bytes(&Shape::Unit, &[7]);
        assert_eq!(Shape::from_bytes(&to_bytes(&5u32)), Err(WireError::BadTag(5)));
    }
}
