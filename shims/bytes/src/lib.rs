//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes) crate.
//!
//! The build environment has no access to a crates.io mirror, so the
//! workspace vendors a minimal, API-compatible subset of `bytes`: the
//! [`Bytes`] / [`BytesMut`] buffer types and the [`Buf`] / [`BufMut`]
//! read/write traits, exactly as used by the `dpu` wire codec and
//! protocol modules. Semantics match the real crate for this subset
//! (cheap clones and zero-copy `slice`/`split_to` via a shared
//! reference-counted backing buffer); swap in the real dependency by
//! pointing `[workspace.dependencies] bytes` back at crates.io.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::{Arc, LazyLock};

/// The backing buffer every empty [`Bytes`] shares, so making one is a
/// reference-count bump, not an allocation. This static keeps a handle of
/// its own: an empty `Bytes` is never unique, like the real crate's
/// static ones.
static EMPTY: LazyLock<Arc<Vec<u8>>> = LazyLock::new(|| Arc::new(Vec::new()));

/// A cheaply cloneable, immutable, contiguous slice of memory.
///
/// Internally an `Arc<Vec<u8>>` plus a `[start, end)` window, so `clone`,
/// [`Bytes::slice`] and [`Bytes::split_to`] are O(1) and share storage,
/// and [`BytesMut::freeze`] moves the buffer instead of copying it.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a new empty `Bytes`, sharing the one empty buffer.
    pub fn new() -> Bytes {
        Bytes { data: Arc::clone(&EMPTY), start: 0, end: 0 }
    }

    /// Creates a `Bytes` from a static slice (copied once here; the real
    /// crate borrows it, which callers cannot observe through this API).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from_vec(bytes.to_vec())
    }

    /// Creates a `Bytes` by copying the given slice.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_vec(data.to_vec())
    }

    #[inline]
    fn from_vec(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a new `Bytes` sharing storage, restricted to `range`
    /// (interpreted relative to this view).
    ///
    /// # Panics
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds (len {})",
            self.len()
        );
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }

    /// Splits off and returns the first `at` bytes, leaving `self` with
    /// the rest. Both halves share storage.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    #[inline]
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to({at}) out of bounds (len {})", self.len());
        let head = Bytes { data: Arc::clone(&self.data), start: self.start, end: self.start + at };
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at` on, leaving `self`
    /// with the first `at` bytes.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_off({at}) out of bounds (len {})", self.len());
        let tail = Bytes { data: Arc::clone(&self.data), start: self.start + at, end: self.end };
        self.end = self.start + at;
        tail
    }

    /// True if this handle is the only one referencing the backing
    /// buffer (mirrors the real crate's `is_unique`, bytes ≥ 1.8). A
    /// unique `Bytes` can be recovered into a `BytesMut` without copying
    /// via `TryFrom`.
    #[inline]
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from_vec(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from_vec(b.into_vec())
    }
}

impl From<BytesMut> for Bytes {
    fn from(m: BytesMut) -> Bytes {
        m.freeze()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    // The copy is unavoidable: an owned iterator cannot borrow `self`.
    #[allow(clippy::unnecessary_to_owned)]
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// A unique, growable byte buffer, convertible into [`Bytes`] with
/// [`BytesMut::freeze`].
///
/// Backed by an exclusively owned `Vec<u8>`, so writes are plain vector
/// appends with no uniqueness checks. `freeze` moves the vector behind
/// the [`Bytes`] `Arc` — the payload is never copied, only the small
/// reference-count header is allocated — and `TryFrom<Bytes>` moves it
/// back out when the `Bytes` is uniquely owned, which is what the
/// workspace's `WireScratch` steady-state buffer reuse relies on.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// Creates a new empty buffer.
    #[inline]
    pub fn new() -> BytesMut {
        BytesMut { vec: Vec::new() }
    }

    /// Creates a new empty buffer with at least `cap` bytes of capacity.
    #[inline]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { vec: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Number of bytes the buffer can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// True if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Reserves capacity for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional)
    }

    /// Clears the buffer, keeping its capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.vec.clear()
    }

    /// Shortens the buffer to `len` bytes; no-op if already shorter.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.vec.truncate(len)
    }

    /// Appends a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.vec.extend_from_slice(extend)
    }

    /// Converts the buffer into an immutable [`Bytes`]. The payload is
    /// moved, not copied; only the shared-ownership header is allocated.
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.vec)
    }

    /// Splits off and returns the first `at` bytes as a new buffer.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to({at}) out of bounds (len {})", self.len());
        let tail = self.vec.split_off(at);
        BytesMut { vec: std::mem::replace(&mut self.vec, tail) }
    }

    /// Splits off and returns all written bytes, leaving `self` empty
    /// (the real crate leaves `self` with the spare capacity; this shim's
    /// buffers are exclusive, so the capacity travels with the data).
    pub fn split(&mut self) -> BytesMut {
        BytesMut { vec: std::mem::take(&mut self.vec) }
    }
}

/// Recovers a `Bytes` into a mutable buffer **without copying the
/// payload**, when the `Bytes` is the sole owner of its backing storage.
/// Mirrors the real crate's `TryFrom<Bytes> for BytesMut` (bytes ≥ 1.4):
/// fails — returning the input unchanged — if other `Bytes` handles
/// still share the buffer.
impl TryFrom<Bytes> for BytesMut {
    type Error = Bytes;

    fn try_from(bytes: Bytes) -> Result<BytesMut, Bytes> {
        let Bytes { data, start, end } = bytes;
        match Arc::try_unwrap(data) {
            Ok(mut vec) => {
                vec.truncate(end);
                if start > 0 {
                    vec.drain(..start);
                }
                Ok(BytesMut { vec })
            }
            Err(data) => Err(Bytes { data, start, end }),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.vec), f)
    }
}

impl From<Vec<u8>> for BytesMut {
    #[inline]
    fn from(v: Vec<u8>) -> BytesMut {
        BytesMut { vec: v }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.vec.extend(iter)
    }
}

/// Read access to a buffer of bytes, consumed front to back.
///
/// Multi-byte integer reads are big-endian, matching the real crate.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// The current unconsumed bytes as a contiguous slice.
    fn chunk(&self) -> &[u8];

    /// Discards the next `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True if any bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    ///
    /// # Panics
    /// Panics if the buffer is empty.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let mut raw = [0u8; 2];
        self.copy_to_slice(&mut raw);
        u16::from_be_bytes(raw)
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        self.copy_to_slice(&mut raw);
        u32::from_be_bytes(raw)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        self.copy_to_slice(&mut raw);
        u64::from_be_bytes(raw)
    }

    /// Copies `dst.len()` bytes into `dst` and consumes them.
    ///
    /// # Panics
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "copy_to_slice past end of buffer");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance({cnt}) out of bounds (len {})", self.len());
        self.start += cnt;
    }
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let b = self.data[self.start];
        self.advance(1);
        b
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write access to a growable buffer of bytes.
///
/// Multi-byte integer writes are big-endian, matching the real crate.
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, n: u16) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, n: u64) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends all remaining bytes of `src`.
    fn put<B: Buf>(&mut self, mut src: B)
    where
        Self: Sized,
    {
        while src.has_remaining() {
            let n = src.chunk().len();
            self.put_slice(src.chunk());
            src.advance(n);
        }
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src)
    }
    #[inline]
    fn put_u8(&mut self, n: u8) {
        self.vec.push(n);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_u64(0x0708090a0b0c0d0e);
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 15);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_u32(), 0x03040506);
        assert_eq!(b.get_u64(), 0x0708090a0b0c0d0e);
        assert!(b.is_empty());
    }

    #[test]
    fn slice_and_split_share_storage() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[0, 1]);
        assert_eq!(b.as_ref(), &[2, 3, 4, 5]);
        let mid = b.slice(1..3);
        assert_eq!(mid.as_ref(), &[3, 4]);
        b.advance(1);
        assert_eq!(b.as_ref(), &[3, 4, 5]);
    }

    #[test]
    fn equality_across_forms() {
        let b = Bytes::from_static(b"ping");
        assert_eq!(b, Bytes::copy_from_slice(b"ping"));
        assert!(b.as_ref() == b"ping");
    }

    #[test]
    fn split_takes_written_bytes_and_leaves_empty() {
        let mut m = BytesMut::with_capacity(16);
        m.put_slice(b"abc");
        let head = m.split();
        assert_eq!(head.as_ref(), b"abc");
        assert!(m.is_empty());
    }

    #[test]
    fn try_from_reclaims_unique_buffers_only() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        let shared = b.clone();
        // Shared: reclaim fails and hands the Bytes back intact.
        let b = BytesMut::try_from(b).unwrap_err();
        assert_eq!(b.as_ref(), &[1, 2, 3, 4]);
        drop(shared);
        // Unique: reclaim succeeds without copying.
        let m = BytesMut::try_from(b).unwrap();
        assert_eq!(m.as_ref(), &[1, 2, 3, 4]);
    }

    #[test]
    fn try_from_respects_the_window() {
        let mut b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        drop(head); // b is now the unique owner, viewing 2..6
        let m = BytesMut::try_from(b).unwrap();
        assert_eq!(m.as_ref(), &[2, 3, 4, 5]);
    }

    #[test]
    fn empty_bytes_share_one_buffer_and_are_never_unique() {
        let (a, b) = (Bytes::new(), Bytes::default());
        assert!(Arc::ptr_eq(&a.data, &b.data), "two empty Bytes have storage of their own");
        assert!(a.is_empty() && !a.is_unique());
        assert!(BytesMut::try_from(a).is_err());
    }

    #[test]
    fn capacity_is_observable() {
        let m = BytesMut::with_capacity(64);
        assert!(m.capacity() >= 64);
    }
}
