//! The event scheduler behind [`crate::Sim`]: a hierarchical timing
//! wheel (calendar queue) keyed by coarse time buckets.
//!
//! # Why not one big heap
//!
//! The paper's evaluation stops at 7 machines; this workspace pushes the
//! same live-switch experiments to thousands of simulated nodes. At that
//! scale the global heap is the bottleneck: every pop pays an
//! `O(log E)` sift over *all* in-flight events — tens of thousands of
//! entries at n = 1024 — and every sift level moves a full-size event
//! payload (packets carry `Bytes`, actions carry boxed closures) through
//! cache-hostile strides. The per-node event queues (each stack's
//! timer table and inbox, with a single stamped wake/step entry per
//! node, from PR 2) already bound how many entries a node contributes;
//! what they feed deserves better than `O(log E)` per event.
//!
//! # The hierarchical timing wheel
//!
//! Three levels of `slots` buckets each (default 256), with level-0
//! bucket width [`SchedConfig::bucket`] (default 128 ns): level 0 spans
//! 32.8 µs, level 1 spans 8.4 ms, level 2 spans 2.15 s; the handful of
//! events beyond that sit in a small overflow heap. Pushing is `O(1)`:
//! compute the level whose current bucket range contains the deadline,
//! link the event's slab node at the head of that bucket's chain.
//! Popping serves the *current* level-0 bucket from a sorted `serving`
//! array, filled by walking the bucket's chain; when it empties, an
//! occupancy bitmap finds the next non-empty bucket, and crossing a
//! level boundary *cascades* the next coarser bucket down one level,
//! walking its chain and re-placing each key — each event is moved at
//! most twice before being served, so the amortized cost per event is
//! `O(1)` with small constants (24-byte key compares, `sort_unstable`
//! over a handful of same-bucket entries).
//!
//! A bucket is a singly linked list threaded through the queued events
//! themselves (Varghese & Lauck, "Hashed and Hierarchical Timing
//! Wheels", SOSP 1987): each slab node carries its `(time, seq)` key and
//! a `next` index, and a level holds one head index per bucket. No
//! bucket keeps capacity after it drains — a bucket costs four bytes
//! whatever it has held — and a served node goes onto the slab's free
//! chain through the same `next` field. Order inside a chain carries no
//! meaning: the serving sort and every re-placement read full keys.
//!
//! The level-0 width decides the constants: a bucket should hold only a
//! few events (so the serving sort stays trivial) while `slots³ × width`
//! still covers the protocol stack's timer range (rp2p retransmit
//! 20–100 ms, fd heartbeat/timeout 20/100 ms all live in level 2). The
//! 128 ns start keeps buckets near-singleton even with half a million
//! datagrams in flight (a WAN-sustained profile) and measured
//! best-or-equal across every profile swept; see `ARCHITECTURE.md` for
//! the sensitivity data. From there the width adapts, Brown-style: the
//! wheel tracks the average number of events per traversed level-0
//! bucket and, when it drifts outside `[0.5, 2]`, halves or doubles the
//! width and rebuilds. Resizing never changes the pop order — the wheel
//! is order-exact for *any* width — so this is purely a constant-factor
//! adaptation for event densities the starting width does not fit.
//!
//! # Determinism
//!
//! Events are totally ordered by `(time, seq)`, `seq` being the
//! simulator's global push counter. Wheel levels are *exactly* aligned
//! (one level-1 bucket is precisely 256 level-0 buckets), so a bucket
//! never mixes events from different coarser ranges, and the serving
//! array always holds the global minimum of the wheel; the overflow
//! head is compared by full key on every pop. The pop sequence is
//! therefore that of one global `(time, seq)` min-heap for *any*
//! bucket width and slot count — and so is every downstream decision
//! (RNG draws, trace contents, the golden fingerprint in
//! `tests/host_equivalence.rs`, recorded when the scheduler *was* one
//! global heap). `crates/sim/tests/sched_equiv.rs` property-tests the
//! wheel against such a heap as its reference model.

use dpu_core::time::{Dur, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scheduler geometry. The simulator builds every wheel with the
/// default; tests and the benchmark's kernels sweep it.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Starting level-0 bucket width, rounded up to a power of two of
    /// nanoseconds; the wheel adapts it as it runs (see the module
    /// docs). Default 128 ns.
    pub bucket: Dur,
    /// Buckets per wheel level; rounded up to a power of two, minimum
    /// 64. Three levels cover `bucket × slots³`. Default 256.
    pub buckets: usize,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig { bucket: Dur::nanos(128), buckets: 256 }
    }
}

/// "No node": the end of a chain, an empty bucket, an empty free list.
const NIL: u32 = u32::MAX;

/// One queued event: its `(at, seq)` key, the link to the next node of
/// its bucket chain (or of the free chain, once served), and its
/// payload.
struct Node<E> {
    at: Time,
    seq: u64,
    next: u32,
    ev: Option<E>,
}

/// The wheel's storage. Every queued event is a node here and every
/// wheel bucket is a chain of node indices through `next`, so a bucket
/// costs its head index whatever it has held; served nodes form the
/// free chain through the same field. The `serving` array and the two
/// heaps hold 24-byte `(Time, seq, index)` keys, so sorts and heap
/// sifts never move a payload.
struct Slab<E> {
    nodes: Vec<Node<E>>,
    /// Head of the free chain.
    free: u32,
}

impl<E> Slab<E> {
    fn new() -> Slab<E> {
        Slab { nodes: Vec::new(), free: NIL }
    }

    #[inline]
    fn insert(&mut self, at: Time, seq: u64, ev: E) -> u32 {
        let node = Node { at, seq, next: NIL, ev: Some(ev) };
        if self.free != NIL {
            let i = self.free;
            let slot = &mut self.nodes[i as usize];
            self.free = slot.next;
            *slot = node;
            return i;
        }
        if self.nodes.len() == self.nodes.capacity() {
            // Grow in 1/8 chunks instead of Vec's doubling: the slab
            // tracks the standing event population (a million stacks
            // hold millions of events), and doubling's up-to-100% slack
            // on 64-byte nodes is hundreds of bytes per stack. An eighth
            // keeps amortized O(1) growth with bounded dead capacity.
            let chunk = (self.nodes.len() / 8).max(32);
            self.nodes.reserve_exact(chunk);
        }
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    #[inline]
    fn remove(&mut self, i: u32) -> E {
        let node = &mut self.nodes[i as usize];
        node.next = self.free;
        self.free = i;
        node.ev.take().expect("live slab entry")
    }

    /// Link node `i` at the front of the chain starting at `head`.
    #[inline]
    fn link(&mut self, i: u32, head: &mut u32) {
        self.nodes[i as usize].next = *head;
        *head = i;
    }

    /// Unlink the front node of the chain starting at `head`; its key.
    #[inline]
    fn unlink(&mut self, head: &mut u32) -> Option<WheelKey> {
        let i = *head;
        let node = self.nodes.get(i as usize)?; // NIL is past the end
        *head = node.next;
        Some((node.at, node.seq, i))
    }
}

/// A wheel key: the deterministic order pair plus the payload's slab
/// index. `seq` is unique, so the index never participates in ordering
/// decisions.
type WheelKey = (Time, u64, u32);

/// One wheel level: `slots` bucket chains, each a head index into the
/// slab, plus an occupancy bitmap.
struct Level {
    heads: Vec<u32>,
    occ: Vec<u64>,
}

impl Level {
    fn new(slots: usize) -> Level {
        Level { heads: vec![NIL; slots], occ: vec![0u64; slots / 64] }
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Take bucket `slot`'s whole chain, leaving the bucket empty.
    #[inline]
    fn take(&mut self, slot: usize) -> u32 {
        self.occ[slot / 64] &= !(1u64 << (slot % 64));
        std::mem::replace(&mut self.heads[slot], NIL)
    }

    /// First occupied slot ≥ `from`, if any (scans never wrap: pushes
    /// always land strictly ahead of the cursor within a level).
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= self.heads.len() {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.occ[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == self.occ.len() {
                return None;
            }
            bits = self.occ[w];
        }
    }
}

/// A deterministic event scheduler: three-level hierarchical timing
/// wheel + overflow heap. See the module docs for structure and
/// invariants. Generic over the event payload so tests and benchmarks
/// can drive it with synthetic events.
pub struct Scheduler<E> {
    /// Number of queued events.
    len: usize,
    slab: Slab<E>,
    levels: Vec<Level>,
    /// Current level-0 bucket's keys, sorted *descending* and served
    /// from the back. Only ever filled by draining a bucket — never
    /// inserted into.
    serving: Vec<WheelKey>,
    /// Keys pushed *at or before* the serving bucket (immediate
    /// reschedules — the post-dispatch `NodeStep` pattern). A small
    /// min-heap: its keys all precede everything in the wheel levels,
    /// and it drains as fast as it fills.
    late: BinaryHeap<Reverse<WheelKey>>,
    /// Absolute level-0 bucket index of the serving bucket.
    cursor: u64,
    /// log2 of the level-0 bucket width in nanoseconds (the width is
    /// rounded to a power of two so bucket mapping is a shift, not a
    /// division — `place` maps every key up to four times).
    w_shift: u32,
    /// log2(slots per level).
    shift: u32,
    /// Slots per level minus one (mask).
    mask: u64,
    /// Keys in the three levels (excluding serving/late/overflow).
    in_levels: usize,
    /// Keys beyond the level-2 horizon.
    overflow: BinaryHeap<Reverse<WheelKey>>,
    /// Cached `overflow` head, so the per-pop comparison against the
    /// far future is a register compare, not a heap peek.
    overflow_min: Option<WheelKey>,
    /// Adaptive-width state (see the module docs): events served,
    /// serving refills, and level-0 buckets traversed since the last
    /// resize decision.
    served_events: u64,
    served_refills: u64,
    l0_advanced: u64,
    resizes: u64,
}

/// Resize decision cadence: evaluate the occupancy once this many
/// samples accumulate, counting both served events and serving-bucket
/// refills — so crowded wheels (few huge buckets) and sparse wheels
/// (many near-empty buckets) both reach a decision after a few thousand
/// operations.
const RESIZE_PERIOD: u64 = 4096;

/// Bounds on the adaptive level-0 bucket width: 2⁴ ns = 16 ns up to
/// 2²⁶ ns ≈ 67 ms (beyond that, three 256-slot levels span > 4000 years
/// of virtual time — no workload needs coarser buckets).
const MIN_W_SHIFT: u32 = 4;
const MAX_W_SHIFT: u32 = 26;

impl<E> Scheduler<E> {
    /// Build a scheduler. `_homes` is unused (the wheel is node-agnostic:
    /// per-node queues live in each node's `StackDriver`); it stays only
    /// because `benchmark/src/kernels.rs` names it, and ROADMAP item 7
    /// drops it.
    pub fn new(cfg: &SchedConfig, _homes: usize) -> Scheduler<E> {
        let slots = cfg.buckets.next_power_of_two().max(64);
        Scheduler {
            len: 0,
            slab: Slab::new(),
            levels: (0..3).map(|_| Level::new(slots)).collect(),
            serving: Vec::new(),
            late: BinaryHeap::new(),
            cursor: 0,
            w_shift: cfg.bucket.as_nanos().max(1).next_power_of_two().trailing_zeros(),
            shift: slots.trailing_zeros(),
            mask: (slots - 1) as u64,
            in_levels: 0,
            overflow: BinaryHeap::new(),
            overflow_min: None,
            served_events: 0,
            served_refills: 0,
            l0_advanced: 0,
            resizes: 0,
        }
    }

    /// Absolute level-0 bucket index of `t`.
    #[inline]
    fn bucket0(&self, t: Time) -> u64 {
        t.as_nanos() >> self.w_shift
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many adaptive bucket-width resizes the wheel has performed.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Queue event `ev` at `(at, seq)`. The caller owns the `seq`
    /// counter — keys must be unique.
    #[inline]
    pub fn push(&mut self, at: Time, seq: u64, ev: E) {
        self.len += 1;
        let idx = self.slab.insert(at, seq, ev);
        self.place((at, seq, idx));
    }

    fn place(&mut self, key: WheelKey) {
        let b0 = self.bucket0(key.0);
        if b0 <= self.cursor {
            self.late.push(Reverse(key));
            return;
        }
        // Exact level alignment: the key belongs to the finest level
        // whose current coarse bucket contains it.
        for l in 0..3u32 {
            if b0 >> (self.shift * (l + 1)) == self.cursor >> (self.shift * (l + 1)) {
                let slot = ((b0 >> (self.shift * l)) & self.mask) as usize;
                let level = &mut self.levels[l as usize];
                self.slab.link(key.2, &mut level.heads[slot]);
                level.mark(slot);
                self.in_levels += 1;
                return;
            }
        }
        if self.overflow_min.is_none_or(|m| key < m) {
            self.overflow_min = Some(key);
        }
        self.overflow.push(Reverse(key));
    }

    /// Refill `serving`/`late` from the wheel: advance to the next
    /// occupied level-0 bucket, cascading coarser levels across
    /// boundaries. On return, `serving ∪ late` (if non-empty) holds the
    /// earliest wheel keys; only the overflow heap can hold an earlier
    /// key.
    fn refill(&mut self) {
        debug_assert!(self.serving.is_empty() && self.late.is_empty());
        if self.in_levels == 0 {
            // Wheel empty: jump the cursor to the overflow's first
            // bucket and migrate its near span back into the levels.
            let Some(&Reverse(head)) = self.overflow.peek() else { return };
            self.cursor = self.bucket0(head.0);
            let horizon = self.cursor >> (3 * self.shift);
            while let Some(&Reverse(head)) = self.overflow.peek() {
                if self.bucket0(head.0) >> (3 * self.shift) != horizon {
                    break;
                }
                self.overflow.pop();
                self.place(head); // lands in `late` or a level
            }
            self.overflow_min = self.overflow.peek().map(|&Reverse(k)| k);
            // The cursor was set to the head's own bucket, so the head
            // necessarily landed in `late` — serveable immediately.
            debug_assert!(!self.late.is_empty());
            return;
        }
        loop {
            // A cascade (or the jump above) may have landed keys in
            // `late` already, in which case they are serveable now.
            if !self.late.is_empty() {
                return;
            }
            // Next occupied level-0 slot strictly after the cursor,
            // within the current level-1 bucket.
            let from = ((self.cursor & self.mask) + 1) as usize;
            if let Some(slot) = self.levels[0].next_occupied(from) {
                let prev = self.cursor;
                self.cursor = (self.cursor & !self.mask) | slot as u64;
                let mut chain = self.levels[0].take(slot);
                while let Some(key) = self.slab.unlink(&mut chain) {
                    self.serving.push(key);
                }
                self.in_levels -= self.serving.len();
                self.serving.sort_unstable_by(|a, b| b.cmp(a));
                // Occupancy sample for the adaptive width: events per
                // level-0 bucket traversed (cursor teleports across idle
                // gaps are clamped to one wheel span, so long-idle
                // queues read as sparse, not as division by a huge gap).
                self.served_events += self.serving.len() as u64;
                self.served_refills += 1;
                self.l0_advanced += (self.cursor - prev).min(self.mask + 1);
                return;
            }
            // Level 0 exhausted: cascade the next occupied coarser
            // bucket down and retry.
            if !self.cascade() {
                return; // wheel truly empty (only overflow remains)
            }
        }
    }

    /// Advance across the next level-1 (or level-2) boundary, draining
    /// one coarse bucket down a level. Returns false when no coarser
    /// bucket holds anything.
    fn cascade(&mut self) -> bool {
        for l in 1..3u32 {
            let cur = (self.cursor >> (self.shift * l)) & self.mask;
            let Some(slot) = self.levels[l as usize].next_occupied(cur as usize + 1) else {
                continue;
            };
            // Jump the cursor to the start of that coarse bucket…
            let coarse = ((self.cursor >> (self.shift * l)) & !self.mask) | slot as u64;
            self.cursor = coarse << (self.shift * l);
            // …and re-place its keys: they land one level finer (or in
            // `late`, for the bucket the cursor now points at).
            let mut chain = self.levels[l as usize].take(slot);
            while let Some(key) = self.slab.unlink(&mut chain) {
                self.in_levels -= 1;
                self.place(key);
            }
            return true;
        }
        false
    }

    /// Evaluate the occupancy window and, when the average number of
    /// events per traversed level-0 bucket left `[0.5, 2]`, halve or
    /// double the bucket width (Brown's calendar-queue resize rule,
    /// applied to the wheel's hierarchical layout) and re-place every
    /// parked key — including `serving` and `late`, so the resize is
    /// legal at any point and order-exactness is preserved by the
    /// re-placement itself. Pops served from `late` count as events
    /// with zero cursor advance: a wheel degenerated into its `late`
    /// heap (every event mapping to one huge bucket) reads as maximally
    /// crowded and shrinks its way back to real wheel operation.
    fn maybe_resize(&mut self) {
        let occupancy = self.served_events as f64 / self.l0_advanced.max(1) as f64;
        self.served_events = 0;
        self.served_refills = 0;
        self.l0_advanced = 0;
        let new_shift = if occupancy > 2.0 && self.w_shift > MIN_W_SHIFT {
            self.w_shift - 1 // crowded buckets: narrow them
        } else if occupancy < 0.5 && self.w_shift < MAX_W_SHIFT {
            self.w_shift + 1 // mostly-empty span: widen them
        } else {
            return;
        };
        // Re-anchor the cursor at the start of its current bucket and
        // re-place every key under the new width. Keys at or before the
        // new cursor land in `late`, which the pop path already merges.
        let floor_ns = self.cursor << self.w_shift;
        self.w_shift = new_shift;
        self.cursor = floor_ns >> new_shift;
        // Every parked key goes onto one chain first: placing straight
        // from a bucket could land a key in a bucket not yet walked.
        let mut all = NIL;
        for level in &mut self.levels {
            for head in &mut level.heads {
                while let Some(key) = self.slab.unlink(head) {
                    self.slab.link(key.2, &mut all);
                }
            }
            level.occ.fill(0);
        }
        let heaps = self.overflow.drain().chain(self.late.drain()).map(|Reverse(k)| k);
        for key in heaps.chain(self.serving.drain(..)) {
            self.slab.link(key.2, &mut all);
        }
        self.overflow_min = None;
        self.in_levels = 0;
        while let Some(key) = self.slab.unlink(&mut all) {
            self.place(key);
        }
        self.resizes += 1;
    }

    /// The earliest queued event's time without popping it — the
    /// parallel engine's epoch-floor probe (refills the serving window
    /// if necessary, which does not change pop order).
    pub fn next_time(&mut self) -> Option<Time> {
        if self.serving.is_empty() && self.late.is_empty() {
            self.refill();
        }
        let sk = self.serving.last().copied();
        let lk = self.late.peek().map(|&Reverse(k)| k);
        [sk, lk, self.overflow_min].into_iter().flatten().min().map(|k| k.0)
    }

    /// Pop the earliest event if it is due at or before `horizon`.
    /// Events come out in strict `(time, seq)` order.
    pub fn pop_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        let key = self.pop_key(horizon)?;
        self.len -= 1;
        Some((key.0, self.slab.remove(key.2)))
    }

    fn pop_key(&mut self, horizon: Time) -> Option<WheelKey> {
        if self.served_events + self.served_refills >= RESIZE_PERIOD {
            self.maybe_resize();
        }
        if self.serving.is_empty() && self.late.is_empty() {
            self.refill();
        }
        // Fast path — the dominant state: nothing late, nothing beyond
        // the wheel horizon, so the sorted serving array *is* the queue.
        if self.late.is_empty() && self.overflow_min.is_none() {
            let key = *self.serving.last()?;
            if key.0 > horizon {
                return None;
            }
            return self.serving.pop();
        }
        let sk = self.serving.last().copied();
        let lk = self.late.peek().map(|&Reverse(k)| k);
        // Three-way min: serving (current drained bucket), late
        // (immediate reschedules), overflow (cached far-future head).
        let min = [sk, lk, self.overflow_min].into_iter().flatten().min()?;
        if min.0 > horizon {
            return None;
        }
        if sk == Some(min) {
            self.serving.pop();
        } else if lk == Some(min) {
            self.late.pop();
            // Late-heap service is the degenerate regime the adaptive
            // width exists to escape: events, no bucket advance.
            self.served_events += 1;
        } else {
            self.overflow.pop();
            self.overflow_min = self.overflow.peek().map(|&Reverse(k)| k);
        }
        Some(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAR: Time = Time(u64::MAX);

    /// The reference model: one global min-heap over `(time, seq)` —
    /// what the simulator ran on before the wheel, and the order the
    /// wheel must reproduce exactly.
    #[derive(Default)]
    struct Heap(BinaryHeap<Reverse<(Time, u64, u64)>>);

    impl Heap {
        fn push(&mut self, at: Time, seq: u64, ev: u64) {
            self.0.push(Reverse((at, seq, ev)));
        }

        fn next_time(&self) -> Option<Time> {
            self.0.peek().map(|&Reverse((at, ..))| at)
        }

        fn pop_before(&mut self, horizon: Time) -> Option<(Time, u64)> {
            if self.next_time()? > horizon {
                return None;
            }
            self.0.pop().map(|Reverse((at, _, ev))| (at, ev))
        }

        fn drain(&mut self) -> Vec<(Time, u64)> {
            std::iter::from_fn(|| self.pop_before(FAR)).collect()
        }
    }

    fn drain<E>(s: &mut Scheduler<E>) -> Vec<(Time, E)> {
        let mut out = Vec::new();
        while let Some(e) = s.pop_before(FAR) {
            out.push(e);
        }
        out
    }

    #[test]
    fn wheel_agrees_with_heap_on_interleaved_pushes_and_pops() {
        let cfg = SchedConfig { bucket: Dur::micros(1), buckets: 64 };
        let mut a = Heap::default();
        let mut b = Scheduler::<u64>::new(&cfg, 4);
        // A deterministic pseudo-random schedule with ties, far timers,
        // zero-delay events and interleaved pops.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut popped = Vec::new();
        for round in 0..3000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = Time((x >> 33) % 2_000_000_000); // 0..2s: spans all levels
            a.push(t, round, round);
            b.push(t, round, round);
            if round % 3 == 0 {
                let pa = a.pop_before(Time(1_000_000_000));
                let pb = b.pop_before(Time(1_000_000_000));
                assert_eq!(pa, pb, "divergence at round {round}");
                popped.push(pa);
            }
        }
        assert_eq!(a.drain(), drain(&mut b));
        assert!(popped.iter().any(Option::is_some));
    }

    #[test]
    fn pop_order_is_time_then_seq() {
        let mut s = Scheduler::new(&SchedConfig::default(), 2);
        s.push(Time(100), 0, "a");
        s.push(Time(50), 1, "b");
        s.push(Time(100), 2, "c");
        s.push(Time(50), 3, "d");
        let order: Vec<&str> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "d", "a", "c"]);
    }

    #[test]
    fn pop_before_respects_horizon_and_resumes() {
        let mut s = Scheduler::new(&SchedConfig::default(), 1);
        s.push(Time(10), 0, 1);
        s.push(Time(20), 1, 2);
        assert_eq!(s.pop_before(Time(15)), Some((Time(10), 1)));
        assert_eq!(s.pop_before(Time(15)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_before(Time(25)), Some((Time(20), 2)));
        assert!(s.is_empty());
    }

    #[test]
    fn far_future_events_survive_idle_jumps() {
        // Events beyond the wheel horizon (overflow), popped after long
        // idle gaps, interleaved with new near-term pushes.
        let cfg = SchedConfig { bucket: Dur::micros(1), buckets: 64 };
        let mut s = Scheduler::new(&cfg, 2);
        s.push(Time::ZERO + Dur::secs(3600), 0, "hour");
        s.push(Time(5), 1, "now");
        assert_eq!(s.pop_before(FAR).unwrap().1, "now");
        assert_eq!(s.pop_before(FAR).unwrap().1, "hour");
        // Push something relative to the far-future region after the jump.
        s.push(Time::ZERO + Dur::secs(3600) + Dur::micros(1), 2, "later");
        assert_eq!(s.pop_before(FAR).unwrap().1, "later");
        assert!(s.is_empty());
    }

    #[test]
    fn same_bucket_late_pushes_keep_order() {
        // Events pushed into the *serving* bucket while it is being
        // drained must interleave by (time, seq).
        let cfg = SchedConfig { bucket: Dur::millis(1), buckets: 64 };
        let mut s = Scheduler::new(&cfg, 1);
        s.push(Time(500), 0, "a");
        s.push(Time(900), 1, "c");
        assert_eq!(s.pop_before(FAR).unwrap().1, "a");
        // Now inside bucket 0's serving phase: push an earlier-time and
        // a same-time entry.
        s.push(Time(700), 2, "b");
        s.push(Time(900), 3, "d");
        let order: Vec<&str> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["b", "c", "d"]);
    }

    /// Drive a pathological density through an adaptive wheel and the
    /// reference heap in lockstep; the pop streams must match exactly
    /// and the wheel must actually have resized in the given direction.
    fn adaptive_agrees_with_heap(start_bucket: Dur, spacing_ns: u64) -> u64 {
        let cfg = SchedConfig { bucket: start_bucket, buckets: 64 };
        let mut heap = Heap::default();
        let mut wheel = Scheduler::<u64>::new(&cfg, 1);
        // Steady-state pop/push at a fixed event spacing: enough
        // traffic to cross several resize evaluation windows.
        let mut seq = 0u64;
        for i in 0..64u64 {
            heap.push(Time(i * spacing_ns), seq, i);
            wheel.push(Time(i * spacing_ns), seq, i);
            seq += 1;
        }
        for _ in 0..60_000u64 {
            let a = heap.pop_before(FAR).expect("heap nonempty");
            let b = wheel.pop_before(FAR).expect("wheel nonempty");
            assert_eq!(a, b, "adaptive wheel diverged from the reference heap");
            let t = Time(a.0.as_nanos() + 64 * spacing_ns);
            heap.push(t, seq, a.1);
            wheel.push(t, seq, a.1);
            seq += 1;
        }
        assert_eq!(heap.drain(), drain(&mut wheel));
        wheel.resizes()
    }

    #[test]
    fn adaptive_wheel_narrows_crowded_buckets_without_reordering() {
        // 1 ms buckets, events every 50 ns: ~20k events per bucket.
        let resizes = adaptive_agrees_with_heap(Dur::millis(1), 50);
        assert!(resizes >= 3, "crowded buckets must shrink, got {resizes} resizes");
    }

    #[test]
    fn adaptive_wheel_widens_sparse_buckets_without_reordering() {
        // 16 ns buckets, events every 40 µs: occupancy ~0.0004.
        let resizes = adaptive_agrees_with_heap(Dur::nanos(16), 40_000);
        assert!(resizes >= 3, "sparse buckets must widen, got {resizes} resizes");
    }

    #[test]
    fn next_time_peeks_without_consuming() {
        let mut s = Scheduler::new(&SchedConfig::default(), 1);
        assert_eq!(s.next_time(), None);
        s.push(Time(70), 0, "a");
        s.push(Time(30), 1, "b");
        s.push(Time::ZERO + Dur::secs(3600), 2, "far");
        assert_eq!(s.next_time(), Some(Time(30)));
        assert_eq!(s.next_time(), Some(Time(30)), "peek must not consume");
        assert_eq!(s.pop_before(FAR), Some((Time(30), "b")));
        assert_eq!(s.next_time(), Some(Time(70)));
        s.pop_before(FAR);
        assert_eq!(s.next_time(), Some(Time::ZERO + Dur::secs(3600)), "overflow");
        s.pop_before(FAR);
        assert_eq!(s.next_time(), None);
    }

    #[test]
    fn a_served_node_is_reused_not_grown() {
        // 64 slots of 1 µs: level 0 spans 64 µs, level 1 4.1 ms, level 2
        // 262 ms; the spread below reaches all three and the overflow.
        let cfg = SchedConfig { bucket: Dur::micros(1), buckets: 64 };
        let mut s = Scheduler::new(&cfg, 1);
        const N: u64 = 1_000;
        let mut seq = 0;
        let mut fill = |s: &mut Scheduler<u64>, from: Time| {
            for i in 0..N {
                let at = from + Dur::nanos(i * i * i * 300);
                s.push(at, seq, i);
                seq += 1;
            }
        };
        fill(&mut s, Time::ZERO);
        let grown = s.slab.nodes.capacity();
        let now = drain(&mut s).last().unwrap().0;
        fill(&mut s, now);
        assert_eq!(s.slab.nodes.capacity(), grown, "the free chain lost served nodes");
        assert_eq!(drain(&mut s).len() as u64, N);
        assert!(s.levels.iter().all(|l| l.heads.iter().all(|&h| h == NIL)));
    }

    #[test]
    fn cascades_across_all_levels_preserve_order() {
        // Entries at every level of a tiny wheel (64 slots: L0 64µs,
        // L1 4.1ms, L2 262ms, overflow beyond ~16.8s at 1µs buckets).
        let cfg = SchedConfig { bucket: Dur::micros(1), buckets: 64 };
        let mut s = Scheduler::new(&cfg, 1);
        let times = [
            3u64,
            63,                 // L0 edge
            64,                 // first slot beyond L0
            4_000,              // L1
            4_095,              // L1 edge
            260_000,            // L2
            300_000,            // next L2 bucket
            20_000_000,         // deep L2
            600_000_000_000u64, // overflow (600s)
        ];
        // Push out of order.
        for (i, &t) in times.iter().rev().enumerate() {
            s.push(Time(t * 1_000), i as u64, t);
        }
        let got: Vec<u64> = drain(&mut s).into_iter().map(|(_, e)| e).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
