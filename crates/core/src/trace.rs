//! Trace recording: every structurally relevant event of a run (calls,
//! responses, bindings, module lifecycle, crashes) is appended to a
//! [`TraceLog`], which the property checkers in [`crate::props`] consume.

use crate::ids::{ModuleId, ServiceId, StackId};
use crate::module::Op;
use crate::time::Time;

/// One structurally relevant event observed during a run.
///
/// Events carry the stack on which they occurred and the virtual time.
/// Payloads are intentionally *not* recorded: the generic DPU properties of
/// the paper (§3) are about the structure of interactions, not their
/// content. Protocol-specific checkers (e.g. [`crate::abcast_check`]) keep
/// their own records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A module called a service that was bound: the call was dispatched
    /// immediately.
    Call {
        /// Stack on which the call happened.
        stack: StackId,
        /// Called service.
        service: ServiceId,
        /// Operation invoked.
        op: Op,
        /// Calling module.
        from: ModuleId,
        /// Provider module the call was dispatched to.
        to: ModuleId,
    },
    /// A module called a service with no bound provider: the call was
    /// queued (it *blocks* in the paper's terminology). Violates *strong*
    /// stack-well-formedness; allowed under *weak* iff a bind eventually
    /// releases it.
    BlockedCall {
        /// Stack on which the call happened.
        stack: StackId,
        /// Called (unbound) service.
        service: ServiceId,
        /// Operation invoked.
        op: Op,
        /// Calling module.
        from: ModuleId,
    },
    /// A previously blocked call was released by a bind.
    ReleasedCall {
        /// Stack on which the call resumed.
        stack: StackId,
        /// Service that became bound.
        service: ServiceId,
        /// Operation invoked.
        op: Op,
        /// Original calling module.
        from: ModuleId,
    },
    /// A provider responded on a service.
    Response {
        /// Stack on which the response happened.
        stack: StackId,
        /// Responding service.
        service: ServiceId,
        /// Operation of the response.
        op: Op,
        /// Provider module (may already be unbound — the paper allows a
        /// module to respond after unbinding).
        from: ModuleId,
        /// Number of local modules the response was delivered to.
        fanout: usize,
    },
    /// A module was bound to a service.
    Bind {
        /// Stack on which the binding changed.
        stack: StackId,
        /// Bound service.
        service: ServiceId,
        /// Newly bound module.
        module: ModuleId,
    },
    /// A service was unbound.
    Unbind {
        /// Stack on which the binding changed.
        stack: StackId,
        /// Unbound service.
        service: ServiceId,
        /// Module that was bound before.
        module: ModuleId,
    },
    /// A module was created and inserted into a stack.
    ModuleCreated {
        /// Stack that created the module.
        stack: StackId,
        /// Fresh module id.
        module: ModuleId,
        /// Module kind (protocol identity across stacks).
        kind: Box<str>,
    },
    /// A module was destroyed and removed from a stack.
    ModuleDestroyed {
        /// Stack that destroyed the module.
        stack: StackId,
        /// Destroyed module id.
        module: ModuleId,
        /// Module kind.
        kind: Box<str>,
    },
    /// The stack crashed (injected by the host). No further events occur
    /// on a crashed stack.
    Crash {
        /// Crashed stack.
        stack: StackId,
    },
}

impl TraceEvent {
    /// The stack this event belongs to.
    pub fn stack(&self) -> StackId {
        match self {
            TraceEvent::Call { stack, .. }
            | TraceEvent::BlockedCall { stack, .. }
            | TraceEvent::ReleasedCall { stack, .. }
            | TraceEvent::Response { stack, .. }
            | TraceEvent::Bind { stack, .. }
            | TraceEvent::Unbind { stack, .. }
            | TraceEvent::ModuleCreated { stack, .. }
            | TraceEvent::ModuleDestroyed { stack, .. }
            | TraceEvent::Crash { stack } => *stack,
        }
    }
}

/// A running digest of an append-only sequence: how many items it has
/// had, and a hash chain over them. Two sequences are the same iff their
/// chains are equal (up to a 64-bit collision), in O(1) state — what a
/// [`TraceLog`] keeps of every entry ever pushed and a
/// [`crate::probe::Probe`] of its delivery order. Items of one chain must
/// be self-delimiting: fixed width, or led by a tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Chain {
    /// Items folded in so far.
    pub len: u64,
    /// The hash chain over them.
    pub head: u64,
}

impl Chain {
    /// Append one item, given as the words that identify it.
    #[inline]
    pub fn fold(&mut self, item: &[u64]) {
        for &word in item {
            self.head = mix(self.head ^ word);
        }
        self.len += 1;
    }

    /// Append a whole sequence, given as its chain: `part`'s items are
    /// counted and pinned, in the order the parts are joined.
    pub fn join(&mut self, part: Chain) {
        self.head = mix(mix(self.head ^ part.len) ^ part.head);
        self.len += part.len;
    }
}

/// A bijection on words (odd multiply, xor-shift), so one changed word
/// always changes the head it is folded into.
#[inline]
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// One word for a name: FNV-1a over its bytes, never the interned
/// handle's address.
#[inline]
fn name_word(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

impl TraceEvent {
    /// The entry as the fixed-width item a [`Chain`] folds: time, then
    /// variant, op and stack in one word, service (or kind) name, and the
    /// two remaining fields.
    fn words(&self, t: Time) -> [u64; 5] {
        let head =
            |tag: u64, stack: &StackId, op: Op| tag | u64::from(op) << 8 | u64::from(stack.0) << 32;
        let svc = |service: &ServiceId| name_word(service.name());
        let [tag, name, a, b] = match self {
            TraceEvent::Call { stack, service, op, from, to } => {
                [head(0, stack, *op), svc(service), from.0, to.0]
            }
            TraceEvent::BlockedCall { stack, service, op, from } => {
                [head(1, stack, *op), svc(service), from.0, 0]
            }
            TraceEvent::ReleasedCall { stack, service, op, from } => {
                [head(2, stack, *op), svc(service), from.0, 0]
            }
            TraceEvent::Response { stack, service, op, from, fanout } => {
                [head(3, stack, *op), svc(service), from.0, *fanout as u64]
            }
            TraceEvent::Bind { stack, service, module } => {
                [head(4, stack, 0), svc(service), module.0, 0]
            }
            TraceEvent::Unbind { stack, service, module } => {
                [head(5, stack, 0), svc(service), module.0, 0]
            }
            TraceEvent::ModuleCreated { stack, module, kind } => {
                [head(6, stack, 0), name_word(kind), module.0, 0]
            }
            TraceEvent::ModuleDestroyed { stack, module, kind } => {
                [head(7, stack, 0), name_word(kind), module.0, 0]
            }
            TraceEvent::Crash { stack } => [head(8, stack, 0), 0, 0, 0],
        };
        [t.as_nanos(), tag, name, a, b]
    }
}

/// One log entry: when, and what.
type Entry = (Time, TraceEvent);

// A traced run is mostly these entries (one per call and per response),
// so their size is pinned: a service name is one word and a module kind
// two, and a field that pushes the largest variant past 32 bytes costs
// every traced stack a fifth of its memory.
const _: () = assert!(std::mem::size_of::<ServiceId>() == 8);
const _: () = assert!(std::mem::size_of::<Entry>() == 40);

/// Entries per storage segment (160 KiB of 40-byte entries): small
/// enough that a log's unused tail is noise next to what it holds, large
/// enough that the segment table of a multi-million-entry log stays a
/// few kilobytes.
const SEGMENT: usize = 4096;

/// A time-stamped trace of [`TraceEvent`]s, ordered by append time.
///
/// One log typically aggregates the events of *all* stacks of a run (the
/// simulator interleaves them deterministically), which is what the remote
/// property — protocol-operationability — needs.
///
/// Storage is a table of segments, so a log costs what it holds rather
/// than the next power of two above it: the first segment grows
/// geometrically up to the segment size (a small trace stays small),
/// every later one is allocated whole, and an entry once pushed is never
/// copied again. A disabled log allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Non-empty segments in append order; all but the last are full.
    segments: Vec<Vec<Entry>>,
    enabled: bool,
    /// Whether some entry is earlier than its predecessor. Hosts push in
    /// time order, so this stays `false` outside hand-built logs; it is
    /// what lets [`TraceLog::merge`] stream instead of sort.
    unsorted: bool,
    /// Every entry ever pushed, folded where it happened; a merged log's
    /// chain joins its parts' in merge order.
    chain: Chain,
}

impl TraceLog {
    /// A log that records events.
    pub fn new() -> TraceLog {
        TraceLog { enabled: true, ..TraceLog::default() }
    }

    /// A log that drops events (zero-overhead for benchmarks).
    pub fn disabled() -> TraceLog {
        TraceLog::default()
    }

    /// Whether this log keeps events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event at time `t`.
    pub fn push(&mut self, t: Time, ev: TraceEvent) {
        if self.enabled {
            self.chain.fold(&ev.words(t));
            self.append((t, ev));
        }
    }

    fn append(&mut self, entry: Entry) {
        let tail = self.segments.last();
        self.unsorted |= tail.and_then(|s| s.last()).is_some_and(|(t, _)| entry.0 < *t);
        if tail.is_none_or(|s| s.len() == s.capacity()) {
            self.grow();
        }
        self.segments.last_mut().expect("grow leaves a segment with room").push(entry);
    }

    /// Make room for one more entry at the tail.
    #[cold]
    fn grow(&mut self) {
        match self.segments.last_mut() {
            // A segment short of `SEGMENT` (the first one, or the tail of
            // a clone) doubles, which copies it; a full one is left alone.
            Some(short) if short.capacity() < SEGMENT => {
                short.reserve_exact(short.capacity().min(SEGMENT - short.capacity()));
            }
            Some(_) => self.segments.push(Vec::with_capacity(SEGMENT)),
            None => self.segments.push(Vec::with_capacity(4)),
        }
    }

    /// All recorded events in append order.
    pub fn events(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.segments.iter().flatten()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Structural bytes held: every segment at its capacity plus the
    /// segment table (event-internal strings are not walked) — at most
    /// one segment more than `len()` entries' worth. Tracing is usually
    /// the dominant per-stack cost when enabled, which is why capacity
    /// runs disable it.
    pub fn mem_bytes(&self) -> usize {
        let entries: usize = self.segments.iter().map(Vec::capacity).sum();
        entries * std::mem::size_of::<Entry>()
            + self.segments.capacity() * std::mem::size_of::<Vec<Entry>>()
    }

    /// Append all events of `other` (e.g. to merge per-stack logs). The
    /// result is re-sorted by time, preserving append order for equal
    /// times (and this log's entries before `other`'s).
    ///
    /// A stable sort of a concatenation is the stable merge of its two
    /// stably sorted halves, so two time-ordered logs — what hosts
    /// produce — are merged in one streaming pass that frees this log's
    /// old segments as it consumes them; an out-of-order side is sorted
    /// first.
    pub fn merge(&mut self, other: &TraceLog) {
        self.chain.join(other.chain);
        self.merge_entries(other);
    }

    fn merge_entries(&mut self, other: &TraceLog) {
        if other.unsorted {
            let mut sorted = other.clone();
            sorted.sort();
            return self.merge_entries(&sorted);
        }
        if self.unsorted {
            self.sort();
        }
        let mut mine = std::mem::take(&mut self.segments).into_iter().flatten().peekable();
        let mut theirs = other.events().peekable();
        loop {
            let entry = match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) if b.0 < a.0 => theirs.next().cloned(),
                (Some(_), _) => mine.next(),
                (None, _) => theirs.next().cloned(),
            };
            let Some(entry) = entry else { break };
            self.append(entry);
        }
    }

    /// Stable sort by time (only hand-built logs ever need it).
    fn sort(&mut self) {
        let mut all: Vec<Entry> =
            std::mem::take(&mut self.segments).into_iter().flatten().collect();
        all.sort_by_key(|(t, _)| *t);
        self.unsorted = false;
        for entry in all {
            self.append(entry);
        }
    }

    /// FNV-1a over the debug rendering of every `(time, event)` pair —
    /// the construction every equivalence suite pins runs with
    /// (`tests/host_equivalence.rs` golden fingerprint,
    /// `crates/sim/tests/{sched,par}_equiv.rs`). Stable across
    /// platforms: no pointers and no nondeterministically ordered maps
    /// feed the rendering.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for (t, e) in self.events() {
            for b in format!("{}|{:?}\n", t.as_nanos(), e).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }

    /// The digest of every entry pushed, folded at `push` from the
    /// entry's field values — for one stack's log, the head of its
    /// chain; for a merged log, the parts' chains joined in merge order
    /// (which pins what the time-sorted stream did: the per-stack streams
    /// determine the merge).
    pub fn digest(&self) -> u64 {
        self.chain.head
    }

    /// Entries ever pushed, over all merged parts.
    pub fn pushed(&self) -> u64 {
        self.chain.len
    }

    /// Iterate over events of a single stack.
    pub fn for_stack(&self, stack: StackId) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.events().filter(move |(_, e)| e.stack() == stack)
    }

    /// The set of stacks that crashed in this trace.
    pub fn crashed_stacks(&self) -> std::collections::BTreeSet<StackId> {
        self.events()
            .filter_map(|(_, e)| match e {
                TraceEvent::Crash { stack } => Some(*stack),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bind(stack: u32, svc: &str, m: u64) -> TraceEvent {
        TraceEvent::Bind {
            stack: StackId(stack),
            service: ServiceId::new(svc),
            module: ModuleId(m),
        }
    }

    #[test]
    fn push_and_query() {
        let mut log = TraceLog::new();
        log.push(Time(1), bind(0, "p", 1));
        log.push(Time(2), bind(1, "p", 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.for_stack(StackId(0)).count(), 1);
        assert_eq!(log.for_stack(StackId(1)).count(), 1);
        assert_eq!(log.for_stack(StackId(2)).count(), 0);
    }

    #[test]
    fn disabled_log_drops_events() {
        let mut log = TraceLog::disabled();
        log.push(Time(1), bind(0, "p", 1));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = TraceLog::new();
        a.push(Time(5), bind(0, "p", 1));
        let mut b = TraceLog::new();
        b.push(Time(2), bind(1, "p", 2));
        a.merge(&b);
        let times: Vec<Time> = a.events().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![Time(2), Time(5)]);
    }

    /// The layout the segments replaced — one flat vector, sorted whole
    /// on merge — kept here as the reference model.
    #[derive(Clone, Default)]
    struct Model(Vec<(Time, TraceEvent)>);

    impl Model {
        fn merge(&mut self, other: &Model) {
            self.0.extend_from_slice(&other.0);
            self.0.sort_by_key(|(t, _)| *t);
        }

        fn fingerprint(&self) -> u64 {
            let mut h: u64 = 0xcbf29ce484222325;
            for (t, e) in &self.0 {
                for b in format!("{}|{:?}\n", t.as_nanos(), e).bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100000001b3);
                }
            }
            h
        }
    }

    /// `len` pushes into a log and the model alike. Module ids count up
    /// from `first_id`, so every entry is distinguishable; times repeat
    /// often (ties), and either never decrease or jump about.
    fn fill(len: usize, first_id: u64, in_order: bool, rng: &mut u64) -> (TraceLog, Model) {
        let mut next = || {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng
        };
        let (mut log, mut model) = (TraceLog::new(), Model::default());
        let mut t = 0;
        for i in 0..len as u64 {
            t = if in_order { t + next() % 2 } else { next() % 50 };
            let ev = bind((next() % 3) as u32, "p", first_id + i);
            log.push(Time(t), ev.clone());
            model.0.push((Time(t), ev));
        }
        (log, model)
    }

    fn assert_matches_model(log: &TraceLog, model: &Model) {
        assert_eq!(log.len(), model.0.len());
        assert_eq!(log.is_empty(), model.0.is_empty());
        assert!(log.events().eq(model.0.iter()), "iteration order differs at len {}", log.len());
        assert_eq!(log.fingerprint(), model.fingerprint());
        for stack in 0..3 {
            let expected = model.0.iter().filter(|(_, e)| e.stack() == StackId(stack));
            assert!(log.for_stack(StackId(stack)).eq(expected));
        }
        // Pays for what it holds: at most one segment, and the table
        // that lists the segments, beyond the entries themselves.
        let entry = std::mem::size_of::<Entry>();
        let table = log.segments.capacity() * std::mem::size_of::<Vec<Entry>>();
        assert!(
            log.mem_bytes() <= (log.len() + SEGMENT) * entry + table,
            "{} entries hold {} B",
            log.len(),
            log.mem_bytes()
        );
    }

    #[test]
    fn random_pushes_and_merges_match_the_flat_vector_model() {
        let mut rng = 0x9E3779B97F4A7C15;
        let lens =
            [0, 1, 3, 4, 5, 100, SEGMENT - 1, SEGMENT, SEGMENT + 1, 2 * SEGMENT, 2 * SEGMENT + 7];
        for (i, &len) in lens.iter().enumerate() {
            for in_order in [true, false] {
                let (log, model) = fill(len, 0, in_order, &mut rng);
                assert_matches_model(&log, &model);
                // Merge with a log of another boundary length, both ways
                // round and with either side out of order: ties must
                // keep append order, this log's entries first.
                let other_len = lens[(i + 3) % lens.len()];
                for other_in_order in [true, false] {
                    let (other, other_model) = fill(other_len, 1 << 32, other_in_order, &mut rng);
                    let (mut merged, mut merged_model) = (log.clone(), model.clone());
                    merged.merge(&other);
                    merged_model.merge(&other_model);
                    assert_matches_model(&merged, &merged_model);
                    // A merged log keeps taking pushes and merges.
                    merged.push(Time(7), bind(0, "q", 1));
                    merged_model.0.push((Time(7), bind(0, "q", 1)));
                    merged.merge(&log);
                    merged_model.merge(&model);
                    assert_matches_model(&merged, &merged_model);
                }
            }
        }
    }

    #[test]
    fn a_small_trace_stays_small_and_a_disabled_one_allocates_nothing() {
        let mut rng = 1;
        let (log, _) = fill(5, 0, true, &mut rng);
        assert!(log.mem_bytes() <= 16 * std::mem::size_of::<Entry>());
        let mut off = TraceLog::disabled();
        for i in 0..3 * SEGMENT as u64 {
            off.push(Time(i), bind(0, "p", i));
        }
        assert_eq!(off.mem_bytes(), 0);
        assert_eq!(off.segments.capacity(), 0);
    }

    #[test]
    fn the_digest_tells_every_field_of_every_variant_apart() {
        let (s, t) = (StackId(3), StackId(4));
        let (p, q) = (ServiceId::new("p"), ServiceId::new("q"));
        let (m, n) = (ModuleId(1), ModuleId(2));
        use TraceEvent::*;
        // Each variant, then the same with one field changed at a time.
        let events = vec![
            Call { stack: s, service: p, op: 0, from: m, to: n },
            Call { stack: t, service: p, op: 0, from: m, to: n },
            Call { stack: s, service: q, op: 0, from: m, to: n },
            Call { stack: s, service: p, op: 1, from: m, to: n },
            Call { stack: s, service: p, op: 0, from: n, to: n },
            Call { stack: s, service: p, op: 0, from: m, to: m },
            BlockedCall { stack: s, service: p, op: 0, from: m },
            BlockedCall { stack: t, service: p, op: 0, from: m },
            BlockedCall { stack: s, service: q, op: 0, from: m },
            BlockedCall { stack: s, service: p, op: 1, from: m },
            BlockedCall { stack: s, service: p, op: 0, from: n },
            ReleasedCall { stack: s, service: p, op: 0, from: m },
            ReleasedCall { stack: t, service: p, op: 0, from: m },
            ReleasedCall { stack: s, service: q, op: 0, from: m },
            ReleasedCall { stack: s, service: p, op: 1, from: m },
            ReleasedCall { stack: s, service: p, op: 0, from: n },
            Response { stack: s, service: p, op: 0, from: m, fanout: 2 },
            Response { stack: t, service: p, op: 0, from: m, fanout: 2 },
            Response { stack: s, service: q, op: 0, from: m, fanout: 2 },
            Response { stack: s, service: p, op: 1, from: m, fanout: 2 },
            Response { stack: s, service: p, op: 0, from: n, fanout: 2 },
            Response { stack: s, service: p, op: 0, from: m, fanout: 1 },
            Bind { stack: s, service: p, module: m },
            Bind { stack: t, service: p, module: m },
            Bind { stack: s, service: q, module: m },
            Bind { stack: s, service: p, module: n },
            Unbind { stack: s, service: p, module: m },
            Unbind { stack: t, service: p, module: m },
            Unbind { stack: s, service: q, module: m },
            Unbind { stack: s, service: p, module: n },
            ModuleCreated { stack: s, module: m, kind: "k".into() },
            ModuleCreated { stack: t, module: m, kind: "k".into() },
            ModuleCreated { stack: s, module: n, kind: "k".into() },
            ModuleCreated { stack: s, module: m, kind: "l".into() },
            ModuleDestroyed { stack: s, module: m, kind: "k".into() },
            ModuleDestroyed { stack: t, module: m, kind: "k".into() },
            ModuleDestroyed { stack: s, module: n, kind: "k".into() },
            ModuleDestroyed { stack: s, module: m, kind: "l".into() },
            Crash { stack: s },
            Crash { stack: t },
        ];
        let digest_of = |entries: &[(Time, TraceEvent)]| {
            let mut log = TraceLog::new();
            for (t, e) in entries {
                log.push(*t, e.clone());
            }
            assert_eq!(log.pushed(), entries.len() as u64);
            log.digest()
        };
        let mut seen = std::collections::BTreeSet::new();
        for e in &events {
            for t in [Time(5), Time(6)] {
                assert!(seen.insert(digest_of(&[(t, e.clone())])), "{e:?} at {t:?} collides");
            }
        }
        // Order and repetition count; equal pushes agree, whichever
        // handle named the service.
        let (a, b) = ((Time(1), events[0].clone()), (Time(1), events[22].clone()));
        assert_ne!(digest_of(&[a.clone(), b.clone()]), digest_of(&[b.clone(), a.clone()]));
        assert_ne!(digest_of(&[a.clone(), a.clone()]), digest_of(std::slice::from_ref(&a)));
        let again = Call { stack: s, service: ServiceId::new("p"), op: 0, from: m, to: n };
        assert_eq!(digest_of(&[a.clone(), b.clone()]), digest_of(&[(Time(1), again), b]));
    }

    #[test]
    fn a_merged_digest_joins_its_parts_in_merge_order() {
        let part = |stack, times: &[u64]| {
            let mut log = TraceLog::new();
            for &t in times {
                log.push(Time(t), bind(stack, "p", t));
            }
            log
        };
        let (a, b) = (part(0, &[1, 4]), part(1, &[2, 3, 9]));
        let merged = |parts: &[&TraceLog]| {
            let mut m = TraceLog::new();
            for p in parts {
                m.merge(p);
            }
            (m.pushed(), m.digest())
        };
        assert_eq!(merged(&[&a, &b]), merged(&[&a.clone(), &b.clone()]));
        assert_eq!(merged(&[&a, &b]).0, 5);
        assert_ne!(merged(&[&a, &b]).1, merged(&[&b, &a]).1);
        // One entry moved from one part to the other: same time-sorted
        // stream of times, different parts, different digest.
        assert_ne!(merged(&[&a, &b]).1, merged(&[&part(0, &[1, 4]), &part(1, &[2, 3, 8])]).1);
        // A disabled part pushes nothing and still takes its place.
        let mut off = TraceLog::disabled();
        off.push(Time(1), bind(2, "p", 1));
        assert_eq!(merged(&[&a, &off, &b]).0, 5);
    }

    #[test]
    fn crashed_stacks_collects_crashes() {
        let mut log = TraceLog::new();
        log.push(Time(1), TraceEvent::Crash { stack: StackId(2) });
        log.push(Time(2), TraceEvent::Crash { stack: StackId(4) });
        let crashed = log.crashed_stacks();
        assert!(crashed.contains(&StackId(2)));
        assert!(crashed.contains(&StackId(4)));
        assert_eq!(crashed.len(), 2);
    }

    #[test]
    fn event_stack_accessor_covers_all_variants() {
        let s = StackId(3);
        let svc = ServiceId::new("p");
        let evs = vec![
            TraceEvent::Call { stack: s, service: svc, op: 0, from: ModuleId(1), to: ModuleId(2) },
            TraceEvent::BlockedCall { stack: s, service: svc, op: 0, from: ModuleId(1) },
            TraceEvent::ReleasedCall { stack: s, service: svc, op: 0, from: ModuleId(1) },
            TraceEvent::Response { stack: s, service: svc, op: 0, from: ModuleId(1), fanout: 2 },
            TraceEvent::Bind { stack: s, service: svc, module: ModuleId(1) },
            TraceEvent::Unbind { stack: s, service: svc, module: ModuleId(1) },
            TraceEvent::ModuleCreated { stack: s, module: ModuleId(1), kind: "k".into() },
            TraceEvent::ModuleDestroyed { stack: s, module: ModuleId(1), kind: "k".into() },
            TraceEvent::Crash { stack: s },
        ];
        for e in evs {
            assert_eq!(e.stack(), s);
        }
    }
}
