//! Trace recording: every structurally relevant event of a run (calls,
//! responses, bindings, module lifecycle, crashes) is pushed to a
//! [`TraceLog`], which the property checkers in [`crate::props`] consume.
//!
//! A log costs what its checkers read. The *structural* entries — binds,
//! unbinds, module lifetimes, blocked and released calls, crashes — are
//! kept whole; calls and responses, one per dispatch step and all but a
//! few of a run's entries, are folded into a digest where they happen
//! and only the most recent are kept, in one tail per host shard. A
//! traced stack therefore grows with its replacements, not with its
//! messages, and tracing stays on at every scale the system runs at.

use crate::ids::{ModuleId, Name, ServiceId, StackId};
use crate::module::Op;
use crate::time::Time;
use std::collections::VecDeque;

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
        kind: Name,
    },
    /// A module was destroyed and removed from a stack.
    ModuleDestroyed {
        /// Stack that destroyed the module.
        stack: StackId,
        /// Destroyed module id.
        module: ModuleId,
        /// Module kind.
        kind: Name,
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
    /// A call or a response — one per dispatch step — as opposed to the
    /// structural events the property checkers read.
    fn is_dispatch(&self) -> bool {
        matches!(self, TraceEvent::Call { .. } | TraceEvent::Response { .. })
    }

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

// A service name and a module kind are one interned word each, which
// keeps an entry at 40 bytes (a tail is `TAIL` of them) and a stack's
// slot for a module at the module and its kind; all of a log's state
// sits behind one pointer, so a disabled log is one word in every stack
// of a capacity run.
const _: () = assert!(std::mem::size_of::<ServiceId>() == 8);
const _: () = assert!(std::mem::size_of::<Name>() == 8);
const _: () = assert!(std::mem::size_of::<Entry>() == 40);
const _: () = assert!(std::mem::size_of::<crate::stack::ModuleSlot>() == 24);
const _: () = assert!(std::mem::size_of::<TraceLog>() == 8);
// The slab row of every hosted stack. A stack at rest holds only its
// own state: what a loan lends (the scratch pool, the dispatch buffers,
// the telemetry set) is one pointer each, the switch records and the
// driver's injected events are boxed by their first use, the tables
// built at build or switch time are exact boxed slices, and its timers
// are one table.
const _: () = assert!(std::mem::size_of::<crate::host::StackDriver>() <= 240);

/// Dispatch entries (calls and responses) a tail keeps: the most recent
/// 4096, 160 KiB — some 17 broadcasts' worth of the steps of all seven
/// stacks of the paper's testbed, for diagnosis and for tests that read
/// calls over a short window. Older ones live on in the digest and in
/// [`TraceLog::dropped`]. A bare stack's log keeps its own tail; under a
/// host, every stack of a shard pushes through the shard's one (see
/// [`crate::host::ShardPools`]), which hands each stack its calls back
/// when the host's traces are read.
pub(crate) const TAIL: usize = 4096;

/// The most recent dispatch entries pushed through it, at most [`TAIL`],
/// and the count of every one pushed, which places structural entries
/// among them. A log holds its own; a host shard lends its one to
/// whichever stack it drives ([`TraceLog::swap_tail`]) and hands each
/// stack its calls back for reading ([`Tail::hand_back`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct Tail {
    entries: VecDeque<Entry>,
    /// Dispatch entries ever pushed, kept or not.
    dispatched: u64,
}

impl Tail {
    fn push(&mut self, entry: Entry) {
        if self.entries.len() >= TAIL {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
        self.dispatched += 1;
    }

    /// The number of the first entry held: how many were let go.
    fn first(&self) -> u64 {
        self.dispatched - self.entries.len() as u64
    }

    /// Dispatch entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Hand each log of `stacks` — every log that pushed through this
    /// tail (a host shard's), each with its stack's id, none of them
    /// holding it now — the calls it pushed that this tail still holds,
    /// as a tail of its own, and leave this one empty. What a log pushed
    /// through its own tail outside a loan first takes its place here.
    /// Calls no log claims — those of an earlier incarnation of a stack,
    /// or pushed before its trace was last taken — are let go, as they
    /// would have been with the log that pushed them.
    pub(crate) fn hand_back<'a>(
        &mut self,
        stacks: impl Iterator<Item = (StackId, &'a mut TraceLog)>,
    ) {
        let mut logs: Vec<&mut Kept> = Vec::new();
        // Per stack: its log, and how many of the calls it pushed are
        // still unclaimed — the most recent ones of its stack are its.
        let mut unclaimed = std::collections::BTreeMap::new();
        for (id, log) in stacks.filter_map(|(id, log)| Some((id, log.0.as_deref_mut()?))) {
            debug_assert!(!log.lent, "a log is handed its calls back outside a loan");
            log.settle_own(self);
            unclaimed.insert(id, (logs.len(), log.calls()));
            logs.push(log);
        }
        let tail = std::mem::take(self);
        // Each log's calls, newest first, with their numbers here.
        let mut claimed: Vec<Vec<(u64, Entry)>> = logs.iter().map(|_| Vec::new()).collect();
        for (entry, at) in tail.entries.into_iter().rev().zip((0..tail.dispatched).rev()) {
            if let Some((log, left @ 1..)) = unclaimed.get_mut(&entry.1.stack()) {
                *left -= 1;
                claimed[*log].push((at, entry));
            }
        }
        for (log, mut mine) in logs.into_iter().zip(claimed) {
            mine.reverse();
            // A structural entry's place among the log's calls: all but
            // those it holds from the entry's place here on.
            let (calls, mut before) = (log.calls(), 0);
            for (place, _) in &mut log.structural {
                before += mine[before..].iter().take_while(|(at, _)| *at < *place).count();
                *place = calls - (mine.len() - before) as u64;
            }
            log.tail =
                Tail { entries: mine.into_iter().map(|(_, e)| e).collect(), dispatched: calls };
            log.own_from = 0;
        }
    }
}

/// A time-stamped trace of [`TraceEvent`]s, ordered by push time.
///
/// One log typically aggregates the events of *all* stacks of a run (the
/// simulator interleaves them deterministically), which is what the remote
/// property — protocol-operationability — needs.
///
/// It holds three things: every structural entry, complete and in push
/// order; a [`Chain`] over every entry ever pushed, folded at `push` with
/// no allocation and no formatting; and a tail of the last `TAIL`
/// dispatch entries — its own, or the one a host shard lends it. A
/// disabled log holds nothing and allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct TraceLog(Option<Box<Kept>>);

/// What an enabled log holds.
#[derive(Clone, Debug, Default)]
struct Kept {
    /// Structural entries in push order, each with the number of dispatch
    /// entries pushed through its tail before it — its place among them.
    structural: Vec<(u64, Entry)>,
    /// The log's own tail, or the one lent to it while `lent`.
    tail: Tail,
    lent: bool,
    /// Outside a loan, the structural entries before this one were
    /// placed in a tail lent to the log, the rest in its own; during a
    /// loan, all of them are placed in the lent tail.
    own_from: usize,
    /// Every entry ever pushed; a merged log's chain joins its parts'.
    chain: Chain,
    /// Time of the last entry pushed, and whether some entry was earlier
    /// than its predecessor. Hosts push in time order, so `unsorted`
    /// stays `false` outside hand-built logs; it is what lets
    /// [`TraceLog::merge`] stream instead of sort.
    last: Time,
    unsorted: bool,
}

/// Walk structural entries (each with the count of dispatch entries
/// before it) and tail entries (numbered from `first`) in push order.
/// The first `settled` structural entries were placed in another tail,
/// ahead of all of these, and come first.
fn interleave<T>(
    structural: impl Iterator<Item = (u64, T)>,
    settled: usize,
    mut tail: impl Iterator<Item = T>,
    first: u64,
) -> impl Iterator<Item = T> {
    let placed =
        structural.enumerate().map(move |(i, (at, e))| (if i < settled { 0 } else { at }, e));
    let mut structural = placed.peekable();
    let mut next = first;
    std::iter::from_fn(move || match structural.peek() {
        Some((before, _)) if *before <= next => structural.next().map(|(_, entry)| entry),
        _ => {
            next += 1;
            tail.next()
        }
    })
}

impl Kept {
    /// Dispatch entries pushed, whichever tail they went through.
    fn calls(&self) -> u64 {
        self.chain.len - self.structural.len() as u64
    }

    /// The structural entries placed in a lent tail, and the dispatch
    /// entries of the log's own tail: during a loan, all and none.
    fn own(&self) -> (usize, usize) {
        if self.lent {
            (self.structural.len(), 0)
        } else {
            (self.own_from, self.tail.entries.len())
        }
    }

    /// The calls pushed that the log does not hold: let go from its
    /// tail, or pushed through one lent to it.
    fn dropped(&self) -> u64 {
        self.calls() - self.own().1 as u64
    }

    fn append(&mut self, entry: Entry) {
        self.unsorted |= entry.0 < self.last;
        self.last = entry.0;
        if entry.1.is_dispatch() {
            self.tail.push(entry);
        } else {
            self.structural.push((self.tail.dispatched, entry));
        }
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        let (settled, own) = self.own();
        let structural = self.structural.iter().map(|(at, e)| (*at, e));
        interleave(structural, settled, self.tail.entries.iter().take(own), self.tail.first())
    }

    fn into_entries(self) -> impl Iterator<Item = Entry> {
        let ((settled, own), first) = (self.own(), self.tail.first());
        interleave(
            self.structural.into_iter(),
            settled,
            self.tail.entries.into_iter().take(own),
            first,
        )
    }

    /// A log of `entries` (in their order) standing for `chain`.
    fn rebuilt(chain: Chain, entries: impl Iterator<Item = Entry>) -> Kept {
        let mut kept = Kept { chain, ..Kept::default() };
        entries.for_each(|entry| kept.append(entry));
        kept
    }

    /// Move the log's own tail onto `onto`, after what `onto` holds —
    /// its entries, their count, and the places of the structural
    /// entries pushed among them — leaving it empty.
    fn settle_own(&mut self, onto: &mut Tail) {
        let own = std::mem::take(&mut self.tail);
        for (place, _) in &mut self.structural[self.own_from..] {
            *place += onto.dispatched;
        }
        self.own_from = self.structural.len();
        onto.dispatched += own.first();
        own.entries.into_iter().for_each(|entry| onto.push(entry));
    }

    /// Everything but a lent tail, which stays.
    fn take(&mut self) -> Kept {
        if !self.lent {
            return std::mem::take(self);
        }
        let rest = Kept { tail: std::mem::take(&mut self.tail), lent: true, ..Kept::default() };
        let taken = std::mem::replace(self, rest);
        Kept { lent: false, own_from: taken.structural.len(), ..taken }
    }

    /// Merge `other`'s entries in (its chain is already joined): one
    /// streaming pass when both sides are in time order; a stable sort
    /// of the concatenation otherwise — the same thing, since a stable
    /// sort of a concatenation is the stable merge of its stably sorted
    /// halves.
    fn merge_entries(&mut self, other: &Kept) {
        let chain = self.chain;
        let in_order = !self.unsorted && !other.unsorted;
        let mut mine = std::mem::take(self).into_entries().peekable();
        let mut theirs = other.entries().cloned().peekable();
        *self = if in_order {
            let merged = std::iter::from_fn(|| match (mine.peek(), theirs.peek()) {
                (Some(a), Some(b)) if b.0 < a.0 => theirs.next(),
                (Some(_), _) => mine.next(),
                (None, _) => theirs.next(),
            });
            Kept::rebuilt(chain, merged)
        } else {
            let mut all: Vec<Entry> = mine.chain(theirs).collect();
            all.sort_by_key(|(t, _)| *t);
            Kept::rebuilt(chain, all.into_iter())
        };
    }
}

impl TraceLog {
    /// A log that records events.
    pub fn new() -> TraceLog {
        TraceLog(Some(Box::default()))
    }

    /// A log that ignores events: one null word, for stacks whose host
    /// asked for no trace.
    pub fn disabled() -> TraceLog {
        TraceLog(None)
    }

    /// Take what was recorded, leaving an empty log (same enablement).
    /// A tail lent to this log stays: it is the host's, and the calls
    /// pushed through it count as dropped in what is taken.
    pub fn take(&mut self) -> TraceLog {
        TraceLog(self.0.as_mut().map(|kept| Box::new(kept.take())))
    }

    /// Record an event at time `t`.
    pub fn push(&mut self, t: Time, ev: TraceEvent) {
        if let Some(kept) = &mut self.0 {
            kept.chain.fold(&ev.words(t));
            kept.append((t, ev));
        }
    }

    /// Lend this log `tail`, or hand it back: the two halves of a host
    /// shard's loan, one swap each way. Lending first moves whatever the
    /// log pushed through its own tail since it last held a lent one —
    /// a stack's entries from before its first loan — onto `tail`, so
    /// those entries take their place there; handing back leaves the log
    /// its own tail, empty. A disabled log takes no tail.
    pub(crate) fn swap_tail(&mut self, tail: &mut Tail) {
        let Some(kept) = self.0.as_deref_mut() else { return };
        if !kept.lent {
            kept.settle_own(tail);
        }
        std::mem::swap(&mut kept.tail, tail);
        kept.lent = !kept.lent;
        kept.own_from = kept.structural.len();
    }

    /// The retained events in push order: every structural one, and the
    /// dispatch entries the log holds — the complete log whenever
    /// [`TraceLog::dropped`] is zero. A stack under a host holds its
    /// calls only once its shard hands them back (`Sim::merged_trace`
    /// and `LiveShard::into_stacks` do); until then they count as dropped.
    pub fn events(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.0.iter().flat_map(|kept| kept.entries())
    }

    /// Entries ever pushed, over all merged parts.
    pub fn pushed(&self) -> u64 {
        self.0.as_ref().map_or(0, |kept| kept.chain.len)
    }

    /// Dispatch entries pushed and not held: folded into the digest and
    /// let go, or in a host shard's tail. [`TraceLog::events`] yields
    /// [`TraceLog::pushed`] less these.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |kept| kept.dropped())
    }

    /// Structural bytes held (event-internal strings are not walked):
    /// the structural entries at capacity, plus a tail of its own that
    /// stops growing at `TAIL` entries. What a traced stack pays grows
    /// with binds and module lifetimes, not with calls — and under a
    /// host, which holds the tail, with nothing else.
    pub fn mem_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |kept| {
            let tail = if kept.lent { 0 } else { kept.tail.entries.capacity() };
            std::mem::size_of::<Kept>()
                + kept.structural.capacity() * std::mem::size_of::<(u64, Entry)>()
                + tail * std::mem::size_of::<Entry>()
        })
    }

    /// Append all events of `other` (e.g. to merge per-stack logs). The
    /// result is ordered by time, preserving push order for equal times
    /// (and this log's entries before `other`'s); its chain is this
    /// log's joined by `other`'s, and its tail the last `TAIL` dispatch
    /// entries of the merged stream. Two time-ordered logs — what hosts
    /// produce — are merged in one streaming pass.
    pub fn merge(&mut self, other: &TraceLog) {
        let Some(mine) = self.0.as_deref_mut() else { return };
        mine.chain.join(other.0.as_ref().map_or(Chain::default(), |kept| kept.chain));
        if let Some(theirs) = other.0.as_deref() {
            mine.merge_entries(theirs);
        }
    }

    /// The digest of every entry pushed, folded at `push` from the
    /// entry's field values — for one stack's log, the head of its
    /// chain; for a merged log, the parts' chains joined in merge order
    /// (which pins what the time-sorted stream would: the per-stack
    /// streams determine the merge). Stable across platforms and runs:
    /// names are hashed by their bytes, never by address. This is what
    /// every equivalence suite pins runs with
    /// (`tests/host_equivalence.rs`, `crates/sim/tests/{sched,par}_equiv.rs`).
    pub fn fingerprint(&self) -> u64 {
        self.0.as_ref().map_or(0, |kept| kept.chain.head)
    }

    /// The set of stacks that crashed in this trace.
    pub(crate) fn crashed_stacks(&self) -> std::collections::BTreeSet<StackId> {
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

    fn call(stack: u32, svc: &str, from: u64) -> TraceEvent {
        TraceEvent::Call {
            stack: StackId(stack),
            service: ServiceId::new(svc),
            op: 0,
            from: ModuleId(from),
            to: ModuleId(0),
        }
    }

    #[test]
    fn push_and_query() {
        let mut log = TraceLog::new();
        log.push(Time(1), bind(0, "p", 1));
        log.push(Time(2), call(1, "p", 2));
        log.push(Time(2), bind(1, "p", 2));
        assert_eq!((log.pushed(), log.dropped()), (3, 0));
        let times: Vec<Time> = log.events().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![Time(1), Time(2), Time(2)]);
        assert!(log.events().nth(1).unwrap().1.is_dispatch(), "events come in push order");
        let taken = log.take();
        assert_eq!((taken.pushed(), log.pushed()), (3, 0));
        assert!(log.0.is_some() && log.events().next().is_none());
        assert_eq!(log.fingerprint(), TraceLog::new().fingerprint());
    }

    #[test]
    fn disabled_log_drops_events() {
        let mut log = TraceLog::disabled();
        log.push(Time(1), bind(0, "p", 1));
        assert_eq!(log.pushed(), 0);
        assert!(log.events().next().is_none());
        assert!(log.0.is_none() && log.take().0.is_none());
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

    /// The keep-everything layout this log replaced — one flat vector,
    /// sorted whole on merge — kept here as the reference model: the log
    /// must yield the model's structural entries, all of them, among its
    /// last `TAIL` dispatch entries.
    #[derive(Clone, Default)]
    struct Model(Vec<(Time, TraceEvent)>);

    impl Model {
        fn merge(&mut self, other: &Model) {
            self.0.extend_from_slice(&other.0);
            self.0.sort_by_key(|(t, _)| *t);
        }

        fn dropped(&self) -> usize {
            self.0.iter().filter(|(_, e)| e.is_dispatch()).count().saturating_sub(TAIL)
        }

        fn retained(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
            let mut skip = self.dropped();
            self.0.iter().filter(move |(_, e)| {
                let gone = e.is_dispatch() && skip > 0;
                skip -= usize::from(gone);
                !gone
            })
        }
    }

    /// `len` pushes into a log and the model alike. Module ids count up
    /// from `first_id`, so every entry is distinguishable; times repeat
    /// often (ties), and either never decrease or jump about. A
    /// time-ordered fill mixes calls in among the binds; an out-of-order
    /// one (hand-built logs, which hold what a test wrote into them) is
    /// binds alone.
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
            let stack = (next() % 3) as u32;
            let ev = if in_order && next() % 4 != 0 {
                call(stack, "p", first_id + i)
            } else {
                bind(stack, "p", first_id + i)
            };
            log.push(Time(t), ev.clone());
            model.0.push((Time(t), ev));
        }
        (log, model)
    }

    fn assert_matches_model(log: &TraceLog, model: &Model) {
        assert_eq!(log.pushed(), model.0.len() as u64);
        assert_eq!(log.dropped(), model.dropped() as u64);
        assert!(log.events().eq(model.retained()), "iteration differs at {}", log.pushed());
        // Pays for the structural entries (a doubling vector of them)
        // and a tail that has stopped growing — not for what it dropped.
        let structural = model.0.iter().filter(|(_, e)| !e.is_dispatch()).count();
        let bound = std::mem::size_of::<Kept>()
            + (2 * structural + 4) * std::mem::size_of::<(u64, Entry)>()
            + TAIL * std::mem::size_of::<Entry>();
        assert!(log.mem_bytes() <= bound, "{} entries hold {} B", log.pushed(), log.mem_bytes());
    }

    #[test]
    fn random_pushes_and_merges_match_the_flat_vector_model() {
        let mut rng = 0x9E3779B97F4A7C15;
        let lens = [0, 1, 3, 4, 5, 100, TAIL - 1, TAIL, TAIL + 1, 2 * TAIL, 4 * TAIL + 7];
        let mut overflowed = 0;
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
                    overflowed += usize::from(merged.dropped() > 0);
                }
            }
        }
        assert!(overflowed > 10, "the sweep must take single and merged logs past the tail");
    }

    /// What a log yields is what was pushed less what it does not hold.
    fn assert_consistent(log: &TraceLog) {
        assert_eq!(log.pushed() - log.dropped(), log.events().count() as u64);
    }

    /// Logs that push through one lent tail — a host shard's stacks —
    /// handed their calls back and merged in stack order, as
    /// `Sim::merged_trace` folds a shard; two shards into one log. The
    /// model of a shard is the flat vector of every push in the order it
    /// reached the tail (an entry pushed outside a loan reaches it when
    /// its log is next lent, or handed its calls back), of which the tail
    /// keeps the last `TAIL` calls. Each log is handed back its own of
    /// those — none of what it pushed before it was taken — so the fold
    /// is the model's per-log parts, merged in stack order, and its
    /// digest that of the same pushes into bare logs, merged alike.
    #[test]
    fn logs_sharing_a_lent_tail_fold_to_the_flat_vector_model() {
        let mut rng = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let lens = [0, 1, 5, 100, TAIL - 1, TAIL + 1, 2 * TAIL, 4 * TAIL + 7];
        let (mut overflowed, mut taken) = (0, 0);
        for (i, &len) in lens.iter().enumerate() {
            let (mut folded, mut by_stack, mut model) =
                (TraceLog::new(), TraceLog::new(), Model::default());
            let mut id = 0;
            for shard_len in [len, lens[(i + 3) % lens.len()]] {
                let mut logs = vec![TraceLog::new(); 3];
                let mut bare = vec![TraceLog::new(); 3];
                // Every push in the order it reached the tail, with the
                // incarnation of the log that pushed it (a log taken
                // starts a new one); and what each log pushed outside a
                // loan, which has not reached it yet.
                let (mut tail, mut shard) = (Tail::default(), Vec::new());
                let mut pending: Vec<Vec<(u32, Entry)>> = vec![Vec::new(); 3];
                let mut incarnation = [0; 3];
                let (mut t, end) = (0, id + shard_len as u64);
                while id < end {
                    let s = (next() % 3) as usize;
                    let lent = next() % 8 != 0;
                    if lent {
                        logs[s].swap_tail(&mut tail);
                        shard.append(&mut pending[s]);
                    }
                    let burst = if next() % 64 == 0 { TAIL as u64 + 1 } else { 1 + next() % 4 };
                    for _ in 0..burst {
                        t += next() % 2;
                        let ev = if next() % 4 != 0 {
                            call(s as u32, "p", id)
                        } else {
                            bind(s as u32, "p", id)
                        };
                        id += 1;
                        logs[s].push(Time(t), ev.clone());
                        bare[s].push(Time(t), ev.clone());
                        let to = if lent { &mut shard } else { &mut pending[s] };
                        to.push((incarnation[s], (Time(t), ev)));
                    }
                    if lent && next() % 32 == 0 {
                        // Taken inside the loan: its calls stay in the
                        // tail, counted as dropped in what is taken.
                        let gone = logs[s].take();
                        assert_consistent(&gone);
                        assert!(gone.events().all(|(_, e)| !e.is_dispatch()));
                        assert_eq!(gone.pushed(), bare[s].pushed());
                        bare[s] = TraceLog::new();
                        incarnation[s] += 1;
                        taken += 1;
                    }
                    if lent {
                        logs[s].swap_tail(&mut tail);
                        assert!(tail.len() <= TAIL);
                        let held = logs[s].events().filter(|(_, e)| e.is_dispatch()).count();
                        assert_eq!(held, 0, "a log holds no calls between loans");
                    }
                    assert_consistent(&logs[s]);
                }
                pending.iter_mut().for_each(|p| shard.append(p));
                let stacks = (0..).map(StackId).zip(&mut logs);
                tail.hand_back(stacks);
                assert_eq!(tail.len(), 0, "handing the calls back empties the tail");
                let mut gone = shard.iter().filter(|(_, (_, e))| e.is_dispatch()).count();
                gone = gone.saturating_sub(TAIL);
                shard.retain(|(_, (_, e))| {
                    let dropped = e.is_dispatch() && gone > 0;
                    gone -= usize::from(dropped);
                    !dropped
                });
                for (s, log) in logs.iter_mut().enumerate() {
                    let mine: Vec<Entry> = shard
                        .iter()
                        .filter(|(of, (_, e))| e.stack().0 == s as u32 && *of == incarnation[s])
                        .map(|(_, entry)| entry.clone())
                        .collect();
                    assert!(log.events().eq(mine.iter()), "log {s} holds its calls back");
                    assert_consistent(log);
                    assert_eq!(log.pushed(), bare[s].pushed());
                    folded.merge(&log.take());
                    by_stack.merge(&bare[s]);
                    model.merge(&Model(mine));
                    model = Model(model.retained().cloned().collect());
                }
                assert!(folded.events().eq(model.0.iter()), "iteration differs at {id}");
                assert_consistent(&folded);
                assert_eq!(folded.pushed(), by_stack.pushed());
                assert_eq!(folded.fingerprint(), by_stack.fingerprint());
                overflowed += usize::from(folded.dropped() > 0);
            }
        }
        assert!(overflowed > 5, "the sweep must take shared tails past their length");
        assert!(taken > 5, "the sweep must take logs inside a loan");
    }

    #[test]
    fn a_log_grows_with_its_structural_entries_not_with_its_calls() {
        let mut log = TraceLog::new();
        log.push(Time(0), bind(0, "p", 0));
        assert!(
            log.mem_bytes() <= std::mem::size_of::<Kept>() + 4 * 48,
            "a small trace stays small"
        );
        for i in 0..TAIL as u64 {
            log.push(Time(i), call(0, "p", i));
        }
        let full = log.mem_bytes();
        assert!(full <= std::mem::size_of::<Kept>() + 4 * 48 + TAIL * 40);
        let digest = log.fingerprint();
        for i in 0..3 * TAIL as u64 {
            log.push(Time(TAIL as u64 + i), call(0, "p", i));
        }
        assert_eq!(log.mem_bytes(), full, "a full tail must stay where it is");
        assert_eq!((log.pushed(), log.dropped()), (4 * TAIL as u64 + 1, 3 * TAIL as u64));
        assert_ne!(log.fingerprint(), digest, "what is let go is still in the digest");
        // The bind pushed first is still there, ahead of the tail.
        assert_eq!(log.events().next(), Some(&(Time(0), bind(0, "p", 0))));
        assert_eq!(log.events().count(), TAIL + 1);

        let mut off = TraceLog::disabled();
        for i in 0..3 * TAIL as u64 {
            off.push(Time(i), call(0, "p", i));
        }
        assert_eq!(off.mem_bytes(), 0);
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
            log.fingerprint()
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
            (m.pushed(), m.fingerprint())
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
