//! Trace recording: every structurally relevant event of a run (calls,
//! responses, bindings, module lifecycle, crashes) is pushed to a
//! [`TraceLog`], which the property checkers in [`crate::props`] consume.
//!
//! A log costs what its checkers read. The *structural* entries — binds,
//! unbinds, module lifetimes, blocked and released calls, crashes — are
//! kept whole. Calls and responses, one per dispatch step and all but a
//! few of a run's entries, live on only in the log's digest, folded
//! where they happen, and in its [`Tally`] per `(service, op)`. A traced
//! stack therefore grows with its replacements and the services it
//! binds, not with its messages, and tracing stays on at every scale the
//! system runs at. Diagnosis of recent events is the flight recorder's.

use crate::ids::{ModuleId, Name, ServiceId, StackId};
use crate::module::Op;
use crate::time::Time;

/// One structurally relevant event observed during a run.
///
/// Events carry the stack on which they occurred and the virtual time.
/// Payloads are intentionally *not* recorded: the generic DPU properties of
/// the paper (§3) are about the structure of interactions, not their
/// content. Protocol-specific checkers (e.g. [`crate::abcast_check`]) keep
/// their own records. A [`TraceLog`] keeps every variant but `Call` and
/// `Response`, which live on in its digest and its [`Tally`].
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
// keeps an entry at 40 bytes and a stack's slot for a module at the
// module and its kind; all of a log's state sits behind one pointer, so
// a disabled log is one word in every stack of a capacity run.
const _: () = assert!(std::mem::size_of::<ServiceId>() == 8);
const _: () = assert!(std::mem::size_of::<Name>() == 8);
const _: () = assert!(std::mem::size_of::<Entry>() == 40);
const _: () = assert!(std::mem::size_of::<crate::stack::ModuleSlot>() == 24);
const _: () = assert!(std::mem::size_of::<TraceLog>() == 8);
// The slab row of every hosted stack: hosts hold `Stack`s. A stack at
// rest holds only its own state: what a loan lends (the scratch pool,
// the dispatch buffers, the telemetry set) is one pointer each, the
// switch records are boxed by their first use, the tables built at build
// or switch time are exact boxed slices, and its timers are one table.
const _: () = assert!(std::mem::size_of::<crate::Stack>() <= 232);

/// What the calls and responses of one `(service, op)` came to — what a
/// [`TraceLog`] keeps of them besides its digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made on the service with the op, dispatched or taken at the
    /// stack's edge (blocked ones are structural entries).
    pub calls: u64,
    /// Responses made on it.
    pub responses: u64,
    /// Modules those responses reached: the sum of their `fanout`.
    pub reached: u64,
    /// The most modules one response reached.
    pub most: u64,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.responses += other.responses;
        self.reached += other.reached;
        self.most = self.most.max(other.most);
    }
}

/// A time-stamped trace of structural [`TraceEvent`]s, ordered by push
/// time.
///
/// One log typically aggregates the events of *all* stacks of a run (the
/// simulator merges them deterministically), which is what the remote
/// property — protocol-operationability — needs.
///
/// It holds three things: every structural entry, complete and in push
/// order; a [`Chain`] over every entry ever pushed, calls and responses
/// included, folded at `push` with no allocation and no formatting; and
/// a [`Tally`] of the calls and responses per `(service, op)`, as many as
/// the services its stack binds. A disabled log holds nothing and
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct TraceLog(Option<Box<Kept>>);

/// What an enabled log holds.
#[derive(Clone, Debug, Default)]
struct Kept {
    /// Structural entries in push order.
    structural: Vec<Entry>,
    /// Calls and responses per `(service, op)`, in first-seen order.
    tally: Vec<(ServiceId, Op, Tally)>,
    /// Every entry ever pushed; a merged log's chain joins its parts'.
    chain: Chain,
}

impl Kept {
    fn tally_mut(&mut self, service: ServiceId, op: Op) -> &mut Tally {
        let at = match self.tally.iter().position(|(s, o, _)| *s == service && *o == op) {
            Some(at) => at,
            None => {
                self.tally.push((service, op, Tally::default()));
                self.tally.len() - 1
            }
        };
        &mut self.tally[at].2
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

    /// Take what was recorded — structural entries, digest and tally —
    /// leaving an empty log (same enablement).
    pub fn take(&mut self) -> TraceLog {
        TraceLog(self.0.as_mut().map(|kept| Box::new(std::mem::take(&mut **kept))))
    }

    /// Record an event at time `t`: fold it into the digest, then keep
    /// it if it is structural, or count it in the tally if it is a call
    /// or a response.
    pub fn push(&mut self, t: Time, ev: TraceEvent) {
        let Some(kept) = &mut self.0 else { return };
        kept.chain.fold(&ev.words(t));
        match ev {
            TraceEvent::Call { service, op, .. } => kept.tally_mut(service, op).calls += 1,
            TraceEvent::Response { service, op, fanout, .. } => {
                let fanout = fanout as u64;
                let one = Tally { responses: 1, reached: fanout, most: fanout, calls: 0 };
                kept.tally_mut(service, op).add(&one);
            }
            ev => kept.structural.push((t, ev)),
        }
    }

    /// The structural events in push order. Calls and responses are not
    /// kept: see [`TraceLog::fingerprint`] and [`TraceLog::tally`].
    pub fn events(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
        self.0.iter().flat_map(|kept| kept.structural.iter())
    }

    /// The calls and responses pushed, per `(service, op)`: a merged
    /// log's sums (and maxima) over its parts.
    pub fn tally(&self) -> &[(ServiceId, Op, Tally)] {
        self.0.as_ref().map_or(&[], |kept| &kept.tally)
    }

    /// Entries ever pushed, over all merged parts.
    pub fn pushed(&self) -> u64 {
        self.0.as_ref().map_or(0, |kept| kept.chain.len)
    }

    /// Bytes held (event-internal strings are not walked): the
    /// structural entries and the tally at capacity. What a traced stack
    /// pays grows with binds, module lifetimes and the services it binds,
    /// not with calls.
    pub fn mem_bytes(&self) -> usize {
        self.0.as_ref().map_or(0, |kept| {
            std::mem::size_of::<Kept>()
                + kept.structural.capacity() * std::mem::size_of::<Entry>()
                + kept.tally.capacity() * std::mem::size_of::<(ServiceId, Op, Tally)>()
        })
    }

    /// Append all events of `other` (e.g. to merge per-stack logs). The
    /// result is ordered by time, preserving push order for equal times
    /// (and this log's entries before `other`'s): a stable sort of the
    /// concatenation, one merge of two runs when both logs are in time
    /// order, as hosts produce them. Its chain is this log's joined by
    /// `other`'s, and its tally the two summed.
    pub fn merge(&mut self, other: &TraceLog) {
        let Some(mine) = self.0.as_deref_mut() else { return };
        mine.chain.join(other.0.as_ref().map_or(Chain::default(), |kept| kept.chain));
        let Some(theirs) = other.0.as_deref() else { return };
        mine.structural.extend_from_slice(&theirs.structural);
        mine.structural.sort_by_key(|(t, _)| *t);
        for (service, op, tally) in &theirs.tally {
            mine.tally_mut(*service, *op).add(tally);
        }
    }

    /// The digest of every entry pushed, folded at `push` from the
    /// entry's field values — for one stack's log, the head of its
    /// chain; for a merged log, the parts' chains joined in merge order
    /// (which pins what the time-sorted stream would: the per-stack
    /// streams determine the merge). Stable across platforms and runs:
    /// names are hashed by their bytes, never by address. This is what
    /// every equivalence suite pins runs with
    /// (`tests/host_equivalence.rs`, `crates/sim/tests/{sched,par}_equiv.rs`),
    /// and the one place calls and responses are checked in order.
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

    fn response(stack: u32, svc: &str, from: u64, fanout: usize) -> TraceEvent {
        TraceEvent::Response {
            stack: StackId(stack),
            service: ServiceId::new(svc),
            op: 1,
            from: ModuleId(from),
            fanout,
        }
    }

    fn is_dispatch(e: &TraceEvent) -> bool {
        matches!(e, TraceEvent::Call { .. } | TraceEvent::Response { .. })
    }

    #[test]
    fn push_and_query() {
        let mut log = TraceLog::new();
        log.push(Time(1), bind(0, "p", 1));
        log.push(Time(2), call(1, "p", 2));
        log.push(Time(2), bind(1, "p", 2));
        log.push(Time(3), response(1, "p", 2, 3));
        log.push(Time(3), response(1, "p", 2, 0));
        assert_eq!(log.pushed(), 5);
        let kept: Vec<_> = log.events().cloned().collect();
        assert_eq!(kept, vec![(Time(1), bind(0, "p", 1)), (Time(2), bind(1, "p", 2))]);
        let p = ServiceId::new("p");
        let calls = Tally { calls: 1, ..Tally::default() };
        let responses = Tally { responses: 2, reached: 3, most: 3, ..Tally::default() };
        assert_eq!(log.tally(), [(p, 0, calls), (p, 1, responses)]);
        let taken = log.take();
        assert_eq!((taken.pushed(), log.pushed()), (5, 0));
        assert_eq!(taken.tally().len(), 2);
        assert!(log.0.is_some() && log.events().next().is_none() && log.tally().is_empty());
        assert_eq!(log.fingerprint(), TraceLog::new().fingerprint());
    }

    #[test]
    fn disabled_log_drops_events() {
        let mut log = TraceLog::disabled();
        log.push(Time(1), bind(0, "p", 1));
        log.push(Time(1), call(0, "p", 1));
        assert_eq!(log.pushed(), 0);
        assert!(log.events().next().is_none() && log.tally().is_empty());
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
    /// must yield the model's structural entries, all of them and in its
    /// order, and tally the model's calls and responses.
    #[derive(Clone, Default)]
    struct Model(Vec<(Time, TraceEvent)>);

    impl Model {
        fn merge(&mut self, other: &Model) {
            self.0.extend_from_slice(&other.0);
            self.0.sort_by_key(|(t, _)| *t);
        }

        fn structural(&self) -> impl Iterator<Item = &(Time, TraceEvent)> {
            self.0.iter().filter(|(_, e)| !is_dispatch(e))
        }

        /// The tally, summed over every `(service, op)`.
        fn tally(&self) -> Tally {
            let mut sum = Tally::default();
            for (_, e) in &self.0 {
                match e {
                    TraceEvent::Call { .. } => sum.calls += 1,
                    TraceEvent::Response { fanout, .. } => {
                        let fanout = *fanout as u64;
                        sum.add(&Tally { responses: 1, reached: fanout, most: fanout, calls: 0 });
                    }
                    _ => {}
                }
            }
            sum
        }
    }

    /// `len` pushes into a log and the model alike. Module ids count up
    /// from `first_id`, so every entry is distinguishable; times repeat
    /// often (ties), and either never decrease or jump about, as in the
    /// logs a test writes by hand. Calls and responses, on two services,
    /// are mixed in among the binds.
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
            let svc = if next() % 2 == 0 { "p" } else { "q" };
            let ev = match next() % 4 {
                0 => bind(stack, svc, first_id + i),
                1 => response(stack, svc, first_id + i, (next() % 4) as usize),
                _ => call(stack, svc, first_id + i),
            };
            log.push(Time(t), ev.clone());
            model.0.push((Time(t), ev));
        }
        (log, model)
    }

    fn assert_matches_model(log: &TraceLog, model: &Model) {
        assert_eq!(log.pushed(), model.0.len() as u64);
        assert!(log.events().eq(model.structural()), "iteration differs at {}", log.pushed());
        let mut sum = Tally::default();
        log.tally().iter().for_each(|(_, _, tally)| sum.add(tally));
        assert_eq!(sum, model.tally());
        assert!(log.tally().len() <= 4, "one row per (service, op)");
        // Pays for the structural entries (a doubling vector of them)
        // and a tally row per (service, op) — not for its calls.
        let structural = model.structural().count();
        let bound = std::mem::size_of::<Kept>()
            + (2 * structural + 4) * std::mem::size_of::<Entry>()
            + 4 * std::mem::size_of::<(ServiceId, Op, Tally)>();
        assert!(log.mem_bytes() <= bound, "{} entries hold {} B", log.pushed(), log.mem_bytes());
    }

    #[test]
    fn random_pushes_and_merges_match_the_flat_vector_model() {
        let mut rng = 0x9E3779B97F4A7C15;
        let lens = [0, 1, 3, 4, 5, 100, 4095, 4096, 4097, 8192, 16391];
        for (i, &len) in lens.iter().enumerate() {
            for in_order in [true, false] {
                let (log, model) = fill(len, 0, in_order, &mut rng);
                assert_matches_model(&log, &model);
                // Merge with a log of another length, both ways round and
                // with either side out of order: ties must keep append
                // order, this log's entries first.
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
    fn a_log_grows_with_its_structural_entries_not_with_its_calls() {
        let mut log = TraceLog::new();
        log.push(Time(0), bind(0, "p", 0));
        log.push(Time(0), call(0, "p", 0));
        let small = log.mem_bytes();
        assert!(
            small <= std::mem::size_of::<Kept>() + 4 * 40 + 4 * 48,
            "a small trace stays small"
        );
        let digest = log.fingerprint();
        for i in 0..16_384 {
            log.push(Time(i), call(0, "p", i));
        }
        assert_eq!(log.mem_bytes(), small, "calls on a tallied (service, op) cost nothing");
        assert_eq!(log.pushed(), 16_386);
        assert_eq!(log.tally()[0].2.calls, 16_385);
        assert_ne!(log.fingerprint(), digest, "what is not kept is still in the digest");
        assert_eq!(log.events().collect::<Vec<_>>(), [&(Time(0), bind(0, "p", 0))]);

        let mut off = TraceLog::disabled();
        for i in 0..16_384 {
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
