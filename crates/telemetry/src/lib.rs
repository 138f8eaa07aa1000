//! Unified observability for the DPU stacks: lock-free log-linear
//! histograms, a switch-phase timeline, and a crash flight recorder —
//! one [`TelemetryReport`] shape across all three hosts.
//!
//! The paper's claim is that a dynamic protocol update is *cheap under
//! live traffic*; the repo could previously only assert it was *safe*
//! (digests, conformance matrices). This crate measures what an
//! operator would actually watch during a switch:
//!
//! - **delivery latency** — end-to-end probe send → adeliver, per
//!   stack, as a [`Histogram`] whose p999 survives bursty workloads
//!   that averages hide;
//! - **switch blackout** — a [`SwitchTimeline`] stamping every switch's
//!   requested / flushed / activated / first-delivery instants, so
//!   benches report "how long did clients go dark" per variant;
//! - **queue pressure** — dispatch-cascade depth and scratch-pool
//!   occupancy histograms;
//! - **postmortems** — bounded [`FlightRecorder`] rings (lifecycle
//!   events per stack, recent deliveries per shard) that failing soaks
//!   dump instead of an opaque digest mismatch.
//!
//! # Overhead discipline
//!
//! Every stack embeds one [`StackTelemetry`], always on. What is
//! recorded at event rate — five histograms (delivery latency, scratch
//! occupancy, resequencing depth, switch blackout and swap gap), the
//! per-delivery flight ring and the hold-back counters — is one boxed
//! [`TelemetrySet`], a null pointer until the stack's first record of
//! any of them; the cascade-depth histogram is a handle of its own. A
//! host shard owns one set and one cascade histogram
//! ([`ShardTelemetry`]) and swaps both into whichever stack it is
//! driving — two pointer swaps — through the very loan that lends the
//! shard's `WireScratch` pool; a stack nobody lends to (a bare
//! `Stack`, a unit test) boxes its own set through the same code.
//! Histogram merge is exact bucket addition, so the shard's set *is*
//! the sum of what its stacks would have recorded one by one, and the
//! report is bit-identical whichever way the samples were split. Per
//! stack remains what is per-stack by meaning: the open switch record,
//! the completed count and the first few completed records, boxed by
//! the stack's first switch, the running cascade depth, and a lifecycle
//! flight ring allocated by the stack's first switch or crash — 48 B at
//! rest (see ARCHITECTURE.md "Observability" for the budget). Of the
//! switch records a report folds only the completed count; the
//! histograms carry the blackout and swap gap, the lifecycle ring the
//! stamps.
//!
//! Recording is wait-free and, after the set's and each handle's first
//! sample, alloc-free: a stack is single-threaded by construction
//! (exactly like its `WireScratch` pool), so counters are plain
//! integers — no locks, no atomics — and hosts aggregate by
//! merge-by-addition, which is order-independent and therefore cannot
//! perturb the `par_equiv` serial/parallel bit-equality. Telemetry never
//! feeds back into protocol behaviour, so the golden trace fingerprint
//! is untouched by construction.
//!
//! # The report
//!
//! One type builds it: a host folds its shards' sets, its stacks'
//! remainders and their wire and transport counters into a
//! [`TelemetryAggregate`], whose [`report`](TelemetryAggregate::report)
//! returns the finished [`TelemetryReport`]. The report prints one way,
//! through its `Display`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub(crate) mod hist;
pub mod report;
pub mod timeline;

pub use flight::FlightRecorder;
use flight::{FlightEvent, FlightKind, FLIGHT_CAPACITY};
pub use hist::{HistSummary, Histogram};
pub use report::{
    HoldBackCounters, SocketCounters, SwitchSummary, TelemetryAggregate, TelemetryReport,
    TransportCounters, WireCounters,
};
pub use timeline::{SwitchRecord, SwitchTimeline};

/// Per-stack telemetry parameters, set at stack construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Flight-recorder ring capacity: events retained per ring — each
    /// stack's lifecycle ring, and the delivery ring its pushes land in
    /// (its shard's, or its own when nobody lends it one).
    pub flight_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { flight_capacity: FLIGHT_CAPACITY }
    }
}

/// Everything recorded at event rate but the cascade depth: five
/// histograms, the per-delivery flight ring and the hold-back counters.
/// A stack holds it boxed, as one pointer, null until its first record
/// of any of them. A host shard owns one and lends it, with its
/// cascade-depth histogram, to the stack it is driving
/// ([`StackTelemetry::swap_set`]); the stack's own set parks in the
/// shard meanwhile and comes back on the un-swap.
#[derive(Debug, Default)]
pub struct TelemetrySet {
    /// End-to-end delivery latency, nanoseconds.
    pub delivery_latency: Histogram,
    /// Scratch-pool occupancy at packet arrival, bytes.
    pub scratch_occupancy: Histogram,
    /// rp2p resequencing-buffer depth at out-of-order insert.
    pub reseq_depth: Histogram,
    /// Switch blackout window (`first_delivery − requested`), ns.
    pub blackout: Histogram,
    /// Switch flush→activate gap, ns.
    pub swap_gap: Histogram,
    /// Most recent deliveries, tagged with the delivering stack.
    pub deliveries: FlightRecorder,
    /// Responses held back for a module not created yet.
    pub hold_back: HoldBackCounters,
}

impl TelemetrySet {
    /// Add `other`'s histograms and hold-back counters to this set's
    /// (exact bucket addition). The delivery ring is not merged: a
    /// report counts only what each ring evicted.
    fn merge(&mut self, other: &TelemetrySet) {
        self.delivery_latency.merge(&other.delivery_latency);
        self.scratch_occupancy.merge(&other.scratch_occupancy);
        self.reseq_depth.merge(&other.reseq_depth);
        self.blackout.merge(&other.blackout);
        self.swap_gap.merge(&other.swap_gap);
        self.hold_back.absorb(other.hold_back);
    }
}

/// What a host shard lends each stack it drives: its [`TelemetrySet`],
/// boxed by the first stack that records into it, and its
/// cascade-depth histogram.
#[derive(Debug, Default)]
pub struct ShardTelemetry {
    /// The shard's set; `None` until a lent stack first records.
    pub set: Option<Box<TelemetrySet>>,
    /// Dispatch-cascade depth of every stack the shard drove.
    pub cascade_depth: Histogram,
}

/// One stack's telemetry state: its [`TelemetrySet`] and cascade-depth
/// histogram (its own, or its shard's while lent) plus what is
/// per-stack by meaning.
#[derive(Debug)]
pub struct TelemetryState {
    /// The set this stack records into: its shard's while lent, else
    /// its own, boxed by its first record.
    pub set: Option<Box<TelemetrySet>>,
    /// Dispatch-cascade depth (stack steps per external trigger: one
    /// sample each time the stack's cascade queue drains).
    pub cascade_depth: Histogram,
    /// Switch-phase timeline: the open record, completed count and
    /// retained records, this stack's own under any loan.
    pub switches: SwitchTimeline,
    /// Lifecycle flight ring: switch phases, crash, module destroyed,
    /// retransmit exhausted. Always this stack's own.
    pub flight: FlightRecorder,
    /// Steps taken in the cascade currently being dispatched.
    cascade_run: u32,
    /// Capacity of the rings this stack pushes into.
    flight_capacity: u32,
    /// This stack's id, stamped on every flight event.
    stack: u32,
    /// Replaced modules this stack has destroyed since (see
    /// [`StackTelemetry::note_retired`]).
    retired: u32,
}

/// One stack's telemetry: embedded in every `Stack`, single-threaded
/// like the rest of the stack's state. All record methods are
/// `#[inline]`.
#[derive(Debug)]
pub struct StackTelemetry {
    state: TelemetryState,
}

impl StackTelemetry {
    /// Telemetry for stack number `stack`. Allocates nothing.
    pub fn new(cfg: &TelemetryConfig, stack: u32) -> StackTelemetry {
        StackTelemetry {
            state: TelemetryState {
                set: None,
                cascade_depth: Histogram::new(),
                switches: SwitchTimeline::new(),
                flight: FlightRecorder::new(),
                cascade_run: 0,
                flight_capacity: u32::try_from(cfg.flight_capacity).unwrap_or(u32::MAX),
                stack,
                retired: 0,
            },
        }
    }

    /// The recorded state (aggregation and dumps). Always `Some`; the
    /// `Option` is the shape the whole-system benchmark matches on.
    pub fn state(&self) -> Option<&TelemetryState> {
        Some(&self.state)
    }

    /// The loan handoff: swap the set pointer and the cascade-depth
    /// histogram with `shard`'s — two pointer swaps. A host calls this
    /// symmetrically around each drive call, at the one place it also
    /// swaps its scratch pool, so that all event-rate recording lands in
    /// the shard's set and the stack holds no set of its own.
    #[inline]
    pub fn swap_set(&mut self, shard: &mut ShardTelemetry) {
        std::mem::swap(&mut self.state.set, &mut shard.set);
        std::mem::swap(&mut self.state.cascade_depth, &mut shard.cascade_depth);
    }

    /// The set to record into: the lent one, or this stack's own, boxed
    /// here by its first record.
    #[inline]
    fn set(&mut self) -> &mut TelemetrySet {
        self.state.set.get_or_insert_with(Box::default)
    }

    #[inline]
    fn event(&self, at_ns: u64, kind: FlightKind, detail: u64) -> FlightEvent {
        FlightEvent { at_ns, detail, stack: self.state.stack, kind }
    }

    /// Push a lifecycle event onto this stack's own ring.
    #[inline]
    fn lifecycle(&mut self, at_ns: u64, kind: FlightKind, detail: u64) {
        let event = self.event(at_ns, kind, detail);
        self.state.flight.push(self.state.flight_capacity as usize, event);
    }

    /// Close the pending switch record if the new module is active.
    #[inline]
    fn close_switch(&mut self, now_ns: u64) {
        if let Some(done) = self.state.switches.note_delivery(now_ns) {
            let set = self.set();
            if let Some(b) = done.blackout_ns() {
                set.blackout.record(b);
            }
            if let Some(g) = done.swap_gap_ns() {
                set.swap_gap.record(g);
            }
            let closed = self.state.switches.completed();
            self.lifecycle(now_ns, FlightKind::SwitchFirstDelivery, closed);
        }
    }

    /// An end-to-end delivery: records latency, logs a delivery flight
    /// event, and closes a pending switch record if the new module is
    /// active.
    #[inline]
    pub fn note_delivery(&mut self, now_ns: u64, latency_ns: u64) {
        let event = self.event(now_ns, FlightKind::Delivery, latency_ns);
        let capacity = self.state.flight_capacity as usize;
        let set = self.set();
        set.delivery_latency.record(latency_ns);
        set.deliveries.push(capacity, event);
        self.close_switch(now_ns);
    }

    /// An upward delivery with no latency sample attached — the switch
    /// layer calls this for every `ADELIVER` it forwards, so the
    /// blackout window closes even on stacks whose consumers do not
    /// timestamp their messages (a replicated service, say, rather
    /// than a probe). Only the timeline moves; the latency histogram
    /// is fed solely by [`Self::note_delivery`].
    #[inline]
    pub fn note_switch_delivery(&mut self, now_ns: u64) {
        self.close_switch(now_ns);
    }

    /// One stack step dispatched inside the current cascade.
    #[inline]
    pub fn cascade_step(&mut self) {
        self.state.cascade_run += 1;
    }

    /// The cascade drained: record its depth and reset.
    #[inline]
    pub fn cascade_end(&mut self) {
        let s = &mut self.state;
        if s.cascade_run > 0 {
            s.cascade_depth.record(u64::from(s.cascade_run));
            s.cascade_run = 0;
        }
    }

    /// Scratch-pool occupancy sample (bytes), taken at packet arrival.
    #[inline]
    pub fn record_scratch_occupancy(&mut self, bytes: u64) {
        self.set().scratch_occupancy.record(bytes);
    }

    /// rp2p resequencing-buffer depth after an out-of-order insert.
    #[inline]
    pub fn record_reseq_depth(&mut self, depth: u64) {
        self.set().reseq_depth.record(depth);
    }

    /// The open switch's number on this stack (the one after those
    /// completed), or 0 while none is open: its lifecycle events' detail.
    fn pending_ordinal(&self) -> u64 {
        let switches = &self.state.switches;
        switches.pending().map_or(0, |_| switches.completed() + 1)
    }

    /// The stack learned a protocol switch is coming (idempotent while
    /// one is pending).
    #[inline]
    pub fn switch_requested(&mut self, now_ns: u64) {
        let fresh = self.state.switches.pending().is_none();
        self.state.switches.requested(now_ns);
        if fresh {
            self.lifecycle(now_ns, FlightKind::SwitchRequested, self.pending_ordinal());
        }
    }

    /// The outgoing module flushed and was unbound.
    #[inline]
    pub fn switch_flushed(&mut self, now_ns: u64) {
        self.state.switches.flushed(now_ns);
        self.lifecycle(now_ns, FlightKind::SwitchFlushed, self.pending_ordinal());
    }

    /// The replacement module was created and bound.
    #[inline]
    pub fn switch_activated(&mut self, now_ns: u64) {
        self.state.switches.activated(now_ns);
        self.lifecycle(now_ns, FlightKind::SwitchActivated, self.pending_ordinal());
    }

    /// The switch layer dropped a change request it could not have
    /// applied itself (unknown kind, undecodable parameters).
    #[inline]
    pub fn note_switch_refused(&mut self, now_ns: u64) {
        self.lifecycle(now_ns, FlightKind::SwitchRefused, 0);
    }

    /// The switch layer destroyed `modules` replaced incarnations that no
    /// stack has bound any more. Against the completed count this says
    /// how many replaced modules still ride along — a gap that stays open
    /// points at a crashed or silent peer. (Each destruction also lands
    /// in the lifecycle ring, via [`Self::note_module_destroyed`].)
    #[inline]
    pub fn note_retired(&mut self, modules: u32) {
        self.state.retired += modules;
    }

    /// The stack crashed (fail-stop).
    #[inline]
    pub fn note_crash(&mut self, now_ns: u64) {
        self.lifecycle(now_ns, FlightKind::Crash, 0);
    }

    /// A module destroyed itself.
    #[inline]
    pub fn note_module_destroyed(&mut self, now_ns: u64) {
        self.lifecycle(now_ns, FlightKind::ModuleDestroyed, 0);
    }

    #[inline]
    fn hold_back(&mut self) -> &mut HoldBackCounters {
        &mut self.set().hold_back
    }

    /// A response reached no module: it is held back for one created
    /// later, or dropped as stale.
    #[inline]
    pub fn note_held(&mut self) {
        self.hold_back().held += 1;
    }

    /// A module was created that listens where `n` held-back responses
    /// wait; they are queued to it.
    #[inline]
    pub fn note_released(&mut self, n: u64) {
        self.hold_back().released += n;
    }

    /// A response that reached no module was stale, or the hold-back was
    /// full and its oldest response was dropped.
    #[inline]
    pub fn note_hold_back_dropped(&mut self) {
        self.hold_back().dropped += 1;
    }

    /// rp2p exhausted retransmissions toward `peer`.
    #[inline]
    pub fn note_retransmit_exhausted(&mut self, now_ns: u64, peer: u64) {
        self.lifecycle(now_ns, FlightKind::RetransmitExhausted, peer);
    }

    /// Render this stack's flight rings as postmortem lines: its
    /// lifecycle ring, then its own delivery ring if it ever recorded
    /// un-lent. A stack with no event renders nothing.
    pub fn dump_flight(&self, label: &str, out: &mut String) {
        if !self.state.flight.is_empty() {
            self.state.flight.dump(label, out);
        }
        let deliveries = self.state.set.as_ref().map(|set| &set.deliveries);
        if let Some(deliveries) = deliveries.filter(|d| !d.is_empty()) {
            deliveries.dump(&format!("{label} deliveries"), out);
        }
    }

    /// Heap bytes behind the set and the cascade-depth histogram this
    /// stack currently holds: 0 on a hosted stack between drive calls —
    /// everything it records at event rate lands in its shard's.
    pub fn set_bytes(&self) -> usize {
        let s = &self.state;
        let set = s.set.as_deref().map_or(0, |set| {
            std::mem::size_of::<TelemetrySet>()
                + set.delivery_latency.mem_bytes()
                + set.scratch_occupancy.mem_bytes()
                + set.reseq_depth.mem_bytes()
                + set.blackout.mem_bytes()
                + set.swap_gap.mem_bytes()
                + set.deliveries.mem_bytes()
        });
        s.cascade_depth.mem_bytes() + set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry() -> StackTelemetry {
        StackTelemetry::new(&TelemetryConfig::default(), 7)
    }

    #[test]
    fn at_rest_a_stack_holds_no_heap_and_a_small_inline_state() {
        let t = telemetry();
        assert_eq!(t.set_bytes() + t.state.flight.mem_bytes(), 0);
        // The million-stack budget: everything telemetry keeps per stack.
        assert!(
            std::mem::size_of::<StackTelemetry>() <= 48,
            "per-stack telemetry grew: {} B",
            std::mem::size_of::<StackTelemetry>()
        );
    }

    #[test]
    fn cascade_depth_counts_steps_per_drain() {
        let mut t = telemetry();
        for _ in 0..3 {
            t.cascade_step();
        }
        t.cascade_end();
        t.cascade_step();
        t.cascade_end();
        t.cascade_end(); // empty drains record nothing
        let s = t.state().unwrap();
        assert_eq!(s.cascade_depth.count(), 2);
        assert_eq!(s.cascade_depth.max(), 3);
        assert_eq!(s.cascade_depth.min(), 1);
    }

    #[test]
    fn delivery_closes_switch_and_logs_flight_trail() {
        let mut t = telemetry();
        t.switch_requested(100);
        t.switch_requested(150); // announcement after CHANGE_OP: no second flight event
        t.switch_flushed(200);
        t.switch_activated(250);
        t.note_delivery(400, 42);
        let s = t.state().unwrap();
        let set = s.set.as_deref().expect("the delivery boxed the set");
        assert_eq!(s.switches.completed(), 1);
        assert_eq!((set.blackout.max(), set.swap_gap.max()), (300, 50));
        let kinds: Vec<FlightKind> = s.flight.events().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FlightKind::SwitchRequested,
                FlightKind::SwitchFlushed,
                FlightKind::SwitchActivated,
                FlightKind::SwitchFirstDelivery,
            ]
        );
        let deliveries: Vec<(u32, u64)> =
            set.deliveries.events().map(|e| (e.stack, e.detail)).collect();
        assert_eq!(deliveries, vec![(7, 42)], "deliveries ride their own ring, tagged");
    }

    #[test]
    fn delivery_chatter_cannot_evict_lifecycle_events() {
        let mut t = telemetry();
        t.note_crash(5);
        for i in 0..10 * FLIGHT_CAPACITY as u64 {
            t.note_delivery(10 + i, 1);
        }
        let s = t.state().unwrap();
        assert_eq!(s.flight.events().map(|e| e.kind).collect::<Vec<_>>(), vec![FlightKind::Crash]);
        assert_eq!(s.flight.dropped(), 0);
        let deliveries = &s.set.as_deref().expect("its own set").deliveries;
        assert_eq!(deliveries.len(), FLIGHT_CAPACITY);
        assert_eq!(deliveries.dropped(), 9 * FLIGHT_CAPACITY as u64);
    }

    #[test]
    fn lent_set_takes_the_samples_and_the_stack_keeps_what_is_its_own() {
        let mut shard = ShardTelemetry::default();
        let mut t = telemetry();
        t.swap_set(&mut shard);
        t.switch_requested(100);
        t.switch_activated(250);
        t.note_delivery(400, 42);
        t.cascade_step();
        t.cascade_end();
        t.swap_set(&mut shard);
        assert_eq!(t.set_bytes(), 0, "nothing event-rate may stay in the stack");
        assert!(t.state.set.is_none(), "the set the stack boxed went to the shard");
        let set = shard.set.as_deref().expect("boxed under the loan");
        assert_eq!(set.delivery_latency.count(), 1);
        assert_eq!(shard.cascade_depth.count(), 1);
        assert_eq!(set.blackout.max(), 300);
        assert_eq!(set.deliveries.len(), 1);
        let s = t.state().unwrap();
        assert_eq!(s.switches.completed(), 1);
        assert_eq!(s.switches.recent().len(), 1);
        assert_eq!(s.flight.len(), 3, "lifecycle events stay with the stack");
    }

    #[test]
    fn switch_events_carry_the_number_of_their_switch() {
        let mut t = telemetry();
        t.switch_requested(100);
        t.switch_flushed(200);
        t.switch_activated(300);
        t.note_switch_delivery(400);
        t.switch_requested(500);
        t.switch_flushed(600);
        let s = t.state().unwrap();
        let details: Vec<u64> = s.flight.events().map(|e| e.detail).collect();
        assert_eq!(details, [1, 1, 1, 1, 2, 2], "switch 1 closed, switch 2 open");
        assert_eq!(s.switches.recent().len(), 1);
        assert!(s.switches.pending().is_some(), "switch 2 is still open");
    }

    #[test]
    fn a_bare_stack_boxes_its_set_on_its_first_record() {
        let mut t = telemetry();
        t.cascade_step();
        t.cascade_end();
        t.switch_requested(1);
        t.note_crash(2);
        assert!(t.state.set.is_none(), "cascade depth, switch stamps and lifecycle need no set");
        t.record_reseq_depth(3);
        let set = t.state.set.as_deref().expect("the first set record boxes it");
        assert_eq!((set.reseq_depth.count(), set.delivery_latency.count()), (1, 0));
        let boxed: *const TelemetrySet = set;
        t.note_held();
        t.note_delivery(4, 5);
        let set = t.state.set.as_deref().expect("kept");
        assert!(std::ptr::eq(boxed, set), "one box for every later record");
        assert_eq!((set.hold_back.held, set.deliveries.len()), (1, 1));
        let inline = std::mem::size_of::<TelemetrySet>();
        assert!(t.set_bytes() > inline, "the box and the buckets behind its handles");
    }
}
