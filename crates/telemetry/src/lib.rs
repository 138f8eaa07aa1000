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
//! recorded at event rate — the four stack histograms, the timeline's
//! blackout and swap-gap histograms, the per-delivery flight ring — is
//! a [`TelemetrySet`] of *handles*, each one null pointer until its
//! first sample. A host shard owns one set and swaps it into whichever
//! stack it is driving, through the very loan that lends the shard's
//! `WireScratch` pool; a stack nobody lends to (a bare `StackDriver`, a
//! unit test) records into its own lazily allocated set through the
//! same code. Histogram merge is exact bucket addition, so the shard's
//! set *is* the sum of what its stacks would have recorded one by one,
//! and the report is bit-identical whichever way the samples were
//! split. Per stack remains what is per-stack by meaning: the open
//! switch record, the completed count and the first few completed
//! records, boxed by the stack's first switch, the running cascade
//! depth, and a lifecycle flight ring allocated by the stack's first
//! switch or crash — 96 B at rest (see ARCHITECTURE.md "Observability"
//! for the budget).
//!
//! Recording is wait-free and, after each handle's first sample,
//! alloc-free: a stack is single-threaded by construction (exactly like
//! its `WireScratch` pool), so counters are plain integers — no locks,
//! no atomics — and hosts aggregate by merge-by-addition, which is
//! order-independent and therefore cannot perturb the `par_equiv`
//! serial/parallel bit-equality. Telemetry never feeds back into
//! protocol behaviour, so the golden trace fingerprint is untouched by
//! construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub(crate) mod hist;
pub mod json;
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

/// Everything recorded at event rate, as handles: six histograms, the
/// per-delivery flight ring and the hold-back counters, each
/// pointer-sized until its first sample. A host shard owns one set and lends it to the stack it is
/// driving ([`StackTelemetry::swap_set`]); the stack's own handles park
/// in the shard's set meanwhile and come back on the un-swap.
#[derive(Debug, Default)]
pub struct TelemetrySet {
    /// End-to-end delivery latency, nanoseconds.
    pub delivery_latency: Histogram,
    /// Dispatch-cascade depth (stack steps per external trigger).
    pub cascade_depth: Histogram,
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
    pub hold_back: Option<Box<HoldBackCounters>>,
}

/// One stack's telemetry state: the handles of a [`TelemetrySet`] (its
/// own, or its shard's while lent) plus what is per-stack by meaning.
#[derive(Debug)]
pub struct TelemetryState {
    /// End-to-end delivery latency, nanoseconds.
    pub delivery_latency: Histogram,
    /// Dispatch-cascade depth (stack steps per external trigger).
    pub cascade_depth: Histogram,
    /// Scratch-pool occupancy at packet arrival, bytes.
    pub scratch_occupancy: Histogram,
    /// rp2p resequencing-buffer depth at out-of-order insert.
    pub reseq_depth: Histogram,
    /// Switch-phase timeline. Its open record, completed count and
    /// retained records are this stack's own under any loan; its two
    /// histograms are set handles.
    pub switches: SwitchTimeline,
    /// Lifecycle flight ring: switch phases, crash, module destroyed,
    /// retransmit exhausted. Always this stack's own.
    pub flight: FlightRecorder,
    /// Per-delivery flight ring (a set handle).
    pub deliveries: FlightRecorder,
    /// Responses held back for a module not created yet (a set handle).
    pub hold_back: Option<Box<HoldBackCounters>>,
    /// Steps taken in the cascade currently being dispatched.
    cascade_run: u32,
    /// Capacity of the rings this stack pushes into.
    flight_capacity: u32,
    /// This stack's id, stamped on every flight event.
    stack: u32,
    /// Replaced modules this stack has destroyed since (see
    /// [`StackTelemetry::note_retired`]). Sits in what was padding: the
    /// inline state does not grow for it.
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
                delivery_latency: Histogram::new(),
                cascade_depth: Histogram::new(),
                scratch_occupancy: Histogram::new(),
                reseq_depth: Histogram::new(),
                switches: SwitchTimeline::new(),
                flight: FlightRecorder::new(),
                deliveries: FlightRecorder::new(),
                hold_back: None,
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

    /// The loan handoff: swap every handle of `set` with this stack's —
    /// eight pointer swaps. A host calls this symmetrically around each
    /// drive call, at the one place it also swaps its scratch pool, so
    /// that all event-rate recording lands in the shard's set and the
    /// stack's own handles stay empty.
    #[inline]
    pub fn swap_set(&mut self, set: &mut TelemetrySet) {
        use std::mem::swap;
        let s = &mut self.state;
        swap(&mut s.delivery_latency, &mut set.delivery_latency);
        swap(&mut s.cascade_depth, &mut set.cascade_depth);
        swap(&mut s.scratch_occupancy, &mut set.scratch_occupancy);
        swap(&mut s.reseq_depth, &mut set.reseq_depth);
        let (blackout, swap_gap) = s.switches.hists_mut();
        swap(blackout, &mut set.blackout);
        swap(swap_gap, &mut set.swap_gap);
        swap(&mut s.deliveries, &mut set.deliveries);
        swap(&mut s.hold_back, &mut set.hold_back);
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
            self.lifecycle(now_ns, FlightKind::SwitchFirstDelivery, done.ordinal);
        }
    }

    /// An end-to-end delivery: records latency, logs a delivery flight
    /// event, and closes a pending switch record if the new module is
    /// active.
    #[inline]
    pub fn note_delivery(&mut self, now_ns: u64, latency_ns: u64) {
        self.state.delivery_latency.record(latency_ns);
        let event = self.event(now_ns, FlightKind::Delivery, latency_ns);
        self.state.deliveries.push(self.state.flight_capacity as usize, event);
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
        self.state.scratch_occupancy.record(bytes);
    }

    /// rp2p resequencing-buffer depth after an out-of-order insert.
    #[inline]
    pub fn record_reseq_depth(&mut self, depth: u64) {
        self.state.reseq_depth.record(depth);
    }

    fn pending_ordinal(&self) -> u64 {
        self.state.switches.pending().map_or(0, |r| r.ordinal)
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
        self.state.hold_back.get_or_insert_with(Box::default)
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
        if !self.state.deliveries.is_empty() {
            self.state.deliveries.dump(&format!("{label} deliveries"), out);
        }
    }

    /// Heap bytes behind the set handles this stack currently holds: 0
    /// on a hosted stack between drive calls — everything it records at
    /// event rate lands in its shard's set.
    pub fn set_bytes(&self) -> usize {
        let s = &self.state;
        s.delivery_latency.mem_bytes()
            + s.cascade_depth.mem_bytes()
            + s.scratch_occupancy.mem_bytes()
            + s.reseq_depth.mem_bytes()
            + s.switches.blackout().mem_bytes()
            + s.switches.swap_gap().mem_bytes()
            + s.deliveries.mem_bytes()
            + s.hold_back.as_ref().map_or(0, |_| std::mem::size_of::<HoldBackCounters>())
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
            std::mem::size_of::<StackTelemetry>() <= 96,
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
        assert_eq!(s.switches.completed(), 1);
        assert_eq!(s.switches.blackout().max(), 300);
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
            s.deliveries.events().map(|e| (e.stack, e.detail)).collect();
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
        assert_eq!(s.deliveries.len(), FLIGHT_CAPACITY);
        assert_eq!(s.deliveries.dropped(), 9 * FLIGHT_CAPACITY as u64);
    }

    #[test]
    fn lent_set_takes_the_samples_and_the_stack_keeps_what_is_its_own() {
        let mut set = TelemetrySet::default();
        let mut t = telemetry();
        t.swap_set(&mut set);
        t.switch_requested(100);
        t.switch_activated(250);
        t.note_delivery(400, 42);
        t.cascade_step();
        t.cascade_end();
        t.swap_set(&mut set);
        assert_eq!(t.set_bytes(), 0, "nothing event-rate may stay in the stack");
        assert_eq!(set.delivery_latency.count(), 1);
        assert_eq!(set.cascade_depth.count(), 1);
        assert_eq!(set.blackout.max(), 300);
        assert_eq!(set.deliveries.len(), 1);
        let s = t.state().unwrap();
        assert_eq!(s.switches.completed(), 1);
        assert_eq!(s.switches.recent().len(), 1);
        assert_eq!(s.flight.len(), 3, "lifecycle events stay with the stack");
    }
}
