//! The unified `TelemetryReport`: one shape, emitted by all three
//! hosts.
//!
//! `Sim::telemetry_report()`, `Runtime::telemetry_report()`, and
//! `Reactor::telemetry_report()` all fold their stacks into one
//! [`TelemetryAggregate`] through `dpu_core::host::fold_shard` (each
//! shard's [`crate::TelemetrySet`], scratch-pool counters and stacks:
//! the small per-stack remainder of every [`crate::StackTelemetry`]
//! and their transport counters, all by addition) and emit this struct
//! through [`TelemetryAggregate::report`] — so an operator (or a bench
//! harness) reads the same fields whatever host ran the stacks. The
//! counter families ([`WireCounters`], [`TransportCounters`],
//! [`SocketCounters`]) are *defined* here, once: this crate sits below
//! `dpu-core`, so core re-exports them (`dpu_core::wire::ScratchStats`,
//! `dpu_core::TransportStats`) and the scratch pools, transport modules
//! and live-host transports count straight into the types the report
//! carries — nothing is copied field by field on the way out.
//!
//! `Display` renders it, the one way a report is printed.

use crate::hist::{HistSummary, Histogram};
use crate::{ShardTelemetry, StackTelemetry, TelemetrySet};
use std::fmt;

/// Counters of a scratch pool (`dpu_core::wire::WireScratch`), folded
/// by addition across pools.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Messages encoded through the scratch.
    pub emitted: u64,
    /// Messages whose backing buffer was reclaimed from an earlier
    /// message (no new backing allocation).
    pub reclaimed: u64,
    /// Messages that required a new backing allocation — a fresh buffer,
    /// or a reclaimed one that had to grow. In steady state this counter
    /// stops moving: that is the "zero steady-state allocations" property
    /// the benches assert.
    pub allocations: u64,
}

impl WireCounters {
    /// Merge another pool's counters into this one (host aggregation).
    pub fn absorb(&mut self, other: WireCounters) {
        self.emitted += other.emitted;
        self.reclaimed += other.reclaimed;
        self.allocations += other.allocations;
    }
}

/// Counters reported by reliable-transport modules (see
/// `dpu_core::Module::transport_stats`). The counters are cumulative
/// over the module's lifetime; `unacked` and `held` are gauges, the
/// current backlog.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportCounters {
    /// Data frames retransmitted after a retransmission-timer scan.
    pub retransmissions: u64,
    /// Standalone ack frames put on the wire. An ack that rode a data
    /// frame going the same way cost no packet and is not counted, so
    /// against the data frames a peer received this is what reporting
    /// receipt cost.
    pub acks: u64,
    /// Frames dropped after exhausting the configured retransmit cap —
    /// non-zero means a peer looked permanently dead and reliability was
    /// given up for those frames.
    pub exhausted: u64,
    /// Frames currently awaiting acknowledgement across all peers.
    pub unacked: u64,
    /// Protocol state currently held until the group is done with it:
    /// consensus instances open or decided but not yet collected, and
    /// atomic broadcast messages not yet ordered or seen ahead of a gap.
    /// A handful per stack while every member answers; it grows with the
    /// traffic while a crashed or silent peer pins collection, which is
    /// what lifts once the heard-sets follow the membership view
    /// (ROADMAP item 1(b)).
    pub held: u64,
}

impl TransportCounters {
    /// Fold another module's counters into this one (plain addition).
    pub fn absorb(&mut self, other: TransportCounters) {
        self.retransmissions += other.retransmissions;
        self.acks += other.acks;
        self.exhausted += other.exhausted;
        self.unacked += other.unacked;
        self.held += other.held;
    }
}

/// Counters of a live host's transport edge: the in-process mailbox
/// network of `dpu-runtime` (send-side fields only) or the OS sockets of
/// `dpu-reactor`. Each shard thread counts into its own plain copy;
/// `stats()` on the host folds them by addition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketCounters {
    /// Frames handed to the send path.
    pub packets_sent: u64,
    /// Frames dropped by the injected loss model (before the send).
    pub packets_dropped: u64,
    /// Frames dropped because the destination has no route (no
    /// peer-table entry; an id outside the group).
    pub unroutable: u64,
    /// `send_to` errors (counted and dropped; rp2p recovers).
    pub send_errors: u64,
    /// Received datagrams that were not well-formed frames (junk,
    /// truncation, corruption, wrong magic) — counted, never panicked
    /// on.
    pub malformed_dropped: u64,
    /// Well-formed frames whose destination is not hosted here.
    pub misdirected: u64,
    /// Datagrams received and decoded successfully.
    pub packets_received: u64,
}

impl SocketCounters {
    /// Fold another shard's counters into this one (plain addition).
    pub fn absorb(&mut self, other: SocketCounters) {
        self.packets_sent += other.packets_sent;
        self.packets_dropped += other.packets_dropped;
        self.unroutable += other.unroutable;
        self.send_errors += other.send_errors;
        self.malformed_dropped += other.malformed_dropped;
        self.misdirected += other.misdirected;
        self.packets_received += other.packets_received;
    }
}

/// Counters of the stacks' hold-back (`dpu_core::Stack`): a response
/// issued on a channel that no local module listens on yet is parked
/// until one that does is created, instead of being dropped — unless a
/// live module listens on a later incarnation of its channel, which makes
/// it stale. Folded by addition; `held − released − dropped` is what is
/// still parked (or went with a crash).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HoldBackCounters {
    /// Responses that reached no module.
    pub held: u64,
    /// Parked responses handed to a module created after them.
    pub released: u64,
    /// Stale responses, and parked ones dropped, oldest first, at the
    /// bound.
    pub dropped: u64,
}

impl HoldBackCounters {
    /// Fold another set's counters into this one (plain addition).
    pub fn absorb(&mut self, other: HoldBackCounters) {
        self.held += other.held;
        self.released += other.released;
        self.dropped += other.dropped;
    }
}

/// Percentile view of the switch-phase timeline across all stacks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SwitchSummary {
    /// Completed switches (summed over stacks).
    pub completed: u64,
    /// Replaced modules destroyed once no stack had them bound (summed
    /// over stacks). `completed − retired` replaced modules are still in
    /// their stacks; the gap closes when every member of the group has
    /// been heard under the new protocol, and stays open while a peer is
    /// crashed or silent.
    pub retired: u64,
    /// Blackout window (`first_delivery − requested`), nanoseconds.
    pub blackout_ns: HistSummary,
    /// Flush→activate gap, nanoseconds.
    pub swap_gap_ns: HistSummary,
}

/// A host's report under construction: shard [`TelemetrySet`]s,
/// per-stack [`StackTelemetry`] remainders and the wire and transport
/// counters, each folded by addition.
///
/// `dpu_core::host` feeds it: `fold_shard` for each shard's stacks and
/// pools, `fold_stack` for a stack incarnation a restart retires. Every
/// constituent merges by addition, so the fold is order-independent —
/// shard or worker iteration order cannot change the report, and neither
/// can whether a sample was recorded into a lent set or a stack's own.
/// [`report`](Self::report) condenses it.
#[derive(Debug, Default)]
pub struct TelemetryAggregate {
    /// Hosted stacks folded in (telemetry is always on: every one).
    pub stacks: u32,
    /// The event-rate histograms and hold-back counters, summed over
    /// sets and stacks; `None` until a set is folded in. Its delivery
    /// ring stays empty: what the rings evicted is counted in
    /// [`flight_dropped`](Self::flight_dropped).
    pub set: Option<Box<TelemetrySet>>,
    /// Dispatch-cascade depth (steps per externally-triggered cascade).
    pub cascade_depth: Histogram,
    /// Completed switches, summed over stacks.
    pub switches_completed: u64,
    /// Replaced modules destroyed by the switch layer, summed over stacks.
    pub(crate) modules_retired: u64,
    /// Flight-recorder events evicted across all rings.
    pub flight_dropped: u64,
    /// Scratch-pool counters, folded over pools and stacks.
    pub wire: WireCounters,
    /// Reliable-transport counters, folded over stacks.
    pub transport: TransportCounters,
}

impl TelemetryAggregate {
    /// An empty aggregate.
    pub fn new() -> TelemetryAggregate {
        TelemetryAggregate::default()
    }

    /// Fold one hosted stack's telemetry in: its completed and retired
    /// switch counts, its lifecycle ring's drop count, and whatever
    /// it recorded into a set and a cascade histogram of its own
    /// (nothing, on a stack whose host lends it a set).
    pub fn absorb(&mut self, t: &StackTelemetry) {
        self.stacks += 1;
        self.absorb_retired(t);
    }

    /// [`Self::absorb`] for a stack incarnation that is no longer
    /// hosted (a restart is retiring it): everything it measured, but
    /// not the head-count.
    pub fn absorb_retired(&mut self, t: &StackTelemetry) {
        let state = &t.state;
        self.absorb_handles(state.set.as_deref(), &state.cascade_depth);
        self.switches_completed += state.switches.completed();
        self.modules_retired += u64::from(state.retired);
        self.flight_dropped += state.flight.dropped();
    }

    /// Fold one shard's set and cascade histogram in: exact bucket
    /// addition, so the result is what folding every stack's own
    /// histograms would give.
    pub fn absorb_set(&mut self, shard: &ShardTelemetry) {
        self.absorb_handles(shard.set.as_deref(), &shard.cascade_depth);
    }

    fn absorb_handles(&mut self, set: Option<&TelemetrySet>, cascade_depth: &Histogram) {
        self.cascade_depth.merge(cascade_depth);
        if let Some(set) = set {
            self.set.get_or_insert_with(Box::default).merge(set);
            self.flight_dropped += set.deliveries.dropped();
        }
    }

    /// Fold another aggregate into this one (the live hosts fold one
    /// partial per shard thread, the simulator each shard's retired
    /// incarnations). Its set is folded like a shard's: its ring is
    /// empty, so no eviction is counted twice.
    pub fn merge(&mut self, other: &TelemetryAggregate) {
        self.stacks += other.stacks;
        self.absorb_handles(other.set.as_deref(), &other.cascade_depth);
        self.switches_completed += other.switches_completed;
        self.modules_retired += other.modules_retired;
        self.flight_dropped += other.flight_dropped;
        self.wire.absorb(other.wire);
        self.transport.absorb(other.transport);
    }

    /// Condense into the report `host` hands to callers at `now_ns` on
    /// its clock; `sockets` is its socket edge's counters, if it has one.
    pub fn report(
        &self,
        host: &'static str,
        now_ns: u64,
        sockets: Option<SocketCounters>,
    ) -> TelemetryReport {
        let empty = TelemetrySet::default();
        let set = self.set.as_deref().unwrap_or(&empty);
        TelemetryReport {
            host,
            stacks: self.stacks,
            now_ns,
            delivery_latency_ns: set.delivery_latency.summary(),
            cascade_depth: self.cascade_depth.summary(),
            scratch_occupancy_bytes: set.scratch_occupancy.summary(),
            reseq_depth: set.reseq_depth.summary(),
            switches: SwitchSummary {
                completed: self.switches_completed,
                retired: self.modules_retired,
                blackout_ns: set.blackout.summary(),
                swap_gap_ns: set.swap_gap.summary(),
            },
            flight_dropped: self.flight_dropped,
            hold_back: set.hold_back,
            wire: self.wire,
            transport: self.transport,
            sockets,
        }
    }
}

/// The unified observability report — same shape from Sim, Runtime,
/// and Reactor. Histogram fields are percentile summaries; the counter
/// families are the very structs the pools, modules and transports
/// count into.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Which host produced this: `"sim"`, `"runtime"`, or `"reactor"`.
    pub host: &'static str,
    /// Stacks the host drives; every one's telemetry is folded in.
    pub stacks: u32,
    /// Host clock at report time, nanoseconds (virtual on sim).
    pub now_ns: u64,
    /// End-to-end delivery latency (probe send → adeliver), ns.
    pub delivery_latency_ns: HistSummary,
    /// Dispatch-cascade depth (stack steps per external trigger).
    pub cascade_depth: HistSummary,
    /// Scratch-pool occupancy sampled at packet arrival, bytes.
    pub scratch_occupancy_bytes: HistSummary,
    /// rp2p resequencing-buffer depth at out-of-order insert.
    pub reseq_depth: HistSummary,
    /// Switch-phase timeline percentiles.
    pub switches: SwitchSummary,
    /// Flight-recorder events evicted across all rings (per-stack
    /// lifecycle rings and per-shard delivery rings).
    pub flight_dropped: u64,
    /// Responses held back for a module not created yet, folded over
    /// stacks.
    pub hold_back: HoldBackCounters,
    /// Scratch-pool counters, folded over pools and stacks.
    pub wire: WireCounters,
    /// rp2p reliability counters, folded over stacks.
    pub transport: TransportCounters,
    /// OS-socket counters; `None` on the in-memory hosts.
    pub sockets: Option<SocketCounters>,
}

fn fmt_hist(f: &mut fmt::Formatter<'_>, name: &str, unit: &str, h: &HistSummary) -> fmt::Result {
    writeln!(
        f,
        "  {name:<24} n={:<9} p50={} p90={} p99={} p999={} max={} {unit}",
        h.count, h.p50, h.p90, h.p99, h.p999, h.max
    )
}

impl fmt::Display for TelemetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "telemetry [{}]: {} stacks, t={} ns", self.host, self.stacks, self.now_ns)?;
        fmt_hist(f, "delivery latency", "ns", &self.delivery_latency_ns)?;
        fmt_hist(f, "cascade depth", "steps", &self.cascade_depth)?;
        fmt_hist(f, "scratch occupancy", "B", &self.scratch_occupancy_bytes)?;
        fmt_hist(f, "reseq depth", "msgs", &self.reseq_depth)?;
        writeln!(
            f,
            "  switches                 completed={} retired={}",
            self.switches.completed, self.switches.retired
        )?;
        fmt_hist(f, "  blackout window", "ns", &self.switches.blackout_ns)?;
        fmt_hist(f, "  flush\u{2192}activate gap", "ns", &self.switches.swap_gap_ns)?;
        writeln!(
            f,
            "  hold-back                held={} released={} dropped={}",
            self.hold_back.held, self.hold_back.released, self.hold_back.dropped
        )?;
        writeln!(
            f,
            "  wire                     emitted={} reclaimed={} allocations={}",
            self.wire.emitted, self.wire.reclaimed, self.wire.allocations
        )?;
        writeln!(
            f,
            "  transport                retransmissions={} acks={} exhausted={} unacked={} held={}",
            self.transport.retransmissions,
            self.transport.acks,
            self.transport.exhausted,
            self.transport.unacked,
            self.transport.held
        )?;
        if let Some(s) = &self.sockets {
            writeln!(
                f,
                "  sockets                  sent={} recv={} dropped={} unroutable={} \
                 send_errors={} malformed={} misdirected={}",
                s.packets_sent,
                s.packets_received,
                s.packets_dropped,
                s.unroutable,
                s.send_errors,
                s.malformed_dropped,
                s.misdirected
            )?;
        }
        if self.flight_dropped > 0 {
            writeln!(f, "  flight recorder          {} events dropped", self.flight_dropped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryConfig;

    fn sample_report(sockets: Option<SocketCounters>) -> TelemetryReport {
        let mut a = StackTelemetry::new(&TelemetryConfig::default(), 0);
        let mut b = StackTelemetry::new(&TelemetryConfig::default(), 1);
        for i in 1..=100u64 {
            a.note_delivery(i * 1_000, i * 500);
            b.note_delivery(i * 1_000, i * 700);
        }
        a.switch_requested(10_000);
        a.switch_flushed(12_000);
        a.switch_activated(13_000);
        a.note_delivery(20_000, 400);
        let mut agg = TelemetryAggregate::new();
        agg.absorb(&a);
        agg.absorb(&b);
        agg.wire.absorb(WireCounters { emitted: 10, reclaimed: 8, allocations: 2 });
        agg.transport.absorb(TransportCounters {
            retransmissions: 1,
            acks: 2,
            exhausted: 0,
            unacked: 3,
            held: 4,
        });
        agg.report("sim", 200_000, sockets)
    }

    #[test]
    fn aggregate_folds_both_stacks() {
        let r = sample_report(None);
        assert_eq!(r.stacks, 2);
        assert_eq!(r.delivery_latency_ns.count, 201);
        assert_eq!(r.switches.completed, 1);
        assert_eq!(r.switches.blackout_ns.count, 1);
        assert_eq!(r.switches.blackout_ns.max, 10_000);
    }

    #[test]
    fn retired_stacks_keep_their_measurements_but_not_their_seat() {
        let mut gone = StackTelemetry::new(&TelemetryConfig { flight_capacity: 1 }, 0);
        gone.note_delivery(10, 5);
        gone.note_delivery(20, 5);
        gone.switch_requested(30);
        gone.switch_activated(40);
        gone.note_switch_delivery(50);
        let mut agg = TelemetryAggregate::new();
        agg.absorb_retired(&gone);
        let r = agg.report("sim", 0, None);
        assert_eq!(r.stacks, 0);
        assert_eq!(r.delivery_latency_ns.count, 2);
        assert_eq!(r.switches.completed, 1);
        assert_eq!(r.flight_dropped, 3, "one delivery and two lifecycle events evicted");
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let text = sample_report(None).to_string();
        assert!(text.contains("telemetry [sim]: 2 stacks, t=200000 ns"), "{text}");
        assert!(text.contains("delivery latency"), "{text}");
        assert!(text.contains("blackout window"), "{text}");
        assert!(text.contains("completed=1"), "{text}");
        assert!(text.contains("retransmissions=1 acks=2"), "{text}");
        assert!(text.contains("unacked=3 held=4"), "{text}");
        assert!(!text.contains("sockets"), "an in-memory host has no sockets line: {text}");
        let sockets = SocketCounters { packets_sent: 5, ..SocketCounters::default() };
        let text = sample_report(Some(sockets)).to_string();
        assert!(text.contains("  sockets                  sent=5 recv=0"), "{text}");
    }
}
