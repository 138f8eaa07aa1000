//! Crash flight recorder: bounded rings of the most recent telemetry
//! events, each event tagged with the stack it happened on.
//!
//! The recorder exists for the moment a soak assertion trips or a
//! `cross_switch_net` child dies: instead of an opaque digest mismatch,
//! the harness dumps the final seconds of life — switch phases,
//! crashes, module teardown per stack, and the shard's most recent
//! deliveries — in event order. One ring type serves both uses:
//!
//! - every stack keeps a **lifecycle** ring of its own rare events
//!   (switch phases, crash, module destroyed, retransmit exhausted);
//! - every shard keeps one **delivery** ring, lent to whichever stack
//!   it is driving (see [`crate::TelemetrySet`]), so per-delivery
//!   chatter costs nothing per stack and cannot evict a lifecycle
//!   event.
//!
//! A ring is one null pointer until its first event and then grows with
//! its content up to the capacity the pusher names — a stack that has
//! seen one switch holds four events' worth of ring, not sixty-four.
//! Once full, each push evicts the oldest entry and bumps `dropped`, so
//! the dump always says how much history it is missing, and pushing is
//! alloc-free from then on: events are plain `Copy` records.

use std::collections::VecDeque;
use std::fmt;

/// Default ring capacity (events retained per ring).
pub(crate) const FLIGHT_CAPACITY: usize = 64;

/// What happened, for the dump reader. Kinds mirror the trace event
/// vocabulary but stay a closed enum so the recorder needs no strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A message reached its final consumer (probe/application layer).
    Delivery,
    /// A protocol switch was requested on this stack.
    SwitchRequested,
    /// The outgoing module finished flushing and was unbound.
    SwitchFlushed,
    /// The replacement module was created and bound.
    SwitchActivated,
    /// First post-activation delivery — the blackout window closed.
    SwitchFirstDelivery,
    /// A change request named a protocol this stack cannot build; the
    /// switch layer dropped it instead of proposing it to the group.
    SwitchRefused,
    /// The stack crashed (fail-stop).
    Crash,
    /// A module destroyed itself (`ctx.destroy_self`).
    ModuleDestroyed,
    /// rp2p gave up on a peer after exhausting retransmissions.
    RetransmitExhausted,
}

impl fmt::Display for FlightKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlightKind::Delivery => "delivery",
            FlightKind::SwitchRequested => "switch-requested",
            FlightKind::SwitchFlushed => "switch-flushed",
            FlightKind::SwitchActivated => "switch-activated",
            FlightKind::SwitchFirstDelivery => "switch-first-delivery",
            FlightKind::SwitchRefused => "switch-refused",
            FlightKind::Crash => "crash",
            FlightKind::ModuleDestroyed => "module-destroyed",
            FlightKind::RetransmitExhausted => "retransmit-exhausted",
        };
        f.write_str(s)
    }
}

/// One flight-recorder entry: when, where, what, and one kind-specific
/// detail word (switch sequence number, latency, peer id — the dump
/// labels it generically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Stack-local time in nanoseconds.
    pub at_ns: u64,
    /// Kind-specific detail (0 when the kind has none).
    pub(crate) detail: u64,
    /// The stack the event happened on (rides in what would otherwise be
    /// padding, so a shared ring costs no more per event than a private
    /// one).
    pub stack: u32,
    /// Event kind.
    pub kind: FlightKind,
}

/// Bounded ring of the most recent `FlightEvent`s; pointer-sized
/// until the first push.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightRecorder {
    ring: Option<Box<Ring>>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Ring {
    events: VecDeque<FlightEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// An empty recorder (no allocation).
    pub const fn new() -> FlightRecorder {
        FlightRecorder { ring: None }
    }

    /// Append an event to a ring of at most `capacity` events, evicting
    /// (and counting) the oldest when full. The ring grows by doubling
    /// until it holds `capacity` events; a full ring never allocates.
    #[inline]
    pub(crate) fn push(&mut self, capacity: usize, event: FlightEvent) {
        let ring =
            self.ring.get_or_insert_with(|| Box::new(Ring { events: VecDeque::new(), dropped: 0 }));
        if ring.events.len() >= capacity {
            ring.dropped += 1;
            if ring.events.pop_front().is_none() {
                return; // capacity 0: nothing is retained, everything counted
            }
        }
        ring.events.push_back(event);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.ring.iter().flat_map(|r| r.events.iter())
    }

    /// Events evicted to make room (history the dump is missing).
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| r.events.len())
    }

    /// True when no event is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes behind the ring: nothing before the first event.
    pub fn mem_bytes(&self) -> usize {
        self.ring.as_ref().map_or(0, |r| {
            std::mem::size_of::<Ring>() + r.events.capacity() * std::mem::size_of::<FlightEvent>()
        })
    }

    /// Render the ring as postmortem lines, one event per line, prefixed
    /// with `label` (a stack, or a shard's delivery ring). Used by soak
    /// harnesses and the cross-process demo on failure.
    pub fn dump(&self, label: &str, out: &mut String) {
        use fmt::Write;
        let _ = writeln!(
            out,
            "[{label}] flight recorder: {} events retained, {} dropped",
            self.len(),
            self.dropped()
        );
        for ev in self.events() {
            let _ = writeln!(
                out,
                "[{label}]   t={:>12}ns  stack={:<6} {:<22} detail={}",
                ev.at_ns,
                ev.stack,
                ev.kind.to_string(),
                ev.detail
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, kind: FlightKind) -> FlightEvent {
        FlightEvent { at_ns, detail: at_ns, stack: 3, kind }
    }

    #[test]
    fn event_tag_rides_in_padding() {
        assert_eq!(std::mem::size_of::<FlightEvent>(), 24);
        assert_eq!(std::mem::size_of::<FlightRecorder>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new();
        assert_eq!(fr.mem_bytes(), 0, "no event, no allocation");
        for i in 0..10u64 {
            fr.push(4, ev(i, FlightKind::Delivery));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.dropped(), 6);
        let kept: Vec<u64> = fr.events().map(|e| e.at_ns).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest evicted first");
    }

    #[test]
    fn ring_grows_with_content_and_a_full_ring_never_reallocates() {
        let mut fr = FlightRecorder::new();
        fr.push(64, ev(0, FlightKind::Crash));
        let one = fr.mem_bytes();
        assert!(one < 64 * std::mem::size_of::<FlightEvent>() / 4, "one event, small ring: {one}");
        for i in 1..64u64 {
            fr.push(64, ev(i, FlightKind::Crash));
        }
        let full = fr.mem_bytes();
        for i in 64..1000u64 {
            fr.push(64, ev(i, FlightKind::Crash));
        }
        assert_eq!(fr.mem_bytes(), full, "a full ring must stay where it is");
        assert_eq!(fr.len(), 64);
    }

    #[test]
    fn zero_capacity_retains_nothing_and_counts_everything() {
        let mut fr = FlightRecorder::new();
        for i in 0..5u64 {
            fr.push(0, ev(i, FlightKind::Delivery));
        }
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 5);
    }

    #[test]
    fn dump_mentions_drops_and_every_event() {
        let mut fr = FlightRecorder::new();
        fr.push(2, ev(10, FlightKind::SwitchRequested));
        fr.push(2, ev(20, FlightKind::SwitchActivated));
        fr.push(2, ev(30, FlightKind::SwitchFirstDelivery));
        let mut out = String::new();
        fr.dump("s3", &mut out);
        assert!(out.contains("1 dropped"), "{out}");
        assert!(out.contains("switch-activated"), "{out}");
        assert!(out.contains("switch-first-delivery"), "{out}");
        assert!(out.contains("stack=3"), "{out}");
        assert!(!out.contains("switch-requested"), "evicted event must not appear: {out}");
    }
}
