//! Switch-phase timeline: per-stack lifecycle stamps for every
//! protocol switch.
//!
//! A switch, as a stack experiences it, has four observable instants:
//!
//! 1. **requested** — the stack learns a switch is coming (the
//!    initiator's `CHANGE_OP` call, or delivery of the totally-ordered
//!    `NewAbcast` announcement elsewhere).
//! 2. **flushed** — the outgoing module has drained and is unbound.
//! 3. **activated** — the replacement module is created and bound.
//! 4. **first_delivery** — the first message the *new* module delivers
//!    end-to-end.
//!
//! The *blackout window* is `first_delivery − requested`: how long a
//! client at this stack goes without deliveries because of the switch.
//! Deliveries that land between `requested` and `activated` came from
//! the old module, so they do not close the record — only a
//! post-activation delivery does. `requested` is idempotent while a
//! record is pending (a stack can both initiate a switch and later see
//! its announcement).
//!
//! A completed record is handed back to the caller, which folds its
//! blackout and flush→activate gap into the histograms of a
//! [`crate::TelemetrySet`] (on a hosted stack, the shard's, lent for
//! the duration of a drive call). What the timeline itself owns is the
//! open record, the completed count and the first few completed records
//! (a stack's k-th is its switch k; the whole-system benchmark reads
//! their blackout windows exactly), boxed by the first switch stamp: a
//! stack that never switches holds one null word of it, and the
//! footprint is bounded no matter how many switches a soak performs.
//! Nothing merges timelines across stacks: a report sums their counts.

/// Raw switch records retained (beyond this, only histograms grow).
const RETAINED_RECORDS: usize = 16;

/// One completed (or in-flight) switch on one stack. Times are
/// stack-local nanoseconds; `u64::MAX` marks a stamp not yet taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwitchRecord {
    /// When the stack learned of the switch.
    pub(crate) requested_ns: u64,
    /// When the outgoing module finished flushing (unbound).
    pub(crate) flushed_ns: u64,
    /// When the replacement module was created and bound.
    pub activated_ns: u64,
    /// First delivery by the new module (closes the record).
    pub(crate) first_delivery_ns: u64,
}

const UNSET: u64 = u64::MAX;

impl SwitchRecord {
    /// A timeline's open record while no switch is underway: no stamp
    /// taken, not even `requested`.
    const IDLE: SwitchRecord = SwitchRecord {
        requested_ns: UNSET,
        flushed_ns: UNSET,
        activated_ns: UNSET,
        first_delivery_ns: UNSET,
    };

    /// Blackout window (`first_delivery − requested`), if complete.
    pub fn blackout_ns(&self) -> Option<u64> {
        (self.first_delivery_ns != UNSET)
            .then(|| self.first_delivery_ns.saturating_sub(self.requested_ns))
    }

    /// Flush→activate gap, if both stamps were taken.
    pub fn swap_gap_ns(&self) -> Option<u64> {
        (self.flushed_ns != UNSET && self.activated_ns != UNSET)
            .then(|| self.activated_ns.saturating_sub(self.flushed_ns))
    }
}

/// Per-stack switch timeline: at most one pending record and a bounded
/// history grown one record at a time.
#[derive(Debug)]
pub struct SwitchTimeline {
    /// What switches leave on this stack; `None` until the first one.
    records: Option<Box<Records>>,
}

/// The timeline's own part: the open record, the completed count and
/// the retained records.
#[derive(Debug)]
struct Records {
    /// The open record — switch `completed + 1` — or
    /// [`SwitchRecord::IDLE`] while no switch is underway: an `Option`
    /// would cost a word.
    pending: SwitchRecord,
    completed: u64,
    recent: Vec<SwitchRecord>,
}

impl Records {
    const EMPTY: Records =
        Records { pending: SwitchRecord::IDLE, completed: 0, recent: Vec::new() };
}

impl SwitchTimeline {
    /// An empty timeline.
    pub(crate) fn new() -> SwitchTimeline {
        SwitchTimeline { records: None }
    }

    /// The records, boxed here the first time a switch needs them.
    fn records_mut(&mut self) -> &mut Records {
        self.records.get_or_insert_with(|| Box::new(Records::EMPTY))
    }

    /// Stamp "the stack learned of a switch". Idempotent while a record
    /// is pending: the initiator calls this at `CHANGE_OP` and again
    /// when the totally-ordered announcement comes back.
    pub fn requested(&mut self, now_ns: u64) {
        let records = self.records_mut();
        if records.pending.requested_ns == UNSET {
            records.pending = SwitchRecord { requested_ns: now_ns, ..SwitchRecord::IDLE };
        }
    }

    fn pending_mut(&mut self) -> Option<&mut SwitchRecord> {
        let records = self.records.as_deref_mut()?;
        (records.pending.requested_ns != UNSET).then_some(&mut records.pending)
    }

    /// Stamp "old module flushed and unbound".
    pub fn flushed(&mut self, now_ns: u64) {
        if let Some(rec) = self.pending_mut() {
            if rec.flushed_ns == UNSET {
                rec.flushed_ns = now_ns;
            }
        }
    }

    /// Stamp "replacement module created and bound".
    pub fn activated(&mut self, now_ns: u64) {
        if let Some(rec) = self.pending_mut() {
            if rec.activated_ns == UNSET {
                rec.activated_ns = now_ns;
            }
        }
    }

    /// Note an end-to-end delivery. Closes the pending record — and
    /// returns the completed record — only if the new module is already
    /// active; pre-activation deliveries came from the old module and
    /// leave the record open.
    pub fn note_delivery(&mut self, now_ns: u64) -> Option<SwitchRecord> {
        let rec = self.pending_mut()?;
        if rec.activated_ns == UNSET {
            return None;
        }
        rec.first_delivery_ns = now_ns;
        let done = std::mem::replace(rec, SwitchRecord::IDLE);
        let records = self.records_mut();
        records.completed += 1;
        if records.recent.len() < RETAINED_RECORDS {
            // Exact growth: switches are rare, and `Vec`'s doubling would
            // hold four records' worth of bytes for a stack's first one.
            records.recent.reserve_exact(1);
            records.recent.push(done);
        }
        Some(done)
    }

    /// Completed switches on this stack.
    pub fn completed(&self) -> u64 {
        self.records.as_ref().map_or(0, |r| r.completed)
    }

    /// The in-flight record, if a switch is underway.
    pub fn pending(&self) -> Option<&SwitchRecord> {
        self.records.as_deref().map(|r| &r.pending).filter(|p| p.requested_ns != UNSET)
    }

    /// First few completed records, oldest first (bounded).
    pub fn recent(&self) -> &[SwitchRecord] {
        self.records.as_deref().map_or(&[], |r| &r.recent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_lifecycle_produces_blackout_and_gap() {
        let mut tl = SwitchTimeline::new();
        tl.requested(1_000);
        tl.flushed(4_000);
        tl.activated(5_000);
        let done = tl.note_delivery(9_000).expect("record should close");
        assert_eq!(done.blackout_ns(), Some(8_000));
        assert_eq!(done.swap_gap_ns(), Some(1_000));
        assert_eq!(tl.completed(), 1);
        assert_eq!(tl.recent(), [done]);
    }

    #[test]
    fn pre_activation_deliveries_do_not_close_the_record() {
        let mut tl = SwitchTimeline::new();
        tl.requested(100);
        assert!(tl.note_delivery(200).is_none(), "old-module delivery must not close");
        tl.flushed(300);
        assert!(tl.note_delivery(400).is_none(), "still not activated");
        tl.activated(500);
        let done = tl.note_delivery(600).expect("post-activation delivery closes");
        assert_eq!(done.blackout_ns(), Some(500));
    }

    #[test]
    fn requested_is_idempotent_while_pending() {
        let mut tl = SwitchTimeline::new();
        tl.requested(100);
        tl.requested(250); // announcement arrives after the initiator's CHANGE_OP
        tl.activated(300);
        let done = tl.note_delivery(400).unwrap();
        assert_eq!(done.requested_ns, 100, "first stamp wins");
        // A new switch may start afresh once the previous one closed.
        tl.requested(1_000);
        assert_eq!(tl.pending().unwrap().requested_ns, 1_000);
    }

    #[test]
    fn deliveries_with_no_pending_switch_are_ignored() {
        let mut tl = SwitchTimeline::new();
        assert!(tl.note_delivery(50).is_none());
        assert_eq!(tl.completed(), 0);
    }

    #[test]
    fn a_timeline_that_never_switched_holds_no_records() {
        let mut tl = SwitchTimeline::new();
        tl.flushed(1);
        tl.activated(2);
        assert!(tl.note_delivery(3).is_none());
        assert!(tl.records.is_none());
        assert_eq!((tl.completed(), tl.recent(), tl.pending()), (0, &[][..], None));
        tl.requested(4);
        assert!(tl.records.is_some(), "the first switch stamp boxes them");
    }

    #[test]
    fn completed_and_recent_read_every_switch_up_to_the_cap() {
        let mut tl = SwitchTimeline::new();
        for t in (0..20u64).map(|k| k * 100) {
            tl.requested(t);
            tl.flushed(t + 10);
            tl.activated(t + 20);
            tl.note_delivery(t + 50);
        }
        assert_eq!(tl.completed(), 20);
        assert_eq!(tl.recent().len(), RETAINED_RECORDS);
        for (k, rec) in (0u64..).zip(tl.recent()) {
            let t = k * 100;
            let want = SwitchRecord {
                requested_ns: t,
                flushed_ns: t + 10,
                activated_ns: t + 20,
                first_delivery_ns: t + 50,
            };
            assert_eq!(*rec, want, "switch {}", k + 1);
        }
    }
}
