//! Trace checker for the four atomic broadcast properties (paper §5.1,
//! after Hadzilacos & Toueg):
//!
//! * **Validity** — if a correct process ABcasts `m`, it eventually
//!   Adelivers `m`;
//! * **Uniform agreement** — if a process Adelivers `m`, all correct
//!   processes eventually Adeliver `m`;
//! * **Uniform integrity** — every process Adelivers `m` at most once, and
//!   only if `m` was previously ABcast;
//! * **Uniform total order** — if some process Adelivers `m` before `m'`,
//!   every process Adelivers `m'` only after it has Adelivered `m`.
//!
//! The paper's §5.2.2 proves these are preserved *across* the replacement
//! algorithm; the integration tests use this checker to verify exactly
//! that, including runs with crashes, message loss, and mid-stream
//! protocol switches.

use crate::ids::StackId;
use crate::time::Time;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Global identity of an application message: `(origin stack, sequence
/// number at the origin)`.
pub type MsgId = (StackId, u64);

/// A violation of one of the atomic broadcast properties.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbcastViolation {
    /// A correct sender never delivered its own message.
    Validity {
        /// The undelivered message.
        msg: MsgId,
    },
    /// Some process delivered `msg` but a correct process did not.
    Agreement {
        /// The message in question.
        msg: MsgId,
        /// A stack that delivered it.
        delivered_by: StackId,
        /// A correct stack that missed it.
        missing_on: StackId,
    },
    /// A message was delivered more than once by one stack.
    DuplicateDelivery {
        /// The duplicated message.
        msg: MsgId,
        /// The offending stack.
        stack: StackId,
        /// How many times it was delivered there.
        times: usize,
    },
    /// A message was delivered without ever being broadcast.
    SpuriousDelivery {
        /// The unknown message.
        msg: MsgId,
        /// The offending stack.
        stack: StackId,
    },
    /// Two stacks delivered a pair of messages in opposite orders.
    TotalOrder {
        /// First message of the inverted pair.
        a: MsgId,
        /// Second message of the inverted pair.
        b: MsgId,
        /// Stack that delivered `a` before `b`.
        stack_ab: StackId,
        /// Stack that delivered `b` before `a`.
        stack_ba: StackId,
    },
}

impl fmt::Display for AbcastViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbcastViolation::Validity { msg } => {
                write!(f, "validity: correct sender never adelivered its own {msg:?}")
            }
            AbcastViolation::Agreement { msg, delivered_by, missing_on } => write!(
                f,
                "uniform agreement: {msg:?} adelivered by {delivered_by} but not by correct {missing_on}"
            ),
            AbcastViolation::DuplicateDelivery { msg, stack, times } => {
                write!(f, "uniform integrity: {msg:?} adelivered {times} times on {stack}")
            }
            AbcastViolation::SpuriousDelivery { msg, stack } => {
                write!(f, "uniform integrity: {msg:?} adelivered on {stack} but never abcast")
            }
            AbcastViolation::TotalOrder { a, b, stack_ab, stack_ba } => write!(
                f,
                "uniform total order: {stack_ab} adelivered {a:?} before {b:?}, {stack_ba} the opposite"
            ),
        }
    }
}

/// Accumulates broadcast/delivery records from a run and checks the four
/// atomic broadcast properties at the end.
#[derive(Clone, Debug, Default)]
pub struct AbcastChecker {
    broadcasts: BTreeMap<MsgId, (StackId, Time)>,
    /// Per stack, messages in delivery order.
    deliveries: BTreeMap<StackId, Vec<(MsgId, Time)>>,
    crashed: BTreeSet<StackId>,
    stacks: BTreeSet<StackId>,
}

impl AbcastChecker {
    /// A checker over the given stack set.
    pub fn new(stacks: impl IntoIterator<Item = StackId>) -> AbcastChecker {
        AbcastChecker { stacks: stacks.into_iter().collect(), ..Default::default() }
    }

    /// Record that `sender` ABcast `msg` at time `t`.
    pub fn record_broadcast(&mut self, msg: MsgId, sender: StackId, t: Time) {
        self.broadcasts.entry(msg).or_insert((sender, t));
    }

    /// Record that `stack` Adelivered `msg` at time `t`. Order of calls
    /// per stack defines that stack's delivery order.
    pub fn record_delivery(&mut self, msg: MsgId, stack: StackId, t: Time) {
        self.deliveries.entry(stack).or_default().push((msg, t));
    }

    /// Record that `stack` crashed (it becomes exempt from the liveness
    /// obligations).
    pub fn record_crash(&mut self, stack: StackId) {
        self.crashed.insert(stack);
    }

    /// Stacks considered correct: configured and never crashed.
    pub(crate) fn correct_stacks(&self) -> Vec<StackId> {
        self.stacks.iter().copied().filter(|s| !self.crashed.contains(s)).collect()
    }

    /// Number of broadcasts recorded.
    pub fn broadcast_count(&self) -> usize {
        self.broadcasts.len()
    }

    /// Number of deliveries recorded on `stack`.
    pub fn delivery_count(&self, stack: StackId) -> usize {
        self.deliveries.get(&stack).map_or(0, Vec::len)
    }

    /// Check all four properties; returns every violation found.
    pub fn check(&self) -> Vec<AbcastViolation> {
        let mut violations = Vec::new();
        let correct = self.correct_stacks();
        let empty: Vec<(MsgId, Time)> = Vec::new();

        // Uniform integrity: at most once, and only if broadcast.
        for (&stack, delivs) in &self.deliveries {
            let mut counts: BTreeMap<MsgId, usize> = BTreeMap::new();
            for (msg, _) in delivs {
                *counts.entry(*msg).or_insert(0) += 1;
            }
            for (msg, times) in counts {
                if times > 1 {
                    violations.push(AbcastViolation::DuplicateDelivery { msg, stack, times });
                }
                if !self.broadcasts.contains_key(&msg) {
                    violations.push(AbcastViolation::SpuriousDelivery { msg, stack });
                }
            }
        }

        // Validity: a correct sender delivers its own message.
        for (msg, (sender, _)) in &self.broadcasts {
            if self.crashed.contains(sender) || !self.stacks.contains(sender) {
                continue;
            }
            let delivered =
                self.deliveries.get(sender).is_some_and(|d| d.iter().any(|(m, _)| m == msg));
            if !delivered {
                violations.push(AbcastViolation::Validity { msg: *msg });
            }
        }

        // Uniform agreement: any delivery anywhere ⇒ all correct deliver.
        let mut delivered_anywhere: BTreeMap<MsgId, StackId> = BTreeMap::new();
        for (&stack, delivs) in &self.deliveries {
            for (msg, _) in delivs {
                delivered_anywhere.entry(*msg).or_insert(stack);
            }
        }
        for (msg, by) in &delivered_anywhere {
            for j in &correct {
                let has = self.deliveries.get(j).is_some_and(|d| d.iter().any(|(m, _)| m == msg));
                if !has {
                    violations.push(AbcastViolation::Agreement {
                        msg: *msg,
                        delivered_by: *by,
                        missing_on: *j,
                    });
                }
            }
        }

        // Uniform total order: pairwise relative order of commonly
        // delivered messages must agree across all stacks (crashed ones
        // included — the property is uniform).
        let stacks_with_delivs: Vec<StackId> = self.deliveries.keys().copied().collect();
        for (idx, &si) in stacks_with_delivs.iter().enumerate() {
            let di = self.deliveries.get(&si).unwrap_or(&empty);
            let pos_i: BTreeMap<MsgId, usize> =
                di.iter().enumerate().map(|(k, (m, _))| (*m, k)).collect();
            for &sj in &stacks_with_delivs[idx + 1..] {
                let dj = self.deliveries.get(&sj).unwrap_or(&empty);
                // Walk sj's order restricted to common messages and check
                // it is increasing in si's positions.
                let mut prev: Option<(MsgId, usize)> = None;
                for (m, _) in dj {
                    let Some(&p) = pos_i.get(m) else { continue };
                    if let Some((pm, pp)) = prev {
                        if p < pp {
                            violations.push(AbcastViolation::TotalOrder {
                                a: *m,
                                b: pm,
                                stack_ab: si,
                                stack_ba: sj,
                            });
                        }
                    }
                    prev = Some((*m, p));
                }
            }
        }

        violations
    }

    /// Convenience: panic with a readable report if any property is
    /// violated. For use in tests.
    pub fn assert_ok(&self) {
        let v = self.check();
        assert!(
            v.is_empty(),
            "atomic broadcast properties violated:\n{}",
            v.iter().map(|x| format!("  - {x}")).collect::<Vec<_>>().join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> StackId {
        StackId(n)
    }

    fn msg(origin: u32, seq: u64) -> MsgId {
        (sid(origin), seq)
    }

    fn checker(n: u32) -> AbcastChecker {
        AbcastChecker::new((0..n).map(StackId))
    }

    #[test]
    fn clean_run_passes() {
        let mut c = checker(3);
        for s in 0..3u32 {
            c.record_broadcast(msg(s, 0), sid(s), Time(s as u64));
        }
        // All stacks deliver all messages in the same global order.
        for stack in 0..3u32 {
            for s in 0..3u32 {
                c.record_delivery(msg(s, 0), sid(stack), Time(10 + u64::from(s)));
            }
        }
        assert!(c.check().is_empty());
        c.assert_ok();
    }

    #[test]
    fn validity_violation_detected() {
        let mut c = checker(2);
        c.record_broadcast(msg(0, 0), sid(0), Time(0));
        // Only stack 1 delivers; correct sender 0 never does.
        c.record_delivery(msg(0, 0), sid(1), Time(5));
        let v = c.check();
        assert!(v.iter().any(|x| matches!(x, AbcastViolation::Validity { .. })));
    }

    #[test]
    fn crashed_sender_exempt_from_validity() {
        let mut c = checker(2);
        c.record_broadcast(msg(0, 0), sid(0), Time(0));
        c.record_crash(sid(0));
        c.record_delivery(msg(0, 0), sid(1), Time(5));
        let v = c.check();
        assert!(!v.iter().any(|x| matches!(x, AbcastViolation::Validity { .. })));
    }

    #[test]
    fn agreement_violation_detected_even_from_crashed_deliverer() {
        let mut c = checker(3);
        c.record_broadcast(msg(0, 0), sid(0), Time(0));
        // Stack 2 delivers then crashes; correct stacks 0 and 1 never do.
        c.record_delivery(msg(0, 0), sid(2), Time(3));
        c.record_crash(sid(2));
        let v = c.check();
        let agreement: Vec<_> =
            v.iter().filter(|x| matches!(x, AbcastViolation::Agreement { .. })).collect();
        assert_eq!(agreement.len(), 2, "both correct stacks are missing the message");
    }

    #[test]
    fn duplicate_delivery_detected() {
        let mut c = checker(1);
        c.record_broadcast(msg(0, 0), sid(0), Time(0));
        c.record_delivery(msg(0, 0), sid(0), Time(1));
        c.record_delivery(msg(0, 0), sid(0), Time(2));
        let v = c.check();
        assert!(v.iter().any(|x| matches!(x, AbcastViolation::DuplicateDelivery { times: 2, .. })));
    }

    #[test]
    fn spurious_delivery_detected() {
        let mut c = checker(1);
        c.record_delivery(msg(0, 9), sid(0), Time(1));
        let v = c.check();
        assert!(v.iter().any(|x| matches!(x, AbcastViolation::SpuriousDelivery { .. })));
        // Spurious also implies agreement bookkeeping, but integrity is
        // the essential flag here.
    }

    #[test]
    fn total_order_violation_detected() {
        let mut c = checker(2);
        c.record_broadcast(msg(0, 0), sid(0), Time(0));
        c.record_broadcast(msg(1, 0), sid(1), Time(0));
        c.record_delivery(msg(0, 0), sid(0), Time(1));
        c.record_delivery(msg(1, 0), sid(0), Time(2));
        c.record_delivery(msg(1, 0), sid(1), Time(1));
        c.record_delivery(msg(0, 0), sid(1), Time(2));
        let v = c.check();
        assert!(v.iter().any(|x| matches!(x, AbcastViolation::TotalOrder { .. })));
    }

    #[test]
    fn total_order_allows_gaps_in_crashed_stack() {
        // A stack that delivered only a prefix (then crashed) must not
        // trigger a total order violation.
        let mut c = checker(2);
        c.record_broadcast(msg(0, 0), sid(0), Time(0));
        c.record_broadcast(msg(0, 1), sid(0), Time(0));
        c.record_delivery(msg(0, 0), sid(0), Time(1));
        c.record_delivery(msg(0, 1), sid(0), Time(2));
        c.record_delivery(msg(0, 0), sid(1), Time(1));
        c.record_crash(sid(1));
        let v = c.check();
        assert!(!v.iter().any(|x| matches!(x, AbcastViolation::TotalOrder { .. })));
        // Agreement is also satisfied: stack 1 crashed.
        assert!(!v.iter().any(|x| matches!(x, AbcastViolation::Agreement { .. })));
    }

    #[test]
    fn violation_display_is_readable() {
        let v = AbcastViolation::Validity { msg: msg(0, 1) };
        assert!(format!("{v}").contains("validity"));
        let v = AbcastViolation::TotalOrder {
            a: msg(0, 1),
            b: msg(1, 1),
            stack_ab: sid(0),
            stack_ba: sid(1),
        };
        assert!(format!("{v}").contains("total order"));
    }

    #[test]
    #[should_panic(expected = "atomic broadcast properties violated")]
    fn assert_ok_panics_on_violation() {
        let mut c = checker(1);
        c.record_delivery(msg(0, 9), sid(0), Time(1));
        c.assert_ok();
    }
}
