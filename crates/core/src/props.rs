//! Mechanical checkers for the paper's generic DPU correctness properties
//! (§3): *stack-well-formedness* (local) and *protocol-operationability*
//! (remote), each at a strong and a weak level.
//!
//! The checkers are post-hoc: they consume a merged [`TraceLog`] of a
//! finished run. "Eventually" is interpreted as "by the end of the trace",
//! which is the standard finite-trace reading used when testing liveness
//! properties: a run must be long enough (quiescent at the end) for the
//! weak properties to be meaningful.

use crate::ids::{ModuleId, ServiceId, StackId};
use crate::time::Time;
use crate::trace::{TraceEvent, TraceLog};
use std::collections::{BTreeMap, BTreeSet};

/// Result of assessing a two-level (strong/weak) property on a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assessment {
    /// The strong level holds.
    pub strong: bool,
    /// The weak level holds (implied by `strong`).
    pub weak: bool,
    /// Human-readable descriptions of each weak-level violation.
    pub violations: Vec<String>,
}

impl Assessment {
    fn strong() -> Assessment {
        Assessment { strong: true, weak: true, violations: Vec::new() }
    }
}

/// Check **stack-well-formedness** (paper §3) on every stack in the trace.
///
/// * **Strong**: whenever a module calls a service, the service is bound —
///   i.e. the trace contains no [`TraceEvent::BlockedCall`].
/// * **Weak**: every blocked call is eventually released by a bind
///   ([`TraceEvent::ReleasedCall`]) before the end of the trace. Calls
///   blocked on a stack that subsequently crashes are excused: the
///   property quantifies over non-crashed stacks.
pub fn check_stack_well_formedness(log: &TraceLog) -> Assessment {
    let mut assessment = Assessment::strong();
    // Outstanding blocked calls per (stack, service): count.
    let mut outstanding: BTreeMap<(StackId, ServiceId), u64> = BTreeMap::new();
    let mut crashed: BTreeSet<StackId> = BTreeSet::new();
    for (_, ev) in log.events() {
        match ev {
            TraceEvent::BlockedCall { stack, service, .. } => {
                assessment.strong = false;
                *outstanding.entry((*stack, *service)).or_insert(0) += 1;
            }
            TraceEvent::ReleasedCall { stack, service, .. } => {
                if let Some(n) = outstanding.get_mut(&(*stack, *service)) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        outstanding.remove(&(*stack, *service));
                    }
                }
            }
            TraceEvent::Crash { stack } => {
                crashed.insert(*stack);
            }
            _ => {}
        }
    }
    for ((stack, service), n) in outstanding {
        if n > 0 && !crashed.contains(&stack) {
            assessment.weak = false;
            assessment.violations.push(format!(
                "{n} call(s) on {stack} to service {service} blocked forever (never rebound)"
            ));
        }
    }
    assessment
}

/// Lifetime interval of a module instance: `[created, destroyed)`, with
/// `destroyed = None` meaning it lived to the end of the trace.
#[derive(Clone, Debug)]
struct Lifetime {
    created: Time,
    destroyed: Option<Time>,
}

impl Lifetime {
    fn alive_at(&self, t: Time) -> bool {
        self.created <= t && self.destroyed.is_none_or(|d| t < d)
    }
    fn alive_at_or_after(&self, t: Time) -> bool {
        self.destroyed.is_none_or(|d| t < d)
    }
}

/// Check **protocol-operationability** (paper §3) for the protocol whose
/// modules have kind `kind`, over the stack set `stacks`.
///
/// * **Strong**: whenever a module of `kind` is *bound* in some stack `i`,
///   all non-crashed stacks `j ∈ stacks` contain a live module of `kind`
///   at that moment.
/// * **Weak**: …all non-crashed stacks eventually (at or after the bind
///   time, by the end of the trace) contain a module of `kind`.
///
/// "Non-crashed" is judged at the end of the trace, matching the paper's
/// asynchronous-model reading where a stack that crashes is permanently
/// excused.
pub fn check_protocol_operationability(
    log: &TraceLog,
    kind: &str,
    stacks: &[StackId],
) -> Assessment {
    let mut assessment = Assessment::strong();
    let crashed = log.crashed_stacks();

    // Reconstruct module lifetimes and kinds.
    let mut kind_of: BTreeMap<(StackId, ModuleId), &str> = BTreeMap::new();
    let mut lifetimes: BTreeMap<StackId, Vec<Lifetime>> = BTreeMap::new();
    let mut open: BTreeMap<(StackId, ModuleId), usize> = BTreeMap::new();
    for (t, ev) in log.events() {
        match ev {
            TraceEvent::ModuleCreated { stack, module, kind: k } => {
                kind_of.insert((*stack, *module), k);
                if **k == *kind {
                    let v = lifetimes.entry(*stack).or_default();
                    open.insert((*stack, *module), v.len());
                    v.push(Lifetime { created: *t, destroyed: None });
                }
            }
            TraceEvent::ModuleDestroyed { stack, module, kind: k } if **k == *kind => {
                if let Some(idx) = open.remove(&(*stack, *module)) {
                    if let Some(v) = lifetimes.get_mut(stack) {
                        v[idx].destroyed = Some(*t);
                    }
                }
            }
            _ => {}
        }
    }

    // For every bind of a module of `kind`, check all other stacks.
    for (t, ev) in log.events() {
        let TraceEvent::Bind { stack: binder, module, .. } = ev else { continue };
        if kind_of.get(&(*binder, *module)) != Some(&kind) {
            continue;
        }
        for j in stacks {
            if *j == *binder || crashed.contains(j) {
                continue;
            }
            let lt = lifetimes.get(j).map(Vec::as_slice).unwrap_or(&[]);
            let now_alive = lt.iter().any(|l| l.alive_at(*t));
            let eventually_alive = lt.iter().any(|l| l.alive_at_or_after(*t));
            if !now_alive {
                assessment.strong = false;
            }
            if !eventually_alive {
                assessment.weak = false;
                assessment.violations.push(format!(
                    "module of kind {kind:?} bound on {binder} at {t} but {j} never \
                     contains one at or after that time"
                ));
            }
        }
    }
    assessment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServiceId;

    fn svc(s: &str) -> ServiceId {
        ServiceId::new(s)
    }

    #[test]
    fn empty_trace_is_strongly_well_formed() {
        let log = TraceLog::new();
        let a = check_stack_well_formedness(&log);
        assert!(a.strong && a.weak);
    }

    #[test]
    fn blocked_then_released_is_weak_not_strong() {
        let mut log = TraceLog::new();
        log.push(
            Time(1),
            TraceEvent::BlockedCall {
                stack: StackId(0),
                service: svc("p"),
                op: 1,
                from: ModuleId(1),
            },
        );
        log.push(
            Time(2),
            TraceEvent::ReleasedCall {
                stack: StackId(0),
                service: svc("p"),
                op: 1,
                from: ModuleId(1),
            },
        );
        let a = check_stack_well_formedness(&log);
        assert!(!a.strong);
        assert!(a.weak);
        assert!(a.violations.is_empty());
    }

    #[test]
    fn blocked_forever_violates_weak() {
        let mut log = TraceLog::new();
        log.push(
            Time(1),
            TraceEvent::BlockedCall {
                stack: StackId(0),
                service: svc("p"),
                op: 1,
                from: ModuleId(1),
            },
        );
        let a = check_stack_well_formedness(&log);
        assert!(!a.strong);
        assert!(!a.weak);
        assert_eq!(a.violations.len(), 1);
    }

    #[test]
    fn blocked_on_crashed_stack_is_excused() {
        let mut log = TraceLog::new();
        log.push(
            Time(1),
            TraceEvent::BlockedCall {
                stack: StackId(0),
                service: svc("p"),
                op: 1,
                from: ModuleId(1),
            },
        );
        log.push(Time(2), TraceEvent::Crash { stack: StackId(0) });
        let a = check_stack_well_formedness(&log);
        assert!(!a.strong);
        assert!(a.weak, "crashed stacks are excused from weak well-formedness");
    }

    #[test]
    fn multiple_blocked_partial_release_detected() {
        let mut log = TraceLog::new();
        for _ in 0..3 {
            log.push(
                Time(1),
                TraceEvent::BlockedCall {
                    stack: StackId(0),
                    service: svc("p"),
                    op: 1,
                    from: ModuleId(1),
                },
            );
        }
        for _ in 0..2 {
            log.push(
                Time(2),
                TraceEvent::ReleasedCall {
                    stack: StackId(0),
                    service: svc("p"),
                    op: 1,
                    from: ModuleId(1),
                },
            );
        }
        let a = check_stack_well_formedness(&log);
        assert!(!a.weak);
        assert!(a.violations[0].contains("1 call(s)"));
    }

    fn created(t: u64, stack: u32, m: u64, kind: &str) -> (Time, TraceEvent) {
        (
            Time(t),
            TraceEvent::ModuleCreated {
                stack: StackId(stack),
                module: ModuleId(m),
                kind: kind.into(),
            },
        )
    }

    fn bound(t: u64, stack: u32, m: u64) -> (Time, TraceEvent) {
        (
            Time(t),
            TraceEvent::Bind { stack: StackId(stack), service: svc("p"), module: ModuleId(m) },
        )
    }

    fn push_all(log: &mut TraceLog, evs: Vec<(Time, TraceEvent)>) {
        for (t, e) in evs {
            log.push(t, e);
        }
    }

    #[test]
    fn operationability_strong_when_all_stacks_have_module_at_bind() {
        let mut log = TraceLog::new();
        push_all(&mut log, vec![created(0, 0, 1, "P"), created(0, 1, 1, "P"), bound(5, 0, 1)]);
        let a = check_protocol_operationability(&log, "P", &[StackId(0), StackId(1)]);
        assert!(a.strong && a.weak);
    }

    #[test]
    fn operationability_weak_when_module_created_later() {
        let mut log = TraceLog::new();
        push_all(&mut log, vec![created(0, 0, 1, "P"), bound(5, 0, 1), created(9, 1, 1, "P")]);
        let a = check_protocol_operationability(&log, "P", &[StackId(0), StackId(1)]);
        assert!(!a.strong);
        assert!(a.weak);
    }

    #[test]
    fn operationability_violated_when_stack_never_gets_module() {
        let mut log = TraceLog::new();
        push_all(&mut log, vec![created(0, 0, 1, "P"), bound(5, 0, 1)]);
        let a = check_protocol_operationability(&log, "P", &[StackId(0), StackId(1)]);
        assert!(!a.weak);
        assert_eq!(a.violations.len(), 1);
    }

    #[test]
    fn operationability_excuses_crashed_stacks() {
        let mut log = TraceLog::new();
        push_all(&mut log, vec![created(0, 0, 1, "P"), bound(5, 0, 1)]);
        log.push(Time(6), TraceEvent::Crash { stack: StackId(1) });
        let a = check_protocol_operationability(&log, "P", &[StackId(0), StackId(1)]);
        assert!(a.weak);
    }

    #[test]
    fn operationability_destroyed_before_bind_counts_as_missing() {
        let mut log = TraceLog::new();
        push_all(&mut log, vec![created(0, 0, 1, "P"), created(0, 1, 1, "P")]);
        log.push(
            Time(2),
            TraceEvent::ModuleDestroyed {
                stack: StackId(1),
                module: ModuleId(1),
                kind: "P".into(),
            },
        );
        push_all(&mut log, vec![bound(5, 0, 1)]);
        let a = check_protocol_operationability(&log, "P", &[StackId(0), StackId(1)]);
        assert!(!a.strong);
        assert!(!a.weak);
    }

    #[test]
    fn operationability_ignores_binds_of_other_kinds() {
        let mut log = TraceLog::new();
        push_all(&mut log, vec![created(0, 0, 1, "Q"), bound(5, 0, 1)]);
        let a = check_protocol_operationability(&log, "P", &[StackId(0), StackId(1)]);
        assert!(a.strong && a.weak);
    }
}
