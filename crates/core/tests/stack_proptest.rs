//! Property tests for the composition kernel: under arbitrary
//! interleavings of bind / unbind / call / step, the stack preserves its
//! core invariants —
//!
//! * no call is lost: everything issued is eventually dispatched once a
//!   provider is bound (weak stack-well-formedness, constructively);
//! * per-service FIFO: calls reach the provider in issue order;
//! * no call is dispatched while the service is unbound;
//! * the trace's blocked/released bookkeeping matches reality.

use bytes::Bytes;
use dpu_core::stack::{FactoryRegistry, ModuleCtx, Stack, StackConfig};
use dpu_core::time::Time;
use dpu_core::trace::TraceEvent;
use dpu_core::{Call, Module, ModuleId, Response, ServiceId};
use proptest::prelude::*;

/// Records every call it receives, in order.
struct Recorder {
    svc: ServiceId,
    got: Vec<u64>,
}

impl Module for Recorder {
    fn kind(&self) -> &str {
        "recorder"
    }
    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }
    fn requires(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, call: Call) {
        let v = dpu_core::wire::from_bytes::<u64>(&call.data).unwrap();
        self.got.push(v);
    }
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
}

#[derive(Debug, Clone)]
enum OpKind {
    Bind,
    Unbind,
    Call,
    Step,
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        2 => Just(OpKind::Bind),
        2 => Just(OpKind::Unbind),
        5 => Just(OpKind::Call),
        6 => Just(OpKind::Step),
    ]
}

proptest! {
    #[test]
    fn calls_are_never_lost_and_stay_fifo(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let svc = ServiceId::new("p");
        let mut stack = Stack::new(StackConfig::nth(0, 1, 7), FactoryRegistry::new());
        let provider =
            stack.add_module(Box::new(Recorder { svc, got: Vec::new() }));
        let caller = ModuleId(0); // synthetic caller id for call_as
        let mut issued: u64 = 0;
        let mut bound = false;
        let mut t = 0u64;
        // The recorder's Start delivery is pending; it gets dispatched by
        // the first Step ops like everything else.
        for op in &ops {
            t += 1;
            match op {
                OpKind::Bind => {
                    stack.bind(&svc, provider);
                    bound = true;
                }
                OpKind::Unbind => {
                    stack.unbind(&svc);
                    bound = false;
                }
                OpKind::Call => {
                    stack.call_as(caller, &svc, 1, dpu_core::wire::to_bytes(&issued));
                    issued += 1;
                }
                OpKind::Step => {
                    let _ = stack.step(Time(t));
                }
            }
            let _ = bound;
        }
        // Finish: bind (releasing anything blocked) and drain.
        stack.bind(&svc, provider);
        let mut guard = 0;
        while stack.step(Time(t + guard)).is_some() {
            guard += 1;
            prop_assert!(guard < 100_000, "dispatch must terminate");
        }
        let got = stack
            .with_module::<Recorder, _>(provider, |r| r.got.clone())
            .expect("provider exists");
        // 1. Nothing lost, nothing duplicated, order preserved.
        prop_assert_eq!(&got, &(0..issued).collect::<Vec<u64>>());
        // 2. Trace bookkeeping: every blocked call was eventually
        //    released (we re-bound at the end).
        let trace = stack.trace();
        let blocked = trace
            .events()
            .filter(|(_, e)| matches!(e, TraceEvent::BlockedCall { .. }))
            .count();
        let released = trace
            .events()
            .filter(|(_, e)| matches!(e, TraceEvent::ReleasedCall { .. }))
            .count();
        prop_assert_eq!(blocked, released, "all blocked calls must be released");
        // 3. Dispatched + blocked = issued (the tally counts every call).
        let direct: u64 =
            trace.tally().iter().filter(|(s, ..)| *s == svc).map(|(.., t)| t.calls).sum();
        prop_assert_eq!(direct as usize + blocked, issued as usize);
        // 4. The checker agrees the final trace is weakly well-formed.
        let assessment = dpu_core::props::check_stack_well_formedness(trace);
        prop_assert!(assessment.weak);
        prop_assert_eq!(assessment.strong, blocked == 0);
    }

    /// Rebinding between two providers partitions the call stream
    /// without loss or reorder within each provider's view.
    #[test]
    fn rebinding_between_providers_partitions_the_stream(
        plan in proptest::collection::vec((any::<bool>(), 1usize..6), 1..20)
    ) {
        let svc = ServiceId::new("p");
        let mut stack = Stack::new(StackConfig::nth(0, 1, 3), FactoryRegistry::new());
        let a = stack.add_module(Box::new(Recorder { svc, got: Vec::new() }));
        let b = stack.add_module(Box::new(Recorder { svc, got: Vec::new() }));
        let caller = ModuleId(0);
        let mut issued = 0u64;
        let mut t = 0u64;
        for (use_a, count) in &plan {
            stack.bind(&svc, if *use_a { a } else { b });
            for _ in 0..*count {
                stack.call_as(caller, &svc, 1, dpu_core::wire::to_bytes(&issued));
                issued += 1;
            }
            // Drain so the binding at issue time decides the receiver.
            while stack.step(Time(t)).is_some() {
                t += 1;
            }
        }
        let got_a = stack.with_module::<Recorder, _>(a, |r| r.got.clone()).unwrap();
        let got_b = stack.with_module::<Recorder, _>(b, |r| r.got.clone()).unwrap();
        // Each stream is strictly increasing (order preserved) …
        prop_assert!(got_a.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(got_b.windows(2).all(|w| w[0] < w[1]));
        // … and together they form exactly the issued set.
        let mut merged: Vec<u64> = got_a.iter().chain(got_b.iter()).copied().collect();
        merged.sort_unstable();
        prop_assert_eq!(merged, (0..issued).collect::<Vec<u64>>());
        let _ = Bytes::new();
    }
}
