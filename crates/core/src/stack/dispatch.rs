//! Running the work: the delivery queue, [`Stack::step`] (one delivery
//! to one module handler), timer expiry, and the shard loan of the
//! dispatch and encode buffers and the trace tail.

use super::{HostAction, ModuleCtx, Stack};
use crate::ids::{ModuleId, TimerId};
use crate::module::{Call, Response};
use crate::time::Time;
use crate::trace::{Tail, TraceEvent};
use crate::wire::WireScratch;
use std::collections::VecDeque;

/// What kind of work one [`Stack::step`] dispatched — hosts use this to
/// charge CPU cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepCategory {
    /// A service call was dispatched to its provider.
    Call,
    /// A response was dispatched to a requirer.
    Response,
    /// A timer handler ran.
    Timer,
    /// A module's `on_start` ran.
    Start,
    /// A destroyed module was removed from the stack (its queued
    /// [`Stack::destroy_module`] step; no module handler runs).
    Stop,
}

/// Report of one dispatched step.
#[derive(Clone, Debug)]
pub struct StepInfo {
    /// The module whose handler ran.
    pub module: ModuleId,
    /// Kind of work dispatched.
    pub category: StepCategory,
}

/// One queued handler invocation: `work` for module `to`.
pub(super) struct Delivery {
    pub(super) to: ModuleId,
    pub(super) work: Work,
}

pub(super) enum Work {
    Call(Call),
    Response(Response),
    Timer(TimerId, u64),
    Start,
    Stop,
}

/// Shard-owned dispatch capacity: the delivery queue and the action
/// buffer, which a stack needs only while it has work. A cascade's burst
/// ratchets a buffer to its peak; lent, that is paid once per shard.
/// Each buffer on its own: a stack holding no capacity borrows the
/// shard's ([`Stack::lend_dispatch`]); an idle stack hands its own back
/// and the shard keeps the larger ([`Stack::return_dispatch`]); a busy
/// stack keeps its own and nothing moves. The shard's is always empty.
#[derive(Default)]
pub(crate) struct DispatchBuf {
    queue: VecDeque<Delivery>,
    actions: Vec<HostAction>,
}

impl Stack {
    /// Fire a timer previously armed via [`HostAction::SetTimer`]. Firing
    /// an unknown timer, or one whose module was destroyed, is a no-op.
    pub fn timer_fired(&mut self, now: Time, id: TimerId) {
        if self.crashed {
            return;
        }
        self.now = now;
        if let Some((to, tag)) = self.timers.remove(&id) {
            self.queue.push_back(Delivery { to, work: Work::Timer(id, tag) });
        }
    }

    /// Dispatch one pending delivery at virtual time `now`. Returns what
    /// was dispatched, or `None` if there was no work (or the stack
    /// crashed).
    pub fn step(&mut self, now: Time) -> Option<StepInfo> {
        if self.crashed {
            return None;
        }
        self.now = now;
        loop {
            let Some(Delivery { to, work }) = self.queue.pop_front() else {
                // The cascade triggered by the last external input has
                // drained; record how many steps it took.
                self.telemetry.cascade_end();
                return None;
            };
            self.telemetry.cascade_step();
            // Deliveries to destroyed modules are dropped silently.
            let Some(slot) = self.modules.get_mut(&to) else { continue };
            let mut module = slot.module.take().expect("module re-entrancy");
            let mut ctx = ModuleCtx { stack: self, me: to, destroyed_self: false };
            let category = match work {
                Work::Call(call) => {
                    module.on_call(&mut ctx, call);
                    StepCategory::Call
                }
                Work::Response(resp) => {
                    module.on_response(&mut ctx, resp);
                    StepCategory::Response
                }
                Work::Timer(id, tag) => {
                    module.on_timer(&mut ctx, id, tag);
                    StepCategory::Timer
                }
                Work::Start => {
                    module.on_start(&mut ctx);
                    StepCategory::Start
                }
                Work::Stop => {
                    ctx.destroyed_self = true;
                    StepCategory::Stop
                }
            };
            let destroyed = ctx.destroyed_self;
            if self.queue.is_empty() {
                // The cascade drained with this step: close it here, so
                // hosts that only schedule steps while work is pending
                // (the sim never calls `step` on an empty queue) still
                // feed the depth histogram.
                self.telemetry.cascade_end();
            }
            if destroyed {
                self.telemetry.note_module_destroyed(self.now.as_nanos());
                if let Some(kind) = self.modules.get(&to).map(|slot| slot.kind) {
                    let event = TraceEvent::ModuleDestroyed { stack: self.id, module: to, kind };
                    self.trace.push(self.now, event);
                }
                self.remove_module_records(to);
            } else if let Some(slot) = self.modules.get_mut(&to) {
                slot.module = Some(module);
            }
            return Some(StepInfo { module: to, category });
        }
    }

    /// Drain the host actions produced since the last drain, in order,
    /// in place: the buffer keeps its capacity for the next step.
    pub fn drain_actions(&mut self) -> std::vec::Drain<'_, HostAction> {
        self.actions.drain(..)
    }

    /// Delivery and host-action slots this stack holds (capacity): none
    /// once idle, if a shard lends to it ([`crate::host::ShardPools`]).
    pub fn dispatch_capacity(&self) -> (usize, usize) {
        (self.queue.capacity(), self.actions.capacity())
    }

    /// Swap this stack's [`WireScratch`] with `other` — the scratch part
    /// of the shard loan, both ways. The swap moves the retained buffers
    /// *and* the counters, so stats accumulated during the loan stay
    /// with the pool; encoded bytes are identical either way.
    pub(crate) fn swap_scratch(&mut self, other: &mut WireScratch) {
        std::mem::swap(&mut self.scratch, other);
    }

    /// Swap the tail this stack's trace pushes calls and responses
    /// through with `tail` — the trace part of the shard loan, both ways
    /// (see [`crate::trace::TraceLog`]).
    pub(crate) fn swap_tail(&mut self, tail: &mut Tail) {
        self.trace.swap_tail(tail);
    }

    /// Taking a shard loan: each buffer holding no capacity takes the shard's.
    pub(crate) fn lend_dispatch(&mut self, shard: &mut DispatchBuf) {
        if self.queue.capacity() == 0 {
            std::mem::swap(&mut self.queue, &mut shard.queue);
        }
        if self.actions.capacity() == 0 {
            std::mem::swap(&mut self.actions, &mut shard.actions);
        }
    }

    /// Ending a shard loan: an empty buffer leaves; the shard keeps the
    /// larger of it and its own.
    pub(crate) fn return_dispatch(&mut self, shard: &mut DispatchBuf) {
        if self.queue.is_empty() {
            let spare = std::mem::take(&mut self.queue);
            if spare.capacity() > shard.queue.capacity() {
                shard.queue = spare;
            }
        }
        if self.actions.is_empty() {
            let spare = std::mem::take(&mut self.actions);
            if spare.capacity() > shard.actions.capacity() {
                shard.actions = spare;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServiceId;
    use crate::stack::tests::{net_send_from, new_stack, run_until_idle, Client, Echo};
    use bytes::Bytes;

    /// `work` on `stack` under a loan of `shard`'s dispatch buffers, as a
    /// host takes it.
    fn lent<R>(
        stack: &mut Stack,
        shard: &mut DispatchBuf,
        work: impl FnOnce(&mut Stack) -> R,
    ) -> R {
        stack.lend_dispatch(shard);
        let r = work(stack);
        stack.return_dispatch(shard);
        r
    }

    #[test]
    fn an_idle_stack_holds_no_dispatch_capacity() {
        let mut shard = DispatchBuf::default();
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        for _ in 0..3 {
            let sent = lent(&mut stack, &mut shard, |s| {
                net_send_from(s, client);
                run_until_idle(s);
                s.drain_actions().count()
            });
            assert_eq!(sent, 1);
            assert_eq!(stack.dispatch_capacity(), (0, 0));
            assert!(shard.queue.capacity() > 0 && shard.actions.capacity() > 0);
        }
    }

    #[test]
    fn a_busy_stack_keeps_its_own_buffer_in_fifo_order() {
        let mut shard = DispatchBuf::default();
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        lent(&mut stack, &mut shard, run_until_idle); // the `on_start`s
        shard.queue.reserve(64);
        let warm = shard.queue.capacity();
        let call = |s: &mut Stack, i: u8| {
            s.call_as(client, &ServiceId::new("echo"), 1, Bytes::copy_from_slice(&[i]));
        };
        // Work enqueued under one loan waits in the buffer the stack took;
        // later loans find the stack busy and move nothing either way.
        for i in 0..5 {
            lent(&mut stack, &mut shard, |s| call(s, i));
            assert_eq!(stack.pending(), usize::from(i) + 1);
            assert_eq!(stack.dispatch_capacity().0, warm, "the one buffer, not a copy");
            assert_eq!(shard.queue.capacity(), 0, "nothing carried back");
        }
        lent(&mut stack, &mut shard, |s| s.step(Time(1)));
        assert_eq!(stack.dispatch_capacity().0, warm, "still busy");
        lent(&mut stack, &mut shard, |s| call(s, 5));
        lent(&mut stack, &mut shard, run_until_idle);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        let order: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        assert_eq!(stack.dispatch_capacity(), (0, 0));
        assert_eq!(shard.queue.capacity(), warm, "idle: the buffer went back");
    }

    #[test]
    fn the_shard_keeps_the_larger_buffer() {
        let mut shard = DispatchBuf::default();
        shard.queue.reserve(8);
        shard.actions.reserve(100);
        let (small, large) = (shard.queue.capacity(), shard.actions.capacity());
        let mut stack = new_stack();
        run_until_idle(&mut stack);
        stack.queue.reserve(100);
        stack.actions.reserve(8);
        let bigger = stack.queue.capacity();
        assert!(bigger > small && stack.actions.capacity() < large);
        stack.return_dispatch(&mut shard);
        assert_eq!(stack.dispatch_capacity(), (0, 0), "the smaller of each pair is freed");
        assert_eq!((shard.queue.capacity(), shard.actions.capacity()), (bigger, large));
    }

    #[test]
    fn a_stack_never_lent_to_keeps_its_buffers() {
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        for _ in 0..3 {
            net_send_from(&mut stack, client);
            run_until_idle(&mut stack);
            assert_eq!(stack.drain_actions().count(), 1);
            let (queue, actions) = stack.dispatch_capacity();
            assert!(queue > 0 && actions > 0, "its own buffers, drained in place");
        }
    }

    #[test]
    fn step_reports_categories() {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        // Drain the Start deliveries first.
        let s1 = stack.step(Time(1)).unwrap();
        assert_eq!(s1.category, StepCategory::Start); // net bridge
        let s2 = stack.step(Time(2)).unwrap();
        assert_eq!(s2.category, StepCategory::Start);
        let s3 = stack.step(Time(3)).unwrap();
        assert_eq!(s3.category, StepCategory::Start);
        stack.call_as(client, &ServiceId::new("echo"), 9, Bytes::new());
        let s4 = stack.step(Time(4)).unwrap();
        assert_eq!((s4.module, s4.category), (echo, StepCategory::Call));
        let s5 = stack.step(Time(5)).unwrap();
        assert_eq!((s5.module, s5.category), (client, StepCategory::Response));
        assert!(stack.step(Time(6)).is_none());
    }
}
