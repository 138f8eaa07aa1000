//! Running the work: the delivery queue, [`Stack::step`] (one delivery
//! to one module handler), the timer table, and the shard loan of the
//! dispatch and encode buffers and the trace tail.

use super::{HostAction, ModuleCtx, Stack};
use crate::ids::{ModuleId, StackId, TimerId};
use crate::module::{Call, Response};
use crate::time::Time;
use crate::trace::{Tail, TraceEvent};
use crate::wire::WireScratch;
use bytes::Bytes;
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

/// One armed timer: when it is due, the module it fires into, its tag.
pub(super) struct Armed {
    at: Time,
    module: ModuleId,
    tag: u64,
}

/// The deadline of a timer set in a step whose actions are not settled
/// yet: never due (no host's clock reaches it), and no wakeup.
const UNSETTLED: Time = Time(u64::MAX);

impl Armed {
    pub(super) fn new(module: ModuleId, tag: u64) -> Armed {
        Armed { at: UNSETTLED, module, tag }
    }
}

/// Dispatch capacity: the delivery queue and the action buffer, which a
/// stack needs only while it has work, boxed so that a stack without
/// work holds one null word. A cascade's burst ratchets a buffer to its
/// peak; lent, that is paid once per shard. A stack holding no box
/// borrows the shard's ([`Stack::lend_dispatch`]); an idle stack hands
/// its box back and the shard keeps the larger of each buffer
/// ([`Stack::return_dispatch`]); a busy stack keeps its own and nothing
/// moves. A stack nobody lends to boxes its own with its first delivery
/// or action. The shard's is always empty.
#[derive(Default)]
pub(crate) struct DispatchBuf {
    queue: VecDeque<Delivery>,
    actions: Vec<HostAction>,
}

impl DispatchBuf {
    /// The buffers in `slot`: the shard's while lent, else the stack's
    /// own, boxed here by its first delivery or action.
    fn of(slot: &mut Option<Box<DispatchBuf>>) -> &mut DispatchBuf {
        slot.get_or_insert_with(Box::default)
    }

    /// Queue `work` for module `to` in `slot`'s buffers.
    pub(super) fn enqueue(slot: &mut Option<Box<DispatchBuf>>, to: ModuleId, work: Work) {
        DispatchBuf::of(slot).queue.push_back(Delivery { to, work });
    }

    /// Deliveries queued.
    pub(super) fn pending(&self) -> usize {
        self.queue.len()
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.actions.is_empty()
    }

    /// Keep the larger of each pair of buffers, this one's or `spare`'s.
    fn keep_larger(&mut self, spare: DispatchBuf) {
        if spare.queue.capacity() > self.queue.capacity() {
            self.queue = spare.queue;
        }
        if spare.actions.capacity() > self.actions.capacity() {
            self.actions = spare.actions;
        }
    }
}

impl Stack {
    /// Queue `work` for module `to`.
    pub(super) fn enqueue(&mut self, to: ModuleId, work: Work) {
        DispatchBuf::enqueue(&mut self.dispatch, to, work);
    }

    /// Ask the host to perform `action`.
    pub(super) fn act(&mut self, action: HostAction) {
        DispatchBuf::of(&mut self.dispatch).actions.push(action);
    }

    /// Fire a timer previously armed via [`HostAction::SetTimer`]. Firing
    /// an unknown timer, or one whose module was destroyed, is a no-op;
    /// so is firing any timer on a crashed stack, which forgets it.
    pub fn timer_fired(&mut self, now: Time, id: TimerId) {
        let armed = self.timers.remove(&id);
        if self.crashed {
            return;
        }
        self.now = now;
        // Module ids are never reused: a destroyed module's timer fires
        // into nothing.
        if let Some(Armed { module, tag, .. }) =
            armed.filter(|a| self.modules.contains_key(&a.module))
        {
            self.enqueue(module, Work::Timer(id, tag));
        }
    }

    /// Fire every armed timer due at or before `now`, earliest deadline
    /// first and, among equal deadlines, the lower id (set first).
    /// Returns how many fired.
    pub(crate) fn fire_due(&mut self, now: Time) -> usize {
        let mut fired = 0;
        while let Some(id) = self.next_due(now) {
            self.timer_fired(now, id);
            fired += 1;
        }
        fired
    }

    /// The timer to fire next at `now`, if any is due.
    fn next_due(&self, now: Time) -> Option<TimerId> {
        let mut next: Option<(Time, TimerId)> = None;
        // Ids ascend: of two equal deadlines the first found stays.
        for (&id, armed) in self.timers.iter() {
            if armed.at <= now && next.is_none_or(|(at, _)| armed.at < at) {
                next = Some((armed.at, id));
            }
        }
        next.map(|(_, id)| id)
    }

    /// The earliest settled deadline, or `None` if no timer is armed.
    pub(crate) fn next_deadline(&self) -> Option<Time> {
        self.timers.values().map(|a| a.at).filter(|&at| at != UNSETTLED).min()
    }

    /// Execute the actions produced since the last settle, as of `at`:
    /// each timer set since is due at `at` plus its delay, and each send
    /// goes to `send`. The buffer is drained in place and keeps its
    /// capacity for the next step.
    pub(crate) fn settle(&mut self, at: Time, mut send: impl FnMut(StackId, Bytes)) {
        let Some(buf) = self.dispatch.as_deref_mut() else { return };
        for action in buf.actions.drain(..) {
            match action {
                HostAction::NetSend { dst, payload } => send(dst, payload),
                HostAction::SetTimer { id, delay } => {
                    if let Some(armed) = self.timers.get_mut(&id) {
                        armed.at = at + delay;
                    }
                }
            }
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
            let Some(Delivery { to, work }) =
                self.dispatch.as_mut().and_then(|d| d.queue.pop_front())
            else {
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
            if self.pending() == 0 {
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
    pub fn drain_actions(&mut self) -> impl Iterator<Item = HostAction> + '_ {
        self.dispatch.iter_mut().flat_map(|d| d.actions.drain(..))
    }

    /// Delivery and host-action slots this stack holds (capacity): none
    /// once idle, if a shard lends to it ([`crate::host::ShardPools`]).
    pub fn dispatch_capacity(&self) -> (usize, usize) {
        self.dispatch.as_ref().map_or((0, 0), |d| (d.queue.capacity(), d.actions.capacity()))
    }

    /// Swap this stack's scratch pointer with `pool` — the scratch part
    /// of the shard loan, both ways: the pool, with its retained buffers
    /// and its counters, moves by one pointer. Encoded bytes are
    /// identical either way.
    pub(crate) fn swap_scratch(&mut self, pool: &mut Option<Box<WireScratch>>) {
        std::mem::swap(&mut self.scratch, pool);
    }

    /// Swap the tail this stack's trace pushes calls and responses
    /// through with `tail` — the trace part of the shard loan, both ways
    /// (see [`crate::trace::TraceLog`]).
    pub(crate) fn swap_tail(&mut self, tail: &mut Tail) {
        self.trace.swap_tail(tail);
    }

    /// Taking a shard loan: a stack holding no dispatch box takes the
    /// shard's.
    pub(crate) fn lend_dispatch(&mut self, shard: &mut Option<Box<DispatchBuf>>) {
        if self.dispatch.is_none() {
            self.dispatch = shard.take();
        }
    }

    /// Ending a shard loan: an idle stack's box leaves; the shard keeps
    /// it, or the larger of each buffer if it holds a box of its own.
    pub(crate) fn return_dispatch(&mut self, shard: &mut Option<Box<DispatchBuf>>) {
        let Some(spare) = self.dispatch.take_if(|d| d.is_idle()) else { return };
        match shard {
            Some(own) => own.keep_larger(*spare),
            None => *shard = Some(spare),
        }
    }

    /// Whether this stack holds neither a scratch pool nor a dispatch
    /// box: what a hosted stack holds between loans.
    #[cfg(test)]
    pub(crate) fn at_rest(&self) -> bool {
        self.scratch.is_none() && self.dispatch.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServiceId;
    use crate::stack::tests::{net_send_from, new_stack, run_until_idle, Client, Echo};
    use bytes::Bytes;

    type Shard = Option<Box<DispatchBuf>>;

    /// `work` on `stack` under a loan of `shard`'s dispatch buffers, as a
    /// host takes it.
    fn lent<R>(stack: &mut Stack, shard: &mut Shard, work: impl FnOnce(&mut Stack) -> R) -> R {
        stack.lend_dispatch(shard);
        let r = work(stack);
        stack.return_dispatch(shard);
        r
    }

    fn capacity(shard: &Shard) -> (usize, usize) {
        shard.as_ref().map_or((0, 0), |d| (d.queue.capacity(), d.actions.capacity()))
    }

    #[test]
    fn an_idle_stack_holds_no_dispatch_box() {
        let mut shard = None;
        let mut stack = new_stack();
        let client = stack.add_module(Box::new(Client::default()));
        for _ in 0..3 {
            let sent = lent(&mut stack, &mut shard, |s| {
                net_send_from(s, client);
                run_until_idle(s);
                s.drain_actions().count()
            });
            assert_eq!(sent, 1);
            assert!(stack.dispatch.is_none(), "the box went back to the shard");
            let (queue, actions) = capacity(&shard);
            assert!(queue > 0 && actions > 0);
        }
    }

    #[test]
    fn a_busy_stack_keeps_its_own_buffer_in_fifo_order() {
        let mut shard = None;
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        lent(&mut stack, &mut shard, run_until_idle); // the `on_start`s
        let mut warm = DispatchBuf::default();
        warm.queue.reserve(64);
        let warm_cap = warm.queue.capacity();
        shard = Some(Box::new(warm));
        let call = |s: &mut Stack, i: u8| {
            s.call_as(client, &ServiceId::new("echo"), 1, Bytes::copy_from_slice(&[i]));
        };
        // Work enqueued under one loan waits in the box the stack took;
        // later loans find the stack busy and move nothing either way.
        for i in 0..5 {
            lent(&mut stack, &mut shard, |s| call(s, i));
            assert_eq!(stack.pending(), usize::from(i) + 1);
            assert_eq!(stack.dispatch_capacity().0, warm_cap, "the one buffer, not a copy");
            assert!(shard.is_none(), "nothing carried back");
        }
        lent(&mut stack, &mut shard, |s| s.step(Time(1)));
        assert_eq!(stack.dispatch_capacity().0, warm_cap, "still busy");
        lent(&mut stack, &mut shard, |s| call(s, 5));
        lent(&mut stack, &mut shard, run_until_idle);
        let got = stack.with_module::<Client, _>(client, |c| c.got.clone()).unwrap();
        let order: Vec<u8> = got.iter().map(|b| b[0]).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        assert!(stack.dispatch.is_none());
        assert_eq!(capacity(&shard).0, warm_cap, "idle: the box went back");
    }

    #[test]
    fn the_shard_keeps_the_larger_buffer() {
        let mut own = DispatchBuf::default();
        own.queue.reserve(8);
        own.actions.reserve(100);
        let (small, large) = (own.queue.capacity(), own.actions.capacity());
        let mut shard = Some(Box::new(own));
        let mut stack = new_stack();
        run_until_idle(&mut stack);
        stack.dispatch = None;
        let mut spare = DispatchBuf::default();
        spare.queue.reserve(100);
        spare.actions.reserve(8);
        let bigger = spare.queue.capacity();
        assert!(bigger > small && spare.actions.capacity() < large);
        stack.dispatch = Some(Box::new(spare));
        stack.return_dispatch(&mut shard);
        assert!(stack.dispatch.is_none(), "the smaller of each pair is freed");
        assert_eq!(capacity(&shard), (bigger, large));
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
    fn a_bare_stacks_first_encode_allocates_its_own_pool() {
        use crate::wire::Encode;
        let mut stack = new_stack();
        assert!(stack.scratch.is_none(), "built without a pool");
        let value = (StackId(2), Bytes::from_static(b"payload"));
        assert_eq!(stack.encode(&value), value.to_bytes());
        assert!(stack.scratch.is_some(), "its own, kept for the next encode");
        assert_eq!(stack.encode(&value), value.to_bytes());
        assert_eq!(stack.wire_stats().emitted, 2);
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
