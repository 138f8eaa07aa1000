//! Running the work: the cascade queue, the inbox and the count of
//! modules still to start, [`Stack::step`] (one delivery to one module
//! handler), the timer table, and the shard loan of the dispatch
//! buffers.
//!
//! # One input, one cascade
//!
//! Work a step produces joins the **cascade** queue; a call, response or
//! timer that enters from outside a step (a packet, a host's call, a
//! timer, a control closure) waits in the **inbox**, and the next input
//! is taken from it only once the cascade queue has drained. So an
//! input's whole dispatch cascade — breadth-first within itself — runs
//! before the next input's first step, on every host: the order is the
//! stack's, not the host's. A module's start or stop always joins the
//! cascade queue, so it runs before anything routed to that module
//! after it. A module at the edge (`Module::at_edge`) is not queued at
//! all: it runs where its work is issued, and what it issues goes where
//! its issuer's would — into the cascade inside a step, into the inbox
//! from a packet, one input a frame it hands up.

use super::{HostAction, ModuleCtx, Stack};
use crate::host::ActionSink;
use crate::ids::{ModuleId, TimerId};
use crate::module::{Call, Response};
use crate::time::Time;
use crate::trace::TraceEvent;
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

/// One armed timer: when it is due, the module it fires into, its tag.
pub(super) struct Armed {
    at: Time,
    module: ModuleId,
    tag: u64,
}

/// The deadline of a timer set in a step whose actions are not settled
/// yet: never due (no host's clock reaches it), and no wakeup.
const UNSETTLED: Time = Time(u64::MAX);

/// The one timer table: every armed timer by id, ascending. Ids only
/// rise, so arming a timer appends it. The table grows by exactly one
/// slot when full and keeps its capacity when a timer fires, so a
/// module that re-arms as it fires makes no allocator call.
#[derive(Default)]
pub(super) struct Timers(Vec<(TimerId, Armed)>);

impl Timers {
    /// Arm timer `id` for `module`, tagged `tag`, unsettled.
    pub(super) fn arm(&mut self, id: TimerId, module: ModuleId, tag: u64) {
        if self.0.len() == self.0.capacity() {
            self.0.reserve_exact(1);
        }
        let i = self.0.partition_point(|(t, _)| *t < id);
        self.0.insert(i, (id, Armed { at: UNSETTLED, module, tag }));
    }

    fn find(&self, id: TimerId) -> Result<usize, usize> {
        self.0.binary_search_by(|(t, _)| t.cmp(&id))
    }

    fn remove(&mut self, id: TimerId) -> Option<Armed> {
        self.find(id).ok().map(|i| self.0.remove(i).1)
    }

    fn get_mut(&mut self, id: TimerId) -> Option<&mut Armed> {
        self.find(id).ok().map(|i| &mut self.0[i].1)
    }
}

/// Dispatch capacity: the cascade queue, the inbox and the action
/// buffer, which a stack needs only while it has work, boxed so that a
/// stack without work holds one null word. A cascade's burst ratchets a
/// buffer to its peak; lent, that is paid once per shard
/// ([`ShardDispatch`]). A stack nobody lends to boxes its own with its
/// first delivery or action.
#[derive(Default)]
pub(crate) struct DispatchBuf {
    /// The running cascade: what its steps produced, breadth-first.
    queue: VecDeque<Delivery>,
    /// Inputs from outside a step, each taken once `queue` is empty.
    inbox: VecDeque<Delivery>,
    actions: Vec<HostAction>,
}

/// What a shard keeps of the dispatch capacity between loans: a box
/// whose queues are empty, and the action buffer, apart from it. A loan
/// hands a stack a box — its own if it is busy, else the shard's, else
/// a new one — with the shard's action buffer in it
/// ([`Stack::lend_dispatch`]). At the end of the loan the action
/// buffer, empty after every settle, comes back whatever the stack's
/// state, and the box comes back too if its queues are empty; the shard
/// keeps the larger of each ([`Stack::return_dispatch`]). So a busy
/// stack keeps only its queues, and the next stack lent while it does
/// allocates a box and queues but no action buffer.
#[derive(Default)]
pub(crate) struct ShardDispatch {
    buf: Option<Box<DispatchBuf>>,
    actions: Vec<HostAction>,
}

impl DispatchBuf {
    /// The buffers in `slot`: the shard's while lent, else the stack's
    /// own, boxed here by its first delivery or action.
    fn of(slot: &mut Option<Box<DispatchBuf>>) -> &mut DispatchBuf {
        slot.get_or_insert_with(Box::default)
    }

    /// Deliveries queued.
    pub(super) fn pending(&self) -> usize {
        self.queue.len() + self.inbox.len()
    }

    /// Delivery slots held, in both queues.
    fn capacity(&self) -> usize {
        self.queue.capacity() + self.inbox.capacity()
    }
}

impl Stack {
    /// Queue `work` for module `to`: in the cascade queue if a step
    /// produced it or it starts or stops a module (so it runs before
    /// anything routed to that module later), else in the inbox. The
    /// starts still counted (see [`Stack::next_module_id`]) head the
    /// cascade queue first.
    pub(super) fn enqueue(&mut self, to: ModuleId, work: Work) {
        let buf = DispatchBuf::of(&mut self.dispatch);
        for id in self.next_module - u64::from(self.starting)..self.next_module {
            buf.queue.push_back(Delivery { to: ModuleId(id), work: Work::Start });
        }
        self.starting = 0;
        let cascade = self.stepping || matches!(work, Work::Start | Work::Stop);
        let queue = if cascade { &mut buf.queue } else { &mut buf.inbox };
        queue.push_back(Delivery { to, work });
    }

    /// The id of the module being created, with its start queued. While
    /// nothing else is queued, the starts of the modules created since
    /// are counted, not queued — the last `starting` ids — so a stack
    /// just built holds no dispatch box; [`Stack::step`] runs them, in
    /// creation order, before anything queued after them.
    pub(super) fn next_module_id(&mut self) -> ModuleId {
        let id = ModuleId(self.next_module);
        if self.pending() > usize::from(self.starting) || self.starting == u16::MAX {
            self.enqueue(id, Work::Start);
        } else {
            self.starting += 1;
        }
        self.next_module += 1;
        id
    }

    /// The next delivery: a counted start, else the head of the cascade
    /// queue, else the next input.
    fn next_delivery(&mut self) -> Option<Delivery> {
        if self.starting == 0 {
            let buf = self.dispatch.as_mut()?;
            return buf.queue.pop_front().or_else(|| buf.inbox.pop_front());
        }
        let to = ModuleId(self.next_module - u64::from(self.starting));
        self.starting -= 1;
        Some(Delivery { to, work: Work::Start })
    }

    /// Ask the host to perform `action`.
    pub(super) fn act(&mut self, action: HostAction) {
        DispatchBuf::of(&mut self.dispatch).actions.push(action);
    }

    /// Fire armed timer `id`. Firing a timer whose module was destroyed
    /// is a no-op; so is firing any timer on a crashed stack, which
    /// forgets it.
    fn timer_fired(&mut self, now: Time, id: TimerId) {
        let armed = self.timers.remove(id);
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
    pub(crate) fn fire_due(&mut self, now: Time) {
        while let Some(id) = self.next_due(now) {
            self.timer_fired(now, id);
        }
    }

    /// The timer to fire next at `now`, if any is due.
    fn next_due(&self, now: Time) -> Option<TimerId> {
        let mut next: Option<(Time, TimerId)> = None;
        // Ids ascend: of two equal deadlines the first found stays.
        for (id, armed) in &self.timers.0 {
            if armed.at <= now && next.is_none_or(|(at, _)| armed.at < at) {
                next = Some((armed.at, *id));
            }
        }
        next.map(|(_, id)| id)
    }

    /// The earliest settled deadline, or `None` if no timer is armed:
    /// when a host must next call [`Stack::wake`] or [`Stack::poll`].
    pub fn next_deadline(&self) -> Option<Time> {
        self.timers.0.iter().map(|(_, a)| a.at).filter(|&at| at != UNSETTLED).min()
    }

    /// Execute what the steps since the last settle asked of the host,
    /// as of `at`: each timer set since is due at `at` plus its delay, and
    /// each send reaches `sink` stamped `at`. A host that charges modeled
    /// CPU cost steps at one time and settles at the step's completion.
    /// The buffer is drained in place and keeps its capacity for the next
    /// step (or goes back to a lending shard when the stack is idle — see
    /// [`ShardPools`](crate::host::ShardPools)).
    pub fn settle(&mut self, at: Time, sink: &mut dyn ActionSink) {
        let Some(buf) = self.dispatch.as_deref_mut() else { return };
        for action in buf.actions.drain(..) {
            match action {
                HostAction::NetSend { dst, payload } => sink.net_send(at, self.id, dst, payload),
                HostAction::SetTimer { id, delay } => {
                    if let Some(armed) = self.timers.get_mut(id) {
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
            let Some(Delivery { to, work }) = self.next_delivery() else {
                // The cascade triggered by the last external input has
                // drained; record how many steps it took.
                self.telemetry.cascade_end();
                return None;
            };
            self.telemetry.cascade_step();
            self.stepping = true;
            // Deliveries to destroyed modules are dropped silently.
            let category = self.run(to, work);
            self.stepping = false;
            let Some(category) = category else { continue };
            if self.starting == 0 && self.dispatch.as_ref().is_none_or(|d| d.queue.is_empty()) {
                // The cascade drained with this step: close it here, so
                // hosts that only schedule steps while work is pending
                // (the sim never calls `step` on an empty queue) still
                // feed the depth histogram, one sample an input.
                self.telemetry.cascade_end();
            }
            return Some(StepInfo { module: to, category });
        }
    }

    /// Run `work` in module `to`'s handler, the module taken out of its
    /// slot meanwhile: a step's delivery, or work the edge runs where it
    /// was issued ([`Module::at_edge`](crate::module::Module::at_edge)).
    /// `None` if the module is gone.
    pub(super) fn run(&mut self, to: ModuleId, work: Work) -> Option<StepCategory> {
        let mut module = self.modules.get_mut(&to)?.module.take().expect("module re-entrancy");
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
        if ctx.destroyed_self {
            self.telemetry.note_module_destroyed(self.now.as_nanos());
            if let Some(kind) = self.modules.get(&to).map(|slot| slot.kind) {
                let event = TraceEvent::ModuleDestroyed { stack: self.id, module: to, kind };
                self.trace.push(self.now, event);
            }
            self.remove_module_records(to);
        } else if let Some(slot) = self.modules.get_mut(&to) {
            slot.module = Some(module);
        }
        Some(category)
    }

    /// Delivery and host-action slots this stack holds (capacity): none
    /// once idle, if a shard lends to it ([`crate::host::ShardPools`]).
    pub fn dispatch_capacity(&self) -> (usize, usize) {
        self.dispatch.as_ref().map_or((0, 0), |d| (d.capacity(), d.actions.capacity()))
    }

    /// Swap this stack's scratch pointer with `pool` — the scratch part
    /// of the shard loan, both ways: the pool, with its retained buffers
    /// and its counters, moves by one pointer. Encoded bytes are
    /// identical either way.
    pub(crate) fn swap_scratch(&mut self, pool: &mut Option<Box<WireScratch>>) {
        std::mem::swap(&mut self.scratch, pool);
    }

    /// Taking a shard loan: a stack holding no dispatch box takes the
    /// shard's, or a new one if a busy stack holds that; a box without
    /// an action buffer takes the shard's.
    pub(crate) fn lend_dispatch(&mut self, shard: &mut ShardDispatch) {
        let buf = self.dispatch.get_or_insert_with(|| {
            shard.buf.take().unwrap_or_else(|| Box::new(DispatchBuf::default()))
        });
        if buf.actions.capacity() == 0 {
            std::mem::swap(&mut buf.actions, &mut shard.actions);
        }
    }

    /// Ending a shard loan: the action buffer leaves, unless it holds
    /// actions not settled yet, and the box leaves if both its queues
    /// are empty. The shard keeps the larger of each.
    pub(crate) fn return_dispatch(&mut self, shard: &mut ShardDispatch) {
        let Some(buf) = self.dispatch.as_deref_mut() else { return };
        if !buf.actions.is_empty() {
            return;
        }
        let actions = std::mem::take(&mut buf.actions);
        if actions.capacity() > shard.actions.capacity() {
            shard.actions = actions;
        }
        let Some(idle) = self.dispatch.take_if(|d| d.pending() == 0) else { return };
        match &mut shard.buf {
            Some(own) if own.capacity() >= idle.capacity() => {}
            own => *own = Some(idle),
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
    use crate::ids::StackId;
    use crate::stack::tests::{net_send_from, new_stack, run_until_idle, settled, Client, Echo};
    use bytes::Bytes;

    type Shard = ShardDispatch;

    /// `work` on `stack` under a loan of `shard`'s dispatch buffers, as a
    /// host takes it.
    fn lent<R>(stack: &mut Stack, shard: &mut Shard, work: impl FnOnce(&mut Stack) -> R) -> R {
        stack.lend_dispatch(shard);
        let r = work(stack);
        stack.return_dispatch(shard);
        r
    }

    /// The capacity of the shard's queue and action buffer.
    fn capacity(shard: &Shard) -> (usize, usize) {
        (shard.buf.as_ref().map_or(0, |d| d.capacity()), shard.actions.capacity())
    }

    /// A stack with an echo provider and a client of it: a call queues a
    /// delivery, and its response another.
    fn echo_stack() -> (Stack, ModuleId) {
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        (stack, client)
    }

    /// Queue a call to the echo and a send at the edge, and run them.
    fn call_and_send(stack: &mut Stack, client: ModuleId) {
        stack.call_as(client, &ServiceId::new("echo"), 1, Bytes::new());
        net_send_from(stack, client);
        run_until_idle(stack);
    }

    #[test]
    fn an_idle_stack_holds_no_dispatch_box() {
        let mut shard = Shard::default();
        let (mut stack, client) = echo_stack();
        for _ in 0..3 {
            let sent = lent(&mut stack, &mut shard, |s| {
                call_and_send(s, client);
                settled(s).len()
            });
            assert_eq!(sent, 1);
            assert!(stack.dispatch.is_none(), "the box went back to the shard");
            let (queue, actions) = capacity(&shard);
            assert!(queue > 0 && actions > 0);
        }
    }

    #[test]
    fn a_busy_stack_keeps_its_own_buffer_in_fifo_order() {
        let mut shard = Shard::default();
        let mut stack = new_stack();
        let echo = stack.add_module(Box::new(Echo));
        let client = stack.add_module(Box::new(Client::default()));
        stack.bind(&ServiceId::new("echo"), echo);
        lent(&mut stack, &mut shard, run_until_idle); // the `on_start`s
        let mut warm = DispatchBuf::default();
        warm.queue.reserve(64);
        warm.inbox.reserve(64);
        let warm_cap = warm.queue.capacity() + warm.inbox.capacity();
        shard.buf = Some(Box::new(warm));
        let call = |s: &mut Stack, i: u8| {
            s.call_as(client, &ServiceId::new("echo"), 1, Bytes::copy_from_slice(&[i]));
        };
        // Work enqueued under one loan waits in the box the stack took;
        // later loans find the stack busy and move only the action
        // buffer, both ways.
        for i in 0..5 {
            lent(&mut stack, &mut shard, |s| call(s, i));
            assert_eq!(stack.pending(), usize::from(i) + 1);
            assert_eq!(stack.dispatch_capacity(), (warm_cap, 0), "the one box, not a copy");
            assert!(shard.buf.is_none(), "nothing carried back");
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
        let mut shard = Shard { buf: Some(Box::new(own)), actions: Vec::with_capacity(100) };
        let (small, large) = capacity(&shard);
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
    fn a_busy_stack_hands_back_its_action_buffer() {
        let mut shard = Shard::default();
        let (mut a, a_client) = echo_stack();
        let (mut b, b_client) = echo_stack();
        let echo = ServiceId::new("echo");
        lent(&mut a, &mut shard, run_until_idle);
        // After its `on_start`s, `a` sends, then is left with a call
        // queued: busy.
        let sent = lent(&mut a, &mut shard, |s| {
            net_send_from(s, a_client);
            let sent = settled(s).len();
            s.call_as(a_client, &echo, 1, Bytes::new());
            sent
        });
        assert_eq!(sent, 1);
        let actions = shard.actions.capacity();
        assert!(actions > 0 && shard.buf.is_none(), "the busy stack keeps only its queue");
        assert_eq!(a.dispatch_capacity().1, 0);
        // `b`, lent while `a` holds the shard's box, gets a new one with
        // the shard's action buffer in it.
        let sent = lent(&mut b, &mut shard, |s| {
            assert_eq!(s.dispatch_capacity().1, actions, "the shard's action buffer");
            net_send_from(s, b_client);
            settled(s).len()
        });
        assert_eq!(sent, 1);
        assert!(b.dispatch.is_none() && shard.buf.is_some(), "idle: its box stays with the shard");
        lent(&mut a, &mut shard, run_until_idle);
        assert!(a.dispatch.is_none());
        assert_eq!(a.with_module::<Client, _>(a_client, |c| c.got.len()), Some(1));
    }

    #[test]
    fn a_stack_never_lent_to_keeps_its_buffers() {
        let (mut stack, client) = echo_stack();
        for _ in 0..3 {
            call_and_send(&mut stack, client);
            assert_eq!(settled(&mut stack).len(), 1);
            let (queue, actions) = stack.dispatch_capacity();
            assert!(queue > 0 && actions > 0, "its own buffers, drained in place");
        }
    }

    #[test]
    fn a_built_stack_counts_its_starts_and_runs_them_before_later_work() {
        let (mut stack, client) = echo_stack();
        assert!(stack.dispatch.is_none(), "three starts, no box");
        assert_eq!(stack.pending(), 3);
        stack.call_as(client, &ServiceId::new("echo"), 1, Bytes::new());
        let late = stack.add_module(Box::new(Client::default()));
        assert_eq!(stack.pending(), 5, "the starts, the call in the inbox, and a start");
        let mut steps = Vec::new();
        while let Some(info) = stack.step(Time(1)) {
            steps.push((info.module, info.category));
        }
        use StepCategory::{Call, Response, Start};
        let (bridge, echo) = (ModuleId(1), ModuleId(2));
        let starts = [(bridge, Start), (echo, Start), (client, Start), (late, Start)];
        assert_eq!(steps[..4], starts, "in creation order, before any input");
        let rest = [(echo, Call), (client, Response), (late, Response)];
        assert_eq!(steps[4..], rest);
        // Created once the stack is idle, a module's start is counted too.
        let mut fresh = new_stack();
        fresh.step(Time(1));
        let more = fresh.add_module(Box::new(Echo));
        assert!(fresh.dispatch.is_none() && fresh.pending() == 1);
        assert_eq!(fresh.step(Time(2)).map(|i| (i.module, i.category)), Some((more, Start)));
    }

    /// Two calls queued from outside: the first one's response reaches
    /// both clients before the second call is dispatched, and each call
    /// is one cascade in the depth histogram.
    #[test]
    fn an_input_runs_its_whole_cascade_before_the_next_input() {
        let (mut stack, client) = echo_stack();
        let other = stack.add_module(Box::new(Client::default()));
        run_until_idle(&mut stack); // the `on_start`s: one cascade
        let echo_svc = ServiceId::new("echo");
        stack.call_as(client, &echo_svc, 1, Bytes::from_static(b"a"));
        stack.call_as(other, &echo_svc, 1, Bytes::from_static(b"b"));
        let mut steps = Vec::new();
        while let Some(info) = stack.step(Time(1)) {
            steps.push((info.module, info.category));
        }
        use StepCategory::{Call, Response};
        let echo = ModuleId(2);
        let one = [(echo, Call), (client, Response), (other, Response)];
        assert_eq!(steps, [one, one].concat());
        let depth = &stack.telemetry().state().expect("always on").cascade_depth;
        assert_eq!((depth.count(), depth.min(), depth.max()), (3, 3, 4), "starts, then 3 and 3");
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
