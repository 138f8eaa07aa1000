//! The unified host API: [`StackDriver`] owns a [`Stack`] and
//! encapsulates the *canonical drive loop* every host used to
//! hand-duplicate — drain due timers, step the stack until idle, execute
//! the produced [`HostAction`]s, report the next wakeup deadline.
//!
//! Every input from outside a step — a packet, a host's call, a fired
//! timer, a control closure — waits in the stack's one inbox; the driver
//! keeps no queue of its own. The hosts reach it through these calls:
//!
//! * the simulator (`dpu-sim`): [`StackDriver::deliver`] for a packet at
//!   its scheduled arrival, [`StackDriver::wake`] for due timers, and the
//!   split-phase [`StackDriver::step_raw`] + [`StackDriver::settle`], so
//!   it can charge modeled CPU time per step; a control closure mutates
//!   the stack through `Sim::with_stack`. Its conservative parallel
//!   engine (`dpu_sim::par`) moves whole shards of drivers between
//!   worker threads across epoch barriers: drivers own all per-stack
//!   mutable state, so a shard changes hands by a plain `Send` move;
//! * the live shards (`dpu-runtime`, `dpu-reactor`, through the
//!   [`LiveShard`] they share, see [`live`]): [`StackDriver::deliver`]
//!   and [`poll`] under the wall clock, and [`LiveShard::ctl`] for a
//!   control closure, each host adding only its transport;
//! * [`StackDriver::inject`] applies a [`HostEvent`] to the stack at
//!   once; only the benchmark package's null host calls it.
//!
//! The host implements [`ActionSink`], which receives the
//! [`HostAction::NetSend`]s the drive loop executes, and learns from the
//! [`Wakeup`] that [`poll`] returns when the driver next needs CPU. All
//! three hosts lend each shard's [`ShardPools`] to the stack they are
//! driving through the one guard, [`Loan`].
//!
//! # Timers
//!
//! A stack keeps one timer table: each armed timer's deadline, module
//! and tag, under its id. A module's `set_timer` enters the timer, and
//! the driver's settle of the step's [`HostAction::SetTimer`] stamps its
//! deadline, relative to the settle time. Timers due together fire
//! earliest deadline first and, on equal deadlines, in the order they
//! were set (ids rise with every `set_timer`). A timer is never
//! cancelled: a module ignores a stale fire by its tag, and a destroyed
//! module's timers stay in the table, wake the driver when due and fire
//! into nothing. Hosts never see timer actions; they only need to call
//! [`StackDriver::poll`] again no later than the returned [`Wakeup`]
//! deadline.
//!
//! [`poll`]: StackDriver::poll
//! [`HostAction`]: crate::HostAction
//! [`HostAction::NetSend`]: crate::HostAction::NetSend
//! [`HostAction::SetTimer`]: crate::HostAction::SetTimer

pub mod live;

pub use live::{dump_flight, Ctl, Host, LiveShard, LossModel, ReportFold, ShardPort, WallClock};

use crate::ids::StackId;
use crate::stack::{ShardDispatch, Stack, StepInfo};
use crate::time::Time;
use crate::wire::{ScratchStats, WireScratch};
use bytes::Bytes;
use dpu_telemetry::ShardTelemetry;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A closure a host routes to the driver to run against its stack
/// (a REPL command, a scripted fault, ...).
pub(crate) type ControlFn = Box<dyn FnOnce(&mut Stack) + Send>;

/// An external event a host feeds into a [`StackDriver`].
pub enum HostEvent {
    /// A datagram arrived from stack `src`.
    Packet {
        /// Sending stack.
        src: StackId,
        /// Raw datagram contents.
        payload: Bytes,
    },
    /// Run a closure against the stack (control plane).
    Control(ControlFn),
}

impl fmt::Debug for HostEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostEvent::Packet { src, payload } => {
                f.debug_struct("Packet").field("src", src).field("len", &payload.len()).finish()
            }
            HostEvent::Control(_) => f.write_str("Control(..)"),
        }
    }
}

/// When a [`StackDriver`] next needs to be polled, as reported by
/// [`StackDriver::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wakeup {
    /// No armed timers and no pending work: the driver only needs CPU
    /// when the host hands the stack its next input.
    Idle,
    /// Poll again no later than this instant (the earliest armed timer).
    At(Time),
}

impl Wakeup {
    /// The deadline, if any.
    pub fn deadline(self) -> Option<Time> {
        match self {
            Wakeup::Idle => None,
            Wakeup::At(t) => Some(t),
        }
    }
}

/// Receiver of the network sends a [`StackDriver`] executes. Implemented
/// by the host: the simulator models latency/loss and schedules arrival
/// events; the sharded runtime routes to the destination shard's mailbox.
pub trait ActionSink {
    /// Stack `src` sent `payload` to stack `dst` at time `at`.
    ///
    /// `at` is the time the send was executed — under modeled CPU cost it
    /// may lie after the `now` passed to the driver call that produced it.
    fn net_send(&mut self, at: Time, src: StackId, dst: StackId, payload: Bytes);
}

/// A sink that drops every send, for tests and quiescent drains.
#[derive(Debug, Default)]
pub struct NullSink;

impl ActionSink for NullSink {
    fn net_send(&mut self, _at: Time, _src: StackId, _dst: StackId, _payload: Bytes) {}
}

/// Owns one [`Stack`] and runs the canonical drive loop; it holds
/// nothing else, since every input waits in the stack's own inbox. See
/// the [module docs](self) for the calls each host makes.
#[derive(Debug)]
pub struct StackDriver {
    stack: Stack,
}

impl StackDriver {
    /// Wrap a stack. Any actions the stack produced before wrapping are
    /// executed on the first [`StackDriver::poll`]/[`StackDriver::settle`].
    pub fn new(stack: Stack) -> StackDriver {
        StackDriver { stack }
    }

    /// The driven stack's id.
    pub fn id(&self) -> StackId {
        self.stack.id()
    }

    /// Immutable access to the stack.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// Mutable access to the stack. After mutating, call
    /// [`StackDriver::poll`] (or [`StackDriver::settle`]) so any actions
    /// the mutation produced are executed — `Sim::with_stack`-style
    /// hosts do this for their callers.
    pub fn stack_mut(&mut self) -> &mut Stack {
        &mut self.stack
    }

    /// Unwrap.
    pub(crate) fn into_stack(self) -> Stack {
        self.stack
    }

    /// Drop everything the driven incarnation holds — queued work,
    /// modules, timers, buffers, trace and lifecycle records — leaving
    /// an empty stack with the same id in place: what a host does to a
    /// restarted node's slot before it builds the next incarnation, so
    /// that the two never coexist.
    pub fn tear_down(&mut self) {
        self.stack.tear_down();
    }

    /// Apply an external event at once: a packet enters the stack's
    /// inbox at the stack's clock, a control closure runs against the
    /// stack. The next [`StackDriver::poll`] runs whatever either queued.
    pub fn inject(&mut self, ev: HostEvent) {
        match ev {
            HostEvent::Packet { src, payload } => {
                let now = self.stack.now();
                self.stack.packet_in(now, src, payload);
            }
            HostEvent::Control(f) => f(&mut self.stack),
        }
    }

    /// Deliver one packet at time `now`: it enters the stack's inbox at
    /// that time. The simulator's packet-arrival path (its hottest
    /// event) and the live shards' receive path are this call.
    #[inline]
    pub fn deliver(&mut self, now: Time, src: StackId, payload: Bytes) {
        self.stack.packet_in(now, src, payload);
    }

    /// The wake hook: fire every timer due at or before `now` and report
    /// the next armed deadline. Virtual-time hosts batch their per-node
    /// wake handling through this.
    #[inline]
    pub fn wake(&mut self, now: Time) -> Option<Time> {
        self.fire_due(now);
        self.next_deadline()
    }

    /// Fire every armed timer due at or before `now`. Returns how many
    /// fired.
    pub fn fire_due(&mut self, now: Time) -> usize {
        self.stack.fire_due(now)
    }

    /// The earliest armed deadline, or `None` if no timers are armed.
    pub fn next_deadline(&self) -> Option<Time> {
        self.stack.next_deadline()
    }

    /// Split-phase stepping for hosts that charge modeled CPU cost:
    /// dispatch one stack step at `now` *without* executing the actions
    /// it produced. The host inspects the returned [`StepInfo`], decides
    /// the completion time, and calls [`StackDriver::settle`] with it.
    pub fn step_raw(&mut self, now: Time) -> Option<StepInfo> {
        self.stack.step(now)
    }

    /// Execute all actions the stack has produced, as of time `at`:
    /// timers are due relative to `at`, sends reach the sink stamped `at`.
    /// The actions are drained in place: the buffer keeps its capacity
    /// for the next step (or goes back to a lending shard when the stack
    /// is idle — see [`ShardPools`]).
    pub fn settle(&mut self, at: Time, sink: &mut dyn ActionSink) {
        let src = self.stack.id();
        self.stack.settle(at, |dst, payload| sink.net_send(at, src, dst, payload));
    }

    /// The canonical drive loop: repeat {fire due timers, step until
    /// idle, execute actions} until nothing is due and the stack is idle.
    /// Returns when to poll next.
    ///
    /// The loop is *bounded* two ways so a pathological module cannot
    /// wedge one `poll` call forever and starve the host's other work:
    /// at most `MAX_POLL_ROUNDS` fire/step rounds (zero-delay timer
    /// re-arm spin) and at most `MAX_POLL_STEPS` stack steps (a
    /// call/response cycle that never drains). On either bound the call
    /// returns `Wakeup::At(now)` — the stack still [`has
    /// work`](Stack::has_work) — and the host polls again after
    /// servicing its mailbox/event queue.
    pub fn poll(&mut self, now: Time, sink: &mut dyn ActionSink) -> Wakeup {
        let mut steps = 0usize;
        for _ in 0..MAX_POLL_ROUNDS {
            self.fire_due(now);
            while self.step_raw(now).is_some() {
                self.settle(now, sink);
                steps += 1;
                if steps >= MAX_POLL_STEPS {
                    return Wakeup::At(now);
                }
            }
            // Actions can be produced without a step (e.g. by a control
            // closure or a pre-wrap mutation); drain defensively.
            self.settle(now, sink);
            // A just-executed action may have armed an already-due timer.
            match self.next_deadline() {
                Some(at) if at <= now => continue,
                Some(at) => return Wakeup::At(at),
                None => return Wakeup::Idle,
            }
        }
        Wakeup::At(now)
    }
}

/// Bound on the fire/step/settle rounds of one [`StackDriver::poll`]
/// call (see its docs). Generous: an honest stack re-enters the loop
/// only when an action armed a timer that is already due.
pub(crate) const MAX_POLL_ROUNDS: usize = 64;

/// Bound on stack steps dispatched by one [`StackDriver::poll`] call
/// (see its docs). Generous: steps are sub-microsecond, so an honest
/// burst this large still returns within milliseconds.
pub(crate) const MAX_POLL_STEPS: usize = 100_000;

/// What a host shard lends whichever stack it is driving: the
/// encode-buffer pool, the dispatch buffers and the telemetry set — one
/// of each per shard instead of one per stack, so retained capacity and
/// event-rate samples scale with shards. A stack's trace is not lent: it
/// keeps its structural entries, and its calls and responses live on
/// only in its digest and its tally. The simulator's shards and
/// [`LiveShard`] each hold one and reach a stack only through
/// [`ShardPools::lend`]. The pool, the dispatch queue and the telemetry
/// set are boxed, each allocated by the first loan that needs it, and
/// each moves into a stack and back by one pointer; the action buffer
/// moves on its own, apart from the queue.
#[derive(Default)]
pub struct ShardPools {
    scratch: Option<Box<WireScratch>>,
    dispatch: ShardDispatch,
    telemetry: ShardTelemetry,
}

impl ShardPools {
    /// Lend the pools to `driver`'s stack for as long as the returned
    /// [`Loan`] lives. Wrap every driver call that can run module code,
    /// encode or enqueue work.
    pub fn lend<'a>(&'a mut self, driver: &'a mut StackDriver) -> Loan<'a> {
        self.scratch.get_or_insert_with(Box::default);
        let mut loan = Loan { driver, pools: self };
        loan.swap();
        loan.driver.stack.lend_dispatch(&mut loan.pools.dispatch);
        loan
    }

    /// The scratch pool's counters (zero while it is lent out).
    pub(crate) fn wire_stats(&self) -> ScratchStats {
        self.scratch.as_ref().map_or(ScratchStats::default(), |s| s.stats())
    }
}

/// The shard loan, the one way a host lends its [`ShardPools`]: while
/// it lives, the driver's stack encodes into the shard's pool, records
/// into the shard's telemetry set, and dispatches through the shard's
/// buffers unless it still holds a queue of its own. Dropping it hands
/// the pool, the set and the action buffer back, and with them the
/// dispatch box if the stack no longer needs it — on return, early
/// return and unwind alike, so a loan cannot leak pool capacity or a
/// histogram into a stack, and a stack without work holds no scratch,
/// no dispatch box and no telemetry set. Dereferences to the driver.
pub struct Loan<'a> {
    driver: &'a mut StackDriver,
    pools: &'a mut ShardPools,
}

impl Loan<'_> {
    /// The symmetric part, both ways: the pool is one pointer swap, the
    /// telemetry two.
    fn swap(&mut self) {
        let stack = &mut self.driver.stack;
        stack.swap_scratch(&mut self.pools.scratch);
        stack.telemetry_mut().swap_set(&mut self.pools.telemetry);
    }
}

impl Drop for Loan<'_> {
    fn drop(&mut self) {
        self.driver.stack.return_dispatch(&mut self.pools.dispatch);
        self.swap();
    }
}

impl Deref for Loan<'_> {
    type Target = StackDriver;
    fn deref(&self) -> &StackDriver {
        self.driver
    }
}

impl DerefMut for Loan<'_> {
    fn deref_mut(&mut self) -> &mut StackDriver {
        self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ServiceId, TimerId};
    use crate::module::{Call, Module, Response};
    use crate::stack::{net_ops, FactoryRegistry, ModuleCtx, StackConfig};
    use crate::time::Dur;
    use crate::wire::Encode;
    use crate::ModuleId;

    /// Collects sends with their timestamps.
    #[derive(Default)]
    struct RecSink {
        sent: Vec<(Time, StackId, StackId, Bytes)>,
    }

    impl ActionSink for RecSink {
        fn net_send(&mut self, at: Time, src: StackId, dst: StackId, payload: Bytes) {
            self.sent.push((at, src, dst, payload));
        }
    }

    /// Replies "pong" to any "ping"; counts receipts.
    struct PingPong {
        got: usize,
    }

    impl Module for PingPong {
        fn kind(&self) -> &str {
            "pingpong"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::svc::NET)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op != net_ops::RECV {
                return;
            }
            let (src, data): (StackId, Bytes) = resp.decode().unwrap();
            self.got += 1;
            if data.as_ref() == b"ping" {
                let reply = (src, Bytes::from_static(b"pong")).to_bytes();
                ctx.call(&ServiceId::new(crate::svc::NET), net_ops::SEND, reply);
            }
        }
    }

    /// Arms a short timer on start; re-arms until 3 beats.
    struct Beat {
        beats: u32,
    }

    impl Module for Beat {
        fn kind(&self) -> &str {
            "beat"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.set_timer(Dur::millis(1), 1);
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
            self.beats += 1;
            if self.beats < 3 {
                ctx.set_timer(Dur::millis(1), 1);
            }
        }
    }

    /// In these one-module stacks: net bridge is module 1, the test
    /// module is module 2.
    const PP: ModuleId = ModuleId(2);
    const BEAT: ModuleId = ModuleId(2);

    fn pingpong_driver() -> StackDriver {
        let mut s = Stack::new(StackConfig::nth(0, 2, 1), FactoryRegistry::new());
        s.add_module(Box::new(PingPong { got: 0 }));
        StackDriver::new(s)
    }

    #[test]
    fn poll_runs_start_work_and_reports_idle() {
        let mut d = pingpong_driver();
        let mut sink = RecSink::default();
        assert_eq!(d.poll(Time(5), &mut sink), Wakeup::Idle);
        assert!(sink.sent.is_empty());
        assert!(!d.stack().has_work());
    }

    #[test]
    fn injected_packet_produces_timestamped_send() {
        let mut d = pingpong_driver();
        let mut sink = RecSink::default();
        d.poll(Time(0), &mut sink);
        d.inject(HostEvent::Packet { src: StackId(1), payload: Bytes::from_static(b"ping") });
        assert!(d.stack().has_work());
        let w = d.poll(Time(42), &mut sink);
        assert_eq!(w, Wakeup::Idle);
        assert_eq!(sink.sent.len(), 1);
        let (at, src, dst, ref payload) = sink.sent[0];
        assert_eq!(at, Time(42));
        assert_eq!(src, StackId(0));
        assert_eq!(dst, StackId(1));
        assert_eq!(payload.as_ref(), b"pong");
    }

    #[test]
    fn control_closures_run_in_injection_order() {
        let mut d = pingpong_driver();
        let mut sink = RecSink::default();
        d.poll(Time(0), &mut sink);
        let data = (StackId(1), Bytes::from_static(b"hello")).to_bytes();
        d.inject(HostEvent::Control(Box::new(move |s: &mut Stack| {
            s.call_as(PP, &ServiceId::new(crate::svc::NET), net_ops::SEND, data);
        })));
        d.poll(Time(7), &mut sink);
        assert_eq!(sink.sent.len(), 1);
        assert_eq!(sink.sent[0].0, Time(7));
        assert_eq!(sink.sent[0].3.as_ref(), b"hello");
    }

    /// Provides `order` and records what it is dispatched: the sender of
    /// each datagram, the op of each call.
    struct Order {
        seen: Vec<u32>,
    }

    impl Module for Order {
        fn kind(&self) -> &str {
            "order"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("order")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::svc::NET)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, call: Call) {
            self.seen.push(u32::from(call.op));
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            let (src, _): (StackId, Bytes) = resp.decode().unwrap();
            self.seen.push(src.0);
        }
    }

    #[test]
    fn packets_and_closures_run_in_injection_order() {
        const ORDER: ModuleId = ModuleId(2);
        let mut s = Stack::new(StackConfig::nth(0, 4, 1), FactoryRegistry::new());
        s.add_module(Box::new(Order { seen: Vec::new() }));
        s.bind(&ServiceId::new("order"), ORDER);
        let mut d = StackDriver::new(s);
        d.poll(Time(0), &mut NullSink);
        let packet = |src| HostEvent::Packet { src: StackId(src), payload: Bytes::new() };
        d.inject(packet(1));
        d.inject(HostEvent::Control(Box::new(|s: &mut Stack| {
            s.call_as(ORDER, &ServiceId::new("order"), 2, Bytes::new());
        })));
        d.inject(packet(3));
        assert!(d.stack().has_work(), "all three wait in the stack's inbox");
        d.poll(Time(9), &mut NullSink);
        let seen = d.stack_mut().with_module::<Order, _>(ORDER, |o| o.seen.clone());
        assert_eq!(seen.expect("order module"), [1, 2, 3]);
    }

    #[test]
    fn timers_fire_through_poll_and_wakeup_tracks_earliest() {
        let mut s = Stack::new(StackConfig::nth(0, 1, 1), FactoryRegistry::new());
        s.add_module(Box::new(Beat { beats: 0 }));
        let mut d = StackDriver::new(s);
        let mut sink = NullSink;
        let w = d.poll(Time::ZERO, &mut sink);
        assert_eq!(w, Wakeup::At(Time::ZERO + Dur::millis(1)));
        // Poll exactly at the deadline: the beat fires and re-arms.
        let w = d.poll(Time::ZERO + Dur::millis(1), &mut sink);
        assert_eq!(w, Wakeup::At(Time::ZERO + Dur::millis(2)));
        // Poll late: beat 2 fires and re-arms relative to `now`.
        let w = d.poll(Time::ZERO + Dur::secs(1), &mut sink);
        assert_eq!(w, Wakeup::At(Time::ZERO + Dur::secs(1) + Dur::millis(1)));
        // The final beat does not re-arm: no timer remains.
        let w = d.poll(Time::ZERO + Dur::secs(1) + Dur::millis(1), &mut sink);
        assert_eq!(w, Wakeup::Idle);
        let beats = d.stack_mut().with_module::<Beat, _>(BEAT, |b| b.beats).expect("beat module");
        assert_eq!(beats, 3);
    }

    #[test]
    fn zero_delay_rearming_timer_cannot_spin_poll_forever() {
        struct ZeroSpin;
        impl Module for ZeroSpin {
            fn kind(&self) -> &str {
                "zerospin"
            }
            fn provides(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn requires(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
                ctx.set_timer(Dur::ZERO, 1);
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
            fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
                ctx.set_timer(Dur::ZERO, 1);
            }
        }
        let mut s = Stack::new(StackConfig::nth(0, 1, 1), FactoryRegistry::new());
        s.add_module(Box::new(ZeroSpin));
        let mut d = StackDriver::new(s);
        // Must return (bounded), asking to be re-polled immediately.
        let w = d.poll(Time(5), &mut NullSink);
        assert_eq!(w, Wakeup::At(Time(5)));
    }

    /// Provides "c" and echoes every call.
    struct EchoC;

    impl Module for EchoC {
        fn kind(&self) -> &str {
            "echoc"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("c")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            ctx.respond(&call.service, call.op, call.data);
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// Turns every response on "c" into a fresh call: with [`EchoC`], an
    /// infinite dispatch cycle with no timers involved.
    struct Relentless;

    impl Module for Relentless {
        fn kind(&self) -> &str {
            "relentless"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("c")]
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.call(&ServiceId::new("c"), 1, Bytes::new());
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, _: Response) {
            ctx.call(&ServiceId::new("c"), 1, Bytes::new());
        }
    }

    fn cycle_driver(cfg: StackConfig) -> StackDriver {
        let mut s = Stack::new(cfg, FactoryRegistry::new());
        let echo = s.add_module(Box::new(EchoC));
        s.add_module(Box::new(Relentless));
        s.bind(&ServiceId::new("c"), echo);
        StackDriver::new(s)
    }

    #[test]
    fn endless_call_response_cycle_cannot_wedge_poll() {
        let mut d = cycle_driver(StackConfig::nth(0, 1, 1));
        // Must return (step budget), asking to be re-polled immediately.
        let w = d.poll(Time(3), &mut NullSink);
        assert_eq!(w, Wakeup::At(Time(3)));
        assert!(d.stack().has_work(), "the cycle is still pending, host re-polls");
    }

    #[test]
    fn a_traced_stack_under_a_loan_keeps_no_calls_and_tallies_every_one() {
        let mut pools = ShardPools::default();
        let mut driver = cycle_driver(StackConfig::nth(0, 1, 1));
        let mut steps = |driver: &mut StackDriver, n| {
            let mut loan = pools.lend(driver);
            for _ in 0..n {
                loan.step_raw(Time(0)).expect("the cycle never ends");
                loan.settle(Time(0), &mut NullSink);
            }
        };
        // Its modules start and make their first call and response.
        steps(&mut driver, 4);
        let first = driver.stack().trace().mem_bytes();
        steps(&mut driver, 10_000);
        let trace = driver.stack().trace();
        let calls: u64 = trace.tally().iter().map(|(_, _, tally)| tally.calls).sum();
        let responses: u64 = trace.tally().iter().map(|(_, _, tally)| tally.responses).sum();
        assert!(calls > 4_096, "{calls} calls");
        assert_eq!(trace.mem_bytes(), first, "a stack holds no call, wherever it is driven");
        assert_eq!(trace.events().count(), 5, "three modules created, two binds");
        assert_eq!(trace.pushed(), 5 + calls + responses, "the tally counts every call");
        assert_eq!(trace.tally().len(), 1, "one row: the calls and responses of c, op 1");
    }

    #[test]
    fn split_phase_settle_stamps_action_time() {
        let mut d = pingpong_driver();
        d.poll(Time(0), &mut NullSink);
        d.deliver(Time(10), StackId(1), Bytes::from_static(b"ping"));
        let mut sink = RecSink::default();
        // Step at t=10 but settle at t=25 (modeled CPU cost), like Sim.
        while d.step_raw(Time(10)).is_some() {
            d.settle(Time(25), &mut sink);
        }
        assert_eq!(sink.sent.len(), 1);
        assert_eq!(sink.sent[0].0, Time(25));
    }

    /// Provides `ties`. Sets timers `1` and `2` on start, both 2 ms
    /// out; a call sets timer `3`, `op` ms out. Records what fires.
    struct Ties {
        fired: Vec<u64>,
    }

    impl Module for Ties {
        fn kind(&self) -> &str {
            "ties"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new("ties")]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            ctx.set_timer(Dur::millis(2), 1);
            ctx.set_timer(Dur::millis(2), 2);
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            ctx.set_timer(Dur::millis(u64::from(call.op)), 3);
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
        fn on_timer(&mut self, _: &mut ModuleCtx<'_>, _: TimerId, tag: u64) {
            self.fired.push(tag);
        }
    }

    const TIES: ModuleId = ModuleId(2);

    fn ties_driver() -> StackDriver {
        let mut s = Stack::new(StackConfig::nth(0, 1, 1), FactoryRegistry::new());
        s.add_module(Box::new(Ties { fired: Vec::new() }));
        s.bind(&ServiceId::new("ties"), TIES);
        StackDriver::new(s)
    }

    fn call_ties(s: &mut Stack, ms: u16) {
        s.call_as(TIES, &ServiceId::new("ties"), ms, Bytes::new());
    }

    fn fired(d: &mut StackDriver) -> Vec<u64> {
        d.stack_mut().with_module::<Ties, _>(TIES, |t| t.fired.clone()).expect("ties module")
    }

    #[test]
    fn timers_due_together_fire_in_the_order_they_were_set() {
        let due = Time::ZERO + Dur::millis(2);
        // Through `poll`: two set in one step, the third in a later step.
        let mut d = ties_driver();
        d.inject(HostEvent::Control(Box::new(|s: &mut Stack| call_ties(s, 2))));
        assert_eq!(d.poll(Time::ZERO, &mut NullSink), Wakeup::At(due));
        assert_eq!(d.poll(due, &mut NullSink), Wakeup::Idle);
        assert_eq!(fired(&mut d), [1, 2, 3]);

        // Through `wake`, split-phase as the simulator drives it: the
        // third is set 1 ms later, 1 ms out.
        let mut d = ties_driver();
        d.poll(Time::ZERO, &mut NullSink);
        let later = Time::ZERO + Dur::millis(1);
        call_ties(d.stack_mut(), 1);
        while d.step_raw(later).is_some() {
            d.settle(later, &mut NullSink);
        }
        assert_eq!(d.wake(due), None);
        while d.step_raw(due).is_some() {
            d.settle(due, &mut NullSink);
        }
        assert_eq!(fired(&mut d), [1, 2, 3]);
    }

    #[test]
    fn a_destroyed_modules_timers_fire_into_nothing() {
        let due = Time::ZERO + Dur::millis(2);
        let mut d = ties_driver();
        d.poll(Time::ZERO, &mut NullSink);
        d.stack_mut().destroy_module(TIES);
        let w = d.poll(Time::ZERO + Dur::millis(1), &mut NullSink);
        assert_eq!(w, Wakeup::At(due), "the module is gone, its timers stay armed");
        assert!(d.stack().module_kind(TIES).is_none());
        assert_eq!(d.wake(due), None);
        assert!(!d.stack().has_work(), "no delivery for the destroyed module");
        assert!(d.step_raw(due).is_none(), "and no step");
    }

    #[test]
    fn timers_fire_earliest_deadline_first_then_lowest_id() {
        // Timers 1 and 2 are due at 2 ms; timer 3, set later, at 1 ms.
        let mut d = ties_driver();
        d.inject(HostEvent::Control(Box::new(|s: &mut Stack| call_ties(s, 1))));
        assert_eq!(d.poll(Time::ZERO, &mut NullSink), Wakeup::At(Time::ZERO + Dur::millis(1)));
        let due = Time::ZERO + Dur::millis(2);
        assert_eq!(d.wake(due), None, "all three were due");
        while d.step_raw(due).is_some() {
            d.settle(due, &mut NullSink);
        }
        assert_eq!(fired(&mut d), [3, 1, 2]);
    }

    #[test]
    fn a_hosted_stack_at_rest_holds_no_scratch_and_no_dispatch_box() {
        let mut pools = ShardPools::default();
        let mut pp = pingpong_driver();
        let mut beat = StackDriver::new({
            let mut s = Stack::new(StackConfig::nth(1, 2, 1), FactoryRegistry::new());
            s.add_module(Box::new(Beat { beats: 0 }));
            s
        });
        let drain = |d: &mut StackDriver, now: Time, pools: &mut ShardPools| {
            let mut loan = pools.lend(d);
            while loan.step_raw(now).is_some() {
                loan.settle(now, &mut NullSink);
            }
        };
        let net = ServiceId::new(crate::svc::NET);
        for (d, from) in [(&mut pp, PP), (&mut beat, BEAT)] {
            assert!(
                d.stack().at_rest() && d.stack().has_work(),
                "building counts the modules' starts"
            );
            // A send made outside a loan waits in a box of the stack's own.
            let data = (StackId(0), Bytes::from_static(b"x")).to_bytes();
            d.stack_mut().call_as(from, &net, net_ops::SEND, data);
            assert!(!d.stack().at_rest(), "the send waits in the stack's own box");
            drain(d, Time::ZERO, &mut pools);
            assert!(d.stack().at_rest(), "step and settle");
        }
        // An arrival encodes through the pool and leaves work queued: the
        // busy stack keeps the box, the pool goes back.
        pools.lend(&mut pp).deliver(Time(1), StackId(1), Bytes::from_static(b"ping"));
        assert!(pp.stack().has_work() && pp.stack().wire_stats() == Default::default());
        drain(&mut pp, Time(1), &mut pools);
        assert!(pp.stack().at_rest(), "arrival, then its steps");
        let due = Time::ZERO + Dur::millis(1);
        assert_eq!(pools.lend(&mut beat).wake(due), None);
        drain(&mut beat, due, &mut pools);
        assert!(beat.stack().at_rest(), "wake, then its steps");
        // A control closure run through `poll`, as `Sim::with_stack` runs
        // one: the encode lands in the pool.
        let mut loan = pools.lend(&mut pp);
        loan.inject(HostEvent::Control(Box::new(|s: &mut Stack| drop(s.encode(&7u64)))));
        loan.poll(Time(2), &mut NullSink);
        drop(loan);
        assert!(pp.stack().at_rest(), "control closure");
        assert_eq!(pools.wire_stats().emitted, 2, "the arrival's and the closure's encodes");
    }

    #[test]
    fn a_hosted_stack_at_rest_holds_no_telemetry_set() {
        let mut pools = ShardPools::default();
        let mut hosted = pingpong_driver();
        for now in 1..4 {
            let mut loan = pools.lend(&mut hosted);
            loan.deliver(Time(now), StackId(1), Bytes::from_static(b"ping"));
            loan.stack_mut().telemetry_mut().note_delivery(now, 7);
            loan.poll(Time(now), &mut NullSink);
        }
        let state = hosted.stack().telemetry().state().expect("always on");
        assert!(state.set.is_none(), "no set at rest");
        assert_eq!(hosted.stack().telemetry().set_bytes(), 0);
        let set = pools.telemetry.set.as_deref().expect("the shard's, boxed under the first loan");
        assert_eq!(set.delivery_latency.count(), 3);
        assert!(pools.telemetry.cascade_depth.count() > 0, "the cascades ran under loans");
        // A stack that recorded before it was hosted keeps its own set:
        // it parks in the shard during a loan and comes back.
        let mut bare = pingpong_driver();
        bare.stack_mut().telemetry_mut().note_delivery(0, 1);
        let own = bare.stack().telemetry().set_bytes();
        assert!(own > 0, "a bare stack boxes its own");
        pools.lend(&mut bare).poll(Time(5), &mut NullSink);
        assert_eq!(bare.stack().telemetry().set_bytes(), own);
        assert_eq!(pools.telemetry.set.as_deref().map(|s| s.delivery_latency.count()), Some(3));
    }
}
