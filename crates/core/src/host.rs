//! The unified host API: the drive loop on [`Stack`] and the
//! [`ActionSink`] boundary. Every host holds and drives `Stack`s; the
//! canonical drive loop that every host used to hand-duplicate — fire
//! due timers, step the stack until idle, execute what the steps asked
//! of the host, report the next wakeup deadline — is [`Stack::poll`].
//!
//! Every input from outside a step — a packet, a host's call, a fired
//! timer, a control closure — waits in the stack's one inbox. The hosts
//! reach a stack through these calls:
//!
//! * the simulator (`dpu-sim`): [`Stack::packet_in`] for a packet at its
//!   scheduled arrival, [`Stack::wake`] for due timers, and the
//!   split-phase [`Stack::step`] + [`Stack::settle`], so it can charge
//!   modeled CPU time per step; a control closure mutates the stack
//!   through `Sim::with_stack`. Its conservative parallel engine
//!   (`dpu_sim::par`) moves whole shards of stacks between worker
//!   threads across epoch barriers: a stack owns all its mutable state,
//!   so a shard changes hands by a plain `Send` move;
//! * the live shards (`dpu-runtime`, `dpu-reactor`, through the
//!   [`LiveShard`] they share, see [`live`]): [`Stack::packet_in`] and
//!   [`Stack::poll`] under the wall clock, and [`LiveShard::ctl`] for a
//!   control closure, each host adding only its transport.
//!
//! The host implements [`ActionSink`], which receives the sends a settle
//! executes, and learns from the [`Wakeup`] that [`Stack::poll`] returns
//! (or from [`Stack::next_deadline`]) when the stack next needs CPU. All
//! three hosts lend each shard's [`ShardPools`] to the stack they are
//! driving through the one guard, [`Loan`]. [`StackDriver`] is the
//! benchmark package's adapter over the same calls.
//!
//! # Timers
//!
//! A stack keeps one timer table: each armed timer's deadline, module
//! and tag, under its id. A module's `set_timer` enters the timer, and
//! the settle of its step stamps the deadline, relative to the settle
//! time. Timers due together fire earliest deadline first and, on equal
//! deadlines, in the order they were set (ids rise with every
//! `set_timer`). A timer is never cancelled: a module ignores a stale
//! fire by its tag, and a destroyed module's timers stay in the table,
//! wake the stack when due and fire into nothing. A host only needs to
//! call [`Stack::wake`] or [`Stack::poll`] again no later than the next
//! deadline.

pub mod live;

pub use live::{dump_flight, Ctl, Host, LiveShard, LossModel, ShardPort, WallClock};

use crate::ids::StackId;
use crate::stack::{ShardDispatch, Stack};
use crate::time::Time;
use crate::wire::{ScratchStats, WireScratch};
use bytes::Bytes;
use dpu_telemetry::{ShardTelemetry, TelemetryAggregate};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// An external event the benchmark's null host feeds into a
/// [`StackDriver`].
pub enum HostEvent {
    /// A datagram arrived from stack `src`.
    Packet {
        /// Sending stack.
        src: StackId,
        /// Raw datagram contents.
        payload: Bytes,
    },
    /// Run a closure against the stack (control plane).
    Control(Box<dyn FnOnce(&mut Stack) + Send>),
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

/// When a stack next needs to be polled, as reported by [`Stack::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wakeup {
    /// No armed timers and no pending work: the stack only needs CPU
    /// when the host hands it its next input.
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

/// Receiver of the network sends a [`Stack::settle`] executes.
/// Implemented by the host: the simulator models latency/loss and
/// schedules arrival events; the sharded runtime routes to the
/// destination shard's mailbox.
pub trait ActionSink {
    /// Stack `src` sent `payload` to stack `dst` at time `at`.
    ///
    /// `at` is the settle time — under modeled CPU cost it may lie after
    /// the time the step that sent ran at.
    fn net_send(&mut self, at: Time, src: StackId, dst: StackId, payload: Bytes);
}

/// A sink that drops every send, for tests and quiescent drains.
#[derive(Debug, Default)]
pub struct NullSink;

impl ActionSink for NullSink {
    fn net_send(&mut self, _at: Time, _src: StackId, _dst: StackId, _payload: Bytes) {}
}

/// The recording sink: every send, in order, as `(at, src, dst,
/// payload)` — for a host that replays sends once its borrow of the
/// stack ends (the simulator), and for tests.
impl ActionSink for Vec<(Time, StackId, StackId, Bytes)> {
    fn net_send(&mut self, at: Time, src: StackId, dst: StackId, payload: Bytes) {
        self.push((at, src, dst, payload));
    }
}

impl Stack {
    /// The wake hook: fire every timer due at or before `now` and report
    /// the next armed deadline. Virtual-time hosts batch their per-node
    /// wake handling through this, then step and settle.
    #[inline]
    pub fn wake(&mut self, now: Time) -> Option<Time> {
        self.fire_due(now);
        self.next_deadline()
    }

    /// The canonical drive loop: repeat {fire due timers, step until
    /// idle, settle} until nothing is due and the stack is idle. Returns
    /// when to poll next.
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
            while self.step(now).is_some() {
                self.settle(now, sink);
                steps += 1;
                if steps >= MAX_POLL_STEPS {
                    return Wakeup::At(now);
                }
            }
            // Actions can be produced without a step (e.g. by a control
            // closure or a mutation between polls); drain defensively.
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

/// Bound on the fire/step/settle rounds of one [`Stack::poll`] call
/// (see its docs). Generous: an honest stack re-enters the loop only
/// when an action armed a timer that is already due.
const MAX_POLL_ROUNDS: usize = 64;

/// Bound on stack steps dispatched by one [`Stack::poll`] call (see its
/// docs). Generous: steps are sub-microsecond, so an honest burst this
/// large still returns within milliseconds.
const MAX_POLL_STEPS: usize = 100_000;

/// The benchmark package's adapter: a [`Stack`] fed [`HostEvent`]s. No
/// host in the workspace holds one — they drive `Stack`s — and it goes,
/// with `inject` and [`HostEvent`], once the benchmark's null host
/// calls the stack directly.
#[derive(Debug)]
pub struct StackDriver {
    stack: Stack,
}

impl StackDriver {
    /// Wrap a stack.
    pub fn new(stack: Stack) -> StackDriver {
        StackDriver { stack }
    }

    /// Apply an external event at once: a packet enters the stack's
    /// inbox at the stack's clock, a control closure runs against the
    /// stack. The next [`StackDriver::poll`] runs whatever either queued.
    pub fn inject(&mut self, ev: HostEvent) {
        let now = self.stack.now();
        match ev {
            HostEvent::Packet { src, payload } => self.stack.packet_in(now, src, payload),
            HostEvent::Control(f) => f(&mut self.stack),
        }
    }

    /// [`Stack::poll`].
    pub fn poll(&mut self, now: Time, sink: &mut dyn ActionSink) -> Wakeup {
        self.stack.poll(now, sink)
    }

    /// The stack.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// The stack, mutably.
    pub fn stack_mut(&mut self) -> &mut Stack {
        &mut self.stack
    }
}

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
    /// Lend the pools to `stack` for as long as the returned [`Loan`]
    /// lives. Wrap every stack call that can run module code, encode or
    /// enqueue work.
    pub fn lend<'a>(&'a mut self, stack: &'a mut Stack) -> Loan<'a> {
        self.scratch.get_or_insert_with(Box::default);
        let mut loan = Loan { stack, pools: self };
        loan.swap();
        loan.stack.lend_dispatch(&mut loan.pools.dispatch);
        loan
    }

    /// The scratch pool's counters (zero while it is lent out).
    pub(crate) fn wire_stats(&self) -> ScratchStats {
        self.scratch.as_ref().map_or(ScratchStats::default(), |s| s.stats())
    }
}

/// Fold one stack into a host's report: its telemetry, its resident
/// scratch counters and its transport modules' counters. `hosted`
/// counts it among the report's stacks; an incarnation a restart is
/// about to drop adds everything it counted and measured, but no seat.
pub fn fold_stack(report: &mut TelemetryAggregate, stack: &Stack, hosted: bool) {
    if hosted {
        report.absorb(stack.telemetry());
    } else {
        report.absorb_retired(stack.telemetry());
    }
    report.wire.absorb(stack.wire_stats());
    report.transport.absorb(stack.transport_stats());
}

/// Fold one host shard into a host's report: every stack it hosts, and
/// what its pools hold and its stacks do not — the scratch pool's
/// counters and the telemetry set.
pub fn fold_shard(report: &mut TelemetryAggregate, stacks: &[Stack], pools: &ShardPools) {
    for stack in stacks {
        fold_stack(report, stack, true);
    }
    report.wire.absorb(pools.wire_stats());
    report.absorb_set(&pools.telemetry);
}

/// The shard loan, the one way a host lends its [`ShardPools`]: while
/// it lives, the stack encodes into the shard's pool, records into the
/// shard's telemetry set, and dispatches through the shard's buffers
/// unless it still holds a queue of its own. Dropping it hands the
/// pool, the set and the action buffer back, and with them the dispatch
/// box if the stack no longer needs it — on return, early return and
/// unwind alike, so a loan cannot leak pool capacity or a histogram
/// into a stack, and a stack without work holds no scratch, no dispatch
/// box and no telemetry set. Dereferences to the stack.
pub struct Loan<'a> {
    stack: &'a mut Stack,
    pools: &'a mut ShardPools,
}

impl Loan<'_> {
    /// The symmetric part, both ways: the pool is one pointer swap, the
    /// telemetry two.
    fn swap(&mut self) {
        self.stack.swap_scratch(&mut self.pools.scratch);
        self.stack.telemetry_mut().swap_set(&mut self.pools.telemetry);
    }
}

impl Drop for Loan<'_> {
    fn drop(&mut self) {
        self.stack.return_dispatch(&mut self.pools.dispatch);
        self.swap();
    }
}

impl Deref for Loan<'_> {
    type Target = Stack;
    fn deref(&self) -> &Stack {
        self.stack
    }
}

impl DerefMut for Loan<'_> {
    fn deref_mut(&mut self) -> &mut Stack {
        self.stack
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

    fn pingpong() -> Stack {
        let mut s = Stack::new(StackConfig::nth(0, 2, 1), FactoryRegistry::new());
        s.add_module(Box::new(PingPong { got: 0 }));
        s
    }

    #[test]
    fn poll_runs_start_work_and_reports_idle() {
        let mut s = pingpong();
        let mut sent = Vec::new();
        assert_eq!(s.poll(Time(5), &mut sent), Wakeup::Idle);
        assert!(sent.is_empty());
        assert!(!s.has_work());
    }

    #[test]
    fn a_packet_produces_a_send_stamped_at_the_poll() {
        let mut s = pingpong();
        let mut sent = Vec::new();
        s.poll(Time(0), &mut sent);
        s.packet_in(Time(0), StackId(1), Bytes::from_static(b"ping"));
        assert!(s.has_work());
        assert_eq!(s.poll(Time(42), &mut sent), Wakeup::Idle);
        assert_eq!(sent, [(Time(42), StackId(0), StackId(1), Bytes::from_static(b"pong"))]);
    }

    #[test]
    fn a_call_made_between_polls_leaves_with_the_next_poll() {
        let mut s = pingpong();
        let mut sent = Vec::new();
        s.poll(Time(0), &mut sent);
        let data = (StackId(1), Bytes::from_static(b"hello")).to_bytes();
        s.call_as(PP, &ServiceId::new(crate::svc::NET), net_ops::SEND, data);
        s.poll(Time(7), &mut sent);
        assert_eq!(sent, [(Time(7), StackId(0), StackId(1), Bytes::from_static(b"hello"))]);
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

    /// The benchmark's adapter: each event reaches the stack's inbox as
    /// it is injected.
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
        let mut d = Stack::new(StackConfig::nth(0, 1, 1), FactoryRegistry::new());
        d.add_module(Box::new(Beat { beats: 0 }));
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
        let beats = d.with_module::<Beat, _>(BEAT, |b| b.beats).expect("beat module");
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
        // Must return (bounded), asking to be re-polled immediately.
        let w = s.poll(Time(5), &mut NullSink);
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

    fn cycle(cfg: StackConfig) -> Stack {
        let mut s = Stack::new(cfg, FactoryRegistry::new());
        let echo = s.add_module(Box::new(EchoC));
        s.add_module(Box::new(Relentless));
        s.bind(&ServiceId::new("c"), echo);
        s
    }

    #[test]
    fn endless_call_response_cycle_cannot_wedge_poll() {
        let mut s = cycle(StackConfig::nth(0, 1, 1));
        // Must return (step budget), asking to be re-polled immediately.
        let w = s.poll(Time(3), &mut NullSink);
        assert_eq!(w, Wakeup::At(Time(3)));
        assert!(s.has_work(), "the cycle is still pending, host re-polls");
    }

    #[test]
    fn a_traced_stack_under_a_loan_keeps_no_calls_and_tallies_every_one() {
        let mut pools = ShardPools::default();
        let mut stack = cycle(StackConfig::nth(0, 1, 1));
        let mut steps = |stack: &mut Stack, n| {
            let mut loan = pools.lend(stack);
            for _ in 0..n {
                loan.step(Time(0)).expect("the cycle never ends");
                loan.settle(Time(0), &mut NullSink);
            }
        };
        // Its modules start and make their first call and response.
        steps(&mut stack, 4);
        let first = stack.trace().mem_bytes();
        steps(&mut stack, 10_000);
        let trace = stack.trace();
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
        let mut s = pingpong();
        s.poll(Time(0), &mut NullSink);
        s.packet_in(Time(10), StackId(1), Bytes::from_static(b"ping"));
        let mut sent = Vec::new();
        // Step at t=10 but settle at t=25 (modeled CPU cost), like Sim.
        while s.step(Time(10)).is_some() {
            s.settle(Time(25), &mut sent);
        }
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, Time(25));
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

    fn ties() -> Stack {
        let mut s = Stack::new(StackConfig::nth(0, 1, 1), FactoryRegistry::new());
        s.add_module(Box::new(Ties { fired: Vec::new() }));
        s.bind(&ServiceId::new("ties"), TIES);
        s
    }

    fn call_ties(s: &mut Stack, ms: u16) {
        s.call_as(TIES, &ServiceId::new("ties"), ms, Bytes::new());
    }

    fn fired(s: &mut Stack) -> Vec<u64> {
        s.with_module::<Ties, _>(TIES, |t| t.fired.clone()).expect("ties module")
    }

    /// Step and settle at `now` until the stack is idle.
    fn drain(s: &mut Stack, now: Time) {
        while s.step(now).is_some() {
            s.settle(now, &mut NullSink);
        }
    }

    #[test]
    fn timers_due_together_fire_in_the_order_they_were_set() {
        let due = Time::ZERO + Dur::millis(2);
        // Through `poll`: two set in one step, the third in a later step.
        let mut s = ties();
        call_ties(&mut s, 2);
        assert_eq!(s.poll(Time::ZERO, &mut NullSink), Wakeup::At(due));
        assert_eq!(s.poll(due, &mut NullSink), Wakeup::Idle);
        assert_eq!(fired(&mut s), [1, 2, 3]);

        // Through `wake`, split-phase as the simulator drives it: the
        // third is set 1 ms later, 1 ms out.
        let mut s = ties();
        s.poll(Time::ZERO, &mut NullSink);
        let later = Time::ZERO + Dur::millis(1);
        call_ties(&mut s, 1);
        drain(&mut s, later);
        assert_eq!(s.wake(due), None);
        drain(&mut s, due);
        assert_eq!(fired(&mut s), [1, 2, 3]);
    }

    #[test]
    fn a_destroyed_modules_timers_fire_into_nothing() {
        let due = Time::ZERO + Dur::millis(2);
        let mut s = ties();
        s.poll(Time::ZERO, &mut NullSink);
        s.destroy_module(TIES);
        let w = s.poll(Time::ZERO + Dur::millis(1), &mut NullSink);
        assert_eq!(w, Wakeup::At(due), "the module is gone, its timers stay armed");
        assert!(s.module_kind(TIES).is_none());
        assert_eq!(s.wake(due), None);
        assert!(!s.has_work(), "no delivery for the destroyed module");
        assert!(s.step(due).is_none(), "and no step");
    }

    #[test]
    fn a_crashed_stacks_timers_fire_into_nothing_and_are_forgotten() {
        let due = Time::ZERO + Dur::millis(2);
        let mut s = ties();
        assert_eq!(s.poll(Time::ZERO, &mut NullSink), Wakeup::At(due));
        s.crash(Time::ZERO + Dur::millis(1));
        assert_eq!(s.wake(due), None, "both timers fired, and are gone");
        assert!(!s.has_work() && s.step(due).is_none());
        assert!(fired(&mut s).is_empty());
    }

    #[test]
    fn timers_fire_earliest_deadline_first_then_lowest_id() {
        // Timers 1 and 2 are due at 2 ms; timer 3, set later, at 1 ms.
        let mut s = ties();
        call_ties(&mut s, 1);
        assert_eq!(s.poll(Time::ZERO, &mut NullSink), Wakeup::At(Time::ZERO + Dur::millis(1)));
        let due = Time::ZERO + Dur::millis(2);
        assert_eq!(s.wake(due), None, "all three were due");
        drain(&mut s, due);
        assert_eq!(fired(&mut s), [3, 1, 2]);
    }

    #[test]
    fn a_hosted_stack_at_rest_holds_no_scratch_and_no_dispatch_box() {
        let mut pools = ShardPools::default();
        let mut pp = pingpong();
        let mut beat = Stack::new(StackConfig::nth(1, 2, 1), FactoryRegistry::new());
        beat.add_module(Box::new(Beat { beats: 0 }));
        let net = ServiceId::new(crate::svc::NET);
        for (s, from) in [(&mut pp, PP), (&mut beat, BEAT)] {
            assert!(s.at_rest() && s.has_work(), "building counts the modules' starts");
            // A send made outside a loan waits in a box of the stack's own.
            let data = (StackId(0), Bytes::from_static(b"x")).to_bytes();
            s.call_as(from, &net, net_ops::SEND, data);
            assert!(!s.at_rest(), "the send waits in the stack's own box");
            drain(&mut pools.lend(s), Time::ZERO);
            assert!(s.at_rest(), "step and settle");
        }
        // An arrival encodes through the pool and leaves work queued: the
        // busy stack keeps the box, the pool goes back.
        pools.lend(&mut pp).packet_in(Time(1), StackId(1), Bytes::from_static(b"ping"));
        assert!(pp.has_work() && pp.wire_stats() == Default::default());
        drain(&mut pools.lend(&mut pp), Time(1));
        assert!(pp.at_rest(), "arrival, then its steps");
        let due = Time::ZERO + Dur::millis(1);
        assert_eq!(pools.lend(&mut beat).wake(due), None);
        drain(&mut pools.lend(&mut beat), due);
        assert!(beat.at_rest(), "wake, then its steps");
        // A mutation under a loan, then `poll`, as `Sim::with_stack` runs
        // a control closure: the encode lands in the pool.
        let mut loan = pools.lend(&mut pp);
        drop(loan.encode(&7u64));
        loan.poll(Time(2), &mut NullSink);
        drop(loan);
        assert!(pp.at_rest(), "control closure");
        assert_eq!(pools.wire_stats().emitted, 2, "the arrival's and the closure's encodes");
    }

    #[test]
    fn a_hosted_stack_at_rest_holds_no_telemetry_set() {
        let mut pools = ShardPools::default();
        let mut hosted = pingpong();
        for now in 1..4 {
            let mut loan = pools.lend(&mut hosted);
            loan.packet_in(Time(now), StackId(1), Bytes::from_static(b"ping"));
            loan.telemetry_mut().note_delivery(now, 7);
            loan.poll(Time(now), &mut NullSink);
        }
        let state = hosted.telemetry().state().expect("always on");
        assert!(state.set.is_none(), "no set at rest");
        assert_eq!(hosted.telemetry().set_bytes(), 0);
        let set = pools.telemetry.set.as_deref().expect("the shard's, boxed under the first loan");
        assert_eq!(set.delivery_latency.count(), 3);
        assert!(pools.telemetry.cascade_depth.count() > 0, "the cascades ran under loans");
        // A stack that recorded before it was hosted keeps its own set:
        // it parks in the shard during a loan and comes back.
        let mut bare = pingpong();
        bare.telemetry_mut().note_delivery(0, 1);
        let own = bare.telemetry().set_bytes();
        assert!(own > 0, "a bare stack boxes its own");
        pools.lend(&mut bare).poll(Time(5), &mut NullSink);
        assert_eq!(bare.telemetry().set_bytes(), own);
        assert_eq!(pools.telemetry.set.as_deref().map(|s| s.delivery_latency.count()), Some(3));
    }
}
