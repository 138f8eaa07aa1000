//! The switch-layer skeleton: what Algorithm 1, its ablations and the two
//! baseline switchers have in common, written once.
//!
//! Every layer is an [`Indirection`] — it provides `r-<service>`, requires
//! `<service>`, wraps each `ABCAST` from above in a payload of its own and
//! unwraps each `ADELIVER` from below — and answers `changeABcast(prot)`
//! ([`crate::CHANGE_OP`]) through one handler that refuses a protocol the
//! local stack could not build. What a layer adds on top is its own file:
//!
//! * Algorithm 1 ([`crate::abcast_repl`], and its ablations over the
//!   same core) rides the switch on the old protocol's total order and
//!   learns from that order, in a [`HeardSet`], when every stack has
//!   switched;
//! * the two baselines ([`crate::maestro`], [`crate::graceful`]) are a
//!   [`Coordinated`] switch: a coordinator drives numbered rounds over
//!   rp2p ([`Coord`]: broadcast round k, collect one ack per member in a
//!   [`HeardSet`], broadcast round k + 1), and the old protocol is
//!   flushed by a [`MarkerDrain`] ([`Envelope`]) while the application
//!   waits. Maestro has one round, Graceful two.
//!
//! All layers feed the one [`dpu_core::telemetry::SwitchTimeline`]
//! through the stamps defined here ([`requested`], [`flushed`],
//! [`activated`], [`Indirection::radeliver`]), so a report reads the same
//! whichever layer produced it.

use crate::CHANGE_OP;
use bytes::{Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::{Decode, Encode, WireResult};
use dpu_core::{Call, Channel, HeardSet, ModuleSpec, Response, ServiceId, StackId};
use dpu_net::dgram;
use dpu_protocols::abcast::ops as ab_ops;
use std::collections::{BTreeSet, VecDeque};

/// Timeline stamp: this stack learned that a switch is coming
/// (idempotent while one is pending).
pub(crate) fn requested(ctx: &mut ModuleCtx<'_>) {
    let now_ns = ctx.now().as_nanos();
    ctx.telemetry().switch_requested(now_ns);
}

/// Timeline stamp: nothing of the outgoing protocol is still owed to
/// this stack.
pub(crate) fn flushed(ctx: &mut ModuleCtx<'_>) {
    let now_ns = ctx.now().as_nanos();
    ctx.telemetry().switch_flushed(now_ns);
}

/// Timeline stamp: the replacement serves this stack from now on.
pub(crate) fn activated(ctx: &mut ModuleCtx<'_>) {
    let now_ns = ctx.now().as_nanos();
    ctx.telemetry().switch_activated(now_ns);
}

/// `create_module(prot)` for a switch the group has already agreed on
/// (binds the new provider and recursively creates what it requires).
/// [`Indirection::change_requested`] keeps a request this stack could not
/// build from ever being proposed, so failing here means a peer has a
/// factory this stack lacks: surface loudly. The service stays unbound,
/// so calls block (weak well-formedness) rather than corrupt state.
pub(crate) fn install(ctx: &mut ModuleCtx<'_>, spec: &ModuleSpec) {
    if let Err(e) = ctx.create_module(spec) {
        panic!("replacement failed on {}: {e}", ctx.stack_id());
    }
}

/// The level of indirection of §4: callers are wired to `provided`
/// (`r-<service>`) once; `required` (`<service>`) is what gets replaced.
pub(crate) struct Indirection {
    pub provided: ServiceId,
    pub required: ServiceId,
}

impl Indirection {
    pub fn over(service: &str) -> Indirection {
        let required = ServiceId::new(service);
        Indirection { provided: required.replaced(), required }
    }

    /// Hand `payload` to the protocol underneath.
    pub fn abcast<T: Encode>(&self, ctx: &mut ModuleCtx<'_>, payload: &T) {
        let data = ctx.encode(payload);
        ctx.call(&self.required, ab_ops::ABCAST, data);
    }

    /// The payload of an `ADELIVER` from the protocol underneath.
    pub fn adelivered<T: Decode>(&self, resp: &Response) -> Option<T> {
        if resp.service != self.required || resp.op != ab_ops::ADELIVER {
            return None;
        }
        resp.decode().ok()
    }

    /// `rAdeliver(m)` to the users above. Closes the blackout window on
    /// the first post-switch delivery, whether or not the consumer above
    /// timestamps its messages.
    pub(crate) fn radeliver(&self, ctx: &mut ModuleCtx<'_>, data: Bytes) {
        let now_ns = ctx.now().as_nanos();
        ctx.telemetry().note_switch_delivery(now_ns);
        ctx.respond(&self.provided, ab_ops::ADELIVER, data);
    }

    /// `changeABcast(prot)`: the protocol to propose to the group, or
    /// `None` for a request that is malformed or that this stack could
    /// not apply itself (unknown kind, undecodable parameters) — that one
    /// is logged in the flight recorder, and nobody else ever hears of it.
    pub(crate) fn change_requested(
        &self,
        ctx: &mut ModuleCtx<'_>,
        call: &Call,
    ) -> Option<ModuleSpec> {
        let spec = call.decode::<ModuleSpec>().ok()?;
        if ctx.check_spec(&spec).is_err() {
            let now_ns = ctx.now().as_nanos();
            ctx.telemetry().note_switch_refused(now_ns);
            return None;
        }
        // The initiator learns of the switch here, everyone else when
        // the announcement reaches them.
        requested(ctx);
        Some(spec)
    }
}

/// What a [`Coordinated`] layer hands to the underlying atomic broadcast.
pub(crate) enum Envelope {
    /// tag 0: an application message.
    Data { data: Bytes },
    /// tag 1: a flush marker: "stack `from` has stopped sending in epoch
    /// `epoch`".
    Marker { epoch: u64, from: StackId },
}

dpu_core::wire_codec!(enum Envelope { 0 => Data { data }, 1 => Marker { epoch, from } });

/// Point-to-point coordination messages of a [`Coordinated`] switch, on
/// the layer's own rp2p channel. Rounds count from 1. Its codec is
/// written by hand: the round is not a field but computed from the tag.
pub(crate) enum Coord {
    /// tag 0: open switch `epoch` (the initiator, now coordinator, to
    /// everyone).
    Start { epoch: u64, spec: ModuleSpec, coord: StackId },
    /// tag 2k − 1: `from` finished its part of round k (to the
    /// coordinator).
    Ack { round: u32, epoch: u64, from: StackId },
    /// tag 2k: everyone finished round k — proceed (coordinator to
    /// everyone).
    Go { round: u32, epoch: u64 },
}

impl Coord {
    fn tag(&self) -> u32 {
        match self {
            Coord::Start { .. } => 0,
            Coord::Ack { round, .. } => 2 * (round - 1) + 1,
            Coord::Go { round, .. } => 2 * round,
        }
    }
}

impl Encode for Coord {
    fn encode(&self, buf: &mut BytesMut) {
        self.tag().encode(buf);
        match self {
            Coord::Start { epoch, spec, coord } => {
                epoch.encode(buf);
                spec.encode(buf);
                coord.encode(buf);
            }
            Coord::Ack { epoch, from, .. } => {
                epoch.encode(buf);
                from.encode(buf);
            }
            Coord::Go { epoch, .. } => epoch.encode(buf),
        }
    }
    fn encoded_len(&self) -> usize {
        self.tag().encoded_len()
            + match self {
                Coord::Start { epoch, spec, coord } => {
                    epoch.encoded_len() + spec.encoded_len() + coord.encoded_len()
                }
                Coord::Ack { epoch, from, .. } => epoch.encoded_len() + from.encoded_len(),
                Coord::Go { epoch, .. } => epoch.encoded_len(),
            }
    }
}

impl Decode for Coord {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        // Every tag is some round's ack or go; a layer ignores the rounds
        // it does not have.
        Ok(match u32::decode(buf)? {
            0 => Coord::Start {
                epoch: u64::decode(buf)?,
                spec: ModuleSpec::decode(buf)?,
                coord: StackId::decode(buf)?,
            },
            t if t % 2 == 1 => Coord::Ack {
                round: t / 2 + 1,
                epoch: u64::decode(buf)?,
                from: StackId::decode(buf)?,
            },
            t => Coord::Go { round: t / 2, epoch: u64::decode(buf)? },
        })
    }
}

/// Flushing the outgoing protocol with markers while the application
/// waits: every stack stops sending and broadcasts a marker through the
/// old protocol; once a stack has adelivered a marker from everyone,
/// nothing of the old protocol is still owed to it (per-sender FIFO holds
/// through each of our atomic broadcasts). Maestro's flush and Graceful's
/// deactivate are this.
#[derive(Default)]
struct MarkerDrain {
    epoch: u64,
    /// Our own marker is out and not everyone's has come back yet.
    draining: bool,
    heard: HeardSet,
    /// Markers of epochs this stack has not opened yet: they travel
    /// through the totally ordered broadcast and may overtake the
    /// point-to-point message that opens the epoch here.
    early: BTreeSet<(u64, StackId)>,
    /// Application messages held back since `blocked_since`.
    queued: VecDeque<Bytes>,
    blocked_since: Option<Time>,
    total_blocked: Dur,
}

impl MarkerDrain {
    /// Switch `epoch` starts here: from now on its markers count.
    fn open(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64) {
        self.epoch = epoch;
        self.heard = HeardSet::new(ctx.peers().len());
        for (e, from) in std::mem::take(&mut self.early) {
            if e == epoch {
                self.heard.mark(ctx.peers(), from);
            } else if e > epoch {
                self.early.insert((e, from));
            }
        }
    }

    /// Stop sending through the old protocol and say so: the application
    /// blocks until [`MarkerDrain::release`].
    fn begin(&mut self, ctx: &mut ModuleCtx<'_>, ind: &Indirection) {
        self.draining = true;
        self.blocked_since = Some(ctx.now());
        ind.abcast(ctx, &Envelope::Marker { epoch: self.epoch, from: ctx.stack_id() });
    }

    /// A marker was adelivered. True when it completes the drain (our own
    /// marker is among those counted, so never before `begin`).
    fn on_marker(&mut self, ctx: &mut ModuleCtx<'_>, epoch: u64, from: StackId) -> bool {
        if epoch > self.epoch {
            self.early.insert((epoch, from));
        }
        if epoch != self.epoch
            || !self.heard.mark(ctx.peers(), from)
            || !std::mem::take(&mut self.draining)
        {
            return false;
        }
        flushed(ctx);
        true
    }

    /// An application message: through, or held back while blocked.
    fn submit(&mut self, ctx: &mut ModuleCtx<'_>, ind: &Indirection, data: Bytes) {
        if self.blocked_since.is_some() {
            self.queued.push_back(data);
        } else {
            ind.abcast(ctx, &Envelope::Data { data });
        }
    }

    /// Unblock the application; what it sent meanwhile goes out through
    /// whatever `ind` requires now.
    fn release(&mut self, ctx: &mut ModuleCtx<'_>, ind: &Indirection) {
        if let Some(since) = self.blocked_since.take() {
            self.total_blocked += ctx.now().since(since);
        }
        while let Some(data) = self.queued.pop_front() {
            ind.abcast(ctx, &Envelope::Data { data });
        }
    }
}

/// What a [`Coordinated`] switch asks of the layer built on it.
pub(crate) enum Step {
    /// A switch to this protocol opened (the `requested` stamp is taken).
    /// The layer either starts [`Coordinated::begin_drain`] or does its
    /// round-1 work and [`Coordinated::ack`]s it.
    Start(ModuleSpec),
    /// The drain this stack began is complete (the `flushed` stamp is
    /// taken).
    Drained,
    /// Every stack has acked this round. After the layer's last round it
    /// calls [`Coordinated::finish`].
    Go(u32),
}

/// The baseline switchers' common machine: the indirection with
/// [`Envelope`] payloads, a [`MarkerDrain`], and coordinator-driven ack
/// rounds over rp2p. One switch at a time; a crashed stack stalls the
/// round (the real systems lean on group membership for that — another
/// dependency the paper's solution avoids).
pub(crate) struct Coordinated {
    pub(crate) ind: Indirection,
    drain: MarkerDrain,
    pub rp2p: ServiceId,
    channel: Channel,
    /// Who runs the switch in progress; `None` when idle.
    coordinator: Option<StackId>,
    /// The round whose `Go` this stack is waiting for (0: none).
    awaiting: u32,
    /// On the coordinator: the round being collected, and its acks.
    collecting: u32,
    acks: HeardSet,
    coord_msgs: u64,
}

impl Coordinated {
    pub fn new(service: &str, channel: Channel) -> Coordinated {
        Coordinated {
            ind: Indirection::over(service),
            drain: MarkerDrain::default(),
            rp2p: ServiceId::new(dpu_net::RP2P_SVC),
            channel,
            coordinator: None,
            awaiting: 0,
            collecting: 0,
            acks: HeardSet::default(),
            coord_msgs: 0,
        }
    }

    /// Total virtual time the application spent blocked.
    pub(crate) fn total_blocked(&self) -> Dur {
        self.drain.total_blocked
    }

    /// Point-to-point coordination messages sent by this stack.
    pub fn coord_msgs(&self) -> u64 {
        self.coord_msgs
    }

    /// The layer's [`dpu_core::Module::listens_on`]: of rp2p, only the
    /// coordination channel; of the protocols underneath, everything.
    pub fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        (*service == self.rp2p).then_some(self.channel)
    }

    fn send(&mut self, ctx: &mut ModuleCtx<'_>, to: StackId, msg: &Coord) {
        self.coord_msgs += 1;
        dgram::send(ctx, &self.rp2p, to, self.channel, msg);
    }

    /// To every stack, this one included, in one call; each destination
    /// counts as a message.
    fn broadcast(&mut self, ctx: &mut ModuleCtx<'_>, msg: &Coord) {
        let table = ctx.peer_table();
        self.coord_msgs += table.len() as u64;
        dgram::send_many(ctx, &self.rp2p, table.iter().copied(), self.channel, msg);
    }

    /// Calls on the provided service: `rABcast(m)` and `changeABcast`.
    pub fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        match call.op {
            ab_ops::ABCAST => self.drain.submit(ctx, &self.ind, call.data),
            CHANGE_OP => {
                if self.coordinator.is_some() {
                    return; // one switch at a time
                }
                let Some(spec) = self.ind.change_requested(ctx, &call) else { return };
                let start =
                    Coord::Start { epoch: self.drain.epoch + 1, spec, coord: ctx.stack_id() };
                self.broadcast(ctx, &start);
            }
            _ => {}
        }
    }

    /// Responses from below: the skeleton's own bookkeeping is done here,
    /// the returned [`Step`] is what is left for the layer to do.
    pub fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) -> Option<Step> {
        if resp.service != self.rp2p {
            // Whatever else a layer requires is a protocol underneath it:
            // the one in service or (Graceful) the other declared slot.
            if resp.op != ab_ops::ADELIVER {
                return None;
            }
            return match resp.decode::<Envelope>().ok()? {
                Envelope::Data { data } => {
                    self.ind.radeliver(ctx, data);
                    None
                }
                Envelope::Marker { epoch, from } => {
                    self.drain.on_marker(ctx, epoch, from).then_some(Step::Drained)
                }
            };
        }
        match dgram::recv::<Coord>(&resp, &self.rp2p, self.channel)?.1 {
            Coord::Start { epoch, spec, coord } => {
                if self.coordinator.is_some() || epoch <= self.drain.epoch {
                    return None;
                }
                self.coordinator = Some(coord);
                self.collecting = 1;
                self.acks = HeardSet::new(ctx.peers().len());
                requested(ctx);
                self.drain.open(ctx, epoch);
                Some(Step::Start(spec))
            }
            Coord::Ack { round, epoch, from } => {
                // Only the coordinator collects.
                if epoch == self.drain.epoch
                    && self.coordinator == Some(ctx.stack_id())
                    && round == self.collecting
                    && self.acks.mark(ctx.peers(), from)
                {
                    self.collecting += 1;
                    self.acks = HeardSet::new(ctx.peers().len());
                    self.broadcast(ctx, &Coord::Go { round, epoch });
                }
                None
            }
            Coord::Go { round, epoch } => {
                if epoch != self.drain.epoch || round != self.awaiting {
                    return None;
                }
                self.awaiting = 0;
                Some(Step::Go(round))
            }
        }
    }

    /// Block the application and flush the protocol in service; ends in
    /// [`Step::Drained`].
    pub(crate) fn begin_drain(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.drain.begin(ctx, &self.ind);
    }

    /// This stack's part of `round` is done: tell the coordinator, wait
    /// for its [`Step::Go`].
    pub fn ack(&mut self, ctx: &mut ModuleCtx<'_>, round: u32) {
        // Outside a switch there is nobody to ack.
        let Some(coord) = self.coordinator else { return };
        self.awaiting = round;
        let ack = Coord::Ack { round, epoch: self.drain.epoch, from: ctx.stack_id() };
        self.send(ctx, coord, &ack);
    }

    /// The switch is over: unblock the application and release what it
    /// queued through whatever `ind.required` names now.
    pub fn finish(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.coordinator = None;
        self.drain.release(ctx, &self.ind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::wire;
    use dpu_core::wire::testing::assert_wire_contract;

    fn hex<T: Encode>(value: &T) -> String {
        wire::to_bytes(value).iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wire_contracts() {
        assert_wire_contract(&Envelope::Data { data: Bytes::from_static(b"m") });
        assert_wire_contract(&Envelope::Marker { epoch: 3, from: StackId(1) });
        assert_wire_contract(&Coord::Start {
            epoch: 1,
            spec: ModuleSpec::new("abcast.ring"),
            coord: StackId(0),
        });
        for round in [1, 2] {
            assert_wire_contract(&Coord::Ack { round, epoch: 2, from: StackId(1) });
            assert_wire_contract(&Coord::Go { round, epoch: 2 });
        }
        // The two largest tags a peer could send.
        assert_wire_contract(&Coord::Ack { round: 1 << 31, epoch: 2, from: StackId(1) });
        assert_wire_contract(&Coord::Go { round: (1 << 31) - 1, epoch: 2 });
    }

    #[test]
    fn payloads_roundtrip() {
        let marker = Envelope::Marker { epoch: 3, from: StackId(2) };
        match wire::from_bytes::<Envelope>(&wire::to_bytes(&marker)).unwrap() {
            Envelope::Marker { epoch, from } => assert_eq!((epoch, from), (3, StackId(2))),
            _ => panic!("wrong variant"),
        }
        let start =
            Coord::Start { epoch: 1, spec: ModuleSpec::new("abcast.ct"), coord: StackId(0) };
        match wire::from_bytes::<Coord>(&wire::to_bytes(&start)).unwrap() {
            Coord::Start { epoch, spec, coord } => {
                assert_eq!((epoch, spec.kind.as_str(), coord), (1, "abcast.ct", StackId(0)));
            }
            _ => panic!("wrong variant"),
        }
        match wire::from_bytes::<Coord>(&wire::to_bytes(&Coord::Go { round: 2, epoch: 5 })).unwrap()
        {
            Coord::Go { round, epoch } => assert_eq!((round, epoch), (2, 5)),
            _ => panic!("wrong variant"),
        }
    }

    /// The encodings the per-module codecs produced before they were
    /// merged here (recorded at commit 7ad5825 from Maestro's and
    /// Graceful's `Envelope`, Maestro's `Flush`/`Ready`/`Resume` and
    /// Graceful's `Prepare`/`Prepared`/`Deactivate`/`Deactivated`/
    /// `Activate`).
    #[test]
    fn merged_codecs_keep_the_parent_commits_bytes() {
        assert_eq!(hex(&Envelope::Data { data: Bytes::from_static(b"msg") }), "00036d7367");
        assert_eq!(hex(&Envelope::Marker { epoch: 3, from: StackId(2) }), "010302");
        let spec = ModuleSpec::with_params("abcast.seq", &7u64);
        let start = Coord::Start { epoch: 1, spec, coord: StackId(2) };
        assert_eq!(hex(&start), "00010a6162636173742e736571010702");
        assert_eq!(hex(&Coord::Ack { round: 1, epoch: 1, from: StackId(2) }), "010102");
        assert_eq!(hex(&Coord::Go { round: 1, epoch: 1 }), "0201");
        assert_eq!(hex(&Coord::Ack { round: 2, epoch: 1, from: StackId(2) }), "030102");
        assert_eq!(hex(&Coord::Go { round: 2, epoch: 1 }), "0401");
    }
}
