//! The RP2P module (paper Figure 4): **reliable point-to-point**
//! communication between distributed processes.
//!
//! Guarantees on top of UDP, per ordered pair of stacks:
//!
//! * **reliability** — every sent message is eventually delivered if the
//!   destination is correct and the network loses only finitely often
//!   (positive-feedback retransmission with cumulative acks);
//! * **FIFO order** — messages are delivered in send order;
//! * **no duplication** — each message is delivered exactly once, even if
//!   the network duplicates datagrams.
//!
//! Sends to the local stack are looped back directly (no wire traffic).
//!
//! # At the edge
//!
//! `rp2p` works at the stack's edge, as `udp` does ([`Module::at_edge`]):
//! it is stepped only by its timers (the resend scan, the deferred ack)
//! and its `on_start`. A call runs inside the caller's step — the
//! sequence number, the ack riding along, the unacked copy and the `udp`
//! datagram, which leaves with the caller's settle. An arriving frame is
//! taken where `udp` classifies the datagram (`dpu_core::Stack::packet_in`):
//! acked, sequenced, deduplicated and handed up on its channel before
//! anything is stepped, so the first step a frame costs is its listener's.
//! On a host that charges CPU per step (the paper's testbed) that is two
//! steps fewer a frame: one to send it, one to take it.
//!
//! # One call, many frames
//!
//! A protocol that fans a message out to its peers makes one call,
//! [`dgram::SEND_MANY`] ([`dgram::send_many`]): the destination list, the
//! channel and the body once. `rp2p` runs the one-destination [`dgram::SEND`] logic for each
//! listed stack in list order — its own sequence number, the ack it owes
//! that peer riding along, its own unacked entry, loopback for this stack
//! — all inside the caller's step. Every frame it builds shares the one
//! body buffer. Each frame is still its own datagram, acked and resent on
//! its own: the per-pair guarantees above hold frame by frame, exactly as
//! if each destination had been sent to alone. One call is one trace
//! entry and one decode of the body, where n − 1 calls were n − 1.
//!
//! # What goes on the wire, and when
//!
//! A frame goes out **once**, and its receipt is reported on traffic that
//! flows anyway. On a stack that is charged CPU per datagram (the paper's
//! testbed) every packet saved is latency saved.
//!
//! * **Resend by age, doubling.** Every unacked frame remembers when it
//!   last went out and how often it was resent. The periodic scan (one
//!   timer of [`Rp2pConfig::retransmit`]) resends only what has been
//!   unacked for `retransmit << min(resends, 6)`: one period the first
//!   time, then two, four … up to 64. A younger frame is still inside its
//!   round trip, or its ack is waiting for a ride. With nothing lost,
//!   nothing is resent; against a round trip far longer than the period
//!   (a peer 400 ms away, resends every 20 ms), the doubling is what stops
//!   each frame going out twenty times before its first ack can arrive.
//! * **Acks ride data.** Every data frame — first transmission or resend
//!   — carries the cumulative ack for the reverse direction (`ack`, one
//!   varint) and so settles whatever was owed to its destination; the
//!   receiver prunes on it exactly as on a standalone ack.
//! * **A standalone ack is deferred only inside a conversation**: this
//!   stack sent a data frame to that peer within the last `retransmit`
//!   period, so another one is likely soon. The debt is then left to the
//!   next data frame, and one one-shot timer of `retransmit / 4` — armed
//!   only while something is owed — acks every peer still owed, in
//!   `StackId` order. A sender holds a frame for one round trip one way,
//!   and for at most `retransmit / 4` plus one round trip in a
//!   conversation: always well inside the age at which it would resend.
//! * **A one-way receiver, an idle pair and a duplicate are acked at
//!   once.** A receiver that sends nothing back has no data frame for the
//!   ack to ride; deferring there only keeps the sender's frames — and
//!   the pooled buffers they pin — alive a quarter period instead of a
//!   round trip. Measured on the 1024-way fan-out of the benchmark's
//!   `switch-1k-sim` (1 023 unacked frames per broadcast), deferring every
//!   ack cost +10 % live bytes per stack. A duplicate means the sender is
//!   resending, i.e. an ack was lost: the immediate re-ack is what repairs
//!   that.
//!
//! When a retransmission fills a sequence gap, the frames it recovers go
//! up at once, in order. A frame for a protocol incarnation this stack's
//! own switch has not created yet reaches no module: the stack holds it
//! for that module (`dpu_core::Stack`'s hold-back), so nothing here needs
//! to wait for the switch.
//!
//! Provides service [`crate::RP2P_SVC`], requires [`crate::UDP_SVC`]. All
//! wire traffic uses UDP channel [`RP2P_UDP_CHANNEL`]; the user-facing
//! `channel` of each [`Dgram`] travels inside the RP2P frame.

use crate::dgram::{self, Dgram, DgramMany};
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::time::{Dur, Time};
use dpu_core::{Call, Channel, InOrder, Module, Response, ServiceId, StackId, TimerId};
use std::collections::BTreeMap;

/// Module kind name, for factory registration.
pub const KIND: &str = "rp2p";

/// UDP channel reserved for RP2P's own frames.
pub const RP2P_UDP_CHANNEL: Channel = Channel::new(0, 0);

const TAG_RETRANSMIT: u64 = 1;
const TAG_ACK: u64 = 2;

/// A frame's resend age doubles with each resend up to
/// `retransmit << MAX_BACKOFF`. A constant, not a knob: [`Rp2pConfig`]
/// keeps its three fields.
const MAX_BACKOFF: u64 = 6;

/// Tuning knobs for RP2P.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rp2pConfig {
    /// Period of the retransmission scan, and the age at which the scan
    /// first resends an unacked frame; each resend doubles the age for the
    /// next, up to 64 periods (see the module docs). An ack waits at most a
    /// quarter of it for a data frame to ride.
    pub retransmit: Dur,
    /// The datagram service underneath. [`crate::UDP_SVC`] is the only
    /// one: a frame too large for one datagram is split by the host that
    /// has the limit (`crate::sockframe`), not by a module below `rp2p`.
    pub lower: String,
    /// Give up on a frame after this many retransmissions (`0` =
    /// unbounded, the default). Without a cap a permanently-dead peer
    /// grows the unacked map without bound; with one, exhausted frames
    /// are dropped and counted (see [`Rp2pModule::exhausted`]) —
    /// reliability is traded for bounded memory, exactly like a TCP
    /// connection timing out. With a cap of `c` the frame is given up
    /// once the last resend is as old as the next would wait: about
    /// `retransmit · (2^(c+1) − 1)` after it was first sent for `c ≤ 6`
    /// (63 periods for 5), and 64 periods more for each resend beyond six.
    pub max_retransmits: u64,
}

impl Default for Rp2pConfig {
    fn default() -> Self {
        Rp2pConfig {
            retransmit: Dur::millis(20),
            lower: crate::UDP_SVC.to_string(),
            max_retransmits: 0,
        }
    }
}

dpu_core::wire_codec!(Rp2pConfig { retransmit, lower, max_retransmits });

enum Frame {
    /// tag 0: a data frame. `ack` is the cumulative ack for the reverse
    /// direction (same meaning as [`Frame::Ack`]'s `cum`; 0 while nothing
    /// has arrived from the destination).
    Data { seq: u64, ack: u64, channel: Channel, data: Bytes },
    /// tag 1: cumulative ack — all `seq < cum` received in order.
    Ack { cum: u64 },
}

dpu_core::wire_codec!(enum Frame { 0 => Data { seq, ack, channel, data }, 1 => Ack { cum } });

/// A sent-but-unacknowledged data frame, with its retransmit count and
/// the time it last went out.
struct Unacked {
    channel: Channel,
    data: Bytes,
    attempts: u64,
    sent_at: Time,
}

#[derive(Default)]
struct PeerOut {
    next_seq: u64,
    unacked: BTreeMap<u64, Unacked>,
    /// When a data frame — first transmission or resend — last left for
    /// this peer. Younger than one `retransmit` period means this stack is
    /// in a conversation with the peer: another data frame, which can carry
    /// an ack, is likely before the peer's resend scan would act.
    last_data: Time,
}

#[derive(Default)]
struct PeerIn {
    /// The frames from this peer, by sequence number: `due()` is the
    /// cumulative ack. Without storage while the stream arrives in order.
    reseq: InOrder<(Channel, Bytes)>,
    /// Frames have arrived that no frame to this peer has reported yet.
    owed: bool,
}

/// The cumulative ack for `peer`, marked as reported: the caller puts the
/// returned value on the wire, in whichever frame goes that way.
fn settle(inn: &mut BTreeMap<StackId, PeerIn>, peer: StackId) -> u64 {
    inn.get_mut(&peer).map_or(0, |pin| {
        pin.owed = false;
        pin.reseq.due()
    })
}

/// Hand a frame up, on its channel.
fn deliver(rp2p_svc: &ServiceId, ctx: &mut ModuleCtx<'_>, src: StackId, ch: Channel, data: Bytes) {
    let up = ctx.encode(&Dgram { peer: src, channel: ch, data });
    ctx.respond_on(rp2p_svc, ch, dgram::RECV, up);
}

/// The reliable point-to-point module. See module docs.
pub struct Rp2pModule {
    cfg: Rp2pConfig,
    rp2p_svc: ServiceId,
    udp_svc: ServiceId,
    out: BTreeMap<StackId, PeerOut>,
    inn: BTreeMap<StackId, PeerIn>,
    /// Whether a `TAG_ACK` timer is armed (only while some peer is owed).
    ack_armed: bool,
    retransmissions: u64,
    /// Standalone ack frames put on the wire; an ack that rode a data
    /// frame cost no packet and is not counted.
    acks: u64,
    exhausted: u64,
}

impl Rp2pModule {
    /// A module with the given configuration.
    pub fn new(cfg: Rp2pConfig) -> Rp2pModule {
        let udp_svc = ServiceId::new(&cfg.lower);
        Rp2pModule {
            cfg,
            rp2p_svc: ServiceId::new(crate::RP2P_SVC),
            udp_svc,
            out: BTreeMap::new(),
            inn: BTreeMap::new(),
            ack_armed: false,
            retransmissions: 0,
            acks: 0,
            exhausted: 0,
        }
    }

    /// Register this module's factory under [`KIND`]. Empty params mean
    /// defaults; otherwise params decode as [`Rp2pConfig`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, Rp2pModule::new);
    }

    /// Total data-frame retransmissions performed (observability).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Frames dropped after exhausting
    /// [`Rp2pConfig::max_retransmits`] — each one is a message whose
    /// reliable delivery was abandoned because the peer looked
    /// permanently dead.
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Number of frames currently awaiting ack across all peers.
    pub fn unacked(&self) -> usize {
        self.out.values().map(|p| p.unacked.len()).sum()
    }

    /// `src` has everything below `cum`: forget it. A `cum` beyond what
    /// was ever sent (forged) empties the map and touches nothing else.
    fn acked(&mut self, src: StackId, cum: u64) {
        if let Some(pout) = self.out.get_mut(&src) {
            while pout.unacked.first_key_value().is_some_and(|(&seq, _)| seq < cum) {
                pout.unacked.pop_first();
            }
        }
    }

    /// Report receipt to `src` — the one place that decides how. Inside a
    /// conversation (a data frame left for `src` within the last
    /// `retransmit` period) a frame that brought something new is only
    /// marked as owed: the next data frame to `src` carries the ack, and
    /// one `retransmit / 4` timer covers every peer for which none came.
    /// A one-way receiver, an idle pair and a duplicate (the sender is
    /// resending: an ack was lost) are acked at once.
    fn acknowledge(&mut self, ctx: &mut ModuleCtx<'_>, src: StackId, fresh: bool) {
        let now = ctx.now();
        let talking =
            self.out.get(&src).is_some_and(|p| now.since(p.last_data) < self.cfg.retransmit);
        if fresh && talking {
            if let Some(pin) = self.inn.get_mut(&src) {
                pin.owed = true;
            }
            if !self.ack_armed {
                self.ack_armed = true;
                ctx.set_timer(self.cfg.retransmit / 4, TAG_ACK);
            }
        } else {
            let cum = settle(&mut self.inn, src);
            self.acks += 1;
            dgram::send(ctx, &self.udp_svc, src, RP2P_UDP_CHANNEL, &Frame::Ack { cum });
        }
    }

    /// What a [`dgram::SEND`] to `dst` does, and a [`dgram::SEND_MANY`]
    /// for each stack it lists: the next sequence number to `dst`, the ack
    /// owed to it riding along, the frame kept until acked — or, to this
    /// stack itself, a loopback.
    fn send_one(&mut self, ctx: &mut ModuleCtx<'_>, dst: StackId, channel: Channel, data: Bytes) {
        if dst == ctx.stack_id() {
            // Local loopback: trivially reliable and ordered.
            deliver(&self.rp2p_svc, ctx, dst, channel, data);
            return;
        }
        let now = ctx.now();
        let ack = settle(&mut self.inn, dst);
        let pout = self.out.entry(dst).or_default();
        let seq = pout.next_seq;
        pout.next_seq += 1;
        pout.last_data = now;
        pout.unacked
            .insert(seq, Unacked { channel, data: data.clone(), attempts: 0, sent_at: now });
        let frame = Frame::Data { seq, ack, channel, data };
        dgram::send(ctx, &self.udp_svc, dst, RP2P_UDP_CHANNEL, &frame);
    }

    fn handle_frame(&mut self, ctx: &mut ModuleCtx<'_>, src: StackId, frame: Frame) {
        match frame {
            Frame::Data { seq, ack, channel, data } => {
                self.acked(src, ack);
                let pin = self.inn.entry(src).or_default();
                let due = pin.reseq.due();
                for (ch, d) in pin.reseq.offer(seq, (channel, data)) {
                    deliver(&self.rp2p_svc, ctx, src, ch, d);
                }
                if seq > due {
                    // Resequencing pressure: how deep the hole-filling
                    // buffer runs when frames arrive out of order.
                    ctx.telemetry().record_reseq_depth(pin.reseq.held() as u64);
                }
                self.acknowledge(ctx, src, seq >= due);
            }
            Frame::Ack { cum } => self.acked(src, cum),
        }
    }

    /// The periodic scan: resend what has been unacked for
    /// `retransmit << min(resends so far, MAX_BACKOFF)` (a frame younger
    /// than that is still inside its round trip, or its ack is waiting for
    /// a ride, or its peer is slow to answer). Frames that hit the
    /// retransmit cap are dropped from the unacked map here (counted, not
    /// resent), so a dead peer's backlog is bounded by cap × send rate
    /// instead of growing forever.
    fn resend_aged(&mut self, ctx: &mut ModuleCtx<'_>) {
        let cap = self.cfg.max_retransmits;
        let period = self.cfg.retransmit;
        let now = ctx.now();
        for (&peer, pout) in &mut self.out {
            if pout.unacked.is_empty() {
                // An emptied BTreeMap keeps its root leaf; an idle peer
                // holds none.
                pout.unacked = BTreeMap::new();
                continue;
            }
            let mut dropped = 0u64;
            pout.unacked.retain(|&seq, fr| {
                if now.since(fr.sent_at) < period * (1 << fr.attempts.min(MAX_BACKOFF)) {
                    return true;
                }
                if cap > 0 && fr.attempts >= cap {
                    dropped += 1;
                    return false;
                }
                fr.attempts += 1;
                fr.sent_at = now;
                pout.last_data = now;
                self.retransmissions += 1;
                let ack = settle(&mut self.inn, peer);
                let frame = Frame::Data { seq, ack, channel: fr.channel, data: fr.data.clone() };
                dgram::send(ctx, &self.udp_svc, peer, RP2P_UDP_CHANNEL, &frame);
                true
            });
            if dropped > 0 {
                ctx.telemetry().note_retransmit_exhausted(now.as_nanos(), u64::from(peer.0));
            }
            self.exhausted += dropped;
        }
        ctx.set_timer(period, TAG_RETRANSMIT);
    }
}

impl Module for Rp2pModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.rp2p_svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.udp_svc]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        (*service == self.udp_svc).then_some(RP2P_UDP_CHANNEL)
    }

    fn at_edge(&self) -> bool {
        true
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.set_timer(self.cfg.retransmit, TAG_RETRANSMIT);
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        match call.op {
            dgram::SEND => {
                let Ok(d) = call.decode::<Dgram>() else { return };
                self.send_one(ctx, d.peer, d.channel, d.data);
            }
            dgram::SEND_MANY => {
                let Ok(d) = call.decode::<DgramMany>() else { return };
                for peer in d.peers {
                    self.send_one(ctx, peer, d.channel, d.data.clone());
                }
            }
            _ => {}
        }
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if let Some((src, frame)) = dgram::recv(&resp, &self.udp_svc, RP2P_UDP_CHANNEL) {
            self.handle_frame(ctx, src, frame);
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_ACK => {
                // Whatever no data frame carried in the meantime, every
                // owed peer at once, in `StackId` order.
                self.ack_armed = false;
                for (&peer, pin) in &mut self.inn {
                    if std::mem::take(&mut pin.owed) {
                        self.acks += 1;
                        let ack = &Frame::Ack { cum: pin.reseq.due() };
                        dgram::send(ctx, &self.udp_svc, peer, RP2P_UDP_CHANNEL, ack);
                    }
                }
            }
            TAG_RETRANSMIT => self.resend_aged(ctx),
            _ => {}
        }
    }

    fn transport_stats(&self) -> Option<dpu_core::TransportStats> {
        Some(dpu_core::TransportStats {
            retransmissions: self.retransmissions,
            acks: self.acks,
            exhausted: self.exhausted,
            unacked: self.unacked() as u64,
            held: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udp::UdpModule;
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig, StepCategory};
    use dpu_core::time::Time;
    use dpu_core::wire;
    use dpu_core::ModuleId;
    use dpu_sim::{NetConfig, Sim, SimConfig, Topology};

    /// Records `rp2p` RECV responses on `channel` (`None`: on every one).
    struct Rp2pSink {
        channel: Option<Channel>,
        got: Vec<Dgram>,
    }

    impl Module for Rp2pSink {
        fn kind(&self) -> &str {
            "rp2psink"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::RP2P_SVC)]
        }
        fn listens_on(&self, _: &ServiceId) -> Option<Channel> {
            self.channel
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == dgram::RECV {
                self.got.push(resp.decode().unwrap());
            }
        }
    }

    /// Stack layout used here: m1 net bridge, m2 udp, m3 rp2p (none of
    /// them stepped but for their starts and rp2p's timers), m4 sink.
    const RP2P: ModuleId = ModuleId(3);
    const SINK: ModuleId = ModuleId(4);
    /// The channel the tests send on.
    const CH: Channel = Channel::new(5, 0);

    fn mk_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
        s.add_module(Box::new(Rp2pSink { channel: None, got: vec![] }));
        s.bind(&ServiceId::new(crate::UDP_SVC), udp);
        s.bind(&ServiceId::new(crate::RP2P_SVC), rp2p);
        s
    }

    fn send(sim: &mut Sim, from: u32, to: u32, tagbyte: u8) {
        let d = Dgram { peer: StackId(to), channel: CH, data: Bytes::from(vec![tagbyte]) };
        sim.with_stack(StackId(from), |s| {
            s.call_as(SINK, &ServiceId::new(crate::RP2P_SVC), dgram::SEND, wire::to_bytes(&d))
        });
    }

    fn sink_data(sim: &mut Sim, node: u32) -> Vec<u8> {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<Rp2pSink, _>(SINK, |k| {
                k.got.iter().map(|d| d.data[0]).collect::<Vec<u8>>()
            })
            .unwrap()
        })
    }

    #[test]
    fn delivers_in_fifo_order_on_clean_network() {
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        for i in 0..10u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::millis(100));
        assert_eq!(sink_data(&mut sim, 1), (0..10).collect::<Vec<u8>>());
    }

    /// Fans `7u8` out to its list through `dgram::send_many` as it starts.
    struct Fan(Vec<StackId>);

    impl Module for Fan {
        fn kind(&self) -> &str {
            "fan"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::RP2P_SVC)]
        }
        fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
            let rp2p = ServiceId::new(crate::RP2P_SVC);
            dgram::send_many(ctx, &rp2p, self.0.iter().copied(), CH, &7u8);
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// `(destination, datagram)`: a send as a settle hands it to the host.
    type Sent = (StackId, Bytes);

    /// What `s` asked of the host since its last settle, settled at its
    /// clock: the datagrams.
    fn settled(s: &mut Stack) -> Vec<Sent> {
        let mut sent = Vec::new();
        s.settle(s.now(), &mut sent);
        sent.into_iter().map(|(_, _, dst, payload)| (dst, payload)).collect()
    }

    /// Each step's module, category and the datagrams settled after it.
    type Steps = Vec<(ModuleId, StepCategory, Vec<Sent>)>;

    /// Steps `s` at its clock until it has no work.
    fn steps(s: &mut Stack) -> Steps {
        let mut out = Vec::new();
        while let Some(info) = s.step(s.now()) {
            out.push((info.module, info.category, settled(s)));
        }
        out
    }

    /// Stack `i` of `n`, built and started, nothing sent.
    fn started(i: u32, n: u32) -> Stack {
        let mut s = mk_stack(StackConfig::nth(i, n, 1));
        steps(&mut s);
        s
    }

    /// Stack 0 of four, stepped by hand, fans out to `to`: every step
    /// with what its settle sent, and what the sink got back by loopback.
    fn fan_out(to: &[u32]) -> (Steps, Vec<Dgram>) {
        let mut s = started(0, 4);
        s.add_module(Box::new(Fan(to.iter().copied().map(StackId).collect())));
        let stepped = steps(&mut s);
        let looped = s.with_module::<Rp2pSink, _>(SINK, |k| k.got.clone()).unwrap();
        (stepped, looped)
    }

    #[test]
    fn a_call_to_rp2p_leaves_inside_the_callers_step() {
        // Stack 2, this stack, stack 1 and stack 2 again.
        let (stepped, looped) = fan_out(&[2, 0, 1, 2]);
        let fan = ModuleId(5);
        let (start, response) = (StepCategory::Start, StepCategory::Response);
        let dsts: Vec<_> = stepped.iter().map(|(m, c, sent)| (*m, *c, dsts(sent))).collect();
        assert_eq!(
            dsts,
            [
                (fan, start, [2, 1, 2].map(StackId).to_vec()),
                (SINK, response, vec![]),
                (fan, response, vec![]),
            ],
            "one step, the caller's, with a frame a listed peer in list order in its settle; \
             then the loopback's listeners"
        );
        assert!(stepped.iter().all(|(m, ..)| *m != RP2P), "no step of rp2p");
        let data = wire::to_bytes(&7u8);
        assert_eq!(looped, [Dgram { peer: StackId(0), channel: CH, data }]);
        // An empty list is no call at all: the caller's step sends nothing.
        assert_eq!(fan_out(&[]), (vec![(fan, start, vec![])], vec![]));
    }

    fn dsts(sent: &[Sent]) -> Vec<StackId> {
        sent.iter().map(|(dst, _)| *dst).collect()
    }

    /// Two stacks passing datagrams by hand. Stack 0 sends `frames` to
    /// stack 1 through `rp2p` (each a call from outside a step: its
    /// datagram settles at once) and returns the datagrams in order.
    fn pair(frames: &[u8]) -> ([Stack; 2], Vec<Bytes>) {
        let mut stacks = [started(0, 2), started(1, 2)];
        let sent = frames
            .iter()
            .map(|&f| {
                send_from(&mut stacks[0], f);
                let sent = settled(&mut stacks[0]);
                assert_eq!(dsts(&sent), [StackId(1)]);
                sent[0].1.clone()
            })
            .collect();
        (stacks, sent)
    }

    fn send_from(s: &mut Stack, tagbyte: u8) {
        let d =
            Dgram { peer: StackId(1 - s.id().0), channel: CH, data: Bytes::from(vec![tagbyte]) };
        s.call_as(SINK, &ServiceId::new(crate::RP2P_SVC), dgram::SEND, wire::to_bytes(&d));
    }

    /// `datagram` arrives at `s` from the other stack: what the edge sent
    /// back as it arrived (the ack), and then every step it caused, with
    /// what each step's settle sent.
    type Arrival = (Vec<Sent>, Steps);

    fn arrive(s: &mut Stack, datagram: &Bytes) -> Arrival {
        s.packet_in(s.now(), StackId(1 - s.id().0), datagram.clone());
        (settled(s), steps(s))
    }

    /// The sink's data on `s`, in arrival order.
    fn got(s: &mut Stack) -> Vec<u8> {
        s.with_module::<Rp2pSink, _>(SINK, |k| k.got.iter().map(|d| d.data[0]).collect()).unwrap()
    }

    fn sink_steps(n: usize) -> Steps {
        vec![(SINK, StepCategory::Response, vec![]); n]
    }

    #[test]
    fn an_arriving_data_frames_first_step_is_its_listeners() {
        let (mut stacks, sent) = pair(&[1]);
        let (acked, stepped) = arrive(&mut stacks[1], &sent[0]);
        assert_eq!(dsts(&acked), [StackId(0)], "a one-way receiver acks as the frame arrives");
        assert_eq!(stepped, sink_steps(1), "one step, the listener's");
        assert_eq!(got(&mut stacks[1]), [1]);
        // The ack is taken at the edge of stack 0: no step at all.
        assert_eq!(arrive(&mut stacks[0], &acked[0].1), (vec![], vec![]));
        assert_eq!(stacks[0].transport_stats().unacked, 0);
    }

    #[test]
    fn a_duplicate_is_acked_at_the_edge_and_never_stepped() {
        let (mut stacks, sent) = pair(&[1]);
        arrive(&mut stacks[1], &sent[0]);
        let (acked, stepped) = arrive(&mut stacks[1], &sent[0]);
        assert_eq!((dsts(&acked), stepped), (vec![StackId(0)], vec![]), "re-acked, not stepped");
        assert_eq!(got(&mut stacks[1]), [1], "exactly once");
        assert_eq!(stacks[1].transport_stats().acks, 2);
    }

    #[test]
    fn a_reordered_pair_goes_up_in_order_when_the_first_arrives() {
        let (mut stacks, sent) = pair(&[1, 2]);
        let (_, stepped) = arrive(&mut stacks[1], &sent[1]);
        assert_eq!(stepped, [], "held in rp2p until the gap is filled");
        let (_, stepped) = arrive(&mut stacks[1], &sent[0]);
        assert_eq!(stepped, sink_steps(2));
        assert_eq!(got(&mut stacks[1]), [1, 2]);
    }

    #[test]
    fn a_gap_filled_by_a_resend_goes_up_once_in_order() {
        let (mut stacks, sent) = pair(&[1, 2]);
        // The first frame is lost; the second waits for it.
        let (_, stepped) = arrive(&mut stacks[1], &sent[1]);
        assert_eq!(stepped, []);
        // Stack 0's resend scan: a timer step of rp2p, the one kind it has
        // (with `on_start`), resends both — neither was acked.
        let scan = Time::ZERO + Rp2pConfig::default().retransmit;
        stacks[0].wake(scan);
        let stepped = steps(&mut stacks[0]);
        assert_eq!(stepped.len(), 1);
        let (module, category, resent) = &stepped[0];
        assert_eq!(
            (*module, *category, dsts(resent)),
            (RP2P, StepCategory::Timer, vec![StackId(1); 2])
        );
        let (_, stepped) = arrive(&mut stacks[1], &resent[0].1);
        assert_eq!(stepped, sink_steps(2), "the resend fills the gap: both go up");
        let (_, stepped) = arrive(&mut stacks[1], &resent[1].1);
        assert_eq!(stepped, [], "the second again is a duplicate");
        assert_eq!(got(&mut stacks[1]), [1, 2]);
        assert_eq!(stacks[0].transport_stats().retransmissions, 2);
    }

    #[test]
    fn a_frame_for_an_incarnation_not_created_yet_is_held_then_delivered_once() {
        let later = CH.at(1);
        let mut stacks = [started(0, 2), started(1, 2)];
        let d = Dgram { peer: StackId(1), channel: later, data: Bytes::from_static(b"\x09") };
        let rp2p = ServiceId::new(crate::RP2P_SVC);
        stacks[0].call_as(SINK, &rp2p, dgram::SEND, wire::to_bytes(&d));
        let sent = settled(&mut stacks[0]);
        // Stack 1's sink listens on incarnation 0 of the channel.
        stacks[1].destroy_module(SINK);
        steps(&mut stacks[1]);
        stacks[1].add_module(Box::new(Rp2pSink { channel: Some(CH), got: vec![] }));
        steps(&mut stacks[1]);
        let (acked, stepped) = arrive(&mut stacks[1], &sent[0].1);
        assert_eq!((dsts(&acked), stepped), (vec![StackId(0)], vec![]), "acked, held, no step");
        assert_eq!(stacks[1].held_back(), 1);
        // The incarnation it is for is created: it gets the frame right
        // after its `on_start`, and a duplicate afterwards gets nowhere.
        let next = stacks[1].add_module(Box::new(Rp2pSink { channel: Some(later), got: vec![] }));
        let stepped = steps(&mut stacks[1]);
        let stepped: Vec<_> = stepped.into_iter().map(|(m, c, _)| (m, c)).collect();
        assert_eq!(stepped, [(next, StepCategory::Start), (next, StepCategory::Response)]);
        let (_, stepped) = arrive(&mut stacks[1], &sent[0].1);
        assert_eq!(stepped, []);
        let got = stacks[1].with_module::<Rp2pSink, _>(next, |k| k.got.clone()).unwrap();
        assert_eq!(got, [Dgram { peer: StackId(0), ..d }]);
        assert_eq!(stacks[1].held_back(), 0);
    }

    #[test]
    fn recovers_from_heavy_loss() {
        let mut cfg = SimConfig::lan(2, 7);
        cfg.topology = Topology::flat(NetConfig::lossy(0.4));
        let mut sim = Sim::new(cfg, mk_stack);
        for i in 0..30u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        assert_eq!(sink_data(&mut sim, 1), (0..30).collect::<Vec<u8>>());
        // Resends happen only on real loss now, and here it is certain:
        // a dropped data frame arrives by a resend or not at all, and
        // P(40 % loss spares all 30 data frames) = 0.6^30 < 10^-6.
        let retrans = sim.with_stack(StackId(0), |s| {
            s.with_module::<Rp2pModule, _>(RP2P, |m| m.retransmissions()).unwrap()
        });
        assert!(retrans > 0, "30 data frames at 40 % loss, all delivered, none resent");
    }

    #[test]
    fn suppresses_network_duplicates() {
        let mut cfg = SimConfig::lan(2, 7);
        cfg.topology = Topology::flat(NetConfig { duplicate: 1.0, ..NetConfig::lan() });
        let mut sim = Sim::new(cfg, mk_stack);
        for i in 0..10u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(1));
        assert_eq!(sink_data(&mut sim, 1), (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn local_loopback_delivers_without_wire_traffic() {
        let mut sim = Sim::new(SimConfig::lan(1, 3), mk_stack);
        send(&mut sim, 0, 0, 9);
        sim.run_until(Time::ZERO + Dur::millis(10));
        assert_eq!(sink_data(&mut sim, 0), vec![9]);
        assert_eq!(sim.stats().packets_sent, 0);
    }

    #[test]
    fn bidirectional_streams_are_independent() {
        let mut sim = Sim::new(SimConfig::lan(2, 11), mk_stack);
        for i in 0..5u8 {
            send(&mut sim, 0, 1, i);
            send(&mut sim, 1, 0, 100 + i);
        }
        sim.run_until(Time::ZERO + Dur::millis(200));
        assert_eq!(sink_data(&mut sim, 1), (0..5).collect::<Vec<u8>>());
        assert_eq!(sink_data(&mut sim, 0), (100..105).collect::<Vec<u8>>());
    }

    #[test]
    fn unacked_drains_once_acks_flow() {
        let mut sim = Sim::new(SimConfig::lan(2, 5), mk_stack);
        for i in 0..4u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(1));
        let unacked = sim.with_stack(StackId(0), |s| {
            s.with_module::<Rp2pModule, _>(RP2P, |m| m.unacked()).unwrap()
        });
        assert_eq!(unacked, 0);
    }

    fn mk_capped(cap: u64) -> impl FnMut(StackConfig) -> Stack {
        move |sc| {
            let mut s = Stack::new(sc, FactoryRegistry::new());
            let udp = s.add_module(Box::new(UdpModule::new()));
            let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig {
                max_retransmits: cap,
                ..Rp2pConfig::default()
            })));
            s.add_module(Box::new(Rp2pSink { channel: None, got: vec![] }));
            s.bind(&ServiceId::new(crate::UDP_SVC), udp);
            s.bind(&ServiceId::new(crate::RP2P_SVC), rp2p);
            s
        }
    }

    #[test]
    fn retransmit_cap_bounds_dead_peer_backlog() {
        let mut cfg = SimConfig::lan(2, 13);
        // The wire is dead: nothing (incl. acks) arrives.
        cfg.topology = Topology::flat(NetConfig::lossy(1.0));
        let mut sim = Sim::new(cfg, mk_capped(5));
        for i in 0..8u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(2));
        let (unacked, exhausted, retrans, ts) = sim.with_stack(StackId(0), |s| {
            let (u, e, r) = s
                .with_module::<Rp2pModule, _>(RP2P, |m| {
                    (m.unacked(), m.exhausted(), m.retransmissions())
                })
                .unwrap();
            (u, e, r, s.transport_stats())
        });
        assert_eq!(unacked, 0, "capped frames must leave the unacked map");
        assert_eq!(exhausted, 8, "every frame to the dead peer is given up");
        assert_eq!(retrans, 8 * 5, "each frame retried exactly cap times");
        // The Module::transport_stats hook reports the same numbers.
        assert_eq!(
            ts,
            dpu_core::TransportStats { retransmissions: 40, exhausted: 8, ..Default::default() }
        );
    }

    #[test]
    fn default_config_retries_forever() {
        let mut cfg = SimConfig::lan(2, 13);
        cfg.topology = Topology::flat(NetConfig::lossy(1.0));
        let mut sim = Sim::new(cfg, mk_capped(0));
        for i in 0..4u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(2));
        let (unacked, exhausted) = sim.with_stack(StackId(0), |s| {
            s.with_module::<Rp2pModule, _>(RP2P, |m| (m.unacked(), m.exhausted())).unwrap()
        });
        assert_eq!(unacked, 4, "uncapped frames are never abandoned");
        assert_eq!(exhausted, 0);
    }

    #[test]
    fn a_silent_peer_is_resent_to_at_doubling_ages_up_to_the_cap() {
        let mut cfg = SimConfig::lan(2, 13);
        cfg.topology = Topology::flat(NetConfig::lossy(1.0));
        let mut sim = Sim::new(cfg, mk_capped(9));
        // Sent between two scans (one every 20 ms): each resend is a scan.
        sim.run_until(Time::ZERO + Dur::millis(5));
        send(&mut sim, 0, 1, 0);
        let sent_at = sim.now();
        let mut resent_at = Vec::new();
        while sim.now() < sent_at + Dur::secs(10) {
            let before = transport(&mut sim, 0).retransmissions;
            sim.run_until(sim.now() + Dur::millis(1));
            if transport(&mut sim, 0).retransmissions > before {
                resent_at.push(sim.now());
            }
        }
        let periods =
            |d: Dur| d.as_nanos() as f64 / Rp2pConfig::default().retransmit.as_nanos() as f64;
        let first = periods(resent_at[0].since(sent_at));
        assert!((1.0..2.0).contains(&first), "first resend {first:.2} periods after the send");
        let gaps: Vec<u64> =
            resent_at.windows(2).map(|w| periods(w[1].since(w[0])).round() as u64).collect();
        assert_eq!(gaps, [2, 4, 8, 16, 32, 64, 64, 64], "periods between resends");
        let ts = transport(&mut sim, 0);
        assert_eq!((ts.retransmissions, ts.exhausted, ts.unacked), (9, 1, 0), "{ts:?}");
    }

    fn transport(sim: &mut Sim, node: u32) -> dpu_core::TransportStats {
        sim.with_stack(StackId(node), |s| s.transport_stats())
    }

    fn ack_timer_armed(sim: &mut Sim, node: u32) -> bool {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<Rp2pModule, _>(RP2P, |m| m.ack_armed).unwrap()
        })
    }

    #[test]
    fn a_frame_younger_than_the_period_is_not_resent() {
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        // The scan ticks at 20 ms: these frames are 0.1 ms old by then and
        // their acks are still on the way back.
        sim.run_until(Time::ZERO + Dur::micros(19_900));
        for i in 0..10u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::millis(100));
        assert_eq!(sink_data(&mut sim, 1), (0..10).collect::<Vec<u8>>());
        let ts = transport(&mut sim, 0);
        assert_eq!(ts.retransmissions, 0, "nothing was lost: {ts:?}");
        assert_eq!(ts.unacked, 0);
    }

    #[test]
    fn a_conversation_acks_on_its_own_data_frames() {
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        for i in 0..100u8 {
            sim.run_until(Time::ZERO + Dur::millis(u64::from(i)));
            send(&mut sim, 0, 1, i);
            send(&mut sim, 1, 0, i);
        }
        sim.run_until(Time::ZERO + Dur::millis(300));
        for node in 0..2 {
            assert_eq!(sink_data(&mut sim, node), (0..100).collect::<Vec<u8>>());
            let ts = transport(&mut sim, node);
            // At most one timer ack per `retransmit / 4` = 5 ms of a 100 ms
            // exchange; every other frame's ack rode the reverse data.
            assert!(ts.acks <= 20, "stack {node}: {ts:?}");
            assert_eq!((ts.retransmissions, ts.unacked), (0, 0), "stack {node}: {ts:?}");
        }
        // 200 data frames plus those timer acks (an ack per frame: 400).
        assert!(sim.stats().packets_sent <= 240, "{:?}", sim.stats());
    }

    #[test]
    fn a_one_way_receiver_acks_at_once() {
        // The gate on the deferral: a stack that sends nothing back has no
        // data frame for an ack to ride, so holding the ack would only
        // keep the sender's frame (and its pooled buffer) alive longer.
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        for i in 0..100u8 {
            send(&mut sim, 0, 1, i);
            let sent_at = sim.now();
            sim.run_until(sent_at + Dur::millis(1)); // > one round trip
            assert_eq!(transport(&mut sim, 0).unacked, 0, "frame {i} still held");
            assert!(!ack_timer_armed(&mut sim, 1), "frame {i}: ack was deferred");
        }
        assert_eq!(sink_data(&mut sim, 1), (0..100).collect::<Vec<u8>>());
        assert_eq!(transport(&mut sim, 1).acks, 100);
        assert_eq!(transport(&mut sim, 0).acks, 0);
    }

    #[test]
    fn when_the_reverse_traffic_stops_the_ack_leaves_on_the_timer() {
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        for i in 0..5u8 {
            sim.run_until(Time::ZERO + Dur::millis(u64::from(i)));
            send(&mut sim, 0, 1, i);
            send(&mut sim, 1, 0, i);
        }
        // Quiet long enough for the timer to settle the last exchange.
        sim.run_until(Time::ZERO + Dur::millis(15));
        assert_eq!(transport(&mut sim, 0).unacked, 0);
        let acks_before = transport(&mut sim, 1).acks;
        // Stack 1 sent data 11 ms ago — still a conversation — and now
        // says nothing more.
        send(&mut sim, 0, 1, 5);
        let sent_at = sim.now();
        sim.run_until(sent_at + Dur::millis(1));
        assert_eq!(transport(&mut sim, 0).unacked, 1, "the ack waits for a ride");
        assert!(ack_timer_armed(&mut sim, 1));
        // retransmit / 4 = 5 ms, plus the way back.
        sim.run_until(sent_at + Dur::millis(6));
        assert_eq!(transport(&mut sim, 0).unacked, 0, "the timer sent it");
        assert_eq!(transport(&mut sim, 1).acks, acks_before + 1);
        assert!(!ack_timer_armed(&mut sim, 1));
        sim.run_until(sent_at + Dur::millis(100));
        assert_eq!(transport(&mut sim, 0).retransmissions, 0);
        assert_eq!(sink_data(&mut sim, 1), (0..6).collect::<Vec<u8>>());
    }

    #[test]
    fn a_lost_ack_costs_one_resend_and_an_immediate_re_ack() {
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        for i in 0..3u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::millis(5));
        assert_eq!(transport(&mut sim, 0).unacked, 0);
        // Frame 3 gets through; the wire dies behind it, under its ack.
        // Loss is drawn as a datagram leaves: the frame leaves inside the
        // call, so it is in flight and arrives; the ack leaves a link
        // latency later, as the frame reaches stack 1's edge.
        let sent = sim.stats().packets_sent;
        send(&mut sim, 0, 1, 3);
        let sent_at = sim.now();
        assert_eq!(sim.stats().packets_sent, sent + 1, "the frame leaves inside the call");
        sim.set_loss(1.0);
        sim.run_until(sent_at + Dur::millis(2));
        sim.set_loss(0.0);
        assert_eq!(sink_data(&mut sim, 1), (0..4).collect::<Vec<u8>>());
        assert_eq!(sim.stats().packets_dropped(), 1, "exactly the ack");
        assert_eq!(transport(&mut sim, 0).unacked, 1);
        let acks_before = transport(&mut sim, 1).acks;
        // The scan resends it once it is a full period old; the duplicate
        // is acked on arrival.
        sim.run_until(sent_at + Dur::millis(60));
        let ts = transport(&mut sim, 0);
        assert_eq!((ts.retransmissions, ts.unacked), (1, 0), "{ts:?}");
        assert_eq!(transport(&mut sim, 1).acks, acks_before + 1);
        send(&mut sim, 0, 1, 4);
        sim.run_until(sent_at + Dur::millis(70));
        assert_eq!(sink_data(&mut sim, 1), (0..5).collect::<Vec<u8>>(), "exactly once, in order");
    }

    #[test]
    fn a_forged_ack_beyond_next_seq_changes_nothing_but_the_backlog() {
        let mut sim = Sim::new(SimConfig::lan(2, 42), mk_stack);
        for i in 0..3u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::millis(5));
        // Stack 1 injects raw frames on rp2p's UDP channel: an ack for
        // everything ever, alone and on a data frame.
        for forged in [
            Frame::Ack { cum: u64::MAX },
            Frame::Data { seq: 0, ack: u64::MAX, channel: CH, data: Bytes::from_static(b"x") },
        ] {
            let d = Dgram {
                peer: StackId(0),
                channel: RP2P_UDP_CHANNEL,
                data: wire::to_bytes(&forged),
            };
            sim.with_stack(StackId(1), |s| {
                s.call_as(SINK, &ServiceId::new(crate::UDP_SVC), dgram::SEND, wire::to_bytes(&d))
            });
        }
        send(&mut sim, 0, 1, 3);
        sim.run_until(Time::ZERO + Dur::millis(10));
        let next_seq = sim.with_stack(StackId(0), |s| {
            s.with_module::<Rp2pModule, _>(RP2P, |m| m.out[&StackId(1)].next_seq).unwrap()
        });
        assert_eq!(next_seq, 4);
        assert_eq!(sink_data(&mut sim, 0), vec![b'x'], "seq 0 is the first frame 1 ever sent");
        assert_eq!(sink_data(&mut sim, 1), (0..4).collect::<Vec<u8>>());
    }

    #[test]
    fn config_roundtrip_and_factory() {
        let cfg = Rp2pConfig {
            retransmit: Dur::millis(55),
            lower: "udp".to_string(),
            max_retransmits: 7,
        };
        let b = wire::to_bytes(&cfg);
        assert_eq!(wire::from_bytes::<Rp2pConfig>(&b).unwrap(), cfg);
        let mut reg = FactoryRegistry::new();
        Rp2pModule::register(&mut reg);
        let m = reg.build(&dpu_core::ModuleSpec::with_params(KIND, &cfg)).unwrap();
        assert_eq!(m.kind(), KIND);
    }

    #[test]
    fn frame_and_config_wire_contract() {
        use dpu_core::wire::testing::assert_wire_contract;
        let data = Bytes::from_static(b"xy");
        assert_wire_contract(&Frame::Data { seq: 9, ack: 0, channel: CH, data: data.clone() });
        assert_wire_contract(&Frame::Data { seq: 9, ack: 300, channel: CH.at(40), data });
        let (seq, ack) = (u64::MAX, u64::MAX);
        let channel = CH.at(u64::MAX);
        assert_wire_contract(&Frame::Data { seq, ack, channel, data: Bytes::new() });
        assert_wire_contract(&Frame::Ack { cum: 123_456 });
        assert_wire_contract(&Rp2pConfig {
            retransmit: Dur::millis(55),
            lower: "udp".into(),
            max_retransmits: 3,
        });
        use dpu_core::wire::testing::assert_wire_bytes;
        let (channel, data) = (Channel::new(1, 0), Bytes::from("xy"));
        assert_wire_bytes(
            &Frame::Data { seq: 9, ack: 1, channel, data },
            &[0, 9, 1, 1, 2, b'x', b'y'],
        );
        assert_wire_bytes(&Frame::Ack { cum: 5 }, &[1, 5]);
        let config =
            Rp2pConfig { retransmit: Dur::nanos(300), lower: "udp".into(), max_retransmits: 3 };
        assert_wire_bytes(&config, &[0xac, 0x02, 3, b'u', b'd', b'p', 3]);
    }

    #[test]
    fn frame_decode_rejects_bad_tag() {
        let b = wire::to_bytes(&7u32);
        assert!(wire::from_bytes::<Frame>(&b).is_err());
    }
}
