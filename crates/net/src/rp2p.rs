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
//! When a retransmission fills a sequence gap, the resequencing buffer
//! releases the recovered frames **one per dispatch cascade** (the rest
//! ride a zero-delay timer) rather than all at once. The stack's
//! delivery queue is breadth-first, so a batch release would let frame
//! k+1 reach modules before frame k's reactions — including
//! `create_module` during a dynamic protocol update — have run; a
//! switching group would then discard new-protocol traffic that arrived
//! ahead of its own switch and stall. See [`Rp2pModule`]'s `pending_up`.
//!
//! Provides service [`crate::RP2P_SVC`], requires [`crate::UDP_SVC`]. All
//! wire traffic uses UDP channel [`RP2P_UDP_CHANNEL`]; the user-facing
//! `channel` of each [`Dgram`] travels inside the RP2P frame.

use crate::dgram::{self, Dgram, DgramRef};
use bytes::{Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Dur;
use dpu_core::wire::{Decode, Encode, WireError, WireResult};
use dpu_core::{Call, Module, Response, ServiceId, StackId, TimerId};
use std::collections::BTreeMap;

/// Module kind name, for factory registration.
pub const KIND: &str = "rp2p";

/// UDP channel reserved for RP2P's own frames.
pub const RP2P_UDP_CHANNEL: u16 = 0;

const TAG_RETRANSMIT: u64 = 1;
const TAG_RELEASE: u64 = 2;

/// Tuning knobs for RP2P.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rp2pConfig {
    /// Period of the retransmission scan.
    pub retransmit: Dur,
    /// The datagram service underneath (default [`crate::UDP_SVC`]; point
    /// it at [`crate::FRAG_SVC`] when frames can exceed the MTU).
    pub lower: String,
    /// Give up on a frame after this many retransmissions (`0` =
    /// unbounded, the default). Without a cap a permanently-dead peer
    /// grows the unacked map without bound; with one, exhausted frames
    /// are dropped and counted (see [`Rp2pModule::exhausted`]) —
    /// reliability is traded for bounded memory, exactly like a TCP
    /// connection timing out.
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

impl Encode for Rp2pConfig {
    fn encode(&self, buf: &mut BytesMut) {
        self.retransmit.as_nanos().encode(buf);
        self.lower.encode(buf);
        self.max_retransmits.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.retransmit.as_nanos().encoded_len()
            + self.lower.encoded_len()
            + self.max_retransmits.encoded_len()
    }
}

impl Decode for Rp2pConfig {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(Rp2pConfig {
            retransmit: Dur::nanos(u64::decode(buf)?),
            lower: String::decode(buf)?,
            max_retransmits: u64::decode(buf)?,
        })
    }
}

enum Frame {
    /// tag 0: a data frame.
    Data { seq: u64, channel: u16, data: Bytes },
    /// tag 1: cumulative ack — all `seq < cum` received in order.
    Ack { cum: u64 },
}

impl Encode for Frame {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Frame::Data { seq, channel, data } => {
                0u32.encode(buf);
                seq.encode(buf);
                channel.encode(buf);
                data.encode(buf);
            }
            Frame::Ack { cum } => {
                1u32.encode(buf);
                cum.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            Frame::Data { seq, channel, data } => {
                0u32.encoded_len() + seq.encoded_len() + channel.encoded_len() + data.encoded_len()
            }
            Frame::Ack { cum } => 1u32.encoded_len() + cum.encoded_len(),
        }
    }
}

impl Decode for Frame {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        match u32::decode(buf)? {
            0 => Ok(Frame::Data {
                seq: u64::decode(buf)?,
                channel: u16::decode(buf)?,
                data: Bytes::decode(buf)?,
            }),
            1 => Ok(Frame::Ack { cum: u64::decode(buf)? }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A sent-but-unacknowledged data frame, with its retransmit count.
struct Unacked {
    channel: u16,
    data: Bytes,
    attempts: u64,
}

#[derive(Default)]
struct PeerOut {
    next_seq: u64,
    unacked: BTreeMap<u64, Unacked>,
}

#[derive(Default)]
struct PeerIn {
    next_expected: u64,
    buffer: BTreeMap<u64, (u16, Bytes)>,
}

/// The reliable point-to-point module. See module docs.
pub struct Rp2pModule {
    cfg: Rp2pConfig,
    rp2p_svc: ServiceId,
    udp_svc: ServiceId,
    out: BTreeMap<StackId, PeerOut>,
    inn: BTreeMap<StackId, PeerIn>,
    /// Resequenced frames awaiting upward delivery. At most one frame is
    /// released per dispatch cascade (the rest ride a zero-delay timer):
    /// the stack's delivery queue is breadth-first, so handing a whole
    /// recovered batch up at once would let frame k+1 reach modules
    /// *before* the chain of module-creation reactions triggered by
    /// frame k has run — a dynamic-update group would discard
    /// new-protocol traffic arriving ahead of its own switch and stall
    /// forever. One-per-cascade restores the order Algorithm 1 assumes.
    pending_up: std::collections::VecDeque<(StackId, u16, Bytes)>,
    /// Whether a `TAG_RELEASE` timer is armed.
    releasing: bool,
    retransmissions: u64,
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
            pending_up: std::collections::VecDeque::new(),
            releasing: false,
            retransmissions: 0,
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

    fn udp_send(&self, ctx: &mut ModuleCtx<'_>, dst: StackId, frame: &Frame) {
        // Frame encoded in place inside the Dgram, one scratch pass.
        let d = DgramRef { peer: dst, channel: RP2P_UDP_CHANNEL, body: frame };
        let payload = ctx.encode(&d);
        ctx.call(&self.udp_svc, dgram::SEND, payload);
    }

    fn deliver(&self, ctx: &mut ModuleCtx<'_>, src: StackId, channel: u16, data: Bytes) {
        let d = Dgram { peer: src, channel, data };
        let up = ctx.encode(&d);
        ctx.respond(&self.rp2p_svc, dgram::RECV, up);
    }

    /// Release one frame from [`Rp2pModule::pending_up`]; defer the rest
    /// to a zero-delay timer so each frame's full dispatch cascade runs
    /// before the next frame is seen by any module. In the common case
    /// (one in-order frame, nothing buffered) this is an immediate
    /// delivery with no timer — byte-identical to handing the frame up
    /// directly.
    fn release(&mut self, ctx: &mut ModuleCtx<'_>) {
        if self.releasing {
            return; // a release timer is already armed
        }
        if let Some((src, ch, d)) = self.pending_up.pop_front() {
            self.deliver(ctx, src, ch, d);
        }
        if !self.pending_up.is_empty() {
            self.releasing = true;
            ctx.set_timer(Dur::ZERO, TAG_RELEASE);
        }
    }

    fn handle_frame(&mut self, ctx: &mut ModuleCtx<'_>, src: StackId, frame: Frame) {
        match frame {
            Frame::Data { seq, channel, data } => {
                let pin = self.inn.entry(src).or_default();
                if seq >= pin.next_expected {
                    let out_of_order = seq > pin.next_expected;
                    pin.buffer.insert(seq, (channel, data));
                    if out_of_order {
                        // Resequencing pressure: how deep the hole-filling
                        // buffer runs when frames arrive out of order.
                        let depth = pin.buffer.len() as u64;
                        ctx.telemetry().record_reseq_depth(depth);
                    }
                    // Drain in-order prefix.
                    let mut ready = Vec::new();
                    while let Some(entry) = {
                        let pin = self.inn.get_mut(&src).expect("entry exists");
                        if pin.buffer.contains_key(&pin.next_expected) {
                            let e = pin.buffer.remove(&pin.next_expected).unwrap();
                            pin.next_expected += 1;
                            Some(e)
                        } else {
                            None
                        }
                    } {
                        ready.push(entry);
                    }
                    for (ch, d) in ready {
                        self.pending_up.push_back((src, ch, d));
                    }
                    self.release(ctx);
                }
                // Always (re-)ack: covers duplicates and lost acks.
                let cum = self.inn.get(&src).map_or(0, |p| p.next_expected);
                self.udp_send(ctx, src, &Frame::Ack { cum });
            }
            Frame::Ack { cum } => {
                if let Some(pout) = self.out.get_mut(&src) {
                    pout.unacked.retain(|&seq, _| seq >= cum);
                }
            }
        }
    }
}

impl Module for Rp2pModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.rp2p_svc.clone()]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.udp_svc.clone()]
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        ctx.set_timer(self.cfg.retransmit, TAG_RETRANSMIT);
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != dgram::SEND {
            return;
        }
        let Ok(d) = call.decode::<Dgram>() else { return };
        if d.peer == ctx.stack_id() {
            // Local loopback: trivially reliable and ordered.
            self.deliver(ctx, d.peer, d.channel, d.data);
            return;
        }
        let pout = self.out.entry(d.peer).or_default();
        let seq = pout.next_seq;
        pout.next_seq += 1;
        pout.unacked.insert(seq, Unacked { channel: d.channel, data: d.data.clone(), attempts: 0 });
        self.udp_send(ctx, d.peer, &Frame::Data { seq, channel: d.channel, data: d.data });
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != dgram::RECV || resp.service != self.udp_svc {
            return;
        }
        let Ok(d) = resp.decode::<Dgram>() else { return };
        if d.channel != RP2P_UDP_CHANNEL {
            return;
        }
        let Ok(frame) = dpu_core::wire::from_bytes::<Frame>(&d.data) else { return };
        self.handle_frame(ctx, d.peer, frame);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _timer: TimerId, tag: u64) {
        if tag == TAG_RELEASE {
            self.releasing = false;
            self.release(ctx);
            return;
        }
        if tag != TAG_RETRANSMIT {
            return;
        }
        // Collect first to avoid borrowing self across udp_send. Frames
        // that hit the retransmit cap are dropped from the unacked map
        // here (counted, not resent), so a dead peer's backlog is
        // bounded by cap × send rate instead of growing forever.
        let cap = self.cfg.max_retransmits;
        let mut pending: Vec<(StackId, u64, u16, Bytes)> = Vec::new();
        for (&peer, pout) in &mut self.out {
            let mut dropped = 0u64;
            pout.unacked.retain(|&seq, fr| {
                if cap > 0 && fr.attempts >= cap {
                    dropped += 1;
                    return false;
                }
                fr.attempts += 1;
                pending.push((peer, seq, fr.channel, fr.data.clone()));
                true
            });
            if dropped > 0 {
                let now_ns = ctx.now().as_nanos();
                ctx.telemetry().note_retransmit_exhausted(now_ns, u64::from(peer.0));
            }
            self.exhausted += dropped;
        }
        for (peer, seq, channel, data) in pending {
            self.retransmissions += 1;
            self.udp_send(ctx, peer, &Frame::Data { seq, channel, data });
        }
        ctx.set_timer(self.cfg.retransmit, TAG_RETRANSMIT);
    }

    fn transport_stats(&self) -> Option<dpu_core::TransportStats> {
        Some(dpu_core::TransportStats {
            retransmissions: self.retransmissions,
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
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::time::Time;
    use dpu_core::wire;
    use dpu_core::ModuleId;
    use dpu_sim::{Sim, SimConfig};

    /// Records `rp2p` RECV responses.
    struct Rp2pSink {
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
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == dgram::RECV {
                self.got.push(resp.decode().unwrap());
            }
        }
    }

    /// Stack layout used here: m1 net bridge, m2 udp, m3 rp2p, m4 sink.
    const RP2P: ModuleId = ModuleId(3);
    const SINK: ModuleId = ModuleId(4);

    fn mk_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
        s.add_module(Box::new(Rp2pSink { got: vec![] }));
        s.bind(&ServiceId::new(crate::UDP_SVC), udp);
        s.bind(&ServiceId::new(crate::RP2P_SVC), rp2p);
        s
    }

    fn send(sim: &mut Sim, from: u32, to: u32, tagbyte: u8) {
        let d = Dgram { peer: StackId(to), channel: 5, data: Bytes::from(vec![tagbyte]) };
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

    #[test]
    fn recovers_from_heavy_loss() {
        let mut cfg = SimConfig::lan(2, 7);
        cfg.net.loss = 0.4;
        let mut sim = Sim::new(cfg, mk_stack);
        for i in 0..30u8 {
            send(&mut sim, 0, 1, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        assert_eq!(sink_data(&mut sim, 1), (0..30).collect::<Vec<u8>>());
        // Loss must have caused actual retransmissions.
        let retrans = sim.with_stack(StackId(0), |s| {
            s.with_module::<Rp2pModule, _>(RP2P, |m| m.retransmissions()).unwrap()
        });
        assert!(retrans > 0);
    }

    #[test]
    fn suppresses_network_duplicates() {
        let mut cfg = SimConfig::lan(2, 7);
        cfg.net.duplicate = 1.0;
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
            s.add_module(Box::new(Rp2pSink { got: vec![] }));
            s.bind(&ServiceId::new(crate::UDP_SVC), udp);
            s.bind(&ServiceId::new(crate::RP2P_SVC), rp2p);
            s
        }
    }

    #[test]
    fn retransmit_cap_bounds_dead_peer_backlog() {
        let mut cfg = SimConfig::lan(2, 13);
        cfg.net.loss = 1.0; // the wire is dead: nothing (incl. acks) arrives
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
            dpu_core::TransportStats { retransmissions: 40, exhausted: 8, unacked: 0, held: 0 }
        );
    }

    #[test]
    fn default_config_retries_forever() {
        let mut cfg = SimConfig::lan(2, 13);
        cfg.net.loss = 1.0;
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
        assert_wire_contract(&Frame::Data { seq: 9, channel: 3, data: Bytes::from_static(b"xy") });
        assert_wire_contract(&Frame::Data { seq: u64::MAX, channel: 0, data: Bytes::new() });
        assert_wire_contract(&Frame::Ack { cum: 123_456 });
        assert_wire_contract(&Rp2pConfig {
            retransmit: Dur::millis(55),
            lower: "udp".into(),
            max_retransmits: 3,
        });
    }

    #[test]
    fn frame_decode_rejects_bad_tag() {
        let b = wire::to_bytes(&7u32);
        assert!(wire::from_bytes::<Frame>(&b).is_err());
    }
}
