//! MTU fragmentation/reassembly: a datagram-interface module that splits
//! oversized payloads into MTU-sized fragments and reassembles them at
//! the receiver.
//!
//! Sits between RP2P and UDP when protocol messages can exceed the
//! network MTU — consensus-based atomic broadcast batches, for instance,
//! grow with load. Provides the same [`Dgram`] interface as UDP
//! (service `crate::FRAG_SVC`), so RP2P can be pointed at it via
//! [`crate::rp2p::Rp2pConfig::lower`].
//!
//! Fragmentation is *unreliable*, like the UDP underneath: a lost
//! fragment loses the whole message (the reassembly slot is evicted
//! LRU-style). Reliability stays where it belongs — in RP2P above.

use crate::dgram::{self, Dgram};
use bytes::{Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::wire::{Decode, Encode, WireResult};
use dpu_core::{Call, Channel, Module, Response, ServiceId, StackId};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Module kind name, for factory registration.
pub const KIND: &str = "frag";

/// Maximum payload bytes per fragment (Ethernet's 1 500 minus headroom
/// for our framing).
const MTU: usize = 1400;
/// Concurrent reassembly slots per source; the oldest incomplete message
/// is evicted first.
const REASSEMBLY_SLOTS: usize = 64;

/// One fragment on the wire.
struct Fragment {
    msg_id: u64,
    index: u32,
    count: u32,
    channel: Channel,
    data: Bytes,
}

impl Encode for Fragment {
    fn encode(&self, buf: &mut BytesMut) {
        self.msg_id.encode(buf);
        self.index.encode(buf);
        self.count.encode(buf);
        self.channel.encode(buf);
        self.data.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.msg_id.encoded_len()
            + self.index.encoded_len()
            + self.count.encoded_len()
            + self.channel.encoded_len()
            + self.data.encoded_len()
    }
}

impl Decode for Fragment {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(Fragment {
            msg_id: u64::decode(buf)?,
            index: u32::decode(buf)?,
            count: u32::decode(buf)?,
            channel: Channel::decode(buf)?,
            data: Bytes::decode(buf)?,
        })
    }
}

struct Slot {
    count: u32,
    channel: Channel,
    parts: BTreeMap<u32, Bytes>,
}

/// The fragmentation module. See module docs.
pub struct FragModule {
    frag_svc: ServiceId,
    udp_svc: ServiceId,
    next_msg_id: u64,
    /// Reassembly state per source, with FIFO eviction order.
    slots: BTreeMap<StackId, BTreeMap<u64, Slot>>,
    order: BTreeMap<StackId, VecDeque<u64>>,
    fragments_sent: u64,
    messages_reassembled: u64,
    evicted: u64,
}

impl FragModule {
    /// A module with the MTU and reassembly slots of its constants.
    pub(crate) fn new() -> FragModule {
        FragModule {
            frag_svc: ServiceId::new(crate::FRAG_SVC),
            udp_svc: ServiceId::new(crate::UDP_SVC),
            next_msg_id: 0,
            slots: BTreeMap::new(),
            order: BTreeMap::new(),
            fragments_sent: 0,
            messages_reassembled: 0,
            evicted: 0,
        }
    }

    /// Register this module's factory under [`KIND`]. The kind takes no
    /// parameters.
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, |()| FragModule::new());
    }

    /// Incomplete messages evicted (fragment loss or slot pressure).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    fn send_fragment(&mut self, ctx: &mut ModuleCtx<'_>, dst: StackId, frag: &Fragment) {
        self.fragments_sent += 1;
        dgram::send(ctx, &self.udp_svc, dst, crate::FRAG_UDP_CHANNEL, frag);
    }

    fn on_fragment(&mut self, ctx: &mut ModuleCtx<'_>, src: StackId, frag: Fragment) {
        if frag.count == 1 {
            // Fast path: unfragmented message; the payload Bytes is a
            // zero-copy window into the received datagram.
            self.messages_reassembled += 1;
            let d = Dgram { peer: src, channel: frag.channel, data: frag.data };
            let up = ctx.encode(&d);
            ctx.respond_on(&self.frag_svc, frag.channel, dgram::RECV, up);
            return;
        }
        let slots = self.slots.entry(src).or_default();
        let order = self.order.entry(src).or_default();
        match slots.entry(frag.msg_id) {
            // A fragment that opens a slot never completes it: a one-part
            // message took the fast path above.
            Entry::Vacant(entry) => {
                order.push_back(frag.msg_id);
                let parts = BTreeMap::from([(frag.index, frag.data)]);
                entry.insert(Slot { count: frag.count, channel: frag.channel, parts });
            }
            Entry::Occupied(mut entry) => {
                let slot = entry.get_mut();
                slot.parts.insert(frag.index, frag.data);
                if slot.parts.len() as u32 == slot.count {
                    let slot = entry.remove();
                    order.retain(|&id| id != frag.msg_id);
                    let total: usize = slot.parts.values().map(Bytes::len).sum();
                    let mut whole = BytesMut::with_capacity(total);
                    for (_, part) in slot.parts {
                        whole.extend_from_slice(&part);
                    }
                    self.messages_reassembled += 1;
                    let d = Dgram { peer: src, channel: slot.channel, data: whole.freeze() };
                    let up = ctx.encode(&d);
                    ctx.respond_on(&self.frag_svc, slot.channel, dgram::RECV, up);
                    return;
                }
            }
        }
        // Evict the oldest incomplete message under slot pressure.
        while slots.len() > REASSEMBLY_SLOTS {
            if let Some(old) = order.pop_front() {
                if slots.remove(&old).is_some() {
                    self.evicted += 1;
                }
            } else {
                break;
            }
        }
    }
}

impl Module for FragModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.frag_svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.udp_svc]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        (*service == self.udp_svc).then_some(crate::FRAG_UDP_CHANNEL)
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != dgram::SEND {
            return;
        }
        let Ok(d) = call.decode::<Dgram>() else { return };
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        let count = d.data.len().div_ceil(MTU).max(1) as u32;
        for index in 0..count {
            let lo = index as usize * MTU;
            let hi = (lo + MTU).min(d.data.len());
            let frag =
                Fragment { msg_id, index, count, channel: d.channel, data: d.data.slice(lo..hi) };
            self.send_fragment(ctx, d.peer, &frag);
        }
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if let Some((src, frag)) = dgram::recv(&resp, &self.udp_svc, crate::FRAG_UDP_CHANNEL) {
            self.on_fragment(ctx, src, frag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rp2p::{Rp2pConfig, Rp2pModule};
    use crate::udp::UdpModule;
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::time::{Dur, Time};
    use dpu_core::wire;
    use dpu_core::ModuleId;
    use dpu_sim::{NetConfig, Sim, SimConfig, Topology};

    struct Sink {
        got: Vec<Dgram>,
        svc: ServiceId,
    }

    impl Module for Sink {
        fn kind(&self) -> &str {
            "fragsink"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![self.svc]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == dgram::RECV {
                self.got.push(resp.decode().unwrap());
            }
        }
    }

    /// Layout: m1 net, m2 udp, m3 frag, m4 sink.
    const FRAG: ModuleId = ModuleId(3);
    const SINK: ModuleId = ModuleId(4);
    /// The channel the tests send on.
    const CH: Channel = Channel::new(5, 0);

    fn mk_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let frag = s.add_module(Box::new(FragModule::new()));
        s.add_module(Box::new(Sink { got: vec![], svc: ServiceId::new(crate::FRAG_SVC) }));
        s.bind(&ServiceId::new(crate::UDP_SVC), udp);
        s.bind(&ServiceId::new(crate::FRAG_SVC), frag);
        s
    }

    fn send_big(sim: &mut Sim, from: u32, to: u32, size: usize, fill: u8) {
        let d = Dgram { peer: StackId(to), channel: CH, data: Bytes::from(vec![fill; size]) };
        sim.with_stack(StackId(from), |s| {
            s.call_as(SINK, &ServiceId::new(crate::FRAG_SVC), dgram::SEND, wire::to_bytes(&d))
        });
    }

    #[test]
    fn small_messages_pass_through_one_fragment() {
        let mut sim = Sim::new(SimConfig::lan(2, 1), mk_stack);
        send_big(&mut sim, 0, 1, 100, 7);
        sim.run_until(Time::ZERO + Dur::millis(50));
        let got = sim
            .with_stack(StackId(1), |s| s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data.len(), 100);
        let frags = sim.with_stack(StackId(0), |s| {
            s.with_module::<FragModule, _>(FRAG, |m| m.fragments_sent).unwrap()
        });
        assert_eq!(frags, 1);
    }

    #[test]
    fn large_message_is_fragmented_and_reassembled_exactly() {
        let mut sim = Sim::new(SimConfig::lan(2, 3), mk_stack);
        let size = 10_000; // 8 fragments at mtu 1400
        send_big(&mut sim, 0, 1, size, 9);
        sim.run_until(Time::ZERO + Dur::millis(100));
        let got = sim
            .with_stack(StackId(1), |s| s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].channel, CH);
        assert_eq!(got[0].data, Bytes::from(vec![9u8; size]));
        let frags = sim.with_stack(StackId(0), |s| {
            s.with_module::<FragModule, _>(FRAG, |m| m.fragments_sent).unwrap()
        });
        assert_eq!(frags as usize, size.div_ceil(MTU));
    }

    #[test]
    fn interleaved_large_messages_do_not_mix() {
        let mut sim = Sim::new(SimConfig::lan(3, 5), mk_stack);
        send_big(&mut sim, 0, 2, 5_000, 1);
        send_big(&mut sim, 1, 2, 5_000, 2);
        send_big(&mut sim, 0, 2, 3_000, 3);
        sim.run_until(Time::ZERO + Dur::millis(200));
        let got = sim
            .with_stack(StackId(2), |s| s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap());
        assert_eq!(got.len(), 3);
        for d in &got {
            let first = d.data[0];
            assert!(d.data.iter().all(|&b| b == first), "fragments mixed across messages");
        }
    }

    #[test]
    fn lost_fragment_loses_only_that_message() {
        let mut cfg = SimConfig::lan(2, 11);
        cfg.topology = Topology::flat(NetConfig::lossy(0.5));
        let mut sim = Sim::new(cfg, mk_stack);
        for i in 0..5 {
            send_big(&mut sim, 0, 1, 4_000, i);
        }
        sim.run_until(Time::ZERO + Dur::secs(1));
        let got = sim
            .with_stack(StackId(1), |s| s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap());
        // Unreliable by design: some messages may be lost, but whatever
        // arrives is complete and uncorrupted.
        assert!(got.len() < 5, "50% fragment loss must lose some message");
        for d in &got {
            assert_eq!(d.data.len(), 4_000);
            let first = d.data[0];
            assert!(d.data.iter().all(|&b| b == first));
        }
    }

    #[test]
    fn rp2p_over_frag_recovers_large_messages_despite_loss() {
        // The intended composition: rp2p → frag → udp. RP2P retransmits
        // whole frames; frag splits them; loss of any fragment is healed
        // by the retransmission.
        let mk = |sc: StackConfig| -> Stack {
            let mut s = Stack::new(sc, FactoryRegistry::new());
            let udp = s.add_module(Box::new(UdpModule::new()));
            let frag = s.add_module(Box::new(FragModule::new()));
            let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig {
                lower: crate::FRAG_SVC.to_string(),
                ..Rp2pConfig::default()
            })));
            s.add_module(Box::new(Sink { got: vec![], svc: ServiceId::new(crate::RP2P_SVC) }));
            s.bind(&ServiceId::new(crate::UDP_SVC), udp);
            s.bind(&ServiceId::new(crate::FRAG_SVC), frag);
            s.bind(&ServiceId::new(crate::RP2P_SVC), rp2p);
            s
        };
        // Layout here: m1 net, m2 udp, m3 frag, m4 rp2p, m5 sink.
        const SINK5: ModuleId = ModuleId(5);
        let mut cfg = SimConfig::lan(2, 13);
        cfg.topology = Topology::flat(NetConfig::lossy(0.25));
        let mut sim = Sim::new(cfg, mk);
        for i in 0..4u8 {
            let d = Dgram { peer: StackId(1), channel: CH, data: Bytes::from(vec![i; 6_000]) };
            sim.with_stack(StackId(0), |s| {
                s.call_as(SINK5, &ServiceId::new(crate::RP2P_SVC), dgram::SEND, wire::to_bytes(&d))
            });
        }
        sim.run_until(Time::ZERO + Dur::secs(20));
        let got = sim.with_stack(StackId(1), |s| {
            s.with_module::<Sink, _>(SINK5, |k| k.got.clone()).unwrap()
        });
        assert_eq!(got.len(), 4, "reliable layer must recover every message");
        for (i, d) in got.iter().enumerate() {
            assert_eq!(d.data, Bytes::from(vec![i as u8; 6_000]), "FIFO + integrity");
        }
    }

    #[test]
    fn slot_pressure_evicts_oldest_incomplete() {
        let cfg_sim = SimConfig::lan(2, 17);
        let mut sim = Sim::new(cfg_sim, mk_stack);
        // Send fragments manually: one two-fragment message more than
        // there are slots, each missing its second half, then watch
        // eviction counters.
        for msg_id in 0..=REASSEMBLY_SLOTS as u64 {
            let frag = Fragment {
                msg_id,
                index: 0,
                count: 2,
                channel: CH,
                data: Bytes::from_static(b"half"),
            };
            let d =
                Dgram { peer: StackId(1), channel: crate::FRAG_UDP_CHANNEL, data: frag.to_bytes() };
            sim.with_stack(StackId(0), |s| {
                s.call_as(SINK, &ServiceId::new(crate::UDP_SVC), dgram::SEND, wire::to_bytes(&d))
            });
        }
        sim.run_until(Time::ZERO + Dur::millis(100));
        let (evicted, reassembled) = sim.with_stack(StackId(1), |s| {
            s.with_module::<FragModule, _>(FRAG, |m| (m.evicted(), m.messages_reassembled)).unwrap()
        });
        assert_eq!(reassembled, 0);
        assert_eq!(evicted, 1, "slot pressure must evict the oldest, and only it");
    }

    #[test]
    fn fragment_wire_contract() {
        for data in [Bytes::new(), Bytes::from_static(b"chunk"), Bytes::from(vec![1u8; 1400])] {
            let frag = Fragment { msg_id: 77, index: 2, count: 9, channel: CH.at(77), data };
            dpu_core::wire::testing::assert_wire_contract(&frag);
        }
    }
}
