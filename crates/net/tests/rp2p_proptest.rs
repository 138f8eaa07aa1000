//! Property tests for RP2P: under *any* combination of loss,
//! duplication, jitter and message pattern, delivery is exactly-once and
//! FIFO per ordered pair of stacks — also when the two directions of a
//! pair talk at once, so that acks ride data frames and wait on the ack
//! timer — and once the network heals nothing stays unacknowledged. A
//! `SEND_MANY` is a `SEND` to each stack it lists, however the two mix.

use bytes::Bytes;
use dpu_core::stack::{FactoryRegistry, ModuleCtx, Stack, StackConfig};
use dpu_core::time::{Dur, Time};
use dpu_core::{Call, Channel, Module, ModuleId, Response, ServiceId, StackId};
use dpu_net::dgram::{self, Dgram, DgramMany};
use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
use dpu_net::udp::UdpModule;
use dpu_sim::{NetConfig, Sim, SimConfig, Topology};
use proptest::prelude::*;

struct Sink {
    got: Vec<(StackId, Bytes)>,
}

impl Module for Sink {
    fn kind(&self) -> &str {
        "sink"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(dpu_net::RP2P_SVC)]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op == dgram::RECV {
            let d: Dgram = resp.decode().unwrap();
            self.got.push((d.peer, d.data));
        }
    }
}

const SINK: ModuleId = ModuleId(4);

fn call_rp2p(sim: &mut Sim, from: u32, op: dpu_core::Op, payload: Bytes) {
    sim.with_stack(StackId(from), |s| {
        s.call_as(SINK, &ServiceId::new(dpu_net::RP2P_SVC), op, payload)
    });
}

fn mk_stack(sc: StackConfig) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    let udp = s.add_module(Box::new(UdpModule::new()));
    let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
    s.add_module(Box::new(Sink { got: vec![] }));
    s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
    s.bind(&ServiceId::new(dpu_net::RP2P_SVC), rp2p);
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn exactly_once_fifo_under_any_fault_mix(
        seed in 0u64..10_000,
        loss in 0.0f64..0.45,
        duplicate in 0.0f64..0.45,
        // (sender, receiver, count) message plan over 3 stacks
        plan in proptest::collection::vec((0u32..3, 0u32..3, 1usize..8), 1..6),
    ) {
        let mut cfg = SimConfig::lan(3, seed);
        cfg.topology = Topology::flat(NetConfig { loss, duplicate, ..NetConfig::lan() });
        let mut sim = Sim::new(cfg, mk_stack);
        // Send the plan; tag each message with (sender, receiver, index).
        let mut expected: Vec<Vec<(StackId, Vec<u8>)>> = vec![vec![], vec![], vec![]];
        for (i, &(from, to, count)) in plan.iter().enumerate() {
            for j in 0..count {
                let tag = vec![from as u8, to as u8, i as u8, j as u8];
                expected[to as usize].push((StackId(from), tag.clone()));
                let d = Dgram {
                    peer: StackId(to),
                    channel: Channel::new(9, 0),
                    data: Bytes::from(tag),
                };
                sim.with_stack(StackId(from), |s| {
                    s.call_as(
                        SINK,
                        &ServiceId::new(dpu_net::RP2P_SVC),
                        dgram::SEND,
                        dpu_core::wire::to_bytes(&d),
                    )
                });
            }
        }
        // Generous drain: retransmission needs time at high loss.
        sim.run_until(Time::ZERO + Dur::secs(60));
        for node in 0..3u32 {
            let got = sim.with_stack(StackId(node), |s| {
                s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap()
            });
            // Exactly-once: same multiset size.
            prop_assert_eq!(
                got.len(),
                expected[node as usize].len(),
                "node {} delivery count", node
            );
            // FIFO per sender: filter by sender and compare sequences.
            for sender in 0..3u32 {
                let got_from: Vec<&Vec<u8>> = got
                    .iter()
                    .filter(|(s, _)| *s == StackId(sender))
                    .map(|(_, d)| d)
                    .map(|b| {
                        // Convert to Vec for comparison.
                        Box::leak(Box::new(b.to_vec())) as &Vec<u8>
                    })
                    .collect();
                let want_from: Vec<&Vec<u8>> = expected[node as usize]
                    .iter()
                    .filter(|(s, _)| *s == StackId(sender))
                    .map(|(_, d)| d)
                    .collect();
                prop_assert_eq!(got_from, want_from, "node {} from {}", node, sender);
            }
        }
    }

    #[test]
    fn a_conversation_is_exactly_once_fifo_both_ways_and_settles(
        seed in 0u64..10_000,
        loss in 0.0f64..0.3,
        duplicate in 0.0f64..0.3,
        // Above the gaps between sends, so frames overtake each other.
        jitter_us in 0u64..3_000,
        // (pause before the send in 100 µs, sender) over 2 stacks
        schedule in proptest::collection::vec((0u64..40, 0u32..2), 1..80),
    ) {
        let mut cfg = SimConfig::lan(2, seed);
        let jitter = Dur::micros(jitter_us);
        cfg.topology = Topology::flat(NetConfig { loss, duplicate, jitter, ..NetConfig::lan() });
        let mut sim = Sim::new(cfg, mk_stack);
        let mut sent = [0u16; 2];
        for &(pause, from) in &schedule {
            let at = sim.now() + Dur::micros(100 * pause);
            sim.run_until(at);
            let d = Dgram {
                peer: StackId(1 - from),
                channel: Channel::new(9, 0),
                data: Bytes::from(sent[from as usize].to_be_bytes().to_vec()),
            };
            sent[from as usize] += 1;
            sim.with_stack(StackId(from), |s| {
                s.call_as(
                    SINK,
                    &ServiceId::new(dpu_net::RP2P_SVC),
                    dgram::SEND,
                    dpu_core::wire::to_bytes(&d),
                )
            });
        }
        // The network heals. A frame whose last transmission was lost is
        // resent by the first scan that finds it a full period old (at
        // most two periods away) and its ack is back within another
        // quarter: four quiet periods settle everything.
        sim.set_loss(0.0);
        let healed = sim.now();
        sim.run_until(healed + Rp2pConfig::default().retransmit * 4);
        for node in 0..2u32 {
            let got = sim.with_stack(StackId(node), |s| {
                s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap()
            });
            let want: Vec<(StackId, Bytes)> = (0..sent[1 - node as usize])
                .map(|i| (StackId(1 - node), Bytes::from(i.to_be_bytes().to_vec())))
                .collect();
            prop_assert_eq!(got, want, "node {}", node);
            let ts = sim.with_stack(StackId(node), |s| s.transport_stats());
            prop_assert_eq!(ts.unacked, 0, "node {}: {:?}", node, ts);
        }
    }

    #[test]
    fn send_many_is_a_send_to_each_listed_stack(
        seed in 0u64..10_000,
        loss in 0.0f64..0.45,
        duplicate in 0.0f64..0.45,
        // (sender, destination list over 3 stacks, send a one-stack list
        // as a plain SEND): a list may hold the sender itself, hold a
        // stack more than once, or be empty.
        plan in proptest::collection::vec(
            (0u32..3, proptest::collection::vec(0u32..3, 0..6), any::<bool>()),
            1..16,
        ),
    ) {
        let mut cfg = SimConfig::lan(3, seed);
        cfg.topology = Topology::flat(NetConfig { loss, duplicate, ..NetConfig::lan() });
        let mut sim = Sim::new(cfg, mk_stack);
        // What each stack must receive: a message per listed occurrence,
        // in call order.
        let mut expected: Vec<Vec<(StackId, Bytes)>> = vec![vec![], vec![], vec![]];
        for (i, (from, to, single)) in plan.iter().enumerate() {
            let data = Bytes::from(vec![*from as u8, i as u8]);
            for &dst in to {
                expected[dst as usize].push((StackId(*from), data.clone()));
            }
            let channel = Channel::new(9, 0);
            let (op, payload) = match to[..] {
                [dst] if *single => {
                    let d = Dgram { peer: StackId(dst), channel, data };
                    (dgram::SEND, dpu_core::wire::to_bytes(&d))
                }
                _ => {
                    let peers = to.iter().copied().map(StackId).collect();
                    (dgram::SEND_MANY, dpu_core::wire::to_bytes(&DgramMany { peers, channel, data }))
                }
            };
            call_rp2p(&mut sim, *from, op, payload);
        }
        sim.run_until(Time::ZERO + Dur::secs(60));
        for node in 0..3u32 {
            let got = sim.with_stack(StackId(node), |s| {
                s.with_module::<Sink, _>(SINK, |k| k.got.clone()).unwrap()
            });
            // Exactly one delivery per listed occurrence, and from each
            // sender in the order it called.
            prop_assert_eq!(got.len(), expected[node as usize].len(), "node {}", node);
            for sender in 0..3u32 {
                let from = |v: &[(StackId, Bytes)]| -> Vec<Bytes> {
                    v.iter().filter(|(s, _)| *s == StackId(sender)).map(|(_, d)| d.clone()).collect()
                };
                prop_assert_eq!(
                    from(&got),
                    from(&expected[node as usize]),
                    "node {} from {}", node, sender
                );
            }
        }
    }
}
