//! Fixed-sequencer atomic broadcast.
//!
//! The lowest-id stack acts as the sequencer: every broadcast is sent to
//! it over RP2P; the sequencer stamps a global sequence number and
//! re-broadcasts; everyone delivers in sequence-number order.
//!
//! Properties: total order, integrity and validity hold while the
//! sequencer is up; the protocol is **not** crash-tolerant (the sequencer
//! is a single point of failure) and delivery is not uniform. It is the
//! classic cheap protocol a group switches *to* in a stable environment —
//! one of the paper's motivating scenarios for dynamic protocol update —
//! and its low latency at low load is clearly visible in the benchmarks.

use super::ops;
use crate::channels;
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::{Call, Channel, InOrder, Module, Response, ServiceId, StackId};
use dpu_net::dgram;

/// Module kind name, for factory registration.
pub const KIND: &str = "abcast.seq";

/// Factory parameters of the sequencer atomic broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqAbcastParams {
    /// Incarnation namespace: the incarnation of the channel this module
    /// sends and listens on.
    pub namespace: u64,
    /// Service name to provide (default [`crate::ABCAST_SVC`]).
    pub service: String,
}

impl Default for SeqAbcastParams {
    fn default() -> Self {
        SeqAbcastParams { namespace: 0, service: crate::ABCAST_SVC.to_string() }
    }
}

dpu_core::wire_codec!(SeqAbcastParams { namespace, service });

enum Frame {
    /// tag 0: a broadcast request sent to the sequencer.
    Req { data: Bytes },
    /// tag 1: an ordered message from the sequencer.
    Order { seq: u64, data: Bytes },
}

dpu_core::wire_codec!(enum Frame { 0 => Req { data }, 1 => Order { seq, data } });

/// The fixed-sequencer atomic broadcast module. See module docs.
pub struct SeqAbcastModule {
    params: SeqAbcastParams,
    svc: ServiceId,
    rp2p_svc: ServiceId,
    /// Sequencer state: next sequence number to assign.
    next_assign: u64,
    /// Receiver state: the ordered messages, delivered in sequence.
    order: InOrder<Bytes>,
    deliveries: u64,
}

impl SeqAbcastModule {
    /// Build with explicit parameters.
    pub fn new(params: SeqAbcastParams) -> SeqAbcastModule {
        let svc = ServiceId::new(&params.service);
        SeqAbcastModule {
            params,
            svc,
            rp2p_svc: ServiceId::new(dpu_net::RP2P_SVC),
            next_assign: 0,
            order: InOrder::new(),
            deliveries: 0,
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, SeqAbcastModule::new);
    }

    /// Messages Adelivered by this module.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    fn sequencer(ctx: &ModuleCtx<'_>) -> StackId {
        ctx.peers().iter().copied().fold(ctx.stack_id(), StackId::min)
    }

    /// This incarnation's channel.
    fn channel(&self) -> Channel {
        channels::ABCAST_SEQ.at(self.params.namespace)
    }
}

impl Module for SeqAbcastModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.rp2p_svc]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        (*service == self.rp2p_svc).then_some(self.channel())
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != ops::ABCAST {
            return;
        }
        let seqr = Self::sequencer(ctx);
        let req = Frame::Req { data: call.data };
        dgram::send(ctx, &self.rp2p_svc, seqr, self.channel(), &req);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let Some((_, frame)) = dgram::recv(&resp, &self.rp2p_svc, self.channel()) else { return };
        match frame {
            Frame::Req { data } => {
                // Only the sequencer handles requests; anyone else
                // receiving one (e.g. after a membership change) ignores
                // it.
                if ctx.stack_id() != Self::sequencer(ctx) {
                    return;
                }
                let seq = self.next_assign;
                self.next_assign += 1;
                // To every stack, this one included, in one call.
                let all = ctx.peer_table();
                let order = Frame::Order { seq, data };
                dgram::send_many(ctx, &self.rp2p_svc, all.iter().copied(), self.channel(), &order);
            }
            Frame::Order { seq, data } => {
                for data in self.order.offer(seq, data) {
                    self.deliveries += 1;
                    ctx.respond(&self.svc, ops::ADELIVER, data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abcast::testkit::{abcast, assert_total_order, delivered};
    use crate::testing::stack_over;
    use dpu_core::time::{Dur, Time};
    use dpu_core::wire;
    use dpu_sim::{NetConfig, Sim, SimConfig, Topology};

    fn seq_sim(n: u32, seed: u64) -> Sim {
        Sim::new(SimConfig::lan(n, seed), |sc| {
            stack_over(sc, Box::new(SeqAbcastModule::new(SeqAbcastParams::default())))
        })
    }

    #[test]
    fn frame_and_params_wire_contract() {
        use dpu_core::wire::testing::assert_wire_contract;
        assert_wire_contract(&Frame::Req { data: Bytes::from_static(b"m") });
        assert_wire_contract(&Frame::Order { seq: 8, data: Bytes::from_static(b"oo") });
        assert_wire_contract(&SeqAbcastParams::default());
        use dpu_core::wire::testing::assert_wire_bytes;
        assert_wire_bytes(&Frame::Req { data: Bytes::from("m") }, &[0, 1, b'm']);
        assert_wire_bytes(
            &Frame::Order { seq: 8, data: Bytes::from("oo") },
            &[1, 8, 2, b'o', b'o'],
        );
        let params = SeqAbcastParams { namespace: 5, service: "s".into() };
        assert_wire_bytes(&params, &[5, 1, b's']);
    }

    #[test]
    fn single_message_delivered_everywhere() {
        let mut sim = seq_sim(3, 42);
        sim.run_until(Time::ZERO + Dur::millis(50));
        abcast(&mut sim, 1, b"hello");
        sim.run_until(Time::ZERO + Dur::secs(1));
        assert_total_order(&mut sim, &[0, 1, 2], 1);
    }

    #[test]
    fn concurrent_senders_totally_ordered() {
        let mut sim = seq_sim(5, 7);
        sim.run_until(Time::ZERO + Dur::millis(50));
        for i in 0..5u32 {
            for j in 0..10u8 {
                abcast(&mut sim, i, &[i as u8, j]);
            }
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        assert_total_order(&mut sim, &[0, 1, 2, 3, 4], 50);
    }

    #[test]
    fn sequencer_messages_from_itself_are_ordered_too() {
        let mut sim = seq_sim(3, 9);
        sim.run_until(Time::ZERO + Dur::millis(50));
        abcast(&mut sim, 0, b"from-sequencer");
        abcast(&mut sim, 2, b"from-follower");
        sim.run_until(Time::ZERO + Dur::secs(1));
        assert_total_order(&mut sim, &[0, 1, 2], 2);
    }

    #[test]
    fn loss_is_recovered_by_rp2p_underneath() {
        let mut cfg = SimConfig::lan(3, 11);
        cfg.topology = Topology::flat(NetConfig::lossy(0.2));
        let mut sim = Sim::new(cfg, |sc| {
            stack_over(sc, Box::new(SeqAbcastModule::new(SeqAbcastParams::default())))
        });
        sim.run_until(Time::ZERO + Dur::millis(50));
        for j in 0..10u8 {
            abcast(&mut sim, 1, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(10));
        assert_total_order(&mut sim, &[0, 1, 2], 10);
    }

    #[test]
    fn fifo_from_single_sender() {
        let mut sim = seq_sim(3, 3);
        sim.run_until(Time::ZERO + Dur::millis(50));
        for j in 0..20u8 {
            abcast(&mut sim, 1, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(2));
        // RP2P is FIFO and the sequencer stamps in arrival order, so a
        // single sender's messages keep their send order.
        let d = delivered(&mut sim, 2);
        let order: Vec<u8> = d.iter().map(|b| b[0]).collect();
        assert_eq!(order, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn params_roundtrip_and_factory() {
        let p = SeqAbcastParams { namespace: 5, service: "svc-x".into() };
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<SeqAbcastParams>(&b).unwrap(), p);
        let mut reg = dpu_core::FactoryRegistry::new();
        SeqAbcastModule::register(&mut reg);
        let m = reg.build(&dpu_core::ModuleSpec::with_params(KIND, &p)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new("svc-x")]);
    }
}
