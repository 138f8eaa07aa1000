//! Consensus-based atomic broadcast: the Chandra–Toueg transformation
//! (the paper's *ABcast* module in Figure 4, which "requires the
//! consensus service").
//!
//! A broadcast message is first *gossiped* to all stacks (reliable
//! point-to-point to every peer). Each stack accumulates undelivered
//! messages in an `unordered` set and runs a sequence of consensus
//! instances; instance `k` agrees on a *batch* (the proposer's current
//! `unordered` set, values included). Batches are delivered in instance
//! order; the `delivered` set filters messages that appear in several
//! batches. Uniformity and crash tolerance are inherited from consensus.
//! Gossip is not relayed: a message whose origin crashed before its
//! gossip reached round 0's coordinator is ordered once the stacks that
//! hold it suspect the origin. The suspicion sends the coordinator their
//! estimates, and the first one it gets it proposes.
//!
//! None of this grows with the run. Gossip is FIFO per pair, so a batch
//! that carries an origin's message carries every earlier one not yet
//! delivered: each origin is delivered in sequence order and `delivered`
//! (an [`IntervalSet`]) is one watermark per origin. `unordered` holds
//! what is in flight, `decisions` the batches decided ahead of their
//! turn, and of its proposals the module remembers only whether it has
//! made the current one. The `held` gauge of [`TransportStats`] counts
//! the unordered messages plus any delivered ahead of a gap.
//!
//! Unlike the common construction, this module is **not** built on top of
//! view synchrony — the paper points this out for its own ABcast module,
//! and that its replacement algorithm works for either flavour.

use super::{ops, MsgKey};
use crate::channels;
use crate::consensus::{self, ops as cons_ops};
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::wire::LenPrefixed;
use dpu_core::{
    Call, Channel, InOrder, IntervalSet, Module, Response, ServiceId, StackId, TransportStats,
};
use dpu_net::dgram;
use std::collections::BTreeMap;

/// Module kind name, for factory registration.
pub const KIND: &str = "abcast.ct";

/// Factory parameters of the consensus-based atomic broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtAbcastParams {
    /// Incarnation namespace: the incarnation of the gossip channel and of
    /// the consensus decisions this module listens on, and the key of its
    /// consensus instances.
    pub namespace: u64,
    /// Service name to provide (default [`crate::ABCAST_SVC`]).
    pub service: String,
    /// Consensus service to require (default [`crate::CONSENSUS_SVC`]).
    /// Pointing a new incarnation at a different consensus service is how
    /// the consensus-replacement experiment swaps the agreement protocol
    /// underneath atomic broadcast (paper §7 / ref \[16\]).
    pub consensus: String,
    /// Batching delay: after the first message of a batch arrives, wait
    /// this long before proposing, so more messages share one consensus
    /// instance. Zero (the default) proposes immediately — lowest latency
    /// at low load, more instances (and an earlier saturation knee) at
    /// high load. The `ablation` benchmark sweeps this knob.
    pub batch_delay: dpu_core::time::Dur,
}

impl Default for CtAbcastParams {
    fn default() -> Self {
        CtAbcastParams {
            namespace: 0,
            service: crate::ABCAST_SVC.to_string(),
            consensus: crate::CONSENSUS_SVC.to_string(),
            batch_delay: dpu_core::time::Dur::ZERO,
        }
    }
}

dpu_core::wire_codec!(CtAbcastParams { namespace, service, consensus, batch_delay });

/// Gossip frame: `(origin, seq, payload)`.
struct Gossip {
    key: MsgKey,
    data: Bytes,
}

dpu_core::wire_codec!(Gossip { key, data });

type Batch = Vec<(StackId, u64, Bytes)>;

/// The consensus-based atomic broadcast module. See module docs.
pub struct CtAbcastModule {
    params: CtAbcastParams,
    svc: ServiceId,
    cons_svc: ServiceId,
    rp2p_svc: ServiceId,
    next_seq: u64,
    unordered: BTreeMap<MsgKey, Bytes>,
    delivered: IntervalSet<StackId>,
    /// The decided batches, delivered in instance order: `due()` is the
    /// instance running now.
    decisions: InOrder<Batch>,
    /// Whether this module has proposed for the instance running now.
    proposed: bool,
    deliveries: u64,
    batch_timer_armed: bool,
}

const TAG_BATCH: u64 = 1;

impl CtAbcastModule {
    /// Build with explicit parameters.
    pub fn new(params: CtAbcastParams) -> CtAbcastModule {
        let svc = ServiceId::new(&params.service);
        let cons_svc = ServiceId::new(&params.consensus);
        CtAbcastModule {
            params,
            svc,
            cons_svc,
            rp2p_svc: ServiceId::new(dpu_net::RP2P_SVC),
            next_seq: 0,
            unordered: BTreeMap::new(),
            delivered: IntervalSet::new(),
            decisions: InOrder::new(),
            proposed: false,
            deliveries: 0,
            batch_timer_armed: false,
        }
    }

    /// Register this module's factory under [`KIND`]. Empty params mean
    /// defaults; otherwise params decode as [`CtAbcastParams`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, CtAbcastModule::new);
    }

    /// Messages Adelivered by this module.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Consensus instances completed by this module.
    pub fn instances_done(&self) -> u64 {
        self.decisions.due()
    }

    /// This incarnation's gossip channel.
    fn channel(&self) -> Channel {
        channels::ABCAST_CT.at(self.params.namespace)
    }

    /// To every other stack, in one call.
    fn gossip(&self, ctx: &mut ModuleCtx<'_>, key: MsgKey, data: &Bytes) {
        let me = ctx.stack_id();
        let table = ctx.peer_table();
        let peers = table.iter().copied().filter(|&p| p != me);
        let gossip = Gossip { key, data: data.clone() };
        dgram::send_many(ctx, &self.rp2p_svc, peers, self.channel(), &gossip);
    }

    fn try_propose(&mut self, ctx: &mut ModuleCtx<'_>, force: bool) {
        if self.proposed || (self.unordered.is_empty() && !force) {
            return;
        }
        // Batching: hold the proposal briefly so concurrent messages
        // share one consensus instance. Forced proposals (the group is
        // already running the instance) never wait.
        if !force && self.params.batch_delay > dpu_core::time::Dur::ZERO {
            if !self.batch_timer_armed {
                self.batch_timer_armed = true;
                ctx.set_timer(self.params.batch_delay, TAG_BATCH);
            }
            return;
        }
        self.propose_now(ctx);
    }

    /// Propose the current `unordered` set for the instance running now.
    fn propose_now(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.proposed = true;
        let batch: Batch = self
            .unordered
            .iter()
            .map(|(&(origin, seq), data)| (origin, seq, data.clone()))
            .collect();
        // The batch is framed in place inside the PROPOSE payload.
        let payload =
            ctx.encode(&(self.params.namespace, self.decisions.due(), LenPrefixed(&batch)));
        ctx.call(&self.cons_svc, cons_ops::PROPOSE, payload);
    }

    /// File instance `k`'s decision and deliver every batch it unblocks.
    fn decided(&mut self, ctx: &mut ModuleCtx<'_>, k: u64, batch: Batch) {
        for batch in self.decisions.offer(k, batch) {
            for (origin, seq, data) in batch {
                let key = (origin, seq);
                if self.delivered.insert(key) {
                    self.unordered.remove(&key);
                    self.deliveries += 1;
                    ctx.respond(&self.svc, ops::ADELIVER, data);
                }
            }
            self.proposed = false;
        }
        // Keep ordering the backlog.
        self.try_propose(ctx, false);
    }
}

impl Module for CtAbcastModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.cons_svc, self.rp2p_svc]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        if *service == self.rp2p_svc {
            Some(self.channel())
        } else {
            (*service == self.cons_svc).then_some(consensus::USER.at(self.params.namespace))
        }
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != ops::ABCAST {
            return;
        }
        let key = (ctx.stack_id(), self.next_seq);
        self.next_seq += 1;
        if self.delivered.contains(key) {
            return; // cannot happen (fresh key), defensive
        }
        self.unordered.insert(key, call.data.clone());
        self.gossip(ctx, key, &call.data);
        self.try_propose(ctx, false);
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _timer: dpu_core::TimerId, tag: u64) {
        if tag == TAG_BATCH {
            self.batch_timer_armed = false;
            if !self.proposed && !self.unordered.is_empty() {
                self.propose_now(ctx);
            }
        }
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if let Some((_, g)) = dgram::recv::<Gossip>(&resp, &self.rp2p_svc, self.channel()) {
            if !self.delivered.contains(g.key) {
                self.unordered.insert(g.key, g.data);
                self.try_propose(ctx, false);
            }
            return;
        }
        if resp.service == self.cons_svc {
            match resp.op {
                cons_ops::DECIDE => {
                    let Ok((_, k, value)) = resp.decode::<(u64, u64, Bytes)>() else {
                        return;
                    };
                    if k < self.decisions.due() {
                        return;
                    }
                    let Ok(batch) = dpu_core::wire::from_bytes::<Batch>(&value) else {
                        return;
                    };
                    self.decided(ctx, k, batch);
                }
                cons_ops::NEED_PROPOSAL => {
                    let Ok((_, k)) = resp.decode::<(u64, u64)>() else { return };
                    // The group is running instance k; participate with
                    // whatever we have (possibly an empty batch), this
                    // stack's estimate should the instance go past round
                    // 0. Round 0's coordinator is asked only once another
                    // stack suspects someone (an origin that crashed
                    // before its gossip got here), and has by then
                    // proposed that stack's batch.
                    if k == self.decisions.due() {
                        self.try_propose(ctx, true);
                    }
                }
                _ => {}
            }
        }
    }

    /// No transport, but the same report: `held` is what this module
    /// keeps until the group has ordered it.
    fn transport_stats(&self) -> Option<TransportStats> {
        let held = self.unordered.len() + self.delivered.gaps();
        Some(TransportStats { held: held as u64, ..TransportStats::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abcast::testkit::{abcast, assert_total_order, delivered, ABCAST};
    use crate::testing::stack_over;
    use dpu_core::time::{Dur, Time};
    use dpu_core::wire;
    use dpu_core::StackId;
    use dpu_sim::{NetConfig, Sim, SimConfig, Topology};

    fn ct_sim(n: u32, seed: u64) -> Sim {
        Sim::new(SimConfig::lan(n, seed), |sc| {
            stack_over(sc, Box::new(CtAbcastModule::new(CtAbcastParams::default())))
        })
    }

    #[test]
    fn gossip_and_params_wire_contract() {
        use dpu_core::wire::testing::assert_wire_contract;
        assert_wire_contract(&Gossip {
            key: (StackId(1), 99),
            data: Bytes::from_static(b"payload"),
        });
        assert_wire_contract(&CtAbcastParams::default());
        use dpu_core::wire::testing::assert_wire_bytes;
        let gossip = Gossip { key: (StackId(1), 99), data: Bytes::from("g") };
        assert_wire_bytes(&gossip, &[1, 99, 1, b'g']);
        let params = CtAbcastParams {
            namespace: 2,
            service: "a".into(),
            consensus: "c".into(),
            batch_delay: Dur::nanos(300),
        };
        assert_wire_bytes(&params, &[2, 1, b'a', 1, b'c', 0xac, 0x02]);
    }

    #[test]
    fn single_message_delivered_everywhere() {
        let mut sim = ct_sim(3, 42);
        sim.run_until(Time::ZERO + Dur::millis(100));
        abcast(&mut sim, 0, b"hello");
        sim.run_until(Time::ZERO + Dur::secs(3));
        assert_total_order(&mut sim, &[0, 1, 2], 1);
    }

    #[test]
    fn concurrent_senders_totally_ordered() {
        let mut sim = ct_sim(3, 7);
        sim.run_until(Time::ZERO + Dur::millis(100));
        for i in 0..3u32 {
            for j in 0..5u8 {
                abcast(&mut sim, i, &[i as u8, j]);
            }
        }
        sim.run_until(Time::ZERO + Dur::secs(10));
        assert_total_order(&mut sim, &[0, 1, 2], 15);
    }

    #[test]
    fn seven_stacks_like_the_paper() {
        let mut sim = ct_sim(7, 13);
        sim.run_until(Time::ZERO + Dur::millis(100));
        for i in 0..7u32 {
            abcast(&mut sim, i, &[i as u8]);
        }
        sim.run_until(Time::ZERO + Dur::secs(10));
        assert_total_order(&mut sim, &[0, 1, 2, 3, 4, 5, 6], 7);
    }

    #[test]
    fn survives_message_loss() {
        let mut cfg = SimConfig::lan(3, 11);
        cfg.topology = Topology::flat(NetConfig::lossy(0.15));
        let mut sim = Sim::new(cfg, |sc| {
            stack_over(sc, Box::new(CtAbcastModule::new(CtAbcastParams::default())))
        });
        sim.run_until(Time::ZERO + Dur::millis(100));
        for j in 0..5u8 {
            abcast(&mut sim, 0, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(20));
        assert_total_order(&mut sim, &[0, 1, 2], 5);
    }

    #[test]
    fn survives_crash_of_non_coordinator() {
        let mut sim = ct_sim(5, 3);
        sim.run_until(Time::ZERO + Dur::millis(100));
        for j in 0..3u8 {
            abcast(&mut sim, 0, &[j]);
        }
        sim.schedule_in(Dur::millis(50), |sim| {
            sim.crash_at(sim.now(), StackId(4));
        });
        sim.run_until(Time::ZERO + Dur::secs(10));
        assert_total_order(&mut sim, &[0, 1, 2, 3], 3);
    }

    #[test]
    fn survives_crash_of_round0_coordinator() {
        // Rotating policy: round-0 coordinator is stack 0. Crash it after
        // it has sent some messages; the rest must still agree.
        let mut sim = ct_sim(5, 3);
        sim.run_until(Time::ZERO + Dur::millis(100));
        for j in 0..3u8 {
            abcast(&mut sim, 1, &[j]);
        }
        sim.schedule_in(Dur::millis(20), |sim| {
            sim.crash_at(sim.now(), StackId(0));
        });
        sim.run_until(Time::ZERO + Dur::secs(15));
        assert_total_order(&mut sim, &[1, 2, 3, 4], 3);
    }

    #[test]
    fn a_message_whose_origin_crashed_before_its_gossip_reached_the_coordinator_is_ordered() {
        // Stack 4's gossip reaches 1, 2 and 3 but not stack 0, the round-0
        // coordinator, and 4 crashes. Nobody prompts 0 until the others
        // suspect 4 and send it their estimates.
        let mut sim = ct_sim(5, 3);
        sim.partition(&[StackId(4)], &[StackId(0)]);
        abcast(&mut sim, 4, b"orphan");
        sim.crash_at(sim.now() + Dur::millis(5), StackId(4));
        sim.run_until(Time::ZERO + Dur::millis(200));
        sim.heal_partitions();
        sim.run_until(Time::ZERO + Dur::secs(10));
        assert_total_order(&mut sim, &[0, 1, 2, 3], 1);
    }

    #[test]
    fn different_namespaces_do_not_interfere() {
        // Two abcast modules (ns 1 and ns 2) side by side in each stack on
        // different service names; streams stay independent.
        use crate::testing::RecordingApp;
        use dpu_core::stack::Stack;
        use dpu_core::{ModuleId, ServiceId};
        let mk = |sc: dpu_core::StackConfig| -> Stack {
            let ns1 = CtAbcastParams { namespace: 1, ..CtAbcastParams::default() };
            let mut s = stack_over(sc, Box::new(CtAbcastModule::new(ns1)));
            let ab2 = s.add_module(Box::new(CtAbcastModule::new(CtAbcastParams {
                namespace: 2,
                service: "abcast2".into(),
                consensus: crate::CONSENSUS_SVC.into(),
                ..CtAbcastParams::default()
            })));
            s.add_module(Box::new(RecordingApp { delivered: vec![] }));
            s.bind(&ServiceId::new("abcast2"), ab2);
            s
        };
        let mut sim = Sim::new(SimConfig::lan(3, 5), mk);
        sim.run_until(Time::ZERO + Dur::millis(100));
        abcast(&mut sim, 0, b"ns1-message");
        // Send on the second service directly.
        sim.with_stack(StackId(1), |s| {
            s.call_as(
                ModuleId(7),
                &ServiceId::new("abcast2"),
                ops::ABCAST,
                bytes::Bytes::from_static(b"ns2-message"),
            )
        });
        sim.run_until(Time::ZERO + Dur::secs(5));
        // The primary app (bound to "abcast") sees only the ns1 message.
        for node in 0..3 {
            let d = delivered(&mut sim, node);
            assert_eq!(d, vec![bytes::Bytes::from_static(b"ns1-message")]);
        }
    }

    #[test]
    fn module_counters_track_progress() {
        let mut sim = ct_sim(3, 19);
        sim.run_until(Time::ZERO + Dur::millis(100));
        for j in 0..4u8 {
            abcast(&mut sim, 0, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        let (deliv, inst, pend) = sim.with_stack(StackId(0), |s| {
            s.with_module::<CtAbcastModule, _>(ABCAST, |m| {
                (m.deliveries(), m.instances_done(), m.unordered.len())
            })
            .unwrap()
        });
        assert_eq!(deliv, 4);
        assert!(inst >= 1);
        assert_eq!(pend, 0);
    }

    #[test]
    fn batch_delay_reduces_consensus_instances() {
        let run = |delay: dpu_core::time::Dur| {
            let mut sim = Sim::new(SimConfig::lan(3, 77), move |sc| {
                let params = CtAbcastParams { batch_delay: delay, ..CtAbcastParams::default() };
                stack_over(sc, Box::new(CtAbcastModule::new(params)))
            });
            sim.run_until(Time::ZERO + Dur::millis(100));
            // A burst of closely spaced messages.
            for j in 0..10u8 {
                abcast(&mut sim, 0, &[j]);
            }
            sim.run_until(Time::ZERO + Dur::secs(5));
            assert_total_order(&mut sim, &[0, 1, 2], 10);
            sim.with_stack(StackId(0), |s| {
                s.with_module::<CtAbcastModule, _>(ABCAST, |m| m.instances_done()).unwrap()
            })
        };
        let eager = run(Dur::ZERO);
        let batched = run(Dur::millis(5));
        assert!(batched < eager, "batching must use fewer instances: {batched} vs {eager}");
        assert_eq!(batched, 1, "a 5ms window should capture the whole burst");
    }

    #[test]
    fn params_roundtrip_and_factory() {
        let p = CtAbcastParams {
            namespace: 3,
            service: "abc".into(),
            consensus: "c2".into(),
            batch_delay: dpu_core::time::Dur::millis(2),
        };
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<CtAbcastParams>(&b).unwrap(), p);
        let mut reg = dpu_core::FactoryRegistry::new();
        CtAbcastModule::register(&mut reg);
        let m = reg.build(&dpu_core::ModuleSpec::with_params(KIND, &p)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![dpu_core::ServiceId::new("abc")]);
        assert!(m.requires().contains(&dpu_core::ServiceId::new("c2")));
    }
}
