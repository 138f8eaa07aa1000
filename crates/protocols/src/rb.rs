//! Reliable broadcast (RB): best-effort-plus-relay dissemination on top
//! of reliable point-to-point channels.
//!
//! Guarantees (for crash faults, with reliable channels):
//!
//! * **validity** — a correct sender's message is delivered by all
//!   correct processes;
//! * **agreement** — if *any* correct process delivers `m`, all correct
//!   processes deliver `m` (achieved by relaying on first delivery, so a
//!   sender crashing mid-broadcast cannot leave the group split);
//! * **integrity** — `m` is delivered at most once, and only if broadcast.
//!
//! No ordering is promised — that is atomic broadcast's job. The
//! consensus-based ABcast does not use this pattern: its gossip goes once
//! to every peer and is never relayed, and a message whose origin crashed
//! mid-gossip is ordered through consensus by whoever received it. This
//! standalone module provides the service to any other protocol that
//! needs dissemination without ordering, and is the simplest complete
//! example of a broadcast `Module`.
//!
//! It relays *eagerly*, on first delivery. Consensus's `Decide` is the
//! one broadcast of the system that a *lazy* variant (relay only once
//! the sender is suspected) could carry, and it does not ride this
//! module: a lazy `rb` has to keep each message until every member is
//! known to have it, so that it can still relay it — a retention buffer
//! until stability. Consensus keeps exactly that already, the tombstone
//! of each decided instance, collected by the decided watermarks its own
//! frames carry; a `Decide` sent through `rb` would be kept twice. So
//! consensus sends its decision once and relays it lazily itself (see
//! [`crate::consensus`]), and this module stays the eager, stand-alone
//! example.
//!
//! ## Service interface (`rb`)
//!
//! * call [`ops::BCAST`] — broadcast the payload bytes;
//! * response [`ops::DELIVER`] — `(origin, payload)` delivered.

use crate::channels;
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::{Call, Channel, IntervalSet, Module, Response, ServiceId, StackId};
use dpu_net::dgram;

/// Module kind name, for factory registration.
pub const KIND: &str = "rb";

/// Operation codes of the `rb` service.
pub mod ops {
    use dpu_core::Op;
    /// Call: reliably broadcast the payload.
    pub const BCAST: Op = 1;
    /// Response: `(origin, payload)` delivered (unordered).
    pub const DELIVER: Op = 2;
}

struct RbMsg {
    origin: StackId,
    seq: u64,
    data: Bytes,
}

dpu_core::wire_codec!(RbMsg { origin, seq, data });

/// The reliable broadcast module. See module docs.
pub struct RbModule {
    svc: ServiceId,
    rp2p_svc: ServiceId,
    next_seq: u64,
    /// What was delivered already: one run per origin, plus one per
    /// message a relay brought ahead of its predecessors.
    delivered: IntervalSet<StackId>,
    relays: u64,
}

impl RbModule {
    /// A reliable broadcast module providing [`crate::RB_SVC`].
    pub fn new() -> RbModule {
        RbModule {
            svc: ServiceId::new(crate::RB_SVC),
            rp2p_svc: ServiceId::new(dpu_net::RP2P_SVC),
            next_seq: 0,
            delivered: IntervalSet::new(),
            relays: 0,
        }
    }

    /// Register this module's factory under [`KIND`]. The kind takes no
    /// parameters.
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, |()| RbModule::new());
    }

    /// Messages this stack has relayed (agreement machinery at work).
    pub fn relays(&self) -> u64 {
        self.relays
    }

    /// To every other stack but those in `skip`, in one call.
    fn send_to_all(&self, ctx: &mut ModuleCtx<'_>, msg: &RbMsg, skip: &[StackId]) {
        let me = ctx.stack_id();
        let table = ctx.peer_table();
        let peers = table.iter().copied().filter(|p| *p != me && !skip.contains(p));
        dgram::send_many(ctx, &self.rp2p_svc, peers, channels::RB, msg);
    }

    fn deliver(&mut self, ctx: &mut ModuleCtx<'_>, msg: &RbMsg) -> bool {
        if !self.delivered.insert((msg.origin, msg.seq)) {
            return false;
        }
        let up = ctx.encode(&(msg.origin, &msg.data));
        ctx.respond(&self.svc, ops::DELIVER, up);
        true
    }
}

impl Default for RbModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for RbModule {
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
        (*service == self.rp2p_svc).then_some(channels::RB)
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != ops::BCAST {
            return;
        }
        let msg = RbMsg { origin: ctx.stack_id(), seq: self.next_seq, data: call.data };
        self.next_seq += 1;
        // Deliver locally first (validity), then disseminate.
        self.deliver(ctx, &msg);
        self.send_to_all(ctx, &msg, &[]);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let Some((from, msg)) = dgram::recv::<RbMsg>(&resp, &self.rp2p_svc, channels::RB) else {
            return;
        };
        // Relay on FIRST delivery — this is what upgrades best-effort to
        // (regular) reliable broadcast: even if the origin crashed after
        // reaching only us, everyone still gets it.
        if self.deliver(ctx, &msg) {
            self.relays += 1;
            self.send_to_all(ctx, &msg, &[from, msg.origin]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::time::{Dur, Time};
    use dpu_core::ModuleId;
    use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
    use dpu_net::udp::UdpModule;
    use dpu_sim::{NetConfig, Sim, SimConfig, Topology};
    use std::collections::BTreeSet;

    struct App {
        got: Vec<(StackId, Bytes)>,
    }

    impl Module for App {
        fn kind(&self) -> &str {
            "rb-app"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::RB_SVC)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == ops::DELIVER {
                self.got.push(resp.decode().unwrap());
            }
        }
    }

    /// Layout: m1 net, m2 udp, m3 rp2p, m4 rb, m5 app.
    const RB: ModuleId = ModuleId(4);
    const APP: ModuleId = ModuleId(5);

    fn mk_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
        let rb = s.add_module(Box::new(RbModule::new()));
        s.add_module(Box::new(App { got: vec![] }));
        s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
        s.bind(&ServiceId::new(dpu_net::RP2P_SVC), rp2p);
        s.bind(&ServiceId::new(crate::RB_SVC), rb);
        s
    }

    fn bcast(sim: &mut Sim, node: u32, payload: &[u8]) {
        let data = Bytes::copy_from_slice(payload);
        sim.with_stack(StackId(node), |s| {
            s.call_as(APP, &ServiceId::new(crate::RB_SVC), ops::BCAST, data)
        });
    }

    fn got(sim: &mut Sim, node: u32) -> Vec<(StackId, Bytes)> {
        sim.with_stack(StackId(node), |s| s.with_module::<App, _>(APP, |a| a.got.clone()).unwrap())
    }

    #[test]
    fn rb_msg_wire_contract() {
        dpu_core::wire::testing::assert_wire_contract(&RbMsg {
            origin: StackId(2),
            seq: 5,
            data: Bytes::from_static(b"payload"),
        });
        let msg = RbMsg { origin: StackId(2), seq: 5, data: Bytes::from("pl") };
        dpu_core::wire::testing::assert_wire_bytes(&msg, &[2, 5, 2, b'p', b'l']);
    }

    #[test]
    fn broadcast_reaches_everyone_including_sender() {
        let mut sim = Sim::new(SimConfig::lan(4, 1), mk_stack);
        bcast(&mut sim, 2, b"hello");
        sim.run_until(Time::ZERO + Dur::millis(100));
        for node in 0..4 {
            let g = got(&mut sim, node);
            assert_eq!(g, vec![(StackId(2), Bytes::from_static(b"hello"))], "node {node}");
        }
    }

    #[test]
    fn no_duplicates_despite_relays() {
        let mut sim = Sim::new(SimConfig::lan(5, 3), mk_stack);
        for i in 0..5u32 {
            bcast(&mut sim, i, &[i as u8]);
        }
        sim.run_until(Time::ZERO + Dur::millis(500));
        for node in 0..5 {
            let g = got(&mut sim, node);
            assert_eq!(g.len(), 5, "node {node} got {}", g.len());
            let unique: BTreeSet<_> = g.iter().collect();
            assert_eq!(unique.len(), 5, "node {node} has duplicates");
        }
        // Relays did happen (each non-origin stack relays each message).
        let relays = sim
            .with_stack(StackId(0), |s| s.with_module::<RbModule, _>(RB, |m| m.relays()).unwrap());
        assert!(relays > 0);
    }

    #[test]
    fn agreement_when_sender_crashes_mid_broadcast() {
        // Partition the sender from everyone except one witness, let the
        // witness receive, crash the sender, heal: the witness's relay
        // must complete dissemination.
        let mut sim = Sim::new(SimConfig::lan(4, 7), mk_stack);
        // Sender 0 can only reach stack 1.
        sim.partition(&[StackId(0)], &[StackId(2), StackId(3)]);
        bcast(&mut sim, 0, b"last-words");
        sim.run_until(Time::ZERO + Dur::millis(100));
        assert_eq!(got(&mut sim, 1).len(), 1, "witness received");
        // (Stacks 2 and 3 may already have it — via the witness's relay,
        // which is exactly the agreement machinery under test.)
        sim.crash_at(sim.now(), StackId(0));
        sim.heal_partitions();
        sim.run_until(Time::ZERO + Dur::secs(5));
        for node in 1..4 {
            assert_eq!(
                got(&mut sim, node),
                vec![(StackId(0), Bytes::from_static(b"last-words"))],
                "node {node}: relay must have completed dissemination"
            );
        }
    }

    #[test]
    fn survives_message_loss_via_rp2p() {
        let mut cfg = SimConfig::lan(3, 11);
        cfg.topology = Topology::flat(NetConfig::lossy(0.3));
        let mut sim = Sim::new(cfg, mk_stack);
        for j in 0..10u8 {
            bcast(&mut sim, 0, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(10));
        for node in 0..3 {
            assert_eq!(got(&mut sim, node).len(), 10, "node {node}");
        }
    }

    #[test]
    fn factory_registration() {
        let mut reg = FactoryRegistry::new();
        RbModule::register(&mut reg);
        let m = reg.build(&dpu_core::ModuleSpec::new(KIND)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new(crate::RB_SVC)]);
    }
}
