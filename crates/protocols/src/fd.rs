//! The FD module (paper Figure 4): a heartbeat failure detector.
//!
//! Approximates the ◇S class assumed by the paper (eventually weak
//! accuracy, strong completeness) the standard way:
//!
//! * every 20 ms each process sends a heartbeat datagram to all peers
//!   over raw UDP (channel [`crate::channels::FD`]);
//! * a peer silent for longer than its current timeout (initially
//!   100 ms) is **suspected**;
//! * if a suspected peer is heard from again, it is unsuspected and its
//!   timeout grows by 50 ms — so wrong suspicions of any given correct peer
//!   happen only finitely often once its timeout exceeds the real
//!   worst-case delay (eventual accuracy);
//! * crashed peers stop heartbeating and stay suspected (completeness).
//!
//! ## Service interface (`fd`)
//!
//! * call `ops::QUERY` — request an immediate suspicion snapshot;
//! * response `ops::SUSPECTS` — `Vec<StackId>` of currently suspected
//!   peers; emitted on every change and after each `QUERY`.

use crate::channels;
use dpu_core::stack::ModuleCtx;
use dpu_core::time::{Dur, Time};
use dpu_core::{Call, Channel, Module, Response, ServiceId, StackId, TimerId};
use dpu_net::dgram;
use std::collections::BTreeMap;

/// Module kind name, for factory registration.
pub const KIND: &str = "fd";

/// Operation codes of the `fd` service.
pub mod ops {
    use dpu_core::Op;
    /// Call: request an immediate [`SUSPECTS`] response.
    pub(crate) const QUERY: Op = 1;
    /// Response: the current suspicion list, as `Vec<StackId>`.
    pub(crate) const SUSPECTS: Op = 2;
}

const TAG_HEARTBEAT: u64 = 1;
const TAG_CHECK: u64 = 2;

/// Heartbeat send period.
const HEARTBEAT: Dur = Dur::millis(20);
/// Initial suspicion timeout.
const TIMEOUT: Dur = Dur::millis(100);
/// Added to a peer's timeout after each wrong suspicion.
const BACKOFF: Dur = Dur::millis(50);

struct PeerState {
    last_heard: Time,
    timeout: Dur,
    suspected: bool,
}

/// The failure detector module. See module docs.
pub struct FdModule {
    fd_svc: ServiceId,
    udp_svc: ServiceId,
    peers: BTreeMap<StackId, PeerState>,
    wrong_suspicions: u64,
}

impl FdModule {
    /// A failure detector with the module's timing constants.
    pub(crate) fn new() -> FdModule {
        FdModule {
            fd_svc: ServiceId::new(crate::FD_SVC),
            udp_svc: ServiceId::new(dpu_net::UDP_SVC),
            peers: BTreeMap::new(),
            wrong_suspicions: 0,
        }
    }

    /// Register this module's factory under [`KIND`]. The kind takes no
    /// parameters.
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, |()| FdModule::new());
    }

    /// Currently suspected peers.
    pub fn suspected(&self) -> Vec<StackId> {
        self.peers.iter().filter(|(_, p)| p.suspected).map(|(&id, _)| id).collect()
    }

    fn publish(&self, ctx: &mut ModuleCtx<'_>) {
        let list = self.suspected();
        let data = ctx.encode(&list);
        ctx.respond(&self.fd_svc, ops::SUSPECTS, data);
    }

    fn send_heartbeats(&self, ctx: &mut ModuleCtx<'_>) {
        let me = ctx.stack_id();
        for &peer in ctx.peer_table().iter() {
            if peer == me {
                continue;
            }
            // A heartbeat's body is empty.
            dgram::send(ctx, &self.udp_svc, peer, channels::FD, &());
        }
    }

    fn check_timeouts(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now();
        let mut changed = false;
        for p in self.peers.values_mut() {
            if !p.suspected && now.since(p.last_heard) > p.timeout {
                p.suspected = true;
                changed = true;
            }
        }
        if changed {
            self.publish(ctx);
        }
    }
}

impl Module for FdModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.fd_svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.udp_svc]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        (*service == self.udp_svc).then_some(channels::FD)
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        let me = ctx.stack_id();
        let now = ctx.now();
        for &peer in ctx.peers() {
            if peer != me {
                self.peers.insert(
                    peer,
                    PeerState { last_heard: now, timeout: TIMEOUT, suspected: false },
                );
            }
        }
        self.send_heartbeats(ctx);
        ctx.set_timer(HEARTBEAT, TAG_HEARTBEAT);
        ctx.set_timer(TIMEOUT, TAG_CHECK);
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op == ops::QUERY {
            self.publish(ctx);
        }
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        // A heartbeat's body is never read.
        let Some(d) = dgram::envelope(&resp, &self.udp_svc, channels::FD) else { return };
        let now = ctx.now();
        if let Some(p) = self.peers.get_mut(&d.peer) {
            p.last_heard = now;
            if p.suspected {
                // Wrong suspicion: revoke and back the timeout off so the
                // same peer is (eventually) never wrongly suspected again.
                p.suspected = false;
                p.timeout += BACKOFF;
                self.wrong_suspicions += 1;
                self.publish(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_HEARTBEAT => {
                self.send_heartbeats(ctx);
                ctx.set_timer(HEARTBEAT, TAG_HEARTBEAT);
            }
            TAG_CHECK => {
                self.check_timeouts(ctx);
                // Check at heartbeat granularity for prompt detection.
                ctx.set_timer(HEARTBEAT, TAG_CHECK);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::ModuleId;
    use dpu_net::udp::UdpModule;
    use dpu_sim::{Sim, SimConfig};

    /// Records the latest SUSPECTS list.
    struct FdSink {
        latest: Vec<StackId>,
        updates: usize,
    }

    impl Module for FdSink {
        fn kind(&self) -> &str {
            "fdsink"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::FD_SVC)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == ops::SUSPECTS {
                self.latest = resp.decode().unwrap();
                self.updates += 1;
            }
        }
    }

    /// Layout: m1 net bridge, m2 udp, m3 fd, m4 sink.
    const FD: ModuleId = ModuleId(3);
    const SINK: ModuleId = ModuleId(4);

    fn mk_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let fd = s.add_module(Box::new(FdModule::new()));
        s.add_module(Box::new(FdSink { latest: vec![], updates: 0 }));
        s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
        s.bind(&ServiceId::new(crate::FD_SVC), fd);
        s
    }

    fn suspected_at(sim: &mut Sim, node: u32) -> Vec<StackId> {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<FdModule, _>(FD, |m| m.suspected()).unwrap()
        })
    }

    #[test]
    fn no_suspicions_on_healthy_network() {
        let mut sim = Sim::new(SimConfig::lan(3, 42), mk_stack);
        sim.run_until(Time::ZERO + Dur::secs(2));
        for i in 0..3 {
            assert!(suspected_at(&mut sim, i).is_empty(), "node {i} suspects someone");
        }
    }

    #[test]
    fn crashed_peer_becomes_suspected_everywhere() {
        let mut sim = Sim::new(SimConfig::lan(3, 7), mk_stack);
        sim.run_until(Time::ZERO + Dur::millis(500));
        sim.crash_at(sim.now(), StackId(2));
        sim.run_until(Time::ZERO + Dur::secs(2));
        for i in 0..2 {
            assert_eq!(suspected_at(&mut sim, i), vec![StackId(2)], "node {i}");
        }
    }

    #[test]
    fn suspicion_published_to_service_users() {
        let mut sim = Sim::new(SimConfig::lan(2, 7), mk_stack);
        sim.crash_at(Time::ZERO + Dur::millis(300), StackId(1));
        sim.run_until(Time::ZERO + Dur::secs(2));
        let latest = sim.with_stack(StackId(0), |s| {
            s.with_module::<FdSink, _>(SINK, |k| k.latest.clone()).unwrap()
        });
        assert_eq!(latest, vec![StackId(1)]);
    }

    #[test]
    fn temporary_partition_causes_wrong_suspicion_then_recovery() {
        let mut sim = Sim::new(SimConfig::lan(2, 9), mk_stack);
        sim.run_until(Time::ZERO + Dur::millis(200));
        sim.partition(&[StackId(0)], &[StackId(1)]);
        sim.run_until(Time::ZERO + Dur::millis(600));
        assert_eq!(suspected_at(&mut sim, 0), vec![StackId(1)]);
        sim.heal_partitions();
        sim.run_until(Time::ZERO + Dur::secs(3));
        assert!(suspected_at(&mut sim, 0).is_empty(), "suspicion must be revoked after heal");
        let wrong = sim.with_stack(StackId(0), |s| {
            s.with_module::<FdModule, _>(FD, |m| m.wrong_suspicions).unwrap()
        });
        assert!(wrong >= 1);
    }

    #[test]
    fn timeout_backs_off_after_wrong_suspicion() {
        let mut sim = Sim::new(SimConfig::lan(2, 9), mk_stack);
        // Two partition episodes; after each heal the timeout grows.
        for _ in 0..2 {
            sim.partition(&[StackId(0)], &[StackId(1)]);
            let t = sim.now() + Dur::millis(600);
            sim.run_until(t);
            sim.heal_partitions();
            let t = sim.now() + Dur::millis(600);
            sim.run_until(t);
        }
        let wrong = sim.with_stack(StackId(0), |s| {
            s.with_module::<FdModule, _>(FD, |m| m.wrong_suspicions).unwrap()
        });
        assert!(wrong >= 2);
        // Peer timeout grew beyond the initial 100ms.
        let timeout = sim.with_stack(StackId(0), |s| {
            s.with_module::<FdModule, _>(FD, |m| m.peers.get(&StackId(1)).unwrap().timeout).unwrap()
        });
        assert!(timeout > TIMEOUT);
    }

    #[test]
    fn query_triggers_immediate_response() {
        let mut sim = Sim::new(SimConfig::lan(2, 3), mk_stack);
        sim.run_until(Time::ZERO + Dur::millis(50));
        let before = sim
            .with_stack(StackId(0), |s| s.with_module::<FdSink, _>(SINK, |k| k.updates).unwrap());
        sim.with_stack(StackId(0), |s| {
            s.call_as(SINK, &ServiceId::new(crate::FD_SVC), ops::QUERY, Bytes::new())
        });
        sim.run_until(sim.now() + Dur::millis(10));
        let after = sim
            .with_stack(StackId(0), |s| s.with_module::<FdSink, _>(SINK, |k| k.updates).unwrap());
        assert_eq!(after, before + 1);
    }
}
