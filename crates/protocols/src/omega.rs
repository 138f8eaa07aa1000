//! Ω (eventual leader election) on top of the failure detector: every
//! correct process eventually trusts the *same* correct process — the
//! weakest abstraction for consensus liveness, and the natural signal
//! for "switch to the cheap sequencer protocol and make the leader the
//! sequencer" adaptations.
//!
//! Implementation: leader = the lowest-id peer not currently suspected
//! by the local `fd` service (self is never suspected). With ◇S's
//! eventual accuracy, all correct processes converge on the lowest-id
//! correct process.
//!
//! ## Service interface (`leader`)
//!
//! * call [`ops::QUERY`] — request an immediate [`ops::LEADER`] response;
//! * response [`ops::LEADER`] — the currently trusted leader (`StackId`),
//!   emitted on every change and after each `QUERY`.

use dpu_core::stack::ModuleCtx;
use dpu_core::wire::Encode;
use dpu_core::{Call, Module, ModuleSpec, Response, ServiceId, StackId};
use std::collections::BTreeSet;

/// Module kind name, for factory registration.
pub const KIND: &str = "omega";

/// Operation codes of the `leader` service.
pub mod ops {
    use dpu_core::Op;
    /// Call: request an immediate [`LEADER`] response.
    pub const QUERY: Op = 1;
    /// Response: the currently trusted leader, as a `StackId`.
    pub const LEADER: Op = 2;
}

/// The Ω module. See module docs.
pub struct OmegaModule {
    svc: ServiceId,
    fd_svc: ServiceId,
    suspected: BTreeSet<StackId>,
    leader: Option<StackId>,
    changes: u64,
}

impl OmegaModule {
    /// An Ω module providing [`crate::LEADER_SVC`].
    pub fn new() -> OmegaModule {
        OmegaModule {
            svc: ServiceId::new(crate::LEADER_SVC),
            fd_svc: ServiceId::new(crate::FD_SVC),
            suspected: BTreeSet::new(),
            leader: None,
            changes: 0,
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register(KIND, |_spec: &ModuleSpec| Box::new(OmegaModule::new()));
    }

    /// The currently trusted leader.
    pub fn leader(&self) -> Option<StackId> {
        self.leader
    }

    /// How many times the local leader has changed (should stabilise).
    pub fn changes(&self) -> u64 {
        self.changes
    }

    fn elect(&mut self, ctx: &mut ModuleCtx<'_>) {
        let new = ctx
            .peers()
            .iter()
            .copied()
            .find(|p| *p == ctx.stack_id() || !self.suspected.contains(p));
        if new != self.leader {
            self.leader = new;
            self.changes += 1;
            if let Some(l) = new {
                ctx.respond(&self.svc, ops::LEADER, l.to_bytes());
            }
        }
    }
}

impl Default for OmegaModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for OmegaModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.fd_svc]
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.elect(ctx);
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op == ops::QUERY {
            if let Some(l) = self.leader {
                ctx.respond(&self.svc, ops::LEADER, l.to_bytes());
            }
        }
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.service != self.fd_svc || resp.op != crate::fd::ops::SUSPECTS {
            return;
        }
        let Ok(list) = resp.decode::<Vec<StackId>>() else { return };
        self.suspected = list.into_iter().collect();
        self.elect(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{FdConfig, FdModule};
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::time::{Dur, Time};
    use dpu_core::ModuleId;
    use dpu_net::udp::UdpModule;
    use dpu_sim::{Sim, SimConfig};

    /// Layout: m1 net, m2 udp, m3 fd, m4 omega.
    const OMEGA: ModuleId = ModuleId(4);

    fn mk_stack(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let fd = s.add_module(Box::new(FdModule::new(FdConfig::default())));
        let omega = s.add_module(Box::new(OmegaModule::new()));
        s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
        s.bind(&ServiceId::new(crate::FD_SVC), fd);
        s.bind(&ServiceId::new(crate::LEADER_SVC), omega);
        s
    }

    fn leader_at(sim: &mut Sim, node: u32) -> Option<StackId> {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<OmegaModule, _>(OMEGA, |m| m.leader()).unwrap()
        })
    }

    #[test]
    fn healthy_group_agrees_on_lowest_id() {
        let mut sim = Sim::new(SimConfig::lan(4, 5), mk_stack);
        sim.run_until(Time::ZERO + Dur::secs(1));
        for node in 0..4 {
            assert_eq!(leader_at(&mut sim, node), Some(StackId(0)), "node {node}");
        }
    }

    #[test]
    fn leadership_moves_past_a_crashed_leader() {
        let mut sim = Sim::new(SimConfig::lan(4, 9), mk_stack);
        sim.run_until(Time::ZERO + Dur::millis(500));
        sim.crash_at(sim.now(), StackId(0));
        sim.run_until(Time::ZERO + Dur::secs(3));
        for node in 1..4 {
            assert_eq!(leader_at(&mut sim, node), Some(StackId(1)), "node {node}");
        }
        // And past a second crash.
        sim.crash_at(sim.now(), StackId(1));
        sim.run_until(Time::ZERO + Dur::secs(6));
        for node in 2..4 {
            assert_eq!(leader_at(&mut sim, node), Some(StackId(2)), "node {node}");
        }
    }

    #[test]
    fn wrong_suspicion_recovers_to_lowest_id() {
        let mut sim = Sim::new(SimConfig::lan(3, 13), mk_stack);
        sim.run_until(Time::ZERO + Dur::millis(300));
        sim.partition(&[StackId(0)], &[StackId(1), StackId(2)]);
        sim.run_until(sim.now() + Dur::secs(1));
        assert_eq!(leader_at(&mut sim, 1), Some(StackId(1)), "demoted while 0 unreachable");
        sim.heal_partitions();
        sim.run_until(sim.now() + Dur::secs(3));
        for node in 0..3 {
            assert_eq!(leader_at(&mut sim, node), Some(StackId(0)), "node {node} restored");
        }
        let changes = sim.with_stack(StackId(1), |s| {
            s.with_module::<OmegaModule, _>(OMEGA, |m| m.changes()).unwrap()
        });
        assert!(changes >= 3, "elect → demote → restore = at least 3 changes");
    }

    #[test]
    fn factory_registration() {
        let mut reg = FactoryRegistry::new();
        OmegaModule::register(&mut reg);
        let m = reg.build(&ModuleSpec::new(KIND)).unwrap();
        assert_eq!(m.kind(), KIND);
    }
}
