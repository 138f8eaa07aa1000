//! Atomic broadcast: four interchangeable implementations of the §5.1
//! specification (Hadzilacos–Toueg):
//!
//! * **validity** — a correct process that ABcasts `m` eventually
//!   Adelivers `m`;
//! * **uniform agreement** — if a process Adelivers `m`, all correct
//!   processes eventually Adeliver `m`;
//! * **uniform integrity** — `m` is Adelivered at most once, and only if
//!   previously ABcast;
//! * **uniform total order** — all processes Adeliver in compatible order.
//!
//! Variants:
//!
//! | module | algorithm | fault tolerance |
//! |---|---|---|
//! | [`ct::CtAbcastModule`] | reduction to consensus (Chandra–Toueg transformation): gossip messages, agree on batches | crash-tolerant, uniform (inherits consensus) |
//! | [`sequencer::SeqAbcastModule`] | fixed sequencer assigns a global sequence | non-fault-tolerant (sequencer is a single point of failure); cheapest latency |
//! | [`ring::RingAbcastModule`] | privilege-based: a circulating token carries the sequence counter | non-fault-tolerant; throughput-friendly, latency grows with ring position |
//! | [`hier::HierAbcastModule`] | hierarchical: one local sequencer per topology cluster, streams merged by a leader cluster | local-sequencer failover; leader remains a single point of failure; scales fan-out across clusters |
//!
//! All variants provide the same two-operation service ([`ops`]), so the
//! replacement module of `dpu-repl` can switch between them on the fly —
//! exactly the paper's "switching between different atomic broadcast
//! protocols" scenario. The non-fault-tolerant variants are realistic
//! switch *targets* (the paper's motivation includes switching to a
//! cheaper protocol when the environment is stable).
//!
//! ## Payloads and namespaces
//!
//! Application payloads are opaque `Bytes`. Each module incarnation tags
//! its wire traffic and consensus instances with a `namespace` from its
//! [`dpu_core::ModuleSpec`]; see the crate docs.

pub mod ct;
pub mod hier;
pub mod ring;
pub mod sequencer;

use dpu_core::StackId;

/// Operation codes of the `abcast` service (all variants).
pub mod ops {
    use dpu_core::Op;
    /// Call: atomically broadcast the payload bytes.
    pub const ABCAST: Op = 1;
    /// Response: a payload is Adelivered (in total order).
    pub const ADELIVER: Op = 2;
}

/// Internal identity of a broadcast message: `(origin, per-origin seq)`.
/// Used by the consensus-based variant to deduplicate across batches.
pub(crate) type MsgKey = (StackId, u64);

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared scaffolding for the abcast variant tests: builds a full
    //! stack (net bridge → udp → rp2p → fd → consensus → abcast) with a
    //! recording application module on top, and property-checks runs.

    use super::ops;
    use crate::consensus::{ConsensusModule, ConsensusParams, CoordPolicy};
    use crate::fd::FdModule;
    use bytes::Bytes;
    use dpu_core::stack::{FactoryRegistry, ModuleCtx, Stack, StackConfig};
    use dpu_core::time::Time;
    use dpu_core::{Call, Module, ModuleId, Response, ServiceId, StackId};
    use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
    use dpu_net::udp::UdpModule;
    use dpu_sim::Sim;

    /// Records ADELIVER payloads in order.
    pub struct App {
        pub delivered: Vec<Bytes>,
    }

    impl Module for App {
        fn kind(&self) -> &str {
            "test-app"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::ABCAST_SVC)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op == ops::ADELIVER {
                self.delivered.push(resp.data);
            }
        }
    }

    /// Module ids in the standard test stack layout.
    /// m1 net, m2 udp, m3 rp2p, m4 fd, m5 consensus, m6 abcast, m7 app.
    pub const ABCAST: ModuleId = ModuleId(6);
    pub const APP: ModuleId = ModuleId(7);

    /// Build the standard stack with `mk_abcast` supplying the variant.
    pub fn mk_stack(sc: StackConfig, mk_abcast: impl FnOnce() -> Box<dyn Module>) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        let udp = s.add_module(Box::new(UdpModule::new()));
        let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
        let fd = s.add_module(Box::new(FdModule::new()));
        let cons = s.add_module(Box::new(ConsensusModule::new(
            ConsensusParams::default(),
            CoordPolicy::Rotating,
        )));
        let ab = s.add_module(mk_abcast());
        s.add_module(Box::new(App { delivered: vec![] }));
        s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
        s.bind(&ServiceId::new(dpu_net::RP2P_SVC), rp2p);
        s.bind(&ServiceId::new(crate::FD_SVC), fd);
        s.bind(&ServiceId::new(crate::CONSENSUS_SVC), cons);
        s.bind(&ServiceId::new(crate::ABCAST_SVC), ab);
        s
    }

    /// ABcast a payload from `node`.
    pub fn abcast(sim: &mut Sim, node: u32, payload: &[u8]) {
        let data = Bytes::copy_from_slice(payload);
        sim.with_stack(StackId(node), |s| {
            s.call_as(APP, &ServiceId::new(crate::ABCAST_SVC), ops::ABCAST, data)
        });
    }

    /// The delivery sequence at `node`.
    pub fn delivered(sim: &mut Sim, node: u32) -> Vec<Bytes> {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<App, _>(APP, |a| a.delivered.clone()).unwrap()
        })
    }

    /// Assert the four atomic broadcast properties over the app logs of
    /// all non-crashed nodes: identical order, no dups, complete set.
    pub fn assert_total_order(sim: &mut Sim, nodes: &[u32], expected: usize) {
        let first = delivered(sim, nodes[0]);
        assert_eq!(
            first.len(),
            expected,
            "node {} delivered {} of {expected} at t={:?}",
            nodes[0],
            first.len(),
            Time(sim.now().as_nanos()),
        );
        let unique: std::collections::BTreeSet<&Bytes> = first.iter().collect();
        assert_eq!(unique.len(), first.len(), "duplicate deliveries on node {}", nodes[0]);
        for &n in &nodes[1..] {
            let d = delivered(sim, n);
            assert_eq!(d, first, "node {n} disagrees with node {}", nodes[0]);
        }
    }
}
