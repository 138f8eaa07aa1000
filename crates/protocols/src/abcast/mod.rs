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
//! All variants provide the same service ([`ops`]), so the
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
    /// Call: the members that count, a `Vec<StackId>` — the view the
    /// group membership module installed, passed down. A variant whose
    /// state waits until every member is done with it hands it to what
    /// it requires (`abcast.ct` to consensus); the others ignore it.
    pub const VIEW: Op = 3;
    /// Call: the replaced incarnations the replacement layer has just
    /// destroyed, a `Vec<ModuleId>` — every member is past them. Like
    /// `VIEW`, `abcast.ct` hands it to consensus, which forgets the
    /// namespaces they used; the others ignore it.
    pub const RETIRED: Op = 4;
}

/// Internal identity of a broadcast message: `(origin, per-origin seq)`.
/// Used by the consensus-based variant to deduplicate across batches.
pub(crate) type MsgKey = (StackId, u64);

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared scaffolding for the abcast variant tests, which run over
    //! [`testing::stack_over`]: drives the recording application on top
    //! and property-checks runs.

    use crate::testing;
    use bytes::Bytes;
    use dpu_core::{ModuleId, StackId};
    use dpu_sim::Sim;

    /// Module id of the variant under test in a [`testing::stack_over`]
    /// stack: m1 net, m2 udp, m3 rp2p, m4 fd, m5 consensus, m6 abcast,
    /// m7 app.
    pub const ABCAST: ModuleId = ModuleId(6);

    /// ABcast a payload from `node`.
    pub fn abcast(sim: &mut Sim, node: u32, payload: &[u8]) {
        let data = Bytes::copy_from_slice(payload);
        sim.with_stack(StackId(node), |s| testing::send(s, data));
    }

    /// The delivery sequence at `node`.
    pub fn delivered(sim: &mut Sim, node: u32) -> Vec<Bytes> {
        sim.with_stack(StackId(node), testing::log)
    }

    /// Assert the four atomic broadcast properties over the app logs of
    /// `nodes`, all non-crashed: each delivered `expected` payloads, none
    /// twice, and all in one order.
    pub fn assert_total_order(sim: &mut Sim, nodes: &[u32], expected: usize) {
        let logs: Vec<(String, Vec<Bytes>)> =
            nodes.iter().map(|&n| (format!("node {n}"), delivered(sim, n))).collect();
        testing::assert_prefix_agreement(&logs);
        let at = sim.now();
        for (who, log) in &logs {
            assert_eq!(
                log.len(),
                expected,
                "{who} delivered {} of {expected} at {at:?}",
                log.len()
            );
            testing::assert_no_duplicates(who, log);
        }
    }
}
