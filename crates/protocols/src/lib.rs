//! # dpu-protocols — the group communication protocol suite
//!
//! All protocol modules of the paper's adaptive middleware stack
//! (Figure 4), implemented as [`dpu_core::Module`]s:
//!
//! * [`fd::FdModule`] — a heartbeat failure detector approximating ◇S
//!   (eventually weak accuracy via adaptive timeouts);
//! * [`consensus::ConsensusModule`] — Chandra–Toueg ◇S consensus with a
//!   rotating coordinator, plus a fixed-preferred-coordinator policy
//!   variant (the second *agreement protocol* used by the consensus
//!   replacement experiment);
//! * [`abcast`] — four interchangeable atomic broadcast protocols
//!   satisfying the §5.1 specification: consensus-based
//!   ([`abcast::ct`]), fixed-sequencer ([`abcast::sequencer`]),
//!   privilege/token-ring ([`abcast::ring`]) and hierarchical
//!   per-cluster sequencers under a merge leader ([`abcast::hier`]);
//! * [`gm::GmModule`] — group membership (totally ordered views over
//!   atomic broadcast), optionally auto-excluding suspected members;
//! * [`rb::RbModule`] — unordered reliable broadcast (relay-on-first-
//!   delivery dissemination).
//!
//! ## Service graph
//!
//! ```text
//!   gm ──▶ abcast ──▶ consensus ──▶ fd
//!                │          │
//!                ▼          ▼
//!              rp2p ──▶   udp ──▶ net
//! ```
//!
//! Modules are wired by service *name*; the replacement layer of
//! `dpu-repl` interposes by renaming the callers' dependency (e.g. `gm`
//! is constructed to call `r-abcast` instead of `abcast`).
//!
//! ## Protocol incarnations
//!
//! Every atomic broadcast module carries a `namespace` (from its
//! [`dpu_core::ModuleSpec`] params): a fresh value per incarnation, rising
//! with every replacement. It is not in any frame. It is the incarnation
//! of the channel the module sends and listens on
//! (`channels::ABCAST_CT.at(namespace)`, and `consensus::USER` at it for
//! its decisions), and it keys its consensus instances. The stack routes
//! by that key, so two incarnations of the *same kind* (e.g. during the
//! paper's "replace CT-ABcast by CT-ABcast" experiment, §6.2) never see
//! each other's traffic. A frame for an incarnation this stack has not
//! created yet waits in the stack for its module, and one for an
//! incarnation older than a live one's is dropped there. The modules
//! compare no namespace and remain completely unaware of the replacement
//! machinery — the modularity property the paper's structural solution is
//! after. `consensus` does the same with its own `incarnation`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abcast;
pub mod consensus;
pub mod fd;
pub mod gm;
pub mod rb;
pub mod testing;

/// Service name of the failure detector.
pub const FD_SVC: &str = "fd";
/// Service name of distributed consensus.
pub const CONSENSUS_SVC: &str = "consensus";
/// Service name of atomic broadcast.
pub const ABCAST_SVC: &str = "abcast";
/// Service name of group membership.
pub const GM_SVC: &str = "gm";
/// Service name of (unordered) reliable broadcast.
pub const RB_SVC: &str = "rb";

/// The channel table: one base (< 16) per protocol, at incarnation 0.
/// On `udp` base 0 is `rp2p`'s own frames
/// (`dpu_net::rp2p::RP2P_UDP_CHANNEL`), and base 2 is free; on
/// `consensus` a user listens on `crate::consensus::USER` at its
/// namespace. A protocol that a replacement runs side by side with
/// itself keys its frames with its incarnation:
/// `ABCAST_CT.at(namespace)`.
pub mod channels {
    use dpu_core::Channel;

    /// Failure detector heartbeats (raw UDP).
    pub const FD: Channel = Channel::new(1, 0);
    /// Consensus messages (RP2P), at the consensus incarnation.
    pub(crate) const CONSENSUS: Channel = Channel::new(3, 0);
    /// Consensus-based atomic broadcast gossip (RP2P), at the namespace.
    pub(crate) const ABCAST_CT: Channel = Channel::new(4, 0);
    /// Sequencer atomic broadcast (RP2P), at the namespace.
    pub(crate) const ABCAST_SEQ: Channel = Channel::new(5, 0);
    /// Token-ring atomic broadcast (RP2P), at the namespace.
    pub(crate) const ABCAST_RING: Channel = Channel::new(6, 0);
    /// Maestro-style stack switch coordination (RP2P).
    pub const MAESTRO: Channel = Channel::new(7, 0);
    /// Graceful-Adaptation-style switch coordination (RP2P).
    pub const GRACEFUL: Channel = Channel::new(8, 0);
    /// Hierarchical atomic broadcast (RP2P), at the namespace.
    pub(crate) const ABCAST_HIER: Channel = Channel::new(9, 0);
    /// Reliable broadcast (RP2P).
    pub(crate) const RB: Channel = Channel::new(10, 0);
}
