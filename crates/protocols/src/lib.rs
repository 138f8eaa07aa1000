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
//! [`dpu_core::ModuleSpec`] params): a fresh value per incarnation that
//! tags all of its wire messages and its consensus instances. Two
//! incarnations of the *same kind* (e.g. during the paper's
//! "replace CT-ABcast by CT-ABcast" experiment, §6.2) therefore never
//! confuse each other's traffic, while the modules themselves remain
//! completely unaware of the replacement machinery — the modularity
//! property the paper's structural solution is after.

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

/// RP2P/UDP channel allocation across the workspace (RP2P's own frames
/// use channel 0; see `dpu_net::rp2p::RP2P_UDP_CHANNEL`).
pub mod channels {
    /// Failure detector heartbeats (raw UDP).
    pub const FD: u16 = 1;
    /// Consensus messages (RP2P).
    pub const CONSENSUS: u16 = 3;
    /// Consensus-based atomic broadcast gossip (RP2P).
    pub const ABCAST_CT: u16 = 4;
    /// Sequencer atomic broadcast (RP2P).
    pub const ABCAST_SEQ: u16 = 5;
    /// Token-ring atomic broadcast (RP2P).
    pub const ABCAST_RING: u16 = 6;
    /// Maestro-style stack switch coordination (RP2P).
    pub const MAESTRO: u16 = 7;
    /// Graceful-Adaptation-style switch coordination (RP2P).
    pub const GRACEFUL: u16 = 8;
    /// Hierarchical atomic broadcast (RP2P).
    pub const ABCAST_HIER: u16 = 9;
}
