//! The network topology layer: per-link and per-cluster [`NetConfig`]s
//! plus dynamic partitions, lifting the network model from one global
//! config (the paper's single switched LAN) to shapes a thousand-node
//! deployment actually has — racks of machines on fast local links joined
//! by a slower backbone.
//!
//! A [`Topology`] answers one question for the simulator's send path:
//! *which [`NetConfig`] governs the link `src → dst` right now?* Lookup
//! precedence is per-link override → cluster membership (intra-cluster
//! config vs. backbone config) → the flat default. Partitions live here
//! too and are fully dynamic: scenario code can cut and heal node pairs
//! or whole clusters at any virtual time.

use dpu_core::time::Dur;
use dpu_core::StackId;
use std::collections::{BTreeMap, BTreeSet};

/// Network model parameters for one link class (the flat default models
/// the paper's 100BaseTX switched Ethernet).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Base one-way propagation + switching delay.
    pub latency: Dur,
    /// Uniform jitter added on top of `latency`: `[0, jitter)`.
    pub jitter: Dur,
    /// Link bandwidth in bits per second; transmission delay is
    /// `8 * (size + header) / bandwidth`.
    pub bandwidth_bps: u64,
    /// Fixed per-datagram header bytes (UDP/IP/Ethernet framing).
    pub header_bytes: usize,
    /// Probability a datagram is dropped.
    pub loss: f64,
    /// Probability a datagram is duplicated (delivered twice).
    pub duplicate: f64,
}

impl NetConfig {
    /// A healthy switched 100 Mb/s LAN — the paper's §6.1 testbed
    /// (switched 100BaseTX, sub-0.1 ms one-way delay).
    pub fn lan() -> NetConfig {
        NetConfig {
            latency: Dur::micros(60),
            jitter: Dur::micros(30),
            bandwidth_bps: 100_000_000,
            header_bytes: 54,
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// A lossy LAN for fault-injection tests.
    pub fn lossy(loss: f64) -> NetConfig {
        NetConfig { loss, ..NetConfig::lan() }
    }

    /// A wide-area backbone link: ~15 ms one-way propagation with a few
    /// milliseconds of queueing jitter, 50 Mb/s of usable per-flow
    /// bandwidth, and a small residual loss rate. The numbers model a
    /// continental path (1500–3000 km of fiber at ~5 µs/km plus router
    /// hops gives 10–20 ms one-way) with DiffServ-style constrained
    /// bandwidth, in the spirit of Gan Chaudhuri's QoS-on-constrained-IP
    /// latency/throughput modeling; 10⁻⁴ loss is a healthy provider SLA.
    pub fn wan() -> NetConfig {
        NetConfig {
            latency: Dur::millis(15),
            jitter: Dur::millis(3),
            bandwidth_bps: 50_000_000,
            header_bytes: 54,
            loss: 0.0001,
            duplicate: 0.0,
        }
    }

    /// A modern datacenter fabric link: 10 Gb/s host NICs with a
    /// two-tier Clos fabric giving ~10 µs one-way latency (≈ 2–5 µs
    /// per switch hop plus serialization) and low microburst jitter.
    /// This is the preset the ≥1024-stack experiments use for
    /// intra-cluster traffic — at 10 Gb/s a 150-byte datagram
    /// serializes in ~0.12 µs, so a sequencer fanning out to 1024
    /// peers is latency-bound, not transmission-bound.
    pub fn datacenter() -> NetConfig {
        NetConfig {
            latency: Dur::micros(10),
            jitter: Dur::micros(5),
            bandwidth_bps: 10_000_000_000,
            header_bytes: 54,
            loss: 0.0,
            duplicate: 0.0,
        }
    }
}

/// Per-link / per-cluster network configuration with dynamic partitions.
///
/// Built once and handed to [`crate::SimConfig`]; the simulator consults
/// [`Topology::link`] on every send and [`Topology::blocked`] for the
/// partition check.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Flat default, used when no override or cluster rule applies: the
    /// one link config of a flat topology, the intra-cluster one of a
    /// clustered topology.
    default: NetConfig,
    /// Nodes per cluster (`None` = flat topology, every pair uses
    /// `default`). Node `i` belongs to cluster `i / cluster_size`.
    cluster_size: Option<u32>,
    /// Config for links between different clusters (the WAN backbone).
    backbone: Option<NetConfig>,
    /// Per-link overrides, highest precedence. Directed: `(src, dst)`.
    links: BTreeMap<(StackId, StackId), NetConfig>,
    /// Ordered pairs `(a, b)` such that packets a→b are blocked.
    partitions: BTreeSet<(StackId, StackId)>,
}

impl Topology {
    /// A flat topology: every link uses `net` (the pre-topology
    /// behavior, and what [`crate::SimConfig::lan`] builds).
    pub fn flat(net: NetConfig) -> Topology {
        Topology {
            default: net,
            cluster_size: None,
            backbone: None,
            links: BTreeMap::new(),
            partitions: BTreeSet::new(),
        }
    }

    /// Clusters of `cluster_size` nodes on `intra` links, joined by a
    /// `backbone` for inter-cluster traffic — the LAN-cluster + WAN-
    /// backbone preset (e.g. `clustered(64, NetConfig::datacenter(),
    /// NetConfig::wan())` models 16 racks of 64 joined by a WAN at
    /// n = 1024).
    pub fn clustered(cluster_size: u32, intra: NetConfig, backbone: NetConfig) -> Topology {
        assert!(cluster_size > 0, "cluster_size must be positive");
        Topology {
            default: intra,
            cluster_size: Some(cluster_size),
            backbone: Some(backbone),
            links: BTreeMap::new(),
            partitions: BTreeSet::new(),
        }
    }

    /// The cluster node `id` belongs to (0 in a flat topology).
    pub fn cluster_of(&self, id: StackId) -> u32 {
        match self.cluster_size {
            Some(sz) => id.0 / sz,
            None => 0,
        }
    }

    /// Override the config of the directed link `src → dst`.
    pub fn set_link(&mut self, src: StackId, dst: StackId, cfg: NetConfig) {
        self.links.insert((src, dst), cfg);
    }

    /// The config governing `src → dst`: per-link override, else the
    /// backbone for inter-cluster pairs, else the default.
    pub fn link(&self, src: StackId, dst: StackId) -> &NetConfig {
        if !self.links.is_empty() {
            if let Some(cfg) = self.links.get(&(src, dst)) {
                return cfg;
            }
        }
        if let Some(backbone) = &self.backbone {
            if self.cluster_of(src) != self.cluster_of(dst) {
                return backbone;
            }
        }
        &self.default
    }

    /// Set the loss probability of the default config and, if clustered,
    /// the backbone (`Sim::set_loss`); per-link overrides are left
    /// alone.
    pub(crate) fn set_loss(&mut self, loss: f64) {
        self.default.loss = loss;
        if let Some(backbone) = &mut self.backbone {
            backbone.loss = loss;
        }
    }

    /// Block traffic in both directions between the two node groups.
    pub fn partition(&mut self, a: &[StackId], b: &[StackId]) {
        for &x in a {
            for &y in b {
                self.partitions.insert((x, y));
                self.partitions.insert((y, x));
            }
        }
    }

    /// Block all traffic between two clusters (both directions). `n` is
    /// the total node count of the simulation.
    pub fn partition_clusters(&mut self, a: u32, b: u32, n: u32) {
        let members = |c: u32| -> Vec<StackId> {
            (0..n).map(StackId).filter(|&id| self.cluster_of(id) == c).collect()
        };
        let (ma, mb) = (members(a), members(b));
        self.partition(&ma, &mb);
    }

    /// Remove all partitions.
    pub fn heal_partitions(&mut self) {
        self.partitions.clear();
    }

    /// Whether `src → dst` is currently blocked by a partition.
    #[inline]
    pub fn blocked(&self, src: StackId, dst: StackId) -> bool {
        !self.partitions.is_empty() && self.partitions.contains(&(src, dst))
    }

    /// Number of clusters an `n`-node simulation has under this
    /// topology (1 for flat topologies).
    pub(crate) fn cluster_count(&self, n: u32) -> u32 {
        match self.cluster_size {
            Some(sz) => n.div_ceil(sz).max(1),
            None => 1,
        }
    }

    /// Nodes per cluster (`None` for flat topologies).
    pub fn cluster_size(&self) -> Option<u32> {
        self.cluster_size
    }

    /// The conservative-parallel-simulation *lookahead*: a lower bound
    /// on the delay of every packet that crosses a cluster boundary,
    /// i.e. the minimum cross-cluster link latency (jitter, transmission
    /// delay and NIC queueing only ever add to it). The parallel engine
    /// ([`crate::par`]) may advance each cluster independently through a
    /// window of this width, because no event inside the window can be
    /// affected by another cluster's events in the same window.
    ///
    /// `None` when the topology has at most one cluster for `n` nodes
    /// (no cross-cluster traffic exists, the window is unbounded).
    /// Per-link overrides are part of the minimum; they must be
    /// installed before the `Sim` is built, which the `Sim` API
    /// enforces (partitions and loss changes do not lower latency).
    pub fn lookahead(&self, n: u32) -> Option<Dur> {
        if self.cluster_count(n) <= 1 {
            return None;
        }
        let base = self.backbone.as_ref().unwrap_or(&self.default).latency;
        let mut la = base;
        for ((src, dst), cfg) in &self.links {
            if self.cluster_of(*src) != self.cluster_of(*dst) {
                la = la.min(cfg.latency);
            }
        }
        Some(la)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_uses_default_everywhere() {
        let t = Topology::flat(NetConfig::lan());
        assert_eq!(t.link(StackId(0), StackId(5)).bandwidth_bps, 100_000_000);
        assert_eq!(t.cluster_of(StackId(9)), 0);
    }

    #[test]
    fn clustered_topology_routes_inter_cluster_over_backbone() {
        let t = Topology::clustered(4, NetConfig::datacenter(), NetConfig::wan());
        // 0..4 cluster 0, 4..8 cluster 1.
        assert_eq!(t.cluster_of(StackId(3)), 0);
        assert_eq!(t.cluster_of(StackId(4)), 1);
        assert_eq!(t.link(StackId(0), StackId(3)).latency, Dur::micros(10));
        assert_eq!(t.link(StackId(0), StackId(4)).latency, Dur::millis(15));
        assert_eq!(t.link(StackId(4), StackId(0)).latency, Dur::millis(15));
    }

    #[test]
    fn link_override_beats_cluster_rule() {
        let mut t = Topology::clustered(2, NetConfig::lan(), NetConfig::wan());
        t.set_link(StackId(0), StackId(3), NetConfig::lossy(0.5));
        assert!(t.link(StackId(0), StackId(3)).loss > 0.4);
        // Only the overridden direction changes.
        assert_eq!(t.link(StackId(3), StackId(0)).loss, NetConfig::wan().loss);
    }

    #[test]
    fn lookahead_is_min_cross_cluster_latency() {
        let flat = Topology::flat(NetConfig::lan());
        assert_eq!(flat.lookahead(8), None, "flat topologies have no cross-cluster links");
        let t = Topology::clustered(4, NetConfig::datacenter(), NetConfig::wan());
        assert_eq!(t.cluster_count(8), 2);
        assert_eq!(t.lookahead(8), Some(Dur::millis(15)), "backbone latency bounds the window");
        assert_eq!(t.lookahead(4), None, "a single populated cluster has no cross traffic");
        // A faster cross-cluster override lowers the bound; an
        // intra-cluster override does not.
        let mut t = Topology::clustered(4, NetConfig::datacenter(), NetConfig::wan());
        t.set_link(
            StackId(0),
            StackId(1),
            NetConfig { latency: Dur::nanos(5), ..NetConfig::lan() },
        );
        assert_eq!(t.lookahead(8), Some(Dur::millis(15)));
        t.set_link(
            StackId(0),
            StackId(5),
            NetConfig { latency: Dur::micros(2), ..NetConfig::lan() },
        );
        assert_eq!(t.lookahead(8), Some(Dur::micros(2)));
    }

    #[test]
    fn cluster_partitions_cut_and_heal() {
        let mut t = Topology::clustered(2, NetConfig::lan(), NetConfig::lan());
        t.partition_clusters(0, 1, 6);
        assert!(t.blocked(StackId(0), StackId(2)));
        assert!(t.blocked(StackId(3), StackId(1)));
        assert!(!t.blocked(StackId(0), StackId(1)));
        assert!(!t.blocked(StackId(2), StackId(3)));
        t.heal_partitions();
        assert!(!t.blocked(StackId(0), StackId(2)));
    }
}
