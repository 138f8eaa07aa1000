//! Hierarchical atomic broadcast: per-cluster local sequencers under a
//! fixed leader-cluster merge.
//!
//! The flat sequencer protocol funnels every broadcast through one
//! stack: at n = 1024 the sequencer's n-way fan-out makes its cluster
//! the hot shard of the parallel simulation engine and caps available
//! parallelism — the per-shard event sum over the busiest shard's
//! count, whose inverse the benchmark reports as `sim.hot_shard_share`
//! — near 2× of a possible 16. This variant decentralizes the fan-out
//! along the topology (12.3× where the flat sequencer leaves 2.5×, at
//! n = 256: `crates/bench/tests/par_soak.rs`):
//!
//! * **Local sequencer** — the lowest-id member of each topology
//!   cluster orders its cluster's broadcasts into a *cluster stream*:
//!   it stamps consecutive local sequence numbers `k` and forwards
//!   `Fwd{cluster, k, key, data}` to the merge leader.
//! * **Leader merge** — the globally lowest id (the first cluster's
//!   sequencer) deterministically interleaves the cluster streams into
//!   one total order: within a stream, entries commit in local-sequence
//!   order (`k`-contiguous per forwarder); across streams, in arrival
//!   order at the leader. Each commit is assigned the next global
//!   sequence number `g` and sent to exactly one *relay* per cluster.
//! * **Relay fan-out** — each cluster's relay (initially its local
//!   sequencer) re-broadcasts `Rly{g, key, data}` inside its own
//!   cluster; members deliver in contiguous `g` order.
//!
//! Per broadcast the leader therefore touches `C` relays (cluster
//! count), not `n` members, and the `n`-message payload fan-out is
//! spread over all clusters — which is exactly what lets the per-shard
//! event counts balance in the parallel engine.
//!
//! Cluster membership comes from the host only: stack `i` belongs to
//! cluster `i / cluster_size`, with `cluster_size` taken from
//! [`dpu_core::stack::StackConfig::cluster_size`] (the simulator plumbs
//! its `sim::topology` value there); without one the whole group is one
//! cluster. Under the flat runtime host the protocol thus degenerates
//! to a single cluster — one sequencer that is its own leader and
//! relay, behaviorally the fixed-sequencer protocol with one extra
//! local hop.
//!
//! ## Fault tolerance
//!
//! A *local* sequencer crash is recovered: members whose pending
//! broadcasts stall past the `resend` timeout rotate to the next
//! cluster member in id order and re-send. Any member acts as sequencer
//! when addressed (safe: the leader deduplicates by message key and
//! treats each forwarder as its own stream); an acting non-primary
//! sequencer first *claims* the cluster's relay role, which makes the
//! leader replay its commit log so the cluster rejoins the total order
//! without a gap. The merge leader itself remains a single point of
//! failure, like the flat sequencer — the paper's motivation for
//! switching *to* such cheap protocols only in stable conditions (and
//! away from them when the environment degrades). An inter-cluster
//! partition only delays: forwards, claims and commits sit in RP2P's
//! retransmit queues and the streams resume on heal.

use super::{ops, MsgKey};
use crate::channels;
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Dur;
use dpu_core::{
    Call, Channel, InOrder, IntervalSet, Module, Response, ServiceId, StackId, TimerId,
};
use dpu_net::dgram;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Module kind name, for factory registration.
pub const KIND: &str = "abcast.hier";

/// Factory parameters of the hierarchical atomic broadcast. The module
/// provides [`crate::ABCAST_SVC`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierAbcastParams {
    /// Incarnation namespace: the incarnation of the channel this module
    /// sends and listens on.
    pub namespace: u64,
    /// Stall timeout: a member whose pending broadcasts make no
    /// progress for this long rotates to the next local-sequencer
    /// candidate and re-sends. Must sit well above the steady-state
    /// delivery latency or rotation churns (safely, but wastefully).
    pub resend: Dur,
}

impl Default for HierAbcastParams {
    fn default() -> Self {
        HierAbcastParams { namespace: 0, resend: Dur::millis(1500) }
    }
}

dpu_core::wire_codec!(HierAbcastParams { namespace, resend });

enum Frame {
    /// tag 0: member → its cluster's (believed) local sequencer.
    Req { key: MsgKey, data: Bytes },
    /// tag 1: acting local sequencer → merge leader; `k` is consecutive
    /// per forwarder `from`, making each forwarder one FIFO stream.
    Fwd { cluster: u32, k: u64, from: StackId, key: MsgKey, data: Bytes },
    /// tag 2: leader → one relay per cluster; `g` is the global
    /// sequence number.
    Commit { g: u64, key: MsgKey, data: Bytes },
    /// tag 3: relay → its cluster's members.
    Rly { g: u64, key: MsgKey, data: Bytes },
    /// tag 4: acting non-primary sequencer → leader: take over the
    /// cluster's relay role and replay the commit log.
    Claim { cluster: u32, from: StackId },
}

dpu_core::wire_codec!(enum Frame {
    0 => Req { key, data },
    1 => Fwd { cluster, k, from, key, data },
    2 => Commit { g, key, data },
    3 => Rly { g, key, data },
    4 => Claim { cluster, from },
});

/// The cluster layout as this stack sees it. It depends only on the peer
/// table and the cluster size, both fixed for a stack's life, so a module
/// works it out once, on first use.
struct Clusters {
    /// This stack's cluster.
    mine: u32,
    /// Its members, in peer-table order (the candidate list).
    members: Vec<StackId>,
    /// Each cluster's primary, its first member: the leader's relay to
    /// that cluster until a claim replaces it.
    primaries: BTreeMap<u32, StackId>,
}

/// The hierarchical atomic broadcast module. See module docs.
pub struct HierAbcastModule {
    params: HierAbcastParams,
    svc: ServiceId,
    rp2p_svc: ServiceId,
    clusters: OnceCell<Clusters>,
    // -- member state --
    /// Per-origin sequence for this stack's own broadcasts. Lazily
    /// seeded from the virtual clock so a churn-restarted incarnation
    /// never reuses the keys of its predecessor.
    next_oseq: Option<u64>,
    /// Own broadcasts not yet delivered back, for stall detection and
    /// failover re-sends.
    pending: BTreeMap<MsgKey, Bytes>,
    /// Rotation index into the cluster's candidate list.
    seq_idx: usize,
    /// Whether any own pending broadcast was delivered since the last
    /// stall-timer tick.
    progress: bool,
    timer_armed: bool,
    /// Committed entries, delivered in global sequence order.
    order: InOrder<(MsgKey, Bytes)>,
    deliveries: u64,
    // -- acting-sequencer state --
    /// Next local sequence number of this forwarder's stream.
    next_k: u64,
    /// Keys already forwarded (dedup of member re-sends).
    fwd_seen: IntervalSet<StackId>,
    /// Whether this non-primary node has claimed the relay role.
    claimed: bool,
    // -- leader state --
    next_g: u64,
    /// Keys already committed (dedup across forwarders). Like `fwd_seen`
    /// one run per origin: an origin numbers its broadcasts consecutively
    /// from a clock-seeded start.
    committed: IntervalSet<StackId>,
    /// The commit log, indexed by `g` — replayed to claiming relays.
    log: Vec<(MsgKey, Bytes)>,
    /// Current relay per cluster, where it differs from the primary.
    relays: BTreeMap<u32, StackId>,
    /// One stream per forwarder: its entries commit in local-sequence
    /// order, held until `k`-contiguous.
    streams: BTreeMap<StackId, InOrder<(MsgKey, Bytes)>>,
}

impl HierAbcastModule {
    /// Build with explicit parameters.
    pub fn new(params: HierAbcastParams) -> HierAbcastModule {
        HierAbcastModule {
            params,
            svc: ServiceId::new(crate::ABCAST_SVC),
            rp2p_svc: ServiceId::new(dpu_net::RP2P_SVC),
            clusters: OnceCell::new(),
            next_oseq: None,
            pending: BTreeMap::new(),
            seq_idx: 0,
            progress: false,
            timer_armed: false,
            order: InOrder::new(),
            deliveries: 0,
            next_k: 0,
            fwd_seen: IntervalSet::new(),
            claimed: false,
            next_g: 0,
            committed: IntervalSet::new(),
            log: Vec::new(),
            relays: BTreeMap::new(),
            streams: BTreeMap::new(),
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, HierAbcastModule::new);
    }

    /// Messages Adelivered by this module.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Commits assigned so far (meaningful on the merge leader only).
    pub fn commits(&self) -> u64 {
        self.next_g
    }

    /// The cluster of stack `id`, by the host's cluster size; a flat
    /// host is one group-wide cluster.
    fn cluster_of(ctx: &ModuleCtx<'_>, id: StackId) -> u32 {
        id.0 / ctx.cluster_size().unwrap_or(u32::MAX).max(1)
    }

    fn clusters(&self, ctx: &ModuleCtx<'_>) -> &Clusters {
        self.clusters.get_or_init(|| {
            let mine = Self::cluster_of(ctx, ctx.stack_id());
            let mut primaries = BTreeMap::new();
            for &p in ctx.peers() {
                primaries.entry(Self::cluster_of(ctx, p)).or_insert(p);
            }
            let members =
                ctx.peers().iter().copied().filter(|&p| Self::cluster_of(ctx, p) == mine).collect();
            Clusters { mine, members, primaries }
        })
    }

    /// The merge leader: the globally lowest id.
    fn leader(ctx: &ModuleCtx<'_>) -> StackId {
        ctx.peers().iter().copied().fold(ctx.stack_id(), StackId::min)
    }

    /// The local sequencer this member currently believes in: the
    /// candidate list rotated by the stall counter.
    fn believed_sequencer(&self, ctx: &ModuleCtx<'_>) -> StackId {
        let c = &self.clusters(ctx).members;
        c[self.seq_idx % c.len()]
    }

    /// This incarnation's channel.
    fn channel(&self) -> Channel {
        channels::ABCAST_HIER.at(self.params.namespace)
    }

    /// Act as this cluster's sequencer for one request (any member may
    /// be addressed after failover rotation; the leader's per-forwarder
    /// streams and key dedup make concurrent actors safe).
    fn handle_req(&mut self, ctx: &mut ModuleCtx<'_>, key: MsgKey, data: Bytes) {
        let clusters = self.clusters(ctx);
        let my_cluster = clusters.mine;
        let primary = clusters.members.first() == Some(&ctx.stack_id());
        if Self::cluster_of(ctx, key.0) != my_cluster || !self.fwd_seen.insert(key) {
            return;
        }
        let leader = Self::leader(ctx);
        if !primary && !self.claimed {
            // First time acting in the primary's stead: take over the
            // relay role before the forward, so the leader replays the
            // log (RP2P is FIFO per link — the claim arrives first).
            self.claimed = true;
            let claim = Frame::Claim { cluster: my_cluster, from: ctx.stack_id() };
            dgram::send(ctx, &self.rp2p_svc, leader, self.channel(), &claim);
        }
        let k = self.next_k;
        self.next_k += 1;
        let fwd = Frame::Fwd { cluster: my_cluster, k, from: ctx.stack_id(), key, data };
        dgram::send(ctx, &self.rp2p_svc, leader, self.channel(), &fwd);
    }

    /// Leader: commit one stream entry and fan it out to the relays.
    fn commit(&mut self, ctx: &mut ModuleCtx<'_>, key: MsgKey, data: Bytes) {
        if !self.committed.insert(key) {
            return;
        }
        let g = self.next_g;
        self.next_g += 1;
        self.log.push((key, data.clone()));
        // One relay per cluster: its primary (first member) until a claim
        // replaces it.
        let relays = (self.clusters(ctx).primaries.iter())
            .map(|(c, &primary)| self.relays.get(c).copied().unwrap_or(primary));
        let commit = Frame::Commit { g, key, data };
        dgram::send_many(ctx, &self.rp2p_svc, relays, self.channel(), &commit);
    }

    /// Member: file a committed entry at its global position and
    /// deliver the contiguous prefix.
    fn file(&mut self, ctx: &mut ModuleCtx<'_>, g: u64, key: MsgKey, data: Bytes) {
        for (key, data) in self.order.offer(g, (key, data)) {
            self.deliveries += 1;
            if self.pending.remove(&key).is_some() {
                self.progress = true;
            }
            ctx.respond(&self.svc, ops::ADELIVER, data);
        }
    }

    fn arm_timer(&mut self, ctx: &mut ModuleCtx<'_>) {
        if !self.timer_armed {
            self.timer_armed = true;
            ctx.set_timer(self.params.resend, 1);
        }
    }
}

impl Module for HierAbcastModule {
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
        // Seed the per-origin sequence from the clock on first use: a
        // churn-restarted incarnation starts at a later virtual time,
        // so its keys never collide with its predecessor's at the
        // leader's dedup set (deterministic — no wall clock involved).
        let oseq = *self
            .next_oseq
            .get_or_insert_with(|| ctx.now().as_nanos().wrapping_mul(0x9E3779B97F4A7C15));
        self.next_oseq = Some(oseq + 1);
        let key = (ctx.stack_id(), oseq);
        self.pending.insert(key, call.data.clone());
        let seqr = self.believed_sequencer(ctx);
        let req = Frame::Req { key, data: call.data };
        dgram::send(ctx, &self.rp2p_svc, seqr, self.channel(), &req);
        self.arm_timer(ctx);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let Some((_, frame)) = dgram::recv(&resp, &self.rp2p_svc, self.channel()) else { return };
        match frame {
            Frame::Req { key, data } => self.handle_req(ctx, key, data),
            Frame::Fwd { k, from, key, data, .. } => {
                if ctx.stack_id() != Self::leader(ctx) {
                    return;
                }
                // The stream is out of the map while it commits (a
                // duplicate releases nothing).
                let mut stream = std::mem::take(self.streams.entry(from).or_default());
                for (key, data) in stream.offer(k, (key, data)) {
                    self.commit(ctx, key, data);
                }
                self.streams.insert(from, stream);
            }
            Frame::Commit { g, key, data } => {
                // Fan out inside the cluster, then file locally.
                let me = ctx.stack_id();
                let members = self.clusters(ctx).members.iter().copied().filter(|&p| p != me);
                let rly = Frame::Rly { g, key, data: data.clone() };
                dgram::send_many(ctx, &self.rp2p_svc, members, self.channel(), &rly);
                self.file(ctx, g, key, data);
            }
            Frame::Rly { g, key, data } => self.file(ctx, g, key, data),
            Frame::Claim { cluster, from } => {
                if ctx.stack_id() != Self::leader(ctx) {
                    return;
                }
                self.relays.insert(cluster, from);
                // Replay the whole log to the claiming relay: a crashed
                // primary may have left any subset of its cluster at any
                // delivery depth, and re-relayed positions a member has
                // delivered are refused idempotently.
                for (g, (key, data)) in self.log.clone().into_iter().enumerate() {
                    let commit = Frame::Commit { g: g as u64, key, data };
                    dgram::send(ctx, &self.rp2p_svc, from, self.channel(), &commit);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _id: TimerId, _tag: u64) {
        self.timer_armed = false;
        if self.pending.is_empty() {
            return;
        }
        if self.progress {
            // Deliveries of our own messages are flowing — the believed
            // sequencer is alive, just loaded. Keep waiting.
            self.progress = false;
        } else {
            // Stalled: rotate to the next candidate and re-send
            // everything outstanding (the leader deduplicates).
            self.seq_idx += 1;
            for (key, data) in self.pending.clone() {
                let seqr = self.believed_sequencer(ctx);
                dgram::send(ctx, &self.rp2p_svc, seqr, self.channel(), &Frame::Req { key, data });
            }
        }
        self.arm_timer(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abcast::testkit::{abcast, assert_total_order, delivered};
    use crate::testing::stack_over;
    use dpu_core::time::Time;
    use dpu_core::wire;
    use dpu_sim::{NetConfig, Sim, SimConfig};

    fn hier_default() -> Box<dyn Module> {
        Box::new(HierAbcastModule::new(HierAbcastParams::default()))
    }

    fn flat_sim(n: u32, seed: u64) -> Sim {
        Sim::new(SimConfig::lan(n, seed), |sc| stack_over(sc, hier_default()))
    }

    /// 3-node clusters on a datacenter fabric over a LAN backbone; the
    /// cluster size reaches the module through the stack config.
    fn clustered_sim(n: u32, seed: u64) -> Sim {
        let cfg = SimConfig::clustered(n, seed, 3, NetConfig::datacenter(), NetConfig::lan());
        Sim::new(cfg, |sc| stack_over(sc, hier_default()))
    }

    #[test]
    fn frame_and_params_wire_contract() {
        use dpu_core::wire::testing::assert_wire_contract;
        let key = (StackId(3), 77u64);
        let frames = [
            Frame::Req { key, data: Bytes::from_static(b"m") },
            Frame::Fwd { cluster: 2, k: 9, from: StackId(6), key, data: Bytes::from_static(b"f") },
            Frame::Commit { g: 4, key, data: Bytes::from_static(b"c") },
            Frame::Rly { g: 5, key, data: Bytes::from_static(b"r") },
            Frame::Claim { cluster: 1, from: StackId(4) },
        ];
        for frame in &frames {
            assert_wire_contract(frame);
        }
        assert_wire_contract(&HierAbcastParams::default());
        use dpu_core::wire::testing::assert_wire_bytes;
        let pinned: [&[u8]; 5] = [
            &[0, 3, 77, 1, b'm'],
            &[1, 2, 9, 6, 3, 77, 1, b'f'],
            &[2, 4, 3, 77, 1, b'c'],
            &[3, 5, 3, 77, 1, b'r'],
            &[4, 1, 4],
        ];
        for (frame, bytes) in frames.iter().zip(pinned) {
            assert_wire_bytes(frame, bytes);
        }
        let params = HierAbcastParams { namespace: 1, resend: Dur::nanos(300) };
        assert_wire_bytes(&params, &[1, 0xac, 0x02]);
    }

    #[test]
    fn single_message_delivered_everywhere_on_flat_host() {
        // Flat topology: the single-cluster degeneration.
        let mut sim = flat_sim(3, 42);
        sim.run_until(Time::ZERO + Dur::millis(50));
        abcast(&mut sim, 1, b"hello");
        sim.run_until(Time::ZERO + Dur::secs(1));
        assert_total_order(&mut sim, &[0, 1, 2], 1);
    }

    #[test]
    fn singleton_group_delivers_to_itself() {
        let mut sim = flat_sim(1, 8);
        sim.run_until(Time::ZERO + Dur::millis(50));
        abcast(&mut sim, 0, b"solo");
        sim.run_until(Time::ZERO + Dur::secs(1));
        assert_total_order(&mut sim, &[0], 1);
    }

    #[test]
    fn concurrent_senders_totally_ordered_across_clusters() {
        // 9 nodes in 3 clusters; senders in every cluster.
        let mut sim = clustered_sim(9, 7);
        sim.run_until(Time::ZERO + Dur::millis(50));
        for i in 0..9u32 {
            for j in 0..6u8 {
                abcast(&mut sim, i, &[i as u8, j]);
            }
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        assert_total_order(&mut sim, &[0, 1, 2, 3, 4, 5, 6, 7, 8], 54);
    }

    #[test]
    fn fifo_per_sender_is_preserved_by_the_stream_merge() {
        // RP2P is FIFO, the local sequencer forwards in arrival order
        // and the leader commits each stream k-contiguously, so one
        // sender's messages keep their send order.
        let mut sim = clustered_sim(6, 3);
        sim.run_until(Time::ZERO + Dur::millis(50));
        for j in 0..20u8 {
            abcast(&mut sim, 4, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(3));
        let d = delivered(&mut sim, 1);
        let order: Vec<u8> = d.iter().map(|b| b[0]).collect();
        assert_eq!(order, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn loss_is_recovered_by_rp2p_underneath() {
        let cfg = SimConfig::clustered(6, 11, 3, NetConfig::lossy(0.2), NetConfig::lossy(0.2));
        let mut sim = Sim::new(cfg, |sc| stack_over(sc, hier_default()));
        sim.run_until(Time::ZERO + Dur::millis(50));
        for j in 0..10u8 {
            abcast(&mut sim, 5, &[j]);
        }
        sim.run_until(Time::ZERO + Dur::secs(10));
        assert_total_order(&mut sim, &[0, 1, 2, 3, 4, 5], 10);
    }

    #[test]
    fn local_sequencer_crash_fails_over_without_a_gap() {
        // Crash cluster 1's primary (node 3) mid-stream: members rotate
        // to node 4, which claims the relay role; the log replay closes
        // the gap and the survivors converge on one total order.
        let params = HierAbcastParams { resend: Dur::millis(250), ..HierAbcastParams::default() };
        let cfg = SimConfig::clustered(9, 21, 3, NetConfig::datacenter(), NetConfig::lan());
        let mut sim = Sim::new(cfg, move |sc| {
            let params = params.clone();
            stack_over(sc, Box::new(HierAbcastModule::new(params)))
        });
        sim.run_until(Time::ZERO + Dur::millis(50));
        for i in 0..9u32 {
            abcast(&mut sim, i, &[0, i as u8]);
        }
        sim.run_until(Time::ZERO + Dur::millis(400));
        sim.crash_at(sim.now(), StackId(3));
        sim.run_until(Time::ZERO + Dur::millis(500));
        // Post-crash traffic from every surviving stack, including the
        // orphaned cluster members 4 and 5.
        for i in [0u32, 1, 2, 4, 5, 6, 7, 8] {
            abcast(&mut sim, i, &[1, i as u8]);
        }
        sim.run_until(Time::ZERO + Dur::secs(12));
        let survivors = [0u32, 1, 2, 4, 5, 6, 7, 8];
        assert_total_order(&mut sim, &survivors, 17);
    }

    #[test]
    fn params_roundtrip_and_factory() {
        let p = HierAbcastParams { namespace: 5, resend: Dur::millis(700) };
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<HierAbcastParams>(&b).unwrap(), p);
        let mut reg = dpu_core::FactoryRegistry::new();
        HierAbcastModule::register(&mut reg);
        let m = reg.build(&dpu_core::ModuleSpec::with_params(KIND, &p)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new(crate::ABCAST_SVC)]);
    }
}
