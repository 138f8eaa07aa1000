//! The CT module (paper Figure 4): distributed consensus using the
//! **Chandra–Toueg ◇S algorithm** with a rotating coordinator
//! (JACM 43(2), 1996), as used by the paper's atomic broadcast.
//!
//! # Algorithm sketch (per instance)
//!
//! Rounds are asynchronous; round `r` has a coordinator determined by the
//! [`CoordPolicy`].
//!
//! 1. every process sends its current *estimate* (with the round in which
//!    it was last adopted, its `ts`) to the coordinator of `r`;
//! 2. the coordinator collects a majority of estimates, picks the one with
//!    the largest `ts`, and proposes it to all;
//! 3. a process receiving the proposal adopts it (`ts ← r`) and *acks*;
//!    a process that instead comes to suspect the coordinator (via the
//!    `fd` service) *nacks* and moves to round `r + 1`;
//! 4. on a majority of acks the coordinator decides and reliably
//!    broadcasts the decision (every receiver relays it once).
//!
//! Safety (no two processes decide differently) holds under any failure
//! detector behaviour; liveness needs ◇S and a majority of correct
//! processes — exactly the assumptions of the paper.
//!
//! # Service interface (`consensus`, instance-keyed)
//!
//! Instances are identified by `(namespace, k)`: the namespace isolates
//! independent users (e.g. two incarnations of atomic broadcast around a
//! dynamic protocol update) and `k` is the user's instance counter.
//!
//! * call [`ops::PROPOSE`] — `(ns, k, value)`;
//! * response [`ops::DECIDE`] — `(ns, k, value)`;
//! * response [`ops::NEED_PROPOSAL`] — `(ns, k)`: the instance is running
//!   remotely but has no local proposal yet; users should propose.
//!
//! # Variants
//!
//! [`CoordPolicy::Rotating`] is the textbook CT schedule (kind
//! `consensus.ct`). [`CoordPolicy::InstanceOffset`] rotates the *starting*
//! coordinator with the instance number (kind `consensus.offset`),
//! spreading coordinator load across instances — the second agreement
//! protocol used by the consensus-replacement experiment (paper §7 /
//! ref \[16\]).

use crate::channels;
use bytes::{Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::wire::{Decode, Encode, WireError, WireResult};
use dpu_core::{Call, Module, Response, ServiceId, StackId};
use dpu_net::dgram::{self, Dgram, DgramRef};
use std::collections::{BTreeMap, BTreeSet};

/// Module kind name of the rotating-coordinator variant.
pub const KIND_CT: &str = "consensus.ct";
/// Module kind name of the instance-offset variant.
pub const KIND_OFFSET: &str = "consensus.offset";

/// Operation codes of the `consensus` service.
pub mod ops {
    use dpu_core::Op;
    /// Call: propose `(ns, k, value)` for instance `(ns, k)`.
    pub const PROPOSE: Op = 1;
    /// Response: instance `(ns, k)` decided `value`.
    pub const DECIDE: Op = 2;
    /// Response: instance `(ns, k)` needs a local proposal.
    pub const NEED_PROPOSAL: Op = 3;
}

/// Coordinator schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordPolicy {
    /// Coordinator of round `r` is `peers[r mod n]` (textbook CT).
    Rotating,
    /// Coordinator of round `r` of instance `k` is `peers[(k + r) mod n]`,
    /// spreading coordinator load across instances.
    InstanceOffset,
}

/// Factory parameters of the consensus module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusParams {
    /// Service name to provide (default [`crate::CONSENSUS_SVC`]). Lets a
    /// new incarnation live side by side with an old one under a
    /// different name (used by the consensus-replacement experiment).
    pub service: String,
    /// Incarnation tag on all wire messages; two module incarnations with
    /// different tags ignore each other's traffic entirely.
    pub incarnation: u64,
}

impl Default for ConsensusParams {
    fn default() -> Self {
        ConsensusParams { service: crate::CONSENSUS_SVC.to_string(), incarnation: 0 }
    }
}

impl Encode for ConsensusParams {
    fn encode(&self, buf: &mut BytesMut) {
        self.service.encode(buf);
        self.incarnation.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.service.encoded_len() + self.incarnation.encoded_len()
    }
}

impl Decode for ConsensusParams {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(ConsensusParams { service: String::decode(buf)?, incarnation: u64::decode(buf)? })
    }
}

enum Body {
    Estimate { est: Bytes, ts: u64 },
    Proposal { v: Bytes },
    Ack,
    Nack,
    Decide { v: Bytes },
}

struct WireMsg {
    inc: u64,
    ns: u64,
    k: u64,
    round: u64,
    body: Body,
}

impl Encode for WireMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.inc.encode(buf);
        self.ns.encode(buf);
        self.k.encode(buf);
        self.round.encode(buf);
        match &self.body {
            Body::Estimate { est, ts } => {
                0u32.encode(buf);
                est.encode(buf);
                ts.encode(buf);
            }
            Body::Proposal { v } => {
                1u32.encode(buf);
                v.encode(buf);
            }
            Body::Ack => 2u32.encode(buf),
            Body::Nack => 3u32.encode(buf),
            Body::Decide { v } => {
                4u32.encode(buf);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        let head = self.inc.encoded_len()
            + self.ns.encoded_len()
            + self.k.encoded_len()
            + self.round.encoded_len();
        head + match &self.body {
            Body::Estimate { est, ts } => 0u32.encoded_len() + est.encoded_len() + ts.encoded_len(),
            Body::Proposal { v } => 1u32.encoded_len() + v.encoded_len(),
            Body::Ack => 2u32.encoded_len(),
            Body::Nack => 3u32.encoded_len(),
            Body::Decide { v } => 4u32.encoded_len() + v.encoded_len(),
        }
    }
}

impl Decode for WireMsg {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let inc = u64::decode(buf)?;
        let ns = u64::decode(buf)?;
        let k = u64::decode(buf)?;
        let round = u64::decode(buf)?;
        let body = match u32::decode(buf)? {
            0 => Body::Estimate { est: Bytes::decode(buf)?, ts: u64::decode(buf)? },
            1 => Body::Proposal { v: Bytes::decode(buf)? },
            2 => Body::Ack,
            3 => Body::Nack,
            4 => Body::Decide { v: Bytes::decode(buf)? },
            t => return Err(WireError::BadTag(t)),
        };
        Ok(WireMsg { inc, ns, k, round, body })
    }
}

#[derive(Default)]
struct Inst {
    proposal: Option<Bytes>,
    estimate: Option<(Bytes, u64)>,
    round: u64,
    decided: Option<Bytes>,
    /// Rounds for which this process already sent its estimate.
    estimate_sent: BTreeSet<u64>,
    /// Rounds this process already acked or nacked.
    responded: BTreeSet<u64>,
    /// Coordinator side: collected estimates per round.
    estimates: BTreeMap<u64, BTreeMap<StackId, (Bytes, u64)>>,
    /// Coordinator side: proposal this process broadcast per round.
    coord_proposal: BTreeMap<u64, Bytes>,
    /// Coordinator side: ack senders per round.
    acks: BTreeMap<u64, BTreeSet<StackId>>,
    /// Participant side: proposals received per round.
    proposals_recv: BTreeMap<u64, Bytes>,
    /// Whether a NEED_PROPOSAL response was already emitted.
    need_sent: bool,
    /// Whether the decision was already relayed to peers.
    relayed: bool,
}

/// The consensus module. See module docs.
pub struct ConsensusModule {
    params: ConsensusParams,
    policy: CoordPolicy,
    svc: ServiceId,
    rp2p_svc: ServiceId,
    fd_svc: ServiceId,
    suspected: BTreeSet<StackId>,
    insts: BTreeMap<(u64, u64), Inst>,
    decided_count: u64,
    max_round_seen: u64,
}

impl ConsensusModule {
    /// Build with explicit parameters and policy.
    pub fn new(params: ConsensusParams, policy: CoordPolicy) -> ConsensusModule {
        let svc = ServiceId::new(&params.service);
        ConsensusModule {
            params,
            policy,
            svc,
            rp2p_svc: ServiceId::new(dpu_net::RP2P_SVC),
            fd_svc: ServiceId::new(crate::FD_SVC),
            suspected: BTreeSet::new(),
            insts: BTreeMap::new(),
            decided_count: 0,
            max_round_seen: 0,
        }
    }

    /// Register factories for both kinds ([`KIND_CT`], [`KIND_OFFSET`]).
    /// Empty params mean defaults; otherwise params decode as
    /// [`ConsensusParams`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        for (kind, policy) in
            [(KIND_CT, CoordPolicy::Rotating), (KIND_OFFSET, CoordPolicy::InstanceOffset)]
        {
            reg.register_with(kind, move |params| ConsensusModule::new(params, policy));
        }
    }

    /// Number of instances decided locally.
    pub fn decided_count(&self) -> u64 {
        self.decided_count
    }

    /// Highest round reached by any instance (1-based round numbers start
    /// at 0; a value of 0 means every instance decided in its first
    /// round).
    pub fn max_round_seen(&self) -> u64 {
        self.max_round_seen
    }

    fn majority(ctx: &ModuleCtx<'_>) -> usize {
        ctx.peers().len() / 2 + 1
    }

    fn coord(&self, ctx: &ModuleCtx<'_>, k: u64, round: u64) -> StackId {
        let peers = ctx.peers();
        let n = peers.len() as u64;
        let idx = match self.policy {
            CoordPolicy::Rotating => round % n,
            CoordPolicy::InstanceOffset => (k + round) % n,
        };
        peers[idx as usize]
    }

    fn send(&self, ctx: &mut ModuleCtx<'_>, to: StackId, msg: &WireMsg) {
        // One forward pass through the stack scratch: the WireMsg is
        // encoded in place inside the Dgram frame.
        let d = DgramRef { peer: to, channel: channels::CONSENSUS, body: msg };
        let payload = ctx.encode(&d);
        ctx.call(&self.rp2p_svc, dgram::SEND, payload);
    }

    fn broadcast(&self, ctx: &mut ModuleCtx<'_>, msg: &WireMsg) {
        for peer in ctx.peers().to_vec() {
            self.send(ctx, peer, msg);
        }
    }

    fn wire(&self, ns: u64, k: u64, round: u64, body: Body) -> WireMsg {
        WireMsg { inc: self.params.incarnation, ns, k, round, body }
    }

    fn decide(&mut self, ctx: &mut ModuleCtx<'_>, ns: u64, k: u64, v: Bytes) {
        let inst = self.insts.entry((ns, k)).or_default();
        if inst.decided.is_some() {
            return;
        }
        inst.decided = Some(v.clone());
        self.decided_count += 1;
        if !inst.relayed {
            inst.relayed = true;
            let me = ctx.stack_id();
            let msg = self.wire(ns, k, 0, Body::Decide { v: v.clone() });
            for peer in ctx.peers().to_vec() {
                if peer != me {
                    self.send(ctx, peer, &msg);
                }
            }
        }
        let data = ctx.encode(&(ns, k, v));
        ctx.respond(&self.svc, ops::DECIDE, data);
    }

    /// The idempotent progress engine: inspect the instance state and take
    /// every enabled step of the CT algorithm.
    ///
    /// Follows the textbook round structure: after acking (or nacking) the
    /// proposal of its current round a process moves straight to the next
    /// round; the decision arrives asynchronously via the reliable
    /// broadcast of `Decide` and terminates the instance.
    fn advance(&mut self, ctx: &mut ModuleCtx<'_>, ns: u64, k: u64) {
        let me = ctx.stack_id();
        let majority = Self::majority(ctx);
        loop {
            if self.insts.entry((ns, k)).or_default().decided.is_some() {
                return;
            }

            // Coordinator duties apply to *any* round this process
            // coordinates, not just its current one — slower peers may
            // still be working on older rounds.
            // Phase 2: a majority of estimates for a round → proposal.
            let ready: Vec<u64> = {
                let inst = self.insts.get(&(ns, k)).expect("entry exists");
                inst.estimates
                    .iter()
                    .filter(|(r2, ests)| {
                        self.coord(ctx, k, **r2) == me
                            && ests.len() >= majority
                            && !inst.coord_proposal.contains_key(r2)
                    })
                    .map(|(&r2, _)| r2)
                    .collect()
            };
            for r2 in ready {
                let inst = self.insts.get_mut(&(ns, k)).expect("entry exists");
                let ests = inst.estimates.get(&r2).expect("checked");
                // Largest ts wins; ties broken by longer value (prefers
                // non-empty proposals in the abcast use case), then by
                // lower sender id (determinism).
                let (_, (v, _)) = ests
                    .iter()
                    .max_by(|(ida, (va, tsa)), (idb, (vb, tsb))| {
                        tsa.cmp(tsb).then(va.len().cmp(&vb.len())).then(idb.cmp(ida))
                    })
                    .expect("non-empty");
                let v = v.clone();
                inst.coord_proposal.insert(r2, v.clone());
                let msg = self.wire(ns, k, r2, Body::Proposal { v });
                self.broadcast(ctx, &msg);
            }

            // Phase 4: a majority of acks on an own proposal → decide.
            let decided: Option<(u64, Bytes)> = {
                let inst = self.insts.get(&(ns, k)).expect("entry exists");
                inst.acks
                    .iter()
                    .find(|(r2, acks)| {
                        acks.len() >= majority && inst.coord_proposal.contains_key(r2)
                    })
                    .map(|(&r2, _)| (r2, inst.coord_proposal[&r2].clone()))
            };
            if let Some((_, v)) = decided {
                self.decide(ctx, ns, k, v);
                return;
            }

            let r = self.insts.get(&(ns, k)).expect("entry exists").round;
            self.max_round_seen = self.max_round_seen.max(r);
            let coord = self.coord(ctx, k, r);

            // Phase 1: send my estimate for my current round.
            let est_msg: Option<WireMsg> = {
                let inst = self.insts.get_mut(&(ns, k)).expect("entry exists");
                match inst.estimate.clone() {
                    Some((est, ts)) if !inst.estimate_sent.contains(&r) => {
                        inst.estimate_sent.insert(r);
                        Some(self.wire(ns, k, r, Body::Estimate { est, ts }))
                    }
                    _ => None,
                }
            };
            if let Some(msg) = est_msg {
                self.send(ctx, coord, &msg);
            }

            // Phase 3: respond to the proposal of my current round, or
            // give up on a suspected coordinator; either way move to the
            // next round and loop.
            let inst = self.insts.get_mut(&(ns, k)).expect("entry exists");
            if inst.responded.contains(&r) {
                // Already responded but round was not advanced (can only
                // happen transiently); push forward defensively.
                inst.round = r + 1;
                continue;
            }
            if let Some(v) = inst.proposals_recv.get(&r).cloned() {
                inst.responded.insert(r);
                inst.estimate = Some((v, r + 1));
                inst.round = r + 1;
                let msg = self.wire(ns, k, r, Body::Ack);
                self.send(ctx, coord, &msg);
                continue;
            }
            if coord != me && self.suspected.contains(&coord) && inst.estimate.is_some() {
                inst.responded.insert(r);
                inst.round = r + 1;
                let msg = self.wire(ns, k, r, Body::Nack);
                self.send(ctx, coord, &msg);
                continue;
            }
            // Waiting: for a proposal (participant), for estimates
            // (coordinator), or for a local proposal value.
            return;
        }
    }

    fn on_wire(&mut self, ctx: &mut ModuleCtx<'_>, from: StackId, msg: WireMsg) {
        if msg.inc != self.params.incarnation {
            return;
        }
        let (ns, k) = (msg.ns, msg.k);
        {
            let inst = self.insts.entry((ns, k)).or_default();
            match msg.body {
                Body::Estimate { est, ts } => {
                    inst.estimates.entry(msg.round).or_default().insert(from, (est, ts));
                }
                Body::Proposal { v } => {
                    inst.proposals_recv.insert(msg.round, v);
                    // A proposal for a future round lets us jump forward:
                    // rounds we skipped can no longer decide without us.
                    if msg.round > inst.round {
                        inst.round = msg.round;
                    }
                }
                Body::Ack => {
                    inst.acks.entry(msg.round).or_default().insert(from);
                }
                Body::Nack => {
                    // The nacker moved on; nothing to do — the coordinator
                    // keeps waiting for a majority of acks which may still
                    // arrive from others.
                }
                Body::Decide { v } => {
                    self.decide(ctx, ns, k, v);
                    return;
                }
            }
        }
        // Prompt the service user for a proposal if we are a bystander.
        let inst = self.insts.get_mut(&(ns, k)).expect("entry exists");
        if inst.proposal.is_none() && !inst.need_sent {
            inst.need_sent = true;
            let data = ctx.encode(&(ns, k));
            ctx.respond(&self.svc, ops::NEED_PROPOSAL, data);
        }
        self.advance(ctx, ns, k);
    }
}

impl Module for ConsensusModule {
    fn kind(&self) -> &str {
        match self.policy {
            CoordPolicy::Rotating => KIND_CT,
            CoordPolicy::InstanceOffset => KIND_OFFSET,
        }
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc.clone()]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.rp2p_svc.clone(), self.fd_svc.clone()]
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != ops::PROPOSE {
            return;
        }
        let Ok((ns, k, v)) = call.decode::<(u64, u64, Bytes)>() else { return };
        let inst = self.insts.entry((ns, k)).or_default();
        if let Some(d) = inst.decided.clone() {
            // Already decided (e.g. the decision arrived before the local
            // proposal): re-respond for the late proposer.
            let data = ctx.encode(&(ns, k, d));
            ctx.respond(&self.svc, ops::DECIDE, data);
            return;
        }
        if inst.proposal.is_some() {
            return; // at most one proposal per instance per process
        }
        inst.proposal = Some(v.clone());
        if inst.estimate.is_none() {
            inst.estimate = Some((v, 0));
        }
        self.advance(ctx, ns, k);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.service == self.fd_svc && resp.op == crate::fd::ops::SUSPECTS {
            let Ok(list) = resp.decode::<Vec<StackId>>() else { return };
            let new: BTreeSet<StackId> = list.into_iter().collect();
            if new == self.suspected {
                return;
            }
            self.suspected = new;
            // Suspicions may unblock round changes in any open instance.
            let open: Vec<(u64, u64)> = self
                .insts
                .iter()
                .filter(|(_, i)| i.decided.is_none() && i.estimate.is_some())
                .map(|(&key, _)| key)
                .collect();
            for (ns, k) in open {
                self.advance(ctx, ns, k);
            }
            return;
        }
        if resp.service == self.rp2p_svc && resp.op == dgram::RECV {
            let Ok(d) = resp.decode::<Dgram>() else { return };
            if d.channel != channels::CONSENSUS {
                return;
            }
            let Ok(msg) = dpu_core::wire::from_bytes::<WireMsg>(&d.data) else { return };
            self.on_wire(ctx, d.peer, msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{FdConfig, FdModule};
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::time::{Dur, Time};
    use dpu_core::wire::{self, Encode};
    use dpu_core::ModuleId;
    use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
    use dpu_net::udp::UdpModule;
    use dpu_sim::{Sim, SimConfig};

    /// Records DECIDE responses; proposes on request.
    struct User {
        decisions: BTreeMap<(u64, u64), Bytes>,
        needs: Vec<(u64, u64)>,
        auto_value: Option<Bytes>,
    }

    impl Module for User {
        fn kind(&self) -> &str {
            "consensus-user"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(crate::CONSENSUS_SVC)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
            match resp.op {
                ops::DECIDE => {
                    let (ns, k, v): (u64, u64, Bytes) = resp.decode().unwrap();
                    self.decisions.insert((ns, k), v);
                }
                ops::NEED_PROPOSAL => {
                    let (ns, k): (u64, u64) = resp.decode().unwrap();
                    self.needs.push((ns, k));
                    if let Some(v) = self.auto_value.clone() {
                        ctx.call(
                            &ServiceId::new(crate::CONSENSUS_SVC),
                            ops::PROPOSE,
                            (ns, k, v).to_bytes(),
                        );
                    }
                }
                _ => {}
            }
        }
    }

    /// Layout: m1 net, m2 udp, m3 rp2p, m4 fd, m5 consensus, m6 user.
    const CONS: ModuleId = ModuleId(5);
    const USER: ModuleId = ModuleId(6);

    fn mk_stack_with(policy: CoordPolicy) -> impl FnMut(StackConfig) -> Stack {
        move |sc: StackConfig| {
            let me = sc.id;
            let mut s = Stack::new(sc, FactoryRegistry::new());
            let udp = s.add_module(Box::new(UdpModule::new()));
            let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
            let fd = s.add_module(Box::new(FdModule::new(FdConfig::default())));
            let cons =
                s.add_module(Box::new(ConsensusModule::new(ConsensusParams::default(), policy)));
            s.add_module(Box::new(User {
                decisions: BTreeMap::new(),
                needs: vec![],
                auto_value: Some(Bytes::from(format!("auto-{}", me.0))),
            }));
            s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
            s.bind(&ServiceId::new(dpu_net::RP2P_SVC), rp2p);
            s.bind(&ServiceId::new(crate::FD_SVC), fd);
            s.bind(&ServiceId::new(crate::CONSENSUS_SVC), cons);
            s
        }
    }

    fn propose(sim: &mut Sim, node: u32, ns: u64, k: u64, v: &str) {
        let payload = (ns, k, Bytes::from(v.to_string())).to_bytes();
        sim.with_stack(StackId(node), |s| {
            s.call_as(USER, &ServiceId::new(crate::CONSENSUS_SVC), ops::PROPOSE, payload)
        });
    }

    fn decision(sim: &mut Sim, node: u32, ns: u64, k: u64) -> Option<Bytes> {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<User, _>(USER, |u| u.decisions.get(&(ns, k)).cloned()).unwrap()
        })
    }

    #[test]
    fn three_nodes_agree_on_one_value() {
        let mut sim = Sim::new(SimConfig::lan(3, 42), mk_stack_with(CoordPolicy::Rotating));
        for i in 0..3 {
            propose(&mut sim, i, 0, 0, &format!("value-{i}"));
        }
        sim.run_until(Time::ZERO + Dur::secs(2));
        let d0 = decision(&mut sim, 0, 0, 0).expect("node 0 decided");
        for i in 1..3 {
            assert_eq!(decision(&mut sim, i, 0, 0).as_ref(), Some(&d0), "node {i}");
        }
        // The decided value is one of the proposals (consensus validity).
        let s = String::from_utf8(d0.to_vec()).unwrap();
        assert!(s.starts_with("value-"), "decided {s}");
    }

    #[test]
    fn many_instances_decide_independently() {
        let mut sim = Sim::new(SimConfig::lan(3, 1), mk_stack_with(CoordPolicy::Rotating));
        for k in 0..10u64 {
            for i in 0..3 {
                propose(&mut sim, i, 7, k, &format!("v{i}-{k}"));
            }
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        for k in 0..10u64 {
            let d0 = decision(&mut sim, 0, 7, k).unwrap_or_else(|| panic!("k={k} undecided"));
            for i in 1..3 {
                assert_eq!(decision(&mut sim, i, 7, k).as_ref(), Some(&d0));
            }
        }
    }

    #[test]
    fn decides_despite_coordinator_crash() {
        // Round-0 coordinator is stack 0 (Rotating); crash it mid-run.
        let mut sim = Sim::new(SimConfig::lan(5, 9), mk_stack_with(CoordPolicy::Rotating));
        sim.run_until(Time::ZERO + Dur::millis(100));
        sim.crash_at(sim.now(), StackId(0));
        sim.run_until(Time::ZERO + Dur::millis(300));
        for i in 1..5 {
            propose(&mut sim, i, 0, 0, &format!("value-{i}"));
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        let d1 = decision(&mut sim, 1, 0, 0).expect("must decide without the coordinator");
        for i in 2..5 {
            assert_eq!(decision(&mut sim, i, 0, 0).as_ref(), Some(&d1));
        }
    }

    #[test]
    fn safety_holds_under_message_loss() {
        let mut cfg = SimConfig::lan(3, 21);
        cfg.net.loss = 0.15;
        let mut sim = Sim::new(cfg, mk_stack_with(CoordPolicy::Rotating));
        for k in 0..5u64 {
            for i in 0..3 {
                propose(&mut sim, i, 0, k, &format!("v{i}-{k}"));
            }
        }
        sim.run_until(Time::ZERO + Dur::secs(10));
        for k in 0..5u64 {
            let d0 = decision(&mut sim, 0, 0, k).unwrap_or_else(|| panic!("k={k} undecided"));
            for i in 1..3 {
                assert_eq!(decision(&mut sim, i, 0, k).as_ref(), Some(&d0));
            }
        }
    }

    #[test]
    fn bystander_gets_need_proposal_and_still_decides() {
        let mut sim = Sim::new(SimConfig::lan(3, 4), mk_stack_with(CoordPolicy::Rotating));
        // Only nodes 0 and 1 propose explicitly; node 2's user
        // auto-proposes when prompted by NEED_PROPOSAL.
        propose(&mut sim, 0, 0, 0, "a");
        propose(&mut sim, 1, 0, 0, "b");
        sim.run_until(Time::ZERO + Dur::secs(2));
        let needs = sim.with_stack(StackId(2), |s| {
            s.with_module::<User, _>(USER, |u| u.needs.clone()).unwrap()
        });
        assert!(needs.contains(&(0, 0)), "bystander must be prompted");
        let d = decision(&mut sim, 2, 0, 0).expect("bystander decides too");
        assert!(!d.is_empty());
    }

    #[test]
    fn instance_offset_policy_agrees_too() {
        let mut sim = Sim::new(SimConfig::lan(4, 2), mk_stack_with(CoordPolicy::InstanceOffset));
        for k in 0..4u64 {
            for i in 0..4 {
                propose(&mut sim, i, 0, k, &format!("v{i}-{k}"));
            }
        }
        sim.run_until(Time::ZERO + Dur::secs(3));
        for k in 0..4u64 {
            let d0 = decision(&mut sim, 0, 0, k).unwrap_or_else(|| panic!("k={k} undecided"));
            for i in 1..4 {
                assert_eq!(decision(&mut sim, i, 0, k).as_ref(), Some(&d0));
            }
        }
    }

    #[test]
    fn different_incarnations_ignore_each_other() {
        // Two consensus modules with different incarnations on the same
        // channel: proposals to one must not be decided by the other.
        // Here we just verify the wire-level filter.
        let m = ConsensusModule::new(
            ConsensusParams { service: "consensus".into(), incarnation: 1 },
            CoordPolicy::Rotating,
        );
        assert_eq!(m.params.incarnation, 1);
        let msg = WireMsg {
            inc: 2,
            ns: 0,
            k: 0,
            round: 0,
            body: Body::Proposal { v: Bytes::from_static(b"x") },
        };
        let b = msg.to_bytes();
        let back: WireMsg = wire::from_bytes(&b).unwrap();
        assert_eq!(back.inc, 2);
        // (Full cross-incarnation isolation is exercised by the
        // replacement tests in dpu-repl.)
    }

    #[test]
    fn late_proposal_after_decision_gets_decide_response() {
        let mut sim = Sim::new(SimConfig::lan(3, 4), mk_stack_with(CoordPolicy::Rotating));
        propose(&mut sim, 0, 0, 0, "a");
        propose(&mut sim, 1, 0, 0, "b");
        sim.run_until(Time::ZERO + Dur::secs(2));
        // All nodes decided via auto-propose; now propose again on node 0
        // with a different users' call — must re-respond, not re-run.
        let before = decision(&mut sim, 0, 0, 0).expect("decided");
        propose(&mut sim, 0, 0, 0, "late");
        sim.run_until(sim.now() + Dur::millis(100));
        assert_eq!(decision(&mut sim, 0, 0, 0), Some(before));
    }

    #[test]
    fn decides_with_bare_majority_alive() {
        // 5 processes, 2 crash before proposing: the remaining exact
        // majority (3) must still decide.
        let mut sim = Sim::new(SimConfig::lan(5, 31), mk_stack_with(CoordPolicy::Rotating));
        sim.crash_at(Time::ZERO + Dur::millis(50), StackId(3));
        sim.crash_at(Time::ZERO + Dur::millis(50), StackId(4));
        sim.run_until(Time::ZERO + Dur::millis(400));
        for i in 0..3 {
            propose(&mut sim, i, 0, 0, &format!("v{i}"));
        }
        sim.run_until(Time::ZERO + Dur::secs(8));
        let d0 = decision(&mut sim, 0, 0, 0).expect("bare majority must decide");
        for i in 1..3 {
            assert_eq!(decision(&mut sim, i, 0, 0).as_ref(), Some(&d0));
        }
    }

    #[test]
    fn wrong_suspicion_never_violates_agreement() {
        // Partition the round-0 coordinator away mid-instance so others
        // wrongly suspect it and move rounds; then heal. Everyone —
        // including the wrongly suspected coordinator — must decide the
        // same value.
        let mut sim = Sim::new(SimConfig::lan(3, 61), mk_stack_with(CoordPolicy::Rotating));
        sim.run_until(Time::ZERO + Dur::millis(200));
        for i in 0..3 {
            propose(&mut sim, i, 0, 0, &format!("v{i}"));
        }
        // Cut stack 0 (round-0 coordinator) off immediately.
        sim.partition(&[StackId(0)], &[StackId(1), StackId(2)]);
        sim.run_until(sim.now() + Dur::secs(1));
        sim.heal_partitions();
        sim.run_until(sim.now() + Dur::secs(10));
        let d0 = decision(&mut sim, 0, 0, 0).expect("healed coordinator decides");
        for i in 1..3 {
            assert_eq!(
                decision(&mut sim, i, 0, 0).as_ref(),
                Some(&d0),
                "agreement must hold through wrong suspicion"
            );
        }
        // The run must actually have used multiple rounds (the suspicion
        // path fired) on at least one node — otherwise this test is not
        // testing anything.
        let mut any_round_progress = false;
        for i in 0..3 {
            let r = sim.with_stack(StackId(i), |s| {
                s.with_module::<ConsensusModule, _>(CONS, |m| m.max_round_seen()).unwrap()
            });
            if r > 0 {
                any_round_progress = true;
            }
        }
        assert!(any_round_progress, "the partition should have forced round changes");
    }

    #[test]
    fn minority_partition_cannot_decide_alone() {
        let mut sim = Sim::new(SimConfig::lan(5, 71), mk_stack_with(CoordPolicy::Rotating));
        sim.run_until(Time::ZERO + Dur::millis(200));
        // Isolate stacks 0 and 1 (a minority) and let only them propose.
        sim.partition(&[StackId(0), StackId(1)], &[StackId(2), StackId(3), StackId(4)]);
        propose(&mut sim, 0, 0, 0, "minority-a");
        propose(&mut sim, 1, 0, 0, "minority-b");
        sim.run_until(sim.now() + Dur::secs(3));
        for i in 0..2 {
            assert_eq!(decision(&mut sim, i, 0, 0), None, "a minority must never decide (safety)");
        }
        // Heal, and let the majority side propose too (CT terminates
        // once all correct processes have proposed); the instance must
        // then decide — and on a value someone actually proposed.
        sim.heal_partitions();
        for i in 2..5 {
            propose(&mut sim, i, 0, 0, &format!("majority-{i}"));
        }
        sim.run_until(sim.now() + Dur::secs(10));
        let d = decision(&mut sim, 0, 0, 0).expect("decides after heal");
        for i in 1..5 {
            assert_eq!(decision(&mut sim, i, 0, 0).as_ref(), Some(&d), "node {i}");
        }
        assert!(
            d.starts_with(b"minority") || d.starts_with(b"majority") || d.starts_with(b"auto"),
            "decided value must be a proposal: {d:?}"
        );
    }

    #[test]
    fn wire_msg_contract_for_every_body() {
        use dpu_core::wire::testing::assert_wire_contract;
        let bodies = [
            Body::Estimate { est: Bytes::from_static(b"est"), ts: 4 },
            Body::Proposal { v: Bytes::from_static(b"prop") },
            Body::Ack,
            Body::Nack,
            Body::Decide { v: Bytes::new() },
        ];
        for body in bodies {
            assert_wire_contract(&WireMsg { inc: 7, ns: 1, k: 2, round: 3, body });
        }
        assert_wire_contract(&ConsensusParams { service: "c2".into(), incarnation: 9 });
    }

    #[test]
    fn params_roundtrip_and_factory() {
        let p = ConsensusParams { service: "consensus2".into(), incarnation: 9 };
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<ConsensusParams>(&b).unwrap(), p);
        let mut reg = FactoryRegistry::new();
        ConsensusModule::register(&mut reg);
        let m = reg.build(&dpu_core::ModuleSpec::with_params(KIND_OFFSET, &p)).unwrap();
        assert_eq!(m.kind(), KIND_OFFSET);
        assert_eq!(m.provides(), vec![ServiceId::new("consensus2")]);
    }

    #[test]
    fn wire_msg_rejects_bad_tag() {
        let raw = wire::to_bytes(&(0u64, 0u64, 0u64, 0u64, 9u32));
        assert!(wire::from_bytes::<WireMsg>(&raw).is_err());
    }
}
