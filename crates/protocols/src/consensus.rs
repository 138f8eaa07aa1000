//! The CT module (paper Figure 4): distributed consensus using the
//! **Chandra–Toueg ◇S algorithm** with a rotating coordinator
//! (JACM 43(2), 1996), as used by the paper's atomic broadcast.
//!
//! # Algorithm sketch (per instance)
//!
//! Rounds are asynchronous; round `r` has a coordinator determined by the
//! `CoordPolicy`.
//!
//! 1. every process sends its current *estimate* (with the round in which
//!    it was last adopted, its `ts`) to the coordinator of `r`. Round 0
//!    is the exception: it can lock no value, so its coordinator needs no
//!    estimate but its own, and a participant sends one only to prompt a
//!    coordinator whose user has not proposed — once it suspects some
//!    process, and only while the round-0 proposal has not arrived;
//! 2. the coordinator collects a majority of estimates (in round 0 one,
//!    the first it holds), picks the one with the largest `ts`, and
//!    proposes it to all;
//! 3. a process receiving the proposal adopts it (`ts ← r`), *acks* and
//!    waits for the decision: it moves to round `r + 1` only once it
//!    suspects the coordinator (via the `fd` service) or hears a *nack*
//!    for `r`. A process that suspects the coordinator before the
//!    proposal arrives nacks — to every other process, not only the
//!    coordinator — and moves to `r + 1` at once. A nack heard before
//!    the proposal takes effect only after the ack;
//! 4. on a majority of acks the coordinator decides and reliably
//!    broadcasts the decision (every receiver relays it once).
//!
//! No process sends a frame to itself: the coordinator files its own
//! estimate, its own copy of the proposal and its own ack in place, and
//! sends the proposal to the n − 1 others. Where no process suspects
//! another, an instance ends in round 0 with one proposal: n − 1
//! proposals and n − 1 acks, then the `Decide` relays. Round 0's
//! coordinator hears nothing from the others until one of them suspects
//! someone, so it proposes when its own user does — as the user of every
//! correct process does — or on the first estimate a suspicion sends it.
//!
//! Safety (no two processes decide differently) holds under any failure
//! detector behaviour; liveness needs ◇S and a majority of correct
//! processes — exactly the assumptions of the paper. Proposing on one
//! estimate in round 0 is safe because nothing is locked before it; a
//! majority that acked round `r` carries `ts` `r + 1` into every later
//! majority of estimates, so rounds ≥ 1 keep the CT lock argument
//! unchanged. Waiting after the ack keeps liveness. If the coordinator
//! of `r` crashes, every correct process comes to suspect it and moves
//! on. If it is correct, every correct process either acks `r` (a nack
//! it heard first does not stop the ack) or nacks `r`, and a correct
//! nacker's nack reaches every correct process. So either every correct
//! process acks — a majority, and the coordinator decides — or every
//! correct process hears a nack and moves on. A nacker that crashed
//! after reaching only some peers changes neither case.
//!
//! # Service interface (`consensus`, instance-keyed)
//!
//! Instances are identified by `(namespace, k)`: the namespace isolates
//! independent users (e.g. two incarnations of atomic broadcast around a
//! dynamic protocol update) and `k` is the user's instance counter.
//!
//! * call `ops::PROPOSE` — `(ns, k, value)`;
//! * response `ops::DECIDE` — `(ns, k, value)`;
//! * response `ops::NEED_PROPOSAL` — `(ns, k)`: the instance is running
//!   remotely but has no local proposal yet; users should propose. Round
//!   0's coordinator gets the first frame of an instance it has not
//!   proposed in only once some participant suspects someone: a user
//!   that proposes only when asked is asked then.
//!
//! Both responses go out on channel `USER` at `ns`, the one the user of
//! namespace `ns` listens on: a user not created yet finds them waiting
//! in the stack when it is. The module's own frames travel on
//! `crate::channels::CONSENSUS` at its [`ConsensusParams::incarnation`],
//! so two consensus incarnations never see each other's.
//!
//! Proposing `(ns, k)` also tells the module that its user has consumed
//! every decision of `ns` below `k`: instance numbers of a namespace are
//! proposed in order (atomic broadcast proposes `k + 1` only after it has
//! delivered batch `k`).
//!
//! # What an instance costs, and for how long
//!
//! Where no process suspects another, an instance costs (n + 2)(n − 1)
//! frames: the n − 1 proposals, the n − 1 acks and each decider's
//! `Decide` to the n − 1 others. It is collected by *stability*, read off
//! frames the algorithm sends anyway — no message, timer or dispatch step
//! is added for it:
//!
//! 1. at the local decision it shrinks to a tombstone: the decided value
//!    (a late `PROPOSE` is re-answered with it), whether the user was ever
//!    asked for a proposal (a late frame still raises `NEED_PROPOSAL`
//!    once if not), and a [`HeardSet`] of the deciders whose `Decide` has
//!    arrived. Estimates, proposals and acks go, and late ones are no
//!    longer filed;
//! 2. the tombstone goes once `Decide` has been heard from **every**
//!    member — each decider relays `Decide` to all and rp2p is FIFO per
//!    pair, so nothing of `(ns, k)` is still in flight towards this
//!    process — **and** the user has proposed a higher `k` in `ns`, so it
//!    is done with `DECIDE(k)`. (Hearing everyone is not enough: the
//!    stack dispatches breadth-first, so a user may `PROPOSE k` after the
//!    decision and before its own `DECIDE(k)` reaches it.) That `(ns, k)`
//!    was collected is remembered in an [`IntervalSet`] — one watermark
//!    per namespace in practice — so a duplicated or forged frame for it
//!    is dropped instead of starting the instance afresh. An instance
//!    this process has simply not seen yet is not in that set, whatever
//!    its number, and opens as ever.
//!
//! What stays is bounded by the group and the namespaces, not by the
//! run: the instances in flight plus, per namespace ever used, its last
//! tombstone (nothing higher is ever proposed there), its watermark and
//! its highest proposed `k` — a few hundred bytes that grow with
//! *replacements* of the user above, not with messages. A crashed or
//! silent member is never heard and pins every tombstone decided after
//! it fell silent, exactly as it pins module retirement in `dpu-repl`;
//! [`ConsensusModule::live_instances`] and the `held` gauge of
//! [`dpu_core::TransportStats`] show the pin, and it lifts once the
//! heard-sets follow the membership view (ROADMAP item 1(b)).
//!
//! # Variants
//!
//! `CoordPolicy::Rotating` is the textbook CT schedule (kind
//! `consensus.ct`). `CoordPolicy::InstanceOffset` rotates the *starting*
//! coordinator with the instance number (kind `consensus.offset`),
//! spreading coordinator load across instances — the second agreement
//! protocol used by the consensus-replacement experiment (paper §7 /
//! ref \[16\]).

use crate::channels;
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::{
    Call, Channel, HeardSet, IntervalSet, Module, Response, ServiceId, StackId, TransportStats,
};
use dpu_net::dgram;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Module kind name of the rotating-coordinator variant.
pub const KIND_CT: &str = "consensus.ct";
/// Module kind name of the instance-offset variant.
pub const KIND_OFFSET: &str = "consensus.offset";

/// Operation codes of the `consensus` service.
pub mod ops {
    use dpu_core::Op;
    /// Call: propose `(ns, k, value)` for instance `(ns, k)`.
    pub(crate) const PROPOSE: Op = 1;
    /// Response: instance `(ns, k)` decided `value`.
    pub(crate) const DECIDE: Op = 2;
    /// Response: instance `(ns, k)` needs a local proposal.
    pub(crate) const NEED_PROPOSAL: Op = 3;
}

/// The channel base of the `consensus` service: a user with namespace
/// `ns` listens on `USER.at(ns)`, where its `DECIDE`s and
/// `NEED_PROPOSAL`s go out.
pub(crate) const USER: Channel = Channel::new(0, 0);

/// Coordinator schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CoordPolicy {
    /// Coordinator of round `r` is `peers[r mod n]` (textbook CT).
    Rotating,
    /// Coordinator of round `r` of instance `k` is `peers[(k + r) mod n]`,
    /// spreading coordinator load across instances.
    InstanceOffset,
}

impl CoordPolicy {
    /// The coordinator of `round` of instance `k`.
    fn coord(self, peers: &[StackId], k: u64, round: u64) -> StackId {
        let n = peers.len() as u64;
        let idx = match self {
            CoordPolicy::Rotating => round % n,
            CoordPolicy::InstanceOffset => (k + round) % n,
        };
        peers[idx as usize]
    }
}

/// Factory parameters of the consensus module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsensusParams {
    /// Service name to provide (default [`crate::CONSENSUS_SVC`]). Lets a
    /// new incarnation live side by side with an old one under a
    /// different name (used by the consensus-replacement experiment).
    pub service: String,
    /// The incarnation of the channel this module's frames travel on; two
    /// modules with different incarnations never see each other's
    /// traffic.
    pub incarnation: u64,
}

impl Default for ConsensusParams {
    fn default() -> Self {
        ConsensusParams { service: crate::CONSENSUS_SVC.to_string(), incarnation: 0 }
    }
}

dpu_core::wire_codec!(ConsensusParams { service, incarnation });

enum Body {
    Estimate { est: Bytes, ts: u64 },
    Proposal { v: Bytes },
    Ack,
    Nack,
    Decide { v: Bytes },
}

struct WireMsg {
    ns: u64,
    k: u64,
    round: u64,
    body: Body,
}

dpu_core::wire_codec!(enum Body {
    0 => Estimate { est, ts },
    1 => Proposal { v },
    2 => Ack,
    3 => Nack,
    4 => Decide { v },
});
dpu_core::wire_codec!(WireMsg { ns, k, round, body });

/// An instance this process has not decided yet.
#[derive(Default)]
struct Open {
    proposal: Option<Bytes>,
    estimate: Option<(Bytes, u64)>,
    round: u64,
    /// The last round this process sent (or, coordinating it, filed) its
    /// estimate for. Rounds only go up, so one is enough.
    estimated: Option<u64>,
    /// The last round whose proposal this process acked. A nack moves it
    /// to the next round at once, so only an ack is ever waited on.
    acked: Option<u64>,
    /// Rounds some peer nacked.
    nacked: BTreeSet<u64>,
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
}

/// What one pass over an open instance found to do.
enum Step {
    /// Nothing is enabled: wait for a frame, a suspicion or the user.
    Wait,
    /// Something was filed in place or the round moved: look again.
    Again,
    /// Send `body` for the round to its coordinator.
    ToCoord(StackId, u64, Body),
    /// Send `body` for the round to every other process.
    ToOthers(u64, Body),
    /// A majority acked this process's proposal of the value.
    Decide(Bytes),
}

impl Open {
    /// A proposal for `round` arrived, or this process made it.
    fn file_proposal(&mut self, round: u64, v: Bytes) {
        self.proposals_recv.insert(round, v);
        // A proposal for a future round lets us jump forward: rounds we
        // skipped can no longer decide without us.
        self.round = self.round.max(round);
    }

    /// The next step of the CT algorithm this instance can take on `me`,
    /// its state updated for it. `coord` names a round's coordinator.
    fn step(
        &mut self,
        me: StackId,
        majority: usize,
        coord: impl Fn(u64) -> StackId,
        suspected: &BTreeSet<StackId>,
    ) -> Step {
        // Coordinator duties apply to *any* round this process
        // coordinates, not just its current one — slower peers may still
        // be working on older rounds.
        // Phase 2: a majority of estimates for a round → proposal. Largest
        // ts wins; ties broken by longer value (prefers non-empty
        // proposals in the abcast use case), then by lower sender id
        // (determinism). Round 0 can lock nothing — every estimate in it
        // carries ts 0 — so one estimate, the first held, is enough there.
        let ready = self.estimates.iter().find_map(|(&r, ests)| {
            let needed = if r == 0 { 1 } else { majority };
            if coord(r) != me || ests.len() < needed || self.coord_proposal.contains_key(&r) {
                return None;
            }
            let (_, (v, _)) = ests.iter().max_by(|(ida, (va, tsa)), (idb, (vb, tsb))| {
                tsa.cmp(tsb).then(va.len().cmp(&vb.len())).then(idb.cmp(ida))
            })?;
            Some((r, v.clone()))
        });
        if let Some((r, v)) = ready {
            self.coord_proposal.insert(r, v.clone());
            self.file_proposal(r, v.clone());
            return Step::ToOthers(r, Body::Proposal { v });
        }

        // Phase 4: a majority of acks on an own proposal → decide.
        let won = self.acks.iter().find_map(|(r, acks)| {
            (acks.len() >= majority).then(|| self.coord_proposal.get(r)).flatten()
        });
        if let Some(v) = won {
            return Step::Decide(v.clone());
        }

        // Phase 1: my estimate for my current round. In round 0 a
        // participant's estimate only prompts a coordinator whose user has
        // not proposed, which in atomic broadcast means the origin of a
        // message crashed before its gossip got there: it goes once this
        // process suspects someone, unless the proposal is already here.
        let r = self.round;
        let coord = coord(r);
        let wanted = r > 0
            || coord == me
            || (!suspected.is_empty() && !self.proposals_recv.contains_key(&r));
        if let Some((est, ts)) = &self.estimate {
            if wanted && self.estimated != Some(r) {
                self.estimated = Some(r);
                if coord != me {
                    return Step::ToCoord(coord, r, Body::Estimate { est: est.clone(), ts: *ts });
                }
                self.estimates.entry(r).or_default().insert(me, (est.clone(), *ts));
                return Step::Again;
            }
        }

        // Phase 3: ack the proposal of my current round, then wait for the
        // decision until the round is given up: its coordinator suspected
        // or a nack for it heard. With no proposal yet, a suspicion of the
        // coordinator gives the round up with a nack to everyone.
        let suspect = coord != me && suspected.contains(&coord);
        if self.acked == Some(r) {
            if !suspect && !self.nacked.contains(&r) {
                return Step::Wait;
            }
            self.round = r + 1;
            return Step::Again;
        }
        if let Some(v) = self.proposals_recv.get(&r) {
            self.acked = Some(r);
            self.estimate = Some((v.clone(), r + 1));
            if coord != me {
                return Step::ToCoord(coord, r, Body::Ack);
            }
            self.acks.entry(r).or_default().insert(me);
            return Step::Again;
        }
        if suspect && self.estimate.is_some() {
            self.round = r + 1;
            return Step::ToOthers(r, Body::Nack);
        }
        // Waiting: for a proposal (participant), for estimates
        // (coordinator), or for a local proposal value.
        Step::Wait
    }
}

/// The tombstone of an instance this process has decided (and relayed):
/// what it can still be asked for. See the module docs.
struct Decided {
    value: Bytes,
    /// The user proposed here, or was asked to.
    prompted: bool,
    /// The deciders whose `Decide` has arrived, this process included.
    heard: HeardSet,
}

/// The consensus module. See module docs.
pub struct ConsensusModule {
    params: ConsensusParams,
    policy: CoordPolicy,
    svc: ServiceId,
    rp2p_svc: ServiceId,
    fd_svc: ServiceId,
    suspected: BTreeSet<StackId>,
    open: BTreeMap<(u64, u64), Open>,
    decided: BTreeMap<(u64, u64), Decided>,
    /// The instances collected so far, by namespace.
    collected: IntervalSet<u64>,
    /// The highest `k` the user has proposed, by namespace.
    proposed_hi: BTreeMap<u64, u64>,
    decided_count: u64,
    max_round_seen: u64,
}

impl ConsensusModule {
    /// Build with explicit parameters and policy.
    pub(crate) fn new(params: ConsensusParams, policy: CoordPolicy) -> ConsensusModule {
        let svc = ServiceId::new(&params.service);
        ConsensusModule {
            params,
            policy,
            svc,
            rp2p_svc: ServiceId::new(dpu_net::RP2P_SVC),
            fd_svc: ServiceId::new(crate::FD_SVC),
            suspected: BTreeSet::new(),
            open: BTreeMap::new(),
            decided: BTreeMap::new(),
            collected: IntervalSet::new(),
            proposed_hi: BTreeMap::new(),
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

    /// Instances this module holds state for: those still running plus
    /// the tombstones not yet collected. In flight + one per namespace
    /// while every member answers; see the module docs for what pins it.
    pub fn live_instances(&self) -> usize {
        self.open.len() + self.decided.len()
    }

    /// The highest round any instance reached here, counting from 0: 0
    /// means every instance decided in its first round, as every
    /// instance does where no process suspects another.
    pub fn max_round_seen(&self) -> u64 {
        self.max_round_seen
    }

    fn majority(ctx: &ModuleCtx<'_>) -> usize {
        ctx.peers().len() / 2 + 1
    }

    /// This incarnation's channel on rp2p.
    fn channel(&self) -> Channel {
        channels::CONSENSUS.at(self.params.incarnation)
    }

    /// `msg` to every process but this one, in one call of `rp2p`.
    fn send_others(ctx: &mut ModuleCtx<'_>, rp2p: &ServiceId, channel: Channel, msg: &WireMsg) {
        let me = ctx.stack_id();
        let table = ctx.peer_table();
        dgram::send_many(ctx, rp2p, table.iter().copied().filter(|&p| p != me), channel, msg);
    }

    /// `(ns, k)` decided `v`: this process found out itself (`from` is
    /// this stack) or `from` relayed it. The first time, decide, relay and
    /// answer the user; every time, note that `from` has decided.
    fn decide(&mut self, ctx: &mut ModuleCtx<'_>, ns: u64, k: u64, v: Bytes, from: StackId) {
        let channel = self.channel();
        let done = match self.decided.entry((ns, k)) {
            Entry::Occupied(done) => done.into_mut(),
            Entry::Vacant(_) if self.collected.contains((ns, k)) => return,
            Entry::Vacant(slot) => {
                let prompted =
                    self.open.remove(&(ns, k)).is_some_and(|o| o.proposal.is_some() || o.need_sent);
                let mut heard = HeardSet::new(ctx.peers().len());
                heard.mark(ctx.peers(), ctx.stack_id());
                self.decided_count += 1;
                let msg = WireMsg { ns, k, round: 0, body: Body::Decide { v: v.clone() } };
                Self::send_others(ctx, &self.rp2p_svc, channel, &msg);
                let data = ctx.encode(&(ns, k, &v));
                ctx.respond_on(&self.svc, USER.at(ns), ops::DECIDE, data);
                slot.insert(Decided { value: v, prompted, heard })
            }
        };
        done.heard.mark(ctx.peers(), from);
        if done.heard.is_complete() && self.proposed_hi.get(&ns).is_some_and(|hi| k < *hi) {
            self.collect(ns, k);
        }
    }

    /// Nothing of `(ns, k)` is in flight towards this process and its user
    /// is done with it: forget it, remember that.
    fn collect(&mut self, ns: u64, k: u64) {
        self.decided.remove(&(ns, k));
        self.collected.insert((ns, k));
    }

    /// The user proposes `(ns, k)`, so it has consumed the decisions of
    /// `ns` below `k`: collect those everyone has been heard on. Only the
    /// numbers since the last proposal need a look — a lower tombstone
    /// still here is waiting for a `Decide`, and goes when that arrives.
    fn release_below(&mut self, ns: u64, k: u64) {
        let hi = self.proposed_hi.entry(ns).or_insert(0);
        if k <= *hi {
            return;
        }
        let mut from = std::mem::replace(hi, k);
        while let Some(ripe) = self
            .decided
            .range((ns, from)..(ns, k))
            .find(|(_, done)| done.heard.is_complete())
            .map(|(&(_, ripe), _)| ripe)
        {
            self.collect(ns, ripe);
            from = ripe + 1;
        }
    }

    /// The idempotent progress engine: take every step of the CT
    /// algorithm the instance's state enables, one [`Open::step`] a pass,
    /// until it waits or decides. The decision arrives via the reliable
    /// broadcast of `Decide` and terminates the instance.
    fn advance(&mut self, ctx: &mut ModuleCtx<'_>, ns: u64, k: u64) {
        let me = ctx.stack_id();
        let majority = Self::majority(ctx);
        let policy = self.policy;
        loop {
            let Some(inst) = self.open.get_mut(&(ns, k)) else { return }; // decided
            self.max_round_seen = self.max_round_seen.max(inst.round);
            let peers = ctx.peers();
            let step = inst.step(me, majority, |r| policy.coord(peers, k, r), &self.suspected);
            match step {
                Step::Wait => return,
                Step::Again => {}
                Step::ToCoord(to, round, body) => {
                    let msg = WireMsg { ns, k, round, body };
                    dgram::send(ctx, &self.rp2p_svc, to, self.channel(), &msg);
                }
                Step::ToOthers(round, body) => {
                    let msg = WireMsg { ns, k, round, body };
                    Self::send_others(ctx, &self.rp2p_svc, self.channel(), &msg);
                }
                Step::Decide(v) => return self.decide(ctx, ns, k, v, me),
            }
        }
    }

    fn on_wire(&mut self, ctx: &mut ModuleCtx<'_>, from: StackId, msg: WireMsg) {
        let (ns, k, round) = (msg.ns, msg.k, msg.round);
        match msg.body {
            Body::Estimate { est, ts } => self.on_frame(ctx, ns, k, |inst| {
                inst.estimates.entry(round).or_default().insert(from, (est, ts));
            }),
            Body::Proposal { v } => self.on_frame(ctx, ns, k, |inst| inst.file_proposal(round, v)),
            Body::Ack => self.on_frame(ctx, ns, k, |inst| {
                inst.acks.entry(round).or_default().insert(from);
            }),
            // The nacker moved on: whoever acked `round` stops waiting
            // for its decision. The coordinator still counts the acks
            // that arrive.
            Body::Nack => self.on_frame(ctx, ns, k, |inst| {
                inst.nacked.insert(round);
            }),
            Body::Decide { v } => self.decide(ctx, ns, k, v, from),
        }
    }

    /// A frame of a running instance: `file` it (opening the instance if
    /// this is the first this process sees of it), ask the user for a
    /// proposal if it is a bystander, and take every step now enabled.
    /// For a decided instance only the question is left; for a collected
    /// one, nothing.
    fn on_frame(&mut self, ctx: &mut ModuleCtx<'_>, ns: u64, k: u64, file: impl FnOnce(&mut Open)) {
        let unprompted = if let Some(done) = self.decided.get_mut(&(ns, k)) {
            !std::mem::replace(&mut done.prompted, true)
        } else if self.collected.contains((ns, k)) {
            return;
        } else {
            let inst = self.open.entry((ns, k)).or_default();
            file(inst);
            inst.proposal.is_none() && !std::mem::replace(&mut inst.need_sent, true)
        };
        if unprompted {
            let data = ctx.encode(&(ns, k));
            ctx.respond_on(&self.svc, USER.at(ns), ops::NEED_PROPOSAL, data);
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
        vec![self.svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.rp2p_svc, self.fd_svc]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        (*service == self.rp2p_svc).then_some(self.channel())
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != ops::PROPOSE {
            return;
        }
        let Ok((ns, k, v)) = call.decode::<(u64, u64, Bytes)>() else { return };
        self.release_below(ns, k);
        if let Some(done) = self.decided.get(&(ns, k)) {
            // Already decided (e.g. the decision arrived before the local
            // proposal): re-respond for the late proposer.
            let data = ctx.encode(&(ns, k, &done.value));
            ctx.respond_on(&self.svc, USER.at(ns), ops::DECIDE, data);
            return;
        }
        if self.collected.contains((ns, k)) {
            return; // proposed out of order: the user was done with it
        }
        let inst = self.open.entry((ns, k)).or_default();
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
                .open
                .iter()
                .filter(|(_, i)| i.estimate.is_some())
                .map(|(&key, _)| key)
                .collect();
            for (ns, k) in open {
                self.advance(ctx, ns, k);
            }
            return;
        }
        if let Some((from, msg)) = dgram::recv(&resp, &self.rp2p_svc, self.channel()) {
            self.on_wire(ctx, from, msg);
        }
    }

    /// No transport, but the same report: `held` is
    /// [`ConsensusModule::live_instances`].
    fn transport_stats(&self) -> Option<TransportStats> {
        Some(TransportStats { held: self.live_instances() as u64, ..TransportStats::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::FdModule;
    use dpu_core::stack::{FactoryRegistry, Stack, StackConfig};
    use dpu_core::time::{Dur, Time};
    use dpu_core::wire::{self, Encode};
    use dpu_core::ModuleId;
    use dpu_net::dgram::{Dgram, DgramMany, DgramRef};
    use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
    use dpu_net::udp::UdpModule;
    use dpu_sim::{NetConfig, Sim, SimConfig, Topology};

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
            let fd = s.add_module(Box::new(FdModule::new()));
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
        cfg.topology = Topology::flat(NetConfig::lossy(0.15));
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

    /// Reads the consensus module of stack `node`.
    fn cons<R>(sim: &mut Sim, node: u32, f: impl FnOnce(&mut ConsensusModule) -> R) -> R {
        sim.with_stack(StackId(node), |s| s.with_module::<ConsensusModule, _>(CONS, f).unwrap())
    }

    /// What stack `node` acked in round 0 of `(0, 0)` and is waiting on.
    fn acked_value(sim: &mut Sim, node: u32) -> Option<Bytes> {
        cons(sim, node, |m| {
            let inst = m.open.get(&(0, 0)).filter(|o| o.acked == Some(0) && o.round == 0)?;
            inst.proposals_recv.get(&0).cloned()
        })
    }

    #[test]
    fn survivors_of_a_coordinator_cut_off_after_their_acks_decide_what_they_acked() {
        let mut sim = Sim::new(SimConfig::lan(3, 81), mk_stack_with(CoordPolicy::Rotating));
        sim.run_until(Time::ZERO + Dur::millis(200));
        for i in 0..3 {
            propose(&mut sim, i, 0, 0, &format!("v{i}"));
        }
        // Advance in steps shorter than a hop until both participants
        // acked round 0, then cut its coordinator, stack 0, off. Acks
        // already on the wire may still reach it, but no decision of its
        // leaves: the participants wait on a round that cannot end.
        let deadline = sim.now() + Dur::millis(50);
        let acked = loop {
            if let [Some(a), Some(b)] = [acked_value(&mut sim, 1), acked_value(&mut sim, 2)] {
                assert_eq!(a, b, "one proposal per round");
                break a;
            }
            assert!(sim.now() < deadline, "the participants never both acked round 0");
            sim.run_until(sim.now() + Dur::micros(10));
        };
        sim.partition(&[StackId(0)], &[StackId(1), StackId(2)]);
        sim.run_until(sim.now() + Dur::secs(3));
        // They suspect stack 0, move to round 1, and decide there the
        // value round 0 locked.
        for i in 1..3 {
            assert_eq!(decision(&mut sim, i, 0, 0), Some(acked.clone()), "stack {i}");
            assert_eq!(cons(&mut sim, i, |m| m.max_round_seen()), 1, "stack {i}");
        }
    }

    #[test]
    fn a_nack_that_reached_one_peer_before_its_nacker_crashed_does_not_stall_the_group() {
        // Of five, stack 2 is down, so the coordinator of round 0, stack
        // 0, needs the acks of both 1 and 3. Stack 4 reaches only stack 3:
        // it suspects 0, and its nack reaches 3 alone before 4 crashes.
        let mut sim = Sim::new(SimConfig::lan(5, 91), mk_stack_with(CoordPolicy::Rotating));
        sim.crash_at(Time::ZERO + Dur::millis(50), StackId(2));
        sim.run_until(Time::ZERO + Dur::millis(200));
        sim.partition(&[StackId(4)], &[StackId(0), StackId(1), StackId(2)]);
        propose(&mut sim, 4, 0, 0, "v4");
        let deadline = sim.now() + Dur::secs(2);
        while !cons(&mut sim, 3, |m| m.open.get(&(0, 0)).is_some_and(|o| o.nacked.contains(&0))) {
            assert!(sim.now() < deadline, "stack 4's nack never reached stack 3");
            sim.run_until(sim.now() + Dur::millis(1));
        }
        sim.crash_at(sim.now(), StackId(4));
        // Stack 3's user was asked and proposed. Stack 3 must still ack the
        // proposal when it comes, or 0 and 1 would wait for ever.
        for i in [0, 1] {
            propose(&mut sim, i, 0, 0, &format!("v{i}"));
        }
        sim.run_until(sim.now() + Dur::secs(5));
        let d = decision(&mut sim, 0, 0, 0).expect("the coordinator decides");
        for i in [1, 3] {
            assert_eq!(decision(&mut sim, i, 0, 0).as_ref(), Some(&d), "stack {i}");
        }
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
            assert_wire_contract(&WireMsg { ns: 1, k: 2, round: 3, body });
        }
        assert_wire_contract(&ConsensusParams { service: "c2".into(), incarnation: 9 });
        use dpu_core::wire::testing::assert_wire_bytes;
        let pinned: [(Body, &[u8]); 5] = [
            (Body::Estimate { est: Bytes::from("e"), ts: 4 }, &[1, 2, 3, 0, 1, b'e', 4]),
            (Body::Proposal { v: Bytes::from("p") }, &[1, 2, 3, 1, 1, b'p']),
            (Body::Ack, &[1, 2, 3, 2]),
            (Body::Nack, &[1, 2, 3, 3]),
            (Body::Decide { v: Bytes::new() }, &[1, 2, 3, 4, 0]),
        ];
        for (body, bytes) in pinned {
            assert_wire_bytes(&WireMsg { ns: 1, k: 2, round: 3, body }, bytes);
        }
        let params = ConsensusParams { service: "c2".into(), incarnation: 9 };
        assert_wire_bytes(&params, &[2, b'c', b'2', 9]);
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

    /// Stands in for rp2p on a lone stack: records what consensus sends
    /// and hands it whatever frame the test injects — or, for `fd`,
    /// whatever suspicion.
    struct Wire {
        sent: Vec<Dgram>,
    }

    const INJECT: dpu_core::Op = 99;
    const SUSPECT: dpu_core::Op = 98;

    impl Module for Wire {
        fn kind(&self) -> &str {
            "test-wire"
        }
        fn provides(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(dpu_net::RP2P_SVC)]
        }
        fn requires(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
            match call.op {
                dgram::SEND => self.sent.push(call.decode().unwrap()),
                // One frame per listed destination, as rp2p sends them.
                dgram::SEND_MANY => {
                    let d: DgramMany = call.decode().unwrap();
                    self.sent.extend(d.peers.into_iter().map(|peer| Dgram {
                        peer,
                        channel: d.channel,
                        data: d.data.clone(),
                    }));
                }
                INJECT => ctx.respond(&ServiceId::new(dpu_net::RP2P_SVC), dgram::RECV, call.data),
                SUSPECT => {
                    ctx.respond(&ServiceId::new(crate::FD_SVC), crate::fd::ops::SUSPECTS, call.data)
                }
                _ => {}
            }
        }
        fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
    }

    /// Stack `id` of a group of three, alone: m1 net, m2 wire, m3
    /// consensus, m4 user (never proposes unless the test does). Under
    /// the rotating policy stack 0 coordinates round 0 and stack 1 round 1.
    struct Lone {
        stack: Stack,
    }

    impl Lone {
        const WIRE: ModuleId = ModuleId(2);
        const CONS: ModuleId = ModuleId(3);
        const USER: ModuleId = ModuleId(4);

        fn at(id: u32) -> Lone {
            let mut stack = Stack::new(StackConfig::nth(id, 3, 1), FactoryRegistry::new());
            let wire = stack.add_module(Box::new(Wire { sent: Vec::new() }));
            let cons = stack.add_module(Box::new(ConsensusModule::new(
                ConsensusParams::default(),
                CoordPolicy::Rotating,
            )));
            stack.add_module(Box::new(User {
                decisions: BTreeMap::new(),
                needs: vec![],
                auto_value: None,
            }));
            stack.bind(&ServiceId::new(dpu_net::RP2P_SVC), wire);
            stack.bind(&ServiceId::new(crate::CONSENSUS_SVC), cons);
            let mut lone = Lone { stack };
            lone.settle();
            lone
        }

        fn settle(&mut self) {
            while self.stack.step(Time::ZERO).is_some() {}
        }

        /// A frame of instance `(0, k)`, round 0, arrives from `from`.
        fn recv(&mut self, from: u32, k: u64, body: Body) {
            let msg = WireMsg { ns: 0, k, round: 0, body };
            let d = DgramRef { peer: StackId(from), channel: channels::CONSENSUS, body: &msg };
            self.stack.call_as(
                Self::USER,
                &ServiceId::new(dpu_net::RP2P_SVC),
                INJECT,
                d.to_bytes(),
            );
            self.settle();
        }

        fn propose(&mut self, k: u64, v: &'static [u8]) {
            let payload = (0u64, k, Bytes::from_static(v)).to_bytes();
            let svc = ServiceId::new(crate::CONSENSUS_SVC);
            self.stack.call_as(Self::USER, &svc, ops::PROPOSE, payload);
            self.settle();
        }

        /// `fd` reports `who` suspected.
        fn suspect(&mut self, who: &[u32]) {
            let list: Vec<StackId> = who.iter().copied().map(StackId).collect();
            let svc = ServiceId::new(dpu_net::RP2P_SVC);
            self.stack.call_as(Self::USER, &svc, SUSPECT, list.to_bytes());
            self.settle();
        }

        /// Every frame sent so far, as `(to, round, what)`.
        fn frames(&mut self) -> Vec<(u32, u64, String)> {
            let text = |b: &Bytes| String::from_utf8_lossy(b).into_owned();
            let sent = self.stack.with_module::<Wire, _>(Self::WIRE, |w| w.sent.clone()).unwrap();
            sent.iter()
                .map(|d| {
                    let msg = wire::from_bytes::<WireMsg>(&d.data).unwrap();
                    let what = match msg.body {
                        Body::Estimate { est, ts } => format!("estimate {}@{ts}", text(&est)),
                        Body::Proposal { v } => format!("proposal {}", text(&v)),
                        Body::Ack => "ack".into(),
                        Body::Nack => "nack".into(),
                        Body::Decide { v } => format!("decide {}", text(&v)),
                    };
                    (d.peer.0, msg.round, what)
                })
                .collect()
        }

        fn max_round_seen(&mut self) -> u64 {
            self.stack
                .with_module::<ConsensusModule, _>(Self::CONS, |m| m.max_round_seen())
                .unwrap()
        }

        /// `(frames sent so far, live instances, DECIDE(0, k) seen by the
        /// user, NEED_PROPOSALs raised so far)`.
        fn state(&mut self, k: u64) -> (usize, usize, Option<Bytes>, Vec<(u64, u64)>) {
            let sent = self.stack.with_module::<Wire, _>(Self::WIRE, |w| w.sent.len()).unwrap();
            let live = self
                .stack
                .with_module::<ConsensusModule, _>(Self::CONS, |m| m.live_instances())
                .unwrap();
            let (decision, needs) = self
                .stack
                .with_module::<User, _>(Self::USER, |u| {
                    (u.decisions.remove(&(0, k)), u.needs.clone())
                })
                .unwrap();
            (sent, live, decision, needs)
        }
    }

    #[test]
    fn late_propose_is_re_answered_until_a_higher_one_releases_the_instance() {
        let v = || Bytes::from_static(b"v");
        let mut lone = Lone::at(0);
        // Stack 1 relays the decision of (0, 4): decide, relay to both
        // peers, tell the user. The user never proposed and is not asked.
        lone.recv(1, 4, Body::Decide { v: v() });
        assert_eq!(lone.state(4), (2, 1, Some(v()), vec![]));
        // Stack 2's relay completes the heard-set. Nobody proposed beyond
        // 4 yet, so the tombstone stays: the user's own DECIDE(4) may
        // still sit behind a PROPOSE 4 in the dispatch queue.
        lone.recv(2, 4, Body::Decide { v: v() });
        assert_eq!(lone.state(4), (2, 1, None, vec![]));
        // That late PROPOSE 4: re-answered, nothing sent, nothing run.
        lone.propose(4, b"late");
        assert_eq!(lone.state(4), (2, 1, Some(v()), vec![]));
        // PROPOSE 5 says the user is done with 4: collected. Instance 5
        // opens, and this stack, its round-0 coordinator, proposes its own
        // estimate to the two others at once.
        lone.propose(5, b"next");
        assert_eq!(lone.state(4), (4, 1, None, vec![]));
        // A stray frame for 4, of any kind, finds nothing and starts
        // nothing: no instance, no frame, no NEED_PROPOSAL, no decision.
        lone.recv(1, 4, Body::Estimate { est: v(), ts: 0 });
        lone.recv(2, 4, Body::Ack);
        lone.recv(2, 4, Body::Decide { v: Bytes::from_static(b"forged") });
        lone.propose(4, b"again");
        assert_eq!(lone.state(4), (4, 1, None, vec![]));
        // An instance below the highest proposed k that this stack never
        // saw is not "collected": it opens as ever, proposes the estimate
        // to the two others and asks the user.
        lone.recv(1, 2, Body::Estimate { est: v(), ts: 0 });
        assert_eq!(lone.state(2), (6, 2, None, vec![(0, 2)]));
        // It decides, is heard from everyone, and goes at once: the user
        // proposed beyond it long ago.
        lone.recv(1, 2, Body::Decide { v: v() });
        assert_eq!(lone.state(2), (8, 2, Some(v()), vec![(0, 2)]));
        lone.recv(2, 2, Body::Decide { v: v() });
        assert_eq!(lone.state(2), (8, 1, None, vec![(0, 2)]));
    }

    /// `(to, round, what)`, as [`Lone::frames`] lists a frame.
    fn frame(to: u32, round: u64, what: &str) -> (u32, u64, String) {
        (to, round, what.to_string())
    }

    #[test]
    fn a_participant_that_acked_waits_for_the_decision() {
        let mut lone = Lone::at(2);
        lone.propose(0, b"mine");
        lone.recv(0, 0, Body::Proposal { v: Bytes::from_static(b"v") });
        // No estimate for round 1 follows the ack: nothing gave round 0 up.
        let acked = [frame(0, 0, "ack")];
        assert_eq!(lone.frames(), acked);
        assert_eq!(lone.max_round_seen(), 0);
        // Its decision ends the instance: the relay to both peers is all
        // that follows.
        lone.recv(0, 0, Body::Decide { v: Bytes::from_static(b"v") });
        let relayed = [frame(0, 0, "decide v"), frame(1, 0, "decide v")];
        assert_eq!(lone.frames()[1..], relayed);
        assert_eq!(lone.max_round_seen(), 0);
    }

    #[test]
    fn a_nack_or_a_suspicion_moves_a_participant_that_acked_to_the_next_round() {
        for nack in [true, false] {
            let what = if nack { "a nack from stack 1" } else { "a suspicion of stack 0" };
            let mut lone = Lone::at(2);
            lone.propose(0, b"mine");
            lone.recv(0, 0, Body::Proposal { v: Bytes::from_static(b"v") });
            if nack {
                lone.recv(1, 0, Body::Nack);
            } else {
                lone.suspect(&[0]);
            }
            // The acked value, locked at ts 1, goes to stack 1, round 1's
            // coordinator; no nack: the ack stands.
            let expected = [frame(0, 0, "ack"), frame(1, 1, "estimate v@1")];
            assert_eq!(lone.frames(), expected, "{what}");
            assert_eq!(lone.max_round_seen(), 1, "{what}");
        }
        // A suspicion of someone else leaves the wait alone.
        let mut lone = Lone::at(2);
        lone.propose(0, b"mine");
        lone.recv(0, 0, Body::Proposal { v: Bytes::from_static(b"v") });
        lone.suspect(&[1]);
        assert_eq!(lone.frames().len(), 1);
    }

    #[test]
    fn a_nack_heard_before_the_proposal_moves_a_participant_on_only_after_its_ack() {
        let mut lone = Lone::at(2);
        lone.propose(0, b"mine");
        lone.recv(1, 0, Body::Nack);
        assert_eq!(lone.frames(), []);
        assert_eq!(lone.max_round_seen(), 0);
        // The coordinator may still lack this ack for its majority.
        lone.recv(0, 0, Body::Proposal { v: Bytes::from_static(b"v") });
        let expected = [frame(0, 0, "ack"), frame(1, 1, "estimate v@1")];
        assert_eq!(lone.frames(), expected);
    }

    #[test]
    fn a_nacker_tells_every_peer() {
        let mut lone = Lone::at(2);
        lone.propose(0, b"mine");
        lone.suspect(&[0]);
        let expected = [
            frame(0, 0, "estimate mine@0"),
            frame(0, 0, "nack"),
            frame(1, 0, "nack"),
            frame(1, 1, "estimate mine@0"),
        ];
        assert_eq!(lone.frames(), expected);
    }

    #[test]
    fn a_participant_sends_a_round_0_estimate_only_on_a_suspicion_before_the_proposal() {
        // Proposing in round 0 sends nothing: the coordinator needs no
        // estimate to propose.
        let mut lone = Lone::at(2);
        lone.propose(0, b"mine");
        assert_eq!(lone.frames(), []);
        // A suspicion of stack 1 may mean the coordinator's user was never
        // prompted: the estimate goes to stack 0, once.
        lone.suspect(&[1]);
        lone.suspect(&[]);
        lone.suspect(&[1]);
        assert_eq!(lone.frames(), [frame(0, 0, "estimate mine@0")]);
        // With the round-0 proposal in hand, a suspicion sends no estimate.
        let mut lone = Lone::at(2);
        lone.propose(0, b"mine");
        lone.recv(0, 0, Body::Proposal { v: Bytes::from_static(b"v") });
        lone.suspect(&[1]);
        assert_eq!(lone.frames(), [frame(0, 0, "ack")]);
    }

    #[test]
    fn a_coordinator_files_its_own_frames_and_proposes_to_the_others() {
        let mut lone = Lone::at(0);
        lone.propose(0, b"mine");
        // Its own estimate is enough in round 0: it is proposed to the two
        // others, and acked here in place.
        let proposed = [frame(1, 0, "proposal mine"), frame(2, 0, "proposal mine")];
        assert_eq!(lone.frames(), proposed);
        // A later estimate, however long, changes nothing.
        lone.recv(1, 0, Body::Estimate { est: Bytes::from_static(b"theirs"), ts: 0 });
        assert_eq!(lone.frames(), proposed);
        // One more ack is a majority: decide and relay to the two others.
        lone.recv(2, 0, Body::Ack);
        let decided = [frame(1, 0, "decide mine"), frame(2, 0, "decide mine")];
        assert_eq!(lone.frames()[2..], decided);
        assert_eq!(lone.state(0).2, Some(Bytes::from_static(b"mine")));
    }

    #[test]
    fn a_late_frame_still_prompts_a_bystander_once_after_the_decision() {
        let mut lone = Lone::at(0);
        lone.recv(1, 0, Body::Decide { v: Bytes::from_static(b"v") });
        // Decided without the user ever having been asked: the first late
        // frame asks (as it always did), the second does not, neither is
        // filed or answered on the wire.
        lone.recv(2, 0, Body::Estimate { est: Bytes::new(), ts: 0 });
        lone.recv(2, 0, Body::Nack);
        let (sent, live, _, needs) = lone.state(0);
        assert_eq!((sent, live, needs), (2, 1, vec![(0, 0)]));
    }

    #[test]
    fn wire_msg_rejects_bad_tag() {
        let raw = wire::to_bytes(&(0u64, 0u64, 0u64, 9u32));
        assert!(wire::from_bytes::<WireMsg>(&raw).is_err());
    }
}
