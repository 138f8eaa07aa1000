//! **Algorithm 1** of the paper: replacement of atomic broadcast.
//!
//! The `Repl-ABcast` module provides the indirection interface `r-abcast`
//! and requires `abcast`. Users of atomic broadcast (the application,
//! group membership, …) are wired to `r-abcast`; the protocol being
//! replaced is completely unaware of the replacement machinery, and the
//! replacement machinery depends only on the *specification* of atomic
//! broadcast — the two structural claims of §4.
//!
//! ```text
//! 1  Initialisation:
//! 2      undelivered ← ∅                 {messages not yet rAdelivered}
//! 3      curABcast ← current ABcast protocol
//! 4      seqNumber ← 0
//! 5  upon changeABcast(prot) do
//! 6      ABcast(newABcast, seqNumber, prot)
//! 7  upon rABcast(m) do
//! 8      undelivered ← undelivered ∪ {m}
//! 9      ABcast(nil, seqNumber, m)
//! 10 upon Adeliver(newABcast, sn, prot) do
//! 11     seqNumber ← seqNumber + 1
//! 12     unbind(curABcast)
//! 13     create_module(prot)             {recursively creates required services}
//! 14     curABcast ← prot
//! 15     for all m ∈ undelivered do
//! 16         ABcast(nil, seqNumber, m)
//! 17 upon Adeliver(nil, sn, m) do
//! 18     if sn = seqNumber then          {discard messages of older protocols}
//! 19         if m ∈ undelivered then undelivered ← undelivered ∖ {m}
//! 20         rAdeliver(m)
//! ```
//!
//! Because the replacement request travels through the old ABcast itself,
//! its position in the total order *is* the switch point: every stack
//! switches after delivering exactly the same prefix, which is what makes
//! the four atomic broadcast properties carry over (proof in §5.2.2,
//! checked mechanically by this module's tests via
//! [`dpu_core::abcast_check::AbcastChecker`]).
//!
//! One deviation from the paper's listing: line 10 is guarded by
//! `sn = seqNumber`, mirroring line 18. The listing relies on the switch
//! message being delivered once per protocol version; since an *unbound*
//! old module may still respond (§2 explicitly allows it), the guard
//! discards stale `newABcast` deliveries the same way stale `nil` ones
//! are discarded.
//!
//! A second deviation: **retirement**. Line 12 only unbinds, and §2 lets
//! an unbound module stay (and respond); the listing never removes it.
//! Left at that, every replaced incarnation keeps receiving — and being
//! charged for — each response of the services it requires, so the cost
//! of a message grows with the number of replacements behind it, and
//! latency after a replacement does not return to what it was before
//! (the opposite of Figure 5). §3 states when a module may go: once no
//! stack has it bound. This module learns that from the total order, at
//! zero messages: when it applies the switch to `sn` it remembers the
//! outgoing provider as *pending* and starts an empty set of origins
//! heard at `sn`; every `Adeliver(nil, sn = seqNumber, id)` marks
//! `id`'s origin; once every member of the group is marked, all pending
//! modules are destroyed. A switch that lands before the previous
//! incarnation was retired appends to the pending list and starts the
//! set afresh, so hearing everyone at the newer `sn` retires them all.
//!
//! Why it is safe: a message tagged `sn` was ABcast by its origin
//! *after* the origin ran lines 11–14 for `sn`, so that origin has
//! nothing older bound, and whatever an older incarnation could still
//! deliver anywhere is discarded by line 18. A stack that lags behind
//! the switch is, for that very reason, never heard at `sn`, so nobody
//! pulls the old protocol out from under it — including protocols that
//! relay through their peers' old modules (ring, hier). A crashed or
//! silent peer is never heard either and pins retirement: the replaced
//! modules then stay, exactly as the listing has it, and the gap shows
//! as `completed − retired` in the telemetry report and as
//! [`ReplAbcastModule::pending_retirement`] here. No timer, no message,
//! no option; the bookkeeping is one bit per group member plus the
//! pending ids, allocated by the first switch.

use crate::CHANGE_OP;
use bytes::{Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Time;
use dpu_core::wire::{Decode, Encode, WireError, WireResult};
use dpu_core::{Call, Module, ModuleId, ModuleSpec, Response, ServiceId, StackId};
use dpu_protocols::abcast::ops as ab_ops;
use std::collections::BTreeMap;

/// Module kind name, for factory registration.
pub const KIND: &str = "repl.abcast";

/// Factory parameters of the replacement module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplParams {
    /// The updateable service (default [`dpu_protocols::ABCAST_SVC`]).
    /// The module provides `r-<service>` and requires `<service>`.
    pub service: String,
}

impl Default for ReplParams {
    fn default() -> Self {
        ReplParams { service: dpu_protocols::ABCAST_SVC.to_string() }
    }
}

impl Encode for ReplParams {
    fn encode(&self, buf: &mut BytesMut) {
        self.service.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.service.encoded_len()
    }
}

impl Decode for ReplParams {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(ReplParams { service: String::decode(buf)? })
    }
}

/// What the replacement layer hands to the underlying atomic broadcast:
/// either an ordinary message (tag `nil` in the paper) or a replacement
/// request (tag `newABcast`), both stamped with the current protocol
/// version `sn`.
enum ReplPayload {
    /// `(nil, sn, m)` — an ordinary message with its unique id.
    Nil { sn: u64, id: (StackId, u64), data: Bytes },
    /// `(newABcast, sn, prot)` — a replacement request.
    NewAbcast { sn: u64, spec: ModuleSpec },
}

impl Encode for ReplPayload {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ReplPayload::Nil { sn, id, data } => {
                0u32.encode(buf);
                sn.encode(buf);
                id.0.encode(buf);
                id.1.encode(buf);
                data.encode(buf);
            }
            ReplPayload::NewAbcast { sn, spec } => {
                1u32.encode(buf);
                sn.encode(buf);
                spec.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            ReplPayload::Nil { sn, id, data } => {
                0u32.encoded_len()
                    + sn.encoded_len()
                    + id.0.encoded_len()
                    + id.1.encoded_len()
                    + data.encoded_len()
            }
            ReplPayload::NewAbcast { sn, spec } => {
                1u32.encoded_len() + sn.encoded_len() + spec.encoded_len()
            }
        }
    }
}

impl Decode for ReplPayload {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        match u32::decode(buf)? {
            0 => Ok(ReplPayload::Nil {
                sn: u64::decode(buf)?,
                id: (StackId::decode(buf)?, u64::decode(buf)?),
                data: Bytes::decode(buf)?,
            }),
            1 => {
                Ok(ReplPayload::NewAbcast { sn: u64::decode(buf)?, spec: ModuleSpec::decode(buf)? })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The replacement module for atomic broadcast (Algorithm 1). See the
/// module docs for the listing and the correspondence.
pub struct ReplAbcastModule {
    /// `r-<service>`: what callers are wired to.
    provided: ServiceId,
    /// `<service>`: the updateable protocol underneath.
    required: ServiceId,
    /// Algorithm 1's `seqNumber`.
    seq_number: u64,
    /// Algorithm 1's `undelivered`, keyed by unique message id. Only
    /// locally-sent messages are tracked (line 8 runs on the sender).
    undelivered: BTreeMap<(StackId, u64), Bytes>,
    next_id: u64,
    // ---- retirement (see the module docs) ----
    /// Replaced providers still in the stack, oldest first.
    pending: Vec<ModuleId>,
    /// One bit per entry of `ctx.peers()`: set once that stack's message
    /// tagged with the current `seqNumber` was adelivered here. Empty
    /// until the first switch.
    heard: Box<[u64]>,
    /// Clear bits left in `heard`.
    unheard: u32,
    retired_total: u32,
    // ---- instrumentation (not part of the algorithm) ----
    reissued_total: u64,
    switch_times: Vec<Time>,
    delivered_count: u64,
}

impl ReplAbcastModule {
    /// Build with explicit parameters.
    pub fn new(params: ReplParams) -> ReplAbcastModule {
        let required = ServiceId::new(&params.service);
        ReplAbcastModule {
            provided: required.replaced(),
            required,
            seq_number: 0,
            undelivered: BTreeMap::new(),
            next_id: 0,
            pending: Vec::new(),
            heard: Box::default(),
            unheard: 0,
            retired_total: 0,
            reissued_total: 0,
            switch_times: Vec::new(),
            delivered_count: 0,
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register(KIND, |spec: &ModuleSpec| {
            let params = if spec.params.is_empty() {
                ReplParams::default()
            } else {
                spec.params::<ReplParams>().unwrap_or_default()
            };
            Box::new(ReplAbcastModule::new(params))
        });
    }

    /// Algorithm 1's `seqNumber`: the current protocol version.
    pub fn seq_number(&self) -> u64 {
        self.seq_number
    }

    /// Messages sent locally and not yet rAdelivered.
    pub fn undelivered_len(&self) -> usize {
        self.undelivered.len()
    }

    /// How many replacements this stack has applied.
    pub fn switches_applied(&self) -> u64 {
        self.switch_times.len() as u64
    }

    /// Replaced modules this stack has destroyed, over all switches.
    pub fn retired_total(&self) -> u64 {
        u64::from(self.retired_total)
    }

    /// Replaced modules still in the stack, waiting for every member of
    /// the group to be heard under the current protocol. Stays non-zero
    /// for as long as a peer is crashed or silent.
    pub fn pending_retirement(&self) -> usize {
        self.pending.len()
    }

    /// Total messages re-issued across all switches (lines 15–16).
    pub fn reissued_total(&self) -> u64 {
        self.reissued_total
    }

    /// Virtual time at which the last replacement was applied locally.
    pub fn last_switch_at(&self) -> Option<Time> {
        self.switch_times.last().copied()
    }

    /// Local application times of every replacement, in order. The
    /// paper's "replacement finishes when all machines have replaced the
    /// old modules" is the max of the k-th entry across stacks.
    pub fn switch_times(&self) -> &[Time] {
        &self.switch_times
    }

    /// Messages rAdelivered to the users above.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    fn abcast(&self, ctx: &mut ModuleCtx<'_>, payload: &ReplPayload) {
        let data = ctx.encode(payload);
        ctx.call(&self.required, ab_ops::ABCAST, data);
    }

    /// The switch to the current `seqNumber` is being applied: `outgoing`
    /// joins the pending list and nobody has been heard yet.
    fn await_retirement(&mut self, outgoing: Option<ModuleId>, group: usize) {
        if let Some(module) = outgoing {
            self.pending.reserve_exact(1);
            self.pending.push(module);
        }
        self.heard = vec![0; group.div_ceil(64)].into();
        self.unheard = u32::try_from(group).expect("stack ids are u32");
    }

    /// `origin` has a message tagged with the current `seqNumber` in the
    /// total order, so it has switched. Once the whole group has, no
    /// stack has a pending module bound any more: destroy them.
    fn heard_from(&mut self, ctx: &mut ModuleCtx<'_>, origin: StackId) {
        let peers = ctx.peers();
        // Every host numbers its group 0..n; search only if one does not.
        let identity = (peers.get(origin.idx()) == Some(&origin)).then_some(origin.idx());
        let Some(idx) = identity.or_else(|| peers.iter().position(|p| *p == origin)) else {
            return; // not a member of the group
        };
        let bit = 1u64 << (idx % 64);
        if self.heard[idx / 64] & bit != 0 {
            return;
        }
        self.heard[idx / 64] |= bit;
        self.unheard -= 1;
        if self.unheard == 0 {
            let retired = self.pending.len() as u32;
            for module in self.pending.drain(..) {
                ctx.destroy_module(module);
            }
            self.retired_total += retired;
            ctx.telemetry().note_retired(retired);
        }
    }
}

impl Module for ReplAbcastModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.provided.clone()]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.required.clone()]
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        match call.op {
            // Lines 7–9: rABcast(m).
            ab_ops::ABCAST => {
                let id = (ctx.stack_id(), self.next_id);
                self.next_id += 1;
                self.undelivered.insert(id, call.data.clone());
                self.abcast(ctx, &ReplPayload::Nil { sn: self.seq_number, id, data: call.data });
            }
            // Lines 5–6: changeABcast(prot).
            CHANGE_OP => {
                let Ok(spec) = call.decode::<ModuleSpec>() else { return };
                // The initiator learns of the switch here; everyone else
                // when the NewAbcast announcement is adelivered (the
                // timeline's `requested` stamp is idempotent across both).
                let now_ns = ctx.now().as_nanos();
                ctx.telemetry().switch_requested(now_ns);
                self.abcast(ctx, &ReplPayload::NewAbcast { sn: self.seq_number, spec });
            }
            _ => {}
        }
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.service != self.required || resp.op != ab_ops::ADELIVER {
            return;
        }
        let Ok(payload) = resp.decode::<ReplPayload>() else { return };
        match payload {
            // Lines 10–16: Adeliver(newABcast, sn, prot).
            ReplPayload::NewAbcast { sn, spec } => {
                if sn != self.seq_number {
                    return; // stale switch request from an old protocol
                }
                let now_ns = ctx.now().as_nanos();
                ctx.telemetry().switch_requested(now_ns);
                self.seq_number += 1; // line 11
                                      // Under Repl there is no explicit flush protocol: the
                                      // total order itself guarantees old-protocol messages are
                                      // all delivered or reissued, so "flushed" coincides with
                                      // the unbind of the outgoing provider.
                ctx.telemetry().switch_flushed(now_ns);
                let outgoing = ctx.bound(&self.required);
                self.await_retirement(outgoing, ctx.peers().len());
                ctx.unbind(&self.required); // line 12
                match ctx.create_module(&spec) {
                    // lines 13–14 (create_module binds the new provider
                    // and recursively creates its required services)
                    Ok(_new_module) => {}
                    Err(e) => {
                        // The switch was agreed globally but this stack
                        // cannot build the protocol: surface loudly. The
                        // service stays unbound, so calls block (weak
                        // well-formedness) rather than corrupt state.
                        panic!("replacement failed on {}: {e}", ctx.stack_id());
                    }
                }
                let activated_ns = ctx.now().as_nanos();
                ctx.telemetry().switch_activated(activated_ns);
                // Exact growth, like the timeline's records: switches are rare.
                self.switch_times.reserve_exact(1);
                self.switch_times.push(ctx.now());
                // Lines 15–16: reissue undelivered under the new protocol.
                let reissue: Vec<((StackId, u64), Bytes)> =
                    self.undelivered.iter().map(|(&id, data)| (id, data.clone())).collect();
                self.reissued_total += reissue.len() as u64;
                for (id, data) in reissue {
                    self.abcast(ctx, &ReplPayload::Nil { sn: self.seq_number, id, data });
                }
            }
            // Lines 17–21: Adeliver(nil, sn, m).
            ReplPayload::Nil { sn, id, data } => {
                if sn != self.seq_number {
                    return; // line 18: message of an older protocol
                }
                self.undelivered.remove(&id); // lines 19–20
                self.delivered_count += 1;
                if !self.pending.is_empty() {
                    self.heard_from(ctx, id.0);
                }
                // Closes the blackout window on the first post-switch
                // delivery regardless of whether the consumer above
                // timestamps its messages.
                let now_ns = ctx.now().as_nanos();
                ctx.telemetry().note_switch_delivery(now_ns);
                ctx.respond(&self.provided, ab_ops::ADELIVER, data); // line 21
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::wire;

    #[test]
    fn repl_payload_wire_contract() {
        use dpu_core::wire::testing::assert_wire_contract;
        assert_wire_contract(&ReplParams::default());
        assert_wire_contract(&ReplPayload::Nil {
            sn: 1,
            id: (StackId(0), 7),
            data: Bytes::from_static(b"m"),
        });
        assert_wire_contract(&ReplPayload::NewAbcast { sn: 2, spec: ModuleSpec::new("abcast.ct") });
    }

    #[test]
    fn params_roundtrip_and_naming() {
        let p = ReplParams { service: "abcast".into() };
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<ReplParams>(&b).unwrap(), p);
        let m = ReplAbcastModule::new(p);
        assert_eq!(m.provides(), vec![ServiceId::new("r-abcast")]);
        assert_eq!(m.requires(), vec![ServiceId::new("abcast")]);
    }

    #[test]
    fn payload_roundtrips() {
        let nil = ReplPayload::Nil { sn: 3, id: (StackId(1), 9), data: Bytes::from_static(b"msg") };
        let b = wire::to_bytes(&nil);
        match wire::from_bytes::<ReplPayload>(&b).unwrap() {
            ReplPayload::Nil { sn, id, data } => {
                assert_eq!((sn, id, data), (3, (StackId(1), 9), Bytes::from_static(b"msg")));
            }
            _ => panic!("wrong variant"),
        }
        let sw = ReplPayload::NewAbcast { sn: 1, spec: ModuleSpec::new("abcast.seq") };
        let b = wire::to_bytes(&sw);
        match wire::from_bytes::<ReplPayload>(&b).unwrap() {
            ReplPayload::NewAbcast { sn, spec } => {
                assert_eq!(sn, 1);
                assert_eq!(spec.kind, "abcast.seq");
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn factory_registration() {
        let mut reg = dpu_core::FactoryRegistry::new();
        ReplAbcastModule::register(&mut reg);
        let m = reg.build(&ModuleSpec::new(KIND)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new("r-abcast")]);
    }

    // End-to-end switching behaviour (multi-stack, across protocols,
    // with load and crashes) is exercised in the builder module's tests
    // and in the workspace-level integration tests.
}
