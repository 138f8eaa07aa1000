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
//! no option; the bookkeeping is one bit per group member (a
//! [`HeardSet`]) plus the pending ids.

use crate::layer::{self, Indirection};
use crate::CHANGE_OP;
use bytes::Bytes;
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Time;
use dpu_core::{Call, HeardSet, Module, ModuleId, ModuleSpec, Response, ServiceId, StackId};
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

dpu_core::wire_codec!(ReplParams { service });

/// What the replacement layer hands to the underlying atomic broadcast:
/// either an ordinary message (tag `nil` in the paper) or a replacement
/// request (tag `newABcast`), both stamped with the current protocol
/// version `sn`.
pub(crate) enum ReplPayload {
    /// `(nil, sn, m)` — an ordinary message with its unique id.
    Nil { sn: u64, id: (StackId, u64), data: Bytes },
    /// `(newABcast, sn, prot)` — a replacement request.
    NewAbcast { sn: u64, spec: ModuleSpec },
}

dpu_core::wire_codec!(enum ReplPayload { 0 => Nil { sn, id, data }, 1 => NewAbcast { sn, spec } });

/// Algorithm 1's variables and the lines that [`ReplAbcastModule`] and
/// the [`crate::ablation`] variants run alike; the `sn` guards of lines
/// 10 and 18 and the call of lines 15–16 are left to the module, because
/// those are what an ablation omits.
pub(crate) struct Algorithm1 {
    pub(crate) ind: Indirection,
    /// `seqNumber`.
    pub seq_number: u64,
    /// `undelivered`, keyed by unique message id. Only locally-sent
    /// messages are tracked (line 8 runs on the sender).
    undelivered: BTreeMap<(StackId, u64), Bytes>,
    next_id: u64,
}

impl Algorithm1 {
    pub fn over(service: &str) -> Algorithm1 {
        Algorithm1 {
            ind: Indirection::over(service),
            seq_number: 0,
            undelivered: BTreeMap::new(),
            next_id: 0,
        }
    }

    pub fn undelivered_len(&self) -> usize {
        self.undelivered.len()
    }

    /// Lines 5–9: the calls on `r-abcast`.
    pub fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        match call.op {
            // Lines 7–9: rABcast(m).
            ab_ops::ABCAST => {
                let id = (ctx.stack_id(), self.next_id);
                self.next_id += 1;
                self.undelivered.insert(id, call.data.clone());
                self.ind
                    .abcast(ctx, &ReplPayload::Nil { sn: self.seq_number, id, data: call.data });
            }
            // Lines 5–6: changeABcast(prot).
            CHANGE_OP => {
                let Some(spec) = self.ind.change_requested(ctx, &call) else { return };
                self.ind.abcast(ctx, &ReplPayload::NewAbcast { sn: self.seq_number, spec });
            }
            _ => {}
        }
    }

    /// Lines 11–14: apply the replacement whose request was just
    /// adelivered. Returns the provider that was bound until now.
    pub(crate) fn switch_to(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        spec: &ModuleSpec,
    ) -> Option<ModuleId> {
        layer::requested(ctx);
        // There is no explicit flush protocol: the total order itself
        // guarantees old-protocol messages are all delivered or reissued,
        // so "flushed" coincides with the unbind of the outgoing provider.
        layer::flushed(ctx);
        self.seq_number += 1; // line 11
        let outgoing = ctx.bound(&self.ind.required);
        ctx.unbind(&self.ind.required); // line 12
        layer::install(ctx, spec); // lines 13–14
        layer::activated(ctx);
        outgoing
    }

    /// Lines 15–16: reissue `undelivered` under the new protocol. Returns
    /// how many messages that was.
    pub(crate) fn reissue(&mut self, ctx: &mut ModuleCtx<'_>) -> u64 {
        let reissue: Vec<((StackId, u64), Bytes)> =
            self.undelivered.iter().map(|(&id, data)| (id, data.clone())).collect();
        let count = reissue.len() as u64;
        for (id, data) in reissue {
            self.ind.abcast(ctx, &ReplPayload::Nil { sn: self.seq_number, id, data });
        }
        count
    }

    /// Lines 19–21: `m` leaves `undelivered` and is rAdelivered.
    pub fn deliver(&mut self, ctx: &mut ModuleCtx<'_>, id: (StackId, u64), data: Bytes) {
        self.undelivered.remove(&id);
        self.ind.radeliver(ctx, data);
    }
}

/// The replacement module for atomic broadcast (Algorithm 1). See the
/// module docs for the listing and the correspondence.
pub struct ReplAbcastModule {
    core: Algorithm1,
    // ---- retirement (see the module docs) ----
    /// Replaced providers still in the stack, oldest first.
    pending: Vec<ModuleId>,
    /// The stacks whose message tagged with the current `seqNumber` was
    /// adelivered here. Empty until the first switch.
    heard: HeardSet,
    retired_total: u32,
    // ---- instrumentation (not part of the algorithm) ----
    reissued_total: u64,
    ahead_dropped: u64,
    switch_times: Vec<Time>,
}

impl ReplAbcastModule {
    /// Build with explicit parameters.
    pub fn new(params: ReplParams) -> ReplAbcastModule {
        ReplAbcastModule {
            core: Algorithm1::over(&params.service),
            pending: Vec::new(),
            heard: HeardSet::default(),
            retired_total: 0,
            reissued_total: 0,
            ahead_dropped: 0,
            switch_times: Vec::new(),
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, ReplAbcastModule::new);
    }

    /// Algorithm 1's `seqNumber`: the current protocol version.
    pub fn seq_number(&self) -> u64 {
        self.core.seq_number
    }

    /// Messages sent locally and not yet rAdelivered.
    pub fn undelivered_len(&self) -> usize {
        self.core.undelivered_len()
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

    /// Payloads adelivered here under a `seqNumber` *higher* than this
    /// stack's own and discarded by the `sn` guards of lines 10 and 18:
    /// traffic of a newer protocol that overtook the local switch.
    pub fn ahead_dropped(&self) -> u64 {
        self.ahead_dropped
    }

    /// Local application times of every replacement, in order. The
    /// paper's "replacement finishes when all machines have replaced the
    /// old modules" is the max of the k-th entry across stacks.
    pub fn switch_times(&self) -> &[Time] {
        &self.switch_times
    }

    /// The `sn` guard of lines 10 and 18. The listing discards whatever
    /// is not of the current protocol as "older"; a payload of a *newer*
    /// one, adelivered ahead of the local switch, fails the same test and
    /// is counted apart — nothing re-sends it.
    fn is_current(&mut self, sn: u64) -> bool {
        self.ahead_dropped += u64::from(sn > self.core.seq_number);
        sn == self.core.seq_number
    }

    /// Every member has been heard under the current `seqNumber`, so no
    /// stack has a pending module bound any more: destroy them.
    fn retire(&mut self, ctx: &mut ModuleCtx<'_>) {
        let retired = self.pending.len() as u32;
        for module in self.pending.drain(..) {
            ctx.destroy_module(module);
        }
        self.retired_total += retired;
        ctx.telemetry().note_retired(retired);
    }
}

impl Module for ReplAbcastModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.core.ind.provided]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.core.ind.required]
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        self.core.on_call(ctx, call);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let Some(payload) = self.core.ind.adelivered::<ReplPayload>(&resp) else { return };
        match payload {
            // Lines 10–16: Adeliver(newABcast, sn, prot).
            ReplPayload::NewAbcast { sn, spec } => {
                if !self.is_current(sn) {
                    return; // stale switch request from an old protocol
                }
                // The outgoing provider joins the pending list and nobody
                // has been heard under the new `seqNumber` yet. Exact
                // growth, like the timeline's records: switches are rare.
                if let Some(outgoing) = self.core.switch_to(ctx, &spec) {
                    self.pending.reserve_exact(1);
                    self.pending.push(outgoing);
                }
                self.heard = HeardSet::new(ctx.peers().len());
                self.switch_times.reserve_exact(1);
                self.switch_times.push(ctx.now());
                self.reissued_total += self.core.reissue(ctx);
            }
            // Lines 17–21: Adeliver(nil, sn, m).
            ReplPayload::Nil { sn, id, data } => {
                if !self.is_current(sn) {
                    return; // line 18: message of an older protocol
                }
                // `id.0` has a message tagged with the current `seqNumber`
                // in the total order, so it has switched.
                if !self.pending.is_empty() && self.heard.mark(ctx.peers(), id.0) {
                    self.retire(ctx);
                }
                self.core.deliver(ctx, id, data);
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
        use dpu_core::wire::testing::assert_wire_bytes;
        assert_wire_bytes(&ReplParams { service: "ab".into() }, &[2, b'a', b'b']);
        let nil = ReplPayload::Nil { sn: 1, id: (StackId(0), 7), data: Bytes::from("m") };
        assert_wire_bytes(&nil, &[0, 1, 0, 7, 1, b'm']);
        let spec = ModuleSpec::with_params("k", &7u64);
        assert_wire_bytes(&ReplPayload::NewAbcast { sn: 2, spec }, &[1, 2, 1, b'k', 1, 7]);
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

    /// The bytes `ReplPayload` and the ablation's own copy of it both
    /// produced at commit 7ad5825, before the copy was dropped.
    #[test]
    fn payload_keeps_the_parent_commits_bytes() {
        let hex = |p: &ReplPayload| -> String {
            wire::to_bytes(p).iter().map(|b| format!("{b:02x}")).collect()
        };
        let nil = ReplPayload::Nil { sn: 3, id: (StackId(1), 9), data: Bytes::from_static(b"msg") };
        assert_eq!(hex(&nil), "00030109036d7367");
        let spec = ModuleSpec::with_params("abcast.seq", &7u64);
        assert_eq!(hex(&ReplPayload::NewAbcast { sn: 1, spec }), "01010a6162636173742e7365710107");
    }

    #[test]
    fn factory_registration() {
        let mut reg = dpu_core::FactoryRegistry::new();
        ReplAbcastModule::register(&mut reg);
        let m = reg.build(&ModuleSpec::new(KIND)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.provides(), vec![ServiceId::new("r-abcast")]);
    }

    #[test]
    fn the_module_is_no_larger_than_before_the_skeleton() {
        // `switch-1k-sim` and `fig5-ct-sim` carry one per stack.
        assert!(std::mem::size_of::<ReplAbcastModule>() <= 160);
    }

    // End-to-end switching behaviour (multi-stack, across protocols,
    // with load and crashes) is exercised in the builder module's tests
    // and in the workspace-level integration tests.
}
