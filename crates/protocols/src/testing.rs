//! Conformance-test scaffolding for the atomic broadcast variants.
//!
//! This module is the reusable half of the total-order conformance
//! harness: a [`Variant`] enumeration over every interchangeable
//! atomic broadcast implementation, a standard stack builder
//! ([`conformance_stack`]) and pure assertions over delivery logs that
//! encode the §5.1 specification. The simulation-driving matrix lives
//! in the workspace-level `tests/abcast_conformance.rs`; adding a fifth
//! variant to the matrix is one new [`Variant`] arm.
//!
//! Everything here depends only on `dpu-core` and `dpu-net` (not on the
//! simulator), so any host — the simulator, the threaded runtime, a
//! future deployment harness — can drive the same stacks and feed the
//! same assertions.

use crate::abcast::ct::{CtAbcastModule, CtAbcastParams};
use crate::abcast::hier::{HierAbcastModule, HierAbcastParams};
use crate::abcast::ops;
use crate::abcast::ring::{RingAbcastModule, RingAbcastParams};
use crate::abcast::sequencer::{SeqAbcastModule, SeqAbcastParams};
use crate::consensus::{ConsensusModule, ConsensusParams, CoordPolicy};
use crate::fd::FdModule;
use bytes::Bytes;
use dpu_core::stack::{FactoryRegistry, ModuleCtx, Stack, StackConfig};
use dpu_core::{Call, Module, ModuleId, Response, ServiceId};
use dpu_net::rp2p::{Rp2pConfig, Rp2pModule};
use dpu_net::udp::UdpModule;
use std::collections::BTreeSet;

/// One interchangeable atomic broadcast implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Consensus-based (Chandra–Toueg transformation).
    Ct,
    /// Fixed sequencer.
    Seq,
    /// Privilege-based token ring.
    Ring,
    /// Hierarchical per-cluster sequencers under a merge leader.
    Hier,
}

/// Every variant, in registration order — iterate this to cover the
/// whole family.
pub const ALL_VARIANTS: [Variant; 4] = [Variant::Ct, Variant::Seq, Variant::Ring, Variant::Hier];

impl Variant {
    /// Short name for test labels.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Ct => "ct",
            Variant::Seq => "seq",
            Variant::Ring => "ring",
            Variant::Hier => "hier",
        }
    }

    /// Build the variant's module with incarnation `ns` and its
    /// defaults otherwise.
    pub fn module(&self, ns: u64) -> Box<dyn Module> {
        match self {
            Variant::Ct => Box::new(CtAbcastModule::new(CtAbcastParams {
                namespace: ns,
                ..CtAbcastParams::default()
            })),
            Variant::Seq => Box::new(SeqAbcastModule::new(SeqAbcastParams {
                namespace: ns,
                ..SeqAbcastParams::default()
            })),
            Variant::Ring => Box::new(RingAbcastModule::new(RingAbcastParams { namespace: ns })),
            Variant::Hier => Box::new(HierAbcastModule::new(HierAbcastParams {
                namespace: ns,
                ..HierAbcastParams::default()
            })),
        }
    }
}

/// Records every ADELIVER payload, in order. The conformance assertions
/// run over these logs.
pub(crate) struct RecordingApp {
    /// The delivery log, in Adelivery order.
    pub delivered: Vec<Bytes>,
}

impl Module for RecordingApp {
    fn kind(&self) -> &str {
        "conformance-app"
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

/// Module id of the [`RecordingApp`] in a [`conformance_stack`].
pub(crate) const APP: ModuleId = ModuleId(7);

/// Build the standard conformance stack over `variant`'s module with
/// incarnation `ns`: identical layout for every variant, so runs differ
/// only in the protocol under test.
pub fn conformance_stack(sc: StackConfig, variant: Variant, ns: u64) -> Stack {
    stack_over(sc, variant.module(ns))
}

/// The conformance stack over any `abcast` module: net bridge → udp →
/// rp2p → fd → consensus → `abcast` → [`RecordingApp`], modules 1 to 7.
pub(crate) fn stack_over(sc: StackConfig, abcast: Box<dyn Module>) -> Stack {
    let mut s = Stack::new(sc, FactoryRegistry::new());
    let udp = s.add_module(Box::new(UdpModule::new()));
    let rp2p = s.add_module(Box::new(Rp2pModule::new(Rp2pConfig::default())));
    let fd = s.add_module(Box::new(FdModule::new()));
    let cons = s.add_module(Box::new(ConsensusModule::new(
        ConsensusParams::default(),
        CoordPolicy::Rotating,
    )));
    let ab = s.add_module(abcast);
    s.add_module(Box::new(RecordingApp { delivered: vec![] }));
    s.bind(&ServiceId::new(dpu_net::UDP_SVC), udp);
    s.bind(&ServiceId::new(dpu_net::RP2P_SVC), rp2p);
    s.bind(&ServiceId::new(crate::FD_SVC), fd);
    s.bind(&ServiceId::new(crate::CONSENSUS_SVC), cons);
    s.bind(&ServiceId::new(crate::ABCAST_SVC), ab);
    s
}

/// ABcast one payload from a [`conformance_stack`], as the app module.
pub fn send(stack: &mut Stack, payload: Bytes) {
    stack.call_as(APP, &ServiceId::new(crate::ABCAST_SVC), ops::ABCAST, payload);
}

/// The delivery log of a [`conformance_stack`].
pub fn log(stack: &mut Stack) -> Vec<Bytes> {
    stack.with_module::<RecordingApp, _>(APP, |a| a.delivered.clone()).expect("conformance app")
}

/// **Uniform integrity**, first half: no payload is Adelivered twice in
/// one log. (Payloads are assumed unique per broadcast — the matrix
/// encodes origin and sequence into each one.)
pub fn assert_no_duplicates(who: &str, log: &[Bytes]) {
    let unique: BTreeSet<&Bytes> = log.iter().collect();
    assert_eq!(unique.len(), log.len(), "{who}: duplicate deliveries");
}

/// **Uniform integrity**, second half: everything Adelivered was
/// previously ABcast (no creation, no corruption).
pub fn assert_no_creation(who: &str, log: &[Bytes], sent: &BTreeSet<Bytes>) {
    for m in log {
        assert!(sent.contains(m), "{who}: delivered a never-broadcast payload {m:?}");
    }
}

/// **Uniform total order** (and agreement on the common prefix): every
/// pair of logs must agree where both have entries — the shorter log is
/// a prefix of the longer. Holds even for nodes that crashed or
/// restarted mid-run, whose logs simply stop short (or are empty).
pub(crate) fn assert_prefix_agreement(logs: &[(String, Vec<Bytes>)]) {
    for (wa, a) in logs {
        for (wb, b) in logs {
            let common = a.len().min(b.len());
            assert_eq!(
                &a[..common],
                &b[..common],
                "total order violated between {wa} (len {}) and {wb} (len {})",
                a.len(),
                b.len()
            );
        }
    }
}

/// Full conformance for a crash-free run: prefix agreement plus
/// **validity/agreement** — every log contains exactly the broadcast
/// set, i.e. everything sent was delivered everywhere.
pub fn assert_complete(logs: &[(String, Vec<Bytes>)], sent: &BTreeSet<Bytes>) {
    assert_prefix_agreement(logs);
    for (who, log) in logs {
        assert_no_duplicates(who, log);
        assert_no_creation(who, log, sent);
        assert_eq!(
            log.len(),
            sent.len(),
            "{who}: delivered {} of {} broadcast payloads",
            log.len(),
            sent.len()
        );
    }
}

/// Total-order check for a log that may have started mid-stream (a
/// churn-restarted incarnation joins at the current position, not at
/// the beginning): the log must be an order-preserving subsequence of
/// the reference log.
pub fn assert_subsequence(who: &str, log: &[Bytes], reference: &[Bytes]) {
    let mut it = reference.iter();
    for m in log {
        assert!(it.any(|r| r == m), "{who}: delivery {m:?} contradicts the reference total order");
    }
}

/// Safety-only conformance for runs with crashes or churn: agreement on
/// common prefixes, no duplication, no creation. Completeness is not
/// asserted — non-fault-tolerant variants may legitimately stall, and
/// restarted incarnations may deliver nothing.
pub fn assert_safe(logs: &[(String, Vec<Bytes>)], sent: &BTreeSet<Bytes>) {
    assert_prefix_agreement(logs);
    for (who, log) in logs {
        assert_no_duplicates(who, log);
        assert_no_creation(who, log, sent);
    }
}
