//! Replicated key-value store: state-machine replication over the
//! adaptive group communication stack.
//!
//! Every `put` is atomically broadcast; every replica applies the
//! commands in delivery order, so the replicas' states stay identical —
//! including across a dynamic protocol update and a replica crash. This
//! is the "replicated non-stop service" the paper's introduction
//! motivates: the store keeps serving while its ordering protocol is
//! replaced underneath it.
//!
//! ```text
//! cargo run --example replicated_kv
//! ```

use bytes::Bytes;
use dpu::repl::builder::{build, request_change, specs, GroupStackOpts, SwitchLayer};
use dpu::sim::{NetConfig, Sim, SimConfig, Topology};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::{self, Encode};
use dpu_core::{Call, Module, ModuleId, Response, ServiceId, StackId};
use dpu_protocols::abcast::ops as ab_ops;
use std::collections::BTreeMap;

/// Magic prefix separating KV commands from other broadcast users.
const KV_MAGIC: u32 = 0x4B56_3031; // "KV01"

/// The replica: applies totally ordered `put` commands.
struct KvStore {
    top: ServiceId,
    map: BTreeMap<String, String>,
    applied: Vec<(String, String)>,
}

impl KvStore {
    fn new(top: ServiceId) -> KvStore {
        KvStore { top, map: BTreeMap::new(), applied: Vec::new() }
    }
}

impl Module for KvStore {
    fn kind(&self) -> &str {
        "kv-store"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![self.top]
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, _: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != ab_ops::ADELIVER {
            return;
        }
        let Ok((magic, key, value)) = resp.decode::<(u32, String, String)>() else {
            return;
        };
        if magic != KV_MAGIC {
            return;
        }
        self.map.insert(key.clone(), value.clone());
        self.applied.push((key, value));
    }
}

fn put(sim: &mut Sim, node: u32, kv: ModuleId, top: &ServiceId, key: &str, value: &str) {
    let cmd: Bytes = (KV_MAGIC, key.to_string(), value.to_string()).to_bytes();
    let top = *top;
    sim.with_stack(StackId(node), |s| s.call_as(kv, &top, ab_ops::ABCAST, cmd));
}

fn main() {
    // Cap rp2p retries so frames addressed to the crashed replica are
    // eventually given up on (and *counted*) instead of retried forever
    // — the exhaustion metric the telemetry report surfaces below.
    let rp2p = dpu_core::ModuleSpec::with_params(
        dpu::net::RP2P_SVC,
        &dpu::net::rp2p::Rp2pConfig { max_retransmits: 8, ..dpu::net::rp2p::Rp2pConfig::default() },
    );
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0), // probe kept for request_change routing
        with_gm: false,
        extra_defaults: vec![(dpu::net::RP2P_SVC.to_string(), rp2p)],
    };
    // Build stacks and attach a KvStore replica to each.
    let mut kv_id = None;
    let mut handles = None;
    // 2% packet loss on the LAN: enough that rp2p's retransmission and
    // resequencing machinery actually does work worth observing.
    let mut cfg = SimConfig::lan(5, 7);
    cfg.topology = Topology::flat(NetConfig::lossy(0.02));
    let mut sim = Sim::new(cfg, |sc| {
        let mut built = build(sc, &opts);
        let top = built.handles.top_service;
        let id = built.stack.add_module(Box::new(KvStore::new(top)));
        kv_id.get_or_insert(id);
        handles.get_or_insert(built.handles.clone());
        built.stack
    });
    let kv = kv_id.expect("kv module added");
    let h = handles.expect("handles");
    let top = h.top_service;

    sim.run_until(Time::ZERO + Dur::millis(300));
    println!("5 replicas up; writing through CT-ABcast ...");
    put(&mut sim, 0, kv, &top, "currency", "CHF");
    put(&mut sim, 1, kv, &top, "city", "Lausanne");
    put(&mut sim, 2, kv, &top, "year", "2006");
    sim.run_until(Time::ZERO + Dur::secs(2));

    println!("replacing the ordering protocol (CT → token ring) under writes ...");
    request_change(&mut sim, StackId(3), &h, &specs::ring(1));
    put(&mut sim, 3, kv, &top, "venue", "IPDPS");
    put(&mut sim, 4, kv, &top, "city", "Rhodes"); // overwrites Lausanne
    sim.run_until(Time::ZERO + Dur::secs(6));

    // The ring protocol is not crash-tolerant (a dead member stalls the
    // token) — so before a replica can safely fail, the operator swaps
    // the fault-tolerant consensus-based protocol back in. This is the
    // adaptive-middleware story in miniature.
    println!("switching back to CT before a crash can hurt ...");
    request_change(&mut sim, StackId(1), &h, &specs::ct(2));
    sim.run_until(Time::ZERO + Dur::secs(9));

    println!("crashing replica 4; the rest keep serving on CT ...");
    sim.crash_at(sim.now(), StackId(4));
    put(&mut sim, 0, kv, &top, "status", "non-stop");
    sim.run_until(Time::ZERO + Dur::secs(16));

    // All surviving replicas must hold the same state, built in the same
    // order.
    let reference = sim.with_stack(StackId(0), |s| {
        s.with_module::<KvStore, _>(kv, |m| (m.map.clone(), m.applied.clone())).unwrap()
    });
    println!("\nreplica 0 state:");
    for (k, v) in &reference.0 {
        println!("  {k} = {v}");
    }
    for node in 1..4 {
        let state = sim.with_stack(StackId(node), |s| {
            s.with_module::<KvStore, _>(kv, |m| (m.map.clone(), m.applied.clone())).unwrap()
        });
        assert_eq!(state.0, reference.0, "replica {node} state diverged");
        assert_eq!(state.1, reference.1, "replica {node} apply order diverged");
    }
    assert_eq!(reference.0.get("city").map(String::as_str), Some("Rhodes"));
    assert_eq!(reference.0.len(), 5);
    assert_eq!(
        wire::from_bytes::<(u32, String, String)>(
            &(KV_MAGIC, "x".to_string(), "y".to_string()).to_bytes()
        )
        .unwrap()
        .0,
        KV_MAGIC
    );
    println!("\nall surviving replicas identical across switch + crash. ✓");

    // Reading telemetry: every host exposes the same unified report.
    // Under 2% loss the interesting rows are the transport's recovery
    // work and the resequencing-buffer depth histogram — how far out of
    // order the lossy LAN actually delivered.
    let report = sim.telemetry_report();
    println!("\n{report}");
    println!(
        "rp2p recovery under 2% loss: {} retransmissions; {} frames gave up after the crash \
         (max_retransmits = 8); reseq buffer depth p50/p99/max {}/{}/{} over {} held frames",
        report.transport.retransmissions,
        report.transport.exhausted,
        report.reseq_depth.p50,
        report.reseq_depth.p99,
        report.reseq_depth.max,
        report.reseq_depth.count,
    );
    assert!(report.transport.retransmissions > 0, "2% loss must force retransmissions");
    assert!(report.reseq_depth.count > 0, "loss reorders; the reseq histogram must see it");
}
