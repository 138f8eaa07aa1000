//! Property-based integration tests: randomized schedules of loads,
//! switch times and target protocols must always preserve the atomic
//! broadcast properties and the generic DPU properties. Each case is a
//! full multi-stack simulation, so the case count is kept moderate; the
//! schedules cover the space broadly (seeded shrinking works as usual).

use bytes::Bytes;
use dpu::net::dgram::Dgram;
use dpu::protocols::gm::{GmOp, GmParams, View};
use dpu::repl::builder::{
    check_run, drive_load, group_sim, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu::sim::{NetConfig, SimConfig, Topology};
use dpu_core::probe::ProbeMsg;
use dpu_core::time::{Dur, Time};
use dpu_core::wire::testing::assert_wire_contract;
use dpu_core::wire::Encode;
use dpu_core::{Channel, ModuleSpec, StackId};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Target {
    Ct,
    Seq,
    Ring,
    Hier,
}

/// All switchable atomic broadcast variants.
const TARGETS: [Target; 4] = [Target::Ct, Target::Seq, Target::Ring, Target::Hier];

impl Target {
    fn spec(self, ns: u64) -> ModuleSpec {
        match self {
            Target::Ct => specs::ct(ns),
            Target::Seq => specs::seq(ns),
            Target::Ring => specs::ring(ns),
            Target::Hier => specs::hier(ns),
        }
    }
}

fn target_strategy() -> impl Strategy<Value = Target> {
    prop_oneof![Just(Target::Ct), Just(Target::Seq), Just(Target::Ring), Just(Target::Hier)]
}

proptest! {
    /// Workspace-wide wire-codec contract: for every public message type,
    /// `encoded_len() == encode(..).len()`, the scratch-pool encoding is
    /// byte-identical to `to_bytes`, decoding any truncation fails with
    /// an error, and decoding any single-byte corruption never panics.
    /// (Private frame types — RP2P/consensus/abcast frames, replacement
    /// envelopes — run the same `assert_wire_contract` from their own
    /// crates' unit tests.)
    #[test]
    fn wire_contract_for_public_message_types(
        origin: u32,
        seq: u64,
        t: u64,
        channel: u64,
        pad in proptest::collection::vec(any::<u8>(), 0..256),
        kind in "[a-z.]{1,24}",
        members in proptest::collection::vec(any::<u32>(), 0..8),
    ) {
        let data = Bytes::from(pad);
        assert_wire_contract(&ProbeMsg {
            origin: StackId(origin),
            seq,
            sent_at: Time(t),
            pad: data.clone(),
        });
        // A channel is one varint, `incarnation · 16 + base`: the old `u16`
        // byte for byte at incarnation 0.
        let (base, incarnation) = ((channel % 16) as u8, channel >> 4);
        let channel = Channel::new(base, incarnation);
        assert_wire_contract(&channel);
        assert_eq!(channel.to_bytes(), (incarnation << 4 | u64::from(base)).to_bytes());
        assert_eq!(Channel::new(base, 0).to_bytes(), u16::from(base).to_bytes());
        assert_wire_contract(&Dgram { peer: StackId(origin), channel, data: data.clone() });
        assert_wire_contract(&ModuleSpec { kind, params: data.clone() });
        assert_wire_contract(&GmOp::Join(StackId(origin)));
        assert_wire_contract(&View {
            id: seq,
            members: members.into_iter().map(StackId).collect(),
        });
        assert_wire_contract(&GmParams::default());
        // Composites, as carried by service payloads.
        assert_wire_contract(&(StackId(origin), data.clone()));
        assert_wire_contract(&(seq, t, data));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 32,
        ..ProptestConfig::default()
    })]

    /// Any sequence of 1–3 protocol switches at random times, under a
    /// random load, on 3 or 5 stacks, with a random seed, preserves all
    /// four atomic broadcast properties and weak well-formedness.
    #[test]
    fn random_switch_schedules_preserve_all_properties(
        seed in 0u64..1_000,
        n in prop_oneof![Just(3u32), Just(5u32)],
        load in 20.0f64..80.0,
        offsets_ms in proptest::collection::vec(300u64..2700, 1..=3),
        targets in proptest::collection::vec(target_strategy(), 3),
    ) {
        let opts = GroupStackOpts {
            abcast: specs::ct(0),
            layer: SwitchLayer::Repl,
            probe_pad: Some(8),
            with_gm: false,
            extra_defaults: Vec::new(),
        };
        let (mut sim, h) = group_sim(SimConfig::lan(n, seed), &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        let until = sim.now() + Dur::secs(3);
        drive_load(&mut sim, &h, load, until);
        let mut sorted = offsets_ms.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for (k, off) in sorted.iter().enumerate() {
            let spec = targets[k % targets.len()].spec(k as u64 + 1);
            let h2 = h.clone();
            let initiator = StackId((k as u32) % n);
            sim.schedule(Time::ZERO + Dur::millis(300 + off), move |sim| {
                request_change(sim, initiator, &h2, &spec);
            });
        }
        sim.run_until(until + Dur::secs(12));
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        // Completeness: everything sent is delivered everywhere.
        let sent = report.checker.broadcast_count();
        for id in sim.stack_ids() {
            prop_assert_eq!(report.checker.delivery_count(id), sent, "stack {}", id);
        }
    }

    /// Every ordered pair of atomic broadcast variants (including the
    /// paper's identity switches, §6.2) switches cleanly at a random
    /// instant under random load on a clustered topology — the shape
    /// that exercises the hierarchical variant's per-cluster sequencers
    /// rather than its flat degeneration.
    #[test]
    fn every_ordered_variant_pair_switches_cleanly_under_load(
        seed in 0u64..1_000,
        load in 20.0f64..60.0,
        switch_ms in 300u64..2000,
    ) {
        for from in TARGETS {
            for to in TARGETS {
                let opts = GroupStackOpts {
                    abcast: from.spec(0),
                    layer: SwitchLayer::Repl,
                    probe_pad: Some(8),
                    with_gm: false,
                    extra_defaults: Vec::new(),
                };
                let cfg = SimConfig::clustered(
                    6,
                    seed,
                    3,
                    dpu::sim::NetConfig::datacenter(),
                    dpu::sim::NetConfig::lan(),
                );
                let (mut sim, h) = group_sim(cfg, &opts);
                sim.run_until(Time::ZERO + Dur::millis(300));
                let until = sim.now() + Dur::secs(2);
                drive_load(&mut sim, &h, load, until);
                let h2 = h.clone();
                let spec = to.spec(1);
                sim.schedule(Time::ZERO + Dur::millis(300 + switch_ms), move |sim| {
                    request_change(sim, StackId(1), &h2, &spec);
                });
                sim.run_until(until + Dur::secs(12));
                let report = check_run(&mut sim, &h);
                report.assert_ok();
                let sent = report.checker.broadcast_count();
                for id in sim.stack_ids() {
                    prop_assert_eq!(
                        report.checker.delivery_count(id),
                        sent,
                        "{:?}->{:?} stack {}",
                        from,
                        to,
                        id
                    );
                }
            }
        }
    }

    /// Random loss rates (up to 15%) with one switch still satisfy the
    /// properties — the reliability machinery underneath recovers
    /// everything.
    #[test]
    fn random_loss_with_switch_preserves_properties(
        seed in 0u64..1_000,
        loss in 0.0f64..0.15,
        switch_ms in 500u64..1500,
    ) {
        let mut cfg = SimConfig::lan(3, seed);
        cfg.topology = Topology::flat(NetConfig::lossy(loss));
        let opts = GroupStackOpts {
            abcast: specs::ct(0),
            layer: SwitchLayer::Repl,
            probe_pad: Some(8),
            with_gm: false,
            extra_defaults: Vec::new(),
        };
        let (mut sim, h) = group_sim(cfg, &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        let until = sim.now() + Dur::secs(2);
        drive_load(&mut sim, &h, 30.0, until);
        let h2 = h.clone();
        sim.schedule(Time::ZERO + Dur::millis(300 + switch_ms), move |sim| {
            request_change(sim, StackId(1), &h2, &specs::ct(1));
        });
        sim.run_until(until + Dur::secs(25));
        check_run(&mut sim, &h).assert_ok();
    }
}
