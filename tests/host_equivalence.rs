//! Host-equivalence tests: a refactor must not change what the
//! deterministic simulator computes, and the sharded runtime must stay
//! shutdown-safe under load.
//!
//! The fingerprints below pin the merged trace of four fixed
//! `(config, seed)` scenarios, event for event. They were first recorded
//! from the pre-`StackDriver` simulator (`0x4026a4be2f99a940`, held from
//! PR 1 through PR 18) and before consensus state was collected (PR 17);
//! PR 19 changed what `rp2p` puts on the wire — resends by age, acks on
//! the reverse traffic — and PR 20 which modules a datagram response is
//! dispatched to (the one listening on its channel, not every user of
//! the service); each moves the simulator's event order, so each
//! re-recorded all four, once, in a commit of its own whose message
//! carries the before/after verdicts. PR 21 changed the *construction*,
//! not the runs: the fingerprint had been FNV-1a over the debug rendering
//! of a complete log and became the digest the log folds at `push`; the
//! commit that introduced the digest still kept the complete log,
//! reproduced the four old values and recorded the four new ones from the
//! same runs. PR 22 made `udp` the bottom of the stack — one dispatch step
//! to put a datagram on the wire instead of two, none of `udp` to take it
//! off — which moves the event order like PR 20 did, and re-recorded all
//! four the same way. PR 25 let the edge send for `udp` too (no step of
//! `udp` at all) and held back a frame for a module not created yet, and
//! re-recorded them again. Moving the protocol incarnation from the frame
//! bodies into the channel changed the stack's routing: a byte less a
//! frame, a frame for a newer incarnation held back and not fanned out to
//! the older one, and rp2p handing a recovered batch up at once; all four
//! were re-recorded once more. A fan-out to many peers then became one
//! `rp2p` call (`dgram::SEND_MANY`, one dispatch step where there was one
//! a peer), which moves the event order as any change in what a step
//! costs does; all four were re-recorded again. Consensus then stopped
//! moving to the next round after an ack and sending frames to itself,
//! and all four were re-recorded once more; and again when round 0 of
//! consensus lost its estimates (its coordinator proposes at once), and
//! when a stack began to finish an input's whole dispatch cascade before
//! it takes the next (the simulator had interleaved a packet that
//! arrived mid-cascade with it), and when consensus began to send its
//! decision once, from the coordinator, instead of a relay from every
//! decider. Retirement naming the modules it destroys to the protocol
//! underneath moved no frame, but adds two calls a retirement on every
//! stack, which the trace digests and the simulator charges; the three
//! replacement runs were re-recorded for it (the golden run's held: it
//! retires nothing). A change that does not mean to alter protocol
//! behaviour must reproduce them bit for bit.

use dpu::repl::builder::{
    drive_load, group, group_sim, request_change, send_probe, specs, GroupStackOpts, SwitchLayer,
};
use dpu::runtime::{Runtime, RuntimeConfig};
use dpu::sim::SimConfig;
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;

/// The shared equivalence-suite fingerprint (see
/// `dpu_core::TraceLog::fingerprint`).
fn trace_fingerprint(trace: &dpu_core::TraceLog) -> u64 {
    trace.fingerprint()
}

/// Figure-4 stacks under the Repl layer, starting on `abcast.ct`.
fn repl_over_ct() -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(8),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

/// One fixed, fully deterministic scenario: 3 Figure-4 stacks under the
/// Repl layer, traffic before/during/after a live ct -> seq switch.
fn golden_run() -> (dpu::sim::SimStats, u64) {
    let (mut sim, h) = group_sim(SimConfig::lan(3, 20_060_425), &repl_over_ct());
    sim.run_until(Time::ZERO + Dur::millis(200));
    for i in 0..3 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(Time::ZERO + Dur::secs(2));
    request_change(&mut sim, StackId(1), &h, &specs::seq(1));
    for i in 0..3 {
        send_probe(&mut sim, StackId(i), &h);
    }
    sim.run_until(Time::ZERO + Dur::secs(8));
    let stats = sim.stats().clone();
    let fp = trace_fingerprint(&sim.merged_trace());
    (stats, fp)
}

/// The golden run: three probes on the fixed scenario, pinned to the
/// recorded fingerprint and packet counts. The name is historical: the
/// simulator holds and steps `Stack`s directly, and no `StackDriver` is
/// on its path any more; the test keeps the name it is known by.
#[test]
fn sim_through_stack_driver_matches_pre_refactor_recording() {
    let (stats, fp) = golden_run();
    // Values recorded with one input, one cascade; see module docs.
    println!("stats: {stats:?}");
    println!("fingerprint: {fp:#x}");
    assert_eq!(fp, GOLDEN_FP, "merged trace diverged from the recording");
    assert_eq!(stats.packets_sent, GOLDEN_SENT);
    assert_eq!(stats.packets_delivered, GOLDEN_DELIVERED);
}

/// Recorded 2026-10-20 with `rp2p` at the stack's edge (a call to it runs
/// inside the caller's step, a frame is taken as it arrives), scenario and
/// seed as in [`golden_run`]: 6 143 dispatch steps where there were
/// 6 223, 2453 packets as before. Before: `0x50f45da57a74ba53`, recorded
/// 2026-10-19 with consensus sending its decision once, from the
/// coordinator that decided (6 223 dispatch steps where there were
/// 6 262, 2453 packets where there were 2468); before that
/// `0x456df50592dc29da`, recorded 2026-10-19 with a
/// stack finishing an input's cascade before it takes the next (6 262
/// dispatch steps and 2468 packets, as before); before that
/// `0x1d40603b742fc78f`, recorded 2026-10-17 with round 0 of consensus
/// proposing at once and no participant sending it an estimate unless
/// it suspects someone (6 262 dispatch steps where there were 6 286,
/// 2468 packets where there were 2476); before that
/// `0x38c07db7a37f92b5`, recorded 2026-10-16 with a consensus instance
/// that ends in round 0 (a process that acked waits for the decision, and
/// none sends a frame to itself: 6 286 steps where there were 6 387, 2476
/// packets where there were 2497); before that
/// `0x03a6650e25797123`, recorded 2026-10-15 with a fan-out to
/// many peers one `rp2p` call (6 387 steps where there were 6 431, 2497
/// packets where there were 2498); before that
/// `0xc8a67ee8aeaca6f1`, recorded 2026-10-15 with the incarnation in the
/// channel and none in the frame bodies (6 431 steps and 2498 packets as
/// before, a byte less in each protocol frame); before that
/// `0xbf99abe5e9b4ee38`, recorded 2026-10-15 when
/// `udp` began to send at the edge (6 431 dispatch steps where there were
/// 8 929, 2498 packets as before); before that `0xd40e3333b6c82435`, recorded
/// 2026-10-05 at PR 22 (`udp` the bottom of the stack: 8 929 steps where
/// there were 13 971); before that `0xc837f9d17ef4aec8`, 2506 sent,
/// 2506 delivered — the
/// push-time digest, taken at PR 21, of the run recorded 2026-10-03 at
/// PR 20 (datagram responses routed by channel; rendered-log fingerprint
/// `0xf8c0b4e378cdc9a5`). Before that `0x1c1b9566e95456b1`, 2502 / 2502,
/// recorded 2026-10-02 at PR 19 (rp2p resends by age and acks on the
/// reverse traffic); before that `0x4026a4be2f99a940`, 2620 / 2620,
/// recorded 2026-07-29 from commit 181cd88 (hand-rolled drive loops in
/// both hosts).
const GOLDEN_FP: u64 = 0x6849680b2ee7283f;
const GOLDEN_SENT: u64 = 2453;
const GOLDEN_DELIVERED: u64 = 2453;

#[test]
fn shutdown_under_in_flight_load_returns_all_stacks() {
    // Fire broadcasts into every stack and shut down immediately, while
    // packets, retransmit timers and the sequencer's ordering traffic
    // are all still in flight. Every shard must stop cleanly and hand
    // back every stack — no deadlock, no lost stack.
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let n = 24u32;
    let (rt, h) = group(&opts, |mk| Runtime::spawn(RuntimeConfig::new(n).with_shards(3), mk));
    for i in 0..n {
        send_probe(&rt, StackId(i), &h);
    }
    // No quiescing: shut down with everything in flight.
    let stacks = rt.shutdown();
    assert_eq!(stacks.len(), n as usize);
    for (i, s) in stacks.iter().enumerate() {
        assert_eq!(s.id(), StackId(i as u32));
    }
}

/// The consensus path under replacement: n = 7, Repl over `abcast.ct`,
/// 150 msg/s for 3 s, ct → ct under a fresh namespace after 1 s and
/// after 2 s. Collecting consensus instances, delivered-sets and
/// proposal marks by stability did not move one traced event (PR 17);
/// nothing that leaves the wire alone may.
fn ct_replacement_run(seed: u64) -> u64 {
    let (mut sim, h) = group_sim(SimConfig::lan(7, seed), &repl_over_ct());
    sim.run_until(Time::ZERO + Dur::millis(200));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 150.0, until);
    for k in 1..=2u64 {
        let h = h.clone();
        sim.schedule_in(Dur::secs(k), move |sim| {
            request_change(sim, StackId(k as u32), &h, &specs::ct(k))
        });
    }
    sim.run_until(until + Dur::secs(2));
    trace_fingerprint(&sim.merged_trace())
}

/// Recorded with [`GOLDEN_FP`]. Before, with retirement destroying the
/// replaced incarnations without naming them down the stack (the same
/// frames, two calls fewer a retirement on each stack):
/// `0x1b086d480f85d544`, `0x203c59bcb120c75d`, `0x7fc59d3017a6fa5b`;
/// before that, with `rp2p` stepped for its calls and frames:
/// `0xeaf5db5e98faf339`, `0x50d09dd8a9183c1f`, `0x1c09fe22ece27313`
/// (recorded with consensus sending its decision once); before that,
/// with a stack finishing an input's
/// cascade before it takes the next: `0x9108f4a78c54a712`,
/// `0x6755d4f725df28c8`, `0x9ed33f70335db530`; before that, with round 0
/// of consensus proposing at once: `0x5c18701aeeba828f`, `0x9240943590377dca`,
/// `0x6602b9ca33e9a177`; before that, with a consensus instance that
/// ends in round 0: `0xa968ca25fc666ba3`, `0xcd18f7389d21eafe`,
/// `0x21acf588ee43360e`; before that, with a fan-out one `rp2p` call:
/// `0x30ccf9a0058f367a`, `0x957ece490890830e`, `0x21d86a0f65f42e99`;
/// before that, with the incarnation in the
/// channel: `0xd89e886e75ecd66c`, `0xdcd3ee7d8941bc7f`, `0x8580745787d38d58`;
/// before that, with `udp` sending at the edge: `0x0ae8f205f0882bd1`,
/// `0xe7ef41f07f8f59b2`, `0xb521eb4a23f65cec`; before that:
/// `0x3034f3d2424718d0`, `0xa30c4841e59794c5`, `0x1c9562d21721d869`;
/// before that (the PR 20 runs, digests taken at PR 21): `0xbbd536c7ac4ecce9`, `0xb6eedb08baab46ff`,
/// `0x50aae2c9d74d0e4f`, whose rendered-log fingerprints were
/// `0x24c7d155b94fca7c`, `0xa7c0f5dbe4fb3f6e`, `0x526ff844078538dd`; PR 19:
/// `0x243adcef5e8a1db1`, `0xd4db1459d79ad246`, `0x127eadc205be7925`;
/// before that (commit 57fe5a7, where every consensus instance and every
/// delivered key was kept for the length of the run, unchanged by PR 17's
/// collection): `0x6d4c3f10a13194cf`, `0xef232e8e86088525`,
/// `0xc9794b3925be4984`.
const CT_REPLACEMENT_FPS: [(u64, u64); 3] =
    [(11, 0xdbed8bbf0d307d), (12, 0xbce6256b8c887b6c), (13, 0xa7c2f24f7ecac0b4)];

#[test]
fn ct_under_replacement_matches_the_recording_from_before_collection() {
    for (seed, golden) in CT_REPLACEMENT_FPS {
        let fp = ct_replacement_run(seed);
        println!("seed {seed}: {fp:#x}");
        assert_eq!(fp, golden, "seed {seed}: merged trace diverged from the recording");
    }
}
