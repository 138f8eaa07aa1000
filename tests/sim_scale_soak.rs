//! The thousand-node soak: ≥1024 full Figure-4 stacks on a clustered
//! datacenter topology, under open-loop Poisson load, through a live
//! atomic-broadcast switch — the ROADMAP's "paper stops at 7 machines,
//! go to thousands" experiment, runnable in CI thanks to the sharded
//! calendar-queue scheduler and the conservative parallel engine
//! (`dpu_sim::par`).
//!
//! Asserts the uniform total order (and the other three atomic broadcast
//! properties of §5.1) on *every* stack across the mid-load switch, and —
//! the trace is on — the §3 properties on every stack's binds, unbinds
//! and module lifetimes.
//!
//! Under `--release` (the CI configuration) this runs the full 1024
//! stacks on a worker pool sized to the machine; debug builds run a
//! 256-stack single-worker variant of the same scenario so plain
//! `cargo test` stays fast. The worker count never changes the computed
//! run (`crates/sim/tests/par_equiv.rs` property-tests that); it only
//! changes the wall clock. A 4096-stack variant is `#[ignore]`d for the
//! dedicated CI step (`cargo test --release -- --ignored`).

use dpu::repl::builder::{
    check_run, drive_poisson, group_sim, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu::sim::{NetConfig, SimConfig};
use dpu_core::props;
use dpu_core::time::{Dur, Time};
use dpu_core::{ServiceId, StackId};
use dpu_protocols::abcast::sequencer::KIND as SEQ_KIND;

/// Worker pool for the release soaks: up to 4, bounded by the machine
/// (a single-core host runs the identical schedule on one thread).
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(4)
}

fn live_switch_soak(n: u32, rate: f64, workers: usize) {
    // 16 racks (n/16 nodes each) on a 10 Gb/s fabric, joined by a
    // switched-LAN backbone — whose 60 µs latency is also the parallel
    // engine's lookahead window.
    let mut cfg =
        SimConfig::clustered(n, 20_241_024, n / 16, NetConfig::datacenter(), NetConfig::lan());
    // The trace stays on: a stack keeps its binds and module lifetimes,
    // and each of the 16 shards one 160 KiB tail of calls that it lends
    // to the stack it drives, so at the end of the run 1024 traced
    // stacks hold 3.5 MB more than untraced ones (43 MB while every
    // stack kept a tail of its own), not the gigabytes an entry per
    // dispatch step did.
    // Modern cores, not the paper's Pentium III: with the default
    // calibration the sequencer's 1024-way fan-out would cost ~82 ms of
    // modeled CPU per broadcast and saturate at ~12 msg/s.
    cfg.cpu = dpu::sim::CpuConfig::fast();
    cfg.workers = workers;
    // The sequencer's n-way fan-out costs single-digit milliseconds of
    // modeled CPU per broadcast; rp2p's default 20 ms retransmit
    // timeout sits on that queueing delay and would self-amplify into a
    // retransmit storm. 100 ms is the 1024-stack setting; the backlog
    // grows with the fan-out, so it scales with n (and the post-load
    // drain below scales with it).
    let scale = u64::from((n / 1024).max(1));
    let rp2p = dpu_core::ModuleSpec::with_params(
        "rp2p",
        &dpu::net::rp2p::Rp2pConfig {
            retransmit: Dur::millis(100 * scale),
            lower: dpu::net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: vec![(dpu::net::RP2P_SVC.to_string(), rp2p)],
    };
    let (mut sim, h) = group_sim(cfg, &opts);

    // Start-up, then open-loop Poisson load across all stacks.
    sim.run_until(Time::ZERO + Dur::millis(200));
    let load_end = Time::ZERO + Dur::millis(1500);
    drive_poisson(&mut sim, &h, rate, load_end);
    // Live switch in the middle of the load: sequencer incarnation 0 →
    // incarnation 1, requested by a non-sequencer stack.
    sim.schedule(Time::ZERO + Dur::millis(800), {
        let h = h.clone();
        move |sim| request_change(sim, StackId(7), &h, &specs::seq(1))
    });
    sim.run_until(load_end + Dur::secs(3 * scale));

    // Collect probe records and traces and check the four §5.1
    // properties — uniform total order on every one of the n stacks
    // included — and the §3 properties on every one of them too: no call
    // blocked for good, and whenever a stack bound a sequencer module
    // every other stack had, or came to have, one.
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    // An entry per call and per response, so about one per dispatch step
    // (`1000 * n` stood here and measured how many steps a broadcast
    // costs: 256 stacks read 219 254 once `udp` was the bottom of the
    // stack).
    let (pushed, steps) = (report.trace.pushed(), sim.stats().steps);
    assert!(pushed > steps / 2, "the trace must have been on: {pushed} entries, {steps} steps");
    let operationable =
        props::check_protocol_operationability(&report.trace, SEQ_KIND, &sim.stack_ids());
    assert!(operationable.weak, "{:?}", operationable.violations);
    let checker = report.checker;

    let sent = checker.broadcast_count();
    assert!(sent > 100, "Poisson load too thin: {sent} broadcasts");
    for id in sim.stack_ids() {
        assert_eq!(checker.delivery_count(id), sent, "stack {id} missed deliveries");
    }

    // The switch actually happened everywhere: the bound abcast module
    // is the new incarnation on every stack.
    let abcast_svc = ServiceId::new("abcast");
    for id in sim.stack_ids() {
        let bound = sim.stack(id).bound(&abcast_svc).expect("abcast bound");
        assert_eq!(sim.stack(id).module_kind(bound), Some(SEQ_KIND), "{id}");
        assert_ne!(bound, h.abcast, "{id} still runs the pre-switch module");
    }

    // Workload counters made it into the run statistics.
    let stats = sim.stats();
    assert_eq!(stats.workloads.len(), 1);
    assert_eq!(stats.workloads[0].injected, sent as u64);
    println!("{}", sim.telemetry_report());
}

#[test]
fn thousand_stack_live_switch_under_poisson_load() {
    if cfg!(debug_assertions) {
        live_switch_soak(256, 80.0, 1);
    } else {
        live_switch_soak(1024, 100.0, workers());
    }
}

/// The 4096-stack variant: the parallel engine exercised at 4× the
/// usual scale. Its value is correctness under a real worker pool —
/// this scenario's sequencer cluster bounds the speedup at ~2× (see
/// `crates/protocols/src/abcast/hier.rs`) — and at minutes of CPU it
/// only runs in the dedicated CI step (`--release -- --ignored`).
#[test]
#[ignore = "release-mode CI soak: run with --release -- --ignored"]
fn four_thousand_stack_live_switch_under_poisson_load() {
    live_switch_soak(4096, 100.0, workers());
}
