//! What a worker pool can get out of the two balanced 256-stack,
//! 16-cluster soaks: the per-shard event sum over the busiest shard's
//! count (the inverse of the benchmark's `sim.hot_shard_share`) bounds
//! any speedup, and — event spreads being deterministic — reads the same
//! on every host. Wall clocks are asserted nowhere.

use dpu_bench::synth::datagram_soak_sim;
use dpu_core::time::{Dur, Time};
use dpu_repl::builder::{check_run, drive_poisson, group_sim, specs, GroupStackOpts, SwitchLayer};
use dpu_sim::{CpuConfig, NetConfig, SimConfig, SimStats};

const N: u32 = 256;

fn available_parallelism(stats: &SimStats) -> f64 {
    let max = stats.per_shard.iter().map(|s| s.events).max().expect("16 shards");
    stats.per_shard.iter().map(|s| s.events).sum::<u64>() as f64 / max as f64
}

/// The timer-driven datagram soak is symmetric by construction: 15.83 of
/// a possible 16, and one worker and four compute the same run down to
/// the delivery-latency histogram (`LoadGen` stamps real latencies).
#[test]
fn datagram_soak_keeps_sixteen_shards_busy_and_ignores_the_worker_count() {
    let run = |workers| {
        let mut sim = datagram_soak_sim(N, 42, workers);
        sim.run_until(Time::ZERO + Dur::millis(400));
        (sim.stats(), sim.telemetry_report().delivery_latency_ns)
    };
    let (serial, parallel) = (run(1), run(4));
    assert!(serial.1.count > 100_000, "the soak must deliver: {}", serial.1.count);
    assert_eq!(serial, parallel, "4 workers diverged from 1");
    let avail = available_parallelism(&serial.0);
    println!("datagram soak: {avail:.2}x available parallelism");
    assert!(avail >= 12.0, "only {avail:.2}x available parallelism");
}

/// The hierarchical variant exists to spread the ordering fan-out that a
/// flat sequencer funnels through one shard (2.49 of 16 with
/// `specs::seq(0)` on this load): its per-cluster sequencers leave 12.33,
/// with total order on every stack.
#[test]
fn hier_abcast_spreads_the_ordering_fan_out_over_the_shards() {
    let mut cfg = SimConfig::clustered(N, 42, N / 16, NetConfig::datacenter(), NetConfig::lan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    let opts = GroupStackOpts {
        abcast: specs::hier(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, h) = group_sim(cfg, &opts);
    sim.run_until(Time::ZERO + Dur::millis(200));
    drive_poisson(&mut sim, &h, 240.0, Time::ZERO + Dur::millis(1200));
    sim.run_until(Time::ZERO + Dur::millis(2500));
    check_run(&mut sim, &h).assert_ok();
    let avail = available_parallelism(&sim.stats());
    println!("hier soak: {avail:.2}x available parallelism");
    assert!(avail >= 8.0, "only {avail:.2}x available parallelism");
}
