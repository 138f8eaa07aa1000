//! **Cross-protocol switches** (experiment E6) — "switching on-the-fly
//! between different atomic broadcast protocols", the paper's motivating
//! scenario for adaptive middleware: each row switches from one ABcast
//! implementation to another under load and reports the latency before,
//! during and after the replacement.
//!
//! ```text
//! cargo run --release -p dpu-bench --bin cross_switch [--n 3] [--load 100]
//! ```
//!
//! The interesting shape: the steady-state latencies differ per protocol
//! (sequencer < consensus-based < ring at low load), and the switch
//! carries the group from one regime to the other with only a brief
//! perturbation.

use dpu_bench::experiments::{during_summary, ExpConfig};
use dpu_bench::stats::Summary;
use dpu_bench::Args;
use dpu_core::time::{Dur, Time};
use dpu_core::ModuleSpec;
use dpu_repl::builder::specs;

fn main() {
    let args = Args::parse();
    let n: u32 = args.get("n", 3);
    let load: f64 = args.get("load", 100.0);
    let seed: u64 = args.get("seed", 42);

    type SpecFn = fn(u64) -> ModuleSpec;
    let variants: [(&str, SpecFn); 3] =
        [("ct", specs::ct), ("seq", specs::seq), ("ring", specs::ring)];

    println!("# Cross-protocol switching matrix (latency in ms)");
    println!("# n = {n}, load = {load} msg/s, seed = {seed}");
    println!("# from\tto\tbefore_ms\tduring_ms\tafter_ms\tswitch_ms\tmsgs");

    for (from_name, from_spec) in variants {
        for (to_name, to_spec) in variants {
            if from_name == to_name && !args.has("include-self") {
                continue;
            }
            let mut cfg = ExpConfig::new(n, load);
            cfg.seed = seed;
            if args.has("quick") {
                cfg.measure = Dur::secs(3);
                cfg.tail = Dur::secs(4);
            }
            // Override the initial protocol, switch mid-run to the target.
            let outcome = {
                let mut c = cfg.clone();
                c.seed = seed;
                run_cross(&c, from_spec(0), to_spec)
            };
            let (start, end) = outcome.windows[0];
            let before = Summary::of_window(&outcome.latencies, Time::ZERO, start);
            let during = during_summary(&outcome);
            let after =
                Summary::of_window(&outcome.latencies, end + Dur::millis(300), cfg.measure_end());
            println!(
                "{from_name}\t{to_name}\t{:.4}\t{:.4}\t{:.4}\t{:.3}\t{}",
                before.mean_ms,
                during.mean_ms,
                after.mean_ms,
                end.since(start).as_millis_f64(),
                outcome.latencies.len()
            );
        }
    }
}

fn run_cross(
    cfg: &ExpConfig,
    initial: ModuleSpec,
    target: fn(u64) -> ModuleSpec,
) -> dpu_bench::experiments::SwitchOutcome {
    use dpu_bench::stats::collect_latencies;
    use dpu_core::StackId;
    use dpu_repl::abcast_repl::ReplAbcastModule;
    use dpu_repl::builder::{drive_load, group_sim, request_change, GroupStackOpts, SwitchLayer};
    use dpu_sim::SimConfig;

    let mut sim_cfg = SimConfig::lan(cfg.n, cfg.seed);
    sim_cfg.trace = false;
    let opts = GroupStackOpts {
        abcast: initial,
        layer: SwitchLayer::Repl,
        probe_pad: Some(cfg.pad),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut sim, h) = group_sim(sim_cfg, &opts);
    sim.run_until(Time::ZERO + cfg.warmup);
    drive_load(&mut sim, &h, cfg.load, cfg.measure_end());
    let trigger = Time::ZERO + cfg.warmup + cfg.measure / 2;
    let h2 = h.clone();
    let spec = target(1);
    sim.schedule(trigger, move |sim| request_change(sim, StackId(0), &h2, &spec));
    sim.run_until(cfg.measure_end() + cfg.tail);

    let layer = h.layer.expect("repl layer");
    let mut complete = trigger;
    let mut reissued = 0;
    for id in sim.stack_ids() {
        let (t, re) = sim.with_stack(id, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| {
                (m.switch_times().last().copied(), m.reissued_total())
            })
            .expect("repl module")
        });
        if let Some(t) = t {
            complete = complete.max(t);
        }
        reissued += re;
    }
    dpu_bench::experiments::SwitchOutcome {
        latencies: collect_latencies(&mut sim, &h),
        windows: vec![(trigger, complete)],
        reissued,
    }
}
