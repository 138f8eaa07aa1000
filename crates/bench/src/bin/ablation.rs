//! **Ablations** (experiment E4+) — measured justifications for the
//! design choices DESIGN.md calls out:
//!
//! 1. *indirection layer cost* — steady-state latency with vs. without
//!    the replacement layer (the paper's ≈5 % claim, across loads);
//! 2. *consensus coordinator policy* — textbook rotating coordinator vs.
//!    the instance-offset variant that spreads coordinator load;
//! 3. *proposal batching* — the `batch_delay` knob of the consensus-based
//!    ABcast: instances per message and latency across loads.
//!
//! The *correctness* ablations (what breaks when Algorithm 1's re-issue
//! or version guard is omitted) are mechanised as negative tests in
//! `crates/repl/src/ablation.rs`, a module compiled for tests only.
//!
//! ```text
//! cargo run --release -p dpu-bench --bin ablation [--quick]
//! ```

use dpu_bench::experiments::{parallel_map, run_steady, ExpConfig};
use dpu_bench::stats::{collect_latencies, Summary};
use dpu_bench::Args;
use dpu_core::time::{Dur, Time};
use dpu_core::ModuleSpec;
use dpu_protocols::abcast::ct::{CtAbcastModule, CtAbcastParams, KIND as CT_KIND};
use dpu_repl::builder::{drive_load, group_sim, GroupStackOpts, SwitchLayer};
use dpu_sim::SimConfig;

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let seed: u64 = args.get("seed", 42);

    println!("# Ablation 1: indirection layer cost across loads (n = 3)");
    println!("# load\tno_layer_ms\twith_layer_ms\toverhead_%");
    let loads: Vec<f64> = if quick { vec![50.0, 200.0] } else { vec![50.0, 100.0, 200.0, 400.0] };
    let rows = parallel_map(loads.clone(), |load| {
        let mut cfg = ExpConfig::new(3, load);
        cfg.seed = seed;
        let a = Summary::of(run_steady(&cfg, SwitchLayer::None).iter().map(|m| m.avg));
        let b = Summary::of(run_steady(&cfg, SwitchLayer::Repl).iter().map(|m| m.avg));
        (load, a.mean_ms, b.mean_ms)
    });
    for (load, a, b) in rows {
        println!("{load:.0}\t{a:.4}\t{b:.4}\t{:.1}", (b / a - 1.0) * 100.0);
    }

    println!("#\n# Ablation 2: consensus coordinator policy (n = 5, load 100)");
    println!("# policy\tmean_ms\tp95_ms");
    for (name, spec) in [
        ("rotating", dpu_repl::builder::specs::ct(0)),
        ("instance-offset", dpu_repl::builder::specs::ct_with_consensus(0, "consensus")),
    ] {
        // For the offset policy, override the default consensus provider.
        let mut cfg = SimConfig::lan(5, seed);
        cfg.trace = false;
        let mut opts = GroupStackOpts {
            abcast: spec,
            layer: SwitchLayer::None,
            probe_pad: Some(32),
            with_gm: false,
            extra_defaults: Vec::new(),
        };
        if name == "instance-offset" {
            opts.extra_defaults.push((
                "consensus".to_string(),
                dpu_repl::builder::specs::consensus_offset("consensus", 0),
            ));
        }
        let (mut sim, h) = group_sim(cfg, &opts);
        sim.run_until(Time::ZERO + Dur::millis(500));
        let until = sim.now() + if quick { Dur::secs(2) } else { Dur::secs(5) };
        drive_load(&mut sim, &h, 100.0, until);
        sim.run_until(until + Dur::secs(8));
        let s = Summary::of(collect_latencies(&mut sim, &h).iter().map(|m| m.avg));
        println!("{name}\t{:.4}\t{:.4}", s.mean_ms, s.p95_ms);
    }

    println!("#\n# Ablation 3: proposal batching (n = 3)");
    println!("# batch_delay_ms\tload\tmean_ms\tinstances\tmsgs");
    let delays: Vec<u64> = if quick { vec![0, 2] } else { vec![0, 1, 2, 5] };
    let loads: Vec<f64> = if quick { vec![200.0] } else { vec![100.0, 300.0, 500.0] };
    let mut jobs = Vec::new();
    for &d in &delays {
        for &l in &loads {
            jobs.push((d, l));
        }
    }
    let rows = parallel_map(jobs, |(delay_ms, load)| {
        let spec = ModuleSpec::with_params(
            CT_KIND,
            &CtAbcastParams { batch_delay: Dur::millis(delay_ms), ..CtAbcastParams::default() },
        );
        let mut cfg = SimConfig::lan(3, seed);
        cfg.trace = false;
        let opts = GroupStackOpts {
            abcast: spec,
            layer: SwitchLayer::None,
            probe_pad: Some(32),
            with_gm: false,
            extra_defaults: Vec::new(),
        };
        let (mut sim, h) = group_sim(cfg, &opts);
        sim.run_until(Time::ZERO + Dur::millis(500));
        let until = sim.now() + if quick { Dur::secs(2) } else { Dur::secs(4) };
        drive_load(&mut sim, &h, load, until);
        sim.run_until(until + Dur::secs(10));
        let latencies = collect_latencies(&mut sim, &h);
        let s = Summary::of(latencies.iter().map(|m| m.avg));
        let instances = sim.with_stack(dpu_core::StackId(0), |st| {
            st.with_module::<CtAbcastModule, _>(h.abcast, |m| m.instances_done()).unwrap()
        });
        (delay_ms, load, s, instances)
    });
    for (delay_ms, load, s, instances) in rows {
        println!("{delay_ms}\t{load:.0}\t{:.4}\t{instances}\t{}", s.mean_ms, s.n);
    }
}
