//! Generates `BENCH_telemetry.json`: the switch-observability baseline
//! the unified telemetry layer exists for — a 1024-stack bursty soak
//! with a live protocol switch in the middle, reporting what an
//! operator would watch: client-observed delivery-latency percentiles
//! (p50/p99/p999) and the **switch blackout window** (change requested
//! on a stack → its first post-activation delivery) per variant.
//!
//! Two variants, the paper's motivating shapes:
//!
//! * `seq->seq` — same-protocol replacement (Figure 4/5): the new
//!   sequencer incarnation takes over, blackout is pure handoff cost;
//! * `seq->hier` — cross-protocol switch to the hierarchical
//!   (per-cluster sequencer) variant: the switch carries the group
//!   into a different latency regime under the same live load.
//!
//! Load is bursty (inhomogeneous Poisson, the IPPP traffic shape):
//! tail percentiles under burst pressure are exactly what plain
//! counters hide. Everything is virtual-time deterministic — the
//! committed JSON regenerates bit-identically from the same seed.
//!
//! On a total-order or well-formedness violation the harness dumps
//! every stack's flight recorder before panicking — the replayable
//! postmortem instead of an opaque digest mismatch.
//!
//! Usage: `cargo run --release -p dpu-bench --bin bench_telemetry
//! [--n 1024] [--load 200] [--seed 42] [--quick] [out.json]`
//! (default output `BENCH_telemetry.json`; `--quick` shrinks to
//! n = 128 for CI).

use dpu_bench::{Args, JsonWriter};
use dpu_core::telemetry::TelemetryReport;
use dpu_core::time::{Dur, Time};
use dpu_core::{ModuleSpec, StackId};
use dpu_protocols::abcast::hier::{HierAbcastParams, KIND as HIER_KIND};
use dpu_repl::builder::{
    check_run, drive_bursty, group_sim, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu_sim::{CpuConfig, NetConfig, SimConfig};

/// One soak with a live switch to `target` at t = 800 ms. Returns the
/// unified telemetry report after asserting total order on every stack.
fn run_variant(name: &str, n: u32, load: f64, seed: u64, target: ModuleSpec) -> TelemetryReport {
    let mut cfg =
        SimConfig::clustered(n, seed, (n / 16).max(1), NetConfig::datacenter(), NetConfig::lan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    // A 1024-way fan-out takes milliseconds of modeled sequencer CPU,
    // so the retransmit timer must sit above that queueing delay.
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &dpu_net::rp2p::Rp2pConfig {
            retransmit: Dur::millis(100),
            lower: dpu_net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: vec![(dpu_net::RP2P_SVC.to_string(), rp2p)],
    };
    let (mut sim, h) = group_sim(cfg, &opts);

    sim.run_until(Time::ZERO + Dur::millis(200));
    let load_end = Time::ZERO + Dur::millis(1500);
    drive_bursty(&mut sim, &h, load / 4.0, load, Dur::millis(400), 0.25, load_end);
    let trigger = Time::ZERO + Dur::millis(800);
    sim.schedule(trigger, {
        let h = h.clone();
        move |sim| request_change(sim, StackId(7 % n), &h, &target)
    });
    sim.run_until(load_end + Dur::secs(3));

    let rep = check_run(&mut sim, &h);
    if !rep.checker.check().is_empty() || !rep.wellformed.weak {
        eprint!("{}", sim.dump_flight_recorders());
    }
    rep.assert_ok();

    let report = sim.telemetry_report();
    eprintln!(
        "{name:<10} n={n:<5} {} deliveries, latency p50/p99/p999 {}/{}/{} us, {} switches, \
         blackout p50/p99 {}/{} us",
        report.delivery_latency_ns.count,
        report.delivery_latency_ns.p50 / 1_000,
        report.delivery_latency_ns.p99 / 1_000,
        report.delivery_latency_ns.p999 / 1_000,
        report.switches.completed,
        report.switches.blackout_ns.p50 / 1_000,
        report.switches.blackout_ns.p99 / 1_000,
    );
    report
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let n: u32 = if quick { args.get("n", 128) } else { args.get("n", 1024) };
    let load: f64 = args.get("load", 200.0);
    let seed: u64 = args.get("seed", 42);
    let out = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
        .unwrap_or_else(|| "BENCH_telemetry.json".to_string());

    // Failover resend far above soak latency: the post-switch regime
    // must measure the hierarchical data path, not spurious rotations.
    let hier = ModuleSpec::with_params(
        HIER_KIND,
        &HierAbcastParams { namespace: 1, resend: Dur::secs(30), ..HierAbcastParams::default() },
    );
    let variants: Vec<(&str, ModuleSpec)> = vec![("seq->seq", specs::seq(1)), ("seq->hier", hier)];

    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_str(
            "bench",
            "switch observability: delivery latency + blackout window percentiles across a live \
             protocol switch (see crates/bench/src/bin/bench_telemetry.rs)",
        )
        .field_str(
            "workload",
            &format!(
                "{n} stacks in 16 datacenter clusters, bursty load base {}/s burst {load}/s \
                 (period 400ms, duty 0.25) until t=1500ms, one live switch requested at t=800ms, \
                 total order asserted on every stack",
                load / 4.0
            ),
        )
        .field_u64("seed", seed)
        .field_str(
            "units",
            "latency us (virtual time, from the telemetry layer's log-linear histograms); \
             blackout = change requested on a stack to its first post-activation delivery; \
             swap_gap = old module flushed to new module activated",
        )
        .key("rows")
        .begin_arr();
    for (name, target) in variants {
        let r = run_variant(name, n, load, seed, target);
        let lat = r.delivery_latency_ns;
        let blk = r.switches.blackout_ns;
        let gap = r.switches.swap_gap_ns;
        w.elem()
            .begin_obj()
            .field_str("variant", name)
            .field_u64("n", u64::from(n))
            .field_u64("stacks_instrumented", u64::from(r.stacks_enabled))
            .field_u64("deliveries", lat.count)
            .field_f64("delivery_p50_us", lat.p50 as f64 / 1e3, 1)
            .field_f64("delivery_p99_us", lat.p99 as f64 / 1e3, 1)
            .field_f64("delivery_p999_us", lat.p999 as f64 / 1e3, 1)
            .field_f64("delivery_max_us", lat.max as f64 / 1e3, 1)
            .field_u64("switches_completed", r.switches.completed)
            .field_f64("blackout_p50_us", blk.p50 as f64 / 1e3, 1)
            .field_f64("blackout_p99_us", blk.p99 as f64 / 1e3, 1)
            .field_f64("blackout_max_us", blk.max as f64 / 1e3, 1)
            .field_f64("swap_gap_p50_us", gap.p50 as f64 / 1e3, 1)
            .field_f64("swap_gap_p99_us", gap.p99 as f64 / 1e3, 1)
            .field_u64("flight_dropped", r.flight_dropped)
            .end_obj();
    }
    w.end_arr().end_obj();
    let json = w.finish();
    std::fs::write(&out, &json).expect("write telemetry baseline json");
    print!("{json}");
    eprintln!("wrote {out}");
}
