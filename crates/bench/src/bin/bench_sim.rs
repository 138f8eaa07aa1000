//! Generates `BENCH_par.json`: the conservative parallel engine's
//! baseline. `bench_sim --workers N [--quick] [out.json]` measures
//! serial (1-worker) vs N-worker wall clock and events/sec on three
//! 16-cluster scenarios at n ∈ {256, 1024} —
//!
//! * `datagram_soak` — timer-driven symmetric datagram load
//!   ([`dpu_bench::synth::LoadGen`]) over a WAN backbone (15 ms
//!   lookahead): balanced shards, the engine's headline case;
//! * `abcast_switch_soak` — the `sim_scale_soak` scenario (sequencer
//!   ABcast under Poisson load): the sequencer's cluster is the hot
//!   shard, so the *available* parallelism (sum of per-shard events
//!   over the max) caps the speedup well below the worker count;
//! * `abcast_hier_soak` — the same load on the hierarchical variant,
//!   whose per-cluster sequencers spread that fan-out over all shards.
//!
//! Every pair of runs is asserted to produce identical `SimStats` — the
//! CI short profile (`--workers 4 --quick`) exists for that assertion.
//! Wall-clock speedups are only meaningful with ≥ N physical cores; the
//! JSON records `host_cores` so single-core regenerations are
//! recognizable, alongside the core-count-independent
//! `available_parallelism` load-balance metric.
//!
//! The committed `BENCH_sim.json` (single heap vs timing wheel) was this
//! binary's other mode; it is frozen — the heap it measured left the
//! product, and the whole-system benchmark's `sim.sched_ns_per_op`
//! times the same pop+push turnover on the wheel.

use dpu_bench::synth::datagram_soak_sim;
use dpu_bench::{Args, JsonWriter};
use dpu_core::telemetry::HistSummary;
use dpu_core::time::{Dur, Time};
use dpu_core::ModuleSpec;
use dpu_repl::builder::{drive_poisson, group_sim, GroupStackOpts, SwitchLayer};
use dpu_sim::{CpuConfig, NetConfig, SimConfig, SimStats};
use std::time::Instant;

/// `(wall seconds, stats, unified telemetry report)` of one soak run —
/// the report carries the delivery-latency histogram the `BENCH_par`
/// rows surface as percentile columns.
type SoakRun = (f64, SimStats, dpu_core::telemetry::TelemetryReport);

/// One full Figure-4 sequencer-abcast run (the `sim_scale_soak`
/// scenario shape).
fn abcast_soak_run(n: u32, load: f64, workers: usize) -> SoakRun {
    let (wall, stats, sim, _) = abcast_soak_sim(dpu_repl::builder::specs::seq(0), n, load, workers);
    (wall, stats, sim.telemetry_report())
}

/// The same soak on the hierarchical abcast variant: per-cluster local
/// sequencers spread the ordering fan-out over all 16 clusters instead
/// of funnelling it through one hot shard. After the timed region, the
/// §5.1 uniform total order is asserted on every stack's delivery log.
fn hier_soak_run(n: u32, load: f64, workers: usize) -> SoakRun {
    // The failover timeout sits far above the soak's delivery latency:
    // this measures the steady-state data path, not spurious rotations.
    let hier = ModuleSpec::with_params(
        dpu_protocols::abcast::hier::KIND,
        &dpu_protocols::abcast::hier::HierAbcastParams {
            resend: Dur::secs(30),
            ..dpu_protocols::abcast::hier::HierAbcastParams::default()
        },
    );
    let (wall, stats, mut sim, h) = abcast_soak_sim(hier, n, load, workers);
    dpu_repl::builder::check_run(&mut sim, &h).assert_ok();
    let report = sim.telemetry_report();
    (wall, stats, report)
}

/// Shared soak harness: clustered datacenter topology, open-loop
/// Poisson probe load through the replacement layer over the given
/// abcast variant. Returns the timed wall seconds, the stats, and the
/// still-live sim + handles for post-run property checks.
fn abcast_soak_sim(
    abcast: ModuleSpec,
    n: u32,
    load: f64,
    workers: usize,
) -> (f64, SimStats, dpu_sim::Sim, dpu_repl::builder::Handles) {
    let mut cfg =
        SimConfig::clustered(n, 42, (n / 16).max(1), NetConfig::datacenter(), NetConfig::lan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    cfg.workers = workers;
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &dpu_net::rp2p::Rp2pConfig {
            retransmit: Dur::millis(100),
            lower: dpu_net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    let opts = GroupStackOpts {
        abcast,
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: vec![(dpu_net::RP2P_SVC.to_string(), rp2p)],
    };
    // Time only the dispatch loop: constructing n full stacks is
    // worker-independent and would dilute the ratio.
    let (mut sim, h) = group_sim(cfg, &opts);
    let t0 = Instant::now();
    sim.run_until(Time::ZERO + Dur::millis(200));
    drive_poisson(&mut sim, &h, load, Time::ZERO + Dur::millis(1200));
    sim.run_until(Time::ZERO + Dur::millis(2500));
    (t0.elapsed().as_secs_f64(), sim.stats(), sim, h)
}

/// The timer-driven symmetric datagram soak (see module docs): returns
/// wall seconds and the final stats. The latency columns in
/// `BENCH_par.json` are real end-to-end delivery percentiles (the
/// `LoadGen` payload carries its send stamp); the same soak is the
/// capacity baseline of `BENCH_scale.json`, benched separately.
fn datagram_soak_run(n: u32, workers: usize) -> SoakRun {
    let mut sim = datagram_soak_sim(n, 42, workers);
    let t0 = Instant::now();
    sim.run_until(Time::ZERO + Dur::millis(400));
    let wall = t0.elapsed().as_secs_f64();
    let stats = sim.stats();
    let report = sim.telemetry_report();
    (wall, stats, report)
}

/// Best-of-two wall clock for one scenario runner at a worker count;
/// asserts both runs computed the same stats (determinism) and returns
/// `(best wall, stats, report)`.
fn best_of_two(run: impl Fn(usize) -> SoakRun, workers: usize) -> SoakRun {
    let (w1, s1, r1) = run(workers);
    let (w2, s2, r2) = run(workers);
    assert_eq!(s1, s2, "same config must produce the same run");
    assert_eq!(
        r1.delivery_latency_ns, r2.delivery_latency_ns,
        "same config must produce the same latency histogram"
    );
    (w1.min(w2), s1, r1)
}

/// Sum-over-max of the per-shard event counts: the load-balance upper
/// bound on any speedup (independent of the host's core count).
fn available_parallelism(stats: &SimStats) -> f64 {
    let max = stats.per_shard.iter().map(|s| s.events).max().unwrap_or(1).max(1);
    let sum: u64 = stats.per_shard.iter().map(|s| s.events).sum();
    sum as f64 / max as f64
}

/// Generate the parallel-engine baseline (`BENCH_par.json`), asserting
/// serial/parallel stats equality on every scenario.
fn run_par_mode(workers: usize, quick: bool, out: &str) {
    let sizes: &[u32] = if quick { &[256] } else { &[256, 1024] };
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let oversubscribed = host_cores < workers;
    if oversubscribed {
        eprintln!(
            "warning: {workers} workers on {host_cores} host core(s) — wall-clock speedups in \
             this run measure scheduling overhead, not the engine; trust only the \
             available_parallelism column (deterministic) and rerun on >= {workers} cores for \
             timing"
        );
    }
    struct ParRow {
        kind: &'static str,
        n: u32,
        wall_1: f64,
        wall_n: f64,
        speedup: f64,
        avail: f64,
        stats: SimStats,
        lat: HistSummary,
    }
    let mut rows: Vec<ParRow> = Vec::new();
    let mut headline = 0.0f64;
    let mut headline_n = 0u32;
    for (kind, runner) in [
        ("datagram_soak", &datagram_soak_run as &dyn Fn(u32, usize) -> SoakRun),
        ("abcast_switch_soak", &|n, w| abcast_soak_run(n, 60.0 * (f64::from(n) / 16.0).sqrt(), w)),
        ("abcast_hier_soak", &|n, w| hier_soak_run(n, 60.0 * (f64::from(n) / 16.0).sqrt(), w)),
    ] {
        for &n in sizes {
            let (wall_1, stats_1, rep_1) = best_of_two(|w| runner(n, w), 1);
            let (wall_n, stats_n, rep_n) = best_of_two(|w| runner(n, w), workers);
            assert_eq!(stats_1, stats_n, "{kind} n={n}: parallel run diverged from serial");
            // The telemetry histograms merge by bucket addition, so the
            // worker count must not show in the latency distribution
            // either — the par_equiv property at the telemetry layer.
            assert_eq!(
                rep_1.delivery_latency_ns, rep_n.delivery_latency_ns,
                "{kind} n={n}: parallel latency histogram diverged from serial"
            );
            let speedup = wall_1 / wall_n;
            let avail = available_parallelism(&stats_n);
            if kind == "datagram_soak" {
                // Host-independent check (event spreads are deterministic):
                // the balanced soak must expose enough load parallelism
                // for the worker pool, or the engine cannot scale on any
                // machine. The ceiling is the cluster count (16), so the
                // bound caps below it for large pools. Wall clocks are
                // asserted nowhere — they are meaningless on fewer cores
                // than workers.
                let need = (workers as f64).min(12.0);
                assert!(avail >= need, "{kind} n={n}: only {avail:.1}x available parallelism");
                if n == *sizes.last().unwrap() {
                    headline = speedup;
                    headline_n = n;
                }
            }
            if kind == "abcast_hier_soak" && n == 1024 {
                // The hierarchical variant's raison d'être: spreading
                // the ordering fan-out must leave the shards balanced
                // enough for a real worker pool, where the flat
                // sequencer soak sits near 2x. Deterministic event
                // spreads make this host-independent.
                assert!(avail >= 8.0, "{kind} n={n}: only {avail:.1}x available parallelism");
            }
            eprintln!(
                "{kind:<20} n={n:<5} serial {wall_1:>6.2}s parallel({workers}) {wall_n:>6.2}s \
                 ({speedup:.2}x wall, {avail:.1}x available, {} events, latency p50 {} ns over \
                 {} deliveries)",
                stats_n.events, rep_n.delivery_latency_ns.p50, rep_n.delivery_latency_ns.count
            );
            rows.push(ParRow {
                kind,
                n,
                wall_1,
                wall_n,
                speedup,
                avail,
                stats: stats_n,
                lat: rep_n.delivery_latency_ns,
            });
        }
    }
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_str(
            "bench",
            "conservative parallel simulation engine (see crates/bench/src/bin/bench_sim.rs, \
             --workers mode)",
        )
        .field_u64("workers", workers as u64)
        .field_u64("host_cores", host_cores as u64);
    if oversubscribed {
        w.field_str(
            "warning",
            &format!(
                "host undersized: {workers} workers on {host_cores} core(s); wall-clock columns \
                 are not meaningful on this host"
            ),
        );
    }
    w.field_str(
        "note",
        "wall_speedup needs >= workers physical cores to be meaningful; available_parallelism \
         (per-shard event sum over max) is the host-independent load-balance ceiling; every \
         serial/parallel pair asserted bit-identical, latency histograms included; latency \
         percentiles are virtual-time delivery latency from the unified telemetry layer \
         (datagram_soak stamps send time into each payload, so its columns are real \
         end-to-end delivery latency)",
    )
    .key("rows")
    .begin_arr();
    for r in &rows {
        w.elem()
            .begin_obj()
            .field_str("scenario", r.kind)
            .field_u64("n", u64::from(r.n))
            .field_u64("events", r.stats.events)
            .field_f64("serial_secs", r.wall_1, 3)
            .field_f64("parallel_secs", r.wall_n, 3)
            .field_f64("serial_ev_per_sec", r.stats.events as f64 / r.wall_1, 0)
            .field_f64("parallel_ev_per_sec", r.stats.events as f64 / r.wall_n, 0)
            .field_f64("wall_speedup", r.speedup, 2)
            .field_f64("available_parallelism", r.avail, 2)
            .field_u64("deliveries", r.lat.count)
            .field_f64("latency_p50_us", r.lat.p50 as f64 / 1e3, 1)
            .field_f64("latency_p99_us", r.lat.p99 as f64 / 1e3, 1)
            .field_f64("latency_p999_us", r.lat.p999 as f64 / 1e3, 1)
            .end_obj();
    }
    w.end_arr()
        .key("headline")
        .begin_obj()
        .field_str(
            "metric",
            &format!(
                "wall-clock speedup, {workers}-worker vs serial, {headline_n}-stack datagram \
                 soak on 16 datacenter clusters + WAN backbone"
            ),
        )
        .field_f64("wall_speedup", headline, 2)
        .end_obj()
        .end_obj();
    let json = w.finish();
    std::fs::write(out, &json).expect("write parallel baseline json");
    print!("{json}");
    eprintln!("wrote {out}");
}

fn main() {
    let args = Args::parse();
    // The 1-worker run is the baseline of every row (serial_secs), so
    // the comparison needs a genuine pool on the other side.
    let workers: usize = args.get("workers", 0);
    assert!(workers >= 2, "usage: bench_sim --workers N [--quick] [out.json], with N >= 2");
    let out = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
        .unwrap_or_else(|| "BENCH_par.json".to_string());
    run_par_mode(workers, args.has("quick"), &out);
}
