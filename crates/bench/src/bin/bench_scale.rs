//! Generates `BENCH_scale.json`: the capacity baseline — *measured*
//! heap bytes per stack and events/sec from n = 16384 up to the full
//! 1,048,576-stack row, the ROADMAP's million-stack target made
//! visible in-tree.
//!
//! The numbers come from a counting `GlobalAlloc`
//! (`dpu_bench::mem::CountingAlloc`): every row reports live heap
//! bytes after construction and after the timed run window (the
//! steady-state population, in-flight datagrams included), divided by
//! the stack count. A final drop-check asserts the simulation releases
//! what it allocated — the same counter the churn regression test uses.
//!
//! The scenario is the datagram soak
//! ([`dpu_bench::synth::datagram_soak_sim`]): n timer-driven `LoadGen`
//! stacks in 16 datacenter clusters over a WAN backbone. Capacity, not
//! parallel speedup, is the subject — rows run serial by default
//! (`--workers` overrides; wall clocks are machine-bound either way).
//!
//! `pre_refactor` records the same probe's output on this scenario
//! *before* the capacity PR (boxed `Node`s, one owned `peers` vector per
//! stack — O(n²) total), measured on the same class of host; committed
//! so the layout win stays quantified after the old code is gone.
//!
//! Usage: `cargo run --release -p dpu-bench --bin bench_scale [--quick]
//! [--workers N] [out.json]` (default out `BENCH_scale.json`; `--quick`
//! shrinks to n = 4096 and 262144 for CI — the quarter-million row is
//! cheap enough to regression-gate on every push, the million row is
//! the `million_smoke` ignored test's job).

use dpu_bench::mem::CountingAlloc;
use dpu_bench::synth::datagram_soak_sim;
use dpu_bench::Args;
use dpu_core::time::{Dur, Time};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The pre-PR boxed layout, measured by this same probe at the capacity
/// PR's parent commit (run window 50 ms, serial). At 65536 stacks the
/// per-stack peer vectors alone held n * 4 bytes each, so bytes/stack
/// grew linearly with n — the number the slab/SoA + shared-peer-table
/// refactor exists to flatten.
const PRE_REFACTOR: &str = r#"{
    "note": "same probe, parent commit of the capacity PR (boxed Nodes, owned peers vector per stack): bytes/stack grew linearly with n and 65536 stacks took 17 GB to build",
    "rows": [
      { "n": 4096, "build_secs": 0.04, "bytes_per_stack_built": 19325, "bytes_per_stack_run": 21903 },
      { "n": 16384, "build_secs": 5.58, "bytes_per_stack_built": 68420, "bytes_per_stack_run": 70922 },
      { "n": 65536, "build_secs": 125.19, "bytes_per_stack_built": 265013, "bytes_per_stack_run": 267588 }
    ]
  }"#;

/// The last uninstrumented baseline: these rows were committed with
/// telemetry switched off (`TelemetryConfig::off()`, one null pointer
/// per stack) because switching it on cost ~17 KB/stack. Telemetry is
/// now always on — histograms live in the shards, 48 B stay per
/// stack — so the rows above include it; the difference to these is the
/// whole price of observing the run.
const UNINSTRUMENTED: &str = r#"{
    "note": "same probe, telemetry off, at the parent commit of the shard-owned-telemetry PR (instrumented, that commit measured ~17 KB/stack more); that file's build_secs and ev/sec came from a different, faster host and are not comparable with the rows above",
    "rows": [
      { "n": 16384, "bytes_per_stack_built": 1402, "bytes_per_stack_run": 2485 },
      { "n": 65536, "bytes_per_stack_built": 1388, "bytes_per_stack_run": 2392 },
      { "n": 262144, "bytes_per_stack_built": 1386, "bytes_per_stack_run": 2373 },
      { "n": 1048576, "bytes_per_stack_built": 1386, "bytes_per_stack_run": 2336 }
    ]
  }"#;

struct Row {
    build_secs: f64,
    bytes_built: u64,
    bytes_run: u64,
    bytes_peak: u64,
    events: u64,
    ev_per_sec: f64,
}

/// One capacity row: build the soak sim, record live bytes, run the
/// window, record live bytes and throughput, then drop-check.
fn run_row(n: u32, workers: usize, window: Dur) -> Row {
    let live0 = ALLOC.live();
    let t0 = Instant::now();
    let mut sim = datagram_soak_sim(n, 42, workers);
    let build_secs = t0.elapsed().as_secs_f64();
    let bytes_built = ALLOC.live() - live0;
    ALLOC.reset_peak();
    let t1 = Instant::now();
    sim.run_until(Time::ZERO + window);
    let wall = t1.elapsed().as_secs_f64();
    let bytes_run = ALLOC.live() - live0;
    let bytes_peak = ALLOC.peak() - live0;
    let stats = sim.stats();
    drop(sim);
    let leaked = ALLOC.live().saturating_sub(live0);
    assert!(leaked < 1 << 20, "n={n}: {leaked} bytes still live after dropping the simulation");
    Row {
        build_secs,
        bytes_built,
        bytes_run,
        bytes_peak,
        events: stats.events,
        ev_per_sec: stats.events as f64 / wall,
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.has("quick");
    let workers: usize = args.get("workers", 1);
    let out = args.positional().unwrap_or("BENCH_scale.json");
    let sizes: &[u32] = if quick { &[4096, 262144] } else { &[16384, 65536, 262144, 1_048_576] };
    let window = Dur::millis(50);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut rows = Vec::new();
    let mut headline = (0, 0);
    for &n in sizes {
        let r = run_row(n, workers, window);
        let per_stack = |bytes: u64| bytes / u64::from(n);
        eprintln!(
            "n={n:<6} build {:>5.2}s  {:>7} B/stack built, {:>7} B/stack run (peak {:>7})  \
             {:>9.0} ev/s ({} events)",
            r.build_secs,
            per_stack(r.bytes_built),
            per_stack(r.bytes_run),
            per_stack(r.bytes_peak),
            r.ev_per_sec,
            r.events
        );
        rows.push(format!(
            r#"    {{
      "n": {n},
      "build_secs": {:.2},
      "bytes_per_stack_built": {},
      "bytes_per_stack_run": {},
      "bytes_per_stack_peak": {},
      "events": {},
      "ev_per_sec": {:.0}
    }}"#,
            r.build_secs,
            per_stack(r.bytes_built),
            per_stack(r.bytes_run),
            per_stack(r.bytes_peak),
            r.events,
            r.ev_per_sec
        ));
        headline = (n, per_stack(r.bytes_run));
    }
    let json = format!(
        r#"{{
  "bench": "capacity: measured heap bytes/stack + events/sec, datagram soak (see crates/bench/src/bin/bench_scale.rs)",
  "workers": {workers},
  "host_cores": {host_cores},
  "window_ms": {},
  "note": "bytes are live-heap deltas from a counting GlobalAlloc (built = after construction, run = steady state incl. in-flight datagrams, peak = high-water during the window); telemetry is on (always); ev/sec is machine-bound",
  "rows": [
{}
  ],
  "uninstrumented": {UNINSTRUMENTED},
  "pre_refactor": {PRE_REFACTOR},
  "headline": {{
    "metric": "steady-state heap bytes per stack, {}-stack datagram soak",
    "bytes_per_stack": {}
  }}
}}
"#,
        window.as_nanos() / 1_000_000,
        rows.join(",\n"),
        headline.0,
        headline.1
    );
    std::fs::write(out, &json).expect("write capacity baseline json");
    print!("{json}");
    eprintln!("wrote {out}");
}
