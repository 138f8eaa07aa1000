//! Generates `BENCH_net.json`: what the real-socket host costs relative
//! to the in-process sharded runtime, on the same workload — n = 3
//! sequencer-ABcast stacks, paced probe broadcasts, wall-clock
//! delivery latency measured by the probe layer itself.
//!
//! The runtime hands packets between stacks through in-memory shard
//! mailboxes; the reactor pushes every one of them through a loopback
//! UDP socket and back through epoll. The committed baseline records
//! that crossing the kernel costs microseconds, not milliseconds — the
//! paper's protocol-switch latencies (tens of ms) are protocol cost,
//! not host cost.
//!
//! Usage: `cargo run --release -p dpu-bench --bin bench_net [out.json]
//! [--msgs 500] [--quick]` (default output `BENCH_net.json`).

use dpu_bench::{Args, JsonWriter};
use dpu_core::probe::Probe;
use dpu_core::StackId;
use dpu_reactor::{Reactor, ReactorConfig};
use dpu_repl::builder::{group, send_probe, specs, GroupStackOpts, SwitchLayer};
use dpu_runtime::{Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

const N: u32 = 3;
const SENDER: StackId = StackId(1);
const PACE: Duration = Duration::from_millis(1);

struct Measured {
    p50_us: f64,
    p99_us: f64,
    msgs_per_s: f64,
    deliveries: usize,
}

fn opts() -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::None,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

/// Drive `msgs` paced probes through `send`, wait for full delivery on
/// all `N` stacks via `delivered`, then summarise the latency samples.
fn measure(
    msgs: u32,
    mut send: impl FnMut(),
    delivered: impl Fn(u32) -> usize,
    latencies: impl Fn(u32) -> Vec<f64>,
) -> Measured {
    let t0 = Instant::now();
    for _ in 0..msgs {
        send();
        std::thread::sleep(PACE);
    }
    let limit = Instant::now() + Duration::from_secs(120);
    while !(0..N).all(|node| delivered(node) >= msgs as usize) {
        assert!(Instant::now() < limit, "timed out waiting for deliveries");
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let mut samples: Vec<f64> = (0..N).flat_map(&latencies).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    Measured {
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        msgs_per_s: samples.len() as f64 / elapsed,
        deliveries: samples.len(),
    }
}

fn run_runtime(msgs: u32) -> Measured {
    let (rt, h) = group(&opts(), |mk| Runtime::spawn(RuntimeConfig::new(N).with_shards(1), mk));
    let probe = h.probe.expect("probe");
    let delivered = |node: u32| {
        rt.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
        })
    };
    let lats = |node: u32| {
        rt.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| {
                p.delivered().iter().map(|r| r.latency().as_millis_f64() * 1e3).collect::<Vec<_>>()
            })
            .expect("probe")
        })
    };
    let m = measure(msgs, || send_probe(&rt, SENDER, &h), delivered, lats);
    rt.shutdown();
    m
}

fn run_reactor(msgs: u32) -> (Measured, dpu_core::telemetry::SocketCounters) {
    let cfg = ReactorConfig::new(N, (0..N).map(StackId).collect());
    let (r, h) = group(&opts(), |mk| Reactor::spawn(cfg, mk));
    let r = r.expect("spawn reactor");
    let probe = h.probe.expect("probe");
    let delivered = |node: u32| {
        r.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
        })
    };
    let lats = |node: u32| {
        r.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| {
                p.delivered()
                    .iter()
                    .map(|rec| rec.latency().as_millis_f64() * 1e3)
                    .collect::<Vec<_>>()
            })
            .expect("probe")
        })
    };
    let m = measure(msgs, || send_probe(&r, SENDER, &h), delivered, lats);
    let stats = r.stats();
    r.shutdown();
    (m, stats)
}

fn main() {
    let args = Args::parse();
    let out = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let msgs: u32 = if args.has("quick") { 100 } else { args.get("msgs", 500) };

    let rt = run_runtime(msgs);
    let (rx, stats) = run_reactor(msgs);

    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_str(
            "bench",
            "abcast delivery latency, in-process runtime vs epoll real-socket host (see \
             crates/bench/src/bin/bench_net.rs)",
        )
        .field_str(
            "workload",
            &format!("n=3 sequencer abcast, {msgs} probes from stack 1 paced 1ms, pad 32"),
        )
        .field_str("units", "latency us, throughput deliveries/s")
        .key("runtime")
        .begin_obj()
        .field_str("host", "dpu-runtime, 1 shard, in-memory mailboxes")
        .field_f64("p50_us", rt.p50_us, 1)
        .field_f64("p99_us", rt.p99_us, 1)
        .field_f64("deliveries_per_s", rt.msgs_per_s, 0)
        .field_u64("deliveries", rt.deliveries as u64)
        .end_obj()
        .key("reactor")
        .begin_obj()
        .field_str("host", "dpu-reactor, every packet through loopback UDP + epoll")
        .field_f64("p50_us", rx.p50_us, 1)
        .field_f64("p99_us", rx.p99_us, 1)
        .field_f64("deliveries_per_s", rx.msgs_per_s, 0)
        .field_u64("deliveries", rx.deliveries as u64)
        .field_u64("packets_sent", stats.packets_sent)
        .field_u64("packets_received", stats.packets_received)
        .field_u64("malformed_dropped", stats.malformed_dropped)
        .end_obj()
        .field_f64("reactor_over_runtime_p50", rx.p50_us / rt.p50_us, 2)
        .end_obj();
    let json = w.finish();
    std::fs::write(&out, &json).expect("write baseline json");
    print!("{json}");
    eprintln!("wrote {out}");
}
