//! The names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics, each with unit and direction. `BENCHMARK.json` at the
//! root of the repository lists the same names; `--smoke` checks that the
//! two agree.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

pub struct Workload {
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
    /// Nominal seconds one repetition takes; it only turns `--seconds`
    /// into a repetition count.
    pub nominal_s: f64,
    /// Warm-up repetitions discarded. The live hosts take about three
    /// (two seconds) to reach their steady speed in a fresh process; the
    /// simulator takes one.
    pub warmup: u64,
    /// Whether `BENCHMARK.json` lists it, i.e. whether its end-to-end
    /// metrics are held to their bounds. The live pair is not: every one
    /// of its readings but `bytes_per_stack` is a wall-clock reading of a
    /// second thread, and on a 2-vCPU virtual machine those lie 25-40 %
    /// apart from one ten-second run to the next (see README, "Noise").
    pub bounded: bool,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "fig5-ct-sim",
        why: "the paper's testbed: consensus, rb, fd and install/bind/unbind churn do all the work; \
         the working set is tiny, so scheduler and memory layout do none",
        nominal_s: 3.0,
        warmup: 1,
        bounded: true,
    },
    Workload {
        name: "switch-1k-sim",
        why: "1024-way fan-out through a hot sequencer shard: stack dispatch, rp2p and the wire codec \
         dominate, the event scheduler is a minor share",
        nominal_s: 3.0,
        warmup: 1,
        bounded: true,
    },
    Workload {
        name: "dgram-64k-sim",
        why: "protocol-free at 65536 stacks: scheduler, net model, slab layout and telemetry record do \
         all the work with a working set far beyond cache; protocols and repl do none",
        nominal_s: 3.0,
        warmup: 1,
        bounded: true,
    },
    Workload {
        name: "abcast-runtime",
        why: "the same stacks under a wall clock on one shard thread: mailbox, timer wheel, scratch \
         loans and with_stack; no sim scheduler, no net model, no sockets",
        nominal_s: 0.8,
        warmup: 3,
        bounded: false,
    },
    Workload {
        name: "abcast-reactor",
        why: "identical inputs over loopback UDP and epoll: the pair isolates transport cost, a gain \
         in shared shard code must show on both",
        nominal_s: 1.0,
        warmup: 3,
        bounded: false,
    },
];

/// The calibration spread, as a share of its median, above which a run's
/// wall-clock readings are unresolved (the bound of `setup_s`).
pub const WALL_BOUND: f64 = 0.25;

pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("delivery_p50_us", "us", "lower"),
    m("bytes_per_stack", "B", "lower"),
];

pub const PER_LAYER: &[Metric] = &[
    m("sat_msgs_per_s", "1/s", "higher"),
    m("delivery_p99_us", "us", "lower"),
    m("core.dispatch_ns_per_step", "ns", "lower"),
    m("core.nullhost_us_per_msg", "us", "lower"),
    m("core.nullhost_steps_per_msg", "count", "lower"),
    m("core.steps_per_msg", "count", "lower"),
    m("core.cascade_depth_p99", "count", "lower"),
    m("core.wire_encode_ns", "ns", "lower"),
    m("core.wire_decode_ns", "ns", "lower"),
    m("core.wire_allocs_per_msg", "count", "lower"),
    m("core.heap_allocs_per_event", "count", "lower"),
    m("net.sockframe_encode_ns", "ns", "lower"),
    m("net.sockframe_decode_ns", "ns", "lower"),
    m("net.retransmissions", "count", "lower"),
    m("net.exhausted", "count", "lower"),
    m("net.reseq_depth_p99", "count", "lower"),
    m("protocols.events_per_delivery", "count", "lower"),
    m("protocols.packets_per_msg", "count", "lower"),
    m("protocols.seq_us_per_msg", "us", "lower"),
    m("protocols.ct_us_per_msg", "us", "lower"),
    m("repl.switch_excess_us", "us", "lower"),
    m("repl.blackout_p99_us", "us", "lower"),
    m("repl.blackout_p50_us", "us", "lower"),
    m("repl.swap_gap_p99_us", "us", "lower"),
    m("repl.switch_window_p50_us", "us", "lower"),
    m("repl.switches_completed", "count", "higher"),
    m("repl.reissued_msgs", "count", "lower"),
    m("repl.layer_overhead_pct", "%", "lower"),
    m("repl.latency_drift_pct", "%", "lower"),
    m("sim.run_s", "s", "lower"),
    m("sim.events", "count", "lower"),
    m("sim.events_per_s", "1/s", "higher"),
    m("sim.steps_per_event", "count", "lower"),
    m("sim.sched_ns_per_op", "ns", "lower"),
    m("sim.queued_events_peak", "count", "lower"),
    m("sim.hot_shard_share", "share", "lower"),
    m("sim.build_s", "s", "lower"),
    m("sim.bytes_per_stack_built", "B", "lower"),
    m("sim.bytes_per_stack_peak", "B", "lower"),
    m("sim.phase_warm_s", "s", "lower"),
    m("sim.phase_load_s", "s", "lower"),
    m("sim.phase_switch_s", "s", "lower"),
    m("sim.phase_drain_s", "s", "lower"),
    m("sim.workload_accept_error_pct", "%", "lower"),
    m("sim.ledger_sched_pct", "%", "lower"),
    m("sim.ledger_dispatch_pct", "%", "lower"),
    m("sim.ledger_encode_pct", "%", "lower"),
    m("sim.ledger_decode_pct", "%", "lower"),
    m("sim.ledger_hist_pct", "%", "lower"),
    m("sim.ledger_unexplained_pct", "%", "lower"),
    m("runtime.ctl_roundtrip_us", "us", "lower"),
    m("runtime.shard_cpu_us_per_msg", "us", "lower"),
    m("runtime.busy_pct", "%", "higher"),
    m("runtime.host_overhead_us_per_msg", "us", "lower"),
    m("runtime.spawn_ms", "ms", "lower"),
    m("runtime.shutdown_ms", "ms", "lower"),
    m("runtime.open_p50_us", "us", "lower"),
    m("runtime.delivery_p99_us", "us", "lower"),
    m("reactor.ctl_roundtrip_us", "us", "lower"),
    m("reactor.loop_cpu_us_per_msg", "us", "lower"),
    m("reactor.busy_pct", "%", "higher"),
    m("reactor.host_overhead_us_per_msg", "us", "lower"),
    m("reactor.spawn_ms", "ms", "lower"),
    m("reactor.shutdown_ms", "ms", "lower"),
    m("reactor.open_p50_us", "us", "lower"),
    m("reactor.delivery_p99_us", "us", "lower"),
    m("reactor.socket_drops", "count", "lower"),
    m("telemetry.hist_record_ns", "ns", "lower"),
    m("telemetry.records_per_event", "count", "lower"),
    m("telemetry.report_ms", "ms", "lower"),
    m("telemetry.flight_dropped", "count", "lower"),
    m("harness.calib_ns_per_op", "ns", "lower"),
    m("harness.generator_late_p99_us", "us", "lower"),
    m("harness.trace_overhead_pct", "%", "lower"),
    m("harness.failed_ops_pct", "%", "lower"),
];

/// Check that `BENCHMARK.json` names exactly the bounded workloads and
/// the metrics this program prints, each metric with the same unit and
/// direction.
pub fn check_against(file: &str) -> Result<(), String> {
    let entries = file.matches("\"name\"").count();
    let bounded = WORKLOADS.iter().filter(|w| w.bounded);
    let known = bounded.clone().count() + END_TO_END.len() + PER_LAYER.len();
    if entries != known {
        return Err(format!("BENCHMARK.json names {entries} things, the program {known}"));
    }
    // Compare with whitespace removed, so the file's layout is free.
    let flat: String = file.chars().filter(|c| !c.is_whitespace()).collect();
    for w in bounded {
        if !flat.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name)) {
            return Err(format!("BENCHMARK.json lacks workload {}", w.name));
        }
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
            m.name, m.unit, m.better
        );
        if !flat.contains(&entry) {
            return Err(format!("BENCHMARK.json lacks {entry}..."));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCHMARK.json` body with this program's names, every bound 0.1.
    fn benchmark_json() -> String {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .filter(|w| w.bounded)
            .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        let row = |m: &Metric, bound: &str| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            )
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|m| row(m, ", \"bound\": 0.1")).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|m| row(m, "")).collect();
        format!(
            "{{\"workloads\": [{}],\n\"end_to_end\": [{}],\n\"per_layer\": [{}]}}",
            workloads.join(", "),
            e2e.join(",\n "),
            layers.join(", ")
        )
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.bounded).count()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn committed_benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(check_against(&file), Ok(()));
    }

    #[test]
    fn check_rejects_a_missing_or_altered_metric() {
        let good = benchmark_json();
        assert_eq!(check_against(&good), Ok(()));
        let renamed = good.replace("\"setup_s\"", "\"setup_seconds\"");
        assert!(check_against(&renamed).is_err());
        let flipped = good.replace(
            "\"name\": \"sim.events_per_s\", \"unit\": \"1/s\", \"better\": \"higher\"",
            "\"name\": \"sim.events_per_s\", \"unit\": \"1/s\", \"better\": \"lower\"",
        );
        assert!(check_against(&flipped).is_err());
    }
}
