//! The three simulator workloads. Each repetition builds a fresh `Sim`
//! from its own sub-seed, runs one fixed scenario in virtual time, checks
//! it, and adds one value per metric to the run's [`Collector`].
//!
//! Virtual-time and counted metrics are pure functions of the sub-seed.
//! Wall-clock metrics (`setup_s`, `sat_msgs_per_s`, `sim.run_s`) time a
//! fixed scenario and count its broadcasts, not its events, so removing
//! events from the simulator cannot hurt them.

use crate::alloc::ALLOC;
use crate::kernels::SchedProfile;
use crate::loadgen::LoadGen;
use crate::stats::{quantile_sorted, supported_quantile, Collector};
use crate::trace::Tracer;
use crate::{Ops, Scale};
use dpu::core::probe::Probe;
use dpu::core::telemetry::TelemetryReport;
use dpu::core::time::{Dur, Time};
use dpu::core::{FactoryRegistry, ModuleSpec, Stack, StackConfig, StackId};
use dpu::protocols::abcast::hier::{HierAbcastParams, KIND as HIER_KIND};
use dpu::repl::abcast_repl::ReplAbcastModule;
use dpu::repl::builder::{
    check_run, drive_bursty, drive_load, group_sim, request_change, specs, GroupStackOpts, Handles,
    SwitchLayer,
};
use dpu::sim::{CpuConfig, NetConfig, Sim, SimConfig, SimStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall time of the `run_until` slices of a traced run, keyed by the
/// virtual time each slice started at, and the event population seen
/// between slices.
struct Slices {
    /// Virtual time per slice. 1 ms where the topology's lookahead is far
    /// below that; on a WAN backbone the engine works in 15 ms epochs, and
    /// cutting those into 1 ms slices costs 10-25 % of cache locality at
    /// 65536 stacks, so the slice is the epoch there.
    width: Dur,
    wall_ns: Vec<(u64, u64)>,
    queued: Vec<usize>,
}

impl Slices {
    fn of(width: Dur) -> Slices {
        Slices { width, wall_ns: Vec::new(), queued: Vec::new() }
    }
}

/// Advance `sim` to `target`: in one call when untraced, in slices under
/// a span each when traced. Slicing changes no result — the simulation is
/// a function of its configuration and seed only.
fn run_to(sim: &mut Sim, target: Time, tr: &mut Tracer, slices: &mut Slices) {
    if !tr.enabled() {
        sim.run_until(target);
        return;
    }
    while sim.now() < target {
        let start = sim.now();
        let to = (start + slices.width).min(target);
        let t = Instant::now();
        tr.span("sim.run_until", || sim.run_until(to));
        slices.wall_ns.push((start.as_nanos(), t.elapsed().as_nanos() as u64));
        slices.queued.push(sim.queued_events());
    }
}

/// The exact expected count of a two-level periodic intensity over
/// `[from, to)`: `burst` for the first `duty` of every `period`, `base`
/// for the rest (the integral the thinning generator must reproduce).
pub fn integrated_rate(base: f64, burst: f64, period: Dur, duty: f64, from: Time, to: Time) -> f64 {
    let p = period.as_nanos();
    let edge = (duty * p as f64) as u64;
    let mut t = from.as_nanos();
    let end = to.as_nanos();
    let mut expected = 0.0;
    while t < end {
        let phase = t % p;
        let (rate, seg_end) =
            if phase < edge { (burst, t - phase + edge) } else { (base, t - phase + p) };
        let stop = seg_end.min(end);
        expected += rate * (stop - t) as f64 / 1e9;
        t = stop;
    }
    expected
}

enum Load {
    /// `rate` msgs/s aggregate, round-robin over the stacks.
    Constant { rate: f64 },
    /// The simulator's thinning generator.
    Bursty { base: f64, burst: f64, period: Dur, duty: f64 },
}

/// One abcast scenario: build, warm up, load with scheduled replacements,
/// drain, check.
struct Plan {
    cfg: SimConfig,
    opts: GroupStackOpts,
    warm: Dur,
    load: Load,
    load_for: Dur,
    /// `(offset from the start of the load, requesting stack, target)`.
    switches: Vec<(Dur, StackId, ModuleSpec)>,
    drain: Dur,
    /// The quantile `delivery_p99_us` reports: 0.99 where a repetition
    /// broadcasts at least 1000 messages, else the highest that leaves ten
    /// *messages* beyond it — the 1024 deliveries of one message queue
    /// behind the same burst, so they are one sample of the tail, not 1024.
    tail: f64,
    sched: SchedProfile,
}

fn fig5_plan(seed: u64, scale: &Scale, layer: SwitchLayer, with_switches: bool) -> Plan {
    let n = 7;
    let (load_for, every, drain) = if scale.smoke {
        (Dur::secs(2), Dur::millis(700), Dur::secs(2))
    } else {
        (Dur::secs(30), Dur::secs(2), Dur::secs(4))
    };
    let mut switches = Vec::new();
    let mut at = every;
    let mut k = 1u64;
    while with_switches && at < load_for {
        // ct -> ct under a fresh namespace: the paper replaces the protocol by itself.
        switches.push((at, StackId((k % u64::from(n)) as u32), specs::ct(k)));
        at += every;
        k += 1;
    }
    Plan {
        cfg: SimConfig::lan(n, seed),
        opts: GroupStackOpts {
            abcast: specs::ct(0),
            layer,
            probe_pad: Some(32),
            with_gm: false,
            extra_defaults: Vec::new(),
        },
        warm: Dur::millis(500),
        load: Load::Constant { rate: 150.0 },
        load_for,
        switches,
        drain,
        tail: 0.99,
        sched: SchedProfile {
            short: (15_000, 160_000),
            long: (1_000_000, 50_000_000),
            long_pct: 15,
        },
    }
}

fn switch_1k_plan(seed: u64, scale: &Scale) -> Plan {
    let n: u32 = if scale.smoke { 64 } else { 1024 };
    let mut cfg =
        SimConfig::clustered(n, seed, (n / 16).max(1), NetConfig::datacenter(), NetConfig::lan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    // A 1024-way fan-out is milliseconds of modeled sequencer CPU: the
    // retransmit timer must sit above that queueing delay.
    let rp2p = ModuleSpec::with_params(
        "rp2p",
        &dpu::net::rp2p::Rp2pConfig {
            retransmit: Dur::millis(100),
            lower: dpu::net::UDP_SVC.to_string(),
            max_retransmits: 0,
        },
    );
    // Failover resend far above the soak's latency: the post-switch regime
    // must measure the hierarchical data path, not spurious rotations.
    let hier = ModuleSpec::with_params(
        HIER_KIND,
        &HierAbcastParams { namespace: 1, resend: Dur::secs(30), ..HierAbcastParams::default() },
    );
    Plan {
        cfg,
        opts: GroupStackOpts {
            abcast: specs::seq(0),
            layer: SwitchLayer::Repl,
            probe_pad: Some(0),
            with_gm: false,
            extra_defaults: vec![(dpu::net::RP2P_SVC.to_string(), rp2p)],
        },
        warm: Dur::millis(200),
        // Half the rates of `BENCH_telemetry.json` for twice as long: the
        // same ~110 broadcasts, but bursts of 100/s leave the sequencer
        // well below its capacity. At 200/s it sits on the knee, where the
        // median latency of a repetition lands anywhere from 0.6 to 100 ms
        // depending on the seed.
        load: Load::Bursty { base: 25.0, burst: 100.0, period: Dur::millis(400), duty: 0.25 },
        load_for: Dur::millis(2600),
        tail: 0.90,
        // A quarter into the load, at the start of a burst: the median
        // latency then belongs to the hierarchical regime for every seed.
        switches: vec![(Dur::millis(600), StackId(7 % n), hier)],
        drain: Dur::secs(3),
        sched: SchedProfile { short: (1_000, 20_000), long: (60_000, 100_000_000), long_pct: 10 },
    }
}

/// Everything read back from the probes and the replacement layer.
struct Observed {
    /// Broadcast → adeliver, one sample per (message, stack), sorted.
    latencies: Vec<u64>,
    /// `(sent at, mean latency over the stacks)` of every message
    /// delivered on all stacks.
    per_msg: Vec<(u64, f64)>,
    broadcasts: u64,
    /// Broadcasts not delivered on every stack.
    undelivered: u64,
    /// Trigger → last stack switched, one per completed replacement.
    windows: Vec<(u64, u64)>,
    reissued: u64,
    /// Requested → first delivery by the new protocol, one per (stack,
    /// replacement), sorted.
    blackouts: Vec<u64>,
}

fn observe(sim: &mut Sim, h: &Handles, triggers: &[Time]) -> Observed {
    let probe = h.probe.expect("probe");
    let n = sim.n() as usize;
    let mut latencies = Vec::new();
    let mut msgs: BTreeMap<(StackId, u64), (u64, u64, usize)> = BTreeMap::new();
    let mut switched: Vec<Vec<Time>> = Vec::new();
    let mut reissued = 0;
    let mut blackouts = Vec::new();
    for id in sim.stack_ids() {
        sim.with_stack(id, |s| {
            s.with_module::<Probe, _>(probe, |p| {
                for (msg, at) in p.sent() {
                    msgs.entry(*msg).or_insert((at.as_nanos(), 0, 0));
                }
            })
            .expect("probe present");
        });
    }
    for id in sim.stack_ids() {
        sim.with_stack(id, |s| {
            s.with_module::<Probe, _>(probe, |p| {
                for r in p.delivered() {
                    let l = r.latency().as_nanos();
                    latencies.push(l);
                    let e = msgs.get_mut(&r.msg).expect("delivered message was broadcast");
                    e.1 += l;
                    e.2 += 1;
                }
            })
            .expect("probe present");
            if let Some(layer) = h.layer {
                let (times, re) = s
                    .with_module::<ReplAbcastModule, _>(layer, |m| {
                        (m.switch_times().to_vec(), m.reissued_total())
                    })
                    .expect("replacement layer present");
                switched.push(times);
                reissued += re;
            }
            if let Some(state) = s.telemetry().state() {
                let recent = state.switches.recent();
                assert_eq!(
                    recent.len() as u64,
                    state.switches.completed(),
                    "more replacements than the timeline retains raw records for"
                );
                blackouts.extend(recent.iter().filter_map(|r| r.blackout_ns()));
            }
        });
    }
    latencies.sort_unstable();
    blackouts.sort_unstable();
    let windows = triggers
        .iter()
        .enumerate()
        .filter_map(|(k, t)| {
            let last = switched.iter().map(|s| s.get(k).copied()).collect::<Option<Vec<_>>>()?;
            Some((t.as_nanos(), last.into_iter().max()?.as_nanos()))
        })
        .collect();
    let broadcasts = msgs.len() as u64;
    let per_msg: Vec<(u64, f64)> = msgs
        .values()
        .filter(|(_, _, count)| *count == n)
        .map(|&(sent, sum, count)| (sent, sum as f64 / count as f64))
        .collect();
    let undelivered = broadcasts - per_msg.len() as u64;
    Observed { latencies, per_msg, broadcasts, undelivered, windows, reissued, blackouts }
}

fn mean(v: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, count) = v.fold((0.0, 0u64), |(s, c), x| (s + x, c + 1));
    (count > 0).then(|| sum / count as f64)
}

/// Memory readings of one repetition, in bytes per stack.
struct Mem {
    before: u64,
    n: u64,
}

impl Mem {
    fn start(n: u32) -> Mem {
        ALLOC.reset_peak();
        Mem { before: ALLOC.live(), n: u64::from(n) }
    }
    fn live_per_stack(&self) -> f64 {
        ALLOC.live().saturating_sub(self.before) as f64 / self.n as f64
    }
    fn peak_per_stack(&self) -> f64 {
        ALLOC.peak().saturating_sub(self.before) as f64 / self.n as f64
    }
    /// Bytes still live beyond the level the repetition started at.
    fn retained(&self) -> u64 {
        ALLOC.live().saturating_sub(self.before)
    }
}

/// Process-wide state the first simulation leaves behind on purpose
/// (interned service names, lazily built tables) plus the few samples the
/// repetition added to the collector. A repetition that retains more than
/// this leaked.
const RETAIN_SLACK: u64 = 64 * 1024;

/// Whether the simulation gave back what it allocated. A traced
/// repetition is not asked: its spans stay in memory by design, and its
/// untraced partner on the same seed has answered.
fn released(mem: &Mem, tr: &Tracer) -> bool {
    if tr.enabled() {
        return true;
    }
    let kept = mem.retained();
    if kept > RETAIN_SLACK {
        eprintln!("simulation retained {kept} bytes after drop");
    }
    kept <= RETAIN_SLACK
}

/// What the timed region of one simulation cost, and the counters the
/// per-layer ledger multiplies by kernel costs.
struct Timed {
    run_s: f64,
    /// Counters of the timed region only.
    stats: SimStats,
    /// Share of all events, set-up included, that the busiest shard ran.
    hot_shard_share: f64,
    alloc_calls: u64,
}

fn hot_shard_share(total: &SimStats) -> f64 {
    let hot = total.per_shard.iter().map(|s| s.events).max().unwrap_or(0);
    hot as f64 / total.per_shard.iter().map(|s| s.events).sum::<u64>().max(1) as f64
}

/// Samples recorded into telemetry histograms over the run.
fn hist_records(report: &TelemetryReport) -> u64 {
    report.delivery_latency_ns.count
        + report.cascade_depth.count
        + report.scratch_occupancy_bytes.count
        + report.reseq_depth.count
        + report.switches.blackout_ns.count
        + report.switches.swap_gap_ns.count
}

fn sim_layer_metrics(
    c: &mut Collector,
    timed: &Timed,
    report: &TelemetryReport,
    report_s: f64,
    slices: &Slices,
    build_s: f64,
) {
    let st = &timed.stats;
    let events = st.events.max(1) as f64;
    c.add("sim.events", st.events as f64);
    c.add("sim.events_per_s", events / timed.run_s);
    c.add("sim.steps_per_event", st.steps as f64 / events);
    c.add("sim.build_s", build_s);
    c.add("core.heap_allocs_per_event", timed.alloc_calls as f64 / events);
    c.add("sim.hot_shard_share", timed.hot_shard_share);
    if let Some(&peak) = slices.queued.iter().max() {
        c.add("sim.queued_events_peak", peak as f64);
    }
    c.add("telemetry.records_per_event", hist_records(report) as f64 / events);
    c.add("telemetry.report_ms", report_s * 1e3);
    c.add("telemetry.flight_dropped", report.flight_dropped as f64);
    c.add("core.cascade_depth_p99", report.cascade_depth.p99 as f64);
    c.add("net.retransmissions", report.transport.retransmissions as f64);
    c.add("net.exhausted", report.transport.exhausted as f64);
    c.add("net.reseq_depth_p99", report.reseq_depth.p99 as f64);
}

/// Counts of one run that the ledger prices with isolated kernel costs.
pub struct LedgerCounts {
    pub run_s: f64,
    pub events: u64,
    pub steps: u64,
    pub encodes: u64,
    pub decodes: u64,
    pub hist_records: u64,
    pub queued_median: usize,
    pub sched: SchedProfile,
}

fn ledger_counts(
    timed: &Timed,
    report: &TelemetryReport,
    slices: &Slices,
    sched: SchedProfile,
) -> LedgerCounts {
    let mut q = slices.queued.clone();
    q.sort_unstable();
    LedgerCounts {
        run_s: timed.run_s,
        events: timed.stats.events,
        steps: timed.stats.steps,
        encodes: report.wire.emitted,
        decodes: timed.stats.packets_delivered,
        hist_records: hist_records(report),
        queued_median: q.get(q.len() / 2).copied().unwrap_or(0),
        sched,
    }
}

/// Sum the wall time of the traced slices by phase.
fn phase_seconds(
    slices: &Slices,
    warm_end: u64,
    load_end: u64,
    windows: &[(u64, u64)],
) -> [f64; 4] {
    let mut s = [0.0; 4];
    for &(virt, wall) in &slices.wall_ns {
        let phase = if virt < warm_end {
            0
        } else if windows.iter().any(|&(a, b)| virt + slices.width.as_nanos() > a && virt < b) {
            2
        } else if virt < load_end {
            1
        } else {
            3
        };
        s[phase] += wall as f64 / 1e9;
    }
    s
}

fn add_phases(c: &mut Collector, p: [f64; 4]) {
    c.add("sim.phase_warm_s", p[0]);
    c.add("sim.phase_load_s", p[1]);
    c.add("sim.phase_switch_s", p[2]);
    c.add("sim.phase_drain_s", p[3]);
}

/// Run one abcast scenario. Adds the end-to-end and per-layer values of
/// this repetition to `c`; returns the operations it attempted and the
/// counts for the ledger.
fn run_plan(plan: Plan, tr: &mut Tracer, c: &mut Collector) -> (Ops, LedgerCounts) {
    let n = plan.cfg.n;
    let mut slices = Slices::of(Dur::millis(1));
    let mem = Mem::start(n);

    let o_setup = tr.begin("rep.setup");
    let t_setup = Instant::now();
    let (mut sim, h) = tr.span("builder.group_sim", || group_sim(plan.cfg, &plan.opts));
    let build_s = t_setup.elapsed().as_secs_f64();
    let built_per_stack = mem.live_per_stack();
    let warm_end = Time::ZERO + plan.warm;
    run_to(&mut sim, warm_end, tr, &mut slices);
    let setup_s = t_setup.elapsed().as_secs_f64();
    tr.end(o_setup);

    let o_run = tr.begin("rep.run");
    let calls_before = ALLOC.calls();
    let stats_before = sim.stats();
    let t_run = Instant::now();
    let load_end = warm_end + plan.load_for;
    let o = tr.begin("workload.install");
    let bursty_idx = match plan.load {
        Load::Constant { rate } => {
            drive_load(&mut sim, &h, rate, load_end);
            None
        }
        Load::Bursty { base, burst, period, duty } => {
            Some(drive_bursty(&mut sim, &h, base, burst, period, duty, load_end))
        }
    };
    tr.end(o);
    let mut triggers = Vec::new();
    for (offset, who, spec) in plan.switches {
        let at = warm_end + offset;
        triggers.push(at);
        let h = h.clone();
        sim.schedule(at, move |sim| request_change(sim, who, &h, &spec));
    }
    run_to(&mut sim, load_end + plan.drain, tr, &mut slices);
    let run_s = t_run.elapsed().as_secs_f64();
    let live_per_stack = mem.live_per_stack();
    let mut stats = sim.stats();
    let hot_shard_share = hot_shard_share(&stats);
    stats.events -= stats_before.events;
    stats.steps -= stats_before.steps;
    stats.packets_sent -= stats_before.packets_sent;
    stats.packets_delivered -= stats_before.packets_delivered;
    let timed = Timed { run_s, stats, hot_shard_share, alloc_calls: ALLOC.calls() - calls_before };
    tr.end(o_run);

    let o_check = tr.begin("rep.check");
    let seen = observe(&mut sim, &h, &triggers);
    let t_report = Instant::now();
    let report = tr.span("sim.telemetry_report", || sim.telemetry_report());
    let report_s = t_report.elapsed().as_secs_f64();
    let verdict = tr.span("builder.check_run", || check_run(&mut sim, &h));
    let violations = verdict.checker.check();
    let mut correct = violations.is_empty() && verdict.wellformed.weak;
    if !correct {
        eprintln!("property violation: {violations:?} {:?}", verdict.wellformed.violations);
        eprint!("{}", sim.dump_flight_recorders());
    }
    if seen.windows.len() != triggers.len() {
        eprintln!("{} of {} replacements completed", seen.windows.len(), triggers.len());
        correct = false;
    }
    tr.end(o_check);

    // End to end.
    let ops = seen.broadcasts - seen.undelivered;
    c.add("setup_s", setup_s);
    c.add("sim.run_s", run_s);
    c.add("sat_msgs_per_s", ops as f64 / run_s);
    c.add("delivery_p50_us", quantile_sorted(&seen.latencies, 0.5) as f64 / 1e3);
    c.add("delivery_p99_us", quantile_sorted(&seen.latencies, plan.tail) as f64 / 1e3);
    c.add("bytes_per_stack", live_per_stack);

    // The replacement layer.
    let inside = |sent: u64| seen.windows.iter().any(|&(a, b)| sent >= a && sent < b);
    let m_in = mean(seen.per_msg.iter().filter(|m| inside(m.0)).map(|m| m.1));
    let m_out = mean(seen.per_msg.iter().filter(|m| !inside(m.0)).map(|m| m.1));
    if let (Some(m_in), Some(m_out)) = (m_in, m_out) {
        c.add("repl.switch_excess_us", (m_in - m_out) / 1e3);
    }
    if !seen.blackouts.is_empty() {
        let q = supported_quantile(seen.blackouts.len(), 0.99);
        c.add("repl.blackout_p99_us", quantile_sorted(&seen.blackouts, q) as f64 / 1e3);
        c.add("repl.blackout_p50_us", report.switches.blackout_ns.p50 as f64 / 1e3);
        c.add("repl.swap_gap_p99_us", report.switches.swap_gap_ns.p99 as f64 / 1e3);
        let mut w: Vec<u64> = seen.windows.iter().map(|&(a, b)| b - a).collect();
        w.sort_unstable();
        c.add("repl.switch_window_p50_us", quantile_sorted(&w, 0.5) as f64 / 1e3);
    }
    c.add("repl.switches_completed", report.switches.completed as f64 / f64::from(n));
    c.add("repl.reissued_msgs", seen.reissued as f64);
    if let (Some(&(first, _)), Some(&(_, last))) = (seen.windows.first(), seen.windows.last()) {
        let before = mean(seen.per_msg.iter().filter(|m| m.0 < first).map(|m| m.1));
        let after = mean(seen.per_msg.iter().filter(|m| m.0 >= last).map(|m| m.1));
        if let (Some(before), Some(after)) = (before, after) {
            c.add("repl.latency_drift_pct", (after / before - 1.0) * 100.0);
        }
    }

    // Protocols and simulator.
    let deliveries = seen.latencies.len().max(1) as f64;
    c.add("protocols.events_per_delivery", timed.stats.events as f64 / deliveries);
    c.add(
        "protocols.packets_per_msg",
        timed.stats.packets_sent as f64 / seen.broadcasts.max(1) as f64,
    );
    c.add(
        "core.wire_allocs_per_msg",
        report.wire.allocations as f64 / seen.broadcasts.max(1) as f64,
    );
    c.add("core.steps_per_msg", timed.stats.steps as f64 / seen.broadcasts.max(1) as f64);
    c.add("sim.bytes_per_stack_built", built_per_stack);
    c.add("sim.bytes_per_stack_peak", mem.peak_per_stack());
    sim_layer_metrics(c, &timed, &report, report_s, &slices, build_s);
    if tr.enabled() {
        add_phases(
            c,
            phase_seconds(&slices, warm_end.as_nanos(), load_end.as_nanos(), &seen.windows),
        );
    }
    if let (Some(idx), Load::Bursty { base, burst, period, duty }) = (bursty_idx, &plan.load) {
        let accepted = timed.stats.workloads[idx].injected as f64;
        let expected = integrated_rate(*base, *burst, *period, *duty, warm_end, load_end);
        let err = (accepted - expected).abs();
        c.add("sim.workload_accept_error_pct", err / expected * 100.0);
        // One realisation of a Poisson count is sqrt(expected) away from its
        // mean; 5 % of ~114 arrivals is half that. Fail beyond 5 sigma or
        // 5 %, whichever is wider.
        if err > (0.05 * expected).max(5.0 * expected.sqrt()) {
            eprintln!(
                "thinning generator accepted {accepted}, integrated rate gives {expected:.1}"
            );
            correct = false;
        }
    }

    let ledger = ledger_counts(&timed, &report, &slices, plan.sched);
    let (attempted, failed) = (seen.broadcasts, seen.undelivered);
    drop((verdict, sim, seen, report, timed, slices, triggers));
    correct &= released(&mem, tr);
    (Ops { attempted, failed, correct }, ledger)
}

pub fn fig5_rep(
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
    c: &mut Collector,
) -> (Ops, LedgerCounts) {
    run_plan(fig5_plan(seed, scale, SwitchLayer::Repl, true), tr, c)
}

pub fn switch_1k_rep(
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
    c: &mut Collector,
) -> (Ops, LedgerCounts) {
    run_plan(switch_1k_plan(seed, scale), tr, c)
}

/// Figure 6: median delivery latency of the `fig5-ct-sim` inputs without
/// replacements, with the replacement layer over without it, in percent.
pub fn fig6_layer_overhead_pct(seed: u64, scale: &Scale, tr: &mut Tracer) -> Option<f64> {
    let o = tr.begin("fig6.layer_overhead");
    let mut p50 = [0.0; 2];
    for (slot, layer) in [SwitchLayer::None, SwitchLayer::Repl].into_iter().enumerate() {
        let mut plan = fig5_plan(seed, scale, layer, false);
        plan.load_for = plan.load_for.min(Dur::secs(10));
        let mut c = Collector::default();
        let mut quiet = Tracer::new(false);
        let (ops, _) = run_plan(plan, &mut quiet, &mut c);
        if !ops.correct || ops.failed > 0 {
            tr.end(o);
            return None;
        }
        p50[slot] = c.median("delivery_p50_us")?;
    }
    tr.end(o);
    Some((p50[1] / p50[0] - 1.0) * 100.0)
}

/// `dgram-64k-sim`: protocol-free datagram load. Every stack is a
/// [`LoadGen`]; there is no probe and no abcast, so correctness is
/// conservation — every datagram sent is received exactly once.
pub fn dgram_rep(
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
    c: &mut Collector,
) -> (Ops, LedgerCounts) {
    let n: u32 = if scale.smoke { 64 } else { 65_536 };
    let cluster_size = (n / 16).max(1);
    let load_for = Dur::millis(5);
    // The backbone takes up to 18 ms plus transmission; drain well past it.
    let drain = Dur::millis(45);
    let mut slices = Slices::of(Dur::millis(15));
    let mem = Mem::start(n);

    let o_setup = tr.begin("rep.setup");
    let t_setup = Instant::now();
    // No datagram may be lost: the benchmark counts every one.
    let backbone = NetConfig { loss: 0.0, ..NetConfig::wan() };
    let mut cfg = SimConfig::clustered(n, seed, cluster_size, NetConfig::datacenter(), backbone);
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    let stop_at = Time::ZERO + load_for;
    let mut gen = None;
    let mut sim = tr.span("sim.new", || {
        Sim::new(cfg, |sc: StackConfig| {
            let node_seed = sc.seed ^ (u64::from(sc.id.0) << 20) ^ 0xA076_1D64_78BD_642F;
            let sc_id = sc.id.0;
            let mut s = Stack::new(sc, FactoryRegistry::new());
            // One stack in 16 keeps its raw latencies (64 x 4 B reserved up
            // front): enough for exact percentiles, too little to show in
            // `bytes_per_stack`.
            let keep = if sc_id.is_multiple_of(16) { 64 } else { 0 };
            let load = LoadGen::new(Dur::millis(5), 8, cluster_size, stop_at, node_seed, keep);
            gen = Some(s.add_module(Box::new(load)));
            s
        })
    });
    let gen = gen.expect("n >= 1");
    // The generators start themselves: building the simulation is all the
    // set-up there is.
    let build_s = t_setup.elapsed().as_secs_f64();
    let built_per_stack = mem.live_per_stack();
    tr.end(o_setup);

    let o_run = tr.begin("rep.run");
    let calls_before = ALLOC.calls();
    let t_run = Instant::now();
    run_to(&mut sim, stop_at, tr, &mut slices);
    run_to(&mut sim, stop_at + drain, tr, &mut slices);
    let run_s = t_run.elapsed().as_secs_f64();
    let live_per_stack = mem.live_per_stack();
    let stats = sim.stats();
    let timed = Timed {
        run_s,
        hot_shard_share: hot_shard_share(&stats),
        stats,
        alloc_calls: ALLOC.calls() - calls_before,
    };
    tr.end(o_run);

    let o_check = tr.begin("rep.check");
    let t_report = Instant::now();
    let report = tr.span("sim.telemetry_report", || sim.telemetry_report());
    let report_s = t_report.elapsed().as_secs_f64();
    let (mut sent, mut received) = (0u64, 0u64);
    let mut latencies: Vec<u64> = Vec::new();
    for id in sim.stack_ids() {
        sim.with_stack(id, |st| {
            st.with_module::<LoadGen, _>(gen, |g| {
                sent += g.sent();
                received += g.received();
                latencies.extend(g.latencies().iter().map(|&l| u64::from(l)));
            })
        })
        .expect("load generator present");
    }
    latencies.sort_unstable();
    let mut correct = true;
    if sent != timed.stats.packets_sent
        || received != timed.stats.packets_delivered
        || received > sent
    {
        eprintln!(
            "datagram conservation broken: modules sent {sent} received {received}, \
             simulator sent {} delivered {}",
            timed.stats.packets_sent, timed.stats.packets_delivered
        );
        correct = false;
    }
    tr.end(o_check);

    c.add("setup_s", build_s);
    c.add("sim.run_s", run_s);
    c.add("sat_msgs_per_s", received as f64 / run_s);
    c.add("delivery_p50_us", quantile_sorted(&latencies, 0.5) as f64 / 1e3);
    let q = supported_quantile(latencies.len(), 0.99);
    c.add("delivery_p99_us", quantile_sorted(&latencies, q) as f64 / 1e3);
    c.add("bytes_per_stack", live_per_stack);
    c.add("core.wire_allocs_per_msg", report.wire.allocations as f64 / sent.max(1) as f64);
    c.add("sim.bytes_per_stack_built", built_per_stack);
    c.add("sim.bytes_per_stack_peak", mem.peak_per_stack());
    sim_layer_metrics(c, &timed, &report, report_s, &slices, build_s);
    if tr.enabled() {
        let load_end = stop_at.as_nanos();
        add_phases(c, phase_seconds(&slices, 0, load_end, &[]));
    }
    let sched = SchedProfile { short: (500, 20_000), long: (5_000_000, 18_500_000), long_pct: 20 };
    let ledger = ledger_counts(&timed, &report, &slices, sched);
    drop((sim, report, timed, slices, latencies));
    correct &= released(&mem, tr);
    (Ops { attempted: sent, failed: sent - received.min(sent), correct }, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrated_rate_follows_the_duty_cycle() {
        let p = Dur::millis(400);
        // One whole period: 100 ms at 200/s + 300 ms at 50/s.
        let one = integrated_rate(50.0, 200.0, p, 0.25, Time::ZERO, Time::ZERO + p);
        assert!((one - 35.0).abs() < 1e-9, "{one}");
        // The window of `switch-1k-sim`, 200 ms..2800 ms: six bursts of
        // 100 ms at 100/s and the remaining 2 s at 25/s.
        let w = integrated_rate(
            25.0,
            100.0,
            p,
            0.25,
            Time::ZERO + Dur::millis(200),
            Time::ZERO + Dur::millis(2800),
        );
        assert!((w - (0.6 * 100.0 + 2.0 * 25.0)).abs() < 1e-9, "{w}");
        // A constant rate integrates to rate x time wherever the window starts.
        let k = integrated_rate(80.0, 80.0, p, 0.25, Time(123), Time(123) + Dur::secs(2));
        assert!((k - 160.0).abs() < 1e-6, "{k}");
    }

    #[test]
    fn phases_partition_the_slices() {
        let ms = 1_000_000;
        let slices = Slices {
            width: Dur::millis(1),
            wall_ns: vec![(0, 10), (ms, 20), (2 * ms, 30), (3 * ms, 40), (4 * ms, 50)],
            queued: vec![],
        };
        let p = phase_seconds(&slices, ms, 4 * ms, &[(2 * ms + 5, 2 * ms + 10)]);
        assert_eq!(p.map(|s| (s * 1e9).round() as u64), [10, 60, 30, 50]);
    }
}
