//! The two live workloads: the same three sequencer-abcast stacks under a
//! wall clock, on `dpu-runtime` (one shard thread, in-memory mailboxes)
//! and on `dpu-reactor` (one epoll thread, one loopback UDP socket per
//! stack). Inputs are identical, so the pair isolates transport cost.
//!
//! The end-to-end numbers come from **closed loops** kept by a client
//! module on stack 1 ([`LoopClient`]): one broadcast outstanding gives the
//! delivery latency of an unloaded group, 32 outstanding give what the
//! host sustains. The client runs on the host's own thread, so the timed
//! regions contain no cross-thread wake-up — on a small virtual machine
//! those swing with where the hypervisor put the two vCPUs, not with the
//! program.
//!
//! The traced run adds an **open loop** from this thread at a stated
//! rate, each broadcast timed from when it was *due*, as a per-layer
//! diagnostic; it is the one phase that needs a second busy thread.

use crate::alloc::ALLOC;
use crate::stats::{quantile_sorted, supported_quantile, Collector};
use crate::trace::Tracer;
use crate::{Ops, Scale};
use bytes::Bytes;
use dpu::core::probe::{Probe, ProbeMsg};
use dpu::core::telemetry::TelemetryReport;
use dpu::core::time::Time;
use dpu::core::{
    Call, Module, ModuleCtx, ModuleId, Op, Response, ServiceId, Stack, StackConfig, StackId,
};
use dpu::protocols::abcast::ops as ab_ops;
use dpu::reactor::{Reactor, ReactorConfig};
use dpu::repl::abcast_repl::ReplAbcastModule;
use dpu::repl::builder::{build, specs, GroupStackOpts, Handles, SwitchLayer};
use dpu::repl::CHANGE_OP;
use dpu::runtime::{Runtime, RuntimeConfig};
use std::cell::Cell;
use std::time::{Duration, Instant};

const N: u32 = 3;
const SENDER: StackId = StackId(1);
const WINDOW: u64 = 32;
/// How long a phase may wait for its last deliveries.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// The per-layer metric names of one live host.
pub struct HostNames {
    pub ctl_roundtrip_us: &'static str,
    pub cpu_us_per_msg: &'static str,
    pub busy_pct: &'static str,
    pub spawn_ms: &'static str,
    pub shutdown_ms: &'static str,
    pub open_p50_us: &'static str,
    pub open_p99_us: &'static str,
}

/// What the benchmark needs from a live host. `Runtime` and `Reactor`
/// share these signatures but no trait, so the workload is written once
/// against this one.
pub trait LiveHost: Sized {
    const NAMES: HostNames;
    /// Name prefix of the thread(s) that drive the stacks.
    const THREAD: &'static str;
    fn spawn(seed: u64, mk_stack: impl FnMut(StackConfig) -> Stack) -> Self;
    fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R;
    fn now(&self) -> Time;
    fn telemetry_report(&self) -> TelemetryReport;
    fn shutdown(self) -> Vec<Stack>;
}

impl LiveHost for Runtime {
    const NAMES: HostNames = HostNames {
        ctl_roundtrip_us: "runtime.ctl_roundtrip_us",
        cpu_us_per_msg: "runtime.shard_cpu_us_per_msg",
        busy_pct: "runtime.busy_pct",
        spawn_ms: "runtime.spawn_ms",
        shutdown_ms: "runtime.shutdown_ms",
        open_p50_us: "runtime.open_p50_us",
        open_p99_us: "runtime.delivery_p99_us",
    };
    const THREAD: &'static str = "dpu-shard-";
    fn spawn(seed: u64, mk_stack: impl FnMut(StackConfig) -> Stack) -> Runtime {
        let mut cfg = RuntimeConfig::new(N).with_shards(1);
        cfg.seed = seed;
        Runtime::spawn(cfg, mk_stack)
    }
    fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Runtime::with_stack(self, id, f)
    }
    fn now(&self) -> Time {
        Runtime::now(self)
    }
    fn telemetry_report(&self) -> TelemetryReport {
        Runtime::telemetry_report(self)
    }
    fn shutdown(self) -> Vec<Stack> {
        Runtime::shutdown(self)
    }
}

impl LiveHost for Reactor {
    const NAMES: HostNames = HostNames {
        ctl_roundtrip_us: "reactor.ctl_roundtrip_us",
        cpu_us_per_msg: "reactor.loop_cpu_us_per_msg",
        busy_pct: "reactor.busy_pct",
        spawn_ms: "reactor.spawn_ms",
        shutdown_ms: "reactor.shutdown_ms",
        open_p50_us: "reactor.open_p50_us",
        open_p99_us: "reactor.delivery_p99_us",
    };
    const THREAD: &'static str = "dpu-reactor";
    fn spawn(seed: u64, mk_stack: impl FnMut(StackConfig) -> Stack) -> Reactor {
        let mut cfg = ReactorConfig::new(N, (0..N).map(StackId).collect());
        cfg.seed = seed;
        Reactor::spawn(cfg, mk_stack).expect("bind loopback sockets")
    }
    fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Reactor::with_stack(self, id, f)
    }
    fn now(&self) -> Time {
        Reactor::now(self)
    }
    fn telemetry_report(&self) -> TelemetryReport {
        Reactor::telemetry_report(self)
    }
    fn shutdown(self) -> Vec<Stack> {
        Reactor::shutdown(self)
    }
}

/// When the `i`-th of a stream of `rate` per second is due, counted from
/// `start`. Computed from `i`, never from the previous send, so a late
/// send does not push the schedule back.
pub fn due_time(start: Time, i: u64, rate: f64) -> Time {
    Time(start.as_nanos() + (i as f64 * 1e9 / rate) as u64)
}

/// Open loop: call `send(due)` for each of `count` operations as soon as
/// `clock()` reaches its due time, whatever the previous sends took.
/// Returns how late each one started, in ns.
pub fn open_loop(
    mut clock: impl FnMut() -> Time,
    mut send: impl FnMut(Time),
    start: Time,
    rate: f64,
    count: u64,
) -> Vec<u64> {
    let mut late = Vec::with_capacity(count as usize);
    for i in 0..count {
        let due = due_time(start, i, rate);
        let mut now = clock();
        while now < due {
            std::hint::spin_loop();
            now = clock();
        }
        late.push(now.as_nanos() - due.as_nanos());
        send(due);
    }
    late
}

/// CPU time consumed so far by this process's threads named `prefix*`.
fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    let mut total = 0;
    for task in tasks.flatten() {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        if !comm.trim_end().starts_with(prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(path.join("schedstat")).unwrap_or_default();
        total += stat.split_whitespace().next().and_then(|ns| ns.parse::<u64>().ok()).unwrap_or(0);
    }
    total
}

const LOOP_SVC: &str = "bench.loop";
const LOOP_START: Op = 1;
/// The client numbers its broadcasts from here, clear of the probe's own.
const LOOP_SEQ_BASE: u64 = 1 << 40;
const PAD: usize = 32;

/// A closed-loop client: an application module that keeps `window`
/// broadcasts outstanding on the service the probe uses, issuing the next
/// when one of its own comes back, until `count` were issued. Its
/// payloads are [`ProbeMsg`]s, so every stack's probe records them and the
/// order check covers them.
struct LoopClient {
    top: ServiceId,
    next_seq: u64,
    to_issue: u64,
    outstanding: u64,
    started_at: Time,
    done: bool,
}

impl LoopClient {
    /// A client of the broadcast service `top`, idle until started.
    fn new(top: ServiceId) -> LoopClient {
        LoopClient {
            top,
            next_seq: 0,
            to_issue: 0,
            outstanding: 0,
            started_at: Time::ZERO,
            done: false,
        }
    }

    fn issue(&mut self, ctx: &mut ModuleCtx<'_>) {
        let msg = ProbeMsg {
            origin: ctx.stack_id(),
            seq: LOOP_SEQ_BASE + self.next_seq,
            sent_at: ctx.now(),
            pad: Bytes::from(vec![0u8; PAD]),
        };
        let data = ctx.encode(&msg);
        ctx.call(&self.top, ab_ops::ABCAST, data);
        self.next_seq += 1;
        self.to_issue -= 1;
        self.outstanding += 1;
    }
}

impl Module for LoopClient {
    fn kind(&self) -> &str {
        "bench.loop-client"
    }
    fn provides(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(LOOP_SVC)]
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![self.top.clone()]
    }
    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        let Ok((window, count)) = call.decode::<(u64, u64)>() else { return };
        if call.op != LOOP_START || count == 0 {
            return;
        }
        self.started_at = ctx.now();
        self.to_issue = count;
        self.done = false;
        for _ in 0..window.min(count) {
            self.issue(ctx);
        }
    }
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != ab_ops::ADELIVER || resp.service != self.top {
            return;
        }
        let Ok(msg) = resp.decode::<ProbeMsg>() else { return };
        if msg.origin != ctx.stack_id() || msg.seq < LOOP_SEQ_BASE {
            return;
        }
        self.outstanding -= 1;
        if self.to_issue > 0 {
            self.issue(ctx);
        } else if self.outstanding == 0 {
            self.done = true;
        }
    }
}

/// A spawned group: the host, the module handles, and how many broadcasts
/// were issued so far.
struct Group<H: LiveHost> {
    host: H,
    h: Handles,
    client: ModuleId,
    sent: Cell<u64>,
}

impl<H: LiveHost> Group<H> {
    /// Three sequencer-abcast stacks under the replacement layer, probe
    /// pad 32, plus the closed-loop client.
    fn spawn(seed: u64) -> Group<H> {
        let opts = GroupStackOpts {
            abcast: specs::seq(0),
            layer: SwitchLayer::Repl,
            probe_pad: Some(PAD),
            with_gm: false,
            extra_defaults: Vec::new(),
        };
        let mut ids = None;
        let host = H::spawn(seed, |sc| {
            let mut built = build(sc, &opts);
            let top = built.handles.top_service.clone();
            let client = built.stack.add_module(Box::new(LoopClient::new(top)));
            built.stack.bind(&ServiceId::new(LOOP_SVC), client);
            ids.get_or_insert((built.handles, client));
            built.stack
        });
        let (h, client) = ids.expect("N >= 1");
        Group { host, h, client, sent: Cell::new(0) }
    }

    /// Broadcast one probe from [`SENDER`], stamped `at`.
    fn send(&self, at: Time) {
        let probe = self.h.probe.expect("probe");
        let top = self.h.top_service.clone();
        self.host.with_stack(SENDER, move |s| {
            let payload =
                s.with_module::<Probe, _>(probe, |p| p.next_payload(SENDER, at)).expect("probe");
            s.call_as(probe, &top, ab_ops::ABCAST, payload);
        });
        self.sent.set(self.sent.get() + 1);
    }

    /// Run one closed loop of `count` broadcasts at `window` on the
    /// client of [`SENDER`] and wait for every stack to deliver them.
    /// Returns when it started and when the last stack delivered the last
    /// one (host clock), or `None` at the drain deadline.
    fn closed_loop(&self, window: u64, count: u64, tr: &mut Tracer) -> Option<(Time, Time)> {
        let probe = self.h.probe.expect("probe");
        let client = self.client;
        let o = tr.begin("host.with_stack.inject");
        self.host.with_stack(SENDER, move |s| {
            let data = s.encode(&(window, count));
            s.call_as(probe, &ServiceId::new(LOOP_SVC), LOOP_START, data);
        });
        tr.end(o);
        self.sent.set(self.sent.get() + count);
        // Sleep between polls, and poll rarely: every poll interrupts the
        // host thread, which should have the machine to itself. The end of
        // the loop is read from the delivery records, not from the polling.
        let limit = Instant::now() + DRAIN_LIMIT;
        let o = tr.begin("host.with_stack.poll");
        let mut started = None;
        while started.is_none() && Instant::now() < limit {
            std::thread::sleep(Duration::from_millis(2));
            started = self.host.with_stack(SENDER, move |s| {
                s.with_module::<LoopClient, _>(client, |c| c.done.then_some(c.started_at))
                    .expect("client")
            });
        }
        tr.end(o);
        if !self.drain(tr) {
            return None;
        }
        let last = (0..N)
            .map(|node| self.probe_at(node, |p| p.delivered().last().map(|r| r.delivered_at)))
            .max()??;
        Some((started?, last))
    }

    /// Run `f` against the probe of stack `node`, on the host thread.
    fn probe_at<R: Send + 'static>(
        &self,
        node: u32,
        f: impl FnOnce(&mut Probe) -> R + Send + 'static,
    ) -> R {
        let probe = self.h.probe.expect("probe");
        self.host
            .with_stack(StackId(node), move |s| s.with_module(probe, f).expect("probe present"))
    }

    /// `(deliveries, FNV-1a digest of the delivery order)` at `node`.
    fn order(&self, node: u32) -> (u64, u64) {
        self.probe_at(node, |p| {
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            for r in p.delivered() {
                for word in [u64::from(r.msg.0 .0), r.msg.1] {
                    digest = (digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            (p.delivered().len() as u64, digest)
        })
    }

    fn delivered(&self, node: u32) -> u64 {
        self.probe_at(node, |p| p.delivered().len() as u64)
    }

    /// Wait until every stack delivered everything sent so far. `false`
    /// if the drain deadline passes first.
    fn drain(&self, tr: &mut Tracer) -> bool {
        let o = tr.begin("host.with_stack.poll");
        let limit = Instant::now() + DRAIN_LIMIT;
        let mut done = false;
        while !done && Instant::now() < limit {
            done = (0..N).all(|node| self.delivered(node) >= self.sent.get());
            if !done {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        tr.end(o);
        done
    }

    /// Broadcasts missing somewhere, and whether every stack delivered
    /// the same sequence.
    fn verdict(&self) -> (u64, bool) {
        let orders: Vec<(u64, u64)> = (0..N).map(|node| self.order(node)).collect();
        let least = orders.iter().map(|o| o.0).min().unwrap_or(0);
        (self.sent.get().saturating_sub(least), orders.iter().all(|o| *o == orders[0]))
    }

    /// Sorted latencies (ns) of the deliveries after the first `skip` of
    /// every stack.
    fn latencies(&self, skip: u64) -> Vec<u64> {
        let mut all = Vec::new();
        for node in 0..N {
            all.extend(self.probe_at(node, move |p| {
                let new = &p.delivered()[skip as usize..];
                new.iter().map(|r| r.latency().as_nanos()).collect::<Vec<_>>()
            }));
        }
        all.sort_unstable();
        all
    }
}

/// The traced run's extras: idle control round trips, then an open loop
/// from this thread at `rate`, each broadcast timed from its due time.
fn open_loop_diagnostics<H: LiveHost>(
    g: &Group<H>,
    scale: &Scale,
    tr: &mut Tracer,
    c: &mut Collector,
) -> bool {
    let o = tr.begin("host.with_stack.idle");
    let mut trips: Vec<u64> = (0..1000)
        .map(|_| {
            let t = Instant::now();
            g.host.with_stack(SENDER, |_| ());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    trips.sort_unstable();
    c.add(H::NAMES.ctl_roundtrip_us, quantile_sorted(&trips, 0.5) as f64 / 1e3);
    tr.end(o);

    let o = tr.begin("rep.open_loop");
    let (rate, seconds) = if scale.smoke { (2000.0, 0.1) } else { (2000.0, 0.5) };
    let skip = g.sent.get();
    let inject = |due| {
        let o = tr.begin("host.with_stack.inject");
        g.send(due);
        tr.end(o);
    };
    let count = (rate * seconds) as u64;
    let mut late = open_loop(|| g.host.now(), inject, g.host.now(), rate, count);
    let drained = g.drain(tr);
    let lat = g.latencies(skip);
    late.sort_unstable();
    tr.end(o);
    c.add(H::NAMES.open_p50_us, quantile_sorted(&lat, 0.5) as f64 / 1e3);
    let q = supported_quantile(lat.len(), 0.99);
    c.add(H::NAMES.open_p99_us, quantile_sorted(&lat, q) as f64 / 1e3);
    let q = supported_quantile(late.len(), 0.99);
    c.add("harness.generator_late_p99_us", quantile_sorted(&late, q) as f64 / 1e3);
    drained
}

/// One repetition on host `H`: spawn, warm up, a closed loop of one, a
/// closed loop of [`WINDOW`], check, shut down.
pub fn rep<H: LiveHost>(seed: u64, scale: &Scale, tr: &mut Tracer, c: &mut Collector) -> Ops {
    let (warm, unloaded, saturating) =
        if scale.smoke { (50, 200, 2_000) } else { (300, 3_000, 20_000) };
    let live_before = ALLOC.live();

    let o_setup = tr.begin("rep.setup");
    let t_setup = Instant::now();
    let g: Group<H> = tr.span("host.spawn", || Group::spawn(seed));
    c.add(H::NAMES.spawn_ms, t_setup.elapsed().as_secs_f64() * 1e3);
    let mut drained = g.closed_loop(8, warm, tr).is_some();
    c.add("setup_s", t_setup.elapsed().as_secs_f64());
    tr.end(o_setup);

    if tr.enabled() {
        drained &= open_loop_diagnostics(&g, scale, tr, c);
    }

    // One outstanding: what a broadcast takes when nothing queues.
    let o = tr.begin("rep.closed_loop_1");
    let skip = g.sent.get();
    drained &= g.closed_loop(1, unloaded, tr).is_some();
    let lat = g.latencies(skip);
    tr.end(o);
    c.add("delivery_p50_us", quantile_sorted(&lat, 0.5) as f64 / 1e3);
    let q = supported_quantile(unloaded as usize, 0.99);
    c.add("delivery_p99_us", quantile_sorted(&lat, q) as f64 / 1e3);

    // A full window: what the host sustains.
    let o = tr.begin("rep.closed_loop_32");
    let cpu_before = thread_cpu_ns(H::THREAD);
    let span = g.closed_loop(WINDOW, saturating, tr);
    let cpu_s = (thread_cpu_ns(H::THREAD) - cpu_before) as f64 / 1e9;
    let live_per_stack = ALLOC.live().saturating_sub(live_before) as f64 / f64::from(N);
    tr.end(o);
    drained &= span.is_some();
    if let Some((start, end)) = span {
        let run_s = end.since(start).as_secs_f64();
        c.add("sat_msgs_per_s", saturating as f64 / run_s);
        c.add(H::NAMES.cpu_us_per_msg, cpu_s * 1e6 / saturating as f64);
        // The CPU reading brackets the polling too, so it can exceed the loop itself.
        c.add(H::NAMES.busy_pct, (cpu_s / run_s * 100.0).min(100.0));
    }
    c.add("bytes_per_stack", live_per_stack);

    let o_check = tr.begin("rep.check");
    let (missing, same_order) = g.verdict();
    let report = tr.span("host.telemetry_report", || g.host.telemetry_report());
    c.add("core.wire_allocs_per_msg", report.wire.allocations as f64 / g.sent.get() as f64);
    c.add("core.cascade_depth_p99", report.cascade_depth.p99 as f64);
    c.add("net.retransmissions", report.transport.retransmissions as f64);
    c.add("net.exhausted", report.transport.exhausted as f64);
    c.add("net.reseq_depth_p99", report.reseq_depth.p99 as f64);
    c.add("telemetry.flight_dropped", report.flight_dropped as f64);
    if let Some(sock) = report.sockets {
        let drops =
            sock.packets_dropped + sock.send_errors + sock.malformed_dropped + sock.misdirected;
        c.add("reactor.socket_drops", drops as f64);
    }
    tr.end(o_check);
    let sent = g.sent.get();
    let t_down = Instant::now();
    let stacks = tr.span("host.shutdown", || g.host.shutdown());
    c.add(H::NAMES.shutdown_ms, t_down.elapsed().as_secs_f64() * 1e3);
    drop(stacks);
    if !same_order {
        eprintln!("stacks delivered different sequences");
    }
    if !drained {
        eprintln!("{missing} broadcasts undelivered at the drain deadline");
    }
    Ops { attempted: sent, failed: missing, correct: same_order }
}

/// Once per run: live replacements of the sequencer by a fresh sequencer,
/// one every 100 ms, under 1000 msg/s of open-loop load from this thread.
pub fn switches<H: LiveHost>(seed: u64, scale: &Scale, tr: &mut Tracer, c: &mut Collector) -> Ops {
    let (count, rate, gap_s) =
        if scale.smoke { (3u64, 1000.0, 0.06) } else { (10u64, 1000.0, 0.1) };
    let o = tr.begin("rep.live_switches");
    let g: Group<H> = tr.span("host.spawn", || Group::spawn(seed));
    let total = (rate * gap_s * (count + 1) as f64) as u64;
    let per_gap = total / (count + 1);
    let mut requested = 0u64;
    let inject = |due| {
        let i = g.sent.get();
        if i > 0 && i.is_multiple_of(per_gap) && requested < count {
            requested += 1;
            let o = tr.begin("builder.request_change");
            let probe = g.h.probe.expect("probe");
            let top = g.h.top_service.clone();
            let data = dpu::core::wire::to_bytes(&specs::seq(requested));
            let who = StackId((requested % u64::from(N)) as u32);
            g.host.with_stack(who, move |s| s.call_as(probe, &top, CHANGE_OP, data));
            tr.end(o);
        }
        g.send(due);
    };
    open_loop(|| g.host.now(), inject, g.host.now(), rate, total);
    let drained = g.drain(tr);
    let (missing, same_order) = g.verdict();
    let layer = g.h.layer.expect("replacement layer");
    let applied: Vec<u64> = (0..N)
        .map(|node| {
            g.host.with_stack(StackId(node), move |s| {
                s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).expect("layer")
            })
        })
        .collect();
    let report = g.host.telemetry_report();
    let switched =
        applied.iter().all(|&sn| sn == count) && report.switches.completed == count * u64::from(N);
    c.add("repl.switches_completed", report.switches.completed as f64 / f64::from(N));
    c.add("repl.blackout_p50_us", report.switches.blackout_ns.p50 as f64 / 1e3);
    c.add("repl.blackout_p99_us", report.switches.blackout_ns.p99 as f64 / 1e3);
    c.add("repl.swap_gap_p99_us", report.switches.swap_gap_ns.p99 as f64 / 1e3);
    let sent = g.sent.get();
    drop(g.host.shutdown());
    tr.end(o);
    if !switched {
        eprintln!(
            "live replacements: applied {applied:?}, telemetry completed {} of {}",
            report.switches.completed,
            count * u64::from(N)
        );
    }
    if !drained {
        eprintln!("{missing} broadcasts undelivered after the live replacements");
    }
    let unswitched = applied.iter().map(|&sn| count.saturating_sub(sn)).max().unwrap_or(count);
    Ops { attempted: sent + count, failed: missing + unswitched, correct: same_order && switched }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_previous_send() {
        let start = Time(1_000);
        assert_eq!(due_time(start, 0, 2000.0), Time(1_000));
        assert_eq!(due_time(start, 1, 2000.0), Time(501_000));
        assert_eq!(due_time(start, 4000, 2000.0), Time(2_000_001_000));
    }

    #[test]
    fn open_loop_stamps_due_time_and_reports_lateness() {
        // A clock that jumps 300 us per reading: at 10 000/s (one due every
        // 100 us) the generator falls behind from the second send on.
        let mut t = 0u64;
        let clock = move || {
            t += 300_000;
            Time(t)
        };
        let mut stamps = Vec::new();
        let late = open_loop(clock, |due| stamps.push(due), Time(300_000), 10_000.0, 4);
        // Stamps are the schedule, untouched by the stall...
        assert_eq!(stamps, vec![Time(300_000), Time(400_000), Time(500_000), Time(600_000)]);
        // ...and the stall shows as lateness instead of vanishing.
        assert_eq!(late, vec![0, 200_000, 400_000, 600_000]);
    }

    #[test]
    fn open_loop_waits_for_an_early_clock() {
        let mut t = 0u64;
        let mut reads = 0;
        let clock = || {
            reads += 1;
            t += 10;
            Time(t)
        };
        let late = open_loop(clock, |_| (), Time(100), 1e9, 1);
        assert_eq!(late, vec![0]);
        assert!(reads >= 10, "spun until the due time");
    }
}
