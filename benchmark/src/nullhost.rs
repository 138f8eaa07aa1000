//! The null host: the least a host can be. `n` [`StackDriver`]s, one FIFO
//! packet queue and a virtual clock behind [`ActionSink`], driven through
//! `inject` and `poll` only — no scheduler, no network model, no threads,
//! no sockets. What a broadcast costs here is what the stacks themselves
//! cost (`core.nullhost_us_per_msg`, `protocols.*_us_per_msg`), and the
//! amount the live hosts add on top is `*.host_overhead_us_per_msg`.
//!
//! Its number is void unless the run also passes the total-order check,
//! so [`run`] returns `None` on any disagreement.

use crate::trace::Tracer;
use bytes::Bytes;
use dpu::core::host::{ActionSink, HostEvent, StackDriver};
use dpu::core::probe::Probe;
use dpu::core::telemetry::Histogram;
use dpu::core::time::{Dur, Time};
use dpu::core::{ModuleSpec, StackConfig, StackId};
use dpu::protocols::abcast::ops as ab_ops;
use dpu::repl::builder::{build, GroupStackOpts, Handles, SwitchLayer};
use std::collections::VecDeque;
use std::time::Instant;

struct Fifo(VecDeque<(StackId, StackId, Bytes)>);

impl ActionSink for Fifo {
    fn net_send(&mut self, _at: Time, src: StackId, dst: StackId, payload: Bytes) {
        self.0.push_back((src, dst, payload));
    }
}

struct NullHost {
    drivers: Vec<StackDriver>,
    deadlines: Vec<Option<Time>>,
    fifo: Fifo,
    now: Time,
}

impl NullHost {
    fn new(n: u32, opts: &GroupStackOpts) -> (NullHost, Handles) {
        let peers = StackConfig::peer_table(n);
        let mut handles = None;
        let drivers: Vec<StackDriver> = (0..n)
            .map(|i| {
                let sc = StackConfig {
                    id: StackId(i),
                    peers: peers.clone(),
                    seed: 1,
                    trace: false,
                    cluster_size: None,
                    telemetry: Default::default(),
                };
                let built = build(sc, opts);
                handles.get_or_insert(built.handles);
                StackDriver::new(built.stack)
            })
            .collect();
        let host = NullHost {
            deadlines: vec![None; drivers.len()],
            drivers,
            fifo: Fifo(VecDeque::new()),
            now: Time::ZERO,
        };
        (host, handles.expect("n >= 1"))
    }

    fn poll(&mut self, i: usize) {
        self.deadlines[i] = self.drivers[i].poll(self.now, &mut self.fifo).deadline();
    }

    /// Deliver queued packets, first in first out, until none is left.
    fn drain(&mut self) {
        while let Some((src, dst, payload)) = self.fifo.0.pop_front() {
            let i = dst.idx();
            self.drivers[i].inject(HostEvent::Packet { src, payload });
            self.poll(i);
        }
    }

    /// Move the clock forward by `dt`, firing every timer that falls due
    /// on the way, earliest first.
    fn advance(&mut self, dt: Dur) {
        let target = self.now + dt;
        loop {
            self.drain();
            let next = self.deadlines.iter().flatten().min().copied();
            match next {
                Some(at) if at <= target => {
                    self.now = self.now.max(at);
                    for i in 0..self.drivers.len() {
                        if self.deadlines[i].is_some_and(|d| d <= self.now) {
                            self.poll(i);
                        }
                    }
                }
                _ => break,
            }
        }
        self.now = target;
    }

    fn broadcast(&mut self, from: StackId, h: &Handles) {
        let probe = h.probe.expect("probe");
        let top = h.top_service.clone();
        let now = self.now;
        self.drivers[from.idx()].inject(HostEvent::Control(Box::new(move |s| {
            let payload = s
                .with_module::<Probe, _>(probe, |p| p.next_payload(from, now))
                .expect("probe present");
            s.call_as(probe, &top, ab_ops::ABCAST, payload);
        })));
        self.poll(from.idx());
    }

    /// The delivery order at stack `i`.
    fn order(&mut self, i: usize, h: &Handles) -> Vec<(StackId, u64)> {
        let probe = h.probe.expect("probe");
        self.drivers[i]
            .stack_mut()
            .with_module::<Probe, _>(probe, |p| p.delivered().iter().map(|r| r.msg).collect())
            .expect("probe present")
    }

    /// Dispatch-cascade depths recorded so far, over all stacks.
    fn cascades(&self) -> Histogram {
        let mut all = Histogram::new();
        for d in &self.drivers {
            if let Some(state) = d.stack().telemetry().state() {
                all.merge(&state.cascade_depth);
            }
        }
        all
    }
}

pub struct NullHostResult {
    pub us_per_msg: f64,
    /// Stack steps dispatched per broadcast, over all `n` stacks.
    pub steps_per_msg: f64,
}

/// Broadcast `msgs` probes from stack 1 of an `n`-stack group running
/// `abcast` under the replacement layer, one every 200 µs of virtual time,
/// and time the whole. `None` if any stack missed a message or the stacks
/// disagree on the order.
pub fn run(
    tr: &mut Tracer,
    span: &'static str,
    n: u32,
    abcast: ModuleSpec,
    msgs: u64,
) -> Option<NullHostResult> {
    let o = tr.begin(span);
    let opts = GroupStackOpts {
        abcast,
        layer: SwitchLayer::Repl,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let (mut host, h) = NullHost::new(n, &opts);
    for i in 0..host.drivers.len() {
        host.poll(i);
    }
    // Let failure detectors and leaders settle, then warm the paths.
    host.advance(Dur::millis(300));
    let sender = StackId(1 % n);
    let step = Dur::micros(200);
    let warm = (msgs / 10).max(10);
    for _ in 0..warm {
        host.broadcast(sender, &h);
        host.advance(step);
    }
    let steps_of = |h: &Histogram| h.mean() * h.count() as f64;
    let before = steps_of(&host.cascades());
    let t = Instant::now();
    for _ in 0..msgs {
        host.broadcast(sender, &h);
        host.advance(step);
    }
    // Batching variants deliver on a timer: give the tail time to land.
    let total = (warm + msgs) as usize;
    let mut waited = Dur::ZERO;
    while host.order(0, &h).len() < total && waited < Dur::secs(5) {
        host.advance(Dur::millis(1));
        waited += Dur::millis(1);
    }
    let elapsed = t.elapsed();
    let reference = host.order(0, &h);
    let agreed =
        reference.len() == total && (1..host.drivers.len()).all(|i| host.order(i, &h) == reference);
    tr.end(o);
    agreed.then(|| NullHostResult {
        us_per_msg: elapsed.as_secs_f64() * 1e6 / msgs as f64,
        steps_per_msg: (steps_of(&host.cascades()) - before) / msgs as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu::repl::builder::specs;

    #[test]
    fn both_variants_reach_total_order_on_the_null_host() {
        let mut tr = Tracer::new(false);
        for spec in [specs::seq(0), specs::ct(0)] {
            let r = run(&mut tr, "nullhost", 3, spec, 50).expect("total order holds");
            assert!(r.us_per_msg > 0.0);
            assert!(r.steps_per_msg > 3.0, "a broadcast is more than three steps");
        }
    }
}
