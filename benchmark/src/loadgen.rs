//! The protocol-free datagram load of `dgram-64k-sim`: a copy of
//! `dpu_bench::synth::LoadGen` (the benchmark depends on the umbrella crate
//! only), with two changes: the generator stops at `stop_at`, so every
//! datagram it sent can be delivered before the run ends and counted, and
//! a node can keep the raw latencies of its first receipts.

use crate::stats::splitmix;
use bytes::Bytes;
use dpu::core::stack::net_ops;
use dpu::core::time::{Dur, Time};
use dpu::core::wire::{self, LenPrefixed};
use dpu::core::{svc, Call, Module, ModuleCtx, Response, ServiceId, StackId, TimerId};

/// Every `period`, fire `burst` datagrams at deterministic pseudo-random
/// peers — 7 in 8 within the sender's own cluster, 1 in 8 anywhere — each
/// carrying its send time; count receipts and stamp their latency into the
/// stack's telemetry.
pub struct LoadGen {
    period: Dur,
    burst: u32,
    cluster_size: u32,
    stop_at: Time,
    rng: u64,
    sent: u64,
    received: u64,
    /// Raw latencies (ns) of the first `capacity` receipts; none are kept
    /// when the capacity is 0.
    latencies: Vec<u32>,
}

impl LoadGen {
    /// `seed` should mix the stack seed and id so streams differ per node;
    /// `keep` is how many raw latencies this node records.
    pub fn new(
        period: Dur,
        burst: u32,
        cluster_size: u32,
        stop_at: Time,
        seed: u64,
        keep: usize,
    ) -> LoadGen {
        let latencies = Vec::with_capacity(keep);
        LoadGen { period, burst, cluster_size, stop_at, rng: seed, sent: 0, received: 0, latencies }
    }

    pub fn latencies(&self) -> &[u32] {
        &self.latencies
    }

    pub fn sent(&self) -> u64 {
        self.sent
    }

    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Module for LoadGen {
    fn kind(&self) -> &str {
        "loadgen"
    }
    fn provides(&self) -> Vec<ServiceId> {
        Vec::new()
    }
    fn requires(&self) -> Vec<ServiceId> {
        vec![ServiceId::new(svc::NET)]
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Stagger the first tick per node so the load is phase-spread.
        let stagger = Dur::nanos(splitmix(&mut self.rng) % self.period.as_nanos().max(1));
        ctx.set_timer(stagger, 1);
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op != net_ops::RECV {
            return;
        }
        self.received += 1;
        if let Ok((_src, payload)) = resp.decode::<(StackId, Bytes)>() {
            if let Ok((send_ns, _pad)) = wire::from_bytes::<(u64, Bytes)>(&payload) {
                let now_ns = ctx.now().as_nanos();
                let latency = now_ns.saturating_sub(send_ns);
                ctx.telemetry().note_delivery(now_ns, latency);
                if self.latencies.len() < self.latencies.capacity() {
                    self.latencies.push(u32::try_from(latency).unwrap_or(u32::MAX));
                }
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        if ctx.now() >= self.stop_at {
            return;
        }
        let n = ctx.peers().len() as u64;
        let me = ctx.stack_id();
        let send_ns = ctx.now().as_nanos();
        for _ in 0..self.burst {
            let r = splitmix(&mut self.rng);
            let dst = if r % 8 < 7 && self.cluster_size > 1 {
                let cluster = me.0 / self.cluster_size;
                let base = u64::from(cluster) * u64::from(self.cluster_size);
                let span = u64::from(self.cluster_size).min(n - base);
                StackId((base + (r >> 3) % span) as u32)
            } else {
                StackId(((r >> 3) % n) as u32)
            };
            if dst != me {
                // One scratch pass for the whole frame: the body (send
                // time + 21 bytes of padding) is nested via `LenPrefixed`.
                let data =
                    ctx.encode(&(dst, LenPrefixed(&(send_ns, Bytes::from_static(&[0x5A; 21])))));
                ctx.call(&ServiceId::new(svc::NET), net_ops::SEND, data);
                self.sent += 1;
            }
        }
        ctx.set_timer(self.period, 1);
    }
}
