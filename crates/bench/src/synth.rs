//! [`LoadGen`], the timer-driven datagram soak module of the capacity
//! baseline (`BENCH_scale.json`) and of the tests that build the same
//! soak (`capacity_smoke`, `million_smoke`, `churn_capacity*`,
//! `par_soak`).

use bytes::Bytes;
use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
use dpu_core::time::Dur;
use dpu_core::wire::{self, LenPrefixed};
use dpu_core::{Call, Module, Response, ServiceId, Stack, StackConfig, StackId, TimerId};
use dpu_sim::{CpuConfig, NetConfig, Sim, SimConfig};

/// splitmix64 step: the soak's deterministic RNG.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A timer-driven datagram load module for the parallel-engine soak:
/// every `period`, each node fires `burst` datagrams at deterministic
/// pseudo-random peers — mostly within its own cluster, occasionally
/// across the backbone — and stamps the latency of what it receives.
/// Being timer-driven, the load needs no barrier actions at all, so it
/// measures the parallel engine's epoch machinery and nothing else; and
/// being uniform over nodes, the per-cluster work is balanced (the
/// achievable-speedup ceiling is the worker count, not a hot sequencer).
pub struct LoadGen {
    period: Dur,
    burst: u32,
    cluster_size: u32,
    rng: u64,
}

impl LoadGen {
    /// One node's generator; `seed` should mix the stack seed and id so
    /// streams differ per node.
    pub fn new(period: Dur, burst: u32, cluster_size: u32, seed: u64) -> LoadGen {
        LoadGen { period, burst, cluster_size, rng: seed }
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
        vec![ServiceId::new(dpu_core::svc::NET)]
    }
    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        // Stagger the first tick per node so the load is phase-spread.
        let stagger = Dur::nanos(splitmix(&mut self.rng) % self.period.as_nanos().max(1));
        ctx.set_timer(stagger, 1);
    }
    fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if resp.op == net_ops::RECV {
            // The payload carries its send time (virtual-clock ns):
            // stamp the end-to-end delivery latency (into the shard's
            // lent histogram — the capacity runs are instrumented too).
            if let Ok((_src, payload)) = resp.decode::<(StackId, Bytes)>() {
                if let Ok((send_ns, _pad)) = wire::from_bytes::<(u64, Bytes)>(&payload) {
                    let now_ns = ctx.now().as_nanos();
                    ctx.telemetry().note_delivery(now_ns, now_ns.saturating_sub(send_ns));
                }
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
        let n = ctx.peers().len() as u64;
        let me = ctx.stack_id();
        let send_ns = ctx.now().as_nanos();
        for _ in 0..self.burst {
            let r = splitmix(&mut self.rng);
            // 7/8 of the traffic stays on the local fabric, 1/8 crosses
            // the backbone — a cache-friendly datacenter mix.
            let dst = if r % 8 < 7 && self.cluster_size > 1 {
                let cluster = me.0 / self.cluster_size;
                let base = u64::from(cluster) * u64::from(self.cluster_size);
                let span = u64::from(self.cluster_size).min(n - base);
                StackId((base + (r >> 3) % span) as u32)
            } else {
                StackId(((r >> 3) % n) as u32)
            };
            if dst != me {
                // Scratch-pool encode (PR 3): the soak must charge the
                // epoch machinery, not one fresh allocation per datagram.
                // The datagram body is a send-time stamp plus padding,
                // nested via `LenPrefixed` so the whole frame is written
                // in one scratch pass (no per-datagram payload alloc);
                // the receiver stamps delivery latency from it.
                let data =
                    ctx.encode(&(dst, LenPrefixed(&(send_ns, Bytes::from_static(&[0x5A; 21])))));
                ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data);
            }
        }
        ctx.set_timer(self.period, 1);
    }
}

/// The datagram-soak simulation: `n` [`LoadGen`] stacks in 16
/// datacenter clusters joined by a WAN backbone (15 ms of lookahead),
/// `workers` worker threads. The capacity scenario of
/// `BENCH_scale.json`: instrumented like every other run, so its
/// bytes/stack budget includes telemetry (48 B/stack at rest, the
/// histograms live in the 16 shards).
pub fn datagram_soak_sim(n: u32, seed: u64, workers: usize) -> Sim {
    let cluster_size = (n / 16).max(1);
    let mut cfg =
        SimConfig::clustered(n, seed, cluster_size, NetConfig::datacenter(), NetConfig::wan());
    cfg.trace = false;
    cfg.cpu = CpuConfig::fast();
    cfg.workers = workers;
    Sim::new(cfg, move |sc: StackConfig| {
        let node_seed = sc.seed ^ (u64::from(sc.id.0) << 20) ^ 0xA076_1D64_78BD_642F;
        let mut s = Stack::new(sc, FactoryRegistry::new());
        s.add_module(Box::new(LoadGen::new(Dur::millis(5), 8, cluster_size, node_seed)));
        s
    })
}
