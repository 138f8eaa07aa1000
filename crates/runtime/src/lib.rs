//! # dpu-runtime — a sharded event-loop host for DPU stacks
//!
//! Runs the same [`Stack`]s as the deterministic simulator, but for real:
//! a small, fixed pool of *shard* threads multiplexes any number of
//! stacks under the wall clock, with crossbeam channels as the
//! (in-process) network. This is the scaling host of the workspace —
//! thousands of stacks per process on a handful of threads — and it
//! demonstrates that protocol modules are host-agnostic: every stack is
//! driven exclusively through the unified host API of
//! [`dpu_core::host`].
//!
//! ```no_run
//! use dpu_core::{Stack, StackConfig, FactoryRegistry};
//! use dpu_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::spawn(RuntimeConfig::new(256).with_shards(4), |sc| {
//!     Stack::new(sc, FactoryRegistry::new())
//! });
//! // interact via rt.with_stack(...), then:
//! rt.shutdown();
//! ```
//!
//! # LiveShard + mailbox transport
//!
//! The `n` stacks are assigned round-robin to [`RuntimeConfig::shards`]
//! worker threads. Each thread owns one [`LiveShard`] — drivers, pools,
//! the loan, wake deadlines, the report fold: everything this host
//! shares with `dpu-reactor` — and adds only the transport:
//!
//! * one **mailbox** (an unbounded crossbeam channel) carrying packet
//!   deliveries, control requests and shutdown;
//! * a `Router`, the [`ActionSink`] that applies the loss model and
//!   posts each packet to the destination shard's mailbox.
//!
//! The shard loop is: [`LiveShard::fire_due`] → block on the mailbox
//! until the next wake deadline, handing each packet to
//! [`LiveShard::deliver`] as it is taken off the mailbox — what
//! `dpu-reactor` does with each datagram it reads off a socket.
//!
//! Control requests ([`Runtime::with_stack`], the reports) route to the
//! owning shard as [`Ctl`] closures and run between events.
//!
//! Since real threads race, runs are *not* reproducible — use `dpu-sim`
//! for experiments, this runtime for live demos and soak tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dpu_core::host::{ActionSink, Ctl, Host, LiveShard, LossModel, ShardPort, WallClock};
use dpu_core::telemetry::{SocketCounters, TelemetryReport};
use dpu_core::time::Time;
use dpu_core::{Stack, StackConfig, StackId, TelemetryConfig};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Configuration of the sharded runtime.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of stacks.
    pub n: u32,
    /// Number of shard (worker) threads multiplexing the stacks.
    /// `0` (the default) picks `min(n, available_parallelism)`; an
    /// explicit count is capped to `n` (a shard with no stacks would
    /// just idle).
    pub shards: u32,
    /// Seed mixed into each stack's deterministic RNG stream.
    pub seed: u64,
    /// Probability of dropping an in-flight packet (fault injection for
    /// soak tests; uses an internal xorshift generator).
    pub loss: f64,
}

impl RuntimeConfig {
    /// `n` stacks with no fault injection, shard count picked
    /// automatically.
    pub fn new(n: u32) -> RuntimeConfig {
        RuntimeConfig { n, shards: 0, seed: 0, loss: 0.0 }
    }

    /// Set the shard-thread count (builder style). Capped to `n` at
    /// spawn time; see [`RuntimeConfig::shards`].
    pub fn with_shards(mut self, shards: u32) -> RuntimeConfig {
        self.shards = shards;
        self
    }

    fn effective_shards(&self) -> u32 {
        let auto = || {
            let cores =
                std::thread::available_parallelism().map(|p| p.get() as u32).unwrap_or(4).max(1);
            self.n.clamp(1, cores)
        };
        match self.shards {
            0 => auto(),
            s => s.min(self.n.max(1)),
        }
    }
}

enum ShardMsg {
    /// Deliver `payload` from `src` to `dst` (the sender already applied
    /// the loss model).
    Deliver { dst: StackId, src: StackId, payload: Bytes },
    /// Run a control closure against the shard.
    Ctl(Ctl<Router>),
    /// Stop the shard and return its stacks.
    Stop,
}

/// The sending half of the in-process network: executes a driver's
/// `NetSend`s by routing each packet to the destination stack's shard.
struct Router {
    shard_of: Arc<Vec<u32>>,
    mailboxes: Vec<Sender<ShardMsg>>,
    /// This shard's share of [`Runtime::stats`].
    stats: SocketCounters,
    loss: LossModel,
}

impl ActionSink for Router {
    fn net_send(&mut self, _at: Time, src: StackId, dst: StackId, payload: Bytes) {
        self.stats.packets_sent += 1;
        if self.loss.drops() {
            self.stats.packets_dropped += 1;
            return;
        }
        let Some(&shard) = self.shard_of.get(dst.idx()) else {
            self.stats.unroutable += 1;
            return;
        };
        // Ignore send errors: the destination shard may have shut down.
        let _ = self.mailboxes[shard as usize].send(ShardMsg::Deliver { dst, src, payload });
    }
}

/// One worker thread: a [`LiveShard`] over the mailbox transport.
struct Shard {
    core: LiveShard,
    router: Router,
    mailbox: Receiver<ShardMsg>,
}

/// Upper bound on mailbox messages handled between deadline checks, so
/// a flood of packets cannot starve due timers.
const DRAIN_BATCH: usize = 128;

impl Shard {
    fn run(mut self) -> Vec<(StackId, Stack)> {
        loop {
            self.core.fire_due(self.core.now(), &mut self.router);
            // Park on the mailbox until the earliest deadline — or
            // indefinitely when there is none, so an idle shard burns no
            // CPU. Every other wakeup arrives as a mailbox message, and
            // shutdown never relies on a timeout: [`Runtime::shutdown`]
            // and [`Runtime`]'s `Drop` both post an explicit `Stop` to
            // every mailbox.
            let msg = match self.core.next_deadline() {
                Some(at) => match self.mailbox.recv_timeout(at.since(self.core.now()).to_std()) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                },
                None => match self.mailbox.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
            };
            if !self.handle(msg) {
                break;
            }
            for _ in 0..DRAIN_BATCH {
                match self.mailbox.try_recv() {
                    Ok(msg) => {
                        if !self.handle(msg) {
                            return self.core.into_stacks();
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        self.core.into_stacks()
    }

    /// Returns `false` on `Stop`.
    fn handle(&mut self, msg: ShardMsg) -> bool {
        match msg {
            ShardMsg::Deliver { dst, src, payload } => {
                if let Some(local) = self.core.local_of(dst) {
                    self.core.deliver(local, src, payload, &mut self.router);
                }
            }
            ShardMsg::Ctl(ctl) => ctl.run(&mut self.core, &mut self.router),
            ShardMsg::Stop => return false,
        }
        true
    }
}

/// The handle's sending side: one mailbox per shard thread.
struct Mailboxes(Vec<Sender<ShardMsg>>);

impl Mailboxes {
    fn stop_all(&self) {
        for mb in &self.0 {
            let _ = mb.send(ShardMsg::Stop);
        }
    }
}

impl ShardPort for Mailboxes {
    type Transport = Router;

    fn shards(&self) -> usize {
        self.0.len()
    }

    fn post(&self, shard: usize, ctl: Ctl<Router>) {
        self.0[shard].send(ShardMsg::Ctl(ctl)).expect("shard thread alive");
    }
}

/// The sharded runtime. See crate docs.
///
/// `with_stack`, `stats`, `telemetry_report` and `dump_flight_recorders`
/// ask the shard threads and block for the answer, so they must be
/// called from *outside* those threads: a call issued from code already
/// running on a shard (e.g. inside another `with_stack` closure) would
/// wait on the very thread that is executing it — a self-deadlock.
pub struct Runtime {
    mailboxes: Mailboxes,
    shard_of: Arc<Vec<u32>>,
    threads: Vec<JoinHandle<Vec<(StackId, Stack)>>>,
    clock: WallClock,
}

impl Runtime {
    /// Spawn `cfg.n` stacks multiplexed over `cfg.shards` worker
    /// threads. `mk_stack` builds each stack from its [`StackConfig`]
    /// (called on the spawning thread, in stack-id order).
    pub fn spawn(cfg: RuntimeConfig, mut mk_stack: impl FnMut(StackConfig) -> Stack) -> Runtime {
        let clock = WallClock::start();
        let shards = cfg.effective_shards() as usize;
        // Round-robin assignment: shard s owns stacks s, s+k, s+2k, ...
        let shard_of: Arc<Vec<u32>> =
            Arc::new((0..cfg.n).map(|i| i % shards as u32).collect::<Vec<_>>());
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| unbounded::<ShardMsg>()).unzip();
        let mut by_shard: Vec<Vec<Stack>> = (0..shards).map(|_| Vec::new()).collect();
        let peer_table = StackConfig::peer_table(cfg.n);
        for i in 0..cfg.n {
            let sc = StackConfig {
                id: StackId(i),
                peers: Arc::clone(&peer_table),
                seed: cfg.seed,
                trace: false,
                // The live runtime has no topology model: one flat
                // cluster, which locality-aware protocols degenerate to.
                cluster_size: None,
                telemetry: TelemetryConfig::default(),
            };
            by_shard[shard_of[i as usize] as usize].push(mk_stack(sc));
        }
        let threads = by_shard
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(s, (stacks, mailbox))| {
                let shard = Shard {
                    core: LiveShard::new(clock, stacks),
                    router: Router {
                        shard_of: Arc::clone(&shard_of),
                        mailboxes: txs.clone(),
                        stats: SocketCounters::default(),
                        loss: LossModel::new(cfg.loss, cfg.seed, s as u64),
                    },
                    mailbox,
                };
                std::thread::Builder::new()
                    .name(format!("dpu-shard-{s}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard thread")
            })
            .collect();
        Runtime { mailboxes: Mailboxes(txs), shard_of, threads, clock }
    }

    /// Number of stacks.
    pub fn n(&self) -> u32 {
        self.shard_of.len() as u32
    }

    /// Number of shard threads.
    pub fn shards(&self) -> u32 {
        self.mailboxes.shards() as u32
    }

    /// Wall-clock time since the runtime started, as virtual [`Time`].
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// Aggregate counters of the in-process network (the send-side
    /// fields of [`SocketCounters`]; there are no sockets to err or
    /// receive junk). Each shard's share is snapshotted on its own
    /// thread, so `packets_dropped + unroutable <= packets_sent` always
    /// holds.
    pub fn stats(&self) -> SocketCounters {
        let mut total = SocketCounters::default();
        for shard in 0..self.mailboxes.shards() {
            total.absorb(self.mailboxes.on_shard(shard, |_, router| router.stats));
        }
        total
    }

    /// Unified telemetry snapshot across every stack: delivery-latency /
    /// cascade-depth / scratch-occupancy / reseq-depth histograms, the
    /// switch-phase timeline, and wire + transport counter families
    /// (`sockets` stays `None`: this host has none). Shape-identical to
    /// `Sim::telemetry_report` and `Reactor::telemetry_report`; one
    /// control round-trip per shard.
    pub fn telemetry_report(&self) -> TelemetryReport {
        self.mailboxes.fold_report().report("runtime", self.now().as_nanos(), None)
    }

    /// Dump the flight recorders, shard by shard: every stack's
    /// lifecycle events, then the shard's most recent deliveries (oldest
    /// first, with drop counts) — the postmortem a failing soak prints.
    pub fn dump_flight_recorders(&self) -> String {
        self.mailboxes.dump_flight()
    }

    /// Run a closure against the stack of node `id` (on its owning
    /// shard) and return the result. Blocks until the shard services the
    /// request. Panics if `id` is not one of the runtime's stacks.
    pub fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        // An id outside the group has no shard; any shard will report it
        // as not hosted.
        let shard = self.shard_of.get(id.idx()).map_or(0, |&s| s as usize);
        self.mailboxes.on_stack(shard, id, f)
    }

    /// Stop all shard threads and return the final stacks in id order
    /// (for post-hoc trace inspection).
    pub fn shutdown(mut self) -> Vec<Stack> {
        self.mailboxes.stop_all();
        let mut stacks: Vec<(StackId, Stack)> = std::mem::take(&mut self.threads)
            .into_iter()
            .flat_map(|t| t.join().expect("shard thread"))
            .collect();
        stacks.sort_by_key(|(id, _)| *id);
        stacks.into_iter().map(|(_, s)| s).collect()
    }
}

impl Host for &Runtime {
    fn now(&self) -> Time {
        Runtime::now(self)
    }
    fn with_stack<R: Send + 'static>(
        &mut self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Runtime::with_stack(self, id, f)
    }
    fn telemetry_report(&self) -> TelemetryReport {
        Runtime::telemetry_report(self)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Every shard's Router holds senders to every mailbox, so shards
        // never observe disconnection on their own; stop them explicitly
        // so dropping a Runtime without `shutdown()` (e.g. on a test
        // panic) does not leak the shard threads. After `shutdown()` the
        // receivers are gone and these sends are ignored errors.
        self.mailboxes.stop_all();
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::stack::{net_ops, FactoryRegistry, ModuleCtx};
    use dpu_core::time::Dur;
    use dpu_core::wire::Encode;
    use dpu_core::{Call, Module, Response, ServiceId, TimerId};
    use std::time::{Duration, Instant};

    /// Counts datagrams; replies "pong" to any "ping".
    struct PingPong {
        got: Vec<(StackId, Bytes)>,
    }

    impl Module for PingPong {
        fn kind(&self) -> &str {
            "pingpong"
        }
        fn provides(&self) -> Vec<ServiceId> {
            Vec::new()
        }
        fn requires(&self) -> Vec<ServiceId> {
            vec![ServiceId::new(dpu_core::svc::NET)]
        }
        fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
        fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
            if resp.op != net_ops::RECV {
                return;
            }
            let (src, data): (StackId, Bytes) = resp.decode().unwrap();
            if data.as_ref() == b"ping" {
                let reply = (src, Bytes::from_static(b"pong")).to_bytes();
                ctx.call(&ServiceId::new(dpu_core::svc::NET), net_ops::SEND, reply);
            }
            self.got.push((src, data));
        }
    }

    /// In every test stack here: net bridge is module 1, the test module
    /// is module 2.
    const PP: dpu_core::ModuleId = dpu_core::ModuleId(2);
    const BEAT: dpu_core::ModuleId = dpu_core::ModuleId(2);

    fn mk(sc: StackConfig) -> Stack {
        let mut s = Stack::new(sc, FactoryRegistry::new());
        s.add_module(Box::new(PingPong { got: vec![] }));
        s
    }

    #[test]
    fn ping_pong_roundtrip_between_shards() {
        let rt = Runtime::spawn(RuntimeConfig::new(2).with_shards(2), mk);
        assert_eq!(rt.shards(), 2);
        let data = (StackId(1), Bytes::from_static(b"ping")).to_bytes();
        rt.with_stack(StackId(0), move |s| {
            s.call_as(PP, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
        });
        // Wait for the exchange with a bounded poll.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = rt.with_stack(StackId(0), |s| {
                s.with_module::<PingPong, _>(PP, |p| p.got.clone()).unwrap()
            });
            if got.iter().any(|(src, d)| *src == StackId(1) && d.as_ref() == b"pong") {
                break;
            }
            assert!(Instant::now() < deadline, "no pong within 5s");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(rt.stats().packets_sent >= 2);
        rt.shutdown();
    }

    #[test]
    fn many_stacks_multiplex_on_two_shards() {
        let n = 32u32;
        let rt = Runtime::spawn(RuntimeConfig::new(n).with_shards(2), mk);
        assert_eq!(rt.shards(), 2);
        // Every stack pings its successor; every stack must see a pong.
        for i in 0..n {
            let data = (StackId((i + 1) % n), Bytes::from_static(b"ping")).to_bytes();
            rt.with_stack(StackId(i), move |s| {
                s.call_as(PP, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let done = (0..n).all(|i| {
                rt.with_stack(StackId(i), |s| {
                    s.with_module::<PingPong, _>(PP, |p| {
                        p.got.iter().any(|(_, d)| d.as_ref() == b"pong")
                    })
                    .unwrap()
                })
            });
            if done {
                break;
            }
            assert!(Instant::now() < deadline, "32-stack ping ring incomplete after 10s");
            std::thread::sleep(Duration::from_millis(10));
        }
        let stacks = rt.shutdown();
        assert_eq!(stacks.len(), n as usize);
    }

    #[test]
    fn timers_fire_in_real_time() {
        struct TimerBeat {
            beats: u32,
        }
        impl Module for TimerBeat {
            fn kind(&self) -> &str {
                "beat"
            }
            fn provides(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn requires(&self) -> Vec<ServiceId> {
                Vec::new()
            }
            fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
                ctx.set_timer(Dur::millis(10), 1);
            }
            fn on_call(&mut self, _: &mut ModuleCtx<'_>, _: Call) {}
            fn on_response(&mut self, _: &mut ModuleCtx<'_>, _: Response) {}
            fn on_timer(&mut self, ctx: &mut ModuleCtx<'_>, _: TimerId, _: u64) {
                self.beats += 1;
                if self.beats < 5 {
                    ctx.set_timer(Dur::millis(10), 1);
                }
            }
        }
        let rt = Runtime::spawn(RuntimeConfig::new(1), |sc| {
            let mut s = Stack::new(sc, FactoryRegistry::new());
            s.add_module(Box::new(TimerBeat { beats: 0 }));
            s
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let beats = rt.with_stack(StackId(0), |s| {
                s.with_module::<TimerBeat, _>(BEAT, |b| b.beats).unwrap()
            });
            if beats >= 5 {
                break;
            }
            assert!(Instant::now() < deadline, "timers too slow: {beats}/5");
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
    }

    #[test]
    fn loss_model_drops_packets() {
        let mut cfg = RuntimeConfig::new(2);
        cfg.loss = 1.0;
        let rt = Runtime::spawn(cfg, mk);
        let data = (StackId(1), Bytes::from_static(b"ping")).to_bytes();
        rt.with_stack(StackId(0), move |s| {
            s.call_as(PP, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
        });
        std::thread::sleep(Duration::from_millis(100));
        let got = rt
            .with_stack(StackId(1), |s| s.with_module::<PingPong, _>(PP, |p| p.got.len()).unwrap());
        assert_eq!(got, 0);
        let stats = rt.stats();
        assert_eq!(stats.packets_dropped, stats.packets_sent);
        rt.shutdown();
    }

    #[test]
    fn drop_without_shutdown_stops_shard_threads() {
        let rt = Runtime::spawn(RuntimeConfig::new(8).with_shards(2), mk);
        let data = (StackId(1), Bytes::from_static(b"ping")).to_bytes();
        rt.with_stack(StackId(0), move |s| {
            s.call_as(PP, &ServiceId::new(dpu_core::svc::NET), net_ops::SEND, data)
        });
        // Drop joins the shard threads; completing (not hanging) is the
        // assertion.
        drop(rt);
    }

    #[test]
    fn shutdown_returns_final_stacks_in_id_order() {
        let rt = Runtime::spawn(RuntimeConfig::new(5).with_shards(2), mk);
        let stacks = rt.shutdown();
        assert_eq!(stacks.len(), 5);
        for (i, s) in stacks.iter().enumerate() {
            assert_eq!(s.id(), StackId(i as u32));
        }
    }
}
