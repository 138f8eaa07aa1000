//! # dpu-reactor — an epoll-backed real-socket host for DPU stacks
//!
//! The third host of the workspace, after the deterministic simulator
//! (`dpu-sim`) and the in-process sharded runtime (`dpu-runtime`): one
//! event-loop thread multiplexing N stacks whose network is **real
//! nonblocking UDP sockets** over loopback (or any interface), so a
//! protocol group can span OS processes. Protocol modules cannot tell
//! which host they run under; only the `ActionSink` behind `NetSend`
//! changes — and this crate is exactly that: a [`LiveShard`] (drivers,
//! pools, the loan, wake deadlines, the report fold, all shared with
//! `dpu-runtime`) plus the UDP transport.
//!
//! ```text
//!        ┌───────────── reactor thread ──────────────┐
//!        │ epoll_wait(sockets…, eventfd, deadline)   │
//!        │   ├─ readable socket → recv_from drain    │
//!        │   │    └─ frame whole? → deliver          │
//!        │   ├─ eventfd → command queue (Ctl,        │
//!        │   │    set_peer, stop)                    │
//!        │   └─ deadline → LiveShard::fire_due       │
//!        └───────────────────────────────────────────┘
//! ```
//!
//! * Each hosted stack owns one nonblocking `UdpSocket`; frames are
//!   [`dpu_net::sockframe::Datagram`] envelopes carrying
//!   `(src, dst, payload)`, encoded through a scratch-pooled
//!   [`dpu_net::sockframe::FrameCodec`]. A frame over
//!   [`dpu_net::sockframe::PIECE`] bytes goes as several datagrams, and
//!   the codec delivers it once the last piece is in.
//! * A [`NodeAddr`] peer table maps every [`StackId`] of the group —
//!   local or in another process — to its `SocketAddr`; **all** sends
//!   go through a real `send_to`, even stack-to-stack within one
//!   reactor, so the loopback path is exercised end to end.
//! * [`LiveShard::next_deadline`] becomes the `epoll_wait` timeout; an
//!   idle reactor blocks with no deadline and burns no CPU.
//! * Cross-thread commands ([`Reactor::with_stack`], the reports, peer
//!   updates, shutdown) ride a channel paired with an eventfd wakeup.
//! * Socket input is untrusted: malformed datagrams are counted drops
//!   ([`SocketCounters`]), never panics. Send-side probabilistic loss
//!   ([`ReactorConfig::loss`]) injects faults for rp2p to recover.
//!
//! The raw `epoll`/`eventfd` FFI lives in `sys` — Linux-only, with a
//! documented degraded fallback elsewhere (see that module's docs).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod sys;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use dpu_core::host::{ActionSink, Ctl, Host, LiveShard, LossModel, ShardPort, WallClock};
use dpu_core::telemetry::{SocketCounters, TelemetryReport};
use dpu_core::time::Time;
use dpu_core::{Stack, StackConfig, StackId, TelemetryConfig};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::thread::JoinHandle;

/// One row of the peer table: where a stack of the group lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeAddr {
    /// The stack.
    pub id: StackId,
    /// Its socket address (loopback in the demos, but any address
    /// works).
    pub addr: SocketAddr,
}

/// Configuration of a reactor: which slice of an `n`-stack group this
/// process hosts.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Total group size. Peer lists of the hosted stacks span the full
    /// group, exactly as under the other hosts.
    pub n: u32,
    /// The stacks hosted by *this* reactor (any subset of `0..n`).
    /// Each gets its own UDP socket on `bind_addr`.
    pub local: Vec<StackId>,
    /// Bind address for the local sockets; port 0 (the default via
    /// [`ReactorConfig::new`]) lets the OS pick. Actual addresses are
    /// reported by [`Reactor::local_addrs`].
    pub(crate) bind_addr: SocketAddr,
    /// Seed mixed into each stack's deterministic RNG stream.
    pub seed: u64,
    /// Probability of dropping an outbound datagram before `send_to`
    /// (fault injection; the wire itself is loopback-reliable, so this
    /// is how the demos exercise rp2p recovery).
    pub loss: f64,
}

impl ReactorConfig {
    /// Host `local` of an `n`-stack group on OS-assigned loopback
    /// ports, no fault injection.
    pub fn new(n: u32, local: Vec<StackId>) -> ReactorConfig {
        ReactorConfig {
            n,
            local,
            bind_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            seed: 0,
            loss: 0.0,
        }
    }
}

enum Cmd {
    /// Run a control closure against the loop's shard.
    Ctl(Ctl<Wire>),
    /// Insert/replace a peer-table row.
    SetPeer(NodeAddr),
    /// Stop the loop and return the stacks.
    Stop,
}

/// The UDP transport: executes drivers' `NetSend`s as real datagrams
/// and decodes what the sockets receive.
struct Wire {
    /// One socket per hosted stack; socket index = the stack's local
    /// index in the [`LiveShard`].
    sockets: Vec<UdpSocket>,
    /// Socket index of each local stack (sends leave the sender's own
    /// socket).
    index_of: BTreeMap<StackId, usize>,
    /// `StackId::idx() → SocketAddr` for the whole group.
    peers: Vec<Option<SocketAddr>>,
    codec: dpu_net::sockframe::FrameCodec,
    /// Every socket-path count but `malformed_dropped`, which is the
    /// codec's (see [`Wire::counters`]).
    stats: SocketCounters,
    loss: LossModel,
}

impl ActionSink for Wire {
    fn net_send(&mut self, _at: Time, src: StackId, dst: StackId, payload: Bytes) {
        self.stats.packets_sent += 1;
        if self.loss.drops() {
            self.stats.packets_dropped += 1;
            return;
        }
        let Some(&Some(addr)) = self.peers.get(dst.idx()) else {
            self.stats.unroutable += 1;
            return;
        };
        let sock = self.index_of.get(&src).map(|&i| &self.sockets[i]).unwrap_or(&self.sockets[0]);
        // A frame too large to send at all, a full socket buffer or a
        // transient OS error is just packet loss to the protocols above —
        // counted, not escalated. The rest of a frame whose piece failed
        // would only be dropped by the receiver.
        let Some(datagrams) = self.codec.datagrams(src, dst, &payload) else {
            self.stats.send_errors += 1;
            return;
        };
        for datagram in datagrams {
            if sock.send_to(&datagram, addr).is_err() {
                self.stats.send_errors += 1;
                break;
            }
        }
    }
}

impl Wire {
    /// The socket-path counters; the codec owns the malformed count.
    fn counters(&self) -> SocketCounters {
        SocketCounters { malformed_dropped: self.codec.malformed_dropped(), ..self.stats }
    }
}

/// Largest datagram the reactor accepts (the UDP maximum). The codec
/// keeps every datagram it makes below it: a frame over
/// [`dpu_net::sockframe::PIECE`] bytes goes in pieces
/// (`tests/reactor_live.rs`, the 70 000- and 179 000-byte broadcasts).
const RECV_BUF: usize = 64 * 1024;

/// The event-loop thread: a [`LiveShard`] over the UDP transport.
struct Loop {
    core: LiveShard,
    wire: Wire,
    cmds: Receiver<Cmd>,
    poller: sys::Poller,
}

impl Loop {
    fn run(mut self) -> Vec<(StackId, Stack)> {
        let mut ready: Vec<u64> = Vec::new();
        let mut buf = vec![0u8; RECV_BUF];
        loop {
            self.core.fire_due(self.core.now(), &mut self.wire);
            let timeout = self.core.next_deadline().map(|at| at.since(self.core.now()).to_std());
            if self.poller.wait(&mut ready, timeout).is_err() {
                // An epoll failure is unrecoverable for the loop;
                // returning the stacks (instead of looping on the
                // error) at least lets shutdown proceed.
                break;
            }
            loop {
                match self.cmds.try_recv() {
                    Ok(Cmd::Stop) => return self.core.into_stacks(),
                    Ok(Cmd::Ctl(ctl)) => ctl.run(&mut self.core, &mut self.wire),
                    Ok(Cmd::SetPeer(p)) => {
                        if p.id.idx() < self.wire.peers.len() {
                            self.wire.peers[p.id.idx()] = Some(p.addr);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return self.core.into_stacks(),
                }
            }
            for &token in &ready {
                self.drain_socket(token as usize, &mut buf);
            }
        }
        self.core.into_stacks()
    }

    /// Read every queued datagram off one socket, decode, and deliver
    /// each frame that is whole to the destination driver, which runs its
    /// whole cascade before the next packet's first step (the stack's
    /// order on every host — see [`dpu_core::host::live`]). A malformed
    /// datagram is counted by the codec; a piece of an unfinished frame
    /// waits in it.
    fn drain_socket(&mut self, sock_i: usize, buf: &mut [u8]) {
        loop {
            let len = match self.wire.sockets[sock_i].recv_from(buf) {
                Ok((len, _from)) => len,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient receive errors (e.g. ICMP-reflected
                // ECONNREFUSED on loopback) are loss, not failure.
                Err(_) => continue,
            };
            let Some(frame) = self.wire.codec.decode(&buf[..len]) else {
                continue;
            };
            let Some(local) = self.core.local_of(frame.dst) else {
                self.wire.stats.misdirected += 1;
                continue;
            };
            self.wire.stats.packets_received += 1;
            self.core.deliver(local, frame.src, frame.payload, &mut self.wire);
        }
    }
}

/// The handle's sending side: the command channel paired with the
/// eventfd that wakes the loop out of `epoll_wait`.
struct Cmds {
    tx: Sender<Cmd>,
    waker: sys::Waker,
}

impl Cmds {
    /// Enqueue and wake. Errors mean the loop is gone; callers that
    /// need a reply notice on their reply channel.
    fn send(&self, cmd: Cmd) -> bool {
        let sent = self.tx.send(cmd).is_ok();
        self.waker.wake();
        sent
    }
}

impl ShardPort for Cmds {
    type Transport = Wire;

    fn shards(&self) -> usize {
        1
    }

    fn post(&self, _shard: usize, ctl: Ctl<Wire>) {
        assert!(self.send(Cmd::Ctl(ctl)), "reactor alive");
    }
}

/// The real-socket host. See crate docs.
///
/// `with_stack`, `stats`, `telemetry_report` and `dump_flight_recorders`
/// ask the loop thread and block for the answer, so they must be called
/// from outside it.
pub struct Reactor {
    cmds: Cmds,
    thread: Option<JoinHandle<Vec<(StackId, Stack)>>>,
    local: Vec<NodeAddr>,
    n: u32,
    clock: WallClock,
}

impl Reactor {
    /// Bind one UDP socket per local stack, build the stacks with
    /// `mk_stack` (called on the spawning thread, in the order of
    /// `cfg.local`), and start the event-loop thread.
    ///
    /// The peer table starts with the local stacks' own (just-bound)
    /// addresses; remote peers are added with [`Reactor::set_peer`]
    /// after the processes exchange their [`Reactor::local_addrs`].
    ///
    /// A local id outside `0..n`, or one listed twice, is
    /// [`io::ErrorKind::InvalidInput`], refused before anything is bound:
    /// the first has no peer-table row, and the second would bind two
    /// sockets under one id, one of them unreachable.
    pub fn spawn(
        cfg: ReactorConfig,
        mut mk_stack: impl FnMut(StackConfig) -> Stack,
    ) -> io::Result<Reactor> {
        let mut hosted = vec![false; cfg.n as usize];
        for &id in &cfg.local {
            let refused = match hosted.get_mut(id.idx()) {
                None => format!("{id} is not a member of a group of {}", cfg.n),
                Some(true) => format!("{id} is listed twice"),
                Some(seen) => {
                    *seen = true;
                    continue;
                }
            };
            return Err(io::Error::new(io::ErrorKind::InvalidInput, refused));
        }
        let clock = WallClock::start();
        let poller = sys::Poller::new()?;
        let mut sockets = Vec::with_capacity(cfg.local.len());
        let mut index_of = BTreeMap::new();
        let mut peers: Vec<Option<SocketAddr>> = vec![None; cfg.n as usize];
        let mut local = Vec::with_capacity(cfg.local.len());
        let mut stacks = Vec::with_capacity(cfg.local.len());
        let peer_table = StackConfig::peer_table(cfg.n);
        for (i, &id) in cfg.local.iter().enumerate() {
            let sock = UdpSocket::bind(cfg.bind_addr)?;
            sock.set_nonblocking(true)?;
            poller.register(sock.as_raw_fd(), i as u64)?;
            let addr = sock.local_addr()?;
            peers[id.idx()] = Some(addr);
            local.push(NodeAddr { id, addr });
            sockets.push(sock);
            index_of.insert(id, i);
            stacks.push(mk_stack(StackConfig {
                id,
                peers: Arc::clone(&peer_table),
                seed: cfg.seed,
                trace: false,
                // Like the live runtime: no topology model.
                cluster_size: None,
                telemetry: TelemetryConfig::default(),
            }));
        }
        let (tx, rx) = unbounded::<Cmd>();
        let waker = poller.waker();
        let lp = Loop {
            core: LiveShard::new(clock, stacks),
            wire: Wire {
                sockets,
                index_of,
                peers,
                codec: dpu_net::sockframe::FrameCodec::new(),
                stats: SocketCounters::default(),
                loss: LossModel::new(cfg.loss, cfg.seed, 0),
            },
            cmds: rx,
            poller,
        };
        let thread =
            std::thread::Builder::new().name("dpu-reactor".into()).spawn(move || lp.run())?;
        Ok(Reactor { cmds: Cmds { tx, waker }, thread: Some(thread), local, n: cfg.n, clock })
    }

    /// Total group size.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Wall-clock time since the reactor started, as virtual [`Time`]
    /// (the same clock the loop stamps events with).
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    /// The hosted stacks and the addresses their sockets actually
    /// bound (ports resolved), for exchanging with other processes.
    pub fn local_addrs(&self) -> &[NodeAddr] {
        &self.local
    }

    /// Insert or replace a peer-table row. Frames to unknown peers are
    /// counted as [`SocketCounters::unroutable`] and dropped, so peers
    /// may be added while traffic is already flowing.
    pub fn set_peer(&self, peer: NodeAddr) {
        self.cmds.send(Cmd::SetPeer(peer));
    }

    /// Run a closure against a hosted stack (on the reactor thread)
    /// and return the result. Blocks until serviced. Panics — on the
    /// calling thread; the loop keeps running — if `id` is not hosted
    /// here.
    pub fn with_stack<R: Send + 'static>(
        &self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        self.cmds.on_stack(0, id, f)
    }

    /// Snapshot of the socket-path counters.
    pub fn stats(&self) -> SocketCounters {
        self.cmds.on_shard(0, |_, wire| wire.counters())
    }

    /// Unified telemetry snapshot across the hosted stacks: the
    /// histogram families and switch-phase timeline plus wire,
    /// transport, *and* socket-path counters ([`Reactor::stats`] as the
    /// report's `sockets` block), taken in one control round-trip.
    /// Shape-identical to `Sim::telemetry_report` and
    /// `Runtime::telemetry_report`.
    pub fn telemetry_report(&self) -> TelemetryReport {
        let (fold, sockets) =
            self.cmds.on_shard(0, |core, wire| (core.fold_report(), wire.counters()));
        fold.report("reactor", self.now().as_nanos(), Some(sockets))
    }

    /// Dump the flight recorders: every hosted stack's lifecycle events,
    /// then the shard's most recent deliveries (oldest first, with drop
    /// counts) — the postmortem a failing soak or crashed child process
    /// prints.
    pub fn dump_flight_recorders(&self) -> String {
        self.cmds.dump_flight()
    }

    /// Stop the loop thread and return the hosted stacks in the order
    /// of `cfg.local`.
    pub fn shutdown(mut self) -> Vec<Stack> {
        self.cmds.send(Cmd::Stop);
        match self.thread.take() {
            Some(t) => t.join().expect("reactor thread").into_iter().map(|(_, s)| s).collect(),
            None => Vec::new(),
        }
    }
}

impl Host for &Reactor {
    fn now(&self) -> Time {
        Reactor::now(self)
    }
    fn with_stack<R: Send + 'static>(
        &mut self,
        id: StackId,
        f: impl FnOnce(&mut Stack) -> R + Send + 'static,
    ) -> R {
        Reactor::with_stack(self, id, f)
    }
    fn telemetry_report(&self) -> TelemetryReport {
        Reactor::telemetry_report(self)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // Dropping without `shutdown()` (e.g. on a test panic) must
        // not leak the loop thread.
        self.cmds.send(Cmd::Stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
