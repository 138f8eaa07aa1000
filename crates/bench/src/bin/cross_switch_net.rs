//! **Two-process live switch over loopback UDP** — the paper's Figure-4
//! scenario hosted on real sockets across a process boundary. The
//! parent re-spawns itself twice; each child hosts half of an 8-stack
//! group on an epoll-backed [`dpu_reactor::Reactor`], the halves
//! rendezvous through a temp directory (the stand-in for a name
//! service), and a non-sequencer stack requests `changeABcast(seq(1))`
//! while probes flow with 5% injected send-side loss. Each child
//! asserts the switch applied exactly once, nothing is stuck and loss
//! actually fired; the half that hosts the sequencer — the one whose
//! data frames are numerous enough that some were certainly among the
//! dropped — also that rp2p actually retransmitted; the parent asserts
//! both processes delivered the *same messages in the same order* by
//! comparing the probes' delivery-order heads (`Probe::order_head`: how
//! many, and a hash chain over them folded at delivery time).
//!
//! ```text
//! cargo run --release -p dpu-bench --bin cross_switch_net
//! ```
//!
//! Exits non-zero (and says why) if any property fails. Internal flags
//! `--half <0|1> --rdv <dir>` select child mode.

use dpu_bench::Args;
use dpu_core::probe::Probe;
use dpu_core::StackId;
use dpu_reactor::{NodeAddr, Reactor, ReactorConfig};
use dpu_repl::abcast_repl::ReplAbcastModule;
use dpu_repl::builder::{
    assert_one_delivery_order, group, request_change, send_probe, specs, GroupStackOpts,
    SwitchLayer,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const N: u32 = 8;
const HALF: u32 = N / 2;
/// Probes per phase per child; total messages = 4 * PROBES. The
/// sequencer (stack 0, half 0) sends each of them to the 7 other stacks:
/// 280 data frames, so P(the loss model spared them all) = 0.95^280 <
/// 10^-6.
const PROBES: u32 = 10;
const LOSS: f64 = 0.05;

fn main() {
    let args = Args::parse();
    if args.has("half") {
        child(args.get("half", 0u32), PathBuf::from(args.get("rdv", ".".to_string())));
    } else {
        parent();
    }
}

/// Spawn the two halves as real OS processes and compare their digests.
fn parent() {
    let exe = std::env::current_exe().expect("current_exe");
    let rdv = std::env::temp_dir().join(format!("dpu_cross_switch_net_{}", std::process::id()));
    std::fs::create_dir_all(&rdv).expect("create rendezvous dir");

    let spawn = |half: u32| {
        std::process::Command::new(&exe)
            .args(["--half", &half.to_string(), "--rdv"])
            .arg(&rdv)
            .spawn()
            .expect("spawn child")
    };
    let mut c0 = spawn(0);
    let mut c1 = spawn(1);
    let s0 = c0.wait().expect("wait child 0");
    let s1 = c1.wait().expect("wait child 1");
    assert!(s0.success(), "child 0 failed: {s0}");
    assert!(s1.success(), "child 1 failed: {s1}");

    let d0 = std::fs::read_to_string(rdv.join("digest_0")).expect("digest 0");
    let d1 = std::fs::read_to_string(rdv.join("digest_1")).expect("digest 1");
    if d0 != d1 {
        // The postmortem the flight recorder exists for: each child
        // published its final seconds of life before exiting.
        for half in 0..2 {
            if let Ok(dump) = std::fs::read_to_string(rdv.join(format!("flight_{half}"))) {
                eprint!("--- half {half} flight recorders ---\n{dump}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&rdv);
    assert_eq!(d0, d1, "the two OS processes diverged: delivery-log digests differ ({d0} vs {d1})");
    println!(
        "PASS: 2 processes x {HALF} stacks switched seq(0)->seq(1) live over loopback UDP; \
         uniform total order, digest {}",
        d0.trim()
    );
}

/// One half of the group: stacks `half*4 .. half*4+4` on one reactor.
fn child(half: u32, rdv: PathBuf) {
    let opts = GroupStackOpts {
        abcast: specs::seq(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(0),
        with_gm: false,
        extra_defaults: Vec::new(),
    };
    let lo = half * HALF;
    let mut cfg = ReactorConfig::new(N, (lo..lo + HALF).map(StackId).collect());
    cfg.loss = LOSS;
    cfg.seed = 100 + u64::from(half);
    let (r, h) = group(&opts, |mk| Reactor::spawn(cfg, mk));
    let r = r.expect("spawn reactor");

    // Rendezvous: publish our bound addresses, install the peer's.
    let mine: String =
        r.local_addrs().iter().map(|na| format!("{} {}\n", na.id.0, na.addr)).collect();
    write_atomic(&rdv.join(format!("addrs_{half}")), &mine);
    for line in read_when_present(&rdv.join(format!("addrs_{}", 1 - half))).lines() {
        let (id, addr) = line.split_once(' ').expect("id addr");
        r.set_peer(NodeAddr {
            id: StackId(id.parse().expect("stack id")),
            addr: addr.parse().expect("socket addr"),
        });
    }

    let probe = h.probe.expect("probe");
    let layer = h.layer.expect("repl layer");
    let delivered = |node: u32| {
        r.with_stack(StackId(node), move |s| {
            s.with_module::<Probe, _>(probe, |p| p.delivered().len()).expect("probe")
        })
    };
    let local_delivered = |count: usize| (lo..lo + HALF).all(|node| delivered(node) >= count);

    // Phase 1: both halves broadcast; total = 2 * PROBES messages.
    for _ in 0..PROBES {
        send_probe(&r, StackId(lo + 1), &h);
    }
    wait_until(
        half,
        "phase-1 deliveries",
        || local_delivered(2 * PROBES as usize),
        || eprint!("{}", r.dump_flight_recorders()),
    );

    // The live switch: half 1 requests it from stack 5 — a
    // non-sequencer stack whose request must cross the process
    // boundary to reach the sequencer hosted by half 0.
    if half == 1 {
        request_change(&r, StackId(lo + 1), &h, &specs::seq(1));
    }
    for _ in 0..PROBES {
        send_probe(&r, StackId(lo + 2), &h);
    }
    let total = 4 * PROBES as usize;
    let settled = || {
        (lo..lo + HALF).all(|node| {
            delivered(node) == total
                && r.with_stack(StackId(node), move |s| {
                    s.with_module::<ReplAbcastModule, _>(layer, |m| {
                        m.seq_number() == 1 && m.undelivered_len() == 0
                    })
                    .expect("repl layer")
                })
        })
    };
    let dump = || {
        for node in lo..lo + HALF {
            let (sn, und) = r.with_stack(StackId(node), move |s| {
                s.with_module::<ReplAbcastModule, _>(layer, |m| {
                    (m.seq_number(), m.undelivered_len())
                })
                .expect("repl layer")
            });
            eprintln!(
                "half {half} stack {node}: delivered={} sn={sn} undelivered={und}",
                delivered(node)
            );
        }
    };
    let limit = Instant::now() + Duration::from_secs(120);
    while !settled() {
        if Instant::now() >= limit {
            dump();
            // The flight recorders say *when* each stack last delivered
            // and where its switch lifecycle stalled — the difference
            // between "stuck" and "why".
            eprint!("{}", r.dump_flight_recorders());
            panic!("half {half} timed out waiting for switch applied + all deliveries settled");
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Local uniformity, then publish the digest for the parent: every
    // probe folded its deliveries into a (count, head) pair as they
    // happened.
    let reference = assert_one_delivery_order(|_| &r, &h, (lo..lo + HALF).map(StackId));
    let digest = format!("{} deliveries, head {:016x}\n", reference.len, reference.head);
    write_atomic(&rdv.join(format!("digest_{half}")), &digest);

    // The transport properties the demo exists to show: loss fired on
    // the real socket and rp2p recovered through it (everything was
    // delivered, above). Only a lost *data* frame is certain to be
    // resent — a lost ack is usually covered by the next cumulative one
    // before the frame is a period old, a heartbeat is not rp2p's — so a
    // resend is certain only where the data frames are many: half 1 sends
    // one per broadcast of its own (21 in all) and in about half the runs
    // loses nothing but acks and heartbeats.
    let stats = r.stats();
    let transport = r.telemetry_report().transport;
    assert!(stats.packets_dropped >= 1, "5% loss dropped nothing: {stats:?}");
    if half == 0 {
        assert!(transport.retransmissions > 0, "280 data frames, none resent: {transport:?}");
    }
    assert_eq!(stats.malformed_dropped, 0, "peers only send well-formed frames");
    println!(
        "half {half}: {} sent, {} dropped by loss model, {} retransmissions, digest ok",
        stats.packets_sent, stats.packets_dropped, transport.retransmissions
    );

    // Publish the flight recorders so the parent can print a real
    // postmortem if the digests end up differing (by then this process
    // is gone).
    write_atomic(&rdv.join(format!("flight_{half}")), &r.dump_flight_recorders());

    // Exit barrier: the peer may still be waiting on retransmissions
    // from our stacks (that is the point of the loss model) — keep the
    // reactor alive until both halves have settled.
    write_atomic(&rdv.join(format!("done_{half}")), "done\n");
    read_when_present(&rdv.join(format!("done_{}", 1 - half)));
    r.shutdown();
}

fn wait_until(half: u32, what: &str, mut done: impl FnMut() -> bool, on_timeout: impl FnOnce()) {
    let limit = Instant::now() + Duration::from_secs(120);
    while !done() {
        if Instant::now() >= limit {
            on_timeout();
            panic!("half {half} timed out waiting for {what}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Write-then-rename so the peer never observes a partial file.
fn write_atomic(path: &Path, contents: &str) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).expect("write rendezvous file");
    std::fs::rename(&tmp, path).expect("publish rendezvous file");
}

fn read_when_present(path: &Path) -> String {
    let limit = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(s) = std::fs::read_to_string(path) {
            return s;
        }
        assert!(Instant::now() < limit, "peer never published {}", path.display());
        std::thread::sleep(Duration::from_millis(10));
    }
}
