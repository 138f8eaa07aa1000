//! Lent == owned: recording into one shard's [`ShardTelemetry`] under a
//! loan is a pure representation change. The same random record
//! sequence over `k` stacks — once with every stack recording into
//! a set of its own, once with all of them recording into one set
//! that is swapped in and out around random stretches of the sequence —
//! must fold to the same [`TelemetryAggregate`]: histograms `==`,
//! completed switches, retained records, flight drops per stack.
//!
//! The crate is dependency-free, so the property runs over a seeded
//! xorshift stream instead of a strategy library: 200 seeds, each a
//! different `k`, sequence and lend/un-lend interleaving.

use dpu_telemetry::{
    ShardTelemetry, StackTelemetry, TelemetryAggregate, TelemetryConfig, TelemetrySet,
};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One record call, as a module or the stack would make it.
#[derive(Clone, Copy, Debug)]
enum Op {
    Delivery { latency: u64 },
    SwitchDelivery,
    Cascade { steps: u32 },
    Scratch { bytes: u64 },
    Reseq { depth: u64 },
    Requested,
    Flushed,
    Activated,
    Crash,
    Exhausted { peer: u64 },
    Held,
    Released { n: u64 },
    HeldDropped,
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.below(16) {
        0..=4 => Op::Delivery { latency: 1 + rng.below(50_000_000) },
        5 => Op::SwitchDelivery,
        6..=8 => Op::Cascade { steps: 1 + rng.below(40) as u32 },
        9..=10 => Op::Scratch { bytes: rng.below(1 << 20) },
        11 => Op::Reseq { depth: rng.below(64) },
        12 => Op::Requested,
        13 => Op::Flushed,
        14 => Op::Activated,
        _ => match rng.below(8) {
            0..=1 => Op::Crash,
            2 => Op::Held,
            3 => Op::Released { n: 1 + rng.below(3) },
            4 => Op::HeldDropped,
            _ => Op::Exhausted { peer: rng.below(8) },
        },
    }
}

fn apply(t: &mut StackTelemetry, now: u64, op: Op) {
    match op {
        Op::Delivery { latency } => t.note_delivery(now, latency),
        Op::SwitchDelivery => t.note_switch_delivery(now),
        Op::Cascade { steps } => {
            for _ in 0..steps {
                t.cascade_step();
            }
            t.cascade_end();
        }
        Op::Scratch { bytes } => t.record_scratch_occupancy(bytes),
        Op::Reseq { depth } => t.record_reseq_depth(depth),
        Op::Requested => t.switch_requested(now),
        Op::Flushed => t.switch_flushed(now),
        Op::Activated => t.switch_activated(now),
        Op::Crash => t.note_crash(now),
        Op::Exhausted { peer } => t.note_retransmit_exhausted(now, peer),
        Op::Held => t.note_held(),
        Op::Released { n } => t.note_released(n),
        Op::HeldDropped => t.note_hold_back_dropped(),
    }
}

fn stacks(k: u32, cfg: &TelemetryConfig) -> Vec<StackTelemetry> {
    (0..k).map(|id| StackTelemetry::new(cfg, id)).collect()
}

/// What must not depend on where the samples were recorded.
fn assert_same_fold(owned: &TelemetryAggregate, lent: &TelemetryAggregate, seed: u64) {
    let empty = TelemetrySet::default();
    let (o, l) = (owned.set.as_deref().unwrap_or(&empty), lent.set.as_deref().unwrap_or(&empty));
    assert_eq!(o.delivery_latency, l.delivery_latency, "seed {seed}: delivery latency");
    assert_eq!(owned.cascade_depth, lent.cascade_depth, "seed {seed}: cascade depth");
    assert_eq!(o.scratch_occupancy, l.scratch_occupancy, "seed {seed}: scratch");
    assert_eq!(o.reseq_depth, l.reseq_depth, "seed {seed}: reseq depth");
    assert_eq!(o.blackout, l.blackout, "seed {seed}: blackout");
    assert_eq!(o.swap_gap, l.swap_gap, "seed {seed}: swap gap");
    assert_eq!(owned.switches.completed(), lent.switches.completed(), "seed {seed}: completed");
    assert_eq!(owned.switches.recent(), lent.switches.recent(), "seed {seed}: retained records");
    assert_eq!(owned.stacks, lent.stacks, "seed {seed}: head-count");
    assert_eq!(o.hold_back, l.hold_back, "seed {seed}: hold-back");
}

#[test]
fn lent_and_owned_recording_fold_to_the_same_aggregate() {
    let mut total_switches = 0;
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let k = 1 + rng.below(6) as u32;
        let cfg = TelemetryConfig { flight_capacity: 1 + rng.below(12) as usize };
        let ops: Vec<(usize, Op)> = (0..200 + rng.below(800))
            .map(|_| (rng.below(u64::from(k)) as usize, random_op(&mut rng)))
            .collect();

        // Owned: nobody lends; every stack allocates its own handles.
        let mut owned = stacks(k, &cfg);
        for (now, &(who, op)) in ops.iter().enumerate() {
            apply(&mut owned[who], now as u64, op);
        }

        // Lent: one shared set, swapped into the recording stack for a
        // random stretch of its consecutive ops, swapped back out before
        // anyone else records — the host's loan discipline.
        let mut lent = stacks(k, &cfg);
        let mut set = ShardTelemetry::default();
        let mut holder: Option<usize> = None;
        for (now, &(who, op)) in ops.iter().enumerate() {
            if holder != Some(who) || rng.below(3) == 0 {
                if let Some(h) = holder.take() {
                    lent[h].swap_set(&mut set);
                }
                lent[who].swap_set(&mut set);
                holder = Some(who);
            }
            apply(&mut lent[who], now as u64, op);
        }
        if let Some(h) = holder {
            lent[h].swap_set(&mut set);
        }

        let mut owned_agg = TelemetryAggregate::new();
        owned.iter().for_each(|t| owned_agg.absorb(t));
        let mut lent_agg = TelemetryAggregate::new();
        lent_agg.absorb_set(&set);
        lent.iter().for_each(|t| lent_agg.absorb(t));
        assert_same_fold(&owned_agg, &lent_agg, seed);

        // Nothing event-rate stayed in a lent stack, and what is
        // per-stack by meaning is identical stack by stack.
        for (o, l) in owned.iter().zip(&lent) {
            assert_eq!(l.set_bytes(), 0, "seed {seed}: a lent stack kept a histogram or ring");
            let (o, l) = (o.state().unwrap(), l.state().unwrap());
            assert_eq!(o.switches.recent(), l.switches.recent(), "seed {seed}");
            assert_eq!(o.switches.pending(), l.switches.pending(), "seed {seed}");
            assert_eq!(o.flight, l.flight, "seed {seed}: lifecycle ring");
        }
        // Deliveries: the shared ring saw every stack's, in order.
        let delivered = ops.iter().filter(|(_, op)| matches!(op, Op::Delivery { .. })).count();
        let deliveries = set.set.as_ref().map(|s| (s.deliveries.len(), s.deliveries.dropped()));
        let (kept, dropped) = deliveries.unwrap_or_default();
        assert_eq!(
            kept as u64 + dropped,
            delivered as u64,
            "seed {seed}: every delivery reached the shared ring"
        );
        total_switches += owned_agg.switches.completed();
    }
    assert!(total_switches > 100, "the sequences must complete switches: {total_switches}");
}
