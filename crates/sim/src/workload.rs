//! Workload generation: pluggable traffic generators and fault
//! schedules, all seeded from the master RNG so a run stays a pure
//! function of `(configuration, seed)`.
//!
//! The paper's evaluation drives the stack with a closed-loop,
//! constant-rate probe (§6); meaningful latency-vs-load curves at
//! n ≫ 7 need richer arrivals. This module provides:
//!
//! * **open-loop Poisson** ([`Generator::Poisson`]) — memoryless
//!   arrivals at a fixed aggregate rate, independent per-node streams;
//! * **inhomogeneous / bursty Poisson** ([`Generator::Bursty`]) — a
//!   periodically modulated intensity `rate(t)`, sampled by *thinning*
//!   (draw candidates at the peak rate, accept with probability
//!   `rate(t)/peak`), the standard method for inhomogeneous Poisson
//!   process simulation (Hohmann, "IPPP", 2019);
//! * **node churn** ([`Generator::Churn`]) — crash a random subset of
//!   nodes at random times and restart them with freshly built stacks,
//!   for live-switch-under-failure experiments.
//!
//! Generators are decoupled from *what* a message is: traffic variants
//! carry an [`InjectFn`] that performs one application-level send (e.g.
//! `dpu-repl`'s probe broadcast). Each installed generator gets a
//! [`crate::stats::WorkloadStats`] slot in [`crate::SimStats`]
//! ([`crate::Sim::stats`]).
//!
//! # Cluster pinning
//!
//! On a clustered [`crate::Topology`] each traffic generator is split
//! at [`install`] time into one *sub-generator per cluster*, each with
//! its own RNG stream derived from the master seed and the cluster id,
//! driving only that cluster's nodes (rates are split proportionally,
//! so the aggregate is preserved — for Poisson arrivals the
//! superposition of the per-cluster streams *is* the requested
//! process). A cluster's arrival times therefore never depend on
//! another cluster's draws, matching how the parallel engine
//! ([`crate::par`]) isolates cluster state; all sub-generators share
//! the installed [`InjectFn`] and the single
//! [`crate::stats::WorkloadStats`] slot. Churn is the exception: it
//! crashes a random
//! subset of the *whole* node set, so it stays a single global
//! schedule. Generator injections run as barrier actions
//! ([`crate::Sim::schedule`]), between epochs of the parallel engine.

use crate::Sim;
use dpu_core::time::{Dur, Time};
use dpu_core::{Stack, StackConfig, StackId};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Performs one application-level send from `node` (e.g. broadcast one
/// probe message). Called on the simulation thread at injection time.
pub type InjectFn = Box<dyn FnMut(&mut Sim, StackId) + Send>;

/// Builds a replacement [`Stack`] for a restarted node; see
/// [`Generator::Churn`] and [`Sim::restart_node_with`].
pub type StackFactory = Arc<dyn Fn(StackConfig) -> Stack + Send + Sync>;

/// A traffic or fault generator. Install with [`install`].
pub enum Generator {
    /// Open-loop Poisson arrivals: `rate` messages/second *aggregate*
    /// across the workload's nodes, split into independent per-node
    /// streams (their superposition is Poisson at the aggregate rate).
    Poisson {
        /// Aggregate arrival rate, messages/second.
        rate: f64,
        /// One application send.
        inject: InjectFn,
    },
    /// Bursty (inhomogeneous) Poisson: intensity alternates each
    /// `period` between `burst` (for the first `duty` fraction) and
    /// `base`, sampled by thinning at the `burst` rate. Rates are
    /// aggregate, like [`Generator::Poisson`].
    Bursty {
        /// Off-burst aggregate rate, messages/second.
        base: f64,
        /// In-burst aggregate rate, messages/second; must be ≥ `base`.
        burst: f64,
        /// Length of one base+burst cycle.
        period: Dur,
        /// Fraction of each period spent at the `burst` rate, in (0, 1).
        duty: f64,
        /// One application send.
        inject: InjectFn,
    },
    /// Crash `crashes` distinct random nodes of the workload at uniform
    /// random times in `[install time, until]`, restarting each
    /// `downtime` later with a stack built by `factory`.
    Churn {
        /// Number of distinct nodes to crash.
        crashes: u32,
        /// How long a crashed node stays down before restarting.
        downtime: Dur,
        /// Builds the replacement stack.
        factory: StackFactory,
    },
}

/// An [`InjectFn`] shared by the per-cluster
/// sub-generators of one installation. Sub-generators fire as barrier
/// actions on the simulation thread, one at a time, so the lock is
/// never contended.
type SharedFn<F> = Arc<Mutex<F>>;

/// The node set of one installation, split by topology cluster (one
/// entry per cluster that owns at least one of the nodes, in cluster
/// order).
fn split_by_cluster(sim: &Sim, nodes: &[StackId]) -> BTreeMap<u32, Vec<StackId>> {
    let mut by_cluster: BTreeMap<u32, Vec<StackId>> = BTreeMap::new();
    for &node in nodes {
        by_cluster.entry(sim.topology().cluster_of(node)).or_default().push(node);
    }
    by_cluster
}

/// The RNG stream of installation `id`'s sub-generator for `cluster`.
/// Cluster 0's salt matches the pre-pinning single-stream salt, so flat
/// (single-cluster) simulations reproduce their historical arrivals.
fn sub_rng(sim: &Sim, id: usize, cluster: u32) -> SmallRng {
    sim.derive_rng(0x9D39_247E_3377_6D41 ^ (id as u64) << 7 ^ u64::from(cluster) << 32)
}

/// Install a generator: `nodes` is the set it drives, `until` when it
/// stops. Returns the generator's index into
/// [`crate::SimStats::workloads`]. On clustered topologies traffic
/// generators are pinned per cluster (see the module docs).
pub fn install(
    sim: &mut Sim,
    name: &str,
    nodes: Vec<StackId>,
    until: Time,
    gen: Generator,
) -> usize {
    let id = sim.register_workload(name.to_string());
    match gen {
        Generator::Poisson { rate, inject } => {
            spawn_thinned(sim, id, nodes, until, inject, Intensity::constant(rate));
        }
        Generator::Bursty { base, burst, period, duty, inject } => {
            assert!(burst >= base, "burst rate must be >= base rate");
            let shape = Intensity { base, peak: burst, period: period.as_nanos().max(1), duty };
            spawn_thinned(sim, id, nodes, until, inject, shape);
        }
        Generator::Churn { crashes, downtime, factory } => {
            let rng = sub_rng(sim, id, 0);
            spawn_churn(sim, id, nodes, until, rng, crashes, downtime, factory);
        }
    }
    id
}

/// The (periodic, two-level) intensity function of a thinned generator.
#[derive(Clone)]
struct Intensity {
    base: f64,
    peak: f64,
    period: u64,
    duty: f64,
}

impl Intensity {
    fn constant(rate: f64) -> Intensity {
        Intensity { base: rate, peak: rate, period: 1, duty: 1.0 }
    }

    /// Intensity at time `t` (aggregate msgs/sec).
    fn at(&self, t: Time) -> f64 {
        let phase = (t.as_nanos() % self.period) as f64 / self.period as f64;
        if phase < self.duty {
            self.peak
        } else {
            self.base
        }
    }

    /// Whether `t` lies in the burst window of its period.
    fn in_burst(&self, t: Time) -> bool {
        self.peak > self.base
            && ((t.as_nanos() % self.period) as f64) < self.duty * self.period as f64
    }

    /// Index of the period containing `t` (for counting burst windows).
    fn window_of(&self, t: Time) -> u64 {
        t.as_nanos() / self.period
    }
}

/// Per-node candidate streams at the peak rate, thinned to `shape` —
/// one instance per topology cluster, over that cluster's nodes only.
struct ThinnedState {
    id: usize,
    nodes: Vec<StackId>,
    /// Per-node next candidate arrival, keyed for deterministic pops.
    next: BinaryHeap<Reverse<(Time, u32)>>,
    rng: SmallRng,
    inject: SharedFn<InjectFn>,
    shape: Intensity,
    until: Time,
    /// Peak rate per node (candidate stream intensity).
    peak_per_node: f64,
    last_burst_window: Option<u64>,
}

fn exp_sample(rng: &mut SmallRng, rate_per_sec: f64) -> Dur {
    // Inverse-transform: dt = -ln(1-U)/λ. U ∈ [0,1) keeps ln finite.
    let u: f64 = rng.gen();
    let secs = -(1.0 - u).ln() / rate_per_sec;
    Dur::secs_f64(secs.max(1e-9))
}

fn spawn_thinned(
    sim: &mut Sim,
    id: usize,
    nodes: Vec<StackId>,
    until: Time,
    inject: InjectFn,
    shape: Intensity,
) {
    if nodes.is_empty() || shape.peak <= 0.0 {
        return;
    }
    // The per-node candidate rate is derived from the *whole* node set,
    // so splitting by cluster preserves the aggregate intensity.
    let peak_per_node = shape.peak / nodes.len() as f64;
    let inject = Arc::new(Mutex::new(inject));
    let now = sim.now();
    for (cluster, members) in split_by_cluster(sim, &nodes) {
        let mut rng = sub_rng(sim, id, cluster);
        let mut next = BinaryHeap::new();
        for (i, _) in members.iter().enumerate() {
            let t = now + exp_sample(&mut rng, peak_per_node);
            next.push(Reverse((t, i as u32)));
        }
        let st = Box::new(ThinnedState {
            id,
            nodes: members,
            next,
            rng,
            inject: Arc::clone(&inject),
            shape: shape.clone(),
            until,
            peak_per_node,
            last_burst_window: None,
        });
        schedule_thinned(sim, st);
    }
}

fn schedule_thinned(sim: &mut Sim, st: Box<ThinnedState>) {
    let Some(&Reverse((t, _))) = st.next.peek() else { return };
    if t > st.until {
        return;
    }
    sim.schedule(t, move |sim| thinned_fire(sim, st));
}

fn thinned_fire(sim: &mut Sim, mut st: Box<ThinnedState>) {
    let Some(Reverse((t, i))) = st.next.pop() else { return };
    let node = st.nodes[i as usize];
    // Thinning: accept this candidate with probability rate(t)/peak.
    let accept = st.rng.gen::<f64>() < st.shape.at(t) / st.shape.peak;
    if accept && !sim.stack(node).is_crashed() {
        (st.inject.lock())(sim, node);
        sim.workload_mut(st.id).injected += 1;
        if st.shape.in_burst(t) {
            let w = st.shape.window_of(t);
            if st.last_burst_window != Some(w) {
                st.last_burst_window = Some(w);
                sim.workload_mut(st.id).bursts += 1;
            }
        }
    }
    let dt = exp_sample(&mut st.rng, st.peak_per_node);
    st.next.push(Reverse((t + dt, i)));
    schedule_thinned(sim, st);
}

#[allow(clippy::too_many_arguments)]
fn spawn_churn(
    sim: &mut Sim,
    id: usize,
    nodes: Vec<StackId>,
    until: Time,
    mut rng: SmallRng,
    crashes: u32,
    downtime: Dur,
    factory: StackFactory,
) {
    let now = sim.now();
    let span = until.since(now).as_nanos();
    if span == 0 || nodes.is_empty() {
        return;
    }
    // Sample `crashes` distinct victims.
    let mut pool = nodes;
    let mut victims = Vec::new();
    for _ in 0..crashes.min(pool.len() as u32) {
        let i = rng.gen_range(0..pool.len() as u64) as usize;
        victims.push(pool.swap_remove(i));
    }
    for victim in victims {
        let crash_at = now + Dur::nanos(rng.gen_range(0..span));
        let factory = Arc::clone(&factory);
        sim.schedule(crash_at, move |sim| {
            sim.crash_at(sim.now(), victim);
            sim.workload_mut(id).crashes += 1;
            sim.schedule_in(downtime, move |sim| {
                // Eager-drop restart: the crashed incarnation is freed
                // before the factory builds its replacement, so churn
                // never holds two copies of a node's state alive.
                sim.restart_node_with(victim, |sc| factory(sc));
                sim.workload_mut(id).restarts += 1;
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimConfig};
    use dpu_core::FactoryRegistry;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn empty_sim(n: u32, seed: u64) -> Sim {
        Sim::new(SimConfig::lan(n, seed), |sc| Stack::new(sc, FactoryRegistry::new()))
    }

    fn counting_inject(counter: Arc<AtomicU64>) -> InjectFn {
        Box::new(move |_sim, _node| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
    }

    #[test]
    fn poisson_injects_at_roughly_the_requested_rate() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = empty_sim(4, 11);
        let nodes = sim.stack_ids();
        let until = Time::ZERO + Dur::secs(10);
        install(
            &mut sim,
            "poisson",
            nodes,
            until,
            Generator::Poisson { rate: 100.0, inject: counting_inject(Arc::clone(&hits)) },
        );
        sim.run_until(until);
        let n = hits.load(Ordering::Relaxed);
        // 100 msg/s × 10 s = 1000 expected; Poisson σ ≈ 32.
        assert!((800..1200).contains(&n), "got {n} injections");
        assert_eq!(sim.stats().workloads[0].injected, n);
        assert_eq!(sim.stats().workloads[0].name, "poisson");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = empty_sim(3, seed);
            let nodes = sim.stack_ids();
            let until = Time::ZERO + Dur::secs(3);
            let hits = Arc::new(AtomicU64::new(0));
            install(
                &mut sim,
                "p",
                nodes,
                until,
                Generator::Poisson { rate: 50.0, inject: counting_inject(Arc::clone(&hits)) },
            );
            sim.run_until(until);
            hits.load(Ordering::Relaxed)
        };
        assert_eq!(run(5), run(5));
        // Different seeds draw different arrival processes (statistically
        // certain over 150 expected arrivals).
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn bursty_injects_more_during_bursts_and_counts_windows() {
        let hits = Arc::new(AtomicU64::new(0));
        let mut sim = empty_sim(2, 17);
        let nodes = sim.stack_ids();
        let until = Time::ZERO + Dur::secs(8);
        install(
            &mut sim,
            "bursty",
            nodes,
            until,
            Generator::Bursty {
                base: 10.0,
                burst: 400.0,
                period: Dur::secs(2),
                duty: 0.25,
                inject: counting_inject(Arc::clone(&hits)),
            },
        );
        sim.run_until(until);
        let n = hits.load(Ordering::Relaxed);
        // Mean rate = 0.25×400 + 0.75×10 = 107.5 msg/s over 8 s ≈ 860.
        assert!((600..1100).contains(&n), "got {n} injections");
        let w = &sim.stats().workloads[0];
        assert_eq!(w.injected, n);
        assert_eq!(w.bursts, 4, "one burst window per 2s period over 8s");
    }

    #[test]
    fn churn_crashes_and_restarts_the_configured_count() {
        let mut sim = empty_sim(6, 31);
        let nodes = sim.stack_ids();
        let until = Time::ZERO + Dur::secs(2);
        let factory: StackFactory = Arc::new(|sc| Stack::new(sc, FactoryRegistry::new()));
        install(
            &mut sim,
            "churn",
            nodes,
            until,
            Generator::Churn { crashes: 2, downtime: Dur::millis(100), factory },
        );
        sim.run_until(until + Dur::secs(1));
        let w = &sim.stats().workloads[0];
        assert_eq!(w.crashes, 2);
        assert_eq!(w.restarts, 2);
        // Everyone is alive again at the end.
        for id in sim.stack_ids() {
            assert!(!sim.stack(id).is_crashed(), "{id} should have restarted");
        }
    }
}
