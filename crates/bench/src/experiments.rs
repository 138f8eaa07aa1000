//! Experiment drivers shared by the figure binaries: steady-state runs,
//! runs with scheduled replacements, and the three-way switcher
//! comparison.

use crate::stats::{collect_latencies, MsgLatency, Summary};
use dpu_core::telemetry::flight::FlightKind;
use dpu_core::time::{Dur, Time};
use dpu_core::{ModuleSpec, StackId};
use dpu_repl::abcast_repl::ReplAbcastModule;
use dpu_repl::builder::{
    drive_load, group_sim, request_change, specs, switch_cost, GroupStackOpts, SwitchLayer,
};
use dpu_sim::SimConfig;

/// Common parameters of one experiment run.
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Group size (the paper uses 3 and 7).
    pub n: u32,
    /// RNG seed (runs are pure functions of the config + seed).
    pub seed: u64,
    /// Aggregate load, messages/second across the whole group.
    pub load: f64,
    /// Settle time before measurement starts (FD stabilisation etc.).
    pub warmup: Dur,
    /// Measured (loaded) period.
    pub measure: Dur,
    /// Drain time after the load stops.
    pub tail: Dur,
    /// Application payload padding, bytes (the paper uses small
    /// messages).
    pub pad: usize,
}

impl ExpConfig {
    /// Defaults mirroring the paper's setup at a given group size and
    /// load.
    pub fn new(n: u32, load: f64) -> ExpConfig {
        ExpConfig {
            n,
            seed: 42,
            load,
            warmup: Dur::millis(500),
            measure: Dur::secs(6),
            tail: Dur::secs(8),
            pad: 32,
        }
    }

    /// End of the measured window (absolute virtual time).
    pub fn measure_end(&self) -> Time {
        Time::ZERO + self.warmup + self.measure
    }

    fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::lan(self.n, self.seed);
        cfg.trace = false; // keep long benchmark runs lean
        cfg
    }

    fn opts(&self, layer: SwitchLayer) -> GroupStackOpts {
        GroupStackOpts {
            abcast: specs::ct(0),
            layer,
            probe_pad: Some(self.pad),
            with_gm: false,
            extra_defaults: Vec::new(),
        }
    }
}

/// Run a steady load with no replacement; returns per-message latencies
/// of the measured window.
pub fn run_steady(cfg: &ExpConfig, layer: SwitchLayer) -> Vec<MsgLatency> {
    let (mut sim, h) = group_sim(cfg.sim_config(), &cfg.opts(layer));
    sim.run_until(Time::ZERO + cfg.warmup);
    drive_load(&mut sim, &h, cfg.load, cfg.measure_end());
    sim.run_until(cfg.measure_end() + cfg.tail);
    collect_latencies(&mut sim, &h)
}

/// Result of a run with scheduled replacements.
pub struct SwitchOutcome {
    /// Per-message latencies of the whole run.
    pub latencies: Vec<MsgLatency>,
    /// One `(trigger, globally-complete)` window per replacement — the
    /// paper's "replacement starts when any process triggers it and
    /// finishes when all machines have replaced the old modules".
    pub windows: Vec<(Time, Time)>,
    /// Messages re-issued by the replacement layer (Algorithm 1 lines
    /// 15–16), summed over stacks.
    pub reissued: u64,
}

/// Run a steady load with replacements scheduled at the given offsets
/// (relative to the start of the measured window), each switching to
/// `target(k)` for the k-th replacement (use a fresh namespace per k).
pub fn run_repl_switches(
    cfg: &ExpConfig,
    offsets: &[Dur],
    target: impl Fn(u64) -> ModuleSpec,
) -> SwitchOutcome {
    let opts = cfg.opts(SwitchLayer::Repl);
    let (mut sim, h) = group_sim(cfg.sim_config(), &opts);
    sim.run_until(Time::ZERO + cfg.warmup);
    drive_load(&mut sim, &h, cfg.load, cfg.measure_end());
    let mut triggers = Vec::new();
    for (k, &off) in offsets.iter().enumerate() {
        let at = Time::ZERO + cfg.warmup + off;
        triggers.push(at);
        let spec = target(k as u64 + 1);
        let h2 = h.clone();
        let initiator = StackId((k as u32) % cfg.n);
        sim.schedule(at, move |sim| request_change(sim, initiator, &h2, &spec));
    }
    sim.run_until(cfg.measure_end() + cfg.tail);

    // Reconstruct the windows from the per-stack switch histories.
    let layer = h.layer.expect("repl layer present");
    let mut completions: Vec<Vec<Time>> = Vec::new();
    let mut reissued = 0;
    for id in sim.stack_ids() {
        let (times, re) = sim.with_stack(id, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| {
                (m.switch_times().to_vec(), m.reissued_total())
            })
            .expect("repl module")
        });
        completions.push(times);
        reissued += re;
    }
    let windows = triggers
        .iter()
        .enumerate()
        .filter_map(|(k, &start)| {
            let end = completions.iter().map(|c| c.get(k).copied()).collect::<Option<Vec<_>>>()?;
            Some((start, end.into_iter().max()?))
        })
        .collect();

    SwitchOutcome { latencies: collect_latencies(&mut sim, &h), windows, reissued }
}

/// The latency summary of messages sent inside any replacement window.
pub fn during_summary(outcome: &SwitchOutcome) -> Summary {
    Summary::of(outcome.latencies.iter().filter_map(|m| {
        outcome.windows.iter().any(|&(a, b)| m.sent_at >= a && m.sent_at < b).then_some(m.avg)
    }))
}

/// One row of the switcher-comparison table (experiment E3).
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Switcher name.
    pub name: &'static str,
    /// Trigger → globally-complete, milliseconds.
    pub switch_ms: f64,
    /// Worst per-stack application-blocked time, milliseconds.
    pub blocked_ms: f64,
    /// Dedicated coordination messages (point-to-point), summed over
    /// stacks. Algorithm 1 needs none: the switch rides the broadcast.
    pub coord_msgs: u64,
    /// Mean latency of messages sent *outside* the switch window, ms.
    pub steady_ms: f64,
    /// Peak per-message latency across the whole run, ms.
    pub peak_ms: f64,
    /// Messages whose average latency was measured.
    pub messages: usize,
}

/// Run the three-way comparison (Repl vs. Maestro vs. Graceful
/// Adaptation) under identical load, one switch mid-run each.
pub fn compare_switchers(cfg: &ExpConfig) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for layer in [SwitchLayer::Repl, SwitchLayer::Maestro, SwitchLayer::Graceful] {
        rows.push(run_one_comparison(cfg, layer));
    }
    rows
}

fn run_one_comparison(cfg: &ExpConfig, layer: SwitchLayer) -> CompareRow {
    let opts = cfg.opts(layer);
    let (mut sim, h) = group_sim(cfg.sim_config(), &opts);
    sim.run_until(Time::ZERO + cfg.warmup);
    drive_load(&mut sim, &h, cfg.load, cfg.measure_end());
    let trigger = Time::ZERO + cfg.warmup + cfg.measure / 2;
    let spec = match layer {
        SwitchLayer::Graceful => specs::seq_in(1, "abcast.alt"),
        _ => specs::ct(1),
    };
    let h2 = h.clone();
    sim.schedule(trigger, move |sim| request_change(sim, StackId(0), &h2, &spec));
    sim.run_until(cfg.measure_end() + cfg.tail);

    // Read every layer off the same grid: the switch is complete when
    // the last stack's lifecycle ring says the replacement serves it (the
    // paper's "all machines have replaced the old modules"); what it cost
    // beyond the broadcasts comes from the layer skeleton.
    let mut blocked = Dur::ZERO;
    let mut coord = 0u64;
    let mut complete = trigger;
    for id in sim.stack_ids() {
        let (activated_ns, (b, c)) = sim.with_stack(id, |s| {
            let ring = &s.telemetry().state().expect("always on").flight;
            assert_eq!(ring.dropped(), 0, "{id}: the lifecycle ring lost its first events");
            let first = ring.events().find(|e| e.kind == FlightKind::SwitchActivated);
            (first.map(|e| e.at_ns), switch_cost(s, &h))
        });
        if let Some(ns) = activated_ns {
            complete = complete.max(Time::ZERO + Dur::nanos(ns));
        }
        blocked = blocked.max(b);
        coord += c;
    }

    let latencies = collect_latencies(&mut sim, &h);
    let steady = Summary::of(
        latencies.iter().filter(|m| m.sent_at < trigger || m.sent_at >= complete).map(|m| m.avg),
    );
    let peak = latencies.iter().map(|m| m.avg.as_millis_f64()).fold(0.0f64, f64::max);
    CompareRow {
        name: match layer {
            SwitchLayer::Repl => "repl (Algorithm 1)",
            SwitchLayer::Maestro => "maestro (whole-stack)",
            SwitchLayer::Graceful => "graceful (AAC barriers)",
            SwitchLayer::None => unreachable!(),
        },
        switch_ms: complete.since(trigger).as_millis_f64(),
        blocked_ms: blocked.as_millis_f64(),
        coord_msgs: coord,
        steady_ms: steady.mean_ms,
        peak_ms: peak,
        messages: latencies.len(),
    }
}

/// The three Figure-6 configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Mode {
    /// "Normal, without replacement layer".
    NormalNoLayer,
    /// "Normal, with replacement layer".
    NormalWithLayer,
    /// "During replacement": the latency of messages sent inside
    /// replacement windows (three replacements per run).
    DuringReplacement,
}

/// Compute one point of Figure 6. Averages two seeded runs (the knee
/// region is noisy — batching makes throughput bimodal near saturation)
/// and scales the drain tail with the load so high-load points still
/// measure fully-delivered messages.
pub fn fig6_point(n: u32, load: f64, mode: Fig6Mode, seed: u64) -> Summary {
    let mut durs: Vec<Dur> = Vec::new();
    for s in [seed, seed ^ 0x5DEECE66D, seed.wrapping_add(7777), seed ^ 0xBF58476D] {
        let mut cfg = ExpConfig::new(n, load);
        cfg.seed = s;
        cfg.tail = Dur::secs(8) + Dur::secs_f64(load / 60.0);
        match mode {
            Fig6Mode::NormalNoLayer => {
                let msgs = run_steady(&cfg, SwitchLayer::None);
                durs.extend(
                    msgs.iter()
                        .filter(|m| {
                            m.sent_at >= Time::ZERO + cfg.warmup && m.sent_at < cfg.measure_end()
                        })
                        .map(|m| m.avg),
                );
            }
            Fig6Mode::NormalWithLayer => {
                let msgs = run_steady(&cfg, SwitchLayer::Repl);
                durs.extend(
                    msgs.iter()
                        .filter(|m| {
                            m.sent_at >= Time::ZERO + cfg.warmup && m.sent_at < cfg.measure_end()
                        })
                        .map(|m| m.avg),
                );
            }
            Fig6Mode::DuringReplacement => {
                let offsets = [cfg.measure / 4, cfg.measure / 2, cfg.measure * 3 / 4];
                let outcome = run_repl_switches(&cfg, &offsets, specs::ct);
                durs.extend(outcome.latencies.iter().filter_map(|m| {
                    outcome
                        .windows
                        .iter()
                        .any(|&(a, b)| m.sent_at >= a && m.sent_at < b)
                        .then_some(m.avg)
                }));
            }
        }
    }
    Summary::of(durs)
}

/// Run independent jobs on OS threads (one per job) and collect results
/// in order — the parameter sweeps are embarrassingly parallel.
pub fn parallel_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.into_iter().map(|item| scope.spawn(move || f(item))).collect();
        handles.into_iter().map(|h| h.join().expect("sweep job")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(n: u32, load: f64) -> ExpConfig {
        let mut cfg = ExpConfig::new(n, load);
        cfg.measure = Dur::secs(2);
        cfg.tail = Dur::secs(4);
        cfg
    }

    #[test]
    fn steady_run_measures_all_messages() {
        let cfg = tiny(3, 30.0);
        let msgs = run_steady(&cfg, SwitchLayer::Repl);
        // 30 msg/s × 2 s ≈ 60 messages, all fully delivered.
        assert!(msgs.len() >= 55, "only {} messages measured", msgs.len());
        assert!(msgs.iter().all(|m| m.deliveries == 3));
    }

    #[test]
    fn layer_overhead_is_small_but_nonzero() {
        let cfg = tiny(3, 30.0);
        let without = Summary::of(run_steady(&cfg, SwitchLayer::None).iter().map(|m| m.avg));
        let with = Summary::of(run_steady(&cfg, SwitchLayer::Repl).iter().map(|m| m.avg));
        assert!(with.mean_ms > without.mean_ms, "indirection cannot be free");
        assert!(
            with.mean_ms < without.mean_ms * 1.5,
            "layer overhead should be modest: {} vs {}",
            with.mean_ms,
            without.mean_ms
        );
    }

    #[test]
    fn switch_run_produces_window_and_reissues_are_bounded() {
        let cfg = tiny(3, 40.0);
        let outcome = run_repl_switches(&cfg, &[Dur::secs(1)], specs::ct);
        assert_eq!(outcome.windows.len(), 1);
        let (start, end) = outcome.windows[0];
        assert!(end > start, "completion after trigger");
        assert!(
            end.since(start) < Dur::secs(1),
            "switch should be quick, took {}",
            end.since(start)
        );
        let during = during_summary(&outcome);
        let _ = during; // may be empty at low load; just must not panic
    }

    #[test]
    fn comparison_has_expected_shape() {
        let cfg = tiny(3, 40.0);
        let rows = compare_switchers(&cfg);
        assert_eq!(rows.len(), 3);
        let repl = &rows[0];
        let maestro = &rows[1];
        let graceful = &rows[2];
        assert_eq!(repl.coord_msgs, 0, "Algorithm 1 rides the broadcast");
        assert!(maestro.coord_msgs > 0);
        assert!(graceful.coord_msgs > maestro.coord_msgs, "three barriers cost more");
        assert_eq!(repl.blocked_ms, 0.0, "Algorithm 1 never blocks the app");
        assert!(maestro.blocked_ms > 0.0);
        for row in &rows {
            assert!(row.switch_ms > 0.0, "{}: no stack's ring shows the activation", row.name);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect(), |x: i32| x * x);
        assert_eq!(out, (0..16).map(|x| x * x).collect::<Vec<_>>());
    }
}
