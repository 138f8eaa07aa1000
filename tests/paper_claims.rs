//! Integration tests for the paper's headline claims, end-to-end across
//! the whole workspace:
//!
//! * §6.2 — replacing CT-ABcast by itself at n = 7 under constant load is
//!   transparent: every atomic broadcast property holds across the
//!   switch, nothing is lost, the application is never blocked;
//! * §3   — the generic DPU properties (stack-well-formedness,
//!   protocol-operationability) hold on the recorded traces;
//! * §6.2 — the replacement layer's steady-state overhead is small;
//! * §5.3 — Algorithm 1 needs no dedicated coordination messages while
//!   the baselines do.

use dpu::repl::builder::{
    check_run, drive_load, group_sim, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu::sim::SimConfig;
use dpu_core::props;
use dpu_core::time::{Dur, Time};
use dpu_core::trace::TraceEvent;
use dpu_core::StackId;
use dpu_repl::abcast_repl::ReplAbcastModule;

fn opts(layer: SwitchLayer) -> GroupStackOpts {
    GroupStackOpts {
        abcast: specs::ct(0),
        layer,
        probe_pad: Some(32),
        with_gm: false,
        extra_defaults: Vec::new(),
    }
}

#[test]
fn the_paper_experiment_n7_ct_to_ct_under_constant_load() {
    // The exact §6.2 setup: seven stacks, constant load, replace the
    // Chandra-Toueg ABcast by the same protocol mid-run.
    let (mut sim, h) = group_sim(SimConfig::lan(7, 42), &opts(SwitchLayer::Repl));
    sim.run_until(Time::ZERO + Dur::millis(500));
    let until = sim.now() + Dur::secs(4);
    drive_load(&mut sim, &h, 70.0, until);
    let h2 = h.clone();
    sim.schedule_in(Dur::secs(2), move |sim| {
        request_change(sim, StackId(3), &h2, &specs::ct(1));
    });
    sim.run_until(until + Dur::secs(10));

    // All four atomic broadcast properties + weak well-formedness.
    let report = check_run(&mut sim, &h);
    report.assert_ok();

    // Complete delivery: every sent message reached every stack.
    let sent = report.checker.broadcast_count();
    assert!(sent > 200, "load generator too slow: {sent}");
    for id in sim.stack_ids() {
        assert_eq!(report.checker.delivery_count(id), sent, "stack {id}");
    }

    // Every stack applied exactly one switch and drained its undelivered
    // set (lines 15-16 of Algorithm 1 re-issued anything in flight).
    let layer = h.layer.unwrap();
    for id in sim.stack_ids() {
        let (sn, undelivered) = sim.with_stack(id, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| (m.seq_number(), m.undelivered_len()))
                .unwrap()
        });
        assert_eq!(sn, 1, "stack {id}");
        assert_eq!(undelivered, 0, "stack {id}");
    }
}

#[test]
fn latency_returns_to_normal_after_every_one_of_eight_replacements() {
    // Figure 5's claim, held to the eighth replacement as to the first:
    // n = 7, ct → ct every 500 ms under constant load. The mean latency
    // of messages sent after the last replacement is within 15 % of the
    // mean before the first, and no stack drags its replaced modules
    // along (at most the very last one, if its retirement is pending).
    const SWITCHES: u64 = 8;
    let (mut sim, h) = group_sim(SimConfig::lan(7, 42), &opts(SwitchLayer::Repl));
    sim.run_until(Time::ZERO + Dur::millis(500));
    let first = sim.now() + Dur::secs(1);
    let last = first + Dur::millis(500) * (SWITCHES - 1);
    let until = last + Dur::secs(1);
    drive_load(&mut sim, &h, 100.0, until);
    for k in 0..SWITCHES {
        let h = h.clone();
        sim.schedule(first + Dur::millis(500) * k, move |sim| {
            request_change(sim, StackId((k % 7) as u32), &h, &specs::ct(k + 1));
        });
    }
    sim.run_until(until + Dur::secs(6));
    check_run(&mut sim, &h).assert_ok();

    let (layer, probe) = (h.layer.unwrap(), h.probe.unwrap());
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for id in sim.stack_ids() {
        let (sn, recs) = sim.with_stack(id, |s| {
            let sn = s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).unwrap();
            let recs = s
                .with_module::<dpu_core::probe::Probe, _>(probe, |p| p.delivered().to_vec())
                .unwrap();
            (sn, recs)
        });
        assert_eq!(sn, SWITCHES, "stack {id}");
        for r in recs {
            if r.sent_at < first {
                before.push(r.latency().as_millis_f64());
            } else if r.sent_at >= last + Dur::millis(300) {
                after.push(r.latency().as_millis_f64());
            }
        }
        let stack = sim.stack(id);
        let bound = stack.bound(&dpu_protocols::ABCAST_SVC.into());
        let unbound = stack
            .modules()
            .filter(|(m, kind)| kind.starts_with("abcast.") && Some(*m) != bound)
            .count();
        assert!(unbound <= 1, "stack {id} still carries {unbound} replaced abcast modules");
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(before.len() > 100 && after.len() > 100, "{} / {}", before.len(), after.len());
    let drift = mean(&after) / mean(&before) - 1.0;
    assert!(
        drift.abs() <= 0.15,
        "mean latency {:.3} ms before the first replacement, {:.3} ms after the eighth ({:+.1} %)",
        mean(&before),
        mean(&after),
        drift * 100.0
    );
}

#[test]
fn application_is_never_blocked_by_algorithm_1() {
    // §5.3: "the application on top of the stack is never blocked". In
    // trace terms: no call on the application-facing service is ever
    // queued on an unbound binding.
    let (mut sim, h) = group_sim(SimConfig::lan(3, 7), &opts(SwitchLayer::Repl));
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(3);
    drive_load(&mut sim, &h, 60.0, until);
    let h2 = h.clone();
    sim.schedule_in(Dur::secs(1), move |sim| {
        request_change(sim, StackId(0), &h2, &specs::seq(1));
    });
    sim.run_until(until + Dur::secs(5));
    let trace = sim.merged_trace();
    let blocked_app_calls = trace
        .events()
        .filter(|(_, e)| {
            matches!(e, TraceEvent::BlockedCall { service, .. } if *service == h.top_service)
        })
        .count();
    assert_eq!(blocked_app_calls, 0, "application calls must never block");
}

#[test]
fn generic_dpu_properties_hold_on_traces() {
    let (mut sim, h) = group_sim(SimConfig::lan(3, 11), &opts(SwitchLayer::Repl));
    sim.run_until(Time::ZERO + Dur::millis(300));
    let until = sim.now() + Dur::secs(2);
    drive_load(&mut sim, &h, 40.0, until);
    let h2 = h.clone();
    sim.schedule_in(Dur::secs(1), move |sim| {
        request_change(sim, StackId(1), &h2, &specs::ct(1));
    });
    sim.run_until(until + Dur::secs(6));
    let trace = sim.merged_trace();

    let wf = props::check_stack_well_formedness(&trace);
    assert!(wf.weak, "weak stack-well-formedness: {:?}", wf.violations);

    // Protocol-operationability for the replaced protocol's modules: the
    // new incarnation (kind abcast.ct) appears on every stack.
    let stacks = sim.stack_ids();
    let op = props::check_protocol_operationability(&trace, "abcast.ct", &stacks);
    assert!(op.weak, "weak protocol-operationability: {:?}", op.violations);
    // And for the replacement module itself.
    let op = props::check_protocol_operationability(&trace, "repl.abcast", &stacks);
    assert!(op.weak, "repl layer operationability: {:?}", op.violations);
}

#[test]
fn replacement_layer_overhead_is_modest() {
    // §6.2 reports ≈5% for the Java implementation; we assert the same
    // order of magnitude: nonzero but well under 25% at moderate load.
    let run = |layer| {
        let (mut sim, h) = group_sim(SimConfig::lan(3, 13), &opts(layer));
        sim.run_until(Time::ZERO + Dur::millis(300));
        let until = sim.now() + Dur::secs(3);
        drive_load(&mut sim, &h, 60.0, until);
        sim.run_until(until + Dur::secs(5));
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        // Mean latency over all fully delivered messages.
        let mut sum = 0.0;
        let mut count = 0usize;
        for id in sim.stack_ids() {
            let probe = h.probe.unwrap();
            let recs = sim.with_stack(id, |s| {
                s.with_module::<dpu_core::probe::Probe, _>(probe, |p| p.delivered().to_vec())
                    .unwrap()
            });
            for r in recs {
                sum += r.latency().as_millis_f64();
                count += 1;
            }
        }
        sum / count as f64
    };
    let without = run(SwitchLayer::None);
    let with = run(SwitchLayer::Repl);
    let overhead = with / without - 1.0;
    assert!(overhead > 0.0, "indirection cannot be free");
    assert!(overhead < 0.25, "overhead {:.1}% too large", overhead * 100.0);
}

#[test]
fn double_indirection_also_works() {
    // Nothing in the model limits the indirection depth: wrap r-abcast
    // itself. (A structural sanity check of the composition model.)
    use dpu_core::{ModuleSpec, ServiceId};
    use dpu_repl::abcast_repl::ReplParams;
    let base = opts(SwitchLayer::Repl);
    let mut handles = None;
    let mut sim = dpu::sim::Sim::new(SimConfig::lan(3, 17), |sc| {
        let mut built = dpu::repl::builder::build(sc, &base);
        // Second replacement layer on top of the first.
        let params = ReplParams { service: "r-abcast".into() };
        let spec = ModuleSpec::with_params(dpu_repl::abcast_repl::KIND, &params);
        let outer = built.stack.install(&spec).expect("outer repl layer installs");
        built.stack.bind(&ServiceId::new("r-r-abcast"), outer);
        // Move the probe to the outer service.
        let probe = built.stack.add_module(Box::new(dpu_core::probe::Probe::new(
            ServiceId::new("r-r-abcast"),
            dpu_protocols::abcast::ops::ADELIVER,
            0,
        )));
        handles.get_or_insert((probe, built.handles.clone()));
        built.stack
    });
    let (probe, h) = handles.unwrap();
    sim.run_until(Time::ZERO + Dur::millis(300));
    let top = ServiceId::new("r-r-abcast");
    for node in 0..3u32 {
        let now = sim.now();
        sim.with_stack(StackId(node), |s| {
            let payload = s
                .with_module::<dpu_core::probe::Probe, _>(probe, |p| {
                    p.next_payload(StackId(node), now)
                })
                .unwrap();
            s.call_as(probe, &top, dpu_protocols::abcast::ops::ABCAST, payload);
        });
    }
    sim.run_until(Time::ZERO + Dur::secs(4));
    for node in 0..3u32 {
        let n = sim.with_stack(StackId(node), |s| {
            s.with_module::<dpu_core::probe::Probe, _>(probe, |p| p.delivered().len()).unwrap()
        });
        assert_eq!(n, 3, "stack {node} through double indirection");
    }
    let _ = h;
}
