//! The everything-at-once soak: seven stacks running the full Figure-4
//! architecture (probe + group membership with FD-driven auto-exclusion
//! on top of the replacement layer), under load, on a lossy network,
//! through two protocol switches and a crash. Every correctness property
//! the paper states must survive the combination.

use dpu::repl::builder::{
    check_run, drive_load, request_change, specs, GroupStackOpts, SwitchLayer,
};
use dpu::sim::{NetConfig, SimConfig, Topology};
use dpu_core::time::{Dur, Time};
use dpu_core::StackId;
use dpu_protocols::gm::{GmModule, GmParams, View};
use dpu_repl::abcast_repl::ReplAbcastModule;

#[test]
fn full_architecture_soak() {
    let mut sim_cfg = SimConfig::lan(7, 2006);
    sim_cfg.topology = Topology::flat(NetConfig::lossy(0.05));
    let opts = GroupStackOpts {
        abcast: specs::ct(0),
        layer: SwitchLayer::Repl,
        probe_pad: Some(24),
        with_gm: false, // we attach GM manually to enable auto_exclude
        extra_defaults: Vec::new(),
    };
    // Build stacks with an auto-excluding GM on the indirection service.
    let mut handles = None;
    let mut gm_id = None;
    let mut sim = dpu::sim::Sim::new(sim_cfg, |sc| {
        let mut built = dpu::repl::builder::build(sc, &opts);
        let gm = built.stack.add_module(Box::new(GmModule::new(GmParams {
            abcast: built.handles.top_service.name().to_string(),
            auto_exclude: true,
        })));
        built.stack.bind(&dpu_core::ServiceId::new(dpu_protocols::GM_SVC), gm);
        gm_id.get_or_insert(gm);
        handles.get_or_insert(built.handles.clone());
        built.stack
    });
    let h = handles.unwrap();
    let gm = gm_id.unwrap();

    // Timeline.
    sim.run_until(Time::ZERO + Dur::millis(500));
    let until = sim.now() + Dur::secs(6);
    drive_load(&mut sim, &h, 40.0, until);
    let h2 = h.clone();
    sim.schedule(Time::ZERO + Dur::secs(2), move |sim| {
        request_change(sim, StackId(1), &h2, &specs::seq(1));
    });
    let h3 = h.clone();
    sim.schedule(Time::ZERO + Dur::millis(3500), move |sim| {
        request_change(sim, StackId(4), &h3, &specs::ct(2));
    });
    sim.schedule(Time::ZERO + Dur::secs(5), |sim| {
        sim.crash_at(sim.now(), StackId(6));
    });
    sim.run_until(until + Dur::secs(25));

    // 1. The four atomic broadcast properties + weak well-formedness,
    //    across two switches, loss, and a crash.
    let report = check_run(&mut sim, &h);
    report.assert_ok();
    let sent = report.checker.broadcast_count();
    assert!(sent > 150, "load too low: {sent}");

    // 2. Every survivor applied both switches and drained.
    let layer = h.layer.unwrap();
    for id in (0..6).map(StackId) {
        let (sn, undelivered) = sim.with_stack(id, |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| (m.seq_number(), m.undelivered_len()))
                .unwrap()
        });
        assert_eq!(sn, 2, "{id} must have applied both switches");
        assert_eq!(undelivered, 0, "{id} must have no stuck messages");
    }

    // 3. GM auto-excluded the crashed stack, identically everywhere.
    let views: Vec<View> = (0..6)
        .map(|i| {
            sim.with_stack(StackId(i), |s| {
                s.with_module::<GmModule, _>(gm, |m| m.view().clone()).unwrap()
            })
        })
        .collect();
    for (i, v) in views.iter().enumerate() {
        assert_eq!(v, &views[0], "stack {i} view diverged");
    }
    assert!(
        !views[0].members.contains(&StackId(6)),
        "crashed stack must be auto-excluded: {:?}",
        views[0]
    );
    assert_eq!(views[0].members.len(), 6);

    // 4. Network faults actually happened (the run was adversarial).
    assert!(sim.stats().packets_dropped() > 100, "loss model must have fired heavily");

    // 5. The final protocol is the second switch target everywhere.
    for id in (0..6).map(StackId) {
        let bound = sim
            .stack(id)
            .bound(&dpu_core::ServiceId::new(dpu_protocols::ABCAST_SVC))
            .expect("abcast bound");
        assert_eq!(sim.stack(id).module_kind(bound), Some("abcast.ct"), "{id}");
    }
}
