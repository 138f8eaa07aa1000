//! Construction of the paper's Figure-4 group communication stack, and a
//! simulation harness around it.
//!
//! [`build`] assembles one stack:
//!
//! ```text
//!        Probe (application)        GM (optional)
//!                 \                  /
//!                  r-abcast  ◀── switch layer (Repl / Maestro / Graceful)
//!                      │                 (or none: probe sits on abcast)
//!                   abcast   ◀── abcast.ct | abcast.seq | abcast.ring
//!                   /    \
//!            consensus   rp2p
//!               /  \       │
//!             fd   rp2p   udp
//!              \    │      │
//!               udp └──────┤
//!                │         │
//!               net (host boundary)
//! ```
//!
//! [`group`] instantiates `n` such stacks on any host — a deterministic
//! simulation ([`group_sim`] for short), the sharded live runtime, the
//! real-socket reactor: same stacks, the paper's host-agnosticism claim
//! in one call. What drives a built group is written once too, over
//! [`Host`]: [`send_probe`] and [`request_change`] take `&mut Sim`,
//! `&Runtime` or `&Reactor` alike.
//! [`drive_load`] generates the paper's constant-rate workload;
//! [`check_run`] applies the generic DPU properties (§3) and the four
//! atomic broadcast properties (§5.1) to a finished simulation run.

use crate::abcast_repl::{ReplAbcastModule, ReplParams};
use crate::graceful::GracefulSwitcher;
use crate::maestro::MaestroSwitcher;
use dpu_core::abcast_check::AbcastChecker;
use dpu_core::host::Host;
use dpu_core::probe::Probe;
use dpu_core::props;
use dpu_core::time::{Dur, Time};
use dpu_core::{
    Chain, FactoryRegistry, Module, ModuleId, ModuleSpec, ServiceId, Stack, StackConfig, StackId,
    TraceLog,
};
use dpu_net::rp2p::Rp2pModule;
use dpu_net::udp::UdpModule;
use dpu_protocols::abcast::ct::CtAbcastModule;
use dpu_protocols::abcast::hier::HierAbcastModule;
use dpu_protocols::abcast::ops as ab_ops;
use dpu_protocols::abcast::ring::RingAbcastModule;
use dpu_protocols::abcast::sequencer::SeqAbcastModule;
use dpu_protocols::consensus::ConsensusModule;
use dpu_protocols::fd::FdModule;
use dpu_protocols::gm::{GmModule, GmParams};
use dpu_sim::{Sim, SimConfig};

/// Ready-made [`ModuleSpec`]s for the protocols of the workspace, with
/// fresh incarnation namespaces. Used by benchmarks, examples and tests.
pub mod specs {
    use dpu_core::ModuleSpec;
    use dpu_protocols::abcast::ct::{CtAbcastParams, KIND as CT_KIND};
    use dpu_protocols::abcast::hier::{HierAbcastParams, KIND as HIER_KIND};
    use dpu_protocols::abcast::ring::{RingAbcastParams, KIND as RING_KIND};
    use dpu_protocols::abcast::sequencer::{SeqAbcastParams, KIND as SEQ_KIND};
    use dpu_protocols::consensus::{ConsensusParams, KIND_OFFSET};

    /// Consensus-based atomic broadcast with incarnation `ns`.
    pub fn ct(ns: u64) -> ModuleSpec {
        ModuleSpec::with_params(
            CT_KIND,
            &CtAbcastParams { namespace: ns, ..CtAbcastParams::default() },
        )
    }

    /// Consensus-based atomic broadcast bound to a specific consensus
    /// service — the consensus-replacement experiment's switch target.
    pub fn ct_with_consensus(ns: u64, consensus: &str) -> ModuleSpec {
        ModuleSpec::with_params(
            CT_KIND,
            &CtAbcastParams {
                namespace: ns,
                consensus: consensus.to_string(),
                ..CtAbcastParams::default()
            },
        )
    }

    /// Fixed-sequencer atomic broadcast with incarnation `ns`.
    pub fn seq(ns: u64) -> ModuleSpec {
        seq_in(ns, dpu_protocols::ABCAST_SVC)
    }

    /// Fixed-sequencer atomic broadcast providing a specific service
    /// (Graceful Adaptation targets must provide the inactive slot).
    pub fn seq_in(ns: u64, service: &str) -> ModuleSpec {
        ModuleSpec::with_params(
            SEQ_KIND,
            &SeqAbcastParams { namespace: ns, service: service.to_string() },
        )
    }

    /// Token-ring atomic broadcast with incarnation `ns`.
    pub fn ring(ns: u64) -> ModuleSpec {
        ModuleSpec::with_params(RING_KIND, &RingAbcastParams { namespace: ns })
    }

    /// Hierarchical (per-cluster sequencer) atomic broadcast with
    /// incarnation `ns`; cluster membership derives from the host.
    pub fn hier(ns: u64) -> ModuleSpec {
        ModuleSpec::with_params(
            HIER_KIND,
            &HierAbcastParams { namespace: ns, ..HierAbcastParams::default() },
        )
    }

    /// Instance-offset consensus providing `service` with wire
    /// incarnation `inc`.
    pub fn consensus_offset(service: &str, inc: u64) -> ModuleSpec {
        ModuleSpec::with_params(
            KIND_OFFSET,
            &ConsensusParams { service: service.to_string(), incarnation: inc },
        )
    }
}

/// A factory registry with every module kind of the workspace registered.
pub fn registry() -> FactoryRegistry {
    let mut reg = FactoryRegistry::new();
    UdpModule::register(&mut reg);
    Rp2pModule::register(&mut reg);
    FdModule::register(&mut reg);
    ConsensusModule::register(&mut reg);
    CtAbcastModule::register(&mut reg);
    SeqAbcastModule::register(&mut reg);
    RingAbcastModule::register(&mut reg);
    HierAbcastModule::register(&mut reg);
    ReplAbcastModule::register(&mut reg);
    MaestroSwitcher::register(&mut reg);
    GracefulSwitcher::register(&mut reg);
    GmModule::register(&mut reg);
    dpu_protocols::rb::RbModule::register(&mut reg);
    reg
}

/// Which dynamic-update layer (if any) to interpose between the
/// application and atomic broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchLayer {
    /// No layer: the probe calls `abcast` directly (the paper's "normal,
    /// without replacement layer" configuration).
    None,
    /// The paper's replacement module (Algorithm 1).
    Repl,
    /// Maestro-style whole-stack switcher baseline.
    Maestro,
    /// Graceful-Adaptation-style AAC switcher baseline.
    Graceful,
}

/// Options for [`build`].
#[derive(Clone, Debug)]
pub struct GroupStackOpts {
    /// Spec of the initial atomic broadcast module.
    pub abcast: ModuleSpec,
    /// Which switch layer to interpose.
    pub layer: SwitchLayer,
    /// Attach a measurement probe with this much payload padding.
    pub probe_pad: Option<usize>,
    /// Attach a group membership module on top of the (possibly wrapped)
    /// broadcast service.
    pub with_gm: bool,
    /// Extra `(service, spec)` default providers, e.g. a second consensus
    /// service for the consensus-replacement experiment.
    pub extra_defaults: Vec<(String, ModuleSpec)>,
}

impl Default for GroupStackOpts {
    fn default() -> Self {
        GroupStackOpts {
            abcast: ModuleSpec::new(dpu_protocols::abcast::ct::KIND),
            layer: SwitchLayer::Repl,
            probe_pad: Some(0),
            with_gm: false,
            extra_defaults: Vec::new(),
        }
    }
}

/// Module handles of a built stack. Construction is deterministic, so the
/// handles are identical on every stack of a group.
#[derive(Clone, Debug)]
pub struct Handles {
    /// The service the application talks to (`r-abcast` with a layer,
    /// `abcast` without).
    pub top_service: ServiceId,
    /// The probe module, if requested.
    pub probe: Option<ModuleId>,
    /// The switch layer module, if any.
    pub layer: Option<ModuleId>,
    /// The group membership module, if requested.
    pub gm: Option<ModuleId>,
    /// The initial atomic broadcast module.
    pub abcast: ModuleId,
}

/// A stack built by [`build`].
pub struct BuiltStack {
    /// The assembled stack.
    pub stack: Stack,
    /// Module handles.
    pub handles: Handles,
}

/// The module catalogue of a group built per `opts`: every kind of the
/// workspace, and the default providers Algorithm 1 creates below the
/// broadcast — the standard four and `opts.extra_defaults`.
fn catalogue(opts: &GroupStackOpts) -> FactoryRegistry {
    let mut reg = registry();
    reg.set_default(ServiceId::new(dpu_net::UDP_SVC), ModuleSpec::new("udp"));
    reg.set_default(ServiceId::new(dpu_net::RP2P_SVC), ModuleSpec::new("rp2p"));
    reg.set_default(ServiceId::new(dpu_protocols::FD_SVC), ModuleSpec::new("fd"));
    reg.set_default(
        ServiceId::new(dpu_protocols::CONSENSUS_SVC),
        ModuleSpec::new(dpu_protocols::consensus::KIND_CT),
    );
    for (svc, spec) in &opts.extra_defaults {
        reg.set_default(ServiceId::new(svc), spec.clone());
    }
    reg
}

/// Assemble one group communication stack per `opts`, with a catalogue
/// of its own ([`group`] shares one among its stacks).
pub fn build(sc: StackConfig, opts: &GroupStackOpts) -> BuiltStack {
    build_in(sc, opts, catalogue(opts))
}

/// [`build`] over `catalogue`, which must be `catalogue(opts)` or a
/// clone of it.
fn build_in(sc: StackConfig, opts: &GroupStackOpts, catalogue: FactoryRegistry) -> BuiltStack {
    let mut stack = Stack::new(sc, catalogue);
    let abcast_svc = ServiceId::new(dpu_protocols::ABCAST_SVC);
    let abcast = stack.install(&opts.abcast).expect("install abcast");

    let module: Option<Box<dyn Module>> = match opts.layer {
        SwitchLayer::None => None,
        SwitchLayer::Repl => Some(Box::new(ReplAbcastModule::new(ReplParams::default()))),
        SwitchLayer::Maestro => Some(Box::new(MaestroSwitcher::new())),
        SwitchLayer::Graceful => Some(Box::new(GracefulSwitcher::new())),
    };
    let layer = module.map(|module| {
        let m = stack.add_module(module);
        stack.bind(&abcast_svc.replaced(), m);
        m
    });
    let top_service = if layer.is_some() { abcast_svc.replaced() } else { abcast_svc };

    let probe = opts
        .probe_pad
        .map(|pad| stack.add_module(Box::new(Probe::new(top_service, ab_ops::ADELIVER, pad))));

    let gm = if opts.with_gm {
        let m = stack.add_module(Box::new(GmModule::new(GmParams {
            abcast: top_service.name().to_string(),
            auto_exclude: false,
        })));
        stack.bind(&ServiceId::new(dpu_protocols::GM_SVC), m);
        Some(m)
    } else {
        None
    };

    BuiltStack { stack, handles: Handles { top_service, probe, layer, gm, abcast } }
}

/// Instantiate a group of identical stacks (per `opts`) on any host:
/// `spawn` is handed the `mk_stack` closure every host constructor
/// takes (`Sim::new`, `Runtime::spawn`, `Reactor::spawn`) and returns
/// whatever that constructor returns.
///
/// ```ignore
/// let (rt, h) = group(&opts, |mk| Runtime::spawn(RuntimeConfig::new(3), mk));
/// let (r, h) = group(&opts, |mk| Reactor::spawn(cfg, mk));   // r: io::Result<Reactor>
/// ```
///
/// The returned [`Handles`] are the first built stack's (construction
/// is deterministic, so they are identical on every stack of a group,
/// whichever process hosts it). The stacks share one module catalogue,
/// as Algorithm 1's `create_module` assumes: one table of "a module q
/// providing service s" for the whole group.
pub fn group<T>(
    opts: &GroupStackOpts,
    spawn: impl FnOnce(&mut dyn FnMut(StackConfig) -> Stack) -> T,
) -> (T, Handles) {
    let catalogue = catalogue(opts);
    let mut handles = None;
    let host = spawn(&mut |sc| {
        let built = build_in(sc, opts, catalogue.clone());
        handles.get_or_insert(built.handles);
        built.stack
    });
    // A constructor that failed before building a stack reports its own
    // error through `T`; the handles then come from a scratch build.
    let handles =
        handles.unwrap_or_else(|| build_in(StackConfig::nth(0, 1, 0), opts, catalogue).handles);
    (host, handles)
}

/// [`group`] on a deterministic simulation.
pub fn group_sim(sim_cfg: SimConfig, opts: &GroupStackOpts) -> (Sim, Handles) {
    group(opts, |mk| Sim::new(sim_cfg, mk))
}

/// Send one probe message from `node`, stamped with the host's current
/// time (virtual on the simulator, wall clock on the live hosts).
pub fn send_probe(mut host: impl Host, node: StackId, h: &Handles) {
    let Some(probe) = h.probe else { return };
    let top = h.top_service;
    let now = host.now();
    host.with_stack(node, move |s| {
        let payload =
            s.with_module::<Probe, _>(probe, |p| p.next_payload(node, now)).expect("probe present");
        s.call_as(probe, &top, ab_ops::ABCAST, payload);
    });
}

/// Assert that all of `nodes` delivered the same probe messages in the
/// same order, by comparing the `(count, head)` each probe folded as it
/// delivered ([`Probe::order_head`]) — O(1) per stack, whichever host or
/// OS process serves it. Only on a mismatch are the two delivery logs
/// read, to say where they part. Returns the common head.
pub fn assert_one_delivery_order<H: Host>(
    host_of: impl Fn(StackId) -> H,
    h: &Handles,
    nodes: impl IntoIterator<Item = StackId>,
) -> Chain {
    let probe = h.probe.expect("assert_one_delivery_order requires a probe");
    let head = |id: StackId| {
        host_of(id).with_stack(id, move |s| {
            s.with_module::<Probe, _>(probe, |p| p.order_head()).expect("probe present")
        })
    };
    let log = |id: StackId| {
        host_of(id).with_stack(id, move |s| {
            s.with_module::<Probe, _>(probe, |p| {
                p.delivered().iter().map(|r| r.msg).collect::<Vec<_>>()
            })
            .expect("probe present")
        })
    };
    let mut nodes = nodes.into_iter();
    let first = nodes.next().expect("at least one stack");
    let reference = head(first);
    for id in nodes {
        let other = head(id);
        if other != reference {
            assert_eq!(log(id), log(first), "{id} and {first} diverged from one total order");
            panic!("{id} and {first} diverged: {other:?} vs {reference:?} (records drained?)");
        }
    }
    reference
}

/// Request a protocol change from `node` (the paper's
/// `changeABcast(prot)`): delivered to the switch layer on the top
/// service, in the probe's name.
pub fn request_change(mut host: impl Host, node: StackId, h: &Handles, new_spec: &ModuleSpec) {
    let Some(probe) = h.probe else {
        panic!("request_change requires a probe");
    };
    let top = h.top_service;
    let data = dpu_core::wire::to_bytes(new_spec);
    host.with_stack(node, move |s| s.call_as(probe, &top, crate::CHANGE_OP, data));
}

/// What switching cost one stack beyond the broadcasts themselves: the
/// time its application spent blocked, and the point-to-point
/// coordination messages it sent. Both are zero under Algorithm 1, whose
/// switch rides the total order.
pub fn switch_cost(stack: &mut Stack, h: &Handles) -> (Dur, u64) {
    let Some(layer) = h.layer else { return (Dur::ZERO, 0) };
    stack
        .with_module::<MaestroSwitcher, _>(layer, |m| (m.total_blocked(), m.coord_msgs()))
        .or_else(|| {
            stack.with_module::<GracefulSwitcher, _>(layer, |m| (m.total_blocked(), m.coord_msgs()))
        })
        .unwrap_or((Dur::ZERO, 0))
}

/// An [`dpu_sim::workload::InjectFn`] that broadcasts one probe message
/// (the workload subsystem's bridge to the Figure-4 stack).
pub(crate) fn probe_inject(h: &Handles) -> dpu_sim::workload::InjectFn {
    let h = h.clone();
    Box::new(move |sim, node| send_probe(sim, node, &h))
}

/// Open-loop Poisson probe load at `rate_per_sec` aggregate
/// messages/second across all stacks, until `until`. Returns the
/// workload's index into [`dpu_sim::SimStats::workloads`].
pub fn drive_poisson(sim: &mut Sim, h: &Handles, rate_per_sec: f64, until: Time) -> usize {
    let nodes = sim.stack_ids();
    dpu_sim::workload::install(
        sim,
        "poisson",
        nodes,
        until,
        dpu_sim::workload::Generator::Poisson { rate: rate_per_sec, inject: probe_inject(h) },
    )
}

/// Bursty (inhomogeneous Poisson) probe load: `base`/`burst` aggregate
/// rates alternating each `period` with the given burst `duty` fraction.
pub fn drive_bursty(
    sim: &mut Sim,
    h: &Handles,
    base: f64,
    burst: f64,
    period: Dur,
    duty: f64,
    until: Time,
) -> usize {
    let nodes = sim.stack_ids();
    dpu_sim::workload::install(
        sim,
        "bursty",
        nodes,
        until,
        dpu_sim::workload::Generator::Bursty { base, burst, period, duty, inject: probe_inject(h) },
    )
}

/// Generate a constant aggregate load of `rate_per_sec` messages/second,
/// spread round-robin over all stacks, from `sim.now()` until `until`.
pub fn drive_load(sim: &mut Sim, h: &Handles, rate_per_sec: f64, until: Time) {
    let n = sim.n();
    let interval = Dur::secs_f64(n as f64 / rate_per_sec);
    for node in 0..n {
        let offset = Dur::nanos(interval.as_nanos() * u64::from(node) / u64::from(n));
        let h = h.clone();
        sim.schedule_in(offset, move |sim| load_tick(sim, StackId(node), h, interval, until));
    }
}

fn load_tick(sim: &mut Sim, node: StackId, h: Handles, interval: Dur, until: Time) {
    if sim.now() > until || sim.stack(node).is_crashed() {
        return;
    }
    send_probe(&mut *sim, node, &h);
    sim.schedule_in(interval, move |sim| load_tick(sim, node, h, interval, until));
}

/// Outcome of [`check_run`].
pub struct RunReport {
    /// The atomic broadcast property checker, already populated.
    pub checker: AbcastChecker,
    /// Stack-well-formedness assessment.
    pub wellformed: props::Assessment,
    /// The merged trace it was assessed on (taken from the stacks), for
    /// [`props::check_protocol_operationability`] of whichever kinds the
    /// run switched between.
    pub trace: TraceLog,
}

impl RunReport {
    /// Panic if any checked property is violated.
    pub fn assert_ok(&self) {
        self.checker.assert_ok();
        assert!(
            self.wellformed.weak,
            "weak stack-well-formedness violated: {:?}",
            self.wellformed.violations
        );
    }
}

/// Collect probe records and traces from a finished run and check the
/// paper's correctness properties.
pub fn check_run(sim: &mut Sim, h: &Handles) -> RunReport {
    let ids = sim.stack_ids();
    let mut checker = AbcastChecker::new(ids.iter().copied());
    let Some(probe) = h.probe else {
        panic!("check_run requires a probe");
    };
    for &id in &ids {
        if sim.stack(id).is_crashed() {
            // A crashed stack is exempt from liveness obligations, but
            // its broadcasts and pre-crash deliveries still count for
            // the uniform properties.
            checker.record_crash(id);
        }
        let (sent, delivered) = sim.with_stack(id, |s| {
            s.with_module::<Probe, _>(probe, |p| (p.sent().to_vec(), p.delivered().to_vec()))
                .expect("probe present")
        });
        for (msg, t) in sent {
            checker.record_broadcast(msg, id, t);
        }
        for rec in delivered {
            checker.record_delivery(rec.msg, id, rec.delivered_at);
        }
    }
    let trace = sim.merged_trace();
    let wellformed = props::check_stack_well_formedness(&trace);
    RunReport { checker, wellformed, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abcast_repl::ReplAbcastModule;
    use dpu_core::trace::TraceEvent;
    use dpu_protocols::abcast::ct::{CtAbcastParams, KIND as CT_KIND};
    use dpu_protocols::abcast::ring::{RingAbcastParams, KIND as RING_KIND};
    use dpu_protocols::abcast::sequencer::{SeqAbcastParams, KIND as SEQ_KIND};

    fn ct_spec(namespace: u64) -> ModuleSpec {
        ModuleSpec::with_params(CT_KIND, &CtAbcastParams { namespace, ..CtAbcastParams::default() })
    }

    fn seq_spec(namespace: u64, service: &str) -> ModuleSpec {
        ModuleSpec::with_params(
            SEQ_KIND,
            &SeqAbcastParams { namespace, service: service.to_string() },
        )
    }

    fn ring_spec(namespace: u64) -> ModuleSpec {
        ModuleSpec::with_params(RING_KIND, &RingAbcastParams { namespace })
    }

    fn run_with_switch(
        layer: SwitchLayer,
        initial: ModuleSpec,
        new_spec: ModuleSpec,
        n: u32,
        seed: u64,
    ) -> (Sim, Handles) {
        run_with_switch_on(SimConfig::lan(n, seed), layer, initial, new_spec)
    }

    fn run_with_switch_on(
        cfg: SimConfig,
        layer: SwitchLayer,
        initial: ModuleSpec,
        new_spec: ModuleSpec,
    ) -> (Sim, Handles) {
        let n = cfg.n;
        let opts = GroupStackOpts { abcast: initial, layer, ..Default::default() };
        let (mut sim, h) = group_sim(cfg, &opts);
        sim.run_until(Time::ZERO + Dur::millis(200));
        // Phase 1: messages before the switch.
        for i in 0..n {
            send_probe(&mut sim, StackId(i), &h);
        }
        sim.run_until(Time::ZERO + Dur::secs(2));
        // The switch, from stack 1 (any stack may initiate).
        request_change(&mut sim, StackId(1 % n), &h, &new_spec);
        // Phase 2: messages racing the switch.
        for i in 0..n {
            send_probe(&mut sim, StackId(i), &h);
        }
        sim.run_until(Time::ZERO + Dur::secs(6));
        // Phase 3: messages after the switch.
        for i in 0..n {
            send_probe(&mut sim, StackId(i), &h);
        }
        sim.run_until(Time::ZERO + Dur::secs(12));
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        // Everything sent must have been delivered everywhere.
        for id in sim.stack_ids() {
            assert_eq!(
                report.checker.delivery_count(id),
                3 * n as usize,
                "stack {id} missed deliveries"
            );
        }
        (sim, h)
    }

    /// Switches `id`'s timeline has seen through to a first delivery.
    fn completed_switches(sim: &Sim, id: StackId) -> u64 {
        sim.stack(id).telemetry().state().expect("always on").switches.completed()
    }

    #[test]
    fn repl_replaces_ct_by_ct_like_the_paper() {
        // §6.2: "we replace the Chandra-Toueg ABcast protocol by the same
        // protocol, while performing all steps of the replacement
        // algorithm".
        let (mut sim, h) = run_with_switch(SwitchLayer::Repl, ct_spec(0), ct_spec(1), 3, 42);
        let layer = h.layer.unwrap();
        for id in sim.stack_ids() {
            let (sn, switches, undeliv) = sim.with_stack(id, |s| {
                s.with_module::<ReplAbcastModule, _>(layer, |m| {
                    (m.seq_number(), m.switch_times().len(), m.undelivered_len())
                })
                .unwrap()
            });
            assert_eq!(sn, 1, "{id} must have bumped seqNumber");
            assert_eq!(switches, 1);
            assert_eq!(undeliv, 0, "{id} must have no stuck messages");
        }
    }

    #[test]
    fn repl_switches_ct_to_sequencer() {
        run_with_switch(
            SwitchLayer::Repl,
            ct_spec(0),
            seq_spec(1, dpu_protocols::ABCAST_SVC),
            3,
            7,
        );
    }

    #[test]
    fn repl_switches_sequencer_to_ring() {
        run_with_switch(
            SwitchLayer::Repl,
            seq_spec(0, dpu_protocols::ABCAST_SVC),
            ring_spec(1),
            3,
            9,
        );
    }

    #[test]
    fn repl_switch_with_seven_stacks() {
        run_with_switch(SwitchLayer::Repl, ct_spec(0), ct_spec(1), 7, 11);
    }

    #[test]
    fn repl_switches_sequencer_to_hier_on_flat_host() {
        // Flat LAN: hier degenerates to a single cluster and must still
        // interchange cleanly with the flat sequencer.
        run_with_switch(
            SwitchLayer::Repl,
            seq_spec(0, dpu_protocols::ABCAST_SVC),
            specs::hier(1),
            3,
            15,
        );
    }

    #[test]
    fn repl_switches_hier_to_ct_on_clustered_topology() {
        use dpu_sim::NetConfig;
        let cfg = SimConfig::clustered(6, 17, 3, NetConfig::datacenter(), NetConfig::lan());
        run_with_switch_on(cfg, SwitchLayer::Repl, specs::hier(0), ct_spec(1));
    }

    #[test]
    fn repl_switches_ct_to_hier_on_clustered_topology() {
        use dpu_sim::NetConfig;
        let cfg = SimConfig::clustered(6, 19, 3, NetConfig::datacenter(), NetConfig::lan());
        run_with_switch_on(cfg, SwitchLayer::Repl, ct_spec(0), specs::hier(1));
    }

    #[test]
    fn maestro_switch_blocks_the_application() {
        let (mut sim, h) = run_with_switch(SwitchLayer::Maestro, ct_spec(0), ct_spec(1), 3, 5);
        for id in sim.stack_ids() {
            let (blocked, _) = sim.with_stack(id, |s| switch_cost(s, &h));
            assert_eq!(completed_switches(&sim, id), 1, "{id}");
            assert!(
                blocked > Dur::ZERO,
                "{id}: Maestro must have blocked the application, got {blocked}"
            );
        }
    }

    #[test]
    fn graceful_switch_via_alternate_slot() {
        // GA's restriction: the new AAC must provide the pre-declared
        // alternative slot.
        let (mut sim, h) =
            run_with_switch(SwitchLayer::Graceful, ct_spec(0), seq_spec(1, "abcast.alt"), 3, 13);
        for id in sim.stack_ids() {
            let (_, msgs) = sim.with_stack(id, |s| switch_cost(s, &h));
            assert_eq!(completed_switches(&sim, id), 1, "{id}");
            // Three barrier phases cost coordination messages on every
            // stack (replies) and extra on the coordinator.
            assert!(msgs >= 2, "{id} sent only {msgs} coordination messages");
        }
    }

    #[test]
    fn graceful_slots_alternate_across_two_switches() {
        // GA's pre-declared AAC slots: the first switch targets
        // "abcast.alt", the second must target "abcast" again.
        let opts = GroupStackOpts { layer: SwitchLayer::Graceful, ..Default::default() };
        let (mut sim, h) = group_sim(SimConfig::lan(3, 53), &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        send_probe(&mut sim, StackId(0), &h);
        sim.run_until(Time::ZERO + Dur::secs(2));
        // Switch 1: into the alternate slot.
        request_change(&mut sim, StackId(0), &h, &seq_spec(1, "abcast.alt"));
        sim.run_until(Time::ZERO + Dur::secs(5));
        let alt = sim.with_stack(StackId(0), |s| {
            let m = s.bound(&ServiceId::new("abcast.alt")).expect("the alternate slot is bound");
            s.module_kind(m).map(str::to_string)
        });
        assert_eq!(alt.as_deref(), Some(SEQ_KIND), "switch 1 went into the alternate slot");
        send_probe(&mut sim, StackId(1), &h);
        sim.run_until(Time::ZERO + Dur::secs(7));
        // Switch 2: back into the original slot.
        request_change(&mut sim, StackId(1), &h, &ct_spec(2));
        sim.run_until(Time::ZERO + Dur::secs(11));
        send_probe(&mut sim, StackId(2), &h);
        sim.run_until(Time::ZERO + Dur::secs(16));
        for id in sim.stack_ids() {
            assert_eq!(completed_switches(&sim, id), 2, "{id}");
        }
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        for id in sim.stack_ids() {
            assert_eq!(report.checker.delivery_count(id), 3, "{id}");
        }
    }

    /// A Graceful group of mixed builds: stacks 0 and 1 know a kind
    /// stack 2 lacks. The switch to it goes through on 0 and 1; stack 2
    /// refuses it at phase 1, keeps the old protocol in service at
    /// phase 3 and reports no activation, in its timeline or in its
    /// flight recorder.
    #[test]
    fn graceful_activates_nothing_where_the_install_was_refused() {
        const NEWER: &str = "abcast.seq.newer";
        let opts = GroupStackOpts { layer: SwitchLayer::Graceful, ..Default::default() };
        let older = catalogue(&opts);
        let mut newer = older.clone();
        newer.register_with(NEWER, SeqAbcastModule::new);
        let mut handles = None;
        let mut sim = Sim::new(SimConfig::lan(3, 13), |sc| {
            let catalogue = if sc.id == StackId(2) { &older } else { &newer };
            let built = build_in(sc, &opts, catalogue.clone());
            handles.get_or_insert(built.handles);
            built.stack
        });
        let h = handles.expect("three stacks built");
        sim.run_until(Time::ZERO + Dur::millis(300));
        let params = SeqAbcastParams { namespace: 1, service: "abcast.alt".into() };
        request_change(&mut sim, StackId(0), &h, &ModuleSpec::with_params(NEWER, &params));
        sim.run_until(Time::ZERO + Dur::secs(3));
        send_probe(&mut sim, StackId(0), &h);
        sim.run_until(Time::ZERO + Dur::secs(5));
        let (alt, abcast) = (ServiceId::new("abcast.alt"), ServiceId::new("abcast"));
        for id in sim.stack_ids() {
            let refused = id == StackId(2);
            let stack = sim.stack(id);
            let mut dump = String::new();
            stack.telemetry().dump_flight("", &mut dump);
            let count = |event| dump.matches(event).count();
            assert_eq!(count("switch-refused"), usize::from(refused), "{id}: {dump}");
            assert_eq!(count("switch-activated"), usize::from(!refused), "{id}: {dump}");
            let timeline = &stack.telemetry().state().expect("always on").switches;
            assert_eq!(timeline.completed(), u64::from(!refused), "{id}");
            let open = timeline.pending().map(|r| r.activated_ns);
            assert_eq!(open, refused.then_some(u64::MAX), "{id}: requested, never activated");
            assert_eq!(stack.bound(&alt).is_some(), !refused, "{id}");
            let kind = stack.bound(&abcast).and_then(|m| stack.module_kind(m));
            assert_eq!(kind, refused.then_some(CT_KIND), "{id}: the old protocol serves");
        }
    }

    #[test]
    fn group_on_the_runtime_yields_the_same_handles_as_group_sim() {
        use dpu_runtime::{Runtime, RuntimeConfig};
        let opts = GroupStackOpts::default();
        let (rt, h_rt) =
            group(&opts, |mk| Runtime::spawn(RuntimeConfig::new(3).with_shards(2), mk));
        let (_, h_sim) = group_sim(SimConfig::lan(3, 1), &opts);
        assert_eq!(h_rt.top_service, h_sim.top_service);
        assert_eq!(h_rt.probe, h_sim.probe);
        assert_eq!(h_rt.layer, h_sim.layer);
        assert_eq!(h_rt.abcast, h_sim.abcast);
        let stacks = rt.shutdown();
        assert_eq!(stacks.len(), 3);
    }

    #[test]
    fn no_layer_configuration_works_without_switching() {
        let opts = GroupStackOpts { layer: SwitchLayer::None, ..Default::default() };
        let (mut sim, h) = group_sim(SimConfig::lan(3, 3), &opts);
        assert_eq!(h.top_service, ServiceId::new("abcast"));
        sim.run_until(Time::ZERO + Dur::millis(200));
        for i in 0..3 {
            send_probe(&mut sim, StackId(i), &h);
        }
        sim.run_until(Time::ZERO + Dur::secs(5));
        check_run(&mut sim, &h).assert_ok();
    }

    #[test]
    fn drive_load_generates_the_requested_rate() {
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 17), &opts);
        sim.run_until(Time::ZERO + Dur::millis(100));
        let until = sim.now() + Dur::secs(2);
        drive_load(&mut sim, &h, 90.0, until);
        sim.run_until(until + Dur::secs(4));
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        let total = report.checker.broadcast_count();
        // 90 msg/s for 2 s ≈ 180 messages (±1 per stack for edge ticks).
        assert!((174..=186).contains(&total), "sent {total} messages");
    }

    #[test]
    fn switch_under_load_loses_nothing() {
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 23), &opts);
        sim.run_until(Time::ZERO + Dur::millis(100));
        let until = sim.now() + Dur::secs(4);
        drive_load(&mut sim, &h, 60.0, until);
        let h2 = h.clone();
        sim.schedule_in(Dur::secs(2), move |sim| {
            request_change(sim, StackId(0), &h2, &ct_spec(1));
        });
        sim.run_until(until + Dur::secs(8));
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        let sent = report.checker.broadcast_count();
        for id in sim.stack_ids() {
            assert_eq!(report.checker.delivery_count(id), sent, "stack {id}");
        }
    }

    #[test]
    fn gm_keeps_working_across_a_switch() {
        use dpu_protocols::gm::{ops as gm_ops, GmModule, GmOp, View};
        let opts = GroupStackOpts { with_gm: true, ..Default::default() };
        let (mut sim, h) = group_sim(SimConfig::lan(3, 31), &opts);
        let gm = h.gm.unwrap();
        sim.run_until(Time::ZERO + Dur::millis(200));
        // Request a view change, then switch protocols, then another view
        // change; GM must install both views identically everywhere.
        sim.with_stack(StackId(0), |s| {
            s.call_as(
                gm,
                &ServiceId::new(dpu_protocols::GM_SVC),
                gm_ops::REQUEST,
                dpu_core::wire::to_bytes(&GmOp::Leave(StackId(2))),
            )
        });
        sim.run_until(Time::ZERO + Dur::secs(3));
        request_change(&mut sim, StackId(0), &h, &ct_spec(1));
        sim.run_until(Time::ZERO + Dur::secs(6));
        sim.with_stack(StackId(1), |s| {
            s.call_as(
                gm,
                &ServiceId::new(dpu_protocols::GM_SVC),
                gm_ops::REQUEST,
                dpu_core::wire::to_bytes(&GmOp::Join(StackId(2))),
            )
        });
        sim.run_until(Time::ZERO + Dur::secs(12));
        let views: Vec<View> = sim
            .stack_ids()
            .into_iter()
            .map(|id| {
                sim.with_stack(id, |s| {
                    s.with_module::<GmModule, _>(gm, |m| m.view().clone()).unwrap()
                })
            })
            .collect();
        assert_eq!(views[0].id, 2, "two view changes must have been applied");
        assert_eq!(views[0].members, vec![StackId(0), StackId(1), StackId(2)]);
        assert_eq!(views[1], views[0]);
        assert_eq!(views[2], views[0]);
    }

    #[test]
    fn concurrent_change_requests_resolve_to_one_switch() {
        // Two stacks request a change at the same instant. Both requests
        // ride the old protocol's total order: the first one ordered
        // wins; the second arrives with a stale sn and is discarded
        // identically on every stack (the line-10 guard).
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 41), &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        request_change(&mut sim, StackId(0), &h, &ct_spec(1));
        request_change(&mut sim, StackId(2), &h, &seq_spec(2, dpu_protocols::ABCAST_SVC));
        for i in 0..3 {
            send_probe(&mut sim, StackId(i), &h);
        }
        sim.run_until(Time::ZERO + Dur::secs(8));
        let layer = h.layer.unwrap();
        let mut kinds = Vec::new();
        for id in sim.stack_ids() {
            let sn = sim.with_stack(id, |s| {
                s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).unwrap()
            });
            assert_eq!(sn, 1, "{id}: exactly one of the two requests applies");
            let bound = sim.stack(id).bound(&ServiceId::new(dpu_protocols::ABCAST_SVC));
            let kind = sim.stack(id).module_kind(bound.expect("abcast bound")).unwrap().to_string();
            kinds.push(kind);
        }
        // All stacks agree on *which* request won.
        assert!(kinds.iter().all(|k| k == &kinds[0]), "winner differs: {kinds:?}");
        check_run(&mut sim, &h).assert_ok();
    }

    #[test]
    fn switch_request_from_every_stack_in_sequence() {
        // n consecutive switches, initiated round-robin, targets cycling
        // through all three protocols; everything stays consistent.
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 43), &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        let specs_seq: Vec<ModuleSpec> =
            vec![seq_spec(1, dpu_protocols::ABCAST_SVC), ring_spec(2), ct_spec(3)];
        for (k, spec) in specs_seq.iter().enumerate() {
            request_change(&mut sim, StackId(k as u32), &h, spec);
            send_probe(&mut sim, StackId(k as u32), &h);
            let t = sim.now() + Dur::secs(3);
            sim.run_until(t);
        }
        sim.run_until(sim.now() + Dur::secs(6));
        let layer = h.layer.unwrap();
        for id in sim.stack_ids() {
            let sn = sim.with_stack(id, |s| {
                s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).unwrap()
            });
            assert_eq!(sn, 3, "{id}");
            let bound = sim.stack(id).bound(&ServiceId::new(dpu_protocols::ABCAST_SVC));
            assert_eq!(
                sim.stack(id).module_kind(bound.unwrap()),
                Some("abcast.ct"),
                "{id} ends on the final target"
            );
        }
        check_run(&mut sim, &h).assert_ok();
    }

    #[test]
    fn old_modules_remain_in_stack_after_unbind() {
        // Paper §2: "Unbinding a module does not remove it from the
        // stack". After a switch the old abcast module must still exist
        // (and may respond), just unbound.
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 47), &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        let old_bound =
            sim.stack(StackId(0)).bound(&ServiceId::new(dpu_protocols::ABCAST_SVC)).unwrap();
        request_change(&mut sim, StackId(0), &h, &ct_spec(1));
        sim.run_until(Time::ZERO + Dur::secs(4));
        let stack = sim.stack(StackId(0));
        let new_bound = stack.bound(&ServiceId::new(dpu_protocols::ABCAST_SVC)).unwrap();
        assert_ne!(old_bound, new_bound, "a fresh module is bound");
        assert!(
            stack.module_kind(old_bound).is_some(),
            "the old module remains in the stack (unbound)"
        );
    }

    #[test]
    fn old_module_is_retired_once_every_stack_was_heard_on_the_new_protocol() {
        // The complement of the test above: one probe from every stack
        // later, each stack knows no stack has the old module bound, and
        // it is gone — without the outgoing protocol ever having been
        // pulled from under a stack that still had it bound.
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 47), &opts);
        sim.run_until(Time::ZERO + Dur::millis(300));
        let abcast = ServiceId::new(dpu_protocols::ABCAST_SVC);
        let old_bound = sim.stack(StackId(0)).bound(&abcast).unwrap();
        request_change(&mut sim, StackId(0), &h, &seq_spec(1, dpu_protocols::ABCAST_SVC));
        sim.run_until(Time::ZERO + Dur::secs(4));
        assert!(sim.stack(StackId(0)).module_kind(old_bound).is_some(), "nobody heard yet");
        for i in 0..3 {
            send_probe(&mut sim, StackId(i), &h);
        }
        sim.run_until(Time::ZERO + Dur::secs(8));
        let layer = h.layer.unwrap();
        for id in sim.stack_ids() {
            assert!(sim.stack(id).module_kind(old_bound).is_none(), "{id} keeps the old module");
            let (retired, pending) = sim.with_stack(id, |s| {
                s.with_module::<ReplAbcastModule, _>(layer, |m| {
                    (m.retired_total(), m.pending_retirement())
                })
                .unwrap()
            });
            assert_eq!((retired, pending), (1, 0), "{id}");
        }
        let report = sim.telemetry_report();
        assert_eq!((report.switches.completed, report.switches.retired), (3, 3));
        let stacks = sim.stack_ids();
        let trace = sim.merged_trace();
        let destroyed = trace
            .events()
            .filter(
                |(_, e)| matches!(e, TraceEvent::ModuleDestroyed { kind, .. } if **kind == *CT_KIND),
            )
            .count();
        assert_eq!(destroyed, 3, "one ModuleDestroyed per stack");
        // Same verdict as without retirement: every bind of a ct module
        // found a live ct module on every other stack.
        let op = props::check_protocol_operationability(&trace, CT_KIND, &stacks);
        assert!(op.strong && op.weak, "{:?}", op.violations);
        let op = props::check_protocol_operationability(&trace, SEQ_KIND, &stacks);
        assert!(op.weak, "{:?}", op.violations);
    }

    #[test]
    fn double_switch_back_and_forth() {
        let opts = GroupStackOpts::default();
        let (mut sim, h) = group_sim(SimConfig::lan(3, 37), &opts);
        sim.run_until(Time::ZERO + Dur::millis(100));
        send_probe(&mut sim, StackId(0), &h);
        sim.run_until(Time::ZERO + Dur::secs(2));
        request_change(&mut sim, StackId(0), &h, &seq_spec(1, dpu_protocols::ABCAST_SVC));
        sim.run_until(Time::ZERO + Dur::secs(5));
        send_probe(&mut sim, StackId(1), &h);
        sim.run_until(Time::ZERO + Dur::secs(7));
        request_change(&mut sim, StackId(2), &h, &ct_spec(2));
        sim.run_until(Time::ZERO + Dur::secs(10));
        send_probe(&mut sim, StackId(2), &h);
        sim.run_until(Time::ZERO + Dur::secs(16));
        let report = check_run(&mut sim, &h);
        report.assert_ok();
        let layer = h.layer.unwrap();
        let sn = sim.with_stack(StackId(0), |s| {
            s.with_module::<ReplAbcastModule, _>(layer, |m| m.seq_number()).unwrap()
        });
        assert_eq!(sn, 2, "two switches applied");
        for id in sim.stack_ids() {
            assert_eq!(report.checker.delivery_count(id), 3, "stack {id}");
        }
    }

    #[test]
    fn every_layer_reports_its_switch_on_the_one_timeline() {
        // One switch under load per layer; the group's report must read
        // the same whichever layer performed it.
        let n = 3u32;
        for (layer, target) in [
            (SwitchLayer::Repl, ct_spec(1)),
            (SwitchLayer::Maestro, ct_spec(1)),
            (SwitchLayer::Graceful, seq_spec(1, "abcast.alt")),
        ] {
            let opts = GroupStackOpts { layer, ..Default::default() };
            let (mut sim, h) = group_sim(SimConfig::lan(n, 29), &opts);
            sim.run_until(Time::ZERO + Dur::millis(300));
            let modules_before = sim.stack(StackId(0)).modules().count();
            let until = sim.now() + Dur::secs(4);
            drive_load(&mut sim, &h, 60.0, until);
            let h2 = h.clone();
            sim.schedule_in(Dur::secs(2), move |sim| request_change(sim, StackId(0), &h2, &target));
            sim.run_until(until + Dur::secs(8));
            check_run(&mut sim, &h).assert_ok();
            let report = sim.telemetry_report();
            assert_eq!(report.switches.completed, u64::from(n), "{layer:?}");
            assert_eq!(report.switches.blackout_ns.count, u64::from(n), "{layer:?}");
            assert_eq!(report.switches.swap_gap_ns.count, u64::from(n), "{layer:?}");
            for id in sim.stack_ids() {
                let timeline = &sim.stack(id).telemetry().state().expect("always on").switches;
                assert!(timeline.pending().is_none(), "{layer:?} {id}: record left open");
            }
            // Repl retires the replaced module once everyone was heard,
            // Maestro destroys it at rebuild, Graceful at activate: one
            // module in, one out, no dead module left riding along.
            let modules_after = sim.stack(StackId(0)).modules().count();
            assert_eq!(modules_after, modules_before, "{layer:?}");
        }
    }

    #[test]
    fn a_change_to_an_unknown_protocol_is_refused_where_it_is_requested() {
        // Before the skeleton's dry run such a request was broadcast,
        // agreed on, and then panicked every stack of the group.
        for layer in [SwitchLayer::Repl, SwitchLayer::Maestro, SwitchLayer::Graceful] {
            let opts = GroupStackOpts { layer, ..Default::default() };
            let (mut sim, h) = group_sim(SimConfig::lan(3, 59), &opts);
            sim.run_until(Time::ZERO + Dur::millis(300));
            let until = sim.now() + Dur::secs(2);
            drive_load(&mut sim, &h, 30.0, until);
            let h2 = h.clone();
            sim.schedule_in(Dur::secs(1), move |sim| {
                request_change(&mut *sim, StackId(1), &h2, &ModuleSpec::new("abcast.nonesuch"));
                // Known kind, parameters that do not decode.
                let garbage = ModuleSpec { kind: CT_KIND.into(), params: vec![0xff].into() };
                request_change(sim, StackId(2), &h2, &garbage);
            });
            sim.run_until(until + Dur::secs(4));
            let report = check_run(&mut sim, &h);
            report.assert_ok();
            let sent = report.checker.broadcast_count();
            assert!(sent >= 55, "{layer:?}: load sent only {sent}");
            let layer_id = h.layer.unwrap();
            for id in sim.stack_ids() {
                assert_eq!(report.checker.delivery_count(id), sent, "{layer:?} {id}");
                assert_eq!(completed_switches(&sim, id), 0, "{layer:?} {id}");
                let timeline = &sim.stack(id).telemetry().state().expect("always on").switches;
                assert!(timeline.pending().is_none(), "{layer:?} {id}: a switch started");
                sim.with_stack(id, |s| {
                    s.with_module::<ReplAbcastModule, _>(layer_id, |m| {
                        assert_eq!(m.seq_number(), 0, "{id}: seqNumber moved");
                    })
                });
                let mut dump = String::new();
                sim.stack(id).telemetry().dump_flight("", &mut dump);
                let refused = dump.matches("switch-refused").count();
                assert_eq!(refused, usize::from(id != StackId(0)), "{layer:?} {id}: {dump}");
            }
        }
    }

    #[test]
    fn a_spec_with_garbage_params_is_an_error_not_a_default_module() {
        use dpu_core::stack::StackError;
        // Used to build a module with default parameters — namespace 0,
        // sharing wire tags with the first incarnation. A kind that takes
        // no parameters refuses a blob too (here fd's former timing
        // knobs), and a ring spec refuses its former service and token
        // hold after the namespace.
        let old_fd = (20_000_000u64, 100_000_000u64, 50_000_000u64);
        let old_ring = (1u64, dpu_protocols::ABCAST_SVC, 2_000_000u64);
        let garbage = [
            ModuleSpec { kind: SEQ_KIND.into(), params: vec![0xff, 0xff].into() },
            ModuleSpec::with_params(dpu_protocols::fd::KIND, &old_fd),
            ModuleSpec::with_params(RING_KIND, &old_ring),
        ];
        let mut stack = build(StackConfig::nth(0, 1, 1), &GroupStackOpts::default()).stack;
        let modules = stack.modules().count();
        for spec in &garbage {
            assert!(matches!(registry().build(spec), Err(StackError::Wire(_))), "{spec:?}");
            assert!(matches!(stack.install(spec), Err(StackError::Wire(_))), "{spec:?}");
            assert_eq!(stack.modules().count(), modules, "nothing was created");
        }
        // Empty params still mean the defaults.
        for kind in [SEQ_KIND, dpu_protocols::fd::KIND, RING_KIND] {
            assert!(registry().build(&ModuleSpec::new(kind)).is_ok(), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "request_change requires a probe")]
    fn request_change_without_a_probe_says_so() {
        let opts = GroupStackOpts { probe_pad: None, ..Default::default() };
        let (mut sim, h) = group_sim(SimConfig::lan(3, 61), &opts);
        request_change(&mut sim, StackId(0), &h, &ct_spec(1));
    }
}
