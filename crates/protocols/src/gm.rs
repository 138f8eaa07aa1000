//! The GM module (paper Figure 4): a **group membership** service that
//! "maintains consistent membership among all group members; the module
//! requires the atomic broadcast service".
//!
//! Views are totally ordered by construction: every membership change
//! request is atomically broadcast, and each stack applies delivered
//! changes in delivery order — so all stacks install the same sequence of
//! views (view `i` has the same composition everywhere).
//!
//! In the adaptive middleware, GM is one of the protocols that *depend on*
//! the updateable atomic broadcast: it is constructed to call the
//! indirection interface `r-abcast`, and the paper's claim that dependent
//! protocols "provide service correctly and with negligible delay while
//! the global update takes place" is checked by the integration tests
//! that run view changes across a protocol switch.
//!
//! ## Service interface (`gm`)
//!
//! * call [`ops::REQUEST`] — a [`GmOp`] (join/leave);
//! * response `ops::VIEW` — the newly installed [`View`].

use crate::abcast::ops as ab_ops;
use dpu_core::stack::ModuleCtx;
use dpu_core::{Call, Module, Response, ServiceId, StackId};

/// Module kind name, for factory registration.
pub const KIND: &str = "gm";

/// Magic tag distinguishing GM payloads from other users of the shared
/// atomic broadcast service.
const GM_MAGIC: u32 = 0x474D_5631; // "GMV1"

/// Operation codes of the `gm` service.
pub mod ops {
    use dpu_core::Op;
    /// Call: request a membership change ([`super::GmOp`]).
    pub const REQUEST: Op = 1;
    /// Response: a new [`super::View`] was installed.
    pub(crate) const VIEW: Op = 2;
}

/// A membership change request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GmOp {
    /// Add a stack to the group.
    Join(StackId),
    /// Remove a stack from the group (voluntary leave or exclusion).
    Leave(StackId),
}

dpu_core::wire_codec!(enum GmOp { 0 => Join(id), 1 => Leave(id) });

/// A membership view: a numbered composition of the group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct View {
    /// Monotonic view number (0 = initial view).
    pub id: u64,
    /// Current members, sorted by stack id.
    pub members: Vec<StackId>,
}

dpu_core::wire_codec!(View { id, members });

/// Factory parameters of the group membership module. The module
/// provides [`crate::GM_SVC`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GmParams {
    /// Atomic broadcast service to require — normally the indirection
    /// interface `r-abcast` so GM keeps working across protocol updates.
    pub abcast: String,
    /// Automatically propose the exclusion of members the failure
    /// detector suspects (each exclusion is still totally ordered through
    /// atomic broadcast, so views stay consistent; a wrongly suspected
    /// member is simply excluded and may re-join).
    pub auto_exclude: bool,
}

impl Default for GmParams {
    fn default() -> Self {
        GmParams { abcast: crate::ABCAST_SVC.to_string(), auto_exclude: false }
    }
}

dpu_core::wire_codec!(GmParams { abcast, auto_exclude });

/// The group membership module. See module docs.
pub struct GmModule {
    svc: ServiceId,
    abcast_svc: ServiceId,
    fd_svc: ServiceId,
    auto_exclude: bool,
    /// Exclusions already proposed by this stack (avoid re-broadcasting
    /// on every failure detector update).
    proposed_exclusions: std::collections::BTreeSet<StackId>,
    view: View,
}

impl GmModule {
    /// Build with explicit parameters.
    pub fn new(params: GmParams) -> GmModule {
        GmModule {
            svc: ServiceId::new(crate::GM_SVC),
            abcast_svc: ServiceId::new(&params.abcast),
            fd_svc: ServiceId::new(crate::FD_SVC),
            auto_exclude: params.auto_exclude,
            proposed_exclusions: std::collections::BTreeSet::new(),
            view: View { id: 0, members: Vec::new() },
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, GmModule::new);
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    fn apply(&mut self, ctx: &mut ModuleCtx<'_>, op: GmOp) {
        let changed = match op {
            GmOp::Join(s) => {
                if self.view.members.contains(&s) {
                    false
                } else {
                    self.view.members.push(s);
                    self.view.members.sort();
                    true
                }
            }
            GmOp::Leave(s) => {
                let before = self.view.members.len();
                self.view.members.retain(|&m| m != s);
                self.view.members.len() != before
            }
        };
        if changed {
            self.view.id += 1;
            let data = ctx.encode(&self.view);
            ctx.respond(&self.svc, ops::VIEW, data);
        }
    }
}

impl Module for GmModule {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.svc]
    }

    fn requires(&self) -> Vec<ServiceId> {
        if self.auto_exclude {
            vec![self.abcast_svc, self.fd_svc]
        } else {
            vec![self.abcast_svc]
        }
    }

    fn on_start(&mut self, ctx: &mut ModuleCtx<'_>) {
        self.view = View { id: 0, members: ctx.peers().to_vec() };
        let data = ctx.encode(&self.view);
        ctx.respond(&self.svc, ops::VIEW, data);
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        if call.op != ops::REQUEST {
            return;
        }
        let Ok(op) = call.decode::<GmOp>() else { return };
        // Order the change through atomic broadcast; it is applied when it
        // comes back Adelivered (identically ordered on all stacks).
        let payload = ctx.encode(&(GM_MAGIC, op));
        ctx.call(&self.abcast_svc, ab_ops::ABCAST, payload);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        if self.auto_exclude && resp.service == self.fd_svc && resp.op == crate::fd::ops::SUSPECTS {
            let Ok(suspected) = resp.decode::<Vec<StackId>>() else { return };
            for s in suspected {
                if self.view.members.contains(&s) && self.proposed_exclusions.insert(s) {
                    let payload = ctx.encode(&(GM_MAGIC, GmOp::Leave(s)));
                    ctx.call(&self.abcast_svc, ab_ops::ABCAST, payload);
                }
            }
            return;
        }
        if resp.service != self.abcast_svc || resp.op != ab_ops::ADELIVER {
            return;
        }
        // Shared-service discipline: ignore payloads that are not ours.
        let Ok((magic, op)) = resp.decode::<(u32, GmOp)>() else { return };
        if magic != GM_MAGIC {
            return;
        }
        if let GmOp::Join(s) = op {
            // A re-joining member may be excluded again later.
            self.proposed_exclusions.remove(&s);
        }
        self.apply(ctx, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abcast::ct::{CtAbcastModule, CtAbcastParams};
    use crate::abcast::testkit::mk_stack;
    use dpu_core::stack::{Stack, StackConfig};
    use dpu_core::time::{Dur, Time};
    use dpu_core::wire;
    use dpu_core::ModuleId;
    use dpu_sim::{Sim, SimConfig};

    /// Test stack layout: testkit's m1..m7, then GM is m8.
    const GM: ModuleId = ModuleId(8);

    fn mk_gm_stack(sc: StackConfig) -> Stack {
        let mut s = mk_stack(sc, || Box::new(CtAbcastModule::new(CtAbcastParams::default())));
        let gm = s.add_module(Box::new(GmModule::new(GmParams::default())));
        s.bind(&ServiceId::new(crate::GM_SVC), gm);
        s
    }

    fn view(sim: &mut Sim, node: u32) -> View {
        sim.with_stack(StackId(node), |s| {
            s.with_module::<GmModule, _>(GM, |m| m.view().clone()).unwrap()
        })
    }

    fn request(sim: &mut Sim, node: u32, op: GmOp) {
        sim.with_stack(StackId(node), |s| {
            s.call_as(GM, &ServiceId::new(crate::GM_SVC), ops::REQUEST, wire::to_bytes(&op))
        });
    }

    #[test]
    fn gm_types_wire_contract() {
        use dpu_core::wire::testing::assert_wire_contract;
        assert_wire_contract(&GmOp::Join(StackId(4)));
        assert_wire_contract(&GmOp::Leave(StackId(0)));
        assert_wire_contract(&View { id: 3, members: vec![StackId(0), StackId(2)] });
        assert_wire_contract(&GmParams::default());
        use dpu_core::wire::testing::assert_wire_bytes;
        assert_wire_bytes(&GmOp::Join(StackId(4)), &[0, 4]);
        assert_wire_bytes(&GmOp::Leave(StackId(0)), &[1, 0]);
        assert_wire_bytes(&View { id: 3, members: vec![StackId(0), StackId(2)] }, &[3, 2, 0, 2]);
        let params = GmParams { abcast: "ab".into(), auto_exclude: true };
        assert_wire_bytes(&params, &[2, b'a', b'b', 1]);
    }

    #[test]
    fn initial_view_contains_all_peers() {
        let mut sim = Sim::new(SimConfig::lan(3, 42), mk_gm_stack);
        sim.run_until(Time::ZERO + Dur::millis(100));
        for node in 0..3 {
            let v = view(&mut sim, node);
            assert_eq!(v.id, 0);
            assert_eq!(v.members, vec![StackId(0), StackId(1), StackId(2)]);
        }
    }

    #[test]
    fn leave_installs_the_same_view_everywhere() {
        let mut sim = Sim::new(SimConfig::lan(3, 7), mk_gm_stack);
        sim.run_until(Time::ZERO + Dur::millis(100));
        request(&mut sim, 0, GmOp::Leave(StackId(2)));
        sim.run_until(Time::ZERO + Dur::secs(3));
        for node in 0..3 {
            let v = view(&mut sim, node);
            assert_eq!(v.id, 1, "node {node}");
            assert_eq!(v.members, vec![StackId(0), StackId(1)], "node {node}");
        }
    }

    #[test]
    fn concurrent_changes_converge_to_identical_views() {
        let mut sim = Sim::new(SimConfig::lan(3, 9), mk_gm_stack);
        sim.run_until(Time::ZERO + Dur::millis(100));
        request(&mut sim, 0, GmOp::Leave(StackId(2)));
        request(&mut sim, 1, GmOp::Join(StackId(9)));
        sim.run_until(Time::ZERO + Dur::secs(5));
        let v0 = view(&mut sim, 0);
        assert_eq!(v0.id, 2);
        assert_eq!(v0.members, vec![StackId(0), StackId(1), StackId(9)]);
        for node in 1..3 {
            assert_eq!(view(&mut sim, node), v0, "node {node}");
        }
    }

    #[test]
    fn duplicate_join_is_a_no_op() {
        let mut sim = Sim::new(SimConfig::lan(2, 5), mk_gm_stack);
        sim.run_until(Time::ZERO + Dur::millis(100));
        request(&mut sim, 0, GmOp::Join(StackId(1)));
        sim.run_until(Time::ZERO + Dur::secs(3));
        let v = view(&mut sim, 0);
        assert_eq!(v.id, 0, "joining an existing member must not bump the view");
    }

    #[test]
    fn auto_exclude_removes_crashed_member_from_all_views() {
        let mk = |sc: StackConfig| -> Stack {
            let mut s = mk_stack(sc, || Box::new(CtAbcastModule::new(CtAbcastParams::default())));
            let gm = s.add_module(Box::new(GmModule::new(GmParams {
                auto_exclude: true,
                ..GmParams::default()
            })));
            s.bind(&ServiceId::new(crate::GM_SVC), gm);
            s
        };
        let mut sim = Sim::new(SimConfig::lan(3, 55), mk);
        sim.run_until(Time::ZERO + Dur::millis(300));
        sim.crash_at(sim.now(), StackId(2));
        sim.run_until(Time::ZERO + Dur::secs(8));
        for node in 0..2 {
            let v = view(&mut sim, node);
            assert_eq!(
                v.members,
                vec![StackId(0), StackId(1)],
                "node {node}: crashed member must be excluded"
            );
            assert_eq!(v.id, 1, "node {node}: exactly one view change");
        }
    }

    #[test]
    fn wire_types_roundtrip() {
        for op in [GmOp::Join(StackId(3)), GmOp::Leave(StackId(0))] {
            let b = wire::to_bytes(&op);
            assert_eq!(wire::from_bytes::<GmOp>(&b).unwrap(), op);
        }
        let v = View { id: 7, members: vec![StackId(0), StackId(2)] };
        let b = wire::to_bytes(&v);
        assert_eq!(wire::from_bytes::<View>(&b).unwrap(), v);
        let p = GmParams { abcast: "r-abcast".into(), auto_exclude: true };
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<GmParams>(&b).unwrap(), p);
    }

    #[test]
    fn factory_registration() {
        let mut reg = dpu_core::FactoryRegistry::new();
        GmModule::register(&mut reg);
        let p = GmParams { abcast: "r-abcast".into(), auto_exclude: false };
        let m = reg.build(&dpu_core::ModuleSpec::with_params(KIND, &p)).unwrap();
        assert_eq!(m.kind(), KIND);
        assert_eq!(m.requires(), vec![ServiceId::new("r-abcast")]);
    }
}
