//! Graceful-Adaptation-style baseline switcher (paper §4.2, after
//! Chen, Hiltunen & Schlichting, *Constructing adaptive software in
//! distributed systems*).
//!
//! Graceful Adaptation switches between pre-declared *Adaptation-Aware
//! Components* (AACs) inside a component, coordinated by a Component
//! Adaptor (CA) through three **barrier-synchronised** phases:
//!
//! 1. **prepare** — every stack instantiates the new AAC (traffic still
//!    flows through the old one); barrier;
//! 2. **deactivate** — every stack stops sending through the old AAC and
//!    drains it (marker flush, run in parallel with the message flow as
//!    the paper notes); barrier;
//! 3. **activate** — every stack atomically redirects to the new AAC and
//!    releases the (briefly) queued sends; done.
//!
//! The GA restriction the paper criticises is modelled faithfully: the
//! alternative components must be *pre-declared* — this switcher requires
//! exactly two service slots, `abcast` and `abcast.alt`, fixed in the
//! module, and each switch target
//! must provide whichever slot is currently inactive. A replacement whose
//! protocol needs services outside the declared slots is impossible,
//! whereas Algorithm 1's recursive `create_module` handles it.
//!
//! Compared to Maestro the application-blocked window is much shorter
//! (only deactivate→activate, and the new component is pre-built), but
//! the three barriers cost coordination messages and wall-clock time —
//! both measured by `dpu-bench`'s `comparison`.
//!
//! On the shared `Coordinated` skeleton of `layer.rs` this is two ack
//! rounds on channel [`dpu_protocols::channels::GRACEFUL`]: `Prepare` is
//! its `Start`, `Prepared` / `Deactivate` the round-1 `Ack` / `Go`,
//! `Deactivated` / `Activate` those of round 2, and the deactivate phase
//! is its marker drain.
//!
//! One deviation from the composition model, which only marks the old
//! AAC inactive: `activate` destroys it. The `Deactivated` barrier is §3's
//! condition — when the CA sends `Activate`, every stack has drained the
//! old AAC and none will call it again — and a component left behind
//! would keep being handed (and charged for) every response of the
//! services it requires, one more per switch.

use crate::layer::{self, Coordinated, Step};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Dur;
use dpu_core::{Call, Channel, Module, Response, ServiceId};
use dpu_protocols::channels;

/// Module kind name, for factory registration.
pub const KIND: &str = "graceful";

/// The second AAC slot: the service the protocol after the initial one
/// must provide. Slots alternate on every switch.
const ALT_SVC: &str = "abcast.alt";

/// The Graceful-Adaptation-style switcher. See module docs.
pub(crate) struct GracefulSwitcher {
    /// `sw.ind.required` is the active AAC slot.
    sw: Coordinated,
    /// The other declared slot: what the next protocol must provide.
    spare: ServiceId,
}

impl GracefulSwitcher {
    /// A switcher over the fixed slots [`dpu_protocols::ABCAST_SVC`]
    /// (active first) and `abcast.alt`.
    pub fn new() -> GracefulSwitcher {
        GracefulSwitcher {
            sw: Coordinated::new(dpu_protocols::ABCAST_SVC, channels::GRACEFUL),
            spare: ServiceId::new(ALT_SVC),
        }
    }

    /// Register this module's factory under [`KIND`]. The kind takes no
    /// parameters.
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, |()| GracefulSwitcher::new());
    }

    /// Total virtual time the application spent blocked
    /// (deactivate → activate windows only).
    pub(crate) fn total_blocked(&self) -> Dur {
        self.sw.total_blocked()
    }

    /// Point-to-point coordination messages sent by this stack.
    pub fn coord_msgs(&self) -> u64 {
        self.sw.coord_msgs()
    }
}

impl Module for GracefulSwitcher {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.sw.ind.provided]
    }

    fn requires(&self) -> Vec<ServiceId> {
        // The GA restriction: both AAC slots are declared up front.
        vec![self.sw.ind.required, self.spare, self.sw.rp2p]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        self.sw.listens_on(service)
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        self.sw.on_call(ctx, call);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        match self.sw.on_response(ctx, resp) {
            // Phase 1, `Prepare`: instantiate the new AAC; traffic still
            // flows through the old one. Then `Prepared`.
            Some(Step::Start(spec)) => {
                // A spec it cannot build leaves the spare slot unbound
                // (and refused on the record); the group still needs
                // this stack's ack to go on.
                layer::install(ctx, &spec);
                self.sw.ack(ctx, 1);
            }
            // Phase 2, `Deactivate`: stop sending through the old AAC and
            // drain it (the brief blocking window opens); once drained,
            // `Deactivated`.
            Some(Step::Go(1)) => self.sw.begin_drain(ctx),
            Some(Step::Drained) => self.sw.ack(ctx, 2),
            // Phase 3, `Activate`: retire the old AAC, redirect to the
            // new one and release the queued sends through it. With the
            // spare slot unbound (phase 1 refused the spec) the old AAC
            // stays in service and no activation is stamped.
            Some(Step::Go(_)) => {
                if ctx.bound(&self.spare).is_some() {
                    if let Some(old) = ctx.bound(&self.sw.ind.required) {
                        ctx.destroy_module(old);
                    }
                    std::mem::swap(&mut self.sw.ind.required, &mut self.spare);
                    layer::activated(ctx);
                }
                self.sw.finish(ctx);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots() {
        let g = GracefulSwitcher::new();
        assert_eq!(g.provides(), vec![ServiceId::new("r-abcast")]);
        assert_eq!(g.spare, ServiceId::new("abcast.alt"));
        assert!(g.requires().contains(&ServiceId::new("abcast")));
        assert!(g.requires().contains(&ServiceId::new("abcast.alt")));
    }

    #[test]
    fn factory_registration() {
        let mut reg = dpu_core::FactoryRegistry::new();
        GracefulSwitcher::register(&mut reg);
        assert!(reg.contains(KIND));
    }
}
