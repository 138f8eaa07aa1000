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
//! exactly two service slots (`GracefulParams::service` and
//! `GracefulParams::alt`) fixed at construction, and each switch target
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
use bytes::{Bytes, BytesMut};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Dur;
use dpu_core::wire::{Decode, Encode, WireResult};
use dpu_core::{Call, Channel, Module, Response, ServiceId};
use dpu_protocols::channels;

/// Module kind name, for factory registration.
pub const KIND: &str = "graceful";

/// Factory parameters of the Graceful-Adaptation-style switcher.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct GracefulParams {
    /// First AAC slot: the service name of the initially active protocol
    /// (default [`dpu_protocols::ABCAST_SVC`]).
    pub service: String,
    /// Second AAC slot: the service name the *next* protocol must provide
    /// (default `abcast.alt`). Slots alternate on every switch.
    pub alt: String,
}

impl Default for GracefulParams {
    fn default() -> Self {
        GracefulParams {
            service: dpu_protocols::ABCAST_SVC.to_string(),
            alt: format!("{}.alt", dpu_protocols::ABCAST_SVC),
        }
    }
}

impl Encode for GracefulParams {
    fn encode(&self, buf: &mut BytesMut) {
        self.service.encode(buf);
        self.alt.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.service.encoded_len() + self.alt.encoded_len()
    }
}

impl Decode for GracefulParams {
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(GracefulParams { service: String::decode(buf)?, alt: String::decode(buf)? })
    }
}

/// The Graceful-Adaptation-style switcher. See module docs.
pub(crate) struct GracefulSwitcher {
    /// `sw.ind.required` is the active AAC slot.
    sw: Coordinated,
    /// The other declared slot: what the next protocol must provide.
    spare: ServiceId,
}

impl GracefulSwitcher {
    /// Build with explicit parameters.
    pub fn new(params: GracefulParams) -> GracefulSwitcher {
        GracefulSwitcher {
            sw: Coordinated::new(&params.service, channels::GRACEFUL),
            spare: ServiceId::new(&params.alt),
        }
    }

    /// Register this module's factory under [`KIND`].
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, GracefulSwitcher::new);
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
                layer::install(ctx, &spec);
                self.sw.ack(ctx, 1);
            }
            // Phase 2, `Deactivate`: stop sending through the old AAC and
            // drain it (the brief blocking window opens); once drained,
            // `Deactivated`.
            Some(Step::Go(1)) => self.sw.begin_drain(ctx),
            Some(Step::Drained) => self.sw.ack(ctx, 2),
            // Phase 3, `Activate`: retire the old AAC, redirect to the
            // new one and release the queued sends through it.
            Some(Step::Go(_)) => {
                if let Some(old) = ctx.bound(&self.sw.ind.required) {
                    ctx.destroy_module(old);
                }
                std::mem::swap(&mut self.sw.ind.required, &mut self.spare);
                layer::activated(ctx);
                self.sw.finish(ctx);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::wire;

    #[test]
    fn params_and_slots() {
        wire::testing::assert_wire_contract(&GracefulParams::default());
        let p = GracefulParams::default();
        let b = wire::to_bytes(&p);
        assert_eq!(wire::from_bytes::<GracefulParams>(&b).unwrap(), p);
        let g = GracefulSwitcher::new(p);
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
