//! Maestro-style baseline switcher (paper §4.2, after van Renesse et
//! al.'s Ensemble/Maestro).
//!
//! Maestro supports only the replacement of *complete protocol stacks*: a
//! stack switch (SS) module finalizes the local old stack and coordinates
//! the start of the new one. The defining cost, which the paper's §5.3
//! highlights, is that **the application is blocked** from the moment the
//! switch starts until the new stack is globally ready.
//!
//! The protocol implemented here, over the shared `Coordinated`
//! skeleton of `layer.rs` (one ack round):
//!
//! 1. the initiator broadcasts `Flush` (`Start`, point-to-point, channel
//!    [`dpu_protocols::channels::MAESTRO`]);
//! 2. on `Flush`, every stack **blocks** its application (new `rABcast`
//!    calls are queued), and finalizes the old protocol by atomically
//!    broadcasting a *marker*; once it has Adelivered markers from all
//!    stacks, the old protocol has drained (per-sender FIFO holds through
//!    each of our atomic broadcasts), so it destroys the old module,
//!    creates the new one, and reports `Ready` (the round-1 `Ack`) to the
//!    initiator;
//! 3. the initiator collects `Ready` from everyone and broadcasts
//!    `Resume` (the round-1 `Go`); only then do the stacks unblock and
//!    send their queued messages through the new protocol.
//!
//! Differences from the paper's own solution (measured by `dpu-bench`'s
//! `comparison`): the application blocks for a full global
//! flush+rebuild+barrier round-trip, the switcher needs `finalize`-style
//! cooperation (the marker) from the protocol's send path, and a crashed
//! stack stalls the barrier (real Maestro leans on group membership for
//! that — another dependency the paper's solution avoids).

use crate::layer::{self, Coordinated, Step};
use dpu_core::stack::ModuleCtx;
use dpu_core::time::Dur;
use dpu_core::{Call, Channel, Module, ModuleSpec, Response, ServiceId};
use dpu_protocols::channels;

/// Module kind name, for factory registration.
pub const KIND: &str = "maestro";

/// The Maestro-style stack switch module. See module docs.
pub(crate) struct MaestroSwitcher {
    sw: Coordinated,
    /// The protocol to rebuild with, from `Flush` until the drain ends.
    pending_spec: Option<ModuleSpec>,
}

impl MaestroSwitcher {
    /// A switcher over the fixed slot [`dpu_protocols::ABCAST_SVC`]: it
    /// provides `r-abcast` and requires `abcast`.
    pub fn new() -> MaestroSwitcher {
        MaestroSwitcher {
            sw: Coordinated::new(dpu_protocols::ABCAST_SVC, channels::MAESTRO),
            pending_spec: None,
        }
    }

    /// Register this module's factory under [`KIND`]. The kind takes no
    /// parameters.
    pub fn register(reg: &mut dpu_core::FactoryRegistry) {
        reg.register_with(KIND, |()| MaestroSwitcher::new());
    }

    /// Total virtual time the application spent blocked.
    pub(crate) fn total_blocked(&self) -> Dur {
        self.sw.total_blocked()
    }

    /// Point-to-point coordination messages sent by this stack.
    pub fn coord_msgs(&self) -> u64 {
        self.sw.coord_msgs()
    }
}

impl Module for MaestroSwitcher {
    fn kind(&self) -> &str {
        KIND
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.sw.ind.provided]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.sw.ind.required, self.sw.rp2p]
    }

    fn listens_on(&self, service: &ServiceId) -> Option<Channel> {
        self.sw.listens_on(service)
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        // The Maestro cost: from `Flush` to `Resume` the skeleton queues
        // every `rABcast` — the application blocks for the whole switch.
        self.sw.on_call(ctx, call);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        match self.sw.on_response(ctx, resp) {
            // `Flush`: finalize the old protocol — stop sending, emit our
            // marker.
            Some(Step::Start(spec)) => {
                self.pending_spec = Some(spec);
                self.sw.begin_drain(ctx);
            }
            // Old protocol drained: whole-module teardown + rebuild, then
            // `Ready`.
            Some(Step::Drained) => {
                // `Flush` set the spec; a drain without one installs nothing.
                let Some(spec) = self.pending_spec.take() else { return };
                if let Some(old) = ctx.bound(&self.sw.ind.required) {
                    ctx.destroy_module(old);
                }
                if layer::install(ctx, &spec) {
                    layer::activated(ctx);
                }
                self.sw.ack(ctx, 1);
            }
            // `Resume`: everyone is ready.
            Some(Step::Go(_)) => self.sw.finish(ctx),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming() {
        let m = MaestroSwitcher::new();
        assert_eq!(m.provides(), vec![ServiceId::new("r-abcast")]);
        assert!(m.requires().contains(&ServiceId::new("abcast")));
        assert_eq!(m.total_blocked(), Dur::ZERO);
    }

    #[test]
    fn factory_registration() {
        let mut reg = dpu_core::FactoryRegistry::new();
        MaestroSwitcher::register(&mut reg);
        assert!(reg.contains(KIND));
    }

    // The envelope and coordination codecs are tested in `crate::layer`;
    // end-to-end switch behaviour in builder::tests and the workspace
    // integration tests.
}
