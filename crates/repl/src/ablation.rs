//! Ablation variants of Algorithm 1: deliberately *broken* replacement
//! modules, each missing exactly one ingredient of the paper's
//! algorithm. They exist to show — mechanically, via the property
//! checkers — that every line is load-bearing:
//!
//! * [`Omit::Reissue`] skips lines 15–16 (re-issuing `undelivered` under
//!   the new protocol). Messages that were in flight when the switch was
//!   ordered are silently dropped → **validity** (and agreement)
//!   violations under load.
//! * [`Omit::VersionGuard`] skips the `sn = seqNumber` check of line 18.
//!   Late deliveries from the old, unbound protocol are handed to the
//!   application alongside the re-issued copies → **uniform integrity**
//!   (duplicate delivery) violations.
//!
//! Both are Algorithm 1 otherwise, by construction: they run the same
//! `Algorithm1` core (payload, codec, lines 5–9, 11–14, 15–16, 19–21) as
//! [`crate::abcast_repl::ReplAbcastModule`] and differ only in the one
//! guard or call they leave out. Only this module's negative tests build
//! them, so it is compiled for tests alone; the positive counterpart —
//! the full algorithm passing the same adversarial schedules — is
//! everywhere else in the test suite.

use crate::abcast_repl::{Algorithm1, ReplPayload};
use dpu_core::stack::ModuleCtx;
use dpu_core::{Call, Module, Response, ServiceId};

/// Module kind of the no-reissue ablation.
pub(crate) const KIND_NO_REISSUE: &str = "repl.abcast.no-reissue";
/// Module kind of the no-version-guard ablation.
pub(crate) const KIND_NO_GUARD: &str = "repl.abcast.no-guard";

/// Which ingredient to omit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Omit {
    /// Skip lines 15–16 (no re-issue of undelivered messages).
    Reissue,
    /// Skip the line-18 version check (deliver any `nil` message).
    VersionGuard,
}

/// A replacement module with one ingredient of Algorithm 1 omitted.
pub(crate) struct BrokenRepl {
    omit: Omit,
    core: Algorithm1,
}

impl BrokenRepl {
    /// Build an ablation over the `abcast` service.
    pub fn new(omit: Omit) -> BrokenRepl {
        BrokenRepl { omit, core: Algorithm1::over(dpu_protocols::ABCAST_SVC) }
    }
}

impl Module for BrokenRepl {
    fn kind(&self) -> &str {
        match self.omit {
            Omit::Reissue => KIND_NO_REISSUE,
            Omit::VersionGuard => KIND_NO_GUARD,
        }
    }

    fn provides(&self) -> Vec<ServiceId> {
        vec![self.core.ind.provided]
    }

    fn requires(&self) -> Vec<ServiceId> {
        vec![self.core.ind.required]
    }

    fn on_call(&mut self, ctx: &mut ModuleCtx<'_>, call: Call) {
        self.core.on_call(ctx, call);
    }

    fn on_response(&mut self, ctx: &mut ModuleCtx<'_>, resp: Response) {
        let Some(payload) = self.core.ind.adelivered::<ReplPayload>(&resp) else { return };
        match payload {
            ReplPayload::NewAbcast { sn, spec } => {
                if sn != self.core.seq_number {
                    return;
                }
                self.core.switch_to(ctx, &spec);
                // BROKEN under `Omit::Reissue`: lines 15–16 skipped —
                // whatever was in flight under the old protocol is lost.
                if self.omit != Omit::Reissue {
                    self.core.reissue(ctx);
                }
            }
            ReplPayload::Nil { sn, id, data } => {
                // BROKEN under `Omit::VersionGuard`: line 18 skipped —
                // old-protocol stragglers are delivered alongside their
                // re-issued copies.
                if self.omit == Omit::VersionGuard || sn == self.core.seq_number {
                    self.core.deliver(ctx, id, data);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{
        build, check_run, drive_load, request_change, specs, GroupStackOpts, SwitchLayer,
    };
    use dpu_core::abcast_check::AbcastViolation;
    use dpu_core::time::{Dur, Time};
    use dpu_core::StackId;
    use dpu_protocols::abcast::ops as ab_ops;
    use dpu_sim::{Sim, SimConfig};

    /// Build the standard stack but with a broken replacement layer.
    fn broken_sim(omit: Omit, seed: u64) -> (Sim, crate::builder::Handles) {
        let opts = GroupStackOpts {
            abcast: specs::ct(0),
            layer: SwitchLayer::None, // placeholder; we wire our own layer
            probe_pad: Some(8),
            with_gm: false,
            extra_defaults: Vec::new(),
        };
        let mut handles = None;
        let sim = Sim::new(SimConfig::lan(3, seed), |sc| {
            let mut built = build(sc, &opts);
            let layer = built.stack.add_module(Box::new(BrokenRepl::new(omit)));
            let r_svc = ServiceId::new(dpu_protocols::ABCAST_SVC).replaced();
            built.stack.bind(&r_svc, layer);
            // Re-point the probe at the broken layer.
            let probe = built.stack.add_module(Box::new(dpu_core::probe::Probe::new(
                r_svc,
                ab_ops::ADELIVER,
                8,
            )));
            built.handles.layer = Some(layer);
            built.handles.probe = Some(probe);
            built.handles.top_service = r_svc;
            handles.get_or_insert(built.handles.clone());
            built.stack
        });
        (sim, handles.unwrap())
    }

    fn run_adversarial_switch(omit: Omit, seed: u64) -> Vec<AbcastViolation> {
        let (mut sim, h) = broken_sim(omit, seed);
        sim.run_until(Time::ZERO + Dur::millis(300));
        let until = sim.now() + Dur::secs(3);
        drive_load(&mut sim, &h, 80.0, until);
        let h2 = h.clone();
        sim.schedule_in(Dur::millis(1500), move |sim| {
            request_change(sim, StackId(0), &h2, &specs::ct(1));
        });
        sim.run_until(until + Dur::secs(10));
        check_run(&mut sim, &h).checker.check()
    }

    #[test]
    fn omitting_reissue_loses_in_flight_messages() {
        // Try a few seeds: the race (messages ordered after the switch
        // point in the old protocol) needs in-flight traffic at the
        // switch instant.
        let mut seen_validity_loss = false;
        for seed in [1u64, 2, 3, 4, 5] {
            let violations = run_adversarial_switch(Omit::Reissue, seed);
            if violations.iter().any(|v| matches!(v, AbcastViolation::Validity { .. })) {
                seen_validity_loss = true;
                break;
            }
        }
        assert!(seen_validity_loss, "dropping lines 15-16 must lose in-flight messages under load");
    }

    #[test]
    fn omitting_the_version_guard_duplicates_messages() {
        let mut seen_duplicate = false;
        for seed in [1u64, 2, 3, 4, 5] {
            let violations = run_adversarial_switch(Omit::VersionGuard, seed);
            if violations.iter().any(|v| {
                matches!(
                    v,
                    AbcastViolation::DuplicateDelivery { .. } | AbcastViolation::TotalOrder { .. }
                )
            }) {
                seen_duplicate = true;
                break;
            }
        }
        assert!(seen_duplicate, "dropping the line-18 guard must duplicate (or disorder) messages");
    }

    #[test]
    fn the_full_algorithm_passes_the_same_adversarial_schedules() {
        // Positive control: identical schedule, real Repl module, all
        // seeds clean.
        for seed in [1u64, 2, 3, 4, 5] {
            let opts = GroupStackOpts {
                abcast: specs::ct(0),
                layer: SwitchLayer::Repl,
                probe_pad: Some(8),
                with_gm: false,
                extra_defaults: Vec::new(),
            };
            let (mut sim, h) = crate::builder::group_sim(SimConfig::lan(3, seed), &opts);
            sim.run_until(Time::ZERO + Dur::millis(300));
            let until = sim.now() + Dur::secs(3);
            drive_load(&mut sim, &h, 80.0, until);
            let h2 = h.clone();
            sim.schedule_in(Dur::millis(1500), move |sim| {
                request_change(sim, StackId(0), &h2, &specs::ct(1));
            });
            sim.run_until(until + Dur::secs(10));
            check_run(&mut sim, &h).assert_ok();
        }
    }
}
