//! # dpu-repl — dynamic protocol update algorithms
//!
//! The paper's contribution (§4–§5) plus the two baselines it compares
//! against:
//!
//! * [`abcast_repl::ReplAbcastModule`] — **Algorithm 1**: the replacement
//!   module for atomic broadcast. Adds a level of indirection (`r-abcast`)
//!   between the service callers and the provider, intercepts calls and
//!   responses, and switches protocols by atomically broadcasting the
//!   replacement request through the *old* protocol itself — no barriers,
//!   no group membership, no blocking of the application.
//! * `maestro::MaestroSwitcher` — a Maestro-style baseline (van Renesse
//!   et al., *Building adaptive systems using Ensemble*): whole-stack
//!   switching with an explicit finalize phase that **blocks the
//!   application** until the new stack is globally ready.
//! * `graceful::GracefulSwitcher` — a Graceful-Adaptation-style baseline
//!   (Chen/Hiltunen/Schlichting): three coordinator-driven barrier phases
//!   (prepare / deactivate / activate) over pre-created alternative
//!   components.
//! * `layer` (private) — the skeleton the three share: the `r-abcast`
//!   indirection and its `changeABcast` handler, the payload envelopes,
//!   the one-bit-per-member heard-set, and — for the two baselines — the
//!   marker drain and the coordinator's ack rounds. Every layer stamps the
//!   same switch timeline through it.
//! * [`builder`] — constructs the full Figure-4 group communication stack
//!   in one call, with any of the three switch layers (or none), a
//!   measurement probe and optional group membership on top. Used by the
//!   integration tests, the examples and every benchmark.
//!
//! The consensus-replacement experiment (paper §7 / ref \[16\]) needs no
//! dedicated module: Algorithm 1's recursive `create_module` (lines
//! 22–28) already creates providers for services the *new* protocol
//! requires — switching to an `abcast.ct` spec that names a fresh
//! consensus service replaces the agreement protocol underneath atomic
//! broadcast in the same sweep. See `dpu-bench`'s `consensus_switch`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abcast_repl;
#[cfg(test)]
mod ablation;
pub mod builder;
pub mod graceful;
mod layer;
pub mod maestro;

/// Control operation shared by all three switch layers on their provided
/// (indirection) service: request a protocol change. Payload: the
/// [`dpu_core::ModuleSpec`] of the new protocol — the paper's
/// `changeABcast(prot)`.
pub const CHANGE_OP: dpu_core::Op = 10;
