//! # dpu-core — the DPU composition model
//!
//! This crate implements the composition model of *"Structural and
//! Algorithmic Issues of Dynamic Protocol Update"* (Rütti, Wojciechowski,
//! Schiper; IPDPS 2006), §2:
//!
//! * a **service** is the specification of a distributed protocol,
//!   identified by a [`ServiceId`];
//! * a **protocol** is implemented by a set of identical **modules**
//!   ([`Module`]) located on different machines;
//! * the set of modules on one machine is a **protocol stack** ([`Stack`]);
//! * a module may be dynamically **bound** to a service it provides and
//!   later **unbound**; at most one module per stack is bound to a service
//!   at a time;
//! * a **service call** executes the bound module; if no module is bound
//!   the call **blocks** until one is (weak stack-well-formedness);
//! * a **response** to a call is an invocation flowing back from the
//!   provider to the modules that require the service, on the local or on
//!   remote stacks.
//!
//! On top of the model, the crate provides:
//!
//! * the host boundary: [`HostAction`]s through which a stack talks to
//!   the outside world (network sends, timers), and the unified host API
//!   ([`host`]) whose [`StackDriver`] encapsulates the canonical drive
//!   loop so the same stack runs unchanged under the deterministic
//!   simulator (`dpu-sim`) and the sharded live runtime (`dpu-runtime`);
//! * a binary wire codec ([`wire`]) used by all protocol messages;
//! * trace recording ([`trace`]) and mechanical checkers for the paper's
//!   generic DPU correctness properties ([`props`]) — strong/weak
//!   *stack-well-formedness* and strong/weak *protocol-operationability* —
//!   plus the four atomic broadcast properties ([`abcast_check`]);
//! * a workload/measurement probe module ([`probe`]);
//! * the two sets protocols collect their state by ([`sets`]): who has
//!   been heard from, and which numbers of each author have been seen —
//!   and the one resequencer, which releases numbered items in order.
//!
//! The *replacement module* itself (the paper's §4–§5 contribution) lives in
//! the `dpu-repl` crate; everything it needs — interception, rebinding,
//! recursive module creation ([`Stack::install`]) — is provided here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abcast_check;
pub mod host;
pub mod ids;
pub mod module;
pub mod probe;
pub mod props;
pub mod sets;
pub mod stack;
pub mod time;
pub mod trace;
pub(crate) mod vecmap;
pub mod wire;

pub use dpu_telemetry as telemetry;
pub use dpu_telemetry::{StackTelemetry, TelemetryConfig};
pub use host::{ActionSink, HostEvent, StackDriver, Wakeup};
pub use ids::{Channel, ModuleId, Name, ServiceId, StackId, TimerId};
pub use module::{Call, Module, ModuleSpec, Op, Response, TransportStats};
pub use sets::{HeardSet, InOrder, IntervalSet};
pub use stack::{FactoryRegistry, HostAction, ModuleCtx, Stack, StackConfig};
pub use time::{Dur, Time};
pub use trace::{Chain, Tally, TraceEvent, TraceLog};

/// Well-known service names used across the workspace.
pub mod svc {
    /// The raw network service provided by the host environment (the
    /// paper's "Net" at the bottom of Figure 1). Calls on it become
    /// [`crate::HostAction::NetSend`] inside the caller's step, as calls on
    /// [`UDP`] do; on a stack with no module bound to [`UDP`], packet
    /// arrivals come back as responses on it.
    pub const NET: &str = "net";

    /// The unreliable datagram service (the paper's "UDP", the bottom of
    /// Figure 4). Named here because the stack's edge asks the module
    /// bound to it what an arriving datagram is
    /// ([`crate::Module::on_packet`]); the module itself is `dpu-net`'s.
    pub const UDP: &str = "udp";

    /// Naming convention for the indirection interface introduced by a
    /// replacement module: callers of service `p` are rewired to `r-p`
    /// (paper, Figure 3).
    pub fn replaced(service: &str) -> String {
        format!("r-{service}")
    }
}

#[cfg(test)]
mod svc_tests {
    use super::svc;

    #[test]
    fn replaced_prefixes_r_dash() {
        assert_eq!(svc::replaced("abcast"), "r-abcast");
        assert_eq!(svc::replaced("net"), "r-net");
    }
}
