//! # dpu — Dynamic Protocol Update
//!
//! Umbrella crate re-exporting the whole workspace: a Rust reproduction of
//! *"Structural and Algorithmic Issues of Dynamic Protocol Update"*
//! (Rütti, Wojciechowski, Schiper; IPDPS 2006).
//!
//! * [`core`] — the composition model (services, modules, stacks, dynamic
//!   bindings) and the DPU correctness checkers;
//! * [`sim`] — the deterministic discrete-event host;
//! * [`net`] — UDP-like datagrams and reliable point-to-point;
//! * [`protocols`] — failure detector, consensus, atomic broadcast
//!   variants, group membership;
//! * [`repl`] — the replacement module (Algorithm 1) and the baseline
//!   switchers;
//! * [`runtime`] — a sharded event-loop real-time host;
//! * [`reactor`] — an epoll-backed real-socket host (stacks over
//!   loopback UDP, groups spanning OS processes).
//!
//! ## Quickstart
//!
//! `examples/quickstart.rs` is the end-to-end tour: it builds the
//! paper's Figure-4 group communication stack on three simulated
//! machines, broadcasts through it, replaces the atomic broadcast
//! protocol *while messages are in flight* (the paper's Algorithm 1),
//! and then mechanically checks the four atomic broadcast properties
//! across the switch:
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The other examples (`adaptive_chat`, `replicated_kv`,
//! `membership_demo`, `live_runtime`) exercise the same stack under
//! different workloads and hosts; `cargo test -q` runs the test suite,
//! and the whole-system benchmark in `benchmark/` measures it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpu_core as core;
pub use dpu_net as net;
pub use dpu_protocols as protocols;
pub use dpu_reactor as reactor;
pub use dpu_repl as repl;
pub use dpu_runtime as runtime;
pub use dpu_sim as sim;
