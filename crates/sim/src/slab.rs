//! Slab + struct-of-arrays storage for per-node simulator state.
//!
//! The old layout kept one `Node` struct per stack — stack, CPU/NIC
//! clocks, flags and wake stamp boxed together — so the epoch loop's
//! hot checks (`step_scheduled`, `cpu_free`, `nic_free`, `wake`) chased
//! a 100+-byte stride to poke a few bytes. [`NodeSlab`] splits the
//! shard's nodes the other way:
//!
//! * **slab**: the [`Stack`]s sit in a slot-stable vector, indexed
//!   by `id - shard.base`. Slots are never moved after construction;
//!   churn restarts *recycle* a slot in place ([`NodeSlab::retire`] +
//!   [`NodeSlab::recycle`]), so a restart frees the old incarnation's
//!   module, timer and buffer state eagerly instead of holding both
//!   stacks alive while the replacement is built;
//! * **struct-of-arrays**: the per-node fields the dispatch loop
//!   actually walks live in dense parallel vectors (`cpu_free`,
//!   `nic_free`, `wake`, a `step_scheduled` flag), one cache line
//!   covering 8–64 nodes instead of one node. Whether a node is crashed
//!   is its stack's own flag ([`Stack::is_crashed`]), set by the crash
//!   event and cleared by the restart that recycles the slot.
//!
//! The layout is pure representation: event order, RNG draws and stats
//! are untouched, so the golden trace fingerprint and serial/parallel
//! bit-equality are preserved by construction.

use dpu_core::time::Time;
use dpu_core::Stack;

/// Sentinel for "no wake scheduled" in the dense wake-stamp array
/// (replaces the old `Option<Time>` field — `u64::MAX` is beyond any
/// virtual time the scheduler accepts).
const NO_WAKE: Time = Time(u64::MAX);

/// Slot-stable stack slab + SoA hot fields for one shard's nodes. See
/// module docs.
pub(crate) struct NodeSlab {
    /// Between [`NodeSlab::retire`] and the [`NodeSlab::recycle`] that
    /// refills a slot, its stack is an empty shell (no event dispatch
    /// can observe it — the simulation is paused during a restart).
    stacks: Vec<Stack>,
    cpu_free: Vec<Time>,
    /// When each node's outbound link finishes its current
    /// transmission; sends serialise behind it (NIC queueing).
    nic_free: Vec<Time>,
    /// Time of the currently scheduled `NodeWake` ([`NO_WAKE`] = none);
    /// queue entries whose time no longer matches are stale.
    wake: Vec<Time>,
    /// Whether a `NodeStep` is queued for the node.
    step_scheduled: Vec<bool>,
}

impl NodeSlab {
    pub(crate) fn new(stacks: Vec<Stack>) -> NodeSlab {
        let n = stacks.len();
        NodeSlab {
            stacks,
            cpu_free: vec![Time::ZERO; n],
            nic_free: vec![Time::ZERO; n],
            wake: vec![NO_WAKE; n],
            step_scheduled: vec![false; n],
        }
    }

    #[inline]
    pub(crate) fn stack(&self, slot: usize) -> &Stack {
        &self.stacks[slot]
    }

    #[inline]
    pub(crate) fn stack_mut(&mut self, slot: usize) -> &mut Stack {
        &mut self.stacks[slot]
    }

    /// The stacks, in slot order (stats/trace aggregation).
    pub(crate) fn stacks(&self) -> &[Stack] {
        &self.stacks
    }

    /// Mutable stacks, in slot order.
    pub(crate) fn stacks_mut(&mut self) -> &mut [Stack] {
        &mut self.stacks
    }

    /// Tear the slot's incarnation down *now*, in place, leaving a shell
    /// for [`NodeSlab::recycle`] to overwrite. Separating the teardown
    /// from the refill is what caps a churn restart's resident peak at
    /// one incarnation.
    pub(crate) fn retire(&mut self, slot: usize) {
        self.stacks[slot].tear_down();
    }

    /// Refill a slot with a fresh incarnation and reset its SoA state
    /// (revived, idle CPU/NIC as of `now`, no wake scheduled).
    pub(crate) fn recycle(&mut self, slot: usize, stack: Stack, now: Time) {
        self.stacks[slot] = stack;
        self.cpu_free[slot] = now;
        self.nic_free[slot] = now;
        self.wake[slot] = NO_WAKE;
        self.step_scheduled[slot] = false;
    }

    #[inline]
    pub(crate) fn step_scheduled(&self, slot: usize) -> bool {
        self.step_scheduled[slot]
    }

    #[inline]
    pub(crate) fn set_step_scheduled(&mut self, slot: usize, on: bool) {
        self.step_scheduled[slot] = on;
    }

    #[inline]
    pub(crate) fn cpu_free(&self, slot: usize) -> Time {
        self.cpu_free[slot]
    }

    #[inline]
    pub(crate) fn set_cpu_free(&mut self, slot: usize, at: Time) {
        self.cpu_free[slot] = at;
    }

    #[inline]
    pub(crate) fn nic_free(&self, slot: usize) -> Time {
        self.nic_free[slot]
    }

    #[inline]
    pub(crate) fn set_nic_free(&mut self, slot: usize, at: Time) {
        self.nic_free[slot] = at;
    }

    #[inline]
    pub(crate) fn wake(&self, slot: usize) -> Option<Time> {
        let w = self.wake[slot];
        (w != NO_WAKE).then_some(w)
    }

    #[inline]
    pub(crate) fn set_wake(&mut self, slot: usize, at: Option<Time>) {
        self.wake[slot] = at.unwrap_or(NO_WAKE);
    }
}
