//! Slab + struct-of-arrays storage for per-node simulator state.
//!
//! The old layout kept one `Node` struct per stack — driver, CPU/NIC
//! clocks, flags and wake stamp boxed together — so the epoch loop's
//! hot checks (`crashed`, `step_scheduled`, `cpu_free`, `nic_free`,
//! `wake`) chased a 100+-byte stride to poke a few bytes. [`NodeSlab`]
//! splits the shard's nodes the other way:
//!
//! * **slab**: the [`StackDriver`]s sit in a slot-stable vector, indexed
//!   by `id - shard.base`. Slots are never moved after construction;
//!   churn restarts *recycle* a slot in place ([`NodeSlab::retire`] +
//!   [`NodeSlab::recycle`]), so a restart frees the old incarnation's
//!   module, timer and buffer state eagerly instead of holding both
//!   stacks alive while the replacement is built;
//! * **struct-of-arrays**: the per-node fields the dispatch loop
//!   actually walks live in dense parallel vectors (`cpu_free`,
//!   `nic_free`, `wake`, packed `crashed`/`step_scheduled` flags), one
//!   cache line covering 8–64 nodes instead of one node.
//!
//! The layout is pure representation: event order, RNG draws and stats
//! are untouched, so the golden trace fingerprint and serial/parallel
//! bit-equality are preserved by construction.

use dpu_core::host::StackDriver;
use dpu_core::time::Time;

/// Sentinel for "no wake scheduled" in the dense wake-stamp array
/// (replaces the old `Option<Time>` field — `u64::MAX` is beyond any
/// virtual time the scheduler accepts).
const NO_WAKE: Time = Time(u64::MAX);

const CRASHED: u8 = 1 << 0;
const STEP_SCHEDULED: u8 = 1 << 1;

/// Slot-stable driver slab + SoA hot fields for one shard's nodes. See
/// module docs.
pub(crate) struct NodeSlab {
    /// Between [`NodeSlab::retire`] and the [`NodeSlab::recycle`] that
    /// refills a slot, its driver is an empty shell (no event dispatch
    /// can observe it — the simulation is paused during a restart).
    drivers: Vec<StackDriver>,
    cpu_free: Vec<Time>,
    /// When each node's outbound link finishes its current
    /// transmission; sends serialise behind it (NIC queueing).
    nic_free: Vec<Time>,
    /// Time of the currently scheduled `NodeWake` ([`NO_WAKE`] = none);
    /// queue entries whose time no longer matches are stale.
    wake: Vec<Time>,
    flags: Vec<u8>,
}

impl NodeSlab {
    pub(crate) fn new(drivers: Vec<StackDriver>) -> NodeSlab {
        let n = drivers.len();
        NodeSlab {
            drivers,
            cpu_free: vec![Time::ZERO; n],
            nic_free: vec![Time::ZERO; n],
            wake: vec![NO_WAKE; n],
            flags: vec![0; n],
        }
    }

    #[inline]
    pub(crate) fn driver(&self, slot: usize) -> &StackDriver {
        &self.drivers[slot]
    }

    #[inline]
    pub(crate) fn driver_mut(&mut self, slot: usize) -> &mut StackDriver {
        &mut self.drivers[slot]
    }

    /// The drivers, in slot order (stats/trace aggregation).
    pub(crate) fn drivers(&self) -> impl Iterator<Item = &StackDriver> {
        self.drivers.iter()
    }

    /// Mutable drivers, in slot order.
    pub(crate) fn drivers_mut(&mut self) -> impl Iterator<Item = &mut StackDriver> {
        self.drivers.iter_mut()
    }

    /// Tear the slot's incarnation down *now*, in place, leaving a shell
    /// for [`NodeSlab::recycle`] to overwrite. Separating the teardown
    /// from the refill is what caps a churn restart's resident peak at
    /// one incarnation.
    pub(crate) fn retire(&mut self, slot: usize) {
        self.drivers[slot].tear_down();
    }

    /// Refill a slot with a fresh incarnation and reset its SoA state
    /// (revived, idle CPU/NIC as of `now`, no wake scheduled).
    pub(crate) fn recycle(&mut self, slot: usize, driver: StackDriver, now: Time) {
        self.drivers[slot] = driver;
        self.cpu_free[slot] = now;
        self.nic_free[slot] = now;
        self.wake[slot] = NO_WAKE;
        self.flags[slot] = 0;
    }

    #[inline]
    pub(crate) fn crashed(&self, slot: usize) -> bool {
        self.flags[slot] & CRASHED != 0
    }

    #[inline]
    pub(crate) fn set_crashed(&mut self, slot: usize) {
        self.flags[slot] |= CRASHED;
    }

    #[inline]
    pub(crate) fn step_scheduled(&self, slot: usize) -> bool {
        self.flags[slot] & STEP_SCHEDULED != 0
    }

    #[inline]
    pub(crate) fn set_step_scheduled(&mut self, slot: usize, on: bool) {
        if on {
            self.flags[slot] |= STEP_SCHEDULED;
        } else {
            self.flags[slot] &= !STEP_SCHEDULED;
        }
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
