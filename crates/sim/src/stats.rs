//! Run statistics: the counters a simulation accumulates, with
//! per-cluster (shard) and per-workload-generator breakdowns. What the
//! stacks themselves count (wire, transport, histograms) is
//! [`crate::Sim::telemetry_report`]'s.
//!
//! Since the cluster-sharded engine, counters are accumulated *per
//! shard* — each topology cluster owns a private [`SimStats`] partial
//! that its (possibly worker-thread-hosted) event loop increments
//! without any synchronization — and [`crate::Sim::stats`] folds the
//! partials into the totals plus one [`ShardStats`] row per cluster.
//! Folding is pure addition, so the totals are identical whichever
//! worker count executed the run.

/// Counters for one shard (one topology cluster, the unit the parallel
/// engine schedules onto worker threads). Flat topologies have a single
/// shard covering every node.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Scheduler events dispatched on this shard.
    pub events: u64,
    /// Datagrams delivered to this shard's nodes.
    pub packets_delivered: u64,
    /// Stack steps dispatched on this shard's nodes.
    pub steps: u64,
}

/// Counters for one installed workload generator (see
/// [`crate::workload`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Generator name (unique per installation).
    pub name: String,
    /// Messages injected.
    pub injected: u64,
    /// Burst windows entered (bursty generators only; counted per
    /// cluster sub-generator on clustered topologies).
    pub bursts: u64,
    /// Crashes induced (churn generators only).
    pub crashes: u64,
    /// Restarts performed (churn generators only).
    pub restarts: u64,
}

/// Counters accumulated over a run (window them by snapshotting).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Datagrams handed to the network.
    pub packets_sent: u64,
    /// Datagrams dropped by the probabilistic loss model.
    pub dropped_loss: u64,
    /// Datagrams dropped by a partition (or an unreachable destination).
    pub dropped_partition: u64,
    /// Datagrams delivered (duplicates counted).
    pub packets_delivered: u64,
    /// Payload bytes handed to the network (headers excluded).
    pub bytes_sent: u64,
    /// Stack steps dispatched across all nodes.
    pub steps: u64,
    /// Scheduler events dispatched (packets, steps, wakes, crashes,
    /// actions) — the numerator of every events/sec figure (`bench_scale`,
    /// the benchmark's `sim.events_per_s`).
    /// Includes barrier-time actions, which belong to no shard, so this
    /// can exceed the sum of the per-shard rows.
    pub events: u64,
    /// Per-shard breakdown, one row per topology cluster. The spread of
    /// `events` across rows is the parallel engine's load-balance
    /// signal: `sum / max` bounds the achievable speedup.
    pub per_shard: Vec<ShardStats>,
    /// Per-generator breakdown, in installation order.
    pub workloads: Vec<WorkloadStats>,
}

impl SimStats {
    /// Total datagrams dropped, regardless of cause.
    pub fn packets_dropped(&self) -> u64 {
        self.dropped_loss + self.dropped_partition
    }

    /// Fold another partial into this one: plain addition on every
    /// counter. Per-shard rows and workloads are *not* merged here —
    /// the simulator assembles those itself (one row per cluster).
    pub(crate) fn absorb(&mut self, other: &SimStats) {
        self.packets_sent += other.packets_sent;
        self.dropped_loss += other.dropped_loss;
        self.dropped_partition += other.dropped_partition;
        self.packets_delivered += other.packets_delivered;
        self.bytes_sent += other.bytes_sent;
        self.steps += other.steps;
        self.events += other.events;
    }

    /// The [`ShardStats`] row of a shard-local partial.
    pub(crate) fn shard_row(&self) -> ShardStats {
        ShardStats {
            events: self.events,
            packets_delivered: self.packets_delivered,
            steps: self.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_dropped_sums_both_causes() {
        let s = SimStats { dropped_loss: 3, dropped_partition: 4, ..SimStats::default() };
        assert_eq!(s.packets_dropped(), 7);
    }

    #[test]
    fn absorb_adds_every_counter() {
        let mut total = SimStats {
            packets_sent: 1,
            dropped_loss: 2,
            dropped_partition: 3,
            packets_delivered: 4,
            bytes_sent: 5,
            steps: 6,
            events: 7,
            ..SimStats::default()
        };
        let partial = SimStats {
            packets_sent: 10,
            dropped_loss: 20,
            dropped_partition: 30,
            packets_delivered: 40,
            bytes_sent: 50,
            steps: 60,
            events: 70,
            ..SimStats::default()
        };
        total.absorb(&partial);
        assert_eq!(total.packets_sent, 11);
        assert_eq!(total.dropped_loss, 22);
        assert_eq!(total.dropped_partition, 33);
        assert_eq!(total.packets_delivered, 44);
        assert_eq!(total.bytes_sent, 55);
        assert_eq!(total.steps, 66);
        assert_eq!(total.events, 77);
        assert_eq!(
            partial.shard_row(),
            ShardStats { events: 70, packets_delivered: 40, steps: 60 }
        );
    }

    /// Folding is pure addition, so the totals must come out identical
    /// whichever grouping (or worker count) produced the partials:
    /// folding three shard partials one-by-one equals folding a
    /// pre-summed pair plus the remainder, in any order.
    #[test]
    fn fold_by_addition_is_grouping_independent() {
        let partials: Vec<SimStats> = (1..=3u64)
            .map(|k| SimStats {
                packets_sent: 10 * k,
                dropped_loss: k,
                dropped_partition: 2 * k,
                packets_delivered: 7 * k,
                bytes_sent: 100 * k,
                steps: 5 * k,
                events: 20 * k,
                ..SimStats::default()
            })
            .collect();

        // One shard at a time, installation order.
        let mut one_by_one = SimStats::default();
        for p in &partials {
            one_by_one.absorb(p);
        }

        // Pre-summed pair (as a two-worker engine would hand back),
        // then the straggler, reversed order.
        let mut pair = SimStats::default();
        pair.absorb(&partials[2]);
        pair.absorb(&partials[1]);
        let mut grouped = SimStats::default();
        grouped.absorb(&pair);
        grouped.absorb(&partials[0]);

        assert_eq!(one_by_one, grouped);
        assert_eq!(one_by_one.packets_sent, 60);
        assert_eq!(one_by_one.packets_dropped(), 18);
        assert_eq!(one_by_one.events, 120);
    }
}
