//! Latency measurement in the paper's terms (§6.2): for a message `m`
//! sent at `t`, `t_i(m)` is the time between sending and delivery on
//! stack `i`; the **average latency** of `m` is the mean of `t_i(m)` over
//! all stacks. A run yields one [`MsgLatency`] per fully-delivered
//! message; [`Summary`] aggregates a set of them.

use dpu_core::abcast_check::MsgId;
use dpu_core::probe::Probe;
use dpu_core::time::{Dur, Time};
use dpu_repl::builder::Handles;
use dpu_sim::Sim;
use std::collections::BTreeMap;

/// Per-message average latency (the paper's measurement unit).
#[derive(Clone, Copy, Debug)]
pub struct MsgLatency {
    /// Message identity.
    pub msg: MsgId,
    /// When the origin sent it.
    pub sent_at: Time,
    /// Mean of `t_i(m)` over the stacks that delivered it.
    pub avg: Dur,
    /// How many stacks delivered it.
    pub deliveries: usize,
}

/// Collect per-message average latencies from a finished run. Only
/// messages delivered by *every* non-crashed stack are included (a
/// message still in flight at the end of the run has no defined average
/// latency yet).
pub fn collect_latencies(sim: &mut Sim, h: &Handles) -> Vec<MsgLatency> {
    let probe = h.probe.expect("probe required for latency collection");
    let mut sent: BTreeMap<MsgId, Time> = BTreeMap::new();
    let mut sums: BTreeMap<MsgId, (u64, usize)> = BTreeMap::new();
    let mut live_stacks = 0usize;
    for id in sim.stack_ids() {
        if sim.stack(id).is_crashed() {
            continue;
        }
        live_stacks += 1;
        let (s, d) = sim.with_stack(id, |st| {
            st.with_module::<Probe, _>(probe, |p| (p.sent().to_vec(), p.delivered().to_vec()))
                .expect("probe present")
        });
        for (msg, t) in s {
            sent.insert(msg, t);
        }
        for rec in d {
            let e = sums.entry(rec.msg).or_insert((0, 0));
            e.0 += rec.latency().as_nanos();
            e.1 += 1;
        }
    }
    sent.into_iter()
        .filter_map(|(msg, sent_at)| {
            let &(total, count) = sums.get(&msg)?;
            if count < live_stacks {
                return None; // not yet delivered everywhere
            }
            Some(MsgLatency {
                msg,
                sent_at,
                avg: Dur::nanos(total / count as u64),
                deliveries: count,
            })
        })
        .collect()
}

/// Aggregate statistics over a set of message latencies.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    /// Number of messages.
    pub n: usize,
    /// Mean average-latency, in milliseconds.
    pub mean_ms: f64,
    /// 95th percentile, in milliseconds.
    pub p95_ms: f64,
    /// Maximum, in milliseconds.
    pub max_ms: f64,
}

impl Summary {
    /// Summarise a set of latencies (empty input gives zeros).
    pub fn of(latencies: impl IntoIterator<Item = Dur>) -> Summary {
        let mut ms: Vec<f64> = latencies.into_iter().map(|d| d.as_millis_f64()).collect();
        if ms.is_empty() {
            return Summary::default();
        }
        ms.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let n = ms.len();
        let pick = |q: f64| ms[((n - 1) as f64 * q).round() as usize];
        Summary {
            n,
            mean_ms: ms.iter().sum::<f64>() / n as f64,
            p95_ms: pick(0.95),
            max_ms: ms[n - 1],
        }
    }

    /// Summarise the messages sent within `[from, to)`.
    pub fn of_window(msgs: &[MsgLatency], from: Time, to: Time) -> Summary {
        Summary::of(msgs.iter().filter(|m| m.sent_at >= from && m.sent_at < to).map(|m| m.avg))
    }
}

/// Bin messages by send time for time-series output (Figure 5 style):
/// returns `(bin_center_ms, mean_latency_ms, count)` per non-empty bin.
pub fn time_series(msgs: &[MsgLatency], bin: Dur) -> Vec<(f64, f64, usize)> {
    let mut bins: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for m in msgs {
        let idx = m.sent_at.as_nanos() / bin.as_nanos().max(1);
        let e = bins.entry(idx).or_insert((0.0, 0));
        e.0 += m.avg.as_millis_f64();
        e.1 += 1;
    }
    bins.into_iter()
        .map(|(idx, (sum, count))| {
            let center = (idx as f64 + 0.5) * bin.as_millis_f64();
            (center, sum / count as f64, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpu_core::StackId;

    fn ml(seq: u64, sent_ms: u64, avg_ms: u64) -> MsgLatency {
        MsgLatency {
            msg: (StackId(0), seq),
            sent_at: Time(sent_ms * 1_000_000),
            avg: Dur::millis(avg_ms),
            deliveries: 3,
        }
    }

    #[test]
    fn summary_percentiles() {
        let s = Summary::of((1..=100u64).map(Dur::millis));
        assert_eq!(s.n, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        // Nearest-rank on index round((n-1)·q): q=0.95 → index 94 → 95 ms.
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.max_ms, 100.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::of(std::iter::empty());
        assert_eq!(s.n, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn window_filters_by_send_time() {
        let msgs = vec![ml(0, 10, 5), ml(1, 20, 7), ml(2, 30, 9)];
        let s = Summary::of_window(&msgs, Time(15_000_000), Time(25_000_000));
        assert_eq!(s.n, 1);
        assert_eq!(s.mean_ms, 7.0);
    }

    #[test]
    fn time_series_bins_and_averages() {
        let msgs = vec![ml(0, 1, 4), ml(1, 2, 6), ml(2, 11, 10)];
        let series = time_series(&msgs, Dur::millis(10));
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].1, 5.0);
        assert_eq!(series[0].2, 2);
        assert_eq!(series[1].1, 10.0);
    }
}
