//! **Figure 5** — average atomic broadcast latency as a function of time,
//! across a dynamic replacement of the CT-ABcast protocol by the same
//! protocol (paper §6.2, n = 7, constant load).
//!
//! ```text
//! cargo run --release -p dpu-bench --bin fig5 [--n 7] [--load 150] [--seed 42]
//!     [--switches 1] [--quick]
//! ```
//!
//! Prints a `time_ms  latency_ms` series (binned), the replacement
//! windows and the before/during/after summaries. The paper's qualitative
//! result: latency spikes briefly around the replacement and returns to
//! normal; the system is never unavailable. `--switches K` spreads K
//! replacements evenly over the measured period — "returns to normal"
//! must hold after the K-th as after the first. That shape check is the
//! exit code: 0 iff the mean latency after the last replacement is within
//! 15 % of the mean before the first.

use dpu_bench::experiments::{during_summary, run_repl_switches, ExpConfig};
use dpu_bench::stats::{time_series, Summary};
use dpu_bench::Args;
use dpu_core::time::{Dur, Time};
use dpu_repl::builder::specs;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse();
    let n: u32 = args.get("n", 7);
    let load: f64 = args.get("load", 150.0);
    let seed: u64 = args.get("seed", 42);
    let switches: u32 = args.get("switches", 1).max(1);
    let mut cfg = ExpConfig::new(n, load);
    cfg.seed = seed;
    if args.has("quick") {
        cfg.measure = Dur::secs(3);
        cfg.tail = Dur::secs(4);
    }

    println!("# Figure 5: ABcast latency vs. time across a replacement");
    println!("# n = {n}, load = {load} msg/s, seed = {seed}, {switches} replacement(s)");
    let offsets: Vec<Dur> =
        (1..=switches).map(|k| cfg.measure * u64::from(k) / u64::from(switches + 1)).collect();
    let outcome = run_repl_switches(&cfg, &offsets, specs::ct);
    assert_eq!(outcome.windows.len(), offsets.len(), "a replacement did not complete");
    for (start, end) in &outcome.windows {
        println!(
            "# replacement window: {:.3} ms .. {:.3} ms (duration {:.3} ms)",
            start.as_millis_f64(),
            end.as_millis_f64(),
            end.since(*start).as_millis_f64(),
        );
    }
    println!("# {} reissued message(s)", outcome.reissued);
    let (start, _) = outcome.windows[0];
    let (_, end) = *outcome.windows.last().expect("at least one replacement");

    println!("#\n# time_ms\tlatency_ms\tmsgs");
    for (t, lat, count) in time_series(&outcome.latencies, Dur::millis(100)) {
        println!("{t:.1}\t{lat:.4}\t{count}");
    }

    let margin = Dur::millis(300);
    let before = Summary::of_window(&outcome.latencies, Time::ZERO, start);
    let during = during_summary(&outcome);
    let after = Summary::of_window(&outcome.latencies, end + margin, cfg.measure_end());
    println!("#\n# phase     \tmean_ms\tp95_ms\tmax_ms\tmsgs");
    for (name, s) in [("before", before), ("during", during), ("after", after)] {
        println!("# {name:<10}\t{:.4}\t{:.4}\t{:.4}\t{}", s.mean_ms, s.p95_ms, s.max_ms, s.n);
    }
    let drift = (after.mean_ms / before.mean_ms.max(1e-9) - 1.0).abs();
    println!(
        "# paper shape check: during-mean {:.2}x before-mean; after within {:.1}% of before",
        during.mean_ms / before.mean_ms.max(1e-9),
        drift * 100.0
    );
    if drift <= 0.15 {
        ExitCode::SUCCESS
    } else {
        eprintln!("latency did not return to normal after the last replacement");
        ExitCode::FAILURE
    }
}
