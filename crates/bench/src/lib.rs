//! # dpu-bench — the paper's tables, and the one row nothing else measures
//!
//! Regenerates every figure of the paper's §6 evaluation and the measured
//! version of its §4.2/§5.3 comparison, on the deterministic simulator.
//! Every other number this repository commits to is measured by the
//! whole-system benchmark (`benchmark/`, named by `BENCHMARK.json`); a
//! binary stays here only if it produces a paper table, is the
//! two-process demo CI runs, or reports a number the benchmark does not.
//!
//! | binary | what it produces |
//! |---|---|
//! | `fig5` | Figure 5 — ABcast latency vs. time across a replacement (n = 7) |
//! | `fig6` | Figure 6 — latency vs. load, n ∈ {3, 7}, three series |
//! | `comparison` | §4.2/§5.3 — Repl vs. Maestro vs. Graceful Adaptation, measured |
//! | `ablation` | layer cost, coordinator policy and proposal batching, across loads |
//! | `consensus_switch` | §7 / ref \[16\] — replacing the agreement protocol under load |
//! | `cross_switch` | switching between *different* ABcast protocols (the paper's motivation) |
//! | `cross_switch_net` | the Figure-4 switch across two OS processes over loopback UDP |
//! | `bench_scale` | `BENCH_scale.json` — heap bytes per stack and events/s up to 2²⁰ stacks |
//!
//! All simulator runs are pure functions of their seed; CI runs every
//! binary above (`--quick` shrinks the sweeps).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod mem;
pub mod stats;
pub mod synth;

/// Tiny CLI helper: read `--key value` style options with defaults, plus
/// a `--quick` switch that the binaries use to shrink sweeps.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Parse the process arguments.
    pub fn parse() -> Args {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Value of `--name <v>`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// The first argument that is neither a `--flag` nor a number (a
    /// flag's value): the output path of the binaries that write a file.
    pub fn positional(&self) -> Option<&str> {
        self.raw
            .iter()
            .map(String::as_str)
            .find(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn args_default_when_absent() {
        let a = super::Args { raw: vec!["--n".into(), "5".into(), "--quick".into()] };
        assert_eq!(a.get("n", 7u32), 5);
        assert_eq!(a.get("load", 100.0f64), 100.0);
        assert!(a.has("quick"));
        assert!(!a.has("slow"));
        assert_eq!(a.positional(), None);
        // A path anywhere, and a valued flag that comes last without
        // its value.
        let a = super::Args { raw: vec!["--quick".into(), "o.json".into(), "--workers".into()] };
        assert_eq!(a.positional(), Some("o.json"));
        assert_eq!(a.get("workers", 1usize), 1);
    }
}
