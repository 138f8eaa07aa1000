//! One benchmark for the whole system: five workloads, the end-to-end
//! metrics a user of the system sees, and a per-layer ledger measured from
//! outside the program. See `benchmark/README.md`.
//!
//! ```text
//! dpu-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric without
//! `--trace`, every per-layer metric with it. Exit code 0 means the run
//! was correct and nothing failed.

mod alloc;
mod kernels;
mod live;
mod loadgen;
mod nullhost;
mod sims;
mod spec;
mod stats;
mod trace;

use dpu::reactor::Reactor;
use dpu::repl::builder::specs;
use dpu::runtime::Runtime;
use sims::LedgerCounts;
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{calibrate, quartiles, sub_seed, Collector};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Operations one repetition attempted, how many of them failed, and
/// whether every checked property held.
#[derive(Clone, Copy, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Ops {
    const NONE: Ops = Ops { attempted: 0, failed: 0, correct: true };
    fn and(self, o: Ops) -> Ops {
        Ops {
            attempted: self.attempted + o.attempted,
            failed: self.failed + o.failed,
            correct: self.correct && o.correct,
        }
    }
}

/// Full size, or the `--smoke` size (n <= 64, 0.2 s phases).
pub struct Scale {
    pub smoke: bool,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: None, seed: 42, seconds: 15.0, trace: false, smoke: false };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--smoke" => a.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the driver's form.
            "--trace" => {
                a.trace = it.peek().is_none_or(|v| v != "0");
                if it.peek().is_some_and(|v| v == "0" || v == "1") {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// One repetition of a workload, by name.
fn one_rep(
    workload: &str,
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
    c: &mut Collector,
) -> (Ops, Option<LedgerCounts>) {
    let sim = |(o, l)| (o, Some(l));
    match workload {
        "fig5-ct-sim" => sim(sims::fig5_rep(seed, scale, tr, c)),
        "switch-1k-sim" => sim(sims::switch_1k_rep(seed, scale, tr, c)),
        "dgram-64k-sim" => sim(sims::dgram_rep(seed, scale, tr, c)),
        "abcast-runtime" => (live::rep::<Runtime>(seed, scale, tr, c), None),
        "abcast-reactor" => (live::rep::<Reactor>(seed, scale, tr, c), None),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// The live workloads' once-per-run replacement phase.
fn live_switches(
    workload: &str,
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
    c: &mut Collector,
) -> Ops {
    match workload {
        "abcast-runtime" => live::switches::<Runtime>(seed, scale, tr, c),
        "abcast-reactor" => live::switches::<Reactor>(seed, scale, tr, c),
        _ => Ops::NONE,
    }
}

/// How many repetitions fit `seconds` (and how many of them are warm-up,
/// discarded), from the workload's nominal cost —
/// a function of the arguments only, so the same seed and seconds give the
/// same inputs on any machine.
fn reps_for(workload: &str, seconds: f64, scale: &Scale) -> (u64, u64) {
    if scale.smoke {
        return (2, 1);
    }
    let w = WORKLOADS.iter().find(|w| w.name == workload).expect("validated");
    (((seconds / w.nominal_s) as u64).clamp(w.warmup + 1, 64), w.warmup)
}

/// How far past `--seconds` the untraced run may go before it stops
/// adding repetitions.
const OVERRUN: f64 = 1.7;

struct Outcome {
    ops: Ops,
    c: Collector,
    /// Measured repetitions (the warm-up one not counted).
    reps: u64,
}

/// The untraced run: the discarded warm-up repetitions, then the measured
/// ones, the calibration kernel interleaved.
fn run_untraced(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let mut tr = Tracer::new(false);
    let (total, warm) = reps_for(workload, seconds, scale);
    let mut c = Collector::default();
    let mut ops = Ops::NONE;
    let started = Instant::now();
    let mut measured = 0;
    for rep in 0..total {
        // The repetition count is a function of the arguments, but a
        // machine far slower than the nominal costs assume must not run
        // past the caller's patience: stop early once well over budget.
        if measured >= 2 && started.elapsed().as_secs_f64() > OVERRUN * seconds {
            eprintln!("over {OVERRUN} x --seconds after {measured} measured repetitions: stopping");
            break;
        }
        c.add("harness.calib_ns_per_op", calibrate());
        let mut rc = Collector::default();
        let (o, _) = one_rep(workload, sub_seed(seed, rep), scale, &mut tr, &mut rc);
        if rep < warm {
            // Warm-up: first-touch page faults and lazy tables are not
            // what users pay per run. Its verdict still counts.
            ops.correct &= o.correct && o.failed == 0;
        } else {
            c.absorb(rc);
            ops = ops.and(o);
            measured += 1;
        }
    }
    c.add("harness.calib_ns_per_op", calibrate());
    let mut unused = Collector::default();
    ops = ops.and(live_switches(workload, sub_seed(seed, total), scale, &mut tr, &mut unused));
    Outcome { ops, c, reps: measured }
}

/// Price the counts of a traced simulator run with the isolated kernel
/// costs: the share of `run_s` each explains, and the rest.
fn ledger(c: &mut Collector, l: &LedgerCounts, tr: &mut Tracer) {
    let sched = kernels::sched_ns_per_op(tr, l.queued_median, l.sched);
    c.add("sim.sched_ns_per_op", sched);
    let run_ns = l.run_s * 1e9;
    let cost = |name| c.median(name).unwrap_or(0.0);
    let shares = [
        // Every event is popped once and was pushed once.
        ("sim.ledger_sched_pct", 2.0 * l.events as f64 * sched),
        ("sim.ledger_dispatch_pct", l.steps as f64 * cost("core.dispatch_ns_per_step")),
        ("sim.ledger_encode_pct", l.encodes as f64 * cost("core.wire_encode_ns")),
        ("sim.ledger_decode_pct", l.decodes as f64 * cost("core.wire_decode_ns")),
        ("sim.ledger_hist_pct", l.hist_records as f64 * cost("telemetry.hist_record_ns")),
    ];
    let mut explained = 0.0;
    for (name, ns) in shares {
        let pct = ns / run_ns * 100.0;
        explained += pct;
        c.add(name, pct);
    }
    c.add("sim.ledger_unexplained_pct", 100.0 - explained);
}

/// The traced run: isolated kernels, the null host, then pairs of one
/// untraced and one traced repetition on the same sub-seed. Per-layer
/// numbers come from here; end-to-end numbers never do.
fn run_traced(workload: &str, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut c = Collector::default();
    let mut ops = Ops::NONE;

    c.add("harness.calib_ns_per_op", calibrate());
    c.add("core.dispatch_ns_per_step", kernels::dispatch_ns_per_step(&mut tr));
    let (enc, dec) = kernels::wire_ns(&mut tr);
    c.add("core.wire_encode_ns", enc);
    c.add("core.wire_decode_ns", dec);
    let (enc, dec) = kernels::sockframe_ns(&mut tr);
    c.add("net.sockframe_encode_ns", enc);
    c.add("net.sockframe_decode_ns", dec);
    c.add("telemetry.hist_record_ns", kernels::hist_record_ns(&mut tr));

    let msgs = if scale.smoke { 200 } else { 4000 };
    let seq = nullhost::run(&mut tr, "nullhost.seq", 3, specs::seq(0), msgs);
    let ct = nullhost::run(&mut tr, "nullhost.ct", 3, specs::ct(0), msgs / 4);
    if let (Some(seq), Some(ct)) = (&seq, &ct) {
        c.add("core.nullhost_us_per_msg", seq.us_per_msg);
        c.add("protocols.seq_us_per_msg", seq.us_per_msg);
        c.add("protocols.ct_us_per_msg", ct.us_per_msg);
        c.add("core.nullhost_steps_per_msg", seq.steps_per_msg);
    } else {
        eprintln!("null host failed the total-order check: its numbers are void");
        ops.correct = false;
    }

    let pairs = (reps_for(workload, seconds, scale).0 / 2).max(1);
    // What one repetition cost: seconds per broadcast. Both of a pair run
    // the same broadcasts, so the ratio is that of their timed regions.
    let cost = |c: &Collector| c.median("sat_msgs_per_s").map(|rate| 1.0 / rate);
    let (mut plain_run, mut traced_run) = (Vec::new(), Vec::new());
    let mut counts = None;
    for pair in 0..pairs {
        let s = sub_seed(seed, pair);
        c.add("harness.calib_ns_per_op", calibrate());
        // The second repetition on a seed finds the allocator and the
        // caches warm: alternate which of the two goes first.
        for traced in [pair % 2 == 1, pair % 2 == 0] {
            let mut rc = Collector::default();
            if traced {
                tr.set_rep(pair as u32 + 1);
                let open = tr.begin("rep");
                let (o, l) = one_rep(workload, s, scale, &mut tr, &mut rc);
                tr.end(open);
                ops = ops.and(o);
                traced_run.extend(cost(&rc));
                counts = l.or(counts);
                c.absorb(rc);
            } else {
                let (o, _) = one_rep(workload, s, scale, &mut off, &mut rc);
                ops = ops.and(o);
                plain_run.extend(cost(&rc));
            }
        }
    }
    let overhead = stats::median(&traced_run) / stats::median(&plain_run) - 1.0;
    c.add("harness.trace_overhead_pct", overhead * 100.0);
    tr.set_rep(0);
    ops = ops.and(live_switches(workload, sub_seed(seed, pairs), scale, &mut tr, &mut c));
    if workload == "fig5-ct-sim" {
        if let Some(pct) = sims::fig6_layer_overhead_pct(sub_seed(seed, 0), scale, &mut tr) {
            c.add("repl.layer_overhead_pct", pct);
        }
    }
    if let Some(l) = &counts {
        ledger(&mut c, l, &mut tr);
    }
    // What the live host adds to what the stacks cost on the null host.
    for (host, cpu) in [
        ("runtime.host_overhead_us_per_msg", "runtime.shard_cpu_us_per_msg"),
        ("reactor.host_overhead_us_per_msg", "reactor.loop_cpu_us_per_msg"),
    ] {
        if let (Some(cpu), Some(null)) = (c.median(cpu), c.median("core.nullhost_us_per_msg")) {
            c.add(host, cpu - null);
        }
    }
    c.add("harness.calib_ns_per_op", calibrate());
    c.add("harness.failed_ops_pct", ops.failed as f64 / ops.attempted.max(1) as f64 * 100.0);

    let dir = std::path::Path::new("benchmark/out");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join("trace.json"), tr.to_json()));
    if let Err(e) = written {
        eprintln!("cannot write benchmark/out/trace.json: {e}");
        ops.correct = false;
    }
    print_self_times(&tr);
    Outcome { ops, c, reps: pairs }
}

fn print_self_times(tr: &Tracer) {
    println!("  spans ({} recorded, written to benchmark/out/trace.json):", tr.spans().len());
    for (name, t) in tr.totals_by_name() {
        println!(
            "    {name:<28} n={:<7} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Print the metrics of one run by name, unit and direction, and build its
/// final JSON line. A metric the workload does not exercise reads 0.
fn report(workload: &str, seed: u64, out: &Outcome, metrics: &[Metric], traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "workload {workload}  seed {seed}  measured reps {}  nproc {nproc}  attempted {}  \
         failed {} ({:.4} %)  correct {}",
        out.reps,
        out.ops.attempted,
        out.ops.failed,
        out.ops.failed as f64 / out.ops.attempted.max(1) as f64 * 100.0,
        out.ops.correct
    );
    if let Some(w) = WORKLOADS.iter().find(|w| w.name == workload) {
        println!("  why: {}", w.why);
    }
    // A wall-clock metric resolves nothing finer than the machine's own
    // drift during the run, which the calibration kernel shows.
    if let Some(calib) = out.c.get("harness.calib_ns_per_op") {
        let (q1, med, q3) = quartiles(calib);
        let spread = (q3 - q1) / med;
        let verdict = if spread > spec::WALL_BOUND { "wall metrics UNRESOLVED" } else { "ok" };
        println!(
            "  calibration {med:.4} ns/op, quartiles {:.1} % apart over the run: {verdict}",
            spread * 100.0
        );
    }
    let mut json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let head = format!("  {:<36}", m.name);
        let tail = format!("{:<6} ({} is better)", m.unit, m.better);
        let value = match out.c.get(m.name) {
            None => {
                println!("{head} {:>18} {tail} not exercised", 0);
                0.0
            }
            Some(samples) => {
                let (q1, value, q3) = quartiles(samples);
                let (lo, hi) =
                    samples.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                        (lo.min(v), hi.max(v))
                    });
                println!(
                    "{head} {value:>18.6} {tail} q1 {q1:.6} q3 {q3:.6} min {lo:.6} max {hi:.6} n={}",
                    samples.len()
                );
                value
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(json, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    // The untraced run measures some per-layer metrics on its way; show
    // them, but the result line carries the end-to-end ones only.
    for m in PER_LAYER.iter().filter(|m| !traced && out.c.get(m.name).is_some()) {
        let (q1, value, q3) = quartiles(out.c.get(m.name).unwrap_or(&[]));
        println!(
            "  {:<36} {value:>18.6} {:<6} ({} is better) q1 {q1:.6} q3 {q3:.6}",
            m.name, m.unit, m.better
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.ops.correct,
        out.ops.attempted.max(1),
        out.ops.failed
    )
}

fn run_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> (Outcome, String) {
    let (out, metrics) = if trace {
        (run_traced(workload, seed, seconds, scale), PER_LAYER)
    } else {
        (run_untraced(workload, seed, seconds, scale), END_TO_END)
    };
    let line = report(workload, seed, &out, metrics, trace);
    (out, line)
}

/// `--smoke`: every workload at toy size, untraced and traced, with the
/// output checked against `BENCHMARK.json`.
fn smoke(seed: u64) -> Result<(), String> {
    let file =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    spec::check_against(&file)?;
    let scale = Scale { smoke: true };
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for trace in [false, true] {
            let (out, line) = run_one(workload, seed, 1.0, trace, &scale);
            if !out.ops.correct || out.ops.failed > 0 {
                return Err(format!("{workload}: incorrect or failed operations at smoke size"));
            }
            for m in END_TO_END.iter().filter(|_| !trace) {
                let v = out.c.median(m.name).ok_or(format!("{workload}: no {}", m.name))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("{workload}: {} = {v}", m.name));
                }
            }
            println!("{line}");
        }
    }
    println!("smoke ok: {} workloads, names match BENCHMARK.json", WORKLOADS.len());
    Ok(())
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if a.smoke {
        return match smoke(a.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let scale = Scale { smoke: false };
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut ok = true;
    for workload in names {
        let (out, line) = run_one(workload, a.seed, a.seconds, a.trace, &scale);
        ok &= out.ops.correct && out.ops.failed == 0;
        println!("{line}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
