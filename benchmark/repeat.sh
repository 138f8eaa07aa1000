#!/usr/bin/env bash
# Run the whole benchmark twice on the same commit and seed and print, for
# every workload and end-to-end metric, how far the second run is from the
# first, against the metric's bound in BENCHMARK.json.
#
#   benchmark/repeat.sh [seed] [pause-seconds]
#
# Verdicts: "ok" within the bound; "WORSE" beyond it; "UNRESOLVED" when the
# calibration kernel itself moved by more than the bound between the runs,
# so the machine changed and the difference says nothing about the program;
# "INEXACT" when a metric that is a pure function of the seed on the
# simulator (delivery_p50_us, bytes_per_stack) is not bit-identical.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
pause="${2:-180}"
out=benchmark/out
mkdir -p "$out"

run() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --seed "$seed" >"$1"
}

run "$out/repeat-1.txt"
sleep "$pause"
run "$out/repeat-2.txt"

python3 - "$out/repeat-1.txt" "$out/repeat-2.txt" <<'PY'
import json, re, sys

spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
exact_on_sims = {"delivery_p50_us", "bytes_per_stack"}

def parse(path):
    runs, name, calib = {}, None, None
    for line in open(path):
        if m := re.match(r"workload (\S+)", line):
            name = m.group(1)
        elif m := re.match(r"\s+calibration ([0-9.]+) ns/op", line):
            calib = float(m.group(1))
        elif line.startswith("{"):
            runs[name] = (json.loads(line), calib)
    return runs

first, second = parse(sys.argv[1]), parse(sys.argv[2])
failed = False
bounded = {x["name"] for x in spec["workloads"]}
for w in first:
    (a, calib_a), (b, calib_b) = first[w], second[w]
    assert a["correct"] and b["correct"] and a["failed"] == b["failed"] == 0, w
    held = "" if w in bounded else "  (not listed in BENCHMARK.json: verdicts for information)"
    print(f"{w}: calibration {calib_a} -> {calib_b} ns/op{held}")
    for metric, (bound, better) in bounds.items():
        x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
        worse = (y - x) / x if better == "lower" else (x - y) / x
        if w.endswith("-sim") and metric in exact_on_sims:
            verdict = "ok (bit-identical)" if x == y else "INEXACT"
        elif metric != "bytes_per_stack" and abs(calib_b - calib_a) / calib_a > bound:
            verdict = "UNRESOLVED"  # a clock reading on a machine that changed speed
        else:
            verdict = "ok" if worse <= bound else "WORSE"
        failed |= w in bounded and verdict in ("INEXACT", "WORSE")
        print(f"  {metric:<18} {x:>16.6f} -> {y:>16.6f}  {worse * 100:+7.2f} % worse  bound {bound * 100:.0f} %  {verdict}")
sys.exit(1 if failed else 0)
PY
