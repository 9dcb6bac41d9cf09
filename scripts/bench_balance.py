#!/usr/bin/env python3
"""Writes BENCH_balance.json from a Release build's bench_balance.

    python3 scripts/bench_balance.py --build BUILD [--reps 5] \\
        [--out BENCH_balance.json]

Runs BUILD/bench/bench_balance with --metrics-out, --reps repetitions and
gbench JSON output, and composes the file from those outputs alone: `host`
and `metrics` are the --metrics-out lines as written, `benchmarks` the
median and stddev aggregates, `pairs` every interleaved steady-state pair,
and `summary` is computed from those. The accountant overhead is reported
as the median of the per-pair overheads with its quartiles and range, and
judged against the 3% bar only when the quartiles sit on one side of it.
"""

import argparse
import json
import os
import subprocess
import statistics
import sys
import tempfile

NOTE = (
    "Recorded from a Release build of bench/bench_balance on a shared "
    "4-vCPU KVM host with `python3 scripts/bench_balance.py --build BUILD "
    "--reps N`, which runs `bench_balance --metrics-out=FILE "
    "--benchmark_repetitions=N --benchmark_out=G "
    "--benchmark_out_format=json`. `host` and `metrics` are the "
    "--metrics-out lines as written, `benchmarks` the median/stddev "
    "aggregates from G, `pairs` the per-repetition rows of the steady-state "
    "pair, and `summary` is computed from those; nothing is edited by hand. "
    "The google-benchmark library itself is a debug build. Each "
    "steady-state pair runs the same ~2.5 s flow once plain and once beside "
    "the autonomous accountant, alternating which goes first, and is "
    "rejected unless the accountant sampled at least 10 times; the overhead "
    "is the median of the per-pair deltas with its quartiles and range. "
    "BM_ElasticScaleCycle runs a full grow+migrate+drain+retire cycle "
    "mid-flow: drain_ms is the evacuate+retire latency (quiesce, transfer, "
    "resume, thread join), and the benchmark aborts if a single item is "
    "lost.")
WORKLOAD = (
    "three-section spin-work chain on 2 shards; steady-state pair = 350,000 "
    "items plain vs the same beside an autonomous Rebalancer sampling at "
    "the default 200ms period with an unreachable min_imbalance (no "
    "migrations); skew recovery and elastic cycle = 2000 items; elastic "
    "cycle = add_shard + sync_topology + migrate_section onto the new "
    "shard, then evacuate_shard + retire_shard of the old home, all while "
    "items stream")
BAR_PCT = 3.0
# gbench row fields that are not user counters.
GBENCH_FIELDS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "aggregate_name", "aggregate_unit", "iterations",
    "family_index", "per_family_instance_index", "real_time", "cpu_time",
    "time_unit"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", required=True)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default="BENCH_balance.json")
    a = ap.parse_args()

    exe = os.path.join(a.build, "bench", "bench_balance")
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = os.path.join(tmp, "metrics.jsonl")
        gbench_path = os.path.join(tmp, "gbench.json")
        done = subprocess.run(
            [exe, "--metrics-out=" + metrics_path,
             "--benchmark_repetitions=%d" % a.reps,
             "--benchmark_out=" + gbench_path,
             "--benchmark_out_format=json"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit("bench_balance: %s exited %d" % (exe, done.returncode))
        host, metrics = None, {}
        with open(metrics_path) as f:
            for line in f:
                row = json.loads(line)
                if "host" in row:
                    host = row["host"]
                else:
                    metrics[row["bench"]] = row["metrics"]
        with open(gbench_path) as f:
            gbench = json.load(f)

    benchmarks, median, pairs = [], {}, []
    for b in gbench["benchmarks"]:
        name = b["run_name"].split("/")[0]
        if b.get("error_occurred"):
            sys.exit("bench_balance: %s rejected: %s"
                     % (b["name"], b.get("error_message")))
        if b.get("run_type") == "iteration":
            if name == "BM_SteadyStateAccountantPair":
                pairs.append({k: b[k] for k in (
                    "baseline_ms", "accountant_ms", "overhead_pct",
                    "samples")})
            continue
        if b.get("aggregate_name") not in ("median", "stddev"):
            continue
        row = {k: b[k] for k in ("name", "real_time", "cpu_time", "time_unit")}
        row.update({k: v for k, v in b.items() if k not in GBENCH_FIELDS})
        benchmarks.append(row)
        if b["aggregate_name"] == "median":
            median[name] = row

    over = sorted(p["overhead_pct"] for p in pairs)
    q1, _, q3 = statistics.quantiles(over, n=4) if len(over) > 1 else (
        over * 3)
    if q3 < BAR_PCT:
        verdict = "meets the %.0f%% bar" % BAR_PCT
    elif q1 > BAR_PCT:
        verdict = "misses the %.0f%% bar" % BAR_PCT
    else:
        verdict = ("cannot resolve the %.0f%% bar on this host (the "
                   "quartiles straddle it)" % BAR_PCT)
    cycle = median["BM_ElasticScaleCycle"]
    summary = (
        "Autonomous accountant overhead on the steady-state flow, %d "
        "interleaved pairs of %.0f ms baseline flows, %.0f-%.0f samples "
        "each: median %+.1f%%, quartiles %+.1f%% / %+.1f%%, range %+.1f%% to "
        "%+.1f%%; it %s. Elastic grow+migrate+drain+retire cycle: %.1f ms "
        "whole run, drain %.3f ms. Skew recovery: %.1f steps."
        % (len(pairs), statistics.median(p["baseline_ms"] for p in pairs),
           min(p["samples"] for p in pairs),
           max(p["samples"] for p in pairs), statistics.median(over), q1,
           q3, over[0], over[-1], verdict, cycle["real_time"],
           cycle["drain_ms"],
           median["BM_SkewRecovery"]["steps_to_recover"]))

    note = "%s In this recording the accountant overhead %s." % (NOTE,
                                                                 verdict)
    doc = {"note": note, "host": host, "workload": WORKLOAD,
           "benchmarks": benchmarks, "pairs": pairs, "metrics": {},
           "summary": summary}
    # One line per captured registry: indenting them would run to
    # thousands of lines.
    rows = ",\n".join("    %s: %s" % (json.dumps(k), json.dumps(
        v, separators=(",", ":"))) for k, v in sorted(metrics.items()))
    text = json.dumps(doc, indent=2).replace(
        '"metrics": {}', '"metrics": {\n' + rows + '\n  }')
    with open(a.out, "w") as f:
        f.write(text + "\n")
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
