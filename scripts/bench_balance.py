#!/usr/bin/env python3
"""Writes BENCH_balance.json from a Release build's bench_balance.

    python3 scripts/bench_balance.py --build BUILD [--reps 5] \\
        [--out BENCH_balance.json]

Runs BUILD/bench/bench_balance with --metrics-out, --reps repetitions and
gbench JSON output, and composes the file from those outputs alone: `host`
and `metrics` are the --metrics-out lines as written, `benchmarks` the
median and stddev aggregates, and `summary` is computed from the medians.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

NOTE = (
    "Recorded from a Release build of bench/bench_balance on a shared "
    "4-vCPU KVM host with `python3 scripts/bench_balance.py --build BUILD "
    "--reps 5`, which runs `bench_balance --metrics-out=FILE "
    "--benchmark_repetitions=5 --benchmark_report_aggregates_only=true "
    "--benchmark_out=G --benchmark_out_format=json`. `host` and `metrics` "
    "are the --metrics-out lines as written, `benchmarks` the median/stddev "
    "aggregates from G, and `summary` is computed from those medians; "
    "nothing is edited by hand. The google-benchmark library itself is a "
    "debug build. BM_ElasticScaleCycle runs a full "
    "grow+migrate+drain+retire cycle mid-flow: its gap to the baseline is "
    "the cycle's whole-run cost, drain_ms is the evacuate+retire latency "
    "(quiesce, transfer, resume, thread join), and the benchmark aborts if "
    "a single item is lost. The steady-state pair swings by several percent "
    "from run to run on this shared host, so read the accountant overhead "
    "over repeated runs, not from one recording.")
WORKLOAD = (
    "three-section spin-work chain, 2000 items, 2 shards; accountant = "
    "autonomous Rebalancer sampling at the default 200ms period with an "
    "unreachable min_imbalance (no migrations); elastic cycle = add_shard + "
    "sync_topology + migrate_section onto the new shard, then "
    "evacuate_shard + retire_shard of the old home, all while items stream")
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
             "--benchmark_report_aggregates_only=true",
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

    benchmarks, median = [], {}
    for b in gbench["benchmarks"]:
        if b.get("aggregate_name") not in ("median", "stddev"):
            continue
        row = {k: b[k] for k in ("name", "real_time", "cpu_time", "time_unit")}
        row.update({k: v for k, v in b.items() if k not in GBENCH_FIELDS})
        benchmarks.append(row)
        if b["aggregate_name"] == "median":
            median[b["run_name"].split("/")[0]] = row

    base = median["BM_SteadyStateBaseline"]["real_time"]
    acct = median["BM_SteadyStateWithAccountant"]["real_time"]
    cycle = median["BM_ElasticScaleCycle"]
    summary = (
        "Autonomous accountant overhead on the steady-state flow: %.1f vs "
        "%.1f ms (%+.1f%%). Elastic grow+migrate+drain+retire cycle: %.1f ms "
        "whole run, drain %.3f ms. Skew recovery: %.1f steps."
        % (acct, base, 100.0 * (acct - base) / base, cycle["real_time"],
           cycle["drain_ms"],
           median["BM_SkewRecovery"]["steps_to_recover"]))

    doc = {"note": NOTE, "host": host, "workload": WORKLOAD,
           "benchmarks": benchmarks, "metrics": {}, "summary": summary}
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
