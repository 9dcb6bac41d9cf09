#!/usr/bin/env python3
"""Writes BENCH_net.json from a Release build's bench_net.

    python3 scripts/bench_net.py --build BUILD [--parent PARENT_BUILD] \\
        [--reps 5] [--rounds 3] [--out BENCH_net.json]

Runs BUILD/bench/bench_net with --metrics-out, --reps repetitions and
gbench JSON output, and composes the file from those outputs alone: `host`
and `metrics` are the --metrics-out lines as written, `benchmarks` the
median and stddev aggregates (with their counters), `tcp_frame_latency` the
printed E9.2 line, all from the run whose TCP throughput is the median of
--rounds runs. With --parent, the same runs of PARENT_BUILD/bench/bench_net
(another commit's Release build) alternate with them, its median run goes
under `parent_commit`, and the summary gives every round's throughput of
both. A discarded warm-up run of
each build comes first: on an idle host the first run reads up to 1.5x
slower, whichever build it is.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

NOTE = (
    "Recorded from a Release build of bench/bench_net on a shared 4-vCPU "
    "KVM host with `python3 scripts/bench_net.py --build BUILD --parent "
    "PARENT --reps N`, which runs `bench_net --metrics-out=FILE "
    "--benchmark_repetitions=N --benchmark_report_aggregates_only=true "
    "--benchmark_out=G --benchmark_out_format=json`. `host` and `metrics` "
    "are the --metrics-out lines as written, `benchmarks` the median/stddev "
    "aggregates from G, `tcp_frame_latency` the printed E9.2 line, all from "
    "the run with the median TCP throughput of the alternating rounds the "
    "summary lists; nothing is edited by hand, and a discarded warm-up run "
    "of each build comes first. Both transports run the identical frame path (send "
    "-> kMsgNetDeliver bursts on a collector ULT); SimLink is the in-process "
    "CPU baseline, so SimLink/TCP isolates syscalls, copies and the "
    "io_bridge readiness round trip. `frames_per_delivery` is data frames "
    "per kMsgNetDeliver message. `parent_commit` is the same run of the "
    "parent commit's build on the same host minutes apart. Latency probes "
    "keep one frame in flight and drive the runtime in 1 ms run_until "
    "slices, so their floor is the slice.")
WORKLOAD = (
    "bursts of 2000 x 1 KiB byte items per iteration; latency section sends "
    "1000 single frames, waiting for delivery between sends")
GBENCH_FIELDS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "aggregate_name", "aggregate_unit", "iterations",
    "family_index", "per_family_instance_index", "real_time", "cpu_time",
    "time_unit"}
LATENCY = re.compile(
    r"frames (\d+), payload (\d+) B: p50 ([\d.]+) us\s+p99 ([\d.]+) us\s+"
    r"max ([\d.]+) us")


def warm_up(build):
    subprocess.run([os.path.join(build, "bench", "bench_net"),
                    "--benchmark_repetitions=3"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)


def run(build, reps):
    """One bench_net run: (host, metrics, benchmarks, medians, latency)."""
    exe = os.path.join(build, "bench", "bench_net")
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = os.path.join(tmp, "metrics.jsonl")
        gbench_path = os.path.join(tmp, "gbench.json")
        done = subprocess.run(
            [exe, "--metrics-out=" + metrics_path,
             "--benchmark_repetitions=%d" % reps,
             "--benchmark_report_aggregates_only=true",
             "--benchmark_out=" + gbench_path,
             "--benchmark_out_format=json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit("bench_net: %s exited %d" % (exe, done.returncode))
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
        if b.get("error_occurred"):
            sys.exit("bench_net: %s failed: %s"
                     % (b["name"], b.get("error_message")))
        if b.get("aggregate_name") not in ("median", "stddev"):
            continue
        row = {k: b[k] for k in ("name", "real_time", "cpu_time", "time_unit")}
        row.update({k: v for k, v in b.items() if k not in GBENCH_FIELDS})
        benchmarks.append(row)
        if b["aggregate_name"] == "median":
            median[b["run_name"].split("/")[0]] = row
    m = LATENCY.search(done.stdout)
    if m is None:
        sys.exit("bench_net: no E9.2 latency line in the output")
    latency = {"frames": int(m.group(1)), "payload_bytes": int(m.group(2)),
               "p50_us": float(m.group(3)), "p99_us": float(m.group(4)),
               "max_us": float(m.group(5))}
    return host, metrics, benchmarks, median, latency


def ratio(median):
    return round(median["BM_SimLinkBurst"]["items_per_second"] /
                 median["BM_TcpLoopbackBurst"]["items_per_second"], 2)


def rates(median):
    """(TCP items/s, SimLink items/s) of one run's medians."""
    return (median["BM_TcpLoopbackBurst"]["items_per_second"],
            median["BM_SimLinkBurst"]["items_per_second"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", required=True)
    ap.add_argument("--parent")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", default="BENCH_net.json")
    a = ap.parse_args()

    builds = {"change": a.build}
    if a.parent:
        builds["parent"] = a.parent
    for build in builds.values():
        warm_up(build)
    runs = {side: [] for side in builds}
    for r in range(a.rounds):
        order = list(builds) if r % 2 == 0 else list(builds)[::-1]
        for side in order:
            runs[side].append(run(builds[side], a.reps))

    def describe(side):
        tcp, sim = zip(*(rates(x[3]) for x in runs[side]))
        return ("TCP %s M items/s, SimLink %s M items/s, SimLink/TCP %.2fx "
                "(medians over the rounds)"
                % ("/".join("%.2f" % (v / 1e6) for v in tcp),
                   "/".join("%.2f" % (v / 1e6) for v in sim),
                   statistics.median(sim) / statistics.median(tcp)))

    def median_round(side):
        """The round whose TCP throughput is that side's median."""
        by_tcp = sorted(runs[side], key=lambda x: rates(x[3])[0])
        return by_tcp[(len(by_tcp) - 1) // 2]

    host, metrics, benchmarks, median, latency = median_round("change")
    summary = ("%d alternating rounds of %d repetitions. This commit: %s; "
               "%.1f frames per delivery."
               % (a.rounds, a.reps, describe("change"),
                  median["BM_TcpLoopbackBurst"].get("frames_per_delivery",
                                                    1.0)))
    doc = {"note": NOTE, "host": host, "workload": WORKLOAD,
           "benchmarks": benchmarks, "tcp_frame_latency": latency,
           "simlink_over_tcp": ratio(median)}
    if a.parent:
        _, _, p_benchmarks, p_median, p_latency = median_round("parent")
        doc["parent_commit"] = {"benchmarks": p_benchmarks,
                                "tcp_frame_latency": p_latency,
                                "simlink_over_tcp": ratio(p_median)}
        summary += " Parent: %s; %.1f frames per delivery." % (
            describe("parent"),
            p_median["BM_TcpLoopbackBurst"].get("frames_per_delivery", 1.0))
    doc["metrics"] = {}
    doc["summary"] = summary
    # One line per captured registry, as the other BENCH files keep them.
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
