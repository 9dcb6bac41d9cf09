#!/usr/bin/env python3
"""Writes BENCH_paper.json: the paper's own claims E1 and E2, before and after.

    python3 scripts/bench_paper.py --parent PARENT_BUILD --change BUILD \\
        [--reps 5] [--out BENCH_paper.json]

Each BUILD is a Release build directory of one commit (the parent commit and
the change) holding bench/bench_context_switch and bench/bench_configurations.
Both are run with --metrics-out and gbench JSON output; the file is composed
from those outputs alone.

E1 (§4) rows: time per operation, the gbench median over --reps repetitions,
and rt.context_switches per operation from the --metrics-out capture.
E2 (Figure 9) rows: the planner's thread count per configuration, per-item
time and switches per source item. bench_configurations captures one label,
so each configuration runs as its own process.

Times are reported, never gated: they depend on the host. The gates are
counts, which do not:
  - the change's switches per coroutine hand-off is at most 2 (+16 per run),
    per scheduled yield at most 1 (+16 per run), and per item of the burst
    hand-off below 1;
  - every E2 thread count equals the paper's, on both commits.
Exits 1 when a gate fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Operations per benchmark iteration (bench/bench_context_switch.cpp: kRounds
# yields per thread, two threads; kMsgs; kItems).
E1_OPS = {
    "BM_VirtualFunctionCall": ("call", None),
    "BM_RawContextSwitchRoundTrip": ("round trip", None),
    "BM_ScheduledYield": ("yield", 2 * 2000),
    "BM_MessageSendDispatch": ("message", 4000),
    "BM_CoroutineHandoffPerItem": ("item", 2000),
    "BM_CoroutineHandoffBurst": ("item", 2000),
    "BM_DirectCallPipelinePerItem": ("item", 2000),
}
# Threads the paper gives Figure 9 a..h (§4), and source items per iteration
# (4 * kItems in bench/bench_configurations.cpp).
E2_PAPER_THREADS = [1, 1, 1, 2, 3, 3, 2, 2]
E2_SOURCE_ITEMS = 4 * 4000
UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_bench(exe, reps, extra=()):
    """Runs one gbench binary; returns (host, {label: metrics}, gbench json)."""
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path = os.path.join(tmp, "metrics.jsonl")
        gbench_path = os.path.join(tmp, "gbench.json")
        done = subprocess.run(
            [exe, "--metrics-out=" + metrics_path,
             "--benchmark_repetitions=%d" % reps,
             "--benchmark_report_aggregates_only=true",
             "--benchmark_out=" + gbench_path,
             "--benchmark_out_format=json", *extra],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit("bench_paper: %s exited %d" % (exe, done.returncode))
        host, captured = None, {}
        with open(metrics_path) as f:
            for line in f:
                row = json.loads(line)
                if "host" in row:
                    host = row["host"]
                else:
                    captured[row["bench"]] = {
                        m["name"]: m.get("value")
                        for m in row["metrics"]["metrics"]}
        with open(gbench_path) as f:
            gbench = json.load(f)
    return host, captured, gbench


def medians(gbench):
    """{run name: median aggregate row} from a gbench JSON document."""
    return {b["run_name"]: b for b in gbench["benchmarks"]
            if b.get("aggregate_name") == "median"}


def ns_per_iteration(row):
    return row["cpu_time"] * UNIT_NS[row["time_unit"]]


def e1_side(build, reps):
    host, captured, gbench = run_bench(
        os.path.join(build, "bench", "bench_context_switch"), reps)
    rows = {}
    for name, row in medians(gbench).items():
        op, ops = E1_OPS[name]
        out = {"per": op, "cpu_ns_per_op": ns_per_iteration(row) / (ops or 1)}
        m = captured.get(name)
        if m is not None:
            out["context_switches"] = m["rt.context_switches"]
            out["switches_per_op"] = m["rt.context_switches"] / ops
            if m.get("core.handoffs"):
                out["handoffs"] = m["core.handoffs"]
                out["switches_per_handoff"] = (
                    m["rt.context_switches"] / m["core.handoffs"])
        rows[name] = out
    return host, rows


def e2_side(build, reps):
    exe = os.path.join(build, "bench", "bench_configurations")
    rows = []
    for idx in range(8):
        _, captured, gbench = run_bench(
            exe, reps, ["--benchmark_filter=BM_Fig9Configuration/%d$" % idx])
        (row,) = medians(gbench).values()
        switches = captured["BM_Fig9Configuration"]["rt.context_switches"]
        rows.append({
            "config": row["label"],
            "threads": int(row["threads"]),
            "cpu_ns_per_source_item":
                ns_per_iteration(row) / E2_SOURCE_ITEMS,
            "switches_per_source_item": switches / E2_SOURCE_ITEMS,
        })
    return rows


def gate(name, value, bound, ok):
    return {"name": name, "value": value, "bound": bound, "pass": bool(ok)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="parent Release build dir")
    ap.add_argument("--change", required=True, help="change Release build dir")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out", default="BENCH_paper.json")
    a = ap.parse_args()

    sides = {}
    for side, build in (("parent", a.parent), ("change", a.change)):
        host, e1 = e1_side(build, a.reps)
        sides[side] = {"host": host, "e1": e1, "e2": e2_side(build, a.reps)}

    # A row the parent's binary does not have yet reads null on that side.
    e1 = [{"bench": name,
           **{side: sides[side]["e1"].get(name) for side in sides}}
          for name in E1_OPS]
    e2 = [{"config": p["config"], "threads_paper": paper,
           "parent": p, "change": c}
          for p, c, paper in zip(sides["parent"]["e2"], sides["change"]["e2"],
                                 E2_PAPER_THREADS)]

    ch = sides["change"]["e1"]
    handoff = ch["BM_CoroutineHandoffPerItem"]
    burst = ch["BM_CoroutineHandoffBurst"]
    yields = ch["BM_ScheduledYield"]
    gates = [
        gate("change switches per hand-off <= 2 (+16 per run)",
             handoff["switches_per_handoff"], 2,
             handoff["context_switches"] <= 2 * handoff["handoffs"] + 16),
        gate("change switches per yield <= 1 (+16 per run)",
             yields["switches_per_op"], 1,
             yields["context_switches"] <= E1_OPS["BM_ScheduledYield"][1] + 16),
        gate("change switches per item of the burst hand-off < 1",
             burst["switches_per_op"], 1, burst["switches_per_op"] < 1),
    ]
    for row in e2:
        for side in ("parent", "change"):
            gates.append(gate("%s E2 %s threads" % (side, row["config"]),
                              row[side]["threads"], row["threads_paper"],
                              row[side]["threads"] == row["threads_paper"]))

    doc = {
        "note": (
            "Composed by `python3 scripts/bench_paper.py --parent "
            "PARENT_BUILD --change BUILD --reps %d` from Release builds of "
            "the parent commit and of the change, run on the same host "
            "minutes apart. Every number comes from the benches' "
            "--metrics-out and gbench JSON output; nothing is edited by "
            "hand. Times are gbench medians of CPU time and are reported, "
            "not gated; the gates are switch and thread counts, which do "
            "not depend on the host." % a.reps),
        "host": sides["change"]["host"],
        "parent_host": sides["parent"]["host"],
        "e1": e1,
        "e2": e2,
        "gates": gates,
    }
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    failed = [g["name"] for g in gates if not g["pass"]]
    for name in failed:
        print("bench_paper: gate failed: " + name, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
