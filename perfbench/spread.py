#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarize its end-to-end metrics.

    python3 perfbench/spread.py [--workloads W1,W2] [--seeds 1-10] [--out FILE]

Run from the repository root.  For each workload and each end-to-end metric
of BENCHMARK.json it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(Q3 - Q1) / median next to the metric's bound.  ``--out`` also writes the
values and the machine facts as JSON.  Runs are sequential; anything else
running on the machine meanwhile shows up in the spread.  Exits 1 if any
run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine_facts():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "platform": platform.platform()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", help="write the summary as JSON to this file")
    args = p.parse_args()
    summary = {"machine": machine_facts(), "run_seconds": bench["run_seconds"],
               "date": time.strftime("%Y-%m-%d"), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed), file=sys.stderr)
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = summary["workloads"][workload] = {}
        print(workload)
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": spread, "values": vals}
            print("  %-12s median %-10.4g Q1 %-10.4g Q3 %-10.4g spread %.3f (bound %s)"
                  % (metric["name"], median, q1, q3, spread, metric["bound"]))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
