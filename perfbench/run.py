#!/usr/bin/env python3
"""hopfcyc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it measures the hopfcyc sources under src/.
A repetition builds and audits the workload's inputs (set-up), then runs
the whole task list once, in an order shuffled by the seed and the
repetition number.  Every repetition runs in its own forked copy of a
process that has only imported hopfcyc, so each starts with the module and
object caches an ``hcc`` user starts with, and nothing one repetition
memoizes reaches the next.

With ``--trace 0`` repetitions continue while the next one, if as long as
the last, would end within S seconds of task time (there is always one);
set-up is timed at least three times (extra set-ups run alone in their own
copies); the last stdout line is a JSON object with the medians of
``tasks_s``, ``setup_s`` and ``peak_rss_mb``.  Both times are read on a
``refclock.RefClock``, in seconds at a fixed reference CPU speed, because
the speed of a shared host's CPU drifts.  With ``--trace 1`` one untraced
and one traced repetition run in the same order; the result holds the
per-layer metrics of the traced one, the source line counts, the tracing
overhead and the plain CPU time of the untraced task list.

Every task's output is reduced to a SHA-256 digest of its canonical JSON and
compared with ``perfbench/digests.json``.  A task fails if it raises, if its
digest differs, or if its verdict is not the expected one (negative
controls must fail with a witness).  ``--record`` rewrites the workload's
digests from one repetition instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback

from refclock import RefClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "hopfcyc")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("algebra-sayd", "coalgebra-ladder", "crossed-pairing", "gfp-ladder")
SRC_MODULES = ("__init__", "cli", "cocyclic", "cohomology", "corpus", "cup", "fields",
               "groups", "hopf", "linalg", "results", "structfile", "symmetries")
# a run times at least three set-ups, and more (up to ten) while they add
# up to under a second
SETUP_SAMPLES = (3, 10)
SETUP_FLOOR_S = 1.0
# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite this workload's digests instead of measuring")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def canonical_digest(obj):
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    """Runs set-ups and repetitions of one workload in forked copies."""

    def __init__(self, args):
        import workloads

        self.args = args
        self.started = time.monotonic()
        self.setup_fn = workloads.WORKLOADS[args.workload]
        self.tasks = None

    def in_fork(self, fn):
        """fn() in a forked copy of this process; returns its JSON result.
        The copy is killed by SIGALRM when the run budget is spent."""
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        if remaining < 1:
            raise BenchError("run budget of %.0f s exhausted" % RUN_BUDGET_S)
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                signal.alarm(int(remaining))
                data = json.dumps(fn()).encode("utf-8")
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(data)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            raise BenchError("forked copy ended with status %d" % code)
        return json.loads(data)

    def setup(self):
        """Build and audit the inputs; returns the seconds it took, in
        reference and in CPU seconds."""
        clock = RefClock().start()
        self.tasks = self.setup_fn()
        clock.stop()
        return clock.ref_s, clock.cpu_s

    def repetition(self, rep, tracer=None):
        """Set up, then run the task list once; outputs are digested after
        the clock stops."""
        setup_s, setup_cpu_s = self.setup()
        order = list(self.tasks)
        random.Random("%d/%d" % (self.args.seed, rep)).shuffle(order)
        if tracer is not None:
            tracer.install()
        outputs = {}
        clock = RefClock().start()
        for task in order:
            try:
                if tracer is not None:
                    outputs[task.id] = tracer.span("task", task.run)
                else:
                    outputs[task.id] = task.run()
            except Exception as err:  # a failing task is counted; the run goes on
                outputs[task.id] = {"error": "%s: %s" % (type(err).__name__, err)}
        clock.stop()
        report = {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "tasks_s": clock.ref_s,
            "tasks_cpu_s": clock.cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tasks": {
                tid: {
                    "expect": expect,
                    "digest": canonical_digest(outputs[tid]),
                    "passed": outputs[tid].get("passed"),
                    "witness": "witness" in outputs[tid],
                    "error": outputs[tid].get("error"),
                }
                for tid, expect, _ in self.tasks
            },
        }
        if tracer is not None:
            report["layers"] = tracer.metrics()
            report["unexercised"] = tracer.unexercised(self.args.workload)
            report["missing"] = tracer.missing
        return report


def task_failures(report, recorded):
    """(task id, reason) for each failed task of one repetition; digests are
    compared only when ``recorded`` is given."""
    failures = []
    for tid, res in sorted(report["tasks"].items()):
        if res["error"]:
            failures.append((tid, res["error"]))
        elif res["expect"] == "pass" and res["passed"] is not True:
            failures.append((tid, "expected PASS"))
        elif res["expect"] == "fail" and (res["passed"] is not False or not res["witness"]):
            failures.append((tid, "expected FAIL with a witness"))
        elif recorded is not None and recorded.get(tid) != res["digest"]:
            failures.append((tid, "output digest differs from the recorded one"))
    return failures


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def record(runner):
    report = runner.in_fork(lambda: runner.repetition(0))
    problems = task_failures(report, None)
    if problems:
        raise BenchError("cannot record failing tasks: %s" % problems)
    data = load_digests() if os.path.exists(DIGESTS) else {}
    data[runner.args.workload] = {tid: res["digest"]
                                  for tid, res in sorted(report["tasks"].items())}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print("perfbench: recorded %d digests for %s"
          % (len(report["tasks"]), runner.args.workload), file=sys.stderr)


def src_lines():
    """Non-blank, non-comment source lines per module of the package."""
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname), encoding="utf-8") as fh:
                out[fname[:-3]] = sum(
                    1 for line in fh
                    if line.strip() and not line.strip().startswith("#"))
    return out


def measure(runner):
    reps = []
    measured = 0.0
    while True:
        rep = runner.in_fork(lambda: runner.repetition(len(reps)))
        reps.append(rep)
        measured += rep["tasks_cpu_s"]
        if measured + rep["tasks_cpu_s"] > runner.args.seconds:
            break
    setups = [(r["setup_s"], r["setup_cpu_s"]) for r in reps]
    low, high = SETUP_SAMPLES
    while len(setups) < low or (sum(cpu for _, cpu in setups) < SETUP_FLOOR_S
                                and len(setups) < high):
        setups.append(runner.in_fork(runner.setup))
    metrics = {
        "tasks_s": (statistics.median(r["tasks_s"] for r in reps), "s"),
        "setup_s": (statistics.median(ref for ref, _ in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return reps, metrics, []


def trace(runner):
    import layers

    plain = runner.in_fork(lambda: runner.repetition(0))
    traced = runner.in_fork(lambda: runner.repetition(0, layers.Tracer()))
    problems = ["traced output differs: %s" % tid
                for tid, res in sorted(traced["tasks"].items())
                if plain["tasks"][tid]["digest"] != res["digest"]]
    problems += ["layer never called: %s" % name for name in traced["unexercised"]]
    for attr in traced["missing"]:
        print("perfbench: traced callable %s not found" % attr, file=sys.stderr)
    metrics = {name: (traced["layers"][name], unit)
               for name, unit in layers.metric_names().items()}
    lines = src_lines()
    for mod in SRC_MODULES:
        metrics["src_lines.%s" % mod] = (lines.get(mod, 0), "lines")
    metrics["src_lines.total"] = (sum(lines.values()), "lines")
    metrics["trace.overhead_s"] = (traced["tasks_s"] - plain["tasks_s"], "s")
    metrics["clock.tasks_cpu_s"] = (plain["tasks_cpu_s"], "s")
    metrics["clock.slowdown"] = (plain["tasks_cpu_s"] / plain["tasks_s"], "ratio")
    return [plain, traced], metrics, problems


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print("perfbench: no hopfcyc sources at %s; run from the repository root"
              % os.path.relpath(PACKAGE), file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        runner = Runner(args)
        if args.record:
            record(runner)
            return 0
        recorded = load_digests().get(args.workload, {})
        reps, metrics, problems = (trace if args.trace else measure)(runner)
    except (BenchError, OSError, ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    attempted = failed = 0
    for rep in reps:
        failures = task_failures(rep, recorded)
        for tid, why in failures:
            print("perfbench: FAILED %s: %s" % (tid, why), file=sys.stderr)
        attempted += len(rep["tasks"])
        failed += len(failures)
    for why in problems:
        print("perfbench: self-test: %s" % why, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
