"""Benchmark runner for completequadrics.

Usage:
    python3 bench/run.py --workload census --seed 0 --seconds 20 --trace 0

Runs passes of one workload, each in a fresh interpreter as every ``cq``
call runs, until --seconds have passed (at least three passes), checks
every output against reference.json and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 traced and untraced passes alternate and the metrics are the
per-layer ones.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import REPORTED  # noqa: E402

PROBE_REF_S = 0.004  # probe time that defines one reference second
MIN_PASSES = 3  # per kind of pass (untraced, traced) in a run
SETUP_RUNS = 12  # set-ups timed by import-only workers, besides those of the passes
LAST_START_S = 120  # start no pass later than this into a run
DEADLINE_S = 170  # kill a pass still running this long into a run

# traced functions whose DegeneratePencilError pencils._retry swallows to draw again
RETRIED = ("pencils.pencil_det_form", "pencils.count_degenerations", "pencils.count_tangencies")

# set-up is timed against cached bytecode, as an installed package has it
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def run_pass(items, traced, timeout):
    """Run one pass in a child interpreter; None when the child failed."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "1" if traced else "0", json.dumps(items)],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print("pass timed out after %.0f s" % timeout, file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print("pass failed (exit %d):\n%s" % (proc.returncode, proc.stderr), file=sys.stderr)
        return None
    report = json.loads(proc.stdout.splitlines()[-1])
    # Times are scaled to reference seconds by the probe times measured next
    # to them, because the machine's speed changes by up to 1.8x for tens of
    # seconds at a time.  CLOCK_MONOTONIC is shared by the processes of one
    # machine.
    probe = report["probe_s"]
    report["setup_s"] = (report["ready"] - t_spawn) * PROBE_REF_S / probe[0]
    report["scaled_s"] = [
        t * PROBE_REF_S * 2 / (probe[i] + probe[i + 1]) for i, t in enumerate(report["item_s"])
    ]
    report["run_s"] = sum(report["scaled_s"])
    return report


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(items, traced, untraced):
    """Per-layer metrics from the traced passes, overhead against untraced."""
    metrics = {}

    def per_pass(fn, field):
        return statistics.median([p["stats"].get(fn, [0, 0, 0.0, 0.0])[field] for p in traced])

    for fn in REPORTED:
        metrics[fn + ".calls"] = (per_pass(fn, 0), "count")
        metrics[fn + ".self_s"] = (per_pass(fn, 3), "s")

    def edge_sum(pick, count):
        # median over traced passes of count(calls, returned) on the picked edges
        return statistics.median(
            [sum(count(n, ok) for caller, fn, n, ok in p["edges"] if pick(caller, fn)) for p in traced]
        )

    def own_check(caller, fn):
        # count_degenerations repeats the pencil_det_form call it makes
        return fn in RETRIED and caller != "pencils.count_degenerations"

    def det_check(caller, fn):
        # a function that draws a pencil returns it once this check passes
        return fn == "pencils.pencil_det_form" and own_check(caller, fn)

    def pencil_draw(caller, fn):
        return fn == "quadrics.random_form" and (caller or "").startswith("pencils.")

    samples = sum(workloads.weight(i) for i in items if i[0] == "census")
    pencils = sum(1 for i in items if i[0] == "pencil")
    solves, converts = per_pass("exact.solve_exact", 0), per_pass("picard.convert", 0)
    metrics["chambers.solve_per_class"] = (_ratio(solves, samples), "ratio")
    metrics["picard.convert_per_class"] = (_ratio(converts, samples), "ratio")
    dets = per_pass("pencils.pencil_det_form", 0)
    metrics["pencils.det_per_pencil"] = (_ratio(dets, pencils), "ratio")
    built = edge_sum(det_check, lambda n, ok: ok)
    draws = edge_sum(pencil_draw, lambda n, ok: n)
    metrics["pencils.draw_accept_ratio"] = (_ratio(built, draws / 2), "ratio")
    metrics["pencils.retries"] = (edge_sum(own_check, lambda n, ok: n - ok), "count")
    run_s = [p["run_s"] for p in traced], [p["run_s"] for p in untraced]
    overhead = statistics.median(run_s[0]) / statistics.median(run_s[1]) - 1
    metrics["trace_overhead_frac"] = (overhead, "frac")
    return metrics


def end_to_end_metrics(items, passes, setups, attempted, failed):
    weight = sum(workloads.weight(i) for i in items)
    setup_s = [p["setup_s"] for p in setups + passes]
    # the sum of each item's median over the passes: a slow spell of the
    # machine that the probes miss moves one item of one pass, not the result
    run_s = sum(statistics.median(times) for times in zip(*(p["scaled_s"] for p in passes)))
    return {
        "run_s": (run_s, "s"),
        "items_per_s": (weight / run_s, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median([p["rss_kb"] / 1024 for p in passes]), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "completequadrics", "__init__.py")):
        print("no package source under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    items = workloads.plan(args.workload, args.seed)
    begin = time.monotonic()
    # the first import compiles the package's bytecode; keep it out of set-up
    imports = [run_pass([], False, DEADLINE_S) for _ in range(1 + SETUP_RUNS)]
    if None in imports:
        print("the package cannot be imported", file=sys.stderr)
        return 2

    kinds = (False, True) if args.trace else (False,)
    done = {kind: [] for kind in kinds}
    attempted = failed = 0
    start = time.monotonic()
    turn = 0
    while True:
        elapsed = time.monotonic() - start
        enough = all(len(done[k]) >= MIN_PASSES for k in kinds)
        if (enough and elapsed >= args.seconds) or time.monotonic() - begin >= LAST_START_S:
            break
        traced = kinds[turn % len(kinds)]
        turn += 1
        report = run_pass(items, traced, DEADLINE_S - (time.monotonic() - begin))
        attempted += sum(workloads.weight(i) for i in items)
        if report is None:
            failed += sum(workloads.weight(i) for i in items)
            continue
        for item, (dig, error) in zip(items, report["results"]):
            expected = reference.get(workloads.key(item))
            if error is not None or dig != expected:
                failed += workloads.weight(item)
                reason = error or "output differs"
                print("item %s failed: %s" % (workloads.key(item), reason), file=sys.stderr)
        done[traced].append(report)

    if not all(done[k] for k in kinds):
        print("no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = layer_metrics(items, done[True], done[False])
    else:
        metrics = end_to_end_metrics(items, done[False], imports[1:], attempted, failed)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
