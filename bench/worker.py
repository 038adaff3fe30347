"""One pass of a workload in a fresh interpreter.

Usage: python3 bench/worker.py <trace 0|1> <plan as JSON>

The package is imported first, so that the time at which the import ends
marks the end of set-up.  Prints one JSON line: that time, the time of each
item, the time of a fixed probe computation after the import and after
every item, the peak RSS, an output digest or an error per item and, when
traced, the tracer's records.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import completequadrics as cq  # noqa: E402

READY = time.monotonic()
if not os.path.abspath(cq.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit("completequadrics was not imported from %s" % os.path.join(ROOT, "src"))

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def probe():
    """Seconds taken by fixed exact arithmetic: a gauge of the machine's speed.

    Rational Gauss-Jordan elimination of three fixed invertible 7x7
    matrices, in the interpreted, allocation-heavy style of the package.
    The collector is off so that a large heap left by the package does not
    slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    try:
        for shift in range(3):
            a = [
                [Fraction((7 * i + 3 * j + shift) % 11 - 5, 1 + (i + j) % 3) for j in range(7)]
                for i in range(7)
            ]
            for c in range(7):
                p = next(i for i in range(c, 7) if a[i][c])
                a[c], a[p] = a[p], a[c]
                inv = 1 / a[c][c]
                a[c] = [x * inv for x in a[c]]
                for i in range(7):
                    if i != c and a[i][c]:
                        f = a[i][c]
                        a[i] = [x - f * y for x, y in zip(a[i], a[c])]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def main(argv):
    traced = argv[1] == "1"
    items = json.loads(argv[2])
    probe_s = [probe()]
    item_s = []
    tracer = Tracer().install() if traced else None
    outputs = []
    try:
        for item in items:
            t0 = time.perf_counter()
            try:
                outputs.append(workloads.run_item(cq, item))
            except Exception as exc:  # a failed item is reported, not fatal
                outputs.append(exc)
            item_s.append(time.perf_counter() - t0)
            probe_s.append(probe())
    finally:
        if tracer is not None:
            tracer.remove()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            results.append([None, "%s: %s" % (type(out).__name__, out)])
            continue
        try:
            results.append([workloads.output_digest(cq, item, out), None])
        except Exception as exc:
            results.append([None, "%s: %s" % (type(exc).__name__, exc)])
    report = {
        "ready": READY,
        "item_s": item_s,
        "probe_s": probe_s,
        "rss_kb": rss_kb,
        "results": results,
    }
    if tracer is not None:
        report["stats"] = tracer.stats
        report["edges"] = [[a, b, n, ok] for (a, b), (n, ok) in tracer.edges.items()]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
