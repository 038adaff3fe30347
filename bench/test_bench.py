"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m unittest bench/test_bench.py
"""

import contextlib
import functools
import io
import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import completequadrics as cq  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402


def _digests(items):
    return [workloads.reference_digest(cq, item) for item in items]


def _self_share(stats, names):
    total = sum(s[3] for s in stats.values())
    return sum(stats.get(n, [0, 0, 0.0, 0.0])[3] for n in names) / total


class TracerTest(unittest.TestCase):
    def test_traced_outputs_equal_untraced(self):
        for workload in workloads.WORKLOADS:
            items = workloads.plan(workload, 0, tiny=True)
            plain = _digests(items)
            with Tracer():
                traced = _digests(items)
            self.assertEqual(plain, traced, workload)

    def test_counts_of_one_small_pencil(self):
        tracer = Tracer()
        with tracer:
            self.assertEqual(cq.pencils.bk_number(4, 1, 0), 4)
        calls = {name: s[0] for name, s in tracer.stats.items()}
        self.assertEqual(calls["pencils.bk_number"], 1)
        self.assertEqual(calls["pencils.random_pencil"], 1)
        self.assertEqual(calls["pencils.count_degenerations"], 1)
        self.assertEqual(calls["pencils.pencil_det_form"], 2)
        self.assertEqual(calls["quadrics.random_form"], 2)
        self.assertEqual(calls["exact.ff_det.Poly1"], 2)
        self.assertEqual(calls["exact.poly_gcd"], 1)
        # random_form retries its integer matrix until it is invertible
        self.assertEqual(calls["exact.ff_det.Fraction"], 2)
        # reached only through the aliases bound by `from .exact import ff_det`
        self.assertEqual(tracer.edges[("pencils.pencil_det_form", "exact.ff_det.Poly1")], [2, 2])
        self.assertEqual(tracer.edges[("quadrics.random_form", "exact.ff_det.Fraction")], [2, 2])

    def test_counts_of_a_tiny_census(self):
        tracer = Tracer()
        with tracer:
            cq.chambers.chamber_census(2, 0)
        calls = {name: s[0] for name, s in tracer.stats.items()}
        self.assertEqual(calls["chambers.classify"], 4)
        self.assertEqual(calls["chambers.accepting_regions"], 2)
        self.assertEqual(calls["chambers.forced_base_loci"], 2)
        self.assertEqual(calls["exact.solve_exact"], 38)
        self.assertEqual(calls["picard.convert"], 61)
        self.assertNotIn("exact.ff_det.Fraction", calls)

    def test_remove_restores_every_alias(self):
        originals = (cq.exact.ff_det, cq.pencils.ff_det, cq.quadrics.ff_det, cq.chambers.convert)
        with Tracer():
            self.assertIsNot(cq.pencils.ff_det, originals[1])
            self.assertIsNot(cq.chambers.convert, originals[3])
        restored = (cq.exact.ff_det, cq.pencils.ff_det, cq.quadrics.ff_det, cq.chambers.convert)
        self.assertEqual([a is b for a, b in zip(originals, restored)], [True] * 4)

    def test_missing_reported_function_raises_and_installs_nothing(self):
        original = cq.pencils.ff_det
        with mock.patch.object(tracer, "REPORTED", tracer.REPORTED + ("exact.no_such",)):
            with self.assertRaisesRegex(RuntimeError, "exact.no_such"):
                Tracer().install()
        self.assertIs(cq.pencils.ff_det, original)

    def test_decorated_function_is_traced(self):
        def square(x):
            return x * x

        square.__module__ = cq.exact.__name__
        cq.exact.square = functools.lru_cache(maxsize=None)(square)
        try:
            tracer = Tracer()
            with tracer:
                self.assertEqual(cq.exact.square(3), 9)
            self.assertEqual(tracer.stats["exact.square"][0], 1)
        finally:
            del cq.exact.square

    def test_dominant_layers(self):
        predicted = {
            "census": ("exact.solve_exact", "picard.convert"),
            "pencil-ladder": ("exact.ff_det.Poly1",),
            "small-forms": (
                "exact.ff_det.Fraction",
                "exact.ff_det.Poly1",
                "exact.ff_det.MPoly",
                "quadrics.random_form",
            ),
        }
        for workload, names in predicted.items():
            tracer = Tracer()
            with tracer:
                for item in workloads.plan(workload, 0):
                    workloads.run_item(cq, item)
            top = max(tracer.stats, key=lambda name: tracer.stats[name][3])
            self.assertIn(top, names, workload)
            self.assertGreater(_self_share(tracer.stats, names), 0.5, workload)


class PlanTest(unittest.TestCase):
    def test_plans_are_seeded_and_recorded(self):
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)
        self.assertEqual(set(reference), {workloads.key(i) for i in workloads.pool()})
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.plan(workload, 7), workloads.plan(workload, 7))
            self.assertNotEqual(workloads.plan(workload, 7), workloads.plan(workload, 8))
            for seed in range(100):
                for item in workloads.plan(workload, seed):
                    self.assertIn(workloads.key(item), reference)

    def test_recorded_digests_depend_on_computed_values(self):
        # a digest of totals alone, which hold by construction, would be the
        # same for every seed
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh)
        groups = [[["direct", s] for s in range(workloads.DIRECT_POOL)]]
        groups += [[["pencil", m, s] for s in range(workloads.PENCIL_POOL)] for m in workloads.LADDER]
        for items in groups:
            digests = {reference[workloads.key(i)] for i in items}
            self.assertEqual(len(digests), len(items), items[0])


class RunnerTest(unittest.TestCase):
    def test_failed_item_is_reported_not_fatal(self):
        good = ["pencil", 4, 0]
        report = run.run_pass([["no-such-kind"], good], False, 120)
        self.assertIsNone(report["results"][0][0])
        self.assertIn("ValueError", report["results"][0][1])
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.assertEqual(report["results"][1], [json.load(fh)[workloads.key(good)], None])

    def _run(self, workload, trace):
        # run.py on the tiny plans, which no command-line option selects
        plan = workloads.plan
        out = io.StringIO()
        with mock.patch.object(run.workloads, "plan", lambda w, s: plan(w, s, tiny=True)):
            with contextlib.redirect_stdout(out):
                args = ["--workload", workload, "--seed", "3", "--seconds", "0"]
                self.assertEqual(run.main(args + ["--trace", str(trace)]), 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_tiny_runs_pass_and_emit_the_declared_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared = {
            0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]},
        }
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result = self._run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), declared[trace], (workload, trace))
                if trace == 0:
                    self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
