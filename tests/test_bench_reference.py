"""Every benchmark pool item still gives the output recorded for it.

bench/reference.json holds the digest of each item of workloads.pool(), and
the benchmark counts an item whose output differs as failed.  This test
loads bench/workloads.py, as bench/record_reference.py does, and compares
every digest, so a change of output fails here and not only in a benchmark
run.
"""

import importlib.util
import json
import pathlib

import completequadrics as cq

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_every_pool_item_matches_its_reference_digest():
    reference = json.loads((BENCH / "reference.json").read_text())
    items = workloads.pool()
    assert sorted(map(workloads.key, items)) == sorted(reference)
    wrong = [workloads.key(item) for item in items
             if workloads.reference_digest(cq, item) != reference[workloads.key(item)]]
    assert wrong == []
