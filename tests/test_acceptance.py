"""Acceptance gate: the eleven headline checks at full scale.

Each criterion runs once, enforces its time budget, and writes one
PASS/FAIL line straight to the terminal (bypassing capture) so the
acceptance record is visible in any pytest run.
"""

import pathlib
import sys
import time

import pytest

from completequadrics import verify

_CAP = None


@pytest.fixture(autouse=True)
def _live_terminal(capfd):
    # keep a handle so _gate can write through the capture to the real stdout
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _gate(result, elapsed, budget):
    line = "%s %-26s %6.2fs (budget %ds)\n" % (
        "PASS" if result.passed else "FAIL", result.name, elapsed, budget
    )
    with _CAP.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert result.passed, result.details
    assert elapsed < budget, "took %.2fs, budget %ds" % (elapsed, budget)


def _run(fn, budget, **kwargs):
    start = time.monotonic()
    result = fn(**kwargs)
    _gate(result, time.monotonic() - start, budget)
    return result


def test_criterion_01_chow_form_identity():
    _run(verify.check_chow_identity, 10, seed=0, min_pairs=100)


def test_criterion_02_intersection_table():
    _run(verify.check_table, 1)


def test_criterion_03_degeneration_counts():
    _run(verify.check_direct_counts, 30, seeds=20)


def test_criterion_04_boundary_pencil_numbers():
    _run(verify.check_boundary_numbers, 30, seeds=20, max_n=10)


def test_criterion_05_canonical_class():
    _run(verify.check_canonical, 1, max_n=8)


def test_criterion_06_class_derivation():
    _run(verify.check_class_derivation, 1)


def test_criterion_07_rank2_curve_pairing():
    _run(verify.check_rank2_pairing, 1)


def test_criterion_08_wedge_contraction():
    _run(verify.check_wedge_contraction, 10, max_n=4)


def test_criterion_09_chow_limits():
    _run(verify.check_chow_limits, 5, draws=20, seed=0)


def test_criterion_10_chamber_partition():
    _run(verify.check_chamber_partition, 60)


def test_criterion_11_degree_gap_documented():
    result = _run(verify.check_degree_gap, 1)
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    assert "92" in text and "not" in text, "README must state the missing degree"
    assert "Chow" in text
