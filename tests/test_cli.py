"""End-to-end tests of the cq command line interface."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

from completequadrics import cli, exact, picard


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


def test_canonical_example():
    data = run_json(["canonical", "--n", "3", "--basis", "H"])
    assert data["divisor"]["coeffs"] == ["-2", "-1", "-2"]
    assert data["schema"] == "cq/1"


def test_canonical_mixed_blowup_route():
    data = run_json(["canonical", "--n", "3", "--basis", "mixed", "--method", "blowup"])
    assert data["divisor"]["coeffs"] == ["-10", "5", "2"]


def test_chamber_example():
    data = run_json(["chamber", "--divisor", '{"basis":"H","coeffs":["1","1","1"]}'])
    assert data["chamber"] == 1
    assert data["base_locus"] == "empty"
    assert data["model"] == "X3"


def test_chamber_segment_midpoint():
    data = run_json(["chamber", "--segment", "1/2"])
    assert data["position"] == "wall H1,H3"
    assert data["model"] == "C/(Z/2)"
    assert data["certificate"] == {"pair(C12,D)": "0"}


def test_chamber_census_prints_the_face_census():
    data = run_json(["chamber", "--census"])
    assert data == dict(cli.chambers.face_census(), schema="cq/1", command="chamber-census")


def test_chamber_census_small():
    # a seeded sample census is a library call; cq chamber --census checks faces
    data = cli.chambers.chamber_census(200, 1)
    assert data["all_eight_hit"] is True
    assert sum(data["chamber_counts"].values()) == 200


@pytest.mark.parametrize("argv", [["--census", "10"], ["--census", "--seed", "0"]])
def test_census_takes_no_count_or_seed(monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli.chambers, "face_census", lambda: calls.append(1))
    code, out, err = run(["chamber"] + argv)
    assert (code, out, calls) == (2, "", [])
    assert "unrecognized arguments: %s" % " ".join(argv[1:]) in err


def power(grassmannian, m):
    return ["schubert", "--grassmannian", grassmannian, "--power", str(m)]


def test_schubert_point_degree():
    data = run_json(power("1,3", 4))
    assert data["value"] == 2
    assert data["interpreted_as"] == "multiple of the point class"


def test_schubert_class_output():
    data = run_json(power("1,3", 2))
    assert data["class"]["terms"] == {"2": 1, "1,1": 1}


def test_schubert_bigger_grassmannian():
    assert run_json(power("2,5", 9))["value"] == 42


def test_schubert_expr_refused_naming_power():
    # the expression language is gone; argparse refuses the old option
    code, out, err = run(["schubert", "--grassmannian", "1,3", "--expr", "sigma1^4"])
    assert code == 2 and out == ""
    assert "--power" in err


def test_schubert_power_zero_rejected():
    code, out, err = run(power("1,3", 0))
    assert (code, out, err) == (2, "", "error: class powers need a positive exponent\n")


W = cli._SCHUBERT_TERM_WORK


def spy(monkeypatch, name):
    # counts the calls of cli.schubert.<name>
    calls = []
    real = getattr(cli.schubert, name)
    monkeypatch.setattr(cli.schubert, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_schubert_at_bounds_accepted():
    assert run_json(power("0,99999", 100))["class"]["terms"] == {"100": 1}
    assert run_json(power("0,100", 100))["value"] == 1
    assert run_json(power("8,18", 2))["class"]["terms"] == {"2": 1, "1,1": 1}


def capped_grassmannians():
    # every G(k,n) with at most 100,000 Schubert classes C(n+1,k+1), the cap
    # the work budget replaced
    for k in range(100_000):
        n = k + 1
        while math.comb(n + 1, k + 1) <= 100_000:
            yield k, n
            n += 1


def gaussian_rows(cols, rows, m):
    """The coefficients below q^m of the Gaussian binomials [l + cols, l],
    l = 0..rows: partitions by size, of at most l parts, each at most cols."""
    g = [int(cols >= 0)] + [0] * (m - 1)
    out = [g[:]]
    for l in range(1, rows + 1):
        # [l + cols, l] = [l + cols - 1, l - 1] (1 - q^(l + cols)) / (1 - q^l)
        a = l + cols
        g = [x - (g[i - a] if i >= a else 0) for i, x in enumerate(g)]
        for i in range(l, m):
            g[i] += g[i - l]
        out.append(g[:])
    return out


def sigma1_step_works(cols, rows, m=100):
    """The work of sigma1^m on the R x cols box, R = 1..rows: its m - 1 Pieri
    steps and printing it.

    Step j = 1..m-1 reads the partitions p of j in the box and writes p grown
    at each addable corner, and printing reads those of m six times; each
    tuple costs len(p) + W, and each step and the printing 16W more.  With
    exactly l parts, p is, less a box a part, a partition of j - l of at most
    l parts below cols; its corners are its distinct parts, one fewer if its
    first part is cols, and one more if l < R.  Its parts drop after row
    i < l when, less a box in each of its first i rows, it is a partition of
    j - i with l parts below cols, and its first part is cols when the rest
    is a partition of j - cols with l - 1 parts.
    """
    exact = gaussian_rows(cols - 1, rows, m)  # exact[l][j - l]: l parts <= cols
    lower = gaussian_rows(cols - 2, rows, m)  # lower[l][j - l]: l parts < cols
    works, total = [], 16 * W * m
    for l in range(1, rows + 1):
        total += 6 * (l + W) * (exact[l][m - l] if l <= m else 0)
        parts = sum(exact[l][:max(m - l, 0)])
        heads = list(itertools.accumulate(lower[l], initial=0))
        drops = parts + sum(heads[max(m - l - i, 0)] for i in range(1, l))
        full = sum(exact[l - 1][:max(m - cols - l + 1, 0)])
        # the terms of exactly l parts, written at their corners but a new row
        total += (l + W) * (drops - full + parts)
        works.append(total)
        # and at a new row once the box has more than l rows
        total += (l + W) * parts
    return works


def refusal(grassmannian, budget):
    return "error: sigma1^m on G(%s) takes at most %d units of work\n" % (grassmannian, budget)


@pytest.mark.parametrize("k,n,m", [(0, 100, 100), (1, 3, 100), (2, 5, 100), (9, 10, 100),
                                   (12, 14, 100), (3, 8, 40), (2, 40, 100), (4, 12, 30)])
def test_schubert_chain_work_matches_partition_counts(monkeypatch, k, n, m):
    # G(k,n) reads k + 1 up front; a step and the printing cost 16W besides
    # what they read and write; a budget of that work admits the power, one
    # unit less refuses it
    work = k + 1 + 16 * W + sigma1_step_works(n - k, k + 1, m)[k]
    grassmannian = "%d,%d" % (k, n)
    monkeypatch.setattr(cli, "MAX_SCHUBERT_WORK", work)
    assert run(power(grassmannian, m))[0] == 0
    monkeypatch.setattr(cli, "MAX_SCHUBERT_WORK", work - 1)
    assert run(power(grassmannian, m)) == (2, "", refusal(grassmannian, work - 1))


def test_schubert_budget_is_the_costliest_capped_chain():
    # sigma1^m costs the most at m = 100.  Its steps read partitions of at
    # most 99, and printing it those of 100, so past 100 rows or columns a
    # box's work is what the 100-row or 100-column box's is: every term a
    # step reads has room for a new row, and none fills the first
    top = 100
    works = {}
    for cols in range(1, top + 1):
        rows = 1
        while rows < top and math.comb(rows + 1 + cols, cols) <= 100_000:
            rows += 1
        for l, work in enumerate(sigma1_step_works(cols, rows), 1):
            works[l, cols] = work
    costliest = max((k + 1 + 16 * W + works[min(k + 1, top), min(n - k, top)], k, n)
                    for k, n in capped_grassmannians())
    assert costliest == (cli.MAX_SCHUBERT_WORK, 22, 27)


def test_schubert_costliest_chain_admitted_and_one_more_step_refused(monkeypatch):
    # sigma1^100 on G(22,27) takes the whole budget, and 0.5-0.7 s
    pieri = spy(monkeypatch, "pieri1")
    data = run_json(power("22,27", 100))
    assert len(pieri) == 99 and len(data["class"]["terms"]) == 84
    del pieri[:]
    assert run(power("22,27", 101)) == (2, "", refusal("22,27", cli.MAX_SCHUBERT_WORK))
    # the 100th Pieri step, on 84 terms, costs less than printing them did;
    # printing its class is refused
    assert len(pieri) == 100


# refused by the caps the work budget replaced: more than 100,000 classes,
# an exponent over 100, more than 100 Pieri steps
@pytest.mark.parametrize("grassmannian,m,terms", [
    ("0,100000", 1, {"1": 1}),
    ("1,%d" % (10 ** 4000 - 1), 1, {"1": 1}),
    ("9,19", 50, 5448),
    ("3,40", 100, 966),
    ("1,3", 101, {}),
    ("0,200", 102, {"102": 1}),
], ids=["P100000", "n-4000-digits", "G9,19", "G3,40", "exponent-101", "101-operations"])
def test_schubert_admitted_past_the_old_caps(grassmannian, m, terms):
    found = run_json(power(grassmannian, m))["class"]["terms"]
    assert (found if isinstance(terms, dict) else len(found)) == terms


def best_seconds(argv, runs=2):
    times = []
    for _ in range(runs):
        start = time.monotonic()
        code, out, err = run(argv)
        times.append(time.monotonic() - start)
    return min(times), code, out, err


@pytest.fixture(scope="module")
def budget_seconds():
    # the time of the power that sets the budget
    seconds, code, out, err = best_seconds(power("22,27", 100))
    assert code == 0, err
    return seconds


# refused by the budget partway, in about the time the budget's own power
# takes (the slowest shapes take up to 1.4 times as long a unit, and the
# machine's speed may change between runs): G(10,30) has 84,672,315 classes
@pytest.mark.parametrize("grassmannian,m", [("10,30", 50)], ids=["G10,30"])
def test_schubert_refused_by_the_budget(budget_seconds, grassmannian, m):
    seconds, code, out, err = best_seconds(power(grassmannian, m))
    assert seconds < 2 * budget_seconds
    assert (code, out, err) == (2, "", refusal(grassmannian, cli.MAX_SCHUBERT_WORK))


def test_schubert_class_coefficient_bits_bounded(monkeypatch):
    # a 14284-bit integer has at most 4300 digits, all Python will print
    assert cli.MAX_INT_BITS == 14_284
    assert len(str(2 ** 14284 - 1)) == 4300
    # sigma1^6 on G(1,4) is 5 times the point class, a 3-bit coefficient
    monkeypatch.setattr(cli, "MAX_INT_BITS", 3)
    assert run_json(power("1,4", 6))["value"] == 5
    monkeypatch.setattr(cli, "MAX_INT_BITS", 2)
    assert run(power("1,4", 6)) == (2, "", "error: class coefficients have at most 2 bits\n")


# P^100 is G(0,100); there sigma1^100 (99 Pieri steps) is the point class.
# The work of sigma1^101 up to its last step, with the budget set to it and
# to what printing the zero class takes more: G(0,100) reads 1, a step
# costs 16W, and a tuple of one part 1 + W.  A Pieri step reads sigma_j and
# writes sigma_(j+1), a tuple each, but writes nothing from the full row
# sigma_100
P100, STEP, FULL = 1 + 16 * W, 16 * W + 2 * (1 + W), 16 * W + 1 + W
# (power, work, printing, value, Pieri steps run when the last is refused)
PIERI_CHAIN = (101, P100 + 99 * STEP + FULL, 16 * W, {}, 99)


@pytest.mark.parametrize("m,work,printing,value,steps", [PIERI_CHAIN], ids=["pieri"])
def test_schubert_class_operations_at_bound_accepted(monkeypatch, m, work, printing, value, steps):
    monkeypatch.setattr(cli, "MAX_SCHUBERT_WORK", work + printing)
    assert run_json(power("0,100", m))["class"]["terms"] == value


@pytest.mark.parametrize("m,work,printing,value,steps", [PIERI_CHAIN], ids=["pieri"])
def test_schubert_class_operations_past_bound_rejected(monkeypatch, m, work, printing, value,
                                                       steps):
    # the last step is refused before it runs
    monkeypatch.setattr(cli, "MAX_SCHUBERT_WORK", work - 1)
    pieri = spy(monkeypatch, "pieri1")
    assert run(power("0,100", m)) == (2, "", refusal("0,100", work - 1))
    assert len(pieri) == steps


@pytest.mark.parametrize("grassmannian,expr,digest", [
    ("8,18", "sigma1^90", "e1fb68bf13c849b44dc943c4ea602b1260b629585b4326b4bc52fc8ab0761363"),
    ("1,3", "sigma1^4", "7f61451ea87496d8fd8d93475571d3a935d52c2c878bad2b229c0dc3e51b1dbd"),
])
def test_schubert_output_pinned(grassmannian, expr, digest):
    # stdout recorded from `--expr sigma1^m` while every class operation
    # rebuilt its result through the validating SchubertClass constructor;
    # `--power m` prints the same, "expr" field and all
    code, out, err = run(power(grassmannian, expr.removeprefix("sigma1^")))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_schubert_class_power_refused_before_its_loop(monkeypatch):
    # each of its m - 1 steps costs at least 16W; G(1,3) has taken 2 + 16W
    pieri = spy(monkeypatch, "pieri1")
    for m in ((cli.MAX_SCHUBERT_WORK - 2 - 16 * W) // (16 * W) + 2, 10 ** 29):
        assert run(power("1,3", m)) == (2, "", refusal("1,3", cli.MAX_SCHUBERT_WORK))
    assert pieri == []


@pytest.mark.parametrize("argv", [
    ["--grassmannian", "%d,%d" % (10 ** 29, 10 ** 29 + 1), "--power", "1"],
    ["--grassmannian", "1,3", "--power", "9" * 4000],
    ["--grassmannian", "1,3", "--power", "%d" % 10 ** 29],
])
def test_schubert_oversized_input_rejected_fast(argv):
    start = time.monotonic()
    code, out, err = run(["schubert"] + argv)
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1


def test_chow_compound_identity():
    form = json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    data = run_json(["chow", "--form", form, "--k", "2"])
    assert data["matrix"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert "lexicographic" in data["indexing"]


def test_chow_limit_support():
    q0 = json.dumps([["0", "1/2", "0", "0"], ["1/2", "0", "0", "0"],
                     ["0", "0", "0", "0"], ["0", "0", "0", "0"]])
    q1 = json.dumps([["0", "0", "0", "0"], ["0", "0", "0", "0"],
                     ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
    data = run_json(["chow", "--form", q0, "--k", "2", "--limit-toward", q1])
    assert data["support"] == {"0,0": "1"}


# a 4 x 4 form with denominators, and the pencil Q0 + t Q1 with Q0 of rank 2
CHOW_FORM = json.dumps([["1/2", "1/3", "-2", "0"], ["1/3", "5/7", "1", "-3/4"],
                        ["-2", "1", "0", "2/5"], ["0", "-3/4", "2/5", "-1"]])
CHOW_Q0 = json.dumps([["0", "1/2", "0", "0"], ["1/2", "0", "0", "0"],
                      ["0", "0", "0", "0"], ["0", "0", "0", "0"]])
CHOW_Q1 = json.dumps([["2", "1/3", "0", "1"], ["1/3", "-1", "1/2", "0"],
                      ["0", "1/2", "3", "-2/5"], ["1", "0", "-2/5", "1"]])


@pytest.mark.parametrize("argv,digest", [
    (["chow", "--form", CHOW_FORM, "--k", "2"],
     "3b47728fd213422ceeb1f488761ce9943a8cf1338c94e35a33d6729cbc29ffa3"),
    (["chow", "--form", CHOW_FORM, "--k", "3"],
     "bd681abdb772d34754a7e435cc3372e0af0b4cd70eaacaac4a20f6c6b29efcea"),
    (["chow", "--form", CHOW_Q0, "--k", "3", "--limit-toward", CHOW_Q1],
     "48a5aea90cf90dadb880cd720962f7774f643317135699c748d04b61a2c46e02"),
])
def test_chow_output_pinned(argv, digest):
    # stdout recorded while compound still took every minor, both (S, T) and
    # (T, S), by its own ff_det call
    code, out, err = run(argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def diagonal_form(size):
    return json.dumps([[str(i + 1) if i == j else "0" for j in range(size)] for i in range(size)])


def stub_chow(monkeypatch):
    calls = []

    def compound(q, k):
        calls.append(("compound", q.n, k))
        return q

    def chow_limit(q0, q1, k):
        calls.append(("limit", q0.n, k))
        return cli.chowform.ProjectivePoint([1])

    monkeypatch.setattr(cli.quadrics, "compound", compound)
    monkeypatch.setattr(cli.chowform, "chow_limit", chow_limit)
    return calls


def chow_argv(size, k, bits, limit):
    # a diagonal form whose largest entry has exactly bits bits
    form = json.dumps([[str(2 ** bits - 1 if i == j == 0 else int(i == j)) for j in range(size)]
                       for i in range(size)])
    return ["chow", "--form", form, "--k", str(k)] + ["--limit-toward", form] * limit


# every shape the caps before the work bound admitted: n <= 10 and at most
# C(n+1,k) = 126 compound rows, with entries up to 64 bits
CAPPED_SHAPES = [(size, k) for size in range(1, 12) for k in range(1, size + 1)
                 if math.comb(size, k) <= 126]


def test_chow_at_bounds_accepted(monkeypatch):
    calls = stub_chow(monkeypatch)
    for size, k in CAPPED_SHAPES:
        for bits in (4, 64):
            for limit in (False, True):
                run_json(chow_argv(size, k, bits, limit))
                assert calls.pop() == ("limit" if limit else "compound", size - 1, k)
    # n = 10 with k = 9, 64-bit entries and the limit predicts the most work
    assert cli.MAX_CHOW_WORK == max(cli._chow_work(size - 1, k, 64, True) for size, k in CAPPED_SHAPES)
    assert cli.MAX_CHOW_WORK == cli._chow_work(10, 9, 64, True)


# (size, k, bits, limit, admitted), size = n + 1
CHOW_ADMISSION = [
    # rejected by the caps before the work bound, cheaper than n = 10 with k = 9
    (10, 6, 64, True, True),
    (12, 4, 64, False, True),
    (21, 2, 4, True, True),
    (10, 4, 4, True, True),
    (10, 5, 4, True, True),
    (11, 3, 4, True, True),
    (12, 1, 4, True, True),
    (200, 1, 4, True, True),
    (11, 9, 128, False, True),
    # over the budget
    (12, 4, 64, True, False),
    (12, 10, 64, True, False),
    (12, 10, 4, True, False),
    (13, 6, 4, False, False),
    (70, 69, 4, False, False),
    (11, 9, 65, True, False),
]


@pytest.mark.parametrize("size,k,bits,limit,admitted", CHOW_ADMISSION,
                         ids=["n%d-k%d-%dbit%s" % (size - 1, k, bits, "-limit" * limit)
                              for size, k, bits, limit, _ in CHOW_ADMISSION])
def test_chow_admission(monkeypatch, size, k, bits, limit, admitted):
    calls = stub_chow(monkeypatch)
    code, out, err = run(chow_argv(size, k, bits, limit))
    if admitted:
        assert code == 0, err
        assert calls == [("limit" if limit else "compound", size - 1, k)]
        return
    work = cli._chow_work(size - 1, k, bits, limit)
    assert code == 2 and out == ""
    assert err.startswith("error: chow --k %d on n = %d with %d-bit entries" % (k, size - 1, bits))
    assert err.endswith(" predicts %d units of work, over the budget of %d\n" % (work, cli.MAX_CHOW_WORK))
    # rejected before any kernel runs
    assert calls == []


@pytest.mark.parametrize("k", [0, 5, -1])
def test_chow_k_out_of_range_rejected_before_any_work(monkeypatch, k):
    calls = stub_chow(monkeypatch)
    code, out, err = run(chow_argv(4, k, 4, False))
    assert code == 2 and out == ""
    assert err == "error: chow --k is at least 1 and at most n + 1 = 4 (got %d)\n" % k
    assert calls == []


def test_chow_limit_toward_form_bounded(monkeypatch):
    # the second form is held to the budget as it is parsed, like the first
    calls = stub_chow(monkeypatch)
    wide = chow_argv(11, 9, 65, False)[2]
    code, out, err = run(chow_argv(11, 9, 4, False) + ["--limit-toward", wide])
    assert code == 2 and out == ""
    assert "on n = 10 with 65-bit entries and --limit-toward predicts" in err
    assert calls == []


# each admitted alone, but scaled by one lcm the pencil has 2^30 * 2^40
SMALL_Q0 = diagonal_form(11).replace('"1"', '"1/%d"' % 2 ** 40)
LARGE_Q1 = diagonal_form(11).replace('"2"', '"%d"' % 2 ** 30)


def test_chow_entries_at_bound_accepted(monkeypatch):
    # 64 bits after scaling at the costliest shape, n = 10 with k = 9: 2^64 - 1
    # itself, and 2^63 - 1 next to a half
    calls = stub_chow(monkeypatch)
    for top, other in ((str(2 ** 64 - 1), "1"), (str(2 ** 63 - 1), "1/2")):
        form = json.dumps([[top if i == j == 0 else other if i == j else "0" for j in range(11)]
                           for i in range(11)])
        run_json(["chow", "--form", form, "--k", "9"])
        run_json(["chow", "--form", form, "--k", "9", "--limit-toward", diagonal_form(11)])
    for form in (SMALL_Q0, LARGE_Q1):
        run_json(["chow", "--form", form, "--k", "9", "--limit-toward", diagonal_form(11)])
    assert calls == [("compound", 10, 9), ("limit", 10, 9)] * 2 + [("limit", 10, 9)] * 2


def prime_denominator_form():
    # every upper entry 1/p for its own prime p <= 73, so each entry is
    # small, but the lcm of the denominators has 96 bits
    primes = iter([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73])
    m = [[None] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i, 6):
            m[i][j] = m[j][i] = "1/%d" % next(primes)
    return json.dumps(m)


def padded(form, size=11):
    # the form in the top left corner of a size x size matrix of zeros
    rows = json.loads(form)
    m = len(rows)
    return json.dumps([[rows[i][j] if i < m and j < m else "0" for j in range(size)]
                       for i in range(size)])


@pytest.mark.parametrize("argv,bits", [
    (["--form", padded(json.dumps([[str(2 ** 64), "0"], ["0", "1"]]))], 65),
    (["--form", padded(prime_denominator_form())], 95),
    # a denominator past 64 bits, although the form scales to integers of 11 bits
    (["--form", padded(json.dumps([["1/%d" % 2 ** 70, "0"], ["0", "1/%d" % 2 ** 70]]))], 71),
    (["--form", SMALL_Q0, "--limit-toward", LARGE_Q1], 71),
], ids=["integer", "lcm", "denominator", "pencil"])
def test_chow_entries_past_bound_rejected_before_any_work(monkeypatch, argv, bits):
    # at n = 10 with k = 9 and the limit, the budget holds entries of 64 bits
    calls = stub_chow(monkeypatch)
    if "--limit-toward" not in argv:
        argv = argv + ["--limit-toward", argv[1]]
    code, out, err = run(["chow", "--k", "9"] + argv)
    assert code == 2 and out == ""
    assert err == "error: chow --k 9 on n = 10 with %d-bit entries and --limit-toward predicts %d " \
        "units of work, over the budget of %d\n" % (bits, cli._chow_work(10, 9, bits, True),
                                                     cli.MAX_CHOW_WORK)
    assert calls == []


def test_chow_oversized_entries_rejected_fast():
    # two 11 x 11 forms of 4000-digit fractions with distinct denominators
    rng = random.Random(0)

    def form():
        m = [[None] * 11 for _ in range(11)]
        for i in range(11):
            for j in range(i, 11):
                m[i][j] = m[j][i] = "%d/%d" % (rng.randrange(10 ** 3999, 10 ** 4000),
                                               rng.randrange(10 ** 3999, 10 ** 4000))
        return json.dumps(m)

    start = time.monotonic()
    code, out, err = run(["chow", "--form", form(), "--k", "2", "--limit-toward", form()])
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "over the budget" in err


@pytest.mark.parametrize("k", [1, 2])
def test_chow_forms_of_two_sizes_rejected(monkeypatch, k):
    # the sizes are compared first: --k 2 fits the first form (n + 1 = 2) but
    # not the second, and the message names the mismatch, not the second size
    calls = stub_chow(monkeypatch)
    code, out, err = run(["chow", "--form", '[["1", "0"], ["0", "1"]]', "--k", str(k),
                          "--limit-toward", '[["1"]]'])
    assert code == 2 and out == ""
    assert err == "error: forms must share an ambient space\n"
    assert calls == []


@pytest.mark.parametrize("form", ["[]", "[[]]", "[[1, 2], [3]]"])
def test_chow_non_square_form_rejected(monkeypatch, form):
    calls = stub_chow(monkeypatch)
    code, out, err = run(["chow", "--form", form, "--k", "1"])
    assert code == 2 and out == ""
    assert err == "error: quadric matrix must be square and nonempty\n"
    assert calls == []


def test_chow_ragged_form_rejected_before_its_size_is_read(monkeypatch):
    # 43,000 empty rows fit in one 128 KiB argument; read as n = 42,999 with
    # k near n / 2, the predicted work alone would multiply binomials tens of
    # thousands of bits long
    calls = stub_chow(monkeypatch)
    start = time.monotonic()
    code, out, err = run(["chow", "--form", json.dumps([[]] * 43_000), "--k", "21500"])
    assert time.monotonic() - start < 1
    assert code == 2 and out == ""
    assert err == "error: quadric matrix must be square and nonempty\n"
    assert calls == []


def test_chow_oversized_form_rejected_before_its_entries_are_parsed(monkeypatch):
    # n = 300 with k = 2 is over the budget at any entry size: refused with
    # the message the parsed form would get, but no entry reaches parse_rat
    # (4.7 us each, 0.4 s for this form); a fraction entry, which int()
    # cannot size, is the one parse_rat reads
    calls = stub_chow(monkeypatch)
    parsed = []
    monkeypatch.setattr(cli, "parse_rat", lambda x: parsed.append(x) or exact.parse_rat(x))
    rows = [[str((i + j) % 7 - 3) for j in range(301)] for i in range(301)]
    rows[5][9] = rows[9][5] = str(-(2 ** 40))
    for fraction, bits in ((None, 41), ("1/%d" % 2 ** 50, 51)):
        if fraction:
            rows[0][0] = fraction
        code, out, err = run(["chow", "--form", json.dumps(rows), "--k", "2"])
        assert code == 2 and out == ""
        assert err == "error: chow --k 2 on n = 300 with %d-bit entries predicts %d units of work, " \
            "over the budget of %d\n" % (bits, cli._chow_work(300, 2, bits, False), cli.MAX_CHOW_WORK)
        assert parsed == ([fraction] if fraction else []) and calls == []


def hadamard_form(bits):
    # a symmetric Hadamard pattern of +-(2^bits - 1), whose determinant
    # 16 (2^bits - 1)^4 comes near Hadamard's bound
    top = 2 ** bits - 1
    signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    return json.dumps([[str(s * top) for s in row] for row in signs])


@pytest.mark.parametrize("form,k,bits,printed", [
    (json.dumps([[str(2 ** 7139 - 1), "1"], ["1", str(-(2 ** 7139 - 1))]]), 2, 7139, 14_283),
    (hadamard_form(3567), 4, 3567, 14_281),
], ids=["k2", "k4"])
def test_chow_printed_size_at_bound_prints(form, k, bits, printed):
    assert k * (bits + k.bit_length()) + 1 == printed <= cli.MAX_INT_BITS
    data = run_json(["chow", "--form", form, "--k", str(k)])
    # the compound of a (k - 1)-form at k is its determinant alone
    assert abs(int(data["matrix"][0][0])).bit_length() <= printed


@pytest.mark.parametrize("form,k,bits,lcm_bits,printed", [
    (json.dumps([[str(2 ** 7140 - 1), "1"], ["1", "1"]]), 2, 7140, 1, 14_285),
    (hadamard_form(3568), 4, 3568, 1, 14_285),
    # small integers over a 7141-bit denominator
    (json.dumps([["1/%d" % 2 ** 7140, "0"], ["0", "1"]]), 2, 7141, 7141, 14_287),
], ids=["k2", "k4", "denominator"])
def test_chow_printed_size_past_bound_rejected_before_any_work(monkeypatch, form, k, bits,
                                                               lcm_bits, printed):
    calls = stub_chow(monkeypatch)
    code, out, err = run(["chow", "--form", form, "--k", str(k)])
    assert code == 2 and out == ""
    assert err == ("error: chow --k %d with %d-bit entries and a %d-bit lcm prints integers of up "
                   "to %d bits, at most %d\n" % (k, bits, lcm_bits, printed,
                                                  cli.MAX_INT_BITS))
    assert calls == []


def test_lattice_n_at_bound_accepted():
    assert cli.MAX_LATTICE_N == 100
    ones = ["1"] * 100
    data = run_json(["cone", "--divisor", json.dumps({"basis": "H", "coeffs": ones}), "--cone", "eff"])
    assert data["contains"] and data["interior"]
    # a change of basis at n = 100 runs the Cartan relation, fast enough to run
    # whole; its E coordinates convert back to the closed nef-basis form
    data = run_json(["canonical", "--n", "100", "--basis", "E"])
    back = picard.convert(picard.DivisorClass.from_json(data["divisor"]), "H")
    assert back == picard.canonical(100, "nefbasis")


@pytest.mark.parametrize("argv", [
    ["canonical", "--n", "101", "--basis", "E"],
    ["canonical", "--n", "101", "--basis", "mixed", "--method", "blowup"],
    ["cone", "--divisor", json.dumps({"basis": "H", "coeffs": ["1"] * 101}), "--cone", "eff"],
    ["cone", "--divisor", json.dumps({"basis": "E", "coeffs": ["1"] * 101}), "--cone", "nef"],
    ["pair", "--curve", json.dumps({"n": 101, "coeffs": ["1"] * 101}),
     "--divisor", json.dumps({"basis": "H", "coeffs": ["1"] * 101})],
])
def test_lattice_n_past_bound_rejected_before_any_work(monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli.picard, "convert", lambda *a: calls.append(a))
    monkeypatch.setattr(cli.picard, "canonical", lambda *a: calls.append(a))
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "n is at most 100 (got 101)" in err
    assert calls == []


@pytest.mark.parametrize("basis,digest", [
    ("E", "e8db33faab96fd00ca3448f8017ca1e4cd894dc4996947722a3bbfbf1b0319a5"),
    ("mixed", "175e6ddf8af2472b7ca83cc2eb17ba2fdcabb995bca92d4fc062b1e6ab8df4ce"),
])
def test_canonical_n100_output_pinned(basis, digest):
    # stdout recorded while conversions out of H ran on a rational
    # Gauss-Jordan elimination
    code, out, err = run(["canonical", "--n", "100", "--basis", basis])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pencil_count():
    data = run_json(["pencil", "--n", "5", "--k", "2", "--seed", "9"])
    assert data["degenerations"] == 4


def test_pencil_n_above_bound_rejected_fast(monkeypatch):
    # --n 41 --k 1 draws on P^40, one past the largest admitted pencil
    draws = []
    monkeypatch.setattr(cli.pencils, "random_pencil", lambda *a: draws.append(a))
    start = time.monotonic()
    code, out, err = run(["pencil", "--n", "41", "--k", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: pencil --n 41 --k 1 draws on P^40, at most P^%d\n" % cli.MAX_PENCIL_M
    assert draws == []
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("n,k", [(3, 3), (3, 0), (5, -1)])
def test_pencil_k_out_of_range_rejected_before_drawing(monkeypatch, n, k):
    draws = []
    monkeypatch.setattr(cli.pencils, "random_pencil", lambda *a: draws.append(a))
    code, out, err = run(["pencil", "--n", str(n), "--k", str(k)])
    assert code == 2 and out == ""
    assert err == "error: k must lie in 1..n-1\n"
    assert draws == []


def test_pencil_n_at_bound_runs():
    # the cap is on m = n - k: P^39 is the largest pencil, and n = 41 with
    # k = 40 is a pencil on P^1
    data = run_json(["pencil", "--n", "40", "--k", "1"])
    assert data["degenerations"] == 40
    data = run_json(["pencil", "--n", "41", "--k", "40"])
    assert data["degenerations"] == 2


def test_pencil_non_transversal_draw_exits_one():
    # seed 31 on P^1 draws det = -144 (t + 2)^2: degree 2, one singular member
    code, out, err = run(["pencil", "--n", "2", "--k", "1", "--seed", "31"])
    assert code == 1
    assert out == ""
    assert err == ("error: the pencil of seed 31 is not transversal: 2 singular members "
                   "with multiplicity, 1 distinct\n")


def test_census_10000_output_pinned():
    # the census JSON as cq chamber --census 10000 --seed 0 printed it, recorded
    # before the classifier moved to integer facet rows
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit("chamber-census", seed=0, **cli.chambers.chamber_census(10000, 0))
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "fe59aa600a6eeaa079f1f220398647328e84dfe2ff32b65686717a688e2018a3"


def test_pencil_verify_table():
    code, out, _ = run(["pencil", "--verify-table", "--seed", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["entries"]) == 13
    assert all(e["count"] == e["pairing"] for e in data["entries"])


def test_cone_membership():
    data = run_json(["cone", "--divisor", '{"basis":"H","coeffs":["1","1","1"]}',
                     "--cone", "nef"])
    assert data["contains"] is True and data["interior"] is True


def test_pair_display_name():
    data = run_json(["pair", "--curve", "C1,2", "--divisor",
                     '{"basis":"H","coeffs":["4","-2","4"]}'])
    assert data["value"] == "-2"


def test_table_json_shape():
    data = run_json(["table"])
    assert len(data["rows"]) == 8
    assert all(len(r["entries"]) == 6 for r in data["rows"])
    gstar = next(r for r in data["rows"] if r["curve"] == "G*")
    assert gstar["entries"] == [3, 2, 1, 4, 0, 0]


def test_table_text_alignment():
    code, out, _ = run(["table", "--text"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0].split() == ["H1", "H2", "H3", "E1", "E2", "E3", "covers"]
    assert lines[2].split() == ["G*", "3", "2", "1", "4", "0", "0", "X3"]


def test_verify_all_quick():
    code, out, _ = run(["verify-all", "--seed", "4", "--quick", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    assert len(data["checks"]) == 11


@pytest.mark.parametrize("argv, digest", [
    (["verify-all", "--seed", "0", "--quick", "--json"],
     "68f99295eedd0510023896f11c7a73c254bff8ed400c956906b0f36b9621a194"),
    (["verify-all", "--seed", "4", "--quick", "--json"],
     "3d8fca974fc7fea9bd4594b5347ab0eafefec145b76f16018428595cb198f53d"),
    (["verify-all", "--seed", "0", "--json"],
     "ce6a5b962cc91556b00ca0cb6762eb1084c4ab15996d2aff391fa4b29964ee89"),
    (["pencil", "--verify-table", "--seed", "2"],
     "868ba91c50e4484f6c828bb9d4a7da8e9814b21951a4f75906c23358caffec16"),
])
def test_verification_output_pinned(argv, digest):
    # stdout recorded before each check named itself once and the direct
    # counts were compared with their pairings in one place; the verify-all
    # digests re-recorded when chamber-partition moved from samples to faces,
    # and again when degeneration-counts came to count one pencil per family
    code, out, err = run(argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_chamber_partition_entry_is_seed_free():
    # the check visits every face, so neither the seed nor quick mode moves it
    entries = []
    for argv in (["--seed", "0"], ["--seed", "4"], ["--seed", "4", "--quick"]):
        data = run_json(["verify-all", "--json"] + argv)
        entries.append(next(c for c in data["checks"] if c["name"] == "chamber-partition"))
    assert entries[0]["passed"] is True
    assert entries[0] == entries[1] == entries[2]


def test_census_failure_exits_one(monkeypatch):
    # a census check that fails is a verification that ran and failed
    cli.chambers._placement.cache_clear()
    monkeypatch.setattr(cli.chambers, "REGIONS", cli.chambers.REGIONS + (cli.chambers.REGIONS[0],))
    try:
        code, out, err = run(["chamber", "--census"])
    finally:
        cli.chambers._placement.cache_clear()
    assert (code, out) == (1, "")
    assert err == ("error: regions [1, 1] accept DivisorClass(n=3, basis='H', coeffs="
                   "(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))\n")


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cites_every_size_bound():
    # README.md names each size bound of the CLI as cli.MAX_*, and only those
    cited = set(re.findall(r"\bcli\.(MAX_[A-Z0-9_]+)", README.read_text()))
    assert cited == {name for name in vars(cli) if name.startswith("MAX_")}


def test_readme_commands_run():
    # every `cq` line of README.md's code blocks, backslash continuations joined
    lines = "\n".join(README.read_text().split("```")[1::2]).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("cq ")]
    assert len(commands) == 14
    for argv in commands:
        code, out, err = run(argv)
        assert code == 0, (argv, err)


def test_census_escaped_cover_exits_one(monkeypatch):
    real = cli.chambers._placement

    def placement(signs):
        # every effective pattern loses its report
        found = real(signs)
        return cli.chambers._Placement(found.accepted, None, found.failure, found.forced)

    monkeypatch.setattr(cli.chambers, "_placement", placement)
    code, out, err = run(["chamber", "--census"])
    assert (code, out) == (1, "")
    assert err.startswith("error: effective class escaped the chamber cover: DivisorClass(")
    assert err.count("\n") == 1


def test_repeated_runs_byte_identical():
    args = [
        ["table"],
        ["chamber", "--census"],
        ["pencil", "--n", "4", "--k", "1", "--seed", "0"],
        power("1,4", 6),
    ]
    for argv in args:
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first == second


def test_error_exit_codes():
    for argv in (
        ["chamber", "--divisor", "not json"],
        ["chamber", "--divisor", '{"basis":"H","coeffs":["-1","0","0"]}'],
        ["pencil", "--n", "3"],
        power("3,1", 1),
        power("1,3", -1),
        ["pencil", "--n", "3", "--k", "3", "--seed", "0"],
    ):
        code, _, err = run(argv)
        assert code == 2, argv
    code, _, _ = run(["bogus"])
    assert code == 2


def test_string_coeffs_rejected():
    # a JSON string is iterable, so "123" must not read as the class (1, 2, 3)
    for argv in (
        ["cone", "--divisor", '{"basis":"H","coeffs":"123"}', "--cone", "nef"],
        ["pair", "--curve", "G", "--divisor", '{"basis":"H","coeffs":"123"}'],
        ["pair", "--curve", '{"n":3,"coeffs":"121"}', "--divisor",
         '{"basis":"H","coeffs":["1","1","1"]}'],
    ):
        code, out, err = run(argv)
        assert code == 2, argv
        assert out == ""
        assert "not a string" in err


@pytest.mark.parametrize("n", [-3, 0, 1])
def test_curve_below_n_2_rejected(n):
    # checked before the coefficients are counted, as for a divisor
    code, out, err = run(["pair", "--curve", json.dumps({"n": n, "coeffs": []}),
                          "--divisor", '{"basis":"H","coeffs":[1,1,1]}'])
    assert code == 2 and out == ""
    assert err == "error: need n >= 2\n"


@pytest.mark.parametrize("argv", [
    ["cone", "--divisor", '{"basis":"H","coeffs":["1e5000","1","1"]}', "--cone", "nef"],
    ["cone", "--divisor", '{"basis":"H","coeffs":["1E3","1","1"]}', "--cone", "nef"],
    ["chamber", "--segment", "1e-5000"],
])
def test_exponent_notation_rejected_fast(argv):
    start = time.monotonic()
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert "exponent" in err
    assert time.monotonic() - start < 1


@pytest.mark.parametrize("argv", [
    ["chow", "--form", '[["1/0"]]', "--k", "1"],
    ["chamber", "--segment", "1/0"],
], ids=["chow", "chamber"])
def test_zero_denominator_rejected(argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == "error: zero denominator: '1/0'\n"


def test_decimal_coefficients_still_accepted():
    data = run_json(["cone", "--divisor", '{"basis":"H","coeffs":["0.5","1","1"]}',
                     "--cone", "nef"])
    assert data["divisor"]["coeffs"] == ["1/2", "1", "1"]
    assert run_json(["chamber", "--segment", "0.5"])["t"] == "1/2"


def test_json_float_coefficients_still_accepted():
    # a JSON number arrives as a float whose str may use an exponent
    data = run_json(["cone", "--divisor", '{"basis":"H","coeffs":[0.00001,1,1]}',
                     "--cone", "nef"])
    assert data["divisor"]["coeffs"] == ["1/100000", "1", "1"]
    data = run_json(["cone", "--divisor", '{"basis":"H","coeffs":[1e16,1,1]}',
                     "--cone", "nef"])
    assert data["divisor"]["coeffs"] == [str(10 ** 16), "1", "1"]


@pytest.mark.parametrize("argv", [
    ["cone", "--divisor", '{"basis":"H","coeffs":[true,false,true]}', "--cone", "nef"],
    ["chamber", "--divisor", '{"basis":"H","coeffs":[1,true,1]}'],
    ["pair", "--curve", '{"n":3,"coeffs":[1,true,1]}', "--divisor", '{"basis":"H","coeffs":[1,1,1]}'],
    ["chow", "--form", "[[true,0],[0,1]]", "--k", "1"],
    ["chow", "--form", '{"matrix":[[1,0],[0,false]]}', "--k", "1"],
    ["chow", "--form", "[[1,0],[0,1]]", "--limit-toward", "[[true,0],[0,0]]", "--k", "1"],
], ids=["divisor", "chamber-divisor", "curve", "form", "form-matrix", "limit-toward"])
def test_json_boolean_entries_rejected(argv):
    # a JSON true is a Python bool, which is an int: it must not pass as 1
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "boolean" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["chow", "--form", "[[null]]", "--k", "1"],
    ["chow", "--form", "[[1,0],[0,1]]", "--limit-toward", "[[null,0],[0,0]]", "--k", "1"],
    ["cone", "--divisor", '{"basis":"H","coeffs":[null,0,0]}', "--cone", "nef"],
    ["pair", "--curve", '{"n":3,"coeffs":[1,null,1]}', "--divisor", '{"basis":"H","coeffs":[1,1,1]}'],
], ids=["form", "limit-toward", "divisor", "curve"])
def test_json_null_entries_rejected(argv):
    # a JSON null is None, which must not be read as the text "None"
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == "error: null is not a number\n"


@pytest.mark.parametrize("argv", [
    ["cone", "--divisor", '{"basis":"H","coeffs":5}', "--cone", "nef"],
    ["cone", "--divisor", '{"basis":"H","coeffs":null}', "--cone", "nef"],
    ["chow", "--form", '{"matrix":5}', "--k", "1"],
    ["chow", "--form", "[5]", "--k", "1"],
    ["chow", "--form", '{"matrix":[[1]],"n":null}', "--k", "1"],
    ["cone", "--divisor", '{"basis":"H","coeffs":[1,1,1],"n":null}', "--cone", "nef"],
    ["pair", "--curve", "[1,2,1]", "--divisor", '{"basis":"H","coeffs":[1,1,1]}'],
    ["pair", "--curve", '{"n":3,"coeffs":5}', "--divisor", '{"basis":"H","coeffs":[1,1,1]}'],
    ["cone", "--divisor", '{"basis":["H"],"coeffs":[1,1,1]}', "--cone", "nef"],
    ["pair", "--curve", '{"n":3,"basis":{},"coeffs":[1,2,1]}', "--divisor", '{"basis":"H","coeffs":[1,1,1]}'],
])
def test_wrongly_typed_json_fields_rejected(argv):
    # a field of the wrong JSON type is unusable input: exit 2, one line, no traceback
    code, out, err = run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


DEEP = "[" * 3000 + "1" + "]" * 3000
DIVISOR = '{"basis":"H","coeffs":[1,1,1]}'


@pytest.mark.parametrize("argv", [
    ["chow", "--form", DEEP, "--k", "1"],
    ["chow", "--form", '{"matrix":%s}' % DEEP, "--k", "1"],
    ["chow", "--form", "[[1]]", "--limit-toward", DEEP, "--k", "1"],
    ["cone", "--divisor", '{"basis":"H","coeffs":%s}' % DEEP, "--cone", "nef"],
    ["chamber", "--divisor", DEEP],
    ["pair", "--curve", '{"n":3,"coeffs":%s}' % DEEP, "--divisor", DIVISOR],
    ["pair", "--curve", "G", "--divisor", DEEP],
], ids=["form", "form-matrix", "limit-toward", "divisor-coeffs", "divisor", "curve", "pair-divisor"])
def test_deeply_nested_json_rejected(argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("nested,flat", [
    (["chow", "--form", "[[[1]]]", "--k", "1"], ["chow", "--form", "[[1]]", "--k", "1"]),
    (["chow", "--form", '{"matrix":[[1,0],[0,[1]]]}', "--k", "1"],
     ["chow", "--form", '{"matrix":[[1,0],[0,1]]}', "--k", "1"]),
    (["chow", "--form", "[[1]]", "--limit-toward", "[[[1]]]", "--k", "1"],
     ["chow", "--form", "[[1]]", "--limit-toward", "[[1]]", "--k", "1"]),
    (["cone", "--divisor", '{"basis":"H","coeffs":[[1],1,1]}', "--cone", "nef"],
     ["cone", "--divisor", DIVISOR, "--cone", "nef"]),
    (["pair", "--curve", '{"n":3,"coeffs":[1,{},1]}', "--divisor", DIVISOR],
     ["pair", "--curve", '{"n":3,"coeffs":[1,2,1]}', "--divisor", DIVISOR]),
])
def test_nested_json_entries_rejected(nested, flat):
    # one level deeper than a matrix of numbers or a list of coefficients
    code, out, err = run(nested)
    assert code == 2 and out == ""
    assert err == "error: matrix and coefficient entries must be numbers or strings\n"
    assert run(flat)[0] == 0


def test_console_script_wiring():
    # the child finds the package where this process found it
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "completequadrics.cli", "canonical", "--n", "2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["divisor"]["coeffs"] == ["-2", "-2"]
