"""Workload plans, item runners and output digests for the benchmark.

A plan is a list of items.  Each item is a JSON list whose first entry names
its kind; the rest are the arguments of one call into the package.  The
benchmark seed only chooses items from fixed pools, and the output of every
pool item was recorded in reference.json at the commit that defined the
benchmark (see record_reference.py), so any seed yields inputs whose outputs
can be checked.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("census", "pencil-ladder", "small-forms")

# census: a pass classifies CENSUS_CHUNKS chunks of CENSUS_CHUNK samples each,
# drawn from CENSUS_POOL census seeds
CENSUS_CHUNK = 50
CENSUS_CHUNKS = 10
CENSUS_POOL = 128

# pencil-ladder: one pencil on P^m for every rung m, from PENCIL_POOL seeds; at
# m = 16 one pencil takes seconds
LADDER = tuple(range(4, 17))
PENCIL_POOL = 16

# small-forms: seeded checks and direct table counts, from these pools
IDENTITY_PAIRS = 54
IDENTITY_SEEDS = 3
LIMIT_DRAWS = 10
LIMIT_SEEDS = 3
WEDGE_MAX_N = 4
DIRECT_SEEDS = 16
SMALL_POOL = 64
DIRECT_POOL = 128


def plan(workload: str, seed: int, tiny: bool = False) -> list:
    """Items of one pass of a workload; the same seed gives the same items."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "census":
        chunks = rng.sample(range(CENSUS_POOL), 1 if tiny else CENSUS_CHUNKS)
        return [["census", CENSUS_CHUNK, s] for s in chunks]
    if workload == "pencil-ladder":
        rungs = LADDER[:3] if tiny else LADDER
        return [["pencil", m, rng.randrange(PENCIL_POOL)] for m in rungs]
    if workload == "small-forms":
        counts = (1, 1, 1) if tiny else (IDENTITY_SEEDS, LIMIT_SEEDS, DIRECT_SEEDS)
        identity, limits, direct = counts
        items = [["identity", IDENTITY_PAIRS, s] for s in rng.sample(range(SMALL_POOL), identity)]
        items += [["limits", LIMIT_DRAWS, s] for s in rng.sample(range(SMALL_POOL), limits)]
        items += [["wedge", WEDGE_MAX_N]]
        items += [["direct", s] for s in rng.sample(range(DIRECT_POOL), direct)]
        return items
    raise ValueError("unknown workload %r" % (workload,))


def pool() -> list:
    """Every item any plan can contain, the keys of reference.json."""
    items = [["census", CENSUS_CHUNK, s] for s in range(CENSUS_POOL)]
    items += [["pencil", m, s] for m in LADDER for s in range(PENCIL_POOL)]
    items += [["identity", IDENTITY_PAIRS, s] for s in range(SMALL_POOL)]
    items += [["limits", LIMIT_DRAWS, s] for s in range(SMALL_POOL)]
    items += [["wedge", WEDGE_MAX_N]]
    items += [["direct", s] for s in range(DIRECT_POOL)]
    return items


def weight(item) -> int:
    """Items of work an entry stands for: census samples, else one."""
    return item[1] if item[0] == "census" else 1


def key(item) -> str:
    return ":".join(str(x) for x in item)


def run_item(cq, item):
    """The timed call of one item; returns (output, state for finish)."""
    kind = item[0]
    if kind == "census":
        census = cq.chambers.chamber_census(item[1], item[2])
        return census["chamber_counts"], None
    if kind == "pencil":
        # the body of bk_number(m + 1, 1, seed), keeping the pencil and the
        # distinct count that bk_number drops
        p = cq.pencils.random_pencil(item[1], item[2])
        c = cq.pencils.count_degenerations(p)
        return [c.total, c.distinct], p
    if kind == "identity":
        return cq.verify.check_chow_identity(seed=item[2], min_pairs=item[1]).passed, None
    if kind == "limits":
        return cq.verify.check_chow_limits(draws=item[1], seed=item[2]).passed, None
    if kind == "wedge":
        return cq.verify.check_wedge_contraction(max_n=item[1]).passed, None
    if kind == "direct":
        return cq.pencils.direct_table_counts(item[1]), None
    raise ValueError("unknown item kind %r" % (kind,))


# the line on which finish counts the tangencies of a direct item's pencil
DIRECT_LINE = ((1, 0), (0, 1), (1, 1), (1, -1))


def _form(cq, pencil):
    return [str(c) for c in cq.pencils.pencil_det_form(pencil).coeffs]


def finish(cq, item, output, state):
    """Untimed completion of an output.

    A degeneration total is the degree of a determinant form by
    construction, so totals alone check nothing.  A pencil item also carries
    its determinant form's coefficients.  A direct item's 13 counts are such
    totals, so it also carries values computed on the same paths from its
    seed: the forms and distinct degeneration counts of a pencil of quadric
    surfaces and of a pencil of conics, and the restrictions and the distinct
    tangency count of the first pencil on a fixed line.
    """
    if item[0] == "pencil":
        return output + [_form(cq, state)]
    if item[0] == "direct":
        pencils = cq.pencils
        surfaces, conics = (pencils.random_pencil(m, item[1]) for m in (3, 2))
        line = [[Fraction(x) for x in row] for row in DIRECT_LINE]
        restricted = [cq.quadrics.restrict(q, line).rows for q in (surfaces.q0, surfaces.q1)]
        return [
            output,
            [[_form(cq, p), pencils.count_degenerations(p).distinct] for p in (surfaces, conics)],
            [[[str(x) for x in row] for row in rows] for rows in restricted],
            pencils.count_tangencies(surfaces, line).distinct,
        ]
    return output


def digest(output) -> str:
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def output_digest(cq, item, ran) -> str:
    """Digest of an item's checked output, from what run_item returned."""
    return digest(finish(cq, item, *ran))


def reference_digest(cq, item) -> str:
    """Run an item untimed and digest its checked output."""
    return output_digest(cq, item, run_item(cq, item))
