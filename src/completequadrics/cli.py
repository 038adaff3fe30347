"""Command line interface for exact complete-quadric computations.

Every subcommand prints deterministic output: JSON with sorted keys (and a
schema tag) or, where noted, a fixed-width text rendering.  Exit status 0
means success, 1 means a verification ran and failed, 2 means the arguments
or input data were unusable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from . import chambers, chowform, pencils, picard, quadrics, schubert, verify
from .exact import ExactLinalgError, format_rat, parse_rat
from .picard import CurveClass, DivisorClass
from .quadrics import SymmetricForm

SCHEMA = "cq/1"

# `cq pencil --n N --k K` counts the singular members of one random pencil
# on P^m, m = N - K (pencils.marking_pencil); on one 2.1 GHz Xeon core the
# command takes 0.009-0.013 s at m = 19, 0.041-0.049 s at m = 29 and
# 0.145-0.157 s at m = 39, in process.  A larger m is rejected with exit 2
# before anything is drawn.
MAX_PENCIL_M = 39

# `cq chow` admits a shape by its predicted work (_chow_work), in
# multiply-adds of 64-bit words, and rejects work over MAX_CHOW_WORK with
# exit 2 before any kernel runs.  Whole commands on one 2.1 GHz Xeon core:
# - Laplace work: the one pass of quadrics._int_minors, 0.17-0.29 us per
#   multiply-add.  An entry printed (1.5 us) weighs _CHOW_ENTRY_WORK more and
#   an entry read (4.7 us) three times that, for k = 1 and k = 2 at large n.
# - Limit: --limit-toward takes the pass at most k + 1 times (exact._kronecker).
# - Entry size: the square of the 64-bit words of the largest numerator or
#   denominator of a square form as it is parsed, before its lcm is taken,
#   then scaled by the joint lcm.  n = 8 with k = 4 takes 0.025 s at 4 bits,
#   0.62 s at 1024 and 2.3 s at 2048 bits.
# - Budget: the most work of any shape the earlier caps admitted (n <= 10,
#   126 rows, 64 bits): n = 10, k = 9, 64 bits and the limit, 0.68-1.34 s.
#   Slowest admitted since: n = 10, k = 4 alike, 0.93-1.08 s.
# - Printed size: Hadamard's bound, times 2^k for a pencil and 2 for a support
#   coefficient, is k (b + bit_length(k)) + 1 bits, b those of the scaled
#   entries or their lcm; over MAX_INT_BITS is rejected.
MAX_CHOW_WORK = 3_117_070
_CHOW_ENTRY_WORK = 10

# Largest n `cq canonical --n` and a JSON divisor or curve class accept; larger
# n is rejected with exit 2.  It bounds input size only: picard.convert is O(n),
# and `cq canonical --n 100 --basis E` takes 0.06-0.08 s as a whole command on
# one 2.1 GHz Xeon core, 0.002 s of it converting.
MAX_LATTICE_N = 100

# `cq schubert --power m` charges each Pieri step of sigma1^m its predicted work
# and refuses with exit 2, before it runs, the step that would pass
# MAX_SCHUBERT_WORK.  Each partition a step reads or writes costs its parts and
# _SCHUBERT_TERM_WORK: a step reads each term of its class and writes it grown at
# each addable corner (the first row of a run of equal parts narrower than the
# box, and a new row if there is room); printing the class costs six reads.  Each
# step and the printing cost 16 weights more, G(k,n) k + 1 up front, and an m
# whose m - 1 steps cannot fit is refused before the first.  The budget is the
# most work of sigma1^m, m <= 100, on any G(k,n) with at most 100,000 Schubert
# classes, all admitted by the earlier caps: sigma1^100 on G(22,27), 0.5-0.7 s
# on one 2.1 GHz Xeon core.
MAX_SCHUBERT_WORK = 21_647_952
_SCHUBERT_TERM_WORK = 24

# Integers `cq chow` prints (their predicted size, above) and the class
# coefficients `cq schubert` prints have at most MAX_INT_BITS bits, the 4300
# digits Python prints; larger ones are rejected with exit 2.
MAX_INT_BITS = 14_284

def _emit(command: str, **fields) -> None:
    out = {"schema": SCHEMA, "command": command, **fields}
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=2) + "\n")


# what json.loads can return, named for error messages
_JSON_KIND = {dict: "an object", list: "a list", str: "a string", int: "a number",
              float: "a number", bool: "a boolean", type(None): "null"}


def _load_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _check_types(data: dict) -> dict:
    # a field of another JSON type would meet a TypeError in the class
    # constructors, which main does not report as unusable input
    for key, kind, what in (("basis", str, "a string"), ("coeffs", list, "a list"),
                            ("matrix", list, "a list"), ("n", int, "an integer")):
        if key in data and type(data[key]) is not kind:
            raise ValueError('"%s" must be %s, not %s' % (key, what, _JSON_KIND[type(data[key])]))
    if not all(isinstance(row, list) for row in data.get("matrix", ())):
        raise ValueError('"matrix" must be a list of lists')
    # a nested entry would reach the error message whole
    entries = itertools.chain(data.get("coeffs", ()), *data.get("matrix", ()))
    if any(isinstance(x, (list, dict)) for x in entries):
        raise ValueError("matrix and coefficient entries must be numbers or strings")
    return data


def _check_lattice_n(n: int) -> None:
    if n > MAX_LATTICE_N:
        raise ValueError("n is at most %d (got %d)" % (MAX_LATTICE_N, n))


def _parse_divisor(text: str) -> DivisorClass:
    data = _load_json(text)
    if not isinstance(data, dict) or "coeffs" not in data or "basis" not in data:
        raise ValueError('divisor JSON needs "basis" and "coeffs"')
    data.setdefault("n", len(_check_types(data)["coeffs"]))
    _check_lattice_n(data["n"])
    return DivisorClass.from_json(data)


def _parse_curve(text: str) -> CurveClass:
    data = _load_json(text)
    if not isinstance(data, dict) or "coeffs" not in data or "n" not in data:
        raise ValueError('curve JSON needs "n" and "coeffs"')
    _check_lattice_n(_check_types(data)["n"])
    return CurveClass.from_json(data)


# -- chow ----------------------------------------------------------------------


def _chow_work(n: int, k: int, bits: int, limit: bool) -> int:
    # the predicted work of MAX_CHOW_WORK's paragraph, for 1 <= k <= n + 1
    size, rows = n + 1, math.comb(n + 1, k)
    laplace = sum(j * math.comb(size - k + j, j) * math.comb(size, j) for j in range(2, k))
    laplace += k * rows * (rows + 1) // 2
    entries = rows * rows + 3 * size * size * (1 + limit)
    words = max(1, -(-bits // 64))
    return (laplace * (k + 1 if limit else 1) + _CHOW_ENTRY_WORK * entries) * words * words


def _check_chow_work(n: int, k: int, bits: int, limit: bool) -> None:
    if not 1 <= k <= n + 1:
        raise ValueError("chow --k is at least 1 and at most n + 1 = %d (got %d)" % (n + 1, k))
    work = _chow_work(n, k, bits, limit)
    if work > MAX_CHOW_WORK:
        raise ValueError("chow --k %d on n = %d with %d-bit entries%s predicts %d units of work, "
                         "over the budget of %d" % (k, n, bits, " and --limit-toward" * limit,
                                                    work, MAX_CHOW_WORK))


def _entry_bits(x) -> int:
    # the bits of the larger of |numerator| and denominator of one form
    # entry, raw or parsed; an int, or a string int() reads, is sized
    # without parse_rat
    if type(x) is str:
        try:
            x = int(x)
        except ValueError:
            pass
    if type(x) is not int:
        x = parse_rat(x)
    return max(abs(x.numerator), x.denominator).bit_length()


def _form_data(text: str) -> dict:
    data = _load_json(text)
    if isinstance(data, list):
        data = {"matrix": data}
    if not isinstance(data, dict) or "matrix" not in data:
        raise ValueError("form JSON must be a matrix or {n, matrix}")
    rows = _check_types(data)["matrix"]
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("quadric matrix must be square and nonempty")
    return data


def _parse_form(data: dict, k: int, limit: bool) -> SymmetricForm:
    rows = data["matrix"]
    n = len(rows) - 1
    if not 1 <= k <= n + 1 or _chow_work(n, k, 1, limit) > MAX_CHOW_WORK:
        # refused at every entry size, so refused before the entries are
        # parsed, with the message the parsed form would get
        _check_chow_work(n, k, max(map(_entry_bits, itertools.chain(*rows))), limit)
    matrix = data["matrix"] = [[parse_rat(x) for x in row] for row in rows]
    # bounded before the constructor takes the lcm of the denominators
    _check_chow_work(n, k, max(map(_entry_bits, itertools.chain(*matrix))), limit)
    return SymmetricForm.from_json(data)


def cmd_chow(args) -> int:
    limit = args.limit_toward is not None
    shapes = [_form_data(text) for text in (args.form, args.limit_toward) if text is not None]
    # compared before --k is checked against either size
    if len({len(data["matrix"]) for data in shapes}) > 1:
        raise ValueError("forms must share an ambient space")
    forms = [_parse_form(data, args.k, limit) for data in shapes]
    # the forms scaled by the lcm of all their denominators, the joint lcm
    scale = math.lcm(*[q.den for q in forms])
    bits = max(max(map(abs, itertools.chain(*q.ints))) * (scale // q.den) for q in forms).bit_length()
    _check_chow_work(forms[0].n, args.k, bits, limit)
    printed = args.k * (max(bits, scale.bit_length()) + args.k.bit_length()) + 1
    if printed > MAX_INT_BITS:
        raise ValueError("chow --k %d with %d-bit entries and a %d-bit lcm prints integers of up to "
                         "%d bits, at most %d" % (args.k, bits, scale.bit_length(), printed,
                                                  MAX_INT_BITS))
    if limit:
        pt = chowform.chow_limit(*forms, args.k)
        support = chowform.limit_support_coefficients(pt)
        _emit(
            "chow-limit",
            k=args.k,
            point=[format_rat(c) for c in pt.coords],
            support={"%d,%d" % ij: format_rat(v) for ij, v in sorted(support.items())},
        )
        return 0
    m = quadrics.compound(forms[0], args.k)
    _emit(
        "chow-compound",
        k=args.k,
        indexing="rows and columns are the size-k subsets of {0..n} in lexicographic order",
        matrix=[[format_rat(e) for e in row] for row in m.rows],
    )
    return 0


# -- pencil --------------------------------------------------------------------


def cmd_pencil(args) -> int:
    if args.verify_table:
        entries = [
            {"entry": label, "count": count, "pairing": int(pairing), "ok": count == pairing}
            for label, count, pairing in sorted(verify.direct_count_entries(args.seed))
        ]
        all_ok = all(e["ok"] for e in entries)
        _emit("pencil-verify-table", seed=args.seed, entries=entries, all_ok=all_ok)
        return 0 if all_ok else 1
    if args.n is None or args.k is None:
        raise ValueError("pencil needs --n and --k (or --verify-table)")
    if args.n - args.k > MAX_PENCIL_M:
        raise ValueError("pencil --n %d --k %d draws on P^%d, at most P^%d"
                         % (args.n, args.k, args.n - args.k, MAX_PENCIL_M))
    count = pencils.count_degenerations(pencils.marking_pencil(args.n, args.k, args.seed))
    if count.distinct != count.total:
        # a general pencil meets the discriminant transversally
        sys.stderr.write("error: the pencil of seed %d is not transversal: %d singular members "
                         "with multiplicity, %d distinct\n" % (args.seed, count.total, count.distinct))
        return 1
    _emit("pencil-count", n=args.n, k=args.k, seed=args.seed, degenerations=count.distinct)
    return 0


# -- lattice commands ----------------------------------------------------------


def cmd_cone(args) -> int:
    d = _parse_divisor(args.divisor)
    res = picard.cone_membership(d, args.cone)
    _emit("cone", cone=args.cone, divisor=d.to_json(), contains=res.contains, interior=res.interior)
    return 0


def cmd_canonical(args) -> int:
    _check_lattice_n(args.n)
    k = picard.convert(picard.canonical(args.n, args.method), args.basis)
    _emit("canonical", method=args.method, divisor=k.to_json())
    return 0


def cmd_pair(args) -> int:
    curves = picard.curves_x3()
    display_to_key = {v: k for k, v in picard.CURVE_DISPLAY.items()}
    name = args.curve
    if name in curves:
        c = curves[name]
    elif name in display_to_key:
        c = curves[display_to_key[name]]
    else:
        c = _parse_curve(name)
    d = _parse_divisor(args.divisor)
    _emit("pair", curve=c.to_json(), divisor=d.to_json(), value=format_rat(picard.pair(c, d)))
    return 0


def cmd_table(args) -> int:
    rows = picard.table_x3()
    cols = ["H1", "H2", "H3", "E1", "E2", "E3"]
    if args.text:
        names = [picard.CURVE_DISPLAY[r.curve] for r in rows]
        width = max(len(s) for s in names) + 2
        out = ["".ljust(width) + "".join(c.rjust(5) for c in cols) + "   covers"]
        for r, name in zip(rows, names):
            line = name.ljust(width)
            line += "".join(str(int(e)).rjust(5) for e in r.entries)
            line += "   " + r.cover
            out.append(line)
        sys.stdout.write("\n".join(out) + "\n")
        return 0
    _emit(
        "table",
        columns=cols,
        rows=[
            {
                "curve": picard.CURVE_DISPLAY[r.curve],
                "entries": [int(e) for e in r.entries],
                "covers": r.cover,
            }
            for r in rows
        ],
    )
    return 0


# -- chamber -------------------------------------------------------------------


def cmd_chamber(args) -> int:
    if args.census:
        try:
            res = chambers.face_census()
        except (AssertionError, RuntimeError) as exc:
            # a census check failed: the verification ran, exit 1
            sys.stderr.write("error: %s\n" % exc)
            return 1
        _emit("chamber-census", **res)
        return 0
    if args.segment is not None:
        t = parse_rat(args.segment)
        report = chambers.classify_segment(t)
        _emit("chamber-segment", t=format_rat(t), **report.to_json())
        return 0
    if args.divisor is None:
        raise ValueError("chamber needs one of --divisor, --census, --segment")
    report = chambers.classify(_parse_divisor(args.divisor))
    _emit("chamber", **report.to_json())
    return 0


# -- schubert ------------------------------------------------------------------


def _check_schubert_work(k: int, n: int, work: int) -> None:
    if work > MAX_SCHUBERT_WORK:
        raise ValueError("sigma1^m on G(%d,%d) takes at most %d units of work"
                         % (k, n, MAX_SCHUBERT_WORK))


def cmd_schubert(args) -> int:
    try:
        k, n = (int(p) for p in args.grassmannian.split(","))
    except ValueError:
        raise ValueError('--grassmannian expects "k,n"')
    value = schubert.sigma(k, n, 1)  # raises unless 0 <= k < n
    rows, cols, m, w = k + 1, n - k, args.power, _SCHUBERT_TERM_WORK
    work = rows + 16 * w
    _check_schubert_work(k, n, work)
    if m < 1:
        raise ValueError("class powers need a positive exponent")
    _check_schubert_work(k, n, work + (m - 1) * 16 * w)
    for _ in range(m - 1):
        # each term is read, and written grown at each addable corner
        work += 16 * w + sum((len(p) + w) * (len(set(p)) - (p[:1] == (cols,)) + (len(p) < rows) + 1)
                             for p, _ in value._terms)
        _check_schubert_work(k, n, work)
        value = schubert.pieri1(value)
    # a coefficient of sigma1^(j+1) sums those of sigma1^j below it, so the
    # last class holds the largest, unless it is zero past the point class
    if max((c for _, c in value._terms), default=0).bit_length() > MAX_INT_BITS:
        raise ValueError("class coefficients have at most %d bits" % MAX_INT_BITS)
    _check_schubert_work(k, n, work + 16 * w + 6 * sum(len(p) + w for p, _ in value._terms))
    out = {"grassmannian": "G(%d,%d)" % (k, n), "expr": "sigma1^%d" % m}
    if m == rows * cols:
        # top codimension: report the multiple of the point class
        out["value"] = value.coefficient(tuple([cols] * rows))
        out["interpreted_as"] = "multiple of the point class"
    else:
        out["class"] = value.to_json()
    _emit("schubert", **out)
    return 0


# -- verify-all ----------------------------------------------------------------


def cmd_verify_all(args) -> int:
    results = verify.run_all(seed=args.seed, quick=args.quick)
    failed = [r for r in results if not r.passed]
    if args.json:
        _emit(
            "verify-all",
            seed=args.seed,
            quick=args.quick,
            checks=[r.to_json() for r in results],
            all_passed=not failed,
        )
    else:
        for r in results:
            sys.stdout.write("%s %s: %s\n" % ("PASS" if r.passed else "FAIL", r.name, r.statement))
            if r.details:
                sys.stdout.write("     %s\n" % r.details)
        sys.stdout.write(
            "%d checks: %d passed, %d failed\n" % (len(results), len(results) - len(failed), len(failed))
        )
    return 1 if failed else 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cq",
        description="Exact computations on spaces of complete quadrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("chow", help="compound matrices and limit Chow forms")
    p.add_argument("--form", required=True,
                   help="symmetric form as JSON; with --k, at most %d units of predicted work"
                   % MAX_CHOW_WORK)
    p.add_argument("--k", type=int, required=True, help="minor size, 1 to n+1")
    p.add_argument("--limit-toward", help="second form: compute the pencil limit")
    p.set_defaults(func=cmd_chow)

    p = sub.add_parser("pencil", help="degeneration counts in pencils")
    p.add_argument("--n", type=int, help="ambient projective dimension; the pencil lies on "
                   "P^(n-k), n-k at most %d" % MAX_PENCIL_M)
    p.add_argument("--k", type=int, help="boundary index")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verify-table", action="store_true",
                   help="recount the curve-divisor table entries by pencils")
    p.set_defaults(func=cmd_pencil)

    p = sub.add_parser("cone", help="cone membership for a divisor class")
    p.add_argument("--divisor", required=True, help="divisor class as JSON")
    p.add_argument("--cone", choices=("nef", "eff", "mov"), required=True)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("canonical", help="canonical class of the n-th space")
    p.add_argument("--n", type=int, required=True, help="at most %d" % MAX_LATTICE_N)
    p.add_argument("--basis", choices=("H", "mixed", "E"), default="H")
    p.add_argument("--method", choices=("nefbasis", "blowup"), default="nefbasis")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("pair", help="intersection number of a curve and a divisor")
    p.add_argument("--curve", required=True, help="curve name (n=3) or JSON")
    p.add_argument("--divisor", required=True, help="divisor class as JSON")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("table", help="the 8 x 6 intersection table on the n=3 space")
    p.add_argument("--text", action="store_true", help="aligned text instead of JSON")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("chamber", help="effective-cone chamber of a divisor class")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--divisor", help="divisor class as JSON")
    g.add_argument("--census", action="store_true",
                   help="check the partition on one class of every face of the chamber planes")
    g.add_argument("--segment", help="parameter t on the segment t*H1 + (1-t)*H3")
    p.set_defaults(func=cmd_chamber)

    p = sub.add_parser("schubert", help="the class sigma1^m on a Grassmannian")
    p.add_argument("--grassmannian", required=True,
                   help='"k,n" for G(k,n), 0 <= k < n; its k + 1 rows count toward the work')
    p.add_argument("--power", type=int, required=True,
                   help="the exponent m >= 1; at most %d units of predicted work, the parts "
                   "and a weight of each partition its Pieri steps read or write"
                   % MAX_SCHUBERT_WORK)
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("verify-all", help="run every bundled verification check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quick", action="store_true", help="smaller sample sizes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, ExactLinalgError, KeyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
