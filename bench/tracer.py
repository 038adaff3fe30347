"""Outside-in call tracer for the completequadrics package.

The tracer wraps every public module-level function of the layer modules,
and any callable a decorator put in a function's place, and rebinds each
name that refers to it, in every module of the package.
Modules import kernels by name (``from .exact import ff_det``), so wrapping
``exact.ff_det`` alone would miss every call made through such an alias.

For each traced function it records calls, calls that raised, total time
and self time, where self time is the span minus the spans of its traced
children.  It also counts calls per (nearest traced caller, callee) edge,
which the benchmark uses for its per-layer ratios.  Nothing inside the
package changes: ``remove`` restores every binding it replaced.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "completequadrics"
LAYERS = ("exact", "quadrics", "picard", "chambers", "pencils", "chowform", "verify")

# the traced functions the benchmark reports, each as .calls and .self_s;
# ff_det is keyed by the ring of its entries
REPORTED = (
    "exact.ff_det.Fraction",
    "exact.ff_det.Poly1",
    "exact.ff_det.MPoly",
    "exact.solve_exact",
    "exact.mat_rank",
    "exact.poly_gcd",
    "exact.mat_mul",
    "quadrics.random_form",
    "quadrics.compound",
    "quadrics.restrict",
    "picard.convert",
    "picard.cone_membership",
    "picard.pair",
    "chambers.classify",
    "chambers.accepting_regions",
    "chambers.forced_base_loci",
    "pencils.pencil_det_form",
    "pencils.count_degenerations",
    "pencils.count_tangencies",
    "chowform.plucker",
    "chowform.chow_eval",
    "chowform.chow_limit",
    "chowform.flag_wedge",
)


def _ring_key(name, args):
    # ff_det runs over Fraction, Poly1 and MPoly; time each ring apart
    m = args[0]
    rows = m.rows if hasattr(m, "rows") else m
    entry = rows[0][0] if rows and rows[0] else None
    ring = "Fraction" if isinstance(entry, int) else type(entry).__name__
    return "%s.%s" % (name, ring)


class Tracer:
    """Records calls, total and self time of the package's public functions."""

    def __init__(self):
        self.stats = {}  # name -> [calls, raised, total_s, self_s]
        self.edges = {}  # (caller or None, callee) -> [calls, returned]
        self._stack = []  # open spans: [name, time spent in traced children]
        self._undo = []  # (namespace owner, attribute, original)

    def _wrap(self, name, fn):
        stats, edges, stack = self.stats, self.edges, self._stack
        keyer = _ring_key if name == "exact.ff_det" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = keyer(name, args) if keyer else name
            caller = stack[-1][0] if stack else None
            span = [key, 0.0]
            stack.append(span)
            returned = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0, 0.0, 0.0]
                st[0] += 1
                st[1] += not returned
                st[2] += dt
                st[3] += dt - span[1]
                edge = edges.get((caller, key))
                if edge is None:
                    edge = edges[(caller, key)] = [0, 0]
                edge[0] += 1
                edge[1] += returned

        return traced

    def install(self):
        """Wrap the public functions and rebind every alias of them.

        Raises RuntimeError, with nothing installed, when a function in
        REPORTED is not found: it would otherwise read 0 calls.
        """
        if self._undo:
            raise RuntimeError("tracer already installed")
        __import__(PACKAGE)
        wrappers = {}  # id of a public function -> (function, wrapper)
        names = set()
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, obj in vars(module).items():
                # functions, and the wrappers that decorators such as
                # functools.cache put in their place
                if (
                    callable(obj)
                    and not isinstance(obj, type)
                    and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    name = "%s.%s" % (layer, attr)
                    names.add(name)
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        missing = sorted({n for n in REPORTED if ".".join(n.split(".")[:2]) not in names})
        if missing:
            raise RuntimeError("reported functions not found: %s" % ", ".join(missing))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, entry[1])
        return self

    def remove(self):
        """Restore every binding that install replaced."""
        while self._undo:
            module, attr, obj = self._undo.pop()
            setattr(module, attr, obj)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
