"""Per-layer tracing from outside the program.

``Tracer.install()`` rebinds module-level functions of chowforms (and
``scipy.optimize.linprog``) to timing wrappers, in every module that holds
a reference to them; ``Tracer.restore()`` puts the originals back.  Each
wrapped call records a span (solve id, start, end, parent span) in memory.
Hot leaf functions do not get spans of their own: their calls and time
are added up on the enclosing span.  Recursive calls of one function
(``gcd`` calling ``gcd``) are counted once, at the outermost call.

``Tracer.metrics()`` turns the spans into the per-layer metrics, named
``<module>.<function>.<stat>``.  ``ops`` and ``in_bits`` of
``det_integer`` are computed from the matrix dimension and the entry bit
lengths, not measured.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, attribute, layer name, hot leaf?).  An attribute "A.b" is the
# method b of class A; the class itself is patched, so every caller sees it.
TARGETS = (
    ("chowforms.cli", "parse_problem", "cli.parse_problem", False),
    ("chowforms.mpoly", "MPoly.evaluate", "mpoly.evaluate", True),
    ("chowforms.mpoly", "MPoly.__mul__", "mpoly.mul", True),
    ("chowforms.mpoly", "divexact", "mpoly.divexact", True),
    ("chowforms.mpoly", "gcd", "mpoly.gcd", False),
    ("chowforms.mpoly", "_heu_gcd", "mpoly.heu_gcd", False),
    ("chowforms.mpoly", "square_free_part", "mpoly.square_free_part", False),
    ("chowforms.polydet", "det_integer", "polydet.det_integer", True),
    ("chowforms.polydet", "det_bareiss", "polydet.det_bareiss", False),
    ("chowforms.resultant", "gcp_block_interpolation",
     "resultant.gcp_block_interpolation", False),
    ("chowforms.resultant", "gcp_resultant", "resultant.gcp_resultant", False),
    ("chowforms.resultant", "_newton_assemble", "resultant.newton_assemble",
     False),
    ("chowforms.mixedres", "resultant_multihomogeneous_interp",
     "mixedres.resultant_multihomogeneous_interp", False),
    ("chowforms.mixedres", "_build_matrix", "mixedres.build_matrix", False),
    ("scipy.optimize", "linprog", "mixedres.linprog", False),
    ("chowforms.dimension", "dim_leq", "dimension.dim_leq", False),
    ("chowforms.dimension", "affine_solvable", "dimension.affine_solvable",
     False),
    ("chowforms.dimension", "dim_projection", "dimension.dim_projection",
     False),
    ("chowforms.chow", "generic_lc", "chow.generic_lc", False),
    ("chowforms.chow", "chow_form_ci", "chow.chow_form_ci", False),
    ("chowforms.hurwitz", "discriminant_via_partials",
     "hurwitz.discriminant_via_partials", False),
    ("chowforms.multiproj", "dim_table", "multiproj.dim_table", False),
    ("chowforms.multiproj", "multidegree", "multiproj.multidegree", False),
    ("chowforms.multiproj", "multi_chow_form_ci",
     "multiproj.multi_chow_form_ci", False),
)

# layer name -> stats reported for it, in output order
REPORT = {
    "cli.parse_problem": ("s",),
    "mpoly.evaluate": ("calls", "s"),
    "mpoly.mul": ("calls", "s"),
    "mpoly.divexact": ("calls", "s"),
    "mpoly.gcd": ("calls", "s", "heuristic_miss_ratio"),
    "mpoly.square_free_part": ("calls", "s"),
    "polydet.det_integer": ("calls", "s", "ops", "in_bits"),
    "polydet.det_bareiss": ("calls", "s"),
    "resultant.gcp_block_interpolation": ("calls", "s", "self_s"),
    "resultant.gcp_resultant": ("calls", "s"),
    "resultant.newton_assemble": ("s",),
    "mixedres.resultant_multihomogeneous_interp": ("calls", "s", "self_s"),
    "mixedres.build_matrix": ("calls", "s", "fail_ratio"),
    "mixedres.linprog": ("calls", "s"),
    "dimension.dim_leq": ("calls", "s"),
    "dimension.affine_solvable": ("calls", "s"),
    "dimension.dim_projection": ("s",),
    "chow.generic_lc": ("s",),
    "chow.chow_form_ci": ("calls", "s"),
    "hurwitz.discriminant_via_partials": ("s",),
    "multiproj.dim_table": ("s",),
    "multiproj.multidegree": ("calls", "s"),
    "multiproj.multi_chow_form_ci": ("s",),
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "fail_ratio": "ratio",
         "heuristic_miss_ratio": "ratio", "ops": "ops-computed",
         "in_bits": "bits-computed"}


def metric_units():
    """Every per-layer metric name with its unit, in output order."""
    out = {f"{layer}.{stat}": UNITS[stat]
           for layer, stats in REPORT.items() for stat in stats}
    out["trace.overhead_ratio"] = "ratio"
    return out


def bareiss_ops(m):
    """Inner updates of fraction-free elimination on an m x m matrix: step
    k updates (m-1-k)^2 entries, each two products, a difference and an
    exact division."""
    return (m - 1) * m * (2 * m - 1) // 6


class Span:
    __slots__ = ("id", "parent", "solve", "layer", "start", "end", "hot",
                 "failed", "bookkeeping")

    def __init__(self, id, parent, solve, layer, start):
        self.id = id
        self.parent = parent
        self.solve = solve
        self.layer = layer
        self.start = start
        self.end = None
        # hot layer -> [calls, seconds of its outermost calls, seconds not
        # already inside another hot call]
        self.hot = {}
        self.failed = False
        # seconds the tracer itself spent inside this span, outside any hot
        # call (computing det_integer's ops and in_bits)
        self.bookkeeping = 0.0


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []          # open spans
        self.active = {}         # layer -> nesting depth (recursion guard)
        self.hot_depth = 0
        self.solve = None
        self.counts = {"mpoly.heu_gcd.miss": 0, "polydet.det_integer.ops": 0,
                       "polydet.det_integer.in_bits": 0}
        self._saved = []         # (owner, attribute, original)

    @contextlib.contextmanager
    def solve_span(self, solve_id):
        """Root span of one solve; every wrapped call nests inside it."""
        self.solve = solve_id
        span = Span(len(self.spans), None, solve_id, "solve",
                    time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer, hot):
        tracer = self
        clock = time.perf_counter

        if hot:
            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                outer = tracer.hot_depth == 0
                if layer == "polydet.det_integer":
                    c0 = clock()
                    tracer._det_counts(args[0])
                    if outer and tracer.stack:
                        tracer.stack[-1].bookkeeping += clock() - c0
                nested = tracer.active.get(layer, 0)
                tracer.active[layer] = nested + 1
                tracer.hot_depth += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    tracer.hot_depth -= 1
                    tracer.active[layer] = nested
                    top = tracer.stack[-1] if tracer.stack else None
                    if top is not None:
                        acc = top.hot.setdefault(layer, [0, 0.0, 0.0])
                        acc[0] += 1
                        if not nested:
                            acc[1] += dt
                        if outer:
                            acc[2] += dt
            return hot_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer.active.get(layer, 0)
            if nested or tracer.hot_depth:
                # Recursive call, or a call from inside a hot leaf: part of
                # the enclosing span.
                tracer.active[layer] = nested + 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.active[layer] = nested
            parent = tracer.stack[-1].id if tracer.stack else None
            span = Span(len(tracer.spans), parent, tracer.solve, layer,
                        clock())
            tracer.spans.append(span)
            tracer.stack.append(span)
            tracer.active[layer] = 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                tracer.active[layer] = 0
                tracer.stack.pop()
            if layer == "mpoly.heu_gcd" and result is None:
                tracer.counts["mpoly.heu_gcd.miss"] += 1
            return result
        return wrapper

    def _det_counts(self, rows):
        m = len(rows)
        self.counts["polydet.det_integer.ops"] += bareiss_ops(m)
        self.counts["polydet.det_integer.in_bits"] += sum(
            abs(v).bit_length() for row in rows for v in row)

    def install(self):
        """Rebind every target in every loaded module that refers to it."""
        import chowforms.cli  # noqa: F401  (loads every chowforms module)
        import scipy.optimize  # noqa: F401  (linprog is imported lazily)

        for modname, attr, layer, hot in TARGETS:
            owner = sys.modules[modname]
            name = attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[name]
                wrapped = self._wrap(original, layer, hot)
                self._patch(owner, name, wrapped)
                if name == "__mul__" and owner.__dict__.get("__rmul__") \
                        is original:
                    self._patch(owner, "__rmul__", wrapped)
                continue
            original = getattr(owner, name)
            wrapped = self._wrap(original, layer, hot)
            for mod in list(sys.modules.values()):
                modname2 = getattr(mod, "__name__", "")
                if not (modname2 == modname or
                        modname2.startswith("chowforms")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        """Put every original back, newest patch first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the recorded spans, without
        ``trace.overhead_ratio`` (that needs an untraced pass)."""
        calls = {}
        secs = {}
        self_s = {}
        failed = {}
        children = {}
        for sp in self.spans:
            if sp.parent is not None:
                children[sp.parent] = children.get(sp.parent, 0.0) + \
                    (sp.end - sp.start)
        for sp in self.spans:
            dur = sp.end - sp.start
            calls[sp.layer] = calls.get(sp.layer, 0) + 1
            secs[sp.layer] = secs.get(sp.layer, 0.0) + dur
            covered = children.get(sp.id, 0.0) + sp.bookkeeping
            for layer, (n, s, outer_s) in sp.hot.items():
                calls[layer] = calls.get(layer, 0) + n
                secs[layer] = secs.get(layer, 0.0) + s
                covered += outer_s
            self_s[sp.layer] = self_s.get(sp.layer, 0.0) + dur - covered
            if sp.failed:
                failed[sp.layer] = failed.get(sp.layer, 0) + 1
        out = {}
        for layer, stats in REPORT.items():
            n = calls.get(layer, 0)
            for stat in stats:
                key = f"{layer}.{stat}"
                if stat == "calls":
                    value = n
                elif stat == "s":
                    value = secs.get(layer, 0.0)
                elif stat == "self_s":
                    value = self_s.get(layer, 0.0)
                elif stat == "fail_ratio":
                    value = failed.get(layer, 0) / n if n else 0.0
                elif stat == "heuristic_miss_ratio":
                    tries = calls.get("mpoly.heu_gcd", 0)
                    value = (self.counts["mpoly.heu_gcd.miss"] / tries
                             if tries else 0.0)
                else:
                    value = self.counts[key]
                out[key] = value
        return out

    def dump_spans(self, path):
        """Write the spans as JSON lines, one per span."""
        import json
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.id, "parent": sp.parent, "solve": sp.solve,
                    "layer": sp.layer, "start": sp.start, "end": sp.end,
                    "failed": sp.failed, "bookkeeping": sp.bookkeeping,
                    "hot": {k: {"calls": v[0], "s": v[1]}
                            for k, v in sp.hot.items()}}) + "\n")
