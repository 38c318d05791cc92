"""Problem generator: deterministic problem files for the benchmark.

Every problem is one CLI command on one generated problem file.  A
problem is named ``<family>/<index>``; its file text depends only on
that name, so a pool index always yields byte-identical files and the
golden stdout hashes in ``golden.json`` stay valid.  A workload seed picks
the pool indices and CLI seeds of the workload's problem list (see
``workload_plan``).
"""

from __future__ import annotations

import itertools
import random


def _monomials(names, degree):
    """Exponent tuples of total degree ``degree`` in ``names``, fixed order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(len(names)),
                                                         degree):
        exp = [0] * len(names)
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return out


def _term(coeff, names, exp):
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exp) if e]
    mono = "*".join(factors)
    if not mono:
        return str(coeff)
    if coeff == 1:
        return mono
    if coeff == -1:
        return "-" + mono
    return f"{coeff}*{mono}"


def poly_text(terms):
    """``terms``: list of (coeff, names, exp); zero coefficients dropped."""
    parts = [_term(c, names, exp) for c, names, exp in terms if c]
    if not parts:
        raise ValueError("empty polynomial")
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


def _nonzero(rng, bound):
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    return c


def random_form(rng, names, degree, bound):
    """Dense form with nonzero coefficients in [-bound, bound]."""
    return poly_text([(_nonzero(rng, bound), names, e)
                      for e in _monomials(names, degree)])


def random_biform(rng, xs, ys, dx, dy, bound):
    """Dense bihomogeneous form of bidegree (dx, dy)."""
    terms = []
    for ex in _monomials(xs, dx):
        for ey in _monomials(ys, dy):
            terms.append((_nonzero(rng, bound), xs + ys, ex + ey))
    return poly_text(terms)


def _ring(names):
    return "ring " + " ".join(names)


X3 = ("x0", "x1", "x2")
X4 = ("x0", "x1", "x2", "x3")
P1X = ("x0", "x1")
P1Y = ("y0", "y1")
P2X = ("x0", "x1", "x2")
P2Y = ("y0", "y1", "y2")


def _doc(*lines):
    return "\n".join(lines) + "\n"


# --- projective families -------------------------------------------------

def plane_curve(degree, bound=3):
    def make(rng):
        return _doc(_ring(X3), "poly " + random_form(rng, X3, degree, bound),
                    "dim 1")
    return make


def line_meet(degree, bound=3):
    """Line in P^3 cut with a random surface of ``degree``: a space curve."""
    def make(rng):
        return _doc(_ring(X4), "poly " + random_form(rng, X4, 1, bound),
                    "poly " + random_form(rng, X4, degree, bound), "dim 1")
    return make


def quadric_surface(bound=3):
    def make(rng):
        return _doc(_ring(X4), "poly " + random_form(rng, X4, 2, bound),
                    "dim 2")
    return make


def redundant_line(bound=3):
    """A line in P^3 given by three linear forms spanning a 2-space."""
    def make(rng):
        l1 = [_nonzero(rng, bound) for _ in X4]
        l2 = [_nonzero(rng, bound) for _ in X4]
        a, b = _nonzero(rng, 2), _nonzero(rng, 2)
        l3 = [a * u + b * v for u, v in zip(l1, l2)]
        lines = [_ring(X4)]
        for coeffs in (l1, l2, l3):
            lines.append("poly " + poly_text(
                [(c, X4, tuple(int(i == j) for j in range(4)))
                 for i, c in enumerate(coeffs)]))
        lines.append("dim 1")
        return _doc(*lines)
    return make


def conic_times_vars(bound=3):
    """The plane conic Q given redundantly as {Q*x0, Q*x1, Q*x2}."""
    def make(rng):
        q = random_form(rng, X3, 2, bound)
        lines = [_ring(X3)] + [f"poly ({q})*{x}" for x in X3] + ["dim 1"]
        return _doc(*lines)
    return make


def symbolic_binary_resultant(da, db, bound=5):
    """Resultant of two binary forms whose coefficients are parameters
    a_i, b_j, each scaled by a random nonzero integer."""
    def make(rng):
        a = [f"a{i}" for i in range(da + 1)]
        b = [f"b{j}" for j in range(db + 1)]

        def form(params, d):
            terms = []
            for i, p in enumerate(params):
                c = _nonzero(rng, bound)
                x = _term(1, P1X, (d - i, i))
                terms.append(f"{c}*{p}" + ("" if x == "1" else f"*{x}"))
            return " + ".join(terms).replace("+ -", "- ")
        return _doc(_ring(P1X + tuple(a) + tuple(b)),
                    "blocks (x0 x1)(" + " ".join(a + b) + ")",
                    "poly " + form(a, da), "poly " + form(b, db))
    return make


def symbolic_det(k, bound=3):
    """k x k matrix of random linear forms in three variables."""
    def make(rng):
        names = ("p", "q", "r")
        lines = [_ring(names)]
        for _ in range(k * k):
            lines.append("poly " + random_form(rng, names, 1, bound))
        return _doc(*lines)
    return make


# --- multiprojective families --------------------------------------------

def p1p1_curve(dx, dy, bound=3):
    """Curve of bidegree (dx, dy) in P^1 x P^1."""
    def make(rng):
        return _doc(_ring(P1X + P1Y), "blocks (x0 x1)(y0 y1)",
                    "poly " + random_biform(rng, P1X, P1Y, dx, dy, bound),
                    "dim 1", "format 0 0")
    return make


def p2p2_bilinear(count, bound=3):
    """P^2 x P^2 cut by ``count`` random bilinear forms."""
    def make(rng):
        lines = [_ring(P2X + P2Y), "blocks (x0 x1 x2)(y0 y1 y2)"]
        for _ in range(count):
            lines.append("poly " + random_biform(rng, P2X, P2Y, 1, 1, bound))
        lines.append(f"dim {4 - count}")
        lines.append("format 0 0" if count == 1 else "format 1 0")
        return _doc(*lines)
    return make


P1P1_BIDEGREES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3))

# family name -> (CLI command, generators of the problem text).  Pool index
# i of a family uses generator i % len(generators).
FAMILIES = {
    # proj-small
    "conic-ci": ("chow-ci", (plane_curve(2),)),
    "cubic-ci": ("chow-ci", (plane_curve(3),)),
    "line-quadric-ci": ("chow-ci", (line_meet(2),)),
    "conic-hurwitz": ("hurwitz", (plane_curve(2),)),
    "line-general": ("chow", (redundant_line(),)),
    "conic-general": ("chow", (conic_times_vars(),)),
    "res-2-2": ("resultant", (symbolic_binary_resultant(2, 2),)),
    "res-2-3": ("resultant", (symbolic_binary_resultant(2, 3),)),
    "res-3-3": ("resultant", (symbolic_binary_resultant(3, 3),)),
    "res-3-4": ("resultant", (symbolic_binary_resultant(3, 4),)),
    "res-4-4": ("resultant", (symbolic_binary_resultant(4, 4),)),
    "det-3": ("det", (symbolic_det(3),)),
    "det-4": ("det", (symbolic_det(4),)),
    "det-5": ("det", (symbolic_det(5),)),
    "det-6": ("det", (symbolic_det(6),)),
    # proj-large
    "quartic-ci": ("chow-ci", (plane_curve(4),)),
    "quintic-ci": ("chow-ci", (plane_curve(5),)),
    "quadric-surface-ci": ("chow-ci", (quadric_surface(),)),
    "line-cubic-ci": ("chow-ci", (line_meet(3),)),
    # multigraded
    **{f"p1p1-{cmd}": (cmd, tuple(p1p1_curve(dx, dy)
                                  for dx, dy in P1P1_BIDEGREES))
       for cmd in ("support", "formats", "multichow")},
    **{f"p2p2-{c}-{cmd}": (cmd, (p2p2_bilinear(c),))
       for c in (1, 2) for cmd in ("support", "formats", "multichow")},
}

POOL = 8  # pool indices per generator that have golden hashes


def pool_size(family):
    return POOL * len(FAMILIES[family][1])


def problem_text(family, index):
    """File text of pool problem ``family/index``; depends on nothing else."""
    makers = FAMILIES[family][1]
    make = makers[index % len(makers)]
    return make(random.Random(f"chowforms-bench/{family}/{index}"))


# workload -> (family, solves) in the workload's problem list.  Solve k of a
# family takes pool problem k mod the pool size, so the list holds the same
# problems for every workload seed; the seed only picks each solve's CLI
# seed and the order (see ``workload_plan``).  Counts are chosen so that,
# over all solves of all passes, the median and the tail percentile (10
# solves beyond it) each fall inside one family's block of solve times,
# away from the jump to the next family.
WORKLOADS = {
    # median: conic-hurwitz; tail: conic-general, below the one res-4-4
    "proj-small": (
        ("res-2-2", 4), ("res-2-3", 4), ("res-3-3", 5), ("res-3-4", 6),
        ("res-4-4", 1), ("det-3", 4), ("det-4", 4), ("det-5", 5),
        ("det-6", 5), ("conic-ci", 10), ("cubic-ci", 12),
        ("line-quadric-ci", 12), ("conic-hurwitz", 30), ("line-general", 10),
        ("conic-general", 14)),
    # median: quartic-ci; tail: quadric-surface-ci, below the quintics and
    # the line-cubic curve
    "proj-large": (
        ("quartic-ci", 12), ("quadric-surface-ci", 5), ("quintic-ci", 2),
        ("line-cubic-ci", 1)),
    # median and tail: the block of p1p1 formats, p2p2-1 multichow and
    # p2p2-2 support (0.15-0.6 s)
    "multigraded": (
        ("p1p1-support", 4), ("p2p2-1-support", 3), ("p1p1-multichow", 5),
        ("p1p1-formats", 6), ("p2p2-1-multichow", 6), ("p2p2-2-support", 6),
        ("p2p2-2-multichow", 2), ("p2p2-1-formats", 1)),
}

# Passes over the problem list per run, each in a fresh process.  With the
# lists above they take about 30 s on the reference machine.
PASSES = {"proj-small": 3, "proj-large": 2, "multigraded": 2}

# Known defects kept in every list with the CLI seed that shows them:
# workload -> (family, pool index, CLI seed).  They count in ``ok_ratio``
# but not in the throughput and latency metrics (see ``run.e2e_metrics``).
# ``formats`` on P^2 x P^2 cut by two bilinear forms exits 3 ("no two
# liftings agreed") for CLI seeds 1 and 5 of 1-6 on pool indices 0-2 at the
# commit that added this benchmark; ``chow`` on line-general/1 exits 2
# ("generic_lc failed after 3 attempts") for CLI seed 744342.
PINNED = {
    "proj-small": (("line-general", 1, 744342),),
    "multigraded": (("p2p2-2-formats", 0, 1),),
}

# workloads that call scipy.optimize (imported lazily by the program)
NEEDS_LP = {"multigraded"}


def workload_plan(workload, seed):
    """The workload's problem list for ``seed``: a shuffled list of
    (family, pool index, CLI seed); the same arguments give the same list."""
    rng = random.Random(f"chowforms-bench/{workload}/{seed}")
    solves = [(fam, k % pool_size(fam), rng.randrange(1, 10 ** 6))
              for fam, count in WORKLOADS[workload] for k in range(count)]
    solves += list(PINNED.get(workload, ()))
    rng.shuffle(solves)
    return solves
