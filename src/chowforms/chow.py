"""Chow forms of pure-dimensional projective varieties.

The complete-intersection path appends r+1 generic linear u-forms and
eliminates x with the perturbed Macaulay resultant; the general path
reduces to complete intersections by verified random linear combinations
of the defining equations and assembles the answer as a gcd.
"""

from __future__ import annotations

import math
import operator

from .dimension import ProjectiveVariety, RandomGrid, combine, dim_leq
from .errors import UsageError
from .mpoly import MPoly, gcd, square_free_part
from .polydet import rank_integer
from .resultant import MacaulaySystem, gcp_block_interpolation


class Form:
    """Normalized square-free Chow or Hurwitz form; its variable blocks
    are the coefficient blocks of the generic linear forms."""

    def __init__(self, poly):
        self.poly = poly

    @property
    def block_degrees(self):
        return self.poly.block_degrees()

    def __repr__(self):
        return f"Form({self.poly.to_text()})"


def u_block_names(i, n):
    return tuple(f"u{i}{j}" for j in range(n + 1))


def with_linear_forms(polys, xnames, blocks):
    """The polys over their table extended by one block per name tuple of
    ``blocks``, followed by one linear form sum_k blk[k] * xnames[k] per
    block."""
    wide = polys[0].vars
    for blk in blocks:
        wide = wide.extend(blk)
    forms = []
    for blk in blocks:
        U = MPoly.zero(wide)
        for u, x in zip(blk, xnames):
            U = U + MPoly.var(wide, u) * MPoly.var(wide, x)
        forms.append(U)
    return [f.substitute({}, wide) for f in polys] + forms


def degree_equalize(V):
    """V with every lower-degree f replaced by {x_j^(d-deg f) * f}: same
    zero locus, all degrees equal to the maximum."""
    d = max(f.total_degree() for f in V.polys)
    polys = []
    for f in V.polys:
        gap = d - f.total_degree()
        if gap == 0:
            polys.append(f)
        else:
            polys += [f * MPoly.var(V.vars, name, gap) for name in V.vars.names]
    return ProjectiveVariety(V.vars, polys, dim=V.dim)


def chow_form_ci(V, r, grid=None):
    """Chow form of a complete intersection (m = n - r polynomials).

    The u-coefficients enter only through r+1 generic linear forms, so the
    result is homogeneous of degree prod deg(f_i) in every u-block; it is
    recovered by block interpolation of the perturbed elimination, whose
    samples are integer determinant quotients.
    """
    n = V.n
    m = len(V.polys)
    if r < 0:
        raise UsageError("need r >= 0")
    if m != n - r:
        raise UsageError(f"complete intersection needs {n - r} polynomials, "
                         f"got {m}")
    if grid is None:
        grid = RandomGrid(seed=0)
    blocks = [u_block_names(i, n) for i in range(r + 1)]
    sys = MacaulaySystem(with_linear_forms(V.polys, V.vars.names, blocks),
                         V.vars.names)
    D = math.prod(f.total_degree() for f in V.polys)
    R, _ = gcp_block_interpolation(sys, range(m), blocks, [D] * (r + 1), grid,
                                   tag="chow-ci")
    if R.is_zero() or R.is_constant():
        raise UsageError("not a complete intersection of expected dimension: "
                         "the elimination degenerated")
    return Form(square_free_part(R))


def evaluate_on_plane(cf, plane):
    """Value of the Chow form at a concrete (r+1) x (n+1) integer matrix."""
    point = {}
    for i, row in enumerate(plane):
        for j, v in enumerate(row):
            point[f"u{i}{j}"] = v
    return cf.poly.evaluate(point)


def verified_lambdas(polys, x_blocks, r, bound, grid, tag):
    """N = ceil(m/k) verified random k x m combination matrices, each a
    list of rows, k = sum n_i - r for the projective spaces of
    ``x_blocks``.

    Entries are drawn from [1, bound] by ``grid.rng(tag, draw)``.  The k
    combinations of each Lambda must cut a variety of dimension <= r
    (:func:`dimension.dim_leq` on all blocks) and the stack of all of
    them must have full column rank, so the intersection of the
    combination varieties is V(polys) itself.
    A Lambda whose combinations have coefficient rank < k (a vanishing
    combination among them) fails the dimension check for certain: it is
    redrawn without that check and without using up one of
    ``grid.retries`` attempts, up to 8 * ``grid.retries`` draws in all.
    """
    m = len(polys)
    k = sum(len(blk) - 1 for blk in x_blocks) - r
    N = -(-m // k)
    if m == k:
        return [[[int(i == j) for j in range(m)] for i in range(k)]]
    # One column per monomial: the generators' coefficients on it.
    cols = [[f.terms.get(exp, 0) for f in polys]
            for exp in {exp for f in polys for exp in f.terms}]
    last_err = "no attempt made"
    attempts = 0
    for draw in range(8 * grid.retries):
        if attempts == grid.retries:
            break
        rng = grid.rng(tag, draw)
        lambdas = [[[rng.randint(1, bound) for _ in range(m)] for _ in range(k)]
                   for _ in range(N)]
        if any(rank_integer([[sum(map(operator.mul, row, col))
                              for col in cols] for row in lam]) < k
               for lam in lambdas):
            last_err = "a combination matrix has coefficient rank < k"
            continue
        attempts += 1
        stacked = [row for lam in lambdas for row in lam]
        if rank_integer(stacked) < min(m, N * k):
            last_err = "stacked matrix not of full rank"
            continue
        if all(dim_leq(combine(polys, lam), x_blocks, range(len(x_blocks)),
                       r, grid) for lam in lambdas):
            return lambdas
        last_err = "a combination variety has dimension > r"
    raise UsageError(f"{tag}: no verified combination after {attempts} "
                     f"attempts: {last_err}")


def generic_lc(V, r, grid):
    """Verified combination matrices (:func:`verified_lambdas`) whose
    n-r combinations cut varieties of dimension <= r."""
    m = len(V.polys)
    nr = V.n - r
    if r < 0:
        raise UsageError("need r >= 0")
    if nr < 1:
        raise UsageError("need r < n")
    degs = {f.total_degree() for f in V.polys}
    if len(degs) != 1:
        raise UsageError("generic_lc requires equalized degrees")
    d = degs.pop()
    bound = min(-(-m // nr) * nr * d ** max(nr - 1, 0) + m + 1, 2 ** 15)
    return verified_lambdas(V.polys, (V.vars.names,), r, bound, grid, "glc")


def gcd_fold(polys):
    """The gcd of the square-free polys, as a :class:`Form`; it divides
    each of them, so it is square-free too."""
    result = None
    for f in polys:
        result = f if result is None else gcd(result, f)
    return Form(result)


def chow_form(V, r, grid):
    """General-case Chow form: equalize, combine, intersect via gcd."""
    Veq = degree_equalize(V)
    return gcd_fold(
        chow_form_ci(ProjectiveVariety(V.vars, combine(Veq.polys, lam)),
                     r, grid).poly
        for lam in generic_lc(Veq, r, grid))


def chow_bounds(V, r):
    """Closed-form size bounds for the complete-intersection elimination."""
    n = V.n
    if r < 0:
        raise UsageError("need r >= 0")
    d = max(f.total_degree() for f in V.polys)
    nr = n - r
    degs = [d] * nr + [1] * (r + 1)
    return {"degree_bound": d ** nr,
            "macaulay_dim": math.comb(nr * (d - 1) + 1 + n, n),
            "bezout_bounds": [math.prod(degs[:k] + degs[k + 1:])
                              for k in range(len(degs))]}
