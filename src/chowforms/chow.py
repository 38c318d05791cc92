"""Chow forms of pure-dimensional projective varieties.

The complete-intersection path appends r+1 generic linear u-forms and
eliminates x with the perturbed Macaulay resultant; the general path
reduces to complete intersections by verified random linear combinations
of the defining equations and assembles the answer as a gcd.
"""

from __future__ import annotations

import math
import operator

from .dimension import ProjectiveVariety, RandomGrid, dim_leq
from .errors import UsageError
from .mpoly import MPoly, gcd, square_free_part
from .polydet import rank_integer
from .resultant import MacaulaySystem, gcp_block_interpolation, gcp_resultant


class ChowForm:
    """Normalized square-free Chow form with its block layout."""

    def __init__(self, poly, n, r, provenance):
        self.poly = poly
        self.n = n
        self.r = r
        self.provenance = provenance

    @property
    def block_degrees(self):
        return self.poly.block_degrees()

    @property
    def bitsize(self):
        return self.poly.bitsize()

    def __repr__(self):
        return f"ChowForm({self.poly.to_text()})"


class LambdaMatrix:
    """Integer combination matrix with the seed that produced it."""

    def __init__(self, rows, seed):
        self.rows = tuple(tuple(r) for r in rows)
        self.seed = seed


def u_block_names(i, n):
    return tuple(f"u{i}{j}" for j in range(n + 1))


def attach_u_blocks(xvars, r, n):
    """x-table extended by r+1 fresh u-blocks of n+1 variables each."""
    wide = xvars
    for i in range(r + 1):
        wide = wide.extend(u_block_names(i, n))
    return wide


def degree_equalize(V):
    """Replace each lower-degree f by {x_j^(d-deg f) * f}: same zero locus,
    all degrees equal to the maximum."""
    d = max(f.total_degree() for f in V.polys)
    out = []
    for f in V.polys:
        gap = d - f.total_degree()
        if gap == 0:
            out.append(f)
        else:
            for name in V.vars.names:
                out.append(f * MPoly.var(V.vars, name, gap))
    return ProjectiveVariety(V.vars, out, dim=V.dim)


def chow_form_ci(V, r, grid=None):
    """Chow form of a complete intersection (m = n - r polynomials).

    The u-coefficients enter only through r+1 generic linear forms, so the
    result is homogeneous of degree prod deg(f_i) in every u-block; it is
    recovered by block interpolation of the perturbed elimination, whose
    samples are integer determinant quotients.
    """
    n = V.n
    m = len(V.polys)
    if m != n - r:
        raise UsageError(f"complete intersection needs {n - r} polynomials, "
                         f"got {m}")
    if grid is None:
        grid = RandomGrid(seed=0)
    wide = attach_u_blocks(V.vars, r, n)
    polys = [f.rename_into(wide) for f in V.polys]
    for i in range(r + 1):
        U = MPoly.zero(wide)
        for j, xname in enumerate(V.vars.names):
            U = U + MPoly.var(wide, f"u{i}{j}") * MPoly.var(wide, xname)
        polys.append(U)
    sys = MacaulaySystem(polys, V.vars.names)
    D = math.prod(f.total_degree() for f in V.polys)
    blocks = [u_block_names(i, n) for i in range(r + 1)]
    R, _ = gcp_block_interpolation(sys, range(m), blocks, [D] * (r + 1), grid,
                                   tag="chow-ci")
    if R.is_zero() or R.is_constant():
        raise UsageError("not a complete intersection of expected dimension: "
                         "the elimination degenerated")
    cf = square_free_part(R).normalized()
    return ChowForm(cf, n, r, "ci")


def evaluate_on_plane(cf, plane):
    """Value of the Chow form at a concrete (r+1) x (n+1) integer matrix."""
    point = {}
    for i, row in enumerate(plane):
        for j, v in enumerate(row):
            point[f"u{i}{j}"] = v
    return cf.poly.evaluate(point)


def _combo_variety(V, rows):
    polys = []
    for row in rows:
        g = MPoly.zero(V.vars)
        for c, f in zip(row, V.polys):
            g = g + c * f
        if g.is_zero():
            raise UsageError("degenerate combination")
        polys.append(g)
    return ProjectiveVariety(V.vars, polys, dim=V.dim)


def generic_lc(V, r, grid):
    """N = ceil(m/(n-r)) verified random combination matrices.

    Each Lambda must cut a variety of dimension <= r and the stack of all
    of them must have full column rank, so the intersection of the combo
    varieties is V itself.  A Lambda whose n-r combinations have
    coefficient rank < n-r cuts a variety of dimension > r for certain:
    it is redrawn without a dimension check and without using up one of
    ``grid.retries`` attempts, up to 8 * ``grid.retries`` draws in all.
    """
    m = len(V.polys)
    n = V.n
    nr = n - r
    if nr < 1:
        raise UsageError("need r < n")
    degs = {f.total_degree() for f in V.polys}
    if len(degs) != 1:
        raise UsageError("generic_lc requires equalized degrees")
    d = degs.pop()
    N = math.ceil(m / nr)
    if m == nr:
        ident = [[int(i == j) for j in range(m)] for i in range(nr)]
        return [LambdaMatrix(ident, seed=None)]
    bound = min(N * nr * d ** max(nr - 1, 0) + m + 1, 2 ** 15)
    # One column per monomial: the generators' coefficients on it.
    cols = [[f.terms.get(exp, 0) for f in V.polys]
            for exp in {exp for f in V.polys for exp in f.terms}]
    last_err = "no attempt made"
    attempts = 0
    for draw in range(8 * grid.retries):
        if attempts == grid.retries:
            break
        rng = grid.rng("glc", draw)
        lambdas = [[[rng.randint(1, bound) for _ in range(m)] for _ in range(nr)]
                   for _ in range(N)]
        if any(rank_integer([[sum(map(operator.mul, row, col))
                              for col in cols] for row in lam]) < nr
               for lam in lambdas):
            last_err = "a combination matrix has coefficient rank < n - r"
            continue
        attempts += 1
        stacked = [row for lam in lambdas for row in lam]
        if rank_integer(stacked) < min(m, N * nr):
            last_err = "stacked matrix not of full rank"
            continue
        ok = True
        for lam in lambdas:
            if not dim_leq(_combo_variety(V, lam), r, grid):
                ok = False
                last_err = "a combination variety has dimension > r"
                break
        if ok:
            return [LambdaMatrix(lam, seed=(grid.seed, draw))
                    for lam in lambdas]
    raise UsageError(f"generic_lc failed after {attempts} attempts: "
                     f"{last_err}")


def chow_form(V, r, grid):
    """General-case Chow form: equalize, combine, intersect via gcd."""
    Veq = degree_equalize(V)
    lambdas = generic_lc(Veq, r, grid)
    result = None
    for lam in lambdas:
        W = _combo_variety(Veq, lam.rows)
        cf = chow_form_ci(W, r, grid)
        result = cf.poly if result is None else gcd(result, cf.poly)
    cf = square_free_part(result).normalized()
    return ChowForm(cf, V.n, r, f"gcd-of-{len(lambdas)}")


def chow_bounds(V, r):
    """Closed-form size bounds for the complete-intersection elimination."""
    n = V.n
    d = max(f.total_degree() for f in V.polys)
    nr = n - r
    degree_bound = d ** nr
    macaulay_dim = math.comb(nr * (d - 1) + 1 + n, n)
    degs = [d] * nr + [1] * (r + 1)
    bez = []
    for k in range(len(degs)):
        p = 1
        for i, di in enumerate(degs):
            if i != k:
                p *= di
        bez.append(p)
    return {"degree_bound": degree_bound,
            "macaulay_dim": macaulay_dim,
            "bezout_bounds": bez}
