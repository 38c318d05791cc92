"""Chow forms of pure-dimensional projective varieties, the one-block
:class:`dimension.MultiprojVariety`.

The complete-intersection path appends r+1 generic linear u-forms and
eliminates x with the perturbed Macaulay resultant (:func:`ci_resultant`,
shared with the Hurwitz u-resultant); the general path
(:func:`general_form`, shared with the multigraded Chow forms) reduces to
complete intersections by verified random linear combinations of the
equalized equations and assembles the answer as a gcd.
"""

from __future__ import annotations

import itertools
import math
import operator

from .dimension import MultiprojVariety, RandomGrid, combine, dim_leq
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
    """V with every f below the top multidegree replaced by the products
    f * x^gap, one variable x taken from each block where f falls short
    (in block order, variables in table order): the same zero locus, as
    every block has a nonzero coordinate, and one common multidegree."""
    top = [max(d[j] for d in V.mdegs) for j in range(V.l)]
    polys = []
    for f, d in zip(V.polys, V.mdegs):
        pads = [[MPoly.var(V.vars, x, t - e) for x in blk]
                for blk, t, e in zip(V.x_blocks, top, d) if t > e]
        polys += [math.prod(combo, start=f)
                  for combo in itertools.product(*pads)]
    return MultiprojVariety(V.vars, polys, dim=V.dim)


def _one_block(V):
    if V.l != 1:
        raise UsageError("a projective variety needs one variable block")


def ci_resultant(V, r, blocks, grid, tag):
    """x eliminated from the complete intersection V (m = n - r
    polynomials in P^n) and one generic linear form per name tuple of
    ``blocks``: homogeneous of degree prod deg(f_i) in every block, it is
    interpolated from integer determinant quotients drawn under ``tag``.
    """
    _one_block(V)
    n = V.total_dim
    m = len(V.polys)
    if r < 0:
        raise UsageError("need r >= 0")
    if m != n - r:
        raise UsageError(f"complete intersection needs {n - r} polynomials, "
                         f"got {m}")
    if grid is None:
        grid = RandomGrid(seed=0)
    sys = MacaulaySystem(with_linear_forms(V.polys, V.vars.names, blocks),
                         V.vars.names)
    D = math.prod(f.total_degree() for f in V.polys)
    R, _ = gcp_block_interpolation(sys, range(m), blocks, [D] * len(blocks),
                                   grid, tag=tag)
    if R.is_zero() or R.is_constant():
        raise UsageError("not a complete intersection of expected dimension: "
                         "the elimination degenerated")
    return R


def chow_form_ci(V, r, grid=None):
    """Chow form of a complete intersection (m = n - r polynomials): the
    square-free part of :func:`ci_resultant` on r+1 u-blocks."""
    blocks = [u_block_names(i, V.total_dim) for i in range(r + 1)]
    return Form(square_free_part(ci_resultant(V, r, blocks, grid,
                                              "chow-ci")))


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
    k = total_dim - r combinations cut varieties of dimension <= r, with
    entries bounded by ceil(m/k) k D^(k-1) + m + 1 (at most 2^15), D the
    total degree of the common multidegree."""
    m = len(V.polys)
    k = V.total_dim - r
    if r < 0:
        raise UsageError("need r >= 0")
    if k < 1:
        raise UsageError("need r < total dimension")
    if len(set(V.mdegs)) != 1:
        raise UsageError("generic_lc requires equalized degrees")
    D = sum(V.mdegs[0])
    bound = min(-(-m // k) * k * D ** (k - 1) + m + 1, 2 ** 15)
    return verified_lambdas(V.polys, V.x_blocks, r, bound, grid, "glc")


def general_form(V, r, grid, form_ci):
    """General-case form of V of dimension r: equalize the multidegrees,
    reduce to complete intersections by verified combinations
    (:func:`generic_lc`) and intersect their forms ``form_ci(W)`` by a
    gcd, which divides each square-free form and so is square-free too."""
    Veq = degree_equalize(V)
    result = None
    for lam in generic_lc(Veq, r, grid):
        f = form_ci(MultiprojVariety(V.vars, combine(Veq.polys, lam))).poly
        result = f if result is None else gcd(result, f)
    return Form(result)


def chow_form(V, r, grid):
    """General-case Chow form of a projective variety
    (:func:`general_form` over :func:`chow_form_ci`)."""
    _one_block(V)
    return general_form(V, r, grid, lambda W: chow_form_ci(W, r, grid))


def chow_bounds(V, r):
    """Closed-form size bounds for the complete-intersection elimination."""
    n = V.total_dim
    if r < 0:
        raise UsageError("need r >= 0")
    d = max(f.total_degree() for f in V.polys)
    nr = n - r
    degs = [d] * nr + [1] * (r + 1)
    return {"degree_bound": d ** nr,
            "macaulay_dim": math.comb(nr * (d - 1) + 1 + n, n),
            "bezout_bounds": [math.prod(degs[:k] + degs[k + 1:])
                              for k in range(len(degs))]}
