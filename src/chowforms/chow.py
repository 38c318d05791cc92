"""Chow forms of pure-dimensional projective varieties, the one-block
:class:`dimension.MultiprojVariety`.

The complete-intersection path appends generic linear u-forms and
eliminates every x-block (:func:`ci_resultant`, shared with the Hurwitz
u-resultant and the multigraded Chow forms), or for one polynomial
evaluates it at the points the forms cut out; the general path
(:func:`general_form`, shared with the multigraded Chow forms) reduces to
complete intersections by verified random linear combinations of the
equalized equations and assembles the answer as a gcd.
"""

from __future__ import annotations

import itertools
import math
import operator

from .dimension import MultiprojVariety, combine, dim_leq
from .errors import UsageError
from .mixedres import resultant_multihomogeneous_interp
from .mpoly import MPoly, VarTable, gcd, square_free_part
from .polydet import PolyMatrix, det_bareiss, rank_integer
from .resultant import MultiResSystem, gcp_block_interpolation


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


def _projective(V):
    if V.l != 1:
        raise UsageError("a projective variety needs one variable block")
    V.codim()  # refuses a variety whose dimension is not set


def ci_resultant(V, forms, grid, tag):
    """Every x-block eliminated from the complete intersection V and one
    generic linear form per u-block, ``forms[i]`` naming those on x-block
    i, over a table with one block per u-block.

    When V has one polynomial f and each x-block i carries exactly n_i
    u-blocks, the forms on block i cut out one point xi_i and the
    resultant is f(xi_1, ..., xi_l) up to sign
    (:func:`hypersurface_resultant`); nothing is drawn.  Otherwise,
    homogeneous in each u-block of degree its Bezout number, it is
    interpolated from determinant quotients drawn under ``tag``: of the
    perturbed Macaulay pair on one x-block, of Canny-Emiris pairs on
    several."""
    u_blocks = [blk for blocks in forms for blk in blocks]
    m = len(V.polys)
    need = V.total_dim + 1 - len(u_blocks)
    if m != need:
        raise UsageError(f"complete intersection needs {need} polynomials, "
                         f"got {m}")
    if m == 1 and tuple(map(len, forms)) == V.nvec:
        R = hypersurface_resultant(V.polys[0], V.x_blocks, forms)
    else:
        polys = V.polys
        for xs, blocks in zip(V.x_blocks, forms):
            polys = with_linear_forms(polys, xs, blocks)
        sys = MultiResSystem(polys, V.x_blocks)
        degrees = sys.bezout_bounds()[m:]
        if V.l == 1:
            R, _ = gcp_block_interpolation(sys, range(m), u_blocks, degrees,
                                           grid, tag=tag)
        else:
            R = resultant_multihomogeneous_interp(sys, u_blocks, degrees,
                                                  grid, tag=tag)
    if R.is_zero() or R.is_constant():
        raise UsageError("not a complete intersection of expected dimension: "
                         "the elimination degenerated")
    return R


def hypersurface_resultant(f, x_blocks, forms):
    """Res(f, U...) of one polynomial f and n_i generic linear forms on
    each x-block i of n_i + 1 variables, ``forms[i]`` naming their
    coefficient blocks: the forms on block i cut out the one point xi_i
    with xi_i,j = (-1)^j times the minor of block i's u-matrix without
    column j, and the resultant is f(xi_1, ..., xi_l) up to sign, over a
    table with one block per u-block."""
    table = VarTable(())
    for blk in itertools.chain(*forms):
        table = table.extend(blk)
    point = {}
    for xs, blocks in zip(x_blocks, forms):
        rows = [[MPoly.var(table, u) for u in blk] for blk in blocks]
        for j, x in enumerate(xs):
            minor = det_bareiss(PolyMatrix([r[:j] + r[j + 1:] for r in rows]))
            point[x] = -minor if j % 2 else minor
    return f.substitute(point, table)


def chow_form_ci(V, grid):
    """Chow form of a complete intersection of dimension r (m = n - r
    polynomials): the square-free part of :func:`ci_resultant` on r+1
    u-blocks."""
    _projective(V)
    blocks = [u_block_names(i, V.total_dim) for i in range(V.dim + 1)]
    return square_free_part(ci_resultant(V, [blocks], grid, "chow-ci"))


def generic_lc(V, grid):
    """N = ceil(m/k) verified random k x m combination matrices, each a
    list of rows, k = codim V, for V of dimension r with equalized
    degrees.

    Entries are drawn from [1, bound] by ``grid.rng("glc", draw)``, the
    bound ceil(m/k) k D^(k-1) + m + 1 (at most 2^15), D the total degree
    of the common multidegree.  The k combinations of each Lambda must cut
    a variety of dimension <= r (:func:`dimension.dim_leq` on all blocks)
    and the stack of all of them must have full column rank, so the
    intersection of the combination varieties is V itself.
    A Lambda whose combinations have coefficient rank < k (a vanishing
    combination among them) fails the dimension check for certain: it is
    redrawn without that check and without using up one of
    ``grid.retries`` attempts, up to 8 * ``grid.retries`` draws in all.
    """
    m = len(V.polys)
    k = V.codim()
    if k < 1:
        raise UsageError("need r < total dimension")
    if len(set(V.mdegs)) != 1:
        raise UsageError("generic_lc requires equalized degrees")
    N = -(-m // k)
    if m == k:
        return [[[int(i == j) for j in range(m)] for i in range(k)]]
    D = sum(V.mdegs[0])
    bound = min(N * k * D ** (k - 1) + m + 1, 2 ** 15)
    # One column per monomial: the generators' coefficients on it.
    cols = [[f.terms.get(exp, 0) for f in V.polys]
            for exp in {exp for f in V.polys for exp in f.terms}]
    last_err = "no attempt made"
    attempts = 0
    for draw in range(8 * grid.retries):
        if attempts == grid.retries:
            break
        rng = grid.rng("glc", draw)
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
        if all(dim_leq(combine(V.polys, lam), V.x_blocks, range(V.l), V.dim,
                       grid) for lam in lambdas):
            return lambdas
        last_err = "a combination variety has dimension > r"
    raise UsageError(f"glc: no verified combination after {attempts} "
                     f"attempts: {last_err}")


def general_form(V, grid, form_ci):
    """General-case form of V: equalize the multidegrees, reduce to
    complete intersections of the same dimension by verified combinations
    (:func:`generic_lc`) and intersect their forms ``form_ci(W)`` by a
    gcd, which divides each square-free form and so is square-free too."""
    Veq = degree_equalize(V)
    result = None
    for lam in generic_lc(Veq, grid):
        f = form_ci(MultiprojVariety(V.vars, combine(Veq.polys, lam),
                                     dim=V.dim))
        result = f if result is None else gcd(result, f)
    return result


def chow_form(V, grid):
    """General-case Chow form of a projective variety
    (:func:`general_form` over :func:`chow_form_ci`)."""
    _projective(V)
    return general_form(V, grid, lambda W: chow_form_ci(W, grid))


def chow_bounds(V):
    """Closed-form size bounds for the complete-intersection elimination."""
    n = V.total_dim
    nr = V.codim()
    d = max(f.total_degree() for f in V.polys)
    degs = [d] * nr + [1] * (V.dim + 1)
    return {"degree_bound": d ** nr,
            "macaulay_dim": math.comb(nr * (d - 1) + 1 + n, n),
            "bezout_bounds": [math.prod(degs[:k] + degs[k + 1:])
                              for k in range(len(degs))]}
