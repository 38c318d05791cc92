"""Supports, multidegrees, hypersurface formats and multigraded Chow
forms of multiprojective varieties (:class:`dimension.MultiprojVariety`).

A format is a componentwise dimension vector for a product of linear
subspaces, one factor per projective block.  The support of a variety
collects the formats of complementary dimension whose generic subspaces
meet it; everything here reduces to the table of projection dimensions
dim pi_I(V) and to sparse multihomogeneous resultants.
"""

from __future__ import annotations

import itertools
import math

from .chow import Form, ci_resultant, general_form
from .dimension import combine, dim_projection, random_form
from .errors import IndeterminateError, UsageError
from .mixedres import resultant_multihomogeneous_interp
from .mpoly import MPoly, square_free_part
from .polydet import det_integer
from .polymatroid import from_dim_table
from .resultant import MultiResSystem


def _nonempty_subsets(l):
    for size in range(1, l + 1):
        yield from itertools.combinations(range(l), size)


def dim_table(V, grid):
    """Map from each nonempty block index set I to dim pi_I(V)."""
    return {I: dim_projection(list(V.polys), V.x_blocks, list(I), grid)
            for I in _nonempty_subsets(V.l)}


def _format_polymatroid(V, table):
    """Box dual of the projection-dimension polymatroid
    (:func:`polymatroid.from_dim_table`).  Its bases are the support, the
    bases of its truncation the Chow hypersurface formats, and those of
    the elongated truncation the Hurwitz candidates (Castillo, Cid-Ruiz,
    Li, Montano and Zhang, "When are multidegrees positive?", 2020)."""
    V.codim()  # refuses a variety whose dimension is not set
    P = from_dim_table(V.nvec, table)
    if P.rank() != V.dim:
        raise UsageError(f"the dimension table gives dim V = {P.rank()}, "
                         f"but the variety is declared of dimension {V.dim}")
    return P.dual()


def support(V, table):
    """Formats beta of size codim V whose generic subspaces meet V:
    sum_{i in I}(n_i - beta_i) <= dim pi_I(V) for every nonempty I."""
    return _format_polymatroid(V, table).bases()


def chow_hypersurface_formats(V, table):
    """Formats alpha of size codim V - 1 whose incidence variety is a
    hypersurface: those below some support format."""
    D = _format_polymatroid(V, table)
    return D.truncate().bases() if D.rank() else set()


def hurwitz_hypersurface_formats(V, table, mdeg_fn):
    """Formats alpha of size codim V whose non-transversality locus is a
    hypersurface: above some Chow hypersurface format, and of multidegree
    other than 1 where alpha is in the support."""
    D = _format_polymatroid(V, table)
    supp = D.bases()
    candidates = D.truncate().elongate().bases() if D.rank() else supp
    return candidates - {beta for beta in sorted(supp) if mdeg_fn(beta) == 1}


def multi_chow_form_ci(V, alpha, grid=None):
    """Chow form of a multiprojective complete intersection for format
    alpha: the square-free part of :func:`chow.ci_resultant` with
    n_i - alpha_i generic linear forms on block i, coefficient names
    u<i>_<j>_<k> with i counted from 1."""
    alpha = V.check_format(alpha)
    forms = [[tuple(f"u{i}_{j}_{k}" for k in range(n + 1))
              for j in range(n - a)]
             for i, (n, a) in enumerate(zip(V.nvec, alpha), start=1)]
    return Form(square_free_part(ci_resultant(V, forms, grid,
                                              f"mchow-{alpha}")))


def multidegree(V, alpha, grid, table=None):
    """Number of points in which a generic subspace of format alpha meets
    V: slice by n_i - alpha_i random linear forms per block, append a
    multilinear form whose coefficients run through a random pencil
    c0 * t0_ + c1 * t1_, and read off the degree of the square-free part
    of the eliminant, a binary form in (t0_, t1_)."""
    alpha = tuple(alpha)
    if table is None:
        table = dim_table(V, grid)
    if alpha not in support(V, table):
        raise UsageError(f"format {alpha} is not in the support")
    answers = []
    indeterminate = 0
    for trial in range(2 * grid.retries):
        rng = grid.rng("mdeg", alpha, trial)
        wide = V.vars.extend(("t0_", "t1_"))
        # A random invertible change of coordinates in each block leaves
        # the multidegree unchanged and makes the coefficient patterns
        # generic enough for the sparse elimination.
        subs = {}
        for blk in V.x_blocks:
            nb = len(blk)
            while True:
                C = [[rng.randint(-9, 9) for _ in range(nb)]
                     for _ in range(nb)]
                if det_integer(C):
                    break
            subs.update(zip(blk, combine(
                [MPoly.var(wide, name) for name in blk], C)))
        polys = [f.substitute(subs, wide) for f in V.polys]
        for blk, n, a in zip(V.x_blocks, V.nvec, alpha):
            polys += [random_form(wide, blk, rng, grid.bound)
                      for _ in range(n - a)]
        M = MPoly.zero(wide)
        for combo in itertools.product(*V.x_blocks):
            m = random_form(wide, ("t0_", "t1_"), rng, grid.bound)
            for xname in combo:
                m = m * MPoly.var(wide, xname)
            M = M + m
        polys.append(M)
        sys = MultiResSystem(polys, V.x_blocks)
        try:
            R = resultant_multihomogeneous_interp(
                sys, [("t0_", "t1_")], sys.bezout_bounds()[-1:], grid,
                tag=("mdeg", alpha, trial))
        except IndeterminateError:
            # No two liftings agreed on this slice; a fresh one may.
            indeterminate += 1
            continue
        if R.is_zero():
            continue
        count = square_free_part(R).total_degree()
        if count in answers:
            return count
        answers.append(count)
    if indeterminate:
        raise IndeterminateError(f"multidegree: {indeterminate} slices found "
                                 f"no resultant, the others did not agree")
    raise UsageError("multidegree slices kept disagreeing; the format may "
                     "be degenerate for this variety")


def multi_chow_form(V, r, alpha, grid):
    """General-case multigraded Chow form (:func:`chow.general_form`
    over :func:`multi_chow_form_ci`); a format whose size is not
    total_dim - r - 1 is refused before any draw."""
    alpha = V.check_format(alpha)
    if sum(alpha) != V.total_dim - r - 1:
        raise UsageError(f"format {alpha} does not fit dim {r}: its entries "
                         f"must sum to {V.total_dim - r - 1}")
    return general_form(V, r, grid,
                        lambda W: multi_chow_form_ci(W, alpha, grid))


def multi_bounds(V, alpha):
    """Closed-form size bounds for the format-alpha elimination."""
    alpha = V.check_format(alpha)
    n = V.total_dim
    r = n - sum(alpha) - 1
    d = max(max(dv) for dv in V.mdegs)
    total = 0
    for i in range(V.l):
        parts = list(alpha)
        parts[i] += 1
        total += math.factorial(n - r) // math.prod(
            math.factorial(p) for p in parts) if sum(parts) == n - r else 0
    degree_bound = d ** (n - r) * total
    A = sum((ni - ai) * (ni + 1) for ni, ai in zip(V.nvec, alpha))
    return {"degree_bound": degree_bound,
            "variable_count": A,
            "block_degree_bound": d ** (n - r)}
