"""The one variety model, :class:`MultiprojVariety` (projective space is
its case of one block), and Monte Carlo geometric predicates on it.

One predicate, :func:`dim_leq`, decides whether a coordinate-block
projection of a variety has dimension at most r (r = -1: the variety is
empty); :func:`dim_projection` bisects on it.  It restricts the variety
to a generic affine chart per block, cuts it with generic affine
hyperplanes and asks :func:`affine_solvable`, which reduces to small
elimination instances: linear equations are substituted away exactly
(over the rationals, with denominators cleared), leftover polynomials
are combined into a square system by random linear combinations, and the
verdict is read off the trailing coefficient of a generalized
characteristic polynomial.

Verdict sidedness: an "empty" answer is a certificate whenever the random
slice/combination was generic (a nonzero resultant of a larger system);
a "nonempty" answer can in principle be a coincidence of the random
choices.  :func:`affine_solvable` re-derives every verdict, either way,
with fresh randomness: it runs two rounds and stops if they agree;
otherwise it runs all ``grid.retries`` rounds and returns their strict
majority, a tie reading "empty" (``grid.retries`` = 1 runs one round).
"""

from __future__ import annotations

import random
from math import prod

from .errors import InternalError, UsageError
from .mpoly import MPoly, VarTable
from .polydet import gauss_jordan
from .resultant import MultiResSystem, _BadGrid, _fresh_name, gcp_sampler


class MultiprojVariety:
    """Zero locus of multihomogeneous polynomials in a product of
    projective spaces, with the block structure of its coordinates;
    V in P^n has one block (``l == 1``) and ``total_dim == n``."""

    def __init__(self, vars, polys, dim=None):
        if vars.nblocks < 1:
            raise UsageError("variable table must carry at least one block")
        if not polys:
            raise UsageError("need at least one defining polynomial")
        self.vars = vars
        self.x_blocks = tuple(tuple(vars.names[i] for i in blk)
                              for blk in vars.blocks)
        self.nvec = tuple(len(b) - 1 for b in self.x_blocks)
        if any(n < 1 for n in self.nvec):
            raise UsageError("each block needs at least two variables")
        self.l = len(self.nvec)
        mdegs = []
        for f in polys:
            if f.vars != vars:
                raise UsageError("polynomials use different VarTables")
            if f.is_zero():
                raise UsageError("zero polynomial among the generators")
            if not all(f.is_homogeneous_in(blk) for blk in vars.blocks):
                raise UsageError("defining polynomials must be "
                                 "multihomogeneous in the blocks")
            mdegs.append(f.block_degrees())
        self.polys = tuple(polys)
        self.mdegs = tuple(mdegs)
        self.dim = dim

    @property
    def total_dim(self):
        return sum(self.nvec)

    def codim(self):
        if self.dim is None:
            raise UsageError("variety dimension is not set")
        return self.total_dim - self.dim

    def check_format(self, alpha):
        """alpha as a tuple; UsageError unless it has one entry per block
        and 0 <= alpha_i <= n_i."""
        alpha = tuple(alpha)
        if len(alpha) != self.l or not all(
                0 <= a <= n for a, n in zip(alpha, self.nvec)):
            raise UsageError(f"format {alpha} does not fit the block sizes "
                             f"{self.nvec}")
        return alpha


class RandomGrid:
    """Seeded randomness policy: random coefficients are drawn from
    [1, bound], and ``retries`` bounds the attempts of each check."""

    bound = 2 ** 15

    def __init__(self, seed=0, retries=3):
        if retries < 1:
            raise UsageError("retries must be positive")
        self.seed = seed
        self.retries = retries

    def rng(self, *tag):
        return random.Random(f"{self.seed}|" + "|".join(map(str, tag)))


def random_form(vars, names, rng, bound, constant=False):
    """The linear form sum_k c_k * names[k], plus a constant c when
    ``constant``; each coefficient is drawn from [1, bound] by ``rng``,
    the constant first."""
    terms = {}
    if constant:
        terms[(0,) * vars.nvars] = rng.randint(1, bound)
    for name in names:
        e = [0] * vars.nvars
        e[vars.index(name)] = 1
        terms[tuple(e)] = rng.randint(1, bound)
    return MPoly(vars, terms)


def combine(polys, rows):
    """The combinations sum_j row[j] * polys[j], one per row."""
    out = []
    for row in rows:
        g = MPoly.zero(polys[0].vars)
        for c, f in zip(row, polys):
            g = g + c * f
        out.append(g)
    return out


# -- exact linear algebra over the integers ----------------------------

def solve_affine_linear(eqs, nvars):
    """Solve a . x + c = 0 exactly; eqs are (coeff list, constant) pairs.

    Returns (x0, basis, den): x0 / den is a particular solution and the
    vectors of basis / den span the homogeneous null space, all read off
    the reduced row echelon form (:func:`gauss_jordan`), with x0 and the
    basis integer and den > 0.  Returns None if inconsistent.
    """
    pivots, _, den, t = gauss_jordan([list(a) + [c] for a, c in eqs])
    if nvars in pivots:
        return None  # pivot in the constants column: inconsistent
    if den < 0:
        den, t = -den, [[-v for v in row] for row in t]
    x0 = [0] * nvars
    for row, p in zip(t, pivots):
        x0[p] = -row[nvars]
    basis = []
    for fcol in (c for c in range(nvars) if c not in pivots):
        vec = [0] * nvars
        vec[fcol] = den
        for row, p in zip(t, pivots):
            vec[p] = -row[fcol]
        basis.append(vec)
    return x0, basis, den


def _linear_parts(f, idx):
    """(coeffs over idx, constant) for an affine-linear polynomial."""
    coeffs = [0] * len(idx)
    const = 0
    pos = {v: i for i, v in enumerate(idx)}
    for exp, c in f.terms.items():
        supp = [i for i, e in enumerate(exp) if e]
        if not supp:
            const = c
        else:
            coeffs[pos[supp[0]]] = c
    return coeffs, const


def _is_affine_linear(f):
    return f.total_degree() <= 1


def substitute_affine(polys, x0, basis, den, tvars):
    """Substitute x = (x0 + basis . t) / den into integer polynomials.

    x0 and the basis vectors are integer and den > 0.  The denominator is
    cleared by evaluating the degree-d homogenization at w = den, so the
    results are integer polynomials in t (each taken primitive); the zero
    sets correspond exactly.
    """
    ze = (0,) * tvars.nvars
    images = []
    for i, c0 in enumerate(x0):
        terms = {ze: c0}
        for j, vec in enumerate(basis):
            terms[ze[:j] + (1,) + ze[j + 1:]] = vec[i]
        images.append(MPoly(tvars, terms))
    out = []
    for f in polys:
        d = f.total_degree()
        homog = MPoly(f.vars, {exp: c * den ** (d - sum(exp))
                               for exp, c in f.terms.items()})
        out.append(homog.substitute(dict(zip(f.vars.names, images)),
                                    tvars).primitive())
    return out


# -- affine solvability and dimensions of projections ------------------

def _gcp_trailing(sys, perturb_indices, var, degree):
    """(s-valuation, trailing values) of the generalized characteristic
    polynomial of ``sys`` (the perturbed resultant, :func:`gcp_sampler`),
    sampled at var = 0, 1, ..., degree with every other parameter 0.

    ``var`` may occur only in the last polynomial of ``sys``, and
    ``degree`` must bound its degree in every s-coefficient.  A nonzero
    s-coefficient then cannot vanish at all the samples, so the valuation
    is exact, and the trailing coefficient is constant in var iff its
    values agree.  M0 has no row of the last polynomial (every monomial
    that polynomial owns is reduced), so det M0 does not depend on var: a
    minor that vanishes at one sample vanishes identically.  The samples
    are one slice of the sampler in var, so the rows of the other
    polynomials are reduced once.
    """
    sampler = gcp_sampler(sys, perturb_indices, (var,))
    point = [0] * sys.vars.nvars
    top = [0] * sys.vars.nvars
    top[var] = degree
    try:
        q0 = sampler(point, 1)
        # Valuation 0 needs only the integer determinants at s = 0.
        at = sampler.slice(top, 1 if q0 and q0[0] else None)
        qs = []
        for v in range(degree + 1):
            point[var] = v
            qs.append(at(point))
    except _BadGrid:
        raise InternalError("perturbed Macaulay minor vanished; "
                            "ill-posed perturbation") from None
    if not any(qs):
        raise InternalError("perturbed resultant is identically zero")
    val = min(next(i for i, c in enumerate(q) if c) for q in qs if q)
    return val, [q[val] if val < len(q) else 0 for q in qs]


def _fresh_table(prefix, count):
    return VarTable(tuple(f"{prefix}{i}" for i in range(count)))


def _span_basis(polys):
    """A basis of the span of the polys, which have the same zero set:
    the polys when they are independent, else the rows of the reduced
    row echelon form of their coefficient matrix."""
    monos = sorted({exp for f in polys for exp in f.terms})
    pivots, _, _, rows = gauss_jordan([[f.terms.get(exp, 0) for exp in monos]
                                       for f in polys])
    if len(pivots) == len(polys):
        return polys
    return [MPoly(polys[0].vars, dict(zip(monos, row))).primitive()
            for row in rows[:len(pivots)]]


def _affine_round(polys, vars, rng, bound):
    """One randomized affine-solvability verdict over the complex numbers."""
    polys = [f for f in polys if not f.is_zero()]
    while True:
        if any(f.is_constant() for f in polys):
            return False
        linear = [f for f in polys if _is_affine_linear(f)]
        rest = [f for f in polys if not _is_affine_linear(f)]
        if linear:
            eqs = [_linear_parts(f, range(vars.nvars)) for f in linear]
            sol = solve_affine_linear(eqs, vars.nvars)
            if sol is None:
                return False
            x0, basis, den = sol
            tvars = _fresh_table("t", max(len(basis), 1))
            polys = [f for f in substitute_affine(rest, x0, basis, den, tvars)
                     if not f.is_zero()]
            if not basis:
                # Unique solution of the linear part; the rest reduced to
                # constants, so a zero exists iff they all vanished.
                return not polys
            vars = tvars
            if any(f.is_constant() for f in polys):
                return False
        if not polys:
            return True
        k = vars.nvars
        if len(polys) < k:
            # Slice with generic affine hyperplanes (Krull: every component
            # has dimension >= k - #eqs, so nonemptiness is preserved).
            polys = polys + [random_form(vars, vars.names, rng, bound,
                                         constant=True)
                             for _ in range(k - len(polys))]
            continue  # substitute the new linear forms away
        if len(polys) > k:
            basis = _span_basis(polys)
            if len(basis) < len(polys):
                polys = basis  # the same zero set from fewer polynomials
                continue
            # More than k+1 polynomials are combined to k+1 generic
            # combinations (junk components then have negative dimension);
            # a slack variable keeps the system square.  The slack comes
            # first, so the perturbation of the second polynomial,
            # s * slack^d, involves it.  Paired with the unperturbed u-form
            # instead, it would be free in the perturbed system, whose only
            # zero would be the slack point, and the trailing coefficient
            # would never depend on m0.
            slack = VarTable((_fresh_name(vars, "slack"),) + vars.names)
            polys = [f.substitute({}, slack) for f in polys]
            if len(polys) > k + 1:
                combos = combine(polys, [[rng.randint(1, bound) for _ in polys]
                                         for _ in range(k + 1)])
                polys = [g for g in combos if not g.is_zero()]
            vars = slack
            k = vars.nvars
            if len(polys) < k:
                continue
        break
    # Square affine system: homogenize, append the affine u-form
    # m0*w + sum c_i t_i, and ask whether the trailing coefficient of the
    # generalized characteristic polynomial depends on m0.
    k = vars.nvars
    wide = VarTable(("w",) + vars.names, ((tuple(range(k + 1)),))).extend(("m0",))
    homog = []
    for f in polys:
        d = f.total_degree()
        terms = {}
        for exp, c in f.terms.items():
            terms[(d - sum(exp),) + exp + (0,)] = c
        homog.append(MPoly(wide, terms))
    m_form = MPoly.var(wide, "m0") * MPoly.var(wide, "w") + \
        random_form(wide, vars.names, rng, bound)
    sys = MultiResSystem(homog + [m_form], [("w",) + vars.names])
    # The GCP has degree prod d_i in the coefficients of the m-form, so
    # every s-coefficient has m0-degree at most that.
    _, values = _gcp_trailing(sys, range(len(homog)), wide.index("m0"),
                              prod(f.total_degree() for f in polys))
    return len(set(values)) > 1


def affine_solvable(polys, vars, grid, tag="aff"):
    """Monte Carlo: do the polynomials share a zero over complex affine
    space?  Disagreeing rounds are resolved by majority."""
    votes = []
    for round_no in range(grid.retries):
        rng = grid.rng(tag, round_no)
        votes.append(_affine_round(list(polys), vars, rng, grid.bound))
        if len(votes) >= 2 and len(set(votes)) == 1:
            break
    return sum(votes) * 2 > len(votes)


def dim_leq(polys, x_blocks, I, r, grid):
    """True iff dim pi_I(V) <= r (-1: V is empty), V the zero set of the
    multihomogeneous ``polys`` in the product of projective spaces with
    homogeneous coordinates ``x_blocks``, pi_I its projection onto the
    blocks in I.

    V is restricted to one generic affine chart per block (a random linear
    form = 1), which is dense in every component; pi_I of the restriction
    then misses r + 1 generic affine hyperplanes in the coordinates of the
    I-blocks iff its dimension is at most r.
    """
    I = tuple(sorted(set(I)))
    if not I:
        raise UsageError("I must be a nonempty set of block indices")
    if not polys:
        raise UsageError("need at least one defining polynomial")
    names = [n for j in I for n in x_blocks[j]]
    if not -1 <= r <= len(names) - len(I):
        raise UsageError("need -1 <= r <= the dimension of the projective "
                         "spaces of the blocks in I")
    vars = polys[0].vars
    rng = grid.rng("dimleq", I, r)
    charts = [random_form(vars, blk, rng, grid.bound) - 1 for blk in x_blocks]
    cuts = [random_form(vars, names, rng, grid.bound, constant=True)
            for _ in range(r + 1)]
    return not affine_solvable(list(polys) + charts + cuts, vars, grid,
                               tag=("dimleq", I, r))


def dim_projection(polys, x_blocks, I, grid):
    """dim pi_I(V) (see :func:`dim_leq`), bisected over [-1, sum of the
    n_i of the blocks in I]."""
    lo, hi = -1, sum(len(x_blocks[j]) - 1 for j in set(I))
    while lo < hi:
        mid = (lo + hi) // 2
        if dim_leq(polys, x_blocks, I, mid, grid):
            hi = mid
        else:
            lo = mid + 1
    return lo
