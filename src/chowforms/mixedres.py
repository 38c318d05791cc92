"""Multihomogeneous (sparse) resultants via Canny–Emiris matrices.

The supports are products of dilated simplices (one per projective block);
a random integer lifting induces a regular fine mixed subdivision of the
Minkowski sum, queried one point at a time through its lower envelope by
an exact integer dual simplex, which starts from a surplus basis and then
walks from each certified cell to the next (:class:`_CellWalk`); each
simplex step updates d B^-1 and the reduced costs by one fraction-free
pivot, so no basis is ever factored from scratch.
Rows of the resultant matrix are indexed by the lattice points of the
shifted Minkowski sum; the resultant is the matrix determinant divided by
the principal minor on the points in non-mixed cells.  For interpolation
the pair is compiled once per lifting and sampled, sliced by the last
parameter block, by the same quotient sampler as the Macaulay pair
(:class:`resultant._QuotientSampler`).  A bad lifting (coarse
subdivision, vanishing minor, inexact division) triggers a retry with
fresh randomness.
"""

from __future__ import annotations

import bisect
import itertools
import operator

from .errors import IndeterminateError, InternalError, UsageError
from .mpoly import MPoly, VarTable
from .polydet import PolyMatrix
from .resultant import _QuotientSampler, _Remainder, block_interpolation


class _BadLifting(Exception):
    """Internal: this lifting/perturbation did not produce a usable matrix."""


class MultiResSystem:
    """Square multihomogeneous elimination instance over l projective blocks.

    ``x_blocks`` lists the homogeneous variable names of each block (the
    first name of a block is the dehomogenizing one); there must be exactly
    sum(n_i) + 1 polynomials, each multihomogeneous across the blocks.
    """

    def __init__(self, polys, x_blocks):
        if not polys:
            raise UsageError("empty system")
        vars = polys[0].vars
        self.block_idx = tuple(tuple(vars.index(n) for n in blk) for blk in x_blocks)
        self.nsizes = tuple(len(b) - 1 for b in self.block_idx)
        if any(n < 1 for n in self.nsizes):
            raise UsageError("each block needs at least two variables")
        N = sum(self.nsizes)
        if len(polys) != N + 1:
            raise UsageError(f"need exactly {N + 1} polynomials, got {len(polys)}")
        mdegs = []
        for f in polys:
            if f.vars != vars:
                raise UsageError("system polynomials use different VarTables")
            if f.is_zero():
                raise UsageError("zero polynomial in system")
            if not all(f.is_homogeneous_in(blk) for blk in self.block_idx):
                raise UsageError("system polynomials must be multihomogeneous "
                                 "in the x-blocks")
            exp = next(iter(f.terms))
            mdegs.append(tuple(sum(exp[i] for i in blk)
                               for blk in self.block_idx))
        self.vars = vars
        self.polys = tuple(polys)
        self.mdegs = tuple(mdegs)
        self.N = N
        self.l = len(self.block_idx)

    def bezout_bounds(self):
        """Degree of the resultant in the coefficients of each polynomial:
        the multihomogeneous Bezout count of the remaining system."""
        aux = VarTable(tuple(f"t{j}" for j in range(self.l)))
        target = tuple(self.nsizes)
        out = []
        for k in range(len(self.polys)):
            prod = MPoly.const(aux, 1)
            for i, d in enumerate(self.mdegs):
                if i == k:
                    continue
                prod = prod * MPoly(aux, {tuple(int(j == b) for j in range(self.l)): d[b]
                                          for b in range(self.l) if d[b]})
            out.append(prod.terms.get(target, 0))
        return out

    def affine_support(self, i):
        """Full product-of-simplices support of poly i in affine exponents
        (per block, the first variable is dropped)."""
        per_block = []
        for j, blk in enumerate(self.block_idx):
            d = self.mdegs[i][j]
            n = self.nsizes[j]
            pts = [e for e in itertools.product(range(d + 1), repeat=n)
                   if sum(e) <= d]
            per_block.append(pts)
        return [sum(combo, ()) for combo in itertools.product(*per_block)]

    def coeff_table(self, i):
        """Map affine exponent (per block, the first variable dropped) ->
        coefficient MPoly over the full table, x-exponents zeroed; the
        first exponent of each block follows from the multidegree."""
        affine = [k for blk in self.block_idx for k in blk[1:]]
        firsts = [blk[0] for blk in self.block_idx]
        return {key[:self.N]: cf for key, cf
                in self.polys[i].coefficients(affine + firsts).items()}


class _CellWalk:
    """Cells of the regular mixed subdivision induced by one lifting.

    The cell containing x is the optimal basis of the LP: minimize
    sum_i,a w_i(a) lambda_{i,a} over lambda >= 0 with
    sum lambda_{i,a} (a, e_i) = (x, 1, ..., 1), one Cayley column (a, e_i)
    per support point.  ``locate`` takes b = D (x, 1, ..., 1) in integers
    and walks an exact dual simplex (Bland's rule) from the previous cell,
    which stays dual feasible since only b changes.  The first walk starts
    on m surplus columns -e_r priced at ``price``, dual feasible since each
    Cayley column is >= 0 and nonzero; ``price`` exceeds |y| of every
    certified cell, so no cell keeps one; they are dropped after the first.
    The walk's state is fraction free: the sorted basis, d = |det B| > 0,
    X = d B^-1 (row r belongs to basis column r) and the reduced costs
    scaled by d, all integer, so lambda and pivot rows are integer dot
    products.  The surplus basis B = -I has d = 1 and X = -I, and each
    simplex step moves the state by one pivot (:meth:`_pivot`); no basis
    is factored.  A cell is certified only when every lambda > 0, every
    off-cell reduced cost is > 0 (x strictly inside a fine cell, which is
    then the unique optimum) and every polytope is present; anything else
    raises ``_BadLifting`` for a retry and leaves the last certified state
    in place.
    """

    def __init__(self, supports, liftings, N):
        self.k = len(supports)
        self.m = m = N + self.k
        self.idx = [(i, a) for i, sup in enumerate(supports) for a in sup]
        self.cols = [list(a) + [int(j == i) for j in range(self.k)]
                     for i, a in self.idx]
        self.costs = [liftings[i][a] for i, a in self.idx]
        # |y_r| <= m max(w) max|adj B| as |det B| >= 1, and Hadamard's
        # bound caps each adjugate entry by (1 + max sum(a)) ** (m - 1).
        self.price = m * max(self.costs) * max(map(sum, self.cols)) ** (m - 1) + 1
        n = len(self.idx)
        self.cols += [[-int(r == c) for r in range(m)] for c in range(m)]
        self.costs += [self.price] * m
        # The surplus basis: y = -price on every row, so the reduced cost
        # of column j is w_j + price * sum(a_j), 0 on the surplus columns.
        self.basis = tuple(range(n, n + m))
        self.d = 1
        self.inv = [[-int(r == c) for c in range(m)] for r in range(m)]
        self.red = [w + self.price * sum(col)
                    for w, col in zip(self.costs, self.cols)]

    def _pivot(self, basis, d, inv, red, out, enter, alpha):
        """The state after column ``enter`` replaces basis row ``out``,
        ``alpha`` being row ``out`` of X A (the ratio test's pivot row).

        With a = X a_enter, p = a[out] != 0 and s its sign, the new basis
        has d' = |p|, X' has row s X_out for the entering column and rows
        s (p X_i - a_i X_out) / d for the others, and the scaled reduced
        costs become s (p red_j - red_enter alpha_j) / d (Edmonds, J. Res.
        NBS 1967; Azulay and Pique, ACM TOMS 2001).  X' = d' B'^-1 is an
        adjugate up to sign, so every division is exact; a remainder means
        a broken invariant and raises InternalError.  The entering row
        moves to the sorted position of its column, so Bland's rule reads
        the basis in column order.
        """
        col = self.cols[enter]
        a = [sum(map(operator.mul, row, col)) for row in inv]
        p = a[out]
        dp, s = abs(p), 1 if p > 0 else -1
        top = [s * v for v in inv[out]]
        rows = [_exact_quotients([dp * x - ai * t
                                  for x, t in zip(row, top)], d)
                for i, (row, ai) in enumerate(zip(inv, a)) if i != out]
        g = s * red[enter]
        red = _exact_quotients([dp * r - g * v for r, v in zip(red, alpha)], d)
        rest = basis[:out] + basis[out + 1:]
        at = bisect.bisect(rest, enter)
        rows.insert(at, top)
        return rest[:at] + (enter,) + rest[at:], dp, rows, red

    def locate(self, b):
        """Sorted column indices of the cell containing b / D."""
        basis, d, inv, red = self.basis, self.d, self.inv, self.red
        cols = self.cols
        for _ in range(16 * len(cols)):
            lam = [sum(map(operator.mul, row, b)) for row in inv]
            out = next((r for r, v in enumerate(lam) if v < 0), None)
            if out is None:
                break
            # Entering column: least ratio red_j / -alpha_j, lowest index
            # on ties; alpha is row ``out`` of d B^-1 A.
            alpha = [sum(map(operator.mul, inv[out], col)) for col in cols]
            enter = None
            for j, v in enumerate(alpha):
                if v < 0 and (enter is None
                              or red[j] * -a_in < red[enter] * -v):
                    enter, a_in = j, v
            if enter is None:
                raise _BadLifting
            basis, d, inv, red = self._pivot(basis, d, inv, red, out, enter,
                                             alpha)
        else:
            raise _BadLifting
        n = len(self.idx)
        if min(lam) <= 0 or basis[-1] >= n or \
                any(r <= 0 for j, r in enumerate(red) if j not in basis) or \
                len({self.idx[j][0] for j in basis}) != self.k:
            raise _BadLifting
        if len(cols) > n:
            del cols[n:], self.costs[n:], red[n:]
        self.basis, self.d, self.inv, self.red = basis, d, inv, red
        return basis


def _exact_quotients(nums, d):
    """The integers nums[j] / d; each division must be exact."""
    if d == 1:
        return nums
    out = []
    for v in nums:
        q, r = divmod(v, d)
        if r:
            raise InternalError("fraction-free pivot left a remainder")
        out.append(q)
    return out


def _lattice_points(nsizes, sums):
    """Points p >= 1 with per-block coordinate sums <= s_j, descending lex."""
    per_block = []
    for n, s in zip(nsizes, sums):
        pts = [e for e in itertools.product(range(1, s + 1), repeat=n)
               if sum(e) <= s]
        per_block.append(pts)
    out = [sum(combo, ()) for combo in itertools.product(*per_block)]
    out.sort(reverse=True)
    return out


def _build_matrix(sys, rng):
    supports = [sys.affine_support(i) for i in range(len(sys.polys))]
    liftings = [{a: rng.randint(1, 2 ** 16) for a in sup} for sup in supports]
    cells = _CellWalk(supports, liftings, sys.N)
    # Each row's point is x = p - delta, scaled to integers by delta's
    # common denominator D.
    D = (2 ** 20 + 7) * (sys.N + 1)
    delta = [rng.randint(1, 2 ** 10) for _ in range(sys.N)]
    sums = [sum(d[j] for d in sys.mdegs) for j in range(sys.l)]
    points = _lattice_points(sys.nsizes, sums)
    index = {p: i for i, p in enumerate(points)}
    coeffs = [sys.coeff_table(i) for i in range(len(sys.polys))]
    zero = MPoly.zero(sys.vars)
    rows = []
    mixed_flags = []
    for p in points:
        b = [D * pi - di for pi, di in zip(p, delta)] + [D] * len(supports)
        sigmas = [[] for _ in supports]
        for j in cells.locate(b):
            i, a = cells.idx[j]
            sigmas[i].append(a)
        singles = [i for i, s in enumerate(sigmas) if len(s) == 1]
        if not singles:
            raise _BadLifting
        ip = max(singles)
        ap = sigmas[ip][0]
        mixed_flags.append(len(singles) == 1)
        row = [zero] * len(points)
        for a, cf in coeffs[ip].items():
            q = tuple(pi - api + ai for pi, api, ai in zip(p, ap, a))
            col = index.get(q)
            if col is None:
                raise _BadLifting
            row[col] = cf
        rows.append(row)
    sub = [i for i, m in enumerate(mixed_flags) if not m]
    return rows, sub


def resultant_multihomogeneous_interp(sys, param_blocks, degrees, grid,
                                      tag="mres-interp"):
    """Sparse multihomogeneous resultant by evaluation and interpolation.

    Avoids the symbolic determinant: each lifting's Canny-Emiris matrix H
    is built once, its cells walked by an exact integer dual simplex
    (:class:`_CellWalk`), and the pair of H and its non-mixed minor E
    ([1] when every cell is mixed) goes to the quotient sampler of the
    Macaulay pair (:class:`resultant._QuotientSampler`, no s): every
    sample evaluates only the nonconstant entries, and within a slice
    the rows that do not involve the last parameter block are reduced
    once.

    Each ``param_blocks`` entry is the coefficient vector of one
    polynomial of the system (or a linear reparametrization of it), so
    the resultant is homogeneous in it of degree exactly ``degrees[b]``,
    its Bezout number.  The samples feed the one interpolation engine
    (:func:`resultant.block_interpolation`), as the GCP samples do: the
    first name of each block is pinned to 1 on a product of lattice
    simplices in the others, the result is rehomogenized, and the
    fresh-point check draws every coordinate at random, pinned ones
    included, so a quotient of another degree fails it.  A remainder
    rejects the lifting at once; a lifting whose fresh check fails, or
    whose ``grid.retries`` attempts all hit a bad point, is dropped too.
    A result is accepted once two independent liftings agree on the
    normalized polynomial (zero when det H vanishes identically).
    """
    rng = grid.rng(tag)
    fast = [sys.vars.index(n) for n in param_blocks[-1][1:]]
    one = [[MPoly.const(sys.vars, 1)]]
    seen = []
    # Bad liftings are detected cheaply (first sample), so a generous
    # budget costs little while specialized coefficient patterns can push
    # the per-lifting success rate well below one half.
    for lift_try in range(8 * grid.retries):
        try:
            rows, sub = _build_matrix(sys, rng)
            E = [[rows[i][j] for j in sub] for i in sub] or one
            out = block_interpolation(
                _QuotientSampler(PolyMatrix(rows), PolyMatrix(E), None, fast),
                sys.vars, param_blocks, degrees,
                itertools.repeat(rng, grid.retries))
        except (_BadLifting, _Remainder):
            continue
        if out is None:
            continue
        cand = out[0].normalized()
        if cand in seen:
            return cand
        seen.append(cand)
    raise IndeterminateError("no two liftings agreed on the interpolated "
                             "multihomogeneous resultant")
