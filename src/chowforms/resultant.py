"""Dense (Macaulay) resultants and the generalized characteristic polynomial.

A :class:`MacaulaySystem` is a square homogeneous elimination instance:
n+1 polynomials, homogeneous in the eliminated block x_0..x_n, whose
coefficients may involve further parameter variables.  The resultant is
the quotient det M / det M_0 of two Macaulay determinants; when det M_0
vanishes identically, :func:`gcp_resultant` perturbs the system with a
fresh variable s and returns the trailing s-coefficient instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import (DegenerateError, IndeterminateError, InternalError,
                     UsageError)
from .mpoly import MPoly, VarTable, divexact, unpack_digits
from .polydet import (PolyMatrix, det_bareiss, det_packed, det_slice,
                      pack_rows, packing_shift, row_norms)


def monomials_of_degree(nvars, total):
    """All exponent tuples with the given sum, in descending lex order."""
    if nvars == 1:
        return [(total,)]
    out = []
    for e in range(total, -1, -1):
        for rest in monomials_of_degree(nvars - 1, total - e):
            out.append((e,) + rest)
    return out


def drop_variables(f, drop_idx):
    """Project f onto the table without the given variables.

    Every term must have zero exponent on the dropped variables.
    """
    vars = f.vars
    drop = set(drop_idx)
    keep = [i for i in range(vars.nvars) if i not in drop]
    pos = {old: new for new, old in enumerate(keep)}
    blocks = []
    for b in vars.blocks:
        nb = [pos[i] for i in b if i in pos]
        if nb:
            blocks.append(nb)
    target = VarTable([vars.names[i] for i in keep], blocks)
    out = {}
    for exp, c in f.terms.items():
        if any(exp[i] for i in drop):
            raise InternalError("projection would lose a variable occurrence")
        out[tuple(exp[i] for i in keep)] = c
    return MPoly(target, out)


class MacaulaySystem:
    """n+1 polynomials homogeneous in an eliminated block of n+1 variables."""

    def __init__(self, polys, elim_names):
        if not polys:
            raise UsageError("empty system")
        vars = polys[0].vars
        elim_idx = [vars.index(n) for n in elim_names]
        if len(polys) != len(elim_idx):
            raise UsageError(
                f"need exactly {len(elim_idx)} polynomials for {len(elim_idx)} "
                f"eliminated variables, got {len(polys)}")
        degrees = []
        for f in polys:
            if f.vars != vars:
                raise UsageError("system polynomials use different VarTables")
            if f.is_zero() or not f.is_homogeneous_in(elim_idx):
                raise UsageError("system polynomials must be homogeneous in the "
                                 "eliminated variables")
            d = max(sum(exp[i] for i in elim_idx) for exp in f.terms)
            if d < 1:
                raise UsageError("every polynomial must have degree >= 1 in the "
                                 "eliminated variables")
            degrees.append(d)
        self.vars = vars
        self.polys = tuple(polys)
        self.elim_names = tuple(elim_names)
        self.elim_idx = tuple(elim_idx)
        self.degrees = tuple(degrees)
        self.n = len(elim_idx) - 1

    @property
    def critical_degree(self):
        return sum(d - 1 for d in self.degrees) + 1


def macaulay_matrix(sys):
    """Classical Macaulay pair (M, M0) at the critical degree.

    Columns are the degree-t monomials in the eliminated variables; the row
    for monomial x^a is (x^a / x_i^{d_i}) * f_i with i the least index whose
    power divides x^a.  M0 is the principal submatrix on the non-reduced
    monomials (divisible by x_i^{d_i} for more than one i), so that the
    resultant is det M / det M0.
    """
    t = sys.critical_degree
    elim_idx = sys.elim_idx
    k = len(elim_idx)
    cols = monomials_of_degree(k, t)
    col_pos = {a: j for j, a in enumerate(cols)}
    coeffs = [f.coefficients(elim_idx) for f in sys.polys]
    zero = MPoly.zero(sys.vars)
    rows = []
    reduced = []
    for a in cols:
        owners = [i for i in range(k) if a[i] >= sys.degrees[i]]
        if not owners:
            raise InternalError("critical-degree monomial with no owner")
        i = owners[0]
        reduced.append(len(owners) == 1)
        shift = list(a)
        shift[i] -= sys.degrees[i]
        row = [zero] * len(cols)
        for key, cf in coeffs[i].items():
            row[col_pos[tuple(map(operator.add, key, shift))]] = cf
        rows.append(row)
    M = PolyMatrix(rows)
    sub = [j for j, r in enumerate(reduced) if not r]
    if sub:
        M0 = PolyMatrix([[rows[i][j] for j in sub] for i in sub])
    else:
        M0 = PolyMatrix([[MPoly.const(sys.vars, 1)]])
    return M, M0


def resultant_dense(sys):
    """Macaulay resultant det M / det M0, over the parameter variables.

    Raises DegenerateError when det M0 vanishes identically; callers should
    fall back to gcp_resultant.
    """
    M, M0 = macaulay_matrix(sys)
    d0 = det_bareiss(M0)
    if d0.is_zero():
        raise DegenerateError("Macaulay minor vanishes identically; "
                              "use gcp_resultant")
    d = det_bareiss(M)
    return drop_variables(divexact(d, d0), sys.elim_idx)


def _fresh_name(vars, base):
    if base not in vars._index:
        return base
    i = 0
    while f"{base}{i}" in vars._index:
        i += 1
    return f"{base}{i}"


def perturbed_macaulay(sys, perturb_indices=None):
    """Macaulay pair of the s-perturbed system f_i + s * x_i^{d_i}.

    Returns (M, M0, wide, sname) where wide is the table extended by the
    fresh perturbation variable sname.
    """
    if perturb_indices is None:
        perturb_indices = range(len(sys.polys))
    perturb = set(perturb_indices)
    sname = _fresh_name(sys.vars, "s")
    wide = sys.vars.extend((sname,))
    s = MPoly.var(wide, sname)
    polys = []
    for i, f in enumerate(sys.polys):
        g = f.substitute({}, wide)
        if i in perturb:
            g = g + s * MPoly.var(wide, sys.elim_names[i], sys.degrees[i])
        polys.append(g)
    psys = MacaulaySystem(polys, sys.elim_names)
    M, M0 = macaulay_matrix(psys)
    return M, M0, wide, sname


def gcp_resultant(sys, perturb_indices=None):
    """Generalized characteristic polynomial rescue.

    Perturbs the selected polynomials to f_i + s * x_i^{d_i}, computes the
    resultant exactly in ZZ[params][s], and
    returns (coefficient, s-valuation): the lowest-s-degree nonzero
    coefficient and its s-degree.  A positive valuation means the
    unperturbed resultant vanishes identically.
    """
    M, M0, wide, sname = perturbed_macaulay(sys, perturb_indices)
    d0 = det_bareiss(M0)
    if d0.is_zero():
        raise InternalError("perturbed Macaulay minor vanished; "
                            "ill-posed perturbation")
    d = det_bareiss(M)
    if d.is_zero():
        raise InternalError("perturbed resultant is identically zero")
    rhat = divexact(d, d0)
    s_idx = wide.index(sname)
    by_s = rhat.coefficients((s_idx,))
    low = min(by_s)
    return drop_variables(by_s[low], list(sys.elim_idx) + [s_idx]), low[0]


class _BadGrid(Exception):
    """Internal: an evaluation grid hit a degenerate locus; reshift and retry."""


class _Remainder(InternalError):
    """Internal: det M0 does not divide det M at a sample.  For the
    Macaulay pair, whose minor divides det M in ZZ[params][s], this is a
    broken invariant; for a Canny-Emiris pair it rejects the lifting."""


def _simplex_points(nvars, total):
    """Exponent tuples with sum <= total, any order."""
    out = []
    for t in range(total + 1):
        out.extend(monomials_of_degree(nvars, t))
    return out


def _udiv_exact(num, den):
    """Exact division of integer coefficient lists (ascending); _BadGrid if
    the divisor is zero, _Remainder if the division leaves a remainder."""
    while num and num[-1] == 0:
        num = num[:-1]
    while den and den[-1] == 0:
        den = den[:-1]
    if not den:
        raise _BadGrid
    if not num:
        return []
    if len(num) < len(den):
        raise _Remainder
    rem = list(num)
    q = [0] * (len(num) - len(den) + 1)
    # A step that leaves a remainder leaves it in rem, where no later step
    # reaches.
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = rem[i + len(den) - 1] // den[-1]
        if c:
            for j, dc in enumerate(den):
                rem[i + j] -= c * dc
    if any(rem):
        raise _Remainder
    return q


def _compile(M, s_idx):
    """Integer structure of a matrix over the parameter table.

    Returns (base, monos, singles, listed): ``base`` holds the constant
    entries (zero elsewhere), ``monos`` the parameter monomials that
    occur, as (variable index, exponent) pairs, ``singles`` one
    (i, j, c, t) per entry that is the single term c * monos[t], and
    ``listed`` one (i, j, layers) per other entry, ``layers[k]`` being its
    s^k coefficient as (integer, monomial index) pairs.  ``s_idx=None``
    means there is no s variable: every entry has the single layer k = 0.
    """
    s_of = (lambda exp: 0) if s_idx is None else operator.itemgetter(s_idx)
    base = [[0] * M.dim for _ in range(M.dim)]
    monos = {}
    singles = []
    listed = []
    for i, row in enumerate(M.entries):
        for j, e in enumerate(row):
            if e.is_constant():
                base[i][j] = e.constant_value()
                continue
            layers = [[] for _ in range(max(map(s_of, e.terms)) + 1)]
            for exp, c in e.terms.items():
                mono = tuple((v, k) for v, k in enumerate(exp)
                             if k and v != s_idx)
                layers[s_of(exp)].append((c, monos.setdefault(mono, len(monos))))
            if len(layers) == 1 and len(layers[0]) == 1:
                singles.append((i, j) + layers[0][0])
            else:
                listed.append((i, j, layers))
    return base, list(monos), singles, listed


def _take(compiled, rows):
    """The rows ``rows`` of a compiled matrix, renumbered from 0."""
    base, monos, singles, listed = compiled
    new = {r: i for i, r in enumerate(rows)}
    return ([base[r] for r in rows], monos,
            [(new[i], j, c, t) for i, j, c, t in singles if i in new],
            [(new[i], j, layers) for i, j, layers in listed if i in new])


def _rows_at(compiled, values, keep=None):
    """(rows, entries) of a compiled matrix at the parameter values (a
    list indexed like the table's variables), as :func:`det_packed` takes
    them.

    ``keep`` keeps only the entries' s^0..s^(keep-1) coefficients;
    ``keep=1`` gives the integer matrix at s = 0.
    """
    base, monos, singles, listed = compiled
    mv = [math.prod(values[v] ** k for v, k in mono) for mono in monos]
    # Single-term entries are constant in s: they join the base.
    rows = [list(r) for r in base]
    for i, j, c, t in singles:
        rows[i][j] = c * mv[t]
    entries = [(i, j, [sum(c * mv[t] for c, t in layer)
                       for layer in layers[:keep]])
               for i, j, layers in listed]
    return rows, entries


def _det_in_s(compiled, values, keep=None):
    """Ascending s-coefficients of det of a compiled matrix at the
    parameter values; ``keep`` as in :func:`_rows_at`, so ``keep=1`` is
    the plain integer determinant of the matrix at s = 0."""
    return det_packed(*_rows_at(compiled, values, keep))


def _abs_compiled(compiled):
    """The compiled matrix with every coefficient replaced by its absolute
    value: at |values| its row sums bound the row norms at values."""
    base, monos, singles, listed = compiled
    return ([[abs(c) for c in row] for row in base], monos,
            [(i, j, abs(c), t) for i, j, c, t in singles],
            [(i, j, [[(abs(c), t) for c, t in layer] for layer in layers])
             for i, j, layers in listed])


class _SlicedMatrix:
    """A compiled matrix whose rows are split by the fast coordinates:
    ``at`` lists the rows that involve one of them, in order.  The fixed
    and ``at`` parts are taken on the first :meth:`slice`, so a matrix
    that is only sampled unsliced never builds them."""

    def __init__(self, M, s_idx, fast):
        self.full = _compile(M, s_idx)
        self.at = [i for i, row in enumerate(M.entries)
                   if any(e.partial_degree(v) for e in row for v in fast)]
        self.parts = None

    def slice(self, top, keep=None):
        """s-coefficients of det, as a function of the points that agree
        with ``top`` off the fast coordinates and lie below it on them in
        absolute value.

        The fixed rows are evaluated and reduced once (:func:`det_slice`);
        each point then evaluates only the ``at`` rows.  Off s = 0 every
        row is packed at one shift K for the whole slice, taken from the
        fixed rows' norms and the ``at`` rows' norm bounds at ``top``.
        With no ``at`` row the determinant is constant on the slice and
        taken once; with no fixed row there is nothing to share and each
        point takes its own determinant.
        """
        dim = len(self.full[0])
        if not self.at:
            det = _det_in_s(self.full, top, keep)
            return lambda point: det
        if len(self.at) == dim:
            return lambda point: _det_in_s(self.full, point, keep)
        if self.parts is None:
            fixed = [i for i in range(dim) if i not in self.at]
            vary = _take(self.full, self.at)
            self.parts = _take(self.full, fixed), vary, _abs_compiled(vary)
        fixed, vary, vary_abs = self.parts
        rows, entries = _rows_at(fixed, top, keep)
        shift = 0
        if keep != 1:
            bound = _rows_at(vary_abs, [abs(v) for v in top], keep)
            shift = packing_shift(row_norms(rows, entries) + row_norms(*bound))
        pack_rows(rows, entries, shift)
        det = det_slice(rows, self.at)

        def at_point(point):
            vrows, ventries = _rows_at(vary, point, keep)
            pack_rows(vrows, ventries, shift)
            d = det(vrows)
            if shift:
                return unpack_digits(d, shift)
            return [d] if d else []

        return at_point


class _QuotientSampler:
    """The quotient q = det M / det M0 of a matrix pair at integer
    parameter points, both matrices compiled once: the Macaulay pair of
    :func:`perturbed_macaulay`, where q is a polynomial in the
    perturbation variable s (table index ``s_idx``), or a Canny-Emiris
    pair (H, E) (:func:`mixedres.resultant_multihomogeneous_interp`),
    with ``s_idx=None``.

    ``sampler(point, keep=None)`` takes a point (a list indexed like the
    pair's table) and gives the ascending s-coefficients of q ([q], or []
    for zero, without s) from one packed determinant per matrix
    (:func:`_det_in_s`) and an exact division (:func:`_udiv_exact`); it
    raises _BadGrid where det M0 vanishes and _Remainder where det M0
    does not divide det M.  ``keep=1`` gives only
    q(0) = det M(0) / det M0(0), taking the s-path where det M0(0) = 0.
    ``sampler.slice(top, keep)`` gives the same values as a function of
    the points of one slice: the points that agree with ``top`` off the
    ``fast`` coordinates (variable indices) and lie below it on them in
    absolute value (:meth:`_SlicedMatrix.slice`).
    """

    def __init__(self, M, M0, s_idx, fast):
        self.num = _SlicedMatrix(M, s_idx, fast)
        self.den = _SlicedMatrix(M0, s_idx, fast)

    def __call__(self, point, keep=None):
        den = _det_in_s(self.den.full, point, keep)
        if not den:
            if keep:
                return self(point)
            raise _BadGrid
        return _udiv_exact(_det_in_s(self.num.full, point, keep), den)

    def slice(self, top, keep=None):
        den_at = self.den.slice(top, keep)
        num_at = None
        s_path = None

        def sample(point):
            nonlocal num_at, s_path
            den = den_at(point)
            if not den:
                if keep:
                    if s_path is None:
                        s_path = self.slice(top)
                    return s_path(point)
                raise _BadGrid
            if num_at is None:
                num_at = self.num.slice(top, keep)
            return _udiv_exact(num_at(point), den)

        return sample


def gcp_sampler(sys, perturb_indices=None, fast=()):
    """The sampler of the perturbed resultant: :class:`_QuotientSampler`
    on the Macaulay pair of :func:`perturbed_macaulay`."""
    M, M0, wide, sname = perturbed_macaulay(sys, perturb_indices)
    return _QuotientSampler(M, M0, wide.index(sname), fast)


def _block_grid(blocks, degrees):
    """Interpolation grid for a polynomial homogeneous of degree
    ``degrees[b]`` in each name tuple ``blocks[b]``, whose first name is
    pinned to 1.

    Returns (out_vars, affine_names, block_sizes, alphas): a table with
    one block per name tuple, the names that are not pinned, their count
    per block, and the exponents over them of per-block total degree at
    most ``degrees[b]``.
    """
    out_blocks = []
    pos = 0
    for blk in blocks:
        out_blocks.append(tuple(range(pos, pos + len(blk))))
        pos += len(blk)
    out_vars = VarTable(tuple(n for blk in blocks for n in blk), out_blocks)
    block_sizes = [len(blk) - 1 for blk in blocks]
    per_block = [_simplex_points(nb, d) if nb else [()]
                 for nb, d in zip(block_sizes, degrees)]
    alphas = [sum(combo, ()) for combo in itertools.product(*per_block)]
    return (out_vars, [n for blk in blocks for n in blk[1:]], block_sizes,
            alphas)


def block_interpolation(sampler, vars, blocks, degrees, rngs):
    """The one sample-and-interpolate loop, for the GCP pair
    (:func:`gcp_block_interpolation`), for Canny-Emiris quotients
    (:func:`mixedres.resultant_multihomogeneous_interp`) and for pencil
    discriminants (:func:`hurwitz.discriminant_via_partials`).

    ``sampler(point)`` gives the ascending s-coefficients of a quantity at
    an integer point (a list indexed like ``vars``).  Its s^val
    coefficient, val being the lowest s-valuation on the grid, must be
    homogeneous of degree ``degrees[b]`` in each name tuple ``blocks[b]``.
    ``sampler.slice(top, keep)`` gives the same values as a function of
    the points that agree with ``top`` off the last block and lie below it
    there in absolute value; ``keep=1`` asks for the s^0 coefficient only.
    Both raise _BadGrid at a bad point; any other exception goes up to the
    caller.

    Each random generator in ``rngs`` drives one attempt: it draws the
    grid offsets, then the fresh point.  Only a bad point starts a new
    attempt.  The grid (:func:`_block_grid`, first name of each block
    pinned to 1) is walked one slice at a time.
    The first sample is unsliced; once a sample has a nonzero constant
    term the valuation is 0, and every later slice is sampled at s = 0
    only.  Every grid point is needed, so a bad point ends the attempt.
    The interpolant (:func:`_newton_assemble`) is checked against the
    unsliced sampler at one fresh point, random in every coordinate,
    pinned ones included, so a quantity of higher degree than ``degrees``
    fails the check.  A grid on which every sample is zero interpolates to
    the zero polynomial, checked the same way.  The quantity is the same
    in every attempt, so a failed check ends the call.

    Returns (polynomial over a table whose blocks are ``blocks``,
    valuation), or None when the check failed or every attempt hit a bad
    point.
    """
    out_vars, affine_names, block_sizes, alphas = _block_grid(blocks, degrees)
    affine_idx = [vars.index(n) for n in affine_names]
    out_idx = [vars.index(n) for n in out_vars.names]
    pinned = [vars.index(blk[0]) for blk in blocks]
    nslow = len(affine_names) - block_sizes[-1]

    def point_of(idx, values):
        point = [0] * vars.nvars
        for i in pinned:
            point[i] = 1
        for i, v in zip(idx, values):
            point[i] = v
        return point

    for attempt, rng in enumerate(rngs):
        offsets = [rng.randint(0, 64 * (attempt + 1)) for _ in affine_names]
        top = [o + degrees[-1] for o in offsets[nslow:]]
        table = []
        val = None
        at_key = None
        try:
            for alpha in alphas:
                values = [o + a for o, a in zip(offsets, alpha)]
                key = (alpha[:nslow], 1 if val == 0 else None)
                if not table:
                    q = sampler(point_of(affine_idx, values))
                else:
                    if key != at_key:
                        at_key = key
                        at = sampler.slice(
                            point_of(affine_idx, values[:nslow] + top), key[1])
                    q = at(point_of(affine_idx, values))
                table.append(q)
                v = next((i for i, c in enumerate(q) if c), None)
                if v is not None and (val is None or v < val):
                    val = v
        except _BadGrid:
            continue
        val = val or 0
        poly = _newton_assemble(
            [q[val] if val < len(q) else 0 for q in table],
            alphas, block_sizes, degrees, offsets, out_vars)
        for _ in range(4):
            fresh = [rng.randint(100, 10 ** 4) for _ in out_vars.names]
            try:
                q = sampler(point_of(out_idx, fresh))
                break
            except _BadGrid:
                continue
        else:
            continue
        if poly.evaluate(dict(zip(out_vars.names, fresh))) != \
                (q[val] if val < len(q) else 0):
            return None
        return poly, val
    return None


def gcp_block_interpolation(sys, perturb_indices, blocks, degrees, grid,
                            tag="gcp-interp"):
    """GCP trailing coefficient by evaluation and interpolation.

    Requires the parameters of ``sys`` to be exactly the names in
    ``blocks`` (a list of name tuples) and the trailing coefficient to be
    homogeneous of degree ``degrees[b]`` in each block — true when each
    block is the coefficient vector of one unperturbed polynomial, with
    degree the Bezout product of the other degrees.  Dramatically faster
    than the symbolic route: M and M0 are compiled once into integer
    structure (:func:`gcp_sampler`), every sample evaluates only their
    nonconstant entries and divides the two s-polynomials det M(s) and
    det M0(s) exactly over the integers, and the sample count is the
    monomial-count bound prod_b C(degrees[b] + len(block) - 1,
    len(block) - 1).

    The samples feed the one interpolation engine
    (:func:`block_interpolation`).  The points of a slice share every
    coordinate but those of the last block, so each slice reduces the
    rows of M and M0 that do not involve that block once
    (:meth:`_SlicedMatrix.slice`).  Once a sample proves the valuation is
    0, every later grid point takes q(0) = det M(0) / det M0(0) from plain
    integer rows, an exact division (det M0 divides det M, so a remainder
    raises InternalError); a point where det M0(0) = 0 still takes the
    s-path.  The fresh-point check takes the unsliced s-path, so it
    certifies the s = 0 values against the perturbed computation.  When
    the check fails, or every attempt of ``grid.retries`` hits a bad
    point, the call raises IndeterminateError; when the checked
    interpolant is zero, UsageError.

    Returns (trailing_coefficient, s_valuation) over a parameter table
    whose blocks are exactly ``blocks``.
    """
    sampler = gcp_sampler(sys, perturb_indices,
                          [sys.vars.index(n) for n in blocks[-1][1:]])
    out = block_interpolation(sampler, sys.vars, blocks, degrees,
                              (grid.rng(tag, a) for a in range(grid.retries)))
    if out is None:
        raise IndeterminateError(f"gcp_block_interpolation found no checked "
                                 f"interpolant in {grid.retries} attempts")
    if out[0].is_zero():
        raise UsageError("resultant vanishes identically on the system")
    return out


class _NewtonPlan:
    """Index plan of :func:`_newton_assemble` on one grid, over positions
    in the flat list ``alphas``; flat lists of small integers keep it
    compact.

    ``diffs``: pairs i, j (alpha_j = alpha_i - e_axis) in the order of the
    triangular in-place forward differences along each grid line of each
    axis in turn.  ``factorials``: pairs i, alpha_i! with alpha_i! > 1.
    ``horner``: per axis, pairs i, j (alpha_j = alpha_i + e_axis) and one
    node index k per pair, that run Horner in the falling-factorial basis
    on the nodes offset + k along each grid line of the axis.  ``exps``:
    the rehomogenized exponent of each position, or None where alpha
    exceeds a block degree.
    """

    __slots__ = ("diffs", "factorials", "horner", "exps")

    def __init__(self, alphas, block_sizes, degrees):
        # alpha as one integer in radix r, so alpha + e_axis is code + r^axis
        r = max((max(a, default=0) for a in alphas), default=0) + 2
        weights = [r ** axis for axis in range(sum(block_sizes))]
        codes = [sum(map(operator.mul, a, weights)) for a in alphas]
        pos = dict(zip(codes, range(len(codes))))
        # the local (diffs, horner pairs, horner nodes) of a line, by its
        # top index
        patterns = {}
        self.diffs = []
        self.horner = []
        for axis, step in enumerate(weights):
            pairs, nodes = [], []
            for i, a in enumerate(alphas):
                c = codes[i] + step
                if a[axis] or c not in pos:
                    continue
                line = [i]
                while c in pos:
                    line.append(pos[c])
                    c += step
                top = len(line) - 1
                if top not in patterns:
                    patterns[top] = (
                        [x for j in range(1, top + 1)
                         for k in range(top, j - 1, -1) for x in (k, k - 1)],
                        [x for k in range(top - 1, -1, -1)
                         for j in range(k, top) for x in (j, j + 1)],
                        [k for k in range(top - 1, -1, -1)
                         for j in range(k, top)])
                diffs, hpairs, hnodes = patterns[top]
                self.diffs += [line[x] for x in diffs]
                pairs += [line[x] for x in hpairs]
                nodes += hnodes
            self.horner.append((pairs, nodes))
        fact = [math.factorial(k) for k in range(r)]
        self.factorials = []
        for i, a in enumerate(alphas):
            f = math.prod(map(fact.__getitem__, a))
            if f > 1:
                self.factorials += (i, f)
        self.exps = []
        for a in alphas:
            e = []
            for nb, d in zip(block_sizes, degrees):
                part, a = a[:nb], a[nb:]
                e.append(d - sum(part))
                e.extend(part)
            self.exps.append(None if min(e) < 0 else tuple(e))


@functools.lru_cache(maxsize=16)
def _newton_plan(alphas, block_sizes, degrees):
    """The :class:`_NewtonPlan` of a grid, kept for the last few grids
    (arguments as tuples)."""
    return _NewtonPlan(alphas, block_sizes, degrees)


def _newton_assemble(values, alphas, block_sizes, degrees, offsets, out_vars):
    """Multivariate Newton forward-difference interpolation on a product of
    lattice simplices.

    ``values`` is indexed like ``alphas``, the grid of :func:`_block_grid`
    for ``block_sizes`` and ``degrees``, at ``offsets``.  The first
    variable of each block is the pinned dehomogenizing one; the other
    ``block_sizes[b]`` are interpolation axes, and the result is
    rehomogenized to the exact block degrees ``degrees``.  The work runs
    on a flat list along the cached :class:`_NewtonPlan` of the grid.
    """
    plan = _newton_plan(tuple(alphas), tuple(block_sizes), tuple(degrees))
    v = list(values)
    # The triangular in-place scheme leaves v[i] = (mixed difference
    # Delta^alpha_i)(0).
    it = iter(plan.diffs)
    for i, j in zip(it, it):
        v[i] -= v[j]
    # The interpolant is sum_alpha Delta^alpha / alpha! * prod_i
    # (x_i - o_i)(x_i - o_i - 1)...(x_i - o_i - alpha_i + 1); it has integer
    # coefficients exactly when every alpha! divides its Delta^alpha.
    it = iter(plan.factorials)
    for i, f in zip(it, it):
        if v[i]:
            v[i], r = divmod(v[i], f)
            if r:
                raise InternalError("interpolation produced non-integer "
                                    "coefficients")
    for o, (pairs, nodes) in zip(offsets, plan.horner):
        it = iter(pairs)
        for i, j, k in zip(it, it, nodes):
            v[i] -= (o + k) * v[j]
    out = {}
    for e, c in zip(plan.exps, v):
        if c:
            if e is None:
                raise InternalError("interpolant exceeds its block degree "
                                    "bound")
            out[e] = c
    return MPoly(out_vars, out)
