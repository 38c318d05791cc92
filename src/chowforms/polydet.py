"""Determinants of matrices with polynomial entries.

Engines, in increasing sophistication:

* :func:`det_bareiss` — fraction-free elimination directly over MPoly
  entries with exact division; the workhorse for symbolic resultants.
* :func:`det_packed` — a matrix of univariate integer polynomials
  (given as coefficient lists) by one integer Bareiss determinant at
  z = 2^K, read back as balanced base-2^K digits; a matrix of constant
  polynomials goes to :func:`det_integer` unpacked.
* :func:`det_slice` — determinants of integer matrices that share all
  rows but a few: one fraction-free Gauss–Jordan reduction of the shared
  rows (:func:`ff_reduce`), then per matrix the Bareiss elimination
  continued on its few other rows (Sylvester's identity).
  :func:`rank_integer` counts the pivots of the same elimination.
"""

from __future__ import annotations

import math

from .errors import InternalError, UsageError
from .mpoly import MPoly, divexact, unpack_digits


class PolyMatrix:
    """Immutable square matrix of MPoly entries over one shared VarTable."""

    __slots__ = ("dim", "vars", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        m = len(rows)
        if m == 0 or any(len(r) != m for r in rows):
            raise UsageError("matrix must be square and nonempty")
        vars = rows[0][0].vars
        for r in rows:
            for e in r:
                if e.vars != vars:
                    raise UsageError("matrix entries use different VarTables")
        self.dim = m
        self.vars = vars
        self.entries = rows

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(str(e) for e in r) + "]" for r in self.entries)
        return f"PolyMatrix(dim={self.dim},\n{body})"


def det_integer(rows, prev=1):
    """Fraction-free Bareiss determinant of an integer matrix.

    ``prev`` continues an elimination past fixed pivots whose leading
    minor is ``prev``: ``rows`` then hold the minors bordering those
    pivots, and the result is the determinant of the whole matrix
    (Sylvester's identity).  Bordered minors divide exactly at every step;
    a first step that leaves a remainder raises InternalError.
    """
    a = [list(r) for r in rows]
    m = len(a)
    sign = 1
    check = prev != 1
    for k in range(m - 1):
        piv = next((i for i in range(k, m) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, m):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            if check:
                for j in range(k + 1, m):
                    row_i[j], r = divmod(pk * row_i[j] - aik * row_k[j], prev)
                    if r:
                        raise InternalError("bordered minors are not "
                                            "divisible by their pivot")
            else:
                for j in range(k + 1, m):
                    row_i[j] = (pk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        check = False
        prev = pk
    return sign * a[m - 1][m - 1]


def gauss_jordan(rows):
    """Fraction-free Gauss–Jordan elimination with column pivoting.

    Columns are scanned left to right; column c becomes a pivot when some
    row not yet used has a nonzero entry there, i.e. when it is
    independent of the pivot columns before it.  Every division is exact
    (Bareiss).  Returns (pivots, sign, prev, tableau); at full row rank
    the tableau is prev * A^-1 F with A = F[:, pivots] and
    prev = sign * det A, ``sign`` recording the row swaps.  At rank
    r = len(pivots) the last rows are zero and the first r rows are prev
    times the reduced row echelon form of F: row i holds prev at
    pivots[i] and 0 at every other pivot column.
    """
    t = [list(r) for r in rows]
    k = len(t)
    ncols = len(t[0]) if t else 0
    pivots = []
    sign = 1
    prev = 1
    c = 0
    for r in range(k):
        piv = None
        while c < ncols:
            piv = next((i for i in range(r, k) if t[i][c]), None)
            if piv is not None:
                break
            c += 1
        if piv is None:
            break
        if piv != r:
            t[r], t[piv] = t[piv], t[r]
            sign = -sign
        rk = t[r]
        pk = rk[c]
        for i in range(k):
            if i == r:
                continue
            f = t[i][c]
            if f:
                t[i] = [(pk * u - f * v) // prev for u, v in zip(t[i], rk)]
            elif pk != prev:
                t[i] = [pk * u // prev for u in t[i]]
        prev = pk
        pivots.append(c)
        c += 1
    return pivots, sign, prev, t


def ff_reduce(rows):
    """Fraction-free reduction of a k x m integer matrix F of rank k.

    Returns (P, d, X): the pivot columns P (ascending, each independent of
    the columns before it), d = det F[:, P] with F's rows in their given
    order, and the integer k x (m - k) matrix X = d * F[:, P]^-1 F[:, Q]
    over the other columns Q, ascending.  Returns None when rank F < k.
    An empty F gives ([], 1, []).
    """
    pivots, sign, prev, t = gauss_jordan(rows)
    if len(pivots) < len(t):
        return None
    pset = set(pivots)
    other = [c for c in range(len(t[0]) if t else 0) if c not in pset]
    return pivots, sign * prev, [[sign * row[c] for c in other] for row in t]


def rank_integer(rows):
    """Rank over Q of an integer matrix: the pivot count of
    :func:`ff_reduce`'s elimination."""
    return len(gauss_jordan(rows)[0])


def det_slice(fixed, at):
    """Determinant of the integer matrices that share the rows ``fixed``.

    Such a matrix M has the rows ``fixed`` in order, with varying rows V
    at the (ascending) row positions ``at``.  The fixed rows are reduced
    once (:func:`ff_reduce`: pivot columns P, d = det F[:, P] and
    X = d F[:, P]^-1 F[:, Q]).  The entries of S = d V_Q - V_P X are the
    minors bordering F[:, P], which Bareiss's elimination would hold after
    the fixed pivots, so the returned function takes V and continues that
    elimination on S from the pivot d (:func:`det_integer`):
    det M = sigma * det M', M' being M with V moved to the bottom and its
    columns in the order P + Q, and sigma the sign of both moves.  When
    the fixed rows are linearly dependent, det M = 0 for every V.  Every
    division is exact; a remainder means a broken invariant and raises
    InternalError.
    """
    red = ff_reduce(fixed)
    if red is None:
        return lambda vary: 0
    pivots, d, X = red
    m = len(fixed) + len(at)
    pset = set(pivots)
    other = [c for c in range(m) if c not in pset]
    swaps = sum(len(fixed) - (i - n) for n, i in enumerate(at))
    swaps += sum(q < p for p in pivots for q in other)
    sigma = -1 if swaps % 2 else 1
    if not at:
        return lambda vary: sigma * d
    pairs = list(zip(pivots, X))

    def det(vary):
        schur = []
        for v in vary:
            row = [d * v[q] for q in other]
            for p, x in pairs:
                a = v[p]
                if a:
                    row = [s - a * y for s, y in zip(row, x)]
            schur.append(row)
        return sigma * det_integer(schur, d)

    return det


def det_bareiss(M):
    """Fraction-free Bareiss determinant over MPoly entries.

    Pivots are chosen among nonzero candidates by fewest terms to slow
    coefficient growth; every interior division is exact by construction.
    """
    a = [list(r) for r in M.entries]
    m = M.dim
    vars = M.vars
    sign = 1
    prev = MPoly.const(vars, 1)
    for k in range(m - 1):
        piv = None
        best = None
        for i in range(k, m):
            if not a[i][k].is_zero():
                size = len(a[i][k].terms)
                if best is None or size < best:
                    best, piv = size, i
        if piv is None:
            return MPoly.zero(vars)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        for i in range(k + 1, m):
            aik = a[i][k]
            for j in range(k + 1, m):
                num = pk * a[i][j] - aik * a[k][j]
                a[i][j] = divexact(num, prev)
            a[i][k] = MPoly.zero(vars)
        prev = pk
    d = a[m - 1][m - 1]
    return -d if sign < 0 else d


def det_packed(base, entries):
    """Ascending coefficient list of the determinant of a matrix of
    univariate integer polynomials, from one integer determinant.

    ``base`` is an integer matrix holding the constant entries (and zero
    at every listed position); ``entries`` lists (i, j, coeffs) for the
    other entries, coefficients ascending.  No coefficient of the
    determinant exceeds H, the product of the row 1-norms taken over all
    coefficients, so with 2^K > 2H they are the balanced base-2^K digits
    of the determinant at z = 2^K (Kronecker substitution).  When no entry
    has more than one coefficient the matrix is an integer matrix, and the
    single determinant is taken on it as it stands, with no norms, shift
    or digit read.  High zero coefficients are dropped; a zero determinant
    gives [].
    """
    rows = [list(r) for r in base]
    for i, j, coeffs in entries:
        if len(coeffs) > 1:
            break
        if coeffs:
            rows[i][j] = coeffs[0]
    else:
        det = det_integer(rows)
        return [det] if det else []
    # Every listed entry is packed below, overwriting what the loop wrote.
    shift = packing_shift(row_norms(base, entries))
    pack_rows(rows, entries, shift)
    return unpack_digits(det_integer(rows), shift)


def row_norms(base, entries):
    """Row 1-norms over all coefficients of the matrix ``(base, entries)``
    of :func:`det_packed`."""
    norms = [sum(map(abs, row)) for row in base]
    for i, _, coeffs in entries:
        norms[i] += sum(map(abs, coeffs))
    return norms


def packing_shift(norms):
    """K with 2^K > 2H, H the product of the row norms: the digit width
    that reads every determinant coefficient exactly.  Norms that bound
    the true ones give a wider K and the same read."""
    return math.prod(norms).bit_length() + 1


def pack_rows(rows, entries, shift):
    """Write each listed entry of ``entries`` into ``rows`` at z = 2^shift."""
    for i, j, coeffs in entries:
        v = 0
        for c in reversed(coeffs):
            v = (v << shift) + c
        rows[i][j] = v
