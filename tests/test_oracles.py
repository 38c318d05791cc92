"""Determinant, resultant and gcd kernels against sympy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms import MPoly, VarTable
from chowforms.errors import UsageError
from chowforms.mpoly import divexact, gcd, square_free_part
from chowforms.polydet import PolyMatrix, det_bareiss, det_integer, det_packed
from chowforms.resultant import MacaulaySystem, resultant_dense

sympy = pytest.importorskip("sympy")

S = sympy.Symbol("s")


@st.composite
def integer_matrices(draw, max_dim=6, bound=50):
    m = draw(st.integers(1, max_dim))
    return [[draw(st.integers(-bound, bound)) for _ in range(m)]
            for _ in range(m)]


@st.composite
def packed_matrices(draw, max_dim=4, bound=20):
    """(base, entries, coefficient matrix) for det_packed.

    Entries have at most ``width`` coefficients; width 1 is the
    integer-matrix shortcut.  Each entry goes either into the base (a
    constant) or into the listed entries, which may hold [] and [c].
    """
    m = draw(st.integers(1, max_dim))
    width = draw(st.integers(1, 3))
    coeff = st.integers(-bound, bound)
    base = [[0] * m for _ in range(m)]
    entries = []
    cells = []
    for i in range(m):
        row = []
        for j in range(m):
            coeffs = draw(st.lists(coeff, max_size=width))
            if len(coeffs) == 1 and draw(st.booleans()):
                base[i][j] = coeffs[0]
            else:
                entries.append((i, j, coeffs))
            row.append(coeffs)
        cells.append(row)
    return base, entries, cells


def sympy_coeffs(cells):
    """Ascending s-coefficients of det, high zeros dropped."""
    M = sympy.Matrix([[sum(c * S ** k for k, c in enumerate(coeffs))
                       for coeffs in row] for row in cells])
    det = sympy.expand(M.det(method="berkowitz"))
    if det == 0:
        return []
    return [int(c) for c in reversed(sympy.Poly(det, S).all_coeffs())]


@settings(max_examples=80, deadline=None)
@given(integer_matrices())
def test_det_integer_matches_sympy(rows):
    assert det_integer(rows) == sympy.Matrix(rows).det(method="bareiss")


@settings(max_examples=80, deadline=None)
@given(packed_matrices())
def test_det_packed_matches_sympy(case):
    base, entries, cells = case
    assert det_packed(base, entries) == sympy_coeffs(cells)


@settings(max_examples=40, deadline=None)
@given(packed_matrices(max_dim=5, bound=10 ** 6))
def test_det_packed_large_coefficients_match_sympy(case):
    base, entries, cells = case
    assert det_packed(base, entries) == sympy_coeffs(cells)


XY = VarTable(("x", "y"))
XYA = VarTable(("x0", "x1", "a"))


def to_sympy(f):
    gens = sympy.symbols(f.vars.names)
    return sympy.Add(*[c * sympy.Mul(*[g ** e for g, e in zip(gens, exp)])
                       for exp, c in f.terms.items()])


def from_sympy(expr, vars):
    poly = sympy.Poly(expr, *sympy.symbols(vars.names))
    return MPoly(vars, {exp: int(c) for exp, c in poly.terms()})


@st.composite
def polys(draw, vars=XY, max_deg=3, max_terms=5, bound=9):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in range(vars.nvars))
        if sum(exp) <= max_deg:
            terms[exp] = draw(st.integers(-bound, bound))
    return MPoly(vars, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(polys(max_deg=2, max_terms=3), min_size=m,
                                max_size=m), min_size=m, max_size=m)))
def test_det_bareiss_matches_sympy(rows):
    want = sympy.Matrix([[to_sympy(e) for e in r] for r in rows]).det(
        method="berkowitz")
    assert det_bareiss(PolyMatrix(rows)) == from_sympy(sympy.expand(want), XY)


@st.composite
def binary_forms(draw, max_deg=3):
    """A form in (x0, x1) of degree d >= 1 whose coefficients are affine in
    the parameter a, with nonzero x0^d coefficient."""
    d = draw(st.integers(1, max_deg))
    terms = {}
    for i in range(d + 1):
        c0, c1 = draw(st.integers(-9, 9)), draw(st.integers(-3, 3))
        if i == 0 and c0 == c1 == 0:
            c0 = 1
        terms[(d - i, i, 0)] = c0
        terms[(d - i, i, 1)] = c1
    return MPoly(XYA, terms)


@settings(max_examples=60, deadline=None)
@given(binary_forms(), binary_forms())
def test_resultant_dense_matches_sympy(f, g):
    sys = MacaulaySystem([f, g], ("x0", "x1"))
    got = resultant_dense(sys)
    x0, x1, _ = sympy.symbols(XYA.names)
    want = sympy.resultant(to_sympy(f).subs(x1, 1), to_sympy(g).subs(x1, 1),
                           x0)
    want = from_sympy(sympy.expand(want), XYA)
    want = MPoly(got.vars, {exp[2:]: c for exp, c in want.terms.items()})
    assert got == want or got == -want


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_gcd_matches_sympy(f, g, h):
    # A shared factor h makes the gcd nontrivial more often.
    f, g = f * h, g * h
    if f.is_zero() and g.is_zero():
        return
    want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)), XY)
    assert gcd(f, g).normalized() == want.normalized()


@settings(max_examples=60, deadline=None)
@given(polys(max_deg=2), polys(max_deg=2))
def test_square_free_part_matches_sympy(f, g):
    f = f * f * g
    if f.is_zero():
        return
    want = from_sympy(sympy.Poly(to_sympy(f), *sympy.symbols(XY.names))
                      .sqf_part().as_expr(), XY)
    assert square_free_part(f) == want.normalized()


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys(max_terms=2))
def test_divexact_matches_sympy(f, g, h):
    if g.is_zero():
        return
    num = f * g + h

    def over_zz(p):
        return sympy.Poly(to_sympy(p), *sympy.symbols(XY.names), domain="ZZ")

    try:
        q = over_zz(num).exquo(over_zz(g), auto=False)
    except sympy.ExactQuotientFailed:
        with pytest.raises(UsageError):
            divexact(num, g)
    else:
        assert divexact(num, g) == from_sympy(q.as_expr(), XY)
