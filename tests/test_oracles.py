"""Integer determinant kernels against sympy's Matrix.det."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms.polydet import det_integer, det_packed

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
