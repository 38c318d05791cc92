import random

import pytest

from chowforms import MPoly, VarTable, chow
from chowforms.errors import UsageError
from chowforms.mpoly import parse_poly
from chowforms.dimension import MultiprojVariety, RandomGrid
from chowforms.chow import (chow_bounds, chow_form, chow_form_ci,
                            degree_equalize, generic_lc)
from conftest import evaluate_on_plane

X2 = VarTable(("x0", "x1"))
X3 = VarTable(("x0", "x1", "x2"))
X4 = VarTable(("x0", "x1", "x2", "x3"))
GRID = RandomGrid(seed=7)


def P(text, vars):
    return parse_poly(text, vars)


def twisted_cubic():
    return MultiprojVariety(X4, [P("x0*x2 - x1^2", X4), P("x1*x3 - x2^2", X4),
                                 P("x0*x3 - x1*x2", X4)])


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class TestGroundTruths:
    def test_point_in_p1(self):
        V = MultiprojVariety(X2, [MPoly.var(X2, "x1")])
        assert chow_form_ci(V, 0).poly.to_text() == "u00"

    def test_line_in_p3(self):
        V = MultiprojVariety(X4, [MPoly.var(X4, "x2"), MPoly.var(X4, "x3")])
        assert chow_form_ci(V, 1).poly.to_text() == "u00*u11 - u01*u10"

    def test_conic_against_cross_product_oracle(self, rng):
        f = P("x0*x2 - x1^2", X3)
        cf = chow_form_ci(MultiprojVariety(X3, [f]), 1)
        assert cf.block_degrees == (2, 2)
        agree = 0
        for _ in range(50):
            u = tuple(rng.randint(-9, 9) for _ in range(3))
            v = tuple(rng.randint(-9, 9) for _ in range(3))
            # the line {U0 = U1 = 0} in the plane is the single point u x v
            p = cross(u, v)
            oracle = f.evaluate(dict(zip(X3.names, p)))
            got = evaluate_on_plane(cf, [u, v])
            assert (got == 0) == (oracle == 0)
            # same value up to a global unit: compare cross ratios instead
            agree += got == oracle or got == -oracle
        assert agree == 50

    def test_wrong_codimension_rejected(self):
        V = MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])
        with pytest.raises(UsageError):
            chow_form_ci(V, 0)


class TestDegreeEqualize:
    def test_noop_when_equal(self):
        V = MultiprojVariety(X3, [P("x0^2 + x1*x2", X3), P("x1^2", X3)])
        assert degree_equalize(V).polys == V.polys

    def test_pads_with_monomials(self):
        V = MultiprojVariety(X3, [P("x0", X3), P("x1^2", X3)])
        W = degree_equalize(V)
        assert len(W.polys) == 4  # x0 * each variable, then x1^2
        assert {f.total_degree() for f in W.polys} == {2}
        assert W.polys == (P("x0^2", X3), P("x0*x1", X3), P("x0*x2", X3),
                           P("x1^2", X3))
        # A gap of 2: x_j^2 * f for each variable x_j, in table order.
        f = P("x0 - x1", X4)
        W = degree_equalize(MultiprojVariety(X4, [f, P("x2^3", X4)]))
        assert W.polys == tuple(f * MPoly.var(X4, x, 2) for x in X4.names) \
            + (P("x2^3", X4),)


class TestGenericLc:
    def test_square_case_is_identity(self):
        V = MultiprojVariety(X4, [P("x2", X4), P("x3", X4)])
        lams = generic_lc(V, 1, GRID)
        assert len(lams) == 1
        assert lams[0] == [[1, 0], [0, 1]]

    def test_twisted_cubic_two_matrices(self):
        V = degree_equalize(twisted_cubic())
        lams = generic_lc(V, 1, GRID)
        assert len(lams) == 2
        assert all(len(lam) == 2 and len(lam[0]) == 3 for lam in lams)

    def test_span_below_codimension_fails_within_the_draw_cap(self,
                                                             monkeypatch):
        # Three multiples of one form span 1 < n - r = 2 dimensions: every
        # Lambda has coefficient rank 1, so each draw is rejected before
        # any dimension check, and the draws stop at 8 * retries.
        V = MultiprojVariety(X4, [P("x0 + x1", X4), P("2*x0 + 2*x1", X4),
                                  P("-x0 - x1", X4)])
        grid = RandomGrid(seed=7, retries=2)
        tags = []
        inner = RandomGrid.rng

        def rng(self, *tag):
            tags.append(tag)
            return inner(self, *tag)

        monkeypatch.setattr(RandomGrid, "rng", rng)
        monkeypatch.setattr(chow, "dim_leq", None)
        with pytest.raises(UsageError, match="coefficient rank"):
            generic_lc(V, 1, grid)
        assert tags == [("glc", draw) for draw in range(16)]

    def test_unequal_degrees_rejected(self):
        V = MultiprojVariety(X3, [P("x0", X3), P("x1^2", X3)])
        with pytest.raises(UsageError):
            generic_lc(V, 0, GRID)


@pytest.fixture(scope="module")
def cubic_cf():
    return chow_form(twisted_cubic(), 1, RandomGrid(seed=7))


class TestTwistedCubic:
    def test_degree_three(self, cubic_cf):
        assert cubic_cf.block_degrees == (3, 3)

    def test_vanishes_on_incident_lines(self, cubic_cf):
        rng = random.Random(42)
        checked = 0
        while checked < 20:
            t = rng.randint(-20, 20)
            p = (1, t, t * t, t ** 3)
            q = tuple(rng.randint(-9, 9) for _ in range(4))
            plane = _forms_through(p, q)
            if plane is None:
                continue
            assert evaluate_on_plane(cubic_cf, plane) == 0
            checked += 1

    def test_nonzero_on_generic_lines(self, cubic_cf):
        rng = random.Random(43)
        nonzero = 0
        for _ in range(20):
            plane = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]
            if evaluate_on_plane(cubic_cf, plane) != 0:
                nonzero += 1
        assert nonzero >= 18

    def test_seed_determinism(self, cubic_cf):
        again = chow_form(twisted_cubic(), 1, RandomGrid(seed=7))
        assert again.poly == cubic_cf.poly


class TestInvariance:
    def test_unimodular_change_of_coordinates(self, rng):
        f = P("x0*x2 - x1^2", X3)
        V = MultiprojVariety(X3, [f])
        cf = chow_form_ci(V, 1)
        for trial in range(3):
            A = _random_unimodular(rng, 3)
            Ainv = _unimodular_inverse(A)
            # transformed variety: f(A x)
            imgs = {n: sum(A[i][j] * MPoly.var(X3, X3.names[j])
                           for j in range(3))
                    for i, n in enumerate(X3.names)}
            fA = f.substitute(imgs)
            cfA = chow_form_ci(MultiprojVariety(X3, [fA]), 1)
            # Chow form transforms by U -> U * A^(-1)
            sub = {}
            for i in range(2):
                for j in range(3):
                    sub[f"u{i}{j}"] = sum(
                        Ainv[k][j] * MPoly.var(cf.poly.vars, f"u{i}{k}")
                        for k in range(3))
            expected = cf.poly.substitute(sub).normalized()
            assert cfA.poly == expected


class TestBounds:
    def test_conic_bounds(self):
        V = MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])
        b = chow_bounds(V, 1)
        assert b["degree_bound"] == 2
        assert b["macaulay_dim"] == 6  # C(2*1 + 1 + 2, 2) with d=2, n=2
        assert b["bezout_bounds"] == [1, 2, 2]

    def test_twisted_cubic_bounds(self):
        b = chow_bounds(twisted_cubic(), 1)
        assert b["degree_bound"] == 4
        assert b["macaulay_dim"] == 20

    def test_actual_degree_within_bound(self, cubic_cf):
        b = chow_bounds(twisted_cubic(), 1)
        assert all(d <= b["degree_bound"] for d in cubic_cf.block_degrees)


def _forms_through(p, q):
    """Two independent integer linear forms vanishing on span(p, q), or None."""
    from fractions import Fraction
    import math
    m = [[Fraction(v) for v in p], [Fraction(v) for v in q]]
    piv = []
    r = 0
    for c in range(4):
        pr = next((i for i in range(r, 2) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(2):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
        if r == 2:
            break
    if r < 2:
        return None
    basis = []
    for fc in (c for c in range(4) if c not in piv):
        v = [Fraction(0)] * 4
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -m[i][fc]
        den = 1
        for x in v:
            den = den * x.denominator // math.gcd(den, x.denominator)
        basis.append([int(x * den) for x in v])
    return basis


def _random_unimodular(rng, n):
    """Product of random elementary integer matrices: determinant +1."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            A[i][k] += c * A[j][k]
    return A


def _unimodular_inverse(A):
    from fractions import Fraction
    n = len(A)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        pr = next(i for i in range(c, n) if m[i][c])
        m[c], m[pr] = m[pr], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[c])]
    inv = [[m[i][n + j] for j in range(n)] for i in range(n)]
    assert all(v.denominator == 1 for row in inv for v in row)
    return [[int(v) for v in row] for row in inv]
