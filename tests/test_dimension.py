import random

import pytest

from chowforms import MPoly, VarTable, dimension
from chowforms.errors import InternalError, UsageError
from chowforms.mpoly import parse_poly
from chowforms.dimension import (ProjectiveVariety, RandomGrid, affine_solvable,
                                 dim_leq, dim_projection, find_dimension,
                                 has_projective_zero)
from chowforms.resultant import (MacaulaySystem, _BadGrid, gcp_resultant,
                                 perturbed_macaulay)

X3 = VarTable(("x0", "x1", "x2"))
X4 = VarTable(("x0", "x1", "x2", "x3"))
GRID = RandomGrid(seed=20240817)


def P(text, vars):
    return parse_poly(text, vars)


def twisted_cubic():
    return ProjectiveVariety(X4, [P("x0*x2 - x1^2", X4), P("x1*x3 - x2^2", X4),
                                  P("x0*x3 - x1*x2", X4)])


class TestProjectiveZero:
    def test_unit_ideal_empty(self):
        V = ProjectiveVariety(X3, [MPoly.const(X3, 2)])
        assert not has_projective_zero(V, GRID)

    def test_all_coordinate_pairs_has_points(self):
        # V(x0*x1, x0*x2, x1*x2) = the three coordinate points.
        V = ProjectiveVariety(X3, [P("x0*x1", X3), P("x0*x2", X3), P("x1*x2", X3)])
        assert has_projective_zero(V, GRID)

    def test_full_coordinate_ideal_empty(self):
        V = ProjectiveVariety(X3, [MPoly.var(X3, n) for n in X3.names])
        assert not has_projective_zero(V, GRID)

    def test_constructed_common_zero(self, rng):
        # forms vanishing at (1:1:1)
        for _ in range(5):
            fs = []
            for _ in range(3):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                fs.append(MPoly(X3, {(2, 0, 0): a, (0, 2, 0): b,
                                     (0, 0, 2): -a - b}))
            V = ProjectiveVariety(X3, fs)
            assert has_projective_zero(V, GRID)

class TestDimLeq:
    def test_hyperplane(self):
        V = ProjectiveVariety(X3, [MPoly.var(X3, "x0")])
        assert dim_leq(V, 1, GRID)
        assert not dim_leq(V, 0, GRID)

    def test_point(self):
        V = ProjectiveVariety(X3, [MPoly.var(X3, "x0"), MPoly.var(X3, "x1")])
        assert dim_leq(V, 0, GRID)

    def test_twisted_cubic_is_a_curve(self):
        V = twisted_cubic()
        assert dim_leq(V, 1, GRID)
        assert not dim_leq(V, 0, GRID)

    def test_monotone_in_r(self):
        V = twisted_cubic()
        verdicts = [dim_leq(V, r, GRID) for r in range(4)]
        # once true, stays true
        assert verdicts == sorted(verdicts)

    def test_bad_r_rejected(self):
        V = ProjectiveVariety(X3, [MPoly.var(X3, "x0")])
        with pytest.raises(UsageError):
            dim_leq(V, 5, GRID)


class TestFindDimension:
    def test_empty(self):
        V = ProjectiveVariety(X3, [MPoly.const(X3, 1)])
        assert find_dimension(V, GRID) == -1

    def test_hypersurface(self):
        V = ProjectiveVariety(X3, [P("x0*x2 - x1^2", X3)])
        assert find_dimension(V, GRID) == 1

    def test_twisted_cubic(self):
        assert find_dimension(twisted_cubic(), GRID) == 1

class TestAffineSolvable:
    def test_inconsistent_linear(self):
        T = VarTable(("t0", "t1"))
        eqs = [P("t0 + t1 - 1", T), P("t0 + t1 - 2", T)]
        assert not affine_solvable(eqs, T, GRID)

    def test_unique_solution(self):
        T = VarTable(("t0", "t1"))
        eqs = [P("t0 - 1", T), P("t1 - 2", T), P("t0*t1 - 2", T)]
        assert affine_solvable(eqs, T, GRID)

    def test_unique_solution_contradicted(self):
        T = VarTable(("t0", "t1"))
        eqs = [P("t0 - 1", T), P("t1 - 2", T), P("t0*t1 - 5", T)]
        assert not affine_solvable(eqs, T, GRID)

    def test_plane_curve(self):
        T = VarTable(("t0", "t1"))
        assert affine_solvable([P("t0^2 + t1^2 - 1", T)], T, GRID)

    def test_two_conics(self):
        T = VarTable(("t0", "t1"))
        eqs = [P("t0^2 + t1^2 - 25", T), P("t0 - 3", T)]
        assert affine_solvable(eqs, T, GRID)


class TestDimProjection:
    def inner_product(self):
        vars = VarTable(("x0", "x1", "y0", "y1"), blocks=((0, 1), (2, 3)))
        f = P("x0*y0 + x1*y1", vars)
        return [f], [("x0", "x1"), ("y0", "y1")]

    def product_of_conics(self):
        names = ("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3")
        vars = VarTable(names, blocks=((0, 1, 2, 3), (4, 5, 6, 7)))
        polys = [P("x3", vars), P("x0*x2 - x1^2", vars),
                 P("y3", vars), P("y0^2 + y1^2 - y2^2", vars)]
        return polys, [names[:4], names[4:]]

    def test_inner_product_projections(self):
        polys, blocks = self.inner_product()
        assert dim_projection(polys, blocks, [0], GRID) == 1
        assert dim_projection(polys, blocks, [1], GRID) == 1
        assert dim_projection(polys, blocks, [0, 1], GRID) == 1

    def test_product_of_conics_projections(self):
        polys, blocks = self.product_of_conics()
        assert dim_projection(polys, blocks, [0], GRID) == 1
        assert dim_projection(polys, blocks, [1], GRID) == 1
        assert dim_projection(polys, blocks, [0, 1], GRID) == 2

    def test_projection_table_is_monotone_and_submodular(self):
        polys, blocks = self.product_of_conics()
        d = {(): 0}
        d[(0,)] = dim_projection(polys, blocks, [0], GRID) + 1
        d[(1,)] = dim_projection(polys, blocks, [1], GRID) + 1
        d[(0, 1)] = dim_projection(polys, blocks, [0, 1], GRID) + 2
        # cone dimensions: monotone and submodular
        assert d[()] <= d[(0,)] <= d[(0, 1)]
        assert d[()] <= d[(1,)] <= d[(0, 1)]
        assert d[(0,)] + d[(1,)] >= d[(0, 1)] + d[()]


T2 = VarTable(("t0", "t1"))


def random_dense(rng, vars, d):
    """Dense bivariate polynomial of total degree d, nonzero coefficients."""
    return MPoly(vars, {(i, j): rng.randint(-5, 5) or 1
                        for i in range(d + 1) for j in range(d + 1 - i)})


def random_form(rng, vars, d):
    """Dense ternary form of degree d, nonzero coefficients."""
    return MPoly(vars, {(i, j, d - i - j): rng.randint(-5, 5) or 1
                        for i in range(d + 1) for j in range(d + 1 - i)})


def square_affine_systems(rng):
    """(polys, solvable) for square systems in two variables that reach
    the resultant step of _affine_round directly."""
    out = []
    for _ in range(8):
        # Planted integer zero.
        p = {n: rng.randint(-3, 3) for n in T2.names}
        polys = [random_dense(rng, T2, rng.randint(2, 3)) for _ in range(2)]
        out.append(([f - f.evaluate(p) for f in polys], True))
    for _ in range(8):
        # f and a*f + c have no common zero.
        f = random_dense(rng, T2, rng.randint(2, 3))
        out.append(([f, rng.randint(1, 4) * f + rng.choice((-3, -1, 2, 5))],
                    False))
    for _ in range(8):
        # A common affine line L = 0 (a positive-dimensional component).
        L, g, h = (random_dense(rng, T2, 1) for _ in range(3))
        out.append(([L * g, L * h], True))
    for _ in range(8):
        # Generic dense polynomials: finitely many affine zeros.
        out.append(([random_dense(rng, T2, rng.randint(2, 3))
                     for _ in range(2)], True))
    return out


class TestSampledVerdicts:
    """The sampled GCP verdicts against the symbolic trailing coefficient."""

    def test_affine_verdict_matches_symbolic(self, monkeypatch):
        calls = []
        inner = dimension._gcp_trailing

        def recorded(sys, perturb_indices=None, var=None, degree=0):
            out = inner(sys, perturb_indices, var, degree)
            calls.append((sys, perturb_indices, var, out))
            return out

        monkeypatch.setattr(dimension, "_gcp_trailing", recorded)
        rng = random.Random(7)
        verdicts = set()
        positive_valuation = 0
        cases = square_affine_systems(rng)
        assert len(cases) >= 30
        for polys, solvable in cases:
            got = dimension._affine_round(polys, T2, random.Random(1), 50)
            (sys, perturb, var, (val, values)), = calls
            calls.clear()
            # The sampled variable m0 occurs only in the last polynomial,
            # so the minor does not involve it.
            _, M0, _, _ = perturbed_macaulay(sys, perturb)
            assert not any(e.partial_degree(var) for r in M0.entries for e in r)
            trailing, low = gcp_resultant(sys, perturb, with_valuation=True)
            oracle = trailing.partial_degree(trailing.vars.index("m0")) > 0
            assert got == oracle == solvable
            assert val == low
            verdicts.add(got)
            positive_valuation += val > 0
        assert verdicts == {True, False}
        assert positive_valuation > 0

    def test_projective_valuation_matches_symbolic(self, monkeypatch):
        calls = []
        inner = dimension._gcp_trailing

        def recorded(sys, *args):
            out = inner(sys, *args)
            calls.append((sys, out))
            return out

        monkeypatch.setattr(dimension, "_gcp_trailing", recorded)
        rng = random.Random(3)
        X3 = VarTable(("x0", "x1", "x2"))
        vals = set()
        for trial in range(12):
            fs = [random_form(rng, X3, 2) for _ in range(3)]
            if trial % 2:
                # Drop the x2^2 terms: three conics through (0:0:1).
                fs = [MPoly(X3, {e: c for e, c in f.terms.items()
                                 if e != (0, 0, 2)}) for f in fs]
            dimension._proj_round(fs, X3, rng, 50)
            (sys, (val, values)), = calls
            calls.clear()
            _, low = gcp_resultant(sys, with_valuation=True)
            assert val == low
            vals.add(val > 0)
        assert vals == {True, False}

    def test_vanishing_minor_raises(self, monkeypatch):
        # det M0 does not depend on the sampled variable, so a minor that
        # vanishes at the first sample vanishes identically.
        T = VarTable(("x0", "x1", "m"))
        sys = MacaulaySystem([P("x0 - x1", T), P("x0 + m*x1", T)],
                             ("x0", "x1"))
        tried = []

        def sample(point, keep=None):
            tried.append(point[T.index("m")])
            raise _BadGrid

        monkeypatch.setattr(dimension, "gcp_sampler", lambda *args: sample)
        with pytest.raises(InternalError, match="minor vanished"):
            dimension._gcp_trailing(sys, None, T.index("m"), 3)
        assert tried == [0]

    def test_takes_degree_plus_one_samples(self, monkeypatch):
        # q(v) = v(v-1)(v-2) + (v+1) s: the constant term vanishes at the
        # first three samples only, so three samples would give
        # valuation 1.
        T = VarTable(("x0", "x1", "m"))
        sys = MacaulaySystem([P("x0 - x1", T), P("x0 + m*x1", T)],
                             ("x0", "x1"))
        m = T.index("m")

        def sample(point, keep=None):
            v = point[m]
            return [v * (v - 1) * (v - 2), v + 1][:keep]

        monkeypatch.setattr(dimension, "gcp_sampler", lambda *args: sample)
        val, values = dimension._gcp_trailing(sys, None, m, 3)
        assert val == 0 and values == [0, 0, 0, 6]
