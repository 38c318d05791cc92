import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from chowforms import MPoly, VarTable, dimension
from chowforms.errors import InternalError, UsageError
from chowforms.mpoly import parse_poly
from chowforms.dimension import (MultiprojVariety, RandomGrid, affine_solvable,
                                 dim_leq, dim_projection, solve_affine_linear,
                                 substitute_affine)
from chowforms.resultant import (MacaulaySystem, _BadGrid, gcp_resultant,
                                 perturbed_macaulay)

X3 = VarTable(("x0", "x1", "x2"))
X4 = VarTable(("x0", "x1", "x2", "x3"))
GRID = RandomGrid(seed=20240817)


def P(text, vars):
    return parse_poly(text, vars)


def twisted_cubic():
    return MultiprojVariety(X4, [P("x0*x2 - x1^2", X4), P("x1*x3 - x2^2", X4),
                                 P("x0*x3 - x1*x2", X4)])


def proj_dim_leq(V, r):
    """dim V <= r for a projective variety, on the one-block predicate."""
    return dim_leq(list(V.polys), (V.vars.names,), [0], r, GRID)


def proj_dim(V):
    return dim_projection(list(V.polys), (V.vars.names,), [0], GRID)


class TestProjectiveZero:
    """Emptiness is dim_leq with r = -1."""

    def test_unit_ideal_empty(self):
        V = MultiprojVariety(X3, [MPoly.const(X3, 2)])
        assert proj_dim_leq(V, -1)

    def test_all_coordinate_pairs_has_points(self):
        # V(x0*x1, x0*x2, x1*x2) = the three coordinate points.
        V = MultiprojVariety(X3, [P("x0*x1", X3), P("x0*x2", X3), P("x1*x2", X3)])
        assert not proj_dim_leq(V, -1)

    def test_full_coordinate_ideal_empty(self):
        V = MultiprojVariety(X3, [MPoly.var(X3, n) for n in X3.names])
        assert proj_dim_leq(V, -1)

    def test_constructed_common_zero(self, rng):
        # forms vanishing at (1:1:1)
        for _ in range(5):
            fs = []
            for _ in range(3):
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                fs.append(MPoly(X3, {(2, 0, 0): a, (0, 2, 0): b,
                                     (0, 0, 2): -a - b}))
            V = MultiprojVariety(X3, fs)
            assert not proj_dim_leq(V, -1)


@pytest.fixture(scope="module")
def cubic_verdicts():
    """dim_leq of the twisted cubic for r = -1, ..., 3."""
    return {r: proj_dim_leq(twisted_cubic(), r) for r in range(-1, 4)}


class TestDimLeq:
    def test_hyperplane(self):
        V = MultiprojVariety(X3, [MPoly.var(X3, "x0")])
        assert proj_dim_leq(V, 1)
        assert not proj_dim_leq(V, 0)

    def test_point(self):
        V = MultiprojVariety(X3, [MPoly.var(X3, "x0"), MPoly.var(X3, "x1")])
        assert proj_dim_leq(V, 0)

    def test_twisted_cubic_is_a_curve(self, cubic_verdicts):
        assert cubic_verdicts[1]
        assert not cubic_verdicts[0]

    def test_monotone_in_r(self, cubic_verdicts):
        verdicts = [cubic_verdicts[r] for r in range(-1, 4)]
        # once true, stays true
        assert verdicts == sorted(verdicts)

    def test_bad_r_rejected(self):
        V = MultiprojVariety(X3, [MPoly.var(X3, "x0")])
        for r in (-2, 3):
            with pytest.raises(UsageError):
                proj_dim_leq(V, r)


class TestFindDimension:
    """dim_projection onto the one block is the dimension."""

    def test_empty(self):
        V = MultiprojVariety(X3, [MPoly.const(X3, 1)])
        assert proj_dim(V) == -1

    def test_hypersurface(self):
        V = MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])
        assert proj_dim(V) == 1

    def test_twisted_cubic(self):
        assert proj_dim(twisted_cubic()) == 1

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
            trailing, low = gcp_resultant(sys, perturb)
            oracle = trailing.partial_degree(trailing.vars.index("m0")) > 0
            assert got == oracle == solvable
            assert val == low
            verdicts.add(got)
            positive_valuation += val > 0
        assert verdicts == {True, False}
        assert positive_valuation > 0

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

        class Sampler:
            def __call__(self, point, keep=None):
                v = point[m]
                return [v * (v - 1) * (v - 2), v + 1][:keep]

            def slice(self, top, keep=None):
                assert top[m] == 3
                return lambda point: self(point, keep)

        monkeypatch.setattr(dimension, "gcp_sampler", lambda *args: Sampler())
        val, values = dimension._gcp_trailing(sys, None, m, 3)
        assert val == 0 and values == [0, 0, 0, 6]


# -- the integer affine solve against a rational oracle -----------------

def rref_solve(eqs, nvars):
    """Oracle: (x0, basis) over Fraction from the reduced row echelon form
    of [a | c], or None when a . x + c = 0 is inconsistent."""
    rows = [[Fraction(v) for v in a] + [Fraction(c)] for a, c in eqs]
    pivots = []
    for c in range(nvars + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    if nvars in pivots:
        return None
    x0 = [Fraction(0)] * nvars
    for row, p in zip(rows, pivots):
        x0[p] = -row[nvars]
    basis = []
    for fcol in range(nvars):
        if fcol not in pivots:
            vec = [Fraction(int(i == fcol)) for i in range(nvars)]
            for row, p in zip(rows, pivots):
                vec[p] = -row[fcol]
            basis.append(vec)
    return x0, basis


def fraction_substitute(polys, x0, basis, tvars):
    """Oracle: x = x0 + basis . t over Fraction, denominators cleared by
    their lcm D through the homogenization at w = D, each result
    primitive."""
    dens = [v.denominator for v in x0] + [v.denominator for vec in basis
                                         for v in vec]
    D = lcm(*dens) if dens else 1
    images = []
    for i in range(len(x0)):
        terms = {(0,) * tvars.nvars: int(x0[i] * D)}
        for j, vec in enumerate(basis):
            terms[tuple(int(k == j) for k in range(tvars.nvars))] = \
                int(vec[i] * D)
        images.append(MPoly(tvars, terms))
    out = []
    for f in polys:
        d = f.total_degree()
        acc = MPoly.zero(tvars)
        for exp, c in f.terms.items():
            t = MPoly.const(tvars, c * D ** (d - sum(exp)))
            for img, e in zip(images, exp):
                t = t * img ** e
            acc = acc + t
        out.append(acc.primitive())
    return out


def random_system(rng):
    """Random (eqs, nvars), often rank deficient or inconsistent."""
    nvars = rng.randint(0, 5)
    eqs = [([rng.choice((0, 0, 1, -1, 2, -3, 7)) for _ in range(nvars)],
            rng.choice((0, 0, 1, -5))) for _ in range(rng.randint(0, 5))]
    if eqs and rng.random() < 0.5:
        # A combination of the others, its constant kept or moved.
        k = [rng.randint(-3, 3) for _ in eqs]
        a = [sum(c * e[0][j] for c, e in zip(k, eqs)) for j in range(nvars)]
        const = sum(c * e[1] for c, e in zip(k, eqs))
        eqs.append((a, const + rng.choice((0, 0, 1))))
        rng.shuffle(eqs)
    return eqs, nvars


def check_solve(eqs, nvars):
    got = solve_affine_linear(eqs, nvars)
    want = rref_solve(eqs, nvars)
    if want is None:
        assert got is None
        return None
    x0, basis, den = got
    assert den > 0
    assert [Fraction(v, den) for v in x0] == want[0]
    assert [[Fraction(v, den) for v in vec] for vec in basis] == want[1]
    return got


class TestSolveAffineLinear:
    def test_unique_solution(self):
        # 2x - 1 = 0, 3y + x = 0: x = 1/2, y = -1/6.
        x0, basis, den = check_solve([([2, 0], -1), ([1, 3], 0)], 2)
        assert basis == [] and den == 6 and x0 == [3, -1]

    def test_inconsistent(self):
        assert check_solve([([1, 1], -1), ([2, 2], -3)], 2) is None
        assert check_solve([([], 4)], 0) is None

    def test_rank_deficient(self):
        # x + 2y = 3 twice over: x0 = (3, 0), basis (-2, 1).
        x0, basis, den = check_solve([([2, 4], -6), ([1, 2], -3)], 2)
        assert [Fraction(v, den) for v in x0] == [3, 0]
        assert [[Fraction(v, den) for v in vec] for vec in basis] == \
            [[-2, 1]]

    def test_empty_system(self):
        assert check_solve([], 3) == ([0, 0, 0],
                                      [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)
        assert check_solve([([0, 0], 0)], 2)[1] == [[1, 0], [0, 1]]

    def test_random_against_fraction_rref(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(400):
            eqs, nvars = random_system(rng)
            got = check_solve(eqs, nvars)
            outcomes.add("none" if got is None
                         else "unique" if not got[1] else "family")
        assert outcomes == {"none", "unique", "family"}

    def test_primitive_basis_is_the_per_vector_lcm_scaling(self):
        # Each spanning vector of a homogeneous system, divided by the gcd
        # of its entries, is the primitive integer vector of its line.
        rng = random.Random(6)
        for _ in range(200):
            eqs, nvars = random_system(rng)
            eqs = [(a, 0) for a, _ in eqs]
            _, basis, _ = solve_affine_linear(eqs, nvars)
            _, want = rref_solve(eqs, nvars)
            assert [[v // gcd(*vec) for v in vec] for vec in basis] == \
                [[v * lcm(*(w.denominator for w in vec)) for v in vec]
                 for vec in want]


class TestSubstituteAffine:
    def test_random_against_fraction_substitution(self):
        rng = random.Random(8)
        checked = 0
        while checked < 150:
            eqs, nvars = random_system(rng)
            sol = solve_affine_linear(eqs, nvars)
            if sol is None or nvars == 0:
                continue
            x0, basis, den = sol
            X = VarTable(tuple(f"x{i}" for i in range(nvars)))
            tvars = VarTable(tuple(f"t{i}" for i in range(max(len(basis),
                                                                  1))))
            polys = [MPoly(X, {tuple(rng.randint(0, 2) for _ in range(nvars)):
                               rng.randint(-9, 9) for _ in range(4)})
                     for _ in range(3)]
            got = substitute_affine(polys, x0, basis, den, tvars)
            want = fraction_substitute(polys, *rref_solve(eqs, nvars), tvars)
            assert got == want
            checked += 1

    def test_denominator_cleared_by_homogenization(self):
        # x = (1 + 2t) / 3 in x^2 - x: (1 + 2t)^2 - 3 (1 + 2t), primitive.
        X, T = VarTable(("x",)), VarTable(("t",))
        f = P("x^2 - x", X)
        got, = substitute_affine([f], [1], [[2]], 3, T)
        assert got == P("4*t^2 - 2*t - 2", T).primitive()
