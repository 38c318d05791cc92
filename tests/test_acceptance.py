"""End-to-end acceptance checks: every headline guarantee of the package
verified against independent oracles, ground truths and closed-form bounds."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from chowforms import MPoly, VarTable
from chowforms.chow import chow_bounds, chow_form, chow_form_ci
from chowforms.cli import main
from chowforms.dimension import MultiprojVariety, RandomGrid
from chowforms.errors import DegenerateError
from chowforms.hurwitz import hurwitz_form
from chowforms.mpoly import parse_poly
from chowforms.multiproj import (chow_hypersurface_formats, dim_table,
                                 hurwitz_hypersurface_formats, multi_bounds,
                                 multi_chow_form_ci, multidegree, support)
from chowforms.polydet import det_integer, det_packed
from chowforms.polymatroid import Polymatroid
from chowforms.resultant import MultiResSystem, gcp_resultant, resultant_dense
from conftest import (det_cofactor, evaluate_on_plane, kronecker_coeffs,
                      kronecker_matrix)
from test_multiproj import box_variety, check_against_oracle

X2 = VarTable(("x0", "x1"))
X3 = VarTable(("x0", "x1", "x2"))
X4 = VarTable(("x0", "x1", "x2", "x3"))
P3P3 = VarTable(("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"),
                ((0, 1, 2, 3), (4, 5, 6, 7)))
GRID = RandomGrid(seed=11)


def P(text, vars):
    return parse_poly(text, vars)


def binform(coeffs, vars=X2):
    d = len(coeffs) - 1
    return MPoly(vars, {(d - i, i): c for i, c in enumerate(coeffs) if c})


def sylvester_det(a, b):
    d, e = len(a) - 1, len(b) - 1
    m = d + e
    rows = [[0] * i + list(a) + [0] * (m - i - d - 1) for i in range(e)]
    rows += [[0] * i + list(b) + [0] * (m - i - e - 1) for i in range(d)]
    return det_integer(rows)


def rand_binform(rng, d, bits=8):
    c = [rng.randint(-(2 ** bits - 1), 2 ** bits - 1) for _ in range(d + 1)]
    if c[0] == 0:
        c[0] = 1
    if c[-1] == 0:
        c[-1] = 1
    return c


def rand_poly(rng, vars, max_deg, max_coeff_bits, max_terms):
    terms = {}
    bound = 2 ** max_coeff_bits - 1
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * vars.nvars
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(vars.nvars)] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + rng.randint(-bound, bound)
    f = MPoly(vars, terms)
    return f if not f.is_zero() else MPoly.const(vars, 1)


def twisted_cubic():
    return MultiprojVariety(X4, [P("x0*x2 - x1^2", X4),
                                 P("x1*x3 - x2^2", X4),
                                 P("x0*x3 - x1*x2", X4)])


def conic_product():
    polys = [P("x3", P3P3), P("x0*x2 - x1^2", P3P3),
             P("y3", P3P3), P("y0^2 + y1^2 - y2^2", P3P3)]
    return MultiprojVariety(P3P3, polys, dim=2)


PRODUCT_DIMS = {(0,): 1, (1,): 1, (0, 1): 2}


@pytest.fixture(scope="module")
def conic_cf():
    V = MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])
    return chow_form_ci(V, 1, GRID)


@pytest.fixture(scope="module")
def line_cf():
    V = MultiprojVariety(X4, [P("x2", X4), P("x3", X4)])
    return chow_form_ci(V, 1, GRID)


@pytest.fixture(scope="module")
def cubic_cf():
    return chow_form(twisted_cubic(), 1, GRID)


@pytest.fixture(scope="module")
def parabola_hf():
    V = MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])
    return hurwitz_form(V, 1, GRID)


@pytest.fixture(scope="module")
def circle_hf():
    V = MultiprojVariety(X3, [P("x0^2 + x1^2 - x2^2", X3)])
    return hurwitz_form(V, 1, GRID)


class TestSylvesterOracle:
    """Criterion 1: dense resultants of binary forms versus the Sylvester
    determinant, exactly, on 200 random pairs."""

    def test_batch_of_200(self):
        rng = random.Random(101)
        for _ in range(200):
            a = rand_binform(rng, rng.randint(1, 4))
            b = rand_binform(rng, rng.randint(1, 4))
            sys = MultiResSystem([binform(a), binform(b)], [("x0", "x1")])
            r = resultant_dense(sys).constant_value()
            s = sylvester_det(a, b)
            assert r == s or r == -s


class TestKroneckerDeterminant:
    """Criterion 2: packed single-variable determinants agree with cofactor
    expansion on 30 random 4x4 polynomial matrices."""

    def test_batch_of_30(self):
        from chowforms.polydet import PolyMatrix
        rng = random.Random(102)
        xyz = VarTable(("x", "y", "z"))
        for _ in range(30):
            rows = [[rand_poly(rng, xyz, 2, 4, 4) for _ in range(4)]
                    for _ in range(4)]
            M = PolyMatrix(rows)
            caps = [8, 8, 8]  # 4 factors of per-variable degree <= 2
            assert det_packed(*kronecker_matrix(M, caps)) == \
                kronecker_coeffs(det_cofactor(M), caps)


class TestChowGroundTruths:
    """Criterion 3: closed-form Chow forms of a line, a point and a conic."""

    def test_line_in_p3(self, line_cf):
        assert line_cf.poly.to_text() == "u00*u11 - u01*u10"

    def test_point_in_p2(self):
        V = MultiprojVariety(X3, [P("x1", X3), P("x2", X3)])
        assert chow_form_ci(V, 0, GRID).poly.to_text() == "u00"

    def test_conic_cross_product_oracle(self, conic_cf):
        # The line {u0.x = u1.x = 0} in the plane is the single point
        # u0 x u1, so the Chow form is f(u0 x u1) up to sign.
        U = conic_cf.poly.vars
        u = [[MPoly.var(U, f"u{i}{k}") for k in range(3)] for i in range(2)]
        cx = [u[0][1] * u[1][2] - u[0][2] * u[1][1],
              u[0][2] * u[1][0] - u[0][0] * u[1][2],
              u[0][0] * u[1][1] - u[0][1] * u[1][0]]
        f = P("x0*x2 - x1^2", X3)
        oracle = f.substitute(dict(zip(X3.names, cx)), target=U)
        assert conic_cf.poly == oracle.normalized()


class TestTwistedCubic:
    """Criterion 4: the general-position pipeline on the twisted cubic
    (three generators, codimension two)."""

    def test_per_block_degree_three_within_bound(self, cubic_cf):
        assert cubic_cf.block_degrees == (3, 3)
        b = chow_bounds(twisted_cubic(), 1)
        assert all(d <= b["degree_bound"] == 4 for d in cubic_cf.block_degrees)

    def test_vanishes_on_100_incident_lines(self, cubic_cf):
        rng = random.Random(104)
        checked = 0
        while checked < 100:
            t = rng.randint(-30, 30)
            p = (1, t, t * t, t ** 3)
            q = tuple(rng.randint(-9, 9) for _ in range(4))
            plane = _forms_through(p, q)
            if plane is None:
                continue
            assert evaluate_on_plane(cubic_cf, plane) == 0
            checked += 1

    def test_nonzero_on_100_random_lines(self, cubic_cf):
        rng = random.Random(105)
        checked = 0
        while checked < 100:
            plane = [[rng.randint(-99, 99) for _ in range(4)]
                     for _ in range(2)]
            # Skip the measure-zero event of an accidentally incident line.
            if evaluate_on_plane(cubic_cf, plane) == 0:
                continue
            checked += 1


class TestSpecialLinearInvariance:
    """Criterion 5: mixing the u-blocks by a determinant-one integer matrix
    fixes every computed Chow form exactly."""

    def _check(self, cf, n, rng):
        U = cf.poly.vars
        for _ in range(20):
            A = _random_unimodular(rng, 2)
            sub = {}
            for i in range(2):
                for k in range(n):
                    sub[f"u{i}{k}"] = sum(
                        A[i][j] * MPoly.var(U, f"u{j}{k}") for j in range(2))
            assert cf.poly.substitute(sub) == cf.poly

    def test_line(self, line_cf):
        self._check(line_cf, 4, random.Random(106))

    def test_conic(self, conic_cf):
        self._check(conic_cf, 3, random.Random(107))

    def test_twisted_cubic(self, cubic_cf):
        self._check(cubic_cf, 4, random.Random(108))


class TestHurwitzDualConics:
    """Criterion 6: dual conics in closed form, cross-checked against
    explicit tangent and secant lines."""

    def test_parabola_dual(self, parabola_hf):
        expected = P("u11^2 - 4*u10*u12", parabola_hf.poly.vars)
        assert parabola_hf.poly == expected.normalized()

    def test_circle_dual(self, circle_hf):
        expected = P("u10^2 + u11^2 - u12^2", circle_hf.poly.vars)
        assert circle_hf.poly == expected.normalized()

    def test_parabola_tangency_oracle(self, parabola_hf):
        rng = random.Random(109)
        for _ in range(25):
            t = rng.randint(-20, 20)
            # Tangent to x0*x2 = x1^2 at (1 : t : t^2).
            tangent = {"u10": t * t, "u11": -2 * t, "u12": 1}
            assert parabola_hf.poly.evaluate(tangent) == 0
            s = t + rng.randint(1, 9)
            # Secant through (1 : t : t^2) and (1 : s : s^2).
            secant = {"u10": t * s, "u11": -(t + s), "u12": 1}
            assert parabola_hf.poly.evaluate(secant) != 0

    def test_circle_tangency_oracle(self, circle_hf):
        rng = random.Random(110)
        for _ in range(25):
            t = rng.randint(-20, 20)
            # Rational point (2t : t^2-1 : t^2+1) on x0^2 + x1^2 = x2^2;
            # the tangent there is proportional to the gradient.
            tangent = {"u10": 2 * t, "u11": t * t - 1, "u12": -(t * t + 1)}
            assert circle_hf.poly.evaluate(tangent) == 0
            # A line through the interior point (0:0:1) is a secant.
            a, b = rng.randint(1, 9), rng.randint(-9, 9)
            assert circle_hf.poly.evaluate({"u10": a, "u11": b,
                                            "u12": 0}) != 0


class TestBitsizeAndDegreeBounds:
    """Criterion 7: coefficient-growth inequalities for products and powers
    on 500 random instances, plus the closed-form degree bounds on every
    computed Chow and Hurwitz form."""

    def test_product_bitsize_inequality(self):
        # bitsize(f*g) <= bitsize(f) + bitsize(g) + 2*nvars*lg(degree).
        rng = random.Random(111)
        for _ in range(300):
            nv = rng.randint(1, 3)
            vars = VarTable(tuple(f"z{i}" for i in range(nv)))
            f = rand_poly(rng, vars, rng.randint(2, 5), rng.randint(1, 10), 8)
            g = rand_poly(rng, vars, rng.randint(2, 5), rng.randint(1, 10), 8)
            d = max(f.total_degree(), g.total_degree(), 2)
            bound = f.bitsize() + g.bitsize() + \
                math.ceil(2 * nv * math.log2(d))
            assert (f * g).bitsize() <= bound

    def test_power_bitsize_inequality(self):
        # bitsize(f^m) <= m*bitsize(f) + 12*nvars*m*lg(degree).
        rng = random.Random(112)
        for _ in range(200):
            nv = rng.randint(1, 3)
            vars = VarTable(tuple(f"z{i}" for i in range(nv)))
            f = rand_poly(rng, vars, rng.randint(2, 4), rng.randint(1, 8), 6)
            m = rng.randint(2, 4)
            d = max(f.total_degree(), 2)
            bound = m * f.bitsize() + math.ceil(12 * nv * m * math.log2(d))
            assert (f ** m).bitsize() <= bound

    def test_chow_degree_bounds(self, line_cf, conic_cf, cubic_cf):
        cases = [
            (line_cf, MultiprojVariety(X4, [P("x2", X4), P("x3", X4)])),
            (conic_cf, MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])),
            (cubic_cf, twisted_cubic()),
        ]
        for cf, V in cases:
            bound = chow_bounds(V, 1)["degree_bound"]
            assert all(d <= bound for d in cf.poly.block_degrees())

    def test_hurwitz_degree_bounds(self, parabola_hf, circle_hf):
        V = MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)])
        bound = chow_bounds(V, 1)["degree_bound"]
        assert all(d <= bound for d in parabola_hf.poly.block_degrees())
        assert all(d <= bound for d in circle_hf.poly.block_degrees())

    def test_multiproj_degree_bounds(self):
        vt = VarTable(("x0", "x1", "y0", "y1"), ((0, 1), (2, 3)))
        V = MultiprojVariety(
            vt, [P("2*x0 - x1", vt), P("5*y0 - 3*y1", vt)], dim=0)
        cf = multi_chow_form_ci(V, (1, 0), GRID)
        bound = multi_bounds(V, (1, 0))["block_degree_bound"]
        assert all(d <= bound for d in cf.poly.block_degrees())


class TestProductFormatTables:
    """Criterion 8: support, Chow-hypersurface and Hurwitz-hypersurface
    formats of a product of two plane conics inside P3 x P3."""

    def test_support(self):
        assert support(conic_product(), PRODUCT_DIMS) == {(2, 2)}

    def test_chow_formats(self):
        assert chow_hypersurface_formats(conic_product(), PRODUCT_DIMS) == \
            {(2, 1), (1, 2)}

    def test_hurwitz_formats(self):
        V = conic_product()
        got = hurwitz_hypersurface_formats(
            V, PRODUCT_DIMS,
            lambda a: multidegree(V, a, GRID, PRODUCT_DIMS))
        assert got == {(1, 3), (2, 2), (3, 1)}

    def test_monte_carlo_dim_table_agrees(self):
        assert dim_table(conic_product(), GRID) == PRODUCT_DIMS


class TestMultidegreeValues:
    """Criterion 9: multidegrees of the conic product and of the
    inner-product hypersurface in P^n x P^n."""

    def test_conic_product_is_four(self):
        assert multidegree(conic_product(), (2, 2), GRID, PRODUCT_DIMS) == 4

    def test_inner_product_n1(self):
        vt = VarTable(("x0", "x1", "y0", "y1"), ((0, 1), (2, 3)))
        V = MultiprojVariety(vt, [P("x0*y0 + x1*y1", vt)], dim=1)
        table = {(0,): 1, (1,): 1, (0, 1): 1}
        assert multidegree(V, (1, 0), GRID, table) == 1

    def test_inner_product_n2(self):
        vt = VarTable(("x0", "x1", "x2", "y0", "y1", "y2"),
                      ((0, 1, 2), (3, 4, 5)))
        V = MultiprojVariety(vt, [P("x0*y0 + x1*y1 + x2*y2", vt)], dim=3)
        table = {(0,): 2, (1,): 2, (0, 1): 3}
        assert multidegree(V, (1, 0), GRID, table) == 1


def _subsets(l):
    out = []
    for size in range(l + 1):
        out.extend(itertools.combinations(range(l), size))
    return out


def _rand_polymatroid(rng, l, nmax=4):
    k = rng.randint(1, 3)
    gens = [([rng.randint(0, 3) for _ in range(l)], rng.randint(0, 5))
            for _ in range(k)]
    table = {}
    for I in _subsets(l):
        table[I] = sum(min(c, sum(a[i] for i in I)) for a, c in gens)
    n = tuple(max(table[(i,)], rng.randint(1, nmax)) for i in range(l))
    return Polymatroid(n, table)


class TestPolymatroidIdentities:
    """Criterion 10: duality, truncation and elongation identities on 200
    random rank tables, cross-checked against the multiprojective fixture."""

    def test_batch_of_200(self):
        rng = random.Random(113)
        for _ in range(200):
            P_ = _rand_polymatroid(rng, rng.randint(1, 3))
            assert P_.is_valid()
            D = P_.dual()
            assert D.dual() == P_
            # Dual points are exactly the box points below a reflected base.
            refl = [tuple(n - b for n, b in zip(P_.n, base))
                    for base in P_.bases()]
            expect = set()
            for z in itertools.product(*[range(v + 1) for v in P_.n]):
                if any(all(zi <= ri for zi, ri in zip(z, r)) for r in refl):
                    expect.add(z)
            assert D.points() == expect
            if P_.rank() >= 1:
                # Truncation points: one unit removed from each point.
                drop = set()
                for z in P_.points():
                    for j in range(P_.l):
                        if z[j] >= 1:
                            drop.add(z[:j] + (z[j] - 1,) + z[j + 1:])
                assert P_.truncate().points() == drop
            if D.rank() >= 1:
                # Elongation is the dual of the truncated dual.
                assert P_.elongate() == D.truncate().dual()

    def test_format_functions_match_inequality_oracle(self):
        # support, chow_hypersurface_formats and hurwitz_hypersurface_formats
        # read bases off the dimension table's polymatroid; the defining
        # inequalities decide the same sets on 200 random rank tables.
        rng = random.Random(127)
        for _ in range(200):
            P_ = _rand_polymatroid(rng, rng.randint(1, 3))
            check_against_oracle(box_variety(P_.n, P_.rank()),
                                 {I: v for I, v in P_.table.items() if I},
                                 lambda a: 1 + sum(a) % 2)


class TestDegenerateRescue:
    """Criterion 11: a system whose plain Macaulay quotient vanishes
    identically, rescued by the perturbed (characteristic-polynomial)
    resultant and validated on 50 sampled specializations."""

    def test_line_plus_point_fixture(self):
        vars = X3.extend(("u00", "u01", "u02"))

        def v(n):
            return MPoly.var(vars, n)

        U0 = v("u00") * v("x0") + v("u01") * v("x1") + v("u02") * v("x2")
        fs = [v("x0") * v("x2"), v("x1") * v("x2"), U0]
        sys = MultiResSystem(fs, [("x0", "x1", "x2")])
        with pytest.raises(DegenerateError):
            resultant_dense(sys)
        g, _ = gcp_resultant(sys, [0, 1])
        assert not g.is_zero()
        # The perturbed system degenerates to four limit points; the rescued
        # resultant vanishes exactly when U0 does at one of them.
        limits = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        rng = random.Random(114)
        hits = 0
        for _ in range(50):
            u = [rng.randint(-6, 6) for _ in range(3)]
            point = dict(zip(("u00", "u01", "u02"), u))
            gv = g.substitute(point).constant_value()
            oracle = any(sum(ui * pi for ui, pi in zip(u, p)) == 0
                         for p in limits)
            assert (gv == 0) == oracle
            hits += oracle
        assert 0 < hits < 50


CLI_FIXTURES = [
    ("chow", "ring x0 x1 x2 x3\npoly x2\npoly x3\ndim 1\n"),
    ("chow-ci", "ring x0 x1 x2\npoly x1\npoly x2\ndim 0\n"),
    ("hurwitz", "ring x0 x1 x2\npoly x0*x2 - x1^2\ndim 1\n"),
    ("support", "ring x0 x1 x2 x3 y0 y1 y2 y3\n"
                "blocks (x0 x1 x2 x3)(y0 y1 y2 y3)\n"
                "poly x3\npoly x0*x2 - x1^2\n"
                "poly y3\npoly y0^2 + y1^2 - y2^2\ndim 2\n"),
    ("multichow", "ring x0 x1 y0 y1\nblocks (x0 x1)(y0 y1)\n"
                  "poly 2*x0 - x1\npoly 5*y0 - 3*y1\ndim 0\nformat 1 0\n"),
    ("resultant", "ring x0 x1 u v\nblocks (x0 x1)(u v)\n"
                  "poly u*x0 + v*x1\npoly x0 - x1\n"),
    ("det", "ring x y\npoly x\npoly 1\npoly 1\npoly y\n"),
    ("bounds", "ring x0 x1 x2\npoly x0*x2 - x1^2\ndim 1\n"),
]


class TestCliDeterminism:
    """Criterion 12: identical seeds give byte-identical standard output on
    every command fixture."""

    @pytest.mark.parametrize("command,text",
                             CLI_FIXTURES, ids=[c for c, _ in CLI_FIXTURES])
    def test_two_runs_identical(self, command, text, tmp_path, capsys):
        path = tmp_path / "problem"
        path.write_text(text)
        assert main([command, "--seed", "17", str(path)]) == 0
        first = capsys.readouterr().out
        assert first.strip()
        assert main([command, "--seed", "17", str(path)]) == 0
        assert capsys.readouterr().out == first

    def test_polymatroid_command(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(
            {"n": [3, 3], "table": {"0": 2, "1": 2, "0 1": 4}}))
        assert main(["polymatroid", "truncate", str(path)]) == 0
        first = capsys.readouterr().out
        assert first.strip() == "1 2\n2 1"
        assert main(["polymatroid", "truncate", str(path)]) == 0
        assert capsys.readouterr().out == first


def _forms_through(p, q):
    """Two independent integer linear forms vanishing on span(p, q)."""
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
    """Product of elementary integer row operations: determinant one."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            A[i][k] += c * A[j][k]
    return A
