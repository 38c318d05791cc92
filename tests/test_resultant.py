import random

import pytest

from chowforms import MPoly, VarTable
from chowforms.errors import DegenerateError, InternalError, UsageError
from chowforms.polydet import det_integer
from chowforms.resultant import (MacaulaySystem, _BadGrid, _newton_assemble,
                                 _udiv_exact, bezout_bounds, gcp_resultant,
                                 macaulay_matrix, monomials_of_degree,
                                 resultant_dense)

X2 = VarTable(("x0", "x1"))
X3 = VarTable(("x0", "x1", "x2"))


def binform(coeffs, vars=X2):
    """c0*x0^d + c1*x0^(d-1)*x1 + ... + cd*x1^d."""
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
    return c


class TestMacaulayMatrix:
    def test_three_linear_forms(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        fs = [MPoly(X3, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]})
              for r in rows]
        sys = MacaulaySystem(fs, ("x0", "x1", "x2"))
        M, M0 = macaulay_matrix(sys)
        assert M.dim == 3
        assert M0.dim == 1 and M0.entries[0][0] == 1
        assert resultant_dense(sys).constant_value() == det_integer(rows)

    def test_binary_forms_match_sylvester_dims(self, rng):
        for _ in range(20):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            a, b = rand_binform(rng, d), rand_binform(rng, e)
            sys = MacaulaySystem([binform(a), binform(b)], ("x0", "x1"))
            M, M0 = macaulay_matrix(sys)
            assert M.dim == d + e  # Sylvester size
            r = resultant_dense(sys).constant_value()
            s = sylvester_det(a, b)
            assert abs(r) == abs(s)

    def test_ternary_quadrics_size(self, rng):
        quad_exps = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        fs = [MPoly(X3, {e: rng.randint(-5, 5) for e in quad_exps}) for _ in range(3)]
        sys = MacaulaySystem(fs, ("x0", "x1", "x2"))
        M, _ = macaulay_matrix(sys)
        assert M.dim == 15  # monomials of degree 4 in 3 variables: C(6,2)
        assert len(monomials_of_degree(3, 4)) == 15

    def test_degenerate_degree_zero(self):
        with pytest.raises(UsageError):
            MacaulaySystem([MPoly.const(X2, 3), binform([1, 1])], ("x0", "x1"))


class TestResultantDense:
    def test_shared_root(self):
        f = binform([1, -1])
        sys = MacaulaySystem([f, f], ("x0", "x1"))
        assert resultant_dense(sys).is_zero()

    def test_sylvester_oracle_batch(self, rng):
        for _ in range(50):
            a = rand_binform(rng, rng.randint(1, 4))
            b = rand_binform(rng, rng.randint(1, 4))
            sys = MacaulaySystem([binform(a), binform(b)], ("x0", "x1"))
            r = resultant_dense(sys).constant_value()
            s = sylvester_det(a, b)
            assert r == s or r == -s

    def test_vanishes_on_constructed_common_root(self, rng):
        # Build ternary forms vanishing at p = (1:2:3) and check Res = 0.
        p = {"x0": 1, "x1": 2, "x2": 3}
        for _ in range(10):
            fs = []
            for _ in range(3):
                f = MPoly(X3, {(1, 1, 0): rng.randint(-9, 9),
                               (1, 0, 1): rng.randint(-9, 9),
                               (0, 1, 1): rng.randint(-9, 9)})
                val = f.evaluate(p)
                f = f - val * MPoly(X3, {(2, 0, 0): 1})  # subtract val*x0^2 (x0=1 at p)
                assert f.evaluate(p) == 0
                fs.append(f)
            sys = MacaulaySystem(fs, ("x0", "x1", "x2"))
            try:
                assert resultant_dense(sys).is_zero()
            except DegenerateError:
                pass  # still consistent: a vanishing minor, not a wrong value


class TestGcp:
    def test_equals_dense_nondegenerate(self):
        sys = MacaulaySystem([binform([1, 2, 3]), binform([2, 1, 5])], ("x0", "x1"))
        assert gcp_resultant(sys) == resultant_dense(sys)

    def test_no_common_root_squares(self):
        sys = MacaulaySystem([binform([1, 0, 0]), binform([0, 0, 1])], ("x0", "x1"))
        g = gcp_resultant(sys)
        assert g.constant_value() == 1
        # Oracle: Sylvester of the perturbed pair, trailing s-coefficient.
        # x0^2 + s*x0^2 and x1^2 + s*x1^2 have Sylvester (1+s)^2*(1+s)^2... the
        # unperturbed pair already has nonzero resultant:
        assert sylvester_det([1, 0, 0], [0, 0, 1]) == 1

    def test_degenerate_rescue_fixture(self):
        # V(x0*x2, x1*x2) = the line {x2=0} plus the point (0:0:1): the
        # plain Macaulay minor vanishes identically, GCP does not.
        vars = X3.extend(("u00", "u01", "u02"))
        def v(n):
            return MPoly.var(vars, n)
        U0 = v("u00") * v("x0") + v("u01") * v("x1") + v("u02") * v("x2")
        fs = [v("x0") * v("x2"), v("x1") * v("x2"), U0]
        sys = MacaulaySystem(fs, ("x0", "x1", "x2"))
        with pytest.raises(DegenerateError):
            resultant_dense(sys)
        g = gcp_resultant(sys, [0, 1])
        assert not g.is_zero()
        # Perturbed limit roots: x0*(x2+s*x0)=0, x1*(x2+s*x1)=0 degenerate to
        # (0:0:1), (1:0:0), (0:1:0), (1:1:0); GCP must vanish exactly when U0
        # does at one of them.
        limits = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        rng = random.Random(11)
        hits = 0
        for _ in range(50):
            u = [rng.randint(-6, 6) for _ in range(3)]
            point = dict(zip(("u00", "u01", "u02"), u))
            gv = g.substitute(point).constant_value()
            oracle = any(sum(ui * pi for ui, pi in zip(u, p)) == 0 for p in limits)
            assert (gv == 0) == oracle
            hits += oracle
        assert 0 < hits < 50  # both outcomes exercised

    def test_udiv_exact_integer_quotient(self):
        # (s^2 - 1) * (3s + 2) / (s^2 - 1), high zeros ignored.
        assert _udiv_exact([-2, -3, 2, 3, 0], [-1, 0, 1]) == [2, 3]
        assert _udiv_exact([0, 0], [5]) == []

    def test_udiv_exact_remainder_is_bad_grid(self):
        with pytest.raises(_BadGrid):
            _udiv_exact([1, 0, 1], [1, 1])        # s^2 + 1 = (s + 1)(s - 1) + 2
        with pytest.raises(_BadGrid):
            _udiv_exact([3, 3], [2])              # 3/2 not integral
        with pytest.raises(_BadGrid):
            _udiv_exact([1], [1, 1])              # divisor of higher degree

    def test_udiv_exact_zero_denominator_is_bad_grid(self):
        with pytest.raises(_BadGrid):
            _udiv_exact([1, 2], [])
        with pytest.raises(_BadGrid):
            _udiv_exact([1, 2], [0, 0])

    def test_newton_assemble_rejects_non_integer_interpolant(self):
        # x(x - 1)/2 takes integer values on the grid but has a
        # non-integer coefficient.
        vars = VarTable(("x",), [(0,)])
        values = {(a,): (a + 5) * (a + 4) // 2 for a in range(3)}
        with pytest.raises(InternalError):
            _newton_assemble(values, [(0,), (1,), (2,)], [1], [2], [5], vars,
                             homogenize=False)
        values = {(a,): 3 * (a + 5) ** 2 - 7 for a in range(3)}
        got = _newton_assemble(values, [(0,), (1,), (2,)], [1], [2], [5], vars,
                               homogenize=False)
        assert got == MPoly(vars, {(2,): 3, (0,): -7})


class TestBezout:
    def test_products(self):
        vars = VarTable(("x0", "x1", "x2", "x3"))
        fs = [MPoly(vars, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1}),
              MPoly(vars, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1}),
              MPoly(vars, {(1, 0, 0, 0): 1, (0, 0, 0, 1): 1}),
              MPoly(vars, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 2})]
        sys = MacaulaySystem(fs, ("x0", "x1", "x2", "x3"))
        assert bezout_bounds(sys) == [2, 2, 4, 4]

    def test_all_linear(self):
        fs = [MPoly(X3, {(1, 0, 0): 1}), MPoly(X3, {(0, 1, 0): 1}),
              MPoly(X3, {(0, 0, 1): 1})]
        sys = MacaulaySystem(fs, ("x0", "x1", "x2"))
        assert bezout_bounds(sys) == [1, 1, 1]
