import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms import (IndeterminateError, MPoly, ParseError, UsageError,
                       VarTable, divexact, gcd, mpoly, parse_poly,
                       square_free_part)
from chowforms.mpoly import _certified_square_free, _digits_in, divides
from conftest import rand_poly


def P(text, vars):
    return parse_poly(text, vars)


class TestArithmetic:
    def test_add_cancellation(self, xy):
        assert P("x + 1", xy) + P("0 - x", xy) == 1

    def test_add_identity(self, xy, rng):
        f = rand_poly(rng, xy)
        assert f + MPoly.zero(xy) == f

    def test_add_mismatched_tables(self, xy, xyz):
        with pytest.raises(UsageError):
            MPoly.var(xy, "x") + MPoly.var(xyz, "x")

    def test_mul_difference_of_squares(self, xy):
        assert P("x + 1", xy) * P("x - 1", xy) == P("x^2 - 1", xy)

    def test_mul_identity(self, xy, rng):
        f = rand_poly(rng, xy)
        assert f * MPoly.const(xy, 1) == f

    def test_pow_zero(self, xy, rng):
        f = rand_poly(rng, xy)
        assert f ** 0 == 1

    def test_pow_square(self, xy):
        assert P("x + y", xy) ** 2 == P("x^2 + 2*x*y + y^2", xy)

    def test_ring_axioms_random(self, rng):
        vars = VarTable(("a", "b", "c"))
        for _ in range(30):
            f, g, h = (rand_poly(rng, vars) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            assert f * g == g * f


def dense_mul_oracle(f, g):
    """Schoolbook dense-array convolution, independent of the sparse path."""
    n = f.vars.nvars
    shape = tuple(f.partial_degree(i) + g.partial_degree(i) + 1 for i in range(n))
    out = np.zeros(shape, dtype=object)
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            idx = tuple(a + b for a, b in zip(e1, e2))
            out[idx] += c1 * c2
    terms = {idx: out[idx] for idx in np.ndindex(shape) if out[idx] != 0}
    return MPoly(f.vars, terms)


class TestMulOracleAndBitsize:
    def test_mul_against_dense_convolution(self, rng):
        for _ in range(50):
            nu = rng.randint(1, 4)
            vars = VarTable(tuple(f"y{i}" for i in range(nu)))
            f = rand_poly(rng, vars, max_deg=6, max_coeff_bits=16)
            g = rand_poly(rng, vars, max_deg=6, max_coeff_bits=16)
            h = f * g
            assert h == dense_mul_oracle(f, g)
            if f.is_zero() or g.is_zero():
                continue
            delta = max(f.total_degree(), g.total_degree(), 2)
            bound = f.bitsize() + g.bitsize() + 2 * nu * math.ceil(math.log2(delta))
            assert h.bitsize() <= bound

    def test_pow_bitsize_bound(self, rng):
        vars = VarTable(("y0", "y1"))
        for _ in range(40):
            f = rand_poly(rng, vars, max_deg=4, max_coeff_bits=8, nonzero=True)
            m = rng.randint(1, 5)
            h = f ** m
            delta = max(f.total_degree(), 2)
            bound = m * f.bitsize() + 12 * 2 * m * math.log2(delta)
            assert h.bitsize() <= bound

    def test_product_family_bitsize_bound(self, rng):
        vars = VarTable(("y0", "y1", "y2"))
        for _ in range(20):
            m = rng.randint(2, 5)
            fs = [rand_poly(rng, vars, max_deg=3, max_coeff_bits=8, nonzero=True)
                  for _ in range(m)]
            prod = MPoly.const(vars, 1)
            for f in fs:
                prod = prod * f
            tau_sum = sum(f.bitsize() for f in fs)
            delta_sum = max(sum(f.total_degree() for f in fs), 2)
            bound = tau_sum + 12 * 3 * m * max(math.log2(m), 1) * math.log2(delta_sum)
            assert prod.bitsize() <= bound


class TestDegreesAndBlocks:
    def test_mdeg_bilinear(self):
        vars = VarTable(("x0", "x1", "y0", "y1"), blocks=((0, 1), (2, 3)))
        f = P("x0*y0 + x1*y1", vars)
        assert f.block_degrees() == (1, 1)
        assert {f.block_degrees(exp) for exp in f.terms} == {(1, 1)}

    def test_not_multihomogeneous(self):
        vars = VarTable(("x0", "x1", "y0", "y1"), blocks=((0, 1), (2, 3)))
        f = P("x0 + y0", vars)
        assert {f.block_degrees(exp) for exp in f.terms} == {(1, 0), (0, 1)}

    def test_mdeg_mixed(self):
        vars = VarTable(("x0", "x1", "y0", "y1"), blocks=((0, 1), (2, 3)))
        assert P("x0^2*y1", vars).block_degrees() == (2, 1)

    def test_profile(self, xy):
        p = P("x^2*y + 3", xy)
        assert (p.partial_degree(0), p.partial_degree(1)) == (2, 1)
        assert p.total_degree() == 3


class TestBitsize:
    def test_one(self, xy):
        assert MPoly.const(xy, 1).bitsize() == 1

    def test_linear(self, xy):
        assert P("5*x - 3", xy).bitsize() == 3

    def test_zero(self, xy):
        assert MPoly.zero(xy).bitsize() == 0

    def test_random_direct_oracle(self, rng, xyz):
        for _ in range(30):
            f = rand_poly(rng, xyz, max_coeff_bits=20)
            expect = max((abs(c).bit_length() for c in f.terms.values()), default=0)
            assert f.bitsize() == expect


def digit_shift(f):
    """A K with 2^K > 2 max |c| + 1: every coefficient of f is a balanced
    base-2^K digit."""
    return (2 * max((abs(c) for c in f.terms.values()), default=0)
            + 1).bit_length()


def at(f, v, K):
    """f with variable v set to 2^K, as the heuristic gcd substitutes it."""
    return f.substitute({f.vars.names[v]: 1 << K})


class TestKronecker:
    """The heuristic gcd's substitution of one variable by 2^K (:func:`at`)
    and its inverse, the balanced base-2^K digit read (_digits_in)."""

    def test_two_vars(self):
        vars = VarTable(("y1", "y2"))
        packed = at(P("y1*y2^2 + y2", vars), 1, 2)
        assert packed == P("16*y1 + 4", vars)

    def test_constant(self, xy):
        assert at(MPoly.const(xy, 1), 0, 3) == 1

    def test_unpack_example(self):
        vars = VarTable(("y1", "y2"))
        assert _digits_in(P("16*y1 + 4", vars), 1, 2) == \
            P("y1*y2^2 + y2", vars)

    def test_unpack_zero(self, xy):
        assert _digits_in(MPoly.zero(xy), 0, 4).is_zero()

    def test_cap_violation(self, xy):
        # 3 lies outside (-2, 2]: it is read as 4 - 1, carrying into x^2.
        packed = at(P("3*x", xy), 0, 2)
        assert _digits_in(packed, 0, 2) == P("x^2 - x", xy)

    def test_round_trip_100(self, rng):
        for _ in range(100):
            nu = rng.randint(1, 4)
            vars = VarTable(tuple(f"y{i}" for i in range(nu)))
            f = rand_poly(rng, vars, max_deg=5, max_coeff_bits=12)
            K = digit_shift(f) + rng.randint(0, 2)
            v = rng.randrange(nu)
            assert _digits_in(at(f, v, K), v, K) == f


class TestGcd:
    def test_gcd_self(self, xy):
        f = P("6*x^2 - 6*y^2", xy)
        assert gcd(f, f) == P("x^2 - y^2", xy)

    def test_gcd_shared_linear(self, xy):
        a = P("(x - 1)*(x + 2)", xy)
        b = P("(x - 1)*(x + 3)", xy)
        assert gcd(a, b) == P("x - 1", xy)

    def test_gcd_zero_zero(self, xy):
        with pytest.raises(UsageError):
            gcd(MPoly.zero(xy), MPoly.zero(xy))

    def test_gcd_construct_and_divide(self, rng):
        vars = VarTable(("x", "y"))
        for _ in range(100):
            a = rand_poly(rng, vars, max_deg=2, max_coeff_bits=4, max_terms=3, nonzero=True)
            b = rand_poly(rng, vars, max_deg=2, max_coeff_bits=4, max_terms=3, nonzero=True)
            c = rand_poly(rng, vars, max_deg=2, max_coeff_bits=4, max_terms=3, nonzero=True)
            g = gcd(a * c, b * c)
            q = divexact(g, c.normalized())  # primitive(c) divides the gcd
            assert divexact(a * c, g) * g == a * c
            assert divexact(b * c, g) * g == b * c
            assert q * c.normalized() == g

    def test_give_up_raises_indeterminate(self, xy, monkeypatch):
        # When the heuristic gives up, gcd and an uncertified square-free
        # part end at once with IndeterminateError.
        monkeypatch.setattr(mpoly, "_heu_gcd", lambda f, g: None)
        with pytest.raises(IndeterminateError):
            gcd(P("(x - 1)*(x + 2)", xy), P("(x - 1)*(x + 3)", xy))
        f = P("(x - 1)^2*(x + y)", xy)
        assert not _certified_square_free(f)
        with pytest.raises(IndeterminateError):
            square_free_part(f)

    def test_divexact_rejects_remainder(self, rng):
        # The verification in the heuristic gcd relies on a remainder
        # being reported, not dropped.
        vars = VarTable(("x", "y"))
        for _ in range(50):
            f = rand_poly(rng, vars, max_deg=2, max_coeff_bits=4, nonzero=True)
            g = rand_poly(rng, vars, max_deg=2, max_coeff_bits=4, nonzero=True)
            if g.is_constant():
                continue
            with pytest.raises(UsageError):
                divexact(f * g + MPoly.const(vars, 1), g)
            assert not divides(g, f * g + MPoly.const(vars, 1))
            assert divides(g, f * g)

    def test_divexact_block_order_round_trip(self, rng):
        vars = VarTable(("x0", "x1", "u0", "u1"), [(0, 1), (2, 3)])
        for _ in range(50):
            f = rand_poly(rng, vars, max_deg=3, max_coeff_bits=6, nonzero=True)
            g = rand_poly(rng, vars, max_deg=3, max_coeff_bits=6, nonzero=True)
            assert divexact(f * g, g) == f


class TestSquareFree:
    def test_repeated_factor(self, xy):
        f = P("(x - 1)*(x - 1)*(x + 2)", xy)
        assert square_free_part(f) == P("(x - 1)*(x + 2)", xy)

    def test_already_square_free(self, xy):
        f = P("2*x^2 + 2*y^2 + 2", xy)
        assert square_free_part(f) == P("x^2 + y^2 + 1", xy)

    def test_cube(self, xy):
        assert square_free_part(P("(x + y)^3", xy)) == P("x + y", xy)

    def test_idempotent(self, rng, xy):
        for _ in range(20):
            f = rand_poly(rng, xy, max_deg=3, max_coeff_bits=4, nonzero=True)
            s = square_free_part(f * f)
            assert square_free_part(s) == s

    def test_zero_rejected(self, xy):
        with pytest.raises(UsageError):
            square_free_part(MPoly.zero(xy))

    def test_constant_is_one(self, xy):
        for c in (1, -1, 6, -12):
            assert not _certified_square_free(MPoly.const(xy, c))
            assert square_free_part(MPoly.const(xy, c)) == 1

    def test_certificate_holds_on_square_free_forms(self, xy):
        assert _certified_square_free(P("(x - 1)*(x + 2)", xy))
        assert _certified_square_free(P("2*x^2 + 2*y^2 + 2", xy))
        assert _certified_square_free(P("x*y*(x + y)", xy))

    def test_planted_square_is_never_certified(self, rng, xyz):
        # f = P^2 * Q with P nonconstant has a repeated factor on every
        # line, so no draw certifies it; the gcd path strips the square.
        checked = 0
        while checked < 40:
            p = rand_poly(rng, xyz, max_deg=2, max_coeff_bits=4)
            q = rand_poly(rng, xyz, max_deg=2, max_coeff_bits=4, nonzero=True)
            if p.is_constant():
                continue
            f = p * p * q
            assert not _certified_square_free(f)
            s = square_free_part(f)
            assert divides(square_free_part(p), s) and divides(s, f)
            checked += 1


class TestTextAndParse:
    def test_canonical_render(self):
        vars = VarTable(tuple(f"u{i}{j}" for i in range(2) for j in range(2)))
        f = (MPoly.var(vars, "u00") * MPoly.var(vars, "u11")
             - MPoly.var(vars, "u01") * MPoly.var(vars, "u10"))
        assert str(f) == "u00*u11 - u01*u10"

    def test_parse_round_trip(self, rng, xyz):
        for _ in range(30):
            f = rand_poly(rng, xyz, max_coeff_bits=10)
            assert parse_poly(str(f), xyz) == f

    def test_parse_error_location(self, xy):
        with pytest.raises(ParseError):
            parse_poly("x + ", xy)

    def test_parse_unknown_variable(self, xy):
        with pytest.raises(ParseError):
            parse_poly("x + q", xy)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          st.integers(-100, 100)), max_size=6),
       st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          st.integers(-100, 100)), max_size=6))
def test_hypothesis_add_sub_inverse(t1, t2):
    vars = VarTable(("x", "y"))
    f = MPoly(vars, dict(t1))
    g = MPoly(vars, dict(t2))
    assert (f + g) - g == f
    assert f - f == MPoly.zero(vars)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                    st.integers(0, 4)),
                          st.integers(-50, 50)), max_size=5))
def test_hypothesis_kronecker_round_trip(tlist):
    vars = VarTable(("a", "b", "c"))
    f = MPoly(vars, dict(tlist))
    K = digit_shift(f)
    for v in range(3):
        assert _digits_in(at(f, v, K), v, K) == f


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                    st.integers(0, 4)),
                          st.integers(-50, 50)), max_size=6),
       st.lists(st.integers(0, 2), unique=True))
def test_hypothesis_coefficients_reassemble(tlist, idx):
    # sum over keys of x^key * coefficients(idx)[key] is f again, and no
    # coefficient involves a variable at idx.
    vars = VarTable(("a", "b", "c"))
    f = MPoly(vars, dict(tlist))
    total = MPoly.zero(vars)
    for key, cf in f.coefficients(idx).items():
        assert not cf.is_zero()
        assert all(cf.partial_degree(i) == 0 for i in idx)
        mono = [0] * vars.nvars
        for i, e in zip(idx, key):
            mono[i] = e
        total = total + cf * MPoly(vars, {tuple(mono): 1})
    assert total == f


class TestSubstitute:
    def test_compose(self, xy):
        f = P("x^2 + y", xy)
        g = f.substitute({"x": P("y + 1", xy), "y": 3})
        assert g == P("y^2 + 2*y + 4", xy)

    def test_evaluate(self, xy):
        assert P("x^2*y - 7", xy).evaluate({"x": 3, "y": 2}) == 11

    def test_into_supertable(self, xy, xyz):
        f = P("x + 2*y", xy)
        assert f.substitute({}, xyz) == P("x + 2*y", xyz)
        assert f.substitute({"y": P("z^2", xyz)}) == P("x + 2*z^2", xyz)

    def test_one_variable_target(self, xy):
        T = VarTable(("t",))
        f = P("x^2 + y", xy)
        assert f.substitute({"x": P("t + 1", T), "y": 3}) == \
            P("t^2 + 2*t + 4", T)
        assert P("t^3", T).substitute({}) == P("t^3", T)

    def test_unknown_variable_in_target(self, xy, xyz):
        with pytest.raises(UsageError):
            P("x*y", xyz).substitute({}, xy)

    def test_mixed_tables_rejected(self, xy, xyz):
        with pytest.raises(UsageError):
            P("x*y", xy).substitute({"x": P("z", xyz), "y": P("x", xy)})

    def test_derivative(self, xy):
        assert P("x^3*y + y^2", xy).derivative("x") == P("3*x^2*y", xy)
