import random

import pytest

from chowforms import MPoly, VarTable, chow, resultant
from chowforms.chow import chow_form_ci, u_block_names, with_linear_forms
from chowforms.dimension import MultiprojVariety, RandomGrid
from chowforms.errors import (DegenerateError, IndeterminateError,
                              InternalError, UsageError)
from chowforms.mpoly import parse_poly
from chowforms.polydet import PolyMatrix, det_integer
from chowforms.resultant import (MultiResSystem, _BadGrid, _block_grid,
                                 _compile, _det_in_s, _newton_assemble,
                                 _Remainder,
                                 _udiv_exact, gcp_block_interpolation,
                                 gcp_resultant, macaulay_matrix,
                                 monomials_of_degree, perturbed_macaulay,
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
        sys = MultiResSystem(fs, [("x0", "x1", "x2")])
        M, M0 = macaulay_matrix(sys)
        assert M.dim == 3
        assert M0.dim == 1 and M0.entries[0][0] == 1
        assert resultant_dense(sys).constant_value() == det_integer(rows)

    def test_binary_forms_match_sylvester_dims(self, rng):
        for _ in range(20):
            d, e = rng.randint(1, 4), rng.randint(1, 4)
            a, b = rand_binform(rng, d), rand_binform(rng, e)
            sys = MultiResSystem([binform(a), binform(b)], [("x0", "x1")])
            M, M0 = macaulay_matrix(sys)
            assert M.dim == d + e  # Sylvester size
            r = resultant_dense(sys).constant_value()
            s = sylvester_det(a, b)
            assert abs(r) == abs(s)

    def test_ternary_quadrics_size(self, rng):
        quad_exps = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        fs = [MPoly(X3, {e: rng.randint(-5, 5) for e in quad_exps}) for _ in range(3)]
        sys = MultiResSystem(fs, [("x0", "x1", "x2")])
        M, _ = macaulay_matrix(sys)
        assert M.dim == 15  # monomials of degree 4 in 3 variables: C(6,2)
        assert len(monomials_of_degree(3, 4)) == 15

    def test_degenerate_degree_zero(self):
        with pytest.raises(UsageError):
            MultiResSystem([MPoly.const(X2, 3), binform([1, 1])], [("x0", "x1")])


class TestResultantDense:
    def test_shared_root(self):
        f = binform([1, -1])
        sys = MultiResSystem([f, f], [("x0", "x1")])
        assert resultant_dense(sys).is_zero()

    def test_sylvester_oracle_batch(self, rng):
        for _ in range(50):
            a = rand_binform(rng, rng.randint(1, 4))
            b = rand_binform(rng, rng.randint(1, 4))
            sys = MultiResSystem([binform(a), binform(b)], [("x0", "x1")])
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
            sys = MultiResSystem(fs, [("x0", "x1", "x2")])
            try:
                assert resultant_dense(sys).is_zero()
            except DegenerateError:
                pass  # still consistent: a vanishing minor, not a wrong value


class TestGcp:
    def test_equals_dense_nondegenerate(self):
        sys = MultiResSystem([binform([1, 2, 3]), binform([2, 1, 5])], [("x0", "x1")])
        g, val = gcp_resultant(sys)
        assert g == resultant_dense(sys) and val == 0

    def test_no_common_root_squares(self):
        sys = MultiResSystem([binform([1, 0, 0]), binform([0, 0, 1])], [("x0", "x1")])
        g, _ = gcp_resultant(sys)
        assert g.constant_value() == 1
        # Oracle: Sylvester of the perturbed pair, trailing s-coefficient.
        # x0^2 + s*x0^2 and x1^2 + s*x1^2 have Sylvester (1+s)^2*(1+s)^2... the
        # unperturbed pair already has nonzero resultant:
        assert sylvester_det([1, 0, 0], [0, 0, 1]) == 1

    def test_degenerate_rescue_fixture(self):
        # V(x0*x2, x1*x2) = the line {x2=0} plus the point (0:0:1): the
        # plain Macaulay minor vanishes identically, GCP does not.
        sys = rescue_system()
        with pytest.raises(DegenerateError):
            resultant_dense(sys)
        g, _ = gcp_resultant(sys, [0, 1])
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

    def test_udiv_exact_remainder_is_internal_error(self):
        # A remainder is not a bad grid point: on the Macaulay pair it
        # breaks an invariant, on a Canny-Emiris pair it rejects the
        # lifting.
        assert issubclass(_Remainder, InternalError)
        with pytest.raises(_Remainder):
            _udiv_exact([1, 0, 1], [1, 1])        # s^2 + 1 = (s + 1)(s - 1) + 2
        with pytest.raises(_Remainder):
            _udiv_exact([3, 3], [2])              # 3/2 not integral
        with pytest.raises(_Remainder):
            _udiv_exact([1], [1, 1])              # divisor of higher degree

    def test_udiv_exact_zero_denominator_is_bad_grid(self):
        with pytest.raises(_BadGrid):
            _udiv_exact([1, 2], [])
        with pytest.raises(_BadGrid):
            _udiv_exact([1, 2], [0, 0])

    def test_newton_assemble_rejects_non_integer_interpolant(self):
        # x(x - 1)/2 takes integer values on the grid but has a
        # non-integer coefficient.  The block is (w, x) with w pinned to 1.
        vars = VarTable(("w", "x"), [(0, 1)])
        values = [(a + 5) * (a + 4) // 2 for a in range(3)]
        with pytest.raises(InternalError):
            _newton_assemble(values, [(0,), (1,), (2,)], [1], [2], [5], vars)
        values = [3 * (a + 5) ** 2 - 7 for a in range(3)]
        got = _newton_assemble(values, [(0,), (1,), (2,)], [1], [2], [5], vars)
        assert got == MPoly(vars, {(0, 2): 3, (2, 0): -7})

    def test_newton_assemble_rejects_interpolant_over_its_degree(self):
        # Four grid points fit the cubic x^3, beyond the block degree 2.
        vars = VarTable(("w", "x"), [(0, 1)])
        alphas = [(0,), (1,), (2,), (3,)]
        with pytest.raises(InternalError):
            _newton_assemble([(a + 5) ** 3 for a in range(4)], alphas, [1],
                             [2], [5], vars)
        got = _newton_assemble([(a + 5) ** 2 for a in range(4)], alphas, [1],
                               [2], [5], vars)
        assert got == MPoly(vars, {(0, 2): 1})


class TestNewtonAssemble:
    def test_matches_evaluation_of_random_multihomogeneous_polys(self):
        # Oracle: a random integer polynomial, homogeneous of degree
        # degrees[b] in each block, evaluated by MPoly.evaluate on the
        # grid of _block_grid at random offsets, is assembled back
        # exactly.
        rng = random.Random(3)
        shapes = set()
        for _ in range(60):
            nblocks = rng.randint(1, 3)
            blocks = [tuple(f"b{b}_{i}" for i in range(rng.randint(1, 3) + 1))
                      for b in range(nblocks)]
            degrees = [rng.randint(0, 4) for _ in blocks]
            out_vars, names, sizes, alphas = _block_grid(blocks, degrees)
            per_block = [monomials_of_degree(len(blk), d)
                         for blk, d in zip(blocks, degrees)]
            terms = {}
            for _ in range(rng.randint(1, 12)):
                exp = sum((rng.choice(m) for m in per_block), ())
                terms[exp] = rng.randint(-50, 50)
            f = MPoly(out_vars, terms)
            offsets = [rng.randint(-20, 64) for _ in names]
            values = []
            for alpha in alphas:
                point = {blk[0]: 1 for blk in blocks}
                point.update((n, o + a) for n, o, a in
                             zip(names, offsets, alpha))
                values.append(f.evaluate(point))
            got = _newton_assemble(values, alphas, sizes, degrees, offsets,
                                   out_vars)
            assert got == f
            shapes.add((tuple(sizes), tuple(degrees)))
        assert len(shapes) > 16  # the plan cache evicts along the way


def rescue_system():
    """{x0*x2, x1*x2, U0}: the plain Macaulay minor of this system vanishes
    identically, and its GCP trailing coefficient has s-valuation 1."""
    vars = X3.extend(("u00", "u01", "u02"))

    def v(n):
        return MPoly.var(vars, n)

    U0 = v("u00") * v("x0") + v("u01") * v("x1") + v("u02") * v("x2")
    return MultiResSystem([v("x0") * v("x2"), v("x1") * v("x2"), U0],
                          [("x0", "x1", "x2")])


def chow_ci_system(polys, r):
    """The chow-ci elimination system: polys plus r+1 generic u-forms."""
    xnames = polys[0].vars.names
    blocks = [u_block_names(i, len(xnames) - 1) for i in range(r + 1)]
    return (MultiResSystem(with_linear_forms(polys, xnames, blocks), [xnames]),
            blocks)


def random_form(rng, vars, d, bound=3):
    return MPoly(vars, {e: rng.randint(-bound, bound)
                        for e in monomials_of_degree(vars.nvars, d)})


class _DetLog:
    """Records (matrix dimension, keep, result) of every _det_in_s call."""

    def __init__(self, monkeypatch):
        self.calls = []
        inner = resultant._det_in_s

        def logged(compiled, values, keep=None):
            out = inner(compiled, values, keep)
            self.calls.append((len(compiled[0]), keep, out))
            return out

        monkeypatch.setattr(resultant, "_det_in_s", logged)

    def count(self, keep):
        return sum(1 for _, k, _ in self.calls if k == keep)


class _SliceLog:
    """Records the slices that every _QuotientSampler hands out to the
    interpolation engine, the samples taken through them as
    (keep, point, q), and the unsliced samples as (keep, point, q).

    Each sliced point must agree with its slice's top off the fast
    coordinates (the last block but its first name) and lie below it on
    them; with ``check`` it must also read the unsliced sampler's value.
    """

    def __init__(self, monkeypatch, sys, blocks, check=False):
        self.slices = []
        self.samples = []
        self.unsliced = []
        self.checked = 0
        fast = {sys.vars.index(n) for n in blocks[-1][1:]}
        inner_slice = resultant._QuotientSampler.slice
        inner_call = resultant._QuotientSampler.__call__
        log = self

        def slice_(sampler, top, keep=None):
            at = inner_slice(sampler, top, keep)
            log.slices.append((keep, top))

            def sample(point):
                for i, (p, t) in enumerate(zip(point, top)):
                    assert abs(p) <= abs(t) if i in fast else p == t
                q = at(point)
                log.samples.append((keep, point, q))
                if check:
                    assert q == inner_call(sampler, point, keep)
                    log.checked += 1
                return q

            return sample

        def call(sampler, point, keep=None):
            q = inner_call(sampler, point, keep)
            log.unsliced.append((keep, point, q))
            return q

        monkeypatch.setattr(resultant._QuotientSampler, "slice", slice_)
        monkeypatch.setattr(resultant._QuotientSampler, "__call__", call)


class TestSlicedMatrix:
    def test_one_shift_reads_every_point_below_the_top(self):
        # det = (1 + s)^2 (1 + y s) (1 - y s): its coefficients reach the
        # product of the row norms, so the slice's shift must come from
        # the largest |y|, not from the point it was built at.
        YS = VarTable(("y", "s"))
        one = MPoly.const(YS, 1)
        zero = MPoly.zero(YS)
        s, y = MPoly.var(YS, "s"), MPoly.var(YS, "y")
        diag = [one + s, one + s, one + y * s, one - y * s]
        M = PolyMatrix([[e if i == j else zero for j in range(4)]
                        for i, e in enumerate(diag)])
        sliced = resultant._SlicedMatrix(M, 1, [0])
        assert sliced.at == [2, 3]
        at = sliced.slice([50])
        for v in range(-50, 51):
            assert at([v]) == _det_in_s(sliced.full, [v])
        assert sliced.slice([50], 1)([7]) == [1]


class TestSampleAtZero:
    def test_s_zero_quotient_matches_full_path(self):
        rng = random.Random(5)
        X4 = VarTable(("x0", "x1", "x2", "x3"))
        cases = [([random_form(rng, X3, d)], 1) for d in (2, 2, 3, 3)]
        cases += [([random_form(rng, X4, 2), random_form(rng, X4, 2)], 1)]
        compared = 0
        for polys, r in cases:
            sys, _ = chow_ci_system(polys, r)
            for perturb in (range(len(polys)), range(len(sys.polys))):
                M, M0, wide, sname = perturbed_macaulay(sys, perturb)
                s_idx = wide.index(sname)
                full, minor = _compile(M, s_idx), _compile(M0, s_idx)
                for _ in range(12):
                    # Small coordinates, so that some minors vanish at s = 0.
                    point = [rng.randint(-2, 2) for _ in range(wide.nvars)]
                    den = _det_in_s(minor, point, 1)
                    assert (den or [0])[0] == (_det_in_s(minor, point)
                                               or [0])[0]
                    if not den:
                        continue
                    q0 = _udiv_exact(_det_in_s(full, point, 1), den)
                    q = _udiv_exact(_det_in_s(full, point),
                                    _det_in_s(minor, point))
                    assert (q0 or [0])[0] == (q or [0])[0]
                    compared += 1
        assert compared > 50

    def test_singular_minor_at_zero_falls_back_to_full_path(self, monkeypatch):
        # With the u-forms perturbed too, M0 = [u01 + s].  On this grid u01
        # has offset 0, so det M0(0) = 0 at every point with u01 = 0, while
        # det M0(s) = s is not; those points must take the s-path.
        sys, blocks = chow_ci_system([parse_poly("x0*x2 - x1^2", X3)], 1)
        ref, ref_val = gcp_block_interpolation(sys, range(1), blocks, [2, 2],
                                               RandomGrid(seed=3))
        log = _SliceLog(monkeypatch, sys, blocks)
        got, val = gcp_block_interpolation(sys, range(3), blocks, [2, 2],
                                           RandomGrid(seed=17),
                                           tag="fallback")
        u01 = sys.vars.index("u01")
        zero = {tuple(p) for k, p, _ in log.samples if k == 1 and not p[u01]}
        assert zero
        # Every such point went on to a sliced s-path sample; the first
        # sample and the fresh check are the only unsliced ones.
        assert zero <= {tuple(p) for k, p, _ in log.samples if k is None}
        assert [k for k, _, _ in log.unsliced] == [None, None]
        assert (got, val) == (ref, ref_val) and val == 0

    def test_valuation_one_never_samples_at_zero(self, monkeypatch):
        # Every sample of the rescue system has a zero constant term, so
        # the valuation is never proved 0 and no slice is taken at s = 0.
        sys = rescue_system()
        log = _DetLog(monkeypatch)
        got, val = gcp_block_interpolation(sys, [0, 1],
                                           [("u00", "u01", "u02")], [4],
                                           RandomGrid(seed=3))
        assert val == 1
        assert log.calls and log.count(1) == 0
        ref, ref_val = gcp_resultant(sys, [0, 1])
        assert got == ref.substitute({}, got.vars) and ref_val == 1

    def test_conic_chow_ci_takes_one_full_grid_sample(self, monkeypatch):
        # 36 grid points in 6 slices of the u1 block: the first point proves
        # valuation 0 on the unsliced s-path, the other 35 take det M(0)
        # and det M0(0) from one reduction of M per slice (M0 has no u1
        # row, so its determinant is taken once per slice); the fresh check
        # is the other unsliced sample, drawn in every coordinate.
        reductions = []
        inner = resultant.det_slice

        def counted(fixed, at):
            reductions.append(len(at))
            return inner(fixed, at)

        monkeypatch.setattr(resultant, "det_slice", counted)
        V = MultiprojVariety(X3, [parse_poly("x0*x2 - x1^2", X3)], dim=1)
        sys, blocks = chow_ci_system(V.polys, 1)
        log = _SliceLog(monkeypatch, sys, blocks)
        gcp_block_interpolation(sys, range(1), blocks, [2, 2],
                                RandomGrid(seed=0), tag="chow-ci")
        assert [k for k, _ in log.slices] == [1] * 6
        assert [k for k, _, _ in log.samples] == [1] * 35
        assert reductions == [2] * 6
        assert [k for k, _, _ in log.unsliced] == [None, None]
        first, fresh = log.unsliced
        assert first[2][0] != 0
        assert all(fresh[1][sys.vars.index(blk[0])] != 1 for blk in blocks)

    def test_line_meet_quadric_chow_ci_runs_the_engine_once(self,
                                                            monkeypatch):
        # Two polynomials (m = 2) have no closed form: chow-ci eliminates
        # them by one perturbed Macaulay interpolation.
        calls = []
        inner = chow.gcp_block_interpolation
        monkeypatch.setattr(chow, "gcp_block_interpolation",
                            lambda *a, **k: calls.append(a) or inner(*a, **k))
        X4 = VarTable(("x0", "x1", "x2", "x3"))
        V = MultiprojVariety(X4, [parse_poly("x0 - x1 + 2*x3", X4),
                                  parse_poly("x0*x2 - x1^2 + x3^2", X4)],
                             dim=1)
        R = chow_form_ci(V, RandomGrid(seed=0))
        assert len(calls) == 1 and R.block_degrees() == (2, 2)

    def test_sliced_samples_match_unsliced(self, monkeypatch):
        # A quartic and a quadric surface: every grid point lies in its
        # slice's box and reads the unsliced sampler's value.
        rng = random.Random(7)
        X4 = VarTable(("x0", "x1", "x2", "x3"))
        for polys, r in (([random_form(rng, X3, 4)], 1),
                         ([random_form(rng, X4, 2)], 2)):
            sys, blocks = chow_ci_system(polys, r)
            D = 4 if r == 1 else 2
            with monkeypatch.context() as patch:
                log = _SliceLog(patch, sys, blocks, check=True)
                gcp_block_interpolation(sys, range(1), blocks, [D] * (r + 1),
                                        RandomGrid(seed=1))
            assert len(log.slices) >= 2 and log.checked > 10

    def test_all_zero_grid_is_usage_error(self):
        # Unperturbed, x1*(x0 + x1) and (u0 + u1)*x1 share the root
        # (1:0) for every u: the resultant vanishes identically.
        X = VarTable(("x0", "x1", "u0", "u1"), blocks=((0, 1), (2, 3)))
        sys = MultiResSystem([parse_poly("x1*x0 + x1^2", X),
                              parse_poly("u0*x1 + u1*x1", X)], [("x0", "x1")])
        with pytest.raises(UsageError, match="vanishes identically"):
            gcp_block_interpolation(sys, [], [("u0", "u1")], [1],
                                    RandomGrid(seed=1))

    def test_failed_fresh_check_retries_then_indeterminate(self):
        # Degree 1 per block is below the true degree 2, so every
        # interpolant fails its fresh-point check.  One above it in a
        # block, the interpolant is the true form times that block's
        # pinned coordinate, which only a fresh point drawing the pinned
        # coordinates too tells apart.
        sys, blocks = chow_ci_system([parse_poly("x0*x2 - x1^2", X3)], 1)
        for degrees in ([1, 1], [3, 2], [2, 3]):
            with pytest.raises(IndeterminateError):
                gcp_block_interpolation(sys, range(1), blocks, degrees,
                                        RandomGrid(seed=0))

    def test_failed_fresh_check_takes_one_grid(self, monkeypatch):
        # The quantity is the same on every attempt, so a failed check
        # ends the call: the 10 x 6 grid of degrees [3, 2] and its fresh
        # point, not grid.retries grids.
        sys, blocks = chow_ci_system([parse_poly("x0*x2 - x1^2", X3)], 1)
        log = _SliceLog(monkeypatch, sys, blocks)
        with pytest.raises(IndeterminateError):
            gcp_block_interpolation(sys, range(1), blocks, [3, 2],
                                    RandomGrid(seed=0))
        assert len(log.samples) + len(log.unsliced) == 60 + 1

    def test_remainder_on_the_macaulay_pair_is_internal_error(
            self, monkeypatch):
        # det M0 divides det M, so a sliced determinant that is off by one
        # leaves a remainder: an InternalError, not a bad grid point.
        inner = resultant.det_slice
        monkeypatch.setattr(resultant, "det_slice", lambda fixed, at: (
            lambda vary, det=inner(fixed, at): det(vary) + 1))
        sys, blocks = chow_ci_system([parse_poly("x0*x2 - x1^2", X3)], 1)
        with pytest.raises(_Remainder):
            gcp_block_interpolation(sys, range(1), blocks, [2, 2],
                                    RandomGrid(seed=0))

