import itertools
import random
from fractions import Fraction

import pytest

from chowforms import MPoly, VarTable
from chowforms.dimension import RandomGrid
from chowforms.errors import IndeterminateError, InternalError, UsageError
from chowforms.mixedres import (_BadLifting, _build_matrix,
                                _CellWalk, _lattice_points,
                                resultant_multihomogeneous_interp)
from chowforms.mpoly import divexact, parse_poly
from chowforms.polydet import PolyMatrix, det_bareiss, det_integer, ff_reduce
from chowforms.resultant import (MultiResSystem, _BadGrid, _det_in_s,
                                 _QuotientSampler, _Remainder,
                                 drop_variables, resultant_dense)

X3 = VarTable(("x0", "x1", "x2"))


def resultant_multihomogeneous(sys, seed=0, retries=8):
    """Oracle: the sparse multihomogeneous resultant from symbolic
    Canny-Emiris determinants, up to sign and integer content.

    Symbolic in whatever parameter variables the coefficients carry; a
    purely numeric system yields an integer constant (zero iff the system
    has a common root in the product of projective spaces, for generic
    vanishing patterns).

    The resultant always divides the matrix determinant, but the quotient
    by the non-mixed minor equals the resultant only for sufficiently
    well-behaved liftings, so a quotient is accepted only once two
    independent liftings agree on it (up to sign).
    """
    rng = random.Random(seed)
    x_idx = [i for blk in sys.block_idx for i in blk]
    symbolic = any(any(idx not in x_idx and f.partial_degree(idx) > 0
                       for idx in range(sys.vars.nvars)) for f in sys.polys)
    seen = []
    for _ in range(2 * retries):
        try:
            rows, sub = _build_matrix(sys, rng)
        except _BadLifting:
            continue
        try:
            if symbolic:
                det = det_bareiss(PolyMatrix(rows))
                if not sub:
                    minor = MPoly.const(sys.vars, 1)
                else:
                    minor = det_bareiss(PolyMatrix([[rows[i][j] for j in sub]
                                                    for i in sub]))
                if minor.is_zero():
                    continue
                if det.is_zero():
                    cand = drop_variables(MPoly.zero(sys.vars), x_idx)
                else:
                    cand = drop_variables(divexact(det, minor),
                                          x_idx).normalized()
            else:
                irows = [[e.constant_value() for e in r] for r in rows]
                det = det_integer(irows)
                minor = det_integer([[irows[i][j] for j in sub] for i in sub]) \
                    if sub else 1
                if minor == 0:
                    continue
                if det % minor:
                    continue
                cand = abs(det // minor)
        except UsageError:
            continue
        if cand in seen:
            if symbolic:
                return cand
            return drop_variables(MPoly.const(sys.vars, cand), x_idx)
        seen.append(cand)
    raise IndeterminateError("no two liftings agreed on the "
                             "multihomogeneous resultant")


def bilinear(vars, coeffs):
    """a*x0*y0 + b*x0*y1 + c*x1*y0 + d*x1*y1 over (x0,x1,y0,y1)."""
    a, b, c, d = coeffs
    return MPoly(vars, {(1, 0, 1, 0): a, (1, 0, 0, 1): b,
                        (0, 1, 1, 0): c, (0, 1, 0, 1): d})


class TestSingleBlock:
    def test_matches_dense_macaulay_up_to_sign(self, rng):
        quad_exps = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        for trial in range(5):
            fs = [MPoly(X3, {e: rng.randint(-6, 6) for e in quad_exps})
                  for _ in range(3)]
            dense = resultant_dense(MultiResSystem(fs, [X3.names]))
            sys = MultiResSystem(fs, [X3.names])
            sparse = resultant_multihomogeneous(sys, seed=trial)
            d, s = dense.constant_value(), sparse.constant_value()
            assert s != 0 and d % s == 0  # equal up to sign and content
            assert abs(d) == abs(s)

    def test_linear_system_determinant(self):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        fs = [MPoly(X3, {(1, 0, 0): r[0], (0, 1, 0): r[1], (0, 0, 1): r[2]})
              for r in rows]
        sys = MultiResSystem(fs, [X3.names])
        r = resultant_multihomogeneous(sys).constant_value()
        assert abs(r) == abs(2 * (3 * 4 - 1) - 1 * (4 - 0))


class TestBilinear:
    VARS = VarTable(("x0", "x1", "y0", "y1"), blocks=((0, 1), (2, 3)))

    def test_bezout_bounds(self):
        fs = [bilinear(self.VARS, (1, 2, 3, 4)),
              bilinear(self.VARS, (2, -1, 0, 5)),
              bilinear(self.VARS, (1, 1, 1, -1))]
        sys = MultiResSystem(fs, [("x0", "x1"), ("y0", "y1")])
        # each (1,1)-form contributes permanent of [[1,1],[1,1]] = 2
        assert sys.bezout_bounds() == [2, 2, 2]

    def test_constructed_common_zero_vanishes(self, rng):
        for trial in range(10):
            # force the common zero x = (1:2), y = (3:-1)
            fs = []
            for _ in range(3):
                # f(x, y) = a*3 + b*(-1) + c*6 + d*(-2) at the target point;
                # pick b so that a = -(...)/3 comes out integral.
                b, c, d = (rng.randint(-9, 9) for _ in range(3))
                val = b * (-1) + c * 6 + d * (-2)
                if val % 3 != 0:
                    b += val % 3
                    val = b * (-1) + c * 6 + d * (-2)
                a = -val // 3
                f = bilinear(self.VARS, (a, b, c, d))
                assert f.evaluate({"x0": 1, "x1": 2, "y0": 3, "y1": -1}) == 0
                fs.append(f)
            sys = MultiResSystem(fs, [("x0", "x1"), ("y0", "y1")])
            assert resultant_multihomogeneous(sys, seed=trial).is_zero()

    def test_generic_triple_nonzero(self, rng):
        hits = 0
        for trial in range(10):
            fs = [bilinear(self.VARS, tuple(rng.randint(-9, 9) for _ in range(4)))
                  for _ in range(3)]
            sys = MultiResSystem(fs, [("x0", "x1"), ("y0", "y1")])
            if not resultant_multihomogeneous(sys, seed=trial).is_zero():
                hits += 1
        assert hits >= 8  # generic systems have no common root

    def test_symbolic_linear_pair_oracle(self):
        # u-linear in x, w-linear in y, plus the incidence form x.y:
        # the resultant is the incidence form at the two kernels.
        vars = VarTable(("x0", "x1", "y0", "y1", "u0", "u1", "w0", "w1"),
                        blocks=((0, 1), (2, 3), (4, 5), (6, 7)))
        def v(n):
            return MPoly.var(vars, n)
        f1 = v("u0") * v("x0") + v("u1") * v("x1")
        f2 = v("w0") * v("y0") + v("w1") * v("y1")
        f3 = v("x0") * v("y0") + v("x1") * v("y1")
        sys = MultiResSystem([f1, f2, f3], [("x0", "x1"), ("y0", "y1")])
        r = resultant_multihomogeneous(sys)
        assert r.to_text() == "u0*w0 + u1*w1"


class TestValidation:
    def test_wrong_count_rejected(self):
        vars = TestBilinear.VARS
        fs = [bilinear(vars, (1, 2, 3, 4))]
        with pytest.raises(UsageError):
            MultiResSystem(fs, [("x0", "x1"), ("y0", "y1")])

    def test_non_multihomogeneous_rejected(self):
        vars = TestBilinear.VARS
        bad = MPoly(vars, {(1, 0, 1, 0): 1, (1, 0, 0, 0): 1})
        fs = [bad, bilinear(vars, (1, 1, 1, 1)), bilinear(vars, (1, 2, 1, 1))]
        with pytest.raises(UsageError):
            MultiResSystem(fs, [("x0", "x1"), ("y0", "y1")])


def fraction_solve(a, b):
    """Oracle: a x = b over the rationals, None if a is singular."""
    n = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(bv)] for row, bv in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def ff_solve(a, rhs):
    """a X = rhs by ff_reduce on [a | rhs], as :func:`reference_factor`
    solves a basis: (d, X) with d = |det a| > 0 and X = d a^-1 rhs, or
    None if a is singular (then some rhs column is a pivot of
    [a | rhs], or none is and the rank is short)."""
    m = len(a)
    red = ff_reduce([list(r) + list(q) for r, q in zip(a, rhs)])
    if red is None or red[0] != list(range(m)):
        return None
    _, d, X = red
    sign = 1 if d > 0 else -1
    return sign * d, [[sign * v for v in row] for row in X]


class TestFractionFreeSolve:
    def test_matches_fraction_solve(self, rng):
        for _ in range(200):
            m = rng.randint(1, 6)
            a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
            rhs = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(m)]
            got = ff_solve(a, rhs)
            if det_integer(a) == 0:
                assert got is None
                continue
            d, X = got
            assert d == abs(det_integer(a))
            for c in range(2):
                want = fraction_solve(a, [r[c] for r in rhs])
                assert [Fraction(X[r][c], d) for r in range(m)] == want

    def test_singular_returns_none(self, rng):
        for _ in range(50):
            m = rng.randint(2, 5)
            a = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m - 1)]
            coef = [rng.randint(-3, 3) for _ in range(m - 1)]
            a.insert(rng.randrange(m), [sum(c * r[j] for c, r in zip(coef, a))
                                        for j in range(m)])
            assert ff_solve(a, [[1]] * m) is None


def walk_systems():
    """Small P1xP1 and P2 systems, as MultiResSystem instances."""
    xy = TestBilinear.VARS
    p1p1 = MultiResSystem(
        [bilinear(xy, (1, 2, 3, 4)), bilinear(xy, (2, -1, 0, 5)),
         MPoly(xy, {(2, 0, 1, 0): 1, (1, 1, 0, 1): 3, (0, 2, 1, 0): -2})],
        [("x0", "x1"), ("y0", "y1")])
    lin = MPoly(X3, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3})
    quad = MPoly(X3, {(2, 0, 0): 1, (0, 1, 1): -1, (0, 0, 2): 5})
    p2 = MultiResSystem([lin, lin, quad], [X3.names])
    return [p1p1, p2]


def p2p2_bilinear(rng):
    """Five random bilinear forms on P2xP2, as a MultiResSystem."""
    X, Y = ("x0", "x1", "x2"), ("y0", "y1", "y2")
    vars = VarTable(X + Y, blocks=((0, 1, 2), (3, 4, 5)))
    monos = [tuple(int(k == i) for k in range(3))
             + tuple(int(k == j) for k in range(3))
             for i in range(3) for j in range(3)]
    polys = [MPoly(vars, {e: rng.randint(-9, 9) or 1 for e in monos})
             for _ in range(5)]
    return MultiResSystem(polys, [X, Y])


def reference_factor(cells, basis):
    """(d, d B^-1, d * reduced costs) of a basis, d = |det B|, factored
    from scratch by one ff_reduce of [B | I]: the refactoring that the
    walk's fraction-free pivots replace."""
    m = cells.m
    # [B | I] has rank m; its first m columns are the pivots exactly when
    # B is nonsingular, and then X = det B * B^-1.
    pivots, d, inv = ff_reduce([[cells.cols[j][r] for j in basis]
                                + [int(r == c) for c in range(m)]
                                for r in range(m)])
    assert pivots == list(range(m))
    if d < 0:
        d, inv = -d, [[-v for v in row] for row in inv]
    y = [sum(cells.costs[j] * row[c] for j, row in zip(basis, inv))
         for c in range(m)]
    red = [d * w - sum(u * v for u, v in zip(y, col))
           for w, col in zip(cells.costs, cells.cols)]
    return d, inv, red


def start_at(cells, basis):
    """Put the walk on ``basis``, its state factored from scratch."""
    cells.basis = basis
    cells.d, cells.inv, cells.red = reference_factor(cells, basis)


def walk_state(cells):
    return cells.basis, cells.d, cells.inv, cells.red


@pytest.fixture
def pivots(monkeypatch):
    """Every pivot the walk makes, as its (out, enter) pair."""
    made = []
    pivot = _CellWalk._pivot

    def counted(cells, basis, d, inv, red, out, enter, alpha):
        made.append((out, enter))
        return pivot(cells, basis, d, inv, red, out, enter, alpha)

    monkeypatch.setattr(_CellWalk, "_pivot", counted)
    return made


class TestCellWalk:
    """The walked cell is the unique basis that passes the certificate
    (lambda > 0, off-cell reduced costs > 0, every polytope present), found
    here by brute force over all (N+k)-column subsets in rationals."""

    @staticmethod
    def certified_subsets(cells):
        """Bases of Cayley columns whose dual certificate holds:
        (basis, B, y) triples, y the dual solution."""
        n = len(cells.idx)
        out = []
        for basis in itertools.combinations(range(n), cells.m):
            if len({cells.idx[j][0] for j in basis}) != cells.k:
                continue
            B = [[cells.cols[j][r] for j in basis] for r in range(cells.m)]
            y = fraction_solve([list(r) for r in zip(*B)],
                               [cells.costs[j] for j in basis])
            if y is None:
                continue
            if all(w - sum(u * v for u, v in zip(y, col)) > 0
                   for j, (w, col) in enumerate(zip(cells.costs[:n],
                                                    cells.cols[:n]))
                   if j not in basis):
                out.append((basis, B, y))
        return out

    @staticmethod
    def brute(certified, b):
        return [basis for basis, B, _ in certified
                if all(v > 0 for v in fraction_solve(B, b))]

    @staticmethod
    def walk_inputs(sys, rng):
        """(supports, liftings, scaled points b) as _build_matrix draws them."""
        supports = [sys.affine_support(i) for i in range(len(sys.polys))]
        liftings = [{a: rng.randint(1, 2 ** 16) for a in sup}
                    for sup in supports]
        D = (2 ** 20 + 7) * (sys.N + 1)
        delta = [rng.randint(1, 2 ** 10) for _ in range(sys.N)]
        sums = [sum(d[j] for d in sys.mdegs) for j in range(sys.l)]
        bs = [[D * pi - di for pi, di in zip(p, delta)] + [D] * len(supports)
              for p in _lattice_points(sys.nsizes, sums)]
        return supports, liftings, bs

    def lifting(self, sys, rng):
        supports, liftings, bs = self.walk_inputs(sys, rng)
        return _CellWalk(supports, liftings, sys.N), bs

    def test_walk_matches_brute_force(self):
        # Each point is located twice: by the walk from the previous cell
        # and by a fresh walk from the surplus basis.  After each, the
        # pivoted state equals a from-scratch factorization of the cell.
        rng = random.Random(5)
        checked = 0
        for sys in walk_systems():
            for _ in range(3):
                supports, liftings, bs = self.walk_inputs(sys, rng)
                cells = _CellWalk(supports, liftings, sys.N)
                certified = self.certified_subsets(cells)
                for b in bs:
                    want = self.brute(certified, b)
                    assert len(want) <= 1
                    fresh = _CellWalk(supports, liftings, sys.N)
                    if want:
                        for walk in (cells, fresh):
                            assert walk.locate(b) == want[0]
                            assert (walk.d, walk.inv, walk.red) == \
                                reference_factor(walk, want[0])
                        checked += 1
                    else:
                        for walk in (cells, fresh):
                            with pytest.raises(_BadLifting):
                                walk.locate(b)
                        break
        assert checked >= 20

    def test_price_exceeds_every_certified_dual(self):
        rng = random.Random(13)
        cells_seen = 0
        for sys in walk_systems():
            for _ in range(3):
                cells, _ = self.lifting(sys, rng)
                for _, _, y in self.certified_subsets(cells):
                    assert all(abs(v) < cells.price for v in y)
                    cells_seen += 1
        assert cells_seen >= 20

    def test_lattice_point_on_boundary_raises(self):
        rng = random.Random(7)
        hits = 0
        for sys in walk_systems():
            cells, bs = self.lifting(sys, rng)
            certified = self.certified_subsets(cells)
            cells.locate(bs[0])
            sums = [sum(d[j] for d in sys.mdegs) for j in range(sys.l)]
            for p in _lattice_points(sys.nsizes, sums):
                b = list(p) + [1] * cells.k  # delta = 0
                if self.brute(certified, b):
                    continue
                hits += 1
                with pytest.raises(_BadLifting):
                    cells.locate(b)
        assert hits >= 2

    def test_point_outside_the_sum_raises(self):
        # Only surplus columns reach a point beyond the Minkowski sum, and
        # a basis that keeps one is no cell.
        rng = random.Random(17)
        for sys in walk_systems():
            cells, bs = self.lifting(sys, rng)
            D = bs[0][-1]
            far = [4 * D * sum(map(sum, sys.mdegs))] * sys.N + [D] * cells.k
            for start in (None, bs[0]):
                if start is not None:
                    cells.locate(start)
                with pytest.raises(_BadLifting):
                    cells.locate(far)

    def test_coarse_lifting_raises(self, pivots):
        # An affine lifting puts every support point on the lower envelope:
        # each basis is dual feasible, none strictly.  A fresh walk pivots
        # away from the surplus basis before it fails; a walk started on
        # the generic cell of b (factored from scratch, as no affine walk
        # can certify it) has lambda > 0 at once, so it fails with no
        # pivot.  Either way the failure leaves the state as it was.
        rng = random.Random(11)
        for sys in walk_systems():
            generic, bs = self.lifting(sys, rng)
            start = generic.locate(bs[0])
            supports = [sys.affine_support(i) for i in range(len(sys.polys))]
            affine = [{a: 3 * sum(a) + i for a in sup}
                      for i, sup in enumerate(supports)]
            for fresh in (True, False):
                cells = _CellWalk(supports, affine, sys.N)
                if not fresh:
                    start_at(cells, start)
                before = walk_state(cells)
                del pivots[:]
                with pytest.raises(_BadLifting):
                    cells.locate(bs[0])
                assert bool(pivots) == fresh
                assert walk_state(cells) == before

    def test_start_cell_does_not_matter(self, pivots):
        # Each start cell is reached by locating a point inside it; the
        # walk from there makes no pivot exactly when b lies in that cell.
        rng = random.Random(9)
        for sys in walk_systems():
            cells, bs = self.lifting(sys, rng)
            found = [cells.locate(b) for b in bs]
            starts = dict(zip(found, bs))
            assert len(starts) >= 3
            for b, want in zip(bs, found):
                for start, inside in starts.items():
                    assert cells.locate(inside) == start
                    del pivots[:]
                    assert cells.locate(b) == want
                    assert bool(pivots) == (start != want)

    def test_pivoted_state_matches_refactoring(self, pivots):
        # P2xP2, whose C(45, 9) column subsets are too many for brute
        # force: after every located point, d, d B^-1 and the scaled
        # reduced costs equal a from-scratch factorization of the cell, and
        # the cell passes its certificate in rationals (lambda > 0 and every
        # off-cell reduced cost > 0), which makes it the unique optimum.
        rng = random.Random(21)
        located = 0
        for _ in range(3):
            sys = p2p2_bilinear(rng)
            supports, liftings, bs = self.walk_inputs(sys, rng)
            cells = _CellWalk(supports, liftings, sys.N)
            n = len(cells.idx)
            for b in bs:
                try:
                    basis = cells.locate(b)
                except _BadLifting:
                    break
                assert (cells.d, cells.inv, cells.red) == \
                    reference_factor(cells, basis)
                B = [[cells.cols[j][r] for j in basis] for r in range(cells.m)]
                assert all(v > 0 for v in fraction_solve(B, b))
                y = fraction_solve([list(r) for r in zip(*B)],
                                   [cells.costs[j] for j in basis])
                assert all(w - sum(u * v for u, v in zip(y, col)) > 0
                           for j, (w, col) in enumerate(
                               zip(cells.costs[:n], cells.cols[:n]))
                           if j not in basis)
                located += 1
        assert located >= 100 and len(pivots) > located

    def test_corrupted_pivot_raises(self, monkeypatch):
        # A pivot handed d times a prime larger than every entry of the
        # true update divides a nonzero row of d' B'^-1 by that prime: a
        # remainder, so the walk raises InternalError, returns no cell
        # and keeps its last certified state.
        pivot = _CellWalk._pivot

        def corrupted(cells, basis, d, inv, red, out, enter, alpha):
            return pivot(cells, basis, d * (2 ** 61 - 1), inv, red, out,
                         enter, alpha)

        rng = random.Random(23)
        walks = []
        for sys in walk_systems() + [p2p2_bilinear(rng)]:
            supports, liftings, bs = self.walk_inputs(sys, rng)
            warm = _CellWalk(supports, liftings, sys.N)
            for b in bs[:2]:
                warm.locate(b)
            walks.append((warm, _CellWalk(supports, liftings, sys.N), bs))
        monkeypatch.setattr(_CellWalk, "_pivot", corrupted)
        raised = 0
        for warm, fresh, bs in walks:
            for cells in (warm, fresh):
                for b in bs:
                    before = walk_state(cells)
                    try:
                        got = cells.locate(b)
                    except InternalError:
                        assert walk_state(cells) == before
                        raised += 1
                        continue
                    # Only a point of the start cell needs no pivot.
                    assert cells is warm and got == before[0]
        assert raised > sum(len(bs) for _, _, bs in walks)


def _outcome(sample, values):
    """A sample's value, or the class of the exception it raised."""
    try:
        return sample(values)
    except (_BadGrid, _Remainder) as exc:
        return type(exc)


class TestCompiledSampler:
    """The quotient sampler on Canny-Emiris pairs (H, E) against per-entry
    evaluation, unsliced and sliced."""

    def test_matches_per_entry_evaluation(self):
        vars = VarTable(("x0", "x1", "y0", "y1", "u0", "u1", "u2", "u3"),
                        blocks=((0, 1), (2, 3), (4, 5, 6, 7)))
        rng = random.Random(3)
        u = [MPoly.var(vars, f"u{j}") for j in range(4)]
        monos = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        f1 = MPoly.zero(vars)
        for uj, e in zip(u, monos):
            f1 = f1 + uj * MPoly(vars, {e + (0,) * 4: 1})
        f2 = MPoly(vars, {e + (0,) * 4: c for e, c in zip(monos, (2, -1, 0, 5))})
        f3 = MPoly(vars, {(2, 0, 1, 0, 0, 0, 0, 0): 1, (1, 1, 0, 1, 0, 0, 0, 0): 3,
                          (0, 2, 1, 0, 0, 0, 0, 0): -2})
        f3 = f3 + u[0] * MPoly(vars, {(0, 2, 0, 1, 0, 0, 0, 0): 1})
        sys = MultiResSystem([f1, f2, f3], [("x0", "x1"), ("y0", "y1")])
        outcomes = []
        for seed in range(6):
            try:
                rows, sub = _build_matrix(sys, random.Random(seed))
            except _BadLifting:
                continue
            E = [[rows[i][j] for j in sub] for i in sub] or \
                [[MPoly.const(vars, 1)]]
            sampler = _QuotientSampler(PolyMatrix(rows), PolyMatrix(E), None,
                                       [5, 6, 7])
            assert sampler.num.at and len(sampler.num.at) < len(rows)
            for _ in range(5):
                values = [0] * 4 + [rng.randint(-50, 50) for _ in range(4)]
                point = dict(zip(vars.names, values))
                irows = [[e.evaluate(point) for e in r] for r in rows]
                det = det_integer(irows)
                minor = det_integer([[irows[i][j] for j in sub] for i in sub]) \
                    if sub else 1
                assert (_det_in_s(sampler.num.full, values) or [0])[0] == det
                assert (_det_in_s(sampler.den.full, values) or [0])[0] == minor
                if minor == 0:
                    want = _BadGrid
                    outcomes.append("zero minor")
                elif det % minor:
                    want = _Remainder
                    outcomes.append("remainder")
                else:
                    want = [det // minor] if det else []
                    outcomes.append("quotient")
                assert _outcome(sampler, values) == want
                # The same point on a slice whose top bounds the fast
                # coordinates, at s = 0 and on the full path.
                top = values[:5] + [60] * 3
                for keep in (1, None):
                    assert _outcome(sampler.slice(top, keep), values) == want
        assert len(outcomes) >= 10
        assert set(outcomes) == {"zero minor", "remainder", "quotient"}

    def test_interpolation_slices_match_unsliced(self, monkeypatch):
        # Every sliced sample that the interpolation takes reads the
        # unsliced sampler's value at the same point.
        checked = []
        inner_slice = _QuotientSampler.slice

        def slice_(sampler, top, keep=None):
            at = inner_slice(sampler, top, keep)

            def sample(point):
                q = _outcome(at, point)
                assert q == _outcome(lambda p: sampler(p, keep), point)
                checked.append(q)
                if isinstance(q, type):
                    raise q
                return q

            return sample

        monkeypatch.setattr(_QuotientSampler, "slice", slice_)
        sys, blocks, bezout = incidence_system(
            random.Random(5), 2, [(1, 1), (1, 1), (1, 0)])
        got = resultant_multihomogeneous_interp(sys, blocks, bezout,
                                                RandomGrid(seed=1))
        assert got.block_degrees() == tuple(bezout)
        assert len(checked) > 20 and any(checked)


def incidence_system(rng, n, degrees):
    """Random numeric forms of the given bidegrees on P^n x P^n, plus the
    generic linear forms u.x and w.y: a complete intersection whose
    resultant is homogeneous in u and in w of the Bezout degrees."""
    X = tuple(f"x{i}" for i in range(n + 1))
    Y = tuple(f"y{i}" for i in range(n + 1))
    U = tuple(f"u{i}" for i in range(n + 1))
    W = tuple(f"w{i}" for i in range(n + 1))
    k = n + 1
    vars = VarTable(X + Y + U + W, blocks=tuple(
        tuple(range(b * k, b * k + k)) for b in range(4)))

    def v(name):
        return MPoly.var(vars, name)

    polys = []
    for dx, dy in degrees:
        f = MPoly.zero(vars)
        for a in itertools.combinations_with_replacement(X, dx):
            for b in itertools.combinations_with_replacement(Y, dy):
                m = MPoly.const(vars, rng.randint(-5, 5) or 1)
                for name in a + b:
                    m = m * v(name)
                f = f + m
        polys.append(f)
    polys.append(sum((v(u) * v(x) for u, x in zip(U, X)), MPoly.zero(vars)))
    polys.append(sum((v(w) * v(y) for w, y in zip(W, Y)), MPoly.zero(vars)))
    sys = MultiResSystem(polys, [X, Y])
    return sys, [U, W], sys.bezout_bounds()[-2:]


class TestHomogeneousInterpolation:
    @pytest.mark.parametrize("n, degrees", [
        (1, [(2, 2)]), (1, [(1, 2)]),
        (2, [(1, 1), (1, 1), (1, 0)]), (2, [(2, 1), (0, 1), (1, 0)])])
    def test_matches_symbolic_resultant(self, n, degrees):
        sys, blocks, bezout = incidence_system(random.Random(5), n, degrees)
        got = resultant_multihomogeneous_interp(sys, blocks, bezout,
                                                RandomGrid(seed=1))
        want = resultant_multihomogeneous(sys, seed=1)
        assert got.block_degrees() == tuple(bezout)
        assert got.substitute({}, want.vars) == want

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_wrong_degree_is_indeterminate(self, shift):
        # One below the Bezout number the interpolant misses the affine
        # part; one above, it is the true resultant times the pinned
        # coordinate, which only a fresh point with that coordinate
        # away from 1 can tell apart.
        sys, blocks, bezout = incidence_system(random.Random(5), 1, [(1, 2)])
        degrees = [bezout[0] + shift, bezout[1]]
        with pytest.raises(IndeterminateError):
            resultant_multihomogeneous_interp(sys, blocks, degrees,
                                              RandomGrid(seed=1, retries=1))

    def test_vanishing_resultant_interpolates_to_zero(self):
        # Every polynomial vanishes at x = (0:1), y = (0:1) for all t, so
        # every sample is zero; the result is the zero polynomial, which
        # multidegree skips.
        vars = VarTable(("x0", "x1", "y0", "y1", "t0", "t1"),
                        blocks=((0, 1), (2, 3), (4, 5)))
        polys = [parse_poly(text, vars) for text in (
            "x0*y0 + 2*x0*y1 + 3*x1*y0", "x0*y1 - x1*y0 + 5*x0*y0",
            "t0*x0*y0 + t1*x0*y1 + 7*t1*x1*y0")]
        sys = MultiResSystem(polys, [("x0", "x1"), ("y0", "y1")])
        got = resultant_multihomogeneous_interp(
            sys, [("t0", "t1")], sys.bezout_bounds()[-1:], RandomGrid(seed=1))
        assert got.is_zero()
