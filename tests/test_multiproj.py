import itertools

import pytest

from chowforms import chow, multiproj
from chowforms.chow import (chow_form, chow_form_ci, degree_equalize,
                            generic_lc)
from chowforms.dimension import MultiprojVariety, RandomGrid
from chowforms.errors import IndeterminateError, UsageError
from chowforms.mpoly import MPoly, VarTable, parse_poly
from chowforms.multiproj import (chow_hypersurface_formats, dim_table,
                                 hurwitz_hypersurface_formats, multi_bounds,
                                 multi_chow_form, multi_chow_form_ci,
                                 multidegree, support)

GRID = RandomGrid(seed=2)

P3P3 = VarTable(("x0", "x1", "x2", "x3", "y0", "y1", "y2", "y3"),
                ((0, 1, 2, 3), (4, 5, 6, 7)))
P1P1 = VarTable(("x0", "x1", "y0", "y1"), ((0, 1), (2, 3)))
X4 = VarTable(("x0", "x1", "x2", "x3"))


def P(text, vars):
    return parse_poly(text, vars)


def renamed(f, target, rename):
    """f over ``target``, with variable names translated by ``rename``."""
    return f.substitute({old: MPoly.var(target, new)
                         for old, new in rename.items()}, target)


def conic_product():
    """Conic x0*x2 = x1^2 in the plane {x3 = 0} times the conic
    y0^2 + y1^2 = y2^2 in {y3 = 0}, inside P3 x P3."""
    polys = [P("x3", P3P3), P("x0*x2 - x1^2", P3P3),
             P("y3", P3P3), P("y0^2 + y1^2 - y2^2", P3P3)]
    return MultiprojVariety(P3P3, polys, dim=2)


def point_pair():
    """{(1:2)} x {(3:5)} in P1 x P1."""
    return MultiprojVariety(
        P1P1, [P("2*x0 - x1", P1P1), P("5*y0 - 3*y1", P1P1)], dim=0)


def formats_of_size(nvec, total):
    """All alpha <= nvec with |alpha| = total, in lexicographic order."""
    return [alpha for alpha in itertools.product(*[range(n + 1) for n in nvec])
            if sum(alpha) == total]


def inequality_formats(nvec, table, dim, mdeg_fn):
    """(support, Chow formats, Hurwitz formats) from the defining
    inequalities on the projection dimensions ``table`` (nonempty index
    sets only), with ``mdeg_fn`` called on each support format in order.

    beta of size codim is in the support iff sum_{i in I}(n_i - beta_i)
    <= dim pi_I(V) for every nonempty I; alpha of size codim - 1 is a
    Chow format iff sum_{i in I}(n_i - alpha_i) - 1 <= dim pi_I(V); alpha
    of size codim is a Hurwitz format iff it is in the support with
    multidegree other than 1, or outside it with sum_{i in I}(n_i -
    alpha_i) <= dim pi_I(V) + 1.
    """
    def holds(alpha, slack):
        return all(sum(nvec[i] - alpha[i] for i in I) <= rank + slack
                   for I, rank in table.items())

    codim = sum(nvec) - dim
    supp = {beta for beta in formats_of_size(nvec, codim) if holds(beta, 0)}
    chow = {alpha for alpha in formats_of_size(nvec, codim - 1)
            if holds(alpha, 1)}
    hurwitz = set()
    for alpha in formats_of_size(nvec, codim):
        if alpha in supp:
            if mdeg_fn(alpha) != 1:
                hurwitz.add(alpha)
        elif holds(alpha, 1):
            hurwitz.add(alpha)
    return supp, chow, hurwitz


def check_against_oracle(V, table, mdeg_fn):
    """The three format functions agree with :func:`inequality_formats`,
    and call ``mdeg_fn`` on the same formats in the same order."""
    want_calls, got_calls = [], []
    want = inequality_formats(
        V.nvec, table, V.dim, lambda a: want_calls.append(a) or mdeg_fn(a))
    got = (support(V, table), chow_hypersurface_formats(V, table),
           hurwitz_hypersurface_formats(
               V, table, lambda a: got_calls.append(a) or mdeg_fn(a)))
    assert got == want
    assert got_calls == want_calls


def box_variety(nvec, dim):
    """A variety in P^n_1 x ... x P^n_l declared of dimension ``dim``; the
    format functions read only its boxes and its dimension."""
    names = [f"x{i}_{j}" for i, n in enumerate(nvec) for j in range(n + 1)]
    ends = list(itertools.accumulate(n + 1 for n in nvec))
    vars = VarTable(names, [tuple(range(e - n - 1, e))
                            for n, e in zip(nvec, ends)])
    return MultiprojVariety(vars, [P(names[0], vars)], dim=dim)


@pytest.fixture(scope="module")
def product():
    return conic_product()


@pytest.fixture(scope="module")
def product_dims(product):
    return dim_table(product, GRID)


class TestDimTable:
    def test_product_projections(self, product_dims):
        assert product_dims == {(0,): 1, (1,): 1, (0, 1): 2}

    def test_point_pair(self):
        assert dim_table(point_pair(), GRID) == {(0,): 0, (1,): 0, (0, 1): 0}

    def test_two_random_bilinear_forms(self, rng):
        # Two bilinear forms meet in finitely many points, so every
        # projection is finite; on the multi-affine cone the coordinate
        # cross x = 0 or y = 0 would outweigh them.
        for _ in range(3):
            fs = [MPoly(P1P1, {(i, 1 - i, j, 1 - j): rng.randint(-9, 9)
                               for i in (0, 1) for j in (0, 1)})
                  for _ in range(2)]
            V = MultiprojVariety(P1P1, fs, dim=0)
            table = dim_table(V, GRID)
            assert table == {(0,): 0, (1,): 0, (0, 1): 0}
            check_against_oracle(
                V, table, lambda a: multidegree(V, a, GRID, table))

    def test_bilinear_hypersurface(self):
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=1)
        assert dim_table(V, GRID) == {(0,): 1, (1,): 1, (0, 1): 1}


class TestSupportAndFormats:
    def test_formats_of_size(self):
        assert set(formats_of_size((1, 1), 1)) == {(1, 0), (0, 1)}
        assert set(formats_of_size((3, 3), 4)) == {(1, 3), (2, 2), (3, 1)}

    def test_product_support(self, product, product_dims):
        assert support(product, product_dims) == {(2, 2)}

    def test_product_chow_formats(self, product, product_dims):
        assert chow_hypersurface_formats(product, product_dims) == \
            {(2, 1), (1, 2)}

    def test_product_hurwitz_formats(self, product, product_dims):
        got = hurwitz_hypersurface_formats(
            product, product_dims,
            lambda a: multidegree(product, a, GRID, product_dims))
        assert got == {(1, 3), (2, 2), (3, 1)}

    def test_bilinear_support_and_no_hurwitz_formats(self):
        # Every generic point pair lies on some bilinear translate, but the
        # multidegree is 1 in both formats, so no tangency hypersurface.
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=1)
        table = dim_table(V, GRID)
        assert support(V, table) == {(1, 0), (0, 1)}
        got = hurwitz_hypersurface_formats(
            V, table, lambda a: multidegree(V, a, GRID, table))
        assert got == set()

    def test_support_geometric_monte_carlo(self, product, product_dims):
        # Random subspaces of an in-support format meet the variety;
        # off-support formats ((1,3) and (3,1) here) miss it.  Work in a
        # generic affine chart per block so that block-zero points of the
        # multi-affine cone do not count as intersections.
        from chowforms.dimension import affine_solvable
        V = product
        supp = support(V, product_dims)
        for alpha in formats_of_size(V.nvec, 4):
            for k in range(25):
                rng = GRID.rng("mc", alpha, k)
                polys = list(V.polys)
                for i, (n, a) in enumerate(zip(V.nvec, alpha)):
                    for _ in range(n - a):
                        L = sum((rng.randint(1, GRID.bound) *
                                 parse_poly(name, P3P3)
                                 for name in V.x_blocks[i]),
                                parse_poly("0", P3P3))
                        polys.append(L)
                for blk in V.x_blocks:
                    chart = sum((rng.randint(1, GRID.bound) *
                                 parse_poly(name, P3P3) for name in blk),
                                parse_poly(str(-rng.randint(1, GRID.bound)),
                                           P3P3))
                    polys.append(chart)
                meets = affine_solvable(polys, P3P3, GRID,
                                        tag=("mc", alpha, k))
                assert meets == (alpha in supp)

    def test_matches_inequality_oracle(self, product, product_dims):
        # Multidegree 4 at (2, 2) keeps it a Hurwitz format, 1 drops it.
        for mdeg in (4, 1):
            check_against_oracle(product, product_dims, lambda a: mdeg)

    def test_dim_disagreeing_with_table_rejected(self):
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=0)
        table = {(0,): 1, (1,): 1, (0, 1): 1}
        for fn in (support, chow_hypersurface_formats):
            with pytest.raises(UsageError, match="dim V = 1.*dimension 0"):
                fn(V, table)
        with pytest.raises(UsageError, match="dim V = 1.*dimension 0"):
            hurwitz_hypersurface_formats(V, table, lambda a: 2)

    def test_non_submodular_table_rejected(self):
        # dim pi_{01} = 3 > dim pi_0 + dim pi_1: not a rank function.
        V = MultiprojVariety(P3P3, conic_product().polys, dim=3)
        table = {(0,): 1, (1,): 1, (0, 1): 3}
        with pytest.raises(UsageError, match="not a polymatroid"):
            support(V, table)


class TestMultidegree:
    def test_product_of_conic_degrees(self, product, product_dims):
        assert multidegree(product, (2, 2), GRID, product_dims) == 4

    def test_bilinear_graph(self):
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=1)
        table = dim_table(V, GRID)
        assert multidegree(V, (1, 0), GRID, table) == 1
        assert multidegree(V, (0, 1), GRID, table) == 1

    def test_point_pair(self):
        V = point_pair()
        table = dim_table(V, GRID)
        assert multidegree(V, (1, 1), GRID, table) == 1

    def test_outside_support_rejected(self, product, product_dims):
        with pytest.raises(UsageError):
            multidegree(product, (4, 0), GRID, product_dims)

    def test_indeterminate_slice_goes_on_to_the_next_trial(self,
                                                           monkeypatch):
        # A slice on which no two liftings agree is dropped like any other
        # failed trial; the next slices still give the answer.
        V = point_pair()
        table = dim_table(V, GRID)
        inner = multiproj.resultant_multihomogeneous_interp
        tags = []

        def interp(sys, blocks, degrees, grid, tag):
            tags.append(tag)
            if len(tags) == 1:
                raise IndeterminateError("no two liftings agreed")
            return inner(sys, blocks, degrees, grid, tag=tag)

        monkeypatch.setattr(multiproj, "resultant_multihomogeneous_interp",
                            interp)
        assert multidegree(V, (1, 1), GRID, table) == 1
        assert tags == [("mdeg", (1, 1), trial) for trial in range(3)]

    def test_indeterminate_on_every_slice_raises_indeterminate(self,
                                                               monkeypatch):
        V = point_pair()
        table = dim_table(V, GRID)
        calls = []

        def interp(*args, **kwargs):
            calls.append(1)
            raise IndeterminateError("no two liftings agreed")

        monkeypatch.setattr(multiproj, "resultant_multihomogeneous_interp",
                            interp)
        with pytest.raises(IndeterminateError, match="6 slices"):
            multidegree(V, (1, 1), GRID, table)
        assert len(calls) == 2 * GRID.retries


class TestChowFormCI:
    def test_bilinear_hypersurface(self):
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=1)
        cf = multi_chow_form_ci(V, (0, 0), GRID)
        expected = P("u1_0_0*u2_0_0 + u1_0_1*u2_0_1", cf.vars)
        assert cf == expected.normalized()

    def test_point_pair_linear_forms(self):
        V = point_pair()
        cf = multi_chow_form_ci(V, (1, 0), GRID)
        assert cf == P("3*u2_0_0 + 5*u2_0_1", cf.vars).normalized()
        cf = multi_chow_form_ci(V, (0, 1), GRID)
        assert cf == P("u1_0_0 + 2*u1_0_1", cf.vars).normalized()

    def test_wrong_polynomial_count_rejected(self, product):
        with pytest.raises(UsageError):
            multi_chow_form_ci(product, (1, 1), GRID)

    def test_single_block_matches_projective_chow_form(self):
        X3 = VarTable(("x0", "x1", "x2"))
        V1 = MultiprojVariety(VarTable(("x0", "x1", "x2"), ((0, 1, 2),)),
                              [P("x0*x2 - x1^2", X3).substitute(
                                  {}, VarTable(("x0", "x1", "x2"),
                                               ((0, 1, 2),)))],
                              dim=1)
        cf = multi_chow_form_ci(V1, (0,), GRID)
        ref = chow_form_ci(
            MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)], dim=1), GRID)
        rename = {}
        for j, blk in enumerate(("u1_0", "u1_1")):
            for k in range(3):
                rename[f"u{j}{k}"] = f"{blk}_{k}"
        moved = renamed(ref, cf.vars, rename)
        assert cf == moved.normalized()


@pytest.mark.slow
class TestProductChowForms:
    """The format-(2,1) and (1,2) Chow forms of C1 x C2 depend only on one
    factor and equal that factor's Chow form inside its P3."""

    def test_format_21_is_second_factor(self, product):
        cf = multi_chow_form_ci(product, (2, 1), GRID)
        assert cf.block_degrees() == (0, 2, 2)
        C2 = MultiprojVariety(X4, [P("x3", X4),
                                   P("x0^2 + x1^2 - x2^2", X4)], dim=1)
        ref = chow_form(C2, GRID)
        rename = {f"u{j}{k}": f"u2_{j}_{k}"
                  for j in range(2) for k in range(4)}
        moved = renamed(ref, cf.vars, rename)
        assert cf == moved.normalized()

    def test_format_12_is_first_factor(self, product):
        cf = multi_chow_form_ci(product, (1, 2), GRID)
        assert cf.block_degrees() == (2, 2, 0)
        C1 = MultiprojVariety(X4, [P("x3", X4), P("x0*x2 - x1^2", X4)],
                              dim=1)
        ref = chow_form(C1, GRID)
        rename = {f"u{j}{k}": f"u1_{j}_{k}"
                  for j in range(2) for k in range(4)}
        moved = renamed(ref, cf.vars, rename)
        assert cf == moved.normalized()


class TestEqualizeAndGeneralCase:
    def test_equalize_degrees_and_zero_locus(self, product):
        W = degree_equalize(product)
        assert len(set(W.mdegs)) == 1
        # (1:0:0:0) x (1:0:1:0) lies on the product of the conics.
        point = {"x0": 1, "x1": 0, "x2": 0, "x3": 0,
                 "y0": 1, "y1": 0, "y2": 1, "y3": 0}
        for f in W.polys:
            assert f.evaluate(point) == 0

    def test_equalize_gap_two_keeps_the_zero_locus(self):
        # {(1:2)} x {(3:5), (1:-1)}, cut out in multidegrees (1,0), (0,2).
        V = MultiprojVariety(P1P1, [P("2*x0 - x1", P1P1),
                                    P("(5*y0 - 3*y1)*(y0 + y1)", P1P1)],
                             dim=0)
        W = degree_equalize(V)
        assert W.mdegs == ((1, 2),) * 4
        coords = [c for c in itertools.product(range(-3, 6), repeat=2)
                  if c != (0, 0)]
        zeros = 0
        for x, y in itertools.product(coords, coords):
            point = dict(zip(P1P1.names, x + y))
            on_v = all(f.evaluate(point) == 0 for f in V.polys)
            assert all(f.evaluate(point) == 0 for f in W.polys) == on_v
            zeros += on_v
        # Representatives in the box: 3 of (1:2) times 1 of (3:5) plus 6
        # of (1:-1).
        assert zeros == 3 * (1 + 6)

    def test_equalize_identity_when_equal(self):
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=1)
        assert degree_equalize(V).polys == V.polys

    def test_general_chow_form_of_redundant_point_pair(self):
        # {(1:2)} x {(3:5)} cut out by three dependent generators.
        polys = [P("2*x0 - x1", P1P1), P("5*y0 - 3*y1", P1P1),
                 P("(2*x0 - x1)*(y0 + y1)", P1P1)]
        V = MultiprojVariety(P1P1, polys, dim=0)
        cf = multi_chow_form(V, (1, 0), GRID)
        assert cf == P("3*u2_0_0 + 5*u2_0_1", cf.vars).normalized()


class TestMultiGenericLc:
    def test_span_below_codimension_fails_within_the_draw_cap(self,
                                                             monkeypatch):
        # Three multiples of one form span 1 < k = 2 dimensions: every
        # Lambda has coefficient rank 1 (some of its combinations may
        # vanish), so each draw is rejected before any dimension check,
        # and the draws stop at 8 * retries.
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1),
                                    P("2*x0*y0 + 2*x1*y1", P1P1),
                                    P("-x0*y0 - x1*y1", P1P1)], dim=0)
        grid = RandomGrid(seed=7)
        grid.retries = 2
        tags = []
        inner = RandomGrid.rng

        def rng(self, *tag):
            tags.append(tag)
            return inner(self, *tag)

        monkeypatch.setattr(RandomGrid, "rng", rng)
        monkeypatch.setattr(chow, "dim_leq", None)
        with pytest.raises(UsageError, match="coefficient rank"):
            generic_lc(V, grid)
        assert tags == [("glc", draw) for draw in range(16)]


class TestBounds:
    def test_product_bounds(self, product):
        b = multi_bounds(MultiprojVariety(product.vars, product.polys, dim=1),
                         (2, 2))
        assert b["block_degree_bound"] == 2 ** 5
        assert b["variable_count"] == (3 - 2) * 4 + (3 - 2) * 4
        assert b["degree_bound"] > 0

    def test_degree_bound_dominates_true_degrees(self, product):
        b = multi_bounds(product, (2, 1))
        # True block degrees of the (2,1) Chow form are (0, 2, 2).
        assert b["degree_bound"] >= 4


class TestDeterminism:
    def test_same_seed_same_form(self):
        V = MultiprojVariety(P1P1, [P("x0*y0 + x1*y1", P1P1)], dim=1)
        a = multi_chow_form_ci(V, (0, 0), RandomGrid(seed=9))
        b = multi_chow_form_ci(V, (0, 0), RandomGrid(seed=9))
        assert a == b
