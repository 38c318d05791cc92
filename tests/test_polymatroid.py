import itertools

import pytest

from chowforms.errors import UsageError
from chowforms.polymatroid import Polymatroid, from_dim_table


def subsets(l):
    out = []
    for size in range(l + 1):
        out.extend(itertools.combinations(range(l), size))
    return out


def rand_polymatroid(rng, l, nmax=4):
    """Sum of box-capped modular functions: always a valid rank table."""
    k = rng.randint(1, 3)
    gens = [([rng.randint(0, 3) for _ in range(l)], rng.randint(0, 5))
            for _ in range(k)]
    table = {}
    for I in subsets(l):
        table[I] = sum(min(c, sum(a[i] for i in I)) for a, c in gens)
    n = tuple(max(table[(i,)], rng.randint(1, nmax)) for i in range(l))
    return Polymatroid(n, table)


class TestValidity:
    def test_simple_table(self):
        P = Polymatroid((3, 3), {(): 0, (0,): 1, (1,): 1, (0, 1): 2})
        assert P.rank() == 2
        assert P.rank((0,)) == 1

    def test_missing_subset_rejected(self):
        with pytest.raises(UsageError):
            Polymatroid((2, 2), {(): 0, (0,): 1, (0, 1): 2})

    def test_nonzero_empty_rejected(self):
        with pytest.raises(UsageError):
            Polymatroid((2,), {(): 1, (0,): 2})

    def test_non_monotone_rejected(self):
        with pytest.raises(UsageError):
            Polymatroid((3, 3), {(): 0, (0,): 2, (1,): 2, (0, 1): 1})

    def test_non_submodular_rejected(self):
        # delta(01) + delta() > delta(0) + delta(1)
        with pytest.raises(UsageError):
            Polymatroid((3, 3), {(): 0, (0,): 1, (1,): 1, (0, 1): 3})

    def test_box_violation_rejected(self):
        with pytest.raises(UsageError):
            Polymatroid((1, 3), {(): 0, (0,): 2, (1,): 2, (0, 1): 3})

    def test_random_tables_valid(self, rng):
        for _ in range(25):
            P = rand_polymatroid(rng, rng.randint(1, 3))
            assert P.is_valid()


class TestPointsAndBases:
    def test_points_by_membership(self, rng):
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            pts = P.points()
            for z in itertools.product(range(P.n[0] + 1), range(P.n[1] + 1)):
                assert (z in pts) == P.member(z)

    def test_bases_have_full_weight(self, rng):
        for _ in range(10):
            P = rand_polymatroid(rng, rng.randint(1, 3))
            r = P.rank()
            assert P.bases()
            assert all(sum(z) == r for z in P.bases())

    def test_lower_points_dominated_by_bases(self, rng):
        # Integer polymatroids: every point extends to a base.
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            bases = P.bases()
            for z in P.points():
                assert any(all(zi <= bi for zi, bi in zip(z, b))
                           for b in bases)


class TestDuality:
    def test_involution(self, rng):
        for _ in range(20):
            P = rand_polymatroid(rng, rng.randint(1, 3))
            assert P.dual().dual() == P

    def test_dual_rank(self, rng):
        for _ in range(10):
            P = rand_polymatroid(rng, rng.randint(1, 3))
            assert P.dual().rank() == sum(P.n) - P.rank()

    def test_dual_bases_are_reflected(self, rng):
        for _ in range(10):
            P = rand_polymatroid(rng, rng.randint(1, 3))
            refl = {tuple(n - z for n, z in zip(P.n, b)) for b in P.bases()}
            assert P.dual().bases() == refl


class TestTruncateElongate:
    def test_truncate_rank_and_bases(self, rng):
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            if P.rank() < 1:
                continue
            T = P.truncate()
            assert T.rank() == P.rank() - 1
            expect = {z for z in P.points() if sum(z) == P.rank() - 1}
            assert T.bases() == expect

    def test_truncate_rank_zero_rejected(self):
        P = Polymatroid((2,), {(): 0, (0,): 0})
        with pytest.raises(UsageError):
            P.truncate()

    def test_elongate_rank(self, rng):
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            if P.rank() >= sum(P.n):
                continue
            assert P.elongate().rank() == P.rank() + 1

    def test_elongate_bases_cover_old_bases(self, rng):
        # Every base of the elongation dominates a base of the original.
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            if P.rank() >= sum(P.n):
                continue
            bases = P.bases()
            for z in P.elongate().bases():
                assert any(all(bi <= zi for bi, zi in zip(b, z))
                           for b in bases)

    def test_elongate_full_rejected(self):
        P = Polymatroid((1, 1), {(): 0, (0,): 1, (1,): 1, (0, 1): 2})
        with pytest.raises(UsageError):
            P.elongate()

    def test_truncate_point_set_formula(self, rng):
        # The truncated polytope is {z - e_j : z in P, z_j >= 1}.
        for _ in range(10):
            P = rand_polymatroid(rng, rng.randint(1, 3))
            if P.rank() < 1:
                continue
            expect = set()
            for z in P.points():
                for j in range(P.l):
                    if z[j] >= 1:
                        expect.add(z[:j] + (z[j] - 1,) + z[j + 1:])
            assert P.truncate().points() == expect

    def test_elongate_point_set_formula(self, rng):
        # The elongated polytope is the down-closure of
        # {z + e_j : z in P, z_j < n_j}.
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            if P.rank() >= sum(P.n):
                continue
            gen = set()
            for z in P.points():
                for j in range(P.l):
                    if z[j] < P.n[j]:
                        gen.add(z[:j] + (z[j] + 1,) + z[j + 1:])
            closure = set()
            for g in gen:
                for w in itertools.product(*[range(v + 1) for v in g]):
                    closure.add(w)
            assert P.elongate().points() == closure

    def test_truncate_then_elongate_on_bases(self, rng):
        # Elongating a truncation restores the rank; the original bases
        # reappear among the new ones.
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            if P.rank() < 1:
                continue
            E = P.truncate().elongate()
            assert E.rank() == P.rank()
            assert P.bases() <= E.bases()


class TestFormatCalculus:
    """The dim-table polymatroid and the formats of the product of two
    plane conics embedded in P3 x P3."""

    DIMS = {(0,): 1, (1,): 1, (0, 1): 2}

    def test_support_as_dual_bases(self):
        P = from_dim_table((3, 3), self.DIMS)
        assert P.dual().bases() == {(2, 2)}

    def test_chow_formats_as_truncation_bases(self):
        D = from_dim_table((3, 3), self.DIMS).dual()
        assert D.truncate().bases() == {(2, 1), (1, 2)}

    def test_hurwitz_formats_as_elongation_bases(self):
        D = from_dim_table((3, 3), self.DIMS).dual()
        assert D.truncate().elongate().bases() == {(1, 3), (2, 2), (3, 1)}

    def test_inequality_oracle_for_dual_bases(self, rng):
        # At full dual weight, membership in the dual polytope is the
        # projection-dimension system sum_{i in I}(n_i - beta_i) <= rank(I).
        for _ in range(10):
            P = rand_polymatroid(rng, 2)
            D = P.dual()
            expect = set()
            for beta in itertools.product(range(P.n[0] + 1),
                                          range(P.n[1] + 1)):
                if sum(beta) != sum(P.n) - P.rank():
                    continue
                if all(sum(P.n[i] - beta[i] for i in I) <= P.rank(I)
                       for I in subsets(2) if I):
                    expect.add(beta)
            assert D.bases() == expect
