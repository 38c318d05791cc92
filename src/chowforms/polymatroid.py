"""Integer polymatroids on a finite ground set, with the duality,
truncation and elongation operations that govern hypersurface formats.

A polymatroid is given by its rank function: a normalized, nondecreasing,
submodular integer function on subsets of {0..l-1}, bounded above on
singletons by an ambient box.  Its bases are the integer points of maximal
total weight; supports of varieties and their Chow/Hurwitz hypersurface
formats arise as bases of a polymatroid, of its truncation and of its
elongation respectively.
"""

from __future__ import annotations

import itertools

from .errors import UsageError


def _subsets(l):
    for size in range(l + 1):
        yield from itertools.combinations(range(l), size)


class Polymatroid:
    """Rank function delta on subsets of {0..l-1} inside the box
    prod [0, n_i]; ``table`` maps each subset (sorted tuple) to its rank."""

    def __init__(self, n, table):
        self.n = tuple(n)
        self.l = len(self.n)
        self.table = {tuple(sorted(k)): v for k, v in table.items()}
        for I in _subsets(self.l):
            if I not in self.table:
                raise UsageError(f"rank table is missing the subset {I}")
        if not self.is_valid():
            raise UsageError("table is not a polymatroid rank function "
                             "inside the box")

    def rank(self, I=None):
        if I is None:
            return self.table[tuple(range(self.l))]
        return self.table[tuple(sorted(I))]

    def is_valid(self):
        t = self.table
        if t[()] != 0:
            return False
        subsets = list(_subsets(self.l))
        for I in subsets:
            if t[I] < 0:
                return False
            for J in subsets:
                if set(I) <= set(J) and t[I] > t[J]:
                    return False
                union = tuple(sorted(set(I) | set(J)))
                inter = tuple(sorted(set(I) & set(J)))
                if t[union] + t[inter] > t[I] + t[J]:
                    return False
        # The box keeps every operation's result a lattice polytope in it.
        for i in range(self.l):
            if t[(i,)] > self.n[i]:
                return False
        return True

    def member(self, z):
        if len(z) != self.l or any(v < 0 for v in z):
            return False
        return all(sum(z[i] for i in I) <= self.table[I]
                   for I in _subsets(self.l))

    def points(self):
        """All integer points of the polymatroid polytope."""
        box = [range(min(self.n[i], self.table[(i,)]) + 1)
               for i in range(self.l)]
        return {z for z in itertools.product(*box) if self.member(z)}

    def bases(self):
        r = self.rank()
        return {z for z in self.points() if sum(z) == r}

    def dual(self):
        """Box dual: rank I -> sum_{i in I} n_i - rank([l]) + rank([l]-I).
        An involution; bases of the dual are n - (bases)."""
        r = self.rank()
        full = set(range(self.l))
        table = {}
        for I in _subsets(self.l):
            comp = tuple(sorted(full - set(I)))
            table[I] = sum(self.n[i] for i in I) - r + self.table[comp]
        return Polymatroid(self.n, table)

    def truncate(self):
        """Lower the rank by one: rank I -> min(rank I, rank([l]) - 1) for
        nonempty I.  Bases are the points of weight rank - 1."""
        r = self.rank()
        if r < 1:
            raise UsageError("cannot truncate a rank-0 polymatroid")
        table = {I: (min(v, r - 1) if I else 0)
                 for I, v in self.table.items()}
        return Polymatroid(self.n, table)

    def elongate(self):
        """Raise the rank by one inside the box: the dual of the truncated
        dual.  Bases are the points z <= n of weight rank + 1 lying above
        some base of the original."""
        if self.rank() >= sum(self.n):
            raise UsageError("cannot elongate past the box")
        return self.dual().truncate().dual()

    def __eq__(self, other):
        return (isinstance(other, Polymatroid) and self.n == other.n
                and self.table == other.table)

    def __repr__(self):
        return f"Polymatroid(n={self.n}, rank={self.rank()})"


def from_dim_table(nvec, dims):
    """Polymatroid of projection dimensions: rank(I) = dim pi_I(V).

    Submodularity holds for dimension tables of irreducible varieties; its
    box dual has the support formats as bases, the truncation of the dual
    has the Chow hypersurface formats, and the elongation of that
    truncation has the Hurwitz hypersurface format candidates (the bases
    on the support still require multidegree > 1).
    """
    table = dict(dims)
    table[()] = 0
    return Polymatroid(tuple(nvec), table)
