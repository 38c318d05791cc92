import math
import random

import pytest

from chowforms import (MPoly, PolyMatrix, UsageError, VarTable, det_bareiss,
                       det_integer, parse_poly)
from chowforms.mpoly import unpack_digits
from chowforms.polydet import det_packed, pack_rows, packing_shift, row_norms
from conftest import (det_cofactor, kronecker_coeffs, kronecker_matrix,
                      rand_poly)


def mat(vars, rows):
    return PolyMatrix([[parse_poly(e, vars) if isinstance(e, str)
                        else MPoly.const(vars, e) for e in r] for r in rows])


def rand_matrix(rng, vars, dim, max_deg, max_coeff_bits):
    return PolyMatrix([[rand_poly(rng, vars, max_deg=max_deg,
                                  max_coeff_bits=max_coeff_bits, max_terms=4)
                        for _ in range(dim)] for _ in range(dim)])


class TestCofactor:
    def test_identity(self, xy):
        M = mat(xy, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert det_cofactor(M) == 1

    def test_2x2_symbolic(self, xy):
        M = mat(xy, [["x", 1], [1, "x"]])
        assert det_cofactor(M) == parse_poly("x^2 - 1", xy)

    def test_repeated_rows(self, xy):
        M = mat(xy, [["x", "y"], ["x", "y"]])
        assert det_cofactor(M).is_zero()

    def test_dim_cap(self, xy):
        M = mat(xy, [[1] * 7 for _ in range(7)])
        with pytest.raises(UsageError):
            det_cofactor(M)


class TestBareiss:
    def test_matches_cofactor_random(self, rng, xyz):
        for _ in range(25):
            dim = rng.randint(2, 4)
            M = rand_matrix(rng, xyz, dim, max_deg=2, max_coeff_bits=5)
            assert det_bareiss(M) == det_cofactor(M)

    def test_integer_det(self, rng):
        for _ in range(25):
            dim = rng.randint(2, 5)
            rows = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(dim)]
            vars = VarTable(("x",))
            M = mat(vars, rows)
            assert det_integer(rows) == det_cofactor(M).constant_value()

    def test_row_swap_sign(self, rng, xyz):
        for _ in range(10):
            M = rand_matrix(rng, xyz, 3, max_deg=1, max_coeff_bits=4)
            rows = list(M.entries)
            rows[0], rows[1] = rows[1], rows[0]
            assert det_bareiss(PolyMatrix(rows)) == -det_bareiss(M)

    def test_duplicated_row_zero(self, rng, xyz):
        for _ in range(10):
            M = rand_matrix(rng, xyz, 3, max_deg=1, max_coeff_bits=4)
            rows = list(M.entries)
            rows[2] = rows[0]
            assert det_bareiss(PolyMatrix(rows)).is_zero()


class TestUnivariateInterp:
    def test_diag(self):
        z = VarTable(("z",))
        M = mat(z, [["z", 0], [0, "z"]])
        assert self.packed(M) == self.coeffs(parse_poly("z^2", z))

    def test_constant_matrix(self):
        z = VarTable(("z",))
        M = mat(z, [[2, 1], [1, 3]])
        assert self.packed(M) == [5]

    def test_random_5x5_degree3(self, rng):
        z = VarTable(("z",))
        for _ in range(5):
            M = rand_matrix(rng, z, 5, max_deg=3, max_coeff_bits=6)
            assert self.packed(M) == self.coeffs(det_cofactor(M))

    def test_cap_too_small_detected(self):
        # No degree cap to fall short of: entries of degree 3 give all
        # seven coefficients of z^6.
        z = VarTable(("z",))
        M = mat(z, [["z^3", 0], [0, "z^3"]])
        assert self.packed(M) == [0] * 6 + [1]

    @staticmethod
    def packed(M):
        """det_packed on M's coefficient lists, constant entries in the base."""
        base = [[e.constant_value() if e.is_constant() else 0 for e in r]
                for r in M.entries]
        entries = [(i, j, [e.terms.get((k,), 0)
                           for k in range(e.partial_degree(0) + 1)])
                   for i, r in enumerate(M.entries) for j, e in enumerate(r)
                   if not e.is_constant()]
        return det_packed(base, entries)

    @staticmethod
    def coeffs(f):
        return [f.terms.get((k,), 0) for k in range(f.partial_degree(0) + 1)] \
            if not f.is_zero() else []

    def test_packed_matches_cofactor(self, rng):
        # Entries of s-degree up to 3 with signed coefficients, dims 1..5.
        z = VarTable(("z",))
        for _ in range(30):
            M = rand_matrix(rng, z, rng.randint(1, 5), max_deg=3, max_coeff_bits=7)
            assert self.packed(M) == self.coeffs(det_cofactor(M))

    def test_packed_negative_coefficients(self):
        z = VarTable(("z",))
        M = mat(z, [["-3*z^3 - 7", "-z"], ["5", "-2*z^2 + 1"]])
        assert self.packed(M) == self.coeffs(det_cofactor(M))
        assert self.packed(M) == [-7, 5, 14, -3, 0, 6]

    def test_packed_degree_zero(self):
        # Every entry constant: the base alone, one coefficient.
        z = VarTable(("z",))
        assert self.packed(mat(z, [[2, 1], [1, 3]])) == [5]
        assert det_packed([[0, 4], [-3, 0]], [(0, 0, [7]), (1, 1, [-1])]) == [5]

    def test_packed_singular_is_empty(self):
        z = VarTable(("z",))
        assert self.packed(mat(z, [["z + 1", "z^2 - 3"], ["z + 1", "z^2 - 3"]])) == []
        assert det_packed([[0, 0], [1, 2]], [(0, 0, [0, 0])]) == []

    def test_packed_zero_interior_coefficient(self):
        # det = z^3 + 2*z^0: the z and z^2 digits are zero.
        z = VarTable(("z",))
        M = mat(z, [["z^3 + 1", 1], [-1, 1]])
        assert self.packed(M) == [2, 0, 0, 1]


class TestKronecker:
    """det_packed on Kronecker-substituted multivariate matrices: the
    substitution is a ring map, so the packed determinant is the
    substituted cofactor determinant."""

    def test_identity(self, xyz):
        M = mat(xyz, [[1, 0], [0, 1]])
        assert det_packed(*kronecker_matrix(M, (2, 2, 2))) == [1]

    def test_univariate_case(self, xy):
        M = mat(xy, [["x", 1], [1, "x"]])
        assert det_packed(*kronecker_matrix(M, (2, 2))) == \
            kronecker_coeffs(parse_poly("x^2 - 1", xy), (2, 2))

    def test_matches_cofactor_small_batch(self, rng, xyz):
        # The full 30-matrix batch at criterion scale runs in test_acceptance.
        for _ in range(5):
            M = rand_matrix(rng, xyz, 4, max_deg=2, max_coeff_bits=8)
            caps = [max(4 * max(e.partial_degree(i) for r in M.entries
                                for e in r), 1) for i in range(3)]
            assert det_packed(*kronecker_matrix(M, caps)) == \
                kronecker_coeffs(det_cofactor(M), caps)

    def test_full_caps_one_matrix(self, rng, xyz):
        # Packed degree up to 728: one determinant, not 729 samples.
        M = rand_matrix(rng, xyz, 4, max_deg=2, max_coeff_bits=8)
        assert det_packed(*kronecker_matrix(M, (8, 8, 8))) == \
            kronecker_coeffs(det_cofactor(M), (8, 8, 8))

    def test_cap_below_entry_degree(self):
        # An entry coefficient beyond a digit's balanced range carries into
        # the next digit; det_packed's digit width reads it.
        entries = [(0, 0, [3, 1])]
        rows = [[0]]
        pack_rows(rows, entries, 2)
        assert unpack_digits(rows[0][0], 2) == [-1, 2]
        assert det_packed([[0]], entries) == [3, 1]

    def test_cap_below_row_sum_bound(self):
        # Each entry of diag(1 + z, 1 + z, 1 + z) fits 2-bit digits, but
        # the determinant's coefficient 3 does not; the width comes from
        # the row norms, not from the entries.
        base = [[0] * 3 for _ in range(3)]
        entries = [(i, i, [1, 1]) for i in range(3)]
        rows = [list(r) for r in base]
        pack_rows(rows, entries, 2)
        assert unpack_digits(det_integer(rows), 2) != [1, 3, 3, 1]
        assert packing_shift(row_norms(base, entries)) > 2
        assert det_packed(base, entries) == [1, 3, 3, 1]


class TestHadamardBitsize:
    def test_bitsize_inequality(self, rng, xyz):
        for _ in range(15):
            dim = rng.randint(2, 4)
            M = rand_matrix(rng, xyz, dim, max_deg=2, max_coeff_bits=8)
            d = det_bareiss(M)
            if d.is_zero():
                continue
            tau = max(e.bitsize() for r in M.entries for e in r)
            terms = max(len(e.terms) for r in M.entries for e in r)
            slack = dim * max(math.ceil(math.log2(max(terms, 2))), 1)
            assert d.bitsize() <= dim * tau + dim * math.ceil(math.log2(dim)) + slack
