"""Substitution, determinant, resultant, gcd and dimension kernels against
sympy."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chowforms import MPoly, VarTable
from chowforms import mpoly, polydet
from chowforms.dimension import MultiprojVariety, RandomGrid, dim_projection
from chowforms.errors import InternalError, UsageError
from chowforms.hurwitz import _PencilSampler, u_resultant
from chowforms.mpoly import (divexact, gcd, parse_poly, square_free_part,
                             unpack_digits)
from chowforms.polydet import (PolyMatrix, det_bareiss, det_integer,
                               det_packed, det_slice, ff_reduce, pack_rows,
                               packing_shift, rank_integer, row_norms)
from chowforms.resultant import (MultiResSystem, monomials_of_degree,
                                 resultant_dense)
from conftest import rand_poly

sympy = pytest.importorskip("sympy")

S = sympy.Symbol("s")


@st.composite
def integer_matrices(draw, max_dim=6, bound=50):
    m = draw(st.integers(1, max_dim))
    return [[draw(st.integers(-bound, bound)) for _ in range(m)]
            for _ in range(m)]


@st.composite
def packed_matrices(draw, max_dim=4, bound=20):
    """(base, entries, coefficient matrix) for det_packed.

    Entries have at most ``width`` coefficients; width 1 is the
    integer-matrix shortcut.  Each entry goes either into the base (a
    constant) or into the listed entries, which may hold [] and [c].
    """
    m = draw(st.integers(1, max_dim))
    width = draw(st.integers(1, 3))
    coeff = st.integers(-bound, bound)
    base = [[0] * m for _ in range(m)]
    entries = []
    cells = []
    for i in range(m):
        row = []
        for j in range(m):
            coeffs = draw(st.lists(coeff, max_size=width))
            if len(coeffs) == 1 and draw(st.booleans()):
                base[i][j] = coeffs[0]
            else:
                entries.append((i, j, coeffs))
            row.append(coeffs)
        cells.append(row)
    return base, entries, cells


def sympy_coeffs(cells):
    """Ascending s-coefficients of det, high zeros dropped."""
    M = sympy.Matrix([[sum(c * S ** k for k, c in enumerate(coeffs))
                       for coeffs in row] for row in cells])
    det = sympy.expand(M.det(method="berkowitz"))
    if det == 0:
        return []
    return [int(c) for c in reversed(sympy.Poly(det, S).all_coeffs())]


@settings(max_examples=80, deadline=None)
@given(integer_matrices())
def test_det_integer_matches_sympy(rows):
    assert det_integer(rows) == sympy.Matrix(rows).det(method="bareiss")


@settings(max_examples=80, deadline=None)
@given(packed_matrices())
def test_det_packed_matches_sympy(case):
    base, entries, cells = case
    assert det_packed(base, entries) == sympy_coeffs(cells)


@settings(max_examples=40, deadline=None)
@given(packed_matrices(max_dim=5, bound=10 ** 6))
def test_det_packed_large_coefficients_match_sympy(case):
    base, entries, cells = case
    assert det_packed(base, entries) == sympy_coeffs(cells)


@st.composite
def row_splits(draw, m):
    """Positions of the varying rows of an m x m matrix (0 to m of them)
    and a count of leading columns to zero in the fixed rows, which forces
    column pivots and, past m - k columns, a rank deficit."""
    at = sorted(draw(st.sets(st.integers(0, m - 1))))
    return at, draw(st.integers(0, m - 1))


def split(rows, at):
    fixed = [r for i, r in enumerate(rows) if i not in at]
    return fixed, [rows[i] for i in at]


def zero_leading(rows, at, count):
    return [r if i in at else [0] * count + r[count:]
            for i, r in enumerate(rows)]


@settings(max_examples=120, deadline=None)
@given(integer_matrices().flatmap(
    lambda rows: st.tuples(st.just(rows), row_splits(len(rows)),
                           st.booleans())))
def test_det_slice_matches_det_integer_and_sympy(case):
    rows, (at, zeros), repeat = case
    rows = zero_leading(rows, at, zeros)
    fixed_at = [i for i in range(len(rows)) if i not in at]
    if repeat and len(fixed_at) >= 2:
        # A multiple of another fixed row: rank-deficient fixed rows.
        rows[fixed_at[1]] = [-3 * v for v in rows[fixed_at[0]]]
    fixed, vary = split(rows, at)
    want = det_integer(rows)
    assert want == sympy.Matrix(rows).det(method="bareiss")
    assert det_slice(fixed, at)(vary) == want


def test_det_slice_edge_splits(rng):
    """D = 0, D = m, one varying row, rank-deficient fixed rows, zero
    leading entries and negative entries, each against det_integer."""
    for _ in range(40):
        m = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(m)]
        splits = [[], list(range(m)), [rng.randrange(m)],
                  sorted(rng.sample(range(m), rng.randint(0, m)))]
        for at in splits:
            for zeros in (0, rng.randrange(m), m - 1):
                case = zero_leading(rows, at, zeros)
                fixed, vary = split(case, at)
                assert det_slice(fixed, at)(vary) == det_integer(case)
                # Other varying rows on the same reduction.
                vary = [[rng.randint(-9, 9) for _ in range(m)] for _ in at]
                for i, r in zip(at, vary):
                    case[i] = r
                assert det_slice(fixed, at)(vary) == det_integer(case)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.integers(k, 7).flatmap(
    lambda m: st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                       min_size=k, max_size=k))))
def test_ff_reduce_matches_sympy(rows):
    F = sympy.Matrix(rows)
    k, m = F.shape
    assert rank_integer(rows) == F.rank()
    red = ff_reduce(rows)
    if F.rank() < k:
        assert red is None
        return
    pivots, d, X = red
    assert pivots == list(F.rref()[1])
    A = F[:, pivots]
    assert d == A.det()
    other = [c for c in range(m) if c not in pivots]
    assert sympy.Matrix(k, len(other), sum(X, [])) == d * A.inv() * F[:, other]


def test_det_slice_remainder_raises(rng, monkeypatch):
    # A reduction with a corrupted entry breaks Sylvester's identity.
    inner = polydet.ff_reduce

    def corrupted(rows):
        pivots, d, X = inner(rows)
        X[0][0] += 1
        return pivots, d, X

    monkeypatch.setattr(polydet, "ff_reduce", corrupted)
    raised = 0
    for _ in range(20):
        fixed = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
        if rank_integer(fixed) < 3:
            continue
        vary = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(2)]
        try:
            det_slice(fixed, [3, 4])(vary)
        except InternalError:
            raised += 1
    assert raised >= 10


@settings(max_examples=80, deadline=None)
@given(packed_matrices(max_dim=5).flatmap(
    lambda case: st.tuples(st.just(case), row_splits(len(case[0])),
                           st.integers(0, 9))))
def test_det_slice_packed_matches_det_packed(case):
    (base, entries, cells), (at, _), widen = case
    want = det_packed(base, entries)
    assert want == sympy_coeffs(cells)
    rows = [list(r) for r in base]
    # A wider K than the norms ask for reads the same digits.
    shift = packing_shift(row_norms(base, entries)) + widen
    pack_rows(rows, entries, shift)
    fixed, vary = split(rows, at)
    assert unpack_digits(det_slice(fixed, at)(vary), shift) == want


XY = VarTable(("x", "y"))
XYA = VarTable(("x0", "x1", "a"))


def to_sympy(f):
    gens = sympy.symbols(f.vars.names)
    return sympy.Add(*[c * sympy.Mul(*[g ** e for g, e in zip(gens, exp)])
                       for exp, c in f.terms.items()])


def from_sympy(expr, vars):
    poly = sympy.Poly(expr, *sympy.symbols(vars.names))
    return MPoly(vars, {exp: int(c) for exp, c in poly.terms()})


@st.composite
def polys(draw, vars=XY, max_deg=3, max_terms=5, bound=9):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.integers(0, max_deg)) for _ in range(vars.nvars))
        if sum(exp) <= max_deg:
            terms[exp] = draw(st.integers(-bound, bound))
    return MPoly(vars, terms)


def test_substitute_matches_sympy(rng):
    # Every variable gets an integer image, a polynomial image or none, and
    # the result lands in the polynomial's own table or in a supertable
    # with one more variable; sympy substitutes all images at once.
    XYZ = VarTable(("x", "y", "z"))
    wide = VarTable(("x", "y", "z", "w"))
    for trial in range(60):
        f = rand_poly(rng, XYZ, max_deg=4, max_terms=8)
        target = wide if trial % 2 else XYZ
        mapping = {}
        for name in XYZ.names:
            kind = rng.randrange(3)
            if kind == 0:
                mapping[name] = rng.randint(-5, 5)
            elif kind == 1:
                mapping[name] = rand_poly(rng, target, max_deg=2,
                                          max_terms=3, max_coeff_bits=3)
        images = {sympy.Symbol(n): to_sympy(v) if isinstance(v, MPoly) else v
                  for n, v in mapping.items()}
        want = sympy.expand(to_sympy(f).xreplace(images))
        assert f.substitute(mapping, target) == from_sympy(want, target)
        if any(isinstance(v, MPoly) for v in mapping.values()) \
                or target is XYZ:
            # The target defaults to the images' table, else to f's.
            assert f.substitute(mapping) == f.substitute(mapping, target)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(polys(max_deg=2, max_terms=3), min_size=m,
                                max_size=m), min_size=m, max_size=m)))
def test_det_bareiss_matches_sympy(rows):
    want = sympy.Matrix([[to_sympy(e) for e in r] for r in rows]).det(
        method="berkowitz")
    assert det_bareiss(PolyMatrix(rows)) == from_sympy(sympy.expand(want), XY)


@st.composite
def binary_forms(draw, max_deg=3):
    """A form in (x0, x1) of degree d >= 1 whose coefficients are affine in
    the parameter a, with nonzero x0^d coefficient."""
    d = draw(st.integers(1, max_deg))
    terms = {}
    for i in range(d + 1):
        c0, c1 = draw(st.integers(-9, 9)), draw(st.integers(-3, 3))
        if i == 0 and c0 == c1 == 0:
            c0 = 1
        terms[(d - i, i, 0)] = c0
        terms[(d - i, i, 1)] = c1
    return MPoly(XYA, terms)


@settings(max_examples=60, deadline=None)
@given(binary_forms(), binary_forms())
def test_resultant_dense_matches_sympy(f, g):
    sys = MultiResSystem([f, g], [("x0", "x1")])
    got = resultant_dense(sys)
    x0, x1, _ = sympy.symbols(XYA.names)
    want = sympy.resultant(to_sympy(f).subs(x1, 1), to_sympy(g).subs(x1, 1),
                           x0)
    want = from_sympy(sympy.expand(want), XYA)
    want = MPoly(got.vars, {exp[2:]: c for exp, c in want.terms.items()})
    assert got == want or got == -want


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_gcd_matches_sympy(f, g, h):
    # A shared factor h makes the gcd nontrivial more often.
    f, g = f * h, g * h
    if f.is_zero() and g.is_zero():
        return
    want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)), XY)
    assert gcd(f, g).normalized() == want.normalized()


@settings(max_examples=60, deadline=None)
@given(polys(max_deg=2), polys(max_deg=2))
def test_square_free_part_matches_sympy(f, g):
    f = f * f * g
    if f.is_zero():
        return
    want = from_sympy(sympy.Poly(to_sympy(f), *sympy.symbols(XY.names))
                      .sqf_part().as_expr(), XY)
    assert square_free_part(f) == want.normalized()


XYZ = VarTable(("x", "y", "z"))


def sympy_sqf_part(f):
    want = sympy.Poly(to_sympy(f), *sympy.symbols(f.vars.names)).sqf_part()
    return from_sympy(want.as_expr(), f.vars).normalized()


@settings(max_examples=60, deadline=None)
@given(polys(XYZ, max_deg=2), polys(XYZ, max_deg=2), polys(XYZ, max_deg=2))
@example(MPoly.const(XYZ, 1), MPoly.const(XYZ, 1), MPoly.const(XYZ, 2))
@example(parse_poly("-7*x^2 + y*z + 2*y", XYZ),
         parse_poly("-8*x*z - 9*y", XYZ),
         parse_poly("-7*x*y - x - 2*y + 9*z", XYZ))
def test_three_variable_gcd_and_square_free_part_match_sympy(f, g, h):
    # The second example's square-free part takes gcds of partials of
    # degree 11 in three variables, which must finish in seconds.
    f, g = f * h, g * h
    if not (f.is_zero() and g.is_zero()):
        want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)), XYZ)
        assert gcd(f, g) == want.normalized()
    f = f * f * g
    if not f.is_zero():
        assert square_free_part(f) == sympy_sqf_part(f)


@settings(max_examples=60, deadline=None)
@given(polys(XYZ), st.integers(-9, 9).filter(bool),
       st.tuples(*[st.integers(0, 3)] * 3))
def test_gcd_with_a_monomial_matches_sympy(f, c, exp):
    m = MPoly(XYZ, {exp: c})
    want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(m)), XYZ).normalized()
    assert gcd(f, m) == want
    assert gcd(m, f) == want


@settings(max_examples=60, deadline=None)
@given(polys(XYZ, max_deg=2), polys(XYZ, max_deg=2), polys(XYZ, max_deg=2))
def test_certified_square_free_part_matches_sympy(f, g, h):
    # Whether the certificate holds or not, square_free_part gives sympy's
    # square-free part, and what the gcd path gives with the certificate
    # off.
    f = f * g * h
    if f.is_zero():
        return
    got = square_free_part(f)
    assert got == sympy_sqf_part(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpoly, "_certified_square_free", lambda f: False)
        assert got == square_free_part(f)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys(max_terms=2))
def test_divexact_matches_sympy(f, g, h):
    if g.is_zero():
        return
    num = f * g + h

    def over_zz(p):
        return sympy.Poly(to_sympy(p), *sympy.symbols(XY.names), domain="ZZ")

    try:
        q = over_zz(num).exquo(over_zz(g), auto=False)
    except sympy.ExactQuotientFailed:
        with pytest.raises(UsageError):
            divexact(num, g)
    else:
        assert divexact(num, g) == from_sympy(q.as_expr(), XY)


def test_pencil_sampler_matches_sympy_discriminant(rng):
    # At a random integer u and pencil (a, b), the Hurwitz stage's sample
    # is (-1)^(D(D-1)/2) times sympy's discriminant in t of
    # p(t) = R1(u, a + t b), for a conic and a cubic in P^2 and a quadric
    # surface in P^3 (two u-blocks).
    t = sympy.Symbol("t")
    checked = 0
    for nvars, d, r in ((3, 2, 1), (3, 3, 1), (4, 2, 2)):
        vars = VarTable(tuple(f"x{i}" for i in range(nvars)))
        f = MPoly(vars, {e: rng.randint(-3, 3)
                         for e in monomials_of_degree(nvars, d)})
        R1 = u_resultant(MultiprojVariety(vars, [f]), r, RandomGrid(seed=5))
        m_idx = R1.vars.blocks[-1]
        D = R1.block_degree(len(R1.vars.blocks) - 1)
        for _ in range(6):
            a, b = ([rng.randint(-9, 9) for _ in m_idx] for _ in range(2))
            point = [rng.randint(-9, 9) for _ in R1.vars.names]
            at = list(point)
            for i, ak, bk in zip(m_idx, a, b):
                at[i] = ak + bk * t
            p = sympy.Poly(sympy.expand(sympy.Add(*[
                c * sympy.Mul(*[v ** e for v, e in zip(at, exp)])
                for exp, c in R1.terms.items()])), t)
            if p.degree() < D:
                continue  # p[D] = R1(u, b) = 0: a bad point
            want = (-1) ** (D * (D - 1) // 2) * sympy.discriminant(p)
            got = _PencilSampler(R1, (a, b))(point)
            assert (got[0] if got else 0) == want
            checked += 1
    assert checked >= 12


# -- the dimension predicate against a Groebner basis ------------------

def groebner_dim(polys):
    """dim V(polys) in P^n: the Krull dimension of the grevlex
    leading-term ideal, which is that of the ideal, minus 1.  A monomial
    ideal has dimension max |S| over the sets S of variables that contain
    the support of no leading monomial."""
    gens = sympy.symbols(polys[0].vars.names)
    basis = sympy.groebner([to_sympy(f) for f in polys], *gens,
                           order="grevlex")
    leads = [{i for i, e in enumerate(
        sympy.Poly(g, *gens).monoms(order="grevlex")[0]) if e}
        for g in basis.exprs]
    for size in range(len(gens), -1, -1):
        for S in itertools.combinations(range(len(gens)), size):
            if not any(lead <= set(S) for lead in leads):
                return size - 1
    return -1  # the unit ideal


def random_forms(rng, vars):
    """1-3 forms of degree 1-2, coefficients in [-3, 3], none zero."""
    out = []
    count = rng.randint(1, 3)
    while len(out) < count:
        d = rng.randint(1, 2)
        f = MPoly(vars, {e: rng.randint(-3, 3)
                         for e in monomials_of_degree(vars.nvars, d)})
        if not f.is_zero():
            out.append(f)
    return out


def test_dim_projection_matches_groebner_dimension():
    # Random systems in P^2 and P^3, empty ones, and reducible ones whose
    # components have different dimensions.
    X3, X4 = (VarTable(tuple(f"x{i}" for i in range(n))) for n in (3, 4))
    P = mpoly.parse_poly
    cases = [[MPoly.const(X3, 1)],
             [P(n, X3) for n in X3.names],
             [P("x0*x1", X3), P("x0*x2", X3)],
             [P("x0*x1", X4), P("x0*x2", X4)],
             [P("x0*x1", X4), P("x0*x2", X4), P("x0*x3", X4)]]
    rng = random.Random(11)
    cases += [random_forms(rng, rng.choice((X3, X4))) for _ in range(24)]
    grid = RandomGrid(seed=3)
    dims = []
    for polys in cases:
        want = groebner_dim(polys)
        names = polys[0].vars.names
        assert dim_projection(polys, (names,), [0], grid) == want, polys
        dims.append(want)
    assert set(dims) == {-1, 0, 1, 2}
