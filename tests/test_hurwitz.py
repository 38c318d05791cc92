import pytest

from chowforms import MPoly, VarTable, gcd
from chowforms.errors import UsageError
from chowforms.mpoly import parse_poly
from chowforms.dimension import MultiprojVariety, RandomGrid
from chowforms.hurwitz import (_PencilSampler, discriminant_via_partials,
                               hurwitz_form, u_resultant)

X3 = VarTable(("x0", "x1", "x2"))
X4 = VarTable(("x0", "x1", "x2", "x3"))
M2 = VarTable(("m0", "m1"))
M3 = VarTable(("m0", "m1", "m2"))
GRID = RandomGrid(seed=3)


def P(text, vars):
    return parse_poly(text, vars)


def parabola():
    return MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)], dim=1)


def circle():
    return MultiprojVariety(X3, [P("x0^2 + x1^2 - x2^2", X3)], dim=1)


def quadratic_form(vars, A):
    n = len(A)
    terms = {}
    for i in range(n):
        for j in range(n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + A[i][j]
    return MPoly(vars, {k: v for k, v in terms.items() if v})


def rand_symmetric(rng, n, bound=5):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-bound, bound)
    return A


def det3(A):
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] ** 2)
            - A[0][1] * (A[0][1] * A[2][2] - A[1][2] * A[0][2])
            + A[0][2] * (A[0][1] * A[1][2] - A[1][1] * A[0][2]))


def adjugate3(A):
    out = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = (A[r[0]][c[0]] * A[r[1]][c[1]]
                     - A[r[0]][c[1]] * A[r[1]][c[0]])
            out[j][i] = (-1) ** (i + j) * minor
    return out


class TestUResultant:
    def test_conic_degrees(self):
        R1 = u_resultant(parabola(), GRID)
        assert R1.block_degrees() == (2, 2)  # = deg V in u-block and m-block

    def test_cubic_degrees(self):
        V = MultiprojVariety(X3, [P("x0^3 + x1^3 + x2^3", X3)], dim=1)
        R1 = u_resultant(V, GRID)
        assert R1.block_degrees() == (3, 3)

    def test_quadric_surface_two_u_blocks(self):
        V = MultiprojVariety(X4, [P("x0*x3 - x1*x2", X4)], dim=2)
        R1 = u_resultant(V, GRID)
        assert R1.block_degrees() == (2, 2, 2)

    def test_m_linear_factors_at_known_points(self):
        # {U1 = 0} with u = (0, 1, 0) meets the parabola at (1:0:0) and
        # (0:0:1); R1 specialized there is prop. to (m.p)(m.q) = m0 * m2.
        # The tangent line u = (0, 0, 1) gives the double point (1:0:0),
        # so the specialization degenerates to m0^2 there.
        R1 = u_resultant(parabola(), GRID)
        zero, one = MPoly.zero(R1.vars), MPoly.const(R1.vars, 1)
        secant = R1.substitute({"u10": zero, "u11": one, "u12": zero})
        expected = MPoly.var(R1.vars, "m0") * MPoly.var(R1.vars, "m2")
        assert secant.normalized() == expected.normalized()
        tangent = R1.substitute({"u10": zero, "u11": zero, "u12": one})
        expected = MPoly.var(R1.vars, "m0", 2)
        assert tangent.normalized() == expected.normalized()

    def test_linear_variety_rejected(self):
        V = MultiprojVariety(X3, [MPoly.var(X3, "x0")], dim=1)
        with pytest.raises(UsageError):
            u_resultant(V, GRID)

    def test_wrong_codimension_rejected(self):
        with pytest.raises(UsageError):
            u_resultant(MultiprojVariety(X3, [P("x0*x2 - x1^2", X3)], dim=0),
                        GRID)


def pencil_value(f, pencil):
    """The pencil sampler on a form in the m-block alone: one point."""
    q = _PencilSampler(f, pencil)([0] * f.vars.nvars)
    return q[0] if q else 0


class TestDiscriminant:
    # The sampler gives Res(p, p') / p[D] = (-1)^(D(D-1)/2) Disc(p) for
    # p(t) = f(a + t b): the sign is -1 for D = 2 and D = 3.

    def test_quadratic_form_gives_det(self, rng):
        done = 0
        while done < 5:
            A = rand_symmetric(rng, 3)
            a, b = ([rng.randint(-9, 9) for _ in range(3)] for _ in range(2))

            def form(v, w):
                return sum(v[i] * A[i][j] * w[j]
                           for i in range(3) for j in range(3))

            if form(b, b) == 0:
                continue  # p[D] = f(b) = 0: a bad point
            gram = form(a, a) * form(b, b) - form(a, b) ** 2
            disc = -pencil_value(quadratic_form(M3, A), (a, b))
            assert disc == -4 * gram
            done += 1

    def test_binary_cubic_matches_classical_discriminant(self, rng):
        for _ in range(8):
            a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            if d == 0:
                continue
            f = MPoly(M2, {k: v for k, v in
                           {(3, 0): a, (2, 1): b, (1, 2): c, (0, 3): d}.items()
                           if v})
            disc = (b * b * c * c - 4 * a * c ** 3 - 4 * b ** 3 * d
                    - 27 * a * a * d * d + 18 * a * b * c * d)
            # On the pencil (1, 0) + t (0, 1), p(t) = a + b t + c t^2 + d t^3.
            assert -pencil_value(f, ((1, 0), (0, 1))) == disc

    def test_repeated_linear_factor_is_zero(self):
        g = P("m0 + m1", M2)
        f = g * g * P("m0 - 2*m1", M2)
        assert pencil_value(f, ((1, 0), (0, 1))) == 0

    def test_linear_input_rejected(self):
        f = P("m0 + 3*m1", M2)
        with pytest.raises(UsageError):
            _PencilSampler(f, ((1, 0), (0, 1)))
        with pytest.raises(UsageError):
            discriminant_via_partials(f, GRID, ((1, 0), (0, 1)))


class TestConicFixtures:
    def test_parabola_dual_conic(self):
        H = hurwitz_form(parabola(), GRID)
        assert H.block_degrees() == (2,)
        expected = P("u11^2 - 4*u10*u12", H.vars)
        assert H == expected.normalized()

    def test_circle_dual_conic(self):
        H = hurwitz_form(circle(), GRID)
        assert H.block_degrees() == (2,)
        expected = P("u10^2 + u11^2 - u12^2", H.vars)
        assert H == expected.normalized()

    def test_random_smooth_conics_against_adjugate_oracle(self, rng):
        done = 0
        while done < 3:
            A = rand_symmetric(rng, 3)
            if det3(A) == 0:
                continue
            V = MultiprojVariety(X3, [quadratic_form(X3, A)], dim=1)
            H = hurwitz_form(V, GRID)
            U = ("u10", "u11", "u12")
            expected = quadratic_form(VarTable(U), adjugate3(A))
            expected = expected.substitute({}, H.vars)
            assert H == expected.normalized()
            done += 1

    def test_tangent_lines_vanish(self, rng):
        H = hurwitz_form(parabola(), GRID)
        for _ in range(15):
            t = rng.randint(-30, 30)
            # tangent at (1, t, t^2): the gradient (x2, -2x1, x0) there
            line = {"u10": t * t, "u11": -2 * t, "u12": 1}
            assert H.evaluate(line) == 0

    def test_secant_lines_do_not_vanish(self, rng):
        H = hurwitz_form(parabola(), GRID)
        done = 0
        while done < 15:
            s, t = rng.randint(-30, 30), rng.randint(-30, 30)
            if s == t:
                continue
            p = (1, s, s * s)
            q = (1, t, t * t)
            line = {"u10": p[1] * q[2] - p[2] * q[1],
                    "u11": p[2] * q[0] - p[0] * q[2],
                    "u12": p[0] * q[1] - p[1] * q[0]}
            assert H.evaluate(line) != 0
            done += 1


class TestFermatCubic:
    def test_dual_sextic(self):
        V = MultiprojVariety(X3, [P("x0^3 + x1^3 + x2^3", X3)], dim=1)
        H = hurwitz_form(V, GRID)
        assert H.block_degrees() == (6,)
        expected = P("u10^6 + u11^6 + u12^6 - 2*u10^3*u11^3 "
                     "- 2*u10^3*u12^3 - 2*u11^3*u12^3", H.vars)
        assert H == expected.normalized()


class TestSingularFixtures:
    def test_triangle_vertices(self):
        # Three lines: a line through a vertex e_k meets two of them at
        # e_k, so the Hurwitz form is u10 * u11 * u12.
        V = MultiprojVariety(X3, [P("x0*x1*x2", X3)], dim=1)
        H = hurwitz_form(V, GRID)
        assert H == P("u10*u11*u12", H.vars)

    def test_points_rejected(self):
        X2 = VarTable(("x0", "x1"))
        V = MultiprojVariety(X2, [P("x0^2 + 3*x0*x1 - x1^2", X2)], dim=0)
        with pytest.raises(UsageError, match="dim >= 1"):
            hurwitz_form(V, GRID)


class TestInvariants:
    def test_square_free(self):
        H = hurwitz_form(circle(), GRID)
        for name in H.vars.names:
            d = H.derivative(name)
            if not d.is_zero():
                assert gcd(H, d).is_constant()

    def test_seed_determinism(self):
        a = hurwitz_form(parabola(), RandomGrid(seed=11))
        b = hurwitz_form(parabola(), RandomGrid(seed=11))
        assert a == b
