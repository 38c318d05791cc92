"""Hurwitz forms of complete-intersection projective varieties.

Two elimination stages.  The first is the u-resultant R1 of the system
{f_1..f_{n-r}, U_1..U_r, M} with M = m_0 x_0 + ... + m_n x_n; over the
algebraic closure R1 = c * prod_j (m . p_j), one m-linear factor per point
p_j where the plane {U_1 = ... = U_r = 0} meets the variety.  The second
restricts R1 to a pencil m = a + t b and takes the discriminant in t:

    Disc_t = c^(2D-2) * prod_{j<k} Delta_jk^2,
    Delta_jk = (a ^ b) . (p_j ^ p_k),

with D = deg V.  It vanishes where two points collide, which is the
Hurwitz form, and where the line through two points meets the axis
{a . x = b . x = 0} of the pencil, which depends on the pencil.  A gcd over
pencils strips the latter, so no other factor has to be divided out
(Sturmfels, "The Hurwitz form of a projective variety", Math. Ann. 2017).
"""

from __future__ import annotations

import math

from .chow import Form, ci_resultant, u_block_names
from .dimension import RandomGrid
from .errors import IndeterminateError, InternalError, UsageError
from .mpoly import gcd, square_free_part
from .polydet import det_integer
from .resultant import _BadGrid, block_interpolation

# Pencil coordinates are drawn from [1, PENCIL_BOUND]: nonzero, so that
# the end point b of the pencil lies on no coordinate hyperplane, and small,
# so that the discriminants keep small coefficients.
PENCIL_BOUND = 2 ** 5


def m_block_names(n):
    return tuple(f"m{j}" for j in range(n + 1))


def u_resultant(V, r, grid=None):
    """R1: x eliminated from {f_1..f_{n-r}, U_1..U_r, M}
    (:func:`chow.ci_resultant`).

    Homogeneous of degree deg(V) in the m-block and in each u-block; its
    m-linear factors over the algebraic closure evaluate M at the points
    where the plane {U_1 = ... = U_r = 0} meets V.
    """
    if math.prod(f.total_degree() for f in V.polys) < 2:
        raise UsageError("the variety must have degree at least 2")
    n = V.total_dim
    blocks = [u_block_names(i, n) for i in range(1, r + 1)]
    blocks.append(m_block_names(n))
    return ci_resultant(V, r, blocks, grid, "hurwitz-u")


class _PencilSampler:
    """Res(p, p') / p[D] at integer points, p(t) = R1(u, a + t b) being R1
    restricted to the pencil ``(a, b)`` of its last variable block (the
    m-block), of degree D in t; up to the sign (-1)^(D(D-1)/2) this is the
    discriminant of p.

    The t-coefficients of p are compiled once into integer polynomials in
    the other variables, over one shared list of monomials.  A sample
    evaluates them, takes one (2D-1) x (2D-1) Sylvester determinant of p
    and p' and divides it by p[D] = R1(u, b), which divides its first
    column; it raises _BadGrid where p[D] = 0.  A sample is ``[value]``,
    or ``[]`` for zero.  Nothing is shared across a slice, so ``slice``
    hands out the sampler itself.
    """

    def __init__(self, R1, pencil):
        vars = R1.vars
        m_idx = vars.blocks[-1]
        a, b = pencil
        if len(a) != len(m_idx) or len(b) != len(m_idx):
            raise UsageError("a pencil needs two points of the m-block")
        self.D = max(sum(exp[i] for i in m_idx) for exp in R1.terms)
        if self.D < 2:
            raise UsageError("R1 must be at least quadratic in the m-block")
        # lines[e]: ascending t-coefficients of prod_k (a_k + t b_k)^e_k.
        lines = {}
        monos = {}
        coeffs = [{} for _ in range(self.D + 1)]
        for exp, c in R1.terms.items():
            e = tuple(exp[i] for i in m_idx)
            if e not in lines:
                line = [1]
                for ak, bk, ek in zip(a, b, e):
                    for _ in range(ek):
                        line = [x * ak + y * bk
                                for x, y in zip(line + [0], [0] + line)]
                lines[e] = line
            mono = tuple((v, k) for v, k in enumerate(exp)
                         if k and v not in m_idx)
            t = monos.setdefault(mono, len(monos))
            for j, lc in enumerate(lines[e]):
                coeffs[j][t] = coeffs[j].get(t, 0) + c * lc
        self.monos = list(monos)
        self.coeffs = [[(t, c) for t, c in cj.items() if c] for cj in coeffs]

    def __call__(self, point):
        mv = [math.prod(point[v] ** k for v, k in mono) for mono in self.monos]
        p = [sum(c * mv[t] for t, c in cj) for cj in self.coeffs]
        lead = p[-1]
        if not lead:
            raise _BadGrid
        D = self.D
        top = p[::-1]
        dtop = [c * (D - i) for i, c in enumerate(top[:-1])]
        rows = [[0] * i + top + [0] * (D - 2 - i) for i in range(D - 1)]
        rows += [[0] * i + dtop + [0] * (D - 1 - i) for i in range(D)]
        q, rem = divmod(det_integer(rows), lead)
        if rem:
            raise InternalError("p[D] does not divide the Sylvester "
                                "determinant of p and p'")
        return [q] if q else []

    def slice(self, top, keep=None):
        return self


def discriminant_via_partials(R1, grid, pencil):
    """R2: the resultant of R1(u, a + t b) and its t-partial, divided by
    R1(u, b), as a polynomial in the u-blocks (every block of R1 but the
    last, the m-block), for the pencil ``pencil = (a, b)``.

    R2 vanishes where R1 has a repeated m-linear factor, i.e. where two of
    the intersection points collide, and on factors that depend on the
    pencil.  With D the m-degree of R1 and d_b its degree in u-block b, R2
    is homogeneous of degree d_b (2D - 2) in block b; it is interpolated at
    exactly those degrees from :class:`_PencilSampler`'s samples.
    """
    vars = R1.vars
    u_blocks = [tuple(vars.names[i] for i in blk) for blk in vars.blocks[:-1]]
    if not u_blocks:
        raise UsageError("R1 has no u-block to interpolate in")
    sampler = _PencilSampler(R1, pencil)
    degrees = [R1.block_degree(b) * (2 * sampler.D - 2)
               for b in range(len(u_blocks))]
    out = block_interpolation(
        sampler, vars, u_blocks, degrees,
        (grid.rng("hurwitz-disc", pencil, a) for a in range(grid.retries)))
    if out is None:
        raise IndeterminateError(f"discriminant_via_partials found no checked "
                                 f"interpolant in {grid.retries} attempts")
    return out[0]


def hurwitz_form(V, r, grid=None):
    """Square-free Hurwitz form: the gcd of the discriminants of the
    u-resultant on random pencils (:func:`discriminant_via_partials`).

    Every discriminant is divisible by the tangency locus; the other
    factors depend on the pencil.  The raw discriminants of up to n + 1
    pencils are gcd-folded, stopping once another pencil no longer shrinks
    the fold, and the square-free part of the fold is the Hurwitz form.
    """
    if r < 1:
        raise UsageError("Hurwitz forms need dim >= 1: a finite set of "
                         "points has no tangent planes")
    if grid is None:
        grid = RandomGrid(seed=0)
    R1 = u_resultant(V, r, grid)
    n = V.total_dim
    H = None
    for k in range(n + 1):
        rng = grid.rng("hurwitz-pencil", k)
        pencil = tuple(tuple(rng.randint(1, PENCIL_BOUND)
                             for _ in range(n + 1)) for _ in range(2))
        R2 = discriminant_via_partials(R1, grid, pencil)
        if R2.is_zero():
            raise UsageError("discriminant vanished identically; the "
                             "variety is not reduced")
        R2 = R2.normalized()
        if H is None:
            H = R2
            continue
        folded = gcd(H, R2)
        if folded == H:
            break
        H = folded
    if H.is_constant():
        raise InternalError("the pencil discriminants share no common factor")
    return Form(square_free_part(H))
