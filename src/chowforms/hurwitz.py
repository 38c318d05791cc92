"""Hurwitz forms of complete-intersection projective varieties.

Two elimination stages: first the u-resultant R1 of the system
{f_1..f_{n-r}, U_1..U_r, M} with M = m_0 x_0 + ... + m_n x_n (a form whose
m-linear factors enumerate the intersection points), then the discriminant
of R1 with respect to the m-block, whose square-free part cut down by the
generic-incidence factor vanishes exactly on the (n-r)-planes meeting the
variety non-transversally.
"""

from __future__ import annotations

import math

from .chow import Form, u_block_names, with_linear_forms
from .dimension import RandomGrid
from .errors import InternalError, UsageError
from .mpoly import MPoly, divexact, gcd, square_free_part
from .resultant import MacaulaySystem, gcp_block_interpolation, gcp_resultant


def m_block_names(n):
    return tuple(f"m{j}" for j in range(n + 1))


def _check_ci(V, r):
    n = V.n
    m = len(V.polys)
    if m != n - r:
        raise UsageError(f"complete intersection needs {n - r} polynomials, "
                         f"got {m}")
    deg = math.prod(f.total_degree() for f in V.polys)
    if deg < 2:
        raise UsageError("the variety must have degree at least 2")
    return deg


def u_resultant(V, r, grid=None):
    """R1: x eliminated from {f_1..f_{n-r}, U_1..U_r, M}.

    Homogeneous of degree deg(V) in the m-block and in each u-block; its
    m-linear factors over the algebraic closure evaluate M at the points
    where the plane {U_1 = ... = U_r = 0} meets V.
    """
    deg = _check_ci(V, r)
    if grid is None:
        grid = RandomGrid(seed=0)
    n = V.n
    blocks = [u_block_names(i, n) for i in range(1, r + 1)]
    blocks.append(m_block_names(n))
    sys = MacaulaySystem(with_linear_forms(V.polys, V.vars.names, blocks),
                         V.vars.names)
    R1, _ = gcp_block_interpolation(sys, range(len(V.polys)), blocks,
                                    [deg] * (r + 1), grid, tag="hurwitz-u")
    if R1.is_zero() or R1.is_constant():
        raise UsageError("u-resultant degenerated; the input is not a "
                         "complete intersection of the expected dimension")
    return R1


def discriminant_via_partials(R1, grid=None, shift=0):
    """R2: m eliminated from the partial derivatives of R1.

    Vanishes when R1 has a repeated m-linear factor, i.e. when two of the
    intersection points collide (tangency) or escape (non-transversality).
    The result also carries factors depending on the perturbation variant
    ``shift``; the tangency locus itself divides R2 for every shift.
    """
    if grid is None:
        grid = RandomGrid(seed=0)
    vars = R1.vars
    m_names = vars.blocks[-1]
    m_names = tuple(vars.names[i] for i in m_names)
    if not all(n.startswith("m") for n in m_names):
        raise UsageError("expected the m-block as the last variable block")
    m_idx = [vars.index(n) for n in m_names]
    dm = max(sum(exp[i] for i in m_idx) for exp in R1.terms)
    if dm < 2:
        raise UsageError("R1 must be at least quadratic in the m-block")
    partials = [R1.derivative(n) for n in m_names]
    if any(p.is_zero() for p in partials):
        raise UsageError("R1 is independent of one of the m-variables")
    sys = MacaulaySystem(partials, m_names)
    u_blocks = []
    for blk in vars.blocks[:-1]:
        names = tuple(vars.names[i] for i in blk)
        if names and names[0].startswith("u"):
            u_blocks.append(names)
    nm = len(m_names)
    if not u_blocks:
        # Constant coefficients: the classical discriminant, zero exactly
        # when the resultant of the partials vanishes.
        res, val = gcp_resultant(sys, range(nm), with_valuation=True)
        if val > 0:
            return MPoly.zero(res.vars)
        return res
    profile = []
    degrees = []
    for blk in u_blocks:
        idx = [vars.index(n) for n in blk]
        db = max(sum(exp[i] for i in idx) for exp in R1.terms)
        profile.append(db)
        degrees.append(db * nm * (dm - 1) ** (nm - 1))
    R2, _ = gcp_block_interpolation(sys, range(nm), u_blocks, degrees, grid,
                                    tag=f"hurwitz-disc-{shift}",
                                    s_profile=profile, shift=shift)
    return R2


def _incidence_factor(V, r, grid):
    """Square-free resultant of {f_i, U_1..U_r, random hyperplane}: the
    generic-incidence locus in the same u-blocks, used to strip extraneous
    factors from the discriminant."""
    deg = math.prod(f.total_degree() for f in V.polys)
    rng = grid.rng("hurwitz-incidence")
    blocks = [u_block_names(i, V.n) for i in range(1, r + 1)]
    polys = with_linear_forms(V.polys, V.vars.names, blocks)
    H = MPoly.zero(polys[0].vars)
    for xname in V.vars.names:
        H = H + rng.randint(1, grid.bound) * MPoly.var(H.vars, xname)
    sys = MacaulaySystem(polys + [H], V.vars.names)
    C, _ = gcp_block_interpolation(sys, range(len(V.polys)), blocks,
                                   [deg] * r, grid, tag="hurwitz-chowfactor")
    if C.is_zero():
        raise InternalError("incidence factor vanished identically")
    return square_free_part(C).normalized()


def hurwitz_form(V, r, grid=None):
    """Square-free Hurwitz form: discriminant of the u-resultant, with
    perturbation-dependent and generic-incidence factors divided out.

    The tangency locus divides the discriminant for every perturbation
    variant, so a gcd over two variants strips the variant-dependent
    artifacts; the remaining generic-incidence component is removed via
    the Chow-style resultant with an extra random hyperplane.
    """
    if grid is None:
        grid = RandomGrid(seed=0)
    R1 = u_resultant(V, r, grid)
    n_m = len(m_block_names(V.n))
    H = None
    for shift in range(n_m):
        R2 = discriminant_via_partials(R1, grid, shift=shift)
        if R2.is_zero():
            raise UsageError("discriminant vanished identically; the sweep "
                             "is degenerate")
        part = square_free_part(R2).normalized()
        if H is None:
            H = part
            continue
        folded = gcd(H, part).normalized()
        # Accept once an extra variant stops shrinking the common factor.
        if folded == H:
            break
        H = folded
    if H.is_constant():
        raise InternalError("discriminant variants share no common factor")
    C = _incidence_factor(V, r, grid)
    if H.vars != C.vars:
        C = C.rename_into(H.vars)
    g = gcd(H, C)
    if not g.is_constant():
        H = divexact(H, g).normalized()
    if H.is_constant():
        raise InternalError("Hurwitz form reduced to a constant after "
                            "extraneous-factor removal")
    if not gcd(H, C).is_constant():
        raise InternalError("extraneous incidence factor survived removal")
    return Form(H)
