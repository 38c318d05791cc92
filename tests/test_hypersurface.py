"""The closed form of the complete-intersection resultant for one
polynomial f: the linear forms on each block cut out one point xi, the
signed maximal minors of that block's u-matrix, and the resultant is
f(xi_1, ..., xi_l).  Each case is checked against the elimination it
replaces, run directly on the system with the linear forms appended, and
the CLI route draws nothing and takes no integer determinant."""

import contextlib
import io
import random
import sys

import pytest

from chowforms import MPoly, VarTable
from chowforms.chow import (ci_resultant, hypersurface_resultant,
                            u_block_names, with_linear_forms)
from chowforms.cli import main
from chowforms.dimension import MultiprojVariety, RandomGrid
from chowforms.hurwitz import m_block_names, u_resultant
from chowforms.mixedres import resultant_multihomogeneous_interp
from chowforms.mpoly import parse_poly
from chowforms.resultant import (MultiResSystem, gcp_block_interpolation,
                                 monomials_of_degree)

P1P1 = VarTable(("x0", "x1", "y0", "y1"), ((0, 1), (2, 3)))
P2P2 = VarTable(("x0", "x1", "x2", "y0", "y1", "y2"),
                ((0, 1, 2), (3, 4, 5)))


def projective(n):
    return VarTable(tuple(f"x{i}" for i in range(n + 1)))


def random_form(rng, vars, d):
    return MPoly(vars, {e: rng.randint(-3, 3)
                        for e in monomials_of_degree(vars.nvars, d)})


def eliminated(V, forms):
    """The elimination the closed form replaces: every x-block eliminated
    from V's polynomials and the linear forms of ``forms``, by the
    perturbed Macaulay engine on one block, Canny-Emiris on several."""
    polys = V.polys
    for xs, blocks in zip(V.x_blocks, forms):
        polys = with_linear_forms(polys, xs, blocks)
    sys_ = MultiResSystem(polys, V.x_blocks)
    u_blocks = [blk for blocks in forms for blk in blocks]
    degrees = sys_.bezout_bounds()[1:]
    grid = RandomGrid(seed=0)
    if V.l == 1:
        return gcp_block_interpolation(sys_, range(1), u_blocks, degrees,
                                       grid, tag="oracle")[0].normalized()
    return resultant_multihomogeneous_interp(sys_, u_blocks, degrees, grid,
                                             tag="oracle").normalized()


def closed_form(V, forms):
    return ci_resultant(V, forms, RandomGrid(seed=0), "closed").normalized()


def chow_blocks(n):
    return [[u_block_names(i, n) for i in range(n)]]


# Every ambient dimension 1-4 and every degree 1-4, the larger pairs left
# out for the elimination's cost (a quadric in P4 takes seconds).
@pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                 (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                 (4, 1)])
def test_random_form_matches_elimination(n, d):
    X = projective(n)
    f = random_form(random.Random(f"{n}/{d}"), X, d)
    V = MultiprojVariety(X, [f], dim=n - 1)
    R = closed_form(V, chow_blocks(n))
    assert R == eliminated(V, chow_blocks(n))
    assert R.block_degrees() == (d,) * n


@pytest.mark.parametrize("text", [
    "(x0 + x1 - x2)^2 * (x0 - 2*x2)",  # a square factor
    "x0^2 + x0*x1 - 3*x1^2",           # x2 left out
])
def test_special_form_matches_elimination(text):
    X = projective(2)
    V = MultiprojVariety(X, [parse_poly(text, X)], dim=1)
    assert closed_form(V, chow_blocks(2)) == eliminated(V, chow_blocks(2))


@pytest.mark.parametrize("text", ["x0*x2 - x1^2",
                                  "x0^3 + x1^3 + x2^3 - 2*x0*x1*x2"])
def test_hurwitz_u_resultant_matches_elimination(text):
    X = projective(2)
    V = MultiprojVariety(X, [parse_poly(text, X)], dim=1)
    forms = [[u_block_names(1, 2), m_block_names(2)]]
    R = u_resultant(V, RandomGrid(seed=0))
    assert R.vars.blocks[-1] == (3, 4, 5)
    assert R.normalized() == eliminated(V, forms)


@pytest.mark.parametrize("vars,text", [
    (P1P1, "2*x0*y0 - x0*y1 + 3*x1*y1"),
    (P1P1, "x0^2*y0^3 - x0*x1*y0*y1^2 + 2*x1^2*y1^3 + x0^2*y1^3"),
    (P1P1, "x0^2 - 3*x0*x1 + x1^2"),
    (P2P2, "x0*y0 + 3*x0*y1 - x1*y0 - 3*x1*y2 - 2*x2*y1 + x2*y2"),
])
def test_multigraded_form_matches_elimination(vars, text):
    V = MultiprojVariety(vars, [parse_poly(text, vars)],
                         dim=vars.nvars - 3)
    forms = [[tuple(f"u{i}_{j}_{k}" for k in range(n + 1))
              for j in range(n)]
             for i, n in enumerate(V.nvec, start=1)]
    assert closed_form(V, forms) == eliminated(V, forms)


def test_signed_minors_of_a_line():
    # Two planes in P2 meet in the point of their cross product.
    X = projective(2)
    f = parse_poly("x0 + 2*x1 + 3*x2", X)
    R = hypersurface_resultant(f, [X.names], chow_blocks(2))
    u = {n: MPoly.var(R.vars, n) for n in R.vars.names}
    cross = [u["u01"] * u["u12"] - u["u02"] * u["u11"],
             u["u02"] * u["u10"] - u["u00"] * u["u12"],
             u["u00"] * u["u11"] - u["u01"] * u["u10"]]
    assert R == cross[0] + 2 * cross[1] + 3 * cross[2]
    assert R.vars.blocks == ((0, 1, 2), (3, 4, 5))


QUARTIC = ("ring x0 x1 x2\n"
           "poly x0^4 - 2*x0^3*x1 + 3*x0*x1^2*x2 - x1^4 + 2*x1*x2^3 - x2^4\n"
           "dim 1\n")
BILINEAR = ("ring x0 x1 x2 y0 y1 y2\nblocks (x0 x1 x2)(y0 y1 y2)\n"
            "poly x0*y0 + 3*x0*y1 - x1*y0 - 3*x1*y2 - 2*x2*y1 + x2*y2\n"
            "dim 3\nformat 0 0\n")


@pytest.mark.parametrize("command,text", [("chow-ci", QUARTIC),
                                          ("multichow", BILINEAR)],
                         ids=["quartic", "bilinear"])
def test_cli_draws_nothing_and_takes_no_integer_determinant(
        command, text, tmp_path, monkeypatch):
    draws, dets = [], []
    rng = RandomGrid.rng
    monkeypatch.setattr(RandomGrid, "rng",
                        lambda grid, *tag: draws.append(tag) or rng(grid, *tag))
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("chowforms")]:
        if hasattr(module, "det_integer"):
            monkeypatch.setattr(
                module, "det_integer",
                lambda *a, inner=module.det_integer, **k: dets.append(a)
                or inner(*a, **k))
    path = tmp_path / "problem.txt"
    path.write_text(text)
    outs = []
    for seed in ("1", "2"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path), "--seed", seed]) == 0
        outs.append(out.getvalue())
    assert draws == [] and dets == []
    assert outs[0] == outs[1] != ""
