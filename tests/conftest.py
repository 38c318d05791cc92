import random

import pytest

from chowforms import MPoly, UsageError, VarTable


def pytest_configure(config):
    config.addinivalue_line("markers",
                            "slow: long-running end-to-end fixtures")


def rand_poly(rng, vars, max_deg=3, max_coeff_bits=8, max_terms=6, nonzero=False):
    """Random sparse polynomial with per-term total degree <= max_deg."""
    terms = {}
    bound = 2 ** max_coeff_bits - 1
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * vars.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exp[rng.randrange(vars.nvars)] += 1
        c = rng.randint(-bound, bound)
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + c
    f = MPoly(vars, terms)
    if nonzero and f.is_zero():
        return MPoly.const(vars, 1)
    return f


def kronecker_coeffs(f, caps):
    """Ascending coefficients of f under the Kronecker substitution
    x_i -> z^(w_i), w_i = prod_{k<i} (caps[k] + 1), high zeros dropped."""
    weights = [1]
    for cap in caps[:-1]:
        weights.append(weights[-1] * (cap + 1))
    out = {}
    for exp, c in f.terms.items():
        k = sum(e * w for e, w in zip(exp, weights))
        out[k] = out.get(k, 0) + c
    coeffs = [out.get(k, 0) for k in range(max(out, default=-1) + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def kronecker_matrix(M, caps):
    """(base, entries) of det_packed for the Kronecker-substituted PolyMatrix
    M: every entry listed by its :func:`kronecker_coeffs`.  The
    substitution is a ring map, so det_packed gives the substituted
    determinant; with caps at least its partial degrees, that determines
    the determinant."""
    base = [[0] * M.dim for _ in range(M.dim)]
    return base, [(i, j, kronecker_coeffs(e, caps))
                  for i, row in enumerate(M.entries) for j, e in enumerate(row)]


def det_cofactor(M):
    """Exact determinant of a PolyMatrix by Laplace expansion; an oracle
    for dimension <= 6."""
    if M.dim > 6:
        raise UsageError("det_cofactor is limited to dimension <= 6")
    return _cofactor(M.entries, M.vars)


def _cofactor(rows, vars):
    m = len(rows)
    if m == 1:
        return rows[0][0]
    total = MPoly.zero(vars)
    for j in range(m):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = a * _cofactor(minor, vars)
        total = total + term if j % 2 == 0 else total - term
    return total


def evaluate_on_plane(cf, plane):
    """Value of the Chow form at a concrete (r+1) x (n+1) integer matrix."""
    point = {}
    for i, row in enumerate(plane):
        for j, v in enumerate(row):
            point[f"u{i}{j}"] = v
    return cf.poly.evaluate(point)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def xy():
    return VarTable(("x", "y"))


@pytest.fixture
def xyz():
    return VarTable(("x", "y", "z"))
