"""Compute and confirm the golden stdout hash of every pool problem.

    PYTHONPATH=src python3 bench/golden.py [--all]

For each pool problem ``family/index`` the CLI runs with seeds
11, 12, 13, ... until two seeds print the same stdout with exit 0.  Where
an independent oracle exists (``oracle_for``, computed with sympy) its
answer must equal that stdout too; otherwise the problem gets no golden
hash.  Writes ``golden.json`` (problem -> sha256) and ``golden_log.json``
(seeds that agreed, seeds that failed, oracle verdict) beside this file.
Problems that already have a golden hash are skipped unless ``--all``;
entries for problems no workload can name any more are dropped.

Golden hashes pin the stdout of the commit they were computed at.
Recompute them (``--all``) only in a change that is allowed to change
canonical outputs, never to make a failing benchmark pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import tempfile

import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
FIRST_SEED = 11
MAX_SEEDS = 6


# --- oracles (independent of chowforms' own arithmetic) ------------------

def _sympy_poly(text, gens):
    import sympy
    expr = sympy.sympify(text.replace("^", "**"),
                         locals={str(g): g for g in gens})
    return sympy.Poly(expr, *gens)


def _parse_problem_polys(text):
    """(ring names, list of poly texts) of a generated problem file."""
    names, polys = None, []
    for line in text.splitlines():
        head, _, rest = line.partition(" ")
        if head == "ring":
            names = rest.split()
        elif head == "poly":
            polys.append(rest)
    return names, polys


def _same_up_to_sign(out_text, oracle_expr, gens):
    import sympy
    out = _sympy_poly(out_text, gens)
    _, want = sympy.Poly(sympy.expand(oracle_expr),
                         *gens).clear_denoms(convert=True)
    want = want.primitive()[1]
    return out == want or out == -want


def _symbols(names):
    import sympy
    return [sympy.Symbol(n) for n in names]


def _cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0]]


def oracle_plane_curve(problem, out):
    """Chow form of a plane curve f: the lines u0.x = u1.x = 0 meet it
    iff f(u0 x u1) = 0."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    x = _symbols(names)
    f = sympy.sympify(polys[-1].replace("^", "**"),
                      locals={str(s): s for s in x})
    if len(polys) > 1:  # {Q*x0, Q*x1, Q*x2}: the curve is Q
        f = sympy.factor_list(f)[1]
        f = max((g for g, _ in f), key=lambda g: sympy.total_degree(g))
    u = [_symbols([f"u{i}{k}" for k in range(3)]) for i in range(2)]
    point = _cross(u[0], u[1])
    return _same_up_to_sign(out, f.subs(dict(zip(x, point)),
                                        simultaneous=True),
                            u[0] + u[1])


def oracle_dual_conic(problem, out):
    """Hurwitz form of a smooth conic x^T A x: the dual conic u^T adj(A) u."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    x = _symbols(names)
    f = sympy.Poly(sympy.sympify(polys[0].replace("^", "**"),
                                 locals={str(s): s for s in x}), *x)
    A = sympy.Matrix(3, 3, lambda i, j: f.coeff_monomial(x[i] ** 2) if i == j
                     else f.coeff_monomial(x[i] * x[j]) / 2)
    u = sympy.Matrix(_symbols([f"u1{k}" for k in range(3)]))
    return _same_up_to_sign(out, (u.T * A.adjugate() * u)[0], list(u))


def oracle_line(problem, out):
    """Chow form of a line in P^3 spanned by the kernel of L1, L2: the
    planes u0, u1 meet it iff det[L1; L2; u0; u1] = 0."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    x = _symbols(names)
    rows = []
    for p in polys[:2]:
        poly = sympy.Poly(sympy.sympify(p.replace("^", "**"),
                                        locals={str(s): s for s in x}), *x)
        rows.append([poly.coeff_monomial(v) for v in x])
    u = [_symbols([f"u{i}{k}" for k in range(4)]) for i in range(2)]
    return _same_up_to_sign(out, sympy.Matrix(rows + u).det(), u[0] + u[1])


def oracle_resultant(problem, out):
    """Sylvester resultant of the two binary forms, by sympy."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    syms = _symbols(names)
    loc = {str(s): s for s in syms}
    x0, x1 = syms[:2]
    f, g = (sympy.sympify(p.replace("^", "**"), locals=loc).subs(x0, 1)
            for p in polys)
    return _same_up_to_sign(out, sympy.resultant(f, g, x1), syms[2:])


def oracle_det(problem, out):
    """Determinant of the matrix of linear forms, by sympy; exact."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    syms = _symbols(names)
    loc = {str(s): s for s in syms}
    k = int(round(len(polys) ** 0.5))
    M = sympy.Matrix(k, k, [sympy.sympify(p.replace("^", "**"), locals=loc)
                            for p in polys])
    return _sympy_poly(out, syms) == sympy.Poly(sympy.expand(M.det()), *syms)


def _multi_shape(problem):
    """(nvec, dims table, multidegree on support formats) in closed form for
    an irreducible P^1 x P^1 curve of bidegree (a, b), or P^2 x P^2 cut by
    one or two generic bilinear forms."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    if len(names) == 4:
        x = _symbols(names)
        f = sympy.sympify(polys[0].replace("^", "**"),
                          locals={str(s): s for s in x})
        a = sympy.Poly(f, *x[:2]).total_degree()
        b = sympy.Poly(f, *x[2:]).total_degree()
        # format (1,0) slices y to a point: a points; (0,1): b points
        return (1, 1), {(0,): 1, (1,): 1, (0, 1): 1}, {(1, 0): a, (0, 1): b}
    if len(polys) == 1:
        return (2, 2), {(0,): 2, (1,): 2, (0, 1): 3}, {(1, 0): 1, (0, 1): 1}
    # two bilinear forms restricted to a line in each factor: 2 points on
    # (1,1); a point in one factor leaves one point in the other
    return (2, 2), {(0,): 2, (1,): 2, (0, 1): 2}, \
        {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def _lines(formats, prefix=""):
    head = f"{prefix} " if prefix else ""
    return [head + " ".join(str(v) for v in f) for f in sorted(formats)]


def oracle_support(problem, out):
    """Support formats: the bases of the box dual of the dimension table."""
    from chowforms.polymatroid import from_dim_table
    nvec, dims, _ = _multi_shape(problem)
    dual = from_dim_table(nvec, dims).dual()
    return out.splitlines() == _lines(dual.bases())


def oracle_formats(problem, out):
    """Chow formats: bases of the truncated dual; Hurwitz formats: bases
    of its elongation, less support formats of multidegree 1."""
    from chowforms.polymatroid import from_dim_table
    nvec, dims, mdeg = _multi_shape(problem)
    dual = from_dim_table(nvec, dims).dual()
    chow = dual.truncate()
    support = set(dual.bases())
    hurwitz = [b for b in chow.elongate().bases()
               if b not in support or mdeg[tuple(b)] != 1]
    return out.splitlines() == _lines(chow.bases(), "chow") + \
        _lines(hurwitz, "hurwitz")


def oracle_multichow_00(problem, out):
    """Format (0,0) Chow form of a hypersurface f in P^1 x P^1 or
    P^2 x P^2: f at the points cut out by the generic linear forms."""
    import sympy
    names, polys = _parse_problem_polys(problem)
    syms = _symbols(names)
    f = sympy.sympify(polys[0].replace("^", "**"),
                      locals={str(s): s for s in syms})
    n = len(names) // 2
    sub, gens = {}, []
    for i, block in ((1, syms[:n]), (2, syms[n:])):
        forms = [_symbols([f"u{i}_{j}_{k}" for k in range(n)])
                 for j in range(n - 1)]
        gens += [g for form in forms for g in form]
        point = [forms[0][1], -forms[0][0]] if n == 2 else \
            _cross(forms[0], forms[1])
        sub.update(zip(block, point))
    return _same_up_to_sign(out, f.subs(sub, simultaneous=True), gens)


def oracle_for(family):
    if family.endswith("-support"):
        return oracle_support
    if family.endswith("-formats"):
        return oracle_formats
    if family.endswith("-multichow") and not family.startswith("p2p2-2"):
        return oracle_multichow_00
    if family in ("conic-ci", "cubic-ci", "quartic-ci", "quintic-ci",
                  "conic-general"):
        return oracle_plane_curve
    if family == "conic-hurwitz":
        return oracle_dual_conic
    if family == "line-general":
        return oracle_line
    if family.startswith("res-"):
        return oracle_resultant
    if family.startswith("det-"):
        return oracle_det
    return None


# --- golden runs ---------------------------------------------------------

def run_cli(command, path, seed):
    from chowforms.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, path, "--seed", str(seed)])
    return rc, out.getvalue(), err.getvalue()


def confirm(task):
    """Golden record of one pool problem, or one with ``sha256`` None."""
    family, index = task
    command = gen.FAMILIES[family][0]
    text = gen.problem_text(family, index)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        seen, failed = {}, {}
        agreed = None
        for seed in range(FIRST_SEED, FIRST_SEED + MAX_SEEDS):
            rc, out, err = run_cli(command, path, seed)
            if rc != 0:
                failed[seed] = f"exit {rc}: {err.strip()[-100:]}"
                continue
            h = hashlib.sha256(out.encode()).hexdigest()
            if h in seen:
                agreed = (seen[h], seed, h, out)
                break
            seen[h] = seed
    record = {"problem": f"{family}/{index}", "sha256": None,
              "failed_seeds": failed, "oracle": None}
    if agreed is None:
        record["error"] = "no two seeds agreed"
        return record
    s1, s2, h, out = agreed
    record["seeds"] = [s1, s2]
    oracle = oracle_for(family)
    if oracle is not None:
        ok = oracle(text, out.strip())
        record["oracle"] = f"{oracle.__name__}: {'agrees' if ok else 'DIFFERS'}"
        if not ok:
            record["error"] = "oracle disagrees"
            return record
    record["sha256"] = h
    return record


def all_problems():
    """Every pool problem a workload plan can name."""
    fams = sorted({f for spec in gen.WORKLOADS.values() for f, _ in spec})
    out = [(f, i) for f in fams for i in range(gen.pool_size(f))]
    out += [(f, i) for pins in gen.PINNED.values() for f, i, _ in pins]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all", action="store_true",
                        help="recompute problems that already have a "
                             "golden hash")
    args = parser.parse_args(argv)
    golden_path = os.path.join(BENCH, "golden.json")
    log_path = os.path.join(BENCH, "golden_log.json")
    golden, log = {}, {}
    if os.path.exists(golden_path):
        with open(golden_path, encoding="utf-8") as fh:
            golden = json.load(fh)
        with open(log_path, encoding="utf-8") as fh:
            log = json.load(fh)
    tasks = all_problems()
    wanted = {f"{f}/{i}" for f, i in tasks}
    golden = {k: v for k, v in golden.items() if k in wanted}
    log = {k: v for k, v in log.items() if k in wanted}
    if not args.all:
        tasks = [t for t in tasks if f"{t[0]}/{t[1]}" not in golden]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(os.cpu_count()) as pool:
        for rec in pool.imap_unordered(confirm, tasks):
            pid = rec["problem"]
            log[pid] = rec
            if rec["sha256"]:
                golden[pid] = rec["sha256"]
            else:
                golden.pop(pid, None)
            print(f"{pid}: {rec.get('error') or 'ok'} {rec['oracle'] or ''}"
                  f" failed={rec['failed_seeds']}", flush=True)
    with open(golden_path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(golden.items())), fh, indent=1)
        fh.write("\n")
    with open(log_path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(log.items())), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
