"""Command-line front end: parse problem files, dispatch computations,
emit canonical polynomials on stdout and metadata on stderr.

Problem-file grammar (line oriented, ``#`` starts a comment):

    ring x0 x1 x2 ...          declare the variables
    blocks (x0 x1)(y0 y1)      optional partition into projective blocks
    poly <expr>                one defining polynomial (repeatable)
    dim <r>                    dimension of the variety
    format <a1> <a2> ...       multiprojective format

Exit codes: 0 success, 2 precondition violation, 3 indeterminate Monte
Carlo computation, 4 parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

from .chow import chow_bounds, chow_form, chow_form_ci
from .dimension import MultiprojVariety, RandomGrid
from .errors import (ChowformsError, DegenerateError, IndeterminateError,
                     ParseError, UsageError)
from .hurwitz import hurwitz_form
from .mpoly import parse_poly, VarTable
from .multiproj import (chow_hypersurface_formats, dim_table,
                        hurwitz_hypersurface_formats, multi_bounds,
                        multi_chow_form, multidegree, support)
from .polydet import PolyMatrix, det_bareiss
from .polymatroid import Polymatroid
from .resultant import MacaulaySystem, gcp_resultant, resultant_dense

COMMANDS = ("chow", "chow-ci", "hurwitz", "multichow", "support", "formats",
            "resultant", "det", "polymatroid", "bounds")


class Problem:
    """Parsed problem file."""

    def __init__(self, vars, blocks, polys, dim, format):
        self.vars = vars
        self.blocks = blocks  # list of name tuples, or None
        self.polys = polys
        self.dim = dim
        self.format = format


def parse_problem(text):
    ring = None
    blocks = None
    poly_lines = []
    dim = None
    format = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "ring":
            names = tuple(rest.split())
            if not names:
                raise ParseError(f"line {lineno}: ring needs variable names")
            if len(set(names)) != len(names):
                raise ParseError(f"line {lineno}: duplicate variable name")
            ring = names
        elif head == "blocks":
            groups = re.findall(r"\(([^()]*)\)", rest)
            if not groups or re.sub(r"\([^()]*\)|\s", "", rest):
                raise ParseError(f"line {lineno}: blocks must be "
                                 f"parenthesized variable groups")
            blocks = [tuple(g.split()) for g in groups]
            if any(not b for b in blocks):
                raise ParseError(f"line {lineno}: empty block")
        elif head == "poly":
            if not rest:
                raise ParseError(f"line {lineno}: poly needs an expression")
            poly_lines.append((lineno, rest))
        elif head == "dim":
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError(f"line {lineno}: dim needs an integer")
        elif head == "format":
            try:
                format = tuple(int(v) for v in rest.split())
            except ValueError:
                raise ParseError(f"line {lineno}: format needs integers")
            if not format:
                raise ParseError(f"line {lineno}: format needs integers")
        else:
            raise ParseError(f"line {lineno}: unknown directive {head!r}")
    if ring is None:
        raise ParseError("missing ring declaration")
    if blocks is not None:
        flat = tuple(n for b in blocks for n in b)
        if sorted(flat) != sorted(ring):
            raise ParseError("blocks must partition the ring variables")
        idx = {}
        pos = 0
        out_blocks = []
        for b in blocks:
            out_blocks.append(tuple(range(pos, pos + len(b))))
            pos += len(b)
        vars = VarTable(flat, tuple(out_blocks))
    else:
        vars = VarTable(ring)
    polys = []
    for lineno, expr in poly_lines:
        try:
            polys.append(parse_poly(expr, vars))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}")
        except UsageError as exc:
            raise UsageError(f"line {lineno}: {exc}")
    return Problem(vars, blocks, polys, dim, format)


def _format_lines(formats, prefix=""):
    out = []
    for f in sorted(formats):
        head = f"{prefix} " if prefix else ""
        out.append(head + " ".join(str(v) for v in f))
    return "\n".join(out)


def _need(problem, field, what):
    value = getattr(problem, field)
    if value is None:
        raise UsageError(f"this command needs a {what} line in the problem "
                         f"file")
    return value


def _multi_variety(problem):
    if problem.blocks is None:
        raise UsageError("this command needs a blocks declaration")
    dim = _need(problem, "dim", "dim")
    return MultiprojVariety(problem.vars, problem.polys, dim=dim)


def _poly_result(poly, algorithm):
    return poly.to_text(), {"degrees_per_block": list(poly.block_degrees()),
                            "bitsize": poly.bitsize(),
                            "algorithm": algorithm}


def run(command, problem, grid):
    """Execute one command; returns (stdout text, metadata dict)."""
    if command == "chow":
        V = MultiprojVariety(problem.vars, problem.polys)
        cf = chow_form(V, _need(problem, "dim", "dim"), grid)
        return _poly_result(cf.poly, "chow-general")
    if command == "chow-ci":
        V = MultiprojVariety(problem.vars, problem.polys)
        cf = chow_form_ci(V, _need(problem, "dim", "dim"), grid)
        return _poly_result(cf.poly, "chow-ci")
    if command == "hurwitz":
        V = MultiprojVariety(problem.vars, problem.polys)
        hf = hurwitz_form(V, _need(problem, "dim", "dim"), grid)
        return _poly_result(hf.poly, "hurwitz")
    if command == "multichow":
        V = _multi_variety(problem)
        fmt = _need(problem, "format", "format")
        cf = multi_chow_form(V, V.dim, fmt, grid)
        return _poly_result(cf.poly, "multichow")
    if command == "support":
        V = _multi_variety(problem)
        table = dim_table(V, grid)
        return _format_lines(support(V, table)), {"algorithm": "support"}
    if command == "formats":
        V = _multi_variety(problem)
        table = dim_table(V, grid)
        chow_f = chow_hypersurface_formats(V, table)
        hur_f = hurwitz_hypersurface_formats(
            V, table, lambda a: multidegree(V, a, grid, table))
        lines = [_format_lines(chow_f, "chow"),
                 _format_lines(hur_f, "hurwitz")]
        return "\n".join(v for v in lines if v), {"algorithm": "formats"}
    if command == "resultant":
        elim = problem.blocks[0] if problem.blocks else problem.vars.names
        sys_ = MacaulaySystem(problem.polys, elim)
        try:
            res = resultant_dense(sys_)
            algorithm = "macaulay"
        except DegenerateError:
            res = gcp_resultant(sys_)[0]
            algorithm = "gcp"
        return _poly_result(res.normalized(), algorithm)
    if command == "det":
        m = len(problem.polys)
        k = math.isqrt(m)
        if k * k != m:
            raise UsageError("det needs a square number of poly lines "
                             "(row-major matrix entries)")
        rows = [problem.polys[i * k:(i + 1) * k] for i in range(k)]
        return _poly_result(det_bareiss(PolyMatrix(rows)), "bareiss")
    if command == "bounds":
        if problem.blocks is not None and len(problem.blocks) > 1:
            V = _multi_variety(problem)
            report = multi_bounds(V, _need(problem, "format", "format"))
        else:
            V = MultiprojVariety(problem.vars, problem.polys)
            report = chow_bounds(V, _need(problem, "dim", "dim"))
        return json.dumps(report, sort_keys=True), {"algorithm": "bounds"}
    raise UsageError(f"unknown command {command!r}")


def run_polymatroid(op, text):
    """Polymatroid subcommands on a JSON table: keys ``n`` (box) and
    ``table`` mapping space-separated index strings to ranks."""
    try:
        data = json.loads(text)
        n = tuple(int(v) for v in data["n"])
        table = {tuple(int(i) for i in key.split()): int(v)
                 for key, v in data["table"].items()}
    except (json.JSONDecodeError, KeyError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad polymatroid JSON input: {exc}")
    table.setdefault((), 0)
    P = Polymatroid(n, table)
    if op == "bases":
        pass
    elif op == "dual":
        P = P.dual()
    elif op == "truncate":
        P = P.truncate()
    elif op == "elongate":
        P = P.elongate()
    else:
        raise UsageError(f"unknown polymatroid operation {op!r}; expected "
                         f"bases, dual, truncate or elongate")
    return _format_lines(P.bases()), {"algorithm": f"polymatroid-{op}",
                                      "rank": P.rank()}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="chowforms",
        description="Exact Chow forms, Hurwitz forms and resultants.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("args", nargs="+",
                        help="problem file; for polymatroid: operation "
                             "then JSON file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retries", type=int, default=3)
    parser.add_argument("--json", action="store_true",
                        help="emit metadata as JSON")
    opts = parser.parse_args(argv)

    start = time.monotonic()
    try:
        if opts.command == "polymatroid":
            if len(opts.args) != 2:
                raise UsageError("usage: polymatroid <operation> <file>")
            op, path = opts.args
            with open(path, encoding="utf-8") as fh:
                out, meta = run_polymatroid(op, fh.read())
        else:
            if len(opts.args) != 1:
                raise UsageError(f"usage: {opts.command} <file>")
            with open(opts.args[0], encoding="utf-8") as fh:
                problem = parse_problem(fh.read())
            grid = RandomGrid(seed=opts.seed, retries=opts.retries)
            out, meta = run(opts.command, problem, grid)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 4
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChowformsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta["seed"] = opts.seed
    meta["wall_ms"] = int((time.monotonic() - start) * 1000)
    print(out)
    if opts.json:
        print(json.dumps(meta, sort_keys=True), file=sys.stderr)
    else:
        for key in sorted(meta):
            print(f"{key}={meta[key]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
