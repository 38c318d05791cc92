"""Hypothesis fuzzing of the three parsers of user input: the problem
file (``cli.parse_problem``), the polynomial grammar
(``mpoly.parse_poly``) and the polymatroid JSON (``cli.run_polymatroid``).
Whatever the input, the only exceptions that may leave them are
ParseError (exit 4) and UsageError (exit 2)."""

import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from chowforms.cli import parse_problem, run_polymatroid
from chowforms.errors import ParseError, UsageError
from chowforms.mpoly import VarTable, parse_poly

XY = VarTable(("x0", "x1", "y"))

# Text near the grammars, so that the parsers get past their first token.
GRAMMAR = st.text(alphabet="x0y1 2+-*^()#\n", max_size=80)
DIRECTIVE = st.sampled_from(["ring", "blocks", "poly", "dim", "format",
                             "ring x0 x1 y", "blocks (x0 x1)(y)", "poly x0",
                             "dim 1", "format 1 0", "bogus"])


@st.composite
def nested(draw):
    """An expression nested by parentheses and unary minus signs, at
    depths up to well past the parser's cap and past the recursion limit,
    which Hypothesis raises while it runs a test."""
    depth = draw(st.integers(0, 2000) | st.sampled_from([100, 101, 2000]))
    opener = draw(st.sampled_from(["(", "-", "(-", "- "]))
    closer = ")" * opener.count("(")
    inner = draw(st.sampled_from(["x0", "2*y", "x0 +", ""]))
    return opener * depth + inner + closer * draw(st.integers(0, depth))


def _expect_parse_or_usage(fn, *args):
    try:
        fn(*args)
    except (ParseError, UsageError):
        pass


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=120),
                 st.lists(st.tuples(DIRECTIVE, GRAMMAR), max_size=6).map(
                     lambda lines: "\n".join(f"{d} {r}" for d, r in lines)),
                 nested().map(lambda e: f"ring x0 x1 y\npoly {e}\n")))
def test_parse_problem_raises_only_parse_or_usage_errors(text):
    _expect_parse_or_usage(parse_problem, text)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(max_size=80), GRAMMAR, nested()))
def test_parse_poly_raises_only_parse_or_usage_errors(text):
    _expect_parse_or_usage(parse_poly, text, XY)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10 ** 9) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@st.composite
def tables(draw):
    """Polymatroid JSON of the expected shape over a small box, valid or
    not."""
    l = draw(st.integers(0, 4))
    keys = [" ".join(map(str, I)) for k in range(1, l + 1)
            for I in itertools.combinations(range(l), k)]
    return {"n": draw(st.lists(st.integers(-1, 5), min_size=l, max_size=l)),
            "table": {k: draw(st.integers(-1, 8)) for k in keys}}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["bases", "dual", "truncate", "elongate", "widen"]),
       st.one_of(st.text(max_size=60),
                 JSON.map(json.dumps),
                 st.fixed_dictionaries({"n": JSON, "table": JSON}).map(
                     json.dumps),
                 tables().map(json.dumps)))
def test_run_polymatroid_raises_only_parse_or_usage_errors(op, text):
    _expect_parse_or_usage(run_polymatroid, op, text)
