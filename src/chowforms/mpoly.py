"""Sparse multivariate polynomials over the integers, exact throughout.

Variables live in a :class:`VarTable` and are grouped into ordered blocks
(one block in the plain projective case).  Terms are stored as a dict from
exponent tuples to nonzero integer coefficients; Python integers give
arbitrary precision for free.  The canonical term order is graded
lexicographic by block, then by variable index.

Exact division, gcd and square-free part close the module.  The gcd
answers a single-term argument directly; anything else goes to one
engine, the verified heuristic gcd (GCDHEU: Char, Geddes and Gonnet,
J. Symb. Comput. 1989) at xi = 2^K, whose candidate is read off balanced
base-2^K digits (:func:`unpack_digits`, shared with ``polydet``).  When
the heuristic gives up, the gcd raises IndeterminateError.  The
square-free part first tries a certificate: one restriction of f to a
line, modulo a prime, that proves f square-free over the rationals; only
an inconclusive certificate runs the gcd of the partial derivatives.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import re

from .errors import IndeterminateError, ParseError, UsageError

# Exponents are stored in machine-int range; degrees anywhere near this are
# unreachable at desk scale and almost certainly indicate a bug upstream.
MAX_EXPONENT = 2**31


class VarTable:
    """Ordered variable names partitioned into ordered blocks."""

    __slots__ = ("names", "blocks", "_index")

    def __init__(self, names, blocks=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise UsageError("duplicate variable names: %r" % (names,))
        if blocks is None:
            blocks = (tuple(range(len(names))),) if names else ()
        else:
            blocks = tuple(tuple(b) for b in blocks)
            flat = [i for b in blocks for i in b]
            if sorted(flat) != list(range(len(names))):
                raise UsageError("blocks must partition the variable indices")
        self.names = names
        self.blocks = blocks
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def nvars(self):
        return len(self.names)

    @property
    def nblocks(self):
        return len(self.blocks)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UsageError(f"unknown variable {name!r}") from None

    def block_names(self, bi):
        return tuple(self.names[i] for i in self.blocks[bi])

    def extend(self, new_names):
        """Return a table with the new variables appended as one more
        block."""
        new_names = tuple(new_names)
        added = tuple(range(self.nvars, self.nvars + len(new_names)))
        return VarTable(self.names + new_names, self.blocks + (added,))

    def __eq__(self, other):
        return (isinstance(other, VarTable)
                and self.names == other.names and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.names, self.blocks))

    def __repr__(self):
        inner = ")(".join(" ".join(self.block_names(b)) for b in range(self.nblocks))
        return f"VarTable(({inner}))"


def _mul_terms(a, b):
    """The product of two term dicts, as a term dict without zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(exp, 0) + c1 * c2
            if s:
                out[exp] = s
            elif exp in out:
                del out[exp]
    return out


class MPoly:
    """Immutable sparse polynomial in ``ZZ[vars]``.

    Do not mutate ``terms`` after construction; every operation returns a
    fresh value, so instances can be shared freely across threads.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        self.vars = vars
        clean = {}
        n = vars.nvars
        for exp, c in terms.items():
            if c == 0:
                continue
            if len(exp) != n:
                raise UsageError("exponent vector length does not match VarTable")
            if any(e < 0 or e >= MAX_EXPONENT for e in exp):
                raise UsageError("exponent out of supported range")
            clean[exp] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        if c == 0:
            return cls(vars, {})
        return cls(vars, {(0,) * vars.nvars: int(c)})

    @classmethod
    def var(cls, vars, name, power=1):
        exp = [0] * vars.nvars
        exp[vars.index(name)] = power
        return cls(vars, {tuple(exp): 1})

    # -- predicates and degrees ---------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self):
        z = (0,) * self.vars.nvars
        if self.terms and set(self.terms) != {z}:
            raise UsageError("polynomial is not constant")
        return self.terms.get(z, 0)

    def partial_degree(self, i):
        if not self.terms:
            return 0
        return max(exp[i] for exp in self.terms)

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(exp) for exp in self.terms)

    def block_degree(self, bi):
        idx = self.vars.blocks[bi]
        if not self.terms:
            return 0
        return max(sum(exp[i] for i in idx) for exp in self.terms)

    def block_degrees(self, exp=None):
        if exp is not None:
            return tuple(sum(exp[i] for i in b) for b in self.vars.blocks)
        return tuple(self.block_degree(b) for b in range(self.vars.nblocks))

    def is_homogeneous_in(self, var_indices):
        """Homogeneous when grading only the given variables."""
        degs = {sum(exp[i] for i in var_indices) for exp in self.terms}
        return len(degs) <= 1

    def bitsize(self):
        if not self.terms:
            return 0
        return max(abs(c).bit_length() for c in self.terms.values())

    # -- term order ----------------------------------------------------

    def _key(self, exp):
        return (self.block_degrees(exp), exp)

    def leading_term(self):
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        exp = max(self.terms, key=self._key)
        return exp, self.terms[exp]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self._key(t[0]), reverse=True)

    # -- ring operations ----------------------------------------------

    def _check_same_table(self, other):
        if self.vars != other.vars:
            raise UsageError("operands use different VarTables")

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.vars, other)
        self._check_same_table(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            elif exp in terms:
                del terms[exp]
        return MPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return MPoly.zero(self.vars)
            return MPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check_same_table(other)
        return MPoly(self.vars, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, m):
        if m < 0:
            raise UsageError("negative power")
        result = MPoly.const(self.vars, 1)
        base = self
        while m:
            if m & 1:
                result = result * base
            base_needed = m >> 1
            if base_needed:
                base = base * base
            m = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == MPoly.const(self.vars, other).terms
        return isinstance(other, MPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution ------------------------------------

    def derivative(self, name):
        i = self.vars.index(name)
        out = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                nexp = exp[:i] + (e - 1,) + exp[i + 1:]
                out[nexp] = out.get(nexp, 0) + c * e
        return MPoly(self.vars, out)

    def substitute(self, mapping, target=None):
        """Compose with ``mapping`` from variable name to int or MPoly in one
        pass over the terms: an integer image multiplies the coefficient, a
        polynomial image (over ``target``) multiplies the term, and an
        unmapped variable keeps its exponent on the variable of the same
        name in ``target``.  ``target`` defaults to the table of the
        polynomial images, else to this polynomial's table.  Each power of
        an image is formed once.
        """
        names = self.vars.names
        images = [(i, mapping[n], {}) for i, n in enumerate(names)
                  if n in mapping]
        ints = [im for im in images if isinstance(im[1], int)]
        polys = [im for im in images if not isinstance(im[1], int)]
        if target is None:
            target = polys[0][1].vars if polys else self.vars
        if any(v.vars != target for _, v, _ in polys):
            raise UsageError("substitution images use different VarTables")
        # pick(exp + (0,)) is the exponent vector on target's variables:
        # an unmapped variable's exponent, 0 for every other variable.
        src = [len(names)] * target.nvars
        for i, n in enumerate(names):
            if n not in mapping:
                src[target.index(n)] = i
        pick = (operator.itemgetter(*src) if len(src) > 1
                else lambda e: tuple(e[i] for i in src))
        out = {}
        for exp, c in self.terms.items():
            for i, v, cache in ints:
                e = exp[i]
                if e:
                    if e not in cache:
                        cache[e] = v ** e
                    c *= cache[e]
            mono = pick(exp + (0,))
            if not polys:  # integer images only: one term per term
                out[mono] = out.get(mono, 0) + c
                continue
            t = {mono: c}
            for i, v, cache in polys:
                e = exp[i]
                if e:
                    if e not in cache:
                        cache[e] = (v ** e).terms
                    t = _mul_terms(t, cache[e])
            for m, a in t.items():
                out[m] = out.get(m, 0) + a
        return MPoly(target, out)

    def coefficients(self, idx):
        """Split by the exponents on the variables at ``idx``: {exponents on
        idx: coefficient MPoly, with those exponents zeroed}."""
        out = {}
        for exp, c in self.terms.items():
            e = list(exp)
            for i in idx:
                e[i] = 0
            out.setdefault(tuple(exp[i] for i in idx), {})[tuple(e)] = c
        return {key: MPoly(self.vars, terms) for key, terms in out.items()}

    def evaluate(self, point):
        """Evaluate at an integer point given as {name: int}."""
        idx = [point[name] for name in self.vars.names]
        total = 0
        for exp, c in self.terms.items():
            v = c
            for i, e in enumerate(exp):
                if e:
                    v *= idx[i] ** e
            total += v
        return total

    # -- normalization ------------------------------------------------

    def content(self):
        """Integer content (gcd of coefficients), 0 for the zero polynomial."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def primitive(self):
        g = self.content()
        if g in (0, 1):
            return self
        return MPoly(self.vars, {e: c // g for e, c in self.terms.items()})

    def normalized(self):
        """Primitive part with positive leading coefficient (canonical form)."""
        if not self.terms:
            return self
        p = self.primitive()
        _, lc = p.leading_term()
        if lc < 0:
            p = -p
        return p

    # -- textual form --------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(self.vars.names[i])
                elif e > 1:
                    factors.append(f"{self.vars.names[i]}^{e}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"MPoly({self.to_text()})"


# -- parsing ----------------------------------------------------------

# Caps on a power or product in parsed text, checked before it is
# expanded: the degree of the result, and an estimate of its size in bits,
# 64 per term plus the coefficient bits.
MAX_PARSE_DEGREE = 1000
MAX_PARSE_BITS = 2 ** 21
# Cap on the nesting of parentheses and unary minus signs, which the
# recursive-descent parser follows by recursion.
MAX_PARSE_DEPTH = 100


def _check_expansion(what, degree, terms, nvars, bits):
    """UsageError unless a result of this degree, with at most ``terms``
    terms (and at most C(nvars + degree, nvars), nvars variables
    occurring) and coefficients of at most ``bits`` bits, is within the
    parser's caps."""
    if degree <= MAX_PARSE_DEGREE:
        terms = min(terms, math.comb(nvars + degree, nvars))
        if terms * (bits + 64) <= MAX_PARSE_BITS:
            return
    raise UsageError(f"{what} too large to expand (caps: degree "
                     f"{MAX_PARSE_DEGREE}, {MAX_PARSE_BITS} bits)")


def _occurring(f):
    return {i for exp in f.terms for i, k in enumerate(exp) if k}


def _norm_bits(f):
    """ceil(log2 ||f||_1): ||f||_1 ** e bounds every coefficient of f ** e,
    and ||f||_1 * ||g||_1 every coefficient of f * g."""
    return (sum(map(abs, f.terms.values())) - 1).bit_length()


_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", column=pos + 1)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, vars):
        self.tokens = tokens
        self.vars = vars
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg):
        kind, val, col = self.peek()
        raise ParseError(msg + (f" (got {val!r})" if kind != "end" else " (at end of input)"),
                         column=col + 1)

    def expr(self):
        kind, val, _ = self.peek()
        sign = 1
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        result = self.term() * sign
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                result = result + t if val == "+" else result - t
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                f = self.factor()
                _check_expansion(
                    "product", result.total_degree() + f.total_degree(),
                    len(result.terms) * len(f.terms),
                    len(_occurring(result) | _occurring(f)),
                    _norm_bits(result) + _norm_bits(f))
                result = result * f
            else:
                return result

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, val, _ = self.peek()
            if kind != "int":
                self.fail("expected integer exponent after '^'")
            e = self.integer()
            t = len(base.terms)
            _check_expansion(f"power '^{e}'", base.total_degree() * e,
                             math.comb(t + e - 1, e) if t else 1,
                             len(_occurring(base)), e * _norm_bits(base))
            self.next()
            return base ** e
        return base

    def integer(self):
        try:
            return int(self.peek()[1])
        except ValueError:  # longer than int() converts
            self.fail("integer literal too long")

    def atom(self):
        kind, val, _ = self.peek()
        if kind == "int":
            c = self.integer()
            self.next()
            return MPoly.const(self.vars, c)
        if kind == "name":
            if val not in self.vars._index:
                self.fail(f"unknown variable {val!r}")
            self.next()
            return MPoly.var(self.vars, val)
        if kind == "op" and val in "(-":
            if self.depth == MAX_PARSE_DEPTH:
                self.fail(f"parentheses and signs nested deeper than "
                          f"{MAX_PARSE_DEPTH}")
            self.depth += 1
            self.next()
            if val == "-":
                inner = -self.factor()
            else:
                inner = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.fail("expected ')'")
                self.next()
            self.depth -= 1
            return inner
        self.fail("expected a term")


def parse_poly(text, vars):
    """Parse the canonical polynomial grammar (`+ - * ^`, integers, names)."""
    p = _Parser(_tokenize(text), vars)
    result = p.expr()
    kind, val, col = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", column=col + 1)
    return result


# -- exact division, gcd, square-free part -----------------------------

def divexact(f, g):
    """Exact quotient f/g; raises UsageError if g is zero or does not divide f."""
    if g.is_zero():
        raise UsageError("division by zero polynomial")
    if f.is_zero():
        return f
    f._check_same_table(g)
    gexp, gc = g.leading_term()
    q = {}
    r = dict(f.terms)
    blocks = f.vars.blocks

    def entry(exp):
        # Negated f._key, flattened: heapq pops the leading term first.
        return (tuple(-sum(exp[i] for i in b) for b in blocks)
                + tuple(-e for e in exp), exp)

    # The order is a monomial order, so every term the loop adds to r lies
    # below the one it cancels; an exponent no longer in r is stale.
    heap = [entry(exp) for exp in r]
    heapq.heapify(heap)
    while heap:
        rexp = heapq.heappop(heap)[1]
        rc = r.get(rexp)
        if rc is None:
            continue
        exp = tuple(a - b for a, b in zip(rexp, gexp))
        if any(e < 0 for e in exp) or rc % gc != 0:
            raise UsageError("not an exact division")
        c = rc // gc
        q[exp] = c
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(exp, e2))
            s = r.get(key, 0) - c * c2
            if s:
                if key not in r:
                    heapq.heappush(heap, entry(key))
                r[key] = s
            elif key in r:
                del r[key]
    return MPoly(f.vars, q)


def divides(g, f):
    try:
        divexact(f, g)
        return True
    except UsageError:
        return False


def _main_var(f, g):
    """Highest variable index occurring in f or g, or None."""
    for i in reversed(range(f.vars.nvars)):
        if f.partial_degree(i) > 0 or g.partial_degree(i) > 0:
            return i
    return None


def unpack_digits(n, shift):
    """Balanced base-2^shift digits of the integer ``n``, each in
    (-2^(shift-1), 2^(shift-1)], ascending, high zeros dropped."""
    full = 1 << shift
    out = []
    while n:
        r = n & (full - 1)
        if r > full >> 1:
            r -= full
        out.append(r)
        n = (n - r) >> shift
    return out


def _digits_in(p, v, K):
    """The polynomial whose coefficients in variable v are the balanced
    base-2^K digits (:func:`unpack_digits`) of the coefficients of p: the
    inverse of the substitution of 2^K for variable v
    (``f.substitute({name: 1 << K})``) on polynomials whose coefficients
    all lie in (-2^(K-1), 2^(K-1)]."""
    terms = {}
    for exp, c in p.terms.items():
        for j, d in enumerate(unpack_digits(c, K)):
            if d:
                terms[exp[:v] + (j,) + exp[v + 1:]] = d
    return MPoly(p.vars, terms)


def _heu_gcd_inner(f, g, tries):
    """Heuristic gcd with integer content included (evaluate the main
    variable at xi = 2^K, recurse, read the candidate back off the
    balanced base-2^K digits, verify by exact division).  The integer
    content of the evaluated gcd encodes the factors in the eliminated
    variable, so it must never be stripped mid-recursion.
    """
    v = _main_var(f, g)
    if v is None:
        return MPoly.const(f.vars, math.gcd(f.constant_value(),
                                            g.constant_value()))
    hmax = max(max(abs(c) for c in f.terms.values()),
               max(abs(c) for c in g.terms.values()))
    # xi > 2 * hmax + 1 exceeds Cauchy's root bound 1 + hmax of every
    # coefficient polynomial of f and g in v, so f(xi), g(xi) are nonzero.
    K = (2 * hmax + 29).bit_length()
    dv = max(f.partial_degree(v), g.partial_degree(v))
    content = math.gcd(f.content(), g.content())
    name = f.vars.names[v]
    for _ in range(tries):
        if K * (dv + 1) > 3 * 10 ** 6:
            return None
        xi = 1 << K
        h_sub = _heu_gcd_inner(f.substitute({name: xi}),
                               g.substitute({name: xi}), tries=2)
        if h_sub is None:
            return None
        # The digits may carry a spurious integer factor from the
        # evaluated cofactors; rescale to the true integer content.
        h = _digits_in(h_sub, v, K).primitive() * content
        if divides(h, f) and divides(h, g):
            return h
        K += K // 2 + 1
    return None


def _heu_gcd(f, g):
    """Verified heuristic gcd, primitive with positive leading coefficient;
    None when the heuristic gave up (size cap or tries used up)."""
    h = _heu_gcd_inner(f, g, tries=4)
    return None if h is None else h.normalized()


def gcd(f, g):
    """Greatest common divisor, primitive with positive leading coefficient
    (so the gcd of two nonzero constants is 1).

    A single-term argument is answered from exponent minima, anything
    else by the verified heuristic gcd (:func:`_heu_gcd`); when that gives
    up, IndeterminateError.
    """
    if f.is_zero() and g.is_zero():
        raise UsageError("gcd(0, 0) is undefined")
    if f.is_zero():
        return g.normalized()
    if g.is_zero():
        return f.normalized()
    f._check_same_table(g)
    if _main_var(f, g) is None:
        return MPoly.const(f.vars, 1)
    if len(g.terms) == 1:
        f, g = g, f
    if len(f.terms) == 1:
        # Every divisor of a term c*x^e is a term, so the gcd is x^m, m
        # the exponent-wise minimum of e and of g's exponents, times the
        # integer gcd of c and g's content, which normalization drops.
        m = list(next(iter(f.terms)))
        for exp in g.terms:
            m = [min(a, b) for a, b in zip(m, exp)]
        return MPoly(f.vars, {tuple(m): 1})
    h = _heu_gcd(f, g)
    if h is None:
        raise IndeterminateError(
            f"the heuristic gcd gave up on operands of total degree "
            f"{f.total_degree()} and {g.total_degree()}")
    return h


# The prime and the seed of the line of :func:`_certified_square_free`.
_CERT_PRIME = 2 ** 31 - 1
_CERT_SEED = 0


def _interpolate_mod(values, p):
    """Ascending coefficients mod p of the polynomial of degree below
    len(values) that takes values[t] at t = 0, 1, ...: forward
    differences, divided by k!, give the Newton coefficients on the nodes
    0, 1, ...; Horner in that falling-factorial basis gives the rest."""
    c = list(values)
    n = len(c)
    for j in range(1, n):
        for k in range(n - 1, j - 1, -1):
            c[k] = (c[k] - c[k - 1]) % p
    inv = 1
    for k in range(2, n):
        inv = inv * pow(k, -1, p) % p
        c[k] = c[k] * inv % p
    for k in range(n - 2, -1, -1):
        for j in range(k, n - 1):
            c[j] = (c[j] - k * c[j + 1]) % p
    return c


def _coprime_mod(u, v, p):
    """Whether u and v, descending coefficient lists mod p with nonzero
    leading coefficients, are coprime in F_p[t] (Euclid)."""
    while len(v) > 1:
        inv = pow(v[0], -1, p)
        u = list(u)
        for k in range(len(u) - len(v) + 1):
            q = u[k] * inv % p
            if q:
                for j in range(1, len(v)):
                    u[k + j] = (u[k + j] - q * v[j]) % p
        r = u[len(u) - len(v) + 1:]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            return False
        u, v = v, r
    return True


def _certified_square_free(f):
    """True when one line proves f square-free over the rationals.

    Restrict f to the line a + t*b modulo the prime p, with a and b drawn
    from a fixed-seed generator, and interpolate r(t) from deg f + 1
    values.  If r has degree deg f (f_top(b) != 0 mod p), every factor P
    of f keeps its degree on the line, so a square factor P^2 of f would
    give a repeated factor of r: gcd(r, r') = 1 in F_p[t] proves that f
    has none.  The draw can only make the test inconclusive (False),
    never wrong.
    """
    p = _CERT_PRIME
    d = max(map(sum, f.terms))
    if not 0 < d < p:
        return False
    rng = random.Random(_CERT_SEED)
    n = f.vars.nvars
    a = [rng.randrange(p) for _ in range(n)]
    b = [rng.randrange(p) for _ in range(n)]
    top = [max(col) for col in zip(*f.terms)]
    # Each term reads its factors off one table of powers per point:
    # x_i^e sits at base[i] + e.
    base = [0] * n
    for i in range(1, n):
        base[i] = base[i - 1] + top[i - 1] + 1
    terms = [(c % p, [base[i] + e for i, e in enumerate(exp) if e])
             for exp, c in f.terms.items()]
    values = []
    for t in range(d + 1):
        powers = []
        for i in range(n):
            x = (a[i] + t * b[i]) % p
            pw = 1
            powers.append(1)
            for _ in range(top[i]):
                pw = pw * x % p
                powers.append(pw)
        values.append(sum(math.prod(map(powers.__getitem__, at), start=c)
                          for c, at in terms) % p)
    r = _interpolate_mod(values, p)
    if not r[d]:
        return False
    dr = [k * c % p for k, c in enumerate(r)]
    return _coprime_mod(r[::-1], dr[:0:-1], p)


def square_free_part(f):
    """Product of the distinct irreducible factors of f, normalized.

    A square-free f is certified by :func:`_certified_square_free`, and
    its square-free part is f.normalized().  Otherwise g, the gcd of the
    partial derivatives, gives f / gcd(f, g).
    """
    if f.is_zero():
        raise UsageError("square-free part of zero is undefined")
    if _certified_square_free(f):
        return f.normalized()
    g = None
    for i in range(f.vars.nvars):
        if f.partial_degree(i) == 0:
            continue
        d = f.derivative(f.vars.names[i])
        g = d if g is None else gcd(g, d)
        if g.is_constant() and abs(g.constant_value()) == 1:
            return f.normalized()
    if g is None:  # constant polynomial
        return MPoly.const(f.vars, 1)
    h = gcd(f, g)
    return divexact(f.normalized(), h).normalized()
