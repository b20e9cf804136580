"""System ingestion and output.

Two concerns live here: a parser for polynomial systems with declared
variable groups, and a deterministic counter-based random source (every
"general" or "random" choice in the toolkit draws from one of its streams).

The parser splits the text with one regular expression, `_TOKEN`, that has
one alternative per token kind, and reads the tokens by recursive descent.
A malformed or non-finite number literal (`1e999`) is a `ParseError` like
every other error: it names the line and column where its token starts.
"""

from __future__ import annotations

import cmath
import functools
import math
import re

import numpy as np

from .algebra import Polynomial, PolySystem, VariableGrouping

DEFAULT_SEED = 20230529
# The largest group size and exponent a system file may ask for.  The tracker
# is dense in the variables, and the kernel keeps one entry per unit of a
# monomial's degree, so larger ones could not be tracked; refusing them at
# the token keeps the parser from building them first.
MAX_GROUP_SIZE = 1000
MAX_EXPONENT = 1000
# The most terms a power p^n or a product p*q may expand to.  A power of a
# k-term p has at most C(n + k - 1, k - 1) terms, one per multiset of n of its
# terms, and a product of a k-term and an l-term factor at most k*l, one per
# pair; a power or a product whose count passes the bound is refused at its
# `^` or `*`, before anything is multiplied.  Expanding a power takes time
# like the cube of n for k = 3, and (x + y + z)^61, of 1,953 terms, the
# largest three-term power admitted, parses in about 0.3 s.
MAX_POWER_TERMS = 2000


# ---------------------------------------------------------------------------
# Random source


class RandomSource:
    """Counter-based PRNG: identical (seed, stream, draw index) gives an
    identical value on every platform.  Streams are value types; derive a
    fresh one per worker/purpose with substream().  The generator is built
    on the first draw, so a stream used only to derive others builds none."""

    def __init__(self, seed: int = DEFAULT_SEED, stream: int = 0):
        self.seed = int(seed) % 2**64
        self.stream = int(stream) % 2**64

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.seed + (self.stream << 64)))

    def substream(self, index: int) -> "RandomSource":
        mixed = (self.stream * 6364136223846793005 + index + 1442695040888963407) % 2**64
        return RandomSource(self.seed, mixed)

    def unit_complex(self) -> complex:
        theta = 2 * np.pi * self._gen.random()
        return complex(np.cos(theta), np.sin(theta))

    def gaussian_complex(self) -> complex:
        re, im = self._gen.normal(size=2)
        return complex(re, im) / np.sqrt(2)

    def gaussian_complex_array(self, *shape: int) -> np.ndarray:
        data = self._gen.normal(size=(2,) + shape)
        return (data[0] + 1j * data[1]) / np.sqrt(2)

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


# ---------------------------------------------------------------------------
# Parser


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# One alternative per token kind.  `\s`, `\d` and `\w` are Unicode classes:
# whitespace is str.isspace(), and an identifier is word characters that do
# not start with a decimal digit.
_TOKEN = re.compile(r"""
    (?P<skip> [^\S\n]+ | \#.* )
  | (?P<newline> \n )
  | (?P<num> (?P<lit> (?=\.?\d) [\d.]+ (?:[eE][+-]?\d+)? ) (?P<imag> i )? )
  | (?P<id> [^\W\d]\w* )
  | (?P<sym> [-+*^=;()\[\]] )
  | (?P<bad> . )
""", re.VERBOSE)


def _tokenize(text: str):
    """(kind, value, line, column) tuples, ending with an "eof" token."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, col)
        elif kind == "num":
            lit = m["lit"]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal {lit!r}", line, col) from None
            if not math.isfinite(value):
                raise ParseError(f"number literal {lit!r} is not finite", line, col)
            value = complex(0.0, value) if m["imag"] else complex(value, 0.0)
            tokens.append(("num", value, line, col))
        elif kind != "skip":
            tokens.append((kind, m[0], line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.group_names: list[str] = []
        self.var_index: dict[str, int] = {}
        self.polys: dict[str, Polynomial] = {}
        self.grouping: VariableGrouping | None = None

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, symbol: str) -> bool:
        """Consume the next token if it is `symbol`."""
        if self.peek()[:2] == ("sym", symbol):
            self.pos += 1
            return True
        return False

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect(self, kind: str, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            self.error(f"expected {want!r}, found {tok[1]!r}", tok)
        return tok

    def integer(self, least: int, most: int, what: str) -> int:
        """The next token as an integer literal from `least` to `most`."""
        tok = self.expect("num")
        value = tok[1].real
        if tok[1].imag != 0 or value != int(value) or not least <= value <= most:
            self.error(f"{what} must be an integer from {least} to {most}", tok)
        return int(value)

    def parse(self) -> PolySystem:
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[:2] == ("id", "group"):
                self.parse_group()
            elif tok[0] == "id":
                self.parse_poly()
            else:
                self.error(f"expected declaration, found {tok[1]!r}")
        if not self.group_names:
            self.error("no variable groups declared")
        if not self.polys:
            self.error("no polynomials declared")
        return PolySystem(self.polys.values())

    def parse_group(self):
        if self.polys:
            self.error("group declarations must precede polynomials")
        self.expect("id", "group")
        name_tok = self.expect("id")
        name = name_tok[1]
        if name in self.group_names:
            self.error(f"duplicate group name {name!r}", name_tok)
        size = 1
        if self.accept("["):
            size = self.integer(1, MAX_GROUP_SIZE, "group size")
            self.expect("sym", "]")
        self.expect("sym", ";")
        self.group_names.append(name)
        for v in [name] if size == 1 else [f"{name}{j}" for j in range(1, size + 1)]:
            if v in self.var_index:
                self.error(f"variable name {v!r} collides with an existing variable", name_tok)
            self.var_index[v] = len(self.var_index)
        sizes = self.grouping.sizes if self.grouping else ()
        self.grouping = VariableGrouping.from_sizes(sizes + (size,), list(self.var_index))

    def parse_poly(self):
        name_tok = self.expect("id")
        name = name_tok[1]
        if self.grouping is None:
            self.error("polynomials must follow a group declaration", name_tok)
        if name in self.polys:
            self.error(f"duplicate polynomial name {name!r}", name_tok)
        if name in self.var_index or name in self.group_names:
            self.error(f"polynomial name {name!r} collides with a variable", name_tok)
        self.expect("sym", "=")
        p = self.parse_expr()
        self.expect("sym", ";")
        # finite literals can still multiply or add up to inf or nan
        if not all(cmath.isfinite(c) for c in p.terms.values()):
            self.error(f"polynomial {name!r} has a coefficient that is not finite", name_tok)
        self.polys[name] = p

    def parse_expr(self) -> Polynomial:
        negate = not self.accept("+") and self.accept("-")  # one optional leading sign
        p = self.parse_term()
        if negate:
            p = -p
        while True:
            if self.accept("+"):
                p = p + self.parse_term()
            elif self.accept("-"):
                p = p - self.parse_term()
            else:
                return p

    def parse_term(self) -> Polynomial:
        p = self.parse_factor()
        while self.accept("*"):
            star = self.tokens[self.pos - 1]
            q = self.parse_factor()
            if len(p.terms) * len(q.terms) > MAX_POWER_TERMS:
                self.error(f"a product may expand to at most {MAX_POWER_TERMS} terms", star)
            p = p * q
        return p

    def parse_factor(self) -> Polynomial:
        p = self.parse_atom()
        if self.accept("^"):
            caret = self.tokens[self.pos - 1]
            n = self.integer(0, MAX_EXPONENT, "exponent")
            if math.comb(n + max(len(p.terms), 1) - 1, n) > MAX_POWER_TERMS:
                self.error(f"a power may expand to at most {MAX_POWER_TERMS} terms", caret)
            p = p ** n
        return p

    def parse_atom(self) -> Polynomial:
        tok = self.next()
        if tok[0] == "num":
            return Polynomial.constant(self.grouping, tok[1])
        if tok[0] == "id":
            if tok[1] not in self.var_index:
                self.error(f"undeclared identifier {tok[1]!r}", tok)
            return Polynomial.variable(self.grouping, self.var_index[tok[1]])
        if tok[:2] == ("sym", "("):
            p = self.parse_expr()
            self.expect("sym", ")")
            return p
        self.error(f"expected a number, variable, or '(', found {tok[1]!r}", tok)


def parse_system(text: str) -> PolySystem:
    return _Parser(text).parse()
