"""System ingestion and output.

Three concerns live here: a recursive-descent parser for polynomial
systems with declared variable groups, the JSON encoder of the CLI's
output, and a deterministic counter-based random source (every "general"
or "random" choice in the toolkit draws from one of its streams).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .algebra import Polynomial, PolySystem, VariableGrouping

DEFAULT_SEED = 20230529


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


@dataclass
class SystemDocument:
    grouping: VariableGrouping
    system: PolySystem
    group_names: tuple[str, ...]
    poly_names: tuple[str, ...]


_SYMBOLS = set("+-*^=;()[]")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and j + 1 < n and (
                text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
            ):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            imag = j < n and text[j] == "i"
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ParseError(f"bad number literal {lit!r}", line, col) from None
            if imag:
                j += 1
                tokens.append(("num", complex(0.0, value), line, col))
            else:
                tokens.append(("num", complex(value, 0.0), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.group_names: list[str] = []
        self.group_sizes: list[int] = []
        self.var_names: list[str] = []
        self.var_index: dict[str, int] = {}
        self.poly_names: list[str] = []
        self.polys: list[Polynomial] = []
        self.grouping: VariableGrouping | None = None

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect(self, kind: str, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            self.error(f"expected {want!r}, found {tok[1]!r}", tok)
        return tok

    def parse(self) -> SystemDocument:
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[0] == "id" and tok[1] == "group":
                self.parse_group()
            elif tok[0] == "id":
                self.parse_poly()
            else:
                self.error(f"expected declaration, found {tok[1]!r}")
        if not self.group_names:
            self.error("no variable groups declared")
        if not self.polys:
            self.error("no polynomials declared")
        return SystemDocument(
            grouping=self.grouping,
            system=PolySystem(self.polys),
            group_names=tuple(self.group_names),
            poly_names=tuple(self.poly_names),
        )

    def parse_group(self):
        if self.polys:
            self.error("group declarations must precede polynomials")
        self.expect("id", "group")
        name_tok = self.expect("id")
        name = name_tok[1]
        if name in self.group_names:
            self.error(f"duplicate group name {name!r}", name_tok)
        size = 1
        if self.peek()[:2] == ("sym", "["):
            self.next()
            num_tok = self.expect("num")
            size = num_tok[1].real
            if num_tok[1].imag != 0 or size != int(size) or size < 1:
                self.error("group size must be a positive integer", num_tok)
            size = int(size)
            self.expect("sym", "]")
        self.expect("sym", ";")
        self.group_names.append(name)
        self.group_sizes.append(size)
        if size == 1:
            new_vars = [name]
        else:
            new_vars = [f"{name}{j}" for j in range(1, size + 1)]
        for v in new_vars:
            if v in self.var_index:
                self.error(f"variable name {v!r} collides with an existing variable")
            self.var_index[v] = len(self.var_names)
            self.var_names.append(v)
        self.grouping = VariableGrouping.from_sizes(self.group_sizes, self.var_names)

    def parse_poly(self):
        name_tok = self.expect("id")
        name = name_tok[1]
        if self.grouping is None:
            self.error("polynomials must follow a group declaration", name_tok)
        if name in self.poly_names:
            self.error(f"duplicate polynomial name {name!r}", name_tok)
        if name in self.var_index or name in self.group_names:
            self.error(f"polynomial name {name!r} collides with a variable", name_tok)
        self.expect("sym", "=")
        p = self.parse_expr()
        self.expect("sym", ";")
        self.poly_names.append(name)
        self.polys.append(p)

    def parse_expr(self) -> Polynomial:
        negate = False
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            negate = True
        elif self.peek()[:2] == ("sym", "+"):
            self.next()
        p = self.parse_term()
        if negate:
            p = -p
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            op = self.next()[1]
            q = self.parse_term()
            p = p + q if op == "+" else p - q
        return p

    def parse_term(self) -> Polynomial:
        p = self.parse_factor()
        while self.peek()[:2] == ("sym", "*"):
            self.next()
            p = p * self.parse_factor()
        return p

    def parse_factor(self) -> Polynomial:
        p = self.parse_atom()
        if self.peek()[:2] == ("sym", "^"):
            self.next()
            num_tok = self.expect("num")
            d = num_tok[1].real
            if num_tok[1].imag != 0 or d != int(d) or d < 0:
                self.error("exponent must be a nonnegative integer", num_tok)
            p = p ** int(d)
        return p

    def parse_atom(self) -> Polynomial:
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return Polynomial.constant(self.grouping, tok[1])
        if tok[0] == "id":
            self.next()
            v = self.var_index.get(tok[1])
            if v is None:
                self.error(f"undeclared identifier {tok[1]!r}", tok)
            return Polynomial.variable(self.grouping, v)
        if tok[:2] == ("sym", "("):
            self.next()
            p = self.parse_expr()
            self.expect("sym", ")")
            return p
        self.error(f"expected a number, variable, or '(', found {tok[1]!r}", tok)


def parse_system(text: str) -> SystemDocument:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# JSON output


def _num(x: float):
    """17-significant-digit float for serialization (round-trips bit-exactly)."""
    return format(float(x), ".17g")


def _encode(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_encode(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
            return "[" + ", ".join(
                str(v) if isinstance(v, int) else _num(v) for v in obj
            ) + "]"
        inner = ",\n".join(f"{pad}  {_encode(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _num(obj)
    return json.dumps(obj)

