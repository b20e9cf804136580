"""Sparse complex polynomials over grouped variables.

Polynomials are stored as maps from dense exponent vectors to complex
coefficients.  Variables are partitioned into groups (the factors of a
product of affine/projective spaces); most operations here are indexed
by group: per-group degrees and Jacobian column blocks.

Evaluation and differentiation of whole systems go through one compiled
term table per system (shared monomials, value and derivative terms), so
a point's values and Jacobian come from one kernel call, and a batch of
points' from one call too; the residual scale has a small table of its own
over the same monomials.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np


def relative_residual(values: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """max_i |values_i| / scale_i, with scale the per-row term magnitude,
    over the last axis: one residual per point for the rows of many.

    An absolute test is unreachable in double precision once a point has
    wandered far from the origin; relative to the size of each row's terms
    it is not."""
    return (np.abs(values) / scale).max(axis=-1)


class VariableGrouping:
    """A partition of the variables into ordered groups.

    blocks[i] is the tuple of variable indices belonging to group i.
    names[v] is the identifier of variable v.
    """

    def __init__(self, blocks: Sequence[Sequence[int]], names: Sequence[str]):
        blocks = tuple(tuple(b) for b in blocks)
        names = tuple(names)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("every group must contain at least one variable")
        flat = sorted(v for b in blocks for v in b)
        if flat != list(range(len(names))):
            raise ValueError("blocks must partition the variable indices")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.blocks = blocks
        self.names = names

    @classmethod
    def from_sizes(cls, sizes: Sequence[int], names: Sequence[str]) -> "VariableGrouping":
        blocks = []
        start = 0
        for n in sizes:
            blocks.append(tuple(range(start, start + n)))
            start += n
        return cls(blocks, names)

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def check_group(self, i: int) -> None:
        """Raise ValueError naming i unless it is a group index, 0..k-1."""
        if not 0 <= i < self.k:
            raise ValueError(f"group index {i} is not in 0..{self.k - 1}")

    def merge(self, a: int, b: int) -> "VariableGrouping":
        """Merge group b into group a; the merged group keeps position a."""
        self.check_group(a)
        self.check_group(b)
        if a == b:
            raise ValueError("cannot merge a group with itself")
        a, b = min(a, b), max(a, b)
        blocks = list(self.blocks)
        merged = tuple(sorted(blocks[a] + blocks[b]))
        blocks[a] = merged
        del blocks[b]
        return VariableGrouping(blocks, self.names)

    def split(self, group: int, first_part: Sequence[int]) -> "VariableGrouping":
        """Split one group in two; first_part lists variable indices kept in
        the first half, the rest form a new group inserted right after."""
        self.check_group(group)
        first = tuple(first_part)
        block = self.blocks[group]
        if not first or not set(first) < set(block):
            raise ValueError("first_part must be a proper nonempty subset of the group")
        second = tuple(v for v in block if v not in first)
        blocks = list(self.blocks)
        blocks[group] = first
        blocks.insert(group + 1, second)
        return VariableGrouping(blocks, self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VariableGrouping)
            and self.blocks == other.blocks
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return hash((self.blocks, self.names))

    def __repr__(self) -> str:
        parts = ["|".join(self.names[v] for v in b) for b in self.blocks]
        return f"VariableGrouping({', '.join(parts)})"


class Polynomial:
    """A sparse polynomial: exponent vector -> complex coefficient."""

    def __init__(self, grouping: VariableGrouping, terms: dict):
        self.grouping = grouping
        self.terms = {
            tuple(e): complex(c) for e, c in terms.items() if c != 0
        }

    @classmethod
    def constant(cls, grouping: VariableGrouping, c: complex) -> "Polynomial":
        return cls(grouping, {(0,) * grouping.nvars: c})

    @classmethod
    def variable(cls, grouping: VariableGrouping, v: int) -> "Polynomial":
        e = [0] * grouping.nvars
        e[v] = 1
        return cls(grouping, {tuple(e): 1.0})

    @classmethod
    def affine(cls, grouping: VariableGrouping, coeffs: Sequence[complex],
               constant: complex, variables: Sequence[int] | None = None) -> "Polynomial":
        """constant + sum coeffs[j] * x_{variables[j]}."""
        if variables is None:
            variables = range(grouping.nvars)
        terms = {(0,) * grouping.nvars: complex(constant)}
        for c, v in zip(coeffs, variables, strict=True):
            e = [0] * grouping.nvars
            e[v] = 1
            terms[tuple(e)] = complex(c)
        return cls(grouping, terms)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Polynomial(self.grouping, terms)

    def __radd__(self, other) -> "Polynomial":
        return self + other

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.grouping, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return -self + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float, complex)):
            return Polynomial(
                self.grouping, {e: c * other for e, c in self.terms.items()}
            )
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return Polynomial(self.grouping, terms)

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.grouping, 1.0)
        for _ in range(n):
            result = result * self
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(self.grouping, other)

    @cached_property
    def _expansion(self) -> tuple:
        """Each term as (exponent, coefficient, |coefficient|, derivative
        terms); a derivative term (v, exponent, d) says that the term's
        derivative in x_v is d * coefficient times the monomial of that
        exponent.  Polynomials are never mutated, so every compiled table
        re-reads this one expansion."""
        return tuple(
            (e, c, abs(c),
             tuple((v, e[:v] + (d - 1,) + e[v + 1:], d) for v, d in enumerate(e) if d))
            for e, c in self.terms.items()
        )

    def multidegree(self) -> tuple[int, ...]:
        """Per-group max total degree across terms; all-zeros for 0."""
        g = self.grouping
        deg = [0] * g.k
        for e in self.terms:
            for i, block in enumerate(g.blocks):
                d = sum(e[v] for v in block)
                if d > deg[i]:
                    deg[i] = d
        return tuple(deg)

    def with_grouping(self, grouping: VariableGrouping) -> "Polynomial":
        if grouping.nvars != self.grouping.nvars:
            raise ValueError("regrouping must preserve the variable set")
        return Polynomial(grouping, self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.grouping == other.grouping
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.grouping, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        names = self.grouping.names
        parts = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            c = self.terms[e]
            mono = "*".join(
                f"{names[v]}^{d}" if d > 1 else names[v]
                for v, d in enumerate(e) if d > 0
            )
            coeff = _fmt_complex(c)
            parts.append(f"{coeff}*{mono}" if mono else coeff)
        return " + ".join(parts)


def _fmt_complex(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        return repr(int(r)) if r == int(r) else repr(r)
    return f"({c.real:+g}{c.imag:+g}i)"


class _Compiled:
    """One term table for rows of the form sum_k (a_k + t*b_k) * p_k(x),
    evaluated at a batch of points, one per row.

    Every term refers into one list of distinct monomials; monomial 0 is the
    constant 1.  The terms are summed per owner in one take, one multiply
    and one `reduceat`.  The owners are [A; DA; B; DB]: A holds each row's
    a-part, DA its Jacobian slots (row by row, one per column), and B, DB
    the same for the b-parts.  So a row at t is A + t*B, its Jacobian is
    DA + t*DB, and B is its derivative in t.  The residual scale reads a
    table of its own: each row's sum of |coeff| * |monomial| plus 1, split
    as [A; B].  That scale reads |a + t*b| as |a| + t*(|a + b| - |a|), which
    is exact on [0, 1] when a or b is zero or b = -a.  An owner without
    terms gets one zero term on the constant monomial."""

    def __init__(self, rows: Sequence[Sequence[tuple[Polynomial, complex, complex]]],
                 nvars: int):
        self.rows = len(rows)
        self.nvars = nvars
        self.width = self.rows * (1 + nvars)  # owners per half: values, then slots
        index = {(0,) * nvars: 0}  # exponent vector -> monomial number
        owned = [[] for _ in range(2 * self.width)]  # per owner: (monomial, coeff)
        scaled = [[] for _ in range(2 * self.rows)]  # per segment: (monomial, weight)
        self.ones = np.zeros(2 * self.rows)  # the "plus 1" of each segment's scale
        for r, row in enumerate(rows):
            for p, a, b in row:
                for half, w, mag in ((0, a, abs(a)), (1, b, abs(a + b) - abs(a))):
                    if w == 0:
                        continue
                    seg = half * self.rows + r
                    self.ones[seg] += mag
                    value, weights = owned[half * self.width + r], scaled[seg]
                    slots = half * self.width + self.rows + r * nvars
                    for e, c, size, derivs in p._expansion:
                        k = index.setdefault(e, len(index))
                        wc = w * c
                        value.append((k, wc))
                        weights.append((k, mag * size))
                        for v, de, d in derivs:
                            owned[slots + v].append((index.setdefault(de, len(index)), wc * d))
        self.monos, self.coeffs, self.starts = _flatten(owned, complex)
        self.scale_monos, self.weights, self.scale_starts = _flatten(scaled, float)

        # Monomial k is the product of the coordinates its factors list, in
        # order, one entry per unit of degree; the constant monomial 0 lists
        # coordinate 0, so that no segment is empty, and `evaluate` sets it
        # to 1.
        counts = np.array(list(index), dtype=np.int64).reshape(len(index), nvars)
        counts[0, 0] = 1  # times each coordinate is listed
        self.factors = np.repeat(np.tile(np.arange(nvars), len(index)), counts.ravel())
        sizes = counts.sum(axis=1)
        self.factor_starts = np.cumsum(sizes) - sizes
        self._capacity = 0  # points `_batch` is built for, see `_rows`
        self._prefixes = {}  # count -> the prefixes of `_batch` for that many points

    def evaluate(self, x: np.ndarray, t=0.0, scaled: bool = False,
                 shift: np.ndarray | None = None) -> tuple:
        """(rows, residual scale or None, Jacobian, t-derivative of the rows)
        at the B points of a (B, n) array x and t, a float or of shape (B,),
        from one kernel call; the scale is computed only if `scaled`.  Every
        result has a leading axis of B, and each of its rows is bit for bit
        the call on that row's (x, t, shift) alone.

        A (B, m) `shift` is subtracted, point by point, from the constant of
        a target part a = 1, b = -1 of each of the last m rows: their A
        loses it and their B gains it, so the rows gain -(1 - t) * shift,
        their t-derivative +shift and their scale (1 - t) * |shift|, and the
        Jacobian is unchanged.  A shift of m = 0 columns is no shift and
        costs nothing."""
        count = len(x)
        (factors, factor_starts, monos, coeffs, starts, scale_monos, weights, scale_starts,
         gathered, terms) = self._rows(count)
        monomials = np.multiply.reduceat(x.take(factors, out=gathered, mode="clip"),
                                         factor_starts)
        monomials[::len(self.factor_starts)] = 1
        # coefficient first: numpy's complex product need not commute bit for bit
        terms = np.multiply(coeffs, monomials.take(monos, out=terms, mode="clip"), out=terms)
        split = np.add.reduceat(terms, starts).reshape(count, -1)
        if isinstance(t, np.ndarray):
            t = t[:, None]
        width, rows = self.width, self.rows
        moved = rows if shift is None else rows - shift.shape[1]  # the first shifted row
        if moved < rows:
            split[:, moved:rows] -= shift
            split[:, width + moved:width + rows] += shift
        at = split[:, :width] + t * split[:, width:]
        scale = None
        if scaled:
            weighted = np.abs(monomials).take(scale_monos)
            weighted *= weights
            magnitudes = np.add.reduceat(weighted, scale_starts).reshape(count, -1) + self.ones
            if moved < rows:
                size = np.abs(shift)
                magnitudes[:, moved:rows] += size
                magnitudes[:, rows + moved:] -= size
            scale = magnitudes[:, :rows] + t * magnitudes[:, rows:]
        jacobian = at[:, rows:].reshape(count, rows, self.nvars)
        return at[:, :rows], scale, jacobian, split[:, width:width + rows]

    def _rows(self, count: int) -> tuple[np.ndarray, ...]:
        """The table for `count` points at once, flattened: the index arrays
        with point k's copy offset by k times the length of what it indexes,
        the coefficients and weights repeated, and two scratch arrays, for
        the gathered factors and for the terms.  So every segment is still
        summed by one 1-D `reduceat`, in the same order as for one point.
        The arrays are built once, for the largest count asked, and a smaller
        count reads a prefix of each.  The scratch arrays are kept because a
        fresh array of that size costs page faults on every call; so one
        table is not to be evaluated from two threads at once."""
        prefixes = self._prefixes.get(count)
        if prefixes is None:
            if self._capacity < count:
                k = np.arange(count)[:, None]
                m = len(self.factor_starts)  # monomials per point
                # a stride of 0 repeats the coefficients and weights
                self._batch = tuple((base + k * stride).ravel() for base, stride in (
                    (self.factors, self.nvars), (self.factor_starts, len(self.factors)),
                    (self.monos, m), (self.coeffs, 0), (self.starts, len(self.monos)),
                    (self.scale_monos, m), (self.weights, 0),
                    (self.scale_starts, len(self.scale_monos)))
                ) + (np.empty(count * len(self.factors), dtype=complex),
                     np.empty(count * len(self.monos), dtype=complex))
                self._capacity = count
                self._prefixes.clear()
            prefixes = self._prefixes[count] = tuple(
                a[:count * (len(a) // self._capacity)] for a in self._batch)
        return prefixes


def _flatten(owned: list, dtype) -> tuple[np.ndarray, ...]:
    """The monomials and coefficients of per-owner term lists, concatenated,
    with one zero term on the constant monomial for each empty owner, and
    the position of each owner's first term."""
    monos, coeffs = zip(*chain.from_iterable(terms or ((0, 0),) for terms in owned))
    counts = np.array([len(terms) or 1 for terms in owned])
    return (np.array(monos, dtype=np.int64), np.array(coeffs, dtype=dtype),
            np.cumsum(counts) - counts)


class PolySystem:
    """An ordered list of polynomials over one shared grouping."""

    def __init__(self, polys: Sequence[Polynomial]):
        polys = tuple(polys)
        if not polys:
            raise ValueError("a system must contain at least one polynomial")
        grouping = polys[0].grouping
        if any(p.grouping != grouping for p in polys):
            raise ValueError("all polynomials must share one grouping")
        self.polys = polys
        self.grouping = grouping

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    @cached_property
    def _compiled(self) -> _Compiled:
        return _Compiled([[(p, 1, 0)] for p in self.polys], self.grouping.nvars)

    def kernel(self, point, scaled: bool = False) -> tuple:
        """(values, residual scale or None, Jacobian, _) at each row of a
        (B, n) array of points, or at one point as a batch of one, from one
        kernel call; the scale is computed only if `scaled`."""
        point = np.asarray(point, dtype=complex)
        if point.ndim not in (1, 2) or point.shape[-1] != self.grouping.nvars:
            raise ValueError(
                f"point has {point.shape[-1] if point.ndim else 1} coordinates, "
                f"expected {self.grouping.nvars}"
            )
        ev = self._compiled.evaluate(point.reshape(-1, point.shape[-1]), scaled=scaled)
        return ev if point.ndim == 2 else tuple(None if a is None else a[0] for a in ev)

    def evaluate(self, point) -> np.ndarray:
        return self.kernel(point)[0]

    def residual_scale(self, point) -> np.ndarray:
        return self.kernel(point, scaled=True)[1]

    def residual(self, point) -> float:
        """Relative residual of the system at `point`; the one test of
        whether a point lies on it."""
        values, scale, _, _ = self.kernel(point, scaled=True)
        return float(relative_residual(values, scale))

    def jacobian(self, point) -> np.ndarray:
        """DF(point)."""
        return self.kernel(point)[2]

    def concat(self, extra: Sequence[Polynomial]) -> "PolySystem":
        return PolySystem(self.polys + tuple(extra))

    def __repr__(self) -> str:
        return f"PolySystem({len(self.polys)} polynomials, {self.grouping!r})"

