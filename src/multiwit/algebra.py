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

Every table is evaluated one way: its coefficients are a (members, terms)
table, and each point of a batch reads the row of the member it names.  A
table without `Members` has one member.  Members are instances of one
homotopy that differ only in affine forms on its last rows: a member's
affine form is a term list, derivative terms included, whose coefficients
are the member's own, and its start rows that are products of forms stay
products, multiplied out after the table's sums.  So one table serves every
key of a witness collection, or every query of a membership test.
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

    def __repr__(self) -> str:
        parts = ["|".join(self.names[v] for v in b) for b in self.blocks]
        return f"VariableGrouping({', '.join(parts)})"


class Polynomial:
    """A sparse polynomial: exponent vector -> complex coefficient.  Two
    polynomials are equal only as one object."""

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
               constant: complex, variables: Sequence[int]) -> "Polynomial":
        """constant + sum coeffs[j] * x_{variables[j]}."""
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
        return self._multidegree

    @cached_property
    def _multidegree(self) -> tuple[int, ...]:
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
        return self if grouping == self.grouping else Polynomial(grouping, self.terms)

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
    evaluated at a batch of points, one per row, each point as one member
    of the table's `Members`.

    Every term refers into one list of distinct monomials; monomial 0 is the
    constant 1.  The terms are summed per owner in one take, one multiply
    and one `reduceat`.  The owners are [A; DA; B; DB]: A holds each row's
    a-part, DA its Jacobian slots (row by row, one per column), and B, DB
    the same for the b-parts.  So a row at t is A + t*B, its Jacobian is
    DA + t*DB, and B is its derivative in t.  Only the owners with terms
    are summed, and one more zero term after them; one take places the
    sums, an owner without terms reading that 0.  The B of a row whose every
    piece has b = -a is not summed: the take places its A there and one
    masked negation flips it, which is its sum bit for bit, since negation
    is exact.  The residual scale reads a table of its own: each row's sum
    of |coeff| * |monomial| plus 1, split as [A; B].  That scale reads
    |a + t*b| as |a| + t*(|a + b| - |a|), which is exact on [0, 1] when a
    or b is zero or b = -a.  A scale segment without terms gets one zero
    term on the constant monomial.

    A batch is evaluated as (B, .) arrays, one row per point, and every take
    and `reduceat` runs along axis 1, whose length does not depend on B, so
    each row is summed in the order it would be alone.  The coefficients
    and scale weights are (members, terms) tables, and each point of a
    batch copies the row of its member; a table without `members` has one
    member, whose row every point copies.  (A row copy costs less than
    writing only the columns that differ from member to member.)
    `members` adds each member's own pieces to the last rows (see
    `Members`).  A member's affine form is a piece like any other,
    derivative terms included, whose terms take their coefficient from the
    member; only those columns of a table differ from member to member.  A
    product of two or more forms is not expanded: each form is an owner of
    its own, after [A; DA; B; DB], with its sizes after the scale's [A; B],
    and `_Products` multiplies them into the rows' owners after the sums."""

    def __init__(self, rows: Sequence[Sequence[tuple[Polynomial, complex, complex]]],
                 nvars: int, members: "Members | None" = None):
        self.rows = len(rows)
        self.nvars = nvars
        self.members = members
        self.width = self.rows * (1 + nvars)  # owners per half: values, then slots
        pieces = [[(p._expansion, a, b) for p, a, b in row] for row in rows]
        products = []  # (row, forms) of the members' start parts of two or more forms
        for r, a, b, forms in members.pieces if members else ():
            if forms.shape[1] > 1:
                products.append((r + self.rows, forms))
            else:
                pieces[r].append((_affine_expansion(forms[:, 0]), a, b))
        factors = [form for _, forms in products for form in forms.transpose(1, 0, 2)]
        index = {(0,) * nvars: 0}  # exponent vector -> monomial number
        owned = [[] for _ in range(2 * self.width + len(factors))]  # per owner: (monomial, coeff)
        # per segment: (monomial, weight)
        scaled = [[] for _ in range(2 * self.rows + len(factors))]
        self.ones = np.zeros(len(scaled))  # the "plus 1" of each segment's scale
        negated = set()  # rows whose every piece has b = -a, so B = -A
        for r, row in enumerate(pieces):
            if row and all(b == -a for _, a, b in row):
                negated.add(r)
            for expansion, a, b in row:
                for half, w, mag in ((0, a, abs(a)), (1, b, abs(a + b) - abs(a))):
                    if w == 0:
                        continue
                    seg = half * self.rows + r
                    self.ones[seg] += mag
                    value, weights = owned[half * self.width + r], scaled[seg]
                    slots = half * self.width + self.rows + r * nvars
                    for e, c, size, derivs in expansion:
                        k = index.setdefault(e, len(index))
                        weights.append((k, mag * size))
                        if half and r in negated:
                            continue
                        wc = w * c
                        value.append((k, wc))
                        for v, de, d in derivs:
                            owned[slots + v].append((index.setdefault(de, len(index)), wc * d))
        for f, form in enumerate(factors):
            for e, c, size, _ in _affine_expansion(form):
                k = index.setdefault(e, len(index))
                owned[2 * self.width + f].append((k, c))
                scaled[2 * self.rows + f].append((k, size))
        has = np.array([bool(terms) for terms in owned], dtype=bool)
        self.owners = len(owned)
        # the owners with terms, then one zero term for every other owner to read
        self.monos, self.coeffs, self.starts = _flatten([t for t in owned if t] + [[]], complex)
        self.place = np.where(has, np.cumsum(has) - 1, has.sum())  # each owner's sum
        # the B owners of the rows whose B is -A read their A's sum, negated
        flipped = np.array([i for i in range(self.width) if has[i] and
                            (i if i < self.rows else (i - self.rows) // nvars) in negated],
                           dtype=np.int64)
        self.place[flipped + self.width] = self.place[flipped]
        self.flip = None
        if len(flipped):
            self.flip = np.zeros(self.owners, dtype=bool)
            self.flip[flipped + self.width] = True
        self.scale_monos, self.weights, self.scale_starts = _flatten(scaled, float)
        self.products = _Products(products, self.rows, nvars) if products else None

        # Monomial k is the product of the coordinates its factors list, in
        # order, one entry per unit of degree; the constant monomial 0 lists
        # coordinate 0, so that no segment is empty, and `evaluate` sets it
        # to 1.
        counts = np.array(list(index), dtype=np.int64).reshape(len(index), nvars)
        counts[0, 0] = 1  # times each coordinate is listed
        self.factors = np.repeat(np.tile(np.arange(nvars), len(index)), counts.ravel())
        sizes = counts.sum(axis=1)
        self.factor_starts = np.cumsum(sizes) - sizes
        # scratch rows for the gathered factors, the points' coefficients, the
        # terms and the points' weights, grown to the largest batch asked
        self._scratch = tuple(np.empty((0, size), dtype) for size, dtype in (
            (len(self.factors), complex), (len(self.monos), complex),
            (len(self.monos), complex), (len(self.scale_monos), float)))

    def evaluate(self, x: np.ndarray, t=0.0, scaled: bool = False,
                 member: np.ndarray | None = None) -> tuple:
        """(rows, residual scale or None, Jacobian, t-derivative of the rows)
        at the B points of a (B, n) array x and t, a float or of shape (B,),
        from one kernel call; the scale is computed only if `scaled`.  Every
        result has a leading axis of B, and each of its rows is bit for bit
        the call on that row's (x, t, member) alone.  Row i is member
        member[i] of the table, and without `member` every row is member 0.
        An index is clipped to the table's members, so a table without
        members reads its one member whatever the index.
        The gathered factors, the points' coefficients and weights and the
        terms go to scratch arrays kept for the largest batch asked, a
        smaller batch using their first rows, because a fresh array of that
        size costs page faults on every call; so one table is not to be
        evaluated from two threads at once.  No result is a view of them."""
        count = len(x)
        if member is None:
            member = np.zeros(count, dtype=np.intp)
        if len(self._scratch[0]) < count:
            self._scratch = tuple(np.empty((count, a.shape[1]), a.dtype) for a in self._scratch)
        gathered, coeffs, terms, weights = [a[:count] for a in self._scratch]
        monomials = np.multiply.reduceat(x.take(self.factors, axis=1, out=gathered, mode="clip"),
                                         self.factor_starts, axis=1)
        monomials[:, 0] = 1
        self.coeffs.take(member, axis=0, out=coeffs, mode="clip")
        # coefficient first: numpy's complex product need not commute bit for bit
        np.multiply(coeffs, monomials.take(self.monos, axis=1, out=terms, mode="clip"), out=terms)
        split = np.add.reduceat(terms, self.starts, axis=1).take(self.place, axis=1)
        if self.flip is not None:
            np.negative(split, out=split, where=self.flip)
        magnitudes = None
        if scaled:
            weighted = np.abs(monomials).take(self.scale_monos, axis=1)
            weighted *= self.weights.take(member, axis=0, out=weights, mode="clip")
            magnitudes = np.add.reduceat(weighted, self.scale_starts, axis=1) + self.ones
        if self.products is not None:
            self.products.add(member, split, magnitudes)
        if isinstance(t, np.ndarray):
            t = t[:, None]
        width, rows = self.width, self.rows
        at = split[:, :width] + t * split[:, width:2 * width]
        scale = (None if magnitudes is None
                 else magnitudes[:, :rows] + t * magnitudes[:, rows:2 * rows])
        return (at[:, :rows], scale, at[:, rows:].reshape(count, rows, self.nvars),
                split[:, width:width + rows])


def affine_rows(forms: Sequence[Polynomial], nvars: int) -> np.ndarray:
    """The coefficient rows (c_1, ..., c_n, c_0) of affine forms c.x + c_0
    in n = nvars variables, as a (len(forms), n + 1) array."""
    rows = np.zeros((len(forms), nvars + 1), dtype=complex)
    for row, form in zip(rows, forms):
        for e, c in form.terms.items():
            if sum(e) > 1:
                raise ValueError(f"{form!r} is not affine")
            row[e.index(1) if any(e) else nvars] = c
    return rows


def _affine_expansion(forms: np.ndarray) -> tuple:
    """The `Polynomial._expansion` of one affine form per member, given as a
    (M, n + 1) array of `affine_rows`: a term per variable that some
    member's form uses, with its derivative term on the constant monomial,
    then the constant, each with M coefficients."""
    n = forms.shape[1] - 1
    zero = (0,) * n
    return tuple((zero[:v] + (1,) + zero[v + 1:], forms[:, v], np.abs(forms[:, v]),
                  ((v, zero, 1),))
                 for v in np.flatnonzero((forms[:, :n] != 0).any(axis=0))
                 ) + ((zero, forms[:, n], np.abs(forms[:, n]), ()),)


class Members:
    """What differs from member to member of one homotopy: member k adds a
    start part t * S_k to the last len(counts) rows of a term table and a
    target part (1 - t) * T_k to its last forms.shape[1] rows.  Start row r
    of member k is the product of the next counts[r] affine forms of
    factors[k], a (M, sum(counts), n + 1) array of `affine_rows`, and target
    row r is the affine form forms[k, r].  Each part is a piece (p, a, b) of
    its row, p its product, with (a, b) = (0, 1) for a start part and
    (1, -1) for a target part; the residual scale reads a product's size as
    the product of its forms' sums of |coeff| * |x_v|, constant included.
    Many coefficient-parameter instances of one system share a table this
    way, one member each."""

    def __init__(self, factors: np.ndarray | None = None, counts: Sequence[int] = (),
                 forms: np.ndarray | None = None):
        given = forms if factors is None else factors
        self.count = len(given)  # members
        self.start_rows, self.target_rows = len(counts), 0 if forms is None else forms.shape[1]
        if factors is not None and (factors.shape[1] != sum(counts) or not all(counts)):
            raise ValueError("every start row needs a form, and each member sum(counts) forms")
        if forms is not None and len(forms) != self.count:
            raise ValueError("the start and target parts must have one entry per member")
        first = np.cumsum(counts, dtype=np.int64) - counts
        # (row, counted from the end, a, b, the (M, c, n + 1) forms whose product it is)
        self.pieces = ([(r - self.start_rows, 0, 1, factors[:, f:f + c])
                        for r, (f, c) in enumerate(zip(first, counts))]
                       + [(r - self.target_rows, 1, -1, forms[:, r:r + 1])
                          for r in range(self.target_rows)])


class _Products:
    """The members' start parts that are products of two or more forms.
    Each form's value is an owner after a table's [A; DA; B; DB] and its
    size a scale segment after [A; B]; `add` multiplies them out into the B
    owners, B scale segments and DB slots of their rows, a start part being
    a piece with a = 0, b = 1.  A product's gradient in x_v sums, over its
    forms with a coefficient on x_v in some member, the product of the
    others times that coefficient.  These terms are one flat list, each
    added into its DB slot in order by one `np.add.at`, so a DB slot that no
    form touches gets no term and keeps the table's own sum, which is 0 if
    the table has no term there either.
    All of it is evaluated from 2-D arrays with one row per point, so each
    point's numbers come out the same in any batch."""

    def __init__(self, products: list, rows: int, nvars: int):
        counts = np.array([forms.shape[1] for _, forms in products], dtype=np.int64)
        self.first = np.cumsum(counts) - counts  # each product's first form
        forms = np.concatenate([forms for _, forms in products], axis=1)
        width = rows * (1 + nvars)
        self.owners, self.sizes = 2 * width, 2 * rows  # where the forms' values and sizes start
        # per form, the owners of the other forms of its product
        others = [[g for g in range(s, s + c) if g != f]
                  for s, c in zip(self.first, counts) for f in range(s, s + c)]
        sizes = np.array([len(o) for o in others], dtype=np.int64)
        self.others = self.owners + np.array(list(chain.from_iterable(others)), dtype=np.int64)
        self.other_starts = np.cumsum(sizes) - sizes
        at = np.array([r for r, _ in products], dtype=np.int64)
        # the gradient's terms: each (form, x_v) with a coefficient in some member
        f, v = np.nonzero(forms[:, :, :nvars].any(axis=0))
        self.forms, self.coeffs = f, forms[:, f, v]
        # the B owners, each term's DB slot and the B scale segments they go to
        self.targets = width + at, width + rows + nvars * np.repeat(at, counts)[f] + v, rows + at
        self.count = len(forms[0])
        self._positions = {}  # batch size -> those, as positions in flattened arrays

    def add(self, member: np.ndarray, split: np.ndarray, magnitudes: np.ndarray | None) -> None:
        """Multiply out the products, point i as member member[i], into
        `split`, [A; DA; B; DB; forms], and unless None `magnitudes`,
        [A; B; forms], both C-contiguous, in place."""
        count = len(split)
        positions = self._positions.get(count)
        if positions is None:
            k = np.arange(count)[:, None]
            widths = (split.shape[1], split.shape[1], self.sizes + self.count)
            positions = self._positions[count] = tuple(
                (base + k * width).ravel() for base, width in zip(self.targets, widths))
        values, slots, segments = positions
        rest = np.multiply.reduceat(split.take(self.others, axis=1), self.other_starts, axis=1)
        gradients = self.coeffs.take(member, axis=0) * rest.take(self.forms, axis=1)
        flat = split.reshape(-1)
        flat[values] += np.multiply.reduceat(split[:, self.owners:self.owners + self.count],
                                             self.first, axis=1).ravel()
        np.add.at(flat, slots, gradients.ravel())  # in order: a slot's sum is the same in any batch
        if magnitudes is not None:
            magnitudes.reshape(-1)[segments] += (np.multiply.reduceat(
                magnitudes[:, self.sizes:], self.first, axis=1) + 1).ravel()


def _flatten(owned: list, dtype) -> tuple[np.ndarray, ...]:
    """The monomials and coefficients of per-owner term lists, concatenated,
    with one zero term on the constant monomial for each empty owner, and
    the position of each owner's first term.  A coefficient is a number or
    an array of one per member, and the coefficients are a (members, terms)
    array, of one row when no coefficient is an array."""
    monos, coeffs = zip(*chain.from_iterable(terms or ((0, 0),) for terms in owned))
    counts = np.array([len(terms) or 1 for terms in owned])
    array = np.ndarray
    own = [i for i, kind in enumerate(map(type, coeffs)) if kind is array]
    shared = list(coeffs)
    for i in own:
        shared[i] = 0
    mine = np.array([coeffs[i] for i in own], dtype=dtype).T  # (members, len(own))
    table = np.tile(np.array(shared, dtype=dtype), (len(mine) or 1, 1))
    table[:, own] = mine
    return np.array(monos, dtype=np.int64), table, np.cumsum(counts) - counts


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

