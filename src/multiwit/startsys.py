"""Root-count combinatorics and start systems.

Contains the multihomogeneous Bezout machinery (complete-intersection
multidegree classes and the m-Bezout count), the linear-product start
system, handed over as its affine factors, and solve_zero_dims: the square
zero-dimensional solver (gamma homotopy) that every witness computation
sits on, for many slicings of one square-up of a system at once, in one
start homotopy; solve_zero_dim draws its own random square-up for one
slicing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Members, Polynomial, PolySystem, VariableGrouping, affine_rows
from .sysio import RandomSource
from .tracker import (
    IndeterminateError,
    TrackingError,
    _solve,
    dedupe_points,
    newton_refine,
    track_slice_motion,
)

RESIDUAL_TOL = 1e-8  # relative residual for accepting a point on the original system


def complete_intersection_class(
    degrees: Sequence[Sequence[int]], nvec: Sequence[int]
) -> dict[tuple[int, ...], int]:
    """Multidegree map of a general complete intersection.

    Expands prod_j (sum_i d_{j,i} s_i) modulo s_i^(n_i+1); the coefficient
    of s^(n-a) is reported as Deg(a).  Exact integer arithmetic.
    """
    nvec = tuple(int(n) for n in nvec)
    k = len(nvec)
    if len(degrees) > sum(nvec):
        raise ValueError("more forms than the ambient dimension")
    # exponent vector of s -> coefficient, over the reachable exponents only
    poly = {(0,) * k: 1}
    for d in degrees:
        d = tuple(int(x) for x in d)
        if len(d) != k:
            raise ValueError(f"degree vector {d} has arity {len(d)}, expected {k}")
        new: dict = {}
        for idx, c in poly.items():
            for i in range(k):
                if d[i] and idx[i] < nvec[i]:
                    jdx = idx[:i] + (idx[i] + 1,) + idx[i + 1:]
                    new[jdx] = new.get(jdx, 0) + c * d[i]
        poly = new
    out = {tuple(n - x for n, x in zip(nvec, idx)): c for idx, c in poly.items() if c}
    return dict(sorted(out.items()))


def mbezout(degrees: Sequence[Sequence[int]], nvec: Sequence[int]) -> int:
    """Coefficient of prod s_i^{n_i} in prod_j (sum_i d_{j,i} s_i)."""
    nvec = tuple(int(n) for n in nvec)
    if len(degrees) != sum(nvec):
        raise ValueError(
            f"m-Bezout needs a square pattern: {len(degrees)} forms vs dimension {sum(nvec)}"
        )
    cls = complete_intersection_class(degrees, nvec)
    return cls.get((0,) * len(nvec), 0)


@dataclass
class StartPackage:
    """A linear-product start system: row r is the product of the next
    counts[r] affine forms of `factors`, each a row of `affine_rows`."""

    factors: np.ndarray
    counts: tuple[int, ...]
    solutions: list[np.ndarray]


def random_affine_form(
    grouping: VariableGrouping,
    variables: Sequence[int],
    rs: RandomSource,
    through: np.ndarray | None = None,
) -> Polynomial:
    """A random affine form in the given variables; if `through` is set the
    constant is adjusted so the form vanishes there."""
    coeffs = [rs.gaussian_complex() for _ in variables]
    if through is None:
        const = rs.gaussian_complex()
    else:
        through = np.asarray(through, dtype=complex)
        const = -sum(c * through[v] for c, v in zip(coeffs, variables))
    return Polynomial.affine(grouping, coeffs, const, variables)


def start_package(target: PolySystem, rs: RandomSource) -> StartPackage:
    """The linear-product start system of a square target, with its solutions."""
    if len(target) != target.grouping.nvars:
        raise ValueError("start systems require a square target")
    g = target.grouping
    k = g.k
    patterns = [p.multidegree() for p in target.polys]
    if any(sum(d) == 0 for d in patterns):
        raise ValueError("linear-product start needs every equation nonconstant")
    predicted = mbezout(patterns, g.sizes)

    # One random affine form on its group per unit of group-degree per
    # equation, drawn in that order: its equation's start row is their
    # product.  Form ids run over the forms in order.
    factors, form_ids, form_group = [], [], []
    for d in patterns:
        form_ids.append(range(len(factors), len(factors) + sum(d)))
        for i in range(k):
            for _ in range(d[i]):
                factors.append(affine_rows([random_affine_form(g, g.blocks[i], rs)],
                                           g.nvars)[0])
                form_group.append(i)
    factors = np.array(factors)
    coeffs, consts = factors[:, :-1], -factors[:, -1]

    # Enumerate cells: per equation one factor, per group exactly n_i picks.
    # Each equation consumes one capacity unit, so the capacities always sum
    # to the equations left; a branch is entered only if those equations can
    # still use them up exactly.
    m = len(patterns)
    supports = [[i for i in range(k) if d[i]] for d in patterns]

    @functools.cache
    def fillable(j: int, capacity: tuple[int, ...]) -> bool:
        """Can equations j onward use up exactly `capacity`?"""
        return j == m or any(capacity[gi] and fillable(j + 1, _less(capacity, gi))
                             for gi in supports[j])

    cells: list[tuple[int, ...]] = []  # one form id per equation

    def recurse(j: int, capacity: tuple[int, ...], chosen: list):
        if j == m:
            cells.append(tuple(chosen))
            return
        for f in form_ids[j]:
            gi = form_group[f]
            if not capacity[gi] or not fillable(j + 1, rest := _less(capacity, gi)):
                continue
            chosen.append(f)
            recurse(j + 1, rest, chosen)
            chosen.pop()

    recurse(0, g.sizes, [])
    # Solve every cell's block for group i at once: its n_i forms, in
    # equation order, give an n_i x n_i system per cell.
    cells = np.asarray(cells, dtype=np.int64).reshape(len(cells), m)
    x = np.zeros((len(cells), g.nvars), dtype=complex)
    in_group = np.asarray(form_group)[cells]
    for i, block in enumerate(g.blocks):
        ids = cells[in_group == i].reshape(len(cells), len(block))
        A = coeffs[ids][:, :, list(block)]
        x[:, list(block)] = _solve(A, consts[ids])
    solutions = list(x)
    if len(solutions) != predicted:
        raise TrackingError(
            f"linear-product cell count {len(solutions)} disagrees with m-Bezout {predicted}"
        )
    return StartPackage(factors, tuple(sum(d) for d in patterns), solutions)


def _less(capacity: tuple[int, ...], i: int) -> tuple[int, ...]:
    return capacity[:i] + (capacity[i] - 1,) + capacity[i + 1:]


def square_up(F: PolySystem, rows: int, rs: RandomSource) -> PolySystem:
    """Replace F by `rows` random complex combinations of its equations."""
    if rows > len(F):
        raise ValueError(f"cannot square {len(F)} equations up to {rows}")
    if rows == len(F):
        return F
    A = rs.gaussian_complex_array(rows, len(F))
    polys = []
    for i in range(rows):
        p = Polynomial.constant(F.grouping, 0.0)
        for j, f in enumerate(F.polys):
            p = p + A[i, j] * f
        polys.append(p)
    return PolySystem(polys)


def solve_zero_dims(
    F: PolySystem,
    core: PolySystem,
    slices: Sequence[Sequence[Polynomial]],
    streams: Sequence[RandomSource],
) -> list[tuple[list[np.ndarray], int] | None]:
    """Isolated nonsingular solutions of V(F) intersected with V(slices[k])
    for every k, system k drawing from streams[k]: per system, its points
    and the count of its converged start-path endpoints that `newton_refine`
    refused, or None for a system whose start homotopy has a failed path.

    `core` is F or a square-up of it, with len(core) + |slices[k]| = nvars
    for every k, and every system is solved on core + slices[k].  System k
    draws its linear-product start system from its stream's substream(2)
    and its gamma from substream(3).  All systems are one start homotopy
    (`algebra.Members`), one member each, whose start rows are its start
    factors, gamma folded into each row's first, and whose last rows end at
    its slices.  Every endpoint is refined on core + slices in one
    `newton_refine` call, which refuses singular roots, and each system
    keeps its deduplicated refined points whose residual on the ORIGINAL F
    is small."""
    n = F.grouping.nvars
    for forms in slices:
        if len(core) + len(forms) != n:
            raise ValueError(
                f"not square: {len(core)} equations + {len(forms)} slices != {n} variables")
    if not slices:
        return []
    packages = [start_package(core.concat(list(forms)), rs.substream(2))
                for forms, rs in zip(slices, streams)]
    # one core, so every start system has the same shape
    counts = packages[0].counts
    factors = np.array([sp.factors for sp in packages])
    first = np.cumsum(counts) - counts
    factors[:, first] *= np.array([rs.substream(3).unit_complex()
                                   for rs in streams])[:, None, None]
    forms = np.array([affine_rows(sl, n) for sl in slices])
    ends = track_slice_motion(None, [], core.polys, [sp.solutions for sp in packages],
                              None, Members(factors, counts, forms))
    points, owner = [], []
    for j, mine in enumerate(ends):
        converged = [p for p in mine or () if p is not None]
        points += converged
        owner += [j] * len(converged)
    refined = newton_refine(core, points, forms, owner)
    solved = []
    for j, mine in enumerate(ends):
        ours = [r for o, r in zip(owner, refined) if o == j]
        good = [r for r in ours if r is not None and F.residual(r) < RESIDUAL_TOL]
        solved.append(None if mine is None else (dedupe_points(good), sum(r is None for r in ours)))
    return solved


def solve_zero_dim(
    F: PolySystem,
    slices: Sequence[Polynomial],
    rs: RandomSource,
) -> list[np.ndarray]:
    """Isolated nonsingular solutions of V(F) intersected with V(slices):
    F squared up to (nvars - |slices|) random combinations when
    overdetermined, from rs.substream(1), then `solve_zero_dims` on this
    one system, whose failed start path raises IndeterminateError."""
    core = square_up(F, F.grouping.nvars - len(slices), rs.substream(1))
    (solved,) = solve_zero_dims(F, core, [slices], [rs])
    if solved is None:
        raise IndeterminateError("a start path failed")
    return solved[0]
