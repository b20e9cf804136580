"""Root-count combinatorics and start systems.

Contains the multihomogeneous Bezout machinery (complete-intersection
multidegree classes and the m-Bezout count), the linear-product start
system, and solve_zero_dim: the square zero-dimensional solver (random
square-up + gamma homotopy) that every witness computation sits on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Polynomial, PolySystem, VariableGrouping
from .sysio import RandomSource
from .tracker import (
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
    start: PolySystem
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

    # One random affine form per unit of group-degree per equation.
    factors: list[list[tuple[int, Polynomial]]] = []
    for d in patterns:
        eq_factors = []
        for i in range(k):
            for _ in range(d[i]):
                eq_factors.append((i, random_affine_form(g, g.blocks[i], rs)))
        factors.append(eq_factors)

    start_polys = []
    for eq_factors in factors:
        p = Polynomial.constant(g, 1.0)
        for _, form in eq_factors:
            p = p * form
        start_polys.append(p)

    # Each form's coefficients over every variable (nonzero only on its
    # group's block) and its constant, read once; form ids run over the
    # factors in order.
    form_group = [gi for eq_factors in factors for gi, _ in eq_factors]
    form_ids, coeffs, consts = [], [], []
    units = [tuple(int(u == v) for u in range(g.nvars)) for v in range(g.nvars)]
    for eq_factors in factors:
        form_ids.append(range(len(coeffs), len(coeffs) + len(eq_factors)))
        for _, form in eq_factors:
            coeffs.append([form.terms.get(unit, 0.0) for unit in units])
            consts.append(-form.terms.get((0,) * g.nvars, 0.0))
    coeffs = np.asarray(coeffs, dtype=complex)
    consts = np.asarray(consts, dtype=complex)

    # Enumerate cells: per equation one factor, per group exactly n_i picks.
    # Each equation consumes one capacity unit, so the capacities always sum
    # to the equations left; a branch is entered only if those equations can
    # still use them up exactly.
    m = len(factors)
    supports = [sorted({gi for gi, _ in eq_factors}) for eq_factors in factors]

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
    return StartPackage(PolySystem(start_polys), solutions)


def _less(capacity: tuple[int, ...], i: int) -> tuple[int, ...]:
    return capacity[:i] + (capacity[i] - 1,) + capacity[i + 1:]


def square_up(F: PolySystem, rows: int, rs: RandomSource) -> PolySystem:
    """Replace F by `rows` random complex combinations of its equations."""
    if rows > len(F):
        raise ValueError("cannot square up to more equations than given")
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


def solve_zero_dim(
    F: PolySystem,
    slices: Sequence[Polynomial],
    rs: RandomSource,
) -> list[np.ndarray]:
    """Isolated nonsingular solutions of V(F) intersected with V(slices).

    Squares F up to (nvars - |slices|) random combinations when
    overdetermined, appends the slices, solves by a linear-product start
    homotopy under the tracker's failed-path policy (a failed start path
    raises IndeterminateError), refines every endpoint in one
    `newton_refine` call, and keeps only the deduplicated refined points
    whose residual on the ORIGINAL F is small.
    """
    g = F.grouping
    n = g.nvars
    s = len(slices)
    if len(F) + s < n:
        raise ValueError(
            f"underdetermined: {len(F)} equations + {s} slices < {n} variables"
        )
    core = square_up(F, n - s, rs.substream(1))
    target = core.concat(list(slices))
    sp = start_package(target, rs.substream(2))
    ends = track_slice_motion(None, sp.start.polys, target.polys, sp.solutions,
                              rs.substream(3))
    points = [p for p in newton_refine(target, ends) if p is not None
              and F.residual(p) < RESIDUAL_TOL]
    return dedupe_points(points)
