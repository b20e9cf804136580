"""Root-count combinatorics and start systems.

Contains the multihomogeneous Bezout machinery (complete-intersection
multidegree classes and the m-Bezout count), the linear-product start
system, and solve_zero_dim: the square zero-dimensional solver (random
square-up + gamma homotopy) that every witness computation sits on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import Polynomial, PolySystem, VariableGrouping
from .sysio import RandomSource
from .tracker import (
    Homotopy,
    NonconvergenceError,
    SingularJacobianError,
    TrackOptions,
    TrackingError,
    dedupe_points,
    newton_refine,
    relative_residual,
    track_many,
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

    # Enumerate cells: per equation one factor, per group exactly n_i picks.
    solutions: list[np.ndarray] = []
    m = len(factors)
    capacity = list(g.sizes)

    def solve_cell(chosen: list[tuple[int, Polynomial]]) -> np.ndarray:
        x = np.zeros(g.nvars, dtype=complex)
        for i in range(k):
            block = list(g.blocks[i])
            forms = [f for gi, f in chosen if gi == i]
            A = np.zeros((len(block), len(block)), dtype=complex)
            b = np.zeros(len(block), dtype=complex)
            for r, form in enumerate(forms):
                for cidx, v in enumerate(block):
                    e = [0] * g.nvars
                    e[v] = 1
                    A[r, cidx] = form.terms.get(tuple(e), 0.0)
                b[r] = -form.terms.get((0,) * g.nvars, 0.0)
            x[block] = np.linalg.solve(A, b)
        return x

    def recurse(j: int, chosen: list):
        if j == m:
            solutions.append(solve_cell(chosen))
            return
        # each equation consumes one capacity unit, so capacities stay
        # exactly fillable; only per-group exhaustion needs checking
        for gi, form in factors[j]:
            if capacity[gi] == 0:
                continue
            capacity[gi] -= 1
            chosen.append((gi, form))
            recurse(j + 1, chosen)
            chosen.pop()
            capacity[gi] += 1

    recurse(0, [])
    if len(solutions) != predicted:
        raise TrackingError(
            f"linear-product cell count {len(solutions)} disagrees with m-Bezout {predicted}"
        )
    return StartPackage(PolySystem(start_polys), solutions)



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
    opts: TrackOptions = TrackOptions(),
) -> list[np.ndarray]:
    """Isolated nonsingular solutions of V(F) intersected with V(slices).

    Squares F up to (nvars - |slices|) random combinations when
    overdetermined, appends the slices, solves by a linear-product start
    homotopy, then keeps only deduplicated endpoints whose residual on
    the ORIGINAL F is small.
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
    h = Homotopy(sp.start, target, gamma=rs.substream(3).unit_complex())
    results = track_many(h, sp.solutions, opts)

    failed = sum(1 for r in results if r.status == "failed")
    if results and failed > len(results) / 2:
        raise TrackingError(
            f"{failed}/{len(results)} paths failed; homotopy appears ill-conditioned"
        )

    points = []
    for r in results:
        if not r.converged:
            continue
        try:
            p = newton_refine(target, r.endpoint, tol=1e-10)
        except (SingularJacobianError, NonconvergenceError):
            continue
        if relative_residual(F.evaluate(p), F.residual_scale(p)) < RESIDUAL_TOL:
            points.append(p)
    return dedupe_points(points)
