"""Predictor-corrector path tracking for homotopies H(x;t), t: 1 -> 0.

The homotopy is kept in block form: an optional fixed block (equations
identical at both ends, e.g. the defining system F when only slices
move) plus a moving block interpolated as t*gamma*start + (1-t)*target.
The predictor is 4th-order Runge-Kutta on the Davidenko ODE, the
corrector is full Newton with at most a few iterations per step, and
the step size doubles after consecutive successes / halves on failure.

One evaluation per point: `Homotopy.evaluate` gives H, J_x and dH/dt at
(x, t) from one kernel call, and the residual scale only when the
corrector asks for it.  The corrector returns the evaluation of the point
it returns, so the first RK4 stage of the next step, k1 at that same
(x, t), reads J_x and dH/dt from it; a rejected attempt leaves (x, t) as
it was and keeps k1, so each attempt evaluates only stages 2 to 4.

One solve entry: k1, the RK4 stages and every Newton correction call
`_solve`, numpy's LAPACK solver without the per-call wrapper of
`np.linalg.solve` (same routine, same bits).  A singular J_x gives a
non-finite solution instead of an exception, and the tracker's finiteness
tests classify it: the predictor's point is rejected and Newton reports an
infinite residual.

Every homotopy, start systems and slice motions alike, goes through
`track_slice_motion`, under one failed-path policy: a diverged path gives
None, and any failed path raises IndeterminateError.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .algebra import Polynomial, PolySystem, _Compiled, relative_residual

MATCH_TOL = 1e-6  # relative distance below which two refined points are equal

# Module constants that no caller sets: NEWTON_TOL to MAX_STEPS govern path
# tracking, REFINE_TOL and REFINE_ITERS `newton_refine`.  A looser corrector
# would buy speed with path jumps.
NEWTON_TOL = 1e-8  # corrector tolerance (relative residual)
MAX_NEWTON_ITERS = 3  # corrector iterations per step
INITIAL_STEP = 0.05
MIN_STEP = 1e-14  # a path whose step halves below this ends
MAX_STEP = 0.1
DIVERGENCE_NORM = 1e8  # an accepted point this far out has diverged
END_TOL = 1e-9  # relative residual of the t = 0 sharpening
MAX_STEPS = 20000  # accepted steps per path
REFINE_TOL = 1e-10  # relative residual `newton_refine` must reach
REFINE_ITERS = 20  # Newton iterations of `newton_refine`


class TrackingError(RuntimeError):
    pass


class SingularJacobianError(TrackingError):
    pass


class NonconvergenceError(TrackingError):
    pass


class IndeterminateError(TrackingError):
    """Paths failed, so an operation or query could not be completed
    (never a silently short result or a silent false)."""


@dataclass
class PathResult:
    status: str  # "converged" | "diverged" | "failed"
    endpoint: np.ndarray | None
    steps_taken: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class Homotopy(_Compiled):
    """H(x;t) = [fixed(x); t*gamma*start(x) + (1-t)*target(x)].

    Every row is affine in t, so the three blocks compile once into one
    term table that gives each quantity below as A + t*B: a fixed term
    c*m has coefficient c + t*0, a start term 0 + t*gamma*c and a target
    term c - t*c.  `evaluate(x, t, scaled)` reads H, J_x and dH/dt from one
    kernel call at a point, and the residual scale, from a table of its
    own, only if `scaled`.  In block form, with F, S, T the fixed, start
    and target blocks and |.| each row's sum of |coeff| * |monomial|:

        J_x     = [DF; t*gamma*DS + (1-t)*DT]
        dH/dt   = [0; gamma*S - T]    (the B of H)
        scale   = [|F| + 1; |t*gamma| * (|S| + 1) + |1-t| * (|T| + 1)]

    The corrector measures residuals relative to `scale`, so paths far from
    the origin (diverging toward infinity) still correct to machine
    precision.  The Davidenko ODE is J_x x'(t) = -dH/dt."""

    def __init__(
        self,
        start: PolySystem,
        target: PolySystem,
        gamma: complex = 1.0,
        fixed: PolySystem | None = None,
    ):
        if len(start) != len(target):
            raise ValueError("start and target blocks must have equal length")
        if start.grouping.nvars != target.grouping.nvars:
            raise ValueError("start and target must share the variable set")
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        self.start = start
        self.target = target
        self.gamma = complex(gamma)
        self.fixed = fixed
        fixed_polys = fixed.polys if fixed else ()
        # row j is sum (a + t*b) * p over its (p, a, b)
        super().__init__(
            [[(p, 1, 0)] for p in fixed_polys]
            + [[(s, 0, self.gamma), (q, 1, -1)] for s, q in zip(start.polys, target.polys)],
            target.grouping.nvars)


def _solve(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """J^{-1} b for a complex square J: the LAPACK routine `np.linalg.solve`
    calls, with the same result, but a singular J gives a non-finite x (and
    numpy's invalid-value flag) instead of LinAlgError."""
    return _umath_linalg.solve1(J, b, signature="DD->D")


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a complex vector by `np.linalg.norm`'s own formula."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _newton(evaluate, x: np.ndarray, tol: float, max_iters: int,
            check_singular: bool = False) -> tuple[np.ndarray, float, tuple | None]:
    """Newton's method on a square system.

    evaluate(x) gives (value, scale, Jacobian, ...) at x from one kernel
    call.  Stops once the relative residual is below tol or after
    max_iters steps, or as soon as an iterate is not finite, as a singular
    Jacobian makes it.  Returns (point, relative residual of that point,
    its evaluation); for a point that is not finite the residual is inf and
    the evaluation None.  With check_singular a numerically singular
    Jacobian raises SingularJacobianError before the solve."""
    for _ in range(max_iters):
        ev = evaluate(x)
        res = relative_residual(ev[0], ev[1])
        if res < tol:
            return x, res, ev
        if check_singular:
            s = np.linalg.svd(ev[2], compute_uv=False)
            if s[0] == 0 or s[-1] / s[0] < 1e-13:
                raise SingularJacobianError("Jacobian numerically singular during refinement")
        x = x - _solve(ev[2], ev[0])
        if not np.isfinite(x).all():
            return x, float("inf"), None
    ev = evaluate(x)
    return x, relative_residual(ev[0], ev[1]), ev


def newton_refine(system: PolySystem, point) -> np.ndarray:
    """Sharpen a root of a square system by Newton iteration, to a relative
    residual below REFINE_TOL in at most REFINE_ITERS steps."""
    x = np.asarray(point, dtype=complex).copy()
    if len(system) != x.size:
        raise ValueError("newton_refine needs a square system")
    x, res, _ = _newton(lambda p: system.kernel(p, scaled=True), x, REFINE_TOL, REFINE_ITERS,
                        check_singular=True)
    if res < REFINE_TOL:
        return x
    raise NonconvergenceError(
        f"Newton refinement stalled at relative residual {res:.3e}"
    )


def _slope(h: Homotopy, x: np.ndarray, t: float) -> np.ndarray:
    """J_x^{-1} dH/dt at (x, t), one RK4 stage."""
    _, _, J, dhdt = h.evaluate(x, t)
    return _solve(J, dhdt)


def track_path(h: Homotopy, start_point) -> PathResult:
    if h.rows != h.nvars:
        raise ValueError(f"homotopy is {h.rows}x{h.nvars}, tracking needs a square one")
    x = np.asarray(start_point, dtype=complex).copy()
    x, residual, ev = _newton(lambda p: h.evaluate(p, 1.0, scaled=True), x, NEWTON_TOL,
                              MAX_NEWTON_ITERS)
    if not residual < NEWTON_TOL:
        return PathResult("failed", None, 0)

    t = 1.0
    step = INITIAL_STEP
    streak = 0
    steps = 0
    initial_norm = _norm(x)
    norm_history = [initial_norm]
    blowup_norm = 1e4 * max(1.0, initial_norm)
    crawl = 0  # accepted steps spent creeping toward a blow-up time
    k1 = None  # the first RK4 stage at (x, t), kept across rejected attempts

    while t > 0:
        if steps >= MAX_STEPS:
            if norm_history[-1] > blowup_norm:
                return PathResult("diverged", None, steps)
            return PathResult("failed", None, steps)
        dt = min(step, t)
        # RK4 on the Davidenko ODE x'(t) = -J_x^{-1} dH/dt, moving toward
        # t=0; each k is J_x^{-1} dH/dt, so the steps add dt * k.  k1 reads
        # J_x and dH/dt from the corrector's evaluation at (x, t).  A
        # singular J_x makes xp non-finite, so the attempt is rejected.
        if k1 is None:
            k1 = _solve(ev[2], ev[3])
        k2 = _slope(h, x + 0.5 * dt * k1, t - 0.5 * dt)
        k3 = _slope(h, x + 0.5 * dt * k2, t - 0.5 * dt)
        k4 = _slope(h, x + dt * k3, t - dt)
        xp = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        accepted = False
        if np.isfinite(xp).all():
            xc, residual, ev_c = _newton(lambda p: h.evaluate(p, t - dt, scaled=True), xp,
                                         NEWTON_TOL, MAX_NEWTON_ITERS)
            if residual < NEWTON_TOL:
                x, ev, k1 = xc, ev_c, None
                t = t - dt
                steps += 1
                streak += 1
                accepted = True
                norm_history.append(_norm(x))
                if len(norm_history) > 8:
                    norm_history.pop(0)
                if norm_history[-1] > DIVERGENCE_NORM:
                    return PathResult("diverged", None, steps)
                # A path blowing up at an interior time creeps: t stagnates
                # while the norm grows without bound.  Cut it off early.
                if dt < 1e-4 and norm_history[-1] > norm_history[-2]:
                    crawl += 1
                    if crawl >= 100 and norm_history[-1] > blowup_norm:
                        return PathResult("diverged", None, steps)
                else:
                    crawl = 0
                if streak >= 4:
                    step = min(step * 2, MAX_STEP)
                    streak = 0
        if not accepted:
            step = step / 2
            streak = 0
            if step < MIN_STEP:
                recent_growth = (
                    len(norm_history) >= 2 and norm_history[-1] > 2 * norm_history[0]
                )
                blown_up = norm_history[-1] > max(1e4, 100.0 * initial_norm)
                if blown_up or (t < 0.05 and recent_growth):
                    return PathResult("diverged", None, steps)
                return PathResult("failed", None, steps)

    # Final sharpening against the t=0 system
    x, residual, _ = _newton(lambda p: h.evaluate(p, 0.0, scaled=True), x, END_TOL, 30)
    if residual < END_TOL:
        return PathResult("converged", x, steps)
    return PathResult("failed", None, steps)


def track_many(h: Homotopy, starts: Sequence) -> list[PathResult]:
    """Track a batch; results ordered by input index.  numpy's overflow and
    invalid-value warnings are off: the finiteness tests classify a
    diverging path and a singular Jacobian."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [track_path(h, s) for s in starts]


def track_slice_motion(
    fixed: PolySystem | None,
    old_rows: Sequence[Polynomial],
    new_rows: Sequence[Polynomial],
    points: Sequence[np.ndarray],
    gamma: complex,
) -> list[np.ndarray | None]:
    """Track points of V(fixed, old_rows) to V(fixed, new_rows) along
    [fixed; t*gamma*old_rows + (1-t)*new_rows].  Endpoints come back in the
    order of `points`, None for a diverged path; a failed path raises
    IndeterminateError.  With no rows in motion the points come back
    unchanged and no path is tracked."""
    if not old_rows and not new_rows:
        return list(points)
    h = Homotopy(PolySystem(old_rows), PolySystem(new_rows), gamma=gamma, fixed=fixed)
    results = track_many(h, points)
    failed = sum(r.status == "failed" for r in results)
    if failed:
        raise IndeterminateError(f"{failed} of {len(results)} paths failed")
    return [r.endpoint for r in results]


def refine_endpoints(system: PolySystem, ends: Sequence) -> list[np.ndarray | None]:
    """`newton_refine` each endpoint on `system`, in order; None for a None
    and for one whose Jacobian is singular or whose refinement stalls."""
    refined = []
    for p in ends:
        try:
            refined.append(None if p is None else newton_refine(system, p))
        except (SingularJacobianError, NonconvergenceError):
            refined.append(None)
    return refined


def points_equal(a: np.ndarray, b: np.ndarray) -> bool:
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return bool(np.linalg.norm(np.asarray(a) - np.asarray(b)) < MATCH_TOL * scale)


def dedupe_points(points: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The points, in input order, without each one that `points_equal`s a
    point kept before it.

    The kept points are also held sorted on the projection Re(u.x) for one
    fixed unit vector u.  |Re(u.(p - q))| <= |p - q|, so only kept points q
    whose projection lies within MATCH_TOL * max(1, |p|, largest kept norm)
    of p's can equal p, and only those are compared.  The window is twice
    that, so rounding in the projections never drops a candidate."""
    kept: list[np.ndarray] = []
    if len(points) == 0:
        return kept
    n = len(points[0])
    u = np.exp(2j * np.pi * np.sqrt(2) * np.arange(n)) / np.sqrt(n)
    keys: list[float] = []  # the kept points' projections, sorted
    near: list[np.ndarray] = []  # the kept points in the order of `keys`
    largest = 0.0
    for p in points:
        key = float((u @ p).real)
        norm = _norm(p)
        reach = 2 * MATCH_TOL * max(1.0, norm, largest)
        lo, hi = bisect_left(keys, key - reach), bisect_right(keys, key + reach)
        if any(points_equal(p, q) for q in near[lo:hi]):
            continue
        at = bisect_left(keys, key)
        keys.insert(at, key)
        near.insert(at, p)
        kept.append(p)
        largest = max(largest, norm)
    return kept
