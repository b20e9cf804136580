"""Predictor-corrector path tracking for homotopies H(x;t), t: 1 -> 0.

The homotopy is kept in block form: an optional fixed block (equations
identical at both ends, e.g. the defining system F when only slices
move) plus a moving block interpolated as t*gamma*start + (1-t)*target.
The predictor is 4th-order Runge-Kutta on the Davidenko ODE, the
corrector is full Newton with at most a few iterations per step, and
the step size doubles after consecutive successes / halves on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import PolySystem, _Compiled

MATCH_TOL = 1e-6  # relative distance below which two refined points are equal

# Path-tracking settings; callers set only the corrector tolerance, through
# TrackOptions.newton_tol.
NEWTON_TOL = 1e-8  # default corrector tolerance (relative residual)
MAX_NEWTON_ITERS = 3  # corrector iterations per step
INITIAL_STEP = 0.05
MIN_STEP = 1e-14  # a path whose step halves below this ends
MAX_STEP = 0.1
DIVERGENCE_NORM = 1e8  # an accepted point this far out has diverged
END_TOL = 1e-9  # relative residual of the t = 0 sharpening
MAX_STEPS = 20000  # accepted steps per path


class TrackingError(RuntimeError):
    pass


class SingularJacobianError(TrackingError):
    pass


class NonconvergenceError(TrackingError):
    pass


@dataclass(frozen=True)
class TrackOptions:
    newton_tol: float = NEWTON_TOL

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")


@dataclass
class PathResult:
    status: str  # "converged" | "diverged" | "failed"
    endpoint: np.ndarray | None
    steps_taken: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class Homotopy:
    """H(x;t) = [fixed(x); t*gamma*start(x) + (1-t)*target(x)].

    Every row is affine in t, so the three blocks compile once into one
    term table that gives each quantity below as A + t*B: a fixed term
    c*m has coefficient c + t*0, a start term 0 + t*gamma*c and a target
    term c - t*c.  The table's monomials are computed once per point.  In
    block form, with F, S, T the fixed, start and target blocks and |.|
    each row's sum of |coeff| * |monomial|:

        J_x     = [DF; t*gamma*DS + (1-t)*DT]
        dH/dt   = [0; gamma*S - T]    (the B of H)
        scale   = [|F| + 1; |t*gamma| * (|S| + 1) + |1-t| * (|T| + 1)]

    The corrector measures residuals relative to `scale`, so paths far from
    the origin (diverging toward infinity) still correct to machine
    precision."""

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
        self.nvars = target.grouping.nvars
        fixed_polys = fixed.polys if fixed else ()
        self.rows = len(fixed_polys) + len(target)
        # row j is sum (a + t*b) * p over its (p, a, b)
        self._terms = _Compiled(
            [[(p, 1, 0)] for p in fixed_polys]
            + [[(s, 0, self.gamma), (q, 1, -1)] for s, q in zip(start.polys, target.polys)],
            self.nvars)

    @property
    def is_square(self) -> bool:
        return self.rows == self.nvars

    def _at(self, split: np.ndarray, t: float) -> np.ndarray:
        """A + t*B from the table's [A; B] split."""
        return split[:self.rows] + t * split[self.rows:]

    def residual(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(H(x;t), its residual scale, the monomials at x); the last is what
        `jacobian` takes to give J_x at the same point."""
        monomials = self._terms.monomials(x)
        return (self._at(self._terms.values(monomials), t),
                self._at(self._terms.magnitudes(monomials), t), monomials)

    def jacobian(self, monomials: np.ndarray, t: float) -> np.ndarray:
        """J_x(x;t) from the monomials `residual` returned for x."""
        return self._at(self._terms.jacobian(monomials), t)

    def tangent(self, x: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(J_x, dH/dt) at (x, t); the Davidenko ODE is J_x x'(t) = -dH/dt."""
        monomials = self._terms.monomials(x)
        return self.jacobian(monomials, t), self._terms.values(monomials)[self.rows:]


def relative_residual(values: np.ndarray, scale: np.ndarray) -> float:
    """max_i |values_i| / scale_i, with scale the per-row term magnitude.

    An absolute test is unreachable in double precision once a point has
    wandered far from the origin; relative to the size of each row's terms
    it is not."""
    return float((np.abs(values) / scale).max())


def _newton(residual, jacobian, x: np.ndarray, tol: float, max_iters: int,
            check_singular: bool = False) -> tuple[np.ndarray, float]:
    """Newton's method on a square system.

    residual(x) gives (value, scale, at) and jacobian(at) the Jacobian at
    the same x, so the Jacobian is formed only when a step is taken.
    Stops once the relative residual is below tol or after max_iters steps,
    or as soon as an iterate is not finite.  Returns (point, relative
    residual of that point).  np.linalg.LinAlgError from the linear solve
    propagates; with check_singular a numerically singular Jacobian raises
    SingularJacobianError before the solve."""
    for _ in range(max_iters):
        value, scale, at = residual(x)
        res = relative_residual(value, scale)
        if res < tol:
            return x, res
        J = jacobian(at)
        if check_singular:
            s = np.linalg.svd(J, compute_uv=False)
            if s[0] == 0 or s[-1] / s[0] < 1e-13:
                raise SingularJacobianError("Jacobian numerically singular during refinement")
        x = x - np.linalg.solve(J, value)
        if not np.isfinite(x).all():
            return x, float("inf")
    value, scale, _ = residual(x)
    return x, relative_residual(value, scale)


def newton_refine(system: PolySystem, point, tol: float = 1e-10,
                  max_iters: int = 20) -> np.ndarray:
    """Sharpen a root of a square system by Newton iteration."""
    x = np.asarray(point, dtype=complex).copy()
    if len(system) != x.size:
        raise ValueError("newton_refine needs a square system")
    x, res = _newton(lambda p: (system.evaluate(p), system.residual_scale(p), p),
                     system.jacobian, x, tol, max_iters, check_singular=True)
    if res < tol:
        return x
    raise NonconvergenceError(
        f"Newton refinement stalled at relative residual {res:.3e}"
    )


def _newton_at(h: Homotopy, x: np.ndarray, t: float, tol: float,
               max_iters: int) -> tuple[np.ndarray, float]:
    """Newton's method on H(.;t) at fixed t; a singular solve counts as failure."""
    try:
        return _newton(lambda p: h.residual(p, t), lambda at: h.jacobian(at, t),
                       x, tol, max_iters)
    except np.linalg.LinAlgError:
        return x, float("inf")


def track_path(h: Homotopy, start_point, opts: TrackOptions = TrackOptions()) -> PathResult:
    if not h.is_square:
        raise ValueError(f"homotopy is {h.rows}x{h.nvars}, tracking needs a square one")
    x = np.asarray(start_point, dtype=complex).copy()
    x, residual = _newton_at(h, x, 1.0, opts.newton_tol, MAX_NEWTON_ITERS)
    if not residual < opts.newton_tol:
        return PathResult("failed", None, 0)

    t = 1.0
    step = INITIAL_STEP
    streak = 0
    steps = 0
    initial_norm = float(np.linalg.norm(x))
    norm_history = [initial_norm]
    blowup_norm = 1e4 * max(1.0, initial_norm)
    crawl = 0  # accepted steps spent creeping toward a blow-up time

    while t > 0:
        if steps >= MAX_STEPS:
            if norm_history[-1] > blowup_norm:
                return PathResult("diverged", None, steps)
            return PathResult("failed", None, steps)
        dt = min(step, t)
        try:
            # RK4 on the Davidenko ODE x'(t) = -J_x^{-1} dH/dt, moving toward
            # t=0; each k is J_x^{-1} dH/dt, so the steps add dt * k.
            k1 = np.linalg.solve(*h.tangent(x, t))
            k2 = np.linalg.solve(*h.tangent(x + 0.5 * dt * k1, t - 0.5 * dt))
            k3 = np.linalg.solve(*h.tangent(x + 0.5 * dt * k2, t - 0.5 * dt))
            k4 = np.linalg.solve(*h.tangent(x + dt * k3, t - dt))
            xp = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            predicted_ok = np.isfinite(xp).all()
        except np.linalg.LinAlgError:
            predicted_ok = False
            xp = x

        accepted = False
        if predicted_ok:
            xc, residual = _newton_at(h, xp, t - dt, opts.newton_tol, MAX_NEWTON_ITERS)
            if residual < opts.newton_tol:
                x = xc
                t = t - dt
                steps += 1
                streak += 1
                accepted = True
                norm_history.append(float(np.linalg.norm(x)))
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
    x, residual = _newton_at(h, x, 0.0, END_TOL, 30)
    if residual < END_TOL:
        return PathResult("converged", x, steps)
    return PathResult("failed", None, steps)


def track_many(h: Homotopy, starts: Sequence, opts: TrackOptions = TrackOptions()) -> list[PathResult]:
    """Track a batch; results ordered by input index."""
    return [track_path(h, s, opts) for s in starts]


def points_equal(a: np.ndarray, b: np.ndarray) -> bool:
    scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return bool(np.linalg.norm(np.asarray(a) - np.asarray(b)) < MATCH_TOL * scale)


def dedupe_points(points: Sequence[np.ndarray]) -> list[np.ndarray]:
    kept: list[np.ndarray] = []
    for p in points:
        if not any(points_equal(p, q) for q in kept):
            kept.append(p)
    return kept
