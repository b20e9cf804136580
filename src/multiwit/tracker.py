"""Predictor-corrector path tracking for homotopies H(x;t), t: 1 -> 0.

The homotopy is kept in block form: an optional fixed block (equations
identical at both ends, e.g. the defining system F when only slices
move) plus a moving block interpolated as t*gamma*start + (1-t)*target.
The predictor is 4th-order Runge-Kutta on the Davidenko ODE, the
corrector is full Newton with at most a few iterations per step, and
the step size doubles after consecutive successes / halves on failure.

Lockstep rows in fixed chunks: `track_many` starts BATCH_PATHS start
points at once, one row each, and moves the live rows through each stage
together: k1, the three RK4 stages, the corrector and the t = 0 sharpening
each make one kernel call on a (B, n) batch and one stacked solve; the
next chunk starts when no row is left.  Each path keeps its own t, step,
streak, steps, crawl count and norm history (`_Path`), and the rules of a
path tracked alone judge its row.  Each path also has its own target: a
row of constants subtracted from the target's last rows (its shift),
which the batch carries and subsets like the rows' points and k1 and the
kernel applies row by row, so many targets that differ only in their
constants share one homotopy (a coefficient-parameter homotopy).  A path
without a target of its own has a shift of zero columns, which the kernel
skips.  A row's arithmetic never reads another row, so a path's result
does not depend on the batch: not on its size, its order or the other
paths in it.  `track_path` is `track_many` on one start point.

One evaluation per point: `Homotopy.evaluate` gives H, J_x and dH/dt at
(x, t) from one kernel call, and the residual scale only when the
corrector asks for it.  The corrector returns the evaluation of the point
it returns, so the first RK4 stage of the next step, k1 at that same
(x, t), reads J_x and dH/dt from it; a rejected attempt leaves (x, t) as
it was and keeps k1, so each attempt evaluates only stages 2 to 4.

One Newton loop, `_newton`, serves the corrector, the correction of the
start points, the t = 0 sharpening and `newton_refine`, which refines a
homotopy's endpoints BATCH_PATHS at a time, and is the one place that
tests a residual; a row that has stopped stays frozen in place and is not
evaluated again.  One solve entry: k1, the RK4 stages, every Newton
correction and the start systems' cells call `_solve`, numpy's LAPACK
solver without the wrapper of `np.linalg.solve` (same routine, same bits),
on one matrix or a stack.  A singular J_x gives a non-finite solution
instead of an exception, which the finiteness tests classify.

Every homotopy, start systems and slice motions alike, goes through
`track_slice_motion`, which draws its gamma from the caller's random
stream and tracks its points to one or more shifted targets under one
failed-path policy: a diverged path gives None, and a target with a failed
path gets None in place of its endpoints while the other targets keep
theirs.  A plain motion is one target with no shift, whose failed path
raises IndeterminateError.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .algebra import Polynomial, PolySystem, _Compiled, relative_residual
from .sysio import RandomSource

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
BATCH_PATHS = 64  # points per chunk of `track_many` and `newton_refine`; no result depends on it


class TrackingError(RuntimeError):
    pass


class IndeterminateError(TrackingError):
    """Paths failed, so an operation or query could not be completed
    (never a silently short result or a silent false)."""


@dataclass
class PathResult:
    status: str  # "converged" | "diverged" | "failed"
    endpoint: np.ndarray | None
    steps_taken: int


class Homotopy(_Compiled):
    """H(x;t) = [fixed(x); t*gamma*start(x) + (1-t)*target(x)].

    Every row is affine in t, so the three blocks compile once into one
    term table that gives each quantity below as A + t*B: a fixed term
    c*m has coefficient c + t*0, a start term 0 + t*gamma*c and a target
    term c - t*c.  `evaluate(x, t, scaled)` reads H, J_x and dH/dt at the
    rows of x from one kernel call, and the residual scale, from a table of
    its own, only if `scaled`.  In block form, with F, S, T the fixed, start
    and target blocks and |.| each row's sum of |coeff| * |monomial|:

        J_x     = [DF; t*gamma*DS + (1-t)*DT]
        dH/dt   = [0; gamma*S - T]    (the B of H)
        scale   = [|F| + 1; |t*gamma| * (|S| + 1) + |1-t| * (|T| + 1)]

    The corrector measures residuals relative to `scale`, so paths far from
    the origin (diverging toward infinity) still correct to machine
    precision.  The Davidenko ODE is J_x x'(t) = -dH/dt.  A per-point
    `shift` of evaluate moves the target to T - shift, row by row on the
    last rows: H gains -(1-t)*shift, dH/dt gains +shift, the scale gains
    |1-t| * |shift| and J_x stays as it is.  A shift of zero columns is no
    shift."""

    def __init__(
        self,
        start: PolySystem,
        target: PolySystem,
        gamma: complex,
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
    """J^{-1} b for a complex square J, or for each of a stack of (B, n, n)
    matrices and (B, n) right-hand sides: the LAPACK routine
    `np.linalg.solve` calls, with the same result, row by row, but a
    singular J gives a non-finite x (and numpy's invalid-value flag) instead
    of LinAlgError."""
    return _umath_linalg.solve1(J, b, signature="DD->D")


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a complex vector by `np.linalg.norm`'s own formula."""
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _newton(h: _Compiled, x: np.ndarray, t: np.ndarray, s: np.ndarray, tol: float,
            max_iters: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Newton's method on rows of a square system: row i of x is corrected
    at t[i] with shift s[i] (see `_Compiled.evaluate`), on its own, and the
    rows still iterating share one kernel call of h and one stacked solve
    per iteration.

    A row stops once its relative residual is below tol or after max_iters
    steps, or as soon as its iterate is not finite, as a singular Jacobian
    makes it: such a row has residual nan.  A stopped row stays as it is and
    is not evaluated again.  Returns (points, the relative residual of each,
    the evaluation at each as a tuple of row arrays with one row per point,
    never None)."""
    ev = h.evaluate(x, t, True, s)
    res = relative_residual(ev[0], ev[1])
    for _ in range(max_iters):
        live = res >= tol  # False for nan
        if live.all():
            x = x - _solve(ev[2], ev[0])
            ev = h.evaluate(x, t, True, s)
            res = relative_residual(ev[0], ev[1])
        elif live.any():
            x = x.copy()
            x[live] = x[live] - _solve(ev[2][live], ev[0][live])
            part = h.evaluate(x[live], t[live], True, s[live])
            res[live] = relative_residual(part[0], part[1])
            for whole, fresh in zip(ev, part):
                whole[live] = fresh
        else:
            break
    return x, res, ev


def newton_refine(system: PolySystem, points: Sequence) -> list[np.ndarray | None]:
    """Sharpen roots of a square system by Newton iteration, BATCH_PATHS
    points per `_newton` call: each to a relative residual below REFINE_TOL
    in at most REFINE_ITERS steps.  Returns the points in input order, None
    for a None, for a point that stalls and for a singular one: a non-finite
    iterate, or singular values of the Jacobian with s_max = 0 or
    s_min/s_max < 1e-13, from one stacked SVD per chunk."""
    if len(system) != system.grouping.nvars:
        raise ValueError("newton_refine needs a square system")
    given = [i for i, p in enumerate(points) if p is not None]
    refined: list = [None] * len(points)
    for first in range(0, len(given), BATCH_PATHS):
        chunk = given[first:first + BATCH_PATHS]
        x = np.array([points[i] for i in chunk], dtype=complex)
        if x.ndim != 2 or x.shape[1] != system.grouping.nvars:
            raise ValueError(f"points need {system.grouping.nvars} coordinates, not {x.shape[1:]}")
        with np.errstate(invalid="ignore"):
            x, res, ev = _newton(system._compiled, x, np.zeros(len(x)), np.zeros((len(x), 0)),
                                 REFINE_TOL, REFINE_ITERS)
            # a non-finite iterate, which a singular solve leaves, has residual nan
            ok = res < REFINE_TOL
            s = np.linalg.svd(ev[2][ok], compute_uv=False)
            ok[ok] = s[:, -1] / s[:, 0] >= 1e-13  # False for s_max = 0 too
        for i, good, p in zip(chunk, ok, x):
            if good:
                refined[i] = p
    return refined


class _Path:
    """One live path's step control: the rules of a path tracked alone, for
    one row of the batch.  The row's point and its k1 live in the batch."""

    __slots__ = ("index", "t", "step", "streak", "steps", "crawl", "norms", "initial",
                 "blowup")

    def __init__(self, index: int, norm: float):
        self.index = index  # position among the start points
        self.t = 1.0
        self.step = INITIAL_STEP
        self.streak = 0
        self.steps = 0
        self.crawl = 0  # accepted steps spent creeping toward a blow-up time
        self.norms = deque([norm], maxlen=8)  # the last 8 norms
        self.initial = norm
        self.blowup = 1e4 * max(1.0, norm)

    def accepted(self, dt: float, norm: float) -> str | None:
        """The step to t - dt was accepted at a point of this norm.  Returns
        the status the path ends with, "ended" when it reached t = 0, or
        None while it goes on."""
        self.t = self.t - dt
        self.steps += 1
        self.streak += 1
        self.norms.append(norm)
        if norm > DIVERGENCE_NORM:
            return "diverged"
        # A path blowing up at an interior time creeps: t stagnates while the
        # norm grows without bound.  Cut it off early.
        if dt < 1e-4 and norm > self.norms[-2]:
            self.crawl += 1
            if self.crawl >= 100 and norm > self.blowup:
                return "diverged"
        else:
            self.crawl = 0
        if self.streak >= 4:
            self.step = min(self.step * 2, MAX_STEP)
            self.streak = 0
        if not self.t > 0:
            return "ended"
        if self.steps >= MAX_STEPS:
            return "diverged" if norm > self.blowup else "failed"
        return None

    def rejected(self) -> str | None:
        """The step attempt was rejected: halve the step.  Returns the status
        the path ends with, or None while it goes on."""
        self.step = self.step / 2
        self.streak = 0
        if self.step < MIN_STEP:
            recent_growth = len(self.norms) >= 2 and self.norms[-1] > 2 * self.norms[0]
            blown_up = self.norms[-1] > max(1e4, 100.0 * self.initial)
            return "diverged" if blown_up or (self.t < 0.05 and recent_growth) else "failed"
        return None


def _start(h: Homotopy, starts: Sequence, shifts: np.ndarray, index: range,
           results: list) -> tuple:
    """Correct the start points at `index` on H(x; 1), each with its row of
    `shifts`.  A start that does not correct is a failed path of 0 steps;
    returns (paths, points, k1, shifts) of the others, which begin at t = 1."""
    x = np.array([starts[i] for i in index], dtype=complex)
    s = shifts[index]
    x, res, ev = _newton(h, x, np.ones(len(x)), s, NEWTON_TOL, MAX_NEWTON_ITERS)
    ok = res < NEWTON_TOL
    for i, good in zip(index, ok):
        if not good:
            results[i] = PathResult("failed", None, 0)
    x = x[ok]
    k1 = _solve(ev[2][ok], ev[3][ok])
    return [_Path(i, _norm(p)) for i, p in zip(np.array(index)[ok], x)], x, k1, s[ok]


def _advance(h: Homotopy, paths: list, x: np.ndarray, k1: np.ndarray, s: np.ndarray,
             results: list) -> tuple:
    """One step attempt of every live path, in lockstep: each RK4 stage, the
    corrector and the t = 0 sharpening make one kernel call and one stacked
    solve for all rows, each row at its own t and shift, and each path's
    rules then judge its own row.  Finished paths go into `results`; returns
    (paths, points, k1, shifts) of the paths still live."""
    # RK4 on the Davidenko ODE x'(t) = -J_x^{-1} dH/dt, moving toward t=0;
    # each k is J_x^{-1} dH/dt, so the steps add dt * k.  A singular J_x
    # makes xp non-finite, so the attempt is rejected.
    dts = [min(p.step, p.t) for p in paths]
    t, dt = np.array([p.t for p in paths]), np.array(dts)
    half, to = 0.5 * dt, t - dt
    ks = [k1]
    for w, tw in ((half, t - half), (half, t - half), (dt, to)):
        _, _, J, dhdt = h.evaluate(x + w[:, None] * ks[-1], tw, shift=s)
        ks.append(_solve(J, dhdt))
    _, k2, k3, k4 = ks
    xp = x + (dt / 6.0)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
    xc, res, ev = _newton(h, xp, to, s, NEWTON_TOL, MAX_NEWTON_ITERS)
    accepted = (res < NEWTON_TOL) & np.isfinite(xp).all(axis=1)

    live, ended = [], []
    for i, (p, ok, point) in enumerate(zip(paths, accepted, xc)):
        status = p.accepted(dts[i], _norm(point)) if ok else p.rejected()
        if status is None:
            live.append(i)
        elif status == "ended":
            ended.append(i)
        else:
            results[p.index] = PathResult(status, None, p.steps)
    if ended:  # final sharpening against the t = 0 system
        ends, res, _ = _newton(h, xc[ended], np.zeros(len(ended)), s[ended], END_TOL, 30)
        for i, end, r in zip(ended, ends, res):
            p = paths[i]
            results[p.index] = (PathResult("converged", end.copy(), p.steps) if r < END_TOL
                                else PathResult("failed", None, p.steps))
    if len(live) == len(paths) and accepted.all():  # the new arrays replace the old
        return paths, xc, _solve(ev[2], ev[3]), s
    keep = np.array(live, dtype=np.intp)
    x = np.where(accepted[:, None], xc, x)[keep]
    k1 = k1[keep]
    fresh = accepted[keep]
    if fresh.any():
        rows = keep[fresh]
        k1[fresh] = _solve(ev[2][rows], ev[3][rows])
    return [paths[i] for i in live], x, k1, s[keep]


def _track_rows(h: Homotopy, starts: Sequence, shifts: np.ndarray) -> list[PathResult]:
    """The engine of `track_many`: the start points in chunks of BATCH_PATHS,
    each started at once and advanced until none of its paths is live."""
    if len(starts) and h.rows != h.nvars:
        raise ValueError(f"homotopy is {h.rows}x{h.nvars}, tracking needs a square one")
    results: list = [None] * len(starts)
    index = range(len(starts))
    for first in index[::BATCH_PATHS]:
        paths, x, k1, s = _start(h, starts, shifts, index[first:first + BATCH_PATHS], results)
        while paths:
            paths, x, k1, s = _advance(h, paths, x, k1, s, results)
    return results


def track_many(h: Homotopy, starts: Sequence,
               shifts: np.ndarray | None = None) -> list[PathResult]:
    """Track every start point along h; results ordered by input index.
    Row i of a (len(starts), m) array `shifts` is subtracted from the target
    constants of the last m rows of h for path i alone (see
    `_Compiled.evaluate`); without `shifts` every path has a shift of zero
    columns, which is none.  The paths move in lockstep, but every rule
    applies to each path on its own, so a path's result does not depend on
    the others.  numpy's overflow and invalid-value warnings are off: the
    finiteness tests classify a diverging path and a singular Jacobian."""
    if shifts is None:
        shifts = np.zeros((len(starts), 0))
    with np.errstate(over="ignore", invalid="ignore"):
        return _track_rows(h, starts, shifts)


def track_path(h: Homotopy, start_point) -> PathResult:
    """One path: `track_many` on one start point."""
    return track_many(h, [start_point])[0]


def track_slice_motion(
    fixed: PolySystem | None,
    old_rows: Sequence[Polynomial],
    new_rows: Sequence[Polynomial],
    points: Sequence[np.ndarray],
    rs: RandomSource,
    shifts: np.ndarray | None = None,
) -> list:
    """Track points of V(fixed, old_rows) to V(fixed, new_rows) along
    [fixed; t*gamma*old_rows + (1-t)*new_rows], gamma = rs.unit_complex().
    Each motion draws, so motions meant to share a gamma pass equal
    substreams.  With no rows in motion the points come back unchanged and
    no path is tracked.

    With a (Q, m) array `shifts`, every point is tracked to each of the Q
    targets new_rows - shifts[q] (the last m rows each minus a constant),
    in one homotopy with one gamma and one lockstep batch of Q times as many
    paths, and one list of endpoints comes back per target, in the order of
    `points`, with None for a diverged path.  A target with a failed path
    gets None in place of its list: the failure is that target's alone.
    Without `shifts` the motion is one target with a shift of zero columns,
    and its list comes back alone; a failed path raises IndeterminateError."""
    if not old_rows and not new_rows:
        return list(points) if shifts is None else [list(points) for _ in shifts]
    h = Homotopy(PolySystem(old_rows), PolySystem(new_rows), rs.unit_complex(), fixed)
    targets = np.zeros((1, 0)) if shifts is None else shifts
    n = len(points)
    starts = points if shifts is None else list(points) * len(targets)
    results = track_many(h, starts, np.repeat(targets, n, axis=0))
    ends = []
    for q in range(len(targets)):
        mine = results[q * n:(q + 1) * n]
        failed = sum(r.status == "failed" for r in mine)
        if failed and shifts is None:
            raise IndeterminateError(f"{failed} of {n} paths failed")
        ends.append(None if failed else [r.endpoint for r in mine])
    return ends[0] if shifts is None else ends


def points_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return _norm(a - b) < MATCH_TOL * max(1.0, _norm(a), _norm(b))


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
