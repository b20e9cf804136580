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
path tracked alone judge its row.  Each path is also a member of its
homotopy (`algebra.Members`): a member brings its own affine forms to the
last rows, its start factors or its target forms, and the batch carries
each row's member index and subsets it like the rows' points and k1.  So
many homotopies that differ only in those forms share one table and one
batch (a coefficient-parameter homotopy): the keys of a witness
collection, or the queries of a membership test.  A homotopy without
members has one member, so every path's index is 0, and the kernel reads
it the same way as any other.  A row's arithmetic never reads another
row, so a path's result does not depend on the batch: not on its size,
its order or the other paths in it.  `track_path` is `track_many` on one
start point.

One evaluation per point: `Homotopy.evaluate` gives H, J_x and dH/dt at
(x, t) from one kernel call, and the residual scale only when the
corrector asks for it.  The corrector returns the evaluation of the point
it returns, so the first RK4 stage of the next step, k1 at that same
(x, t), reads J_x and dH/dt from it; a rejected attempt leaves (x, t) as
it was and keeps k1, so each attempt evaluates only stages 2 to 4.

A path ends "diverged" when an accepted point passes DIVERGENCE_NORM, when
it creeps toward an interior blow-up time (the crawl rule, which covers
t >= 0.1), or in the endgame (Morgan, Sommese and Wampler's power-series
endgame, Numer. Math. 63, 1992): from t < 0.1 on, the path's growth exponent
dlog|x| / dlog(1/t) is estimated between samples at geometric t, and two
consecutive positive estimates that agree within 20% end a path whose norm
has passed its blow-up bound (see `_Path`).  A path these rules do not end
is tracked to t = 0, or until its step halves below MIN_STEP after an
attempt that covered all of the t left, and sharpened at t = 0 from its
last accepted point.

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
stream and tracks its points, for one or many members, under one
failed-path policy: a diverged path gives None, and a member with a failed
path gets None in place of its endpoints while the other members keep
theirs.  A plain motion is one member with no forms of its own, whose
failed path raises IndeterminateError.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .algebra import Members, Polynomial, PolySystem, _Compiled, relative_residual
from .sysio import RandomSource

MATCH_TOL = 1e-6  # relative distance below which two refined points are equal

# Module constants that no caller sets: NEWTON_TOL to MAX_STEPS govern path
# tracking, REFINE_TOL to SINGULAR_TOL `newton_refine`.  A looser corrector
# would buy speed with path jumps.
NEWTON_TOL = 1e-8  # corrector tolerance (relative residual)
MAX_NEWTON_ITERS = 3  # corrector iterations per step
INITIAL_STEP = 0.05
MIN_STEP = 1e-14  # a path whose step halves below this ends
MAX_STEP = 0.1
DIVERGENCE_NORM = 1e8  # an accepted point this far out has diverged
END_TOL = 1e-9  # relative residual of the t = 0 sharpening
END_ITERS = 30  # Newton iterations of the t = 0 sharpening
MAX_STEPS = 20000  # accepted steps per path
REFINE_TOL = 1e-10  # relative residual `newton_refine` must reach
REFINE_ITERS = 20  # Newton iterations of `newton_refine`
SINGULAR_TOL = 1e-10  # s_min/s_max of the row-scaled Jacobian below which a root is singular
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
    """H(x;t) = [fixed(x); t*gamma*start(x) + (1-t)*target(x)], plus the
    parts of `members` on the last rows.

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
    precision.  The Davidenko ODE is J_x x'(t) = -dH/dt.

    With `members`, the moving block's last rows take their start part, or
    their target part, from each path's member instead (`algebra.Members`):
    the start block then covers the rows before the members' start rows,
    and the target block the rows before their target rows.  A member's
    start part carries its own gamma, folded into its factors."""

    def __init__(
        self,
        start: Sequence[Polynomial],
        target: Sequence[Polynomial],
        gamma: complex,
        fixed: PolySystem | None = None,
        members: Members | None = None,
    ):
        start, target = tuple(start), tuple(target)
        moving = len(start) + (members.start_rows if members else 0)
        if moving != len(target) + (members.target_rows if members else 0):
            raise ValueError("start and target blocks must have equal length")
        polys = (fixed.polys if fixed else ()) + start + target
        if len({p.grouping.nvars for p in polys}) > 1:
            raise ValueError("start and target must share the variable set")
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        gamma = complex(gamma)
        # row j is sum (a + t*b) * p over its (p, a, b); a moving row has a
        # start term, a target term, both or, where members give both, none
        rows = [[(p, 1, 0)] for p in (fixed.polys if fixed else ())]
        for j in range(moving):
            rows.append([(start[j], 0, gamma)] if j < len(start) else [])
            if j < len(target):
                rows[-1].append((target[j], 1, -1))
        super().__init__(rows, polys[0].grouping.nvars, members)


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


def _newton(h: _Compiled, x: np.ndarray, t: np.ndarray, m: np.ndarray, tol: float,
            max_iters: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Newton's method on rows of a square system: row i of x is corrected
    at t[i] as member m[i] (see `_Compiled.evaluate`), on its own, and the
    rows still iterating share one kernel call of h and one stacked solve
    per iteration.

    A row stops once its relative residual is below tol or after max_iters
    steps, or as soon as its iterate is not finite, as a singular Jacobian
    makes it: such a row has residual nan.  A stopped row stays as it is and
    is not evaluated again.  Returns (points, the relative residual of each,
    the evaluation at each as a tuple of row arrays with one row per point,
    never None)."""
    ev = h.evaluate(x, t, True, m)
    res = relative_residual(ev[0], ev[1])
    for _ in range(max_iters):
        live = res >= tol  # False for nan
        if live.all():
            x = x - _solve(ev[2], ev[0])
            ev = h.evaluate(x, t, True, m)
            res = relative_residual(ev[0], ev[1])
        elif live.any():
            x = x.copy()
            x[live] = x[live] - _solve(ev[2][live], ev[0][live])
            part = h.evaluate(x[live], t[live], True, m[live])
            res[live] = relative_residual(part[0], part[1])
            for whole, fresh in zip(ev, part):
                whole[live] = fresh
        else:
            break
    return x, res, ev


def newton_refine(system: PolySystem, points: Sequence, forms: np.ndarray | None = None,
                  member: np.ndarray | None = None) -> list[np.ndarray | None]:
    """Sharpen roots of a square system by Newton iteration, BATCH_PATHS
    points per `_newton` call: each to a relative residual below REFINE_TOL
    in at most REFINE_ITERS steps.  Returns the points in input order, None
    for a point that stalls and for a singular one: a non-finite iterate,
    or a Jacobian whose rows, each scaled to 2-norm 1, have s_min/s_max
    below SINGULAR_TOL (one stacked SVD per chunk).

    With a (M, m, n + 1) array `forms` of `affine_rows`, point i is refined
    on the system followed by the m affine forms forms[member[i]]: one call
    refines the roots of M systems that differ only there."""
    n = system.grouping.nvars
    extra = 0 if forms is None else forms.shape[1]
    if len(system) + extra != n:
        raise ValueError("newton_refine needs a square system")
    table = system._compiled if not extra else _Compiled(
        [[(p, 1, 0)] for p in system] + [[]] * extra, n, Members(forms=forms))
    member = np.zeros(len(points), dtype=np.intp) if member is None else np.asarray(member)
    refined: list = []
    for first in range(0, len(points), BATCH_PATHS):
        chunk = slice(first, first + BATCH_PATHS)
        x = np.array(points[chunk], dtype=complex)
        if x.ndim != 2 or x.shape[1] != n:
            raise ValueError(f"points need {n} coordinates, not {x.shape[1:]}")
        with np.errstate(invalid="ignore"):
            x, res, ev = _newton(table, x, np.zeros(len(x)), member[chunk],
                                 REFINE_TOL, REFINE_ITERS)
            # a non-finite iterate, which a singular solve leaves, has residual nan
            ok = res < REFINE_TOL
            J = ev[2][ok]
            scale = np.linalg.norm(J, axis=2, keepdims=True)
            s = np.linalg.svd(J / np.where(scale > 0, scale, 1), compute_uv=False)
            ok[ok] = s[:, -1] / s[:, 0] >= SINGULAR_TOL  # False for s_max = 0 too
        refined += [p if good else None for p, good in zip(x, ok)]
    return refined


class _Path:
    """One live path's step control: the rules of a path tracked alone, for
    one row of the batch.  The row's point and its k1 live in the batch.

    The endgame rule: once t < 0.1 the path is sampled at each accepted point
    where t has at least halved since the last sample, and each two
    consecutive samples estimate its growth exponent a = dlog|x| / dlog(1/t).
    On a path to infinity a tends to a positive limit, on a path to a finite
    endpoint to 0.  The path ends "diverged" when two consecutive estimates
    are positive and agree within 20% and its norm has passed `blowup`, so no
    path whose norm stays below `blowup` is ever cut.  A finite endpoint
    beyond `blowup` that the path approaches like a pole is called diverged
    too; `blowup` is the bound the crawl rule uses."""

    __slots__ = ("index", "t", "step", "streak", "steps", "crawl", "norms", "initial",
                 "blowup", "sampled", "log_norm", "rate")

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
        self.sampled = 1.0  # t of the last endgame sample; no sample yet
        self.log_norm = 0.0  # log|x| at that sample
        self.rate = 0.0  # the last growth exponent estimated, 0 before two samples

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
        if 0 < self.t < 0.1 and self.t <= self.sampled / 2:
            log_norm = math.log(max(norm, 1e-300))  # a path may sit at the origin
            if self.sampled < 0.1:
                rate = (log_norm - self.log_norm) / math.log(self.sampled / self.t)
                if (self.rate > 0 and abs(rate - self.rate) <= 0.2 * self.rate
                        and norm > self.blowup):
                    return "diverged"
                self.rate = rate
            self.sampled, self.log_norm = self.t, log_norm
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
        the path ends with, "ended" when its step floors after an attempt
        that covered all of the t left, or None while it goes on."""
        self.step = self.step / 2
        self.streak = 0
        if self.step < MIN_STEP:
            recent_growth = len(self.norms) >= 2 and self.norms[-1] > 2 * self.norms[0]
            blown_up = self.norms[-1] > max(1e4, 100.0 * self.initial)
            if blown_up or (self.t < 0.05 and recent_growth):
                return "diverged"
            # the rejected attempt spanned min(2 * step, t) of t
            return "ended" if self.t <= 2 * self.step else "failed"
        return None


def _start(h: Homotopy, starts: Sequence, member: np.ndarray, index: range,
           results: list) -> tuple:
    """Correct the start points at `index` on H(x; 1), each as its member.
    A start that does not correct is a failed path of 0 steps; returns
    (paths, points, k1, members) of the others, which begin at t = 1."""
    x = np.array([starts[i] for i in index], dtype=complex)
    m = member[index]
    x, res, ev = _newton(h, x, np.ones(len(x)), m, NEWTON_TOL, MAX_NEWTON_ITERS)
    ok = res < NEWTON_TOL
    for i, good in zip(index, ok):
        if not good:
            results[i] = PathResult("failed", None, 0)
    x = x[ok]
    k1 = _solve(ev[2][ok], ev[3][ok])
    return [_Path(i, _norm(p)) for i, p in zip(np.array(index)[ok], x)], x, k1, m[ok]


def _advance(h: Homotopy, paths: list, x: np.ndarray, k1: np.ndarray, m: np.ndarray,
             results: list) -> tuple:
    """One step attempt of every live path, in lockstep: each RK4 stage, the
    corrector and the t = 0 sharpening make one kernel call and one stacked
    solve for all rows, each row at its own t and as its own member, and
    each path's rules then judge its own row.  Finished paths go into
    `results`; returns (paths, points, k1, members) of the paths still live."""
    # RK4 on the Davidenko ODE x'(t) = -J_x^{-1} dH/dt, moving toward t=0;
    # each k is J_x^{-1} dH/dt, so the steps add dt * k.  A singular J_x
    # makes xp non-finite, so the attempt is rejected.
    dts = [min(p.step, p.t) for p in paths]
    t, dt = np.array([p.t for p in paths]), np.array(dts)
    half, to = 0.5 * dt, t - dt
    ks = [k1]
    for w, tw in ((half, t - half), (half, t - half), (dt, to)):
        _, _, J, dhdt = h.evaluate(x + w[:, None] * ks[-1], tw, member=m)
        ks.append(_solve(J, dhdt))
    _, k2, k3, k4 = ks
    xp = x + (dt / 6.0)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
    xc, res, ev = _newton(h, xp, to, m, NEWTON_TOL, MAX_NEWTON_ITERS)
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
    if ended:  # final sharpening against the t = 0 system, from the last accepted point
        last = np.where(accepted[:, None], xc, x)[ended]
        ends, res, _ = _newton(h, last, np.zeros(len(ended)), m[ended], END_TOL, END_ITERS)
        for i, end, r in zip(ended, ends, res):
            p = paths[i]
            results[p.index] = (PathResult("converged", end.copy(), p.steps) if r < END_TOL
                                else PathResult("failed", None, p.steps))
    if len(live) == len(paths) and accepted.all():  # the new arrays replace the old
        return paths, xc, _solve(ev[2], ev[3]), m
    keep = np.array(live, dtype=np.intp)
    x = np.where(accepted[:, None], xc, x)[keep]
    k1 = k1[keep]
    fresh = accepted[keep]
    if fresh.any():
        rows = keep[fresh]
        k1[fresh] = _solve(ev[2][rows], ev[3][rows])
    return [paths[i] for i in live], x, k1, m[keep]


def _track_rows(h: Homotopy, starts: Sequence, member: np.ndarray) -> list[PathResult]:
    """The engine of `track_many`: the start points in chunks of BATCH_PATHS,
    each started at once and advanced until none of its paths is live."""
    if len(starts) and h.rows != h.nvars:
        raise ValueError(f"homotopy is {h.rows}x{h.nvars}, tracking needs a square one")
    results: list = [None] * len(starts)
    index = range(len(starts))
    for first in index[::BATCH_PATHS]:
        paths, x, k1, m = _start(h, starts, member, index[first:first + BATCH_PATHS], results)
        while paths:
            paths, x, k1, m = _advance(h, paths, x, k1, m, results)
    return results


def track_many(h: Homotopy, starts: Sequence,
               member: np.ndarray | None = None) -> list[PathResult]:
    """Track every start point along h; results ordered by input index.
    Path i is member member[i] of h's `Members`; without `member` every
    path is member 0, the one member of a homotopy without members.  The
    paths move in lockstep, but every rule applies to each path on its own,
    so a path's result does not depend on the others.  numpy's overflow and
    invalid-value warnings are off: the finiteness tests classify a
    diverging path and a singular Jacobian."""
    if member is None:
        member = np.zeros(len(starts), dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        return _track_rows(h, starts, member)


def track_path(h: Homotopy, start_point) -> PathResult:
    """One path: `track_many` on one start point."""
    return track_many(h, [start_point])[0]


def track_slice_motion(
    fixed: PolySystem | None,
    old_rows: Sequence[Polynomial],
    new_rows: Sequence[Polynomial],
    points: Sequence,
    rs: RandomSource | None,
    members: Members | None = None,
) -> list:
    """Track points of V(fixed, old_rows) to V(fixed, new_rows) along
    [fixed; t*gamma*old_rows + (1-t)*new_rows], gamma = rs.unit_complex().
    Each motion draws, so motions meant to share a gamma pass equal
    substreams.  A row whose old form is its new form, the same object,
    joins `fixed` after the caller's rows, in row order; with no row that
    changes, the points come back unchanged and no path is tracked.

    With `members`, the last rows of the motion start, or end, at each
    member's own forms (see `Homotopy`), `points` holds one list of start
    points per member, and every member's paths go in one homotopy and one
    lockstep batch.  One list of endpoints comes back per member, in the
    order of its points, with None for a diverged path; a member with a
    failed path gets None in place of its list: the failure is that
    member's alone.  A motion whose start rows are all the members' own
    draws no gamma, and rs may be None.  Without `members` the motion is
    one member, and its list comes back alone; a failed path raises
    IndeterminateError."""
    lists = [points] if members is None else points
    held = [j for j, (f, g) in enumerate(zip(old_rows, new_rows)) if f is g]
    if held:
        fixed = PolySystem((fixed.polys if fixed else ()) + tuple(old_rows[j] for j in held))
        old_rows, new_rows = ([f for j, f in enumerate(rows) if j not in held]
                              for rows in (old_rows, new_rows))
    if not len(old_rows) + (0 if members is None else members.start_rows):
        return list(points) if members is None else [list(p) for p in lists]
    h = Homotopy(old_rows, new_rows, rs.unit_complex() if old_rows else 1.0, fixed, members)
    sizes = [len(p) for p in lists]
    starts = points if members is None else [p for mine in points for p in mine]
    results = track_many(h, starts, np.repeat(np.arange(len(lists)), sizes))
    ends = []
    for first, n in zip(np.cumsum(sizes) - sizes, sizes):
        mine = results[first:first + n]
        failed = sum(r.status == "failed" for r in mine)
        if failed and members is None:
            raise IndeterminateError(f"{failed} of {n} paths failed")
        ends.append(None if failed else [r.endpoint for r in mine])
    return ends[0] if members is None else ends


def matches(reference: Sequence[np.ndarray], queries: Sequence[np.ndarray]) -> list[list[int]]:
    """For each query p, the ascending indices of the reference points q
    equal to p, |p - q| < MATCH_TOL * max(1, |p|, |q|): the library's one
    search for equal points and its one reading of MATCH_TOL.  Each point's
    norm is taken once.

    p is compared only with the reference points q whose projection
    Re(u.q), for one fixed unit vector u, lies within 2 * MATCH_TOL *
    max(1, |p|) of Re(u.p).  That window holds every q equal to p:
    |Re(u.(p - q))| <= |p - q| < MATCH_TOL * max(1, |p|, |q|), and then
    |q| < |p| / (1 - MATCH_TOL), so |p - q| < MATCH_TOL * max(1, |p|) /
    (1 - MATCH_TOL); the factor 2 covers that and the rounding."""
    if not len(reference):
        return [[] for _ in queries]
    n = len(reference[0])
    u = np.exp(2j * np.pi * np.sqrt(2) * np.arange(n)) / np.sqrt(n)
    keys, order = zip(*sorted((float((u @ q).real), j) for j, q in enumerate(reference)))
    norms = [_norm(q) for q in reference]
    found = []
    for p in queries:
        size = max(1.0, _norm(p))
        key, reach = float((u @ p).real), 2 * MATCH_TOL * size
        near = order[bisect_left(keys, key - reach):bisect_right(keys, key + reach)]
        found.append(sorted(j for j in near
                            if _norm(p - reference[j]) < MATCH_TOL * max(size, norms[j])))
    return found


def dedupe_points(points: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The points, in input order, without each one that equals a point
    kept before it: one pass over `matches(points, points)`."""
    kept = [False] * len(points)
    for i, near in enumerate(matches(points, points)):
        kept[i] = not any(kept[j] for j in near)
    return [p for p, keep in zip(points, kept) if keep]
