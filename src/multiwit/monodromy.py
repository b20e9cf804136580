"""Monodromy loops on witness point sets.

Moving the slice around a loop permutes the witness points; orbits stay
inside single irreducible components.  `monodromy_permutation` draws one
generic slice, goes to it and back along two gamma-trick arcs (the
two-node loop of Duff et al., arXiv:1609.08722), and reads off the
permutation.  On top of it sit three tools for a set with one moving
form: growing a partial witness point set from a seed, partitioning a
complete one into components, and the linear trace test that certifies
a part is a whole component.

Breakup and growth are one loop, `_close_orbits`, which joins the points
into orbits until the trace test passes on every part.  A key with more
than one moving form is refused: its parts would need the multiprojective
trace test, which is not built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sysio import RandomSource
from .startsys import RESIDUAL_TOL, random_affine_form
from .tracker import (
    IndeterminateError,
    newton_refine,
    points_equal,
    track_slice_motion,
    _solve,
)
from .witness import WitnessSet

TRACE_TOL = 1e-6
MAX_LOOPS = 60


@dataclass
class MonodromyOutcome:
    permutation: dict  # start index -> its endpoint's index, len(points) + k for new_points[k]
    new_points: list


def monodromy_permutation(ws: WitnessSet, rs: RandomSource) -> MonodromyOutcome:
    """Track every witness point around a random loop L -> L' -> L and read
    off the permutation.

    L' is a generic form set with the per-group form counts of L, drawn
    from rs.substream(1).  The two legs are gamma-trick arcs with gammas
    from rs.substream(3) and (4), so together they loop once in the pencil
    of L and L'.  An endpoint on the system that matches no start point is
    a new point, and endpoints that match one another share it.  An
    endpoint that matches two start points, or two endpoints that match
    one, raise IndeterminateError."""
    sub = rs.substream(1)
    generic = [
        random_affine_form(ws.system.grouping, ws.grouping.blocks[i], sub.substream(31 * i + j))
        for i, fs in enumerate(ws.selection.per_group)
        for j in range(len(fs))
    ]
    stops = [ws.selection.forms, generic, ws.selection.forms]
    current = dict(enumerate(ws.points))  # start index -> point, in index order
    for leg in range(2):
        ends = track_slice_motion(ws.fixed_block, stops[leg], stops[leg + 1],
                                  list(current.values()), rs.substream(3 + leg))
        current = {i: p for i, p in zip(current, ends) if p is not None}
    ends = newton_refine(ws.full_square_system, list(current.values()))
    refined = {i: p for i, p in zip(current, ends) if p is not None}

    perm: dict = {}
    new_points: list = []  # endpoints on the system that match no start point
    taken: dict = {}
    for i, endpoint in sorted(refined.items()):
        matches = [j for j, q in enumerate(ws.points) if points_equal(endpoint, q)]
        if len(matches) > 1:
            raise IndeterminateError(f"endpoint of path {i} matches {len(matches)} start points")
        if matches:
            j = matches[0]
            if j in taken:
                raise IndeterminateError(
                    f"paths {taken[j]} and {i} both landed on start point {j}")
            taken[j] = i
            perm[i] = j
        elif ws.system.residual(endpoint) < RESIDUAL_TOL:
            k = next((k for k, q in enumerate(new_points) if points_equal(endpoint, q)), None)
            if k is None:
                k = len(new_points)
                new_points.append(endpoint)
            perm[i] = len(ws.points) + k
    return MonodromyOutcome(perm, new_points)


def _one_moving_form(ws: WitnessSet, caller: str) -> None:
    if len(ws.selection.forms) != 1:
        raise ValueError(
            f"{caller} needs one moving form; the set has {len(ws.selection.forms)}")


def trace_test(ws: WitnessSet, part: list) -> bool:
    """Linear trace, with no path tracked.  As the one slice form l moves to
    l + s, the part's sum is affine in s exactly when the part is a union
    of whole components; for a generic l that shows as sum x'' = 0 at s = 0,
    where, with J the Jacobian of `ws.full_square_system` at x,

        x' = -J^-1 e_n,    x'' = -J^-1 [D^2 F(x)[x', x']; 0].

    The part passes when |sum x''| <= TRACE_TOL * sum (|x''| + |x'|^2 /
    max(1, |x|)).  D^2 F[v, v], twice the h^2 coefficient of F(x + h v), is
    read exactly from max(deg F + 1, 3) points on a circle as a discrete
    Fourier coefficient, one kernel call for the whole part.  A non-finite
    x' or x'' raises IndeterminateError.  Only for one moving form: the
    multiprojective test (Hauenstein and Rodriguez, arXiv:1507.07069) is
    not built."""
    _one_moving_form(ws, "the trace test")
    if not part:
        raise ValueError("empty part")
    system = ws.full_square_system
    x = np.array(part, dtype=complex)
    count, n = x.shape
    jacobian = system.kernel(x)[2]
    x1 = -_solve(jacobian, np.eye(n, dtype=complex)[-1])
    size = np.maximum(1.0, np.linalg.norm(x, axis=1))
    nodes = max(max(sum(e) for f in system for e in f.terms) + 1, 3)
    roots = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    # a radius that makes the circle about as wide as the point is large
    radius = size / np.linalg.norm(x1, axis=1)
    circle = x[:, None, :] + (radius[:, None] * roots)[:, :, None] * x1[:, None, :]
    values = system.kernel(circle.reshape(-1, n))[0].reshape(count, nodes, n)
    second = 2 * (roots ** -2 @ values) / (nodes * radius[:, None] ** 2)
    second[:, -1] = 0  # l + s is linear
    x2 = -_solve(jacobian, second)  # non-finite too if x1 is
    if not np.isfinite(x2).all():
        raise IndeterminateError("the trace test met a singular witness point")
    bound = np.linalg.norm(x2, axis=1) + np.linalg.norm(x1, axis=1) ** 2 / size
    return bool(np.linalg.norm(x2.sum(axis=0)) <= TRACE_TOL * bound.sum())


@dataclass
class MonodromyState:
    points: list
    partition: list  # list of sorted index lists
    certified: list  # parallel booleans


def _close_orbits(ws: WitnessSet, rs: RandomSource, first: int) -> MonodromyState:
    """Join the points into monodromy orbits until every part passes the
    trace test, from singletons, with loop i on rs.substream(first + i).

    Parts are point labels: `label[i]` is the least index of point i's
    part.  Each permuted pair relabels the larger label to the smaller; a
    new endpoint enters labelled with its own index, so it joins the part
    of the path that found it.  A passed part is a union of whole
    components, so a loop that grows one is a path jump and is discarded.
    Every part not yet tested is tested before each loop.  A loop that
    raises IndeterminateError is skipped; after MAX_LOOPS loops the state
    is returned as it stands."""
    _one_moving_form(ws, "monodromy")
    ws = replace(ws)  # one working copy, whose points list grows in place
    points = ws.points
    label = list(range(len(points)))
    verdicts: dict = {}  # part, as a tuple of indices -> trace verdict

    def certify() -> tuple[list, list]:
        parts: dict = {}  # label -> its points, in order of least member
        for i, least in enumerate(label):
            parts.setdefault(least, []).append(i)
        partition = list(parts.values())
        for part in map(tuple, partition):
            if part not in verdicts:
                verdicts[part] = trace_test(ws, [points[i] for i in part])
        return partition, [verdicts[tuple(part)] for part in partition]

    partition, certified = certify()
    for loop in range(MAX_LOOPS):
        if all(certified):
            break
        try:
            outcome = monodromy_permutation(ws, rs.substream(first + loop))
        except IndeterminateError:
            continue
        joined = label + list(range(len(points), len(points) + len(outcome.new_points)))
        for i, j in outcome.permutation.items():
            keep, drop = sorted((joined[i], joined[j]))
            joined = [keep if least == drop else least for least in joined]
        if any(ok and joined.count(joined[part[0]]) > len(part)
               for part, ok in zip(partition, certified)):
            continue  # only a path jump grows a passed part
        points += outcome.new_points
        label = joined
        partition, certified = certify()
    return MonodromyState(points=points, partition=partition, certified=certified)


def breakup(ws: WitnessSet, rs: RandomSource) -> MonodromyState:
    """Partition the witness points of an affine curve (one moving form)
    by monodromy orbits, each certified by the trace test.

    Loop i runs on rs.substream(1000 + i).  A point the input set was
    missing joins the part of the path that found it, and `points` holds
    it after the input's.  Breakup gives up after MAX_LOOPS loops, with
    the failed verdicts in `certified`."""
    return _close_orbits(ws, rs, 1000)


def grow_witness_set(ws: WitnessSet, rs: RandomSource) -> WitnessSet:
    """Grow a partial witness point set of an affine curve (one moving form)
    by monodromy until the trace test passes: breakup's loop, run from the
    seed points on rs.substream(2000 + i).  IndeterminateError if some part
    has not passed after MAX_LOOPS loops."""
    state = _close_orbits(ws, rs, 2000)
    if not all(state.certified):
        raise IndeterminateError(
            f"the trace test failed on {len(state.points)} points after {MAX_LOOPS} loops")
    return replace(ws, points=state.points)
