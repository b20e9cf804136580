"""Monodromy loops on witness point sets.

Moving the slice around a loop permutes the witness points; orbits stay
inside single irreducible components.  `monodromy_permutation` draws one
generic loop and reads off the permutation.  On top of it sit three tools
for a set with one moving form: growing a partial witness point set from
a seed, partitioning a complete one into components, and the linear trace
test that certifies a part is a whole component.

Breakup stops at its first certified partition: it trace-tests the parts
after every loop that merges and stops once all of them pass, since a
part that passes is a whole component.  A loop that would join two passed
parts is a path jump and is discarded.  Parts that never merge are tested
after QUIET_LOOPS loops in a row that merge nothing.  A key with more than
one moving form is refused: its parts would need the multiprojective trace
test, which is not built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import Polynomial
from .sysio import RandomSource
from .startsys import RESIDUAL_TOL, random_affine_form
from .tracker import (
    IndeterminateError,
    TrackingError,
    dedupe_points,
    points_equal,
    refine_endpoints,
    track_slice_motion,
)
from .witness import WitnessSet

TRACE_TOL = 1e-6
QUIET_LOOPS = 5
MAX_LOOPS = 60


@dataclass
class MonodromyOutcome:
    permutation: dict  # matched start index -> start index of the endpoint
    new_points: list


def monodromy_permutation(ws: WitnessSet, rs: RandomSource) -> MonodromyOutcome:
    """Track every witness point around a random loop L -> L' -> L'' -> L
    and read off the permutation.

    L' and L'' are generic forms with the per-group form counts of L, drawn
    from rs.substream(1) and (2); the legs' gammas come from rs.substream(3)
    to (5).  An endpoint that matches two start points, or two endpoints
    that match one, raise IndeterminateError."""
    g = ws.grouping

    def forms_from(sub: RandomSource) -> list[Polynomial]:
        return [
            random_affine_form(ws.system.grouping, g.blocks[i], sub.substream(31 * i + j))
            for i, fs in enumerate(ws.selection.per_group)
            for j in range(len(fs))
        ]

    base = ws.selection.forms
    stops = [base, forms_from(rs.substream(1)), forms_from(rs.substream(2)), base]
    current = dict(enumerate(ws.points))  # start index -> point, in index order
    for leg in range(3):
        ends = track_slice_motion(ws.fixed_block, stops[leg], stops[leg + 1],
                                  list(current.values()), rs.substream(3 + leg).unit_complex())
        current = {i: p for i, p in zip(current, ends) if p is not None}
    ends = refine_endpoints(ws.full_square_system(), list(current.values()))
    refined = {i: p for i, p in zip(current, ends) if p is not None}

    perm: dict = {}
    new_points: list = []  # endpoints on the system that match no start point
    taken: dict = {}
    for i, endpoint in sorted(refined.items()):
        matches = [
            j for j, q in enumerate(ws.points) if points_equal(endpoint, q)
        ]
        if len(matches) > 1:
            raise IndeterminateError(
                f"endpoint of path {i} matches {len(matches)} start points"
            )
        if matches:
            j = matches[0]
            if j in taken:
                raise IndeterminateError(
                    f"paths {taken[j]} and {i} both landed on start point {j}"
                )
            taken[j] = i
            perm[i] = j
        elif ws.system.residual(endpoint) < RESIDUAL_TOL:
            new_points.append(endpoint)
    return MonodromyOutcome(perm, dedupe_points(new_points))


def _one_moving_form(ws: WitnessSet, caller: str) -> None:
    if len(ws.selection.forms) != 1:
        raise ValueError(
            f"{caller} needs one moving form; the set has {len(ws.selection.forms)}")


def trace_test(ws: WitnessSet, part: list, rs: RandomSource) -> bool:
    """Linear trace: translate the one slice form l of `ws` along l + s*c,
    c a random constant, over ws.fixed_block and check the centroid of the
    part moves affinely in s, to a relative TRACE_TOL.

    Only meaningful on affine-slice data (a single moving form); the
    multiprojective analogue is unsound and deliberately not offered."""
    _one_moving_form(ws, "the trace test")
    forms = ws.selection.forms
    part = [np.asarray(p, dtype=complex) for p in part]
    if not part:
        raise ValueError("empty part")
    # a constant pencil translates the slice parallel to itself; the
    # centroid is affine in s only for parallel motion
    pencil = Polynomial.constant(ws.system.grouping, rs.substream(9).unit_complex())
    rotation = rs.substream(10).substream(1).unit_complex()
    s_values = (0.5 * rotation, 1.0 * rotation)
    centroids = [np.mean(part, axis=0)]
    for s in s_values:
        # gamma = 1 keeps the slice motion affine in t, which the trace needs
        ends = track_slice_motion(ws.fixed_block, forms, [forms[0] + s * pencil], part, 1.0)
        if any(p is None for p in ends):
            raise IndeterminateError("a trace test path diverged; result indeterminate")
        centroids.append(np.mean(ends, axis=0))
    v1 = (centroids[1] - centroids[0]) / s_values[0]
    v2 = (centroids[2] - centroids[0]) / s_values[1]
    scale = max(1.0, float(np.linalg.norm(v1)), float(np.linalg.norm(v2)))
    return bool(np.linalg.norm(v1 - v2) < TRACE_TOL * scale)


@dataclass
class MonodromyState:
    points: list
    partition: list  # list of sorted index lists
    certified: list  # parallel booleans


def _orbit_groups(partition: list, permutation: dict) -> list:
    """Positions in `partition` of the parts each orbit of the partition
    joined with `permutation` covers, in order of their first part."""
    part_of = {i: pi for pi, part in enumerate(partition) for i in part}
    root = list(range(len(partition)))

    def find(p):
        while root[p] != p:
            root[p] = root[root[p]]
            p = root[p]
        return p

    for i, j in permutation.items():
        a, b = sorted((find(part_of[i]), find(part_of[j])))
        root[b] = a
    groups: dict = {}
    for pi in range(len(partition)):
        groups.setdefault(find(pi), []).append(pi)
    return list(groups.values())


def breakup(ws: WitnessSet, rs: RandomSource) -> MonodromyState:
    """Partition a complete witness point set of an affine curve (one
    moving form) by monodromy orbits, and certify the parts by the trace
    test.

    Loop i runs on rs.substream(1000 + i).  Every loop that merges parts is
    followed by a trace test of each part not yet tested in its current
    form, on rs.substream(5000 + its first index), and breakup stops as
    soon as every part has passed: a part that passes is a whole component,
    and orbits never leave a component.  A loop that would join two parts
    that have each passed is a path jump and is discarded.  Parts that
    never merge are tested once QUIET_LOOPS loops in a row merge nothing.
    Breakup gives up after MAX_LOOPS loops; a loop that raises
    IndeterminateError counts against them and the next one is drawn."""
    _one_moving_form(ws, "breakup")
    points = list(ws.points)
    verdicts: dict = {}  # part, as a tuple of indices -> trace verdict, None if indeterminate

    def certify(partition: list) -> list:
        for part in map(tuple, partition):
            if part not in verdicts:
                try:
                    verdicts[part] = trace_test(ws, [points[i] for i in part],
                                                rs.substream(5000 + part[0]))
                except IndeterminateError:
                    verdicts[part] = None
        return [verdicts[tuple(part)] for part in partition]

    quiet = 0
    partition = [[i] for i in range(len(points))]
    certified = certify(partition) if len(points) == 1 else []
    for loop in range(MAX_LOOPS):
        if certified and all(certified):
            break
        try:
            outcome = monodromy_permutation(ws, rs.substream(1000 + loop))
        except IndeterminateError:
            continue
        if outcome.new_points:
            raise TrackingError(
                "breakup found new witness points; the input set was incomplete"
            )
        groups = _orbit_groups(partition, outcome.permutation)
        if any(sum(verdicts.get(tuple(partition[pi])) is True for pi in g) > 1
               for g in groups):
            continue  # a path jumped between two certified components
        if len(groups) < len(partition):
            partition = sorted(sorted(i for pi in g for i in partition[pi]) for g in groups)
            quiet = 0
            certified = certify(partition)
            continue
        quiet += 1
        if quiet >= QUIET_LOOPS:
            certified = certify(partition)
            if all(certified) or None in certified:
                break
            # quiescent but uncertified: an orbit is still split across
            # parts, so keep looping for a merge the trace will accept
            quiet = 0

    certified = certify(partition)
    if None in certified:
        raise IndeterminateError("a trace test path diverged; result indeterminate")
    return MonodromyState(points=points, partition=partition, certified=certified)


def grow_witness_set(ws: WitnessSet, rs: RandomSource) -> tuple[WitnessSet, bool]:
    """Grow a partial witness point set of an affine curve (one moving form)
    by monodromy.

    Loop i runs on rs.substream(2000 + i).  After each loop that finds no
    new point the trace test checks the set; growth stops when it passes
    (stable) or after QUIET_LOOPS such loops in a row (not stable).
    Returns (witness set, stable flag)."""
    _one_moving_form(ws, "grow_witness_set")
    points = list(ws.points)
    quiet = 0
    for loop in range(MAX_LOOPS):
        current = replace(ws, points=points)
        try:
            outcome = monodromy_permutation(current, rs.substream(2000 + loop))
        except IndeterminateError:
            continue
        if outcome.new_points:
            points.extend(outcome.new_points)
            quiet = 0
            continue
        quiet += 1
        try:
            if trace_test(current, points, rs.substream(3001 + loop)):
                return current, True
        except IndeterminateError:
            pass
        if quiet >= QUIET_LOOPS:
            break
    return replace(ws, points=points), False
