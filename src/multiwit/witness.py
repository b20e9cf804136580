"""Witness sets and witness collections over grouped variables.

A witness collection pairs a polynomial system F with one general flag of
affine forms per group i; the entry for key e cuts F by L^e, the first e_i
forms of each group's flag, and holds the finitely many points of the
variety on V(L^e).  Each entry keeps exactly those forms, so the flag
exists only as the entries' prefixes.  This module holds the collection
data structures plus the slice transformations: exact slicing
bookkeeping, refinement and coarsening homotopies, slice motion, Segre
degree, and the multiprojective membership test.

Two rules keep the data simple.  Every polynomial in witness data (the
system, its square-up, the selection and extra forms) lives on the
system's grouping; only `WitnessSet.grouping` and
`WitnessCollection.grouping` carry the current grouping, which refinement
and coarsening change.  And every slice moves through
`tracker.track_slice_motion`, with a gamma drawn from a substream of its
own, under one failed-path policy; a slice motion with no moving rows
tracks no path and returns its points unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import Members, Polynomial, PolySystem, VariableGrouping, affine_rows
from .sysio import RandomSource
from .startsys import RESIDUAL_TOL, random_affine_form, solve_zero_dims, square_up
from .tracker import (
    IndeterminateError,
    TrackingError,
    dedupe_points,
    points_equal,
    track_slice_motion,
)


@dataclass(frozen=True)
class SliceSelection:
    """L^e: per group i, the first e_i forms of its flag (or the forms they
    moved to)."""

    per_group: tuple[tuple[Polynomial, ...], ...]

    @property
    def e(self) -> tuple[int, ...]:
        return tuple(len(fs) for fs in self.per_group)

    @property
    def forms(self) -> list[Polynomial]:
        return [f for fs in self.per_group for f in fs]

    def replace_forms(self, new_forms: Sequence[Polynomial]) -> "SliceSelection":
        """The same per-group counts, filled from `new_forms` in order."""
        forms = iter(new_forms)
        return SliceSelection(tuple(tuple(next(forms) for _ in fs) for fs in self.per_group))


@dataclass(eq=False)
class WitnessSet:
    """(F, L, points): a variety cut to finitely many generic points.

    sq_core holds a square-up of F sized so that core + extra + slices is
    a square system (what the tracker needs); extra holds the slice forms
    that stay fixed while the selection moves: forms promoted into the
    system by exact slicing, or the cuts that pin a curve in nid.
    grouping is the current grouping (the system's unless refined or
    coarsened); selection.per_group follows it.
    """

    system: PolySystem
    sq_core: PolySystem
    selection: SliceSelection
    points: list[np.ndarray]
    grouping: VariableGrouping | None = None
    extra: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        self.points = [np.asarray(p, dtype=complex) for p in self.points]
        self.grouping = self.grouping or self.system.grouping
        self.extra = tuple(self.extra)
        n = self.system.grouping.nvars
        rows = len(self.sq_core) + len(self.extra) + len(self.selection.forms)
        if rows != n:
            raise ValueError(f"core+extra+slices = {rows} rows, expected {n}")

    @property
    def fixed_block(self) -> PolySystem:
        return self.sq_core.concat(list(self.extra)) if self.extra else self.sq_core

    @cached_property
    def full_square_system(self) -> PolySystem:
        """The fixed block and the slices, built once per witness set, so
        its term table is compiled once too."""
        return self.fixed_block.concat(self.selection.forms)

    def __len__(self) -> int:
        return len(self.points)


class WitnessCollection:
    """Map e -> e-witness set, all sharing one system and, per group of
    `grouping`, one flag whose prefixes the entries hold."""

    def __init__(self, system: PolySystem, grouping: VariableGrouping, entries: dict,
                 dropped: dict | None = None):
        self.system = system
        self.grouping = grouping
        self.entries = dict(entries)
        # key -> count of its converged start-path endpoints that
        # `newton_refine` refused (`compute_witness_collection` only)
        self.dropped = dict(dropped or {})
        sizes = {sum(e) for e in self.entries}
        if len(sizes) > 1:
            raise ValueError(f"mixed slice dimensions in one collection: {sorted(sizes)}")

    @property
    def extra(self) -> tuple[Polynomial, ...]:
        """The forms sliced into the system, shared by every entry."""
        return next(iter(self.entries.values())).extra if self.entries else ()

    def multidegree_map(self) -> dict[tuple[int, ...], int]:
        return {e: len(ws) for e, ws in sorted(self.entries.items()) if len(ws) > 0}

    @property
    def dim(self) -> int:
        return sum(next(iter(self.entries)))


def compute_witness_collection(
    F: PolySystem,
    candidates: Sequence[Sequence[int]],
    rs: RandomSource,
) -> WitnessCollection:
    """Solve F against L^e for every candidate e (all of equal |e|).

    Group i's flag is drawn in sequence from rs.substream(11).substream(100 + i)
    and the one square-up of F that every entry keeps from rs.substream(12).
    Every key is solved on that square-up, in one start homotopy
    (`startsys.solve_zero_dims`), with its start system and gamma drawn
    from its own substream.  A key with a failed start path raises
    IndeterminateError.  A point on a component of dimension above |e| is
    a singular root of the key's square system, which `newton_refine`
    refuses: it is left out of its key, and the collection's `dropped`
    counts the refused endpoints per key."""
    g = F.grouping
    candidates = [tuple(int(x) for x in e) for e in candidates]
    if not candidates:
        raise ValueError("no candidate multi-indices supplied")
    dims = {sum(e) for e in candidates}
    if len(dims) > 1:
        raise ValueError(f"candidates must share |e|; got {sorted(dims)}")
    # the slices and a square-up of F make nvars rows, so |e| >= nvars - |F|
    lowest = max(0, g.nvars - len(F))
    for e in candidates:
        if (len(e) != g.k or not all(0 <= x <= n for x, n in zip(e, g.sizes))
                or not lowest <= sum(e) < g.nvars):
            raise ValueError(
                f"key {e} does not fit groups of sizes {g.sizes}: a key has one entry "
                f"per group, at most the group's size, and a sum from {lowest} "
                f"to {g.nvars - 1}")
    d = dims.pop()
    flags = []
    for i, block in enumerate(g.blocks):
        sub = rs.substream(11).substream(100 + i)
        longest = max(e[i] for e in candidates)
        flags.append([random_affine_form(g, block, sub) for _ in range(longest)])
    core = square_up(F, g.nvars - d, rs.substream(12))
    # a repeated key is solved once, on the substream of its last copy
    streams = {e: 13 + idx for idx, e in enumerate(sorted(candidates))}
    selections = [SliceSelection(tuple(tuple(flag[:ei]) for flag, ei in zip(flags, e)))
                  for e in streams]
    solved = solve_zero_dims(F, core, [sel.forms for sel in selections],
                             [rs.substream(stream) for stream in streams.values()])
    entries, dropped = {}, {}
    for e, sel, found in zip(streams, selections, solved):
        if found is None:
            raise IndeterminateError(f"the start paths of key {e} failed")
        pts, refused = found
        if refused:
            dropped[e] = refused
        if pts:
            entries[e] = WitnessSet(F, core, sel, pts)
    if not entries:
        raise TrackingError("no candidate slice met the variety; empty collection")
    return WitnessCollection(F, g, entries, dropped)


def slice_collection(wc: WitnessCollection, group: int) -> WitnessCollection:
    """Exact bookkeeping: move each entry's first form on `group` into the
    system, shift keys by -eps_group, reuse every point verbatim.  No path
    is tracked."""
    wc.grouping.check_group(group)
    if all(e[group] == 0 for e in wc.entries):
        raise ValueError(
            f"slicing group {group} empties the variety (all keys have e_{group} = 0)"
        )
    entries = {}
    for e, ws in wc.entries.items():
        if e[group] == 0:
            continue
        per_group = list(ws.selection.per_group)
        moved, *rest = per_group[group]
        per_group[group] = tuple(rest)
        sel = SliceSelection(tuple(per_group))
        entries[sel.e] = replace(ws, selection=sel, extra=ws.extra + (moved,))
    return WitnessCollection(wc.system, wc.grouping, entries)


def move_slice(
    ws: WitnessSet,
    new_forms: Sequence[Polynomial],
    rs: RandomSource,
) -> WitnessSet:
    """Track the points as the slice forms move, by a homotopy drawn from rs.
    A lost point, diverged or merged, raises IndeterminateError."""
    old = ws.selection.forms
    new_forms = [f.with_grouping(ws.system.grouping) for f in new_forms]
    if len(new_forms) != len(old):
        raise ValueError(f"{len(new_forms)} new forms for {len(old)} slice rows")
    ends = track_slice_motion(ws.fixed_block, old, new_forms, ws.points, rs)
    points = dedupe_points([p for p in ends if p is not None])
    if len(points) != len(ws.points):
        raise IndeterminateError(f"moving the slice of key {ws.selection.e} lost "
                                 f"{len(ws.points) - len(points)} of {len(ws.points)} points")
    return replace(ws, selection=ws.selection.replace_forms(new_forms), points=points)


def refine(
    ws: WitnessSet,
    split: tuple[int, int],
    target_e: Sequence[int],
    rs: RandomSource,
) -> WitnessSet:
    """Transform a witness set when one group splits into two.

    split = (group, size of the first part); target_e is the key on the
    refined grouping.  Only the split group's slice forms move; paths that
    leave the affine patch diverge and are dropped.
    """
    group, first_size = split
    g = ws.grouping
    g.check_group(group)
    block = g.blocks[group]
    if not 0 < first_size < len(block):
        raise ValueError("first part must be a proper nonempty subpart of the group")
    new_g = g.split(group, block[:first_size])
    target_e = tuple(int(x) for x in target_e)
    if len(target_e) != new_g.k:
        raise ValueError(f"target key arity {len(target_e)}, expected {new_g.k}")
    e = ws.selection.e
    ok = (
        target_e[:group] == e[:group]
        and target_e[group] + target_e[group + 1] == e[group]
        and target_e[group + 2:] == e[group + 1:]
    )
    if not ok:
        raise ValueError(f"target key {target_e} incompatible with source key {e}")

    new_first = [
        random_affine_form(ws.system.grouping, new_g.blocks[group], rs.substream(21 + i))
        for i in range(target_e[group])
    ]
    new_second = [
        random_affine_form(ws.system.grouping, new_g.blocks[group + 1], rs.substream(51 + i))
        for i in range(target_e[group + 1])
    ]
    per_group = list(ws.selection.per_group)
    others = [f for i, fs in enumerate(per_group) if i != group for f in fs]
    ends = track_slice_motion(
        ws.fixed_block.concat(others), per_group[group], new_first + new_second, ws.points,
        rs.substream(99),
    )
    per_group[group:group + 1] = [tuple(new_first), tuple(new_second)]
    return replace(ws, selection=SliceSelection(tuple(per_group)),
                   points=dedupe_points([p for p in ends if p is not None]), grouping=new_g)


@dataclass
class CoarsenResult:
    witness: WitnessSet
    delta: int  # start paths tracked (Segre-formula count)
    converged: int

    @property
    def diverged(self) -> int:
        return self.delta - self.converged


def coarsen(
    wc: WitnessCollection,
    merge: tuple[int, int],
    target_e: Sequence[int],
    rs: RandomSource,
    target_forms: Sequence[Polynomial] | None = None,
) -> CoarsenResult:
    """Transform witness data when two groups merge into one.

    Builds, for every split S|T of the merged slice budget e, the start
    set W_{S,T} by slice motion from the matching collection entry, then
    tracks all delta = sum binom(e,|S|) Deg(|S|,|T|,...) paths of the
    homotopy whose moving block interpolates the bilinear products
    l10_i * l01_i toward the target affine forms l_i (given ones live on
    the system's grouping).  With e = 0 nothing moves, and the result is
    the one matching entry regrouped.
    """
    a, b = sorted(merge)
    g = wc.grouping
    new_g = g.merge(a, b)
    target_e = tuple(int(x) for x in target_e)
    if len(target_e) != new_g.k:
        raise ValueError(f"target key arity {len(target_e)}, expected {new_g.k}")
    e = target_e[a]
    base_g = wc.system.grouping
    sub = rs.substream(7)
    if target_forms is None:
        target_forms = [
            random_affine_form(base_g, new_g.blocks[a], sub.substream(100 + i))
            for i in range(e)
        ]
    if len(target_forms) != e:
        raise ValueError(f"need {e} target forms, got {len(target_forms)}")

    # the entry with s forms on group a and e - s on group b, per s
    sources = {}
    for s in range(e + 1):
        key = list(target_e)
        key[a] = s
        key.insert(b, e - s)
        ws = wc.entries.get(tuple(key))
        if ws is not None and ws.points:
            sources[s] = ws
    if not sources:
        raise ValueError(f"no collection entry matches any split of target {target_e}")
    # groups other than a and b keep the same flag prefixes in every source
    src = next(iter(sources.values()))
    per_group = list(src.selection.per_group)
    per_group[a] = tuple(target_forms)
    del per_group[b]
    coarse = replace(src, selection=SliceSelection(tuple(per_group)), grouping=new_g)
    if e == 0:
        n = len(coarse.points)
        return CoarsenResult(coarse, delta=n, converged=n)

    # the start points W_{S,T}: S of the l10 forms on group a, the rest of l01 on b
    l10 = [random_affine_form(base_g, g.blocks[a], sub.substream(i)) for i in range(e)]
    l01 = [random_affine_form(base_g, g.blocks[b], sub.substream(50 + i)) for i in range(e)]
    starts: list[np.ndarray] = []
    for s, ws in sources.items():
        for S in itertools.combinations(range(e), s):
            moving = list(ws.selection.per_group)
            moving[a] = [l10[i] for i in S]
            moving[b] = [l01[i] for i in range(e) if i not in S]
            moved = move_slice(ws, [f for fs in moving for f in fs], sub.substream(999 + s))
            starts.extend(moved.points)

    rest = [f for i, fs in enumerate(src.selection.per_group) if i not in (a, b) for f in fs]
    products = [l10[i] * l01[i] for i in range(e)]
    ends = track_slice_motion(
        src.fixed_block.concat(rest), products, target_forms, starts, sub.substream(1234),
    )
    pts = [p for p in ends if p is not None]
    return CoarsenResult(replace(coarse, points=dedupe_points(pts)), delta=len(starts),
                         converged=len(pts))


def coarsen_collection(
    wc: WitnessCollection,
    merge: tuple[int, int],
    rs: RandomSource,
) -> tuple[WitnessCollection, list[CoarsenResult]]:
    """Coarsen every reachable key, cutting each with a prefix of one flag
    for the merged group so the result is a proper witness collection."""
    a, b = sorted(merge)
    new_g = wc.grouping.merge(a, b)
    new_keys = sorted(
        {key[:a] + (key[a] + key[b],) + key[a + 1:b] + key[b + 1:] for key in wc.entries}
    )
    flag_sub = rs.substream(17)
    flag = [
        random_affine_form(wc.system.grouping, new_g.blocks[a], flag_sub.substream(i))
        for i in range(max(key[a] for key in new_keys))
    ]
    entries = {}
    stats = []
    for key in new_keys:
        res = coarsen(wc, (a, b), key, rs.substream(hash(key) % 10000 + 1),
                      target_forms=flag[: key[a]])
        stats.append(res)
        if res.witness.points:
            entries[key] = res.witness
    return WitnessCollection(wc.system, new_g, entries), stats


def segre_degree(md: dict) -> int:
    """Degree under the Segre embedding: sum of multinomial(d; e) * Deg(e)."""
    keys = list(md)
    if not keys:
        raise ValueError("empty multidegree map")
    dims = {sum(e) for e in keys}
    if len(dims) > 1:
        raise ValueError(f"mixed |e| in multidegree map: {sorted(dims)}")
    d = dims.pop()
    total = 0
    for e, v in md.items():
        coef = math.factorial(d)
        for x in e:
            coef //= math.factorial(x)
        total += coef * v
    return total


def passes_through(fixed: PolySystem, forms: list, points: list, queries: Sequence,
                   rs: RandomSource) -> list[bool | None]:
    """For each query q, whether q lies on the set that `points` cut out
    with `fixed` and `forms`: translate each form through q, as
    form - form(q), track the points along, and look for q at the ends.
    Every query is one member of one homotopy drawn from rs, whose target
    is its translates; a query with a failed path gets None, and the others
    keep their verdicts."""
    if not len(queries):
        return []
    queries = np.array(queries, dtype=complex)
    rows = affine_rows(forms, queries.shape[1])
    translates = np.repeat(rows[None], len(queries), axis=0)
    translates[:, :, -1] = -(rows[None, :, :-1] * queries[:, None, :]).sum(axis=2)
    ends = track_slice_motion(fixed, forms, [], [points] * len(queries), rs,
                              Members(forms=translates))
    return [None if e is None else any(p is not None and points_equal(p, q) for p in e)
            for e, q in zip(ends, queries)]


def membership(
    wc: WitnessCollection,
    point,
    rs: RandomSource,
) -> bool:
    """Multiprojective membership: per key e, translate L^e through the
    query point and look for it among the endpoints.  Paths that fail on
    a key raise IndeterminateError rather than answer False."""
    point = np.asarray(point, dtype=complex)
    if point.size != wc.grouping.nvars:
        raise ValueError(f"point has {point.size} coordinates, expected {wc.grouping.nvars}")
    # the query must already satisfy the sliced-away part of the system, to
    # the relative residual RESIDUAL_TOL that the witness points reach
    if wc.extra:
        if not PolySystem(list(wc.extra)).residual(point) < RESIDUAL_TOL:
            return False
    for idx, (e, ws) in enumerate(sorted(wc.entries.items())):
        (verdict,) = passes_through(ws.fixed_block, ws.selection.forms, ws.points, [point],
                                    rs.substream(idx).substream(77))
        if verdict is None:
            raise IndeterminateError(f"the membership paths of key {e} failed")
        if verdict:
            return True
    return False
