"""Witness sets and witness collections over grouped variables.

A witness collection pairs a polynomial system F with a coherent slice
bank: per group i a fixed sequence of generic affine forms, of which a
selection L^e takes the first e_i per group.  The e-witness point set is
the finite intersection of the variety with V(L^e).  This module holds
the collection data structures plus the slice transformations: exact
slicing bookkeeping, refinement and coarsening homotopies, slice
motion, Segre degree, and the multiprojective membership test.

Two rules keep the data simple.  Every polynomial in witness data (the
system, its square-up, the selection and extra forms, the bank forms)
lives on the system's grouping; only `WitnessSet.grouping` and
`SliceBank.grouping` carry the current grouping, which refinement and
coarsening change.  And a slice motion with no moving rows tracks no
path: `track_slice_motion` returns its points unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algebra import Polynomial, PolySystem, VariableGrouping
from .sysio import RandomSource
from .startsys import random_affine_form, solve_zero_dim, square_up
from .tracker import (
    Homotopy,
    TrackOptions,
    TrackingError,
    dedupe_points,
    points_equal,
    relative_residual,
    track_many,
)


class IndeterminateError(TrackingError):
    """Paths failed, so an operation or query could not be completed
    (never a silently short result or a silent false)."""


class SliceBank:
    """Per group i, affine forms l_{i,1..n_i}; selections take prefixes."""

    def __init__(self, grouping: VariableGrouping, forms: Sequence[Sequence[Polynomial]]):
        self.grouping = grouping
        self.forms = tuple(tuple(fs) for fs in forms)
        if len(self.forms) != grouping.k:
            raise ValueError("bank needs one form list per group")

    @classmethod
    def generate(cls, grouping: VariableGrouping, rs: RandomSource) -> "SliceBank":
        forms = []
        for i, block in enumerate(grouping.blocks):
            sub = rs.substream(100 + i)
            forms.append([random_affine_form(grouping, block, sub) for _ in block])
        return cls(grouping, forms)

    def selection(self, e: Sequence[int]) -> "SliceSelection":
        e = tuple(int(x) for x in e)
        if len(e) != self.grouping.k:
            raise ValueError(f"key {e} has arity {len(e)}, expected {self.grouping.k}")
        per_group = []
        for i, ei in enumerate(e):
            if ei > len(self.forms[i]):
                raise ValueError(f"group {i} has only {len(self.forms[i])} bank forms")
            per_group.append(tuple(self.forms[i][:ei]))
        return SliceSelection(e, tuple(per_group))

    def drop_first(self, group: int) -> "SliceBank":
        forms = [list(fs) for fs in self.forms]
        if not forms[group]:
            raise ValueError(f"group {group} has no bank forms left")
        forms[group] = forms[group][1:]
        return SliceBank(self.grouping, forms)


@dataclass(frozen=True)
class SliceSelection:
    """L^e: the first e_i bank forms per group (or the forms they moved to)."""

    e: tuple[int, ...]
    per_group: tuple[tuple[Polynomial, ...], ...]

    @property
    def forms(self) -> list[Polynomial]:
        return [f for fs in self.per_group for f in fs]

    def counts(self) -> tuple[int, ...]:
        return tuple(len(fs) for fs in self.per_group)

    def replace_forms(self, new_forms: Sequence[Polynomial]) -> "SliceSelection":
        new_forms = list(new_forms)
        if len(new_forms) != len(self.forms):
            raise ValueError("replacement must keep the per-group form counts")
        out = []
        pos = 0
        for fs in self.per_group:
            out.append(tuple(new_forms[pos:pos + len(fs)]))
            pos += len(fs)
        return SliceSelection(self.e, tuple(out))


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

    def full_square_system(self) -> PolySystem:
        return self.fixed_block.concat(self.selection.forms)

    def verify(self, tol: float = 1e-8) -> bool:
        full = self.system.concat(list(self.extra) + self.selection.forms)
        return all(
            relative_residual(full.evaluate(p), full.residual_scale(p)) < tol
            for p in self.points
        )

    def __len__(self) -> int:
        return len(self.points)


class WitnessCollection:
    """Map e -> e-witness set, all sharing one system and slice bank."""

    def __init__(self, system: PolySystem, bank: SliceBank, entries: dict):
        self.system = system
        self.bank = bank
        self.entries = dict(entries)
        sizes = {sum(e) for e in self.entries}
        if len(sizes) > 1:
            raise ValueError(f"mixed slice dimensions in one collection: {sorted(sizes)}")

    @property
    def grouping(self) -> VariableGrouping:
        return self.bank.grouping

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
    opts: TrackOptions = TrackOptions(),
    bank: SliceBank | None = None,
) -> WitnessCollection:
    """Solve F against L^e for every candidate e (all of equal |e|)."""
    g = F.grouping
    candidates = [tuple(int(x) for x in e) for e in candidates]
    if not candidates:
        raise ValueError("no candidate multi-indices supplied")
    dims = {sum(e) for e in candidates}
    if len(dims) > 1:
        raise ValueError(f"candidates must share |e|; got {sorted(dims)}")
    d = dims.pop()
    if bank is None:
        bank = SliceBank.generate(g, rs.substream(11))
    core = square_up(F, g.nvars - d, rs.substream(12))
    entries = {}
    for idx, e in enumerate(sorted(candidates)):
        sel = bank.selection(e)
        pts = solve_zero_dim(F, sel.forms, rs.substream(13 + idx), opts)
        if pts:
            entries[e] = WitnessSet(F, core, sel, pts)
    if not entries:
        raise TrackingError("no candidate slice met the variety; empty collection")
    return WitnessCollection(F, bank, entries)


def slice_collection(wc: WitnessCollection, group: int) -> WitnessCollection:
    """Exact bookkeeping: move l_{group,1} into the system, shift keys by
    -eps_group, reuse every point verbatim.  No path is tracked."""
    if all(e[group] == 0 for e in wc.entries):
        raise ValueError(
            f"slicing group {group} empties the variety (all keys have e_{group} = 0)"
        )
    moved = wc.bank.forms[group][0]
    entries = {}
    for e, ws in wc.entries.items():
        if e[group] == 0:
            continue
        ne = tuple(x - (1 if i == group else 0) for i, x in enumerate(e))
        per_group = list(ws.selection.per_group)
        per_group[group] = per_group[group][1:]
        entries[ne] = replace(ws, selection=SliceSelection(ne, tuple(per_group)),
                              extra=ws.extra + (moved,))
    return WitnessCollection(wc.system, wc.bank.drop_first(group), entries)


def track_slice_motion(
    fixed: PolySystem | None,
    old_rows: Sequence[Polynomial],
    new_rows: Sequence[Polynomial],
    points: Sequence[np.ndarray],
    gamma: complex,
    opts: TrackOptions,
) -> list[np.ndarray | None]:
    """Track points of V(fixed, old_rows) to V(fixed, new_rows).

    The homotopy is [fixed; t*gamma*old_rows + (1-t)*new_rows]: the system
    stays put while only the rows in motion (slices, or coarsening's
    bilinear products) move.  Every operation on witness data that moves
    slices goes through here, and so does the one policy for failed paths:
    endpoints come back in the order of `points`, None for a path that
    diverged, and a path that neither converged nor diverged raises
    IndeterminateError.  With no rows in motion the points come back
    unchanged and no path is tracked."""
    if not old_rows and not new_rows:
        return list(points)
    h = Homotopy(PolySystem(old_rows), PolySystem(new_rows), gamma=gamma, fixed=fixed)
    results = track_many(h, points, opts)
    failed = sum(r.status == "failed" for r in results)
    if failed:
        raise IndeterminateError(f"{failed} of {len(results)} slice-motion paths failed")
    return [r.endpoint for r in results]


def move_slice(
    ws: WitnessSet,
    new_forms: Sequence[Polynomial],
    opts: TrackOptions = TrackOptions(),
    gamma: complex = 1.0,
) -> WitnessSet:
    """Track the points as the slice forms move along a convex combination."""
    old = ws.selection.forms
    new_forms = [f.with_grouping(ws.system.grouping) for f in new_forms]
    if len(new_forms) != len(old):
        raise ValueError(f"{len(new_forms)} new forms for {len(old)} slice rows")
    ends = track_slice_motion(ws.fixed_block, old, new_forms, ws.points, gamma, opts)
    return replace(ws, selection=ws.selection.replace_forms(new_forms),
                   points=dedupe_points([p for p in ends if p is not None]))


def refine(
    ws: WitnessSet,
    split: tuple[int, int],
    target_e: Sequence[int],
    rs: RandomSource,
    opts: TrackOptions = TrackOptions(),
) -> WitnessSet:
    """Transform a witness set when one group splits into two.

    split = (group, size of the first part); target_e is the key on the
    refined grouping.  Only the split group's slice forms move; paths that
    leave the affine patch diverge and are dropped.
    """
    group, first_size = split
    g = ws.grouping
    block = g.blocks[group]
    if not 0 < first_size < len(block):
        raise ValueError("first part must be a proper nonempty subpart of the group")
    new_g = g.split(group, block[:first_size])
    target_e = tuple(int(x) for x in target_e)
    if len(target_e) != new_g.k:
        raise ValueError(f"target key arity {len(target_e)}, expected {new_g.k}")
    e = ws.selection.counts()
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
        rs.substream(99).unit_complex(), opts,
    )
    per_group[group:group + 1] = [tuple(new_first), tuple(new_second)]
    return replace(ws, selection=SliceSelection(target_e, tuple(per_group)),
                   points=dedupe_points([p for p in ends if p is not None]), grouping=new_g)


@dataclass
class CoarsenResult:
    witness: WitnessSet
    delta: int  # start paths tracked (Segre-formula count)
    converged: int
    diverged: int


def coarsen(
    wc: WitnessCollection,
    merge: tuple[int, int],
    target_e: Sequence[int],
    rs: RandomSource,
    opts: TrackOptions = TrackOptions(),
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
    # groups other than a and b keep the same bank forms in every source
    src = next(iter(sources.values()))
    per_group = list(src.selection.per_group)
    per_group[a] = tuple(target_forms)
    del per_group[b]
    coarse = replace(src, selection=SliceSelection(target_e, tuple(per_group)), grouping=new_g)
    if e == 0:
        n = len(coarse.points)
        return CoarsenResult(coarse, delta=n, converged=n, diverged=0)

    # the start points W_{S,T}: S of the l10 forms on group a, the rest of l01 on b
    l10 = [random_affine_form(base_g, g.blocks[a], sub.substream(i)) for i in range(e)]
    l01 = [random_affine_form(base_g, g.blocks[b], sub.substream(50 + i)) for i in range(e)]
    starts: list[np.ndarray] = []
    for s, ws in sources.items():
        gamma = sub.substream(999 + s).unit_complex()
        for S in itertools.combinations(range(e), s):
            moving = list(ws.selection.per_group)
            moving[a] = [l10[i] for i in S]
            moving[b] = [l01[i] for i in range(e) if i not in S]
            moved = move_slice(ws, [f for fs in moving for f in fs], opts, gamma)
            if len(moved.points) != len(ws.points):
                raise TrackingError(
                    f"building W_(S,T) for key {ws.selection.e} lost "
                    f"{len(ws.points) - len(moved.points)} points"
                )
            starts.extend(moved.points)

    rest = [f for i, fs in enumerate(src.selection.per_group) if i not in (a, b) for f in fs]
    products = [l10[i] * l01[i] for i in range(e)]
    ends = track_slice_motion(
        src.fixed_block.concat(rest), products, target_forms, starts,
        sub.substream(1234).unit_complex(), opts,
    )
    pts = [p for p in ends if p is not None]
    return CoarsenResult(replace(coarse, points=dedupe_points(pts)), delta=len(starts),
                         converged=len(pts), diverged=len(starts) - len(pts))


def coarsen_collection(
    wc: WitnessCollection,
    merge: tuple[int, int],
    rs: RandomSource,
    opts: TrackOptions = TrackOptions(),
) -> tuple[WitnessCollection, list[CoarsenResult]]:
    """Coarsen every reachable key, sharing one coherent bank for the
    merged group so the result is a proper witness collection."""
    a, b = sorted(merge)
    new_g = wc.grouping.merge(a, b)
    bank_sub = rs.substream(17)
    merged_forms = [
        random_affine_form(wc.system.grouping, new_g.blocks[a], bank_sub.substream(i))
        for i in range(len(new_g.blocks[a]))
    ]
    bank_forms = list(wc.bank.forms)
    bank_forms[a] = merged_forms
    del bank_forms[b]
    new_keys = sorted(
        {key[:a] + (key[a] + key[b],) + key[a + 1:b] + key[b + 1:] for key in wc.entries}
    )
    entries = {}
    stats = []
    for key in new_keys:
        res = coarsen(wc, (a, b), key, rs.substream(hash(key) % 10000 + 1), opts,
                      target_forms=merged_forms[: key[a]])
        stats.append(res)
        if res.witness.points:
            entries[key] = res.witness
    return WitnessCollection(wc.system, SliceBank(new_g, bank_forms), entries), stats


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


def membership(
    wc: WitnessCollection,
    point,
    rs: RandomSource,
    opts: TrackOptions = TrackOptions(),
) -> bool:
    """Multiprojective membership: per key e, move L^e to forms vanishing
    at the query point and look for it among the endpoints."""
    point = np.asarray(point, dtype=complex)
    g = wc.grouping
    if point.size != g.nvars:
        raise ValueError(f"point has {point.size} coordinates, expected {g.nvars}")
    # the query must already satisfy the sliced-away part of the system
    if wc.extra:
        probe = PolySystem(list(wc.extra))
        if not relative_residual(probe.evaluate(point), probe.residual_scale(point)) < 1e-6:
            return False
    for idx, (_, ws) in enumerate(sorted(wc.entries.items())):
        sub = rs.substream(idx)
        new_forms = [
            random_affine_form(wc.system.grouping, g.blocks[i], sub.substream(10 * i + j),
                               through=point)
            for i, fs in enumerate(ws.selection.per_group)
            for j in range(len(fs))
        ]
        ends = track_slice_motion(
            ws.fixed_block, ws.selection.forms, new_forms, ws.points,
            sub.substream(77).unit_complex(), opts,
        )
        if any(p is not None and points_equal(p, point) for p in ends):
            return True
    return False
