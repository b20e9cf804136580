"""Numerical irreducible decomposition for multiaffine varieties.

The multiprojective sorting loop reduces the component through each
sample point to an irreducible affine curve — slice away as much
dimension as the polytope allows, then cut with mixed-group forms whose
group supports grow along an ordering compatible with the projected
dimensions — grows its witness points until the trace test passes, and
derives a membership test by moving the curve's linear system from the
sample point to the query point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import Polynomial, PolySystem, VariableGrouping
from .dimension import (
    DimensionProfile,
    dimension_polytope,
    equidim_partition,
    polytope_proj_dim,
    slice_polytope,
)
from .monodromy import grow_witness_set
from .sysio import RandomSource
from .startsys import random_affine_form, square_up
from .tracker import IndeterminateError, TrackingError
from .witness import SliceSelection, WitnessSet, passes_through


def compute_slice_vector(polytope) -> tuple[tuple[int, ...], frozenset]:
    """The coordinatewise-maximal m with X cap V(L^m) still irreducible.

    Slicing group i preserves irreducibility while the projection to
    factor i has dimension >= 2; on the polytope that reads off as
    max_e e_i >= 2.  Group order does not matter (unit slices commute)."""
    current = frozenset(polytope)
    k = len(next(iter(current)))
    m = [0] * k
    for i in range(k):
        while polytope_proj_dim(current, [i]) >= 2:
            current = slice_polytope(current, i)
            m[i] += 1
    return tuple(m), current


def order_support(e: tuple[int, ...], sliced_polytope) -> list[int]:
    """Order supp(e) so prefix projections have dim exactly 1, 2, 3, ...

    Dimensions are read off the sliced polytope (max coordinate sums)."""
    support = [i for i, x in enumerate(e) if x > 0]

    def backtrack(prefix: list, rest: list) -> list | None:
        if not rest:
            return prefix
        j = len(prefix) + 1
        for idx, cand in enumerate(rest):
            if polytope_proj_dim(sliced_polytope, prefix + [cand]) == j:
                out = backtrack(prefix + [cand], rest[:idx] + rest[idx + 1:])
                if out is not None:
                    return out
        return None

    ordered = backtrack([], support)
    if ordered is None:
        raise TrackingError(f"no admissible ordering of the support of {e}")
    return ordered


@dataclass
class ComponentRecord:
    profile: DimensionProfile
    polytope: frozenset
    m: tuple[int, ...]
    e: tuple[int, ...]
    I_order: list[int]
    # key (1,) on one group of all variables; its extra holds the
    # slice-away forms and the mixed-group curve cuts, all through the
    # sample point the component was built from
    curve_witness: WitnessSet
    certified = True  # build_component raises rather than leave a curve uncertified

    @property
    def curve_degree(self) -> int:
        return len(self.curve_witness.points)

    def to_summary(self) -> dict:
        return {
            "dim": self.profile.total_dim,
            "polytope": sorted(self.polytope),
            "m": list(self.m),
            "e": list(self.e),
            "I_order": list(self.I_order),
            "curve_degree": self.curve_degree,
            "certified": self.certified,
        }


@dataclass
class Decomposition:
    components: list
    assignment: dict  # input point index -> component index
    diagnostics: list = field(default_factory=list)


def build_component(
    F: PolySystem,
    p: np.ndarray,
    profile: DimensionProfile,
    rs: RandomSource,
) -> ComponentRecord:
    """Reduce the component through p to a certified irreducible affine curve."""
    g = F.grouping
    p = np.asarray(p, dtype=complex)
    polytope = dimension_polytope(profile, g.sizes)
    m, sliced = compute_slice_vector(polytope)
    e = min(sliced)  # lexicographically smallest {0,1}-vector
    if sum(m) + sum(e) != profile.total_dim:
        raise TrackingError(
            f"slice bookkeeping broke: |m|+|e| = {sum(m) + sum(e)} "
            f"but dim = {profile.total_dim}"
        )
    I_order = order_support(e, sliced)

    # Slice-away forms: m_i general forms per group, all vanishing at p.
    L: list[Polynomial] = []
    sub = rs.substream(61)
    for i in range(g.k):
        for j in range(m[i]):
            L.append(random_affine_form(g, g.blocks[i], sub.substream(10 * i + j), through=p))
    # Mixed-group cuts: l_j general in the groups i_1..i_{j+1}, through p.
    for j in range(1, len(I_order)):
        vars_j = [v for i in I_order[: j + 1] for v in g.blocks[i]]
        L.append(random_affine_form(g, vars_j, sub.substream(500 + j), through=p))

    # One more generic form through p completes a witness of the curve C_L.
    ell0 = random_affine_form(g, list(range(g.nvars)), sub.substream(999), through=p)
    core = square_up(F, g.nvars - len(L) - 1, rs.substream(62))
    curve_g = VariableGrouping.from_sizes([g.nvars], g.names)
    ws = WitnessSet(F, core, SliceSelection(((ell0,),)), [p], grouping=curve_g, extra=L)
    return ComponentRecord(
        profile=profile,
        polytope=polytope,
        m=m,
        e=e,
        I_order=I_order,
        curve_witness=grow_witness_set(ws, rs.substream(63)),
    )


def component_membership(rec: ComponentRecord, queries, rs: RandomSource) -> list[bool | None]:
    """For each query q, translate the curve's linear system, cuts and
    slice, from p to q and look for q among the endpoints: every query in
    one homotopy drawn from rs (`witness.passes_through`).  A query whose
    paths failed gets None."""
    ws = rec.curve_witness
    return passes_through(ws.sq_core, list(ws.extra) + ws.selection.forms, ws.points,
                          queries, rs)


def nid_multi(F: PolySystem, W, rs: RandomSource) -> Decomposition:
    """Sort general smooth points of V(F) into irreducible components.

    A component whose growth fails is built once more on a fresh substream;
    a sample point whose component fails twice is left unassigned with a
    line in `diagnostics`.  The other points are asked about a component in
    one batch; the queries that fail are asked once more, as one batch, on
    a fresh substream, and a point whose query fails twice gets a line too,
    and is deferred to a later component or sample."""
    classes = equidim_partition(F, W)
    components: list[ComponentRecord] = []
    assignment: dict = {}
    diagnostics: list = []
    samples = itertools.count()
    for profile, indices in classes:
        remaining = list(indices)
        while remaining:
            i, *remaining = remaining
            sub = rs.substream(7000 + 13 * next(samples))
            try:
                try:
                    rec = build_component(F, W[i], profile, sub)
                except IndeterminateError:
                    rec = build_component(F, W[i], profile, sub.substream(1))
            except IndeterminateError as exc:
                diagnostics.append(f"point {i} left unassigned: {exc}")
                continue
            members = [i]
            rest = []
            query = rs.substream(len(components) * 31 + 5)
            verdicts = [None] * len(remaining)
            for stream in (query, query.substream(1)):
                asked = [k for k, member in enumerate(verdicts) if member is None]
                if asked:
                    answers = component_membership(rec, [W[remaining[k]] for k in asked], stream)
                    for k, member in zip(asked, answers):
                        verdicts[k] = member
            for j, member in zip(remaining, verdicts):
                if member is None:
                    diagnostics.append(f"query of point {j} failed, deferred: "
                                       "its paths failed on two streams")
                (members if member else rest).append(j)
            for j in members:
                assignment[j] = len(components)
            components.append(rec)
            remaining = rest
    return Decomposition(components, assignment, diagnostics)
