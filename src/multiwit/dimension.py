"""Local multidimension at a smooth point and the dimension polytope.

At a general smooth point x of a component X of V(F), the tangent space
T = ker DF(x) has dimension dim X, and each projected dimension dim_I(X)
is the rank of the projection of T to the groups in I: the rank of the
I-rows of an orthonormal basis of T.  Dropping rows never raises a
singular value, so the profile is monotone in I.  The lattice points e
with |e| = dim X and sum_{i in I} e_i <= dim_I for all proper subsets I
form the dimension polytope Dim(X) (a polymatroid polytope).

`local_multidimension` is the one tangent-space pass: it reads a stack of
points BATCH_PATHS at a time, with one kernel call and one stacked SVD of
DF per chunk and one stacked SVD per proper group subset, and every rank
it takes is decided by `_stable_rank`.  `equidim_partition` reads its
dimensions from it; whether a witness point is kept is `newton_refine`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from . import tracker
from .algebra import PolySystem

MAX_GROUPS = 16
# Numerical rank tolerance: relative to the largest singular value of DF,
# absolute for the rows of the orthonormal tangent basis (whose singular
# values are at most 1).
RANK_TOL = 1e-8


class IllConditionedError(RuntimeError):
    """A numerical rank of DF or of a projected tangent basis changed
    between RANK_TOL and 10 * RANK_TOL: the point does not look general."""


@dataclass(frozen=True)
class DimensionProfile:
    total_dim: int
    proj_dims: dict  # frozenset of group indices -> dim_I
    k: int

    def dim(self, I) -> int:
        I = frozenset(I)
        if not I:
            return 0
        if len(I) == self.k:
            return self.total_dim
        return self.proj_dims[I]

    def signature(self) -> tuple:
        """Hashable identity for grouping points by profile."""
        items = tuple(sorted((tuple(sorted(I)), d) for I, d in self.proj_dims.items()))
        return (self.total_dim, items)


def _stable_rank(s: np.ndarray, scale, what: str, first: int, unclear: list) -> np.ndarray:
    """Count of singular values s above RANK_TOL * scale in each row of a
    stack; the count at 10 * RANK_TOL * scale must agree.  Row i is point
    first + i of the input, and each row that disagrees is named in a line
    appended to `unclear`."""
    r1, r2 = (np.count_nonzero(s > tol * scale, axis=-1) for tol in (RANK_TOL, 10 * RANK_TOL))
    unclear += [f"rank of {what} at point {first + i} is {r1[i]} at tol {RANK_TOL:g} "
                f"but {r2[i]} at {10 * RANK_TOL:g}" for i in np.flatnonzero(r1 != r2)]
    return r1


def _tangent_ranks(F: PolySystem, chunk: np.ndarray, first: int, subsets: list,
                   rows: list, unclear: list) -> tuple:
    """(rank of DF, dim_I per subset) at each row of a chunk of points, the
    first being point `first` of the input: one kernel call and one stacked
    SVD of DF, then one stacked SVD of the tangent bases' rows per subset.
    Each rank that is not clear is named in `unclear`."""
    n = F.grouping.nvars
    _, s, vh = np.linalg.svd(F.jacobian(chunk))
    rank = _stable_rank(s, s[..., :1], "DF", first, unclear)
    # a row's tangent basis is vh[rank:]; to stack them, take vh[low:] for
    # the chunk's least rank and zero each row's vectors before its own
    # rank, since zero vectors add no rank
    low = rank.min()
    vh = vh[:, low:]
    vh[np.arange(n - low) < (rank - low)[:, None]] = 0
    tangent = vh.conj().swapaxes(1, 2)  # one row per variable
    dims = np.zeros((len(chunk), len(subsets)), dtype=int)
    for j, (I, r) in enumerate(zip(subsets, rows)):
        s_I = np.linalg.svd(tangent[:, r], compute_uv=False)
        dims[:, j] = _stable_rank(s_I, 1.0, f"the tangent space on groups {I}", first, unclear)
    return rank, dims


def local_multidimension(F: PolySystem, points):
    """Dimension profile of the component of V(F) through a smooth point,
    or a list of them, one per row of a (B, n) array of points.

    The rows go BATCH_PATHS at a time through `_tangent_ranks`, and rows
    with equal profiles share one `DimensionProfile`.  After the last chunk,
    ranks that are not clear raise one IllConditionedError that names each,
    by its point's index in the input and which rank it is."""
    g = F.grouping
    k = g.k
    if k > MAX_GROUPS:
        raise ValueError(f"at most {MAX_GROUPS} groups supported, got {k}")
    x = np.asarray(points, dtype=complex)
    stack = x.reshape(-1, x.shape[-1])
    subsets = [I for r in range(1, k) for I in combinations(range(k), r)]
    rows = [[v for i in I for v in g.blocks[i]] for I in subsets]
    profiles, shared, unclear = [], {}, []  # shared: (dim, dim_I...) bytes -> its one profile
    for first in range(0, len(stack), tracker.BATCH_PATHS):
        chunk = stack[first:first + tracker.BATCH_PATHS]
        rank, dims = _tangent_ranks(F, chunk, first, subsets, rows, unclear)
        for row in np.column_stack([g.nvars - rank, dims]):
            key = row.tobytes()
            if key not in shared:
                shared[key] = DimensionProfile(
                    total_dim=int(row[0]),
                    proj_dims={frozenset(I): int(d) for I, d in zip(subsets, row[1:])}, k=k)
            profiles.append(shared[key])
    if unclear:
        named, *others = unclear
        more = f"; {len(others)} more unclear: " + "; ".join(others) if others else ""
        raise IllConditionedError(f"{named}; the point does not look general{more}")
    return profiles[0] if x.ndim == 1 else profiles


def dimension_polytope(profile: DimensionProfile, nvec: Sequence[int]) -> frozenset:
    """All e in [nvec] with |e| = dim and the polymatroid inequalities."""
    nvec = tuple(int(x) for x in nvec)
    k = len(nvec)
    if k != profile.k:
        raise ValueError(f"nvec arity {k} does not match profile arity {profile.k}")
    total = profile.total_dim
    singles = [profile.dim([i]) for i in range(k)]
    out = []

    def recurse(i: int, prefix: list, remaining: int):
        if i == k:
            if remaining == 0:
                e = tuple(prefix)
                for r in range(1, k):
                    for I in combinations(range(k), r):
                        if sum(e[j] for j in I) > profile.dim(I):
                            return
                out.append(e)
            return
        hi = min(nvec[i], singles[i], remaining)
        for x in range(hi + 1):
            prefix.append(x)
            recurse(i + 1, prefix, remaining - x)
            prefix.pop()

    recurse(0, [], total)
    if not out:
        raise ValueError("dimension polytope is empty; profile inconsistent with nvec")
    return frozenset(out)


def slice_polytope(points, group: int) -> frozenset:
    """Lattice points of Dim(X cap V(l)) for a general l in one group."""
    out = {
        tuple(x - (1 if i == group else 0) for i, x in enumerate(e))
        for e in points
        if e[group] > 0
    }
    return frozenset(out)


def polytope_proj_dim(points, I) -> int:
    """dim_I read off the polytope: max coordinate sum over I."""
    return max(sum(e[i] for i in I) for e in points)


def equidim_partition(F: PolySystem, points: Sequence) -> list:
    """Partition points by equal dimension profile, from one
    `local_multidimension` pass over all of them.

    Returns a list of (profile, indices into `points`) pairs, in order of
    first appearance."""
    groups: dict = {}  # signature -> (profile, indices), in insertion order
    stack = np.reshape(points, (-1, F.grouping.nvars))
    for i, prof in enumerate(local_multidimension(F, stack)):
        groups.setdefault(prof.signature(), (prof, []))[1].append(i)
    return list(groups.values())


def _projection(points, block) -> frozenset:
    return frozenset(tuple(e[i] for i in block) for e in points)


def _is_product(points, block_a, block_b) -> bool:
    # the union's projection lies in pa x pb, so equal sizes mean equality
    union = _projection(points, sorted(block_a) + sorted(block_b))
    pa = _projection(points, sorted(block_a))
    pb = _projection(points, sorted(block_b))
    return len(union) == len(pa) * len(pb)


def product_factorization(points) -> list[tuple[int, ...]]:
    """Finest partition of the groups under which the polytope is a product."""
    points = frozenset(tuple(e) for e in points)
    if not points:
        raise ValueError("empty dimension polytope")
    k = len(next(iter(points)))
    blocks = [[i] for i in range(k)]
    # merge the first pair of blocks that is not a product until none is left
    while pair := next(((x, y) for x, y in combinations(range(len(blocks)), 2)
                        if not _is_product(points, blocks[x], blocks[y])), None):
        x, y = pair
        blocks[x] = sorted(blocks[x] + blocks.pop(y))
    # global verification: the pairwise fixpoint must reproduce the polytope
    count = 1
    for b in blocks:
        count *= len(_projection(points, sorted(b)))
    if count != len(points):
        return [tuple(range(k))]
    return [tuple(b) for b in blocks]
