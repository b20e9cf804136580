"""Local multidimension at a smooth point and the dimension polytope.

At a general smooth point x of a component X of V(F), the tangent space
T = ker DF(x) has dimension dim X, and each projected dimension dim_I(X)
is the rank of the projection of T to the groups in I: the rank of the
I-rows of an orthonormal basis of T.  Dropping rows never raises a
singular value, so the profile is monotone in I.  The lattice points e
with |e| = dim X and sum_{i in I} e_i <= dim_I for all proper subsets I
form the dimension polytope Dim(X) (a polymatroid polytope).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

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


def _stable_rank(s: np.ndarray, scale: float, what: str) -> int:
    """Count of singular values s above RANK_TOL * scale; the count at
    10 * RANK_TOL * scale must agree."""
    r1, r2 = (int(np.count_nonzero(s > tol * scale)) for tol in (RANK_TOL, 10 * RANK_TOL))
    if r1 != r2:
        raise IllConditionedError(
            f"rank of {what} is {r1} at tol {RANK_TOL:g} but {r2} at {10 * RANK_TOL:g}; "
            "the point does not look general"
        )
    return r1


def local_multidimension(F: PolySystem, point) -> DimensionProfile:
    """Dimension profile of the component of V(F) through a smooth point."""
    g = F.grouping
    k = g.k
    if k > MAX_GROUPS:
        raise ValueError(f"at most {MAX_GROUPS} groups supported, got {k}")
    _, s, vh = np.linalg.svd(F.jacobian(np.asarray(point, dtype=complex)))
    rank = _stable_rank(s, s[0], "DF")
    tangent = vh[rank:].conj().T  # orthonormal basis of ker DF, one row per variable
    proj = {}
    for r in range(1, k):
        for I in combinations(range(k), r):
            rows = [v for i in I for v in g.blocks[i]]
            s_I = np.linalg.svd(tangent[rows], compute_uv=False)
            proj[frozenset(I)] = _stable_rank(s_I, 1.0, f"the tangent space on groups {I}")
    return DimensionProfile(total_dim=g.nvars - rank, proj_dims=proj, k=k)


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
    """Partition points by equal dimension profile.

    Returns a list of (profile, indices into `points`) pairs, in order of
    first appearance."""
    groups: dict = {}  # signature -> (profile, indices), in insertion order
    for i, p in enumerate(points):
        prof = local_multidimension(F, p)
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
