import numpy as np
import pytest

from multiwit import (
    DimensionProfile,
    IllConditionedError,
    compute_witness_collection,
    dimension_polytope,
    equidim_partition,
    local_multidimension,
    product_factorization,
)
from multiwit.dimension import _stable_rank, polytope_proj_dim, slice_polytope
from multiwit.fixtures import get_fixture

from conftest import rs


@pytest.fixture(scope="module")
def split_point():
    fx = get_fixture("cubic-split")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(50))
    return fx, wc.entries[(1, 0)].points[0]


def test_local_multidimension_of_split_cubic(split_point):
    fx, p = split_point
    prof = local_multidimension(fx.system, p)
    assert prof.total_dim == 1
    assert prof.dim([0]) == 1
    assert prof.dim([1]) == 1
    assert prof.dim([]) == 0
    assert prof.dim([0, 1]) == 1


def test_stable_rank_known_ranks():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    assert _stable_rank(A, "A") == 3
    B = np.outer(A[:, 0], np.conj(A[:, 1]))
    assert _stable_rank(B, "B") == 1
    assert _stable_rank(np.zeros((4, 4)), "zero") == 0
    # a singular value between the two tolerances makes the rank unstable
    C = np.diag([1.0, 1.0, 3e-8])
    with pytest.raises(IllConditionedError, match="rank of C is 3"):
        _stable_rank(C, "C")


def test_profile_signature_and_monotonicity():
    prof = DimensionProfile(total_dim=1,
                            proj_dims={frozenset({0}): 1, frozenset({1}): 1},
                            k=2)
    assert prof.check_monotone()
    bad = DimensionProfile(total_dim=0,
                           proj_dims={frozenset({0}): 1, frozenset({1}): 0},
                           k=2)
    assert not bad.check_monotone()
    assert prof.signature() != bad.signature()


def test_dimension_polytope_from_profile():
    prof = DimensionProfile(total_dim=1,
                            proj_dims={frozenset({0}): 1, frozenset({1}): 1},
                            k=2)
    assert dimension_polytope(prof, (1, 1)) == frozenset({(1, 0), (0, 1)})


def test_dimension_polytope_respects_subset_bounds():
    # dim 2 total, but the first two groups jointly only reach 1
    proj = {
        frozenset({0}): 1, frozenset({1}): 1, frozenset({2}): 1,
        frozenset({0, 1}): 1, frozenset({0, 2}): 2, frozenset({1, 2}): 2,
    }
    prof = DimensionProfile(total_dim=2, proj_dims=proj, k=3)
    poly = dimension_polytope(prof, (1, 1, 1))
    assert poly == frozenset({(1, 0, 1), (0, 1, 1)})


def test_dimension_polytope_arity_check():
    prof = DimensionProfile(total_dim=1,
                            proj_dims={frozenset({0}): 1, frozenset({1}): 1},
                            k=2)
    with pytest.raises(ValueError):
        dimension_polytope(prof, (1, 1, 1))


def test_slice_polytope_and_proj_dim():
    poly = frozenset({(1, 1, 0), (1, 0, 1), (0, 1, 1)})
    assert slice_polytope(poly, 0) == frozenset({(0, 1, 0), (0, 0, 1)})
    assert polytope_proj_dim(poly, [0]) == 1
    assert polytope_proj_dim(poly, [0, 1]) == 2


def test_product_factorization_splits_products():
    A = [(0,), (1,)]
    B = [(1, 2), (2, 1)]
    points = [a + b for a in A for b in B]
    blocks = product_factorization(points)
    assert (0,) in blocks
    total = 1
    for b in blocks:
        total *= len({tuple(p[i] for i in b) for p in points})
    assert total == len(points)


def test_product_factorization_keeps_coupled_polytopes_whole():
    # e_0 + e_1 = 1 couples the two groups
    assert product_factorization([(1, 0), (0, 1)]) == [(0, 1)]
    with pytest.raises(ValueError):
        product_factorization([])


def test_equidim_partition_single_class():
    fx = get_fixture("two-lines")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(51))
    pts = wc.entries[(1,)].points
    classes = equidim_partition(fx.system, pts)
    assert len(classes) == 1
    prof, members = classes[0]
    assert prof.total_dim == 1
    assert len(members) == 2
