from itertools import combinations

import numpy as np
import pytest

from multiwit import (
    DimensionProfile,
    IllConditionedError,
    RandomSource,
    compute_witness_collection,
    dimension_polytope,
    equidim_partition,
    local_multidimension,
    parse_system,
    product_factorization,
    tracker,
)
from multiwit.dimension import RANK_TOL, _stable_rank, polytope_proj_dim, slice_polytope
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


def _reference_profile(F, point) -> DimensionProfile:
    """The complement-column rule: dim_I = ker DF - ker DF restricted to the
    columns of the groups outside I, each rank from its own SVD of DF."""
    g = F.grouping
    J = F.jacobian(np.asarray(point, dtype=complex))

    def rank(M, what):
        s, unclear = np.linalg.svd(M, compute_uv=False), []
        (r,) = _stable_rank(s[None], s[0], what, 0, unclear)
        assert not unclear, unclear
        return int(r)

    ker_full = g.nvars - rank(J, "DF")
    proj = {}
    for r in range(1, g.k):
        for I in combinations(range(g.k), r):
            cols = sorted(v for i in range(g.k) if i not in I for v in g.blocks[i])
            proj[frozenset(I)] = ker_full - (len(cols) - rank(J[:, cols], f"DF off {I}"))
    return DimensionProfile(total_dim=ker_full, proj_dims=proj, k=g.k)


def _is_monotone(prof) -> bool:
    """dim_I <= dim_(I + {i}) for every proper nonempty I and i outside it."""
    return all(prof.dim(I) <= prof.dim(I | {i}) for I in prof.proj_dims
               for i in range(prof.k) if i not in I)


PROFILE_FIXTURES = ["cubic-split", "two-lines", "octahedron-fg", "octahedron-fh", "richardson",
                    "richardson-four", "point-times-surface", "affine-lines-cube",
                    "surface-and-line", "cubic"]


@pytest.mark.parametrize("name", PROFILE_FIXTURES)
def test_profiles_match_the_complement_column_rule(name):
    # one point at a time and as one stack of a collection's points, every
    # profile is the complement-column rule's
    fx = get_fixture(name)
    checked = 0
    for seed in (1, 2):
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        RandomSource(seed=seed, stream=13))
        points = [p for ws in wc.entries.values() for p in ws.points]
        stacked = local_multidimension(fx.system, np.array(points))
        assert len(stacked) == len(points)
        for p, row in zip(points, stacked):
            got = local_multidimension(fx.system, p)
            assert got.signature() == _reference_profile(fx.system, p).signature()
            assert row == got
            assert _is_monotone(got)
            checked += 1
    assert checked > 0


def _surface_and_line_stack():
    """Points of surface-and-line's surface x1 = 0 and of its line x2 = y = 1,
    interleaved: surface, line, surface, line, surface."""
    rng = np.random.default_rng(4)
    a, b, c = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3))
    return np.array([[0, a[0], b[0]], [c[0], 1, 1], [0, a[1], b[1]], [c[1], 1, 1],
                     [0, a[2], b[2]]])


def test_a_stack_of_mixed_tangent_dimensions():
    F = get_fixture("surface-and-line").system
    stack = _surface_and_line_stack()[:3]
    profiles = local_multidimension(F, stack)
    assert [prof.total_dim for prof in profiles] == [2, 1, 2]
    assert profiles == [local_multidimension(F, p) for p in stack]
    # rows with equal profiles share one profile
    assert profiles[0] is profiles[2] and profiles[0] is not profiles[1]


def test_a_point_with_no_tangent_space():
    F = parse_system("group x; group y; f1 = x - 1; f2 = x*y - 2;")
    single = local_multidimension(F, np.array([1, 2]))
    (row,) = local_multidimension(F, np.array([[1, 2]]))
    for prof in (single, row):
        assert prof.total_dim == 0
        assert prof.proj_dims == {frozenset({0}): 0, frozenset({1}): 0}


def test_chunks_give_the_same_profiles(monkeypatch):
    F = get_fixture("surface-and-line").system
    stack = _surface_and_line_stack()
    whole = local_multidimension(F, stack)
    rows, real_jacobian = [], type(F).jacobian

    def jacobian(self, point):
        rows.append(len(point))
        return real_jacobian(self, point)

    monkeypatch.setattr(tracker, "BATCH_PATHS", 2)
    monkeypatch.setattr(type(F), "jacobian", jacobian)
    assert local_multidimension(F, stack) == whole
    assert rows == [2, 2, 1]


def test_an_unclear_rank_names_its_row_in_the_stack(monkeypatch):
    # at (3e-8, 0) the singular values of DF are 1 and 3e-8, between the
    # two tolerances
    F = parse_system("group x; group y; f1 = x - 1; f2 = x*y - 2;")
    stack = np.array([[1, 2], [1, 2], [1, 2], [3e-8, 0]])
    with pytest.raises(IllConditionedError, match="rank of DF at point 3 is 2"):
        local_multidimension(F, stack)
    # in a later chunk the point keeps its index in the input
    monkeypatch.setattr(tracker, "BATCH_PATHS", 2)
    with pytest.raises(IllConditionedError, match="rank of DF at point 3 is 2"):
        local_multidimension(F, stack)


def test_every_unclear_rank_is_named_in_one_error(monkeypatch):
    # points 1 and 3 fall in different chunks, and the one error names both
    F = parse_system("group x; group y; f1 = x - 1; f2 = x*y - 2;")
    stack = np.array([[1, 2], [3e-8, 0], [1, 2], [3e-8, 0]])
    monkeypatch.setattr(tracker, "BATCH_PATHS", 2)
    with pytest.raises(IllConditionedError) as raised:
        local_multidimension(F, stack)
    assert str(raised.value) == (
        "rank of DF at point 1 is 2 at tol 1e-08 but 1 at 1e-07; the point does not look "
        "general; 1 more unclear: rank of DF at point 3 is 2 at tol 1e-08 but 1 at 1e-07")


def test_equidim_partition_of_no_points():
    assert equidim_partition(get_fixture("surface-and-line").system, []) == []


def test_one_jacobian_and_one_svd_of_it_per_profile(monkeypatch):
    # a point, or a stack of points, costs one kernel call, one stacked SVD
    # of DF and one SVD of the tangent bases' rows per proper nonempty
    # group subset
    fx = get_fixture("octahedron-fh")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(52))
    points = np.array([p for ws in wc.entries.values() for p in ws.points])
    m, n = len(fx.system), fx.system.grouping.nvars
    jacobians, shapes = [], []
    real_jacobian, real_svd = type(fx.system).jacobian, np.linalg.svd

    def jacobian(self, point):
        jacobians.append(point)
        return real_jacobian(self, point)

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(type(fx.system), "jacobian", jacobian)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for stack, b in ((points[0], 1), (points, len(points))):
        jacobians.clear()
        shapes.clear()
        local_multidimension(fx.system, stack)
        assert len(jacobians) == 1
        assert shapes[0] == (b, m, n)
        assert len(shapes) == 1 + 2 ** fx.system.grouping.k - 2
        assert all(shape[0] == b for shape in shapes)


def test_stable_rank_known_ranks():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    s = np.linalg.svd(A, compute_uv=False)
    assert list(_stable_rank(s[None], s[0], "A", 0, [])) == [3]
    assert list(_stable_rank(s[None], 10 * s[0] / RANK_TOL, "A", 0, [])) == [0]
    B = np.outer(A[:, 0], np.conj(A[:, 1]))
    s = np.linalg.svd(B, compute_uv=False)
    assert list(_stable_rank(s[None], s[0], "B", 0, [])) == [1]
    with np.errstate(all="raise"):
        assert list(_stable_rank(np.zeros((1, 4)), 0.0, "zero", 0, [])) == [0]
    # a singular value between the two tolerances makes the rank unstable
    unclear = []
    _stable_rank(np.array([[1.0, 1.0, 3e-8]]), 1.0, "C", 0, unclear)
    assert unclear == ["rank of C at point 0 is 3 at tol 1e-08 but 2 at 1e-07"]
    # each row gets its own rank, and an unclear row is named by its
    # point's index: row i is point first + i
    stack = np.array([[2.0, 1e-12, 0.0], [1.0, 0.5, 0.0]])
    assert list(_stable_rank(stack, stack[..., :1], "D", 0, unclear)) == [1, 2]
    assert len(unclear) == 1
    _stable_rank(np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 3e-8]]), 1.0, "E", 4, unclear)
    assert unclear[1:] == ["rank of E at point 5 is 3 at tol 1e-08 but 2 at 1e-07"]


def test_profile_signature_and_monotonicity(split_point):
    prof = DimensionProfile(total_dim=1,
                            proj_dims={frozenset({0}): 1, frozenset({1}): 1},
                            k=2)
    other = DimensionProfile(total_dim=0,
                             proj_dims={frozenset({0}): 1, frozenset({1}): 0},
                             k=2)
    assert prof.signature() == (1, (((0,), 1), ((1,), 1)))
    assert prof.signature() != other.signature()
    # a computed profile is monotone by construction: dropping rows of the
    # tangent basis never raises its rank
    assert not _is_monotone(other)
    fx, p = split_point
    assert _is_monotone(local_multidimension(fx.system, p))


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
