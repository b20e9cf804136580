import numpy as np
import pytest

import multiwit.nid as nid
import multiwit.tracker as tracker
from multiwit import (
    IndeterminateError,
    RandomSource,
    component_membership,
    compute_witness_collection,
    dimension_polytope,
    local_multidimension,
    nid_multi,
    product_factorization,
)
from multiwit.fixtures import OCTAHEDRON_KEYS, get_fixture
from multiwit.nid import compute_slice_vector, order_support

from conftest import rs


def test_compute_slice_vector_stops_at_dimension_one():
    assert compute_slice_vector(frozenset({(2,)})) == ((1,), frozenset({(1,)}))
    # a curve polytope needs no slicing at all
    poly = frozenset({(1, 0), (0, 1)})
    m, sliced = compute_slice_vector(poly)
    assert m == (0, 0)
    assert sliced == poly


def test_compute_slice_vector_octahedron():
    m, sliced = compute_slice_vector(frozenset(OCTAHEDRON_KEYS))
    assert m == (0, 0, 0, 0)  # every projection already has dimension 1
    assert sliced == frozenset(OCTAHEDRON_KEYS)


def test_order_support_prefix_dimensions():
    poly = frozenset(OCTAHEDRON_KEYS)
    e = min(OCTAHEDRON_KEYS)
    assert e == (0, 0, 1, 1)
    order = order_support(e, poly)
    assert sorted(order) == [2, 3]
    # the prefix projections must have dimensions exactly 1 then 2
    from multiwit.dimension import polytope_proj_dim

    assert polytope_proj_dim(poly, order[:1]) == 1
    assert polytope_proj_dim(poly, order) == 2


@pytest.fixture(scope="module")
def two_lines_data():
    fx = get_fixture("two-lines")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(80))
    return fx, wc


def test_nid_multi_separates_the_lines(two_lines_data):
    fx, wc = two_lines_data
    points = list(wc.entries[(1,)].points)
    dec = nid_multi(fx.system, points, rs(82))
    assert len(dec.components) == 2
    assert not dec.diagnostics
    assert sorted(dec.assignment.values()) == [0, 1]
    for rec in dec.components:
        assert rec.certified
        # an ordinary key-(1,) witness set on one group of all variables
        curve = rec.curve_witness
        assert curve.selection.e == (1,)
        assert curve.grouping.sizes == (fx.system.grouping.nvars,)
        assert rec.curve_degree == 1
        assert rec.profile.total_dim == 1


def test_component_membership_distinguishes_lines(two_lines_data):
    fx, wc = two_lines_data
    points = list(wc.entries[(1,)].points)
    dec = nid_multi(fx.system, points, rs(83))
    rec0 = dec.components[0]
    own = next(p for i, p in enumerate(points) if dec.assignment[i] == 0)
    other = next(p for i, p in enumerate(points) if dec.assignment[i] == 1)
    assert component_membership(rec0, [own, other], rs(84)) == [True, False]


@pytest.fixture(scope="module")
def richardson_four_data():
    fx = get_fixture("richardson-four")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(13))
    points = [p for _, ws in sorted(wc.entries.items()) for p in ws.points]
    return points, nid_multi(fx.system, points, rs(13).substream(99))


def test_batched_verdicts_are_each_querys_own(two_lines_data, richardson_four_data,
                                              monkeypatch):
    # a query's verdict is the one it gets asked alone, whatever the other
    # queries in its batch, their order, or the chunk size
    fx, wc = two_lines_data
    lines = list(wc.entries[(1,)].points)
    for points, dec in ((lines, nid_multi(fx.system, lines, rs(82))), richardson_four_data):
        assert not dec.diagnostics
        for c, rec in enumerate(dec.components):
            batch = component_membership(rec, points, rs(85))
            assert [j for j, member in enumerate(batch) if member] == \
                sorted(j for j, k in dec.assignment.items() if k == c)
            assert component_membership(rec, points[::-1], rs(85)) == batch[::-1]
            every_fifth = range(c, len(points), 5)
            assert [component_membership(rec, [points[j]], rs(85))[0]
                    for j in every_fifth] == [batch[j] for j in every_fifth]
            with monkeypatch.context() as mp:
                mp.setattr(tracker, "BATCH_PATHS", 2)
                assert component_membership(rec, points, rs(85)) == batch


def test_nid_multi_defers_only_the_point_of_a_failed_query(monkeypatch):
    # one path of the last query in each batch fails: that point alone is
    # asked again, alone, fails again and is deferred, while the other
    # query of its batch still joins the component
    fx = get_fixture("cubic")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(84))
    points = list(wc.entries[(1,)].points)
    track, batches = tracker.track_many, []

    def last_query_fails(h, starts, member=None):
        results = track(h, starts, member)
        if h.members is not None:  # a membership batch, one member per query
            batches.append(len(starts))
            results[-1] = tracker.PathResult("failed", None, 0)
        return results

    monkeypatch.setattr(tracker, "track_many", last_query_fails)
    dec = nid_multi(fx.system, points, rs(86))
    assert batches == [2 * 3, 3]  # two queries of three paths, then the failed one
    assert [rec.curve_degree for rec in dec.components] == [3, 3]
    (q,) = [j for j, c in dec.assignment.items() if c == 1]
    assert sorted(dec.assignment) == [0, 1, 2]
    assert dec.diagnostics == [
        f"query of point {q} failed, deferred: its paths failed on two streams"]


@pytest.mark.parametrize("name, e, I_order, curve_degree", [
    ("octahedron-fg", (0, 0, 1, 1), [2, 3], 4),
    ("affine-lines-cube", (1, 1, 1), [0, 1, 2], 1),
])
def test_nid_multi_cuts_with_mixed_group_forms(name, e, I_order, curve_degree):
    # e has more than one group in its support, so build_component cuts the
    # component with forms on the growing group prefixes of I_order
    fx = get_fixture(name)
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(1))
    points = [p for _, ws in sorted(wc.entries.items()) for p in ws.points]
    dec = nid_multi(fx.system, points, rs(101))
    assert len(dec.components) == 1
    (rec,) = dec.components
    assert (rec.e, rec.I_order, rec.curve_degree, rec.certified) == (e, I_order, curve_degree, True)
    assert dec.assignment == {i: 0 for i in range(len(points))}
    assert not dec.diagnostics


def test_nid_multi_keeps_the_octahedron_surface_whole():
    # with growth stopped after a few quiet loops, this draw kept a degree-3
    # curve that the trace test had not passed as a component, and the two
    # points it missed became a second component
    fx = get_fixture("octahedron-fg")
    wc = compute_witness_collection(fx.system, fx.default_keys,
                                    RandomSource(seed=20230529, stream=5))
    points = [p for _, ws in sorted(wc.entries.items()) for p in ws.points]
    assert len(points) == 20
    dec = nid_multi(fx.system, points, RandomSource(seed=20230529, stream=105))
    assert [rec.curve_degree for rec in dec.components] == [4]
    assert dec.assignment == {i: 0 for i in range(20)}
    assert not dec.diagnostics


def unassigned_but_assigned(dec) -> list:
    """Indices a diagnostics line calls "left unassigned" that have a component."""
    named = [int(line.split()[1]) for line in dec.diagnostics if "left unassigned" in line]
    return [i for i in named if i in dec.assignment]


def failing_growth(monkeypatch, failures):
    """Make the first `failures` growths raise IndeterminateError; returns
    the streams every growth was called with."""
    real = nid.grow_witness_set
    streams = []

    def grow(ws, rs):
        streams.append(rs.stream)
        if len(streams) <= failures:
            raise IndeterminateError("the trace test failed after 60 loops")
        return real(ws, rs)

    monkeypatch.setattr(nid, "grow_witness_set", grow)
    return streams


def test_nid_multi_retries_a_failed_component(two_lines_data, monkeypatch):
    fx, wc = two_lines_data
    points = list(wc.entries[(1,)].points)
    streams = failing_growth(monkeypatch, failures=1)
    dec = nid_multi(fx.system, points, rs(82))
    assert len(streams) == 3 and len(set(streams)) == 3
    assert len(dec.components) == 2
    assert sorted(dec.assignment.values()) == [0, 1]
    assert not dec.diagnostics


def test_nid_multi_reports_a_point_whose_component_fails_twice(two_lines_data, monkeypatch):
    fx, wc = two_lines_data
    points = list(wc.entries[(1,)].points)
    streams = failing_growth(monkeypatch, failures=2)
    dec = nid_multi(fx.system, points, rs(82))
    # the first sample point fails on both streams and is left unassigned;
    # the second builds the component of its own line
    assert len(set(streams)) == 3
    assert len(dec.components) == 1
    (placed,) = dec.assignment
    assert dec.assignment[placed] == 0
    (line,) = dec.diagnostics
    assert line.startswith(f"point {1 - placed} left unassigned")
    assert "60 loops" in line
    assert not unassigned_but_assigned(dec)


def test_nid_multi_names_the_point_of_a_failed_query(two_lines_data, monkeypatch):
    fx, wc = two_lines_data
    points = list(wc.entries[(1,)].points)
    queried = []

    def failing_query(rec, queries, rs):
        queried.append(([next(i for i, p in enumerate(points) if np.array_equal(p, q))
                         for q in queries], rs.stream))
        return [None] * len(queries)

    monkeypatch.setattr(nid, "component_membership", failing_query)
    dec = nid_multi(fx.system, points, rs(82))
    # the query fails on two streams; the queried point stays out of the
    # first component and then builds the component of its own line, with
    # no point left to ask about
    ([q], first), (again, retry) = queried
    assert again == [q] and first != retry
    assert dec.assignment == {1 - q: 0, q: 1}
    assert dec.diagnostics == [
        f"query of point {q} failed, deferred: its paths failed on two streams"]
    assert not unassigned_but_assigned(dec)


def test_nid_multi_retries_a_failed_query(two_lines_data, monkeypatch):
    # the same point twice: its query fails once, and the retry finds it
    # on the component built from its first copy
    fx, wc = two_lines_data
    p = wc.entries[(1,)].points[0]
    real = nid.component_membership
    streams = []

    def flaky_query(rec, queries, rs):
        streams.append(rs.stream)
        if len(streams) == 1:
            return [None] * len(queries)
        return real(rec, queries, rs)

    monkeypatch.setattr(nid, "component_membership", flaky_query)
    dec = nid_multi(fx.system, [p, p], rs(82))
    assert len(set(streams)) == len(streams) == 2
    assert dec.assignment == {0: 0, 1: 0}
    assert len(dec.components) == 1
    assert not dec.diagnostics


def test_nid_multi_queries_on_one_component_share_a_gamma(monkeypatch):
    # every query against one component tracks in one homotopy, drawn from
    # the component's query substream, so the cubic's two queries share
    # one gamma
    fx = get_fixture("cubic")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(84))
    gammas = None  # the gammas of the call being run, or None between calls
    per_call, asked = [], []

    class Recording(tracker.Homotopy):
        def __init__(self, start, target, gamma, fixed=None, members=None):
            if gammas is not None:
                gammas.append(gamma)
            super().__init__(start, target, gamma, fixed, members)

    real = nid.component_membership

    def recorded_query(rec, queries, rs):
        nonlocal gammas
        gammas = []
        asked.append(len(queries))
        try:
            return real(rec, queries, rs)
        finally:
            per_call.append(gammas)
            gammas = None

    monkeypatch.setattr(tracker, "Homotopy", Recording)
    monkeypatch.setattr(nid, "component_membership", recorded_query)
    dec = nid_multi(fx.system, list(wc.entries[(1,)].points), rs(86))
    assert len(dec.components) == 1
    assert not dec.diagnostics
    assert asked == [2]
    assert per_call == [[rs(86).substream(5).unit_complex()]]


def test_nid_multi_keeps_every_index_of_a_repeated_point(two_lines_data):
    fx, wc = two_lines_data
    p = wc.entries[(1,)].points[0]
    dec = nid_multi(fx.system, [p, p], rs(82))
    assert dec.assignment == {0: 0, 1: 0}
    assert len(dec.components) == 1
    assert not dec.diagnostics


def test_nid_multi_a_deferred_point_whose_build_fails_is_unassigned(two_lines_data, monkeypatch):
    fx, wc = two_lines_data
    points = list(wc.entries[(1,)].points)
    real = nid.grow_witness_set
    growths = []

    def grow(ws, rs):
        # the first sample's component grows; the deferred point's fails twice
        growths.append(rs.stream)
        if len(growths) > 1:
            raise IndeterminateError("the trace test failed after 60 loops")
        return real(ws, rs)

    def failing_query(rec, queries, rs):
        return [None] * len(queries)

    monkeypatch.setattr(nid, "grow_witness_set", grow)
    monkeypatch.setattr(nid, "component_membership", failing_query)
    dec = nid_multi(fx.system, points, rs(82))
    (first,) = dec.assignment
    q = 1 - first
    assert dec.assignment == {first: 0}
    assert [line.split(":")[0] for line in dec.diagnostics] == [
        f"query of point {q} failed, deferred", f"point {q} left unassigned"]
    assert not unassigned_but_assigned(dec)


@pytest.fixture(scope="module")
def product_data():
    fx = get_fixture("point-times-surface")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(84))
    return fx, wc


def test_product_fixture_polytope_factors(product_data):
    fx, wc = product_data
    assert wc.multidegree_map() == {(0, 1, 2): 1, (0, 2, 1): 1}
    p = wc.entries[(0, 1, 2)].points[0]
    prof = local_multidimension(fx.system, p)
    poly = dimension_polytope(prof, fx.system.grouping.sizes)
    assert product_factorization(poly) == [(0,), (1, 2)]

