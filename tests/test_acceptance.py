"""End-to-end acceptance checks on the built-in example systems.

Each test pins exact integer results (witness counts, multidegree maps,
path accounting) for a documented workflow.  The two long optional
checks are gated behind environment flags; see conftest.py.
"""

import hashlib
import math

import numpy as np
import pytest

from multiwit import (
    RandomSource,
    compute_witness_collection,
    coarsen_collection,
    complete_intersection_class,
    breakup,
    equidim_partition,
    mbezout,
    nid_multi,
    refine,
    segre_degree,
    slice_collection,
    solve_zero_dim,
)
from multiwit.algebra import PolySystem, VariableGrouping
from multiwit.fixtures import RICHARDSON_DEGREE_MAP, get_fixture
from multiwit.witness import coarsen, random_affine_form

from conftest import SEED, extended, pentad_gate, rs


# ---------------------------------------------------------------------------
# shared heavy computations


@pytest.fixture(scope="module")
def octa_fg():
    fx = get_fixture("octahedron-fg")
    return fx, compute_witness_collection(fx.system, fx.default_keys, rs(3))


@pytest.fixture(scope="module")
def octa_fh():
    fx = get_fixture("octahedron-fh")
    return fx, compute_witness_collection(fx.system, fx.default_keys, rs(3))


def expected_paths(src_map, merge, key):
    """Start-path count for one merged key: sum of binomials times source
    degrees over all splits of the merged slice budget."""
    a, b = sorted(merge)
    k = len(next(iter(src_map))) if src_map else 0
    old_groups = [i for i in range(k) if i != b]
    e = key[old_groups.index(a)]
    total = 0
    for s in range(e + 1):
        old_key = [0] * k
        for new_i, old_i in enumerate(old_groups):
            old_key[old_i] = key[new_i]
        old_key[a] = s
        old_key[b] = e - s
        total += math.comb(e, s) * src_map.get(tuple(old_key), 0)
    return total


def checked_merge(wc, merge, stream):
    """Coarsen every key and verify the path accounting against the
    binomial formula applied to the source multidegree map."""
    src_map = wc.multidegree_map()
    out, stats = coarsen_collection(wc, merge, rs(stream))
    for res in stats:
        key = res.witness.selection.e
        want = expected_paths(src_map, merge, key)
        assert res.delta == want, f"{merge} {key}: {res.delta} paths, expected {want}"
        assert res.converged + res.diverged == res.delta
        assert res.converged == len(res.witness.points)
    return out


# ---------------------------------------------------------------------------
# 1. plane cubic: witness, refinement, coarsening accounting


def test_cubic_witness_refine_coarsen():
    fx = get_fixture("cubic")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(1))
    assert wc.multidegree_map() == {(1,): 3}

    ws = wc.entries[(1,)]
    assert len(refine(ws, (0, 1), (1, 0), rs(2)).points) == 2
    assert len(refine(ws, (0, 1), (0, 1), rs(2)).points) == 3

    split = get_fixture("cubic-split")
    wc2 = compute_witness_collection(split.system, split.default_keys, rs(1))
    form = random_affine_form(split.system.grouping, [0, 1], rs(3))
    res = coarsen(wc2, (0, 1), (1,), rs(2), [form])
    assert (res.delta, res.converged, res.diverged) == (5, 3, 2)


# ---------------------------------------------------------------------------
# 2. octahedron multidegree maps


def test_octahedron_fg_multidegrees(octa_fg):
    fx, wc = octa_fg
    assert wc.multidegree_map() == fx.extra["degree_map"]


def test_octahedron_fh_multidegrees(octa_fh):
    fx, wc = octa_fh
    assert wc.multidegree_map() == fx.extra["degree_map"]


# ---------------------------------------------------------------------------
# 3. the eight coarsened multidegree maps, with path accounting


def test_octahedron_fg_coarsenings(octa_fg):
    fx, wc = octa_fg
    # merge z,w
    zw = checked_merge(wc, (2, 3), 101)
    assert zw.multidegree_map() == {
        (1, 1, 0): 4, (1, 0, 1): 4, (0, 1, 1): 4, (0, 0, 2): 2,
    }
    # merge x,y
    xy = checked_merge(wc, (0, 1), 102)
    assert xy.multidegree_map() == {
        (2, 0, 0): 4, (1, 1, 0): 4, (1, 0, 1): 3, (0, 1, 1): 2,
    }
    # merge x,y then z,w
    both = checked_merge(xy, (1, 2), 103)
    assert both.multidegree_map() == {(2, 0): 4, (1, 1): 4, (0, 2): 2}
    # merge the last three; Deg(0,2) = 4 is confirmed by elimination:
    # g is linear in x, and f restricted to a line in (y,z,w) has degree 4
    yz = checked_merge(wc, (1, 2), 431)
    yzw = checked_merge(yz, (1, 2), 105)
    assert yzw.multidegree_map() == {(1, 1): 4, (0, 2): 4}


def test_octahedron_fh_coarsenings(octa_fh):
    fx, wc = octa_fh
    zw = checked_merge(wc, (2, 3), 111)
    assert zw.multidegree_map() == {
        (1, 1, 0): 7, (1, 0, 1): 8, (0, 1, 1): 6, (0, 0, 2): 3,
    }
    xy = checked_merge(wc, (0, 1), 112)
    assert xy.multidegree_map() == {
        (2, 0, 0): 7, (1, 1, 0): 10, (1, 0, 1): 8, (0, 1, 1): 3,
    }
    both = checked_merge(xy, (1, 2), 113)
    assert both.multidegree_map() == {(2, 0): 7, (1, 1): 12, (0, 2): 3}
    yz = checked_merge(wc, (1, 2), 114)
    yzw = checked_merge(yz, (1, 2), 115)
    assert yzw.multidegree_map() == {(1, 1): 11, (0, 2): 7}


# ---------------------------------------------------------------------------
# 4. three reduction routes to a certified irreducible curve


def fresh_fh(stream=3):
    fx = get_fixture("octahedron-fh")
    source = rs(stream)
    return compute_witness_collection(fx.system, fx.default_keys, source), source


def certified_curve(wc, source, stream):
    state = breakup(wc.entries[(1,)], source.substream(stream))
    assert state.certified == [True] * len(state.partition)
    return sorted(len(p) for p in state.partition)


def full_merge_then_slice(stream):
    # merge everything to one 4-dimensional group, then slice to a curve
    wc, source = fresh_fh(stream)
    w = coarsen_collection(wc, (0, 1), source.substream(101))[0]
    w = coarsen_collection(w, (0, 1), source.substream(102))[0]
    w = coarsen_collection(w, (0, 1), source.substream(103))[0]
    assert w.multidegree_map() == {(2,): 15}
    return slice_collection(w, 0), source


def test_route_full_merge_then_slice():
    curve, source = full_merge_then_slice(3)
    assert certified_curve(curve, source, 104) == [15]


def test_breakup_retries_an_ambiguous_loop():
    # On this stream one monodromy loop lands two paths on one start point;
    # breakup counts that loop against MAX_LOOPS and draws the next one.
    curve, source = full_merge_then_slice(1003)
    state = breakup(curve.entries[(1,)], source.substream(104))
    assert (sorted(len(p) for p in state.partition), state.certified) == ([15], [True])


def test_route_merge_three_slice_then_merge():
    # merge y,z,w; slice the merged group; merge the rest
    wc, source = fresh_fh()
    w = coarsen_collection(wc, (1, 2), source.substream(201))[0]
    w = coarsen_collection(w, (1, 2), source.substream(202))[0]
    sliced = slice_collection(w, 1)
    w = coarsen_collection(sliced, (0, 1), source.substream(203))[0]
    assert w.multidegree_map() == {(1,): 15}
    assert certified_curve(w, source, 204) == [15]


def test_route_merge_pair_slice_then_merge():
    # merge z,w; slice the merged plane; merge the rest: a degree-12 curve
    wc, source = fresh_fh()
    w = coarsen_collection(wc, (2, 3), source.substream(301))[0]
    sliced = slice_collection(w, 2)
    assert sliced.multidegree_map() == {(0, 0, 1): 3, (0, 1, 0): 6, (1, 0, 0): 8}
    w = coarsen_collection(sliced, (0, 1), source.substream(302))[0]
    w = coarsen_collection(w, (0, 1), source.substream(303))[0]
    assert w.multidegree_map() == {(1,): 12}
    assert certified_curve(w, source, 304) == [12]


# ---------------------------------------------------------------------------
# 5. determinantal rank conditions on a 6x3 matrix


@pytest.fixture(scope="module")
def richardson_wc():
    fx = get_fixture("richardson")
    source = rs(11)
    return fx, compute_witness_collection(fx.system, fx.default_keys, source), source


def test_richardson_hexagon_map(richardson_wc):
    fx, wc, _ = richardson_wc
    assert wc.multidegree_map() == RICHARDSON_DEGREE_MAP


def test_richardson_segre_degree(richardson_wc):
    fx, wc, _ = richardson_wc
    assert segre_degree(wc.multidegree_map()) == fx.extra["segre_degree"] == 450


def test_richardson_full_coarsening_affine_degree(richardson_wc):
    fx, wc, source = richardson_wc
    w = coarsen_collection(wc, (0, 1), source.substream(21))[0]
    assert w.multidegree_map() == {(2, 3): 2, (3, 2): 4, (4, 1): 4, (5, 0): 2}
    w = coarsen_collection(w, (0, 1), source.substream(22))[0]
    assert w.multidegree_map() == {(5,): fx.extra["affine_degree"]}


def richardson_four_decomposition(source):
    """nid_multi on the richardson-four witness points; returns the
    decomposition, its per-component multidegree maps and the fixture's."""
    fx = get_fixture("richardson-four")
    wc = compute_witness_collection(fx.system, fx.default_keys, source)
    points, key_of = [], []
    for e, ws in sorted(wc.entries.items()):
        for p in ws.points:
            points.append(p)
            key_of.append(e)
    assert len(points) == 63

    dec = nid_multi(fx.system, points, source.substream(99))
    maps = {}
    for idx, ci in dec.assignment.items():
        maps.setdefault(ci, {})
        maps[ci][key_of[idx]] = maps[ci].get(key_of[idx], 0) + 1
    got = sorted(sorted(m.items()) for m in maps.values())
    want = sorted(sorted(m.items()) for m in fx.extra["component_maps"])
    return dec, got, want


def test_richardson_four_minor_decomposition():
    dec, got, want = richardson_four_decomposition(rs(13))
    assert len(dec.components) == 4
    assert not dec.diagnostics
    assert all(rec.certified for rec in dec.components)
    assert sorted(dec.assignment) == list(range(63))
    assert got == want


def test_richardson_four_curve_loops_keep_their_cuts():
    # On this seed, loops that moved the curve's cut forms along with its
    # generic form left the curve: six "certified" components came out, one
    # of them a single point on a curve of degree 6.
    dec, got, want = richardson_four_decomposition(RandomSource(seed=10, stream=13))
    assert len(dec.components) == 4
    assert all(rec.certified for rec in dec.components)
    assert [rec.curve_degree for rec in dec.components] == [3, 3, 2, 3]
    assert got == want


# ---------------------------------------------------------------------------
# 6. complete-intersection class and its slices (exact combinatorics)


def test_class_of_six_general_forms():
    from multiwit.fixtures import class_123

    data = class_123()
    cls = complete_intersection_class(data["degrees"], data["nvec"])
    assert cls == data["class"]


def test_class_slice_tables():
    from multiwit.fixtures import class_123

    data = class_123()
    cls = complete_intersection_class(data["degrees"], data["nvec"])

    def sliced(i):
        out = {}
        for e, c in cls.items():
            if e[i] > 0:
                out[tuple(x - (1 if j == i else 0) for j, x in enumerate(e))] = c
        return out

    keys = [(0, 2, 0), (0, 1, 1), (1, 1, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0)]

    def table(rows):
        return dict(zip(keys, rows))

    # tables of Deg(e + eps_i), listed for i = 3, 2, 1
    displayed = [
        table([1080, 720, 3240, 160, 1440, 4320]),
        table([540, 1080, 3240, 720, 3240, 6480]),
        table([3240, 3240, 6480, 1440, 4320, 4320]),
    ]
    for i in range(3):
        assert sliced(2 - i) == displayed[i]


# ---------------------------------------------------------------------------
# 7. fiber product carrying the two rulings of a quadric


@pytest.fixture(scope="module")
def hyperboloid_data():
    fx = get_fixture("hyperboloid")
    source = rs(17)
    wc = compute_witness_collection(fx.system, fx.default_keys, source)
    return fx, wc, source


def test_hyperboloid_witness_count(hyperboloid_data):
    fx, wc, _ = hyperboloid_data
    assert wc.multidegree_map() == {(1, 1, 1, 1): fx.extra["witness_count"]}


def test_hyperboloid_equidimensional_split(hyperboloid_data):
    fx, wc, _ = hyperboloid_data
    classes = equidim_partition(fx.system, list(wc.entries[(1, 1, 1, 1)].points))
    # group classes by the projection-dimension row, up to permuting the
    # three identical copies of the quadric factor
    rows = {}
    for profile, pts in classes:
        row = (profile.dim([0]),
               tuple(sorted(profile.dim([i]) for i in (1, 2, 3))),
               profile.total_dim)
        rows.setdefault(row, 0)
        rows[row] += len(pts)
    assert rows == {(1, (2, 2, 2), 4): 4, (4, (2, 2, 2), 4): 12}
    # exceptional row: projections grow 1, 2, 3 along the prefix chain
    small = next(p for p, _ in classes if p.dim([0]) == 1)
    assert small.dim([0, 1]) == 2
    assert small.dim([0, 1, 2]) == 3
    # generic rows: every prefix projection already has full dimension 4
    for profile, _ in classes:
        if profile.dim([0]) == 4:
            assert all(profile.dim([0, i]) == 4 for i in (1, 2, 3))
            assert profile.dim([0, 1, 2]) == 4


def test_hyperboloid_rulings_are_the_two_components(hyperboloid_data):
    fx, wc, source = hyperboloid_data
    points = list(wc.entries[(1, 1, 1, 1)].points)
    classes = equidim_partition(fx.system, points)
    profile, indices = next(c for c in classes if c[0].dim([0]) == 1)
    pts = [points[i] for i in indices]
    assert len(pts) == 4

    dec = nid_multi(fx.system, pts, source.substream(50))
    assert len(dec.components) == 2
    assert all(rec.certified for rec in dec.components)
    sizes = sorted(
        sum(1 for v in dec.assignment.values() if v == ci)
        for ci in range(len(dec.components))
    )
    assert sizes == [2, 2]
    assert all(rec.curve_degree == 8 for rec in dec.components)

    def ruling(lam):
        r1 = max(abs(lam[2] + lam[1]), abs(lam[3] - lam[0]))
        r2 = max(abs(lam[2] - lam[1]), abs(lam[3] + lam[0]))
        if r1 < 1e-8:
            return 1
        if r2 < 1e-8:
            return 2
        return 0

    for i, p in enumerate(pts):
        lam = p[:4]
        assert abs(lam[0] ** 2 + lam[1] ** 2 - 1) < 1e-8
        assert ruling(lam) != 0
        # points in one component lie on one ruling
    by_comp = {}
    for i, p in enumerate(pts):
        by_comp.setdefault(dec.assignment[i], set()).add(ruling(p[:4]))
    assert sorted(by_comp.values(), key=sorted) == [{1}, {2}]


@extended
def test_hyperboloid_ungrouped_witness_is_much_larger():
    fx = get_fixture("hyperboloid")
    g0 = fx.system.grouping
    g1 = VariableGrouping.from_sizes([g0.nvars], list(g0.names))
    F = PolySystem([p.with_grouping(g1) for p in fx.system.polys])
    source = rs(19)
    slices = [random_affine_form(g1, list(range(g1.nvars)), source.substream(i))
              for i in range(4)]
    pts = solve_zero_dim(F, slices, source.substream(9))
    assert len(pts) == fx.extra["ungrouped_count"] == 120


# ---------------------------------------------------------------------------
# 9. fiber powers of the five-bar pose system: the square in tier-1, the
#    four-fold power (the pentad) as a multi-hour run

# SHA-256 of the pentad's grouping and sorted terms, taken when its 32
# equations were still written out in the fixture itself
PENTAD_TERMS_SHA256 = "f6599a61d82419fce381e07ff60af0c6faddd309f14acd4634c2f0fd92fd6ae1"


def test_pentad_is_the_fourth_fiber_power():
    s = get_fixture("pentad").system
    text = repr((s.grouping.sizes, s.grouping.names, [sorted(p.terms.items()) for p in s]))
    assert hashlib.sha256(text.encode()).hexdigest() == PENTAD_TERMS_SHA256


def test_fiber_square_witness_count():
    fx = get_fixture("fiber-square")
    wc = compute_witness_collection(fx.system, fx.default_keys, RandomSource(seed=1))
    points = wc.entries[(2, 2, 2, 0, 2, 0)].points
    assert len(points) == 104
    assert wc.dropped == {} and wc.merged == {}
    # the equidimensional classes of those points, in order of first appearance
    classes = equidim_partition(fx.system, points)
    assert [len(idx) for _, idx in classes] == [100, 3, 1]


def test_pentad_mbezout_count():
    # the start paths of the pentad witness solve: its 32 equations plus
    # the 8 slice rows of its key, one of degree eps_i per unit of e_i
    fx = get_fixture("pentad")
    (key,) = fx.default_keys
    k = len(key)
    degrees = [p.multidegree() for p in fx.system.polys]
    degrees += [tuple(int(j == i) for j in range(k)) for i in range(k) for _ in range(key[i])]
    assert len(degrees) == 40
    assert mbezout(degrees, (4,) * 10) == 55296


@pentad_gate
def test_pentad_witness_split():
    fx = get_fixture("pentad")
    source = rs(23)
    wc = compute_witness_collection(fx.system, fx.default_keys, source)
    (key,) = fx.default_keys
    points = list(wc.entries[key].points)
    assert len(points) == fx.extra["witness_count"]
    classes = equidim_partition(fx.system, points)
    assert sorted((len(p) for _, p in classes), reverse=True) == \
        sorted(fx.extra["split"], reverse=True)
