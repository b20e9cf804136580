import numpy as np
import pytest

import multiwit.tracker
import multiwit.witness
from multiwit import (
    IndeterminateError,
    PolySystem,
    Polynomial,
    RandomSource,
    SliceSelection,
    VariableGrouping,
    WitnessCollection,
    WitnessSet,
    compute_witness_collection,
    coarsen,
    coarsen_collection,
    membership,
    move_slice,
    refine,
    segre_degree,
    slice_collection,
    solve_zero_dim,
    track_slice_motion,
)
from multiwit.fixtures import get_fixture
from multiwit.startsys import RESIDUAL_TOL, solve_zero_dims, square_up
from multiwit.tracker import points_equal, relative_residual
from multiwit.witness import passes_through, random_affine_form

from conftest import evaluate, on_its_slices, rs


@pytest.fixture(scope="module")
def cubic_wc():
    fx = get_fixture("cubic")
    return fx, compute_witness_collection(fx.system, fx.default_keys, rs(30))


@pytest.fixture(scope="module")
def split_wc():
    fx = get_fixture("cubic-split")
    return fx, compute_witness_collection(fx.system, fx.default_keys, rs(31))


def test_cubic_witness_count_and_residuals(cubic_wc):
    fx, wc = cubic_wc
    assert wc.multidegree_map() == {(1,): 3}
    assert on_its_slices(wc.entries[(1,)])


def test_split_cubic_bidegrees(split_wc):
    fx, wc = split_wc
    assert wc.multidegree_map() == {(1, 0): 2, (0, 1): 3}


def test_candidates_must_share_dimension():
    fx = get_fixture("cubic-split")
    with pytest.raises(ValueError):
        compute_witness_collection(fx.system, [(1, 0), (1, 1)], rs(0))
    with pytest.raises(ValueError):
        compute_witness_collection(fx.system, [], rs(0))


def test_witness_set_row_count_invariant():
    fx = get_fixture("cubic")
    g = fx.system.grouping
    sub = rs(32)
    forms = tuple(random_affine_form(g, g.blocks[0], sub) for _ in range(2))
    core = square_up(fx.system, 1, rs(33))
    assert WitnessSet(fx.system, core, SliceSelection((forms[:1],)), []).selection.e == (1,)
    with pytest.raises(ValueError):
        # core (1) + slices (1) = 2 rows, but passing 2 slice forms makes 3
        WitnessSet(fx.system, core, SliceSelection((forms,)), [])


def test_entries_take_prefixes_of_one_flag_per_group():
    g = VariableGrouping.from_sizes([2, 1], ["x1", "x2", "y"])
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    F = PolySystem([x1 * y - x2 + y - 1])
    wc = compute_witness_collection(F, [(2, 0), (1, 1)], rs(34))
    assert wc.multidegree_map() == {(1, 1): 1, (2, 0): 1}
    wide, mixed = wc.entries[(2, 0)].selection, wc.entries[(1, 1)].selection
    assert (wide.e, mixed.e) == ((2, 0), (1, 1))
    assert mixed.per_group[0][0] is wide.per_group[0][0]
    assert wide.per_group[0][0] is not wide.per_group[0][1]
    # slicing moves each entry's own first form into extra
    sliced = slice_collection(wc, 0)
    assert sliced.entries[(1, 0)].selection.per_group[0] == wide.per_group[0][1:]
    assert sliced.entries[(1, 0)].extra == (wide.per_group[0][0],)
    assert sliced.entries[(0, 1)].extra == (wide.per_group[0][0],)
    for key in [(3, 0), (1,), (2, 1), (-1, 1)]:
        with pytest.raises(ValueError, match=rf"key \({key[0]},"):
            compute_witness_collection(F, [key], rs(34))


def test_slice_collection_is_exact_bookkeeping(split_wc):
    fx, wc = split_wc
    sliced = slice_collection(wc, 1)
    # the key (0,1) maps to (0,0); (1,0) is dropped (e_1 = 0)
    assert set(sliced.entries) == {(0, 0)}
    src = wc.entries[(0, 1)]
    dst = sliced.entries[(0, 0)]
    assert len(dst.points) == 3
    for a, b in zip(src.points, dst.points):
        assert np.array_equal(a, b)  # no path was tracked
    assert len(dst.extra) == len(src.extra) + 1
    assert on_its_slices(dst)


def test_slice_collection_rejects_empty_direction(cubic_wc):
    fx, wc = cubic_wc
    sliced = slice_collection(wc, 0)
    with pytest.raises(ValueError):
        slice_collection(sliced, 0)


def test_move_slice_keeps_system_and_meets_new_forms(cubic_wc):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    g = fx.system.grouping
    new = [random_affine_form(g, [0, 1], rs(35))]
    moved = move_slice(ws, new, rs(37))
    assert len(moved.points) == 3
    for p in moved.points:
        assert relative_residual(fx.system.evaluate(p), fx.system.residual_scale(p)) < RESIDUAL_TOL
        assert abs(evaluate(new[0], p)) < 1e-6


def test_track_slice_motion_keeps_input_order(cubic_wc):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    g = fx.system.grouping
    new = [random_affine_form(g, [0, 1], rs(36))]
    off_curve = np.array([5.0 + 1j, -3.0 + 2j])
    starts = list(ws.points) + [off_curve]

    def motion(points):
        return track_slice_motion(ws.fixed_block, ws.selection.forms, new, points, rs(37))

    # the off-curve start fails, and one failed path fails the whole motion
    with pytest.raises(IndeterminateError, match="1 of 4"):
        motion(starts)
    on_curve = list(ws.points)
    ends = motion(on_curve)
    assert len(ends) == 3 and all(p is not None for p in ends)
    # each endpoint belongs to the start at its own index
    for start, end in zip(on_curve, ends):
        (alone,) = motion([start])
        assert np.array_equal(alone, end)
    assert motion([]) == []


def test_move_slice_raises_on_a_failed_path(cubic_wc):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    off_curve = np.array([5.0 + 1j, -3.0 + 2j])
    bad = WitnessSet(ws.system, ws.sq_core, ws.selection, list(ws.points) + [off_curve])
    new = [random_affine_form(fx.system.grouping, [0, 1], rs(36))]
    with pytest.raises(IndeterminateError):
        move_slice(bad, new, rs(37))


def losing_a_point(monkeypatch, lose):
    """Make every slice motion pass its endpoints through `lose`."""
    real = multiwit.witness.track_slice_motion
    monkeypatch.setattr(multiwit.witness, "track_slice_motion",
                        lambda *args: lose(real(*args)))


@pytest.mark.parametrize("lose", [lambda ends: [None] + ends[1:],
                                  lambda ends: ends[:1] + ends[:-1]],
                         ids=["diverged", "merged"])
def test_move_slice_raises_on_a_lost_point(cubic_wc, monkeypatch, lose):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    new = [random_affine_form(fx.system.grouping, [0, 1], rs(35))]
    losing_a_point(monkeypatch, lose)
    with pytest.raises(IndeterminateError, match=r"key \(1,\) lost 1 of 3 points"):
        move_slice(ws, new, rs(37))


def test_coarsen_propagates_a_lost_start_point(split_wc, monkeypatch):
    fx, wc = split_wc
    losing_a_point(monkeypatch, lambda ends: [None] + ends[1:])
    with pytest.raises(IndeterminateError, match="lost 1 of"):
        coarsen(wc, (0, 1), (1,), rs(38))


def test_refine_cubic_to_bidegrees(cubic_wc):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    r10 = refine(ws, (0, 1), (1, 0), rs(36))
    r01 = refine(ws, (0, 1), (0, 1), rs(37))
    assert len(r10.points) == 2
    assert len(r01.points) == 3
    assert r10.grouping.sizes == (1, 1)
    assert on_its_slices(r10) and on_its_slices(r01)


def test_refine_keeps_a_zero_budget_group():
    # group 0 of key (0,1,2) has no slice forms, so refining it moves nothing
    fx = get_fixture("point-times-surface")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(44))
    ws = wc.entries[(0, 1, 2)]
    assert len(ws.points) == 1
    refined = refine(ws, (0, 1), (0, 0, 1, 2), rs(45))
    assert len(refined.points) == 1
    assert refined.grouping.sizes == (1, 2, 3, 3)
    assert refined.selection.e == (0, 0, 1, 2)
    assert on_its_slices(refined)


def test_slice_motion_without_moving_rows_returns_the_points(cubic_wc):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    stream = rs(0)
    ends = track_slice_motion(ws.full_square_system, [], [], ws.points, stream)
    assert len(ends) == len(ws.points)
    assert all(a is b for a, b in zip(ends, ws.points))
    assert stream.unit_complex() == rs(0).unit_complex()  # no gamma was drawn


def test_refine_validates_keys(cubic_wc):
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    with pytest.raises(ValueError):
        refine(ws, (0, 2), (1, 0), rs(0))  # split part not proper
    with pytest.raises(ValueError):
        refine(ws, (0, 1), (1, 1), rs(0))  # budget mismatch


def test_coarsen_cubic_split(split_wc):
    fx, wc = split_wc
    res = coarsen(wc, (0, 1), (1,), rs(38))
    assert res.delta == 5  # binom(1,1)*Deg(1,0) + binom(1,0)*Deg(0,1)
    assert res.converged == 3
    assert res.diverged == 2
    assert len(res.witness.points) == 3
    assert res.witness.grouping.k == 1
    assert on_its_slices(res.witness)


def test_coarsen_collection_structure(split_wc):
    fx, wc = split_wc
    merged, stats = coarsen_collection(wc, (0, 1), rs(39))
    assert merged.multidegree_map() == {(1,): 3}
    assert len(stats) == 1
    assert stats[0].delta == stats[0].converged + stats[0].diverged
    # the result is a proper collection on the merged grouping
    assert merged.grouping.k == 1
    assert all(ws.selection.e == key for key, ws in merged.entries.items())


@pytest.fixture(scope="module")
def octa_fh_wc():
    fx = get_fixture("octahedron-fh")
    return fx, compute_witness_collection(fx.system, fx.default_keys, rs(46))


def test_coarsen_with_no_merged_budget_tracks_no_path(octa_fh_wc, monkeypatch):
    fx, wc = octa_fh_wc
    calls = []
    monkeypatch.setattr(multiwit.tracker, "track_many",
                        lambda *args: calls.append(args) or [])
    res = coarsen(wc, (0, 1), (0, 1, 1), rs(47))
    assert not calls
    src = wc.entries[(0, 0, 1, 1)]
    assert (res.delta, res.converged, res.diverged) == (3, 3, 0)
    assert all(a is b for a, b in zip(res.witness.points, src.points))
    assert res.witness.grouping == fx.system.grouping.merge(0, 1)
    assert res.witness.selection.e == (0, 1, 1)
    assert res.witness.selection.per_group[1:] == src.selection.per_group[2:]


def test_slice_motion_paths_are_pinned(octa_fh_wc, monkeypatch):
    # per-path (status, steps_taken) of one slice motion and of one key's
    # start homotopy, as a tracker that evaluates all four RK4 stages on
    # every attempt gives them; reusing the corrector's evaluation for k1
    # must not move them, nor must routing the start homotopy through
    # track_slice_motion, and a change in the step rules or in the
    # predictor's arithmetic would
    fx, wc = octa_fh_wc
    ws = wc.entries[(0, 0, 1, 1)]
    g = fx.system.grouping
    groups = [i for i, e in enumerate(ws.selection.e) for _ in range(e)]
    new = [random_affine_form(g, g.blocks[i], rs(35 + n)) for n, i in enumerate(groups)]
    results = []
    track_many = multiwit.tracker.track_many

    def recorded(*args):
        out = track_many(*args)
        results.extend(out)
        return out

    monkeypatch.setattr(multiwit.tracker, "track_many", recorded)
    track_slice_motion(ws.fixed_block, ws.selection.forms, new, ws.points, rs(37))
    assert [(r.status, r.steps_taken) for r in results] == \
        [("converged", 12), ("converged", 18), ("converged", 18)]
    results.clear()
    # the stream compute_witness_collection gave this key, the first in order
    solve_zero_dim(fx.system, ws.selection.forms, rs(46).substream(13))
    assert [(r.status, r.steps_taken) for r in results] == \
        [("converged", 23), ("converged", 12), ("converged", 19)]


def test_coarsened_witness_data_lives_on_the_system_grouping(split_wc):
    fx, wc = split_wc
    system_g = wc.system.grouping
    # the sliced collection carries its sliced-away form in extra
    for source in (wc, slice_collection(wc, 1)):
        merged, _ = coarsen_collection(source, (0, 1), rs(48))
        assert merged.grouping.k == 1
        assert merged.extra == source.extra
        for ws in merged.entries.values():
            assert ws.grouping == merged.grouping
            assert all(f.grouping == system_g for f in ws.selection.forms + list(ws.extra))


def test_segre_degree_formula():
    assert segre_degree({(1, 0): 2, (0, 1): 3}) == 5
    assert segre_degree({(2, 0): 1, (1, 1): 3, (0, 2): 2}) == 1 + 2 * 3 + 2
    with pytest.raises(ValueError):
        segre_degree({})
    with pytest.raises(ValueError):
        segre_degree({(1, 0): 1, (1, 1): 1})


def test_membership_on_and_off_curve(cubic_wc):
    fx, wc = cubic_wc
    # a curve point from an unrelated slice, then a perturbation off the curve
    other = compute_witness_collection(fx.system, fx.default_keys, rs(40))
    q = other.entries[(1,)].points[0]
    assert membership(wc, q, rs(41))
    off = q.copy()
    off[0] += 0.37
    assert not membership(wc, off, rs(42))


def test_membership_checks_the_sliced_away_forms(monkeypatch):
    # a sliced collection answers only for points on its slice: a point of
    # the unsliced (0,1,1,0) entry lies on the variety but off the slice,
    # and the residual on the sliced-away forms rejects it untracked
    fx = get_fixture("octahedron-fg")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(3))
    sliced = slice_collection(wc, 0)
    assert sliced.extra
    on_slice = sliced.entries[(0, 1, 0, 0)].points[0]
    off_slice = wc.entries[(0, 1, 1, 0)].points[0]
    assert membership(sliced, on_slice, rs(90))
    assert membership(wc, off_slice, rs(92))
    calls = []
    monkeypatch.setattr(multiwit.tracker, "track_many",
                        lambda *args: calls.append(args) or [])
    assert not membership(sliced, off_slice, rs(91))
    assert not calls


def test_membership_tests_the_sliced_away_forms_by_the_residual_tolerance(monkeypatch):
    # a query 1e-7 off the sliced-away forms, in relative residual, is off
    # the slice by the residual test the witness points pass, so it is
    # rejected before any path is tracked
    fx = get_fixture("octahedron-fg")
    sliced = slice_collection(compute_witness_collection(fx.system, fx.default_keys, rs(3)), 0)
    (form,) = sliced.extra
    p = sliced.entries[(0, 1, 0, 0)].points[0]
    gradient = PolySystem([form]).jacobian(p)[0]
    scale = PolySystem([form]).residual_scale(p)[0]
    off = p + 1e-7 * scale * gradient.conj() / np.vdot(gradient, gradient).real
    assert RESIDUAL_TOL < PolySystem([form]).residual(off) < 2e-7
    calls = []
    monkeypatch.setattr(multiwit.tracker, "track_many",
                        lambda *args: calls.append(args) or [])
    assert not membership(sliced, off, rs(93))
    assert not calls


def test_membership_on_isolated_points():
    # a key with no slice form moves nothing: the query is looked for among
    # the witness points themselves
    g = VariableGrouping.from_sizes([1, 1], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    wc = compute_witness_collection(PolySystem([x**2 - 1, y**2 - 4]), [(0, 0)], rs(44))
    assert wc.multidegree_map() == {(0, 0): 4}
    assert membership(wc, np.array([-1, 2]), rs(45))
    assert not membership(wc, np.array([1, 3]), rs(45))


def test_membership_raises_when_its_paths_fail(cubic_wc, monkeypatch):
    # a failed query is never a silent False; and no query tracks no path
    fx, wc = cubic_wc
    ws = wc.entries[(1,)]
    calls = []

    def failing(h, starts, shifts=None):
        calls.append(len(starts))
        return [multiwit.tracker.PathResult("failed", None, 0) for _ in starts]

    monkeypatch.setattr(multiwit.tracker, "track_many", failing)
    with pytest.raises(IndeterminateError):
        membership(wc, ws.points[0] + 0.1, rs(41))
    assert calls == [3]
    assert passes_through(ws.fixed_block, ws.selection.forms, ws.points, [], rs(41)) == []
    assert calls == [3]


def test_membership_validates_point_size(cubic_wc):
    fx, wc = cubic_wc
    with pytest.raises(ValueError):
        membership(wc, np.array([1.0, 2.0, 3.0]), rs(43))


def test_a_repeated_key_is_solved_once(monkeypatch):
    # each distinct key is solved on the substream its last copy drew before
    # (one system each, in one call)
    fx = get_fixture("cubic-split")
    calls = []

    def spy(F, core, slices, subs):
        calls.append([sub.stream for sub in subs])
        return solve_zero_dims(F, core, slices, subs)

    monkeypatch.setattr(multiwit.witness, "solve_zero_dims", spy)
    wc = compute_witness_collection(fx.system, [(1, 0), (1, 0), (0, 1)], rs(31))
    assert calls == [[rs(31).substream(13).stream, rs(31).substream(15).stream]]
    assert wc.multidegree_map() == {(1, 0): 2, (0, 1): 3}


def test_keys_that_share_a_square_up_are_solved_as_alone(monkeypatch):
    # the octahedron's keys share F, so they are the members of one start
    # homotopy; each key's points are the points of solving it alone, in order
    fx = get_fixture("octahedron-fh")
    members = []
    track = multiwit.tracker.track_many

    def recorded(h, starts, member=None):
        members.append(h.members.count)
        return track(h, starts, member)

    monkeypatch.setattr(multiwit.tracker, "track_many", recorded)
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(46))
    assert members == [len(fx.default_keys)]
    monkeypatch.undo()
    assert wc.multidegree_map() == fx.extra["degree_map"]
    for idx, e in enumerate(sorted(fx.default_keys)):
        alone = solve_zero_dim(fx.system, wc.entries[e].selection.forms, rs(46).substream(13 + idx))
        assert len(alone) == len(wc.entries[e].points)
        assert all(points_equal(a, b) for a, b in zip(alone, wc.entries[e].points))


def test_every_key_is_solved_on_the_collections_one_square_up(monkeypatch):
    # richardson's twelve minors are overdetermined: the collection squares
    # them up once, every key is a member of one start homotopy on that
    # square-up, and each key's points are those of solving it alone on the
    # square-up its witness set keeps, up to rounding: the keys' slices
    # differ in support, and that moves the rounding of the members' table
    fx = get_fixture("richardson")
    members = []
    track = multiwit.tracker.track_many

    def recorded(h, starts, member=None):
        members.append(h.members.count)
        return track(h, starts, member)

    monkeypatch.setattr(multiwit.tracker, "track_many", recorded)
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(11))
    assert members == [12]
    monkeypatch.undo()
    assert wc.multidegree_map() == fx.extra["degree_map"]
    for idx, e in enumerate(sorted(fx.default_keys)[:3]):
        ws = wc.entries[e]
        ((alone, refused),) = solve_zero_dims(fx.system, ws.sq_core, [ws.selection.forms],
                                              [rs(11).substream(13 + idx)])
        assert refused == wc.dropped.get(e, 0)
        assert len(alone) == len(ws.points)
        assert all(points_equal(a, b) for a, b in zip(alone, ws.points))


def test_a_failed_start_path_names_its_key(monkeypatch):
    # one start path of the second key, (1, 0), fails: the collection raises,
    # naming that key, never a key with too few points
    fx = get_fixture("cubic-split")
    track = multiwit.tracker.track_many

    def second_key_fails(h, starts, member=None):
        results = track(h, starts, member)
        results[list(member).index(1)] = multiwit.tracker.PathResult("failed", None, 0)
        return results

    monkeypatch.setattr(multiwit.tracker, "track_many", second_key_fails)
    with pytest.raises(IndeterminateError, match=r"key \(1, 0\)"):
        compute_witness_collection(fx.system, fx.default_keys, rs(31))


def test_points_of_a_higher_dimensional_component_are_dropped():
    # the plane {x1 = 0} meets each key's slice in a curve, so the start
    # paths that end there, two on key (0, 1) and one on key (1, 0), end at
    # singular roots of the square system; refinement refuses all three at
    # every seed, leaving the line's one point
    fx = get_fixture("surface-and-line")
    for seed in range(1, 21):
        wc = compute_witness_collection(fx.system, fx.default_keys, RandomSource(seed=seed))
        assert wc.multidegree_map() == {(1, 0): 1}, seed
        assert wc.dropped == {(0, 1): 2, (1, 0): 1}, seed


def test_a_collection_reads_no_projected_rank():
    # at seed 19 one of hyperboloid's points has a projected tangent rank
    # that differs between RANK_TOL and 10 * RANK_TOL; the collection keeps
    # it, since a point's fate is its square system's nonsingularity alone
    fx = get_fixture("hyperboloid")
    wc = compute_witness_collection(fx.system, fx.default_keys, RandomSource(seed=19))
    assert wc.multidegree_map() == {(1, 1, 1, 1): 16}
    assert wc.dropped == {}
