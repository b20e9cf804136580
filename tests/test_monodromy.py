from dataclasses import replace

import numpy as np
import pytest

import multiwit.monodromy as monodromy
import multiwit.tracker
from multiwit import (
    IndeterminateError,
    PolySystem,
    Polynomial,
    SliceSelection,
    VariableGrouping,
    WitnessSet,
    breakup,
    compute_witness_collection,
    grow_witness_set,
    monodromy_permutation,
    trace_test,
)
from multiwit.fixtures import get_fixture
from multiwit.monodromy import MonodromyOutcome
from multiwit.startsys import RESIDUAL_TOL

from conftest import evaluate, rs
from test_acceptance import full_merge_then_slice


@pytest.fixture(scope="module")
def cubic_ws():
    fx = get_fixture("cubic")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(60))
    return fx, wc.entries[(1,)]


@pytest.fixture(scope="module")
def two_lines_ws():
    fx = get_fixture("two-lines")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(61))
    return fx, wc.entries[(1,)]


def test_monodromy_permutation_is_bijection(cubic_ws):
    fx, ws = cubic_ws
    outcome = monodromy_permutation(ws, rs(63))
    assert not outcome.new_points
    assert sorted(outcome.permutation) == [0, 1, 2]
    assert sorted(outcome.permutation.values()) == [0, 1, 2]


def test_monodromy_permutation_indexes_a_new_point_after_the_start_points(cubic_ws):
    # a loop may permute the two points among themselves, so loops are
    # drawn in turn until one meets the cubic's third point
    fx, ws = cubic_ws
    two = replace(ws, points=ws.points[:2])
    outcome = next((o for o in (monodromy_permutation(two, rs(63).substream(k))
                                for k in range(20)) if o.new_points), None)
    assert outcome is not None, "no loop of 20 found a new point"
    assert len(outcome.new_points) == 1
    assert len(two.points) in outcome.permutation.values()
    assert fx.system.residual(outcome.new_points[0]) < RESIDUAL_TOL


def test_monodromy_permutation_is_two_motions_through_one_slice(cubic_ws, monkeypatch):
    # L -> L' -> L: the second motion starts on the first's new rows and
    # ends on the set's own slice, so the loop closes with two homotopies
    fx, ws = cubic_ws
    real = monodromy.track_slice_motion
    motions = []

    def spy(fixed, old_rows, new_rows, points, loop_rs):
        motions.append((list(old_rows), list(new_rows)))
        return real(fixed, old_rows, new_rows, points, loop_rs)

    monkeypatch.setattr(monodromy, "track_slice_motion", spy)
    monodromy_permutation(ws, rs(63))
    assert len(motions) == 2
    (old, new), (back_old, back_new) = motions
    assert old == ws.selection.forms and new != old
    assert back_old == new and back_new == ws.selection.forms


def stub_loop(monkeypatch, ends):
    """Both legs of the loop, and the refinement after them, give `ends`:
    the endpoint of each start point's path, in order."""
    monkeypatch.setattr(monodromy, "track_slice_motion",
                        lambda fixed, old_rows, new_rows, points, loop_rs: list(ends))
    monkeypatch.setattr(monodromy, "newton_refine", lambda system, points: list(points))


def test_an_endpoint_on_two_start_points_is_indeterminate(cubic_ws, monkeypatch):
    fx, ws = cubic_ws
    p, q, r = ws.points
    twins = replace(ws, points=[p, q, q * (1 + 1e-9)])
    stub_loop(monkeypatch, [p, q, r])
    with pytest.raises(IndeterminateError, match="endpoint of path 1 matches 2 start points"):
        monodromy_permutation(twins, rs(63))


def test_two_endpoints_on_one_start_point_are_indeterminate(cubic_ws, monkeypatch):
    fx, ws = cubic_ws
    p, q, r = ws.points
    stub_loop(monkeypatch, [q, r, q * (1 + 1e-9)])
    with pytest.raises(IndeterminateError, match="paths 0 and 2 both landed on start point 1"):
        monodromy_permutation(ws, rs(63))


def test_equal_new_endpoints_share_one_new_point(cubic_ws, monkeypatch):
    # the cubic's third point is new to a set of the first two, and both
    # paths end on it: one new point, indexed after the start points
    fx, ws = cubic_ws
    p, q, r = ws.points
    stub_loop(monkeypatch, [r, r * (1 + 1e-9)])
    outcome = monodromy_permutation(replace(ws, points=[p, q]), rs(63))
    assert outcome.permutation == {0: 2, 1: 2}
    assert len(outcome.new_points) == 1 and outcome.new_points[0] is r


def test_breakup_recovers_a_point_the_set_was_missing(cubic_ws):
    fx, ws = cubic_ws
    state = breakup(replace(ws, points=ws.points[:2]), rs(64))
    assert len(state.points) == 3
    assert (state.partition, state.certified) == ([[0, 1, 2]], [True])
    assert any(np.allclose(p, ws.points[2]) for p in state.points)


def test_breakup_cubic_is_one_certified_orbit(cubic_ws):
    fx, ws = cubic_ws
    state = breakup(ws, rs(64))
    assert [len(p) for p in state.partition] == [3]
    assert state.certified == [True]


def test_breakup_two_lines_gives_two_certified_parts(two_lines_ws):
    fx, ws = two_lines_ws
    state = breakup(ws, rs(65))
    assert sorted(len(p) for p in state.partition) == [1, 1]
    assert state.certified == [True, True]


@pytest.fixture(scope="module")
def octa_curve():
    curve, source = full_merge_then_slice(3)
    return curve.entries[(1,)], source.substream(104)


def counted(monkeypatch, raise_first=False):
    """Count the calls to monodromy_permutation; with raise_first the
    first call raises IndeterminateError instead of tracking."""
    real = monodromy.monodromy_permutation
    calls = []

    def wrapped(*args):
        calls.append(args)
        if raise_first and len(calls) == 1:
            raise IndeterminateError("two paths landed on one start point")
        return real(*args)

    monkeypatch.setattr(monodromy, "monodromy_permutation", wrapped)
    return calls


def test_breakup_stops_at_its_first_certified_partition(octa_curve, monkeypatch):
    # the orbit closes within 2 loops here, and breakup stops as soon as
    # its one part passes the trace
    ws, source = octa_curve
    calls = counted(monkeypatch)
    state = breakup(ws, source)
    assert ([len(p) for p in state.partition], state.certified) == ([15], [True])
    assert len(calls) < 7


def test_breakup_retries_an_ambiguous_first_loop(octa_curve, monkeypatch):
    ws, source = octa_curve
    calls = counted(monkeypatch, raise_first=True)
    state = breakup(ws, source)
    assert len(calls) > 1
    assert ([len(p) for p in state.partition], state.certified) == ([15], [True])


def test_breakup_discards_a_loop_that_joins_certified_parts(monkeypatch):
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    lines = (x + y - 1) * (x - y)
    cubic = y ** 2 - 2 * x * y - x ** 3 + x
    wc = compute_witness_collection(PolySystem([lines * cubic]), [(1,)], rs(72))
    ws = wc.entries[(1,)]
    on_line = [i for i, p in enumerate(ws.points) if abs(evaluate(lines, p)) < 1e-8]
    on_cubic = [i for i in range(len(ws.points)) if i not in on_line]
    assert (len(on_line), len(on_cubic)) == (2, 3)
    # scripted loops, each swapping two points: the second joins the two
    # lines, which have both passed the trace by then, and the third a line
    # to the cubic, so both are jumps
    swaps = [on_cubic[:2], on_line, [on_line[0], on_cubic[0]], on_cubic[1:]]
    calls = []

    def scripted(ws, loop_rs):
        i, j = swaps[len(calls)]
        calls.append((i, j))
        permutation = {k: k for k in range(len(ws.points))}
        permutation[i], permutation[j] = j, i
        return MonodromyOutcome(permutation, [])

    tested = []  # the size of each part trace-tested, in order
    trace = monodromy.trace_test

    def spy(ws, part):
        tested.append(len(part))
        return trace(ws, part)

    monkeypatch.setattr(monodromy, "monodromy_permutation", scripted)
    monkeypatch.setattr(monodromy, "trace_test", spy)
    state = breakup(ws, rs(73))
    assert len(calls) == 4
    assert state.partition == sorted([[on_line[0]], [on_line[1]], on_cubic])
    assert state.certified == [True, True, True]
    # the five singletons, then the cubic's part of two and of three: a
    # discarded loop tests nothing and no part is tested twice
    assert tested == [1, 1, 1, 1, 1, 2, 3]


def test_trace_full_part_passes_and_subsets_fail(cubic_ws):
    fx, ws = cubic_ws
    assert trace_test(ws, list(ws.points))
    for size in (1, 2):
        part = list(ws.points)[:size]
        assert not trace_test(ws, part)


def test_trace_test_tracks_no_path(cubic_ws, monkeypatch):
    fx, ws = cubic_ws

    def refuse(*args):
        raise AssertionError("the trace test tracked a path")

    monkeypatch.setattr(multiwit.tracker, "track_many", refuse)
    assert trace_test(ws, list(ws.points))
    assert not trace_test(ws, list(ws.points)[:2])


def test_trace_passes_each_line(two_lines_ws):
    # on a line x'' = 0, so only the |x'|^2 term keeps the bound from 0
    fx, ws = two_lines_ws
    assert all(trace_test(ws, [p]) for p in ws.points)
    assert trace_test(ws, list(ws.points))


def test_trace_raises_at_a_singular_point():
    # the cusp of y^2 = x^3 cut by x = 0: J is singular there, so x' is not
    # finite and the verdict is indeterminate, not True or False
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    cusp = PolySystem([y ** 2 - x ** 3])
    ws = WitnessSet(cusp, cusp, SliceSelection(((x,),)), [[0, 0]])
    with pytest.raises(IndeterminateError, match="singular"), np.errstate(all="ignore"):
        trace_test(ws, ws.points)


def test_trace_rejects_empty_part(cubic_ws):
    fx, ws = cubic_ws
    with pytest.raises(ValueError):
        trace_test(ws, [])


def test_grow_witness_set_recovers_full_degree(cubic_ws):
    fx, ws = cubic_ws
    seeded = replace(ws, points=[ws.points[0]])
    grown = grow_witness_set(seeded, rs(69))
    assert len(grown.points) == 3


def test_grow_witness_set_runs_no_loop_on_a_set_that_passes(two_lines_ws, monkeypatch):
    # one point of a line is its whole witness set, so the trace test
    # passes before any loop
    fx, ws = two_lines_ws
    calls = counted(monkeypatch)
    grown = grow_witness_set(replace(ws, points=[ws.points[0]]), rs(69))
    assert len(grown.points) == 1
    assert calls == []


def test_grow_witness_set_raises_after_max_loops(cubic_ws, monkeypatch):
    # loops that find nothing leave one point of the cubic, which the trace
    # fails, so growth gives up after MAX_LOOPS loops
    fx, ws = cubic_ws
    calls = []

    def nothing_new(ws, loop_rs):
        calls.append(loop_rs)
        return MonodromyOutcome({i: i for i in range(len(ws.points))}, [])

    monkeypatch.setattr(monodromy, "monodromy_permutation", nothing_new)
    with pytest.raises(IndeterminateError, match="60 loops"):
        grow_witness_set(replace(ws, points=[ws.points[0]]), rs(69))
    assert len(calls) == monodromy.MAX_LOOPS


@pytest.fixture(scope="module")
def two_form_ws():
    fx = get_fixture("octahedron-fg")
    wc = compute_witness_collection(fx.system, [(1, 1, 0, 0)], rs(70))
    ws = wc.entries[(1, 1, 0, 0)]
    assert len(ws.selection.forms) == 2
    return ws


def test_grow_witness_set_needs_one_moving_form(two_form_ws):
    with pytest.raises(ValueError, match="one moving form"):
        grow_witness_set(two_form_ws, rs(71))


def test_breakup_refuses_a_multi_form_key(two_form_ws):
    # the linear trace cannot certify a part of a key with two moving
    # forms, so breakup refuses the key rather than return an uncertified
    # partition
    with pytest.raises(ValueError, match="one moving form"):
        breakup(two_form_ws, rs(74))
