from dataclasses import replace

import pytest

from multiwit import (
    breakup,
    compute_witness_collection,
    grow_witness_set,
    monodromy_permutation,
    random_loop,
    trace_test,
)
from multiwit.fixtures import get_fixture

from conftest import rs


@pytest.fixture(scope="module")
def cubic_ws(opts):
    fx = get_fixture("cubic")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(60), opts)
    return fx, wc.entries[(1,)]


@pytest.fixture(scope="module")
def two_lines_ws(opts):
    fx = get_fixture("two-lines")
    wc = compute_witness_collection(fx.system, fx.default_keys, rs(61), opts)
    return fx, wc.entries[(1,)]


def test_random_loop_matches_selection_shape(cubic_ws):
    fx, ws = cubic_ws
    loop = random_loop(ws, rs(62))
    assert len(loop.forms1) == len(ws.selection.forms)
    assert len(loop.forms2) == len(ws.selection.forms)
    for gamma in loop.gammas:
        assert abs(abs(gamma) - 1) < 1e-12


def test_monodromy_permutation_is_bijection(cubic_ws, opts):
    fx, ws = cubic_ws
    outcome = monodromy_permutation(ws, random_loop(ws, rs(63)), opts)
    assert not outcome.new_points
    assert sorted(outcome.permutation) == [0, 1, 2]
    assert sorted(outcome.permutation.values()) == [0, 1, 2]


def test_breakup_cubic_is_one_certified_orbit(cubic_ws, opts):
    fx, ws = cubic_ws
    state = breakup(ws, rs(64), opts)
    assert [len(p) for p in state.partition] == [3]
    assert state.certified == [True]
    assert state.complete


def test_breakup_two_lines_gives_two_certified_parts(two_lines_ws, opts):
    fx, ws = two_lines_ws
    state = breakup(ws, rs(65), opts)
    assert sorted(len(p) for p in state.partition) == [1, 1]
    assert state.certified == [True, True]
    assert state.complete


def test_trace_full_part_passes_and_subsets_fail(cubic_ws, opts):
    fx, ws = cubic_ws
    assert trace_test(ws, list(ws.points), rs(67), opts)
    for size in (1, 2):
        part = list(ws.points)[:size]
        assert not trace_test(ws, part, rs(68), opts)


def test_trace_rejects_empty_part(cubic_ws):
    fx, ws = cubic_ws
    with pytest.raises(ValueError):
        trace_test(ws, [], rs(66))


def test_grow_witness_set_recovers_full_degree(cubic_ws, opts):
    fx, ws = cubic_ws
    seeded = replace(ws, points=[ws.points[0]])
    grown, stable = grow_witness_set(seeded, rs(69), opts)
    assert len(grown.points) == 3
    assert stable



def test_grow_witness_set_needs_one_moving_form(opts):
    fx = get_fixture("octahedron-fg")
    wc = compute_witness_collection(fx.system, [(1, 1, 0, 0)], rs(70), opts)
    ws = wc.entries[(1, 1, 0, 0)]
    assert len(ws.selection.forms) == 2
    with pytest.raises(ValueError, match="one moving form"):
        grow_witness_set(ws, rs(71), opts)
