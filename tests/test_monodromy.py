from dataclasses import replace

import pytest

import multiwit.monodromy as monodromy
from multiwit import (
    IndeterminateError,
    PolySystem,
    Polynomial,
    VariableGrouping,
    breakup,
    compute_witness_collection,
    grow_witness_set,
    monodromy_permutation,
    trace_test,
)
from multiwit.fixtures import get_fixture
from multiwit.monodromy import MonodromyOutcome

from conftest import rs
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
    """Count breakup's calls to monodromy_permutation; with raise_first the
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
    # the orbit closes within 2 loops here; waiting for QUIET_LOOPS quiet
    # loops after that would make 7
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
    on_line = [i for i, p in enumerate(ws.points) if abs(lines.evaluate(p)) < 1e-8]
    on_cubic = [i for i in range(len(ws.points)) if i not in on_line]
    assert (len(on_line), len(on_cubic)) == (2, 3)
    # scripted loops, each swapping two points: the second joins the two
    # lines, which have both passed the trace by then, so it is a jump
    swaps = [on_cubic[:2], on_line, on_cubic[1:]]
    calls = []

    def scripted(ws, loop_rs):
        i, j = swaps[len(calls)]
        calls.append((i, j))
        permutation = {k: k for k in range(len(ws.points))}
        permutation[i], permutation[j] = j, i
        return MonodromyOutcome(permutation, [])

    monkeypatch.setattr(monodromy, "monodromy_permutation", scripted)
    state = breakup(ws, rs(73))
    assert len(calls) == 3
    assert state.partition == sorted([[on_line[0]], [on_line[1]], on_cubic])
    assert state.certified == [True, True, True]


def test_trace_full_part_passes_and_subsets_fail(cubic_ws):
    fx, ws = cubic_ws
    assert trace_test(ws, list(ws.points), rs(67))
    for size in (1, 2):
        part = list(ws.points)[:size]
        assert not trace_test(ws, part, rs(68))


def test_trace_rejects_empty_part(cubic_ws):
    fx, ws = cubic_ws
    with pytest.raises(ValueError):
        trace_test(ws, [], rs(66))


def test_grow_witness_set_recovers_full_degree(cubic_ws):
    fx, ws = cubic_ws
    seeded = replace(ws, points=[ws.points[0]])
    grown, stable = grow_witness_set(seeded, rs(69))
    assert len(grown.points) == 3
    assert stable


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
