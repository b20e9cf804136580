import itertools

import numpy as np
import pytest

import multiwit.tracker
from multiwit import (
    IndeterminateError,
    PathResult,
    PolySystem,
    Polynomial,
    VariableGrouping,
    complete_intersection_class,
    mbezout,
    solve_zero_dim,
    solve_zero_dims,
    square_up,
    start_package,
)
from multiwit.fixtures import get_fixture
from multiwit.startsys import RESIDUAL_TOL
from multiwit.tracker import relative_residual
from multiwit.witness import random_affine_form

from conftest import rs, start_polys


def test_class_of_two_bilinear_forms():
    # two (1,1)-forms on C^1 x C^1: the class is 2*s1*s2
    assert mbezout([[1, 1], [1, 1]], (1, 1)) == 2


def test_class_single_form():
    assert complete_intersection_class([[2]], (2,)) == {(1,): 2}
    assert complete_intersection_class([], (2,)) == {(2,): 1}


def test_class_truncates_by_group_sizes():
    # (s1+s2)^2 mod s1^2, s2^2 keeps only the mixed term
    assert complete_intersection_class([[1, 1], [1, 1]], (1, 1)) == {(0, 0): 2}


def test_class_rejects_excess_forms():
    with pytest.raises(ValueError):
        complete_intersection_class([[1], [1], [1]], (2,))


def test_mbezout_requires_square_pattern():
    with pytest.raises(ValueError):
        mbezout([[1, 1]], (1, 1))


def test_mbezout_classical_bezout():
    # two conics in the plane (one group of size 2): 4 intersections
    assert mbezout([[2], [2]], (2,)) == 4


def test_linear_product_package_counts_and_solves():
    g = VariableGrouping.from_sizes([1, 1], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    target = PolySystem([x * y - 1, x + y - 3])
    sp = start_package(target, rs(11))
    # degrees (1,1) and (1,1): the count is the permanent, 2
    assert len(sp.solutions) == mbezout([p.multidegree() for p in target.polys], g.sizes) == 2
    start = PolySystem(start_polys(sp, g))
    for s in sp.solutions:
        assert np.max(np.abs(start.evaluate(s))) < 1e-9


def test_start_package_cells_match_a_per_cell_reference():
    # the pruned enumeration with stacked solves gives the cells of the plain
    # depth-first enumeration over each equation's factors, in its order,
    # each cell solved on its own, bit for bit
    fx = get_fixture("hyperboloid")
    g = fx.system.grouping
    (key,) = fx.default_keys
    groups = [i for i, e in enumerate(key) for _ in range(e)]
    target = fx.system.concat(
        [random_affine_form(g, g.blocks[i], rs(70 + n)) for n, i in enumerate(groups)])
    sp = start_package(target, rs(74))
    draw = rs(74)  # the same forms, drawn in the same order
    factors = [[(i, random_affine_form(g, g.blocks[i], draw))
                for i, d in enumerate(p.multidegree()) for _ in range(d)]
               for p in target.polys]
    unit = lambda v: tuple(int(u == v) for u in range(g.nvars))  # noqa: E731
    expected = []
    for chosen in itertools.product(*factors):
        if [sum(gi == i for gi, _ in chosen) for i in range(g.k)] != list(g.sizes):
            continue
        x = np.zeros(g.nvars, dtype=complex)
        for i, block in enumerate(g.blocks):
            forms = [f for gi, f in chosen if gi == i]
            A = np.array([[f.terms.get(unit(v), 0.0) for v in block] for f in forms], dtype=complex)
            b = np.array([-f.terms.get((0,) * g.nvars, 0.0) for f in forms], dtype=complex)
            x[list(block)] = np.linalg.solve(A, b)
        expected.append(x)
    assert len(sp.solutions) == len(expected) > 0
    assert all(np.array_equal(a, b) for a, b in zip(sp.solutions, expected))


def test_pentad_start_package_has_every_cell():
    # the pentad's 32 equations plus the 8 slice forms of its key: the cell
    # enumeration enters only branches that can still fill every group, so
    # all 55,296 cells come out in seconds
    fx = get_fixture("pentad")
    g = fx.system.grouping
    (key,) = fx.default_keys
    groups = [i for i, e in enumerate(key) for _ in range(e)]
    slices = [random_affine_form(g, g.blocks[i], rs(60 + n)) for n, i in enumerate(groups)]
    sp = start_package(fx.system.concat(slices), rs(68))
    assert len(sp.solutions) == 55296
    start = PolySystem(start_polys(sp, g))
    for s in sp.solutions[::9216]:
        assert relative_residual(start.evaluate(s), start.residual_scale(s)) < 1e-12


def test_start_package_validation():
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x = Polynomial.variable(g, 0)
    with pytest.raises(ValueError):
        start_package(PolySystem([x]), rs(0))  # not square


def test_square_up():
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    F = PolySystem([x - 1, y - 2, x + y - 3])
    same = square_up(F, 3, rs(12))
    assert same is F
    small = square_up(F, 2, rs(12))
    assert len(small) == 2
    # combinations of F vanish wherever F does
    pt = np.array([1.0, 2.0], dtype=complex)
    assert np.max(np.abs(small.evaluate(pt))) < 1e-12
    with pytest.raises(ValueError):
        square_up(F, 4, rs(12))


def test_residual_ok_scales_relatively():
    g = VariableGrouping.from_sizes([1], ["x"])
    x = Polynomial.variable(g, 0)
    F = PolySystem([x**2 - 1])

    def residual(p):
        return relative_residual(F.evaluate(p), F.residual_scale(p))

    assert residual(np.array([1.0 + 0j])) < RESIDUAL_TOL
    assert not residual(np.array([1.1 + 0j])) < RESIDUAL_TOL


def test_solve_zero_dim_line_pair():
    fx = get_fixture("two-lines")
    g = fx.system.grouping
    slices = [random_affine_form(g, [0, 1], rs(13))]
    pts = solve_zero_dim(fx.system, slices, rs(14))
    assert len(pts) == 2
    full = fx.system.concat(slices)
    for p in pts:
        assert relative_residual(full.evaluate(p), full.residual_scale(p)) < RESIDUAL_TOL


def test_solve_zero_dim_cubic_degree():
    fx = get_fixture("cubic")
    g = fx.system.grouping
    slices = [random_affine_form(g, [0, 1], rs(15))]
    pts = solve_zero_dim(fx.system, slices, rs(16))
    assert len(pts) == 3


def test_solve_zero_dim_reports_a_failed_start_path(monkeypatch):
    # the start homotopy is under the tracker's one failed-path policy: a
    # failed path raises, never a silently shorter solution set
    fx = get_fixture("cubic")
    g = fx.system.grouping
    slices = [random_affine_form(g, [0, 1], rs(15))]
    track_many = multiwit.tracker.track_many

    def second_fails(h, starts, member=None):
        results = track_many(h, starts, member)
        results[1] = PathResult("failed", None, 0)
        return results

    monkeypatch.setattr(multiwit.tracker, "track_many", second_fails)
    with pytest.raises(IndeterminateError, match="a start path failed"):
        solve_zero_dim(fx.system, slices, rs(16))


def test_solve_zero_dim_rejects_underdetermined():
    fx = get_fixture("cubic")
    with pytest.raises(ValueError):
        solve_zero_dim(fx.system, [], rs(0))


def test_solve_zero_dims_needs_every_slicing_square_with_the_core():
    # the cubic is one equation in two variables, so it takes one slice
    # form; a slicing of two forms or of none is refused, with its counts
    fx = get_fixture("cubic")
    one = [random_affine_form(fx.system.grouping, [0, 1], rs(15))]
    with pytest.raises(ValueError, match=r"1 equations \+ 2 slices != 2 variables"):
        solve_zero_dims(fx.system, fx.system, [one, one + one], [rs(16), rs(17)])
    with pytest.raises(ValueError, match=r"1 equations \+ 0 slices != 2 variables"):
        solve_zero_dims(fx.system, fx.system, [[]], [rs(16)])
    assert solve_zero_dims(fx.system, fx.system, [], []) == []
