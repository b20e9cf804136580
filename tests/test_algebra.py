import itertools

import numpy as np
import pytest

import multiwit.fixtures as fixtures
from multiwit import (
    PolySystem,
    Polynomial,
    VariableGrouping,
)

from conftest import diff, evaluate


def grouping2():
    return VariableGrouping.from_sizes([2, 1], ["x1", "x2", "y"])


def test_grouping_basics():
    g = grouping2()
    assert g.k == 2
    assert g.sizes == (2, 1)
    assert g.nvars == 3


def test_grouping_merge_and_split():
    g = grouping2()
    m = g.merge(0, 1)
    assert m.k == 1
    assert m.sizes == (3,)
    s = g.split(0, [0])
    assert s.k == 3
    assert s.sizes == (1, 1, 1)


def test_polynomial_arithmetic_expansion():
    g = grouping2()
    x1 = Polynomial.variable(g, 0)
    x2 = Polynomial.variable(g, 1)
    p = (x1 + x2) ** 2
    assert set(p.terms) == {(2, 0, 0), (1, 1, 0), (0, 2, 0)}
    assert p.terms[(2, 0, 0)] == 1
    assert p.terms[(1, 1, 0)] == 2
    assert p.terms[(0, 2, 0)] == 1


def test_polynomial_evaluate_matches_direct_computation():
    g = grouping2()
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    p = 3 * x1**2 * y - 2 * x2 + 5
    pt = np.array([1.5 + 0.5j, -2.0, 0.25j])
    expected = 3 * pt[0] ** 2 * pt[2] - 2 * pt[1] + 5
    assert abs(evaluate(p, pt) - expected) < 1e-12


def test_polynomial_diff():
    g = grouping2()
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    p = x1**3 * y + 7 * x2
    dp = diff(p, 0)
    pt = np.array([2.0, 3.0, 4.0], dtype=complex)
    assert abs(evaluate(dp, pt) - 3 * pt[0] ** 2 * pt[2]) < 1e-12
    assert abs(evaluate(diff(p, 1), pt) - 7) < 1e-12


def test_multidegree_per_group():
    g = grouping2()
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    p = x1 * x2 * y**2 + x1**3
    assert p.multidegree() == (3, 2)


def test_affine_constructor():
    g = grouping2()
    p = Polynomial.affine(g, [2.0, 3.0], 1.0, [0, 2])
    pt = np.array([1.0, 9.0, 2.0], dtype=complex)
    assert abs(evaluate(p, pt) - (2 * 1 + 3 * 2 + 1)) < 1e-12


def test_system_requires_polynomials_and_shared_grouping():
    g = grouping2()
    other = VariableGrouping.from_sizes([3], ["a", "b", "c"])
    with pytest.raises(ValueError):
        PolySystem([])
    with pytest.raises(ValueError):
        PolySystem([Polynomial.variable(g, 0), Polynomial.variable(other, 0)])


def test_jacobian_matches_finite_differences():
    g = grouping2()
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    F = PolySystem([x1**2 * y - x2, x1 + x2 * y**3])
    pt = np.array([1.1, -0.3, 0.7], dtype=complex)
    J = F.jacobian(pt)
    h = 1e-7
    for v in range(3):
        dpt = pt.copy()
        dpt[v] += h
        col = (F.evaluate(dpt) - F.evaluate(pt)) / h
        assert np.allclose(J[:, v], col, atol=1e-5)


def test_system_calls_check_the_point_size():
    # a point with one coordinate too many would read that coordinate as the
    # constant monomial's 1
    g = grouping2()
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    F = PolySystem([x1 * y + 2, x2 - y])
    for method in (F.evaluate, F.jacobian, F.residual_scale):
        for size in (2, 4):
            with pytest.raises(ValueError, match="coordinates"):
                method(np.ones(size, dtype=complex))


def test_concat_refuses_a_form_on_another_grouping():
    g = grouping2()
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    F = PolySystem([x1 * y])
    assert len(F.concat([x2 + y])) == 2
    with pytest.raises(ValueError, match="one grouping"):
        F.concat([(x2 + y).with_grouping(g.merge(0, 1))])


def test_with_grouping_preserves_values():
    g = grouping2()
    merged = g.merge(0, 1)
    x1, x2, y = (Polynomial.variable(g, v) for v in range(3))
    p = x1 * y - x2**2
    q = p.with_grouping(merged)
    pt = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert abs(evaluate(q, pt) - evaluate(p, pt)) < 1e-12
    assert q.grouping.k == 1


def permutation_det(entries):
    """The determinant by the permutation formula: each permutation in
    lexicographic order, its entries multiplied from the first row down."""
    total = None
    for perm in itertools.permutations(range(len(entries))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = entries[0][perm[0]]
        for i in range(1, len(perm)):
            term = term * entries[i][perm[i]]
        term = (-1) ** inversions * term
        total = term if total is None else total + term
    return total


def test_cofactor_det_has_the_permutation_formulas_terms(monkeypatch):
    # the richardson minors by cofactor expansion have the permutation
    # formula's terms, bit for bit and in the same order, so every table
    # compiled from them is unchanged
    matrices, det = [], fixtures._poly_det

    def recorded(entries):
        if len(entries) == 5:  # not the expansion's own minors
            matrices.append(entries)
        return det(entries)

    monkeypatch.setattr(fixtures, "_poly_det", recorded)
    minors = fixtures._richardson_minors("four").polys
    monkeypatch.undo()
    assert len(matrices) == len(minors) == 4
    for entries, minor in zip(matrices, minors):
        reference = permutation_det(entries).terms
        assert list(minor.terms) == list(reference)
        assert np.array(list(minor.terms.values())).tobytes() == \
            np.array(list(reference.values())).tobytes()
