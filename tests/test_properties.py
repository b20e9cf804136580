"""Seed-swept behavioral properties of the core operations."""

import itertools

import numpy as np

from multiwit import (
    Homotopy,
    IndeterminateError,
    PolySystem,
    Polynomial,
    RandomSource,
    VariableGrouping,
    compute_witness_collection,
    monodromy_permutation,
    nid_multi,
    product_factorization,
    refine,
    slice_collection,
    trace_test,
    track_many,
)
from multiwit.fixtures import get_fixture
from multiwit.monodromy import TRACE_TOL

from conftest import evaluate, on_its_slices

SEEDS = list(range(10))


def source(seed_index, stream):
    return RandomSource(seed=9000 + seed_index, stream=stream)


def test_monodromy_is_a_bijection_on_one_component():
    fx = get_fixture("cubic")
    for s in SEEDS:
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        source(s, 1))
        ws = wc.entries[(1,)]
        outcome = monodromy_permutation(ws, source(s, 2))
        assert not outcome.new_points, f"seed {s} found extra points"
        matched = sorted(outcome.permutation)
        images = sorted(outcome.permutation.values())
        assert matched == images == list(range(3)), f"seed {s} not a bijection"


def test_monodromy_never_mixes_distinct_components():
    # the two lines are distinct irreducible components with one witness
    # point each, so every loop must fix both points
    fx = get_fixture("two-lines")
    for s in SEEDS:
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        source(s, 3))
        ws = wc.entries[(1,)]
        outcome = monodromy_permutation(ws, source(s, 4))
        assert outcome.permutation == {0: 0, 1: 1}, f"seed {s} mixed components"


def test_refine_output_never_exceeds_input():
    fx = get_fixture("cubic")
    for s in SEEDS:
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        source(s, 5))
        ws = wc.entries[(1,)]
        for target in ((1, 0), (0, 1)):
            refined = refine(ws, (0, 1), target, source(s, 6))
            assert len(refined.points) <= len(ws.points), f"seed {s}"


def test_slice_is_exact_bookkeeping():
    fx = get_fixture("cubic-split")
    for s in SEEDS:
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        source(s, 7))
        sliced = slice_collection(wc, 1)
        src = wc.entries[(0, 1)]
        dst = sliced.entries[(0, 0)]
        assert len(dst.points) == len(src.points)
        for a, b in zip(src.points, dst.points):
            assert np.array_equal(a, b), f"seed {s} tracked a path"


def test_every_witness_point_reverifies():
    for name in ("cubic", "cubic-split", "two-lines"):
        fx = get_fixture(name)
        for s in SEEDS:
            wc = compute_witness_collection(fx.system, fx.default_keys,
                                            source(s, 8))
            for e, ws in wc.entries.items():
                assert on_its_slices(ws), f"{name} seed {s} key {e}"


def test_trace_separates_full_parts_from_strict_subsets():
    fx = get_fixture("cubic")
    for s in SEEDS:
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        source(s, 9))
        ws = wc.entries[(1,)]
        assert trace_test(ws, list(ws.points)), f"seed {s}"
        for size in (1, 2):
            assert not trace_test(ws, list(ws.points)[:size]), \
                f"seed {s} subset {size}"


def test_polytope_cardinality_factors_exactly():
    # random product polytopes: the factorization must split off the first
    # group and the point count must equal the product of the projections
    for s in SEEDS:
        rng = np.random.default_rng(s)
        A = {(int(a),) for a in rng.choice(4, size=rng.integers(1, 4),
                                           replace=False)}
        B = {tuple(int(x) for x in row)
             for row in rng.integers(0, 3, size=(rng.integers(1, 5), 2))}
        points = [a + b for a in A for b in B]
        blocks = product_factorization(points)
        assert any(set(b) == {0} for b in blocks) or len(A) == 1, f"seed {s}"
        total = 1
        for b in blocks:
            total *= len({tuple(p[i] for i in b) for p in points})
        assert total == len(points), f"seed {s}"


def tracked_trace_test(ws, part, rs):
    """The linear trace test by tracking, the reference for `trace_test`:
    translate the slice form l to l + s*c, c a random constant, track the
    part to two values of s and check that its centroid moves affinely, to
    a relative TRACE_TOL."""
    forms = ws.selection.forms
    pencil = Polynomial.constant(ws.system.grouping, rs.substream(9).unit_complex())
    rotation = rs.substream(10).unit_complex()
    s_values = (0.5 * rotation, rotation)
    centroids = [np.mean(part, axis=0)]
    for s in s_values:
        # gamma = 1 keeps the slice motion affine in t, which the trace needs
        h = Homotopy(PolySystem(forms), PolySystem([forms[0] + s * pencil]), 1.0,
                     ws.fixed_block)
        results = track_many(h, part)
        if not all(r.status == "converged" for r in results):
            raise IndeterminateError("a trace test path did not converge")
        centroids.append(np.mean([r.endpoint for r in results], axis=0))
    v1 = (centroids[1] - centroids[0]) / s_values[0]
    v2 = (centroids[2] - centroids[0]) / s_values[1]
    scale = max(1.0, float(np.linalg.norm(v1)), float(np.linalg.norm(v2)))
    return bool(np.linalg.norm(v1 - v2) < TRACE_TOL * scale)


def lines_times_cubic():
    """Two lines and a plane cubic in one curve: 5 witness points on 3
    components, so its parts include unions of whole components."""
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    factors = [x + y - 1, x - y, y ** 2 - 2 * x * y - x ** 3 + x]
    return PolySystem([factors[0] * factors[1] * factors[2]]), factors


def trace_cases():
    """(witness set, its points' component labels) for one-form curves:
    the cubic, the two lines, the lines and the cubic, and the
    octahedron-fg curve that nid cuts out with fixed forms."""
    cases = []
    for s in SEEDS[:5]:
        for name in ("cubic", "two-lines"):
            fx = get_fixture(name)
            ws = compute_witness_collection(fx.system, fx.default_keys,
                                            source(s, 9)).entries[(1,)]
            labels = [0] * 3 if name == "cubic" else [0, 1]
            cases.append((ws, labels))
    system, factors = lines_times_cubic()
    for s in SEEDS[:2]:
        ws = compute_witness_collection(system, [(1,)], source(s, 13)).entries[(1,)]
        labels = [min(range(3), key=lambda k: abs(evaluate(factors[k], p))) for p in ws.points]
        assert sorted(labels) == [0, 1, 2, 2, 2]
        cases.append((ws, labels))
    fx = get_fixture("octahedron-fg")
    wc = compute_witness_collection(fx.system, fx.default_keys, source(0, 14))
    points = [p for _, ws in sorted(wc.entries.items()) for p in ws.points]
    (rec,) = nid_multi(fx.system, points, source(0, 15)).components
    cases.append((rec.curve_witness, [0] * rec.curve_degree))
    return cases


def test_trace_without_tracking_agrees_with_the_tracked_trace():
    # every nonempty part of each case: whole components, proper subsets
    # and unions; a part passes exactly when it is a union of whole
    # components, and the two tests agree on it
    parts = 0
    for c, (ws, labels) in enumerate(trace_cases()):
        n = len(ws.points)
        for size in range(1, n + 1):
            for part in itertools.combinations(range(n), size):
                whole = all(labels.count(k) == [labels[i] for i in part].count(k)
                            for k in {labels[i] for i in part})
                points = [ws.points[i] for i in part]
                reference = tracked_trace_test(ws, points, source(c, 100 + parts))
                assert trace_test(ws, points) == reference == whole, (c, part)
                parts += 1
    assert parts >= 100
