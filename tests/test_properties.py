"""Seed-swept behavioral properties of the core operations."""

import numpy as np

from multiwit import (
    RandomSource,
    compute_witness_collection,
    monodromy_permutation,
    product_factorization,
    refine,
    slice_collection,
    trace_test,
)
from multiwit.fixtures import get_fixture

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
                assert ws.verify(), f"{name} seed {s} key {e}"


def test_trace_separates_full_parts_from_strict_subsets():
    fx = get_fixture("cubic")
    for s in SEEDS:
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        source(s, 9))
        ws = wc.entries[(1,)]
        assert trace_test(ws, list(ws.points), source(s, 11)), f"seed {s}"
        for size in (1, 2):
            assert not trace_test(ws, list(ws.points)[:size], source(s, 12)), \
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
