import collections
import itertools
import warnings

import numpy as np
import pytest

import multiwit.nid
import multiwit.tracker
from multiwit import (
    Homotopy,
    PolySystem,
    Polynomial,
    RandomSource,
    VariableGrouping,
    coarsen_collection,
    compute_witness_collection,
    newton_refine,
    nid_multi,
    track_many,
    track_path,
)
from multiwit.algebra import Members, affine_rows
from multiwit.fixtures import get_fixture
from multiwit.tracker import dedupe_points, points_equal, track_slice_motion
from multiwit.witness import passes_through

from conftest import diff, evaluate, extended, product, rs


def univariate():
    g = VariableGrouping.from_sizes([1], ["x"])
    return g, Polynomial.variable(g, 0)


def test_track_quadratic_to_quadratic():
    g, x = univariate()
    h = Homotopy(PolySystem([x**2 - 1]), PolySystem([x**2 - 4]),
                 gamma=rs(0).unit_complex())
    results = track_many(h, [np.array([1.0 + 0j]), np.array([-1.0 + 0j])])
    assert all(r.status == "converged" for r in results)
    ends = sorted(complex(r.endpoint[0]).real for r in results)
    assert abs(ends[0] + 2) < 1e-8 and abs(ends[1] - 2) < 1e-8


def test_track_matches_numpy_roots():
    g, x = univariate()
    coeffs = [1.0, -0.7 + 0.3j, 2.0, -1.5j]  # x^3 - ... cubic
    target = (
        x**3 + coeffs[1] * x**2 + coeffs[2] * x
        + Polynomial.constant(g, coeffs[3])
    )
    h = Homotopy(PolySystem([x**3 - 1]), PolySystem([target]),
                 gamma=rs(1).unit_complex())
    starts = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
    results = track_many(h, starts)
    assert all(r.status == "converged" for r in results)
    got = sorted((complex(r.endpoint[0]) for r in results),
                 key=lambda z: (z.real, z.imag))
    expected = sorted(np.roots(coeffs), key=lambda z: (z.real, z.imag))
    for a, b in zip(got, expected):
        assert abs(a - b) < 1e-7


def test_degree_drop_classifies_divergence():
    g, x = univariate()
    # the cubic degenerates to a quadratic at t=0: one path must diverge
    h = Homotopy(PolySystem([x**3 - 1]), PolySystem([x**2 - 2]),
                 gamma=rs(2).unit_complex())
    starts = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
    results = track_many(h, starts)
    statuses = sorted(r.status for r in results)
    assert statuses == ["converged", "converged", "diverged"]
    ends = sorted(complex(r.endpoint[0]).real for r in results if r.status == "converged")
    assert abs(ends[0] + np.sqrt(2)) < 1e-8 and abs(ends[1] - np.sqrt(2)) < 1e-8


def test_reused_homotopy_tracks_like_a_fresh_one():
    # a path's result depends only on the homotopy and its start point, not
    # on the paths tracked before it on the same object
    g, x = univariate()

    def make():
        return Homotopy(PolySystem([x**3 - 1]), PolySystem([x**2 - 2]),
                        gamma=rs(2).unit_complex())

    starts = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
    reused = make()
    track_many(reused, starts)
    again = track_many(reused, starts[::-1])
    fresh = [track_path(make(), s) for s in starts[::-1]]
    assert sorted(r.status for r in fresh) == ["converged", "converged", "diverged"]
    for a, b in zip(again, fresh):
        assert (a.status, a.steps_taken) == (b.status, b.steps_taken)
        assert (a.endpoint is None and b.endpoint is None) or np.array_equal(a.endpoint, b.endpoint)


def test_track_path_single():
    g, x = univariate()
    h = Homotopy(PolySystem([x**2 - 1]), PolySystem([x**2 - 9]), gamma=1.0)
    r = track_path(h, np.array([1.0 + 0j]))
    assert r.status == "converged"
    assert abs(r.endpoint[0] - 3) < 1e-8
    assert r.steps_taken > 0


def test_homotopy_shape_validation():
    g, x = univariate()
    with pytest.raises(ValueError):
        Homotopy(PolySystem([x, x]), PolySystem([x]), gamma=1.0)
    with pytest.raises(ValueError):
        Homotopy(PolySystem([x]), PolySystem([x]), gamma=0.0)


def test_fixed_block_stays_satisfied():
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    circle = x**2 + y**2 - 2
    # move a line through (1,1) to a line through (1,-1), along the circle
    start_line = x - y
    end_line = x + y
    h = Homotopy(PolySystem([start_line]), PolySystem([end_line]),
                 gamma=rs(3).unit_complex(), fixed=PolySystem([circle]))
    r = track_path(h, np.array([1.0 + 0j, 1.0 + 0j]))
    assert r.status == "converged"
    assert abs(evaluate(circle, r.endpoint)) < 1e-7
    assert abs(evaluate(end_line, r.endpoint)) < 1e-7


@pytest.mark.parametrize("k", [3, 7])
def test_slice_motion_draws_its_gamma_from_the_stream(k):
    # track_slice_motion is the homotopy [fixed; t*gamma*old + (1-t)*new]
    # with gamma the stream's first draw, bit for bit
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    fixed = PolySystem([x**2 + y**2 - 2])
    old, new = [x - y], [x + 2 * y - 1]
    points = [np.array([1.0 + 0j, 1.0 + 0j]), np.array([-1.0 + 0j, -1.0 + 0j])]
    ends = track_slice_motion(fixed, old, new, points, rs(k))
    h = Homotopy(PolySystem(old), PolySystem(new), rs(k).unit_complex(), fixed)
    results = track_many(h, points)
    assert all(r.status == "converged" for r in results)
    assert [e.tobytes() for e in ends] == [r.endpoint.tobytes() for r in results]


def random_poly(g, rng, nterms, maxdeg):
    terms = {tuple(rng.integers(0, maxdeg + 1, g.nvars)): complex(*rng.normal(size=2))
             for _ in range(nterms)}
    return Polynomial(g, terms)


def block_pieces(start, target, gamma, fixed=None):
    """The rows of [fixed; t*gamma*start + (1-t)*target] as pieces
    (p, a, b, forms): row j is the sum of (a + t*b) * p over its pieces, and
    `forms`, where not None, holds the affine rows whose product p is."""
    start, target = tuple(start), tuple(target)
    rows = [[(p, 1, 0, None)] for p in (fixed or ())]
    for j in range(max(len(start), len(target))):
        rows.append([(start[j], 0, gamma, None)] if j < len(start) else [])
        if j < len(target):
            rows[-1].append((target[j], 1, -1, None))
    return rows


def reference(rows, x, t):
    """H, J_x, dH/dt and the residual scale of rows of pieces (p, a, b, forms)
    (see `block_pieces`), each piece evaluated and differentiated term by
    term through Polynomial.  A piece adds |a + t*b| * (size + 1) to its
    row's scale, where the size of p is its terms' sum of |coeff| *
    |monomial|, or, for a product of forms, the product of their sizes."""
    def size(p, forms):
        if forms is None:
            return evaluate(Polynomial(p.grouping, {e: abs(c) for e, c in p.terms.items()}),
                            np.abs(x)).real
        return np.prod([np.abs(f[:-1]) @ np.abs(x) + abs(f[-1]) for f in forms])

    H = [sum((a + t * b) * evaluate(p, x) for p, a, b, _ in row) for row in rows]
    J = [[sum((a + t * b) * evaluate(diff(p, v), x) for p, a, b, _ in row)
          for v in range(len(x))] for row in rows]
    dt = [sum(b * evaluate(p, x) for p, a, b, _ in row) for row in rows]
    sc = [sum(abs(a + t * b) * (size(p, forms) + 1) for p, a, b, forms in row)
          for row in rows]
    return tuple(np.array(v) for v in (H, J, dt, sc))


def fused_homotopy(with_fixed, rng):
    """(homotopy, parts): `parts` is the (start, target, gamma, fixed) it is
    built from."""
    g = VariableGrouping.from_sizes([2, 2], ["x", "y", "u", "v"])
    nfixed = 2 if with_fixed else 0
    # rows of more than eight terms, a zero row and a constant row
    start = [random_poly(g, rng, 12, 3), Polynomial(g, {}), Polynomial.constant(g, 2.5),
             random_poly(g, rng, 3, 2)][:4 - nfixed]
    target = [random_poly(g, rng, 5, 4) for _ in range(4 - nfixed)]
    fixed = PolySystem([random_poly(g, rng, 9, 3) for _ in range(nfixed)]) if with_fixed else None
    parts = (PolySystem(start), PolySystem(target), 1.7 * rs(4).unit_complex(), fixed)
    return Homotopy(*parts), parts


@pytest.mark.parametrize("with_fixed", [False, True])
def test_fused_kernel_matches_block_formulas(with_fixed):
    rng = np.random.default_rng(7)
    h, parts = fused_homotopy(with_fixed, rng)
    for _ in range(5):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = float(rng.uniform(0.01, 0.99))
        # a batch of one point: every result is row 0
        H, scale, J, dt = (a[0] for a in h.evaluate(x[None], t, scaled=True))
        for a, b in zip((H, J, dt, scale), reference(block_pieces(*parts), x, t)):
            assert a.shape == b.shape
            assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
        # without the scale, the same kernel call gives the same H, J_x, dH/dt
        H2, no_scale, J2, dt2 = h.evaluate(x[None], t)
        H2, J2, dt2 = H2[0], J2[0], dt2[0]
        assert no_scale is None
        assert all(np.array_equal(a, b) for a, b in ((H, H2), (J, J2), (dt, dt2)))


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


MEMBERS = 3
COUNTS = (2, 1)  # forms per start row of `member_homotopy`'s members


def member_homotopy(with_fixed, rng, untouched=False):
    """(homotopy, rows): a homotopy whose last two rows start at each
    member's own products, of two forms and of one, and whose last row ends
    at its own form, and each member's rows of pieces (see `block_pieces`);
    two of the forms leave out a group.  With `untouched`, both forms of the
    product leave out (u, v), so no form touches its gradient slots on u
    and v."""
    g = VariableGrouping.from_sizes([2, 2], ["x", "y", "u", "v"])
    moving = 2 if with_fixed else 4
    factors = complex_normal(rng, MEMBERS, 3, 5)
    factors[:, 0, 2:4] = factors[:, 2, 0:2] = 0
    if untouched:
        factors[:, 1, 2:4] = 0
    forms = complex_normal(rng, MEMBERS, 1, 5)
    fixed = PolySystem([random_poly(g, rng, 9, 3) for _ in range(2)]) if with_fixed else None
    parts = ([random_poly(g, rng, 6, 2) for _ in range(moving - 2)],
             [random_poly(g, rng, 5, 3) for _ in range(moving - 1)],
             1.7 * rs(4).unit_complex(), fixed)
    first = np.cumsum(COUNTS) - COUNTS
    members = []
    for k in range(MEMBERS):
        rows = block_pieces(*parts) + [[]]
        for row, f, c in zip(rows[-2:], first, COUNTS):
            row.append((product(g, factors[k, f:f + c]), 0, 1, factors[k, f:f + c]))
        rows[-1].append((product(g, forms[k]), 1, -1, forms[k]))
        members.append(rows)
    return Homotopy(*parts, Members(factors, COUNTS, forms)), members


@pytest.mark.parametrize("with_fixed", [False, True])
def test_member_kernel_matches_expanded_products(with_fixed):
    # a member's start rows, given as their forms, are the expanded products
    # of those forms and its target row its form: H, J_x, dH/dt and the
    # scale match the term-by-term oracle to rounding
    # also with a product whose forms leave its slots on a group untouched
    rng = np.random.default_rng(11)
    for untouched in (False, True):
        h, members = member_homotopy(with_fixed, rng, untouched)
        for k, rows in enumerate(members):
            x = rng.normal(size=4) + 1j * rng.normal(size=4)
            t = float(rng.uniform(0.01, 0.99))
            H, scale, J, dt = (a[0] for a in h.evaluate(x[None], t, True, np.array([k])))
            for a, b in zip((H, J, dt, scale), reference(rows, x, t)):
                assert a.shape == b.shape
                assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("with_fixed", [False, True])
def test_kernel_rows_match_one_point_calls(with_fixed):
    # every row of a batched call is bit for bit the call on a batch of that
    # one row, as its own member, scaled or not, as the batch grows, shrinks
    # to a prefix and grows again, with or without members; a member index
    # on a homotopy without members, and members without rows, give the
    # plain rows bit for bit; also with a product that leaves slots untouched;
    # and no later call writes into the results of the first
    rng = np.random.default_rng(8)
    plain, parts = fused_homotopy(with_fixed, rng)
    mixed, _ = member_homotopy(with_fixed, rng)
    untouched, _ = member_homotopy(with_fixed, np.random.default_rng(9), untouched=True)
    rowless = Homotopy(*parts, Members(forms=np.zeros((MEMBERS, 0, 5))))
    for h in (plain, mixed, untouched):
        kept = {}  # scaled -> the first call's results, and their bytes then
        for count in (5, 2, 7, 1):
            x = complex_normal(rng, count, 4)
            t = rng.uniform(0.01, 0.99, size=count)
            member = rng.integers(0, MEMBERS, size=count)
            for scaled in (False, True):
                rows = h.evaluate(x, t, scaled, member)
                kept.setdefault(scaled, (rows, [r if r is None else r.tobytes() for r in rows]))
                for i in range(count):
                    one = h.evaluate(x[i:i + 1], float(t[i]), scaled, member[i:i + 1])
                    assert (rows[1] is None) == (one[1] is None) == (not scaled)
                    assert all(r[i].tobytes() == o[0].tobytes() for r, o in zip(rows, one)
                               if o is not None)
                if h is plain:
                    for same in (h.evaluate(x, t, scaled), rowless.evaluate(x, t, scaled, member)):
                        assert all((r is None and p is None) or r.tobytes() == p.tobytes()
                                   for r, p in zip(rows, same))
        for rows, saved in kept.values():
            assert [r if r is None else r.tobytes() for r in rows] == saved


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("with_fixed", [False, True])
def test_shifted_kernel_matches_translated_targets(with_fixed, m):
    # members whose last m target rows are affine forms, such as a slice's
    # translates through query points, are the homotopies compiled on those
    # forms as polynomials: H, J_x, dH/dt and the scale to rounding
    rng = np.random.default_rng(10)
    _, (start, target, gamma, fixed) = fused_homotopy(with_fixed, rng)
    g = target.grouping
    count, kept = 4, target.polys[:len(target) - m]
    forms = complex_normal(rng, count, m, 5)
    translated = Homotopy(start, kept, gamma, fixed, Members(forms=forms))
    x, t = complex_normal(rng, count, 4), rng.uniform(0.01, 0.99, size=count)
    got = translated.evaluate(x, t, True, np.arange(count))
    for i in range(count):
        compiled = Homotopy(start, kept + tuple(product(g, [f]) for f in forms[i]), gamma, fixed)
        for a, b in zip(got, compiled.evaluate(x[i:i + 1], t[i], True)):
            assert np.linalg.norm(a[i] - b[0]) <= 1e-13 * np.linalg.norm(b[0])


def test_slice_motion_to_shifted_targets():
    # one motion to three members, each ending at the new row minus c, ends
    # where each motion to the translated row ends, with the same gamma;
    # members without rows are the plain motion bit for bit, and
    # passes_through with no forms tracks nothing; and a failed path voids
    # its own member only
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    fixed = PolySystem([x**2 + y**2 - 2])
    old, new = [x - y], [x + 2 * y - 1]
    points = [np.array([1.0 + 0j, 1.0 + 0j]), np.array([-1.0 + 0j, -1.0 + 0j])]
    shifts = [0, 0.3, -0.5 + 0.2j]
    members = Members(forms=np.array([affine_rows([new[0] - c], 2) for c in shifts]))
    batched = track_slice_motion(fixed, old, [], [points] * 3, rs(3), members)
    assert len(batched) == 3
    for ends, c in zip(batched, shifts):
        alone = track_slice_motion(fixed, old, [new[0] - c], points, rs(3))
        assert all(points_equal(a, b) for a, b in zip(ends, alone, strict=True))
    plain = track_slice_motion(fixed, old, new, points, rs(3))
    (rowless,) = track_slice_motion(fixed, old, new, [points], rs(3),
                                    Members(forms=np.zeros((1, 0, 3))))
    assert [p.tobytes() for p in rowless] == [p.tobytes() for p in plain]

    track = multiwit.tracker.track_many

    def second_member_fails(h, starts, member=None):
        results = track(h, starts, member)
        results[3] = multiwit.tracker.PathResult("failed", None, 0)
        return results

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiwit.tracker, "track_many", second_member_fails)
        voided = track_slice_motion(fixed, old, [], [points] * 3, rs(3), members)
        # no forms: members without rows and no path, so the failing tracker is not reached
        assert passes_through(fixed, [], points, [points[1]], rs(3)) == [True]
        assert passes_through(fixed, [], points, [points[0] + 1], rs(3)) == [False]
    assert voided[1] is None
    assert [[p.tobytes() for p in voided[k]] for k in (0, 2)] == \
        [[p.tobytes() for p in batched[k]] for k in (0, 2)]


def test_stacked_solve_matches_one_matrix_solves():
    rng = np.random.default_rng(9)
    J = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    b = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    stacked = multiwit.tracker._solve(J, b)
    assert all(stacked[i].tobytes() == multiwit.tracker._solve(J[i], b[i]).tobytes()
               for i in range(6))


class FirstQuery(Exception):
    """Stops nid_multi at its first membership query."""


@pytest.fixture(scope="module")
def captured_homotopies():
    """(homotopy, starts, members) of every homotopy of one octahedron-fh
    collection, one member per key, and of its first coarsening, and of the
    first richardson-four nid membership batch, one member per query."""
    captured, queries = [], []
    track, membership = multiwit.tracker.track_many, multiwit.nid.component_membership

    def recorded(h, starts, member=None):
        member = np.zeros(len(starts), dtype=np.intp) if member is None else member
        captured.append((h, list(starts), member))
        return track(h, starts, member)

    def first_query(*args, **kwargs):
        queries.append((args, kwargs))
        raise FirstQuery

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiwit.tracker, "track_many", recorded)
        fx = get_fixture("octahedron-fh")
        source = RandomSource(seed=7, stream=1003)
        wc = compute_witness_collection(fx.system, fx.default_keys, source)
        coarsen_collection(wc, (0, 1), source.substream(101))
        octahedron = len(captured)
        mp.setattr(multiwit.nid, "component_membership", first_query)
        fx = get_fixture("richardson-four")
        wc = compute_witness_collection(fx.system, fx.default_keys, rs(13))
        with pytest.raises(FirstQuery):
            nid_multi(fx.system, [p for _, ws in sorted(wc.entries.items()) for p in ws.points],
                      rs(13).substream(99))
        del captured[octahedron:]
        (args, kwargs), = queries
        membership(*args, **kwargs)
    assert len(captured) == octahedron + 1
    assert captured[0][0].members.count == 6  # the octahedron keys
    assert all(h.members is None for h, _, _ in captured[1:octahedron])
    assert len(captured[-1][2]) == len(captured[-1][1]) > 64  # more than one chunk
    return captured


def fingerprint(results):
    """Each result's status, steps and endpoint bytes."""
    return [(r.status, r.steps_taken, None if r.endpoint is None else r.endpoint.tobytes())
            for r in results]


def test_results_do_not_depend_on_the_batch(captured_homotopies, monkeypatch):
    # one batch, one call per start, the starts reversed, and the starts in
    # chunks of two all give the same paths, bit for bit
    # (each path as its own member); and the totals over the fixture's
    # homotopies are pinned (paths, each status, steps), so a change that
    # moves a path shows here
    counts, steps = collections.Counter(), 0
    for h, starts, member in captured_homotopies:
        together = fingerprint(track_many(h, starts, member))
        assert fingerprint([track_many(h, [s], member[[i]])[0]
                            for i, s in enumerate(starts)]) == together
        assert fingerprint(track_many(h, starts[::-1], member[::-1])[::-1]) == together
        with monkeypatch.context() as mp:
            mp.setattr(multiwit.tracker, "BATCH_PATHS", 2)
            assert fingerprint(track_many(h, starts, member)) == together
        counts.update(status for status, _, _ in together)
        steps += sum(taken for _, taken, _ in together)
    assert max(len(starts) for _, starts, _ in captured_homotopies) > 2
    assert len(captured_homotopies) == 11
    assert counts == {"converged": 195, "diverged": 9}
    assert steps == 3182


def test_starts_go_in_fixed_chunks(monkeypatch):
    # chunk k is starts[2k:2k+2], each started at once and tracked to the
    # end before the next, however unequal its paths' step counts
    g, x = univariate()
    h = Homotopy(PolySystem([x**5 - 1]), PolySystem([x**4 - 2]), gamma=rs(1).unit_complex())
    starts = [np.array([np.exp(2j * np.pi * k / 5)]) for k in range(5)]
    chunks, start = [], multiwit.tracker._start

    def spied(h, starts, member, index, results):
        assert list(member) == [0] * 5  # without members, every path is member 0
        chunks.append(index)
        return start(h, starts, member, index, results)

    monkeypatch.setattr(multiwit.tracker, "BATCH_PATHS", 2)
    monkeypatch.setattr(multiwit.tracker, "_start", spied)
    results = track_many(h, starts)
    assert chunks == [range(0, 2), range(2, 4), range(4, 5)]
    # path 1 diverges, long after path 0 has converged
    assert [(r.status, r.steps_taken) for r in results[:2]] == [("converged", 12),
                                                                 ("diverged", 33)]
    assert all(r.status == "converged" for r in results[2:])


@extended
def test_pentad_start_paths_are_pinned():
    # every 384th start path of the pentad witness solve at seed 1, 144
    # paths in 40 variables: two full chunks and part of a third, with
    # their status counts and total steps pinned.  Paths 32 and 43 floor
    # their step at t = 5.3e-16 and 7.6e-17, near singular points, and
    # converge when sharpened at t = 0 from their last accepted points.
    captured = []

    class Captured(Exception):
        pass

    def capture(h, starts, member=None):
        captured.append((h, starts[::384]))
        raise Captured

    fx = get_fixture("pentad")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiwit.tracker, "track_many", capture)
        with pytest.raises(Captured):
            compute_witness_collection(fx.system, fx.default_keys, RandomSource(seed=1))
    (h, starts), = captured
    results = track_many(h, starts)
    assert len(results) == 144
    assert [sum(r.status == s for r in results) for s in ("converged", "diverged", "failed")] \
        == [42, 102, 0]
    assert sum(r.steps_taken for r in results) == 10224


def test_no_start_no_path():
    g, x = univariate()
    h = Homotopy(PolySystem([x**2 - 1]), PolySystem([x**2 - 4]), gamma=rs(0).unit_complex())
    assert track_many(h, []) == []


def test_endgame_ends_a_pole():
    # gamma*t*(x - 1) - (1 - t): x = 1 + (1 - t)/(gamma*t) grows like 1/t,
    # so two growth exponents near 1 end the path in 21 steps, where the
    # norm bound 1e8 took 35
    g, x = univariate()
    h = Homotopy(PolySystem([x - 1]), PolySystem([Polynomial.constant(g, -1.0)]),
                 gamma=rs(0).unit_complex())
    r = track_path(h, np.array([1.0 + 0j]))
    assert (r.status, r.endpoint, r.steps_taken) == ("diverged", None, 21)


def test_endgame_keeps_a_far_root_below_the_blowup_bound():
    # gamma*t*(x - 1) + (1 - t)*(x/1000 - 1) ends at x = 1000, below the
    # path's bound 1e4: the endgame may not cut it, and it converges in the
    # steps and to the bits it did before the endgame rule
    g, x = univariate()
    h = Homotopy(PolySystem([x - 1]), PolySystem([1e-3 * x - 1]), gamma=rs(0).unit_complex())
    r = track_path(h, np.array([1.0 + 0j]))
    assert (r.status, r.steps_taken) == ("converged", 12)
    assert complex(r.endpoint[0]) == complex(1000.0000000000002, -9.547918011776346e-15)


def test_endgame_stops_a_path_jump():
    # in the richardson-four collection at stream 1013, start path 3 (key
    # (0, 2, 3)) grows like 1/t to norm 7.35e7 at t = 3.7e-10; the t = 0
    # sharpening then landed it on path 0's root, a converged copy that
    # dedupe_points dropped.  The endgame calls it diverged.
    captured = []
    track = multiwit.tracker.track_many

    def recorded(h, starts, member=None):
        captured.append(track(h, starts, member))
        return captured[-1]

    fx = get_fixture("richardson-four")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiwit.tracker, "track_many", recorded)
        wc = compute_witness_collection(fx.system, fx.default_keys,
                                        RandomSource(seed=20230529, stream=1013))
    (results,) = captured
    assert [r.status for r in results[:4]] == ["converged"] * 3 + ["diverged"]
    assert len(wc.entries[(0, 2, 3)].points) == 3


def test_one_batch_keeps_each_path_status():
    # a start off the start system fails, one path diverges and one
    # converges, in one batch, each as it does alone
    g, x = univariate()
    h = Homotopy(PolySystem([x**3 - 1]), PolySystem([x**2 - 2]), gamma=rs(2).unit_complex())
    roots = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
    alone = {r.status: (root, r) for root, r in zip(roots, (track_path(h, s) for s in roots))}
    batch = track_many(h, [alone["converged"][0], np.array([5.0 + 0j]), alone["diverged"][0]])
    assert [r.status for r in batch] == ["converged", "failed", "diverged"]
    assert (batch[1].endpoint, batch[1].steps_taken) == (None, 0)
    assert fingerprint([batch[0], batch[2]]) == fingerprint([alone["converged"][1],
                                                             alone["diverged"][1]])


def test_a_step_floor_at_t_zero_ends_the_path():
    # a step that halves below MIN_STEP fails a path, unless the rejected
    # attempt covered all of the t left: then the path has reached t = 0
    for t, status in ((2e-14, "failed"), (1.5e-14, "ended"), (1.2e-14, "ended"),
                      (5e-15, "ended")):
        p = multiwit.tracker._Path(0, 1.0)
        p.t, p.step = t, 1.5e-14
        assert p.rejected() == status


def test_a_path_floored_at_t_zero_is_sharpened_from_its_last_point():
    # y = 1 on every path of [x^3 - 1, y^2 - 1] -> [x^3 - 100, (y - 1)^2],
    # and J_x is singular at t = 0: each path's step floors at t = 4.9e-17.
    # Its last accepted point already meets END_TOL at t = 0, where the
    # rejected corrector output does not.
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    h = Homotopy(PolySystem([x**3 - 1, y**2 - 1]), PolySystem([x**3 - 100, (y - 1)**2]),
                 gamma=rs(13).unit_complex())
    roots = [np.exp(2j * np.pi * k / 3) for k in range(3)]
    results = track_many(h, [np.array([root, 1]) for root in roots])
    assert [(r.status, r.steps_taken) for r in results] == [("converged", 23)] * 3
    for r, root in zip(results, roots):
        assert abs(r.endpoint[0] - 100 ** (1 / 3) * root) < 1e-8
        assert r.endpoint[1] == 1


def test_a_floored_path_near_a_double_root_ends_at_it():
    # x = 1 is a double root of (x - 1)^2 and a root of x^2 - 1, so the path
    # from x = 1 stays there, and its attempts to reach t = 0 meet a singular
    # J_x.  With between 1 and 2 * MIN_STEP of t left, the last attempt still
    # covers all of it, so the path ends at t = 0 and converges, to about
    # the square root of END_TOL, as a double root allows.
    g, x = univariate()
    for s in range(40):
        h = Homotopy(PolySystem([x**2 - 1]), PolySystem([(x - 1)**2]),
                     RandomSource(seed=20230529, stream=s).unit_complex())
        r = track_path(h, np.array([1.0 + 0j]))
        assert r.status == "converged", s
        assert abs(r.endpoint[0] - 1) < 1e-4


def test_tracker_hooks_seen_from_outside(monkeypatch):
    # a wrapper on multiwit.tracker.track_many sees every homotopy and all of
    # its PathResults, and one on multiwit.tracker._solve sees the tracker's
    # linear solves, one right-hand side per row
    g, x = univariate()
    starts = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
    homotopies, solved = [], []
    track, solve = multiwit.tracker.track_many, multiwit.tracker._solve

    def tracked(h, points, member=None):
        homotopies.append((points, track(h, points, member)))
        return homotopies[-1][1]

    def solving(J, b):
        solved.append(len(b) if b.ndim == 2 else 1)
        return solve(J, b)

    monkeypatch.setattr(multiwit.tracker, "track_many", tracked)
    monkeypatch.setattr(multiwit.tracker, "_solve", solving)
    ends = track_slice_motion(None, [x**3 - 1], [x**3 - 2 * x + 0.5], starts, rs(5))
    ((points, results),) = homotopies
    assert points is starts
    assert len(results) == len(starts)
    assert all(r.status == "converged" for r in results)
    assert all(np.array_equal(e, r.endpoint) for e, r in zip(ends, results))
    # per accepted step at least the three RK4 stages after k1
    assert sum(solved) >= 3 * sum(r.steps_taken for r in results)
    solved.clear()
    newton_refine(PolySystem([x**2 - 2]), [np.array([1.4 + 0j])])
    assert solved


@pytest.mark.parametrize("n", [1, 4, 9])
def test_solve_matches_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    J = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.array_equal(multiwit.tracker._solve(J, b), np.linalg.solve(J, b))


@pytest.mark.parametrize("J", [[[0]], [[1, 2], [2, 4]]])
def test_singular_solve_is_not_finite(J):
    with np.errstate(invalid="ignore"):
        x = multiwit.tracker._solve(np.array(J, dtype=complex), np.ones(len(J), dtype=complex))
    assert not np.isfinite(x).any()


def test_singular_start_jacobian_fails_quietly():
    # x = 0 is a double root of the start system, so J_x vanishes there: the
    # first RK4 stage is not finite and every attempt is rejected
    g, x = univariate()
    h = Homotopy(PolySystem([x**2]), PolySystem([x**2 - 4]), gamma=rs(6).unit_complex())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (result,) = track_many(h, [np.array([0j])])
    assert (result.status, result.endpoint, result.steps_taken) == ("failed", None, 0)


def test_tracker_solve_tracks_like_numpy_solve(monkeypatch):
    # the same paths, bit for bit, with numpy's wrapped solve in place of
    # _solve: one start homotopy of the octahedron-fh collection and one
    # homotopy of its coarsening
    fx = get_fixture("octahedron-fh")
    homotopies = []
    track = multiwit.tracker.track_many

    def recorded(h, starts, member=None):
        homotopies.append((h, starts))
        return track(h, starts, member)

    monkeypatch.setattr(multiwit.tracker, "track_many", recorded)
    source = RandomSource(seed=7, stream=1003)
    wc = compute_witness_collection(fx.system, fx.default_keys, source)
    collected = len(homotopies)
    coarsen_collection(wc, (0, 1), source.substream(101))
    monkeypatch.undo()
    for h, starts in (homotopies[0], homotopies[collected]):
        ours = track_many(h, starts)
        # numpy 2 reads a 2-D b as matrices, so the stacked vectors go in as columns
        monkeypatch.setattr(multiwit.tracker, "_solve",
                            lambda J, b: np.linalg.solve(J, b[..., None])[..., 0])
        numpys = track_many(h, starts)
        monkeypatch.undo()
        assert any(r.status == "converged" for r in ours)
        for a, b in zip(ours, numpys, strict=True):
            assert (a.status, a.steps_taken) == (b.status, b.steps_taken)
            assert (a.endpoint is None and b.endpoint is None) or np.array_equal(a.endpoint,
                                                                                 b.endpoint)


def test_overflowing_predictor_warns_nothing():
    # x^60 - 1 -> x^59 - 2: one path goes to infinity, and on the way an RK4
    # stage overflows the kernel (x^60 past 1e308) before the endgame calls it
    # diverged; the tracker classifies the non-finite point itself, so
    # numpy's warnings are noise and track_many silences them
    g, x = univariate()
    h = Homotopy(PolySystem([x**60 - 1]), PolySystem([x**59 - 2]),
                 gamma=RandomSource(seed=1).unit_complex())
    starts = [np.array([np.exp(2j * np.pi * k / 60)]) for k in range(60)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = track_many(h, starts)
    assert [r.status for r in results].count("diverged") == 1
    # each path again, alone, through the engine outside track_many's
    # errstate, with numpy's warnings recorded, not raised
    overflowed = []
    for start, result in zip(starts, results, strict=True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (alone,) = multiwit.tracker._track_rows(h, [start], np.zeros(1, dtype=np.intp))
        if any(issubclass(w.category, RuntimeWarning) for w in caught):
            overflowed.append(alone.status)
        assert (alone.status, alone.steps_taken) == (result.status, result.steps_taken)
    assert overflowed == ["diverged"]


def test_newton_refine_quadratic_convergence():
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = Polynomial.variable(g, 0), Polynomial.variable(g, 1)
    # the root (1, 1) is nonsingular at any scale of a row: with the first
    # row times 1e13 the raw s_min/s_max of the Jacobian is 5e-14,
    # and row-scaled it is 1
    for scale in (1, 1e13):
        F = PolySystem([scale * (x**2 + y**2 - 2), x - y])
        (p,) = newton_refine(F, [np.array([1.01, 0.99], dtype=complex)])
        assert np.allclose(p, [1.0, 1.0], atol=1e-10), scale
    for wrong in (np.array([1.01 + 0j]), np.array([[1.01], [0.99]], dtype=complex)):
        with pytest.raises(ValueError, match="coordinates"):  # a point of the wrong shape
            newton_refine(F, [wrong])


def test_newton_refine_singular_gives_none():
    g, x = univariate()
    F = PolySystem([x**2 - 1])
    # at x = 0 the Jacobian vanishes while the residual does not, so the
    # first solve is not finite; the point is dropped and nothing warns.
    # x = 0 is an exact root of x^2, whose Jacobian row is zero there: no
    # row norm to scale by, and the root is singular
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert newton_refine(F, [np.array([0.0 + 0j])]) == [None]
        assert newton_refine(PolySystem([x**2]), [np.array([0.0 + 0j])]) == [None]


def test_newton_refine_stall_gives_none():
    g, x = univariate()
    # the roots are +-i; from a real start every Newton iterate stays real
    F = PolySystem([x**2 + 1])
    assert newton_refine(F, [np.array([3.0 + 0j])]) == [None]


def test_newton_refine_batch_is_each_point_alone():
    # one batch holds a point that converges, a None, a singular start
    # (J = 0) and a start that stalls on the real line; each entry is what
    # refining it alone gives, bit for bit, and nothing warns
    g, x = univariate()
    F = PolySystem([x**2 + 1])
    points = [np.array([0.1 + 1.1j]), None, np.array([0j]), np.array([3 + 0j])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = newton_refine(F, points)
        alone = [newton_refine(F, [p])[0] for p in points]
    assert len(batch) == len(points)
    assert abs(batch[0][0] - 1j) < 1e-12
    assert batch[1:] == [None, None, None]
    assert alone[1:] == [None, None, None]
    assert batch[0].tobytes() == alone[0].tobytes()


def test_newton_refine_goes_in_chunks(monkeypatch):
    # at most BATCH_PATHS points per Newton call, so the kernel never builds
    # its table for every endpoint at once; each entry is still what
    # refining it alone gives, bit for bit
    g, x = univariate()
    F = PolySystem([x**2 + 1])
    points = [np.array([0.1 + 1.1j]), None, np.array([0j]), np.array([-0.2 - 0.9j]),
              np.array([3 + 0j]), np.array([0.05 + 1j])]
    alone = [newton_refine(F, [p])[0] for p in points]
    rows, newton = [], multiwit.tracker._newton

    def spied(h, x, t, s, tol, max_iters):
        rows.append(len(x))
        return newton(h, x, t, s, tol, max_iters)

    monkeypatch.setattr(multiwit.tracker, "BATCH_PATHS", 2)
    monkeypatch.setattr(multiwit.tracker, "_newton", spied)
    refined = newton_refine(F, points)
    assert rows == [2, 2, 1]
    assert [None if p is None else p.tobytes() for p in refined] == \
        [None if p is None else p.tobytes() for p in alone]
    assert [p is None for p in refined] == [False, True, True, False, True, False]


def test_newton_freezes_a_stopped_row():
    # a row that starts at a root is evaluated once; a row whose first step
    # is not finite (J = 0) once more, and stops with residual nan; the
    # third row alone goes on.  Each row's point, residual and evaluation
    # are those of the row run alone.
    g, x = univariate()
    F = PolySystem([x**2 - 4])
    batch = np.array([[2 + 0j], [0j], [5 + 1j]])
    calls, table = [], F._compiled

    class Spied:
        def evaluate(self, p, *args):
            calls.append(p[:, 0])
            return table.evaluate(p, *args)

    def run(x):
        return multiwit.tracker._newton(Spied(), x, np.zeros(len(x)),
                                        np.zeros(len(x), dtype=np.intp), 1e-10, 20)

    with np.errstate(invalid="ignore"):
        points, res, ev = run(batch)
        seen, calls[:] = list(calls), []
        alone = [run(batch[i:i + 1]) for i in range(3)]
    assert [len(c) for c in seen] == [3, 2] + [1] * (len(seen) - 2) and len(seen) > 3
    assert not np.isfinite(seen[1][0]) and all(np.isfinite(c[-1]) for c in seen)
    assert res[0] == 0 and np.isnan(res[1]) and res[2] < 1e-10
    for i, (p, r, e) in enumerate(alone):
        assert points[i].tobytes() == p[0].tobytes()
        assert res[i].tobytes() == r[0].tobytes()
        for whole, part in zip(ev, e):
            assert whole[i].tobytes() == part[0].tobytes()


@pytest.mark.parametrize("n", [1, 3, 40])
def test_points_equal_reads_the_norm_formula(n):
    # the same verdicts as the np.linalg.norm formula, on planted pairs at
    # 0.5x (equal) and 2x (distinct) the match distance
    rng = np.random.default_rng(n)

    def unit():
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    def reference(a, b):
        scale = max(1.0, float(np.linalg.norm(a)), float(np.linalg.norm(b)))
        return bool(np.linalg.norm(a - b) < multiwit.tracker.MATCH_TOL * scale)

    for _ in range(50):
        p = 10 ** rng.uniform(-3, 6) * unit()
        gap = multiwit.tracker.MATCH_TOL * max(1.0, np.linalg.norm(p))
        for factor in (0.5, 2.0):
            q = p + factor * gap * unit()
            assert points_equal(p, q) is points_equal(q, p) is reference(p, q) is (factor < 1)


def quadratic_dedupe(points):
    """The reference: keep p unless it equals a point already kept."""
    kept = []
    for p in points:
        if not any(points_equal(p, q) for q in kept):
            kept.append(p)
    return kept


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [1, 3, 40])
def test_dedupe_matches_quadratic_reference(seed, n):
    # planted pairs at 0.5x (equal) and 2x (distinct) the match distance,
    # three-point chains whose ends are distinct but each next to the middle,
    # and exact repeats, over norms from 1e-3 to 1e6
    rng = np.random.default_rng(100 * n + seed)

    def unit():
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    points = []
    for _ in range(60):
        p = 10 ** rng.uniform(-3, 6) * unit()
        gap = multiwit.tracker.MATCH_TOL * max(1.0, np.linalg.norm(p))
        kind = rng.integers(4)
        if kind == 0:
            points += [p, p + 0.5 * gap * unit()]
        elif kind == 1:
            points += [p, p + 2 * gap * unit()]
        elif kind == 2:
            d = unit()
            points += [p, p + 0.6 * gap * d, p + 1.2 * gap * d]
        else:
            points += [p, p.copy(), p]
    order = rng.permutation(len(points))
    points = [points[i] for i in order]
    got, expected = dedupe_points(points), quadratic_dedupe(points)
    assert len(got) == len(expected) and all(a is b for a, b in zip(got, expected))
    assert len(expected) < len(points)


def test_points_equal_and_dedupe():
    a = np.array([1.0, 2.0], dtype=complex)
    b = a + 1e-12
    c = np.array([1.0, 2.1], dtype=complex)
    assert points_equal(a, b)
    assert not points_equal(a, c)
    assert len(dedupe_points([a, b, c])) == 2
