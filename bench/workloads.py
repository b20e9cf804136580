"""The four benchmark workflows and the pinned integers they are checked against.

Every workflow is a list of steps.  A step runs one or more public library
calls and compares the integers they return (multidegree maps, component
counts, path accounting) with references pinned in the acceptance tests and
the fixtures.  A step that raises a documented library error or returns a
wrong integer is recorded as failed by the `Gate`.  The workflow goes on
with whatever the step returned; a step whose input is missing because an
earlier step raised is failed too.

The library is called through module attributes (`mw.fixtures.get_fixture`,
`mw.witness.coarsen_collection`, ...) at call time, never through names bound
here at import, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time

import numpy as np

import multiwit as mw
import multiwit.fixtures
import multiwit.monodromy
import multiwit.nid
import multiwit.startsys
import multiwit.witness

# The streams the acceptance tests draw from; the benchmark's --seed replaces
# the tests' seed, so seed 20230529 replays the acceptance workflows.  Draw j
# of a run moves every stream by DRAW_STRIDE * j.
DRAW_STRIDE = 1000
OCTA_STREAM = 3
RICHARDSON_STREAM = 11
NID_STREAM = 13

OCTA_FH_XY_MAP = {(2, 0, 0): 7, (1, 1, 0): 10, (1, 0, 1): 8, (0, 1, 1): 3}
OCTA_FULL_MAP = {(2,): 15}
OCTA_CURVE_MAP = {(1,): 15}
RICHARDSON_HALF_MAP = {(2, 3): 2, (3, 2): 4, (4, 1): 4, (5, 0): 2}
RICHARDSON_SEGRE = 450
NID_POINTS = 63
NID_COMPONENTS = 4
# Each nid-decompose draw decomposes its collection under NID_SEEDS seeds,
# and the workflow's time is the median collection's plus the median
# decomposition's.  The work of one decomposition depends on its seed and
# its collection, so one of each would make the time a lottery.  The first
# seed of draw 0 is the acceptance test's.
NID_SEEDS = 2

PENTAD_COPIES = 3  # fiber copies kept: 8 groups of size 4, 24 forms
PENTAD3_KEYS = 4275
PENTAD3_TOTAL = 5742834
PENTAD3_DIGEST = "a14e196630214869bb471cfeb55a2b7ed581312d796b323d3146ec56170819fe"

# The library's documented failures.  MatchAmbiguityError and
# IndeterminateError subclass TrackingError; IllConditionedError is the
# dimension module's "point does not look general".
CHECKED_ERRORS = (mw.TrackingError, mw.IllConditionedError, np.linalg.LinAlgError)


class Gate:
    """Counts workflow steps and the ones that failed, never raising.

    A step fails when it raises one of the library's documented errors or
    when one of its results differs from the reference.  A step that
    returned a wrong result still hands that result on, so the rest of the
    workflow does the same work it would have done; a step that raised
    hands on None, and the steps needing its result fail unrun."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # times the steps
        self.attempted = 0
        self.current = None  # the step running now
        self.failures: list[str] = []
        self.results: dict = {}  # check name -> the integers it produced
        self.seconds: dict = {}  # step name -> wall time of the step
        self.completed: set = set()  # names of the steps that returned, right or wrong
        self._mismatches: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def abandon(self, steps: int, why: str) -> None:
        """Count the steps of a draw that were not reached as attempted and
        failed, so that a draw always counts `steps` steps."""
        missing = steps - self.attempted
        self.attempted += missing
        self.failures.extend([why] * missing)

    def step(self, name: str, fn, *args):
        """Run fn(*args) as one checked step and return its value."""
        self.attempted += 1
        self.current = name
        if any(a is None for a in args):
            self.failures.append(f"{name}: not run, an earlier step raised")
            return None
        self._mismatches = []
        t0 = self.clock()
        try:
            out = fn(*args)
        except CHECKED_ERRORS as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[name] = self.clock() - t0
        self.completed.add(name)
        if self._mismatches:
            self.failures.append(f"{name}: " + "; ".join(self._mismatches))
        return out

    def expect(self, name: str, got, want) -> None:
        self.results[name] = got
        if got != want:
            self._mismatches.append(f"{name} = {got!r}, expected {want!r}")


def step_seconds(gates: list[Gate]) -> dict[str, float]:
    """For each step, its typical time: the median of its times over the
    draws in which it ran to its end, right or wrong, or, if it ended in
    none, over all the draws in which it started.  For nid-decompose the
    decompositions "nid.0", "nid.1", ... count as one step "nid".  The sum
    over the steps is the time of a typical workflow.

    Today most seeds give wrong results in some draws (see README.md), and
    then a later step often raises at once: a breakup on an incomplete
    witness set stops after a loop or two, a merge that lost a point stops
    there, and the steps after a raise do not run.  The median over whole
    draws would follow how many draws went wrong; these medians follow the
    time of the work each step does when it runs through.  The wrong
    answers are counted in `failed`."""
    started: dict[str, list[float]] = {}
    ended: dict[str, list[float]] = {}
    for gate in gates:
        for name, seconds in gate.seconds.items():
            step = name.split(".")[0]
            started.setdefault(step, []).append(seconds)
            if name in gate.completed:
                ended.setdefault(step, []).append(seconds)
    return {step: statistics.median(ended.get(step) or v) for step, v in started.items()}


def expected_paths(src_map: dict, merge, key) -> int:
    """Start paths of one coarsened key: binomial-weighted sum of the source
    multidegrees over the splits of the merged slice budget."""
    a, b = sorted(merge)
    k = len(next(iter(src_map)))
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


def _accounting(src_map, merge, stats) -> tuple[list, list]:
    """Per coarsened key, (key, paths, converged, diverged, points) as
    returned, and as they must be: paths by the binomial formula, every path
    converged or diverged, one point per converged path."""
    got, want = [], []
    for res in stats:
        key = res.witness.selection.e
        paths = expected_paths(src_map, merge, key)
        got.append((key, res.delta, res.converged, res.diverged, len(res.witness.points)))
        want.append((key, paths, res.converged, paths - res.converged, res.converged))
    return got, want


def _merge_step(gate, name, wc, merge, source, want_map):
    def run(wc):
        out, stats = mw.witness.coarsen_collection(wc, merge, source)
        gate.expect(name + ".paths", *_accounting(wc.multidegree_map(), merge, stats))
        if want_map is None:  # no pinned map: the path accounting is the check
            gate.results[name] = out.multidegree_map()
        else:
            gate.expect(name, out.multidegree_map(), want_map)
        return out
    return gate.step(name, run, wc)


# ---------------------------------------------------------------------------
# workflows: each takes (Setup, seed, draw, Gate); the gate records the
# outcome and the time of each step.


def _source(seed: int, stream: int, draw: int):
    return mw.RandomSource(seed=seed, stream=stream + DRAW_STRIDE * draw)


def octa_chain(setup, seed: int, draw: int, gate: Gate) -> None:
    fx = setup.fixture
    source = _source(seed, OCTA_STREAM, draw)

    def collection():
        wc = mw.witness.compute_witness_collection(fx.system, fx.default_keys, source)
        gate.expect("collection", wc.multidegree_map(), fx.extra["degree_map"])
        return wc
    wc = gate.step("collection", collection)
    w = _merge_step(gate, "merge_xy", wc, (0, 1), source.substream(101), OCTA_FH_XY_MAP)
    w = _merge_step(gate, "merge_xyz", w, (0, 1), source.substream(102), None)
    w = _merge_step(gate, "merge_all", w, (0, 1), source.substream(103), OCTA_FULL_MAP)

    def sliced(w):
        curve = mw.witness.slice_collection(w, 0)
        gate.expect("slice", curve.multidegree_map(), OCTA_CURVE_MAP)
        return curve
    curve = gate.step("slice", sliced, w)

    def breakup(curve):
        state = mw.monodromy.breakup(curve.entries[(1,)], source.substream(104))
        parts = sorted(len(p) for p in state.partition)
        gate.expect("breakup", (parts, state.certified), ([15], [True]))
    gate.step("breakup", breakup, curve)


def richardson_chain(setup, seed: int, draw: int, gate: Gate) -> None:
    fx = setup.fixture
    source = _source(seed, RICHARDSON_STREAM, draw)

    def collection():
        wc = mw.witness.compute_witness_collection(fx.system, fx.default_keys, source)
        md = wc.multidegree_map()
        gate.expect("collection", (md, mw.witness.segre_degree(md)),
                    (mw.fixtures.RICHARDSON_DEGREE_MAP, RICHARDSON_SEGRE))
        return wc
    wc = gate.step("collection", collection)
    w = _merge_step(gate, "merge_01", wc, (0, 1), source.substream(21), RICHARDSON_HALF_MAP)
    _merge_step(gate, "merge_all", w, (0, 1), source.substream(22),
                {(5,): fx.extra["affine_degree"]})


def nid_decompose(setup, seed: int, draw: int, gate: Gate) -> None:
    fx = setup.fixture
    source = _source(seed, NID_STREAM, draw)

    def collection():
        wc = mw.witness.compute_witness_collection(fx.system, fx.default_keys, source)
        points, key_of = [], []
        for e, ws in sorted(wc.entries.items()):
            points.extend(ws.points)
            key_of.extend([e] * len(ws.points))
        gate.expect("collection", len(points), NID_POINTS)
        return points, key_of
    got = gate.step("collection", collection)

    def decompose(got, k):
        points, key_of = got
        dec = mw.nid.nid_multi(fx.system, points, source.substream(99 + DRAW_STRIDE * k))
        maps: dict = {}
        for idx, ci in dec.assignment.items():
            m = maps.setdefault(ci, {})
            m[key_of[idx]] = m.get(key_of[idx], 0) + 1
        summary = (
            len(dec.components),
            len(dec.diagnostics),
            [rec.certified for rec in dec.components],
            sorted(dec.assignment) == list(range(len(points))),
            sorted(sorted(m.items()) for m in maps.values()),
        )
        want = (
            NID_COMPONENTS, 0, [True] * NID_COMPONENTS, True,
            sorted(sorted(m.items()) for m in fx.extra["component_maps"]),
        )
        gate.expect(f"nid.{k}", summary, want)
    for k in range(setup.nid_seeds):
        gate.step(f"nid.{k}", decompose, got, k)


def pentad_pattern(fx) -> tuple[list, tuple]:
    """Degree vectors of the first PENTAD_COPIES fiber copies, restricted to
    the groups they use (u, ub and one t, tb pair per copy)."""
    ngroups = 2 + 2 * PENTAD_COPIES
    forms = fx.system.polys[: 8 * PENTAD_COPIES]
    degrees = [p.multidegree()[:ngroups] for p in forms]
    return degrees, fx.grouping.sizes[:ngroups]


def class_digest(cls: dict) -> str:
    """sha256 of a multidegree class, independent of dict order."""
    text = ";".join(f"{','.join(map(str, a))}:{c}" for a, c in sorted(cls.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def mbezout_pentad3(setup, seed: int, draw: int, gate: Gate) -> None:
    degrees, nvec = setup.pattern
    rng = np.random.default_rng([seed, draw])
    form_order = rng.permutation(len(degrees))
    group_order = rng.permutation(len(nvec))
    permuted = [tuple(degrees[j][i] for i in group_order) for j in form_order]
    pnvec = tuple(nvec[i] for i in group_order)
    def run():
        cls = mw.startsys.complete_intersection_class(permuted, pnvec)
        # undo the group permutation, so the digest compares with the reference
        canonical = {}
        for a, c in cls.items():
            key = [0] * len(a)
            for pos, i in enumerate(group_order):
                key[i] = a[pos]
            canonical[tuple(key)] = c
        gate.expect("class", (len(cls), sum(cls.values()), class_digest(canonical)),
                    (PENTAD3_KEYS, PENTAD3_TOTAL, PENTAD3_DIGEST))
    gate.step("class", run)


class Setup:
    """What a workflow needs before its clock starts: the fixture, built and
    with its system compiled, or the pentad degree pattern; and the run's
    shape: `draws` draws, each with `nid_seeds` decompositions (nid-decompose
    only)."""

    def __init__(self, workload: str, draws: int = 1, nid_seeds: int = 0):
        self.draws = draws
        self.nid_seeds = nid_seeds
        self.steps = STEPS_PER_DRAW[workload] + nid_seeds  # checked steps in a draw
        name = FIXTURE_OF[workload]
        self.fixture = mw.fixtures.get_fixture(name)
        if workload == "mbezout-pentad3":
            self.pattern = pentad_pattern(self.fixture)
        else:
            system = self.fixture.system
            x = np.linspace(0.1, 0.9, system.grouping.nvars) + 0.3j
            system.evaluate(x)
            system.jacobian(x)
            system.residual_scale(x)


FIXTURE_OF = {
    "octa-chain": "octahedron-fh",
    "richardson-chain": "richardson",
    "nid-decompose": "richardson-four",
    "mbezout-pentad3": "pentad",
}

STEPS_PER_DRAW = {  # nid-decompose adds one step per decomposition
    "octa-chain": 6,
    "richardson-chain": 3,
    "nid-decompose": 1,
    "mbezout-pentad3": 1,
}

WORKFLOWS = {
    "octa-chain": octa_chain,
    "richardson-chain": richardson_chain,
    "nid-decompose": nid_decompose,
    "mbezout-pentad3": mbezout_pentad3,
}
