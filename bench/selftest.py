"""Fast self-test of the benchmark harness (about ten seconds).

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py

It checks that tracing changes no result and restores every name it
wrapped, that the traced counters repeat exactly for one seed, that a wrong
integer or a library error is counted as a failed step instead of raised,
that a run's number of steps and its work budget are fixed by its
arguments, that the scaled clock follows wall time at the host's measured
speed, that the pinned pentad class digest matches an independent
computation, and that the metric names agree with BENCHMARK.json.
"""

import itertools
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")})
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import multiwit as mw  # noqa: E402
import multiwit.algebra  # noqa: E402
import multiwit.tracker  # noqa: E402
import numpy as np  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_chain(seed: int, gate: workloads.Gate) -> None:
    """A miniature of the workflows: collection, coarsening, breakup and a
    one-component decomposition on the plane cubic."""
    split = mw.fixtures.get_fixture("cubic-split")
    source = mw.RandomSource(seed=seed, stream=1)
    wc = gate.step("collection", lambda: mw.witness.compute_witness_collection(
        split.system, split.default_keys, source))
    w = workloads._merge_step(gate, "merge", wc, (0, 1), source.substream(2), {(1,): 3})

    def breakup(w):
        state = mw.monodromy.breakup(w.entries[(1,)], source.substream(3))
        gate.expect("breakup", (sorted(map(len, state.partition)), state.certified),
                    ([3], [True]))
        return w
    w = gate.step("breakup", breakup, w)

    def decompose(w):
        dec = mw.nid.nid_multi(w.system, w.entries[(1,)].points, source.substream(4))
        gate.expect("nid", len(dec.components), 1)
    gate.step("nid", decompose, w)


def traced_small_chain(seed: int):
    tracer = tracing.Tracer()
    gate = workloads.Gate()
    with tracer.installed(extra_modules=[workloads, sys.modules[__name__]]):
        small_chain(seed, gate)
    return tracer, gate


def test_tracing_changes_no_result_and_restores_names():
    tracked = (multiwit.tracker.track_many, mw.witness.track_many,
               mw.witness.solve_zero_dim, mw.nid.grow_witness_set,
               multiwit.algebra.PolySystem.__dict__["evaluate"], np.linalg.solve)
    plain = workloads.Gate()
    small_chain(7, plain)
    assert plain.failed == 0, plain.failures
    tracer, traced = traced_small_chain(7)
    assert traced.results == plain.results
    after = (multiwit.tracker.track_many, mw.witness.track_many,
             mw.witness.solve_zero_dim, mw.nid.grow_witness_set,
             multiwit.algebra.PolySystem.__dict__["evaluate"], np.linalg.solve)
    assert all(a is b for a, b in zip(tracked, after))
    m = tracer.metrics()
    # every layer of the miniature chain was seen
    for name in ("algebra.evaluate_calls", "tracker.paths", "tracker.solve_calls",
                 "startsys.solve_calls", "witness.coarsen_paths", "monodromy.loops",
                 "monodromy.trace_tests", "nid.components", "dimension.profile_calls"):
        assert m[name] > 0, name
    assert m["tracker.paths"] == (m["tracker.paths_converged"] + m["tracker.paths_diverged"]
                                  + m["tracker.paths_failed"])
    assert all(s[2] >= s[1] for s in tracer.spans)


def test_counters_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        tracer, _gate = traced_small_chain(11)
        counts.append({k: v for k, v in tracer.metrics().items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["tracker.steps"] > 0


def test_wrong_integers_and_errors_are_counted_not_raised():
    gate = workloads.Gate()

    def wrong():
        gate.expect("answer", 7, 8)
        return "a result"
    assert gate.step("wrong", wrong) == "a result"  # handed on despite the mismatch

    def raises():
        raise mw.IndeterminateError("paths failed")
    assert gate.step("raises", raises) is None
    assert gate.step("after", lambda x: x, None) is None
    gate.step("fine", lambda: gate.expect("ok", 1, 1))
    assert (gate.attempted, gate.failed) == (4, 3)

    # a real workflow, on a quick sub-pattern, passing and then forced wrong
    setup = workloads.Setup("mbezout-pentad3")
    setup.pattern = (setup.pattern[0][:12], setup.pattern[1])
    cls = sparse_class(*setup.pattern)
    pinned = (workloads.PENTAD3_KEYS, workloads.PENTAD3_TOTAL, workloads.PENTAD3_DIGEST)
    outcomes = []
    try:
        for shift in (0, 1):
            workloads.PENTAD3_KEYS = len(cls)
            workloads.PENTAD3_TOTAL = sum(cls.values()) + shift
            workloads.PENTAD3_DIGEST = workloads.class_digest(cls)
            gate = workloads.Gate()
            workloads.mbezout_pentad3(setup, 3, 0, gate)
            outcomes.append((gate.attempted, gate.failed))
    finally:
        workloads.PENTAD3_KEYS, workloads.PENTAD3_TOTAL, workloads.PENTAD3_DIGEST = pinned
    assert outcomes == [(1, 0), (1, 1)]


def test_step_times_follow_the_steps_that_ran_through():
    gates = []
    for seconds, ended in ((1.0, True), (0.1, False), (3.0, True)):
        gate = workloads.Gate()
        gate.seconds = {"merge": seconds, "nid.0": 2 * seconds, "nid.1": 5.0}
        gate.completed = {"merge"} if ended else set()
        gates.append(gate)
    # merge: the two draws where it ran to its end; nid: it never did, so
    # every decomposition counts
    assert workloads.step_seconds(gates) == {"merge": 2.0, "nid": 5.0}
    gate = workloads.Gate()
    gate.step("wrong", lambda: gate.expect("answer", 7, 8))
    gate.step("raises", lambda: (_ for _ in ()).throw(mw.TrackingError("lost")))
    assert gate.completed == {"wrong"} and set(gate.seconds) == {"wrong", "raises"}


def test_run_shape_is_fixed_by_arguments():
    assert [run.repeats("octa-chain", s) for s in (1, 30, 60)] == [1, 1, 2]
    assert run.repeats("nid-decompose", 60) == 2
    # a draw stopped early still counts all of its steps
    gate = workloads.Gate()
    gate.step("done", lambda: None)
    gate.abandon(workloads.STEPS_PER_DRAW["octa-chain"], "not run")
    assert (gate.attempted, gate.failed) == (6, 5)
    # the work budget stops at the same call every time and restores the method
    original = multiwit.algebra.PolySystem.__dict__["jacobian"]
    system = mw.fixtures.get_fixture("cubic-split").system
    x = np.linspace(0.1, 0.9, system.grouping.nvars) + 0.3j
    made = 0
    try:
        with run.jacobian_budget(2):
            for made in range(1, 4):
                system.jacobian(x)
    except run.WorkBudget:
        pass
    assert made == 3
    assert multiwit.algebra.PolySystem.__dict__["jacobian"] is original


def test_speedometer_scales_wall_time_and_restores_the_signal():
    before = signal.getsignal(signal.SIGVTALRM)
    meter = speed.Speedometer()
    with meter.running():
        t0, c0 = time.perf_counter(), meter.clock()
        speed.kernel_seconds(2000)  # about half a second of CPU time
        wall, scaled = time.perf_counter() - t0, meter.clock() - c0
    assert signal.getsignal(signal.SIGVTALRM) is before
    assert meter.samples > speed.WINDOW  # the handler ran
    # wall time at the host's measured speed, less the kernel's own time
    expected = wall * speed.KERNEL_SECONDS / meter.mean_kernel_seconds()
    assert 0.5 * expected < scaled < 1.5 * expected


def sparse_class(degrees, nvec) -> dict:
    """complete_intersection_class by a sparse expansion over reachable
    exponent vectors; an independent check of the pinned digest."""
    poly = {(0,) * len(nvec): 1}
    for d in degrees:
        new: dict = {}
        for idx, c in poly.items():
            for i, di in enumerate(d):
                if di and idx[i] < nvec[i]:
                    j = idx[:i] + (idx[i] + 1,) + idx[i + 1:]
                    new[j] = new.get(j, 0) + c * di
        poly = new
    return {tuple(n - x for n, x in zip(nvec, idx)): c for idx, c in poly.items() if c}


def test_pinned_pentad_class():
    degrees, nvec = workloads.pentad_pattern(mw.fixtures.get_fixture("pentad"))
    assert len(degrees) == 24 and nvec == (4,) * 8
    cls = sparse_class(degrees, nvec)
    assert (len(cls), sum(cls.values())) == (workloads.PENTAD3_KEYS, workloads.PENTAD3_TOTAL)
    assert workloads.class_digest(cls) == workloads.PENTAD3_DIGEST
    small = [[1, 2, 0], [0, 1, 1], [2, 0, 1]]
    for perm in itertools.permutations(range(3)):
        got = mw.startsys.complete_intersection_class([small[p] for p in perm], (2, 1, 1))
        assert got == sparse_class(small, (2, 1, 1))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = list(tracing.Tracer().metrics()) + list(run.TRACE_METRICS)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
