"""Tracing from outside the library: wrap its public calls, record spans.

`Tracer.installed()` replaces each traced function by a wrapper in every
module that holds a reference to it (the defining module, every module that
imported the name with `from .x import f`, the `multiwit` package and the
benchmark's own workflow module), wraps the `PolySystem` methods on the class
and `numpy.linalg.solve` on its module, and puts every original back when the
block ends.  It assumes one thread: spans nest through a single stack.

Spans (name, start, end, parent) are kept for the layer-level calls.  The
hot calls (`PolySystem.evaluate`/`jacobian`/`residual_scale`, the linear
solve) get no span; only their call counts and summed times are kept, split
by whether they ran inside the tracker.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

import numpy as np

import multiwit.algebra

perf = time.perf_counter

# layer -> functions given a span, by defining module
SPANNED = {
    "tracker": ("multiwit.tracker", ("track_many", "track_path", "newton_refine")),
    "startsys": ("multiwit.startsys", ("solve_zero_dim", "start_package",
                                       "complete_intersection_class", "mbezout")),
    "witness": ("multiwit.witness", ("compute_witness_collection", "coarsen_collection",
                                     "move_slice", "slice_collection")),
    "monodromy": ("multiwit.monodromy", ("breakup", "monodromy_permutation",
                                         "trace_test", "grow_witness_set")),
    "nid": ("multiwit.nid", ("nid_multi", "build_component", "component_membership")),
    "dimension": ("multiwit.dimension", ("local_multidimension", "equidim_partition")),
}
ALGEBRA_METHODS = ("evaluate", "jacobian", "residual_scale")
TRACKER_SPANS = ("track_many", "newton_refine")  # linear solves inside these are the tracker's


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, list] = {}  # hot call -> [calls, seconds]
        self.in_track = {"calls": 0, "s": 0.0}  # hot calls inside track_many
        self.track_depth = 0  # open track_many spans
        self.tracker_depth = 0  # open track_many or newton_refine spans
        self.paths: list[tuple] = []  # per track_path: (status, steps, seconds)
        self.starts: list[int] = []  # start points per track_many
        self.start_paths = 0
        self.coarsen = [0, 0]  # paths, diverged
        self.loops: list[bool] = []  # per monodromy loop: did it move a point

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([name, perf(), 0.0, parent])
            tracer.stack.append(idx)
            tracked = name in TRACKER_SPANS
            tracer.track_depth += name == "track_many"
            tracer.tracker_depth += tracked
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = perf()
                tracer.stack.pop()
                tracer.track_depth -= name == "track_many"
                tracer.tracker_depth -= tracked
            tracer._observe(name, out, tracer.spans[idx])
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _counted(self, name: str, fn, tracker_only: bool = False):
        tracer = self
        slot = self.counts.setdefault(name, [0, 0.0])

        def wrapped(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if not tracker_only or tracer.tracker_depth:
                    slot[0] += 1
                    slot[1] += dt
                if tracer.track_depth:
                    tracer.in_track["calls"] += name != "solve"
                    tracer.in_track["s"] += dt

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe(self, name, out, span):
        if name == "track_path":
            self.paths.append((out.status, out.steps_taken, span[2] - span[1]))
        elif name == "track_many":
            self.starts.append(len(out))
        elif name == "start_package":
            self.start_paths += len(out.solutions)
        elif name == "coarsen_collection":
            for res in out[1]:
                self.coarsen[0] += res.delta
                self.coarsen[1] += res.diverged
        elif name == "monodromy_permutation":
            moved = any(i != j for i, j in out.permutation.items())
            self.loops.append(moved or bool(out.new_points))

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, extra_modules=()):
        """Wrap everything for the duration of the block, then restore."""
        saved: list[tuple] = []

        def swap(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "multiwit" or n.startswith("multiwit.")]
        modules += list(extra_modules)
        try:
            for modname, names in SPANNED.values():
                home = sys.modules[modname]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._spanned(fname, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                swap(mod, attr, wrapper)
            poly = multiwit.algebra.PolySystem
            for meth in ALGEBRA_METHODS:
                swap(poly, meth, self._counted(meth, poly.__dict__[meth]))
            swap(np.linalg, "solve", self._counted("solve", np.linalg.solve, tracker_only=True))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, by name (times in s unless named _ms/_us)."""
        total = lambda name: sum(self.durations(name))  # noqa: E731
        calls = lambda name: len(self.durations(name))  # noqa: E731
        m: dict[str, float] = {}

        hot = {k: tuple(v) for k, v in self.counts.items()}
        for meth in ALGEBRA_METHODS:
            n, s = hot.get(meth, (0, 0.0))
            m[f"algebra.{meth}_calls"] = n
            m[f"algebra.{meth}_s"] = s
        for meth in ("evaluate", "jacobian"):
            n, s = hot.get(meth, (0, 0.0))
            m[f"algebra.{meth}_us"] = 1e6 * s / n if n else 0.0

        steps = sum(p[1] for p in self.paths)
        status = [p[0] for p in self.paths]
        solve_n, solve_s = hot.get("solve", (0, 0.0))
        track_s = total("track_many")
        m["algebra.calls_per_step"] = self.in_track["calls"] / steps if steps else 0.0
        m.update({
            "tracker.homotopies": len(self.starts),
            "tracker.paths": len(self.paths),
            "tracker.paths_converged": status.count("converged"),
            "tracker.paths_diverged": status.count("diverged"),
            "tracker.paths_failed": status.count("failed"),
            "tracker.steps": steps,
            "tracker.steps_per_path": steps / len(self.paths) if self.paths else 0.0,
            "tracker.diverged_step_share":
                sum(p[1] for p in self.paths if p[0] == "diverged") / steps if steps else 0.0,
            "tracker.paths_per_homotopy_p50": _p50(self.starts),
            "tracker.track_s": track_s,
            "tracker.self_s": track_s - self.in_track["s"],
            "tracker.path_ms_p50": 1e3 * _p50([p[2] for p in self.paths]),
            "tracker.path_ms_p90": 1e3 * _p90([p[2] for p in self.paths]),
            "tracker.homotopy_ms_p50": 1e3 * _p50(self.durations("track_many")),
            "tracker.homotopy_ms_p90": 1e3 * _p90(self.durations("track_many")),
            "tracker.solve_calls": solve_n,
            "tracker.solve_s": solve_s,
            "tracker.solve_us": 1e6 * solve_s / solve_n if solve_n else 0.0,
            "tracker.newton_refine_calls": calls("newton_refine"),
            "tracker.newton_refine_s": total("newton_refine"),
            "startsys.solve_calls": calls("solve_zero_dim"),
            "startsys.solve_s": total("solve_zero_dim"),
            "startsys.start_paths": self.start_paths,
            "startsys.start_package_s": total("start_package"),
            "startsys.class_s": total("complete_intersection_class"),
            "witness.collection_s": total("compute_witness_collection"),
            "witness.coarsen_s": total("coarsen_collection"),
            "witness.coarsen_paths": self.coarsen[0],
            "witness.coarsen_diverged": self.coarsen[1],
            "witness.move_slice_calls": calls("move_slice"),
            "witness.move_slice_s": total("move_slice"),
            "monodromy.loops": len(self.loops),
            "monodromy.loop_s": total("monodromy_permutation"),
            "monodromy.useful_loop_share":
                sum(self.loops) / len(self.loops) if self.loops else 0.0,
            "monodromy.trace_tests": calls("trace_test"),
            "monodromy.trace_s": total("trace_test"),
            "monodromy.breakup_s": total("breakup"),
            "nid.components": calls("build_component"),
            "nid.build_s": total("build_component"),
            "nid.member_queries": calls("component_membership"),
            "nid.member_s": total("component_membership"),
            "nid.member_ms_p50": 1e3 * _p50(self.durations("component_membership")),
            "nid.member_ms_p90": 1e3 * _p90(self.durations("component_membership")),
            "dimension.profile_calls": calls("local_multidimension"),
            "dimension.profile_s": total("local_multidimension"),
        })
        return m


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10)[-1])
