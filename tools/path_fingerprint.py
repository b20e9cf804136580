#!/usr/bin/env python3
"""Fingerprint every path a benchmark workflow tracks, and count its stages.

    python3 tools/path_fingerprint.py octa-chain --seeds 20230529 1 2 3 --draws 0 1
    python3 tools/path_fingerprint.py richardson-chain --seeds 20230529 --draws 0
    python3 tools/path_fingerprint.py nid-decompose --seeds 20230529 1 2 --draws 0 1

First, for each (workload, seed, draw) one line: the workflow's attempted
and failed steps, the paths that `tracker.track_many` returned, the kernel
calls (`algebra._Compiled.evaluate`), the `tracker.Homotopy` tables built,
the term tables compiled (`algebra._Compiled.__init__` calls: every
`Homotopy`, every `PolySystem` table and every table of `newton_refine`),
the lockstep rounds (calls of `tracker._advance`, one step attempt of every
live path of a batch), and a SHA-256 over each of those PathResults in call
order: its status, its steps taken and its endpoint's bytes; then the count
of those paths per status, `converged_sha256`, the same SHA-256 over the
converged paths only, and `answers`, a SHA-256 of
`repr(sorted(gate.results.items()))`, the integers every check produced.
Two trees that print the same lines track the same paths bit for bit, with
the same kernel calls, and give the same answers.  A change that only ends
diverging paths sooner shows equal status counts and an equal
`converged_sha256` next to fewer `kernel_calls` and `rounds`.  Batching
shows in `rounds` and `kernel_calls` next to `homotopies`.

Then one line per stage, summed over the given seeds and draws: the
stage's calls, their inclusive wall time, and the work done inside them:
kernel calls and rows per kernel call, homotopies built and tables
compiled.  A last line gives the same for the whole workflow; its kernel
calls, homotopies and compiles are the sums of the draw lines'.  The
stages are the witness collection, coarsening, monodromy breakup, the
equidimensional partition, component growth and membership; each is
wrapped in the module its caller reads it from (the workflows read
`multiwit.witness` and `multiwit.monodromy`, `nid_multi` reads its own
module's names), so a call from anywhere else is not counted.  A stage
called inside another counts toward both.  Wall times depend on the
machine; every other count does not.

Run from the repository root: the library comes from ./src and the
workflows from bench/workloads.py, which this script only imports.  A draw
runs to its end, without the benchmark's work budget and time limit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, as bench/run.py pins it

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import multiwit.algebra as algebra  # noqa: E402
import multiwit.tracker as tracker  # noqa: E402
import workloads  # noqa: E402

# (module the caller reads the name from, name)
STAGES = (
    ("multiwit.witness", "compute_witness_collection"),
    ("multiwit.witness", "coarsen_collection"),
    ("multiwit.monodromy", "breakup"),
    ("multiwit.nid", "equidim_partition"),
    ("multiwit.nid", "build_component"),
    ("multiwit.nid", "component_membership"),
)
WORKFLOW = "workflow"
COUNTS = ("calls", "seconds", "kernel_calls", "rows", "homotopies", "compiles", "paths",
          "rounds")


class Profile:
    """Per stage and for the whole workflow, the counts of COUNTS and the
    depth of its open calls; and the path hashes and status counts of the
    draw that runs."""

    def __init__(self):
        self.totals = {name: dict.fromkeys(COUNTS, 0) for _, name in STAGES + ((None, WORKFLOW),)}
        self.depth = dict.fromkeys(self.totals, 0)

    def add(self, count: str, amount: int = 1) -> None:
        for name, depth in self.depth.items():
            if depth:
                self.totals[name][count] += amount

    def run(self, name: str, fn, *args, **kwargs):
        self.totals[name]["calls"] += 1
        self.depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.depth[name] -= 1
            if not self.depth[name]:  # a nested call's time is already inside
                self.totals[name]["seconds"] += time.perf_counter() - t0

    def tracked(self, results: list) -> None:
        self.add("paths", len(results))
        for r in results:
            self.statuses[r.status] += 1
            for h in (self.digest, self.converged) if r.status == "converged" else (self.digest,):
                h.update(f"{r.status}:{r.steps_taken}:".encode())
                h.update(b"-" if r.endpoint is None else r.endpoint.tobytes())

    def draw(self, workload: str, seed: int, draw: int, setup) -> str:
        """Run one draw of the workflow; its line."""
        self.digest, self.converged = hashlib.sha256(), hashlib.sha256()
        self.statuses = {"converged": 0, "diverged": 0, "failed": 0}
        before = dict(self.totals[WORKFLOW])
        gate = workloads.Gate()
        self.run(WORKFLOW, workloads.WORKFLOWS[workload], setup, seed, draw, gate)
        counts = {name: n - before[name] for name, n in self.totals[WORKFLOW].items()}
        answers = hashlib.sha256(repr(sorted(gate.results.items())).encode()).hexdigest()
        return (f"{workload} seed={seed} draw={draw} attempted={gate.attempted} "
                f"failed={gate.failed} paths={counts['paths']} "
                f"kernel_calls={counts['kernel_calls']} "
                f"homotopies={counts['homotopies']} compiles={counts['compiles']} "
                f"rounds={counts['rounds']} "
                f"sha256={self.digest.hexdigest()} "
                + "".join(f"{status}_paths={n} " for status, n in self.statuses.items())
                + f"converged_sha256={self.converged.hexdigest()} answers={answers}")

    def lines(self, workload: str) -> list[str]:
        out = []
        for name, c in self.totals.items():
            per_call = c["rows"] / c["kernel_calls"] if c["kernel_calls"] else 0.0
            out.append(f"{workload} {name:<26} calls={c['calls']} wall_s={c['seconds']:.3f} "
                       f"kernel_calls={c['kernel_calls']} rows_per_call={per_call:.1f} "
                       f"homotopies={c['homotopies']} compiles={c['compiles']}")
        return out


@contextlib.contextmanager
def wrapped(profile: Profile):
    """Wrap the tracker, the kernel, the table builds and the stages so that
    they count into `profile`; every name is restored on leaving."""
    track, advance = tracker.track_many, tracker._advance
    evaluate, compile_ = algebra._Compiled.evaluate, algebra._Compiled.__init__
    build = tracker.Homotopy.__init__

    def tracked(*args, **kwargs):
        results = track(*args, **kwargs)
        profile.tracked(results)
        return results

    def evaluated(self, x, *args, **kwargs):
        profile.add("kernel_calls")
        profile.add("rows", len(x))
        return evaluate(self, x, *args, **kwargs)

    def built(self, *args, **kwargs):
        profile.add("homotopies")
        build(self, *args, **kwargs)

    def compiled(self, *args, **kwargs):
        profile.add("compiles")
        compile_(self, *args, **kwargs)

    def advanced(*args, **kwargs):
        profile.add("rounds")
        return advance(*args, **kwargs)

    def stage(name, fn):
        return lambda *args, **kwargs: profile.run(name, fn, *args, **kwargs)

    wrappers = [(tracker, "track_many", tracked), (algebra._Compiled, "evaluate", evaluated),
                (tracker.Homotopy, "__init__", built), (algebra._Compiled, "__init__", compiled),
                (tracker, "_advance", advanced)]
    for module, name in STAGES:
        module = importlib.import_module(module)
        wrappers.append((module, name, stage(name, getattr(module, name))))
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in wrappers]
    for owner, name, fn in wrappers:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("octa-chain", "richardson-chain", "nid-decompose"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[20230529])
    ap.add_argument("--draws", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    nid_seeds = workloads.NID_SEEDS if args.workload == "nid-decompose" else 0
    setup = workloads.Setup(args.workload, len(args.draws), nid_seeds)
    profile = Profile()
    with wrapped(profile):
        for seed in args.seeds:
            for draw in args.draws:
                print(profile.draw(args.workload, seed, draw, setup), flush=True)
    print("\n".join(profile.lines(args.workload)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
