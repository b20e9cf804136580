#!/usr/bin/env python3
"""Fingerprint every path the benchmark workflows track.

    python3 tools/path_fingerprint.py octa-chain --seeds 20230529 1 2 3 --draws 0 1
    python3 tools/path_fingerprint.py nid-decompose --seeds 20230529 1 2 --draws 0 1

For each (workload, seed, draw) one line: the workflow's attempted and failed
steps, the paths that `tracker.track_many` returned, the kernel calls
(`algebra._Compiled.evaluate`), the `tracker.Homotopy` tables built, the
term tables compiled (`algebra._Compiled.__init__` calls: every `Homotopy`,
every `PolySystem` table and every table of `newton_refine`), the
lockstep rounds (calls of `tracker._advance`, one step attempt of every live
path of a batch), and a
SHA-256 over each of those PathResults in call order: its status, its steps
taken and its endpoint's bytes; then the count of those paths per status,
`converged_sha256`, the same SHA-256 over the converged paths only, and
`answers`, a SHA-256 of `repr(sorted(gate.results.items()))`, the integers
every check produced.  Two trees that print the same lines track the same
paths bit for bit, with the same kernel calls, and give the same answers.  A
change that only ends diverging paths sooner shows equal status counts and
an equal `converged_sha256` next to fewer `kernel_calls` and `rounds`.
The counts do not depend on the machine: batching shows in `rounds` and
`kernel_calls` next to `homotopies`.

Run from the repository root: the library comes from ./src and the
workflows from bench/workloads.py, which this script only imports.  A draw
runs to its end, without the benchmark's work budget and time limit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, as bench/run.py pins it

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import multiwit.algebra as algebra  # noqa: E402
import multiwit.tracker as tracker  # noqa: E402
import workloads  # noqa: E402


def fingerprint(workload: str, seed: int, draw: int, setup) -> str:
    """The line of one draw; wraps the tracker, the kernel and the homotopy
    build while it runs."""
    digest, converged = hashlib.sha256(), hashlib.sha256()
    counts = {"paths": 0, "calls": 0, "homotopies": 0, "compiles": 0, "rounds": 0}
    statuses = {"converged": 0, "diverged": 0, "failed": 0}
    track, evaluate = tracker.track_many, algebra._Compiled.evaluate
    build, advance = tracker.Homotopy.__init__, tracker._advance
    compile_ = algebra._Compiled.__init__

    def tracked(*args, **kwargs):
        results = track(*args, **kwargs)
        for r in results:
            statuses[r.status] += 1
            for h in (digest, converged) if r.status == "converged" else (digest,):
                h.update(f"{r.status}:{r.steps_taken}:".encode())
                h.update(b"-" if r.endpoint is None else r.endpoint.tobytes())
        counts["paths"] += len(results)
        return results

    def counted(self, *args, **kwargs):
        counts["calls"] += 1
        return evaluate(self, *args, **kwargs)

    def built(self, *args, **kwargs):
        counts["homotopies"] += 1
        build(self, *args, **kwargs)

    def compiled(self, *args, **kwargs):
        counts["compiles"] += 1
        compile_(self, *args, **kwargs)

    def advanced(*args, **kwargs):
        counts["rounds"] += 1
        return advance(*args, **kwargs)

    gate = workloads.Gate()
    tracker.track_many, algebra._Compiled.evaluate = tracked, counted
    tracker.Homotopy.__init__, tracker._advance = built, advanced
    algebra._Compiled.__init__ = compiled
    try:
        workloads.WORKFLOWS[workload](setup, seed, draw, gate)
    finally:
        tracker.track_many, algebra._Compiled.evaluate = track, evaluate
        tracker.Homotopy.__init__, tracker._advance = build, advance
        algebra._Compiled.__init__ = compile_
    answers = hashlib.sha256(repr(sorted(gate.results.items())).encode()).hexdigest()
    return (f"{workload} seed={seed} draw={draw} attempted={gate.attempted} "
            f"failed={gate.failed} paths={counts['paths']} kernel_calls={counts['calls']} "
            f"homotopies={counts['homotopies']} compiles={counts['compiles']} "
            f"rounds={counts['rounds']} "
            f"sha256={digest.hexdigest()} "
            + "".join(f"{status}_paths={n} " for status, n in statuses.items())
            + f"converged_sha256={converged.hexdigest()} answers={answers}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("octa-chain", "richardson-chain", "nid-decompose"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[20230529])
    ap.add_argument("--draws", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    nid_seeds = workloads.NID_SEEDS if args.workload == "nid-decompose" else 0
    setup = workloads.Setup(args.workload, len(args.draws), nid_seeds)
    for seed in args.seeds:
        for draw in args.draws:
            print(fingerprint(args.workload, seed, draw, setup), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
