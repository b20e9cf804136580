#!/usr/bin/env python3
"""Time and count the stages of a benchmark workflow.

    python3 tools/stage_profile.py octa-chain --seeds 20230529 --draws 0 1
    python3 tools/stage_profile.py richardson-chain --seeds 20230529 --draws 0
    python3 tools/stage_profile.py nid-decompose --seeds 20230529 --draws 0 1

One line per stage, summed over the given seeds and draws: the stage's
calls, their inclusive wall time, and the work done inside them: kernel
calls (`algebra._Compiled.evaluate`) and rows per kernel call, the
`tracker.Homotopy` tables built and the term tables compiled
(`algebra._Compiled.__init__` calls).  A last line gives the same for the
whole workflow.  The stages are the witness collection, coarsening,
monodromy breakup, the equidimensional partition, component growth and
membership; each is wrapped in the module its caller reads it from (the
workflows read `multiwit.witness` and `multiwit.monodromy`, `nid_multi`
reads its own module's names), so a call from anywhere else is not counted.
A stage called inside another counts toward both.  Wall times depend on
the machine; every other count does not.

Run from the repository root: the library comes from ./src and the
workflows from bench/workloads.py, which this script only imports.  A draw
runs to its end, without the benchmark's work budget and time limit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, as bench/run.py pins it

import argparse  # noqa: E402
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


class Stages:
    """Per stage: [calls, seconds, kernel calls, kernel rows, homotopies,
    compiles], and the depth of its open calls."""

    def __init__(self):
        self.totals = {name: [0, 0.0, 0, 0, 0, 0] for _, name in STAGES + ((None, WORKFLOW),)}
        self.depth = dict.fromkeys(self.totals, 0)

    def add(self, column: int, amount: int = 1) -> None:
        for name, depth in self.depth.items():
            if depth:
                self.totals[name][column] += amount

    def run(self, name: str, fn, *args, **kwargs):
        self.totals[name][0] += 1
        self.depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.depth[name] -= 1
            if not self.depth[name]:  # a nested call's time is already inside
                self.totals[name][1] += time.perf_counter() - t0

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.run(name, fn, *args, **kwargs)

    def lines(self, workload: str) -> list[str]:
        out = []
        for name, (calls, seconds, kernel, rows, homotopies, compiles) in self.totals.items():
            per_call = rows / kernel if kernel else 0.0
            out.append(f"{workload} {name:<26} calls={calls} wall_s={seconds:.3f} "
                       f"kernel_calls={kernel} rows_per_call={per_call:.1f} "
                       f"homotopies={homotopies} compiles={compiles}")
        return out


def profile(workload: str, seeds: list, draws: list) -> list[str]:
    """Run every (seed, draw) of the workflow with the stages wrapped."""
    nid_seeds = workloads.NID_SEEDS if workload == "nid-decompose" else 0
    setup = workloads.Setup(workload, len(draws), nid_seeds)
    stages = Stages()
    evaluate, build, compile_ = (algebra._Compiled.evaluate, tracker.Homotopy.__init__,
                                 algebra._Compiled.__init__)

    def evaluated(self, x, *args, **kwargs):
        stages.add(2)
        stages.add(3, len(x))
        return evaluate(self, x, *args, **kwargs)

    def built(self, *args, **kwargs):
        stages.add(4)
        build(self, *args, **kwargs)

    def compiled(self, *args, **kwargs):
        stages.add(5)
        compile_(self, *args, **kwargs)

    modules = [importlib.import_module(module) for module, _ in STAGES]
    originals = [(mod, name, getattr(mod, name)) for mod, (_, name) in zip(modules, STAGES)]
    algebra._Compiled.evaluate, tracker.Homotopy.__init__ = evaluated, built
    algebra._Compiled.__init__ = compiled
    for mod, name, fn in originals:
        setattr(mod, name, stages.wrap(name, fn))
    try:
        for seed in seeds:
            for draw in draws:
                stages.run(WORKFLOW, workloads.WORKFLOWS[workload], setup, seed, draw,
                           workloads.Gate())
    finally:
        algebra._Compiled.evaluate, tracker.Homotopy.__init__ = evaluate, build
        algebra._Compiled.__init__ = compile_
        for mod, name, fn in originals:
            setattr(mod, name, fn)
    return stages.lines(workload)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("octa-chain", "richardson-chain", "nid-decompose"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[20230529])
    ap.add_argument("--draws", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    print("\n".join(profile(args.workload, args.seeds, args.draws)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
