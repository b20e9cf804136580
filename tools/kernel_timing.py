#!/usr/bin/env python3
"""Time the compiled kernel of this tree against another tree's, in one process.

    python3 tools/kernel_timing.py OTHER_TREE

OTHER_TREE is the root of another checkout of this repository.  Both trees'
`src/multiwit` are loaded side by side, as the packages `multiwit` and
`multiwit_other`, and each builds the same term tables: for the fixtures
octahedron-fh and richardson-four, a slice motion's `Homotopy` (the first leg
of a monodromy loop on the collection's largest entry), the system's own
`PolySystem` table and the collection's start table (the one `Homotopy` with
members, captured while the collection is solved).  Each table is evaluated
on the same random inputs at B = 1, 4, 16 and 64 points, scaled and not:
200 calls per timing, 7 timings per tree, the trees taking turns, so that a
drift of the host's speed falls on both alike.  One line per
case: each tree's minimum microseconds per call, their ratio and whether the
two trees' results are byte-equal.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread, as bench/run.py pins it

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ("octahedron-fh", "richardson-four")
SEED = 20230529
SIZES = (1, 4, 16, 64)
CALLS = 200    # calls per timing
REPEATS = 7    # timings per tree and case


def load(tree: Path, name: str):
    """The multiwit package of `tree`, imported under `name`."""
    package = tree / "src" / "multiwit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("fixtures", "startsys", "tracker", "witness"):
        importlib.import_module(f"{name}.{sub}")
    return module


def tables(mw, fixture: str) -> dict:
    """The motion, system and start tables of one fixture, built by `mw`."""
    fx = mw.fixtures.get_fixture(fixture)
    built = []
    init = mw.tracker.Homotopy.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    mw.tracker.Homotopy.__init__ = record
    try:
        rs = mw.RandomSource(seed=SEED)
        wc = mw.witness.compute_witness_collection(fx.system, fx.default_keys, rs)
    finally:
        mw.tracker.Homotopy.__init__ = init
    ws = max((ws for _, ws in sorted(wc.entries.items())), key=len)
    sub = rs.substream(7)
    generic = [mw.startsys.random_affine_form(fx.system.grouping, ws.grouping.blocks[i],
                                              sub.substream(31 * i + j))
               for i, fs in enumerate(ws.selection.per_group) for j in range(len(fs))]
    motion = mw.tracker.Homotopy(ws.selection.forms, generic, sub.unit_complex(), ws.fixed_block)
    (start,) = [h for h in built if h.members is not None]
    return {"motion": motion, "system": fx.system._compiled, "start": start}


def inputs(table, kind: str, count: int, rng) -> dict:
    """Keyword arguments of `evaluate` for `count` random points: a
    homotopy's at random t in (0, 1) with random members, a system's
    without either, as their callers pass them."""
    x = rng.normal(size=(count, table.nvars)) + 1j * rng.normal(size=(count, table.nvars))
    if kind == "system":
        return {"x": x}
    members = table.members.count if table.members is not None else 1
    return {"x": x, "t": rng.uniform(0.01, 0.99, size=count),
            "member": rng.integers(0, members, size=count)}


def per_call(table, args: dict, scaled: bool) -> float:
    """Microseconds per call over CALLS calls."""
    evaluate = table.evaluate
    begin = time.perf_counter()
    for _ in range(CALLS):
        evaluate(scaled=scaled, **args)
    return (time.perf_counter() - begin) / CALLS * 1e6


def same(a: tuple, b: tuple) -> bool:
    return all((p is None and q is None) or (p is not None and q is not None
                                             and p.shape == q.shape and p.tobytes() == q.tobytes())
               for p, q in zip(a, b))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="root of the tree to compare against")
    args = ap.parse_args(argv)
    if not (args.other / "src" / "multiwit" / "__init__.py").is_file():
        ap.error(f"{args.other} holds no src/multiwit package")
    trees = (load(ROOT, "multiwit"), load(args.other.resolve(), "multiwit_other"))
    rng = np.random.default_rng(SEED)
    print(f"{'table':<24}{'B':>4} {'scaled':>6} {'this_us':>9} {'other_us':>9} "
          f"{'ratio':>6}  equal")
    all_equal = True
    for fixture in FIXTURES:
        built = [tables(mw, fixture) for mw in trees]
        for kind in built[0]:
            pair = [b[kind] for b in built]
            for count in SIZES:
                case = inputs(pair[0], kind, count, rng)
                for scaled in (False, True):
                    equal = same(*(t.evaluate(scaled=scaled, **case) for t in pair))
                    all_equal &= equal
                    best = [float("inf")] * 2
                    for r in range(REPEATS):
                        for k in (0, 1) if r % 2 == 0 else (1, 0):
                            best[k] = min(best[k], per_call(pair[k], case, scaled))
                    print(f"{fixture + ' ' + kind:<24}{count:>4} {str(scaled):>6} "
                          f"{best[0]:>9.1f} {best[1]:>9.1f} {best[0] / best[1]:>6.2f}  {equal}",
                          flush=True)
    print("every output byte-equal" if all_equal else "OUTPUTS DIFFER")
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main())
