#!/usr/bin/env python3
"""multiwit benchmark: run one workflow, check its integers, print metrics.

    python3 bench/run.py --workload octa-chain --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table

Run from the repository root; the library is imported from ./src.  With
--trace 0 the workflow is repeated a fixed number of times, set by
--seconds, and the end-to-end metrics are printed; with --trace 1 it runs once
untraced and once traced, and the per-layer metrics plus the tracing
overhead are printed.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

import os

# Pinned before numpy is imported anywhere: one thread per process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("octa-chain", "richardson-chain", "nid-decompose", "mbezout-pentad3")
SETUP_REPEATS = 3  # set-up is timed in this many fresh processes; the median is reported
# A run's work is fixed by its arguments, never by the clock, so that
# `attempted` and `failed` depend only on the workload, the seed and
# --seconds.  --seconds sets how often the workload repeats: once per
# REPEAT_SECONDS, set so that a run at --seconds 60 ends within about 70 s on
# a 2-CPU Xeon at 2.0 GHz even when the host is slow.  A repeat is a draw of
# the workflow; a nid-decompose draw decomposes its collection under
# workloads.NID_SEEDS seeds.
REPEAT_SECONDS = {"octa-chain": 30.0, "richardson-chain": 30.0,
                  "nid-decompose": 30.0, "mbezout-pentad3": 5.0}
# A draw may make at most this many PolySystem.jacobian calls per repeat
# (for nid-decompose, per decomposition and once more for the collection).
# Now and then a path runs to TrackOptions.max_steps and a draw would go on
# for minutes; at the budget it stops, and the step it was in and the steps
# it did not reach count as attempted and failed.  The call count repeats
# exactly for one seed, so, unlike a clock, the budget stops the same draws
# at the same call on every machine.  Typical draws make about 200,000 calls
# (octa-chain), 250,000 (richardson-chain) and 36,000 plus 150,000 to
# 220,000 per decomposition (nid-decompose).
JACOBIAN_BUDGET = {"octa-chain": 320_000, "richardson-chain": 600_000,
                   "nid-decompose": 200_000, "mbezout-pentad3": 0}  # it tracks no path
# A run that reaches RUN_LIMIT seconds stops as well, so that it ends within
# three minutes.  Runs sized by REPEAT_SECONDS and JACOBIAN_BUDGET end far
# sooner.
RUN_LIMIT = 170.0
START = time.perf_counter()
TRACE_DIR = ROOT / ".bench_trace"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = ("trace.wall_untraced_s", "trace.wall_traced_s", "trace.overhead_s")


def load_library():
    """Import the library from ./src and the workflows; exit 2 if absent."""
    if not (ROOT / "src" / "multiwit" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no library at {ROOT / 'src' / 'multiwit'}\n")
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    return workloads


def probe_setup(workload: str) -> None:
    """Child process: time import, fixture build and first compile; print
    the time scaled by the host's speed right after it (see speed.py), and
    the plain time."""
    t0 = time.perf_counter()
    workloads = load_library()
    workloads.Setup(workload)
    seconds = time.perf_counter() - t0
    import speed

    print(seconds * speed.KERNEL_SECONDS / speed.kernel_seconds(), seconds)


def time_setup(workload: str) -> tuple[float, float]:
    """Median scaled and median plain set-up time over SETUP_REPEATS fresh
    processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append([float(v) for v in out.stdout.split()[-2:]])
    return tuple(statistics.median(column) for column in zip(*samples))


class Stop(BaseException):
    """Ends a draw early; a BaseException, so that no handler in the
    library or the Gate catches it."""


class TimeLimit(Stop):
    pass


class WorkBudget(Stop):
    pass


def _alarm(signum, frame):
    raise TimeLimit("the run reached its time limit")


@contextlib.contextmanager
def jacobian_budget(calls: int):
    """Raise WorkBudget at the first PolySystem.jacobian call past `calls`.
    Yields a one-item list holding the calls left."""
    import multiwit.algebra

    poly = multiwit.algebra.PolySystem
    original = poly.__dict__["jacobian"]
    left = [calls]

    def jacobian(self, *args, **kwargs):
        left[0] -= 1
        if left[0] < 0:
            raise WorkBudget(f"the draw used its {calls} jacobian calls")
        return original(self, *args, **kwargs)

    poly.jacobian = jacobian
    try:
        yield left
    finally:
        poly.jacobian = original


def run_draw(workloads, setup, workload: str, seed: int, draw: int, clock=time.perf_counter):
    """One workflow, stopped at its jacobian budget or if the run reaches
    RUN_LIMIT.  Returns (wall time, gate, whether it was stopped); the gate
    also records the jacobian calls made.  `clock` times the steps."""
    gate = workloads.Gate(clock)
    gate.jacobian_calls = 0
    remaining = RUN_LIMIT - (time.perf_counter() - START)
    if remaining <= 0:
        gate.abandon(setup.steps, "not run, the run reached its time limit")
        return None, gate, True
    budget = JACOBIAN_BUDGET[workload] * (1 + setup.nid_seeds)
    left = [budget]
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    t0 = time.perf_counter()
    try:
        with jacobian_budget(budget) as left:
            workloads.WORKFLOWS[workload](setup, seed, draw, gate)
        stopped = False
    except Stop as exc:
        stopped = True
        gate.failures.append(f"{gate.current}: stopped, {exc}")
        gate.abandon(setup.steps, f"not run, {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        gate.jacobian_calls = budget - max(left[0], 0)
    measured = time.perf_counter() - t0
    return measured, gate, stopped


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeats(workload: str, seconds: float) -> int:
    return max(1, round(seconds / REPEAT_SECONDS[workload]))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: run a fixed number of draws, set by `seconds`, and report
    the sum over the workflow's steps of each step's median time.  Traced: draw 0 once untraced, then once traced, with
    one decomposition for nid-decompose so that both fit the time limit."""
    workloads = load_library()
    import speed

    setup_s, setup_wall_s = time_setup(workload)
    nid_seeds = (1 if trace else workloads.NID_SEEDS) if workload == "nid-decompose" else 0
    setup = workloads.Setup(workload, 1 if trace else repeats(workload, seconds), nid_seeds)

    walls, gates, draws, steps, host, stopped = [], [], [], {}, {}, False
    meter = speed.Speedometer()
    with contextlib.nullcontext() if trace else meter.running():
        for draw in range(setup.draws):
            clock = time.perf_counter if trace else meter.clock
            wall, gate, stopped = run_draw(workloads, setup, workload, seed, draw, clock)
            if wall is not None:
                walls.append(wall)
                draws.append((wall, gate.jacobian_calls))
            gates.append(gate)

    problems = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed(extra_modules=[workloads]):
            traced_wall, gate, traced_stopped = run_draw(
                workloads, setup, workload, seed, 0)
        if not (stopped or traced_stopped) and gate.results != gates[0].results:
            problems.append("the traced run gave other results than the untraced run")
        gates.append(gate)
        layer = tracer.metrics()
        layer.update(zip(TRACE_METRICS, (walls[0], traced_wall, traced_wall - walls[0])))
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        TRACE_DIR.mkdir(exist_ok=True)
        with open(TRACE_DIR / f"{workload}-{seed}.json", "w") as fh:
            json.dump({"spans": tracer.spans, "metrics": layer}, fh)
    else:
        steps = workloads.step_seconds(gates)
        values = {"wall_s": sum(steps.values()), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        host = {"kernel_us": meter.mean_kernel_seconds() * 1e6,
                "scale": speed.KERNEL_SECONDS / meter.mean_kernel_seconds(),
                "setup_wall_s": setup_wall_s}

    return {
        "workload": workload,
        "seed": seed,
        "environment": {**{v: os.environ[v] for v in THREAD_VARS}, "nproc": os.cpu_count()},
        "draws": draws,
        "steps": steps,
        "host": host,
        "attempted": sum(g.attempted for g in gates),
        "failed": sum(g.failed for g in gates),
        "failures": [f"draw {d}: {f}" for d, g in enumerate(gates[:setup.draws])
                     for f in g.failures],
        "metrics": metrics,
        "problems": problems,
        "correct": not problems,
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms_p50", "ms"), ("_ms_p90", "ms"), ("_s", "s"),
                         ("_share", "ratio"), ("_per_step", "calls/step"),
                         ("_per_path", "steps/path"), ("_p50", "count")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    share = result["failed"] / result["attempted"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"draws {len(result['draws'])}  "
          f"env {result['environment']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'failed_share':34s} {share:14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} checked steps)")
    for name, seconds in result["steps"].items():
        print(f"  step {name:29s} {seconds:14.6g} s (median over draws)")
    if result["host"]:
        print("  host speed: kernel {kernel_us:.1f} us, scale {scale:.3f}; "
              "unscaled set-up {setup_wall_s:.4f} s".format(**result["host"]))
    for d, (wall, calls) in enumerate(result["draws"]):
        print(f"  draw {d}: {wall:.3f} s unscaled, {calls} jacobian calls")
    for line in result["failures"] + result["problems"]:
        print(f"  ! {line}")
    print(f"  correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, capture_output=True, text=True,
        )
        print(out.stdout, end="")
        rows.append((workload, json.loads(out.stdout.strip().splitlines()[-1])))
    print(f"\n{'workload':18s} {'wall_s [s]':>11s} {'failed_share':>12s} "
          f"{'setup_s [s]':>11s} {'peak_rss_mb [MB]':>16s}  correct")
    for workload, r in rows:
        m = r["metrics"]
        get = lambda k: m[k]["value"] if k in m else float("nan")  # noqa: E731
        print(f"{workload:18s} {get('wall_s'):11.3f} {r['failed'] / r['attempted']:12.3f} "
              f"{get('setup_s'):11.3f} {get('peak_rss_mb'):16.1f}  {r['correct']}")
    print(json.dumps({w: r for w, r in rows}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=20230529)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
