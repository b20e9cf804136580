"""The tools in tools/ run: the workflow profiler in-process, the kernel
timer in a subprocess of its own."""

import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import multiwit.algebra as algebra
import multiwit.tracker as tracker

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "path_fingerprint.py"


def load_tool(monkeypatch):
    # loading pins the BLAS threads and puts src/ and bench/ on sys.path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("path_fingerprint", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def count(line: str, name: str) -> int:
    return int(re.search(rf" {name}=(\d+)", line).group(1))


def test_one_run_prints_the_draw_line_and_the_stage_lines(monkeypatch, capsys):
    tool = load_tool(monkeypatch)
    names = [(tracker, "track_many"), (tracker, "_advance"), (tracker.Homotopy, "__init__"),
             (algebra._Compiled, "evaluate"), (algebra._Compiled, "__init__")]
    names += [(importlib.import_module(module), name) for module, name in tool.STAGES]
    originals = [getattr(owner, name) for owner, name in names]
    assert tool.main(["octa-chain", "--draws", "0"]) == 0
    draw, *stages = capsys.readouterr().out.splitlines()
    assert draw.startswith("octa-chain seed=20230529 draw=0 attempted=6 failed=0 ")
    assert [line.split()[1] for line in stages] == [name for _, name in tool.STAGES] + ["workflow"]
    for name in ("kernel_calls", "homotopies", "compiles"):
        assert count(draw, name) == count(stages[-1], name)
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(names, originals))


def test_the_kernel_timer_compares_a_tree_with_itself():
    # one call per timing and two batch sizes keep the run short; a tree
    # against itself gives byte-equal outputs on every case
    script = "\n".join([
        "import importlib.util, sys",
        "spec = importlib.util.spec_from_file_location('kernel_timing', sys.argv[1])",
        "tool = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(tool)",
        "tool.CALLS, tool.REPEATS, tool.SIZES = 1, 1, (1, 4)",
        "sys.exit(tool.main(sys.argv[2:]))",
    ])
    run = subprocess.run([sys.executable, "-c", script, str(ROOT / "tools" / "kernel_timing.py"),
                          str(ROOT)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    header, *cases, last = run.stdout.splitlines()
    assert header.split()[0] == "table"
    assert len(cases) == 24  # 2 fixtures x 3 tables x 2 sizes x scaled or not
    assert all(line.split()[-1] == "True" for line in cases)
    assert last == "every output byte-equal"
