"""The walk-throughs in demos/ run as scripts and print their results."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name: str, capsys) -> list[str]:
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_plane_cubic(capsys):
    out = run_demo("plane_cubic", capsys)
    assert "multidegree map: {(0, 1): 3, (1, 0): 2}" in out
    assert "orbit sizes: [3]" in out
    assert "certified: [True]" in out


def test_octahedron_surface(capsys):
    out = run_demo("octahedron_surface", capsys)
    start = out.index("path accounting (delta = converged + diverged):")
    rows = [re.fullmatch(r"\s+\d+: (\d+) = (\d+) \+ (\d+)", line) for line in out[start + 1:]]
    assert rows and all(rows)
    for row in rows:
        delta, converged, diverged = map(int, row.groups())
        assert delta == converged + diverged


def test_decompose_and_membership(capsys):
    out = run_demo("decompose_and_membership", capsys)
    assert "2 components:" in out
    assert "point [0.3 0.3]: on components [0]" in out
    assert "point [0.3 0.7]: on components [1]" in out
    assert "point [0.3 0.4]: on components none" in out
