import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiwit.cli as cli
import multiwit.fixtures as fixtures
import multiwit.nid as nid
from multiwit import IndeterminateError
from multiwit.cli import EXIT_INPUT, EXIT_NUMERICAL, EXIT_OK, run


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    if out:
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    return code, (json.loads(out) if out else None)


def test_witness_cubic(capsys):
    code, doc = run_json(["witness", "--fixture", "cubic"], capsys)
    assert code == EXIT_OK
    assert doc == {"dim": 1, "degree_map": {"1": 3}}


def test_refine_cubic(capsys):
    code, doc = run_json(["refine", "--fixture", "cubic", "--split", "0:1"], capsys)
    assert code == EXIT_OK
    assert doc["degree_map"] == {"10": 2, "01": 3}


def test_refine_zero_budget_group(capsys):
    # both keys of point-times-surface have no slice forms on group 0
    argv = ["refine", "--fixture", "point-times-surface", "--split", "0:1"]
    code, doc = run_json(argv, capsys)
    assert code == EXIT_OK
    assert doc["degree_map"] == {"0012": 1, "0021": 1}


def test_slice_split_cubic(capsys):
    code, doc = run_json(["slice", "--fixture", "cubic-split", "--group", "1"],
                         capsys)
    assert code == EXIT_OK
    assert doc["degree_map"] == {"00": 3}


def test_coarsen_split_cubic(capsys):
    code, doc = run_json(["coarsen", "--fixture", "cubic-split", "--merge", "0:1"],
                         capsys)
    assert code == EXIT_OK
    assert doc["degree_map"] == {"1": 3}
    (stats,) = doc["runs"][0]["paths"]
    assert stats["delta"] == 5
    assert stats["converged"] == 3
    assert stats["diverged"] == 2


def test_segre_split_cubic(capsys):
    code, doc = run_json(["segre", "--fixture", "cubic-split"], capsys)
    assert code == EXIT_OK
    assert doc == {"segre_degree": 5}


def test_trace_cubic(capsys):
    code, doc = run_json(["trace", "--fixture", "cubic"], capsys)
    assert code == EXIT_OK
    assert doc == {"key": "1", "complete": True}


def test_member_two_lines(capsys):
    on = ["member", "--fixture", "two-lines", "--point", "0.3 0.3"]
    code, doc = run_json(on, capsys)
    assert code == EXIT_OK and doc == {"member": True}
    off = ["member", "--fixture", "two-lines", "--point", "0.3 0.4"]
    code, doc = run_json(off, capsys)
    assert code == EXIT_OK and doc == {"member": False}


@pytest.mark.parametrize("argv", [
    ["member", "--fixture", "two-lines"],
    ["member", "--fixture", "two-lines", "--point", "abc"],
    ["member", "--fixture", "two-lines", "--point", "0.3"],
    ["member", "--fixture", "two-lines", "--point", "nan,0"],
    ["member", "--fixture", "two-lines", "--point", "0.3,inf"],
    ["slice", "--fixture", "cubic", "--group", "9"],
    ["slice", "--fixture", "cubic-split", "--keys", "01", "--group", "0"],
    ["refine", "--fixture", "cubic", "--split", "5:1"],
    ["refine", "--fixture", "cubic", "--split", "0:2"],
    ["coarsen", "--fixture", "octahedron-fg", "--merge", "0:7"],
    ["coarsen", "--fixture", "octahedron-fg", "--merge", "0:1,0:3"],
    ["class", "--fixture", "class-123", "--seed", "3"],
], ids=" ".join)
def test_member_without_point_computes_nothing(argv, monkeypatch):
    # a missing --point, or an argument that does not fit the system, is an
    # input error before any witness set is computed
    calls = []
    monkeypatch.setattr(cli, "compute_witness_collection", lambda *a: calls.append(a))
    assert run(argv) == EXIT_INPUT
    assert calls == []


def test_member_reads_interleaved_re_im_points(capsys):
    # 2 * nvars values are (re, im) pairs: x = y lies on the line x - y,
    # x + y = 1 on the other, and the third point is on neither
    for point, member in (("0.3 0.1 0.3 0.1", True), ("0.6 0.2 0.4 -0.2", True),
                          ("0.3 0.1 0.3 -0.1", False)):
        code, doc = run_json(["member", "--fixture", "two-lines", "--point", point], capsys)
        assert code == EXIT_OK and doc == {"member": member}, point


def test_decompose_two_lines(capsys):
    code, doc = run_json(["decompose", "--fixture", "two-lines"], capsys)
    assert code == EXIT_OK
    assert len(doc["components"]) == 2
    assert all(c["certified"] for c in doc["components"])
    assert all(c["curve_degree"] == 1 for c in doc["components"])
    assert sorted(doc["assignment"]) == [0, 1]


def test_decompose_leaves_out_a_point_of_a_higher_dimensional_component(capsys):
    # at seed 3 the plane's points, singular roots on both keys, would
    # decompose into a dimension-2 component beside the line
    argv = ["decompose", "--fixture", "surface-and-line", "--seed", "3"]
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    (component,) = json.loads(out)["components"]
    assert component["dim"] == 1 and component["polytope"] == ["10"]
    assert err == "key 01: dropped 2 singular point(s)\nkey 10: dropped 1 singular point(s)\n"


def test_witness_names_a_key_that_merged_endpoints(capsys):
    # at seed 1 two start paths of key 1001 end on one point: the count
    # stays right, and stderr says the merge happened
    code = run(["witness", "--fixture", "octahedron-fg", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(out)["degree_map"]["1001"] == 3
    assert err == "key 1001: merged 1 endpoint(s) that two start paths reached\n"


def test_decompose_with_an_unassigned_point_exits_3_after_writing(capsys, monkeypatch):
    def grow(ws, rs):
        raise IndeterminateError("the trace test failed after 60 loops")

    monkeypatch.setattr(nid, "grow_witness_set", grow)
    code, doc = run_json(["decompose", "--fixture", "two-lines"], capsys)
    assert code == EXIT_NUMERICAL
    assert doc["components"] == []
    assert doc["assignment"] == [-1, -1]
    assert len(doc["diagnostics"]) == 2


def test_dim_two_lines(capsys):
    code, doc = run_json(["dim", "--fixture", "two-lines"], capsys)
    assert code == EXIT_OK
    (row,) = doc["classes"]
    assert row["count"] == 2
    assert row["total_dim"] == 1


def test_class_fixture(capsys):
    code, doc = run_json(["class", "--fixture", "class-123"], capsys)
    assert code == EXIT_OK
    assert doc["class"]["111"] == 3240
    assert doc["class"]["300"] == 4320
    assert len(doc["class"]) == 10


def test_class_explicit_with_slice(capsys):
    argv = ["class", "--degrees", "1,1;1,1", "--nvec", "1,1", "--group", "0"]
    code, doc = run_json(argv, capsys)
    assert code == EXIT_OK
    assert doc["class"] == {"00": 2}
    assert doc["sliced"] == {}  # nothing has e_0 > 0


def test_class_fixture_with_slice(capsys):
    code, doc = run_json(["class", "--fixture", "class-123", "--group", "0"], capsys)
    assert code == EXIT_OK
    assert doc["sliced_group"] == 0
    # slicing group 0 lowers e_0 by one and drops the keys with e_0 = 0
    assert doc["sliced"] == {f"{int(e[0]) - 1}{e[1:]}": c
                             for e, c in doc["class"].items() if e[0] != "0"}
    assert doc["sliced"]["110"] == 6480


def test_unknown_fixture_is_input_error(capsys):
    assert run(["witness", "--fixture", "no-such-system"]) == EXIT_INPUT


@pytest.fixture
def broken_fixture(monkeypatch):
    """A fixture named "broken" whose constructor raises KeyError("inner")."""
    inner = KeyError("inner")

    def broken():
        raise inner

    monkeypatch.setitem(fixtures._FIXTURES, "broken", broken)
    return inner


def test_fixture_constructor_error_reaches_the_caller(broken_fixture):
    # a KeyError raised while a fixture is built is not an unknown name
    with pytest.raises(KeyError) as info:
        fixtures.get_fixture("broken")
    assert info.value is broken_fixture


def test_fixture_constructor_error_is_not_an_input_error(broken_fixture):
    # only an unknown name is bad input: the constructor's KeyError leaves
    # the CLI as it was raised, not as exit 2
    with pytest.raises(KeyError) as info:
        run(["witness", "--fixture", "broken"])
    assert info.value is broken_fixture


def test_missing_input_is_input_error(capsys):
    assert run(["witness"]) == EXIT_INPUT


def test_bad_key_is_input_error(capsys):
    assert run(["witness", "--fixture", "cubic", "--keys", "12x"]) == EXIT_INPUT


def test_oversized_key_is_input_error_naming_the_key(capsys):
    for argv, key in ((["--fixture", "cubic", "--keys", "3"], "(3,)"),
                      (["--fixture", "cubic", "--keys", "2"], "(2,)"),
                      (["--fixture", "octahedron-fg", "--keys", "2000"], "(2, 0, 0, 0)"),
                      # below the variety's dimension: too few slices to square up
                      (["--fixture", "cubic-split", "--keys", "00"], "(0, 0)"),
                      (["--fixture", "octahedron-fg", "--keys", "0001"], "(0, 0, 0, 1)")):
        assert run(["witness"] + argv) == EXIT_INPUT
        assert f"input error: key {key} does not fit" in capsys.readouterr().err


@pytest.mark.parametrize("argv, index", [
    (["refine", "--fixture", "cubic", "--split", "5:1"], 5),
    (["slice", "--fixture", "cubic", "--group", "7"], 7),
    (["coarsen", "--fixture", "octahedron-fg", "--merge", "0:9"], 9),
    (["class", "--fixture", "class-123", "--group", "9"], 9),
    (["slice", "--fixture", "octahedron-fg", "--group=-1"], -1),
    (["class", "--fixture", "class-123", "--group=-1"], -1),
    (["refine", "--fixture", "point-times-surface", "--split=-1:1"], -1),
    (["coarsen", "--fixture", "octahedron-fg", "--merge=-1:0"], -1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_group_index_out_of_range_is_input_error(argv, index, capsys):
    assert run(argv) == EXIT_INPUT
    assert f"input error: group index {index} is not in 0.." in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["witness", "--fixture", "cubic", "--keys", ","], "no keys given"),
    (["witness", "--input", "no-such-dir/cubic.sys", "--keys", "1"],
     "cannot read no-such-dir/cubic.sys: "),
    (["refine", "--fixture", "cubic", "--split", "0"], "--split must look like GROUP:FIRST_SIZE"),
    (["refine", "--fixture", "cubic", "--split", "a:1"],
     "--split must look like GROUP:FIRST_SIZE"),
    (["coarsen", "--fixture", "cubic-split", "--merge", "0:1:2"],
     "--merge must look like A:B[,A:B...] (group indices)"),
    (["coarsen", "--fixture", "cubic-split", "--merge", "0-1"],
     "--merge must look like A:B[,A:B...] (group indices)"),
    (["class", "--fixture", "cubic"],
     "class accepts --fixture class-123 or explicit --degrees/--nvec"),
    (["class", "--nvec", "3,3"], "class needs --degrees and --nvec (or --fixture class-123)"),
    (["class", "--degrees", "1,x", "--nvec", "3"],
     "--nvec like 3,3,3 and --degrees like 1,2,3;1,2,3"),
], ids=" ".join)
def test_malformed_arguments_are_input_errors(argv, message, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "compute_witness_collection", lambda *a: calls.append(a))
    assert run(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"input error: {message}")
    assert calls == []


def test_input_without_keys_is_input_error(tmp_path, capsys):
    # a system file declares no witness keys, so --input needs --keys
    cubic = tmp_path / "cubic.sys"
    cubic.write_text("group v[2];\nf = v2^2 - 2*v1*v2 - v1^3 + v1;\n")
    assert run(["witness", "--input", str(cubic)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "input error: no --keys given and the input has no default keys\n")


def test_a_failed_computation_exits_3(monkeypatch, capsys):
    def failing(*args):
        raise IndeterminateError("2 of 12 paths failed")

    monkeypatch.setattr(cli, "compute_witness_collection", failing)
    assert run(["witness", "--fixture", "cubic"]) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert out == "" and err == "numerical failure: 2 of 12 paths failed\n"


def test_input_file_matches_the_fixture(tmp_path, capsys):
    # the cubic fixture as text; the file has no default keys, so --keys
    cubic = tmp_path / "cubic.sys"
    cubic.write_text("group v[2];\nf = v2^2 - 2*v1*v2 - v1^3 + v1;\n")
    assert run(["witness", "--input", str(cubic), "--keys", "1"]) == EXIT_OK
    from_file = capsys.readouterr().out
    assert run(["witness", "--fixture", "cubic"]) == EXIT_OK
    assert from_file == capsys.readouterr().out


def test_malformed_input_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("group x;\nf = x + ;\n")
    assert run(["witness", "--input", str(bad)]) == EXIT_INPUT


@pytest.mark.parametrize("text, keys", [
    ("group x; group y; f = 1e999*x*y - 1;", "10"),
    ("group v[1e999]; f = v1;", "1"),
    ("group x; f = x^1e999 - 1;", "0"),
])
def test_non_finite_literal_is_input_error(tmp_path, capsys, text, keys):
    bad = tmp_path / "bad.sys"
    bad.write_text(text)
    assert run(["witness", "--input", str(bad), "--keys", keys]) == EXIT_INPUT
    assert "number literal '1e999' is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("group x; f = x^100000000 - 1;", "exponent must be an integer from 0 to 1000"),
    ("group v[100000000]; f = v1;", "group size must be an integer from 1 to 1000"),
    ("group x; group y; group z; f = (x + y + z)^200;", "a power may expand to at most 2000 terms"),
    ("group x; group y; group z; f = (x + y + z)^61*(x + y + z)^61;",
     "a product may expand to at most 2000 terms"),
])
def test_oversized_exponent_or_group_is_input_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.sys"
    bad.write_text(text)
    assert run(["witness", "--input", str(bad)]) == EXIT_INPUT
    assert message in capsys.readouterr().err


def test_non_finite_coefficient_is_input_error(tmp_path, capsys):
    # finite literals whose product overflows: refused before any path is tracked
    bad = tmp_path / "bad.sys"
    bad.write_text("group x; group y; f = 1e300*1e300*x*y - 1;")
    assert run(["witness", "--input", str(bad), "--keys", "10"]) == EXIT_INPUT
    assert "polynomial 'f' has a coefficient that is not finite" in capsys.readouterr().err


def test_pentad_requires_extended_flag(capsys):
    assert run(["witness", "--fixture", "pentad"]) == EXIT_INPUT


def test_output_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run(["witness", "--fixture", "cubic-split", "--output", str(path)])
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    # the child finds the package in src/ whether or not it is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "multiwit.cli", "class", "--fixture", "class-123"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"]["003"] == 160


def test_run_leaves_module_constants_alone(capsys):
    import multiwit

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("multiwit.") and m is not None]
    assert multiwit.cli in modules

    def constants():
        return {(m.__name__, k): v for m in modules
                for k, v in vars(m).items() if k.isupper()}

    before = constants()
    assert run(["witness", "--fixture", "two-lines"]) == EXIT_OK
    assert run(["member", "--fixture", "two-lines", "--point", "0.3 0.3"]) == EXIT_OK
    assert run(["decompose", "--fixture", "two-lines"]) == EXIT_OK
    # tolerances and loop bounds are module constants, not flags
    for flag, value in (("--tol-match", "1e-3"), ("--max-loops", "2"), ("--workers", "2"),
                        ("--tol-track", "1e-9"), ("--tol-rank", "1e-7"),
                        ("--tol-trace", "-1")):
        assert run(["witness", "--fixture", "two-lines", flag, value]) == EXIT_INPUT
    capsys.readouterr()
    assert constants() == before
