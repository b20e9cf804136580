"""Command-line interface.

Wires parse -> compute -> serialize for each toolkit stage, with the
built-in example systems available via --fixture.  Exit codes: 0 on
success, 2 on input errors, 3 on numerical failures, among them a
decomposition that leaves a point unassigned (its JSON is still
written).  Output is JSON and byte-identical for identical inputs and
seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import fixtures as fixture_mod
from .dimension import (
    IllConditionedError,
    dimension_polytope,
    equidim_partition,
    product_factorization,
)
from .monodromy import trace_test
from .nid import nid_multi
from .startsys import complete_intersection_class
from .sysio import DEFAULT_SEED, ParseError, RandomSource, parse_system
from .tracker import TrackingError
from .witness import (
    coarsen_collection,
    compute_witness_collection,
    membership,
    refine,
    segre_degree,
    slice_collection,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

class InputError(ValueError):
    pass


def _key_str(e) -> str:
    return "".join(str(int(x)) for x in e)


def _emit(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_keys(text: str, k: int) -> list[tuple[int, ...]]:
    keys = []
    for part in text.replace(" ", ",").split(","):
        if not part:
            continue
        if len(part) != k or not part.isdigit():
            raise InputError(f"key {part!r} must be {k} digits")
        keys.append(tuple(int(c) for c in part))
    if not keys:
        raise InputError("no keys given")
    return keys


def _parse_point(text: str, nvars: int) -> np.ndarray:
    vals = [float(v) for v in text.replace(",", " ").split()]
    if not np.isfinite(vals).all():
        raise InputError(f"point {text!r} has a coordinate that is not finite")
    if len(vals) == nvars:
        return np.asarray(vals, dtype=complex)
    if len(vals) == 2 * nvars:
        arr = np.asarray(vals)
        return arr[0::2] + 1j * arr[1::2]
    raise InputError(
        f"point needs {nvars} reals or {2 * nvars} interleaved re/im values, got {len(vals)}"
    )


def _load_system(args):
    if args.fixture:
        fx = fixture_mod.get_fixture(args.fixture)
        return fx.system, list(fx.default_keys)
    if args.input:
        try:
            with open(args.input) as fh:
                system = parse_system(fh.read())
        except OSError as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from None
        return system, None
    raise InputError("need --fixture NAME or --input PATH")


def _witness_collection(args, check=lambda system, keys: None):
    """The witness collection, computed once `check(system, keys)` has
    passed; a stderr line names each key that dropped points, and one each
    key that merged endpoints two start paths reached."""
    F, default_keys = _load_system(args)
    if args.keys:
        keys = _parse_keys(args.keys, F.grouping.k)
    elif default_keys:
        keys = default_keys
    else:
        raise InputError("no --keys given and the input has no default keys")
    check(F, keys)
    wc = compute_witness_collection(F, keys, RandomSource(seed=args.seed))
    for e, count in sorted(wc.dropped.items()):
        sys.stderr.write(f"key {_key_str(e)}: dropped {count} singular point(s)\n")
    for e, count in sorted(wc.merged.items()):
        sys.stderr.write(
            f"key {_key_str(e)}: merged {count} endpoint(s) that two start paths reached\n")
    return wc


def cmd_witness(args) -> dict:
    wc = _witness_collection(args)
    return {
        "dim": wc.dim,
        "degree_map": {_key_str(e): n for e, n in wc.multidegree_map().items()},
    }


def cmd_dim(args) -> dict:
    wc = _witness_collection(args)
    points = [p for _, ws in sorted(wc.entries.items()) for p in ws.points]
    classes = equidim_partition(wc.system, points)
    rows = []
    for profile, pts in classes:
        polytope = dimension_polytope(profile, wc.system.grouping.sizes)
        rows.append({
            "count": len(pts),
            "total_dim": profile.total_dim,
            "singleton_dims": [profile.dim([i]) for i in range(profile.k)],
            "polytope": sorted(_key_str(e) for e in polytope),
            "product_blocks": [list(b) for b in product_factorization(polytope)],
        })
    return {"classes": rows}


def cmd_slice(args) -> dict:
    def fits(system, keys):
        system.grouping.check_group(args.group)
        if all(e[args.group] == 0 for e in keys):
            raise InputError(f"slicing group {args.group} empties the variety "
                             f"(every key has e_{args.group} = 0)")

    wc = _witness_collection(args, fits)
    sliced = slice_collection(wc, args.group)
    return {
        "group": args.group,
        "degree_map": {_key_str(e): n for e, n in sliced.multidegree_map().items()},
    }


def cmd_refine(args) -> dict:
    try:
        split = tuple(int(x) for x in args.split.split(":"))
        group, first = split
    except ValueError:
        raise InputError("--split must look like GROUP:FIRST_SIZE") from None

    def fits(system, _keys):
        system.grouping.check_group(group)
        if not 0 < first < len(system.grouping.blocks[group]):
            raise InputError(f"--split {args.split} leaves a part of group {group} empty")

    wc = _witness_collection(args, fits)
    rs = RandomSource(seed=args.seed, stream=3)
    streams = itertools.count()
    out = {}
    for e, ws in sorted(wc.entries.items()):
        budget = e[group]
        for left in range(budget + 1):
            target = e[:group] + (left, budget - left) + e[group + 1:]
            refined = refine(ws, split, target, rs.substream(next(streams)))
            if refined.points:
                out[_key_str(target)] = len(refined.points)
    return {"split": list(split), "degree_map": out}


def cmd_coarsen(args) -> dict:
    try:
        merges = [tuple(int(x) for x in m.split(":")) for m in args.merge.split(",")]
        if any(len(m) != 2 for m in merges):
            raise ValueError
    except ValueError:
        raise InputError("--merge must look like A:B[,A:B...] (group indices)") from None

    def fits(system, _keys):  # each merge on the grouping the merges before it leave
        grouping = system.grouping
        for merge in merges:
            grouping = grouping.merge(*sorted(merge))

    wc = _witness_collection(args, fits)
    rs = RandomSource(seed=args.seed, stream=5)
    runs = []
    for mi, merge in enumerate(merges):
        wc, stats = coarsen_collection(wc, merge, rs.substream(mi))
        runs.append({
            "merge": list(merge),
            "paths": [
                {"key": _key_str(s.witness.selection.e), "delta": s.delta,
                 "converged": s.converged, "diverged": s.diverged}
                for s in stats
            ],
        })
    return {
        "degree_map": {_key_str(e): n for e, n in wc.multidegree_map().items()},
        "runs": runs,
    }


def cmd_member(args) -> dict:
    def point(system):
        return _parse_point(args.point, system.grouping.nvars)

    wc = _witness_collection(args, lambda system, _keys: point(system))
    rs = RandomSource(seed=args.seed, stream=7)
    return {"member": bool(membership(wc, point(wc.system), rs))}


def cmd_trace(args) -> dict:
    wc = _witness_collection(args)
    key, ws = sorted(wc.entries.items())[0]
    ok = trace_test(ws, ws.points)
    return {"key": _key_str(key), "complete": bool(ok)}


def cmd_decompose(args) -> dict:
    wc = _witness_collection(args)
    points = [p for _, ws in sorted(wc.entries.items()) for p in ws.points]
    rs = RandomSource(seed=args.seed, stream=13)
    dec = nid_multi(wc.system, points, rs)
    comps = []
    for ci, rec in enumerate(dec.components):
        size = sum(1 for v in dec.assignment.values() if v == ci)
        summary = rec.to_summary()
        summary["polytope"] = [_key_str(e) for e in summary["polytope"]]
        summary["points"] = size
        comps.append(summary)
    return {
        "components": comps,
        "assignment": [dec.assignment.get(i, -1) for i in range(len(points))],
        "diagnostics": dec.diagnostics,
    }


def cmd_segre(args) -> dict:
    wc = _witness_collection(args)
    return {"segre_degree": segre_degree(wc.multidegree_map())}


def cmd_class(args) -> dict:
    if args.fixture:
        if args.fixture not in ("class-123",):
            raise InputError("class accepts --fixture class-123 or explicit --degrees/--nvec")
        data = fixture_mod.class_123()
        degrees, nvec = data["degrees"], data["nvec"]
    else:
        if not (args.degrees and args.nvec):
            raise InputError("class needs --degrees and --nvec (or --fixture class-123)")
        try:
            nvec = tuple(int(x) for x in args.nvec.split(","))
            degrees = [
                [int(x) for x in d.split(",")] for d in args.degrees.split(";")
            ]
        except ValueError:
            raise InputError("--nvec like 3,3,3 and --degrees like 1,2,3;1,2,3") from None
    cls = complete_intersection_class(degrees, nvec)
    out = {"class": {_key_str(e): c for e, c in sorted(cls.items())}}
    if args.group is not None:
        i = args.group
        if not 0 <= i < len(nvec):
            raise InputError(f"group index {i} is not in 0..{len(nvec) - 1}")
        out["sliced"] = dict(sorted((_key_str(e[:i] + (e[i] - 1,) + e[i + 1:]), c)
                                    for e, c in cls.items() if e[i]))
        out["sliced_group"] = i
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="multiwit",
        description="Witness collections and irreducible decomposition "
                    "for varieties with grouped variables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.set_defaults(handler=handler)
        sp.add_argument("--fixture", help="built-in example system")
        sp.add_argument("--input", help="system file in the input grammar")
        sp.add_argument("--keys", help="witness keys, e.g. 1100,1010")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--extended", action="store_true",
                        help="allow long-running extended fixtures")
        sp.add_argument("--output", help="write JSON here instead of stdout")
        return sp

    common(sub.add_parser("witness", help="compute a witness collection"), cmd_witness)
    common(sub.add_parser("dim", help="dimension profiles of witness points"), cmd_dim)
    sp = common(sub.add_parser("slice", help="witness collection of a slice"), cmd_slice)
    sp.add_argument("--group", type=int, required=True)
    sp = common(sub.add_parser("refine", help="split one variable group"), cmd_refine)
    sp.add_argument("--split", required=True, help="GROUP:FIRST_SIZE")
    sp = common(sub.add_parser("coarsen", help="merge variable groups"), cmd_coarsen)
    sp.add_argument("--merge", required=True, help="A:B[,A:B...]")
    sp = common(sub.add_parser("member", help="membership test"), cmd_member)
    sp.add_argument("--point", required=True, help="coordinates (re or re,im interleaved)")
    common(sub.add_parser("trace", help="trace-test an affine curve witness"), cmd_trace)
    common(sub.add_parser("decompose", help="numerical irreducible decomposition"), cmd_decompose)
    common(sub.add_parser("segre", help="degree under the Segre embedding"), cmd_segre)
    sp = sub.add_parser("class", help="complete-intersection class")
    sp.set_defaults(handler=cmd_class)
    sp.add_argument("--fixture", help="class-123, or give --degrees and --nvec")
    sp.add_argument("--output", help="write JSON here instead of stdout")
    sp.add_argument("--degrees", help="like 1,2,3;1,2,3")
    sp.add_argument("--nvec", help="like 3,3,3")
    sp.add_argument("--group", type=int, default=None,
                    help="also report the class after slicing this group")
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    # class reads degrees, not a system, so it has no --extended
    if args.fixture == "pentad" and not getattr(args, "extended", True):
        sys.stderr.write("the pentad fixture is a long run; pass --extended\n")
        return EXIT_INPUT

    try:
        result = args.handler(args)
    except (InputError, ParseError, ValueError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (TrackingError, IllConditionedError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    _emit(result, args.output)
    if args.command == "decompose" and -1 in result["assignment"]:
        missed = result["assignment"].count(-1)
        sys.stderr.write(f"numerical failure: {missed} of {len(result['assignment'])} "
                         "points left unassigned\n")
        return EXIT_NUMERICAL
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
