"""Numerical irreducible decomposition and membership testing.

The fixture `two-lines` is the union of the lines y = x and x + y = 1 in
the plane, treated as one variable group.  The decomposition separates the
lines; membership testing then tells the components apart.
"""

import numpy as np

from multiwit import (
    RandomSource,
    component_membership,
    compute_witness_collection,
    nid_multi,
)
from multiwit.fixtures import get_fixture


def main():
    fx = get_fixture("two-lines")
    rs = RandomSource(seed=5)

    wc = compute_witness_collection(fx.system, fx.default_keys, rs)
    points = list(wc.entries[(1,)].points)
    dec = nid_multi(fx.system, points, rs.substream(1))

    print(f"{len(dec.components)} components:")
    for i, rec in enumerate(dec.components):
        size = sum(1 for v in dec.assignment.values() if v == i)
        print(f"    component {i}: degree {rec.curve_degree}, "
              f"{size} witness points, certified={rec.certified}")

    # each component is asked about all three points at once
    queries = [np.array([0.3, 0.3], dtype=complex),
               np.array([0.3, 0.7], dtype=complex),
               np.array([0.3, 0.4], dtype=complex)]
    verdicts = [component_membership(rec, queries, rs.substream(2)) for rec in dec.components]
    for k, q in enumerate(queries):
        hits = [i for i, answers in enumerate(verdicts) if answers[k]]
        print(f"point {q.real}: on components {hits or 'none'}")


if __name__ == "__main__":
    main()
