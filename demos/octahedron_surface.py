"""Multidegrees of a surface in C_x x C_y x C_z x C_w and their coarsenings.

The built-in fixture `octahedron-fg` is the surface cut out by one dense
polynomial and one linear form in four singleton variable groups.  Its
dimension polytope is the octahedron {1100, 1010, 1001, 0110, 0101, 0011}.
The script computes the full multidegree map, merges the z and w groups by
homotopy, and reports the path accounting for each merged key.
"""

from multiwit import (
    RandomSource,
    coarsen_collection,
    compute_witness_collection,
    segre_degree,
)
from multiwit.fixtures import get_fixture


def show(tag, md):
    print(tag)
    for e, d in sorted(md.items()):
        print("   ", "".join(map(str, e)), "->", d)


def main():
    fx = get_fixture("octahedron-fg")
    rs = RandomSource(seed=7)

    wc = compute_witness_collection(fx.system, fx.default_keys, rs)
    show("multidegrees over C_x x C_y x C_z x C_w:", wc.multidegree_map())
    print("degree under the Segre embedding:", segre_degree(wc.multidegree_map()))

    merged, stats = coarsen_collection(wc, (2, 3), rs.substream(1))
    show("after merging z and w:", merged.multidegree_map())
    print("path accounting (delta = converged + diverged):")
    for res in stats:
        key = "".join(map(str, res.witness.selection.e))
        print(f"    {key}: {res.delta} = {res.converged} + {res.diverged}")


if __name__ == "__main__":
    main()
