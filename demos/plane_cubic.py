"""Witness sets for a plane cubic, from scratch.

Builds a witness collection for the curve V(y^2 - x^3 + 3x - 1) in
C_x x C_y and certifies completeness with monodromy and the trace test.
"""

from multiwit import (
    RandomSource,
    breakup,
    compute_witness_collection,
    parse_system,
)

SOURCE = """
group x; group y;
f = y^2 - x^3 + 3*x - 1;
"""


def main():
    F = parse_system(SOURCE)
    rs = RandomSource(seed=42)

    # The curve has dimension 1, so its keys e satisfy |e| = 1.  Key (1,0)
    # slices with a generic affine form in x alone (2 points), key (0,1)
    # with one in y alone (3 points).
    wc = compute_witness_collection(F, [(1, 0), (0, 1)], rs)
    print("multidegree map:", wc.multidegree_map())

    ws = wc.entries[(0, 1)]
    print("witness points for key (0,1):")
    for p in ws.points:
        print("   ", p)

    # Monodromy + trace: the cubic is irreducible, so the 3 points form
    # one certified orbit.
    state = breakup(ws, rs.substream(2))
    print("orbit sizes:", [len(part) for part in state.partition])
    print("certified:", state.certified)


if __name__ == "__main__":
    main()
