"""Built-in example systems.

Each fixture returns a SystemDocument-like bundle: the grouped system
plus default witness keys and any reference data useful for demos and
tests.  Systems with random ingredients (the rank-condition minors) are
seeded so that reruns are identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import Polynomial, PolySystem, VariableGrouping
from .sysio import RandomSource


@dataclass
class Fixture:
    name: str
    system: PolySystem
    default_keys: list  # candidate witness keys
    extra: dict = field(default_factory=dict)

    @property
    def grouping(self) -> VariableGrouping:
        return self.system.grouping


def _vars(g: VariableGrouping):
    return [Polynomial.variable(g, v) for v in range(g.nvars)]


def plane_cubic() -> Fixture:
    """A plane cubic curve, one variable group of size two."""
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = _vars(g)
    f = y ** 2 - 2 * x * y - x ** 3 + x
    return Fixture("cubic", PolySystem([f]), [(1,)],
                   extra={"refined_keys": [(1, 0), (0, 1)]})


def plane_cubic_split() -> Fixture:
    """The same cubic with x and y in separate groups."""
    g = VariableGrouping.from_sizes([1, 1], ["x", "y"])
    x, y = _vars(g)
    f = y ** 2 - 2 * x * y - x ** 3 + x
    return Fixture("cubic-split", PolySystem([f]), [(1, 0), (0, 1)])


def two_lines() -> Fixture:
    """A pair of lines in the plane, one variable group."""
    g = VariableGrouping.from_sizes([2], ["x", "y"])
    x, y = _vars(g)
    f = (x + y - 1) * (x - y)
    return Fixture("two-lines", PolySystem([f]), [(1,)])


OCTAHEDRON_KEYS = [
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1),
]


def _octahedron_polys():
    g = VariableGrouping.from_sizes([1, 1, 1, 1], ["x", "y", "z", "w"])
    x, y, z, w = _vars(g)
    f = 1 + 2 * x + 3 * y ** 2 + 4 * z ** 3 + 5 * w ** 4
    gg = 1 + 2 * x + 3 * y + 5 * z + 7 * w
    h = (
        1 + 2 * x + 3 * y + 5 * z + 7 * w
        + 11 * x * y + 13 * x * z + 17 * x * w
        + 19 * y * z + 23 * y * w + 29 * z * w
        + 31 * x * y * z + 37 * x * y * w + 41 * x * z * w + 43 * y * z * w
        + 47 * x * y * z * w
    )
    return f, gg, h


def octahedron_fg() -> Fixture:
    f, gg, _ = _octahedron_polys()
    return Fixture(
        "octahedron-fg", PolySystem([f, gg]), list(OCTAHEDRON_KEYS),
        extra={"degree_map": {
            (1, 1, 0, 0): 4, (1, 0, 1, 0): 4, (1, 0, 0, 1): 3,
            (0, 1, 1, 0): 4, (0, 1, 0, 1): 3, (0, 0, 1, 1): 2,
        }},
    )


def octahedron_fh() -> Fixture:
    f, _, h = _octahedron_polys()
    return Fixture(
        "octahedron-fh", PolySystem([f, h]), list(OCTAHEDRON_KEYS),
        extra={"degree_map": {
            (1, 1, 0, 0): 7, (1, 0, 1, 0): 6, (1, 0, 0, 1): 5,
            (0, 1, 1, 0): 5, (0, 1, 0, 1): 4, (0, 0, 1, 1): 3,
        }},
    )


def _poly_det(entries) -> Polynomial:
    """Determinant of a square matrix of polynomials by permutation expansion."""
    n = len(entries)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = None
        for i in range(n):
            term = entries[i][perm[i]] if term is None else term * entries[i][perm[i]]
        term = sign * term
        total = term if total is None else total + term
    return total


RICHARDSON_SEED = 811213


def _richardson_minors(which: str):
    """Minors of rank conditions on a 6x3 matrix of identity plus variables.

    which = "all" gives the twelve minors, "four" the complete-intersection
    subset (rows 3,5 of the first condition and 4,6 of the second)."""
    g = VariableGrouping.from_sizes(
        [3, 3, 3], [f"y{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    )
    yv = _vars(g)
    one = Polynomial.constant(g, 1.0)
    zero = Polynomial.constant(g, 0.0)
    # stacked matrix: identity on top, transposed variable matrix below, so
    # column c carries exactly the c-th variable group and every minor is
    # linear in each group
    C = [[one if r == c else zero for c in range(3)] for r in range(3)]
    C += [[yv[3 * c + r] for c in range(3)] for r in range(3)]
    rs = RandomSource(stream=RICHARDSON_SEED)
    Ns = [rs.substream(i).gaussian_complex_array(6, 2) for i in range(2)]
    augmented = [[C[r] + [Polynomial.constant(g, N[r, 0]), Polynomial.constant(g, N[r, 1])]
                  for r in range(6)] for N in Ns]
    if which == "all":
        keep = [(i, j) for i in (1, 2) for j in range(1, 7)]
    else:
        keep = [(1, 3), (1, 5), (2, 4), (2, 6)]
    # minor (i, j) drops row j from the i-th augmented matrix
    return PolySystem([_poly_det([row for r, row in enumerate(augmented[i - 1]) if r != j - 1])
                       for i, j in keep])


HEXAGON_KEYS = [
    (0, 3, 2), (1, 3, 1), (2, 3, 0),
    (0, 2, 3), (1, 2, 2), (2, 2, 1), (3, 2, 0),
    (1, 1, 3), (2, 1, 2), (3, 1, 1),
    (2, 0, 3), (3, 0, 2),
]

RICHARDSON_DEGREE_MAP = {
    (0, 3, 2): 1, (1, 3, 1): 2, (2, 3, 0): 1,
    (0, 2, 3): 1, (1, 2, 2): 3, (2, 2, 1): 3, (3, 2, 0): 1,
    (1, 1, 3): 2, (2, 1, 2): 3, (3, 1, 1): 2,
    (2, 0, 3): 1, (3, 0, 2): 1,
}


def richardson() -> Fixture:
    return Fixture(
        "richardson", _richardson_minors("all"), list(HEXAGON_KEYS),
        extra={"degree_map": dict(RICHARDSON_DEGREE_MAP), "segre_degree": 450,
               "affine_degree": 8},
    )


def richardson_four() -> Fixture:
    # the two full-hexagon non-rank components are not symmetric: keeping
    # different row pairs per rank condition gives center values 2 vs 3
    hexagon_2_map = {
        (0, 3, 2): 1, (1, 3, 1): 1, (2, 3, 0): 1,
        (0, 2, 3): 1, (1, 2, 2): 2, (2, 2, 1): 2, (3, 2, 0): 1,
        (1, 1, 3): 1, (2, 1, 2): 2, (3, 1, 1): 1,
        (2, 0, 3): 1, (3, 0, 2): 1,
    }
    hexagon_3_map = {
        (0, 3, 2): 1, (1, 3, 1): 1, (2, 3, 0): 1,
        (0, 2, 3): 1, (1, 2, 2): 3, (2, 2, 1): 3, (3, 2, 0): 1,
        (1, 1, 3): 1, (2, 1, 2): 3, (3, 1, 1): 1,
        (2, 0, 3): 1, (3, 0, 2): 1,
    }
    small_map = {
        (1, 3, 1): 1,
        (1, 2, 2): 2, (2, 2, 1): 2,
        (1, 1, 3): 1, (2, 1, 2): 2, (3, 1, 1): 1,
    }
    return Fixture(
        "richardson-four", _richardson_minors("four"), list(HEXAGON_KEYS),
        extra={"component_maps": [dict(RICHARDSON_DEGREE_MAP),
                                  hexagon_2_map, hexagon_3_map, small_map]},
    )


def hyperboloid() -> Fixture:
    """Fiber-product system whose 4-dimensional components carry the two
    rulings of the quadric x1^2 + x2^2 - x3^2 = 1."""
    names = [f"l{i}" for i in range(1, 5)]
    for c in range(1, 4):
        names += [f"x{c}{j}" for j in range(1, 4)]
    g = VariableGrouping.from_sizes([4, 3, 3, 3], names)
    v = _vars(g)
    lam = v[:4]
    polys = []
    for c in range(3):
        x = v[4 + 3 * c: 7 + 3 * c]
        polys.append(lam[0] * x[0] + lam[1] * x[1] - x[2])
        polys.append(lam[2] * x[0] + lam[3] * x[1] - 1)
    for c in range(3):
        x = v[4 + 3 * c: 7 + 3 * c]
        polys.append(x[0] ** 2 + x[1] ** 2 - x[2] ** 2 - 1)
    return Fixture(
        "hyperboloid", PolySystem(polys), [(1, 1, 1, 1)],
        extra={"witness_count": 16, "split": (4, 12),
               "profiles": {(1, 2, 2, 3): 4, (4, 2, 4, 4): 12},
               "ungrouped_count": 120},
    )


def class_123():
    """Degree pattern of six general (1,2,3)-forms on group sizes (3,3,3)."""
    return {
        "degrees": [[1, 2, 3]] * 6,
        "nvec": (3, 3, 3),
        "class": {
            (0, 0, 3): 160, (0, 1, 2): 720, (1, 0, 2): 1440,
            (0, 2, 1): 1080, (1, 1, 1): 3240, (2, 0, 1): 4320,
            (0, 3, 0): 540, (1, 2, 0): 3240, (2, 1, 0): 6480,
            (3, 0, 0): 4320,
        },
    }


def point_times_surface() -> Fixture:
    """A point in the first factor times a bilinear hypersurface in the
    planes cut from the last two factors."""
    g = VariableGrouping.from_sizes(
        [3, 3, 3], [f"y{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    )
    y = {(i, j): Polynomial.variable(g, 3 * (i - 1) + (j - 1))
         for i in range(1, 4) for j in range(1, 4)}
    polys = [
        y[1, 1], y[1, 2], y[1, 3],
        19 * y[2, 2] + 46 * y[2, 3],
        19 * y[3, 2] + 46 * y[3, 3] + 34,
        243 * y[2, 3] * y[3, 1] - 243 * y[2, 1] * y[3, 3]
        - 306 * y[2, 1] + 1020 * y[2, 3] - 342 * y[3, 1] + 1194 * y[3, 3] + 68,
    ]
    return Fixture("point-times-surface", PolySystem(polys),
                   [(0, 1, 2), (0, 2, 1)])


def affine_lines_cube() -> Fixture:
    """Two affine forms per group: a translate of a coordinate 3-space."""
    g = VariableGrouping.from_sizes(
        [3, 3, 3], [f"y{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    )
    y = {(i, j): Polynomial.variable(g, 3 * (i - 1) + (j - 1))
         for i in range(1, 4) for j in range(1, 4)}
    polys = [
        57 * y[1, 1] - 199 * y[1, 3],
        19 * y[1, 2] + 46 * y[1, 3],
        57 * y[2, 1] - 199 * y[2, 3],
        19 * y[2, 2] + 46 * y[2, 3],
        171 * y[3, 1] - 597 * y[3, 3] - 34,
        19 * y[3, 2] + 46 * y[3, 3] + 34,
    ]
    return Fixture("affine-lines-cube", PolySystem(polys), [(1, 1, 1)])


def pentad() -> Fixture:
    """Fourth fiber power of the planar five-bar pose system (extended runs)."""
    names = [f"u{i}" for i in range(1, 5)] + [f"ub{i}" for i in range(1, 5)]
    for c in range(1, 5):
        names += [f"t{c}{i}" for i in range(1, 5)]
        names += [f"tb{c}{i}" for i in range(1, 5)]
    g = VariableGrouping.from_sizes([4] * 10, names)
    v = _vars(g)
    u = v[0:4]
    ub = v[4:8]
    u0 = -(u[0] + u[1] + u[3])
    ub0 = -(ub[0] + ub[1] + ub[3])
    v4 = -(u[0] + u[2] + 1)
    vb4 = -(ub[0] + ub[2] + 1)
    polys = []
    for c in range(4):
        t = v[8 + 8 * c: 12 + 8 * c]
        tb = v[12 + 8 * c: 16 + 8 * c]
        for i in range(4):
            polys.append(t[i] * tb[i] - 1)
        polys.append(u0 + u[0] * t[0] + u[1] * t[1] + u[3] * t[3])
        polys.append(ub0 + ub[0] * tb[0] + ub[1] * tb[1] + ub[3] * tb[3])
        polys.append(1 + u[0] * t[0] + u[2] * t[2] + v4 * t[3])
        polys.append(1 + ub[0] * tb[0] + ub[2] * tb[2] + vb4 * tb[3])
    key = (2, 2, 1, 0, 1, 0, 1, 0, 1, 0)
    return Fixture("pentad", PolySystem(polys), [key],
                   extra={"witness_count": 14828, "split": (14144, 678, 6)})


_FIXTURES = {
    "cubic": plane_cubic,
    "cubic-split": plane_cubic_split,
    "two-lines": two_lines,
    "octahedron-fg": octahedron_fg,
    "octahedron-fh": octahedron_fh,
    "richardson": richardson,
    "richardson-four": richardson_four,
    "hyperboloid": hyperboloid,
    "point-times-surface": point_times_surface,
    "affine-lines-cube": affine_lines_cube,
    "pentad": pentad,
}


def get_fixture(name: str) -> Fixture:
    try:
        build = _FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(_FIXTURES))}"
        ) from None
    return build()
