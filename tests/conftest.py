import os

import numpy as np
import pytest

from multiwit import Polynomial, RandomSource
from multiwit.startsys import RESIDUAL_TOL

SEED = 20230529

# Long-running optional checks are opt-in via environment flags:
#   MULTIWIT_EXTENDED=1   enables the multi-minute optional checks
#   MULTIWIT_PENTAD=1     enables the multi-hour pentad count
extended = pytest.mark.skipif(
    os.environ.get("MULTIWIT_EXTENDED") != "1",
    reason="set MULTIWIT_EXTENDED=1 to run the long optional checks",
)
pentad_gate = pytest.mark.skipif(
    os.environ.get("MULTIWIT_PENTAD") != "1",
    reason="set MULTIWIT_PENTAD=1 to run the multi-hour pentad count",
)


def rs(stream: int) -> RandomSource:
    return RandomSource(seed=SEED, stream=stream)


def on_its_slices(ws) -> bool:
    """Every point of the witness set satisfies the system, the extra forms
    and the slices to a relative residual below RESIDUAL_TOL."""
    full = ws.system.concat(list(ws.extra) + ws.selection.forms)
    return all(full.residual(p) < RESIDUAL_TOL for p in ws.points)


def evaluate(p: Polynomial, point) -> complex:
    """p at a point, term by term: the oracle the compiled kernel is
    checked against."""
    point = np.asarray(point, dtype=complex)
    return complex(sum(c * np.prod(point ** np.asarray(e)) for e, c in p.terms.items()))


def diff(p: Polynomial, v: int) -> Polynomial:
    """The partial derivative of p in x_v, term by term."""
    terms = {}
    for e, c in p.terms.items():
        if e[v] > 0:
            terms[e[:v] + (e[v] - 1,) + e[v + 1:]] = c * e[v]
    return Polynomial(p.grouping, terms)


def product(g, factors) -> Polynomial:
    """The product of affine forms given as rows (c_1, ..., c_n, c_0), each
    c.x + c_0, expanded term by term."""
    p = Polynomial.constant(g, 1.0)
    for row in factors:
        p = p * Polynomial.affine(g, row[:-1], row[-1])
    return p


def start_polys(sp, g) -> list:
    """The start rows of a start package, each the expanded product of its
    factors."""
    first = np.cumsum(sp.counts) - sp.counts
    return [product(g, sp.factors[f:f + c]) for f, c in zip(first, sp.counts)]
