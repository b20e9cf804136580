import os

import pytest

from multiwit import RandomSource
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
