import os

import pytest

from multiwit import RandomSource

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
