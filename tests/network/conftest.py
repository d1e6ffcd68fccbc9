"""Fixtures shared by the network tests."""

import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.models import QWEN3_235B
from repro.systems import build_multi_wsc, build_wsc
from repro.topology.mesh import MeshTopology


def _er_4x4():
    return ERMapping(
        MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    )


def _wsc_6x6(family: str, tp: int):
    return lambda: build_wsc(QWEN3_235B, side=6, tp=tp, mapping=family).mapping


def _her_3x4x4(retain_allgather: bool):
    return lambda: build_multi_wsc(
        QWEN3_235B, 3, 4, tp=4, mapping="her", retain_allgather=retain_allgather
    ).mapping


#: A 4x4 wafer with four groups plus non-power-of-two group counts: dp=3
#: (tp=12) and dp=9 (tp=4) on a 6x6 wafer, under both mesh mapping
#: families, and dp=12 on three 4x4 HER wafers, whose holder rows repeat
#: across wafers, with and without the all-gather.
EQUIVALENCE_SYSTEMS = {
    "er-4x4-dp4": _er_4x4,
    "er-6x6-dp3": _wsc_6x6("er", 12),
    "baseline-6x6-dp3": _wsc_6x6("baseline", 12),
    "er-6x6-dp9": _wsc_6x6("er", 4),
    "baseline-6x6-dp9": _wsc_6x6("baseline", 4),
    "her-3x(4x4)-dp12": _her_3x4x4(True),
    "her-3x(4x4)-dp12-no-allgather": _her_3x4x4(False),
}


@pytest.fixture(params=list(EQUIVALENCE_SYSTEMS))
def equivalence_mapping(request):
    """A mapping for the pricer equivalence tests, one per system."""
    return EQUIVALENCE_SYSTEMS[request.param]()
