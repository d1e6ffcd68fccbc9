"""Fixtures shared by the network tests."""

import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.topology.mesh import MeshTopology


def _er_4x4():
    return ERMapping(
        MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    )


def _wsc_6x6(family: str, tp: int):
    return lambda: build_wsc(QWEN3_235B, side=6, tp=tp, mapping=family).mapping


#: A 4x4 wafer with four groups plus non-power-of-two group counts: dp=3
#: (tp=12) and dp=9 (tp=4) on a 6x6 wafer, under both mesh mapping
#: families.
EQUIVALENCE_SYSTEMS = {
    "er-4x4-dp4": _er_4x4,
    "er-6x6-dp3": _wsc_6x6("er", 12),
    "baseline-6x6-dp3": _wsc_6x6("baseline", 12),
    "er-6x6-dp9": _wsc_6x6("er", 4),
    "baseline-6x6-dp9": _wsc_6x6("baseline", 4),
}


@pytest.fixture(params=list(EQUIVALENCE_SYSTEMS))
def equivalence_mapping(request):
    """A mapping for the pricer equivalence tests, one per system."""
    return EQUIVALENCE_SYSTEMS[request.param]()
