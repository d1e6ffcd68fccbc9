"""Destination-column operator builds against the holder-by-holder oracle.

Both all-to-all pricers build their ``(group, dest) -> link`` entries one
destination column at a time from a batched route lookup.
``tests/oracles/dest_column.py`` keeps the scalar loops they replaced:
every cell walks its holder list and adds each holder pair's route row
into a scratch vector.  The batched columns must equal them bitwise — the
sparse tier's ``_SparseDestRows`` and the dense tier's ``operator`` and
``cell_latency`` — on ER, baseline and HER mappings.  A guard test
builds and prices every column with mesh ``route()`` disabled, so the
pricers can never fall back to per-pair route walks, and another counts
the pairs a HER column routes, so repeated holder rows are never routed
twice.
"""

import numpy as np
import pytest

from oracles.dest_column import scalar_dense_operator, scalar_dest_rows
from repro.mapping.placement import ExpertPlacement
from repro.models import QWEN3_235B
from repro.network import alltoall
from repro.network.alltoall import (
    LayeredAllToAllPricer,
    SparseAllToAllPricer,
    uniform_demand,
)
from repro.network.phase import route_rows
from repro.systems import build_multi_wsc, build_wsc
from repro.topology.mesh import MeshTopology

SYSTEMS = {
    "er-8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="er"),
    "baseline-6x6-dp3": lambda: build_wsc(
        QWEN3_235B, side=6, tp=12, mapping="baseline"
    ),
    "er-6x6-dp9": lambda: build_wsc(QWEN3_235B, side=6, tp=4, mapping="er"),
    "her-2x(4x4)": lambda: build_multi_wsc(QWEN3_235B, 2, 4, tp=4, mapping="her"),
    "her-3x(2x2)-no-allgather": lambda: build_multi_wsc(
        QWEN3_235B, 3, 2, tp=2, mapping="her", retain_allgather=False
    ),
    # dp=12: a group count that is not a power of two, with each holder
    # row repeated on all three wafers.
    "her-3x(4x4)-dp12": lambda: build_multi_wsc(
        QWEN3_235B, 3, 4, tp=4, mapping="her"
    ),
    "her-3x(4x4)-dp12-no-allgather": lambda: build_multi_wsc(
        QWEN3_235B, 3, 4, tp=4, mapping="her", retain_allgather=False
    ),
}


@pytest.fixture(params=sorted(SYSTEMS))
def mapping(request):
    return SYSTEMS[request.param]().mapping


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestColumnsMatchScalarOracle:
    def test_sparse_dest_rows(self, mapping):
        pricer = SparseAllToAllPricer(mapping)
        for dest in mapping.topology.devices:
            rows = pricer._rows_for(dest)
            got = (rows.link_idx, rows.weight, rows.group, rows.latency)
            for got_part, want_part in zip(got, scalar_dest_rows(mapping, dest)):
                _assert_bitwise(got_part, want_part)

    def test_dense_operator(self, mapping):
        pricer = LayeredAllToAllPricer(mapping)
        operator, cell_latency = scalar_dense_operator(mapping)
        _assert_bitwise(pricer.operator, operator)
        _assert_bitwise(pricer.cell_latency, cell_latency)


class TestDistinctWorkOnly:
    @pytest.mark.parametrize(
        "wafers, side, tp", [(3, 4, 4), (4, 16, 16)], ids=["3x(4x4)", "4x(16x16)"]
    )
    def test_each_distinct_remote_holder_is_routed_once(
        self, monkeypatch, wafers, side, tp
    ):
        """A HER column routes one dispatch and one combine pair per
        distinct remote holder, not one per (group, holder) pair: groups
        at the same local coordinate of different wafers share their
        holder row, so it is built once."""
        mapping = build_multi_wsc(QWEN3_235B, wafers, side, tp=tp, mapping="her").mapping
        table = mapping.token_holder_table()
        calls = []

        def counting(topology, src, dst):
            calls.append((src.copy(), dst.copy()))
            return route_rows(topology, src, dst)

        monkeypatch.setattr(alltoall, "route_rows", counting)
        dest = mapping.topology.num_devices - 1
        alltoall._dest_column(mapping.topology, table, dest)

        cells = np.arange(mapping.dp) * table.num_devices + dest
        column = np.concatenate(
            [
                table.holders[table.offsets[cell] : table.offsets[cell + 1]]
                for cell in cells
            ]
        )
        remote = column[column != dest]
        distinct = np.unique(remote)
        assert remote.size == wafers * distinct.size  # the repetition to skip
        assert len(calls) == 1
        src, dst = calls[0]
        dispatch, combine = np.split(np.stack((src, dst)), 2, axis=1)
        assert dispatch.shape[1] == distinct.size
        np.testing.assert_array_equal(np.sort(dispatch[0]), distinct)
        assert (dispatch[1] == dest).all()
        np.testing.assert_array_equal(combine, dispatch[::-1])


class TestNoPerPairRouteWalks:
    def test_pricers_build_and_price_without_route(self, monkeypatch):
        """Every destination column of both tiers builds, and prices a
        layer stack, without a single mesh ``route()`` call."""
        mapping = build_multi_wsc(QWEN3_235B, 2, 4, tp=4, mapping="her").mapping
        mapping.token_holder_table()

        def no_walks(self, src, dst):
            raise AssertionError(f"per-pair route walk {src}->{dst}")

        monkeypatch.setattr(MeshTopology, "route", no_walks)
        monkeypatch.setattr(MeshTopology, "route_alternate", no_walks)
        devices = mapping.topology.num_devices
        sparse = SparseAllToAllPricer(mapping)
        for dest in range(devices):
            sparse._rows_for(dest)
        assert sparse.dest_row_builds == devices
        dense = LayeredAllToAllPricer(mapping)
        placements = [ExpertPlacement(devices, devices) for _ in range(3)]
        placements[1].add_replica(0, devices - 1)
        demand = uniform_demand(mapping.dp, devices, 256, 8, 100)
        sparse_durations = sparse.durations(
            demand, [sparse.state_for(p) for p in placements]
        )
        dense_durations = dense.durations(
            demand, np.stack([p.destination_shares for p in placements])
        )
        assert (sparse_durations > 0).all()
        np.testing.assert_allclose(
            sparse_durations, dense_durations, rtol=1e-12, atol=0.0
        )
