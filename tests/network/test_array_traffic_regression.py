"""Regression tests: the array-native traffic pipeline vs the loop oracle.

PR 2 replaced the callback-per-entry dispatch builder with a cached
:class:`~repro.network.alltoall.DispatchPlan` (demand gather x destination
shares x holder-table fractions, aggregated with one bincount) and made
``simulate_phase`` price the resulting :class:`ArrayTrafficMatrix` through
a CSR route table.  The seed per-entry builder survives as
``loop_dispatch_traffic``; these tests pin the two paths together —
bit-identical pair volumes and phase durations — across all four mapping
families, placements with replicas, and mid-run migrations (placement
version invalidation).
"""

import numpy as np
import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.gpu import GPUMapping
from repro.mapping.her import HierarchicalERMapping
from repro.mapping.placement import ExpertPlacement
from repro.network.alltoall import (
    build_dispatch_traffic,
    dispatch_plan,
    loop_dispatch_traffic,
    reverse_traffic,
    simulate_alltoall,
)
from repro.network.phase import migration_route_arrays, simulate_phase
from repro.network.traffic import ArrayTrafficMatrix
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology

NUM_EXPERTS = 32


def _mappings():
    mesh = MeshTopology(4, 4)
    wafers = MultiWaferTopology(2, 4, 4)
    dgx = DGXClusterTopology(num_nodes=2)
    return {
        "baseline": BaselineMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))),
        "er": ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))),
        "her": HierarchicalERMapping(
            wafers, ParallelismConfig(tp=4, dp=8, tp_shape=(2, 2))
        ),
        "gpu": GPUMapping(dgx, ParallelismConfig(tp=8, dp=2)),
    }


MAPPINGS = _mappings()


def random_demand(rng, num_groups, sparsity=0.0):
    demand = rng.uniform(0.0, 1000.0, (num_groups, NUM_EXPERTS))
    if sparsity > 0:
        demand *= rng.random(demand.shape) >= sparsity
    return demand


def randomly_replicated(rng, mapping, shadow_slots=2, replicas=6):
    placement = ExpertPlacement(
        NUM_EXPERTS, mapping.topology.num_devices, shadow_slots=shadow_slots
    )
    added = 0
    while added < replicas:
        expert = int(rng.integers(NUM_EXPERTS))
        device = int(rng.integers(placement.num_devices))
        if not placement.hosts(device, expert) and placement.shadow_free(device) > 0:
            placement.add_replica(expert, device)
            added += 1
    return placement


def assert_matches_oracle(demand, placement, mapping):
    array_traffic = build_dispatch_traffic(demand, placement, mapping)
    oracle = loop_dispatch_traffic(
        demand, placement.destinations, mapping.token_holders
    )
    # Bit-identical aggregation *and* pair order: the plan walks (cell,
    # destination, holder) terms in the loop's order and numbers pairs by
    # first touch among active entries, i.e. the dict insertion order.
    assert list(array_traffic.items()) == list(oracle.items())

    combine = array_traffic.transposed()
    assert list(combine.items()) == list(reverse_traffic(oracle).items())

    topology = mapping.topology
    for ours, theirs in ((array_traffic, oracle), (combine, reverse_traffic(oracle))):
        new_phase = simulate_phase(topology, ours)
        old_phase = simulate_phase(topology, theirs)
        assert new_phase.duration == old_phase.duration
        assert new_phase.serialization_time == old_phase.serialization_time
        assert new_phase.latency_time == old_phase.latency_time
        assert new_phase.link_bytes == old_phase.link_bytes
        assert new_phase.total_volume == pytest.approx(
            old_phase.total_volume, rel=1e-12
        )


@pytest.mark.parametrize("family", sorted(MAPPINGS))
@pytest.mark.parametrize("seed", range(3))
class TestDispatchOracle:
    def test_native_placement_matches_loop(self, family, seed):
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(seed)
        placement = ExpertPlacement(NUM_EXPERTS, mapping.topology.num_devices)
        assert_matches_oracle(random_demand(rng, mapping.dp), placement, mapping)

    def test_replicated_placement_matches_loop(self, family, seed):
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(100 + seed)
        placement = randomly_replicated(rng, mapping)
        assert_matches_oracle(random_demand(rng, mapping.dp), placement, mapping)

    def test_sparse_demand_matches_loop(self, family, seed):
        """Zero demand cells change the oracle's pair insertion order —
        the plan must track it, including the downstream phase pricing."""
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(200 + seed)
        placement = randomly_replicated(rng, mapping)
        demand = random_demand(rng, mapping.dp, sparsity=0.5)
        assert_matches_oracle(demand, placement, mapping)

    def test_single_hot_cell_matches_loop(self, family, seed):
        """The extreme sparse case: one active (group, expert) cell."""
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(300 + seed)
        placement = randomly_replicated(rng, mapping)
        demand = np.zeros((mapping.dp, NUM_EXPERTS))
        demand[
            int(rng.integers(mapping.dp)), int(rng.integers(NUM_EXPERTS))
        ] = 1234.5
        assert_matches_oracle(demand, placement, mapping)


class TestPlanInvalidation:
    def test_mid_run_migration_invalidates_plan(self):
        mapping = MAPPINGS["er"]
        rng = np.random.default_rng(7)
        placement = ExpertPlacement(
            NUM_EXPERTS, mapping.topology.num_devices, shadow_slots=2
        )
        demand = random_demand(rng, mapping.dp)
        assert_matches_oracle(demand, placement, mapping)
        before = dispatch_plan(mapping, placement)
        assert dispatch_plan(mapping, placement) is before  # stable while unchanged

        # Migration commit: replicate then later drop — each bumps the
        # version and must rebuild the plan against the new destinations.
        placement.add_replica(0, placement.num_devices - 1)
        after_add = dispatch_plan(mapping, placement)
        assert after_add is not before
        assert_matches_oracle(demand, placement, mapping)

        placement.drop_replica(0, placement.num_devices - 1)
        after_drop = dispatch_plan(mapping, placement)
        assert after_drop is not after_add
        assert_matches_oracle(demand, placement, mapping)

    def test_version_counts_mutations(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        assert placement.version == 0
        placement.add_replica(0, 3)
        placement.add_replica(1, 2)
        assert placement.version == 2
        placement.reset_shadows()
        assert placement.version == 4

    def test_destination_shares_track_replicas(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 3)
        shares = placement.destination_shares
        np.testing.assert_array_equal(
            np.nonzero(shares[0])[0], sorted(placement.replicas(0))
        )
        assert shares[0, 0] == shares[0, 3] == 0.5
        assert shares[1].sum() == 1.0
        with pytest.raises(ValueError):
            placement.destination_shares[0, 0] = 1.0

    def test_per_mapping_plans_coexist(self):
        placement = ExpertPlacement(NUM_EXPERTS, 16)
        er_plan = dispatch_plan(MAPPINGS["er"], placement)
        baseline_plan = dispatch_plan(MAPPINGS["baseline"], placement)
        assert er_plan is not baseline_plan
        assert dispatch_plan(MAPPINGS["er"], placement) is er_plan
        assert dispatch_plan(MAPPINGS["baseline"], placement) is baseline_plan


class TestArrayTrafficMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="self-flows"):
            ArrayTrafficMatrix([0], [0], [1.0])
        with pytest.raises(ValueError, match=">= 0"):
            ArrayTrafficMatrix([0], [1], [-1.0])
        with pytest.raises(ValueError, match="share a shape"):
            ArrayTrafficMatrix([0, 1], [1], [1.0])

    def test_transpose_and_scale(self):
        traffic = ArrayTrafficMatrix([0, 2], [1, 3], [5.0, 7.0])
        assert dict(traffic.transposed().items()) == {(1, 0): 5.0, (3, 2): 7.0}
        assert dict(traffic.scaled(2.0).items()) == {(0, 1): 10.0, (2, 3): 14.0}
        assert traffic.total_volume == 12.0
        assert len(traffic) == 2 and bool(traffic)

    def test_scale_by_zero_drops_pairs(self):
        """Matches TrafficMatrix semantics: zero volumes vanish, so a
        zeroed matrix prices to a zero-duration phase (no latency term)."""
        traffic = ArrayTrafficMatrix([0, 2], [1, 3], [5.0, 7.0])
        zeroed = traffic.scaled(0.0)
        assert len(zeroed) == 0 and not zeroed
        assert simulate_phase(MeshTopology(2, 2), zeroed).duration == 0.0

    def test_empty_traffic_prices_to_zero(self):
        mesh = MeshTopology(2, 2)
        result = simulate_phase(
            mesh, ArrayTrafficMatrix(np.empty(0), np.empty(0), np.empty(0))
        )
        assert result.duration == 0.0

    def test_store_and_forward_accepts_arrays(self):
        mesh = MeshTopology(2, 2)
        traffic = ArrayTrafficMatrix([0, 1], [3, 2], [100.0, 50.0])
        swf = simulate_phase(mesh, traffic, store_and_forward=True)
        reference = simulate_phase(mesh, traffic.flows(), store_and_forward=True)
        assert swf.duration == reference.duration


class TestHolderTable:
    @pytest.mark.parametrize("family", sorted(MAPPINGS))
    def test_table_mirrors_token_holders(self, family):
        mapping = MAPPINGS[family]
        table = mapping.token_holder_table()
        assert mapping.token_holder_table() is table  # built once
        num_devices = mapping.topology.num_devices
        for group in range(mapping.dp):
            for dest in range(num_devices):
                assert list(table.entries(group, dest)) == list(
                    mapping.token_holders(group, dest)
                )
        # CSR arrays agree with the nested rows.
        flat = [
            entry
            for group in range(mapping.dp)
            for dest in range(num_devices)
            for entry in table.entries(group, dest)
        ]
        np.testing.assert_array_equal(table.holders, [h for h, _ in flat])
        np.testing.assert_array_equal(table.fractions, [f for _, f in flat])

    @pytest.mark.parametrize("retain_allgather", [True, False])
    @pytest.mark.parametrize("num_wafers", [1, 3, 4])
    def test_her_array_table_matches_per_cell_rows(
        self, num_wafers, retain_allgather
    ):
        """HER's table comes from one (group, wafer) mirror array; its CSR
        arrays must be byte-identical to the per-cell ``token_holders``
        rows."""
        mapping = HierarchicalERMapping(
            MultiWaferTopology(num_wafers, 4, 4),
            ParallelismConfig(tp=4, dp=4 * num_wafers, tp_shape=(2, 2)),
            retain_allgather=retain_allgather,
        )
        table = mapping.token_holder_table()
        num_devices = mapping.topology.num_devices
        rows = [
            mapping.token_holders(group, dest)
            for group in range(mapping.dp)
            for dest in range(num_devices)
        ]
        offsets = np.concatenate(([0], np.cumsum([len(row) for row in rows])))
        holders = np.array([h for row in rows for h, _ in row], dtype=np.intp)
        fractions = np.array([f for row in rows for _, f in row])
        for got, want in (
            (table.offsets, offsets.astype(np.intp)),
            (table.holders, holders),
            (table.fractions, fractions),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestMigrationPricingCache:
    @pytest.mark.parametrize(
        "topology", [MeshTopology(4, 4), DGXClusterTopology(num_nodes=2)]
    )
    def test_matches_route_walk(self, topology):
        volume = 3.5e8
        for src in range(topology.num_devices):
            for dst in range(topology.num_devices):
                if src == dst:
                    continue
                bandwidths, latencies = migration_route_arrays(topology, src, dst)
                cached = float(np.cumsum(volume / bandwidths + latencies)[-1])
                walked = sum(
                    volume / link.bandwidth + link.latency
                    for link in topology.route(src, dst)
                )
                assert cached == walked
