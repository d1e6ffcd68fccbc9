"""Layer-batched all-to-all pricing against the per-layer oracle.

The :class:`LayeredAllToAllPricer` aggregates per-link volumes through
dense ``(group, dest) -> link`` operators — the same terms the per-layer
:class:`DispatchPlan` + :func:`simulate_phase` pipeline sums, in a
different associative order — so traffic tensors and phase durations are
pinned to the exact path with tight relative tolerances, per phase and
for every layer including layer 0, while the structural guarantees
(layers of one content group share one priced row under shared demand,
per-layer demand never collapses layers) are asserted bitwise.
"""

import gc

import numpy as np
import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import ExpertPlacement
from repro.network.alltoall import (
    _LAYERED_PLAN_CACHE,
    LayeredDispatchPlan,
    alltoall_pricer,
    dispatch_plan,
    layered_dispatch_plan,
    simulate_alltoall,
    uniform_demand,
)
from repro.topology.mesh import MeshTopology

TIGHT = dict(rtol=1e-12, atol=0.0)


@pytest.fixture
def mapping():
    return ERMapping(
        MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    )


def diverged_placements(num_layers=5, num_experts=16, num_devices=16):
    """A placement stack with layers 2 and 4 mutated away from native."""
    placements = [
        ExpertPlacement(num_experts, num_devices, shadow_slots=2)
        for _ in range(num_layers)
    ]
    placements[2].add_replica(0, 15)
    placements[2].add_replica(5, 9)
    placements[4].add_replica(3, 12)
    return placements


def dense_traffic_oracle(mapping, demand, placement):
    """Per-layer DispatchPlan traffic scattered into a dense matrix."""
    traffic = dispatch_plan(mapping, placement).traffic(demand)
    dense = np.zeros((placement.num_devices, placement.num_devices))
    dense[traffic.src, traffic.dst] = traffic.volume
    return dense


def shares_stack(placements):
    return np.stack([p.destination_shares for p in placements])


def exact_phases(mapping, demand, placement):
    """(dispatch, combine) durations of the per-flow simulation."""
    result = simulate_alltoall(mapping.topology, demand, placement, mapping)
    return np.array([result.dispatch.duration, result.combine.duration])


class TestPricerAgainstPerLayerOracle:
    def test_traffic_tensor_matches_dispatch_plans(self, mapping):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        tensor = alltoall_pricer(mapping).traffic_tensor(
            demand, shares_stack(placements)
        )
        for layer, placement in enumerate(placements):
            np.testing.assert_allclose(
                tensor[layer], dense_traffic_oracle(mapping, demand, placement),
                **TIGHT,
            )

    def test_traffic_tensor_sparse_demand(self, mapping):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        demand[1, :] = 0.0
        demand[:, 7] = 0.0
        tensor = alltoall_pricer(mapping).traffic_tensor(
            demand, shares_stack(placements)
        )
        for layer, placement in enumerate(placements):
            np.testing.assert_allclose(
                tensor[layer], dense_traffic_oracle(mapping, demand, placement),
                **TIGHT,
            )

    def test_link_volumes_match_phase_oracle(self, mapping):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        pricer = alltoall_pricer(mapping)
        _cells, volumes = pricer.link_volumes(demand, shares_stack(placements))
        keys = list(mapping.topology.links)
        for layer, placement in enumerate(placements):
            result = simulate_alltoall(mapping.topology, demand, placement, mapping)
            for phase, phase_result in enumerate((result.dispatch, result.combine)):
                expected = np.zeros(len(keys))
                for position, key in enumerate(keys):
                    expected[position] = phase_result.link_bytes.get(key, 0.0)
                np.testing.assert_allclose(
                    volumes[layer, phase], expected, rtol=1e-12, atol=1e-9
                )

    @pytest.mark.parametrize("sparse", [False, True])
    def test_durations_match_per_layer_simulation(
        self, equivalence_mapping, sparse
    ):
        mapping = equivalence_mapping
        devices = mapping.topology.num_devices
        placements = diverged_placements(num_experts=devices, num_devices=devices)
        demand = uniform_demand(mapping.dp, devices, 256, 8, 100)
        if sparse:
            demand[0, 3] = 0.0
            demand[2, :8] = 0.0
        durations = alltoall_pricer(mapping).durations(
            demand, shares_stack(placements)
        )
        assert durations.shape == (len(placements), 2)
        for layer, placement in enumerate(placements):
            np.testing.assert_allclose(
                durations[layer], exact_phases(mapping, demand, placement),
                **TIGHT,
            )

    def test_dense_latencies_precompute_matches(self, mapping):
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        pricer = alltoall_pricer(mapping)
        shares = shares_stack(placements)
        fresh = pricer.durations(demand, shares)
        cached = pricer.durations(
            demand, shares, pricer.dense_demand_latencies(shares)
        )
        np.testing.assert_array_equal(fresh, cached)


class TestLayeredPlan:
    def test_uniform_stack_broadcasts_layer0_verbatim(self, mapping):
        placements = [ExpertPlacement(16, 16) for _ in range(4)]
        plan = LayeredDispatchPlan(mapping, placements)
        assert plan.uniform
        demand = uniform_demand(4, 16, 256, 8, 100)
        durations = plan.alltoall_durations(demand)
        assert durations.shape == (4, 2)
        assert durations.tolist() == [durations[0].tolist()] * 4
        np.testing.assert_allclose(
            durations[0], exact_phases(mapping, demand, placements[0]), **TIGHT
        )

    def test_groups_split_on_divergence(self, mapping):
        placements = diverged_placements()
        plan = LayeredDispatchPlan(mapping, placements)
        assert not plan.uniform
        assert plan.num_groups == 3
        # Layers 0, 1, 3 still share layer 0's content group.
        assert plan.group_index.tolist() == [0, 0, 1, 0, 2]
        demand = uniform_demand(4, 16, 256, 8, 100)
        durations = plan.alltoall_durations(demand)
        # Layer 0's group shares one row, priced like the per-flow oracle.
        np.testing.assert_array_equal(durations[1], durations[0])
        np.testing.assert_array_equal(durations[3], durations[0])
        np.testing.assert_allclose(
            durations[0], exact_phases(mapping, demand, placements[0]), **TIGHT
        )
        # Diverged layers price against their own placements.
        for layer in (2, 4):
            assert durations[layer].sum() != durations[0].sum()
            np.testing.assert_allclose(
                durations[layer],
                exact_phases(mapping, demand, placements[layer]),
                **TIGHT,
            )

    def test_content_equal_layers_share_a_group(self, mapping):
        placements = [ExpertPlacement(16, 16, shadow_slots=2) for _ in range(4)]
        placements[1].add_replica(0, 15)
        placements[3].add_replica(0, 15)
        plan = LayeredDispatchPlan(mapping, placements)
        assert plan.num_groups == 2
        assert plan.group_index.tolist() == [0, 1, 0, 1]
        demand = uniform_demand(4, 16, 256, 8, 100)
        durations = plan.alltoall_durations(demand)
        np.testing.assert_array_equal(durations[1], durations[3])
        np.testing.assert_array_equal(durations[0], durations[2])
        for layer in (0, 1):
            np.testing.assert_allclose(
                durations[layer],
                exact_phases(mapping, demand, placements[layer]),
                **TIGHT,
            )


class TestResolvedDemand:
    """Per-layer demand rows through the batched pricer vs the exact
    per-layer simulation oracle."""

    @staticmethod
    def demand_stack(num_layers=5, seed=3, sparse=False):
        rng = np.random.default_rng(seed)
        base = uniform_demand(4, 16, 256, 8, 100)
        stack = base * rng.uniform(0.5, 1.5, size=(num_layers, 4, 16))
        if sparse:
            stack[1, 0, 3] = 0.0
            stack[3, 2, :8] = 0.0
        return stack

    @pytest.mark.parametrize("sparse", [False, True])
    def test_durations_match_per_layer_oracle(self, mapping, sparse):
        placements = diverged_placements()
        demand = self.demand_stack(sparse=sparse)
        plan = LayeredDispatchPlan(mapping, placements)
        durations = plan.alltoall_durations_resolved(demand)
        assert durations.shape == (len(placements), 2)
        for layer, placement in enumerate(placements):
            np.testing.assert_allclose(
                durations[layer],
                exact_phases(mapping, demand[layer], placement),
                **TIGHT,
            )

    def test_uniform_stack_still_resolves_demand(self, mapping):
        """Unlike the broadcast path, identical placement content must NOT
        collapse layers — each layer's own demand rows set its price."""
        placements = [ExpertPlacement(16, 16) for _ in range(4)]
        plan = LayeredDispatchPlan(mapping, placements)
        assert plan.uniform
        demand = self.demand_stack(num_layers=4)
        durations = plan.alltoall_durations_resolved(demand)
        for layer in range(4):
            np.testing.assert_allclose(
                durations[layer],
                exact_phases(mapping, demand[layer], placements[layer]),
                **TIGHT,
            )
        assert len(set(durations.sum(axis=1).tolist())) > 1

    def test_forced_later_layer_demand_skew_changes_only_that_layer(
        self, mapping
    ):
        """The satellite contract: skewing layer 3's demand strictly moves
        layer 3's price and no other layer's."""
        placements = diverged_placements()
        plan = LayeredDispatchPlan(mapping, placements)
        demand = self.demand_stack()
        skewed = demand.copy()
        # Concentrate layer 3's demand onto two experts, holding the
        # total volume fixed.
        skewed[3] = 0.0
        skewed[3, :, 0] = demand[3].sum(axis=1) * 0.75
        skewed[3, :, 9] = demand[3].sum(axis=1) * 0.25
        base = plan.alltoall_durations_resolved(demand)
        moved = plan.alltoall_durations_resolved(skewed)
        assert moved[3].sum() != base[3].sum()
        mask = np.arange(len(placements)) != 3
        np.testing.assert_array_equal(moved[mask], base[mask])

    def test_pricer_link_volumes_accept_demand_stack(self, mapping):
        placements = diverged_placements()
        demand = self.demand_stack()
        pricer = alltoall_pricer(mapping)
        _cells, batched = pricer.link_volumes(demand, shares_stack(placements))
        for layer, placement in enumerate(placements):
            _cells_l, single = pricer.link_volumes(
                demand[layer], shares_stack([placement])
            )
            np.testing.assert_allclose(batched[layer], single[0], **TIGHT)

    def test_broadcast_demand_unchanged_by_resolved_machinery(self, mapping):
        """The demand-broadcast path must stay bitwise stable whether or
        not the resolved stack has been built on the same plan."""
        placements = diverged_placements()
        demand = uniform_demand(4, 16, 256, 8, 100)
        fresh = LayeredDispatchPlan(mapping, placements)
        reference = fresh.alltoall_durations(demand)
        warmed = LayeredDispatchPlan(mapping, placements)
        warmed.alltoall_durations_resolved(self.demand_stack())
        np.testing.assert_array_equal(
            warmed.alltoall_durations(demand), reference
        )
        # Group 0 (layers 0, 1, 3) against the per-flow oracle of layer 0.
        exact = exact_phases(mapping, demand, placements[0])
        for layer in (0, 1, 3):
            np.testing.assert_allclose(reference[layer], exact, **TIGHT)

    def test_stacked_share_view_matches_restacked(self, mapping):
        """A plan fed the stacked engine's (layers, experts, devices) share
        tensor prices bitwise like one that re-stacks per-layer views."""
        placements = diverged_placements()
        stacked_shares = shares_stack(placements)
        demand = self.demand_stack()
        via_view = LayeredDispatchPlan(
            mapping, placements, stacked_shares=stacked_shares
        )
        via_stack = LayeredDispatchPlan(mapping, placements)
        np.testing.assert_array_equal(
            via_view.alltoall_durations_resolved(demand),
            via_stack.alltoall_durations_resolved(demand),
        )


class TestLayeredPlanCache:
    def test_hit_until_any_layer_mutates(self, mapping):
        placements = diverged_placements()
        anchor = placements[0]
        plan = layered_dispatch_plan(mapping, anchor, placements)
        assert layered_dispatch_plan(mapping, anchor, placements) is plan
        placements[1].add_replica(2, 14)
        rebuilt = layered_dispatch_plan(mapping, anchor, placements)
        assert rebuilt is not plan
        assert not rebuilt.uniform

    def test_dead_mapping_entries_swept_on_insert(self):
        topology = MeshTopology(4, 4)
        parallelism = ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        placements = [ExpertPlacement(16, 16) for _ in range(2)]
        anchor = placements[0]
        dead = ERMapping(topology, parallelism)
        layered_dispatch_plan(dead, anchor, placements)
        assert len(_LAYERED_PLAN_CACHE[anchor]) == 1
        del dead
        gc.collect()
        live = ERMapping(topology, parallelism)
        layered_dispatch_plan(live, anchor, placements)
        entries = _LAYERED_PLAN_CACHE[anchor]
        assert len(entries) == 1
        assert next(iter(entries.values()))[0]() is live
