"""Sparse-tier CSR pricing against the blocked ``reduceat`` oracle.

:class:`SparseAllToAllPricer` prices a layer stack with one CSR product
per hosted-destination set; ``tests/oracles/sparse_reduce.py`` keeps the
segmented ``np.add.reduceat`` reduction it replaced, rebuilt from the same
per-destination rows.  Seeded random stacks pin volumes and durations
together across migration sequences, zero-demand cells, all-zero layers,
more layers per gather than the oracle's block size, layers split across
several gathers, and a hosted set with no off-device entries.
"""

import numpy as np
import pytest

from oracles.sparse_reduce import (
    LAYER_BLOCK,
    reduceat_durations,
    reduceat_reduce,
)
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import ExpertPlacement
from repro.network.alltoall import SparseAllToAllPricer, uniform_demand
from repro.topology.mesh import MeshTopology

TIGHT = dict(rtol=1e-12, atol=0.0)
NUM_EXPERTS = 16
NUM_DEVICES = 16


@pytest.fixture
def mapping():
    return ERMapping(
        MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    )


def migrate(placements, rng, count):
    """Apply ``count`` random replica adds/drops across the stack."""
    applied = 0
    while applied < count:
        placement = placements[int(rng.integers(len(placements)))]
        expert = int(rng.integers(placement.num_experts))
        device = int(rng.integers(placement.num_devices))
        try:
            if rng.random() < 0.7 or len(placement.replicas(expert)) <= 1:
                placement.add_replica(expert, device)
            else:
                placement.drop_replica(expert, placement.replicas(expert)[-1])
        except ValueError:
            continue
        applied += 1


def random_demand(rng, num_layers, num_groups, zero_fraction):
    """A ``(layers, groups, experts)`` byte-demand stack with zero cells."""
    shape = (num_layers, num_groups, NUM_EXPERTS)
    demand = rng.uniform(1.0, 500.0, size=shape)
    demand[rng.random(demand.shape) < zero_fraction] = 0.0
    return demand


def assert_matches_oracle(pricer, demand, states):
    volumes = pricer.link_volumes(demand, states)
    expected_volumes, _ = reduceat_reduce(pricer, demand, states)
    np.testing.assert_allclose(volumes, expected_volumes, **TIGHT)
    np.testing.assert_allclose(
        pricer.durations(demand, states),
        reduceat_durations(pricer, demand, states),
        **TIGHT,
    )


class TestCsrAgainstReduceatOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_migration_sequences(self, mapping, seed):
        rng = np.random.default_rng(seed)
        placements = [
            ExpertPlacement(NUM_EXPERTS, NUM_DEVICES, shadow_slots=2)
            for _ in range(6)
        ]
        pricer = SparseAllToAllPricer(mapping)
        for _ in range(4):
            migrate(placements, rng, count=int(rng.integers(1, 6)))
            states = [pricer.state_for(p) for p in placements]
            demand = random_demand(rng, len(states), 4, zero_fraction=0.2)
            assert_matches_oracle(pricer, demand, states)
            assert_matches_oracle(pricer, demand[0], states)

    @pytest.mark.parametrize("seed", range(3))
    def test_zero_demand_cells(self, mapping, seed):
        rng = np.random.default_rng(100 + seed)
        placements = [
            ExpertPlacement(NUM_EXPERTS, NUM_DEVICES) for _ in range(3)
        ]
        migrate(placements, rng, count=4)
        pricer = SparseAllToAllPricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        for zero_fraction in (0.0, 0.5, 0.95):
            demand = random_demand(rng, len(states), 4, zero_fraction)
            assert_matches_oracle(pricer, demand, states)

    def test_all_zero_layer(self, mapping):
        rng = np.random.default_rng(7)
        placements = [
            ExpertPlacement(NUM_EXPERTS, NUM_DEVICES) for _ in range(4)
        ]
        migrate(placements, rng, count=3)
        pricer = SparseAllToAllPricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        demand = random_demand(rng, len(states), 4, zero_fraction=0.1)
        demand[2] = 0.0
        assert_matches_oracle(pricer, demand, states)
        volumes = pricer.link_volumes(demand, states)
        assert not volumes[2].any()
        assert not pricer.durations(demand, states)[2].any()

    @pytest.mark.parametrize("seed", range(2))
    def test_more_layers_than_a_block_share_one_gather(self, mapping, seed):
        rng = np.random.default_rng(200 + seed)
        num_layers = 2 * LAYER_BLOCK + 3
        placements = [
            ExpertPlacement(NUM_EXPERTS, NUM_DEVICES)
            for _ in range(num_layers)
        ]
        pricer = SparseAllToAllPricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        assert len({id(state.gather) for state in states}) == 1
        demand = random_demand(rng, num_layers, 4, zero_fraction=0.1)
        assert_matches_oracle(pricer, demand, states)
        dense = uniform_demand(4, NUM_EXPERTS, 64, 8, 100)
        assert_matches_oracle(pricer, dense, states)

    def test_layers_split_across_gathers(self, mapping):
        """Fewer experts than devices leaves hosted subsets, so replica
        adds onto unhosted devices split the stack across gathers."""
        rng = np.random.default_rng(11)
        placements = [
            ExpertPlacement(8, NUM_DEVICES, shadow_slots=2) for _ in range(12)
        ]
        placements[1].add_replica(2, 13)
        placements[4].add_replica(5, 14)
        placements[4].add_replica(6, 15)
        placements[9].add_replica(2, 13)
        pricer = SparseAllToAllPricer(mapping)
        states = [pricer.state_for(p) for p in placements]
        assert len({id(state.gather) for state in states}) == 3
        demand = rng.uniform(1.0, 500.0, size=(len(states), 4, 8))
        demand[rng.random(demand.shape) < 0.3] = 0.0
        assert_matches_oracle(pricer, demand, states)
        assert_matches_oracle(pricer, demand[3], states)

    def test_hosted_set_without_off_device_entries(self):
        """With one data-parallel group spanning the wafer every
        destination holds its own tokens: the operator has no entries
        and every layer prices to zero, exactly like the oracle."""
        mapping = ERMapping(
            MeshTopology(4, 4),
            ParallelismConfig(tp=16, dp=1, tp_shape=(4, 4)),
        )
        pricer = SparseAllToAllPricer(mapping)
        placements = [
            ExpertPlacement(NUM_EXPERTS, NUM_DEVICES) for _ in range(3)
        ]
        states = [pricer.state_for(p) for p in placements]
        assert states[0].gather.operator.nnz == 0
        rng = np.random.default_rng(3)
        demand = random_demand(rng, 3, 1, zero_fraction=0.3)
        assert_matches_oracle(pricer, demand, states)
        assert not pricer.link_volumes(demand, states).any()
        assert not pricer.durations(demand, states).any()
