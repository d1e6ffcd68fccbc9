"""StackedBalancer against its oracle: one per-layer Balancer per layer.

The serving engine runs every sparse layer through one
:class:`~repro.balancer.stacked.StackedBalancer`.  Its contract is that it
takes the same decisions as a list of per-layer
:class:`~repro.balancer.base.Balancer` objects fed the same loads.  These
tests drive both sides with one recorded ``layer_loads`` stream and one
commit schedule — the serving loop's Eq. 2 trigger, beta cooldown,
evict-then-plan order, and either immediate commits (invasive strategies)
or commits deferred over later iterations (non-invasive draining) — and
assert bitwise agreement at every iteration: heats, imbalance sums,
evictions, plans, pending sets, replica sets and destination shares.
"""

import numpy as np
import pytest

from repro.balancer import (
    BalancerConfig,
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.balancer.stacked import STACKED_BALANCERS
from repro.engine import BalancingConfig
from repro.mapping.placement import ExpertPlacement, StackedPlacement
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

STRATEGIES = {
    "none": NoBalancer,
    "greedy": GreedyBalancer,
    "topology": TopologyAwareBalancer,
    "non_invasive": NonInvasiveBalancer,
}


def record_loads(num_layers, iterations, seed=17):
    """The (layers, experts) load stream a serving run observes."""
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=seed,
    )
    stream = [
        workload.next_group_counts(return_loads=True)[1] for _ in range(iterations)
    ]
    return system.mapping.topology, stream


def build_pair(balancer_cls, topology, num_layers, shadow_slots, balancer_config):
    num_experts = QWEN3_235B.num_experts
    stacked = STACKED_BALANCERS[balancer_cls](
        StackedPlacement(
            num_layers, num_experts, topology.num_devices, shadow_slots=shadow_slots
        ),
        topology,
        expert_bytes=QWEN3_235B.expert_bytes,
        config=balancer_config,
    )
    oracle = [
        balancer_cls(
            ExpertPlacement(num_experts, topology.num_devices, shadow_slots=shadow_slots),
            topology,
            expert_bytes=QWEN3_235B.expert_bytes,
            config=balancer_config,
        )
        for _ in range(num_layers)
    ]
    return stacked, oracle


def assert_same_state(stacked, oracle, iteration):
    for layer, balancer in enumerate(oracle):
        ours = stacked.placement.layer(layer)
        ref = balancer.placement
        for expert in range(ref.num_experts):
            assert ours.replicas(expert) == ref.replicas(expert), (
                iteration,
                layer,
                expert,
            )
        np.testing.assert_array_equal(
            ours.destination_shares, ref.destination_shares
        )
        assert stacked.pending[layer] == balancer.pending, (iteration, layer)
    np.testing.assert_array_equal(
        stacked.heats(), np.stack([balancer.heats() for balancer in oracle])
    )


def drive(
    balancer_cls,
    num_layers=6,
    iterations=80,
    balancing=None,
    balancer_config=None,
):
    """Run both sides through the serving loop's schedule; returns the
    number of migrations planned."""
    balancing = balancing or BalancingConfig()
    topology, stream = record_loads(num_layers, iterations)
    stacked, oracle = build_pair(
        balancer_cls, topology, num_layers, balancing.shadow_slots, balancer_config
    )
    beta = balancing.beta_iters if stacked.invasive else 0
    last_trigger = -(10**9)
    deferred: dict[int, list] = {}
    planned = 0
    for iteration, layer_loads in enumerate(stream):
        stacked.observe(layer_loads)
        for layer, balancer in enumerate(oracle):
            balancer.observe(layer_loads[layer])

        if iteration >= balancing.warmup_iters:
            heats = stacked.heats(include_pending=False)
            np.testing.assert_array_equal(
                heats,
                np.stack([b.heats(include_pending=False) for b in oracle]),
            )
            cumulative = stacked.imbalance_sum(heats)
            assert cumulative == sum(b.imbalance() for b in oracle), iteration
            if (
                cumulative > balancing.alpha
                and iteration - last_trigger >= beta
            ):
                evicted = stacked.evict_stale(heats)
                plans = stacked.plan(iteration)
                ref_evicted = 0
                ref_plans = []
                for balancer in oracle:
                    ref_evicted += balancer.evict_stale()
                    ref_plans.append(balancer.plan(iteration))
                assert evicted == ref_evicted, iteration
                assert plans == ref_plans, iteration
                items = [
                    (layer, migration)
                    for layer, migrations in enumerate(plans)
                    for migration in migrations
                ]
                if items:
                    last_trigger = iteration
                    planned += len(items)
                if stacked.invasive:
                    deferred.setdefault(iteration, []).extend(items)
                else:
                    # Non-invasive copies drain over later iterations;
                    # stagger them so commits interleave with new plans.
                    for index, item in enumerate(items):
                        due = iteration + 1 + index % 3
                        deferred.setdefault(due, []).append(item)

        due = deferred.pop(iteration, [])
        if due:
            stacked.commit_many(due)
            for layer, migration in due:
                oracle[layer].commit(migration)
        assert_same_state(stacked, oracle, iteration)
    stacked.placement.check_synced()
    return planned


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_default_config(strategy):
    planned = drive(STRATEGIES[strategy])
    assert (planned > 0) == (strategy != "none")


@pytest.mark.parametrize("strategy", ["greedy", "topology"])
def test_side_channel(strategy):
    """fig17's NVL72 config: two shadow slots and a short cooldown."""
    balancing = BalancingConfig(
        migration_side_channel=True, shadow_slots=2, beta_iters=3
    )
    assert drive(STRATEGIES[strategy], balancing=balancing) > 0


@pytest.mark.parametrize("strategy", ["greedy", "non_invasive"])
def test_aggressive_plans(strategy):
    """fig17's large-plan config: 16 migrations per trigger + eviction."""
    planned = drive(
        STRATEGIES[strategy],
        num_layers=4,
        iterations=60,
        balancing=BalancingConfig(warmup_iters=2, shadow_slots=2),
        balancer_config=BalancerConfig(max_migrations_per_trigger=16),
    )
    assert planned > 0


def test_depth():
    assert drive(NonInvasiveBalancer, num_layers=12, iterations=40) > 0


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_evicts_a_prefix_of_one_experts_shadows(strategy):
    """Two shadows of one cold expert on one layer: dropping the first
    raises the survivor's per-replica load, so the oracle's live counter
    keeps it.  Layer 0 sits between the two thresholds (one of two shadows
    dropped), layer 1 is cold enough to lose both."""
    topology = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er").mapping.topology
    stacked, oracle = build_pair(STRATEGIES[strategy], topology, 2, 2, None)
    cold, shadow_devices = 5, (9, 12)
    for layer, balancer in enumerate(oracle):
        for device in shadow_devices:
            stacked.placement.add_replica(layer, cold, device)
            balancer.placement.add_replica(cold, device)
    loads = np.full((2, QWEN3_235B.num_experts), 100.0)
    loads[1, cold] = 10.0
    stacked.observe(loads)
    for layer, balancer in enumerate(oracle):
        balancer.observe(loads[layer])

    ref_evicted = [balancer.evict_stale() for balancer in oracle]
    assert ref_evicted == [1, 2]
    assert stacked.evict_stale() == sum(ref_evicted)
    assert oracle[0].placement.replicas(cold) == [0, shadow_devices[1]]
    assert_same_state(stacked, oracle, iteration=0)
    stacked.placement.check_synced()
