"""Pinned fingerprints of the layer-stacked serving engine's traces.

Each configuration below runs the full serving loop and hashes the whole
trace — every field of every :class:`IterationRecord`, the final
placement of every layer and the workload RNG state — into one SHA-256
digest.  The digests were captured from a tree whose per-layer oracle
engine (a list of :class:`~repro.balancer.base.Balancer` objects, one per
layer) reproduced each of these traces bitwise, so they pin the stacked
engine to that oracle's output.  The decision-level equivalence of
:class:`~repro.balancer.stacked.StackedBalancer` with the per-layer
balancers is checked directly in ``tests/balancer/test_stacked_oracle.py``.

Floats enter the digest at 9 significant digits: the CI matrix spans
numpy and BLAS builds whose reduction orders may differ by an ulp, while
any semantic change moves the trace far beyond that rounding.  Integers
(migration counts, replica sets, the RNG state) enter exactly.  The
gating sampler is pinned to the numpy backend, whose bit stream is the
one captured (the numba backend draws a different, equally valid stream).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.balancer import (
    BalancerConfig,
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    PricingConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

STRATEGIES = {
    "none": NoBalancer,
    "greedy": GreedyBalancer,
    "topology": TopologyAwareBalancer,
    "non_invasive": NonInvasiveBalancer,
}


def make_simulator(
    balancer_cls,
    num_layers=6,
    iterations=80,
    seed=17,
    balancing=None,
    pricing=None,
    balancer_config=None,
    group_split="multinomial",
):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=seed,
        group_split=group_split,
        sampling_backend="numpy",
    )
    return ServingSimulator(
        system.device,
        QWEN3_235B,
        system.mapping,
        workload,
        balancer_cls,
        engine_config=EngineConfig(tokens_per_group=64),
        serving_config=ServingConfig(
            num_iterations=iterations,
            balancing=balancing or BalancingConfig(),
            pricing=pricing or PricingConfig(),
        ),
        balancer_config=balancer_config,
    )


def _flatten(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def trace_digest(simulator, trace) -> str:
    """SHA-256 over a run's records, final placements and RNG state."""
    hasher = hashlib.sha256()
    for record in trace.records:
        fields = []
        for value in _flatten(dataclasses.astuple(record)):
            if isinstance(value, (bool, int, np.integer)):
                fields.append(str(int(value)))
            else:
                fields.append(f"{float(value):.8e}")
        hasher.update(",".join(fields).encode())
        hasher.update(b"\n")
    for placement in simulator.layer_placements():
        for expert in range(placement.num_experts):
            hasher.update(repr(placement.replicas(expert)).encode())
        shares = placement.destination_shares.ravel()
        hasher.update(",".join(f"{share:.8e}" for share in shares).encode())
    hasher.update(repr(simulator.workload._rng.bit_generator.state).encode())
    return hasher.hexdigest()


def run_digest(simulator) -> str:
    trace = simulator.run()
    simulator.engine.placement.check_synced()
    return trace_digest(simulator, trace)


#: Captured with numpy 2.4 on x86-64, on the tree where the per-layer
#: oracle engine produced the identical digest for every entry.
PINNED = {
    "none": "5d755d5baa0e64a17e8fbd067f671623f22331e83c0637d22026296ce396f91b",
    "greedy": "d162583d5015ba7aa32e9c50af4660c1b3b0fd88214b3763f4923bfa245bae08",
    "topology": "64592f1b59cdb29ca9cc441b2249f08303784d073b4a33ed7413c2b105d8fc69",
    "non_invasive": "4518960d7994749588cf6592a26f738e39ee4eda55259a0ad755d72127daf22d",
    "side_channel_greedy": "55f86a9cba6dea451ae2f173d4eba58cda8d9ac8b9276a03c8eb00b70847e2db",
    "side_channel_topology": "25013109368f02877875345569ce004f45b424576d988be82e7ab5bb53b68f3a",
    "aggressive_greedy": "07f4ac3038fd03388cea485a5fae7a68f384b585e1457d133679097f7f1a44c3",
    "aggressive_non_invasive": "1d4b5e47f3792367d5af654abc16b85676fd7d23202ca5d792b6a055951bdf81",
    "depth12_non_invasive": "ce12e8012d9e08bd71e38c33105734cd3bcea3d3aa27bdeee919030f51e80c2e",
    "forced_resolved_gaussian": "99dd8543cc90bf1b9e8b66587eac02efc9fd0925ef5e1995f88959d1feee80f1",
    "forced_resolved_multinomial": "3d444859a92bc1d9feae5389e15f7595b0203b1d19196b965b7f9c0d0f5deac8",
    "forced_broadcast_demand": "502cd7d87f8ba366dbd0e1b695c49ec20a8b200e18f186baf3f4d3a9c80fc6e0",
}


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_default_config(strategy):
    assert run_digest(make_simulator(STRATEGIES[strategy])) == PINNED[strategy]


@pytest.mark.parametrize("strategy", ["greedy", "topology"])
def test_side_channel(strategy):
    """Invasive draining through the side channel (fig17's NVL72 config)."""
    balancing = BalancingConfig(
        migration_side_channel=True, shadow_slots=2, beta_iters=3
    )
    simulator = make_simulator(STRATEGIES[strategy], balancing=balancing)
    assert run_digest(simulator) == PINNED[f"side_channel_{strategy}"]


@pytest.mark.parametrize("strategy", ["greedy", "non_invasive"])
def test_aggressive_plans(strategy):
    """fig17's large-plan config: 16 migrations per trigger + eviction."""
    simulator = make_simulator(
        STRATEGIES[strategy],
        num_layers=4,
        iterations=60,
        balancing=BalancingConfig(warmup_iters=2, shadow_slots=2),
        balancer_config=BalancerConfig(max_migrations_per_trigger=16),
    )
    assert run_digest(simulator) == PINNED[f"aggressive_{strategy}"]


def test_depth():
    """A 12-layer stack."""
    simulator = make_simulator(NonInvasiveBalancer, num_layers=12, iterations=40)
    assert run_digest(simulator) == PINNED["depth12_non_invasive"]


@pytest.mark.parametrize(
    "name, group_split, pricing",
    [
        ("forced_resolved_gaussian", "gaussian", PricingConfig()),
        ("forced_resolved_multinomial", "multinomial", PricingConfig()),
        (
            "forced_broadcast_demand",
            "multinomial",
            PricingConfig(per_layer_demand=False),
        ),
    ],
)
def test_forced_replica_on_later_layer(name, group_split, pricing):
    """A replica forced onto layer 3 only: the layered plan prices a
    diverged placement stack, under resolved and broadcast demand."""
    simulator = make_simulator(
        NoBalancer, iterations=5, pricing=pricing, group_split=group_split
    )
    simulator.engine.placement.add_replica(3, expert=0, device=15)
    assert run_digest(simulator) == PINNED[name]
