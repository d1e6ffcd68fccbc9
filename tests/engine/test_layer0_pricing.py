"""Layer 0's serving price against the per-flow all-to-all oracle.

The serving step prices layer 0's dispatch/combine through the same
layer-batched plan as every other layer (dense or sparse operator).  Each
step's ``breakdown.dispatch``/``breakdown.combine`` must equal
:func:`~repro.network.alltoall.simulate_alltoall` on the same layer-0
counts and placement to summation-order rounding, in every pricing mode,
under front-end batches small enough to leave zero-demand cells, after
migrations have moved layer 0's placement, and over a degraded link plus a
failed device.  A serving run never builds a flow-level ``DispatchPlan``.
"""

import numpy as np
import pytest

from repro.balancer import GreedyBalancer
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    PricingConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation
from repro.models import QWEN3_235B
from repro.network.alltoall import _PLAN_CACHE, simulate_alltoall
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

TIGHT = dict(rtol=1e-12, atol=0.0)

MODES = {
    "resolved": PricingConfig(),
    "broadcast_demand": PricingConfig(per_layer_demand=False),
    "layer0_broadcast": PricingConfig(
        per_layer_alltoall=False, per_layer_demand=False
    ),
    "record_broadcast_price": PricingConfig(record_broadcast_price=True),
}

#: Front-end batch sizes cycled through the run: 1-8 tokens per group
#: leave most (group, expert) cells of layer 0 without demand.
BATCHES = list(range(1, 9))

FAULTS = FaultSchedule(
    [
        LinkDegradation(iteration=4, src=0, dst=1, factor=0.2),
        DeviceFailure(iteration=9, device=5),
    ]
)


def make_simulator(pricing, sparse, num_layers=4, fault_schedule=None):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=23,
    )
    return ServingSimulator(
        system.device,
        QWEN3_235B,
        system.mapping,
        workload,
        GreedyBalancer,
        engine_config=EngineConfig(tokens_per_group=64),
        serving_config=ServingConfig(
            balancing=BalancingConfig(
                warmup_iters=2, beta_iters=2, shadow_slots=2
            ),
            pricing=PricingConfig(
                per_layer_alltoall=pricing.per_layer_alltoall,
                per_layer_demand=pricing.per_layer_demand,
                record_broadcast_price=pricing.record_broadcast_price,
                sparse_pricing=sparse,
            ),
        ),
        fault_schedule=fault_schedule,
    )


class Layer0Oracle:
    """Prices each step's layer 0 flow by flow, at the moment the step
    assembles its breakdown (after this iteration's migrations)."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.counts0 = None
        self.expected = None
        self.placement_versions = []
        self.zero_cells = 0
        workload = simulator.workload
        for name in ("next_group_counts", "next_loads"):
            setattr(workload, name, self._capture(getattr(workload, name)))
        assemble = simulator.simulator.layer_breakdown

        def checked(expert_loads, placement, dispatch, combine, **kwargs):
            result = simulate_alltoall(
                simulator.mapping.topology,
                self.counts0 * simulator.model.token_bytes,
                placement,
                simulator.mapping,
            )
            self.expected = (result.dispatch.duration, result.combine.duration)
            self.placement_versions.append(placement.version)
            return assemble(expert_loads, placement, dispatch, combine, **kwargs)

        simulator.simulator.layer_breakdown = checked

    def _capture(self, sample):
        def captured(*args, **kwargs):
            result = sample(*args, **kwargs)
            counts = result[0]
            # Copy before the step scales its demand buffer in place.
            self.counts0 = np.array(counts[0] if counts.ndim == 3 else counts)
            self.zero_cells += int((self.counts0 == 0).sum())
            return result

        return captured

    def step(self, tokens_per_group):
        record = self.simulator.step(tokens_per_group=tokens_per_group)
        np.testing.assert_allclose(
            [record.breakdown.dispatch, record.breakdown.combine],
            self.expected,
            **TIGHT,
        )
        return record


def run_checked(simulator, iterations=24):
    oracle = Layer0Oracle(simulator)
    records = [
        oracle.step(BATCHES[index % len(BATCHES)]) for index in range(iterations)
    ]
    assert oracle.zero_cells > 0
    return oracle, records


@pytest.mark.parametrize("faults", [None, FAULTS], ids=["healthy", "faults"])
@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("mode", list(MODES))
def test_layer0_matches_flow_simulation(mode, sparse, faults):
    simulator = make_simulator(MODES[mode], sparse, fault_schedule=faults)
    oracle, records = run_checked(simulator)
    if faults is None:
        # Migrations moved layer 0's placement during the checked run.
        assert max(oracle.placement_versions) > 0
        assert sum(record.migrations_started for record in records) > 0
    else:
        assert records[-1].faults_active == 2
        assert 5 in simulator.dead_devices()


@pytest.mark.parametrize("sparse", [False, True])
def test_one_layer_stack(sparse):
    simulator = make_simulator(MODES["broadcast_demand"], sparse, num_layers=1)
    _oracle, records = run_checked(simulator)
    for record in records:
        assert record.alltoall_mean == record.breakdown.alltoall


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("mode", list(MODES))
def test_serving_builds_no_dispatch_plan(mode, sparse):
    simulator = make_simulator(MODES[mode], sparse, fault_schedule=FAULTS)
    for index in range(24):
        simulator.step(tokens_per_group=BATCHES[index % len(BATCHES)])
    assert len(_PLAN_CACHE) == 0
