"""Per-layer all-to-all pricing against the layer-0 broadcast oracle.

``ServingConfig.per_layer_alltoall`` prices every layer's all-to-all
against its own placement.  These tests pin the PR 4 *demand-broadcast*
semantics (layer 0's demand rows against every layer's placement), so the
fixture disables the newer ``per_layer_demand`` resolution — the resolved
path has its own contract in ``test_demand_resolved.py``.  The contract
with the old layer-0-broadcast path (kept behind
``per_layer_alltoall=False``):

* while no migration has diverged any layer from layer 0's placement
  content, the two paths produce *bit-identical* traces;
* once a migration lands on a layer > 0, per-layer pricing must diverge
  (strictly, on a pinned trace) — that layer's all-to-all is now priced
  against a placement the broadcast path never sees.
"""

import numpy as np
import pytest

from repro.balancer import GreedyBalancer, NoBalancer, NonInvasiveBalancer
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


def make_simulator(
    balancer_cls,
    per_layer_alltoall,
    num_layers=6,
    iterations=40,
    seed=17,
    balancing=None,
):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=seed,
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
            pricing=PricingConfig(
                per_layer_alltoall=per_layer_alltoall, per_layer_demand=False
            ),
        ),
    )


def assert_bit_identical(trace_a, trace_b):
    assert len(trace_a.records) == len(trace_b.records)
    for ours, ref in zip(trace_a.records, trace_b.records):
        assert ours.latency == ref.latency, f"iter {ref.iteration}"
        assert ours.alltoall_mean == ref.alltoall_mean, f"iter {ref.iteration}"
        assert ours.migration_exposed == ref.migration_exposed
        assert ours.migrations_started == ref.migrations_started
        assert ours.migrations_completed == ref.migrations_completed
        assert ours.max_device_load == ref.max_device_load


class TestPreMigrationOracle:
    def test_no_balancer_bit_identical(self):
        """Without migrations every layer keeps layer 0's content, so
        per-layer pricing must reduce to the broadcast exactly."""
        assert_bit_identical(
            make_simulator(NoBalancer, per_layer_alltoall=True).run(),
            make_simulator(NoBalancer, per_layer_alltoall=False).run(),
        )

    def test_warmup_prefix_bit_identical_under_migrations(self):
        """Before the first trigger fires the paths must agree bitwise even
        for a migrating balancer."""
        warm = 15
        with_pricing = make_simulator(
            GreedyBalancer,
            per_layer_alltoall=True,
            balancing=BalancingConfig(warmup_iters=warm),
        ).run()
        broadcast = make_simulator(
            GreedyBalancer,
            per_layer_alltoall=False,
            balancing=BalancingConfig(warmup_iters=warm),
        ).run()
        for ours, ref in zip(
            with_pricing.records[:warm], broadcast.records[:warm]
        ):
            assert ours.latency == ref.latency
            assert ours.alltoall_mean == ref.alltoall_mean

    def test_alltoall_mean_equals_layer0_while_uniform(self):
        trace = make_simulator(NoBalancer, per_layer_alltoall=True).run()
        for record in trace.records:
            assert record.alltoall_mean == record.breakdown.alltoall


class TestPostMigrationDivergence:
    @pytest.mark.parametrize("balancer_cls", [GreedyBalancer, NonInvasiveBalancer])
    def test_pinned_migrating_trace_diverges_strictly(self, balancer_cls):
        with_pricing = make_simulator(balancer_cls, per_layer_alltoall=True).run()
        broadcast = make_simulator(balancer_cls, per_layer_alltoall=False).run()
        assert with_pricing.num_migrations() > 0
        assert broadcast.num_migrations() > 0
        if balancer_cls is GreedyBalancer:
            # Invasive planning never reads the a2a price, so the decision
            # sequence is identical.  (Non-invasive draining *does* consume
            # the priced a2a window as its migration budget, so its
            # commit timing may legitimately shift between pricing modes.)
            assert with_pricing.num_migrations() == broadcast.num_migrations()
        # Strictly different latencies once layers diverge.
        diffs = [
            ours.latency != ref.latency
            for ours, ref in zip(with_pricing.records, broadcast.records)
        ]
        assert any(diffs)
        diverged = [
            record
            for record in with_pricing.records
            if record.alltoall_mean != record.breakdown.alltoall
        ]
        assert diverged

    def test_forced_migration_on_later_layer_only(self):
        """A replica forced onto layer 3 must change per-layer pricing while
        the broadcast path (layer 0 untouched) cannot see it."""

        def run_forced(per_layer):
            simulator = make_simulator(
                NoBalancer, per_layer_alltoall=per_layer, iterations=5
            )
            simulator.engine.placement.add_replica(3, expert=0, device=15)
            return simulator.run()

        forced = run_forced(True)
        blind = run_forced(False)
        # Layer 0's exactly-simulated collectives are identical in both...
        for ours, ref in zip(forced.records, blind.records):
            assert ours.breakdown.alltoall == ref.breakdown.alltoall
        # ...but the per-layer path prices layer 3's replica in.  Durations
        # are max-based (bottleneck link + worst path), so an individual
        # iteration may legitimately price the same; the pinned trace as a
        # whole must diverge on most iterations.
        mean_diffs = sum(
            record.alltoall_mean != record.breakdown.alltoall
            for record in forced.records
        )
        latency_diffs = sum(
            ours.latency != ref.latency
            for ours, ref in zip(forced.records, blind.records)
        )
        assert mean_diffs >= len(forced.records) - 1 > 0
        assert latency_diffs >= len(forced.records) - 1 > 0


class TestFlagOff:
    def test_flag_off_restores_broadcast_semantics(self):
        trace = make_simulator(GreedyBalancer, per_layer_alltoall=False).run()
        assert trace.num_migrations() > 0
        for record in trace.records:
            assert record.alltoall_mean == record.breakdown.alltoall
        assert trace.mean_component("alltoall") == trace.mean_component(
            "alltoall_layer0"
        )
