"""Demand-resolved per-layer pricing: contracts with the PR 4 oracle.

``ServingConfig.per_layer_demand`` resolves group-level gating demand for
every layer and prices each layer's all-to-all against its own demand
rows.  Its contracts:

* with ``per_layer_demand=False`` the serving trace is *bit-identical* to
  the PR 4 demand-broadcast output — pinned below against literal trace
  fingerprints captured from the PR 4 tree;
* under resolved demand, per-layer prices diverge from the layer-0 price
  from the very first iteration (each layer's demand rows differ even on
  an identical placement stack);
* a demand skew forced onto a later layer strictly changes that layer's
  price while leaving every other layer's price untouched.
"""

import numpy as np
import pytest

from repro.balancer import GreedyBalancer, NoBalancer, NonInvasiveBalancer
from repro.engine import EngineConfig, PricingConfig, ServingConfig, ServingSimulator
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator


def make_simulator(
    balancer_cls,
    num_layers=6,
    iterations=40,
    seed=17,
    **pricing,
):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=seed,
        group_split="gaussian",
    )
    return ServingSimulator(
        system.device,
        QWEN3_235B,
        system.mapping,
        workload,
        balancer_cls,
        engine_config=EngineConfig(tokens_per_group=64),
        serving_config=ServingConfig(
            num_iterations=iterations, pricing=PricingConfig(**pricing)
        ),
    )


class TestPinnedBroadcastOracle:
    """PR 4's exact trace survives behind per_layer_demand=False."""

    #: (latency sum, migrations, iteration-0/10/20/39 latencies) captured
    #: from the PR 4 tree (commit e3f4d71) under its then-default config.
    PINNED = {
        GreedyBalancer: (
            0.178620372397184,
            94,
            {
                0: 0.004140202135893334,
                10: 0.0043664174684160005,
                20: 0.004377419015850667,
                39: 0.004376152286890666,
            },
        ),
        NonInvasiveBalancer: (
            0.17367238252771555,
            118,
            {
                0: 0.004140202135893334,
                10: 0.004365264321536,
                20: 0.004383201391843556,
                39: 0.004370877543651555,
            },
        ),
    }

    @pytest.mark.parametrize("balancer_cls", [GreedyBalancer, NonInvasiveBalancer])
    def test_flag_off_bit_identical_to_pr4(self, balancer_cls):
        # The fingerprints were captured bit-exactly on the PR 4 tree; the
        # comparison allows ~1 ulp (rel=1e-15 on sums of ~40 terms) so the
        # pin survives BLAS builds whose dgemm reduction order differs from
        # the capture machine's (the CI matrix spans numpy 1.26/latest).
        # Any semantic change to the pinned path lands orders of magnitude
        # outside that tolerance; migrations stay exactly equal.
        trace = make_simulator(balancer_cls, per_layer_demand=False).run()
        total, migrations, spot = self.PINNED[balancer_cls]
        assert float(np.sum([r.latency for r in trace.records])) == pytest.approx(
            total, rel=1e-13, abs=0.0
        )
        assert trace.num_migrations() == migrations
        for iteration, latency in spot.items():
            assert trace.records[iteration].latency == pytest.approx(
                latency, rel=1e-13, abs=0.0
            )

    def test_flag_off_broadcast_component_equals_mean(self):
        trace = make_simulator(GreedyBalancer, per_layer_demand=False).run()
        for record in trace.records:
            assert record.alltoall_broadcast == record.alltoall_mean


class TestResolvedBehavior:
    def test_resolved_prices_diverge_from_layer0_immediately(self):
        """Even a uniform placement stack prices every layer differently
        once each layer carries its own demand rows."""
        trace = make_simulator(NoBalancer, iterations=5).run()
        for record in trace.records:
            assert record.alltoall_mean != record.breakdown.alltoall

    def test_resolved_trace_differs_from_broadcast(self):
        resolved = make_simulator(GreedyBalancer).run()
        broadcast = make_simulator(GreedyBalancer, per_layer_demand=False).run()
        diffs = [
            ours.latency != ref.latency
            for ours, ref in zip(resolved.records, broadcast.records)
        ]
        assert sum(diffs) >= len(diffs) - 1

    def test_single_layer_falls_back_to_broadcast_path(self):
        """With one simulated layer there is nothing to resolve; the run
        must consume the exact next_loads stream of the broadcast path."""
        resolved = make_simulator(NoBalancer, num_layers=1, iterations=8).run()
        broadcast = make_simulator(
            NoBalancer, num_layers=1, iterations=8, per_layer_demand=False
        ).run()
        for ours, ref in zip(resolved.records, broadcast.records):
            assert ours.latency == ref.latency

    def test_per_layer_alltoall_off_disables_resolution(self):
        """per_layer_demand only takes effect with per-layer pricing on —
        the layer-0-broadcast oracle keeps its exact stream either way.
        The inert combination warns loudly (ServingConfig.__post_init__)
        but still runs identically to the explicit broadcast config."""
        with pytest.warns(UserWarning, match="per_layer_demand.*inert"):
            a = make_simulator(GreedyBalancer, per_layer_alltoall=False).run()
        b = make_simulator(
            GreedyBalancer, per_layer_alltoall=False, per_layer_demand=False
        ).run()
        for ours, ref in zip(a.records, b.records):
            assert ours.latency == ref.latency
            assert ours.alltoall_mean == ref.breakdown.alltoall


class TestBroadcastCompanion:
    def test_companion_nan_unless_requested(self):
        trace = make_simulator(NoBalancer, iterations=3).run()
        assert all(np.isnan(r.alltoall_broadcast) for r in trace.records)

    def test_companion_recorded_when_requested(self):
        trace = make_simulator(
            GreedyBalancer, record_broadcast_price=True
        ).run()
        assert not any(np.isnan(r.alltoall_broadcast) for r in trace.records)
        # While the placement stack is uniform the companion reduces to
        # layer 0's exact price.
        first = trace.records[0]
        assert first.alltoall_broadcast == first.breakdown.alltoall
        # Once migrations diverge placements, the companion prices them.
        assert any(
            r.alltoall_broadcast != r.breakdown.alltoall for r in trace.records
        )
        # And the components stay distinguishable through the trace API.
        assert trace.mean_component("alltoall") != trace.mean_component(
            "alltoall_broadcast"
        )

    def test_companion_matches_broadcast_run_while_streams_align(self):
        """On a migration-free stack the companion equals what a broadcast
        run would report for the same placements — layer 0's price — even
        though the RNG streams differ."""
        trace = make_simulator(
            NoBalancer, record_broadcast_price=True, iterations=5
        ).run()
        for record in trace.records:
            assert record.alltoall_broadcast == record.breakdown.alltoall
