"""ServingConfig: three fields, with the knobs grouped into sub-configs.

``ServingConfig(num_iterations=..., balancing=BalancingConfig(...),
pricing=PricingConfig(...))`` is the only construction path.
"""

import warnings
from dataclasses import replace

import pytest

from repro.engine import BalancingConfig, PricingConfig, ServingConfig


class TestGroupedConstruction:
    def test_defaults_match_sub_config_defaults(self):
        config = ServingConfig()
        assert config.num_iterations == 150
        assert config.balancing == BalancingConfig()
        assert config.pricing == PricingConfig()

    def test_grouped_kwargs(self):
        config = ServingConfig(
            num_iterations=7,
            balancing=BalancingConfig(alpha=0.25, shadow_slots=3),
            pricing=PricingConfig(record_broadcast_price=True),
        )
        assert config.balancing.alpha == 0.25
        assert config.balancing.shadow_slots == 3
        assert config.pricing.record_broadcast_price is True

    def test_grouped_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ServingConfig(
                num_iterations=3,
                balancing=BalancingConfig(beta_iters=0),
                pricing=PricingConfig(sparse_pricing=True),
            )

    def test_replace_works_on_grouped_fields(self):
        config = ServingConfig(num_iterations=9)
        bumped = replace(config, num_iterations=11)
        assert bumped.num_iterations == 11
        assert bumped.balancing == config.balancing
        rebal = replace(config, balancing=BalancingConfig(alpha=0.1))
        assert rebal.balancing.alpha == 0.1

    def test_equality_and_hashability(self):
        assert ServingConfig() == ServingConfig()
        # Frozen all the way down: usable as a dict/set key.
        assert ServingConfig() in {ServingConfig()}
        assert ServingConfig(num_iterations=2) != ServingConfig()


class TestSingleConstructionPath:
    def test_flat_and_unknown_kwargs_are_rejected(self):
        """Sub-config knobs are only reachable through their sub-config."""
        for kwargs in (
            {"alpha": 0.2},
            {"record_broadcast_price": True},
            {"sampler": "multinomial"},
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                ServingConfig(**kwargs)
