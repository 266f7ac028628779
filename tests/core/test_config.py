"""Tests for :mod:`repro.core.config` (level plans, Table 1)."""

import pytest

from repro.blocks.sampling import SamplingParams
from repro.core.config import AMSConfig, RLMConfig, level_plan


class TestLevelPlan:
    def test_paper_table1_two_levels(self):
        assert level_plan(512, 2) == [32, 16]
        assert level_plan(2048, 2) == [128, 16]
        assert level_plan(8192, 2) == [512, 16]
        assert level_plan(32768, 2) == [2048, 16]

    def test_paper_table1_three_levels(self):
        assert level_plan(512, 3) == [8, 4, 16]
        assert level_plan(2048, 3) == [16, 8, 16]
        assert level_plan(8192, 3) == [32, 16, 16]
        assert level_plan(32768, 3) == [64, 32, 16]

    def test_single_level_splits_to_single_pes(self):
        assert level_plan(512, 1) == [512]
        assert level_plan(7, 1) == [7]

    def test_product_covers_p(self):
        for p in (8, 12, 100, 1000, 4096):
            for k in (1, 2, 3, 4):
                plan = level_plan(p, k, node_size=8)
                product = 1
                for r in plan:
                    product *= r
                assert product >= p

    def test_small_machine(self):
        plan = level_plan(8, 2, node_size=16)
        assert len(plan) == 2
        product = plan[0] * plan[1]
        assert product >= 8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            level_plan(0, 2)
        with pytest.raises(ValueError):
            level_plan(16, 0)

    def test_custom_node_size(self):
        plan = level_plan(256, 2, node_size=4)
        assert plan[-1] == 4
        assert plan[0] == 64


class TestAMSConfig:
    def test_defaults(self):
        cfg = AMSConfig()
        assert cfg.levels == 2
        assert cfg.delivery == "deterministic"

    def test_validation(self):
        with pytest.raises(ValueError):
            AMSConfig(levels=0)
        with pytest.raises(ValueError):
            AMSConfig(delivery="warp")
        with pytest.raises(ValueError):
            AMSConfig(node_size=0)

    def test_plan_for_uses_table1_logic(self):
        cfg = AMSConfig(levels=2, node_size=16)
        assert cfg.plan_for(512) == [32, 16]

    def test_sampling_defaults_to_paper(self):
        cfg = AMSConfig()
        sampling = cfg.sampling_for(10**6)
        assert sampling.overpartitioning == 16

    def test_explicit_sampling_respected(self):
        sampling = SamplingParams(oversampling=2, overpartitioning=4)
        cfg = AMSConfig(sampling=sampling)
        assert cfg.sampling_for(10**6) is sampling


class TestRLMConfig:
    def test_defaults_and_validation(self):
        cfg = RLMConfig()
        assert cfg.levels == 2
        with pytest.raises(ValueError):
            RLMConfig(levels=0)
        with pytest.raises(ValueError):
            RLMConfig(delivery="bogus")

    def test_plan_for_levels(self):
        cfg = RLMConfig(levels=3, node_size=16)
        assert cfg.plan_for(32768) == [64, 32, 16]
        assert RLMConfig(levels=1).plan_for(64) == [64]
