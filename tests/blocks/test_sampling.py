"""Tests for :mod:`repro.blocks.sampling`."""

import numpy as np
import pytest

from repro.blocks.sampling import (
    SamplingParams,
    default_oversampling,
    draw_samples,
    splitter_ranks,
)
from repro.dist.ctr_rng import CounterRNG


class TestSamplingParams:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SamplingParams(oversampling=0)
        with pytest.raises(ValueError):
            SamplingParams(overpartitioning=0)

    def test_num_buckets_and_splitters(self):
        params = SamplingParams(oversampling=2, overpartitioning=4)
        assert params.num_buckets(8) == 32
        assert params.num_splitters(8) == 31

    def test_samples_per_pe_paper_mode(self):
        params = SamplingParams(oversampling=12.0, overpartitioning=16, per_pe=True)
        assert params.samples_per_pe(p=512, r=32) == 192

    def test_samples_per_pe_theory_mode(self):
        params = SamplingParams(oversampling=2.0, overpartitioning=8, per_pe=False)
        # total sample a*b*r = 2*8*16 = 256 spread over 64 PEs -> 4 per PE
        assert params.samples_per_pe(p=64, r=16) == 4

    def test_total_samples(self):
        params = SamplingParams(oversampling=1.0, overpartitioning=4, per_pe=True)
        assert params.total_samples(p=10, r=2) == 40

    def test_paper_defaults(self):
        params = SamplingParams.paper_defaults(10**7)
        assert params.overpartitioning == 16
        assert params.oversampling == pytest.approx(1.6 * 7, rel=0.01)

    def test_theory_choice_scales_with_eps(self):
        tight = SamplingParams.theory(eps=0.01, r=64)
        loose = SamplingParams.theory(eps=0.5, r=64)
        assert tight.overpartitioning > loose.overpartitioning

    def test_theory_invalid_eps(self):
        with pytest.raises(ValueError):
            SamplingParams.theory(eps=0, r=4)

    def test_default_oversampling_monotone(self):
        assert default_oversampling(10**6) < default_oversampling(10**9)
        assert default_oversampling(1) == 1.0


class TestDrawSamples:
    def test_draw_samples_per_pe(self):
        params = SamplingParams(oversampling=2, overpartitioning=2, per_pe=True)
        data = [np.arange(50) for _ in range(4)]
        rng = CounterRNG(0)
        samples = draw_samples(
            data, params, p=4, r=2, rng=rng, level=0, pes=np.arange(4)
        )
        assert len(samples) == 4
        assert all(s.size == 4 for s in samples)
        assert all(np.isin(s, d).all() for s, d in zip(samples, data))

    def test_draw_samples_arity_check(self):
        params = SamplingParams()
        with pytest.raises(ValueError):
            draw_samples([np.arange(5)], params, p=2, r=2,
                         rng=CounterRNG(0), level=0, pes=np.arange(2))


class TestSplitterRanks:
    def test_equidistant(self):
        ranks = splitter_ranks(100, 4)
        assert ranks.tolist() == [20, 40, 60, 80]

    def test_empty_cases(self):
        assert splitter_ranks(0, 4).size == 0
        assert splitter_ranks(100, 0).size == 0

    def test_clamped_to_range(self):
        ranks = splitter_ranks(3, 10)
        assert ranks.max() <= 2
        assert ranks.min() >= 0
