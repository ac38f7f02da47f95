"""The fast samplers must be bit-identical to ``random.expovariate``."""

import random

import numpy as np
import pytest

from repro.perf.variates import (
    ExponentialBlock,
    exponential_fill,
    exponential_sampler,
)


class TestExponentialSampler:
    def test_stream_identical_to_expovariate(self):
        reference = random.Random(42)
        fast = random.Random(42)
        sample = exponential_sampler(fast)
        for lambd in (0.5, 1.0, 3.25, 0.001):
            for _ in range(200):
                assert sample(lambd) == reference.expovariate(lambd)

    def test_interleaved_consumers_unperturbed(self):
        # The sampler consumes exactly one uniform per draw, so other
        # consumers of the same generator see an unchanged stream.
        reference = random.Random(7)
        shared = random.Random(7)
        sample = exponential_sampler(shared)
        for _ in range(100):
            assert sample(2.0) == reference.expovariate(2.0)
            assert shared.random() == reference.random()
            assert shared.randrange(10) == reference.randrange(10)


class TestExponentialBlock:
    def test_matches_expovariate_draw_for_draw(self):
        reference = random.Random(9)
        block = ExponentialBlock(random.Random(9), block_size=16)
        rates = [0.5, 1.0, 2.0, 10.0] * 20
        for rate in rates:
            assert block.next_scaled(rate) == pytest.approx(
                reference.expovariate(rate), rel=1e-12
            )

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            ExponentialBlock(random.Random(1), block_size=0)

    def test_refill_crosses_block_boundary(self):
        block = ExponentialBlock(random.Random(3), block_size=4)
        draws = [block.next_scaled(1.0) for _ in range(10)]
        assert len(draws) == 10
        assert all(d > 0 for d in draws)


class TestExponentialFill:
    def test_bit_identical_to_sequential_sampler(self):
        filled = exponential_fill(random.Random(21), 500, 2.5)
        sample = exponential_sampler(random.Random(21))
        assert filled == [sample(2.5) for _ in range(500)]

    def test_roundtrips_through_float64(self):
        filled = exponential_fill(random.Random(4), 100, 1.0)
        assert np.asarray(filled, dtype=np.float64).tolist() == filled

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            exponential_fill(random.Random(1), -1, 1.0)
