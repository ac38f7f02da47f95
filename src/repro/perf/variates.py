"""Fast random-variate sampling for the DES hot paths.

``random.Random.expovariate`` is a pure-Python method, so every arrival,
think-time, and service draw pays a Python call plus attribute lookups on
top of the one C-level ``random()`` call it actually needs.  Two
replacements, both bit-identical to ``expovariate`` for the same
underlying uniform stream:

- :func:`exponential_sampler` -- a closure over a *shared* generator's
  bound ``random()``.  Consumes exactly one uniform per draw at the call
  site, so it can replace ``rng.expovariate`` in code that interleaves
  draws with other consumers of the same generator without perturbing
  the stream (results stay identical to the naive code).
- :class:`ExponentialBlock` -- block-drawn unit-exponential variates
  from a *dedicated* generator.  Refilling amortizes the Python-level
  work over ``block_size`` draws; scaling by the current rate at the
  call site keeps time-varying arrival processes (surge schedules)
  exact, because ``-log(1 - u) / rate`` equals ``expovariate(rate)``
  draw for draw.  Use it only for a stream with a single consumer (an
  open-loop arrival process), where consumption order trivially matches
  draw order.
- :func:`exponential_fill` -- a whole window of variates in one call,
  for code that hands one variate array to both a vectorized kernel
  and a scalar reference: generation stays on ``math.log``, so
  bit-equality does not depend on ``numpy.log`` matching it (it does
  not, in the last ulp).
"""

from __future__ import annotations

import random
from math import log
from typing import Callable, List


def exponential_sampler(rng: random.Random) -> Callable[[float], float]:
    """A drop-in, stream-identical fast path for ``rng.expovariate``.

    Returns ``sample(lambd)`` producing the same values, in the same
    order, from the same generator state as ``rng.expovariate(lambd)``
    -- it inlines CPython's implementation (``-log(1 - random())/lambd``)
    into a closure so each draw is one C ``random()`` call plus inline
    arithmetic rather than a method dispatch.
    """
    _random = rng.random

    def sample(lambd: float, _log=log) -> float:
        return -_log(1.0 - _random()) / lambd

    return sample


def exponential_fill(rng: random.Random, count: int, lambd: float) -> List[float]:
    """``count`` exponential variates, bit-identical to ``count``
    sequential :func:`exponential_sampler` draws from the same stream.

    The whole point is that vectorized cohort kernels and the scalar
    event-at-a-time oracle can share ONE variate array: generation stays
    on the Python side (``math.log``, which is NOT bit-identical to
    ``numpy.log`` in the last ulp), so whichever engine consumes the
    array sees exactly the values ``rng.expovariate(lambd)`` would have
    produced, in draw order.  Wrap the result in ``numpy.asarray`` for
    kernel use -- float64 round-trips exactly.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    _random = rng.random
    _log = log
    return [-_log(1.0 - _random()) / lambd for _ in range(count)]


class ExponentialBlock:
    """Block-drawn unit-exponential variates from a dedicated stream.

    ``next_scaled(rate)`` returns the next variate divided by ``rate``,
    which equals what ``rng.expovariate(rate)`` would have returned at
    the same point of the stream -- block drawing only changes *when*
    the uniforms are consumed, not their order, so a single-consumer
    arrival process keeps its exact per-seed trajectory.
    """

    __slots__ = ("_rng", "_block", "_index", "_block_size")

    def __init__(self, rng: random.Random, block_size: int = 512):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self._rng = rng
        self._block_size = block_size
        self._block: list = []
        self._index = 0

    def _refill(self) -> None:
        _random = self._rng.random
        self._block = [-log(1.0 - _random()) for _ in range(self._block_size)]
        self._index = 0

    def next_scaled(self, rate: float) -> float:
        """Next inter-arrival delay for instantaneous ``rate`` (per ms)."""
        index = self._index
        block = self._block
        if index >= len(block):
            self._refill()
            index = 0
            block = self._block
        self._index = index + 1
        return block[index] / rate
