"""Derived random streams.

Every consumer of randomness draws from its own substream of the root seed,
keyed by a purpose constant, so adding draws in one place never perturbs
another. Batched chains share one vectorized stream with rows as chains.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "STREAM_INITIAL_NOISE",
    "STREAM_RENOISE",
    "STREAM_GROUND_TRUTH",
    "STREAM_PROJECTIONS",
    "stream",
]

STREAM_INITIAL_NOISE = 0
STREAM_RENOISE = 1
STREAM_GROUND_TRUTH = 2
STREAM_PROJECTIONS = 3


def stream(seed: int, purpose: int) -> np.random.Generator:
    """Generator for one purpose under a root seed."""
    return np.random.default_rng([operator.index(seed), operator.index(purpose)])
