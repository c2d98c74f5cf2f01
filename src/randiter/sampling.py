"""Weighted discrete index sampling with a reproducible RNG.

The stream is numpy's PCG64 Generator,
`np.random.Generator(np.random.PCG64(seed))`. A given (seed, weights)
pair fully determines the draw sequence, which the experiment harness
relies on for byte-identical reruns. A block of k uniforms from
`Generator.random(k)` is the same k doubles that k scalar `random()`
calls give, so drawing a block at a time leaves the sequence unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateWeights, NegativeWeight


class WeightedSampler:
    """Draws indices with probability weight[i] / sum(weights).

    Backed by a prefix-sum table and binary search; indices with zero
    weight are never returned.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise DegenerateWeights("no weights")
        if np.any(w < 0.0):
            raise NegativeWeight("sampling weights must be nonnegative")
        with np.errstate(over="ignore"):
            self.cumulative = np.cumsum(w)
        self.total = float(self.cumulative[-1])
        if not 0.0 < self.total < np.inf:
            raise DegenerateWeights(f"weights sum to {self.total}, not a finite positive total")
        # the last bin with positive weight
        self._last = int(np.searchsorted(self.cumulative, np.nextafter(self.total, 0.0),
                                         side="right"))

    def __len__(self) -> int:
        return self.cumulative.shape[0]

    def _indices(self, u: float | np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to indices."""
        # side="right" skips zero-weight indices: their cumulative entry
        # equals the previous one, so no u * total lands strictly inside.
        idx = np.searchsorted(self.cumulative, u * self.total, side="right")
        # u * total can round up to exactly total (when total is
        # subnormal); that goes to the last positive bin
        return np.where(idx == len(self), self._last, idx)

    def draw(self, rng: np.random.Generator) -> int:
        """One index with the sampler's distribution; advances rng."""
        return int(self._indices(rng.random()))

    def draw_block(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k indices, the same as k calls of draw(); advances rng by k."""
        return self._indices(rng.random(k))


def build_sampler(weights) -> WeightedSampler:
    """Validate weights and build the cumulative-table sampler."""
    return WeightedSampler(weights)
