"""Seed handling: every stochastic operation takes an explicit seed.

``as_generator`` normalizes ints / SeedSequences / Generators to a
numpy Generator. ``substream`` derives an independent stream from
(seed, index), so Monte Carlo replication i sees the same draws whichever
chunk of replications it is simulated in.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Seed = Union[int, np.random.SeedSequence, np.random.Generator]


def as_generator(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(int(seed))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of master seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))
