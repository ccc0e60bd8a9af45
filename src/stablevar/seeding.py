"""Seed handling: every stochastic operation takes an explicit seed.

``as_generator`` normalizes ints / SeedSequences / Generators to a
numpy Generator. ``substream`` derives an independent stream from
(seed, index), so Monte Carlo replication i sees the same draws whichever
chunk of replications it is simulated in; ``_child_seed`` derives a seed
from (seed, *path). All three reject a seed that is not a non-negative
integer with a ``ValidationError``, whichever entry point passed it.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import _check_int

Seed = Union[int, np.random.SeedSequence, np.random.Generator]


def _check_seed(seed) -> int:
    return _check_int(seed, "seed", 0)


def as_generator(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(_check_seed(seed))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of master seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([_check_seed(seed), int(index)]))


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([_check_seed(seed), *path]).generate_state(1, np.uint64)[0])
