"""Seed handling: every stochastic operation takes an explicit seed.

A seed is a non-negative int or a numpy Generator: ``as_generator``
returns a Generator as it is and seeds a new one from an int.
``substream`` derives an independent stream from (seed, index), so Monte
Carlo replication i sees the same draws whichever chunk of replications it
is simulated in; ``_child_seed`` derives a seed from (seed, *path); both
take an int. Any other seed, a SeedSequence too, is a ``ValidationError``,
whichever entry point passed it.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import _check_int

Seed = Union[int, np.random.Generator]


def _check_seed(seed) -> int:
    return _check_int(seed, "seed", 0)


def as_generator(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_check_seed(seed))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of master seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([_check_seed(seed), int(index)]))


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([_check_seed(seed), *path]).generate_state(1, np.uint64)[0])
