"""Seed handling: every stochastic operation takes an explicit seed.

A seed is a non-negative int or a numpy Generator: ``as_generator``
returns a Generator as it is and seeds a new one from an int.
``substream`` derives an independent stream from (seed, index), and
``substream_blocks`` deals replicates' substreams out in blocks, so
replicate i sees the same draws whichever block it is stacked in;
``_child_seed`` derives a seed from (seed, *path). All three take an int.
Any other seed, a SeedSequence too, is a ``ValidationError``, whichever
entry point passed it.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import _check_int

Seed = Union[int, np.random.Generator]

# Values per block of stacked replicates (1 MiB of float64): the block bounds the memory
# of the stacked arrays (one stack of 100 x 100,000 bootstrap draws peaked at 500 MB).
_BLOCK_VALUES = 2**17


def _check_seed(seed) -> int:
    return _check_int(seed, "seed", 0)


def as_generator(seed: Seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_check_seed(seed))


def substream(seed: int, index: int) -> np.random.Generator:
    """Generator for substream ``index`` of master seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([_check_seed(seed), int(index)]))


def substream_blocks(seed: int, count: int, values_each: int):
    """(first index, [substream(seed, r) for r in block]) for the blocks of replicates
    0..count-1, each of at most ``_BLOCK_VALUES // values_each`` replicates (at least one)."""
    size = max(1, _BLOCK_VALUES // values_each)
    for lo in range(0, count, size):
        yield lo, [substream(seed, r) for r in range(lo, min(lo + size, count))]


def _child_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([_check_seed(seed), *path]).generate_state(1, np.uint64)[0])
