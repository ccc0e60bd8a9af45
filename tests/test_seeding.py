import pytest

from stablevar import seeding


@pytest.mark.parametrize(
    "count, values_each, sizes",
    [
        (200, 1500 * 2, [43, 43, 43, 43, 28]),  # the paper's Monte Carlo grid
        (100, 1000, [100]),  # a 100-repetition KS bootstrap of a 1,000-row column
        (200, 1000, [131, 69]),  # a 200-replicate null band of the same column
        (3, seeding._BLOCK_VALUES + 1, [1, 1, 1]),  # a replicate above the budget
        (0, 10, []),
    ],
)
def test_substream_blocks(count, values_each, sizes):
    blocks = list(seeding.substream_blocks(11, count, values_each))
    assert [len(generators) for _, generators in blocks] == sizes
    assert all(n * values_each <= seeding._BLOCK_VALUES or n == 1 for n in sizes)
    # every index once and in order, each block starting where the last one stopped
    assert [lo + i for lo, generators in blocks for i in range(len(generators))] == list(
        range(count)
    )
    draws = [g.random() for _, generators in blocks for g in generators]
    assert draws == [seeding.substream(11, r).random() for r in range(count)]
