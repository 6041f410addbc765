"""The tail-percentile rule: at least ten samples beyond the reported percentile."""

import pytest

from perfbench.spec import TAIL_LADDER
from perfbench.stats import MIN_BEYOND, nearest_rank, samples_beyond, tail, tail_percentile


@pytest.mark.parametrize(
    ("count", "percentile"),
    [
        (10_000, 99.9),
        (9_999, 99.0),
        (1_000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (99, 75.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
    ],
)
def test_highest_percentile_with_ten_beyond(count, percentile):
    assert tail_percentile(count) == percentile


def test_every_count_leaves_ten_beyond_or_falls_back_to_the_median():
    for count in range(1, 3_000):
        percentile = tail_percentile(count)
        if count >= 20:
            assert samples_beyond(percentile, count) >= MIN_BEYOND
            higher = [p for p in TAIL_LADDER if p > percentile]
            assert all(samples_beyond(p, count) < MIN_BEYOND for p in higher)
        else:
            assert percentile == TAIL_LADDER[-1]


def test_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50.0) == 50
    assert nearest_rank(values, 90.0) == 90
    assert nearest_rank(values, 99.0) == 99
    assert nearest_rank([5.0], 99.0) == 5.0
    assert nearest_rank(list(reversed(values)), 75.0) == 75


def test_tail_counts_the_samples_strictly_beyond():
    values = [float(v) for v in range(1, 1001)]
    percentile, value = tail(values)
    assert percentile == 99.0
    assert value == 990.0
    assert sum(1 for v in values if v > value) == MIN_BEYOND


def test_empty_samples_are_refused():
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)
