import pytest

from perfbench.percentiles import median, percentile, read_wait, split_by_overlap


def test_nearest_rank_percentiles():
    values = list(range(10, 0, -1))  # unsorted input
    assert percentile(values, 50) == 5
    assert percentile(values, 75) == 8
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile(values, 1) == 1
    assert percentile([7.5], 99) == 7.5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_overlap_classification():
    appends = [(2.0, 3.0), (0.0, 1.0)]  # any order
    reads = [(0.5, 0.6), (1.0, 2.0), (2.9, 4.0), (3.0, 5.0), (-1.0, 0.1)]
    overlapping, clear = split_by_overlap(reads, appends)
    # Touching endpoints do not overlap.
    assert overlapping == [(0.5, 0.6), (2.9, 4.0), (-1.0, 0.1)]
    assert clear == [(1.0, 2.0), (3.0, 5.0)]


def test_read_wait_is_median_difference():
    appends = [(0.0, 10.0)]
    reads = [(1.0, 4.0), (2.0, 7.0), (11.0, 12.0), (13.0, 14.0), (15.0, 17.0)]
    ratio, wait = read_wait(reads, appends)
    assert ratio == pytest.approx(2 / 5)
    assert wait == pytest.approx(4.0 - 1.0)  # median(3, 5) - median(1, 1, 2)


def test_read_wait_without_overlap():
    assert read_wait([(0.0, 1.0)], []) == (0.0, 0.0)
    with pytest.raises(ValueError):
        read_wait([], [(0.0, 1.0)])
