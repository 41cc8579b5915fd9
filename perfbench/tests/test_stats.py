"""The benchmark's own arithmetic: self time, percentiles, failure counting."""

import pytest

from stats import (Tally, highest_percentile, median, percentile,
                   samples_beyond, self_times, union_length)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert union_length([(1, 3), (1.5, 2)], 0.0, 10.0) == 2.0
    assert union_length([(-5, 2), (9, 20)], 0.0, 10.0) == 3.0
    assert union_length([(4, 4), (6, 5)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_only_direct_children():
    #  0: root [0, 10]
    #  1:   child [1, 4]
    #  2:     grandchild [2, 3]
    #  3:   child [3.5, 6]   overlaps child 1 by 0.5
    starts = [0.0, 1.0, 2.0, 3.5]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [None, 0, 1, 0]
    own = self_times(starts, ends, parents)
    assert own == pytest.approx([10.0 - 5.0, 3.0 - 1.0, 1.0, 2.5])
    # self times of a tree add up to the root's duration
    assert sum(own) == pytest.approx(10.0 + 0.5)   # the overlap counts twice


def test_self_time_of_sequential_children_adds_to_parent():
    starts = [0.0, 0.5, 2.0, 5.0]
    ends = [6.0, 1.5, 4.0, 5.5]
    parents = [None, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(6.0 - 3.5)
    assert sum(own) == pytest.approx(6.0)


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 100))                   # 99 samples
    assert samples_beyond(99, 90.0) == 9
    assert percentile(values, 90.0) is None
    values = list(range(1, 101))                   # 100 samples
    assert samples_beyond(100, 90.0) == 10
    assert percentile(values, 90.0) == 90          # ten values lie beyond
    assert sum(v > percentile(values, 90.0) for v in values) == 10
    assert percentile(list(range(1000, 0, -1)), 99.0) == 990
    assert percentile(list(range(999)), 99.0) is None


def test_median_percentile_needs_one_sample():
    assert percentile([], 50.0) is None
    assert percentile([7.0], 50.0) == 7.0
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert median([]) is None
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


@pytest.mark.parametrize("n, expected", [(0, None), (1, 50.0), (99, 50.0),
                                         (100, 90.0), (999, 90.0), (1000, 99.0),
                                         (10000, 99.9)])
def test_highest_percentile_with_ten_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_tally_counts_each_failed_unit_once():
    t = Tally()
    t.add("job-0", 320)
    t.add("job-1", 320)
    t.add("parity", 32)
    assert (t.attempted, t.failed, t.correct) == (672, 0, True)
    assert t.check(False, ["job-1"], "losses finite") is False
    assert t.check(False, ["job-1", "parity"], "repeat") is False
    assert t.check(True, ["job-0"], "reload") is True
    assert (t.attempted, t.failed) == (672, 352)
    assert t.failed_frac == pytest.approx(352 / 672)
    assert not t.correct
    assert len(t.problems) == 3


def test_tally_rejects_unknown_units_and_negative_counts():
    t = Tally()
    with pytest.raises(ValueError):
        t.add("job-0", -1)
    with pytest.raises(KeyError):
        t.fail("job-9", "never added")


def test_tally_with_nothing_attempted_is_not_correct():
    t = Tally()
    assert t.failed_frac == 1.0
    assert not t.correct
